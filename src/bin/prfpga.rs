//! `prfpga` — command-line front end for the cost models.
//!
//! ```text
//! prfpga devices
//! prfpga plan <device> (--syr <file> | --prm fir|mips|sdram)
//! prfpga bitstream <device> (--syr <file> | --prm <name>) [-o <out.bin>]
//! prfpga dump <bitstream.bin>
//! prfpga floorplan <device> --prms fir,mips,sdram
//! prfpga sweep [--json <file>] [--metrics <file>]
//! prfpga defrag [--device <name>] [--seed S] [--tasks N] [--policy <p>] [--depth N] [--proactive] [--json <file>]
//! prfpga bench-pipeline [--tasks N] [--device <name>] [--workers W|W1,W2,...] [--json <file>] [--metrics <file>]
//! prfpga sched-ablate [--seed S] [--tasks N] [--horizon-ms H] [--admission-sets K] [--slack F] [--json <file>]
//! ```

use parflow::autofloorplan::{auto_floorplan, PrrSpec};
use prfpga::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("devices") => cmd_devices(),
        Some("plan") => cmd_plan(&args[1..], false),
        Some("bitstream") => cmd_plan(&args[1..], true),
        Some("dump") => cmd_dump(&args[1..]),
        Some("floorplan") => cmd_floorplan(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("defrag") => cmd_defrag(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench-service") => cmd_bench_service(&args[1..]),
        Some("bench-pipeline") => cmd_bench_pipeline(&args[1..]),
        Some("sched-ablate") => cmd_sched_ablate(&args[1..]),
        _ => {
            eprintln!(
                "usage: prfpga <devices|plan|bitstream|dump|floorplan|sweep|defrag> ...\n\
                 \n\
                 devices                                    list the device database\n\
                 plan <device> --syr <file>                 plan a PRR from an XST report\n\
                 plan <device> --prm <fir|mips|sdram>       plan for a paper PRM\n\
                 bitstream <device> --prm <name> [-o FILE]  also generate the partial bitstream\n\
                 dump <file>                                parse + summarize a bitstream file\n\
                 floorplan <device> --prms a,b,c            jointly place one PRR per PRM\n\
                 simulate <device> --trace FILE [--prrs N]  replay a task trace\n\
                          [--clb C --dsp D --bram B --height H] [--preemptive]\n\
                 sweep [--json FILE] [--metrics FILE]       evaluate every PRM on every device\n\
                 defrag [--device NAME] [--seed S] [--tasks N] [--modules M] [--scale K]\n\
                        [--policy never|threshold|always] [--threshold R] [--depth 0..4]\n\
                        [--proactive] [--json FILE]\n\
                                                            dynamic layout sim, defrag vs baseline;\n\
                                                            --depth N plans multi-move sequences,\n\
                                                            --proactive repairs in ICAP idle windows\n\
                 serve [--workers N] [--requests R] [--tenants T] [--modules M] [--seed S]\n\
                       [--scale K] [--state FILE] [--metrics FILE]\n\
                                                            run a request stream through the async\n\
                                                            planning service (snapshot warm starts)\n\
                 bench-service [--requests R]               warm-memo replay throughput of the\n\
                                                            engine's device-handle hit path\n\
                 bench-pipeline [--tasks N] [--device NAME] [--chunk C] [--modules M]\n\
                                [--workers W|W1,W2,...] [--queue-depth Q] [--seed S]\n\
                                [--json FILE] [--metrics FILE]\n\
                                                            stream N tasks through synth -> plan ->\n\
                                                            place -> bitstream -> simulate; a comma\n\
                                                            list of workers sweeps the scaling table;\n\
                                                            writes results/BENCH_pipeline.json\n\
                 sched-ablate [--seed S] [--tasks N] [--horizon-ms H]\n\
                              [--admission-sets K] [--slack F] [--json FILE]\n\
                                                            first-fit and reuse-aware x workload\n\
                                                            classes, defrag policies and admission\n\
                                                            tests on a mixed PRR pool; writes\n\
                                                            results/BENCH_sched.json"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type AnyError = Box<dyn std::error::Error>;

fn cmd_devices() -> Result<(), AnyError> {
    println!(
        "{:<12} {:<10} {:>5} {:>6} {:>6} {:>6} {:>6}",
        "part", "family", "rows", "CLBs", "DSPs", "BRAMs", "full-bitstream B"
    );
    for d in fabric::all_devices() {
        let t = d.total_resources();
        println!(
            "{:<12} {:<10} {:>5} {:>6} {:>6} {:>6} {:>10}",
            d.name(),
            d.family().name(),
            d.rows(),
            t.clb(),
            t.dsp(),
            t.bram(),
            prcost::full_bitstream_size_bytes(&d),
        );
    }
    Ok(())
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn load_report(args: &[String], family: Family) -> Result<SynthReport, AnyError> {
    if let Some(path) = flag(args, "--syr") {
        let text = std::fs::read_to_string(path)?;
        return Ok(synth::xst::parse_report(&text)?);
    }
    if let Some(name) = flag(args, "--prm") {
        let prm = match name.to_ascii_lowercase().as_str() {
            "fir" => PaperPrm::Fir,
            "mips" => PaperPrm::Mips,
            "sdram" => PaperPrm::Sdram,
            other => return Err(format!("unknown PRM `{other}` (fir|mips|sdram)").into()),
        };
        return Ok(prm.synth_report(family));
    }
    Err("need --syr <file> or --prm <name>".into())
}

fn cmd_plan(args: &[String], with_bitstream: bool) -> Result<(), AnyError> {
    let device_name = args.first().ok_or("missing <device>")?;
    let device = fabric::device_by_name(device_name)?;
    let report = load_report(args, device.family())?;
    let eval = prfpga::evaluate_prm(&report, &device)?;
    let o = &eval.plan.organization;
    println!(
        "module {} on {} ({})",
        report.module,
        device.name(),
        device.family()
    );
    println!(
        "PRR: H={} W={} ({} CLB + {} DSP + {} BRAM) at columns {}..{}, rows {}..{}",
        o.height,
        o.width(),
        o.clb_cols,
        o.dsp_cols,
        o.bram_cols,
        eval.plan.window.start_col,
        eval.plan.window.end_col() - 1,
        eval.plan.window.row,
        eval.plan.window.top_row(),
    );
    print!("{}", prcost::datasheet(&eval.plan));
    println!("DMA-ICAP reconfiguration: {:?}", eval.reconfig_time);
    if with_bitstream {
        let out = flag(args, "-o").unwrap_or("partial.bin");
        std::fs::write(out, eval.bitstream.to_bytes())?;
        println!("wrote {out} ({} bytes)", eval.bitstream.len_bytes());
    }
    Ok(())
}

fn cmd_dump(args: &[String]) -> Result<(), AnyError> {
    let path = args.first().ok_or("missing <file>")?;
    let bytes = std::fs::read(path)?;
    let words = bitstream::PartialBitstream::words_from_bytes(&bytes);
    let parsed = bitstream::parser::parse_words(&words, false)?;
    println!(
        "{} words, sync at word {}",
        parsed.total_words, parsed.sync_offset_words
    );
    if let Some(id) = parsed.idcode {
        println!("IDCODE {id:#010x}");
    }
    println!("CRC: {}", if parsed.crc_ok { "OK" } else { "MISMATCH" });
    println!("commands: {:?}", parsed.commands);
    for w in &parsed.frame_writes {
        println!(
            "  {:?} write: row {}, column {}, {} payload words",
            w.far.block, w.far.row, w.far.column, w.words
        );
    }
    Ok(())
}

fn cmd_floorplan(args: &[String]) -> Result<(), AnyError> {
    let device_name = args.first().ok_or("missing <device>")?;
    let device = fabric::device_by_name(device_name)?;
    let names = flag(args, "--prms").ok_or("need --prms a,b,c")?;
    let mut specs = Vec::new();
    for (i, n) in names.split(',').enumerate() {
        let prm = match n.trim().to_ascii_lowercase().as_str() {
            "fir" => PaperPrm::Fir,
            "mips" => PaperPrm::Mips,
            "sdram" => PaperPrm::Sdram,
            other => return Err(format!("unknown PRM `{other}`").into()),
        };
        specs.push(PrrSpec::single(
            format!("prr{i}_{}", prm.module_name()),
            prm.synth_report(device.family()),
        ));
    }
    let plan = auto_floorplan(&specs, &device, 10_000)?;
    println!(
        "{} PRRs placed, total bitstream {} bytes ({} nodes explored)",
        plan.prrs.len(),
        plan.total_bitstream_bytes,
        plan.nodes_explored
    );
    print!("{}", plan.to_floorplan(&device).to_ucf());
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), AnyError> {
    use synth::prm::{AesEngine, FftCore, FirFilter, MipsCore, SdramController, Uart};

    let generators: Vec<Box<dyn PrmGenerator + Sync>> = vec![
        Box::new(FirFilter::paper()),
        Box::new(MipsCore::paper()),
        Box::new(SdramController::paper()),
        Box::new(Uart::standard()),
        Box::new(AesEngine::standard()),
        Box::new(FftCore::standard()),
    ];
    let devices = fabric::all_devices();
    let engine = Engine::new();
    let run = prfpga::sweep::sweep_with_engine(&engine, &generators, &devices);

    println!(
        "{:<14} {:<12} {:>3} {:>3} {:>12} {:>12} {:>7}",
        "module", "device", "H", "W", "bitstream B", "reconfig", "RU_CLB"
    );
    for p in &run.points {
        match &p.outcome {
            Ok(plan) => println!(
                "{:<14} {:<12} {:>3} {:>3} {:>12} {:>12} {:>6.1}%",
                p.module,
                p.device,
                plan.height,
                plan.width,
                plan.bitstream_bytes,
                format!("{:.1?}", plan.reconfig),
                plan.ru_clb,
            ),
            Err(e) => println!("{:<14} {:<12} infeasible: {e}", p.module, p.device),
        }
    }

    let feasible = run.points.iter().filter(|p| p.outcome.is_ok()).count();
    let c = &run.metrics.counters;
    println!();
    println!(
        "{} points ({} feasible) in {:.1?} — {:.0} points/s",
        run.points.len(),
        feasible,
        run.elapsed,
        run.points_per_sec
    );
    println!(
        "stage time: synth {:.1?}, geometry {:.1?}, plan {:.1?}",
        run.metrics.stage_total("synth"),
        run.metrics.stage_total("geometry"),
        run.metrics.stage_total("plan"),
    );
    let pct =
        |r: Option<f64>| r.map_or_else(|| "n/a".to_string(), |v| format!("{:.0}%", v * 100.0));
    println!(
        "cache hit rates: synth {} ({} runs), geometry {} ({} builds), \
         plan memo {} ({} plans)",
        pct(c.synth_hit_rate()),
        c.synth_calls,
        pct(c.geometry_hit_rate()),
        c.geometry_builds,
        pct(c.plan_hit_rate()),
        c.plans,
    );
    println!(
        "window index: {} probes over {} interned compositions, \
         {} padded fallbacks",
        c.window_probes, c.distinct_compositions, c.padded_fallbacks,
    );

    if let Some(path) = flag(args, "--json") {
        std::fs::write(path, serde_json::to_string_pretty(&run.points)?)?;
        println!("wrote sweep points to {path}");
    }
    if let Some(path) = flag(args, "--metrics") {
        std::fs::write(path, serde_json::to_string_pretty(&run.metrics)?)?;
        println!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

fn cmd_defrag(args: &[String]) -> Result<(), AnyError> {
    use prfpga::layout::{simulate_layout, DefragPolicy, LayoutConfig, LayoutReport};

    let device = fabric::device_by_name(flag(args, "--device").unwrap_or("xc5vlx110t"))?;
    let num = |name: &str, default: u64| -> u64 {
        flag(args, name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let seed = num("--seed", 12);
    let tasks = num("--tasks", 200) as u32;
    let modules = num("--modules", 16) as u32;
    let scale = num("--scale", 1500) as u32;
    let ratio: f64 = flag(args, "--threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let policy = match flag(args, "--policy").unwrap_or("always") {
        "never" => DefragPolicy::Never,
        "threshold" => DefragPolicy::Threshold(ratio),
        "always" => DefragPolicy::Always,
        other => return Err(format!("unknown policy `{other}` (never|threshold|always)").into()),
    };
    let depth = num("--depth", 0) as u32;
    if depth > 4 {
        return Err("--depth must be 0 (single-step) to 4".into());
    }
    let proactive = args.iter().any(|a| a == "--proactive");

    let workload = Workload::generate_heavy_tailed(
        seed,
        device.family(),
        tasks,
        modules,
        scale,
        num("--interarrival", 40_000),
        num("--exec", 400_000),
    );
    let run = |policy, depth, proactive| {
        simulate_layout(
            &device,
            &workload,
            &LayoutConfig {
                policy,
                depth,
                proactive,
                ..LayoutConfig::default()
            },
        )
    };
    let baseline = run(DefragPolicy::Never, 0, false);
    let report = run(policy, depth, proactive);

    println!(
        "{} tasks (heavy-tailed, seed {seed}) on {}: {policy:?} depth {depth}{} vs Never",
        workload.tasks.len(),
        device.name(),
        if proactive { " proactive" } else { "" },
    );
    let row = |label: &str, r: &LayoutReport| {
        println!(
            "{label:<10} admitted {:>4}  rej(frag) {:>4}  rej(cap) {:>4}  \
             relocations {:>3} ({:.3} ms, {} B)  makespan {:.3} ms  frag peak {:.2}",
            r.admitted,
            r.rejected_fragmentation,
            r.rejected_capacity,
            r.relocations,
            r.relocation_ns as f64 / 1e6,
            r.relocated_bytes,
            r.makespan_ns as f64 / 1e6,
            r.peak_fragmentation,
        );
    };
    row("never", &baseline);
    row("chosen", &report);
    let gained = report.admitted as i64 - baseline.admitted as i64;
    println!(
        "defrag admitted {gained:+} tasks for {} relocations ({} defrag-enabled admissions, \
         {} proactive repairs, {} context bytes)",
        report.relocations,
        report.defrag_admissions,
        report.proactive_defrags,
        report.context_bytes,
    );

    if let Some(path) = flag(args, "--json") {
        #[derive(serde::Serialize)]
        struct DefragRun {
            device: String,
            seed: u64,
            tasks: u32,
            baseline: LayoutReport,
            report: LayoutReport,
        }
        let out = DefragRun {
            device: device.name().to_string(),
            seed,
            tasks,
            baseline,
            report,
        };
        std::fs::write(path, serde_json::to_string_pretty(&out)?)?;
        println!("wrote defrag comparison to {path}");
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), AnyError> {
    let device_name = args.first().ok_or("missing <device>")?;
    let device = fabric::device_by_name(device_name)?;
    let trace_path = flag(args, "--trace").ok_or("need --trace <file>")?;
    let text = std::fs::read_to_string(trace_path)?;
    let workload = multitask::parse_trace(&text)?;

    let num = |name: &str, default: u32| -> u32 {
        flag(args, name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let org = PrrOrganization {
        family: device.family(),
        height: num("--height", 1),
        clb_cols: num("--clb", 4),
        dsp_cols: num("--dsp", 0),
        bram_cols: num("--bram", 0),
    };
    let system = PrSystem::homogeneous(&device, org, num("--prrs", 2), IcapModel::V5_DMA)?;
    println!(
        "{} tasks on {} PRRs (H={} W={}, {} B bitstream each)",
        workload.tasks.len(),
        system.prrs.len(),
        org.height,
        org.width(),
        system.prrs[0].bitstream_bytes
    );

    if args.iter().any(|a| a == "--preemptive") {
        let r = multitask::simulate_preemptive(&system, &workload);
        println!(
            "preemptive: {} completed, makespan {:.3} ms, {} preemptions, \
             {} reconfigs, context overhead {:.3} ms, urgent response {:.1} us",
            r.completed,
            r.makespan_ns as f64 / 1e6,
            r.preemptions,
            r.reconfigurations,
            r.context_switch_ns as f64 / 1e6,
            r.urgent_mean_response_ns as f64 / 1e3,
        );
    } else {
        let r = simulate(&system, &workload, &multitask::ReuseAware);
        println!(
            "{}: {} completed, makespan {:.3} ms, {} reconfigs ({} reused), \
             ICAP busy {:.3} ms, mean wait {:.1} us",
            r.scheduler,
            r.completed,
            r.makespan_ns as f64 / 1e6,
            r.reconfigurations,
            r.reuse_hits,
            r.icap_busy_ns as f64 / 1e6,
            r.mean_wait_ns() as f64 / 1e3,
        );
    }
    Ok(())
}

/// Run a synthetic multi-tenant request stream through the async
/// planning service. With `--state FILE`, the engine warm-starts from a
/// persisted memo snapshot (if the file exists) and persists its final
/// state back — a second run answers everything from the reloaded memo.
fn cmd_serve(args: &[String]) -> Result<(), AnyError> {
    use prcost::{PlanService, ServiceConfig};
    use std::sync::Arc;
    use synth::GenericPrm;

    let num = |name: &str, default: u64| -> Result<u64, AnyError> {
        flag(args, name)
            .map(str::parse::<u64>)
            .transpose()
            .map_err(|e| format!("bad {name}: {e}").into())
            .map(|v| v.unwrap_or(default))
    };
    let workers = num("--workers", 4)? as usize;
    let requests = num("--requests", 5_000)? as usize;
    let tenants = num("--tenants", 3)?.max(1) as usize;
    let modules = num("--modules", 12)?.max(1);
    let seed = num("--seed", 7)?;
    let scale = num("--scale", 1_200)? as u32;
    let state_path = flag(args, "--state");

    let engine = match state_path {
        Some(path) if std::path::Path::new(path).exists() => {
            let text = std::fs::read_to_string(path)?;
            let snapshot: prcost::EngineSnapshot = serde_json::from_str(&text)?;
            let engine = Engine::import_state(&snapshot)?;
            println!(
                "warm start: restored {} memoized plans from {path}",
                engine.plan_memo_len()
            );
            engine
        }
        _ => Engine::new(),
    };
    let engine = Arc::new(engine);
    let mut service = PlanService::with_engine(
        Arc::clone(&engine),
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
    );

    let devices = fabric::all_devices();
    let tenant_names: Vec<String> = (0..tenants).map(|t| format!("tenant{t}")).collect();
    let start = std::time::Instant::now();
    let mut tickets = Vec::with_capacity(requests);
    for i in 0..requests {
        let device = &devices[i % devices.len()];
        let module = seed + (i as u64 % modules);
        let report = GenericPrm::random(module, scale).synthesize(device.family());
        let ticket = service.submit(
            &tenant_names[i % tenants],
            PrrRequirements::from_report(&report),
            device,
        )?;
        tickets.push(ticket);
    }
    let mut feasible = 0usize;
    for ticket in &tickets {
        if ticket.wait().is_ok() {
            feasible += 1;
        }
    }
    let elapsed = start.elapsed();
    service.shutdown();

    let snapshot = engine.snapshot();
    let c = &snapshot.counters;
    println!(
        "{requests} requests ({feasible} feasible) through {workers} workers in {elapsed:.1?} \
         — {:.0} plans/s",
        requests as f64 / elapsed.as_secs_f64()
    );
    let pct =
        |r: Option<f64>| r.map_or_else(|| "n/a".to_string(), |v| format!("{:.0}%", v * 100.0));
    println!(
        "plan memo: {} hit rate over {} plans ({} built); geometry {} over {} devices",
        pct(c.plan_hit_rate()),
        c.plans,
        c.plan_builds,
        pct(c.geometry_hit_rate()),
        c.geometry_builds,
    );
    if let Some(stage) = snapshot.stages.iter().find(|s| s.name == "service") {
        println!(
            "service latency (submit -> resolved): p50 {:.1} us, p90 {:.1} us, p99 {:.1} us",
            stage.p50_ns as f64 / 1e3,
            stage.p90_ns as f64 / 1e3,
            stage.p99_ns as f64 / 1e3,
        );
    }
    for tenant in &tenant_names {
        println!(
            "  {tenant}: {} plans",
            snapshot.labeled_value(&format!("tenant:{tenant}"))
        );
    }

    if let Some(path) = state_path {
        let exported = engine.export_state();
        std::fs::write(path, serde_json::to_string_pretty(&exported)?)?;
        println!(
            "persisted {} memoized plans to {path}",
            engine.plan_memo_len()
        );
    }
    if let Some(path) = flag(args, "--metrics") {
        std::fs::write(path, serde_json::to_string_pretty(&snapshot)?)?;
        println!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

/// Quick in-process check of warm-memo replay throughput: the engine's
/// device-handle hit path on the paper PRM x device grid. The full table
/// (worker scaling, p99, zero-alloc assertion) lives in
/// `benches/service_mt.rs`.
fn cmd_bench_service(args: &[String]) -> Result<(), AnyError> {
    let requests: usize = flag(args, "--requests")
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("bad --requests: {e}"))?
        .unwrap_or(200_000);

    use synth::prm::{AesEngine, FftCore, FirFilter, MipsCore, SdramController, Uart};
    let generators: Vec<Box<dyn PrmGenerator>> = vec![
        Box::new(FirFilter::paper()),
        Box::new(MipsCore::paper()),
        Box::new(SdramController::paper()),
        Box::new(Uart::standard()),
        Box::new(AesEngine::standard()),
        Box::new(FftCore::standard()),
    ];
    let devices = fabric::all_devices();
    let points: Vec<(SynthReport, Device)> = devices
        .iter()
        .flat_map(|d| {
            generators
                .iter()
                .map(|g| (g.synthesize(d.family()), d.clone()))
        })
        .collect();

    let engine = Engine::new();
    let mut scratch = PlanScratch::default();
    for (report, device) in &points {
        let _ = engine.plan_with_scratch(report, device, &mut scratch);
    }
    // Plan against devices resolved once, up front.
    let handles: Vec<prcost::DeviceHandle> = points
        .iter()
        .map(|(_, device)| engine.intern_device(device))
        .collect();

    let start = std::time::Instant::now();
    for i in 0..requests {
        let (report, _) = &points[i % points.len()];
        let req = PrrRequirements::from_report(report);
        let handle = &handles[i % points.len()];
        std::hint::black_box(engine.plan_on(&req, handle, &mut scratch));
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "warm replay, {} hits over {} points:",
        requests,
        points.len()
    );
    println!(
        "  sharded (device handle + key):   {:>10.0} plans/s",
        requests as f64 / elapsed
    );
    Ok(())
}

/// Stream a synthetic task mix through the whole system — synthesis,
/// planning, placement, arena bitstream emission, multitasking
/// simulation — under bounded memory, and record the run as
/// `results/BENCH_pipeline.json` (the regression-guarding whole-system
/// number; see `prfpga::pipeline`).
fn cmd_bench_pipeline(args: &[String]) -> Result<(), AnyError> {
    use prfpga::pipeline::{run_pipeline, run_pipeline_sweep, PipelineConfig};

    let num = |name: &str, default: u64| -> Result<u64, AnyError> {
        flag(args, name)
            .map(str::parse::<u64>)
            .transpose()
            .map_err(|e| format!("bad {name}: {e}").into())
            .map(|v| v.unwrap_or(default))
    };
    let defaults = PipelineConfig::default();

    // `--workers` accepts either a single count ("4") or a comma list
    // ("1,2,4,8,16"); the list form reruns the whole pipeline once per
    // count and records the scaling table in the report.
    let worker_sweep: Vec<usize> = match flag(args, "--workers") {
        None => vec![defaults.workers],
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|e| format!("bad --workers entry {s:?}: {e}"))
            })
            .collect::<Result<_, _>>()?,
    };
    if worker_sweep.is_empty() || worker_sweep.contains(&0) {
        return Err("--workers needs one or more nonzero counts".into());
    }

    let cfg = PipelineConfig {
        device: flag(args, "--device")
            .unwrap_or(&defaults.device)
            .to_string(),
        tasks: num("--tasks", defaults.tasks)?,
        chunk: num("--chunk", u64::from(defaults.chunk))? as u32,
        modules: num("--modules", u64::from(defaults.modules))? as u32,
        scale: num("--scale", u64::from(defaults.scale))? as u32,
        prrs: num("--prrs", u64::from(defaults.prrs))? as u32,
        workers: worker_sweep[0],
        queue_depth: num("--queue-depth", defaults.queue_depth as u64)? as usize,
        seed: num("--seed", defaults.seed)?,
        mean_interarrival_ns: num("--interarrival", defaults.mean_interarrival_ns)?,
        mean_exec_ns: num("--exec", defaults.mean_exec_ns)?,
    };

    let report = if worker_sweep.len() > 1 {
        run_pipeline_sweep(&cfg, &worker_sweep).map_err(|e| e.to_string())?
    } else {
        run_pipeline(&cfg).map_err(|e| e.to_string())?
    };
    println!(
        "{} tasks on {} ({} workers, chunk {}, queue {}): {:.1} ms — {:.0} tasks/s",
        report.tasks,
        report.device,
        report.workers,
        report.chunk,
        report.queue_depth,
        report.elapsed_ms,
        report.tasks_per_sec,
    );
    println!(
        "emitted {} bitstreams ({:.1} MiB), simulated makespan {:.1} ms, \
         {} reconfigs ({} reused), total wait {:.1} ms",
        report.bitstreams_emitted,
        report.bitstream_bytes as f64 / (1024.0 * 1024.0),
        report.simulated_makespan_ns as f64 / 1e6,
        report.reconfigurations,
        report.reuse_hits,
        report.total_wait_ns as f64 / 1e6,
    );
    let pct =
        |r: Option<f64>| r.map_or_else(|| "n/a".to_string(), |v| format!("{:.0}%", v * 100.0));
    println!(
        "plan memo hit rate {}, peak RSS {:.1} MiB",
        pct(report.plan_hit_rate),
        report.peak_rss_bytes as f64 / (1024.0 * 1024.0),
    );
    println!(
        "kernels: crc {} / fill {} ({} host cpus)",
        report.crc_dispatch, report.fill_dispatch, report.host_cpus,
    );
    if !report.worker_sweep.is_empty() {
        println!(
            "{:<8} {:>10} {:>12} {:>12}",
            "workers", "total ms", "tasks/s", "speedup"
        );
        for row in &report.worker_sweep {
            println!(
                "{:<8} {:>10.1} {:>12.0} {:>11.2}x",
                row.workers, row.elapsed_ms, row.tasks_per_sec, row.speedup_vs_one,
            );
        }
    }
    println!(
        "{:<20} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "stage", "chunks", "total ms", "p50 us", "p90 us", "p99 us"
    );
    for s in &report.stages {
        println!(
            "{:<20} {:>9} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.p50_ns as f64 / 1e3,
            s.p90_ns as f64 / 1e3,
            s.p99_ns as f64 / 1e3,
        );
    }

    // Same artifact convention as `bench::write_json` (the prfpga crate
    // does not depend on `bench`): `results/` at the workspace root,
    // overridable with PRFPGA_RESULTS_DIR or an explicit --json path.
    let path = match flag(args, "--json") {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = std::env::var("PRFPGA_RESULTS_DIR")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|_| {
                    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
                });
            std::fs::create_dir_all(&dir)?;
            dir.join("BENCH_pipeline.json")
        }
    };
    std::fs::write(&path, serde_json::to_string_pretty(&report)?)?;
    println!("wrote {}", path.display());

    // `--metrics FILE`: a compact operational snapshot (dispatch paths,
    // throughput, scaling rows) for dashboards that don't want the full
    // per-stage report written by `--json`.
    if let Some(mpath) = flag(args, "--metrics") {
        // Owned fields: the vendored serde derive does not support
        // generic (lifetime-parameterized) types.
        #[derive(serde::Serialize)]
        struct PipelineMetrics {
            crc_dispatch: String,
            fill_dispatch: String,
            host_cpus: usize,
            workers: usize,
            tasks_per_sec: f64,
            elapsed_ms: f64,
            peak_rss_bytes: u64,
            worker_sweep: Vec<prfpga::pipeline::WorkerScalingRow>,
        }
        let metrics = PipelineMetrics {
            crc_dispatch: report.crc_dispatch.clone(),
            fill_dispatch: report.fill_dispatch.clone(),
            host_cpus: report.host_cpus,
            workers: report.workers,
            tasks_per_sec: report.tasks_per_sec,
            elapsed_ms: report.elapsed_ms,
            peak_rss_bytes: report.peak_rss_bytes,
            worker_sweep: report.worker_sweep.clone(),
        };
        std::fs::write(mpath, serde_json::to_string_pretty(&metrics)?)?;
        println!("wrote metrics snapshot to {mpath}");
    }
    Ok(())
}

fn cmd_sched_ablate(args: &[String]) -> Result<(), AnyError> {
    use prfpga::sched::{run_ablation, AblationConfig};

    let num = |name: &str, default: u64| -> u64 {
        flag(args, name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let defaults = AblationConfig::default();
    let cfg = AblationConfig {
        seed: num("--seed", defaults.seed),
        tasks: num("--tasks", u64::from(defaults.tasks)) as u32,
        horizon_ms: num("--horizon-ms", defaults.horizon_ms),
        deadline_slack: flag(args, "--slack")
            .and_then(|v| v.parse().ok())
            .unwrap_or(defaults.deadline_slack),
        admission_sets: num("--admission-sets", u64::from(defaults.admission_sets)) as u32,
    };
    let report = run_ablation(&cfg);

    println!(
        "scheduler ablation on {} ({} PRRs: {}), seed {}",
        report.device,
        report.prrs.len(),
        report.prrs.join(" "),
        cfg.seed,
    );
    println!(
        "{:<14} {:<16} {:>8} {:>9} {:>8} {:>11} {:>7} {:>6}",
        "class", "scheduler", "admitted", "completed", "miss", "resp ms", "reuse", "icap"
    );
    for r in &report.rows {
        println!(
            "{:<14} {:<16} {:>8} {:>9} {:>8.3} {:>11.3} {:>7.3} {:>6.3}",
            r.class,
            r.scheduler,
            r.admitted,
            r.completed,
            r.deadline_miss_ratio,
            r.mean_response_ms,
            r.reuse_rate,
            r.icap_utilization,
        );
    }
    println!(
        "\nadmission ({} sets/level, worst reconfig {:.1} us):",
        cfg.admission_sets,
        report.worst_reconfig_ns as f64 / 1e3,
    );
    println!(
        "{:<10} {:>12} {:>12} {:>16}",
        "target U", "LL bound", "RTA", "mean inflated U"
    );
    for a in &report.admission {
        println!(
            "{:<10} {:>9}/{:<2} {:>9}/{:<2} {:>16.3}",
            a.target_utilization,
            a.ub_admitted,
            a.tasksets,
            a.rta_admitted,
            a.tasksets,
            a.mean_inflated_utilization,
        );
    }
    println!("\ndefrag (layout loss-system):");
    println!(
        "{:<14} {:<14} {:>8} {:>10} {:>7} {:>9}",
        "class", "policy", "admitted", "rej(frag)", "relocs", "reloc ms"
    );
    for d in &report.defrag {
        println!(
            "{:<14} {:<14} {:>8} {:>10} {:>7} {:>9.3}",
            d.class, d.policy, d.admitted, d.rejected_fragmentation, d.relocations, d.relocation_ms,
        );
    }

    // Same artifact convention as bench-pipeline above.
    let path = match flag(args, "--json") {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = std::env::var("PRFPGA_RESULTS_DIR")
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|_| {
                    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
                });
            std::fs::create_dir_all(&dir)?;
            dir.join("BENCH_sched.json")
        }
    };
    std::fs::write(&path, serde_json::to_string_pretty(&report)?)?;
    println!("wrote {}", path.display());
    Ok(())
}
