//! `prfpga` — command-line front end for the cost models.
//!
//! Run it without arguments for the usage text (`USAGE_ENTRIES`, one
//! entry per subcommand in `COMMANDS`), which lists every flag.

use parflow::autofloorplan::{auto_floorplan, PrrSpec};
use prfpga::prelude::*;
use std::io::Write;
use std::process::ExitCode;

// Command output goes through `print!` and `println!` below, which shadow
// the standard macros in this file and differ in one way: a closed stdout
// ends the output, not the process. When the reader of a pipe goes away
// (`prfpga sweep | head -1`), later output is dropped, and the command
// still finishes its work (files it was asked to write included) and
// exits 0. Any other write error panics, as with the standard macros.

macro_rules! print {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        print!("\n")
    };
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write `args` to stdout, dropping them once stdout is closed.
fn emit(args: std::fmt::Arguments) {
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(result) = run(&args) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The usage text: a header listing every subcommand in [`COMMANDS`],
/// then one entry per subcommand.
fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    format!("usage: prfpga <{}> ...\n{USAGE_ENTRIES}", names.join("|"))
}

const USAGE_ENTRIES: &str = "
  devices                                    list the device database
  plan <device> --syr <file>                 plan a PRR from an XST report
  plan <device> --prm <fir|mips|sdram>       plan for a paper PRM
  bitstream <device> (--syr FILE | --prm NAME) [-o FILE]
                                             also generate the partial bitstream
  dump <file>                                parse + summarize a bitstream file
  floorplan <device> --prms a,b,c            jointly place one PRR per PRM
  simulate <device> --trace FILE [--prrs N]  replay a task trace
           [--clb C --dsp D --bram B --height H] [--preemptive]
  sweep [--json FILE] [--metrics FILE]       evaluate every PRM on every device
  defrag [--device NAME] [--seed S] [--tasks N] [--modules M] [--scale K]
         [--policy never|threshold|always] [--threshold R] [--depth 0..4]
         [--interarrival NS] [--exec NS] [--proactive] [--json FILE]
                                             dynamic layout sim, defrag vs baseline;
                                             --depth N plans multi-move sequences,
                                             --proactive repairs in ICAP idle windows
  serve [--requests R] [--tenants T] [--modules M] [--seed S] [--scale K]
        [--state FILE] [--metrics FILE]
                                             plan a multi-tenant request stream on
                                             this thread (snapshot warm starts)
  bench-pipeline [--tasks N] [--device NAME] [--chunk C] [--modules M]
                 [--scale K] [--prrs N] [--workers W|W1,W2,...]
                 [--queue-depth Q] [--seed S] [--interarrival NS] [--exec NS]
                 [--json FILE] [--metrics FILE]
                                             stream N tasks through synth -> plan ->
                                             place -> bitstream -> simulate; a comma
                                             list of workers sweeps the scaling table;
                                             writes results/BENCH_pipeline.json
  sched-ablate [--seed S] [--tasks N] [--horizon-ms H]
               [--admission-sets K] [--slack F] [--json FILE]
                                             first-fit and reuse-aware x workload
                                             classes, defrag policies and admission
                                             tests on a mixed PRR pool; writes
                                             results/BENCH_sched.json

A flag a subcommand does not list is an error, and so is a value that does not
parse as its flag's number.";

/// Parse `args` against the subcommand its first element names, then run
/// it; `None` when it names no subcommand.
fn run(args: &[String]) -> Option<Result<(), AnyError>> {
    let (name, rest) = args.split_first()?;
    let command = COMMANDS.iter().find(|c| c.name == name)?;
    Some(command.parse(rest).and_then(|args| (command.run)(&args)))
}

/// A subcommand: the arguments it accepts and the function that runs it.
struct Command {
    name: &'static str,
    /// Positional arguments, by the name a missing one is reported under.
    positional: &'static [&'static str],
    /// Flags that take the next argument as their value.
    valued: &'static [&'static str],
    /// Flags that take no value.
    switches: &'static [&'static str],
    run: fn(&Args) -> Result<(), AnyError>,
}

/// Every subcommand, with every flag it reads.
const COMMANDS: &[Command] = &[
    Command {
        name: "devices",
        positional: &[],
        valued: &[],
        switches: &[],
        run: cmd_devices,
    },
    Command {
        name: "plan",
        positional: &["<device>"],
        valued: &["--syr", "--prm"],
        switches: &[],
        run: cmd_plan,
    },
    Command {
        name: "bitstream",
        positional: &["<device>"],
        valued: &["--syr", "--prm", "-o"],
        switches: &[],
        run: cmd_bitstream,
    },
    Command {
        name: "dump",
        positional: &["<file>"],
        valued: &[],
        switches: &[],
        run: cmd_dump,
    },
    Command {
        name: "floorplan",
        positional: &["<device>"],
        valued: &["--prms"],
        switches: &[],
        run: cmd_floorplan,
    },
    Command {
        name: "simulate",
        positional: &["<device>"],
        valued: &["--trace", "--prrs", "--clb", "--dsp", "--bram", "--height"],
        switches: &["--preemptive"],
        run: cmd_simulate,
    },
    Command {
        name: "sweep",
        positional: &[],
        valued: &["--json", "--metrics"],
        switches: &[],
        run: cmd_sweep,
    },
    Command {
        name: "defrag",
        positional: &[],
        valued: &[
            "--device",
            "--seed",
            "--tasks",
            "--modules",
            "--scale",
            "--threshold",
            "--policy",
            "--depth",
            "--interarrival",
            "--exec",
            "--json",
        ],
        switches: &["--proactive"],
        run: cmd_defrag,
    },
    Command {
        name: "serve",
        positional: &[],
        valued: &[
            "--requests",
            "--tenants",
            "--modules",
            "--seed",
            "--scale",
            "--state",
            "--metrics",
        ],
        switches: &[],
        run: cmd_serve,
    },
    Command {
        name: "bench-pipeline",
        positional: &[],
        valued: &[
            "--tasks",
            "--device",
            "--chunk",
            "--modules",
            "--scale",
            "--prrs",
            "--workers",
            "--queue-depth",
            "--seed",
            "--interarrival",
            "--exec",
            "--json",
            "--metrics",
        ],
        switches: &[],
        run: cmd_bench_pipeline,
    },
    Command {
        name: "sched-ablate",
        positional: &[],
        valued: &[
            "--seed",
            "--tasks",
            "--horizon-ms",
            "--slack",
            "--admission-sets",
            "--json",
        ],
        switches: &[],
        run: cmd_sched_ablate,
    },
];

impl Command {
    /// Split `args` into this subcommand's positionals, flag values and
    /// switches. An argument that starts with `-` and is not one of its
    /// flags is an error naming it, as are a valued flag without its value
    /// and a positional beyond the ones it takes.
    fn parse<'a>(&'static self, args: &'a [String]) -> Result<Args<'a>, AnyError> {
        let mut parsed = Args {
            command: self,
            positional: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if let Some(&flag) = self.valued.iter().find(|&&flag| flag == arg) {
                let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
                parsed.values.push((flag, value));
            } else if let Some(&switch) = self.switches.iter().find(|&&switch| switch == arg) {
                parsed.switches.push(switch);
            } else if arg.starts_with('-') {
                let accepted: Vec<&str> =
                    self.valued.iter().chain(self.switches).copied().collect();
                let accepted = if accepted.is_empty() {
                    "no flags".to_string()
                } else {
                    accepted.join(", ")
                };
                return Err(format!(
                    "unknown flag `{arg}` for `{}` (accepts {accepted})",
                    self.name
                )
                .into());
            } else if parsed.positional.len() < self.positional.len() {
                parsed.positional.push(arg);
            } else {
                return Err(format!("unexpected argument `{arg}` for `{}`", self.name).into());
            }
        }
        Ok(parsed)
    }
}

/// A subcommand's parsed arguments.
struct Args<'a> {
    command: &'static Command,
    positional: Vec<&'a str>,
    /// `(flag, value)` pairs in the order given.
    values: Vec<(&'static str, &'a str)>,
    switches: Vec<&'static str>,
}

impl<'a> Args<'a> {
    /// The value of the valued flag `name`; the first occurrence wins.
    fn get(&self, name: &str) -> Option<&'a str> {
        debug_assert!(
            self.command.valued.contains(&name),
            "`{}` reads {name} without listing it",
            self.command.name
        );
        self.values
            .iter()
            .find(|(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    /// Whether the switch `name` was given.
    fn has(&self, name: &str) -> bool {
        debug_assert!(
            self.command.switches.contains(&name),
            "`{}` reads {name} without listing it",
            self.command.name
        );
        self.switches.contains(&name)
    }

    /// The valued flag `name` parsed as `T`, or `default` when it is
    /// absent; a value that does not parse (malformed, negative for an
    /// unsigned flag, out of `T`'s range) is an error naming the flag.
    fn value<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, AnyError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("bad {name} `{v}`: {e}").into()),
        }
    }

    /// Positional argument `index`, or an error naming it.
    fn positional(&self, index: usize) -> Result<&'a str, AnyError> {
        self.positional
            .get(index)
            .copied()
            .ok_or_else(|| format!("missing {}", self.command.positional[index]).into())
    }
}

type AnyError = Box<dyn std::error::Error>;

fn cmd_devices(_: &Args) -> Result<(), AnyError> {
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

fn load_report(args: &Args, family: Family) -> Result<SynthReport, AnyError> {
    if let Some(path) = args.get("--syr") {
        let text = std::fs::read_to_string(path)?;
        return Ok(synth::xst::parse_report(&text)?);
    }
    if let Some(name) = args.get("--prm") {
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

fn cmd_plan(args: &Args) -> Result<(), AnyError> {
    plan(args, false)
}

fn cmd_bitstream(args: &Args) -> Result<(), AnyError> {
    plan(args, true)
}

fn plan(args: &Args, with_bitstream: bool) -> Result<(), AnyError> {
    let device = fabric::device_by_name(args.positional(0)?)?;
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
        let out = args.get("-o").unwrap_or("partial.bin");
        std::fs::write(out, eval.bitstream.to_bytes())?;
        println!("wrote {out} ({} bytes)", eval.bitstream.len_bytes());
    }
    Ok(())
}

fn cmd_dump(args: &Args) -> Result<(), AnyError> {
    let path = args.positional(0)?;
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

fn cmd_floorplan(args: &Args) -> Result<(), AnyError> {
    let device = fabric::device_by_name(args.positional(0)?)?;
    let names = args.get("--prms").ok_or("need --prms a,b,c")?;
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

fn cmd_sweep(args: &Args) -> Result<(), AnyError> {
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

    if let Some(path) = args.get("--json") {
        std::fs::write(path, serde_json::to_string_pretty(&run.points)?)?;
        println!("wrote sweep points to {path}");
    }
    if let Some(path) = args.get("--metrics") {
        std::fs::write(path, serde_json::to_string_pretty(&run.metrics)?)?;
        println!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

fn cmd_defrag(args: &Args) -> Result<(), AnyError> {
    use prfpga::layout::{simulate_layout, DefragPolicy, LayoutConfig, LayoutReport};

    let device = fabric::device_by_name(args.get("--device").unwrap_or("xc5vlx110t"))?;
    let seed = args.value("--seed", 12)?;
    let tasks = args.value("--tasks", 200)?;
    let modules = args.value("--modules", 16)?;
    let scale = args.value("--scale", 1500)?;
    let ratio = args.value("--threshold", 1.0)?;
    let policy = match args.get("--policy").unwrap_or("always") {
        "never" => DefragPolicy::Never,
        "threshold" => DefragPolicy::Threshold(ratio),
        "always" => DefragPolicy::Always,
        other => return Err(format!("unknown policy `{other}` (never|threshold|always)").into()),
    };
    let depth = args.value("--depth", 0)?;
    if depth > 4 {
        return Err("--depth must be 0 (single-step) to 4".into());
    }
    let proactive = args.has("--proactive");

    let workload = Workload::generate_heavy_tailed(
        seed,
        device.family(),
        tasks,
        modules,
        scale,
        args.value("--interarrival", 40_000)?,
        args.value("--exec", 400_000)?,
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

    if let Some(path) = args.get("--json") {
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

fn cmd_simulate(args: &Args) -> Result<(), AnyError> {
    let device = fabric::device_by_name(args.positional(0)?)?;
    let org = PrrOrganization {
        family: device.family(),
        height: args.value("--height", 1)?,
        clb_cols: args.value("--clb", 4)?,
        dsp_cols: args.value("--dsp", 0)?,
        bram_cols: args.value("--bram", 0)?,
    };
    let prrs = args.value("--prrs", 2)?;
    let trace_path = args.get("--trace").ok_or("need --trace <file>")?;
    let text = std::fs::read_to_string(trace_path)?;
    let workload = multitask::parse_trace(&text)?;
    let system = PrSystem::homogeneous(&device, org, prrs, IcapModel::V5_DMA)?;
    println!(
        "{} tasks on {} PRRs (H={} W={}, {} B bitstream each)",
        workload.tasks.len(),
        system.prrs.len(),
        org.height,
        org.width(),
        system.prrs[0].bitstream_bytes
    );

    if args.has("--preemptive") {
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

/// Plan a synthetic multi-tenant request stream on this thread, against
/// the database devices resolved once. With `--state FILE`, the engine
/// warm-starts from a persisted memo snapshot (if the file exists; import
/// re-plans its keys) and persists its final state back — a second run
/// serves every plan from the reloaded memo.
fn cmd_serve(args: &Args) -> Result<(), AnyError> {
    use synth::GenericPrm;

    let requests: usize = args.value("--requests", 5_000)?;
    let tenants = args.value("--tenants", 3usize)?.max(1);
    let modules = args.value("--modules", 12u64)?.max(1);
    let seed: u64 = args.value("--seed", 7)?;
    let scale = args.value("--scale", 1_200)?;
    let state_path = args.get("--state");

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

    let devices: Vec<prcost::DeviceHandle> = fabric::all_devices()
        .iter()
        .map(|device| engine.intern_device(device))
        .collect();
    // Request `i` asks for module `i % modules` on device `i % devices`,
    // so the stream repeats every `modules * devices` requests: synthesize
    // that cycle's requirements once, outside the timed loop.
    let cycle = modules
        .saturating_mul(devices.len() as u64)
        .min(requests as u64) as usize;
    let requirements: Vec<PrrRequirements> = (0..cycle)
        .map(|i| {
            let family = devices[i % devices.len()].device().family();
            let module = seed + (i as u64 % modules);
            PrrRequirements::from_report(&GenericPrm::random(module, scale).synthesize(family))
        })
        .collect();
    let tenant_names: Vec<String> = (0..tenants).map(|t| format!("tenant{t}")).collect();
    let mut tenant_plans = vec![0u64; tenants];
    let mut scratch = PlanScratch::default();
    let mut feasible = 0usize;
    let start = std::time::Instant::now();
    for i in 0..requests {
        let req = &requirements[i % cycle];
        if engine
            .plan_on(req, &devices[i % devices.len()], &mut scratch)
            .is_ok()
        {
            feasible += 1;
        }
        tenant_plans[i % tenants] += 1;
    }
    let elapsed = start.elapsed();
    for (tenant, plans) in tenant_names.iter().zip(tenant_plans) {
        engine
            .metrics()
            .labeled_counter(&format!("tenant:{tenant}"))
            .add(plans);
    }

    let snapshot = engine.snapshot();
    let c = &snapshot.counters;
    println!(
        "{requests} requests ({feasible} feasible) in {elapsed:.1?} — {:.0} plans/s",
        requests as f64 / elapsed.as_secs_f64()
    );
    println!(
        "plan memo: {} hit rate over {} plans ({} built); geometry {} over {} devices",
        pct(c.plan_hit_rate()),
        c.plans,
        c.plan_builds,
        pct(c.geometry_hit_rate()),
        c.geometry_builds,
    );
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
    if let Some(path) = args.get("--metrics") {
        std::fs::write(path, serde_json::to_string_pretty(&snapshot)?)?;
        println!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

/// Stream a synthetic task mix through the whole system — synthesis,
/// planning, placement, arena bitstream emission, multitasking
/// simulation — under bounded memory, and record the run as
/// `results/BENCH_pipeline.json` (the regression-guarding whole-system
/// number; see `prfpga::pipeline`).
fn cmd_bench_pipeline(args: &Args) -> Result<(), AnyError> {
    use prfpga::pipeline::{run_pipeline, run_pipeline_sweep, PipelineConfig};

    let defaults = PipelineConfig::default();
    let worker_sweep = worker_sweep(args, defaults.workers)?;
    let cfg = PipelineConfig {
        device: args.get("--device").unwrap_or(&defaults.device).to_string(),
        tasks: args.value("--tasks", defaults.tasks)?,
        chunk: args.value("--chunk", defaults.chunk)?,
        modules: args.value("--modules", defaults.modules)?,
        scale: args.value("--scale", defaults.scale)?,
        prrs: args.value("--prrs", defaults.prrs)?,
        workers: worker_sweep[0],
        queue_depth: args.value("--queue-depth", defaults.queue_depth)?,
        seed: args.value("--seed", defaults.seed)?,
        mean_interarrival_ns: args.value("--interarrival", defaults.mean_interarrival_ns)?,
        mean_exec_ns: args.value("--exec", defaults.mean_exec_ns)?,
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

    write_artifact(args, "BENCH_pipeline.json", &report)?;

    // `--metrics FILE`: a compact operational snapshot (dispatch paths,
    // throughput, scaling rows) for dashboards that don't want the full
    // per-stage report written by `--json`.
    if let Some(mpath) = args.get("--metrics") {
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

/// Write `report` to the `--json` path, or else to `name` in `results/` at
/// the workspace root (overridable with PRFPGA_RESULTS_DIR): the artifact
/// convention of `bench::write_json`, which this crate does not depend on.
fn write_artifact(args: &Args, name: &str, report: &impl serde::Serialize) -> Result<(), AnyError> {
    let path = match args.get("--json") {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let dir = std::env::var("PRFPGA_RESULTS_DIR").map_or_else(
                |_| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results"),
                std::path::PathBuf::from,
            );
            std::fs::create_dir_all(&dir)?;
            dir.join(name)
        }
    };
    std::fs::write(&path, serde_json::to_string_pretty(report)?)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// A rate as a whole percentage, or "n/a".
fn pct(rate: Option<f64>) -> String {
    rate.map_or_else(|| "n/a".to_string(), |v| format!("{:.0}%", v * 100.0))
}

/// `bench-pipeline`'s worker counts: `default` (0, one per CPU) without
/// `--workers`, else its single count ("4") or comma list ("1,2,4,8,16").
/// The list form reruns the whole pipeline once per count and records
/// the scaling table in the report.
fn worker_sweep(args: &Args, default: usize) -> Result<Vec<usize>, AnyError> {
    let Some(spec) = args.get("--workers") else {
        return Ok(vec![default]);
    };
    let counts: Vec<usize> = spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|e| format!("bad --workers entry {s:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if counts.contains(&0) {
        return Err("--workers needs one or more nonzero counts".into());
    }
    Ok(counts)
}

fn cmd_sched_ablate(args: &Args) -> Result<(), AnyError> {
    use prfpga::sched::{run_ablation, AblationConfig};

    let defaults = AblationConfig::default();
    let cfg = AblationConfig {
        seed: args.value("--seed", defaults.seed)?,
        tasks: args.value("--tasks", defaults.tasks)?,
        horizon_ms: args.value("--horizon-ms", defaults.horizon_ms)?,
        deadline_slack: args.value("--slack", defaults.deadline_slack)?,
        admission_sets: args.value("--admission-sets", defaults.admission_sets)?,
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

    write_artifact(args, "BENCH_sched.json", &report)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    /// A misspelt flag used to be ignored: `sweep --jsn out.json` ran the
    /// sweep, exited 0 and wrote no JSON.
    #[test]
    fn a_misspelt_flag_fails_and_is_named() {
        let outcome = run(&strings(&["sweep", "--jsn", "out.json"])).expect("sweep exists");
        let message = outcome.expect_err("--jsn is not a sweep flag").to_string();
        assert!(message.contains("`--jsn`"), "{message}");
        assert!(message.contains("--json, --metrics"), "{message}");
    }

    /// The usage header lists every subcommand, and each has an entry.
    #[test]
    fn usage_names_every_subcommand() {
        let text = usage();
        let header = text.lines().next().unwrap();
        let listed: Vec<&str> = header
            .split(['<', '>'])
            .nth(1)
            .unwrap()
            .split('|')
            .collect();
        for command in COMMANDS {
            assert!(
                listed.contains(&command.name),
                "`{}`: {header}",
                command.name
            );
            let entry = format!("\n  {} ", command.name);
            assert!(text.contains(&entry), "`{}` has no entry", command.name);
        }
    }

    /// Every flag a subcommand accepts is in its usage entry (the entry's
    /// first line and the deeper-indented lines under it).
    #[test]
    fn usage_lists_every_flag() {
        let mut entries: Vec<String> = Vec::new();
        for line in USAGE_ENTRIES.lines() {
            if line.starts_with("   ") {
                if let Some(entry) = entries.last_mut() {
                    entry.push_str(line);
                }
            } else if let Some(entry) = line.strip_prefix("  ") {
                entries.push(entry.to_string());
            }
        }
        for command in COMMANDS {
            let text: String = entries
                .iter()
                .filter(|e| e.split(' ').next() == Some(command.name))
                .map(|e| format!("{e} "))
                .collect();
            for flag in command.valued.iter().chain(command.switches) {
                assert!(
                    [' ', ']', ')']
                        .iter()
                        .any(|end| text.contains(&format!("{flag}{end}"))),
                    "`{}` usage omits {flag}: {text}",
                    command.name
                );
            }
        }
    }

    /// A number that does not parse as its flag's type is an error naming
    /// the flag. Malformed values used to fall back to the default
    /// (`defrag --tasks 2k` ran 200 tasks and exited 0), and values out
    /// of range were narrowed with `as` (`defrag --tasks 4294967297` ran
    /// one task).
    #[test]
    fn a_bad_number_fails_and_names_its_flag() {
        for argv in [
            &["defrag", "--tasks", "2k"][..],
            &["defrag", "--tasks", "4294967297"],
            &["defrag", "--threshold", "high"],
            &["defrag", "--depth", "-1"],
            &["simulate", "xc5vlx110t", "--prrs", "two"],
            &["serve", "--requests", "-1"],
            &["bench-pipeline", "--chunk", "4294967297"],
            &["sched-ablate", "--tasks", "abc"],
            &["sched-ablate", "--slack", "lots"],
        ] {
            let outcome = run(&strings(argv)).expect("the subcommand exists");
            let message = outcome.expect_err("must not run").to_string();
            let [.., flag, value] = argv else {
                unreachable!()
            };
            assert!(
                message.contains(&format!("bad {flag} `{value}`")),
                "{argv:?}: {message}"
            );
        }
    }

    /// Without `--workers`, `bench-pipeline` takes one worker per CPU
    /// (count 0); only an explicit zero is refused. The bare command used
    /// to fail on the check meant for `--workers 0`.
    #[test]
    fn bench_pipeline_workers_default_to_one_per_cpu() {
        let workers = |argv: &[&str]| {
            let argv = strings(argv);
            let args = command("bench-pipeline").parse(&argv).unwrap();
            worker_sweep(&args, 0).map_err(|e| e.to_string())
        };
        assert_eq!(workers(&[]), Ok(vec![0]));
        assert_eq!(workers(&["--workers", "1,2"]), Ok(vec![1, 2]));
        assert!(workers(&["--workers", "0"])
            .unwrap_err()
            .contains("nonzero"));
        assert!(workers(&["--workers", "2,x"])
            .unwrap_err()
            .contains("\"x\""));
    }

    /// Parsing fails before a subcommand runs, so every one refuses a
    /// flag it does not list, whatever else it is given.
    #[test]
    fn every_subcommand_rejects_an_unknown_flag() {
        for command in COMMANDS {
            for args in [&["--bogus"][..], &["--json-out", "x.json"], &["-x"]] {
                let message = match command.parse(&strings(args)) {
                    Ok(_) => panic!("`{}` accepted {args:?}", command.name),
                    Err(e) => e.to_string(),
                };
                assert!(message.contains(&format!("`{}`", args[0])), "{message}");
            }
        }
    }

    #[test]
    fn listed_flags_switches_and_positionals_parse() {
        let argv = strings(&[
            "--depth",
            "3",
            "--proactive",
            "--json",
            "d.json",
            "--depth",
            "4",
        ]);
        let args = command("defrag").parse(&argv).unwrap();
        assert_eq!(args.get("--depth"), Some("3"), "the first occurrence wins");
        assert_eq!(args.get("--json"), Some("d.json"));
        assert_eq!(args.get("--seed"), None);
        assert!(args.has("--proactive"));

        let argv = strings(&["xc5vlx110t", "--slack", "-o"]);
        assert!(
            command("plan").parse(&argv).is_err(),
            "plan takes no --slack"
        );
        let argv = strings(&["--prm", "fir", "xc5vlx110t", "-o", "m.bin"]);
        let args = command("bitstream").parse(&argv).unwrap();
        assert_eq!(args.positional(0).unwrap(), "xc5vlx110t");
        assert_eq!(
            (args.get("--prm"), args.get("-o")),
            (Some("fir"), Some("m.bin"))
        );
        let argv = strings(&["--prm", "fir", "-o", "m.bin"]);
        assert!(
            command("plan").parse(&argv).is_err(),
            "only bitstream writes -o"
        );

        // A valued flag takes the next argument even if it looks like a flag.
        let argv = strings(&["--slack", "-0.5"]);
        let args = command("sched-ablate").parse(&argv).unwrap();
        assert_eq!(args.get("--slack"), Some("-0.5"));
    }

    #[test]
    fn missing_values_and_stray_arguments_are_errors() {
        let error = |name: &str, args: &[&str]| {
            let argv = strings(args);
            let parsed = command(name).parse(&argv);
            parsed.err().expect("must not parse").to_string()
        };
        assert!(error("sweep", &["--json"]).contains("--json needs a value"));
        assert!(error("sweep", &["out.json"]).contains("unexpected argument `out.json`"));
        assert!(error("plan", &["xc5vlx110t", "fir"]).contains("unexpected argument `fir`"));
        assert!(error("devices", &["--all"]).contains("accepts no flags"));
        let args = command("dump").parse(&[]).unwrap();
        assert_eq!(
            args.positional(0).unwrap_err().to_string(),
            "missing <file>"
        );
    }
}
