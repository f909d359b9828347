//! `prfpga-bench` — the repository benchmark.
//!
//! One run of one workload, from the repository root:
//!
//! ```text
//! prfpga-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the `end_to_end` metrics of
//! `BENCHMARK.json` with `--trace 0`, its `per_layer` metrics with
//! `--trace 1`. An untraced run first starts the workload in fresh
//! `cold` child processes for `setup_s`; a traced run also prints a
//! `detail` line with the workload's own layer timings.
//!
//! The harness, which runs every workload in fresh child processes for
//! `BENCHMARK.json`'s `run_seconds` each and, with `--compare`, gates the
//! result against a baseline report:
//!
//! ```text
//! prfpga-bench run [--reps N] [--out FILE] [--compare BASELINE]
//! ```
//!
//! See `results/benchmark/README.md` for the workloads and metrics.

mod harness;
mod spec;
#[cfg(test)]
mod tests;
mod workloads;

use spec::Spec;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

fn main() -> ExitCode {
    let entry = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => harness::run(&args[1..]),
        Some("cold") => cold(entry, &args[1..]),
        _ => single_run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("prfpga-bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Arguments of one run.
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Fresh processes `setup_s` is the median over.
const COLD_STARTS: u64 = 9;

/// `cold <workload> <seed> <k>`: the child process behind `setup_s`.
/// Prints the seconds from its own entry to the end of its first unit of
/// work (unit `k`), and the items that unit did.
fn cold(entry: Instant, args: &[String]) -> Result<ExitCode, String> {
    let [workload, seed, k] = args else {
        return Err("usage: cold <workload> <seed> <k>".into());
    };
    let w = Workload::by_name(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let num = |s: &str| s.parse::<u64>().map_err(|_| format!("bad number `{s}`"));
    let items = workloads::cold_unit(&w, num(seed)?, num(k)?);
    println!("{} {items}", entry.elapsed().as_secs_f64());
    Ok(ExitCode::SUCCESS)
}

/// `setup_s`: the median over `COLD_STARTS` fresh processes, child `k`
/// on unit `k`'s inputs, of the time from process entry to the end of
/// the first unit of work. This is what a user waits for the first
/// result, and it holds every one-time cost: lazy tables, first-use
/// caches, the engine's geometry and the unit's own set-up. Each child
/// is checked to have done a whole unit; returns the median and the
/// number of children that failed that check.
fn setup_s(w: Workload, seed: u64) -> Result<(f64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::new();
    let mut failed = 0;
    for k in 0..COLD_STARTS {
        let child = Command::new(&exe)
            .args(["cold", w.name(), &seed.to_string(), &k.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning a cold start: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let parsed = stdout.split_whitespace().collect::<Vec<_>>();
        let (secs, items) = match (child.status.success(), parsed.as_slice()) {
            (true, [s, i]) => (s.parse::<f64>().ok(), i.parse::<u64>().ok()),
            _ => (None, None),
        };
        if items != Some(workloads::items_per_unit(&w)) {
            failed += 1;
            eprintln!("check failed: cold start {k} printed `{}`", stdout.trim());
        }
        times.extend(secs);
    }
    if times.is_empty() {
        return Err("no cold start printed a time".into());
    }
    Ok((workloads::median(&times), failed))
}

fn single_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    let spec = Spec::load()?;
    println!("host {}", harness::host_header(a.seed).render_compact());
    let setup = if a.trace {
        None
    } else {
        Some(setup_s(a.workload, a.seed)?)
    };
    let mut out = workloads::execute(a.workload, a.seed, a.seconds, a.trace);
    if let Some((median, failed)) = setup {
        out.metrics.insert("setup_s", median);
        out.attempted += COLD_STARTS;
        out.failed += failed;
    }
    let wanted = if a.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if a.trace {
        let detail: Vec<(&str, serde_json::Value)> = out
            .detail
            .iter()
            .map(|(name, (unit, value))| (*name, metric_value(*value, unit)))
            .collect();
        println!(
            "detail {}",
            serde_json::Value::from_entries(detail).render_compact()
        );
    }
    let metrics = select(&out.metrics, wanted)?;
    let result = serde_json::Value::from_entries(vec![
        ("correct", serde_json::Value::Bool(out.failed == 0)),
        ("attempted", serde_json::Value::UInt(out.attempted)),
        ("failed", serde_json::Value::UInt(out.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render_compact());
    Ok(ExitCode::SUCCESS)
}

fn metric_value(value: f64, unit: &str) -> serde_json::Value {
    serde_json::Value::from_entries(vec![
        ("value", serde_json::Value::Float(value)),
        ("unit", serde_json::Value::text(unit)),
    ])
}

/// The `wanted` metrics, in `BENCHMARK.json` order; a metric the workload
/// did not produce is an error, never a silent default.
fn select(
    produced: &BTreeMap<&'static str, f64>,
    wanted: &[spec::MetricSpec],
) -> Result<serde_json::Value, String> {
    let mut entries = Vec::with_capacity(wanted.len());
    for m in wanted {
        let value = produced
            .get(m.name.as_str())
            .ok_or_else(|| format!("workload produced no `{}`", m.name))?;
        if !value.is_finite() {
            return Err(format!("`{}` is not finite: {value}", m.name));
        }
        entries.push((m.name.as_str(), metric_value(*value, &m.unit)));
    }
    Ok(serde_json::Value::from_entries(entries))
}
