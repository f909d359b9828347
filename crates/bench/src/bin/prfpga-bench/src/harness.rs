//! `run`: every workload in fresh child processes, N untraced repetitions
//! (workload order rotated each repetition) and one traced run each, with
//! medians and quartiles per metric, written as one report; with
//! `--compare`, the regression gate between that report and a baseline.
//! Every child runs for `BENCHMARK.json`'s `run_seconds`, so two reports
//! always time runs of the same length.

use crate::spec::{MetricSpec, Spec};
use crate::workloads::{median, Workload};
use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_REPS: usize = 10;
/// Repetition `r` of `run` uses seed `SEED + r`; the traced run, `SEED`.
const SEED: u64 = 1;
const DEFAULT_OUT: &str = "results/benchmark/latest.json";

/// Host and build facts every report carries.
pub fn host_header(seed: u64) -> Value {
    let dispatch = prfpga::bitstream::arch::active();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::from_entries(vec![
        ("cpus", Value::UInt(cpus as u64)),
        ("crc_dispatch", Value::text(dispatch.crc.name())),
        ("fill_dispatch", Value::text(dispatch.fill.name())),
        (
            "force_scalar",
            Value::text(&std::env::var("PRFPGA_FORCE_SCALAR").unwrap_or_else(|_| "unset".into())),
        ),
        ("rustc", Value::text(&command_line("rustc", &["-V"]))),
        (
            "commit",
            Value::text(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::UInt(seed)),
    ])
}

/// First output line of a command, or `"unknown"` if it cannot run. Git
/// is kept from searching above the working directory.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .trim()
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// One child run's result.
struct ChildRun {
    seed: u64,
    /// `failed / attempted`, or 1 for a run that crashed or printed no
    /// result.
    fail_frac: f64,
    metrics: Vec<(String, f64)>,
    detail: Option<Value>,
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let crashed = ChildRun {
        seed,
        fail_frac: 1.0,
        metrics: Vec::new(),
        detail: None,
    };
    if !out.status.success() {
        eprintln!("{workload} seed {seed}: exited with {}", out.status);
        return Ok(crashed);
    }
    let Some(result) = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::parse(l).ok())
    else {
        eprintln!("{workload} seed {seed}: no result line");
        return Ok(crashed);
    };
    let num = |key: &str| result.get(key).and_then(|v| v.as_f64().ok()).unwrap_or(0.0);
    let metrics = match result.get("metrics") {
        Some(Value::Object(entries)) => entries
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64().ok()?)))
            .collect(),
        _ => Vec::new(),
    };
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .and_then(|d| serde_json::parse(d).ok());
    Ok(ChildRun {
        seed,
        fail_frac: if num("attempted") > 0.0 {
            num("failed") / num("attempted")
        } else {
            1.0
        },
        metrics,
        detail,
    })
}

/// Python's `statistics.quantiles(values, n=4)` (the default exclusive
/// method): first quartile, median, third quartile.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

struct RunArgs {
    reps: usize,
    out: String,
    compare: Option<String>,
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        reps: DEFAULT_REPS,
        out: DEFAULT_OUT.to_string(),
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--reps" => a.reps = value.parse().map_err(|_| bad())?,
            "--out" => a.out = value.clone(),
            "--compare" => a.compare = Some(value.clone()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if a.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(a)
}

/// `prfpga-bench run ...`
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let a = parse_args(args)?;
    // Read the baseline before spending the run's time on the children.
    let baseline = a.compare.as_deref().map(read_json).transpose()?;
    let names = &spec.workloads;
    let mut untraced: Vec<Vec<ChildRun>> = names.iter().map(|_| Vec::new()).collect();
    for rep in 0..a.reps {
        for i in 0..names.len() {
            let w = (i + rep) % names.len();
            let seed = SEED + rep as u64;
            eprintln!("[rep {}/{}] {} seed {seed}", rep + 1, a.reps, names[w]);
            untraced[w].push(child(&names[w], seed, spec.run_seconds, false)?);
        }
    }
    let mut sections = Vec::new();
    for (w, name) in names.iter().enumerate() {
        eprintln!("[traced] {name} seed {SEED}");
        let traced = child(name, SEED, spec.run_seconds, true)?;
        sections.push((
            name.as_str(),
            workload_section(name, &spec, &untraced[w], &traced),
        ));
    }
    let mut header = host_header(SEED);
    if let Value::Object(entries) = &mut header {
        entries.push(("reps".into(), Value::UInt(a.reps as u64)));
        entries.push(("seconds".into(), Value::Float(spec.run_seconds)));
    }
    let report = Value::from_entries(vec![
        ("host", header),
        ("workloads", Value::from_entries(sections)),
    ]);
    print_report(&report, &spec);
    if let Some(dir) = std::path::Path::new(&a.out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&a.out, report.render_pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", a.out))?;
    eprintln!("wrote {}", a.out);
    match baseline {
        Some(base) => compare(&report, &base, &spec),
        None => Ok(ExitCode::SUCCESS),
    }
}

fn workload_section(name: &str, spec: &Spec, runs: &[ChildRun], traced: &ChildRun) -> Value {
    let mut summary = Vec::new();
    for m in &spec.end_to_end {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.iter().find(|(k, _)| *k == m.name).map(|x| x.1))
            .collect();
        let (q1, med, q3) = quartiles(&values);
        summary.push((
            m.name.as_str(),
            Value::from_entries(vec![
                ("unit", Value::text(&m.unit)),
                ("median", Value::Float(med)),
                ("q1", Value::Float(q1)),
                ("q3", Value::Float(q3)),
                ("n", Value::UInt(values.len() as u64)),
                (
                    "values",
                    Value::Array(values.into_iter().map(Value::Float).collect()),
                ),
            ]),
        ));
    }
    let layers = spec
        .per_layer
        .iter()
        .filter_map(|m| {
            let v = traced.metrics.iter().find(|(k, _)| *k == m.name)?.1;
            Some((
                m.name.as_str(),
                Value::from_entries(vec![
                    ("unit", Value::text(&m.unit)),
                    ("value", Value::Float(v)),
                ]),
            ))
        })
        .collect();
    let all: Vec<&ChildRun> = runs.iter().chain(std::iter::once(traced)).collect();
    let fail_frac = all.iter().map(|r| r.fail_frac).sum::<f64>() / all.len() as f64;
    let inputs = Workload::by_name(name).map_or("unknown workload".to_string(), |w| w.describe());
    Value::from_entries(vec![
        ("inputs", Value::text(&inputs)),
        (
            "seeds",
            Value::Array(runs.iter().map(|r| Value::UInt(r.seed)).collect()),
        ),
        ("fail_frac", Value::Float(fail_frac)),
        ("summary", Value::from_entries(summary)),
        ("layers", Value::from_entries(layers)),
        ("layer_detail", traced.detail.clone().unwrap_or(Value::Null)),
    ])
}

fn print_report(report: &Value, spec: &Spec) {
    println!("host {}", report["host"].render_compact());
    for name in &spec.workloads {
        let w = &report["workloads"][name.as_str()];
        println!("\n== {name}: {}", w["inputs"].render_compact());
        println!("fail_frac {}", w["fail_frac"].render_compact());
        println!(
            "{:<18} {:>8} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        for m in &spec.end_to_end {
            let s = &w["summary"][m.name.as_str()];
            let f = |k: &str| s[k].as_f64().unwrap_or(f64::NAN);
            println!(
                "{:<18} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                m.name,
                m.unit,
                f("median"),
                f("q1"),
                f("q3"),
                s["n"].as_u64().unwrap_or(0)
            );
        }
        println!("layers (one traced run):");
        for section in [&w["layers"], &w["layer_detail"]] {
            if let Value::Object(entries) = section {
                for (k, v) in entries {
                    println!(
                        "  {:<28} {:>14.6} {}",
                        k,
                        v["value"].as_f64().unwrap_or(f64::NAN),
                        v["unit"].render_compact()
                    );
                }
            }
        }
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judge `current` against `baseline` under `m`'s bound. A pair whose
/// quartile spread (on either side) exceeds the bound is unresolved,
/// unless every current run is better than every baseline run. A median
/// change smaller than the metric's floor is unchanged.
pub fn judge(m: &MetricSpec, current: &[f64], baseline: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    let better = |a: f64, b: f64| if m.higher_is_better { a > b } else { a < b };
    if current
        .iter()
        .all(|&c| baseline.iter().all(|&b| better(c, b)))
    {
        return Verdict::Improved;
    }
    let (cur, base) = (median(current), median(baseline));
    if (cur - base).abs() < m.floor {
        return Verdict::Unchanged;
    }
    let spread = |v: &[f64]| {
        let (q1, med, q3) = quartiles(v);
        (q3 - q1).abs() / med.abs()
    };
    if spread(current) > bound || spread(baseline) > bound {
        return Verdict::Unresolved;
    }
    let worse = if m.higher_is_better {
        (base - cur) / base
    } else {
        (cur - base) / base
    };
    if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values(report: &Value, workload: &str, metric: &str) -> Vec<f64> {
    match &report["workloads"][workload]["summary"][metric]["values"] {
        Value::Array(items) => items.iter().filter_map(|v| v.as_f64().ok()).collect(),
        _ => Vec::new(),
    }
}

fn compare(current: &Value, baseline: &Value, spec: &Spec) -> Result<ExitCode, String> {
    let seconds = |r: &Value| r["host"]["seconds"].as_f64().unwrap_or(f64::NAN);
    if seconds(current) != seconds(baseline) {
        return Err(format!(
            "the reports time runs of different lengths ({} s and {} s); \
             record the baseline again with this BENCHMARK.json",
            seconds(current),
            seconds(baseline)
        ));
    }
    let mut failing = false;
    println!(
        "\n{:<14} {:<18} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "baseline", "current", "change"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (cur, base) = (values(current, w, &m.name), values(baseline, w, &m.name));
            if cur.is_empty() || base.is_empty() {
                println!("{w:<14} {:<18} missing on one side", m.name);
                failing = true;
                continue;
            }
            let verdict = judge(m, &cur, &base);
            failing |= verdict == Verdict::Regressed;
            let (c, b) = (median(&cur), median(&base));
            println!(
                "{w:<14} {:<18} {b:>14.6} {c:>14.6} {:>+7.2}%  {verdict:?}",
                m.name,
                (c - b) / b * 100.0
            );
        }
        let frac = |r: &Value| {
            r["workloads"][w.as_str()]["fail_frac"]
                .as_f64()
                .unwrap_or(1.0)
        };
        let (cur, base) = (frac(current), frac(baseline));
        if cur > base {
            println!("{w:<14} fail_frac rose from {base} to {cur}: Regressed");
            failing = true;
        }
    }
    Ok(if failing {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
