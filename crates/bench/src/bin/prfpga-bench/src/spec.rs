//! The benchmark's own definition, read from the repository's
//! `BENCHMARK.json`: workload names, metric names and units, and each
//! end-to-end metric's regression bound.

use serde_json::Value;

/// `BENCHMARK.json`, compiled in so every run and test reads the same one.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only; `None` for per-layer metrics).
    pub bound: Option<f64>,
    /// A change of the median smaller than this, in the metric's unit,
    /// counts as unchanged whatever its share of the baseline.
    pub floor: f64,
}

/// `setup_s`'s floor: a cold start's page faults and process creation
/// move it by a few milliseconds whatever its length, so on a short
/// cold start a change smaller than this is noise, not a regression.
/// `BENCHMARK.json` has a fixed set of keys per metric, so the floor
/// lives here.
const SETUP_FLOOR_S: f64 = 0.005;

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let root = serde_json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let field = |key: &str| {
            root.get(key)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}`"))
        };
        let run_seconds = field("run_seconds")?
            .as_f64()
            .map_err(|e| format!("run_seconds: {e}"))?;
        let workloads = array(field("workloads")?)?
            .iter()
            .map(|w| string(w, "name"))
            .collect::<Result<_, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            array(field(key)?)?
                .iter()
                .map(|m| {
                    let name = string(m, "name")?;
                    Ok(MetricSpec {
                        floor: if name == "setup_s" {
                            SETUP_FLOOR_S
                        } else {
                            0.0
                        },
                        name,
                        unit: string(m, "unit")?,
                        higher_is_better: match string(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("bad `better`: {other}")),
                        },
                        bound: m
                            .get("bound")
                            .map(|b| b.as_f64())
                            .transpose()
                            .map_err(|e| e.to_string())?,
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

fn array(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Array(items) => Ok(items),
        other => Err(format!("expected an array, found {}", other.kind())),
    }
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string `{key}`")),
    }
}
