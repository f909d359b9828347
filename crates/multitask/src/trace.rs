//! Task-trace text format: record and replay multitasking workloads.
//!
//! A line-oriented format so workloads can be versioned, shared and edited
//! by hand:
//!
//! ```text
//! # prfpga task trace v1
//! # id  module      clb dsp bram  arrival_ns  exec_ns  priority
//! 0     fir32       163 32  0     0           100000   1
//! 1     sdram_ctrl  42  0   0     5000        25000    0
//! ```
//!
//! Fields are whitespace-separated; `#` starts a comment; priority is
//! optional (default 0).

use crate::preempt::PreemptiveTask;
use crate::task::{HwTask, Workload};
use core::fmt;
use fabric::Resources;

/// Trace parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A line had too few fields.
    TooFewFields {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::TooFewFields { line } => {
                write!(f, "line {line}: expected at least 7 fields")
            }
            TraceError::BadNumber { line, token } => {
                write!(f, "line {line}: cannot parse number from {token:?}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Render a workload (priorities all zero) as trace text.
pub fn write_trace(tasks: &[PreemptiveTask]) -> String {
    let mut out = String::from(
        "# prfpga task trace v1\n# id module clb dsp bram arrival_ns exec_ns priority\n",
    );
    for t in tasks {
        out.push_str(&format!(
            "{} {} {} {} {} {} {} {}\n",
            t.id,
            t.module,
            t.needs.clb(),
            t.needs.dsp(),
            t.needs.bram(),
            t.arrival_ns,
            t.exec_ns,
            t.priority
        ));
    }
    out
}

/// Render a non-preemptive workload as trace text.
pub fn write_workload(workload: &Workload) -> String {
    let tasks: Vec<PreemptiveTask> = workload
        .tasks
        .iter()
        .map(|t| PreemptiveTask {
            id: t.id,
            module: t.module.clone(),
            needs: t.needs,
            arrival_ns: t.arrival_ns,
            exec_ns: t.exec_ns,
            priority: 0,
        })
        .collect();
    write_trace(&tasks)
}

/// Parse trace text into prioritized tasks.
pub fn parse_trace(text: &str) -> Result<Vec<PreemptiveTask>, TraceError> {
    let mut tasks = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let fields: Vec<&str> = content.split_whitespace().collect();
        if fields.len() < 7 {
            return Err(TraceError::TooFewFields { line });
        }
        tasks.push(PreemptiveTask {
            id: number(fields[0], line)?,
            module: fields[1].to_string(),
            needs: Resources::new(
                number(fields[2], line)?,
                number(fields[3], line)?,
                number(fields[4], line)?,
            ),
            arrival_ns: number(fields[5], line)?,
            exec_ns: number(fields[6], line)?,
            priority: fields
                .get(7)
                .map(|t| number(t, line))
                .transpose()?
                .unwrap_or(0),
        });
    }
    Ok(tasks)
}

/// Parse `token` at the width of the field it fills, so an out-of-range
/// value is an error instead of a silently truncated one.
fn number<T: core::str::FromStr>(token: &str, line: usize) -> Result<T, TraceError> {
    token.parse().map_err(|_| TraceError::BadNumber {
        line,
        token: token.to_string(),
    })
}

/// Parse trace text into a non-preemptive [`Workload`] (priorities are
/// dropped).
pub fn parse_workload(text: &str) -> Result<Workload, TraceError> {
    let tasks = parse_trace(text)?
        .into_iter()
        .map(|t| HwTask {
            id: t.id,
            module: t.module,
            needs: t.needs,
            arrival_ns: t.arrival_ns,
            exec_ns: t.exec_ns,
            // The trace text format has no deadline column; parsed
            // workloads are loss-system (no deadline accounting).
            deadline_ns: None,
        })
        .collect();
    Ok(Workload::new(tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Family;

    fn sample() -> Vec<PreemptiveTask> {
        vec![
            PreemptiveTask {
                id: 0,
                module: "fir32".into(),
                needs: Resources::new(163, 32, 0),
                arrival_ns: 0,
                exec_ns: 100_000,
                priority: 1,
            },
            PreemptiveTask {
                id: 1,
                module: "sdram_ctrl".into(),
                needs: Resources::new(42, 0, 0),
                arrival_ns: 5_000,
                exec_ns: 25_000,
                priority: 0,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let tasks = sample();
        let text = write_trace(&tasks);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, tasks);
    }

    #[test]
    fn workload_round_trip() {
        let wl = Workload::generate(3, Family::Virtex5, 40, 5, 300, 1_000, 10_000);
        let text = write_workload(&wl);
        let back = parse_workload(&text).unwrap();
        assert_eq!(back, wl);
    }

    #[test]
    fn comments_blank_lines_and_default_priority() {
        let text = "\n# full comment\n3 uart 5 0 0 10 20  # trailing comment\n";
        let tasks = parse_trace(text).unwrap();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].id, 3);
        assert_eq!(tasks[0].priority, 0);
        assert_eq!(tasks[0].needs.clb(), 5);
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(
            parse_trace("0 m 1 2\n"),
            Err(TraceError::TooFewFields { line: 1 })
        );
        assert_eq!(
            parse_trace("# ok\n0 m 1 2 x 10 20\n"),
            Err(TraceError::BadNumber {
                line: 2,
                token: "x".into()
            })
        );
    }

    /// Fields are parsed at their declared widths: an id beyond `u32` or
    /// a priority beyond `u8` is rejected, not truncated to 0.
    #[test]
    fn out_of_range_fields_are_rejected() {
        assert_eq!(
            parse_trace("4294967296 m 1 0 0 0 10 256\n"),
            Err(TraceError::BadNumber {
                line: 1,
                token: "4294967296".into()
            })
        );
        assert_eq!(
            parse_trace("1 m 1 0 0 0 10 256\n"),
            Err(TraceError::BadNumber {
                line: 1,
                token: "256".into()
            })
        );
        let max = parse_trace("4294967295 m 1 0 0 0 10 255\n").unwrap();
        assert_eq!((max[0].id, max[0].priority), (u32::MAX, u8::MAX));
    }
}
