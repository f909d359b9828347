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
//! optional (default 0). The parser interns each line's module name into
//! the returned workload's table; the writer turns ids back into names.
//! The format has no deadline column, so parsed tasks carry none.

use crate::intern::ModuleTable;
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

/// Render a workload as trace text (one line per task, in task order).
pub fn write_trace(workload: &Workload) -> String {
    let mut out = String::from(
        "# prfpga task trace v1\n# id module clb dsp bram arrival_ns exec_ns priority\n",
    );
    for t in &workload.tasks {
        out.push_str(&format!(
            "{} {} {} {} {} {} {} {}\n",
            t.id,
            workload.modules().name(t.module),
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

/// Parse trace text into a workload (sorted by arrival, then id).
pub fn parse_trace(text: &str) -> Result<Workload, TraceError> {
    let mut modules = ModuleTable::new();
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
        tasks.push(HwTask {
            id: number(fields[0], line)?,
            module: modules.intern(fields[1]),
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
            deadline_ns: None,
        });
    }
    Ok(Workload::new(tasks, modules))
}

/// Parse `token` at the width of the field it fills, so an out-of-range
/// value is an error instead of a silently truncated one.
fn number<T: core::str::FromStr>(token: &str, line: usize) -> Result<T, TraceError> {
    token.parse().map_err(|_| TraceError::BadNumber {
        line,
        token: token.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::Family;

    fn sample() -> Workload {
        let mut modules = ModuleTable::new();
        let tasks = vec![
            HwTask {
                id: 0,
                module: modules.intern("fir32"),
                priority: 1,
                needs: Resources::new(163, 32, 0),
                arrival_ns: 0,
                exec_ns: 100_000,
                deadline_ns: None,
            },
            HwTask {
                id: 1,
                module: modules.intern("sdram_ctrl"),
                priority: 0,
                needs: Resources::new(42, 0, 0),
                arrival_ns: 5_000,
                exec_ns: 25_000,
                deadline_ns: None,
            },
        ];
        Workload::new(tasks, modules)
    }

    #[test]
    fn round_trip() {
        let wl = sample();
        let text = write_trace(&wl);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, wl);
    }

    #[test]
    fn workload_round_trip() {
        let wl = Workload::generate(3, Family::Virtex5, 40, 5, 300, 1_000, 10_000);
        let text = write_trace(&wl);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, wl);
    }

    /// One id per distinct name, whatever the line order; the tasks come
    /// back sorted by arrival.
    #[test]
    fn names_intern_once_and_tasks_sort() {
        let wl = parse_trace("2 b 1 0 0 30 1\n0 a 1 0 0 10 1\n1 b 1 0 0 20 1\n").unwrap();
        let order: Vec<u32> = wl.tasks.iter().map(|t| t.id).collect();
        assert_eq!(order, [0, 1, 2]);
        assert_eq!(wl.modules().len(), 2);
        assert_eq!(wl.tasks[1].module, wl.tasks[2].module);
        assert_eq!(wl.modules().name(wl.tasks[0].module), "a");
    }

    #[test]
    fn comments_blank_lines_and_default_priority() {
        let text = "\n# full comment\n3 uart 5 0 0 10 20  # trailing comment\n";
        let tasks = parse_trace(text).unwrap().tasks;
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
        let max = parse_trace("4294967295 m 1 0 0 0 10 255\n").unwrap().tasks;
        assert_eq!((max[0].id, max[0].priority), (u32::MAX, u8::MAX));
    }
}
