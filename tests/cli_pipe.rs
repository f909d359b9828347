//! The CLI treats a closed stdout as the end of its output: piped into a
//! reader that goes away (`prfpga sweep | head -1`), a command exits 0
//! and writes nothing to stderr, instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_output_not_the_command() {
    for command in ["devices", "sweep"] {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        // No reader is left, so the first write fails with a broken pipe.
        drop(reader);
        let run = Command::new(env!("CARGO_BIN_EXE_prfpga"))
            .arg(command)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("run prfpga");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            run.status.success(),
            "prfpga {command} exited {}: {stderr}",
            run.status
        );
        assert!(!stderr.contains("panicked"), "prfpga {command}: {stderr}");
        assert!(
            stderr.is_empty(),
            "prfpga {command} wrote to stderr: {stderr}"
        );
    }
}
