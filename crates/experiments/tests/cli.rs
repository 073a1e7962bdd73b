//! The `repro` binary's process-level CLI contract: a closed stdout is a clean
//! exit, not a broken-pipe panic, and an unknown flag fails naming it.

use std::process::{Command, Stdio};

/// One test, so no other child is spawned while the pipe below is open: with
/// a second test spawning `repro` in parallel, the closed-pipe check passed
/// even against a build that panics on a closed stdout.
#[test]
fn closed_stdout_exits_cleanly_and_unknown_flags_fail() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "table1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The reader goes away before the first report is written.
    drop(child.stdout.take());
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{:?}: {stderr}", output.status);
    assert!(!stderr.contains("panicked"), "{stderr}");

    // With or without an argument after it, an unknown flag fails the parse
    // before any experiment runs.
    for args in [
        &["--quick", "--bogus-flag", "fig3"][..],
        &["--quick", "--bogus-flag"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .unwrap();
        assert!(!output.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown flag --bogus-flag"), "{stderr}");
    }
}
