//! The `nocsyn` binary as a process, with engine telemetry (`--events`)
//! on a stderr whose reader has gone away: a broken sink must change
//! neither the exit code nor a byte of stdout (DESIGN.md §9).

use std::io::Write;
use std::process::{Command, ExitStatus, Stdio};

const PIPELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples_data/pipeline.txt");

/// Runs the binary with `args` and `stdin`. With `broken_stderr`, stderr
/// is the write end of a pipe whose read end is already closed;
/// otherwise stderr is discarded.
fn nocsyn(args: &[&str], stdin: &str, broken_stderr: bool) -> (ExitStatus, String) {
    let stderr = if broken_stderr {
        let (reader, writer) = std::io::pipe().expect("a pipe can be created");
        drop(reader);
        Stdio::from(writer)
    } else {
        Stdio::null()
    };
    let mut child = Command::new(env!("CARGO_BIN_EXE_nocsyn"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("the nocsyn binary starts");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(stdin.as_bytes())
        .expect("the child reads its stdin");
    let out = child.wait_with_output().expect("the child exits");
    (
        out.status,
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    )
}

#[test]
fn synth_events_on_a_broken_stderr_keep_exit_code_and_stdout() {
    let (plain_status, plain) = nocsyn(&["synth", PIPELINE, "--restarts", "2"], "", false);
    assert!(plain_status.success());
    assert!(!plain.is_empty());
    let (status, stdout) = nocsyn(
        &["synth", PIPELINE, "--restarts", "2", "--events"],
        "",
        true,
    );
    assert!(status.success(), "{status}");
    assert_eq!(stdout, plain);
}

#[test]
fn serve_drain_events_on_a_broken_stderr_keep_exit_code_and_replies() {
    let request = r#"{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n  2 -> 3\n"}"#;
    let input = format!("{request}\n{request}\n");
    let (plain_status, plain) = nocsyn(&["serve", "--drain"], &input, false);
    assert!(plain_status.success());
    assert_eq!(plain.lines().count(), 2);
    let (status, stdout) = nocsyn(&["serve", "--drain", "--events"], &input, true);
    assert!(status.success(), "{status}");
    assert_eq!(stdout, plain);
}
