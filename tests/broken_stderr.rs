//! The `nocsyn` binary as a process, with a stderr whose reader has gone
//! away: engine telemetry (`--events`), the error path and the serve
//! daemon's "listening on" notice all write there, and a broken sink must
//! change neither the exit code nor a byte of stdout (DESIGN.md §9).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const PIPELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples_data/pipeline.txt");

/// The write end of a pipe whose read end is already closed.
fn broken_stderr() -> Stdio {
    let (reader, writer) = std::io::pipe().expect("a pipe can be created");
    drop(reader);
    Stdio::from(writer)
}

/// Runs the binary with `args` and `stdin`. With `broken`, stderr is
/// [`broken_stderr`]; otherwise stderr is discarded.
fn nocsyn(args: &[&str], stdin: &str, broken: bool) -> (ExitStatus, String) {
    let stderr = if broken {
        broken_stderr()
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

#[test]
fn synth_error_on_a_broken_stderr_exits_1() {
    let missing = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples_data/no-such-pattern.txt"
    );
    let (status, stdout) = nocsyn(&["synth", missing], "", true);
    assert_eq!(status.code(), Some(1), "{status}");
    assert!(stdout.is_empty());
}

/// Kills and reaps the child if the test ends before it exits.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_listen_on_a_broken_stderr_accepts_and_exits_0() {
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|probe| probe.local_addr())
        .expect("a free port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let mut child = Reaped(
        Command::new(env!("CARGO_BIN_EXE_nocsyn"))
            .args(["serve", "--listen", &addr, "--once"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(broken_stderr())
            .spawn()
            .expect("the nocsyn binary starts"),
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stream = loop {
        if let Some(status) = child.0.try_wait().expect("the child can be polled") {
            panic!("serve exited before accepting a connection: {status}");
        }
        match TcpStream::connect(&addr) {
            Ok(stream) => break stream,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "serve never accepted on {addr}: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("a read timeout can be set");
    stream
        .write_all(b"{\"op\":\"status\"}\n")
        .expect("the request is sent");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("the request side closes");
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("the daemon replies and closes");
    assert!(
        reply.starts_with(r#"{"reply":"status","ok":true"#),
        "{reply}"
    );
    let status = loop {
        if let Some(status) = child.0.try_wait().expect("the child can be polled") {
            break status;
        }
        assert!(Instant::now() < deadline, "serve --once did not exit");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "{status}");
}
