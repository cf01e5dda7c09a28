//! Fuzz target `serve_request`: the serve daemon's line protocol under
//! hostile input.
//!
//! Each case is one raw byte string handed to [`Server::handle_line`]
//! as a request line. The oracle is the ingestion contract the daemon
//! promises every client:
//!
//! * handling never panics, whatever the bytes (a panic is recorded as a
//!   crash by the runner);
//! * **every** reply — success or failure — is a well-formed JSON object
//!   with a string `reply` field;
//! * error replies carry their stable kebab-case fingerprint both in the
//!   typed [`ReplyKind`] and in the JSON `error` field, and the two
//!   agree;
//! * every line [`parse_request`] accepts round-trips through
//!   [`Request::to_json`](nocsyn_serve::Request::to_json): the re-encoded
//!   line parses back to the same request, so the codec that clients
//!   write with cannot drift from the parser the daemon reads with (a
//!   mismatch panics, which the runner records as a crash).
//!
//! The server is shared across cases (that is the deployed shape — one
//! long-lived daemon, many requests), configured with tiny parse limits
//! and a one-restart cap so an accepted pattern costs one small anneal,
//! and fronted by its result cache so repeated corpus-derived patterns
//! are amortized to string lookups.

use std::sync::Arc;

use nocsyn_model::json;
use nocsyn_model::ParseLimits;
use nocsyn_serve::{parse_request, ReplyKind, ServeOptions, Server};

use crate::target::{CaseReport, FuzzTarget};

/// Parse limits for fuzz-served patterns: big enough for interesting
/// structure, small enough that an accepted case stays cheap.
fn fuzz_limits() -> ParseLimits {
    ParseLimits::default()
        .with_max_procs(16)
        .with_max_phases(8)
        .with_max_messages(64)
        .with_max_input_bytes(2048)
}

/// Builds the shared fuzz server: tiny limits, one restart, no disk.
fn fuzz_server() -> Server {
    Server::new(ServeOptions {
        limits: fuzz_limits(),
        cache_capacity: 64,
        max_restarts: Some(1),
        workers: 1,
        ..ServeOptions::default()
    })
}

/// Built-in target: `Server::handle_line` with the well-formed-reply
/// and request round-trip oracles.
pub fn serve_request_target() -> FuzzTarget {
    let server = Arc::new(fuzz_server());
    FuzzTarget::new("serve_request", serve_corpus(), move |input| {
        let ticks = input.len() as u64;
        let text = String::from_utf8_lossy(input);
        if let Ok(request) = parse_request(&text) {
            let line = request.to_json();
            assert_eq!(parse_request(&line), Ok(request), "round trip of {line}");
        }
        let reply = server.handle_line(&text);
        // Oracle: every reply line re-parses as a JSON object that
        // declares what it is.
        let parsed = json::parse(&reply.line).expect("every serve reply must be well-formed JSON");
        let declared = parsed
            .get("reply")
            .and_then(|v| v.as_str())
            .expect("every serve reply must carry a string `reply` field")
            .to_string();
        match reply.kind {
            ReplyKind::Error(fingerprint) => {
                assert_eq!(declared, "error", "typed kind and JSON reply disagree");
                assert_eq!(
                    parsed.get("error").and_then(|v| v.as_str()),
                    Some(fingerprint),
                    "error reply fingerprint must match its typed kind"
                );
                CaseReport::rejected(ticks, fingerprint)
            }
            ReplyKind::Report(_) => {
                assert_eq!(declared, "synth", "typed kind and JSON reply disagree");
                assert!(
                    parsed.get("report").is_some(),
                    "synth replies must embed the report object"
                );
                CaseReport::accepted(ticks, reply.line.len() as u64)
            }
            ReplyKind::Stats | ReplyKind::Status => {
                CaseReport::accepted(ticks, reply.line.len() as u64)
            }
        }
    })
}

/// Seed corpus of valid (and near-valid) request lines, so mutation
/// reaches past the JSON layer into the protocol and pattern layers.
pub fn serve_corpus() -> Vec<Vec<u8>> {
    [
        r#"{"op":"status"}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n  2 -> 3\n"}"#,
        r#"{"op":"synth","pattern":"procs 2\nmsg 0 -> 1 start=0 finish=10\n","seed":7}"#,
        // No deadline_ms entry on purpose: deadlines make outcomes
        // timing-dependent, and fuzz runs must stay byte-deterministic.
        r#"{"op":"synth","pattern":"procs 2\nphase\n 0 -> 1\n","restarts":1,"max_degree":4}"#,
        // The mode knobs, so the round-trip oracle sees them too.
        r#"{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n  2 -> 3\n","mode":"decomposed","clusters":2}"#,
        r#"{"op":"synth","pattern":"procs 9\n"}"#,
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_classifies_the_corpus() {
        let target = serve_request_target();
        for entry in serve_corpus() {
            let report = target.run(&entry);
            // Corpus entries are all well-formed frames; only the
            // over-limit pattern is rejected, and then by the pattern
            // layer, not the JSON layer.
            if let Some(fp) = report.rejected {
                assert_eq!(fp, "pattern-rejected");
            }
        }
    }

    #[test]
    fn garbage_is_rejected_not_crashed() {
        let target = serve_request_target();
        assert_eq!(target.run(b"").rejected, Some("bad-json"));
        assert_eq!(target.run(b"\xff\xfe{").rejected, Some("bad-json"));
        assert_eq!(target.run(br#"{"op":"nope"}"#).rejected, Some("unknown-op"));
        let deep = format!(r#"{{"op":{}1{}}}"#, "[".repeat(80), "]".repeat(80));
        assert_eq!(target.run(deep.as_bytes()).rejected, Some("bad-json"));
    }

    #[test]
    fn repeated_patterns_are_served_from_cache() {
        let target = serve_request_target();
        let req = br#"{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n  2 -> 3\n"}"#;
        let cold = target.run(req);
        let warm = target.run(req);
        assert_eq!(cold.rejected, None);
        assert_eq!(warm.rejected, None);
    }
}
