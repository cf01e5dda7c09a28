//! Structured engine telemetry: the [`EngineEvent`] stream and the sinks
//! that consume it.
//!
//! Events describe the engine's execution, not its output: job lifecycle
//! (started / finished), every completed restart with its cost, and
//! deadline expiries. Sinks are pluggable through [`EventSink`]; the
//! engine calls them from its worker threads, so implementations must be
//! `Send + Sync` and serialize internally.
//!
//! Delivery order is *not* deterministic across runs (restarts finish in
//! whatever order the scheduler lands on); only the engine's reduced
//! results are. Consumers needing a stable view should key on the
//! `(job, attempt)` pair, which is unique.

use std::io::Write;
use std::sync::Mutex;

use nocsyn_model::json::JsonValue;

/// One telemetry event from the engine.
///
/// The JSON rendering (see [`EngineEvent::to_json`]) carries an `event`
/// discriminant field followed by the variant's payload, one object per
/// event — the schema documented in DESIGN.md §8.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A job claimed its first work unit.
    JobStarted {
        /// Job name.
        job: String,
        /// Restart attempts the portfolio will run.
        attempts: usize,
        /// Deadline budget, if any.
        deadline_ms: Option<u64>,
    },
    /// One restart attempt finished and entered the reduction.
    RestartCompleted {
        /// Job name.
        job: String,
        /// Attempt index within the portfolio (0-based).
        attempt: usize,
        /// Derived seed the attempt ran with.
        seed: u64,
        /// Switch-to-switch links in the attempt's network.
        links: usize,
        /// Switches in the attempt's network.
        switches: usize,
        /// Whether the attempt met the degree constraints.
        constraints_met: bool,
        /// Partitioning moves the attempt evaluated (its search effort;
        /// divide by `elapsed_ms` for the attempt's moves/sec).
        moves: usize,
        /// Wall time of the attempt, in milliseconds.
        elapsed_ms: u64,
    },
    /// A job's deadline expired; remaining attempts are cancelled and the
    /// best-so-far result (if any) is reported as degraded output.
    DeadlineExceeded {
        /// Job name.
        job: String,
        /// Attempts that completed before expiry.
        completed_attempts: usize,
    },
    /// A job drained its last work unit and its outcome is final.
    JobFinished {
        /// Job name.
        job: String,
        /// Outcome status as a stable lowercase string
        /// (`completed` / `deadline_exceeded` / `failed`).
        status: String,
        /// Attempts that completed.
        completed_attempts: usize,
        /// Link count of the selected result, if one exists.
        links: Option<usize>,
        /// Switch count of the selected result, if one exists.
        switches: Option<usize>,
        /// Partitioning moves evaluated across every completed attempt —
        /// the job's total search effort, not the winner's alone.
        moves: usize,
        /// Wall time from the job's first claim to its last unit.
        elapsed_ms: u64,
    },
    /// A restart attempt panicked inside the synthesis call. The panic is
    /// caught at the attempt boundary: the worker survives, sibling jobs
    /// are untouched, and the job fails with the payload preserved.
    AttemptPanicked {
        /// Job name.
        job: String,
        /// Attempt index within the portfolio (0-based).
        attempt: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The telemetry sink itself failed (I/O error on emit). This is the
    /// engine's last event: further telemetry is dropped (Null-sink
    /// fallback) rather than silently half-written. Results are
    /// unaffected. Carries no job name.
    SinkDegraded {
        /// The I/O error that killed the sink.
        error: String,
    },
    /// One request handled by the `nocsyn serve` daemon (emitted by
    /// `nocsyn-serve`, which reuses this telemetry stream so daemon and
    /// batch runs share one event pipeline). Carries no job name — serve
    /// requests are identified by their content fingerprint instead.
    ServeRequest {
        /// Protocol operation (`synth` / `stats` / `status`).
        op: String,
        /// How the request resolved: a cache tier (`miss` / `hit` /
        /// `disk`), `ok` for non-synthesis ops, or an error fingerprint.
        outcome: String,
        /// Content fingerprint of the job (empty for non-synthesis ops
        /// and rejected requests).
        fingerprint: String,
    },
}

impl EngineEvent {
    /// The `event` discriminant used in the JSON rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineEvent::JobStarted { .. } => "job_started",
            EngineEvent::RestartCompleted { .. } => "restart_completed",
            EngineEvent::DeadlineExceeded { .. } => "deadline_exceeded",
            EngineEvent::JobFinished { .. } => "job_finished",
            EngineEvent::AttemptPanicked { .. } => "attempt_panicked",
            EngineEvent::SinkDegraded { .. } => "sink_degraded",
            EngineEvent::ServeRequest { .. } => "serve_request",
        }
    }

    /// Name of the job the event belongs to (empty for engine-level
    /// events such as [`EngineEvent::SinkDegraded`]).
    pub fn job(&self) -> &str {
        match self {
            EngineEvent::JobStarted { job, .. }
            | EngineEvent::RestartCompleted { job, .. }
            | EngineEvent::DeadlineExceeded { job, .. }
            | EngineEvent::JobFinished { job, .. }
            | EngineEvent::AttemptPanicked { job, .. } => job,
            EngineEvent::SinkDegraded { .. } | EngineEvent::ServeRequest { .. } => "",
        }
    }

    /// Renders the event as one JSON object (`nocsyn_model::json`), with
    /// the `event` discriminant first.
    pub fn to_json(&self) -> JsonValue {
        let opt = |v: Option<usize>| v.map_or(JsonValue::Null, JsonValue::from);
        match self {
            EngineEvent::JobStarted {
                job,
                attempts,
                deadline_ms,
            } => JsonValue::object([
                ("event", JsonValue::from(self.kind())),
                ("job", JsonValue::from(job.as_str())),
                ("attempts", JsonValue::from(*attempts)),
                (
                    "deadline_ms",
                    deadline_ms.map_or(JsonValue::Null, JsonValue::from),
                ),
            ]),
            EngineEvent::RestartCompleted {
                job,
                attempt,
                seed,
                links,
                switches,
                constraints_met,
                moves,
                elapsed_ms,
            } => JsonValue::object([
                ("event", JsonValue::from(self.kind())),
                ("job", JsonValue::from(job.as_str())),
                ("attempt", JsonValue::from(*attempt)),
                ("seed", JsonValue::from(*seed)),
                ("links", JsonValue::from(*links)),
                ("switches", JsonValue::from(*switches)),
                ("constraints_met", JsonValue::from(*constraints_met)),
                ("moves", JsonValue::from(*moves)),
                ("elapsed_ms", JsonValue::from(*elapsed_ms)),
            ]),
            EngineEvent::DeadlineExceeded {
                job,
                completed_attempts,
            } => JsonValue::object([
                ("event", JsonValue::from(self.kind())),
                ("job", JsonValue::from(job.as_str())),
                ("completed_attempts", JsonValue::from(*completed_attempts)),
            ]),
            EngineEvent::JobFinished {
                job,
                status,
                completed_attempts,
                links,
                switches,
                moves,
                elapsed_ms,
            } => JsonValue::object([
                ("event", JsonValue::from(self.kind())),
                ("job", JsonValue::from(job.as_str())),
                ("status", JsonValue::from(status.as_str())),
                ("completed_attempts", JsonValue::from(*completed_attempts)),
                ("links", opt(*links)),
                ("switches", opt(*switches)),
                ("moves", JsonValue::from(*moves)),
                ("elapsed_ms", JsonValue::from(*elapsed_ms)),
            ]),
            EngineEvent::AttemptPanicked {
                job,
                attempt,
                message,
            } => JsonValue::object([
                ("event", JsonValue::from(self.kind())),
                ("job", JsonValue::from(job.as_str())),
                ("attempt", JsonValue::from(*attempt)),
                ("message", JsonValue::from(message.as_str())),
            ]),
            EngineEvent::SinkDegraded { error } => JsonValue::object([
                ("event", JsonValue::from(self.kind())),
                ("error", JsonValue::from(error.as_str())),
            ]),
            EngineEvent::ServeRequest {
                op,
                outcome,
                fingerprint,
            } => JsonValue::object([
                ("event", JsonValue::from(self.kind())),
                ("op", JsonValue::from(op.as_str())),
                ("outcome", JsonValue::from(outcome.as_str())),
                ("fingerprint", JsonValue::from(fingerprint.as_str())),
            ]),
        }
    }
}

/// A consumer of engine telemetry. Called from worker threads, possibly
/// concurrently; implementations serialize internally.
pub trait EventSink: Send + Sync {
    /// Delivers one event. Must not panic. An `Err` tells the engine the
    /// sink is broken: the engine reports it once (a final
    /// [`EngineEvent::SinkDegraded`] and a stderr notice are attempted)
    /// and stops emitting for the rest of its life — telemetry degrades
    /// loudly instead of being dropped invisibly mid-stream. Results are
    /// never affected by sink failures.
    ///
    /// # Errors
    ///
    /// The I/O error that prevented delivery.
    fn emit(&self, event: &EngineEvent) -> std::io::Result<()>;
}

/// Discards every event (the engine default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &EngineEvent) -> std::io::Result<()> {
        Ok(())
    }
}

/// Buffers events in memory, for tests and post-run inspection.
#[derive(Debug, Default)]
pub struct CollectSink {
    events: Mutex<Vec<EngineEvent>>,
}

impl CollectSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// Snapshot of the events delivered so far, in arrival order.
    pub fn events(&self) -> Vec<EngineEvent> {
        self.events
            .lock()
            .expect("sink lock never poisoned")
            .clone()
    }
}

impl EventSink for CollectSink {
    fn emit(&self, event: &EngineEvent) -> std::io::Result<()> {
        self.events
            .lock()
            .expect("sink lock never poisoned")
            .push(event.clone());
        Ok(())
    }
}

/// Streams events as JSON Lines (one `EngineEvent::to_json` object per
/// line) to any writer — the engine's machine-readable telemetry format.
#[derive(Debug)]
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out.into_inner().expect("sink lock never poisoned")
    }
}

impl JsonLinesSink<std::io::Stderr> {
    /// A sink writing to standard error — what `nocsyn synth --events`
    /// uses so telemetry never mixes with the report on stdout.
    pub fn stderr() -> Self {
        JsonLinesSink::new(std::io::stderr())
    }
}

impl<W: Write + Send> EventSink for JsonLinesSink<W> {
    fn emit(&self, event: &EngineEvent) -> std::io::Result<()> {
        let mut out = self.out.lock().expect("sink lock never poisoned");
        // Write failures (closed pipe, full disk) surface to the engine,
        // which degrades the stream loudly instead of dropping lines
        // invisibly mid-run.
        writeln!(out, "{}", event.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineEvent {
        EngineEvent::RestartCompleted {
            job: "cg16".into(),
            attempt: 3,
            seed: 42,
            links: 28,
            switches: 9,
            constraints_met: true,
            moves: 1026,
            elapsed_ms: 12,
        }
    }

    #[test]
    fn json_schema_has_discriminant_first() {
        let json = sample().to_json().to_string();
        assert!(json.starts_with(r#"{"event":"restart_completed","job":"cg16""#));
        assert!(json.contains(r#""attempt":3"#));
        assert!(json.contains(r#""constraints_met":true"#));
        assert!(json.contains(r#""moves":1026"#));
    }

    #[test]
    fn finished_event_renders_missing_result_as_null() {
        let e = EngineEvent::JobFinished {
            job: "j".into(),
            status: "deadline_exceeded".into(),
            completed_attempts: 0,
            links: None,
            switches: None,
            moves: 0,
            elapsed_ms: 0,
        };
        let json = e.to_json().to_string();
        assert!(json.contains(r#""links":null"#));
        assert!(json.contains(r#""status":"deadline_exceeded""#));
    }

    #[test]
    fn kinds_and_job_names_are_stable() {
        let e = sample();
        assert_eq!(e.kind(), "restart_completed");
        assert_eq!(e.job(), "cg16");
        let s = EngineEvent::JobStarted {
            job: "a".into(),
            attempts: 8,
            deadline_ms: Some(100),
        };
        assert_eq!(s.kind(), "job_started");
        assert!(s.to_json().to_string().contains(r#""deadline_ms":100"#));
    }

    #[test]
    fn collect_sink_preserves_arrival_order() {
        let sink = CollectSink::new();
        sink.emit(&sample()).expect("collect sink never fails");
        sink.emit(&EngineEvent::DeadlineExceeded {
            job: "x".into(),
            completed_attempts: 1,
        })
        .expect("collect sink never fails");
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "restart_completed");
        assert_eq!(events[1].kind(), "deadline_exceeded");
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.emit(&sample()).expect("vec write never fails");
        sink.emit(&sample()).expect("vec write never fails");
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn panic_and_degradation_events_render_stably() {
        let p = EngineEvent::AttemptPanicked {
            job: "cg16".into(),
            attempt: 2,
            message: "index out of bounds".into(),
        };
        assert_eq!(p.kind(), "attempt_panicked");
        assert_eq!(p.job(), "cg16");
        let json = p.to_json().to_string();
        assert_eq!(
            json,
            r#"{"event":"attempt_panicked","job":"cg16","attempt":2,"message":"index out of bounds"}"#
        );

        let d = EngineEvent::SinkDegraded {
            error: "broken pipe".into(),
        };
        assert_eq!(d.kind(), "sink_degraded");
        assert_eq!(d.job(), "");
        assert_eq!(
            d.to_json().to_string(),
            r#"{"event":"sink_degraded","error":"broken pipe"}"#
        );
    }

    #[test]
    fn serve_request_event_renders_stably() {
        let e = EngineEvent::ServeRequest {
            op: "synth".into(),
            outcome: "hit".into(),
            fingerprint: "abc123".into(),
        };
        assert_eq!(e.kind(), "serve_request");
        assert_eq!(e.job(), "");
        assert_eq!(
            e.to_json().to_string(),
            r#"{"event":"serve_request","op":"synth","outcome":"hit","fingerprint":"abc123"}"#
        );
    }

    /// A writer that always fails, to prove emit propagates I/O errors.
    struct BrokenWriter;

    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "broken pipe",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn json_lines_sink_propagates_write_failures() {
        let sink = JsonLinesSink::new(BrokenWriter);
        let err = sink.emit(&sample()).expect_err("broken writer must error");
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }
}
