//! Fuzz targets: named entry points driven by the runner.
//!
//! A target consumes raw bytes and reports what happened. Three outcomes
//! exist per case:
//!
//! * **accepted** — the input parsed (or otherwise succeeded); the
//!   report carries how much output the target produced so the runner
//!   can enforce the output budget.
//! * **rejected** — the input was refused with a typed error; the report
//!   carries a stable error fingerprint so the runner can tally which
//!   rejection paths the generators actually exercise.
//! * **crash** — the target panicked. The runner catches the panic (see
//!   [`crate::triage`]); targets never need to.
//!
//! The built-in parse targets double as *round-trip oracles*: on
//! successful parse they re-render the value and re-parse it, panicking
//! on any mismatch. A silently lossy parse therefore counts as a crash,
//! not a pass.

use std::collections::BTreeMap;

use nocsyn_model::{format_schedule, format_trace, ParseOptions};

/// What one fuzz case did, as reported by the target itself.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CaseReport {
    /// Abstract work performed (the built-in targets count input bytes).
    /// The runner compares this against [`crate::CaseBudget::max_ticks`].
    pub ticks: u64,
    /// Abstract output size produced on success (phases + flows for
    /// schedules, messages for traces). Compared against
    /// [`crate::CaseBudget::max_output_units`].
    pub output_units: u64,
    /// `Some(fingerprint)` when the input was rejected with a typed
    /// error; `None` when it was accepted.
    pub rejected: Option<&'static str>,
}

impl CaseReport {
    /// An accepted case that produced `output_units` of output.
    pub fn accepted(ticks: u64, output_units: u64) -> Self {
        CaseReport {
            ticks,
            output_units,
            rejected: None,
        }
    }

    /// A rejected case with a stable error-kind fingerprint.
    pub fn rejected(ticks: u64, fingerprint: &'static str) -> Self {
        CaseReport {
            ticks,
            output_units: 0,
            rejected: Some(fingerprint),
        }
    }
}

/// The function a target runs per case.
pub type TargetFn = Box<dyn Fn(&[u8]) -> CaseReport + Send + Sync>;

/// A named fuzz target with its own seed corpus.
pub struct FuzzTarget {
    name: &'static str,
    corpus: Vec<Vec<u8>>,
    run: TargetFn,
}

impl std::fmt::Debug for FuzzTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuzzTarget")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl FuzzTarget {
    /// Creates a target from a name, the seed corpus its cases are
    /// mutated from, and a case function.
    pub fn new(
        name: &'static str,
        corpus: Vec<Vec<u8>>,
        run: impl Fn(&[u8]) -> CaseReport + Send + Sync + 'static,
    ) -> Self {
        FuzzTarget {
            name,
            corpus,
            run: Box::new(run),
        }
    }

    /// The target's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The target's seed corpus.
    pub fn corpus(&self) -> &[Vec<u8>] {
        &self.corpus
    }

    /// Runs one case. Callers wanting panic capture go through the
    /// runner, which wraps this in `catch_unwind`.
    pub fn run(&self, input: &[u8]) -> CaseReport {
        (self.run)(input)
    }
}

/// Orderered collection of targets, looked up by name.
#[derive(Debug, Default)]
pub struct Registry {
    targets: BTreeMap<&'static str, FuzzTarget>,
}

impl Registry {
    /// An empty registry (callers register their own targets).
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry preloaded with the built-in targets, each with its own
    /// seed corpus: the model parsers (`parse_schedule`, `parse_trace`),
    /// the serve daemon's line protocol (`serve_request`), the
    /// certificate checker (`certify_input`), the crash-safety
    /// shadow-model probe over the fault-injected result cache
    /// (`chaos_plan`), and the synthesis-request builder
    /// (`synthesis_request`).
    pub fn with_builtin_targets() -> Self {
        let mut r = Registry::new();
        r.register(parse_schedule_target());
        r.register(parse_trace_target());
        r.register(crate::serve_probe::serve_request_target());
        r.register(crate::certify_probe::certify_input_target());
        r.register(crate::chaos_probe::chaos_plan_target());
        r.register(crate::request_probe::synthesis_request_target());
        r
    }

    /// Adds (or replaces) a target.
    pub fn register(&mut self, target: FuzzTarget) {
        self.targets.insert(target.name(), target);
    }

    /// Registered target names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        self.targets.keys().copied().collect()
    }

    /// Looks up a target by name.
    pub fn get(&self, name: &str) -> Option<&FuzzTarget> {
        self.targets.get(name)
    }
}

/// Built-in target: `nocsyn_model::parse_schedule` with the round-trip
/// oracle render -> parse -> render.
pub fn parse_schedule_target() -> FuzzTarget {
    FuzzTarget::new("parse_schedule", crate::gen::default_corpus(), |input| {
        let ticks = input.len() as u64;
        let text = String::from_utf8_lossy(input);
        let opts = ParseOptions::new();
        match opts.parse_schedule(&text) {
            Ok(schedule) => {
                let phases = schedule.len() as u64;
                let flows: u64 = schedule.iter().map(|p| p.len() as u64).sum();
                // Round-trip oracle: the rendered form must re-parse to
                // an identical rendering. A mismatch is a parser bug and
                // panics, which the runner records as a crash.
                let rendered = format_schedule(&schedule);
                let reparsed = opts
                    .parse_schedule(&rendered)
                    .expect("rendered schedule must re-parse");
                assert_eq!(
                    rendered,
                    format_schedule(&reparsed),
                    "schedule render/parse round-trip is not a fixpoint"
                );
                CaseReport::accepted(ticks, phases + flows)
            }
            Err(err) => CaseReport::rejected(ticks, err.kind.fingerprint()),
        }
    })
}

/// Built-in target: `nocsyn_model::parse_trace` with the round-trip
/// oracle render -> parse -> render.
pub fn parse_trace_target() -> FuzzTarget {
    FuzzTarget::new("parse_trace", crate::gen::default_corpus(), |input| {
        let ticks = input.len() as u64;
        let text = String::from_utf8_lossy(input);
        let opts = ParseOptions::new();
        match opts.parse_trace(&text) {
            Ok(trace) => {
                let rendered = format_trace(&trace);
                let reparsed = opts
                    .parse_trace(&rendered)
                    .expect("rendered trace must re-parse");
                assert_eq!(
                    rendered,
                    format_trace(&reparsed),
                    "trace render/parse round-trip is not a fixpoint"
                );
                CaseReport::accepted(ticks, trace.len() as u64)
            }
            Err(err) => CaseReport::rejected(ticks, err.kind.fingerprint()),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_has_sorted_targets() {
        let r = Registry::with_builtin_targets();
        assert_eq!(
            r.names(),
            vec![
                "certify_input",
                "chaos_plan",
                "parse_schedule",
                "parse_trace",
                "serve_request",
                "synthesis_request"
            ]
        );
        assert!(r.get("parse_schedule").is_some());
        assert!(r.get("nope").is_none());
    }

    #[test]
    fn schedule_target_accepts_valid_input() {
        let r = Registry::with_builtin_targets();
        let t = r.get("parse_schedule").expect("registered");
        let input = b"procs 4\nphase bytes=64\n0 -> 1\n2 -> 3\n";
        let report = t.run(input);
        assert_eq!(report.rejected, None);
        assert_eq!(report.ticks, input.len() as u64);
        assert_eq!(report.output_units, 1 + 2);
    }

    #[test]
    fn schedule_target_rejects_with_stable_fingerprint() {
        let r = Registry::with_builtin_targets();
        let t = r.get("parse_schedule").expect("registered");
        assert_eq!(t.run(b"# nothing here\n").rejected, Some("missing-procs"));
        assert_eq!(t.run(b"0 -> 1\n").rejected, Some("flow-outside-phase"));
        assert_eq!(
            t.run(b"procs 4\nprocs 4\n").rejected,
            Some("duplicate-procs")
        );
    }

    #[test]
    fn trace_target_round_trips_valid_input() {
        let r = Registry::with_builtin_targets();
        let t = r.get("parse_trace").expect("registered");
        let input = b"procs 3\nmsg 0 -> 1 start=0 finish=10\nmsg 1 -> 2 start=5 finish=9\n";
        let report = t.run(input);
        assert_eq!(report.rejected, None);
        assert_eq!(report.output_units, 2);
    }

    #[test]
    fn custom_targets_can_be_registered() {
        let mut r = Registry::new();
        r.register(FuzzTarget::new("always_ok", vec![b"x".to_vec()], |input| {
            CaseReport::accepted(input.len() as u64, 0)
        }));
        assert_eq!(r.names(), vec!["always_ok"]);
        assert_eq!(r.get("always_ok").expect("registered").corpus(), [b"x"]);
        assert_eq!(r.get("always_ok").expect("registered").run(b"xy").ticks, 2);
    }
}
