//! The request half of the line protocol and the one codec of a
//! synthesis job: strict parsing of one JSON object into a typed
//! [`Request`], its inverse [`Request::to_json`], and
//! [`SynthRequest::build`], the only translation of a job's knobs into a
//! [`SynthesisRequest`]. The daemon, the CLI and the chaos harness all
//! go through them.
//!
//! Parsing is *strict*: unknown operations, unknown fields, repeated
//! fields, and wrong-typed fields are all rejected. Strictness is a
//! cache-integrity property, not pedantry — a field this version ignored
//! but a future version acts on would let two servers disagree about what
//! a request means while computing the same fingerprint, and so would a
//! repeated field that one reader resolves to its first occurrence and
//! another to its last.

use std::collections::HashSet;
use std::fmt;

use nocsyn_model::json::{Document, Entries, JsonValue, ValueRef};
use nocsyn_synth::{AppPattern, SynthesisMode, SynthesisRequest};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Synthesize a network for an inline pattern text.
    Synth(SynthRequest),
    /// Report cache and request counters.
    Stats,
    /// Liveness / readiness probe.
    Status,
}

/// Payload of a `synth` request: the pattern text plus the knobs of the
/// job, each `None` when the wire omits it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SynthRequest {
    /// Schedule or trace text (autodetected, same rule as the CLI:
    /// any `msg ` line makes it a trace).
    pub pattern: String,
    /// RNG seed; defaults to the config default.
    pub seed: Option<u64>,
    /// Restart portfolio size; defaults to the config default. Zero is
    /// rejected by the request builder with a `zero-restarts` reply, not
    /// silently clamped, and a count above
    /// [`SynthesisRequest::MAX_RESTARTS`] with `too-many-restarts`.
    pub restarts: Option<u64>,
    /// Maximum switch degree; defaults to the config default.
    pub max_degree: Option<u64>,
    /// Wall-clock budget. Deliberately **not** part of the cache
    /// fingerprint: a deadline changes how long the search may run,
    /// never what a completed search returns, and only completed
    /// results are cached.
    pub deadline_ms: Option<u64>,
    /// Synthesis mode: `"flat"` (the default) or `"decomposed"`
    /// (cluster, synthesize per cluster, stitch, re-verify). Part of the
    /// cache fingerprint via the request's canonical form, so flat and
    /// decomposed answers never collide.
    pub mode: Option<String>,
    /// Cluster count for decomposed mode; only legal alongside
    /// `"mode":"decomposed"`. Absent means auto-sizing.
    pub clusters: Option<u64>,
}

/// A rejected request: a stable kebab-case fingerprint naming the
/// failure class, plus a human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Stable identifier (`bad-json`, `not-an-object`, `missing-op`,
    /// `unknown-op`, `missing-pattern`, `bad-field`).
    pub fingerprint: &'static str,
    /// Human-readable detail; never required to be stable.
    pub detail: String,
}

impl RequestError {
    fn new(fingerprint: &'static str, detail: impl Into<String>) -> Self {
        RequestError {
            fingerprint,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.fingerprint, self.detail)
    }
}

impl std::error::Error for RequestError {}

/// Fields the `synth` operation accepts, in the order
/// [`Request::to_json`] writes them.
const SYNTH_FIELDS: &[&str] = &[
    "op",
    "pattern",
    "seed",
    "restarts",
    "max_degree",
    "deadline_ms",
    "mode",
    "clusters",
];

/// A wire count as a `usize`, saturating where it does not fit.
fn knob(value: u64) -> usize {
    usize::try_from(value).unwrap_or(usize::MAX)
}

/// Parses one protocol line into a [`Request`].
///
/// The frame is read through the flat JSON [`Document`] without building
/// a tree. Checks run in a fixed order: `bad-json`, `not-an-object`, then
/// a repeated field (`bad-field` naming the first key seen twice), and
/// only then the operation and its fields: for `synth`, unknown fields,
/// `pattern`, `mode`, `clusters`, the rule tying the two
/// ([`SynthRequest::synthesis_mode`]), then the four other counts.
///
/// # Errors
///
/// [`RequestError`] with a stable fingerprint on any malformed frame;
/// never panics on any input (the JSON layer is bounded and total).
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let doc = Document::parse(line).map_err(|e| RequestError::new("bad-json", e.to_string()))?;
    let value = doc.root();
    let Some(pairs) = value.as_object() else {
        return Err(RequestError::new(
            "not-an-object",
            "request frame must be a JSON object",
        ));
    };
    let mut seen = HashSet::with_capacity(pairs.len());
    if let Some((key, _)) = pairs.clone().find(|&(key, _)| !seen.insert(key)) {
        return Err(RequestError::new(
            "bad-field",
            format!("repeated field {key:?} in request"),
        ));
    }
    let Some(op) = value.get("op").and_then(ValueRef::as_str) else {
        return Err(RequestError::new(
            "missing-op",
            "request object needs a string \"op\" field",
        ));
    };
    match op {
        "synth" => {
            for (key, _) in pairs {
                if !SYNTH_FIELDS.contains(&key) {
                    return Err(RequestError::new(
                        "bad-field",
                        format!("unknown field {key:?} in synth request"),
                    ));
                }
            }
            let Some(pattern) = value.get("pattern").and_then(ValueRef::as_str) else {
                return Err(RequestError::new(
                    "missing-pattern",
                    "synth request needs a string \"pattern\" field",
                ));
            };
            // A non-string mode reads as "", which names no mode.
            let mode = value
                .get("mode")
                .map(|v| v.as_str().unwrap_or_default().to_string());
            let mut req = SynthRequest {
                pattern: pattern.to_string(),
                mode,
                ..SynthRequest::default()
            };
            // The mode's name outranks the type of the cluster count,
            // which outranks the rule tying the two.
            req.synthesis_mode()?;
            req.clusters = u64_field(value, "clusters")?;
            req.synthesis_mode()?;
            req.seed = u64_field(value, "seed")?;
            req.restarts = u64_field(value, "restarts")?;
            req.max_degree = u64_field(value, "max_degree")?;
            req.deadline_ms = u64_field(value, "deadline_ms")?;
            Ok(Request::Synth(req))
        }
        "stats" => {
            only_op(pairs, "stats")?;
            Ok(Request::Stats)
        }
        "status" => {
            only_op(pairs, "status")?;
            Ok(Request::Status)
        }
        other => Err(RequestError::new(
            "unknown-op",
            format!("unknown op {other:?}"),
        )),
    }
}

impl Request {
    /// The protocol line of this request, without a newline: the exact
    /// inverse of [`parse_request`]. Fields go out in the order
    /// `parse_request` lists them, and an absent knob is omitted rather
    /// than written as `null`.
    pub fn to_json(&self) -> String {
        let (op, synth) = match self {
            Request::Synth(req) => ("synth", Some(req)),
            Request::Stats => ("stats", None),
            Request::Status => ("status", None),
        };
        let mut fields = vec![("op", Some(JsonValue::from(op)))];
        if let Some(req) = synth {
            fields.extend([
                ("pattern", Some(JsonValue::from(req.pattern.as_str()))),
                ("seed", req.seed.map(JsonValue::from)),
                ("restarts", req.restarts.map(JsonValue::from)),
                ("max_degree", req.max_degree.map(JsonValue::from)),
                ("deadline_ms", req.deadline_ms.map(JsonValue::from)),
                ("mode", req.mode.as_deref().map(JsonValue::from)),
                ("clusters", req.clusters.map(JsonValue::from)),
            ]);
        }
        JsonValue::object(fields.into_iter().filter_map(|(key, v)| Some((key, v?)))).to_string()
    }
}

impl SynthRequest {
    /// The [`SynthesisMode`] that `mode` and `clusters` select, under the
    /// rules [`parse_request`] holds every frame to: `mode` is `"flat"`
    /// (the default) or `"decomposed"`, and `clusters` (absent means
    /// auto-sized) is legal only with `"decomposed"`.
    ///
    /// # Errors
    ///
    /// `bad-field` naming the broken rule.
    pub fn synthesis_mode(&self) -> Result<SynthesisMode, RequestError> {
        match (self.mode.as_deref(), self.clusters) {
            (Some("decomposed"), clusters) => Ok(SynthesisMode::Decomposed {
                clusters: clusters.map(knob),
            }),
            (None | Some("flat"), None) => Ok(SynthesisMode::Flat),
            (None | Some("flat"), Some(_)) => Err(RequestError::new(
                "bad-field",
                "field \"clusters\" requires \"mode\":\"decomposed\"",
            )),
            (Some(_), _) => Err(RequestError::new(
                "bad-field",
                "field \"mode\" must be \"flat\" or \"decomposed\"",
            )),
        }
    }

    /// The job these knobs describe over `pattern`, the caller's parse of
    /// [`pattern`](Self::pattern): the only place knobs become a
    /// [`SynthesisRequest`]. Absent knobs take the builder's defaults, a
    /// count too large for `usize` saturates, and the pattern moves in.
    /// `max_restarts` (serve's admission cap) bounds the effective
    /// restart count, default portfolio included; it caps the builder
    /// input, so a zero still fails with `zero-restarts`.
    ///
    /// # Errors
    ///
    /// `bad-field` from [`synthesis_mode`](Self::synthesis_mode), then
    /// the builder's `zero-restarts` / `too-many-restarts` /
    /// `zero-clusters`.
    pub fn build(
        &self,
        pattern: AppPattern,
        max_restarts: Option<u64>,
    ) -> Result<SynthesisRequest, RequestError> {
        let cap = max_restarts.map_or(usize::MAX, |cap| knob(cap).max(1));
        let restarts = self
            .restarts
            .map_or(SynthesisRequest::DEFAULT_RESTARTS, knob);
        let mut builder = SynthesisRequest::builder(pattern)
            .restarts(restarts.min(cap))
            .mode(self.synthesis_mode()?);
        if let Some(seed) = self.seed {
            builder = builder.seed(seed);
        }
        if let Some(degree) = self.max_degree {
            builder = builder.max_degree(knob(degree));
        }
        if let Some(ms) = self.deadline_ms {
            builder = builder.deadline_ms(ms);
        }
        builder
            .build()
            .map_err(|e| RequestError::new(e.fingerprint(), e.to_string()))
    }
}

/// Rejects any field besides `op` for payload-free operations.
fn only_op(pairs: Entries<'_>, op: &str) -> Result<(), RequestError> {
    for (key, _) in pairs {
        if key != "op" {
            return Err(RequestError::new(
                "bad-field",
                format!("unknown field {key:?} in {op} request"),
            ));
        }
    }
    Ok(())
}

/// Reads an optional unsigned-integer field; present-but-wrong-typed is
/// an error, absent is `None`.
fn u64_field(value: ValueRef<'_>, key: &str) -> Result<Option<u64>, RequestError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            RequestError::new(
                "bad-field",
                format!("field {key:?} must be an unsigned integer"),
            )
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_synth_request() {
        let req = parse_request(
            r#"{"op":"synth","pattern":"procs 2\n","seed":7,"restarts":2,"max_degree":4,"deadline_ms":100,"mode":"decomposed","clusters":2}"#,
        )
        .expect("valid");
        assert_eq!(
            req,
            Request::Synth(SynthRequest {
                pattern: "procs 2\n".into(),
                seed: Some(7),
                restarts: Some(2),
                max_degree: Some(4),
                deadline_ms: Some(100),
                mode: Some("decomposed".into()),
                clusters: Some(2),
            })
        );
    }

    #[test]
    fn optional_fields_default_to_none() {
        let req = parse_request(r#"{"op":"synth","pattern":"procs 2\n"}"#).expect("valid");
        assert_eq!(
            req,
            Request::Synth(SynthRequest {
                pattern: "procs 2\n".into(),
                seed: None,
                restarts: None,
                max_degree: None,
                deadline_ms: None,
                mode: None,
                clusters: None,
            })
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#), Ok(Request::Stats));
        assert_eq!(parse_request(r#"{"op":"status"}"#), Ok(Request::Status));
    }

    #[test]
    fn rejections_carry_stable_fingerprints() {
        let cases: &[(&str, &str)] = &[
            ("not json", "bad-json"),
            ("[1,2]", "not-an-object"),
            ("{}", "missing-op"),
            (r#"{"op":7}"#, "missing-op"),
            (r#"{"op":"frobnicate"}"#, "unknown-op"),
            (r#"{"op":"synth"}"#, "missing-pattern"),
            (r#"{"op":"synth","pattern":42}"#, "missing-pattern"),
            (r#"{"op":"synth","pattern":"p","seed":"x"}"#, "bad-field"),
            (r#"{"op":"synth","pattern":"p","seed":-1}"#, "bad-field"),
            (r#"{"op":"synth","pattern":"p","seed":1.5}"#, "bad-field"),
            (r#"{"op":"synth","pattern":"p","bogus":1}"#, "bad-field"),
            (
                r#"{"op":"synth","pattern":"p","mode":"turbo"}"#,
                "bad-field",
            ),
            (r#"{"op":"synth","pattern":"p","mode":7}"#, "bad-field"),
            (r#"{"op":"synth","pattern":"p","clusters":2}"#, "bad-field"),
            (
                r#"{"op":"synth","pattern":"p","mode":"flat","clusters":2}"#,
                "bad-field",
            ),
            (
                r#"{"op":"synth","pattern":"p","mode":"decomposed","clusters":-1}"#,
                "bad-field",
            ),
            (r#"{"op":"stats","extra":1}"#, "bad-field"),
            (r#"{"op":"status","extra":1}"#, "bad-field"),
            // A repeated field is refused before anything is read from
            // the frame, whichever occurrence a reader would pick.
            (
                r#"{"op":"synth","pattern":"p","seed":1,"seed":2}"#,
                "bad-field",
            ),
            (
                r#"{"op":"synth","pattern":"p","seed":1,"seed":1}"#,
                "bad-field",
            ),
            (r#"{"op":"stats","op":"status"}"#, "bad-field"),
            (r#"{"op":7,"op":"stats"}"#, "bad-field"),
            (r#"{"op":"synth","pattern":"p","pattern":"q"}"#, "bad-field"),
            (
                r#"{"op":"synth","pattern":"p","bogus":1,"bogus":2}"#,
                "bad-field",
            ),
        ];
        for (input, want) in cases {
            let err = parse_request(input).expect_err(input);
            assert_eq!(err.fingerprint, *want, "input {input:?}");
            assert!(err.to_string().starts_with(want));
        }
    }
    /// Every synth request `parse_request` accepts, up to the values:
    /// each subset of the four counts, each legal mode / cluster pairing,
    /// and pattern texts heavy in escapes and in non-ASCII characters.
    fn generated_requests() -> Vec<Request> {
        let patterns = [
            "procs 4\nphase\n  0 -> 1\n  2 -> 3\n",
            "q\"uo\\te\n\r\t\u{0}\u{1}\u{1f}\u{7f} /\\n \\u0041",
            "procs 2 # ünïcødé → 😀 \u{2028}\u{feff}\u{10ffff}",
            "",
        ];
        let values = [0, 1, 7, u64::MAX];
        let modes: [(Option<&str>, Option<u64>); 5] = [
            (None, None),
            (Some("flat"), None),
            (Some("decomposed"), None),
            (Some("decomposed"), Some(3)),
            (Some("decomposed"), Some(u64::MAX)),
        ];
        let mut out = vec![Request::Stats, Request::Status];
        for (i, pattern) in patterns.iter().enumerate() {
            for present in 0..16usize {
                for (j, &(mode, clusters)) in modes.iter().enumerate() {
                    let count = |bit: usize| {
                        (present >> bit & 1 == 1).then(|| values[(i + j + bit) % values.len()])
                    };
                    out.push(Request::Synth(SynthRequest {
                        pattern: (*pattern).to_string(),
                        seed: count(0),
                        restarts: count(1),
                        max_degree: count(2),
                        deadline_ms: count(3),
                        mode: mode.map(str::to_string),
                        clusters,
                    }));
                }
            }
        }
        out
    }

    #[test]
    fn to_json_inverts_parse_request() {
        let requests = generated_requests();
        assert_eq!(requests.len(), 2 + 4 * 16 * 5);
        for req in requests {
            let line = req.to_json();
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(parse_request(&line), Ok(req), "{line}");
        }
    }

    #[test]
    fn to_json_writes_the_lines_clients_send() {
        let pattern = "procs 4\nphase\n  0 -> 1\n";
        let synth = |seed, restarts, max_degree, deadline_ms, mode: Option<&str>, clusters| {
            Request::Synth(SynthRequest {
                pattern: pattern.to_string(),
                seed,
                restarts,
                max_degree,
                deadline_ms,
                mode: mode.map(str::to_string),
                clusters,
            })
        };
        let cases = [
            (Request::Stats, r#"{"op":"stats"}"#),
            (Request::Status, r#"{"op":"status"}"#),
            // `nocsyn client submit`: seed, restarts and max degree always,
            // the rest when a flag sets them.
            (
                synth(Some(12648430), Some(8), Some(5), None, None, None),
                r#"{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n","seed":12648430,"restarts":8,"max_degree":5}"#,
            ),
            (
                synth(
                    Some(3),
                    Some(1),
                    Some(4),
                    Some(250),
                    Some("decomposed"),
                    Some(2),
                ),
                r#"{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n","seed":3,"restarts":1,"max_degree":4,"deadline_ms":250,"mode":"decomposed","clusters":2}"#,
            ),
            // The chaos harness: a seed and one restart.
            (
                synth(Some(0), Some(1), None, None, None, None),
                r#"{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n","seed":0,"restarts":1}"#,
            ),
            // The repository benchmark: a seed, and the mode when decomposed.
            (
                synth(Some(4294967295), None, None, None, None, None),
                r#"{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n","seed":4294967295}"#,
            ),
            (
                synth(Some(9), None, None, None, Some("decomposed"), None),
                r#"{"op":"synth","pattern":"procs 4\nphase\n  0 -> 1\n","seed":9,"mode":"decomposed"}"#,
            ),
        ];
        for (req, line) in cases {
            assert_eq!(req.to_json(), line);
            assert_eq!(parse_request(line), Ok(req));
        }
    }

    #[test]
    fn build_applies_defaults_the_restart_cap_and_the_builder_rules() {
        let parsed = crate::parse_pattern(
            "procs 4\nphase\n  0 -> 1\n",
            &nocsyn_model::ParseOptions::new(),
        )
        .expect("valid");
        let build = |req: SynthRequest, cap| req.build(parsed.pattern.clone(), cap);
        let bare = build(SynthRequest::default(), None).expect("defaults build");
        assert_eq!(bare.restarts().get(), SynthesisRequest::DEFAULT_RESTARTS);
        assert_eq!(bare.config(), &nocsyn_synth::SynthesisConfig::new());
        assert_eq!(bare.mode(), SynthesisMode::Flat);
        let restarts = |restarts, cap| {
            build(
                SynthRequest {
                    restarts,
                    ..SynthRequest::default()
                },
                cap,
            )
            .map(|r| r.restarts().get())
        };
        assert_eq!(restarts(Some(999), Some(2)), Ok(2));
        assert_eq!(restarts(None, Some(2)), Ok(2));
        assert_eq!(restarts(Some(3), Some(0)), Ok(1));
        let max = SynthesisRequest::MAX_RESTARTS;
        assert_eq!(restarts(Some(max as u64), None), Ok(max));
        let huge = restarts(Some(u64::MAX), None).expect_err("above the ceiling");
        assert_eq!(huge.fingerprint, "too-many-restarts");
        assert_eq!(
            restarts(Some(u64::MAX), Some(2)),
            Ok(2),
            "the cap applies first"
        );
        let zero = restarts(Some(0), Some(2)).expect_err("a zero is never capped into a job");
        assert_eq!(zero.fingerprint, "zero-restarts");
        assert_eq!(zero.detail, "restarts must be at least 1 (got 0)");
        let knobs = SynthRequest {
            seed: Some(9),
            max_degree: Some(u64::MAX),
            deadline_ms: Some(5),
            mode: Some("decomposed".into()),
            clusters: Some(0),
            ..SynthRequest::default()
        };
        let err = build(knobs.clone(), None).expect_err("zero clusters");
        assert_eq!(err.fingerprint, "zero-clusters");
        let req = build(
            SynthRequest {
                clusters: Some(2),
                ..knobs.clone()
            },
            None,
        )
        .expect("builds");
        assert_eq!(req.seed(), 9);
        assert_eq!(req.config().max_degree(), usize::MAX);
        assert_eq!(req.deadline(), Some(std::time::Duration::from_millis(5)));
        assert_eq!(req.mode(), SynthesisMode::Decomposed { clusters: Some(2) });
        for mode in [None, Some("flat".to_string()), Some("turbo".to_string())] {
            let err = build(
                SynthRequest {
                    mode,
                    ..knobs.clone()
                },
                None,
            )
            .expect_err("bad mode");
            assert_eq!(err.fingerprint, "bad-field");
        }
    }

    #[test]
    fn repeated_fields_are_named_in_the_detail() {
        for (input, key) in [
            (r#"{"op":"synth","pattern":"p","seed":1,"seed":2}"#, "seed"),
            (r#"{"op":"stats","op":"status"}"#, "op"),
            (r#"{"op":"synth","a":1,"b":2,"b":3,"a":4}"#, "b"),
        ] {
            let err = parse_request(input).expect_err(input);
            assert_eq!(err.fingerprint, "bad-field");
            assert!(
                err.detail.contains(&format!("repeated field {key:?}")),
                "{input} -> {err}"
            );
        }
    }
}
