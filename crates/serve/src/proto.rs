//! The request half of the line protocol: strict parsing of one JSON
//! object into a typed [`Request`].
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

use nocsyn_model::json::{Document, Entries, ValueRef};

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

/// Payload of a `synth` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthRequest {
    /// Schedule or trace text (autodetected, same rule as the CLI:
    /// any `msg ` line makes it a trace).
    pub pattern: String,
    /// RNG seed; defaults to the config default.
    pub seed: Option<u64>,
    /// Restart portfolio size; defaults to the config default. Zero is
    /// rejected by the request builder with a `zero-restarts` reply, not
    /// silently clamped.
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

/// Fields the `synth` operation accepts.
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

/// Parses one protocol line into a [`Request`].
///
/// The frame is read through the flat JSON [`Document`] without building
/// a tree. Checks run in a fixed order: `bad-json`, `not-an-object`, then
/// a repeated field (`bad-field` naming the first key seen twice), and
/// only then the operation and its fields.
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
            let mode = match value.get("mode") {
                None => None,
                Some(v) => match v.as_str() {
                    Some(m @ ("flat" | "decomposed")) => Some(m.to_string()),
                    _ => {
                        return Err(RequestError::new(
                            "bad-field",
                            "field \"mode\" must be \"flat\" or \"decomposed\"",
                        ));
                    }
                },
            };
            let clusters = u64_field(value, "clusters")?;
            if clusters.is_some() && mode.as_deref() != Some("decomposed") {
                return Err(RequestError::new(
                    "bad-field",
                    "field \"clusters\" requires \"mode\":\"decomposed\"",
                ));
            }
            Ok(Request::Synth(SynthRequest {
                pattern: pattern.to_string(),
                seed: u64_field(value, "seed")?,
                restarts: u64_field(value, "restarts")?,
                max_degree: u64_field(value, "max_degree")?,
                deadline_ms: u64_field(value, "deadline_ms")?,
                mode,
                clusters,
            }))
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
