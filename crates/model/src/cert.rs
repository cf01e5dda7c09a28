//! Contention-freedom certificates: the machine-checkable evidence behind
//! Theorem 1 verdicts.
//!
//! Theorem 1 asks for `C ∩ R = ∅`. The potential contention set `C`
//! (Definition 4) is a function of the pattern, so a checker re-derives
//! it instead of trusting a copy. The resource conflict set `R`
//! (Definition 7) is a function of the routes. A [`Certificate`] therefore
//! carries the routes, as each routed flow's channel labels, and the
//! verdict they are claimed to prove. When the verdict is contention it
//! also names every colliding pair of `C`, with the channels the two
//! routes share ([`CertWitness`]). It may name the synthesis job it was
//! emitted for (the serve cache's job-fingerprint digest).
//!
//! # Format
//!
//! Schema `nocsyn-cert-v2` is one JSON object whose fields come in this
//! order:
//!
//! * `schema`, `n_procs` and `contention_free`;
//! * `routes`: flows strictly increasing, each route's `channels`
//!   strictly increasing;
//! * `witnesses`, only when there are any: pairs strictly increasing,
//!   each `shared` list strictly increasing;
//! * the optional `job`;
//! * last, `binding`: the SHA-256 of every byte before the binding field,
//!   from the opening brace through the comma before `"binding"`.
//!
//! A reader hashes the bytes it read, so it never re-renders, and any edit
//! that does not recompute the digest is refused. The text may end in one
//! newline, as `nocsyn synth --emit-cert` writes it.
//!
//! The binding detects corruption and stale edits; anyone can recompute
//! it. Soundness rests on the checker, which re-derives `C` from the
//! pattern and tests the routes against it, and on this parser, which
//! refuses any layout but the one above. Parsing is total and bounded by
//! the same [`ParseLimits`] as pattern text, because certificates cross
//! trust boundaries (disk caches, remote replies).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::iter::Peekable;

use crate::json::{self, Document, Entries, Quoted, ValueRef};
use crate::text::ParseLimits;
use crate::{sha256, Digest, Flow, FlowPair};

#[cfg(test)]
mod reference;

/// Schema tag accepted by this version of the certificate format.
pub const CERT_SCHEMA: &str = "nocsyn-cert-v2";

/// The binding field's key and the opening quote of its value.
const BINDING_KEY: &str = "\"binding\":\"";

/// One contending pair whose routes share channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertWitness {
    /// The contention pair that collides.
    pub pair: FlowPair,
    /// The shared channel labels, strictly increasing.
    pub shared: Vec<String>,
}

/// A contention-freedom certificate (see the [module docs](self)).
///
/// Rendering writes the collections in the order they hold: routes in
/// flow order, channel labels and witnesses as given. The builder in
/// `nocsyn-topo` emits them sorted, and the parser refuses any other
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Process count of the pattern the certificate speaks about.
    pub n_procs: usize,
    /// The verdict the certificate claims to prove.
    pub contention_free: bool,
    /// Per-route resource sets: the channel labels each routed flow
    /// crosses.
    pub routes: BTreeMap<Flow, Vec<String>>,
    /// Colliding pairs of `C`, in pair order; a faithful certificate has
    /// some exactly when it claims contention.
    pub witnesses: Vec<CertWitness>,
    /// Hex digest of the synthesis job this certificate is bound to, if
    /// it was emitted for a cacheable job.
    pub job: Option<String>,
    /// The binding of the text this certificate was parsed from, already
    /// checked against those bytes; `None` on a certificate built in
    /// memory. Rendering always computes a fresh one.
    pub binding: Option<Digest>,
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut String, n: usize) {
    out.push_str(json::decimal(n as u64, &mut [0; 20]));
}

/// Appends a flow as its `[src,dst]` array.
fn push_flow(out: &mut String, f: Flow) {
    out.push('[');
    push_decimal(out, f.src.index());
    out.push(',');
    push_decimal(out, f.dst.index());
    out.push(']');
}

/// Appends a label list as a JSON array of strings.
fn push_labels(out: &mut String, labels: &[String]) {
    out.push('[');
    for (i, label) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", Quoted(label));
    }
    out.push(']');
}

impl Certificate {
    /// Renders the certificate as one line of JSON in the schema's field
    /// order, ending in a freshly computed `binding`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160 + 40 * self.routes.len());
        out.push_str("{\"schema\":\"");
        out.push_str(CERT_SCHEMA);
        out.push_str("\",\"n_procs\":");
        push_decimal(&mut out, self.n_procs);
        let _ = write!(out, ",\"contention_free\":{}", self.contention_free);
        out.push_str(",\"routes\":[");
        for (i, (&flow, chans)) in self.routes.iter().enumerate() {
            out.push_str(if i == 0 { "{\"flow\":" } else { ",{\"flow\":" });
            push_flow(&mut out, flow);
            out.push_str(",\"channels\":");
            push_labels(&mut out, chans);
            out.push('}');
        }
        out.push(']');
        if !self.witnesses.is_empty() {
            out.push_str(",\"witnesses\":[");
            for (i, w) in self.witnesses.iter().enumerate() {
                out.push_str(if i == 0 {
                    "{\"flow_a\":"
                } else {
                    ",{\"flow_a\":"
                });
                push_flow(&mut out, w.pair.first());
                out.push_str(",\"flow_b\":");
                push_flow(&mut out, w.pair.second());
                out.push_str(",\"shared\":");
                push_labels(&mut out, &w.shared);
                out.push('}');
            }
            out.push(']');
        }
        if let Some(job) = &self.job {
            let _ = write!(out, ",\"job\":{}", Quoted(job));
        }
        out.push(',');
        let binding = sha256(out.as_bytes());
        let _ = write!(out, "{BINDING_KEY}{binding}\"}}");
        out
    }

    /// Parses certificate text under the given resource limits.
    ///
    /// Total and bounded: any input — hostile, truncated, or garbage —
    /// yields a typed [`CertError`] with a stable fingerprint, never a
    /// panic. The checks run in this order: input size, JSON syntax (the
    /// whole text is parsed first), the schema tag, the binding, then the
    /// fields in schema order. So a certificate of another schema is
    /// `cert-schema-unsupported`, and any edit that leaves the JSON well
    /// formed but does not recompute the binding is
    /// `cert-binding-mismatch`. Whether the routes prove the verdict is
    /// the checker's job; this enforces the layout and the budgets.
    ///
    /// # Errors
    ///
    /// [`CertError`] on oversized input, malformed JSON, an unsupported
    /// schema tag, a binding that does not match the bytes, or a
    /// missing, ill-typed, unordered or unexpected field.
    pub fn parse(text: &str, limits: &ParseLimits) -> Result<Certificate, CertError> {
        if text.len() > limits.max_input_bytes {
            return Err(CertError::LimitExceeded("input bytes"));
        }
        let doc = Document::parse(text).map_err(|e| CertError::Json {
            fingerprint: e.fingerprint(),
            detail: e.to_string(),
        })?;
        let root = doc.root();
        let mut fields = root
            .as_object()
            .ok_or(CertError::BadField("certificate"))?
            .peekable();
        let schema = field(&mut fields, "schema")?
            .as_str()
            .ok_or(CertError::BadField("schema"))?;
        if schema != CERT_SCHEMA {
            return Err(CertError::SchemaUnsupported);
        }
        let binding = read_binding(text, root)?;

        let n_procs = field(&mut fields, "n_procs")?
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .ok_or(CertError::BadField("n_procs"))?;
        if n_procs == 0 || n_procs > limits.max_procs {
            return Err(CertError::LimitExceeded("n_procs"));
        }
        let contention_free = field(&mut fields, "contention_free")?
            .as_bool()
            .ok_or(CertError::BadField("contention_free"))?;
        // Every flow or label mention costs input bytes, so the input
        // budget already bounds memory; the message budget additionally
        // bounds element counts the way pattern parsing does.
        let mut budget = Budget {
            left: limits.max_messages,
        };

        let items = field(&mut fields, "routes")?
            .as_array()
            .ok_or(CertError::BadField("routes"))?;
        let mut routes = Vec::with_capacity(items.len());
        for item in items {
            let mut entries = object(item, "routes")?;
            let flow = parse_flow(field(&mut entries, "flow")?, n_procs, &mut budget)?;
            let chans = parse_labels(field(&mut entries, "channels")?, "channels", &mut budget)?;
            if entries.next().is_some() || routes.last().is_some_and(|&(last, _)| last >= flow) {
                return Err(CertError::BadField("routes"));
            }
            routes.push((flow, chans));
        }

        let mut witnesses = Vec::new();
        if let Some(items) = optional_field(&mut fields, "witnesses") {
            let items = items
                .as_array()
                .filter(|items| items.len() > 0)
                .ok_or(CertError::BadField("witnesses"))?;
            witnesses.reserve(items.len());
            for item in items {
                let mut entries = object(item, "witnesses")?;
                let a = parse_flow(field(&mut entries, "flow_a")?, n_procs, &mut budget)?;
                let b = parse_flow(field(&mut entries, "flow_b")?, n_procs, &mut budget)?;
                let shared = parse_labels(field(&mut entries, "shared")?, "shared", &mut budget)?;
                let pair = FlowPair::new(a, b);
                if entries.next().is_some()
                    || a > b
                    || shared.is_empty()
                    || witnesses
                        .last()
                        .is_some_and(|w: &CertWitness| w.pair >= pair)
                {
                    return Err(CertError::BadField("witnesses"));
                }
                witnesses.push(CertWitness { pair, shared });
            }
        }

        let job = match optional_field(&mut fields, "job") {
            None => None,
            Some(v) => {
                let hex = v
                    .as_str()
                    .filter(|hex| Digest::from_hex(hex).is_some())
                    .ok_or(CertError::BadField("job"))?;
                Some(hex.to_string())
            }
        };
        // Only the binding, read above as the last field, may remain.
        if fields.count() != 1 {
            return Err(CertError::BadField("certificate"));
        }

        Ok(Certificate {
            n_procs,
            contention_free,
            routes: routes.into_iter().collect(),
            witnesses,
            job,
            binding: Some(binding),
        })
    }
}

/// The binding `text` carries, once it is known to be the last field,
/// laid out as [`Certificate::to_json`] writes it (lowercase hex, no
/// whitespace, at most one trailing newline) and equal to the SHA-256 of
/// every byte before it.
fn read_binding(text: &str, root: ValueRef<'_>) -> Result<Digest, CertError> {
    let (key, value) = root
        .as_object()
        .and_then(Iterator::last)
        .ok_or(CertError::MissingField("binding"))?;
    if key != "binding" {
        return Err(CertError::MissingField("binding"));
    }
    let hex = value.as_str().ok_or(CertError::BadField("binding"))?;
    let claimed = Digest::from_hex(hex)
        .filter(|d| d.to_hex() == hex)
        .ok_or(CertError::BadField("binding"))?;
    let body = text.strip_suffix('\n').unwrap_or(text);
    let prefix = body
        .strip_suffix("\"}")
        .and_then(|b| b.strip_suffix(hex))
        .and_then(|b| b.strip_suffix(BINDING_KEY))
        .filter(|prefix| prefix.ends_with(','))
        .ok_or(CertError::BadField("binding"))?;
    if sha256(prefix.as_bytes()) != claimed {
        return Err(CertError::BindingMismatch);
    }
    Ok(claimed)
}

/// Remaining element-mention budget during parsing.
struct Budget {
    left: usize,
}

impl Budget {
    fn spend(&mut self) -> Result<(), CertError> {
        if self.left == 0 {
            return Err(CertError::LimitExceeded("elements"));
        }
        self.left -= 1;
        Ok(())
    }
}

/// An object's fields, read in order.
type Fields<'d> = Peekable<Entries<'d>>;

/// The fields of `v`, which must be an object.
fn object<'d>(v: ValueRef<'d>, name: &'static str) -> Result<Fields<'d>, CertError> {
    Ok(v.as_object().ok_or(CertError::BadField(name))?.peekable())
}

/// The next field, which must be `name`.
fn field<'d>(fields: &mut Fields<'d>, name: &'static str) -> Result<ValueRef<'d>, CertError> {
    optional_field(fields, name).ok_or(CertError::MissingField(name))
}

/// The next field, if it is `name`.
fn optional_field<'d>(fields: &mut Fields<'d>, name: &str) -> Option<ValueRef<'d>> {
    fields
        .next_if(|&(key, _)| key == name)
        .map(|(_, value)| value)
}

/// One process id of a flow: an unsigned integer.
fn flow_end(v: Option<ValueRef<'_>>) -> Option<usize> {
    v?.as_u64().and_then(|n| usize::try_from(n).ok())
}

fn parse_flow(v: ValueRef<'_>, n_procs: usize, budget: &mut Budget) -> Result<Flow, CertError> {
    budget.spend()?;
    let mut ends = v.as_array().ok_or(CertError::BadField("flow"))?;
    if ends.len() != 2 {
        return Err(CertError::BadField("flow"));
    }
    let src = flow_end(ends.next()).ok_or(CertError::BadField("flow"))?;
    let dst = flow_end(ends.next()).ok_or(CertError::BadField("flow"))?;
    if src >= n_procs || dst >= n_procs {
        return Err(CertError::BadField("flow"));
    }
    Ok(Flow::from_indices(src, dst))
}

/// A channel label: non-empty and at most 64 bytes.
fn check_channel(label: &str) -> Result<(), CertError> {
    if label.is_empty() || label.len() > 64 {
        return Err(CertError::BadField("channel"));
    }
    Ok(())
}

/// A strictly increasing list of channel labels. Any other order is
/// refused rather than trusted: the checker and the builder both rely on
/// each list naming each channel once.
fn parse_labels(
    v: ValueRef<'_>,
    name: &'static str,
    budget: &mut Budget,
) -> Result<Vec<String>, CertError> {
    let items = v.as_array().ok_or(CertError::BadField(name))?;
    let mut labels: Vec<String> = Vec::with_capacity(items.len());
    for item in items {
        budget.spend()?;
        let label = item.as_str().ok_or(CertError::BadField(name))?;
        check_channel(label)?;
        if labels.last().is_some_and(|last| last.as_str() >= label) {
            return Err(CertError::BadField(name));
        }
        labels.push(label.to_string());
    }
    Ok(labels)
}

/// Why certificate text was rejected at the parsing boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The text is not well-formed JSON; carries the JSON parser's own
    /// stable fingerprint.
    Json {
        /// The JSON parser's stable error class.
        fingerprint: &'static str,
        /// Human-readable position/cause.
        detail: String,
    },
    /// A required field is absent, or not where the schema puts it.
    MissingField(&'static str),
    /// A field is present but ill-typed, out of range or out of order, or
    /// the object holds a field the schema does not.
    BadField(&'static str),
    /// The schema tag is not `nocsyn-cert-v2`.
    SchemaUnsupported,
    /// The binding is not the SHA-256 of the bytes before it.
    BindingMismatch,
    /// A resource budget from [`ParseLimits`] was exceeded.
    LimitExceeded(&'static str),
}

impl CertError {
    /// Stable kebab-case class id (shared namespace with every other
    /// public error type; fuzzing dedups crashes by this).
    pub fn fingerprint(&self) -> &'static str {
        match self {
            CertError::Json { fingerprint, .. } => fingerprint,
            CertError::MissingField(_) => "cert-missing-field",
            CertError::BadField(_) => "cert-bad-field",
            CertError::SchemaUnsupported => "cert-schema-unsupported",
            CertError::BindingMismatch => "cert-binding-mismatch",
            CertError::LimitExceeded(_) => "limit-exceeded",
        }
    }
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Json { detail, .. } => write!(f, "certificate is not JSON: {detail}"),
            CertError::MissingField(name) => write!(f, "certificate field `{name}` is missing"),
            CertError::BadField(name) => write!(f, "certificate field `{name}` is invalid"),
            CertError::SchemaUnsupported => {
                write!(f, "certificate schema is not `{CERT_SCHEMA}`")
            }
            CertError::BindingMismatch => {
                write!(f, "binding digest does not match the certificate bytes")
            }
            CertError::LimitExceeded(what) => {
                write!(f, "certificate exceeds the `{what}` budget")
            }
        }
    }
}

impl std::error::Error for CertError {}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_rng::Rng;

    /// Replaces the binding of `text` with the digest of its (possibly
    /// edited) prefix: a forgery a hostile writer can always produce.
    fn rebind(text: &str) -> String {
        let cut = text.rfind("\"binding\"").unwrap_or(text.len());
        let prefix = &text[..cut];
        format!("{prefix}{BINDING_KEY}{}\"}}", sha256(prefix.as_bytes()))
    }

    fn flow(s: usize, d: usize) -> Flow {
        Flow::from_indices(s, d)
    }

    fn labels(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn sample() -> Certificate {
        Certificate {
            n_procs: 4,
            contention_free: true,
            routes: [
                (flow(0, 1), labels(&["L0+"])),
                (flow(2, 3), labels(&["L1-"])),
            ]
            .into_iter()
            .collect(),
            witnesses: Vec::new(),
            job: None,
            binding: None,
        }
    }

    /// A contended sample that uses every optional field.
    fn contended() -> Certificate {
        let mut cert = sample();
        cert.contention_free = false;
        cert.routes.insert(flow(0, 1), labels(&["L0+", "SH"]));
        cert.routes.insert(flow(2, 3), labels(&["L1-", "SH"]));
        cert.witnesses = vec![CertWitness {
            pair: FlowPair::new(flow(0, 1), flow(2, 3)),
            shared: labels(&["SH"]),
        }];
        cert.job = Some(crate::sha256(b"job").to_hex());
        cert
    }

    /// A random canonical certificate over 120 processors, so flow ids
    /// have one to three decimal digits, with labels that share long
    /// prefixes.
    fn random_cert(seed: u64, size: usize) -> Certificate {
        let mut rng = Rng::seed_from_u64(seed);
        let any_flow = |rng: &mut Rng| flow(rng.gen_range(0..120usize), rng.gen_range(0..120usize));
        let label = |rng: &mut Rng| {
            let stem = ["L", "S", "link-from-switch-"][rng.gen_range(0..3usize)];
            format!(
                "{stem}{}{}",
                rng.gen_range(0..120usize),
                ["+", "-", "\"q\\"][rng.gen_range(0..3usize)]
            )
        };
        let label_set = |rng: &mut Rng, k: usize| {
            let mut set: Vec<String> = (0..k).map(|_| label(rng)).collect();
            set.sort();
            set.dedup();
            set
        };
        let mut routes = BTreeMap::new();
        for _ in 0..rng.gen_range(0..=size) {
            let k = rng.gen_range(0..4usize);
            routes.insert(any_flow(&mut rng), label_set(&mut rng, k));
        }
        let mut pairs: Vec<FlowPair> = (0..rng.gen_range(0..=size / 2))
            .map(|_| FlowPair::new(any_flow(&mut rng), any_flow(&mut rng)))
            .collect();
        pairs.sort();
        pairs.dedup();
        let witnesses: Vec<CertWitness> = pairs
            .into_iter()
            .map(|pair| {
                let k = rng.gen_range(1..4usize);
                CertWitness {
                    pair,
                    shared: label_set(&mut rng, k),
                }
            })
            .collect();
        Certificate {
            n_procs: 120,
            contention_free: witnesses.is_empty(),
            routes,
            witnesses,
            job: rng
                .gen_bool(0.5)
                .then(|| crate::sha256(&seed.to_le_bytes()).to_hex()),
            binding: None,
        }
    }

    /// `cert` as parsed back from its own rendering.
    fn parsed(cert: &Certificate) -> Certificate {
        let text = cert.to_json();
        let cut = text.rfind("\"binding\"").unwrap_or(0);
        Certificate {
            binding: Some(sha256(&text.as_bytes()[..cut])),
            ..cert.clone()
        }
    }

    #[test]
    fn round_trip_is_a_fixed_point() {
        for seed in 0..64 {
            for cert in [sample(), contended(), random_cert(seed, 24)] {
                let text = cert.to_json();
                let back = Certificate::parse(&text, &ParseLimits::default()).expect("round trip");
                assert_eq!(back, parsed(&cert));
                assert_eq!(back.to_json(), text, "render is a fixed point");
            }
        }
    }

    #[test]
    fn binding_is_the_sha256_of_the_bytes_before_it() {
        for text in EMITTED
            .iter()
            .map(|t| t.to_string())
            .chain([sample().to_json(), contended().to_json()])
        {
            let cert = Certificate::parse(&text, &ParseLimits::default()).expect("valid");
            let cut = text.rfind("\"binding\"").expect("has a binding");
            assert!(text[..cut].ends_with(','));
            assert_eq!(cert.binding, Some(sha256(&text.as_bytes()[..cut])));
            assert_eq!(
                text.trim_end_matches('\n')[cut..],
                format!("{BINDING_KEY}{}\"}}", sha256(&text.as_bytes()[..cut]))
            );
        }
    }

    #[test]
    fn only_a_single_trailing_newline_is_accepted() {
        let limits = ParseLimits::default();
        let text = contended().to_json();
        let want = Certificate::parse(&text, &limits).expect("valid");
        assert_eq!(Certificate::parse(&format!("{text}\n"), &limits), Ok(want));
        for tail in ["\n\n", "\r\n", " ", " \n", "\t"] {
            let err = Certificate::parse(&format!("{text}{tail}"), &limits)
                .expect_err("non-canonical tail");
            assert_eq!(err, CertError::BadField("binding"), "{tail:?}");
        }
    }

    /// Every single-byte substitution, deletion and insertion of an
    /// emitted certificate is refused, except the one trailing newline
    /// `--emit-cert` writes. Substitutions try every byte that keeps the
    /// text UTF-8 on the small certificates, and a spread of bytes on
    /// the emitted ones.
    #[test]
    fn every_single_byte_change_is_rejected() {
        let limits = ParseLimits::default();
        let cases: [(String, &[u8]); 3] = [
            (sample().to_json(), &[]),
            (contended().to_json(), &[]),
            (
                EMITTED[0].trim_end_matches('\n').to_string(),
                b" \n\"0129afz,:[]{}\\-+",
            ),
        ];
        let mut rejected = 0usize;
        for (text, spread) in &cases {
            let all: Vec<u8> = (0..0x80).collect();
            let subs: &[u8] = if spread.is_empty() { &all } else { spread };
            let bytes = text.as_bytes();
            let mut reject = |edited: Vec<u8>| {
                let Ok(edited) = String::from_utf8(edited) else {
                    return;
                };
                if edited != *text {
                    assert!(
                        Certificate::parse(&edited, &limits).is_err(),
                        "accepted {edited:?}"
                    );
                    rejected += 1;
                }
            };
            for at in 0..=bytes.len() {
                if at < bytes.len() {
                    for &b in subs {
                        let mut edited = bytes.to_vec();
                        edited[at] = b;
                        reject(edited);
                    }
                    let mut edited = bytes.to_vec();
                    edited.remove(at);
                    reject(edited);
                }
                for b in [b' ', b'\n', b'0', b',', b'"'] {
                    if at == bytes.len() && b == b'\n' {
                        continue;
                    }
                    let mut edited = bytes.to_vec();
                    edited.insert(at, b);
                    reject(edited);
                }
            }
        }
        assert!(rejected > 80_000, "{rejected}");
    }

    #[test]
    fn parse_rejections_have_stable_fingerprints() {
        let limits = ParseLimits::default();
        let text = sample().to_json();
        let hex = &text[text.len() - 66..text.len() - 2];
        let cases: Vec<(String, &str)> = vec![
            ("{".to_string(), "json-unexpected-end"),
            ("[]".to_string(), "cert-bad-field"),
            ("{}".to_string(), "cert-missing-field"),
            (
                "{\"schema\":\"nocsyn-cert-v0\"}".to_string(),
                "cert-schema-unsupported",
            ),
            (
                include_str!("../../../examples_data/pipeline.v1.cert.json").to_string(),
                "cert-schema-unsupported",
            ),
            (text.replace("[2,3]", "[2,99]"), "cert-binding-mismatch"),
            (rebind(&text.replace("[2,3]", "[2,99]")), "cert-bad-field"),
            (
                rebind(&text.replace("\"n_procs\":4", "\"n_procs\":0")),
                "limit-exceeded",
            ),
            (text.replace(hex, "zz"), "cert-bad-field"),
        ];
        for (text, want) in cases {
            let err = Certificate::parse(&text, &limits).expect_err("must reject");
            assert_eq!(err.fingerprint(), want, "input {text:?} -> {err}");
            assert!(!err.to_string().is_empty());
        }
    }

    /// Freshly bound forgeries of the layout: each breaks one rule the
    /// checker and the builder rely on.
    #[test]
    fn layout_rules_are_enforced_under_a_fresh_binding() {
        let limits = ParseLimits::default();
        let free = sample().to_json();
        let busy = contended().to_json();
        let rows: Vec<(&str, String, CertError)> = vec![
            (
                "unsorted channels",
                free.replace(r#"["L0+"]"#, r#"["L9+","L0+"]"#),
                CertError::BadField("channels"),
            ),
            (
                "repeated channel",
                free.replace(r#"["L0+"]"#, r#"["L0+","L0+"]"#),
                CertError::BadField("channels"),
            ),
            (
                "empty label",
                free.replace(r#"["L0+"]"#, r#"[""]"#),
                CertError::BadField("channel"),
            ),
            (
                "overlong label",
                free.replace(r#"["L0+"]"#, &format!("[\"{}\"]", "x".repeat(65))),
                CertError::BadField("channel"),
            ),
            (
                "repeated route flow",
                free.replace("[2,3]", "[0,1]"),
                CertError::BadField("routes"),
            ),
            (
                "unsorted route flows",
                free.replace("[2,3]", "[0,0]"),
                CertError::BadField("routes"),
            ),
            (
                "extra route field",
                free.replace(r#""channels":["L0+"]"#, r#""channels":["L0+"],"x":1"#),
                CertError::BadField("routes"),
            ),
            (
                "empty witness list",
                free.replace(r#"}],"#, r#"}],"witnesses":[],"#),
                CertError::BadField("witnesses"),
            ),
            (
                "witness ends reversed",
                busy.replace(
                    r#""flow_a":[0,1],"flow_b":[2,3]"#,
                    r#""flow_a":[2,3],"flow_b":[0,1]"#,
                ),
                CertError::BadField("witnesses"),
            ),
            (
                "empty shared list",
                busy.replace(r#""shared":["SH"]"#, r#""shared":[]"#),
                CertError::BadField("witnesses"),
            ),
            (
                "repeated witness",
                busy.replace(
                    r#""shared":["SH"]}"#,
                    r#""shared":["SH"]},{"flow_a":[0,1],"flow_b":[2,3],"shared":["SH"]}"#,
                ),
                CertError::BadField("witnesses"),
            ),
            (
                "unknown top-level field",
                free.replace(r#"}],"#, r#"}],"note":"x","#),
                CertError::BadField("certificate"),
            ),
            (
                "fields out of order",
                free.replace(
                    r#""n_procs":4,"contention_free":true"#,
                    r#""contention_free":true,"n_procs":4"#,
                ),
                CertError::MissingField("n_procs"),
            ),
            (
                "repeated field",
                free.replace(
                    r#""contention_free":true"#,
                    r#""contention_free":true,"contention_free":false"#,
                ),
                CertError::MissingField("routes"),
            ),
            (
                "job is not a digest",
                busy.replace("\"job\":\"", "\"job\":\"x"),
                CertError::BadField("job"),
            ),
        ];
        for (name, forged, want) in rows {
            let forged = rebind(&forged);
            assert_eq!(Certificate::parse(&forged, &limits), Err(want), "{name}");
            assert_same_parse(&forged, &limits);
        }
        // A binding that is not last, or not laid out canonically.
        let hex = &free[free.len() - 66..free.len() - 2];
        let upper = free.replace(hex, &hex.to_uppercase());
        let spaced = free.replace(BINDING_KEY, "\"binding\": \"");
        let trailing = free.replace("\"}", "\",\"z\":1}");
        for (forged, want) in [
            (upper, CertError::BadField("binding")),
            (spaced, CertError::BadField("binding")),
            (trailing, CertError::MissingField("binding")),
        ] {
            assert_eq!(Certificate::parse(&forged, &limits), Err(want), "{forged}");
        }
    }

    #[test]
    fn input_and_element_budgets_are_enforced() {
        let limits = ParseLimits::default().with_max_input_bytes(16);
        let err = Certificate::parse(&sample().to_json(), &limits).expect_err("too big");
        assert_eq!(err.fingerprint(), "limit-exceeded");
        let limits = ParseLimits::default().with_max_messages(3);
        let err = Certificate::parse(&sample().to_json(), &limits).expect_err("too many");
        assert_eq!(err, CertError::LimitExceeded("elements"));
        let limits = ParseLimits::default().with_max_procs(3);
        let err = Certificate::parse(&sample().to_json(), &limits).expect_err("too wide");
        assert_eq!(err, CertError::LimitExceeded("n_procs"));
    }

    /// Certificates the synthesis emits: `nocsyn synth
    /// examples_data/pipeline.txt --restarts 2 --seed 9 --emit-cert`, and
    /// a two-cluster decomposed synthesis of a 32-node clustered pattern
    /// (`--decompose --clusters 2 --restarts 1 --seed 3`).
    const EMITTED: [&str; 2] = [
        include_str!("../testdata/flat.cert.json"),
        include_str!("../testdata/decomposed.cert.json"),
    ];

    /// Budgets that bite at different points of a parse: none, the
    /// element budget part-way through, the process cap, and the input
    /// size.
    fn limits_for(text: &str, pick: usize) -> ParseLimits {
        match pick % 4 {
            0 => ParseLimits::default(),
            1 => ParseLimits::default().with_max_messages(text.len() / 16),
            2 => ParseLimits::default().with_max_procs(16),
            _ => ParseLimits::default().with_max_input_bytes(text.len().saturating_sub(pick % 3)),
        }
    }

    fn assert_same_parse(text: &str, limits: &ParseLimits) {
        let got = Certificate::parse(text, limits);
        let want = reference::parse(text, limits);
        assert!(got == want, "flat {got:?} != tree {want:?} on {text:?}");
    }

    #[test]
    fn flat_parse_matches_the_tree_reference_on_emitted_certificates() {
        for text in EMITTED {
            let cert = Certificate::parse(text, &ParseLimits::default()).expect("emitted");
            assert_eq!(format!("{}\n", cert.to_json()), text);
            for pick in 0..4 {
                assert_same_parse(text, &limits_for(text, pick));
            }
        }
        for seed in 0..64 {
            let text = random_cert(seed, 24).to_json();
            for pick in 0..4 {
                assert_same_parse(&text, &limits_for(&text, pick));
            }
        }
    }

    /// Byte mutations of emitted and random certificates, half of them
    /// re-bound so the field checks behind the binding are reached too.
    #[test]
    fn flat_parse_matches_the_tree_reference_on_mutations() {
        let mut rng = Rng::seed_from_u64(0x5eed_ce27);
        let small: Vec<String> = (0..32).map(|seed| random_cert(seed, 6).to_json()).collect();
        let (free, busy) = (sample().to_json(), contended().to_json());
        let mut cases = 0;
        for (base, n) in [
            (EMITTED[1], 1_500),
            (EMITTED[0], 6_000),
            (free.as_str(), 2_000),
            (busy.as_str(), 2_000),
        ]
        .into_iter()
        .chain(small.iter().map(|s| (s.as_str(), 300)))
        {
            for i in 0..n {
                let mut text = crate::json::reference::mutate(
                    &mut rng,
                    base,
                    br#"{}[],:" \0123456789-.eEntrufals"#,
                );
                if i % 2 == 1 {
                    text = rebind(&text);
                }
                assert_same_parse(&text, &limits_for(&text, rng.gen_range(0..16usize)));
                cases += 1;
            }
        }
        assert!(cases >= 20_000);
    }

    #[test]
    fn parse_precedence_is_json_then_schema_then_binding() {
        let limits = ParseLimits::default();
        let text = sample().to_json();
        // A bad schema before malformed JSON: the JSON error wins.
        let err =
            Certificate::parse(r#"{"schema":"nope","n_procs":"#, &limits).expect_err("malformed");
        assert_eq!(err.fingerprint(), "json-unexpected-end");
        // Another schema wins over a binding that does not match.
        let older = text.replace(CERT_SCHEMA, "nocsyn-cert-v1");
        assert_eq!(
            Certificate::parse(&older, &limits),
            Err(CertError::SchemaUnsupported)
        );
        // A stale binding wins over a field error behind it.
        let stale = text.replace("[2,3]", "[2,99]");
        assert_eq!(
            Certificate::parse(&stale, &limits),
            Err(CertError::BindingMismatch)
        );
        for t in [&older, &stale] {
            assert_same_parse(t, &limits);
        }
    }
}
