//! Contention-freedom certificates: the machine-checkable evidence object
//! behind Theorem 1 verdicts.
//!
//! A [`Certificate`] packages everything an *independent* checker needs to
//! re-derive `C ∩ R = ∅` by set arithmetic alone: the maximum clique set
//! `K`, the explicit contention obligations (pairs of `C` whose routes
//! must be link-disjoint), the per-route resource sets (channel labels),
//! the per-channel crossing flow sets, and — when verification failed — a
//! concrete [`CertWitness`] per violated obligation. The whole payload is
//! self-bound by a [`CanonicalForm`] digest (the `binding` field), so any
//! tamper that does not recompute the digest is detected before any
//! semantic check runs, and optionally bound to a synthesis job by the
//! job-fingerprint digest of the serve cache.
//!
//! The schema is versioned (`nocsyn-cert-v1`), rendered deterministically
//! (same certificate value ⇒ same bytes), and parsed under the same
//! [`ParseLimits`] resource budget as pattern text — certificates cross
//! trust boundaries (disk caches, remote replies), so parsing is total
//! and bounded.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{self, Document, Items, JsonValue, ValueRef};
use crate::text::ParseLimits;
use crate::{CanonicalForm, Digest, Flow, FlowPair};

#[cfg(test)]
mod reference;

/// Schema tag accepted by this version of the certificate format.
pub const CERT_SCHEMA: &str = "nocsyn-cert-v1";

/// One violated obligation: a contention pair whose routes share channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertWitness {
    /// The contention pair that collides.
    pub pair: FlowPair,
    /// The shared channel labels (sorted, deduplicated).
    pub shared: Vec<String>,
}

/// A deterministic, self-bound contention-freedom certificate.
///
/// Field order in memory is irrelevant: rendering and the binding digest
/// both normalize (sort) every collection, so two equal certificate
/// values always produce identical bytes and identical digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Process count of the pattern the certificate speaks about.
    pub n_procs: usize,
    /// The verdict the certificate claims to prove.
    pub contention_free: bool,
    /// The maximum clique set `K` (each clique a set of flows).
    pub cliques: Vec<Vec<Flow>>,
    /// The `C ∩ R = ∅` obligations: contention pairs with both ends routed.
    pub obligations: Vec<FlowPair>,
    /// Per-route resource sets: sorted channel labels each flow crosses.
    pub routes: BTreeMap<Flow, Vec<String>>,
    /// Per-channel crossing flow sets (the inverse of `routes`).
    pub crossings: BTreeMap<String, Vec<Flow>>,
    /// Concrete collisions, non-empty iff `contention_free` is false.
    pub witnesses: Vec<CertWitness>,
    /// Hex digest of the synthesis job this certificate is bound to, if
    /// it was emitted for a cacheable job.
    pub job: Option<String>,
    /// The binding digest claimed by the parsed text (`None` on freshly
    /// built certificates; rendering always recomputes).
    pub claimed_binding: Option<String>,
}

/// Appends a flow's binding key, `src>dst` in decimal.
fn push_flow_key(out: &mut String, f: Flow) {
    let mut digits = [0; 20];
    out.push_str(json::decimal(f.src.index() as u64, &mut digits));
    out.push('>');
    out.push_str(json::decimal(f.dst.index() as u64, &mut digits));
}

/// Appends a pair's binding key, `a>b|c>d`.
fn push_pair_key(out: &mut String, p: FlowPair) {
    push_flow_key(out, p.first());
    out.push('|');
    push_flow_key(out, p.second());
}

/// Appends `items` joined by `sep`.
fn push_joined(out: &mut String, items: &[String], sep: char) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        out.push_str(item);
    }
}

/// Binding keys rendered back to back into one buffer, then emitted in
/// string order: the normalization of a binding field without one
/// `String` allocation per key.
#[derive(Default)]
struct SortedKeys {
    buf: String,
    spans: Vec<(u128, usize, usize)>,
}

impl SortedKeys {
    /// Adds the key `render` appends.
    fn push(&mut self, render: impl FnOnce(&mut String)) {
        let start = self.buf.len();
        render(&mut self.buf);
        let key = &self.buf.as_bytes()[start..];
        // The first 16 bytes, zero-padded and big-endian, order keys the
        // way the bytes do whenever they differ; only ties compare the
        // full keys.
        let mut head = [0; 16];
        let n = key.len().min(16);
        head[..n].copy_from_slice(&key[..n]);
        self.spans
            .push((u128::from_be_bytes(head), start, self.buf.len()));
    }

    /// Appends the keys in string order joined by `sep` to `out`, and
    /// empties the set for reuse.
    fn drain_sorted(&mut self, out: &mut String, sep: char) {
        let bytes = self.buf.as_bytes();
        self.spans.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| bytes[a.1..a.2].cmp(&bytes[b.1..b.2]))
        });
        for (i, &(_, start, end)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(sep);
            }
            out.push_str(&self.buf[start..end]);
        }
        self.buf.clear();
        self.spans.clear();
    }

    /// The keys in string order joined by `sep`.
    fn take_sorted(&mut self, sep: char) -> String {
        let mut out = String::with_capacity(self.buf.len() + self.spans.len());
        self.drain_sorted(&mut out, sep);
        out
    }
}

impl Certificate {
    /// The payload digest binding every semantic field together.
    ///
    /// Computed over a [`CanonicalForm`] whose fields are normalized
    /// renderings of each collection, so it is independent of in-memory
    /// ordering and of JSON whitespace. Clique members, cliques,
    /// obligations and witnesses are sorted as *strings* (`"10>3"` sorts
    /// before `"1>5"`); routes keep flow order and crossings label order.
    pub fn binding(&self) -> Digest {
        let mut keys = SortedKeys::default();
        let mut members = SortedKeys::default();
        for clique in &self.cliques {
            for &f in clique {
                members.push(|out| push_flow_key(out, f));
            }
            keys.push(|out| members.drain_sorted(out, ','));
        }
        let cliques = keys.take_sorted(';');
        for &p in &self.obligations {
            keys.push(|out| push_pair_key(out, p));
        }
        let obligations = keys.take_sorted(';');
        for w in &self.witnesses {
            keys.push(|out| {
                push_pair_key(out, w.pair);
                out.push(':');
                push_joined(out, &w.shared, ',');
            });
        }
        let witnesses = keys.take_sorted(';');
        let mut routes = String::new();
        for (i, (&f, chans)) in self.routes.iter().enumerate() {
            if i > 0 {
                routes.push(';');
            }
            push_flow_key(&mut routes, f);
            routes.push(':');
            push_joined(&mut routes, chans, ',');
        }
        let mut crossings = String::new();
        for (i, (ch, flows)) in self.crossings.iter().enumerate() {
            if i > 0 {
                crossings.push(';');
            }
            crossings.push_str(ch);
            crossings.push(':');
            for (j, &f) in flows.iter().enumerate() {
                if j > 0 {
                    crossings.push(',');
                }
                push_flow_key(&mut crossings, f);
            }
        }
        CanonicalForm::new()
            .field("schema", CERT_SCHEMA)
            .field("n_procs", self.n_procs)
            .field("contention_free", self.contention_free)
            .rendered_field("cliques", cliques)
            .rendered_field("obligations", obligations)
            .rendered_field("routes", routes)
            .rendered_field("crossings", crossings)
            .rendered_field("witnesses", witnesses)
            .field("job", self.job.as_deref().unwrap_or("none"))
            .digest()
    }

    /// Renders the certificate as a deterministic single-line JSON object
    /// with a freshly computed `binding` digest.
    pub fn to_json(&self) -> String {
        let flow_json = |f: &Flow| {
            JsonValue::array([
                JsonValue::from(f.src.index()),
                JsonValue::from(f.dst.index()),
            ])
        };
        let mut cliques: Vec<Vec<Flow>> = self
            .cliques
            .iter()
            .map(|c| {
                let mut c = c.clone();
                c.sort();
                c
            })
            .collect();
        cliques.sort();
        let mut obligations = self.obligations.clone();
        obligations.sort();
        let mut witnesses = self.witnesses.clone();
        witnesses.sort_by_key(|w| w.pair);
        let mut fields = vec![
            ("schema", JsonValue::from(CERT_SCHEMA)),
            ("n_procs", JsonValue::from(self.n_procs)),
            ("contention_free", JsonValue::from(self.contention_free)),
            (
                "cliques",
                JsonValue::array(
                    cliques
                        .iter()
                        .map(|c| JsonValue::array(c.iter().map(flow_json))),
                ),
            ),
            (
                "obligations",
                JsonValue::array(
                    obligations
                        .iter()
                        .map(|p| JsonValue::array([flow_json(&p.first()), flow_json(&p.second())])),
                ),
            ),
            (
                "routes",
                JsonValue::array(self.routes.iter().map(|(f, chans)| {
                    JsonValue::object([
                        ("flow", flow_json(f)),
                        (
                            "channels",
                            JsonValue::array(chans.iter().map(|c| JsonValue::from(c.as_str()))),
                        ),
                    ])
                })),
            ),
            (
                "crossings",
                JsonValue::array(self.crossings.iter().map(|(ch, flows)| {
                    JsonValue::object([
                        ("channel", JsonValue::from(ch.as_str())),
                        ("flows", JsonValue::array(flows.iter().map(flow_json))),
                    ])
                })),
            ),
            (
                "witnesses",
                JsonValue::array(witnesses.iter().map(|w| {
                    JsonValue::object([
                        ("flow_a", flow_json(&w.pair.first())),
                        ("flow_b", flow_json(&w.pair.second())),
                        (
                            "shared",
                            JsonValue::array(w.shared.iter().map(|c| JsonValue::from(c.as_str()))),
                        ),
                    ])
                })),
            ),
        ];
        if let Some(job) = &self.job {
            fields.push(("job", JsonValue::from(job.as_str())));
        }
        fields.push(("binding", JsonValue::from(self.binding().to_hex())));
        JsonValue::object(fields).to_string()
    }

    /// Whether the binding digest claimed by the parsed text matches a
    /// recomputation over the parsed payload. Freshly built certificates
    /// (no claimed binding) verify trivially.
    pub fn verify_binding(&self) -> bool {
        match &self.claimed_binding {
            None => true,
            Some(claimed) => *claimed == self.binding().to_hex(),
        }
    }

    /// Parses certificate text under the given resource limits.
    ///
    /// Total and bounded: any input — hostile, truncated, or garbage —
    /// yields a typed [`CertError`] with a stable fingerprint, never a
    /// panic. Semantic validation (binding, obligations, disjointness)
    /// is the checker's job; this only enforces shape and budgets.
    ///
    /// The whole text is parsed into a flat [`Document`] before any
    /// field is read, so a JSON error always wins over a field error.
    /// Fields are then read in schema order through the document's
    /// borrowed view — the first occurrence of a repeated key wins — and
    /// an array's length is known before its items are checked.
    ///
    /// # Errors
    ///
    /// [`CertError`] on oversized input, malformed JSON, an unsupported
    /// schema tag, or a missing/ill-typed field.
    pub fn parse(text: &str, limits: &ParseLimits) -> Result<Certificate, CertError> {
        if text.len() > limits.max_input_bytes {
            return Err(CertError::LimitExceeded("input bytes"));
        }
        let doc = Document::parse(text).map_err(|e| CertError::Json {
            fingerprint: e.fingerprint(),
            detail: e.to_string(),
        })?;
        let value = doc.root();
        if value.as_object().is_none() {
            return Err(CertError::BadField("certificate"));
        }
        let schema = str_field(value, "schema")?;
        if schema != CERT_SCHEMA {
            return Err(CertError::SchemaUnsupported);
        }
        let n_procs = usize_field(value, "n_procs")?;
        if n_procs == 0 || n_procs > limits.max_procs {
            return Err(CertError::LimitExceeded("n_procs"));
        }
        let contention_free = value
            .get("contention_free")
            .ok_or(CertError::MissingField("contention_free"))?
            .as_bool()
            .ok_or(CertError::BadField("contention_free"))?;
        // Every flow or channel mention costs input bytes, so the input
        // budget already bounds memory; the message budget additionally
        // bounds element counts the way pattern parsing does.
        let mut mentions = Budget {
            left: limits.max_messages,
        };

        let items = array_field(value, "cliques")?;
        let mut cliques = Vec::with_capacity(items.len());
        for c in items {
            let members = c.as_array().ok_or(CertError::BadField("cliques"))?;
            let mut clique = Vec::with_capacity(members.len());
            for m in members {
                clique.push(parse_flow(m, n_procs, &mut mentions)?);
            }
            cliques.push(clique);
        }

        let items = array_field(value, "obligations")?;
        let mut obligations = Vec::with_capacity(items.len());
        for o in items {
            let mut ends = o.as_array().ok_or(CertError::BadField("obligations"))?;
            // The length is checked before either end is read.
            let (2, Some(a), Some(b)) = (ends.len(), ends.next(), ends.next()) else {
                return Err(CertError::BadField("obligations"));
            };
            let a = parse_flow(a, n_procs, &mut mentions)?;
            let b = parse_flow(b, n_procs, &mut mentions)?;
            obligations.push(FlowPair::new(a, b));
        }

        let mut routes = BTreeMap::new();
        for r in array_field(value, "routes")? {
            let flow = parse_flow(
                r.get("flow").ok_or(CertError::MissingField("flow"))?,
                n_procs,
                &mut mentions,
            )?;
            let chans = parse_channels(r.get("channels"), "channels", &mut mentions)?;
            // Emitted routes are sorted and duplicate-free, and the checker
            // intersects them by merging, so any other order is refused
            // rather than trusted.
            if chans.windows(2).any(|w| w[0] >= w[1]) {
                return Err(CertError::BadField("channels"));
            }
            if routes.insert(flow, chans).is_some() {
                return Err(CertError::BadField("routes"));
            }
        }

        let mut crossings = BTreeMap::new();
        for x in array_field(value, "crossings")? {
            let ch = x
                .get("channel")
                .and_then(ValueRef::as_str)
                .ok_or(CertError::BadField("crossings"))?;
            check_channel(ch)?;
            let items = x
                .get("flows")
                .and_then(ValueRef::as_array)
                .ok_or(CertError::BadField("crossings"))?;
            let mut flows = Vec::with_capacity(items.len());
            for f in items {
                flows.push(parse_flow(f, n_procs, &mut mentions)?);
            }
            if crossings.insert(ch.to_string(), flows).is_some() {
                return Err(CertError::BadField("crossings"));
            }
        }

        let items = array_field(value, "witnesses")?;
        let mut witnesses = Vec::with_capacity(items.len());
        for w in items {
            let a = parse_flow(
                w.get("flow_a").ok_or(CertError::MissingField("flow_a"))?,
                n_procs,
                &mut mentions,
            )?;
            let b = parse_flow(
                w.get("flow_b").ok_or(CertError::MissingField("flow_b"))?,
                n_procs,
                &mut mentions,
            )?;
            let shared = parse_channels(w.get("shared"), "shared", &mut mentions)?;
            witnesses.push(CertWitness {
                pair: FlowPair::new(a, b),
                shared,
            });
        }

        let job = match value.get("job") {
            None => None,
            Some(v) => {
                let hex = v.as_str().ok_or(CertError::BadField("job"))?;
                if Digest::from_hex(hex).is_none() {
                    return Err(CertError::BadField("job"));
                }
                Some(hex.to_string())
            }
        };
        let binding = str_field(value, "binding")?;
        if Digest::from_hex(binding).is_none() {
            return Err(CertError::BadField("binding"));
        }

        Ok(Certificate {
            n_procs,
            contention_free,
            cliques,
            obligations,
            routes,
            crossings,
            witnesses,
            job,
            claimed_binding: Some(binding.to_string()),
        })
    }
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

fn str_field<'d>(value: ValueRef<'d>, name: &'static str) -> Result<&'d str, CertError> {
    value
        .get(name)
        .ok_or(CertError::MissingField(name))?
        .as_str()
        .ok_or(CertError::BadField(name))
}

fn usize_field(value: ValueRef<'_>, name: &'static str) -> Result<usize, CertError> {
    let raw = value
        .get(name)
        .ok_or(CertError::MissingField(name))?
        .as_u64()
        .ok_or(CertError::BadField(name))?;
    usize::try_from(raw).map_err(|_| CertError::BadField(name))
}

fn array_field<'d>(value: ValueRef<'d>, name: &'static str) -> Result<Items<'d>, CertError> {
    value
        .get(name)
        .ok_or(CertError::MissingField(name))?
        .as_array()
        .ok_or(CertError::BadField(name))
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

fn check_channel(label: &str) -> Result<(), CertError> {
    if label.is_empty() || label.len() > 64 || label.contains([',', ';', ':']) {
        return Err(CertError::BadField("channel"));
    }
    Ok(())
}

fn parse_channels(
    v: Option<ValueRef<'_>>,
    name: &'static str,
    budget: &mut Budget,
) -> Result<Vec<String>, CertError> {
    let items = v
        .and_then(ValueRef::as_array)
        .ok_or(CertError::BadField(name))?;
    let mut chans = Vec::with_capacity(items.len());
    for item in items {
        budget.spend()?;
        let label = item.as_str().ok_or(CertError::BadField(name))?;
        check_channel(label)?;
        chans.push(label.to_string());
    }
    Ok(chans)
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
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but ill-typed or out of range.
    BadField(&'static str),
    /// The schema tag is not `nocsyn-cert-v1`.
    SchemaUnsupported,
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
    use nocsyn_check::{check, check_assert_eq, u64_in, usize_in};
    use nocsyn_rng::Rng;

    /// The binding as first specified: one `String` per key, sorted and
    /// joined. The production binding must reproduce it bit for bit.
    fn reference_binding(cert: &Certificate) -> Digest {
        let flow_key = |f: &Flow| format!("{}>{}", f.src.index(), f.dst.index());
        let pair_key = |p: &FlowPair| format!("{}|{}", flow_key(&p.first()), flow_key(&p.second()));
        let mut cliques: Vec<String> = cert
            .cliques
            .iter()
            .map(|c| {
                let mut flows: Vec<String> = c.iter().map(flow_key).collect();
                flows.sort();
                flows.join(",")
            })
            .collect();
        cliques.sort();
        let mut obligations: Vec<String> = cert.obligations.iter().map(pair_key).collect();
        obligations.sort();
        let routes: Vec<String> = cert
            .routes
            .iter()
            .map(|(f, chans)| format!("{}:{}", flow_key(f), chans.join(",")))
            .collect();
        let crossings: Vec<String> = cert
            .crossings
            .iter()
            .map(|(ch, flows)| {
                let keys: Vec<String> = flows.iter().map(flow_key).collect();
                format!("{}:{}", ch, keys.join(","))
            })
            .collect();
        let mut witnesses: Vec<String> = cert
            .witnesses
            .iter()
            .map(|w| format!("{}:{}", pair_key(&w.pair), w.shared.join(",")))
            .collect();
        witnesses.sort();
        CanonicalForm::new()
            .field("schema", CERT_SCHEMA)
            .field("n_procs", cert.n_procs)
            .field("contention_free", cert.contention_free)
            .field("cliques", cliques.join(";"))
            .field("obligations", obligations.join(";"))
            .field("routes", routes.join(";"))
            .field("crossings", crossings.join(";"))
            .field("witnesses", witnesses.join(";"))
            .field("job", cert.job.as_deref().unwrap_or("none"))
            .digest()
    }

    /// A random certificate over 120 processors, so flow keys mix ids of
    /// one, two and three decimal digits and string order differs from
    /// numeric order. Half the flows come from a small pool, so members,
    /// pairs and whole clique prefixes repeat; route lists need not be
    /// sorted; and labels share prefixes longer than the 16-byte sort
    /// head, so keys tie on their heads and must be ordered by the rest.
    fn random_cert(seed: u64, size: usize) -> Certificate {
        let mut rng = Rng::seed_from_u64(seed);
        let any_flow = |rng: &mut Rng| {
            Flow::from_indices(rng.gen_range(0..120usize), rng.gen_range(0..120usize))
        };
        let pool: Vec<Flow> = (0..6).map(|_| any_flow(&mut rng)).collect();
        let flow = |rng: &mut Rng| {
            if rng.gen_bool(0.5) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                any_flow(rng)
            }
        };
        let label = |rng: &mut Rng| {
            let stem = ["L", "S", "link-from-switch-"][rng.gen_range(0..3usize)];
            format!(
                "{stem}{}{}",
                rng.gen_range(0..120usize),
                ["+", "-", ""][rng.gen_range(0..3usize)]
            )
        };
        let labels = |rng: &mut Rng, k: usize| (0..k).map(|_| label(rng)).collect::<Vec<_>>();
        let mut cert = Certificate {
            n_procs: 120,
            contention_free: rng.gen_bool(0.5),
            cliques: Vec::new(),
            obligations: Vec::new(),
            routes: BTreeMap::new(),
            crossings: BTreeMap::new(),
            witnesses: Vec::new(),
            job: rng
                .gen_bool(0.5)
                .then(|| crate::sha256(&seed.to_le_bytes()).to_hex()),
            claimed_binding: None,
        };
        for _ in 0..rng.gen_range(0..=size / 4 + 1) {
            // Either a fresh clique or the previous one plus a member.
            let mut clique: Vec<Flow> = match cert.cliques.last() {
                Some(prev) if rng.gen_bool(0.5) => prev.clone(),
                _ => (0..rng.gen_range(0..=size))
                    .map(|_| flow(&mut rng))
                    .collect(),
            };
            clique.push(flow(&mut rng));
            cert.cliques.push(clique);
        }
        for _ in 0..rng.gen_range(0..=4 * size) {
            cert.obligations
                .push(FlowPair::new(flow(&mut rng), flow(&mut rng)));
        }
        for _ in 0..rng.gen_range(0..=size) {
            let k = rng.gen_range(0..4usize);
            cert.routes.insert(flow(&mut rng), labels(&mut rng, k));
        }
        for _ in 0..rng.gen_range(0..=size) {
            let k = rng.gen_range(0..4usize);
            let flows = (0..k).map(|_| flow(&mut rng)).collect();
            cert.crossings.insert(label(&mut rng), flows);
        }
        for _ in 0..rng.gen_range(0..=size / 2) {
            let k = rng.gen_range(0..3usize);
            cert.witnesses.push(CertWitness {
                pair: FlowPair::new(flow(&mut rng), flow(&mut rng)),
                shared: labels(&mut rng, k),
            });
        }
        cert
    }

    #[test]
    fn binding_matches_the_reference_rendering() {
        check(
            "binding_matches_the_reference_rendering",
            (u64_in(0..u64::MAX), usize_in(0..48)),
            |&(seed, size)| {
                let cert = random_cert(seed, size);
                check_assert_eq!(cert.binding(), reference_binding(&cert));
                Ok(())
            },
        );
    }

    #[test]
    fn binding_keys_sort_as_strings() {
        let mut cert = sample();
        cert.obligations = vec![
            FlowPair::new(Flow::from_indices(1, 5), Flow::from_indices(2, 3)),
            FlowPair::new(Flow::from_indices(10, 3), Flow::from_indices(2, 3)),
        ];
        cert.cliques = vec![vec![Flow::from_indices(1, 5), Flow::from_indices(10, 3)]];
        assert_eq!(cert.binding(), reference_binding(&cert));
        let mut swapped = cert.clone();
        swapped.obligations.reverse();
        swapped.cliques[0].reverse();
        assert_eq!(swapped.binding(), cert.binding());
    }

    fn sample() -> Certificate {
        let f01 = Flow::from_indices(0, 1);
        let f23 = Flow::from_indices(2, 3);
        let mut routes = BTreeMap::new();
        routes.insert(f01, vec!["L0+".to_string()]);
        routes.insert(f23, vec!["L1-".to_string()]);
        let mut crossings = BTreeMap::new();
        crossings.insert("L0+".to_string(), vec![f01]);
        crossings.insert("L1-".to_string(), vec![f23]);
        Certificate {
            n_procs: 4,
            contention_free: true,
            cliques: vec![vec![f01, f23]],
            obligations: vec![FlowPair::new(f01, f23)],
            routes,
            crossings,
            witnesses: Vec::new(),
            job: None,
            claimed_binding: None,
        }
    }

    #[test]
    fn round_trip_preserves_value_and_binding() {
        let cert = sample();
        let text = cert.to_json();
        let parsed = Certificate::parse(&text, &ParseLimits::default()).expect("round trip");
        assert!(parsed.verify_binding());
        assert_eq!(parsed.binding(), cert.binding());
        assert_eq!(parsed.to_json(), text, "render is a fixed point");
    }

    #[test]
    fn rendering_is_order_invariant() {
        let mut shuffled = sample();
        shuffled.cliques[0].reverse();
        shuffled.obligations.reverse();
        assert_eq!(shuffled.to_json(), sample().to_json());
        assert_eq!(shuffled.binding(), sample().binding());
    }

    #[test]
    fn any_payload_tamper_changes_the_binding() {
        let base = sample().binding();
        let mut a = sample();
        a.contention_free = false;
        let mut b = sample();
        b.obligations.clear();
        let mut c = sample();
        c.routes
            .insert(Flow::from_indices(1, 2), vec!["L9+".to_string()]);
        let mut d = sample();
        d.job = Some(crate::sha256(b"job").to_hex());
        for (i, cert) in [a, b, c, d].iter().enumerate() {
            assert_ne!(cert.binding(), base, "tamper {i} not caught");
        }
    }

    #[test]
    fn textual_tamper_fails_binding_verification() {
        let text = sample().to_json();
        let tampered = text.replace("\"contention_free\":true", "\"contention_free\":false");
        assert_ne!(text, tampered);
        let parsed = Certificate::parse(&tampered, &ParseLimits::default()).expect("parses");
        assert!(!parsed.verify_binding());
    }

    #[test]
    fn parse_rejections_have_stable_fingerprints() {
        let limits = ParseLimits::default();
        let cases: Vec<(String, &str)> = vec![
            ("{".to_string(), "json-unexpected-end"),
            ("[]".to_string(), "cert-bad-field"),
            ("{}".to_string(), "cert-missing-field"),
            (
                "{\"schema\":\"nocsyn-cert-v0\"}".to_string(),
                "cert-schema-unsupported",
            ),
            (
                sample().to_json().replace("nocsyn-cert-v1", "other-v9"),
                "cert-schema-unsupported",
            ),
            (
                sample().to_json().replace("[2,3]", "[2,99]"),
                "cert-bad-field",
            ),
            (
                sample().to_json().replace("\"n_procs\":4", "\"n_procs\":0"),
                "limit-exceeded",
            ),
        ];
        for (text, want) in cases {
            let err = Certificate::parse(&text, &limits).expect_err("must reject");
            assert_eq!(err.fingerprint(), want, "input {text:?} -> {err}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn input_and_element_budgets_are_enforced() {
        let limits = ParseLimits::default().with_max_input_bytes(16);
        let err = Certificate::parse(&sample().to_json(), &limits).expect_err("too big");
        assert_eq!(err.fingerprint(), "limit-exceeded");
        let limits = ParseLimits::default().with_max_messages(1);
        let err = Certificate::parse(&sample().to_json(), &limits).expect_err("too many");
        assert_eq!(err.fingerprint(), "limit-exceeded");
    }

    #[test]
    fn parse_never_accepts_bad_digest_fields() {
        let text = sample().to_json();
        let hex = sample().binding().to_hex();
        let bad = text.replace(&hex, "zz");
        let err = Certificate::parse(&bad, &ParseLimits::default()).expect_err("bad binding");
        assert_eq!(err.fingerprint(), "cert-bad-field");
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
            assert!(cert.verify_binding());
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

    #[test]
    fn flat_parse_matches_the_tree_reference_on_mutations() {
        let mut rng = Rng::seed_from_u64(0x5eed_ce27);
        let small: Vec<String> = (0..32).map(|seed| random_cert(seed, 6).to_json()).collect();
        let mut cases = 0;
        // The decomposed certificate is 24 KB, so it gets fewer of the
        // 20,000 cases than the small ones.
        for (base, n) in [
            (EMITTED[1], 1_500),
            (EMITTED[0], 6_000),
            (sample().to_json().as_str(), 4_000),
        ]
        .into_iter()
        .chain(small.iter().map(|s| (s.as_str(), 300)))
        {
            for _ in 0..n {
                let text = crate::json::reference::mutate(
                    &mut rng,
                    base,
                    br#"{}[],:" \0123456789-.eEntrufals"#,
                );
                assert_same_parse(&text, &limits_for(&text, rng.gen_range(0..16usize)));
                cases += 1;
            }
        }
        assert!(cases >= 20_000);
    }

    #[test]
    fn parse_precedence_is_the_whole_document_first() {
        let limits = ParseLimits::default();
        let text = sample().to_json();
        // A bad schema before malformed JSON: the JSON error wins.
        let err =
            Certificate::parse(r#"{"schema":"nope","n_procs":"#, &limits).expect_err("malformed");
        assert_eq!(err.fingerprint(), "json-unexpected-end");
        // A three-ended obligation whose second end is out of range: the
        // obligation's length is checked before its ends.
        let three = text.replace(
            r#""obligations":[[[0,1],[2,3]]]"#,
            r#""obligations":[[[0,1],[2,99],[2,3]]]"#,
        );
        assert_ne!(three, text);
        assert_eq!(
            Certificate::parse(&three, &limits),
            Err(CertError::BadField("obligations"))
        );
        // A repeated top-level key: the first occurrence wins, whether a
        // later one differs or is ill-typed.
        let repeated = text.replacen(
            r#""contention_free":true"#,
            r#""contention_free":false,"contention_free":true"#,
            1,
        );
        let cert = Certificate::parse(&repeated, &limits).expect("first occurrence wins");
        assert!(!cert.contention_free);
        assert!(!cert.verify_binding());
        let late = format!(
            r#"{},"n_procs":"x","binding":"zz"}}"#,
            &text[..text.len() - 1]
        );
        assert_eq!(
            Certificate::parse(&late, &limits),
            Certificate::parse(&text, &limits)
        );
        for t in [&three, &repeated, &late] {
            assert_same_parse(t, &limits);
        }
    }
}
