//! The independent certificate checker behind `nocsyn certify`.
//!
//! This crate validates a contention-freedom
//! [`Certificate`](nocsyn_model::Certificate) against the pattern it
//! claims to speak about, using **set arithmetic only**. It re-derives the
//! potential contention set `C` from the pattern with `nocsyn-model`
//! primitives and tests `C ∩ R = ∅` against the certificate's routes:
//!
//! * For a phase schedule, every two flows of one phase contend. The
//!   checker stamps each routed flow's channels with the phase; a channel
//!   stamped twice in one phase is a collision. `C` is never listed.
//! * For a trace, `C` is the overlap-derived pair set, and the checker
//!   walks it pair by pair.
//!
//! It deliberately depends on nothing but `nocsyn-model` — no synthesis,
//! annealing, routing, or network code — so a bug in the synthesizer
//! cannot also hide in the checker (the crate dependency graph enforces
//! the trust boundary).
//!
//! Every rejection is typed and carries a stable kebab-case fingerprint,
//! so hostile certificates (fuzzed, tampered, or stale cache entries)
//! yield deterministic classifications rather than panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::fmt;

use nocsyn_model::{
    CertError, Certificate, Digest, Flow, FlowPair, ParseLimits, ParseOptions, ParseScheduleError,
    Pattern, PhaseSchedule, Trace,
};

/// Checker configuration: the resource budget applied to both the
/// certificate text and the pattern text.
#[derive(Debug, Clone, Default)]
pub struct CheckOptions {
    limits: ParseLimits,
}

impl CheckOptions {
    /// Default budgets (same defaults as pattern parsing).
    pub fn new() -> Self {
        CheckOptions::default()
    }

    /// Replaces the resource limits.
    #[must_use]
    pub fn with_limits(mut self, limits: ParseLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The configured limits.
    pub fn limits(&self) -> &ParseLimits {
        &self.limits
    }
}

/// One violated `C ∩ R = ∅` obligation found by the checker: a pair of
/// `C` whose routes share channels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObligationViolation {
    /// The contention pair whose routes collide.
    pub pair: FlowPair,
    /// The channel labels shared by the two resource sets (sorted).
    pub shared: Vec<String>,
}

impl fmt::Display for ObligationViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} and {} share {}",
            self.pair.first(),
            self.pair.second(),
            self.shared.join(" ")
        )
    }
}

/// A successfully validated certificate, summarized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSummary {
    /// The (validated) verdict the certificate proves.
    pub contention_free: bool,
    /// The certificate's binding digest, hex.
    pub binding: String,
    /// Routed flows covered by the certificate.
    pub n_routes: usize,
    /// Flows of the pattern (coverage denominator: a certificate may
    /// legitimately route fewer flows, e.g. after fault repair).
    pub n_flows: usize,
    /// Declared-and-confirmed contention witnesses.
    pub n_witnesses: usize,
}

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The certificate text failed bounded parsing, its binding does not
    /// match its bytes, or its collisions exceed the element budget.
    Cert(CertError),
    /// The pattern text failed bounded parsing.
    Pattern(ParseScheduleError),
    /// The certificate is bound to a different job fingerprint than the
    /// caller expected (or to none at all).
    JobMismatch,
    /// The certificate's process count disagrees with the pattern.
    PatternMismatch,
    /// A route covers a flow the pattern never performs.
    RouteUnknown(Flow),
    /// A declared witness does not match the recomputed collisions.
    WitnessInvalid(String),
    /// The certificate claims contention freedom but obligations are
    /// violated; carries the full typed violation report (within the
    /// element budget).
    ObligationViolated(Vec<ObligationViolation>),
}

impl Rejection {
    /// Stable kebab-case fingerprint for this rejection class.
    pub fn fingerprint(&self) -> &'static str {
        match self {
            Rejection::Cert(e) => e.fingerprint(),
            Rejection::Pattern(_) => "pattern-rejected",
            Rejection::JobMismatch => "cert-job-mismatch",
            Rejection::PatternMismatch => "cert-pattern-mismatch",
            Rejection::RouteUnknown(_) => "cert-route-unknown",
            Rejection::WitnessInvalid(_) => "cert-witness-invalid",
            Rejection::ObligationViolated(_) => "obligation-violated",
        }
    }

    /// The violation report, when the rejection is `obligation-violated`.
    pub fn violations(&self) -> &[ObligationViolation] {
        match self {
            Rejection::ObligationViolated(v) => v,
            _ => &[],
        }
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Cert(e) => write!(f, "{e}"),
            Rejection::Pattern(e) => write!(f, "pattern rejected: {e}"),
            Rejection::JobMismatch => {
                write!(
                    f,
                    "certificate is not bound to the expected job fingerprint"
                )
            }
            Rejection::PatternMismatch => {
                write!(f, "certificate process count disagrees with the pattern")
            }
            Rejection::RouteUnknown(flow) => {
                write!(f, "route covers {flow}, which the pattern never performs")
            }
            Rejection::WitnessInvalid(why) => write!(f, "witness list is wrong: {why}"),
            Rejection::ObligationViolated(v) => {
                write!(f, "{} obligation(s) violated:", v.len())?;
                for viol in v {
                    write!(f, " [{viol}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// Validates `cert_text` against `pattern_text`, which is parsed as a
/// trace or a schedule by [`ParseOptions::parse_pattern`] under the
/// options' limits.
///
/// When `expected_job` is given (e.g. the serve cache validating a disk
/// entry against its key), the certificate must be bound to exactly that
/// job-fingerprint digest.
///
/// A certificate that *declares* contention is accepted when its witness
/// list is exactly the recomputed collisions — such a certificate
/// correctly proves non-freedom. A certificate that claims freedom while
/// an obligation is violated is rejected with the typed violation report.
///
/// The checks run in this order: certificate parse and binding, job,
/// pattern parse, process count, unknown routes, then the verdict.
/// Collisions count against the element budget (`max_messages`): more
/// distinct (pair, channel) collisions than it allows are
/// `limit-exceeded`, since parsing charges every witness label to the
/// same budget and no valid proof can name them all.
///
/// # Errors
///
/// A [`Rejection`] with a stable fingerprint on any parse failure,
/// binding or job mismatch, or semantic disagreement with the pattern.
pub fn check_certificate(
    pattern_text: &str,
    cert_text: &str,
    expected_job: Option<&Digest>,
    opts: &CheckOptions,
) -> Result<CheckSummary, Rejection> {
    let cert = read(cert_text, expected_job, opts)?;
    let pattern = ParseOptions::new()
        .with_limits(opts.limits.clone())
        .parse_pattern(pattern_text)
        .map_err(Rejection::Pattern)?;
    verify(&pattern, &cert, opts.limits.max_messages)
}

/// [`check_certificate`] against a pattern the caller has already parsed,
/// so a caller holding the parse (the serve daemon on a disk hit) reads
/// the pattern text once.
///
/// # Errors
///
/// As [`check_certificate`], minus pattern parse failures.
pub fn check_certificate_for(
    pattern: &Pattern,
    cert_text: &str,
    expected_job: Option<&Digest>,
    opts: &CheckOptions,
) -> Result<CheckSummary, Rejection> {
    let cert = read(cert_text, expected_job, opts)?;
    verify(pattern, &cert, opts.limits.max_messages)
}

/// Parses the certificate (which checks its binding) and its job binding.
fn read(
    cert_text: &str,
    expected_job: Option<&Digest>,
    opts: &CheckOptions,
) -> Result<Certificate, Rejection> {
    let cert = Certificate::parse(cert_text, &opts.limits).map_err(Rejection::Cert)?;
    if let Some(expected) = expected_job {
        if cert.job.as_deref() != Some(expected.to_hex().as_str()) {
            return Err(Rejection::JobMismatch);
        }
    }
    Ok(cert)
}

/// The certificate's routes with their labels interned to dense ids in
/// first-seen order. Route `r` is the `r`-th routed flow in flow order;
/// its ids are `ids[start[r]..start[r + 1]]`, each once (the parser
/// refuses repeated labels). The labels come from untrusted text, so the
/// interning map keeps the default, collision-resistant hasher.
struct Routes<'c> {
    flows: Vec<Flow>,
    labels: Vec<&'c str>,
    start: Vec<usize>,
    ids: Vec<usize>,
}

impl<'c> Routes<'c> {
    fn new(cert: &'c Certificate) -> Self {
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut routes = Routes {
            flows: Vec::with_capacity(cert.routes.len()),
            labels: Vec::new(),
            start: Vec::with_capacity(cert.routes.len() + 1),
            ids: Vec::new(),
        };
        routes.start.push(0);
        for (&flow, chans) in &cert.routes {
            routes.flows.push(flow);
            for ch in chans {
                let id = *index.entry(ch.as_str()).or_insert_with(|| {
                    routes.labels.push(ch);
                    routes.labels.len() - 1
                });
                routes.ids.push(id);
            }
            routes.start.push(routes.ids.len());
        }
        routes
    }

    /// The route index of `flow`, if it is routed.
    fn of(&self, flow: Flow) -> Option<usize> {
        self.flows.binary_search(&flow).ok()
    }

    fn ids(&self, r: usize) -> &[usize] {
        &self.ids[self.start[r]..self.start[r + 1]]
    }
}

/// A collision: routes `a <= b` both use channel `c`.
type Hit = (usize, usize, usize);

/// The collisions found so far, held to the element budget. Parsing
/// charges every witness label to that budget, so no valid proof names
/// more distinct collisions than `limit`, and a certificate that has more
/// is refused before its report outgrows the budget. Raw hits repeat (a
/// pair that shares several phases collides in each), so the list is
/// deduplicated whenever it grows past twice the limit.
struct Hits {
    list: Vec<Hit>,
    limit: usize,
}

impl Hits {
    fn new(limit: usize) -> Self {
        Hits {
            list: Vec::new(),
            limit,
        }
    }

    fn push(&mut self, hit: Hit) -> Result<(), Rejection> {
        self.list.push(hit);
        if self.list.len() > self.limit.saturating_mul(2) {
            self.dedup()?;
        }
        Ok(())
    }

    /// Sorts and deduplicates the list, refusing more than `limit`
    /// distinct collisions.
    fn dedup(&mut self) -> Result<(), Rejection> {
        self.list.sort_unstable();
        self.list.dedup();
        if self.list.len() > self.limit {
            return Err(Rejection::Cert(CertError::LimitExceeded("elements")));
        }
        Ok(())
    }
}

/// The collisions of a schedule by per-phase stamping. Each channel
/// remembers the last phase that used it, so a phase whose routes are
/// disjoint costs one pass over their channels. Only a phase with a
/// repeated stamp lists its (channel, route) uses to name the pairs.
fn phase_hits(
    schedule: &PhaseSchedule,
    routes: &Routes<'_>,
    hits: &mut Hits,
) -> Result<(), Rejection> {
    let mut stamp = vec![usize::MAX; routes.labels.len()];
    let mut members = Vec::new();
    for (p, phase) in schedule.iter().enumerate() {
        members.clear();
        members.extend(phase.iter().filter_map(|f| routes.of(f)));
        let mut clash = false;
        for &r in &members {
            for &c in routes.ids(r) {
                clash |= stamp[c] == p;
                stamp[c] = p;
            }
        }
        if clash {
            let mut uses: Vec<(usize, usize)> = members
                .iter()
                .flat_map(|&r| routes.ids(r).iter().map(move |&c| (c, r)))
                .collect();
            uses.sort_unstable();
            for group in uses.chunk_by(|x, y| x.0 == y.0) {
                for (i, &(c, a)) in group.iter().enumerate() {
                    for &(_, b) in &group[i + 1..] {
                        hits.push((a, b, c))?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// The collisions of a trace, pair by pair over its contention set:
/// route `a`'s channels are marked with the pair's index, then route
/// `b`'s are looked up. A flow paired with itself shares all its
/// channels.
fn pair_hits(trace: &Trace, routes: &Routes<'_>, hits: &mut Hits) -> Result<(), Rejection> {
    let mut mark = vec![usize::MAX; routes.labels.len()];
    for (k, pair) in trace.contention_set().iter().enumerate() {
        let (Some(a), Some(b)) = (routes.of(pair.first()), routes.of(pair.second())) else {
            continue;
        };
        for &c in routes.ids(a) {
            mark[c] = k;
        }
        for &c in routes.ids(b) {
            if mark[c] == k {
                hits.push((a, b, c))?;
            }
        }
    }
    Ok(())
}

/// The violations `hits` name, in pair order, each with its shared
/// labels sorted. Route indices are monotone in flow order, so sorting
/// `(a, b)` sorts the pairs.
fn violations(mut hits: Hits, routes: &Routes<'_>) -> Result<Vec<ObligationViolation>, Rejection> {
    hits.dedup()?;
    Ok(hits
        .list
        .chunk_by(|x, y| (x.0, x.1) == (y.0, y.1))
        .map(|group| {
            let (a, b, _) = group[0];
            let mut shared: Vec<String> = group
                .iter()
                .map(|&(_, _, c)| routes.labels[c].to_string())
                .collect();
            shared.sort_unstable();
            ObligationViolation {
                pair: FlowPair::new(routes.flows[a], routes.flows[b]),
                shared,
            }
        })
        .collect())
}

/// The semantic checks, on a parsed pattern and certificate, with at
/// most `limit` distinct collisions.
fn verify(pattern: &Pattern, cert: &Certificate, limit: usize) -> Result<CheckSummary, Rejection> {
    if cert.n_procs != pattern.n_procs() {
        return Err(Rejection::PatternMismatch);
    }
    let flows: Vec<Flow> = match pattern {
        Pattern::Schedule(s) => s.all_flows().into_iter().collect(),
        Pattern::Trace(t) => t.flows().into_iter().collect(),
    };
    if let Some(&flow) = cert.routes.keys().find(|f| flows.binary_search(f).is_err()) {
        return Err(Rejection::RouteUnknown(flow));
    }

    let routes = Routes::new(cert);
    let mut hits = Hits::new(limit);
    match pattern {
        Pattern::Schedule(s) => phase_hits(s, &routes, &mut hits)?,
        Pattern::Trace(t) => pair_hits(t, &routes, &mut hits)?,
    }
    let violations = violations(hits, &routes)?;

    // Verdict and witness coherence. Parsing already holds witnesses to
    // pair order with sorted labels, the order of `violations`.
    if cert.contention_free {
        if !violations.is_empty() {
            return Err(Rejection::ObligationViolated(violations));
        }
        if !cert.witnesses.is_empty() {
            return Err(Rejection::WitnessInvalid(
                "a contention-free certificate declares witnesses".to_string(),
            ));
        }
    } else {
        let declared = cert.witnesses.iter().map(|w| (w.pair, &w.shared));
        if !declared.eq(violations.iter().map(|v| (v.pair, &v.shared))) {
            return Err(Rejection::WitnessInvalid(
                "declared witnesses disagree with the recomputed collisions".to_string(),
            ));
        }
        if violations.is_empty() {
            return Err(Rejection::WitnessInvalid(
                "certificate claims contention but every obligation holds".to_string(),
            ));
        }
    }

    Ok(CheckSummary {
        contention_free: cert.contention_free,
        binding: cert.binding.map(|d| d.to_hex()).unwrap_or_default(),
        n_routes: cert.routes.len(),
        n_flows: flows.len(),
        n_witnesses: cert.witnesses.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::{sha256, CertWitness, Phase};
    use std::collections::{BTreeMap, BTreeSet};

    const PATTERN: &str = "procs 4\nphase\n  0 -> 1\n  2 -> 3\nphase\n  1 -> 2\n  3 -> 0\n";

    fn flow(s: usize, d: usize) -> Flow {
        Flow::from_indices(s, d)
    }

    fn pair(a: (usize, usize), b: (usize, usize)) -> FlowPair {
        FlowPair::new(flow(a.0, a.1), flow(b.0, b.1))
    }

    fn labels(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// A hand-routed, genuinely contention-free certificate for PATTERN:
    /// each flow crosses its own private channel.
    fn good_cert() -> Certificate {
        let routes = [(0usize, 1usize), (1, 2), (2, 3), (3, 0)]
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| (flow(s, d), vec![format!("L{i}+")]))
            .collect();
        Certificate {
            n_procs: 4,
            contention_free: true,
            routes,
            witnesses: Vec::new(),
            job: None,
            binding: None,
        }
    }

    /// `good_cert` with 0>1 and 2>3, which share a phase, both on "SH".
    fn collided() -> Certificate {
        let mut cert = good_cert();
        cert.routes.insert(flow(0, 1), labels(&["SH"]));
        cert.routes.insert(flow(2, 3), labels(&["SH"]));
        cert
    }

    fn check(cert: &Certificate) -> Result<CheckSummary, Rejection> {
        check_certificate(PATTERN, &cert.to_json(), None, &CheckOptions::new())
    }

    /// Replaces the binding of `text` with the digest of its edited
    /// prefix, as a hostile writer can.
    fn rebind(text: &str) -> String {
        let cut = text.rfind("\"binding\"").unwrap_or(text.len());
        let prefix = &text[..cut];
        format!("{prefix}\"binding\":\"{}\"}}", sha256(prefix.as_bytes()))
    }

    #[test]
    fn a_faithful_certificate_validates() {
        let summary = check(&good_cert()).expect("valid certificate");
        assert!(summary.contention_free);
        assert_eq!(summary.n_routes, 4);
        assert_eq!(summary.n_flows, 4);
        assert_eq!(summary.n_witnesses, 0);
        let text = good_cert().to_json();
        let parsed = Certificate::parse(&text, &ParseLimits::default()).expect("parses");
        assert_eq!(Some(summary.binding), parsed.binding.map(|d| d.to_hex()));
    }

    #[test]
    fn false_freedom_claim_yields_typed_violations() {
        let err = check(&collided()).expect_err("must reject");
        assert_eq!(err.fingerprint(), "obligation-violated");
        assert_eq!(
            err.violations(),
            [ObligationViolation {
                pair: pair((0, 1), (2, 3)),
                shared: labels(&["SH"]),
            }]
        );
    }

    #[test]
    fn declared_contention_with_matching_witness_validates() {
        let mut cert = collided();
        cert.contention_free = false;
        cert.witnesses = vec![CertWitness {
            pair: pair((0, 1), (2, 3)),
            shared: labels(&["SH"]),
        }];
        let summary = check(&cert).expect("a correct non-freedom proof validates");
        assert!(!summary.contention_free);
        assert_eq!(summary.n_witnesses, 1);
    }

    /// Flows of different phases may share a channel.
    #[test]
    fn flows_of_different_phases_may_share_channels() {
        let mut cert = good_cert();
        cert.routes.insert(flow(0, 1), labels(&["A", "SH"]));
        cert.routes.insert(flow(1, 2), labels(&["SH", "Z"]));
        check(&cert).expect("0>1 and 1>2 never share a phase");
    }

    #[test]
    fn textual_tamper_is_a_binding_mismatch() {
        let text = good_cert().to_json();
        let tampered = text.replacen("\"channels\":[\"L0+\"]", "\"channels\":[]", 1);
        assert_ne!(text, tampered);
        let err = check_certificate(PATTERN, &tampered, None, &CheckOptions::new())
            .expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-binding-mismatch");
    }

    #[test]
    fn job_binding_is_enforced_when_expected() {
        let expected = sha256(b"job-key");
        let mut cert = good_cert();
        let err = check_certificate(
            PATTERN,
            &cert.to_json(),
            Some(&expected),
            &CheckOptions::new(),
        )
        .expect_err("unbound certificate");
        assert_eq!(err.fingerprint(), "cert-job-mismatch");
        cert.job = Some(expected.to_hex());
        check_certificate(
            PATTERN,
            &cert.to_json(),
            Some(&expected),
            &CheckOptions::new(),
        )
        .expect("bound certificate validates");
    }

    #[test]
    fn wrong_pattern_and_garbage_are_typed() {
        let cert = good_cert();
        let err = check_certificate(
            "procs 8\nphase\n  0 -> 1\n",
            &cert.to_json(),
            None,
            &CheckOptions::new(),
        )
        .expect_err("wrong pattern");
        assert_eq!(err.fingerprint(), "cert-pattern-mismatch");
        let err = check_certificate(PATTERN, "not json", None, &CheckOptions::new())
            .expect_err("garbage");
        assert!(!err.fingerprint().is_empty());
        let err = check_certificate("wat\n", &cert.to_json(), None, &CheckOptions::new())
            .expect_err("bad pattern text");
        assert_eq!(err.fingerprint(), "pattern-rejected");
    }

    /// The parsed-pattern entry point agrees with the text one, on a
    /// schedule and on a trace.
    #[test]
    fn a_parsed_pattern_checks_like_its_text() {
        let trace = "procs 4\nmsg 0 -> 1 start=0 finish=9\nmsg 2 -> 3 start=5 finish=15\n\
                     msg 1 -> 2 start=20 finish=30\nmsg 3 -> 0 start=20 finish=30\n";
        let opts = CheckOptions::new();
        for text in [PATTERN, trace] {
            let pattern = ParseOptions::new().parse_pattern(text).expect("valid");
            for cert in [good_cert(), collided()] {
                let cert = cert.to_json();
                assert_eq!(
                    check_certificate_for(&pattern, &cert, None, &opts),
                    check_certificate(text, &cert, None, &opts),
                );
            }
        }
    }

    /// Certificates that break several rules at once: the checker must
    /// report the first rule in its documented order, with the exact
    /// payload (first unknown route in flow order, full violation list).
    #[test]
    fn rejection_precedence_table() {
        let job = sha256(b"expected-job");
        let stale = |cert: &Certificate| {
            cert.to_json()
                .replacen("\"contention_free\":true", "\"contention_free\":false", 1)
        };
        let mut rows: Vec<(&str, &str, String, Option<Digest>, Rejection)> = Vec::new();
        let binding_mismatch = Rejection::Cert(CertError::BindingMismatch);

        let mut c = good_cert();
        c.routes.insert(flow(0, 2), labels(&["Z"]));
        rows.push((
            "stale binding + unknown route",
            PATTERN,
            stale(&c),
            None,
            binding_mismatch.clone(),
        ));
        rows.push((
            "stale binding + job mismatch",
            PATTERN,
            stale(&good_cert()),
            Some(job),
            binding_mismatch,
        ));
        rows.push((
            "job mismatch + pattern mismatch",
            "procs 8\nphase\n  0 -> 1\n",
            good_cert().to_json(),
            Some(job),
            Rejection::JobMismatch,
        ));
        rows.push((
            "job mismatch + bad pattern text",
            "wat\n",
            good_cert().to_json(),
            Some(job),
            Rejection::JobMismatch,
        ));

        let mut c = good_cert();
        c.n_procs = 5;
        c.routes.insert(flow(0, 4), labels(&["Z"]));
        rows.push((
            "pattern mismatch + unknown route",
            PATTERN,
            c.to_json(),
            None,
            Rejection::PatternMismatch,
        ));

        let mut c = collided();
        c.routes.insert(flow(3, 1), labels(&["Z1"]));
        c.routes.insert(flow(0, 2), labels(&["Z2"]));
        rows.push((
            "unknown routes + violated obligation",
            PATTERN,
            c.to_json(),
            None,
            Rejection::RouteUnknown(flow(0, 2)),
        ));

        let mut c = good_cert();
        c.routes.insert(flow(0, 1), labels(&["SH", "X1"]));
        c.routes.insert(flow(2, 3), labels(&["A0", "SH", "X1"]));
        c.routes.insert(flow(1, 2), labels(&["Y"]));
        c.routes.insert(flow(3, 0), labels(&["Y"]));
        let violations = vec![
            ObligationViolation {
                pair: pair((0, 1), (2, 3)),
                shared: labels(&["SH", "X1"]),
            },
            ObligationViolation {
                pair: pair((1, 2), (3, 0)),
                shared: labels(&["Y"]),
            },
        ];
        rows.push((
            "violated obligations",
            PATTERN,
            c.to_json(),
            None,
            Rejection::ObligationViolated(violations.clone()),
        ));
        c.witnesses = vec![CertWitness {
            pair: pair((0, 1), (2, 3)),
            shared: labels(&["SH"]),
        }];
        rows.push((
            "violated obligations + witnesses on a freedom claim",
            PATTERN,
            c.to_json(),
            None,
            Rejection::ObligationViolated(violations),
        ));
        c.contention_free = false;
        rows.push((
            "declared contention with a wrong witness",
            PATTERN,
            c.to_json(),
            None,
            Rejection::WitnessInvalid(
                "declared witnesses disagree with the recomputed collisions".to_string(),
            ),
        ));

        let mut c = good_cert();
        c.witnesses = vec![CertWitness {
            pair: pair((0, 1), (2, 3)),
            shared: labels(&["L0+"]),
        }];
        rows.push((
            "freedom claim with witnesses",
            PATTERN,
            c.to_json(),
            None,
            Rejection::WitnessInvalid(
                "a contention-free certificate declares witnesses".to_string(),
            ),
        ));

        let mut c = good_cert();
        c.contention_free = false;
        rows.push((
            "flipped verdict under a fresh binding",
            PATTERN,
            c.to_json(),
            None,
            Rejection::WitnessInvalid(
                "certificate claims contention but every obligation holds".to_string(),
            ),
        ));

        for (name, pattern, text, expected_job, want) in rows {
            let got =
                check_certificate(pattern, &text, expected_job.as_ref(), &CheckOptions::new())
                    .expect_err(name);
            assert_eq!(got, want, "{name}");
        }
    }

    /// The checker relies on each route naming each channel once and on
    /// each flow having one route. Forgeries that break either are
    /// refused at parse time, even freshly bound.
    #[test]
    fn unsorted_channels_and_repeated_routes_are_rejected() {
        let mut cert = good_cert();
        cert.routes.insert(flow(0, 1), labels(&["X", "B"]));
        cert.routes.insert(flow(2, 3), labels(&["X", "A"]));
        let err = check(&cert).expect_err("the two contending flows share X");
        assert_eq!(err.fingerprint(), "cert-bad-field");
        cert.routes.insert(flow(0, 1), labels(&["B", "B"]));
        let err = check(&cert).expect_err("duplicate labels are not strictly increasing");
        assert_eq!(err.fingerprint(), "cert-bad-field");

        // 2>3 routed twice, once over 0>1's channel.
        let text = good_cert().to_json().replacen(
            "{\"flow\":[2,3]",
            "{\"flow\":[2,3],\"channels\":[\"L0+\"]},{\"flow\":[2,3]",
            1,
        );
        let err = check_certificate(PATTERN, &rebind(&text), None, &CheckOptions::new())
            .expect_err("a flow has one route");
        assert_eq!(err, Rejection::Cert(CertError::BadField("routes")));
    }

    /// One phase of `width` flows `2i -> 2i+1`, all routed over "X".
    fn one_label_phase(width: usize) -> (PhaseSchedule, Certificate) {
        let mut phase = Phase::new();
        let mut routes = BTreeMap::new();
        for i in 0..width {
            phase.add(flow(2 * i, 2 * i + 1)).expect("distinct flows");
            routes.insert(flow(2 * i, 2 * i + 1), labels(&["X"]));
        }
        let mut schedule = PhaseSchedule::new(2 * width);
        schedule.push(phase).expect("procs in range");
        let cert = Certificate {
            n_procs: 2 * width,
            contention_free: true,
            routes,
            witnesses: Vec::new(),
            job: None,
            binding: None,
        };
        (schedule, cert)
    }

    /// Routes sharing one label inside a phase collide in every pair, so
    /// the report is quadratic in the phase width. The checker holds it
    /// to the element budget: 64 routes make 2,016 collisions, over a
    /// budget of 1,000, on the schedule and on the trace path alike. The
    /// budget counts distinct collisions: 8 routes in a phase repeated 40
    /// times collide 1,120 times, well past twice a budget of 100, and
    /// still get their exact 28-entry report.
    #[test]
    fn collisions_are_held_to_the_element_budget() {
        let (schedule, cert) = one_label_phase(64);
        let text = cert.to_json();
        let tight = CheckOptions::new().with_limits(ParseLimits::default().with_max_messages(1000));
        let trace = Pattern::Trace(schedule.to_trace());
        let schedule = Pattern::Schedule(schedule);
        for pattern in [&schedule, &trace] {
            let err = check_certificate_for(pattern, &text, None, &tight).expect_err("over budget");
            assert_eq!(err, Rejection::Cert(CertError::LimitExceeded("elements")));
            let err = check_certificate_for(pattern, &text, None, &CheckOptions::new())
                .expect_err("every pair collides");
            assert_eq!(err.violations().len(), 64 * 63 / 2);
        }

        let (once, cert) = one_label_phase(8);
        let mut repeated = PhaseSchedule::new(once.n_procs());
        for _ in 0..40 {
            let phase = once.iter().next().expect("one phase").clone();
            repeated.push(phase).expect("procs in range");
        }
        let opts = CheckOptions::new().with_limits(ParseLimits::default().with_max_messages(100));
        let err = check_certificate_for(&Pattern::Schedule(repeated), &cert.to_json(), None, &opts)
            .expect_err("every pair collides");
        assert_eq!(err.fingerprint(), "obligation-violated");
        assert_eq!(err.violations().len(), 8 * 7 / 2);
    }

    /// SplitMix64: a deterministic generator for the property tests below.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random schedule of partial permutations and a random route
    /// table over a small label pool, so routes collide often.
    fn random_case(seed: u64) -> (PhaseSchedule, BTreeMap<Flow, Vec<String>>) {
        let mut g = Gen(seed);
        let n = 2 + g.below(11);
        let mut schedule = PhaseSchedule::new(n);
        for _ in 0..1 + g.below(5) {
            let mut dsts: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                dsts.swap(i, g.below(i + 1));
            }
            let mut phase = Phase::new();
            for (s, &d) in dsts.iter().enumerate() {
                if s != d && g.below(10) < 7 {
                    phase.add(flow(s, d)).expect("a partial permutation");
                }
            }
            schedule.push(phase).expect("procs in range");
        }
        let pool = 1 + g.below(8);
        let mut routes = BTreeMap::new();
        for f in schedule.all_flows() {
            if g.below(10) < 9 {
                let mut chans: Vec<String> = (0..g.below(4))
                    .map(|_| format!("c{}", g.below(pool)))
                    .collect();
                chans.sort();
                chans.dedup();
                routes.insert(f, chans);
            }
        }
        (schedule, routes)
    }

    /// The per-pair walk over `C` that per-phase stamping replaced: every
    /// two routed flows sharing a phase, intersected as label sets.
    fn reference_violations(
        schedule: &PhaseSchedule,
        routes: &BTreeMap<Flow, Vec<String>>,
    ) -> Vec<ObligationViolation> {
        let mut pairs = BTreeSet::new();
        for phase in schedule.iter() {
            let flows: Vec<Flow> = phase.iter().filter(|f| routes.contains_key(f)).collect();
            for (i, &a) in flows.iter().enumerate() {
                for &b in &flows[i + 1..] {
                    pairs.insert(FlowPair::new(a, b));
                }
            }
        }
        pairs
            .into_iter()
            .filter_map(|p| {
                let a: BTreeSet<&String> = routes[&p.first()].iter().collect();
                let b: BTreeSet<&String> = routes[&p.second()].iter().collect();
                let shared: Vec<String> = a.intersection(&b).map(|s| s.to_string()).collect();
                (!shared.is_empty()).then_some(ObligationViolation { pair: p, shared })
            })
            .collect()
    }

    /// Per-phase stamping gives the per-pair walk's verdict and exact
    /// violation list, and so does the trace path on the schedule's
    /// timed trace (whose contention set is the same pairs).
    #[test]
    fn phase_stamping_matches_the_pairwise_walk() {
        let opts = CheckOptions::new();
        let mut contended = 0;
        for seed in 0..2_000 {
            let (schedule, routes) = random_case(seed);
            let want = reference_violations(&schedule, &routes);
            let mut cert = Certificate {
                n_procs: schedule.n_procs(),
                contention_free: true,
                routes,
                witnesses: Vec::new(),
                job: None,
                binding: None,
            };
            let trace = Pattern::Trace(schedule.to_trace());
            let schedule = Pattern::Schedule(schedule);
            for pattern in [&schedule, &trace] {
                let got = check_certificate_for(pattern, &cert.to_json(), None, &opts);
                if want.is_empty() {
                    assert!(got.is_ok(), "seed {seed}: {got:?}");
                } else {
                    assert_eq!(
                        got,
                        Err(Rejection::ObligationViolated(want.clone())),
                        "seed {seed}"
                    );
                }
            }
            if !want.is_empty() {
                contended += 1;
                cert.contention_free = false;
                cert.witnesses = want
                    .iter()
                    .map(|v| CertWitness {
                        pair: v.pair,
                        shared: v.shared.clone(),
                    })
                    .collect();
                for pattern in [&schedule, &trace] {
                    check_certificate_for(pattern, &cert.to_json(), None, &opts)
                        .expect("the witnessed collisions are a valid proof");
                }
            }
        }
        assert!((200..1_800).contains(&contended), "{contended}");
    }
}
