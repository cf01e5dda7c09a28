//! The independent certificate checker behind `nocsyn certify`.
//!
//! This crate validates a contention-freedom
//! [`Certificate`](nocsyn_model::Certificate) against the pattern text it
//! claims to speak about, using **set arithmetic only**: it re-derives the
//! potential contention set `C` and the maximum clique set `K` from the
//! pattern with `nocsyn-model` primitives, then checks every `C ∩ R = ∅`
//! obligation by intersecting the certificate's per-route channel-label
//! sets. It deliberately depends on nothing but `nocsyn-model` — no
//! synthesis, annealing, routing, or network code — so a bug in the
//! synthesizer cannot also hide in the checker (the crate dependency
//! graph enforces the trust boundary).
//!
//! Every rejection is typed and carries a stable kebab-case fingerprint,
//! so hostile certificates (fuzzed, tampered, or stale cache entries)
//! yield deterministic classifications rather than panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt;

use nocsyn_model::{
    CertError, Certificate, CliqueSet, Digest, Flow, FlowPair, ParseLimits, ParseOptions,
    ParseScheduleError,
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

/// One violated `C ∩ R = ∅` obligation found by the checker.
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
    /// The recomputed binding digest, hex.
    pub binding: String,
    /// Obligations checked for disjointness.
    pub n_obligations: usize,
    /// Routed flows covered by the certificate.
    pub n_routes: usize,
    /// Flows of the pattern (coverage denominator: a certificate may
    /// legitimately route fewer flows, e.g. after fault repair).
    pub n_flows: usize,
    /// Cliques in the recomputed (and matching) maximum clique set.
    pub n_cliques: usize,
    /// Declared-and-confirmed contention witnesses.
    pub n_witnesses: usize,
}

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The certificate text failed bounded parsing.
    Cert(CertError),
    /// The pattern text failed bounded parsing.
    Pattern(ParseScheduleError),
    /// The claimed binding digest does not match the payload.
    BindingMismatch,
    /// The certificate is bound to a different job fingerprint than the
    /// caller expected (or to none at all).
    JobMismatch,
    /// The certificate's process count disagrees with the pattern.
    PatternMismatch,
    /// A route covers a flow the pattern never performs.
    RouteUnknown(Flow),
    /// The clique set disagrees with the recomputed maximum clique set.
    CliqueMismatch,
    /// A contention pair with both ends routed has no obligation entry.
    ObligationMissing(FlowPair),
    /// An obligation names a pair outside the recomputed contention set.
    ObligationUnknown(FlowPair),
    /// The crossing flow sets are not the exact inverse of the routes.
    CrossingMismatch(String),
    /// A declared witness does not match the recomputed collisions.
    WitnessInvalid(String),
    /// The certificate claims contention freedom but obligations are
    /// violated; carries the full typed violation report.
    ObligationViolated(Vec<ObligationViolation>),
}

impl Rejection {
    /// Stable kebab-case fingerprint for this rejection class.
    pub fn fingerprint(&self) -> &'static str {
        match self {
            Rejection::Cert(e) => e.fingerprint(),
            Rejection::Pattern(_) => "pattern-rejected",
            Rejection::BindingMismatch => "cert-binding-mismatch",
            Rejection::JobMismatch => "cert-job-mismatch",
            Rejection::PatternMismatch => "cert-pattern-mismatch",
            Rejection::RouteUnknown(_) => "cert-route-unknown",
            Rejection::CliqueMismatch => "cert-clique-mismatch",
            Rejection::ObligationMissing(_) => "cert-obligation-missing",
            Rejection::ObligationUnknown(_) => "cert-obligation-unknown",
            Rejection::CrossingMismatch(_) => "cert-crossing-mismatch",
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
            Rejection::BindingMismatch => {
                write!(f, "binding digest does not match the certificate payload")
            }
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
            Rejection::CliqueMismatch => {
                write!(
                    f,
                    "clique set disagrees with the recomputed maximum clique set"
                )
            }
            Rejection::ObligationMissing(p) => write!(
                f,
                "contention pair {} | {} has no obligation entry",
                p.first(),
                p.second()
            ),
            Rejection::ObligationUnknown(p) => write!(
                f,
                "obligation {} | {} is outside the recomputed contention set",
                p.first(),
                p.second()
            ),
            Rejection::CrossingMismatch(ch) => {
                write!(f, "crossing set of channel {ch} does not invert the routes")
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

/// The potential contention set `C` as the pattern states it.
enum Contention {
    /// Schedules: every two flows of one phase contend. Each phase's
    /// flows are sorted.
    Phases(Vec<Vec<Flow>>),
    /// Traces: the overlap-derived pairs, sorted.
    Pairs(Vec<FlowPair>),
}

/// The pattern facts the checker re-derives with model-only code.
struct Recomputed {
    n_procs: usize,
    /// Distinct flows, sorted.
    flows: Vec<Flow>,
    contention: Contention,
    cliques: CliqueSet,
}

/// Re-characterizes pattern text exactly the way synthesis ingress does
/// (trace vs schedule autodetected by `msg ` lines), using only
/// `nocsyn-model` computations.
fn characterize(text: &str, opts: &ParseOptions) -> Result<Recomputed, ParseScheduleError> {
    let is_trace = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .any(|l| l.starts_with("msg "));
    if is_trace {
        let trace = opts.parse_trace(text)?;
        Ok(Recomputed {
            n_procs: trace.n_procs(),
            flows: trace.flows().into_iter().collect(),
            contention: Contention::Pairs(trace.contention_set().iter().collect()),
            cliques: trace.maximum_clique_set(),
        })
    } else {
        let schedule = opts.parse_schedule(text)?;
        Ok(Recomputed {
            n_procs: schedule.n_procs(),
            flows: schedule.all_flows().into_iter().collect(),
            contention: Contention::Phases(schedule.iter().map(|p| p.iter().collect()).collect()),
            cliques: schedule.maximum_clique_set(),
        })
    }
}

/// Cliques as a sorted, duplicate-free list of sorted, duplicate-free
/// flow lists: equal iff the two clique sets are equal as sets of sets.
fn normalized_cliques(cliques: impl Iterator<Item = Vec<Flow>>) -> Vec<Vec<Flow>> {
    let mut out: Vec<Vec<Flow>> = cliques
        .map(|mut c| {
            c.sort_unstable();
            c.dedup();
            c
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// `C` restricted to routed flows, as sorted, duplicate-free pairs of
/// positions in `routed` (the routed flows, sorted). Positions are
/// monotone in flow order, so a pair `(a, b)` with `a <= b` sorts exactly
/// like the [`FlowPair`] of its two flows.
fn routed_pairs(contention: &Contention, routed: &[Flow]) -> Vec<(usize, usize)> {
    let position = |f: &Flow| routed.binary_search(f).ok();
    let mut pairs = Vec::new();
    match contention {
        Contention::Phases(phases) => {
            let mut at = Vec::new();
            for phase in phases {
                at.clear();
                at.extend(phase.iter().filter_map(position));
                for (i, &a) in at.iter().enumerate() {
                    pairs.extend(at[i + 1..].iter().map(|&b| (a, b)));
                }
            }
            // Each phase's pairs come out sorted (its flows iterate in
            // order), so the stable sort only merges one run per phase.
            pairs.sort();
            pairs.dedup();
        }
        Contention::Pairs(list) => pairs.extend(
            list.iter()
                .filter_map(|p| Some((position(&p.first())?, position(&p.second())?))),
        ),
    }
    pairs
}

/// Pushes the ids two sorted id lists share onto `out`.
fn shared_ids(a: &[usize], b: &[usize], out: &mut Vec<usize>) {
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Validates `cert_text` against `pattern_text`.
///
/// When `expected_job` is given (e.g. the serve cache validating a disk
/// entry against its key), the certificate must be bound to exactly that
/// job-fingerprint digest.
///
/// A certificate that *declares* contention violations is accepted when
/// its witness list exactly matches the recomputed collisions — such a
/// certificate correctly proves non-freedom. A certificate that claims
/// freedom while an obligation is violated is rejected with the typed
/// violation report.
///
/// The cost is one binding digest plus a few sorts and linear merges:
/// the contention pairs (as pairs of route positions), the declared
/// obligations and the `(label, route)` mentions are each sorted once,
/// and obligation exactness, crossing inversion and every disjointness
/// test are merge walks over sorted vectors of pairs and interned
/// channel ids.
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
    let cert = Certificate::parse(cert_text, &opts.limits).map_err(Rejection::Cert)?;
    // One binding pass: it authenticates the payload here and is the
    // summary's binding below.
    let binding = cert.binding().to_hex();
    if cert
        .claimed_binding
        .as_ref()
        .is_some_and(|claimed| *claimed != binding)
    {
        return Err(Rejection::BindingMismatch);
    }
    if let Some(expected) = expected_job {
        if cert.job.as_deref() != Some(expected.to_hex().as_str()) {
            return Err(Rejection::JobMismatch);
        }
    }

    let parse_opts = ParseOptions::new().with_limits(opts.limits.clone());
    let pattern = characterize(pattern_text, &parse_opts).map_err(Rejection::Pattern)?;
    if cert.n_procs != pattern.n_procs {
        return Err(Rejection::PatternMismatch);
    }
    // The routed flows in flow order (the route map's key order); route
    // `r` below is `routed[r]`.
    let routed: Vec<Flow> = cert.routes.keys().copied().collect();
    if let Some(&flow) = routed
        .iter()
        .find(|f| pattern.flows.binary_search(f).is_err())
    {
        return Err(Rejection::RouteUnknown(flow));
    }

    // K: the declared clique set must be exactly the recomputed maximum
    // clique set (as sets of flow sets).
    if normalized_cliques(cert.cliques.iter().cloned())
        != normalized_cliques(pattern.cliques.iter().map(|c| c.iter().collect()))
    {
        return Err(Rejection::CliqueMismatch);
    }

    // C restricted to routed flows must equal the declared obligations.
    // One merge walk: the first expected pair not declared is missing
    // (and wins), else the first declared pair not expected is unknown.
    let pair = |(a, b): (usize, usize)| FlowPair::new(routed[a], routed[b]);
    let expected = routed_pairs(&pattern.contention, &routed);
    let mut declared = cert.obligations;
    declared.sort_unstable();
    declared.dedup();
    let mut unknown = None;
    let mut rest = declared.iter().copied().peekable();
    for &at in &expected {
        let want = pair(at);
        while let Some(have) = rest.next_if(|&have| have < want) {
            unknown.get_or_insert(have);
        }
        if rest.next_if_eq(&want).is_none() {
            return Err(Rejection::ObligationMissing(want));
        }
    }
    if let Some(pair) = unknown.or_else(|| rest.next()) {
        return Err(Rejection::ObligationUnknown(pair));
    }

    // Channel labels interned to ids in label order. Every (label, route)
    // mention is sorted once; a run of one label is one channel, its
    // routes in flow order, which is exactly the crossing set the
    // certificate must declare for it. Route lists are strictly
    // increasing (parsing enforces it), so each route's ids come out
    // sorted in `ids[start[r]..start[r + 1]]`.
    let mut start = Vec::with_capacity(routed.len() + 1);
    start.push(0);
    let mut mentions: Vec<(&str, usize)> = Vec::new();
    for (r, chans) in cert.routes.values().enumerate() {
        mentions.extend(chans.iter().map(|ch| (ch.as_str(), r)));
        start.push(mentions.len());
    }
    mentions.sort_unstable();
    let mut labels: Vec<&str> = Vec::new();
    let mut ids = vec![0; mentions.len()];
    let mut fill = start.clone();
    let mut declared_crossings = cert.crossings.iter().peekable();
    let mut extra = None;
    for run in mentions.chunk_by(|a, b| a.0 == b.0) {
        let label = run[0].0;
        let id = labels.len();
        labels.push(label);
        for &(_, r) in run {
            ids[fill[r]] = id;
            fill[r] += 1;
        }
        // Crossing keys that sort before this label invert no route.
        while let Some((ch, _)) = declared_crossings.next_if(|(ch, _)| ch.as_str() < label) {
            extra.get_or_insert(ch);
        }
        let inverts = declared_crossings
            .next_if(|(ch, _)| ch.as_str() == label)
            .is_some_and(|(_, flows)| {
                flows.len() == run.len()
                    && flows.iter().zip(run).all(|(f, &(_, r))| *f == routed[r])
            });
        if !inverts {
            return Err(Rejection::CrossingMismatch(label.to_string()));
        }
    }
    if let Some(ch) = extra.or_else(|| declared_crossings.next().map(|(ch, _)| ch)) {
        return Err(Rejection::CrossingMismatch(ch.clone()));
    }

    // The obligations themselves: R-disjointness by merging the two
    // routes' sorted channel ids.
    let route_ids = |r: usize| &ids[start[r]..start[r + 1]];
    let mut violations = Vec::new();
    let mut shared = Vec::new();
    for &(a, b) in &expected {
        shared_ids(route_ids(a), route_ids(b), &mut shared);
        if !shared.is_empty() {
            violations.push(ObligationViolation {
                pair: pair((a, b)),
                shared: shared.drain(..).map(|id| labels[id].to_string()).collect(),
            });
        }
    }

    // Verdict and witness coherence.
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
        let declared_witnesses: BTreeMap<FlowPair, Vec<String>> = cert
            .witnesses
            .iter()
            .map(|w| (w.pair, w.shared.clone()))
            .collect();
        if declared_witnesses.len() != cert.witnesses.len() {
            return Err(Rejection::WitnessInvalid(
                "duplicate witness pairs".to_string(),
            ));
        }
        let found: BTreeMap<FlowPair, Vec<String>> = violations
            .iter()
            .map(|v| (v.pair, v.shared.clone()))
            .collect();
        if declared_witnesses != found {
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
        binding,
        n_obligations: declared.len(),
        n_routes: routed.len(),
        n_flows: pattern.flows.len(),
        n_cliques: pattern.cliques.len(),
        n_witnesses: cert.witnesses.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::CertWitness;
    use std::collections::BTreeMap;

    const PATTERN: &str = "procs 4\nphase\n  0 -> 1\n  2 -> 3\nphase\n  1 -> 2\n  3 -> 0\n";

    /// A hand-routed, genuinely contention-free certificate for PATTERN:
    /// each flow crosses its own private channel.
    fn good_cert() -> Certificate {
        let flows = [(0usize, 1usize), (2, 3), (1, 2), (3, 0)];
        let mut routes = BTreeMap::new();
        let mut crossings: BTreeMap<String, Vec<Flow>> = BTreeMap::new();
        for (i, (s, d)) in flows.iter().enumerate() {
            let flow = Flow::from_indices(*s, *d);
            let label = format!("L{i}+");
            routes.insert(flow, vec![label.clone()]);
            crossings.entry(label).or_default().push(flow);
        }
        let schedule = nocsyn_model::parse_schedule(PATTERN).expect("pattern is valid");
        let cliques = schedule
            .maximum_clique_set()
            .iter()
            .map(|c| c.iter().collect())
            .collect();
        let obligations = vec![
            FlowPair::new(Flow::from_indices(0, 1), Flow::from_indices(2, 3)),
            FlowPair::new(Flow::from_indices(1, 2), Flow::from_indices(3, 0)),
        ];
        Certificate {
            n_procs: 4,
            contention_free: true,
            cliques,
            obligations,
            routes,
            crossings,
            witnesses: Vec::new(),
            job: None,
            claimed_binding: None,
        }
    }

    fn check(cert: &Certificate) -> Result<CheckSummary, Rejection> {
        check_certificate(PATTERN, &cert.to_json(), None, &CheckOptions::new())
    }

    #[test]
    fn a_faithful_certificate_validates() {
        let summary = check(&good_cert()).expect("valid certificate");
        assert!(summary.contention_free);
        assert_eq!(summary.n_obligations, 2);
        assert_eq!(summary.n_routes, 4);
        assert_eq!(summary.n_flows, 4);
        assert_eq!(summary.n_witnesses, 0);
    }

    #[test]
    fn dropped_obligation_is_rejected() {
        let mut cert = good_cert();
        cert.obligations.pop();
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-obligation-missing");
    }

    #[test]
    fn forged_obligation_is_rejected() {
        let mut cert = good_cert();
        cert.obligations.push(FlowPair::new(
            Flow::from_indices(0, 1),
            Flow::from_indices(1, 2),
        ));
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-obligation-unknown");
    }

    #[test]
    fn forged_clique_is_rejected() {
        let mut cert = good_cert();
        cert.cliques.pop();
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-clique-mismatch");
    }

    #[test]
    fn crossing_inconsistency_is_rejected() {
        let mut cert = good_cert();
        // Omit a channel from a route's resource set without fixing the
        // crossing list.
        let flow = Flow::from_indices(0, 1);
        cert.routes.insert(flow, Vec::new());
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "cert-crossing-mismatch");
    }

    #[test]
    fn false_freedom_claim_yields_typed_violations() {
        let mut cert = good_cert();
        // Collapse two contending flows onto one channel.
        let a = Flow::from_indices(0, 1);
        let b = Flow::from_indices(2, 3);
        cert.routes.insert(a, vec!["SH".to_string()]);
        cert.routes.insert(b, vec!["SH".to_string()]);
        cert.crossings.clear();
        for (flow, chans) in &cert.routes {
            for ch in chans {
                cert.crossings.entry(ch.clone()).or_default().push(*flow);
            }
        }
        let err = check(&cert).expect_err("must reject");
        assert_eq!(err.fingerprint(), "obligation-violated");
        let v = err.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].pair, FlowPair::new(a, b));
        assert_eq!(v[0].shared, vec!["SH".to_string()]);
    }

    #[test]
    fn declared_contention_with_matching_witness_validates() {
        let mut cert = good_cert();
        let a = Flow::from_indices(0, 1);
        let b = Flow::from_indices(2, 3);
        cert.routes.insert(a, vec!["SH".to_string()]);
        cert.routes.insert(b, vec!["SH".to_string()]);
        cert.crossings.clear();
        for (flow, chans) in &cert.routes {
            for ch in chans {
                cert.crossings.entry(ch.clone()).or_default().push(*flow);
            }
        }
        cert.contention_free = false;
        cert.witnesses = vec![CertWitness {
            pair: FlowPair::new(a, b),
            shared: vec!["SH".to_string()],
        }];
        let summary = check(&cert).expect("a correct non-freedom proof validates");
        assert!(!summary.contention_free);
        assert_eq!(summary.n_witnesses, 1);
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
        let expected = nocsyn_model::sha256(b"job-key");
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

    /// A pattern whose processor ids have one and two decimal digits, so
    /// string order ("10>0" < "9>11") and numeric order disagree.
    const WIDE: &str = "procs 12\nphase\n  0 -> 1\n  2 -> 10\n  9 -> 11\n\
                        phase\n  1 -> 2\n  10 -> 3\n  11 -> 0\nphase\n  3 -> 9\n  10 -> 0\n";

    fn flow(s: usize, d: usize) -> Flow {
        Flow::from_indices(s, d)
    }

    fn pair(a: (usize, usize), b: (usize, usize)) -> FlowPair {
        FlowPair::new(flow(a.0, a.1), flow(b.0, b.1))
    }

    /// Rebuilds the crossing sets as the exact inverse of the routes.
    fn reinvert(cert: &mut Certificate) {
        cert.crossings.clear();
        for (flow, chans) in &cert.routes {
            for ch in chans {
                cert.crossings.entry(ch.clone()).or_default().push(*flow);
            }
        }
    }

    /// A faithful certificate for a schedule: flow `i` (in flow order)
    /// crosses only its private channel `L{i}+`.
    fn faithful_cert(pattern: &str) -> Certificate {
        let schedule = nocsyn_model::parse_schedule(pattern).expect("pattern is valid");
        let mut cert = Certificate {
            n_procs: schedule.n_procs(),
            contention_free: true,
            cliques: schedule
                .maximum_clique_set()
                .iter()
                .map(|c| c.iter().collect())
                .collect(),
            obligations: Vec::new(),
            routes: BTreeMap::new(),
            crossings: BTreeMap::new(),
            witnesses: Vec::new(),
            job: None,
            claimed_binding: None,
        };
        for (i, flow) in schedule.all_flows().into_iter().enumerate() {
            cert.routes.insert(flow, vec![format!("L{i}+")]);
        }
        for phase in schedule.iter() {
            let flows: Vec<Flow> = phase.iter().collect();
            for (i, a) in flows.iter().enumerate() {
                for b in &flows[i + 1..] {
                    cert.obligations.push(FlowPair::new(*a, *b));
                }
            }
        }
        reinvert(&mut cert);
        cert
    }

    /// Certificates that break several rules at once: the checker must
    /// report the first rule in its documented order, with the exact
    /// payload (first missing/unknown pair in pair order, first channel
    /// in label order, full violation list).
    #[test]
    fn rejection_precedence_table() {
        let job = nocsyn_model::sha256(b"expected-job");
        let stale = |cert: &Certificate| {
            cert.to_json()
                .replacen("\"contention_free\":true", "\"contention_free\":false", 1)
        };
        let mut rows: Vec<(&str, &str, String, Option<Digest>, Rejection)> = Vec::new();

        let mut c = good_cert();
        c.obligations.pop();
        rows.push((
            "stale binding + missing obligation",
            PATTERN,
            stale(&c),
            None,
            Rejection::BindingMismatch,
        ));
        rows.push((
            "stale binding + job mismatch",
            PATTERN,
            stale(&good_cert()),
            Some(job),
            Rejection::BindingMismatch,
        ));
        rows.push((
            "job mismatch + pattern mismatch",
            "procs 8\nphase\n  0 -> 1\n",
            good_cert().to_json(),
            Some(job),
            Rejection::JobMismatch,
        ));

        let mut c = good_cert();
        c.n_procs = 5;
        c.routes.insert(flow(0, 4), vec!["Z".to_string()]);
        reinvert(&mut c);
        rows.push((
            "pattern mismatch + unknown route",
            PATTERN,
            c.to_json(),
            None,
            Rejection::PatternMismatch,
        ));

        let mut c = good_cert();
        c.routes.insert(flow(3, 1), vec!["Z1".to_string()]);
        c.routes.insert(flow(0, 2), vec!["Z2".to_string()]);
        c.cliques.pop();
        reinvert(&mut c);
        rows.push((
            "unknown route + clique mismatch",
            PATTERN,
            c.to_json(),
            None,
            Rejection::RouteUnknown(flow(0, 2)),
        ));

        let mut c = good_cert();
        c.cliques.pop();
        c.obligations.pop();
        rows.push((
            "clique mismatch + missing obligation",
            PATTERN,
            c.to_json(),
            None,
            Rejection::CliqueMismatch,
        ));

        // (0>1, 1>2) is unknown and sorts before the first missing pair:
        // missing still wins.
        let missing = [pair((10, 3), (11, 0)), pair((2, 10), (9, 11))];
        let unknown = [pair((10, 0), (10, 3)), pair((9, 11), (10, 0))];
        let mut c = faithful_cert(WIDE);
        c.obligations.retain(|p| !missing.contains(p));
        c.obligations.extend(unknown);
        c.obligations.push(pair((0, 1), (1, 2)));
        rows.push((
            "missing + unknown obligation",
            WIDE,
            c.to_json(),
            None,
            Rejection::ObligationMissing(pair((2, 10), (9, 11))),
        ));

        let mut c = faithful_cert(WIDE);
        c.obligations.extend(unknown);
        c.routes.insert(flow(0, 1), Vec::new());
        rows.push((
            "unknown obligation + crossing mismatch",
            WIDE,
            c.to_json(),
            None,
            Rejection::ObligationUnknown(pair((9, 11), (10, 0))),
        ));

        // The routes move 0>1 and 2>3 onto "SH" without fixing the
        // crossings: "L0+" is now an extra crossing key that sorts before
        // "SH", but the inverse walk reports "SH" first.
        let mut c = good_cert();
        c.routes.insert(flow(0, 1), vec!["SH".to_string()]);
        c.routes.insert(flow(2, 3), vec!["SH".to_string()]);
        c.crossings.remove("L1+");
        rows.push((
            "crossing mismatch + violated obligation",
            PATTERN,
            c.to_json(),
            None,
            Rejection::CrossingMismatch("SH".to_string()),
        ));

        let mut c = faithful_cert(WIDE);
        c.crossings.insert("A".to_string(), vec![flow(0, 1)]);
        rows.push((
            "extra crossing key",
            WIDE,
            c.to_json(),
            None,
            Rejection::CrossingMismatch("A".to_string()),
        ));

        let mut c = faithful_cert(WIDE);
        c.crossings.insert("L9+".to_string(), Vec::new());
        c.crossings.insert("L10+".to_string(), Vec::new());
        rows.push((
            "two crossing mismatches",
            WIDE,
            c.to_json(),
            None,
            Rejection::CrossingMismatch("L10+".to_string()),
        ));

        let mut c = good_cert();
        c.routes
            .insert(flow(0, 1), vec!["SH".to_string(), "X1".to_string()]);
        c.routes.insert(
            flow(2, 3),
            vec!["A0".to_string(), "SH".to_string(), "X1".to_string()],
        );
        c.routes.insert(flow(1, 2), vec!["Y".to_string()]);
        c.routes.insert(flow(3, 0), vec!["Y".to_string()]);
        reinvert(&mut c);
        let violations = vec![
            ObligationViolation {
                pair: pair((0, 1), (2, 3)),
                shared: vec!["SH".to_string(), "X1".to_string()],
            },
            ObligationViolation {
                pair: pair((1, 2), (3, 0)),
                shared: vec!["Y".to_string()],
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
            shared: vec!["SH".to_string()],
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
            shared: vec!["L0+".to_string()],
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

        for (name, pattern, text, expected_job, want) in rows {
            let got =
                check_certificate(pattern, &text, expected_job.as_ref(), &CheckOptions::new())
                    .expect_err(name);
            assert_eq!(got, want, "{name}");
        }
    }

    /// The route lists of a faithful certificate are strictly increasing;
    /// the checker intersects them by merging, so an unsorted list could
    /// hide a shared channel. Such a list is refused at parse time.
    #[test]
    fn unsorted_route_channels_are_rejected() {
        let mut cert = good_cert();
        cert.routes
            .insert(flow(0, 1), vec!["X".to_string(), "B".to_string()]);
        cert.routes
            .insert(flow(2, 3), vec!["X".to_string(), "A".to_string()]);
        reinvert(&mut cert);
        let err = check(&cert).expect_err("the two contending flows share X");
        assert_eq!(err.fingerprint(), "cert-bad-field");
        cert.routes
            .insert(flow(0, 1), vec!["B".to_string(), "B".to_string()]);
        reinvert(&mut cert);
        let err = check(&cert).expect_err("duplicate labels are not strictly increasing");
        assert_eq!(err.fingerprint(), "cert-bad-field");
    }
}
