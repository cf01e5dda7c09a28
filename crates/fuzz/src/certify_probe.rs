//! Fuzz target `certify_input`: the independent certificate checker
//! under hostile certificate text.
//!
//! Each case is one raw byte string handed to
//! [`nocsyn_certify::check_certificate`] as the certificate — as given,
//! and with its binding recomputed as a forger would — validated against
//! a fixed small pattern. The oracle is the checker's ingestion contract
//! and its soundness:
//!
//! * checking never panics, whatever the bytes (a panic is recorded as a
//!   crash by the runner);
//! * every refusal is a typed [`Rejection`](nocsyn_certify::Rejection)
//!   whose fingerprint is a stable non-empty kebab-case string;
//! * anything the checker *accepts* must re-validate when checked again
//!   (acceptance is a pure function of the bytes);
//! * anything the checker accepts must agree with a plain pairwise
//!   recomputation over the pattern's phases: a freedom claim has no two
//!   routes of one phase sharing a label, and a contention claim shares
//!   labels exactly on its witnessed pairs.
//!
//! The parse limits are the small fuzz budgets, so a hostile certificate
//! can never make an accepted case expensive.

use std::collections::{BTreeMap, BTreeSet};

use nocsyn_certify::{check_certificate, CheckOptions};
use nocsyn_model::{parse_schedule, sha256, CertWitness, Certificate, Flow, FlowPair, ParseLimits};

use crate::target::{CaseReport, FuzzTarget};

/// The fixed pattern every fuzzed certificate is validated against:
/// 4 processors, two 2-flow phases.
const CERTIFY_PATTERN: &str = "procs 4\nphase\n  0 -> 1\n  2 -> 3\nphase\n  1 -> 2\n  3 -> 0\n";

/// Parse limits for fuzzed certificates: big enough for real structure,
/// small enough that accepted cases stay cheap.
fn fuzz_limits() -> ParseLimits {
    ParseLimits::default()
        .with_max_procs(16)
        .with_max_messages(64)
        .with_max_input_bytes(2048)
}

/// The pairs of [`CERTIFY_PATTERN`]'s phases whose routes share labels,
/// with the shared labels: `C ∩ R` by `BTreeSet` intersection.
fn pairwise_collisions(cert: &Certificate) -> BTreeMap<FlowPair, Vec<String>> {
    let schedule = parse_schedule(CERTIFY_PATTERN).expect("the fixed pattern is valid");
    let mut found = BTreeMap::new();
    for phase in schedule.iter() {
        let flows: Vec<Flow> = phase.iter().collect();
        for (i, a) in flows.iter().enumerate() {
            for b in &flows[i + 1..] {
                let (Some(ra), Some(rb)) = (cert.routes.get(a), cert.routes.get(b)) else {
                    continue;
                };
                let ra: BTreeSet<&String> = ra.iter().collect();
                let rb: BTreeSet<&String> = rb.iter().collect();
                let shared: Vec<String> = ra.intersection(&rb).map(|s| s.to_string()).collect();
                if !shared.is_empty() {
                    found.insert(FlowPair::new(*a, *b), shared);
                }
            }
        }
    }
    found
}

/// `text` with its binding recomputed over the bytes before it, when it
/// has a binding field: the binding is not a secret, so this is what a
/// forger who edits a certificate can always write.
fn rebound(text: &str) -> Option<String> {
    let cut = text.rfind("\"binding\"")?;
    let prefix = &text[..cut];
    Some(format!(
        "{prefix}\"binding\":\"{}\"}}",
        sha256(prefix.as_bytes())
    ))
}

/// Checks `text`, applying the oracles to an acceptance; returns the
/// accepted routes and witnesses, or the rejection's fingerprint.
fn check_with_oracles(text: &str) -> Result<u64, &'static str> {
    let opts = CheckOptions::new().with_limits(fuzz_limits());
    let summary = match check_certificate(CERTIFY_PATTERN, text, None, &opts) {
        Ok(summary) => summary,
        Err(rej) => {
            let fingerprint = rej.fingerprint();
            assert!(
                !fingerprint.is_empty() && fingerprint.is_ascii(),
                "rejection fingerprints must be stable ascii"
            );
            return Err(fingerprint);
        }
    };
    // Oracle: acceptance is deterministic, and the summary's binding is
    // the full digest.
    assert_eq!(summary.binding.len(), 64, "binding must be a sha-256 hex");
    let again = check_certificate(CERTIFY_PATTERN, text, None, &opts)
        .expect("an accepted certificate must re-validate");
    assert_eq!(summary, again, "certificate checking is not deterministic");
    // Oracle: the verdict is the pairwise recomputation's.
    let cert = Certificate::parse(text, opts.limits()).expect("an accepted certificate parses");
    let found = pairwise_collisions(&cert);
    let witnessed: BTreeMap<FlowPair, Vec<String>> = cert
        .witnesses
        .iter()
        .map(|w| (w.pair, w.shared.clone()))
        .collect();
    assert_eq!(summary.contention_free, found.is_empty(), "unsound verdict");
    assert_eq!(witnessed, found, "witnesses are not the collisions");
    Ok((summary.n_routes + summary.n_witnesses) as u64)
}

/// Built-in target: `check_certificate` with the typed-rejection and
/// soundness oracles, on the bytes as given and, re-bound, as a forger
/// would write them (random edits almost never keep a valid binding, so
/// without re-binding the checks behind it would go untested). The case
/// is classified by the bytes as given.
pub fn certify_input_target() -> FuzzTarget {
    FuzzTarget::new("certify_input", |input| {
        let ticks = input.len() as u64;
        let text = String::from_utf8_lossy(input);
        if let Some(forged) = rebound(&text) {
            let _ = check_with_oracles(&forged);
        }
        match check_with_oracles(&text) {
            Ok(work) => CaseReport::accepted(ticks, work),
            Err(fingerprint) => CaseReport::rejected(ticks, fingerprint),
        }
    })
}

/// A genuinely valid certificate for [`CERTIFY_PATTERN`]: every flow on
/// its own private channel. Built from model structs only.
fn seed_certificate() -> Certificate {
    let flows = [(0usize, 1usize), (2, 3), (1, 2), (3, 0)];
    Certificate {
        n_procs: 4,
        contention_free: true,
        routes: flows
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| (Flow::from_indices(s, d), vec![format!("L{i}+")]))
            .collect(),
        witnesses: Vec::new(),
        job: None,
        binding: None,
    }
}

/// The seed certificate with the routes of `0 -> 1` and `2 -> 3`
/// replaced (the binding is fresh on render).
fn rerouted(a: &[&str], b: &[&str]) -> Certificate {
    let labels = |chans: &[&str]| chans.iter().map(|c| c.to_string()).collect();
    let mut cert = seed_certificate();
    cert.routes.insert(Flow::from_indices(0, 1), labels(a));
    cert.routes.insert(Flow::from_indices(2, 3), labels(b));
    cert
}

/// Seed corpus: a valid certificate, a valid non-freedom proof, a
/// job-bound certificate, and near-valid mutants — a flipped verdict
/// under a stale binding, truncated JSON, the previous and an unknown
/// schema, and a freshly bound forgery with unsorted route lists — so
/// mutation reaches past the JSON layer into the binding and
/// set-arithmetic layers.
pub fn certify_corpus() -> Vec<Vec<u8>> {
    let good = seed_certificate();
    let mut contended = rerouted(&["SH"], &["SH"]);
    contended.contention_free = false;
    contended.witnesses = vec![CertWitness {
        pair: FlowPair::new(Flow::from_indices(0, 1), Flow::from_indices(2, 3)),
        shared: vec!["SH".to_string()],
    }];
    let mut bound = seed_certificate();
    bound.job = Some(sha256(b"fuzz-job").to_hex());
    // Two contending flows sharing `X` behind unsorted route lists:
    // refused at parse time.
    let unsorted = rerouted(&["X", "B"], &["X", "A"]);

    let good_text = good.to_json();
    let flipped = good_text.replacen("\"contention_free\":true", "\"contention_free\":false", 1);
    let truncated = good_text[..good_text.len() / 2].to_string();
    vec![
        good_text.into_bytes(),
        contended.to_json().into_bytes(),
        bound.to_json().into_bytes(),
        flipped.into_bytes(),
        truncated.into_bytes(),
        br#"{"schema":"nocsyn-cert-v1","n_procs":4}"#.to_vec(),
        br#"{"schema":"nocsyn-cert-v9","n_procs":4}"#.to_vec(),
        unsorted.to_json().into_bytes(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_classifies_the_corpus() {
        let target = certify_input_target();
        let reports: Vec<CaseReport> = certify_corpus()
            .iter()
            .map(|entry| target.run(entry))
            .collect();
        // The valid certificate and the valid non-freedom proof are
        // accepted; every mutant is rejected with a typed fingerprint.
        assert_eq!(reports[0].rejected, None);
        assert_eq!(reports[1].rejected, None);
        assert_eq!(reports[2].rejected, None);
        assert_eq!(reports[3].rejected, Some("cert-binding-mismatch"));
        assert!(reports[4].rejected.is_some(), "truncated JSON must reject");
        assert_eq!(reports[5].rejected, Some("cert-schema-unsupported"));
        assert_eq!(reports[6].rejected, Some("cert-schema-unsupported"));
        assert_eq!(reports[7].rejected, Some("cert-bad-field"));
    }

    #[test]
    fn garbage_is_rejected_not_crashed() {
        let target = certify_input_target();
        for bytes in [
            &b""[..],
            &b"\xff\xfe{"[..],
            &b"[1,2,3]"[..],
            &b"{\"schema\":17}"[..],
        ] {
            let report = target.run(bytes);
            assert!(report.rejected.is_some(), "{bytes:?} must be rejected");
        }
    }

    #[test]
    fn oversized_certificates_hit_the_input_budget() {
        let target = certify_input_target();
        let big = format!("{{\"pad\":\"{}\"}}", "x".repeat(4000));
        assert_eq!(target.run(big.as_bytes()).rejected, Some("limit-exceeded"));
    }
}
