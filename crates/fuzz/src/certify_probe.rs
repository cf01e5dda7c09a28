//! Fuzz target `certify_input`: the independent certificate checker
//! under hostile certificate text.
//!
//! Each case is one raw byte string handed to
//! [`nocsyn_certify::check_certificate`] as the certificate, validated
//! against a fixed small pattern. The oracle is the checker's ingestion
//! contract:
//!
//! * checking never panics, whatever the bytes (a panic is recorded as a
//!   crash by the runner);
//! * every refusal is a typed [`Rejection`](nocsyn_certify::Rejection)
//!   whose fingerprint is a stable non-empty kebab-case string;
//! * anything the checker *accepts* must re-validate when checked again
//!   (acceptance is a pure function of the bytes).
//!
//! The parse limits are the small fuzz budgets, so a hostile certificate
//! can never make an accepted case expensive.

use std::collections::BTreeMap;

use nocsyn_certify::{check_certificate, CheckOptions};
use nocsyn_model::{CertWitness, Certificate, Flow, FlowPair, ParseLimits};

use crate::target::{CaseReport, FuzzTarget};

/// The fixed pattern every fuzzed certificate is validated against:
/// 4 processors, two 2-flow phases (two cliques, two obligations).
const CERTIFY_PATTERN: &str = "procs 4\nphase\n  0 -> 1\n  2 -> 3\nphase\n  1 -> 2\n  3 -> 0\n";

/// Parse limits for fuzzed certificates: big enough for real structure,
/// small enough that accepted cases stay cheap.
fn fuzz_limits() -> ParseLimits {
    ParseLimits::default()
        .with_max_procs(16)
        .with_max_messages(64)
        .with_max_input_bytes(2048)
}

/// Built-in target: `check_certificate` with the typed-rejection oracle.
pub fn certify_input_target() -> FuzzTarget {
    FuzzTarget::new("certify_input", |input| {
        let ticks = input.len() as u64;
        let text = String::from_utf8_lossy(input);
        let opts = CheckOptions::new().with_limits(fuzz_limits());
        match check_certificate(CERTIFY_PATTERN, &text, None, &opts) {
            Ok(summary) => {
                // Oracle: acceptance is deterministic, and the summary's
                // binding is the full recomputed digest.
                assert_eq!(summary.binding.len(), 64, "binding must be a sha-256 hex");
                let again = check_certificate(CERTIFY_PATTERN, &text, None, &opts)
                    .expect("an accepted certificate must re-validate");
                assert_eq!(summary, again, "certificate checking is not deterministic");
                CaseReport::accepted(ticks, (summary.n_routes + summary.n_obligations) as u64)
            }
            Err(rej) => {
                let fingerprint = rej.fingerprint();
                assert!(
                    !fingerprint.is_empty() && fingerprint.is_ascii(),
                    "rejection fingerprints must be stable ascii"
                );
                CaseReport::rejected(ticks, fingerprint)
            }
        }
    })
}

/// A genuinely valid certificate for [`CERTIFY_PATTERN`]: every flow on
/// its own private channel. Built from model structs only.
fn seed_certificate() -> Certificate {
    let flows = [(0usize, 1usize), (2, 3), (1, 2), (3, 0)];
    let mut routes = BTreeMap::new();
    let mut crossings: BTreeMap<String, Vec<Flow>> = BTreeMap::new();
    for (i, (s, d)) in flows.iter().enumerate() {
        let flow = Flow::from_indices(*s, *d);
        let label = format!("L{i}+");
        routes.insert(flow, vec![label.clone()]);
        crossings.entry(label).or_default().push(flow);
    }
    let schedule =
        nocsyn_model::parse_schedule(CERTIFY_PATTERN).expect("the fixed pattern is valid");
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

/// The seed certificate with the routes of `0 -> 1` and `2 -> 3`
/// replaced and the crossings re-inverted (the binding is fresh on
/// render).
fn rerouted(a: &[&str], b: &[&str]) -> Certificate {
    let labels = |chans: &[&str]| chans.iter().map(|c| c.to_string()).collect();
    let mut cert = seed_certificate();
    cert.routes.insert(Flow::from_indices(0, 1), labels(a));
    cert.routes.insert(Flow::from_indices(2, 3), labels(b));
    cert.crossings.clear();
    for (flow, chans) in &cert.routes {
        for ch in chans {
            cert.crossings.entry(ch.clone()).or_default().push(*flow);
        }
    }
    cert
}

/// Seed corpus: one valid certificate, one valid non-freedom proof, and
/// near-valid mutants (including a freshly bound forgery with unsorted
/// route lists), so mutation reaches past the JSON layer into the
/// binding and set-arithmetic layers.
pub fn certify_corpus() -> Vec<Vec<u8>> {
    let good = seed_certificate();
    let mut contended = rerouted(&["SH"], &["SH"]);
    contended.contention_free = false;
    contended.witnesses = vec![CertWitness {
        pair: FlowPair::new(Flow::from_indices(0, 1), Flow::from_indices(2, 3)),
        shared: vec!["SH".to_string()],
    }];
    let mut bound = seed_certificate();
    bound.job = Some(nocsyn_model::sha256(b"fuzz-job").to_hex());
    // Two contending flows sharing `X` behind unsorted route lists:
    // refused at parse time.
    let unsorted = rerouted(&["X", "B"], &["X", "A"]);

    let good_text = good.to_json();
    let tampered = good_text.replacen("\"contention_free\":true", "\"contention_free\":false", 1);
    let truncated = good_text[..good_text.len() / 2].to_string();
    vec![
        good_text.into_bytes(),
        contended.to_json().into_bytes(),
        bound.to_json().into_bytes(),
        tampered.into_bytes(),
        truncated.into_bytes(),
        br#"{"schema":"nocsyn-cert-v1"}"#.to_vec(),
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
        assert_eq!(reports[5].rejected, Some("cert-missing-field"));
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
