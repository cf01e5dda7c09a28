//! Adversarial coverage for the proof-carrying synthesis pipeline.
//!
//! Two halves:
//!
//! * **Golden round-trips** — for every golden workload (CG16, MG8,
//!   FFT16) on every network family (mesh, torus, generated), build the
//!   contention-freedom certificate and push it through the independent
//!   `nocsyn-certify` checker. Emit -> certify must come back clean,
//!   whether the certificate proves freedom (generated networks) or
//!   correctly proves *non*-freedom (baselines with shared links).
//! * **Tampered certificates** — every tamper class the threat model
//!   names (dropped obligation, forged clique, omitted route resource,
//!   fingerprint mismatch, unsorted route channel list) must be rejected
//!   with its stable typed fingerprint.

use nocsyn::certify::{check_certificate, CheckOptions};
use nocsyn::engine::Engine;
use nocsyn::model::{format_schedule, Certificate, Flow};
use nocsyn::synth::{AppPattern, SynthesisRequest, SynthesisResult};
use nocsyn::topo::{build_certificate, regular, RouteTable};
use nocsyn::workloads::{Benchmark, WorkloadParams};

/// The golden workloads: benchmark, process count, light parameters.
/// The engine's selected result for `pattern` at `seed` with `restarts`
/// restarts.
fn run_portfolio(pattern: &AppPattern, seed: u64, restarts: usize) -> SynthesisResult {
    let request = SynthesisRequest::builder(pattern.clone())
        .seed(seed)
        .restarts(restarts)
        .build()
        .expect("non-zero restarts build");
    Engine::new()
        .synthesize(request)
        .result
        .expect("no deadline, so a result exists")
}

fn golden() -> Vec<(Benchmark, usize)> {
    vec![
        (Benchmark::Cg, 16),
        (Benchmark::Mg, 8),
        (Benchmark::Fft, 16),
    ]
}

fn pattern_and_text(benchmark: Benchmark, n: usize) -> (AppPattern, String) {
    let params = WorkloadParams::paper_default(benchmark).with_iterations(1);
    let schedule = benchmark
        .schedule(n, &params)
        .expect("golden size is valid");
    let text = format_schedule(&schedule);
    (AppPattern::from_schedule(&schedule), text)
}

/// Restricts a full all-pairs route table (mesh/torus baselines) to the
/// flows the pattern actually performs, mirroring the CLI's
/// `policy_table`.
fn restrict(routes: &RouteTable, pattern: &AppPattern) -> RouteTable {
    let mut table = RouteTable::new();
    for &flow in pattern.flows() {
        let route = routes.route(flow).expect("baseline covers every pair");
        table.insert(flow, route.clone());
    }
    table
}

fn certify(pattern: &AppPattern, text: &str, routes: &RouteTable) -> Certificate {
    let cert = build_certificate(
        pattern.n_procs(),
        pattern.cliques(),
        pattern.contention(),
        routes,
        None,
    );
    let summary = check_certificate(text, &cert.to_json(), None, &CheckOptions::new())
        .expect("emitted certificate must validate");
    assert_eq!(summary.contention_free, cert.contention_free);
    assert_eq!(summary.n_routes, routes.len());
    cert
}

#[test]
fn golden_workloads_round_trip_on_every_network_family() {
    for (benchmark, n) in golden() {
        let (pattern, text) = pattern_and_text(benchmark, n);
        let (rows, cols) = (if n == 8 { 2 } else { 4 }, 4);

        let (_, mesh_routes) = regular::mesh(rows, cols).expect("mesh builds");
        certify(&pattern, &text, &restrict(&mesh_routes, &pattern));

        let (_, torus_routes) = regular::torus(rows, cols).expect("torus builds");
        certify(&pattern, &text, &restrict(&torus_routes, &pattern));

        let result = run_portfolio(&pattern, 0x51, 2);
        let cert = certify(&pattern, &text, &result.routes);
        // The synthesized network is the one the paper's methodology
        // guarantees: its certificate must prove freedom.
        assert!(
            cert.contention_free,
            "{benchmark:?}: generated network must certify contention-free"
        );
        assert!(cert.witnesses.is_empty());
    }
}

#[test]
fn synthesis_result_certificates_match_build_certificate() {
    let (pattern, text) = pattern_and_text(Benchmark::Mg, 8);
    let result = run_portfolio(&pattern, 0x52, 2);
    let via_result = result.certificate(&pattern, None);
    let via_builder = build_certificate(
        pattern.n_procs(),
        pattern.cliques(),
        pattern.contention(),
        &result.routes,
        None,
    );
    assert_eq!(via_result.to_json(), via_builder.to_json());
    check_certificate(&text, &via_result.to_json(), None, &CheckOptions::new())
        .expect("result certificate validates");
}

/// A validated golden certificate to tamper with, plus its pattern text.
fn golden_cert() -> (Certificate, String) {
    let (pattern, text) = pattern_and_text(Benchmark::Cg, 16);
    let result = run_portfolio(&pattern, 0x53, 2);
    let cert = certify(&pattern, &text, &result.routes);
    (cert, text)
}

fn expect_fingerprint(cert: &Certificate, text: &str, fingerprint: &str) {
    let err = check_certificate(text, &cert.to_json(), None, &CheckOptions::new())
        .expect_err("tampered certificate must be rejected");
    assert_eq!(err.fingerprint(), fingerprint);
}

#[test]
fn dropped_obligation_is_rejected() {
    let (mut cert, text) = golden_cert();
    assert!(!cert.obligations.is_empty());
    cert.obligations.pop();
    // Struct-level tampering re-renders with a fresh (valid) binding, so
    // the rejection comes from the obligation arithmetic itself.
    expect_fingerprint(&cert, &text, "cert-obligation-missing");
}

#[test]
fn forged_clique_is_rejected() {
    let (mut cert, text) = golden_cert();
    cert.cliques
        .push(vec![Flow::from_indices(0, 1), Flow::from_indices(1, 0)]);
    expect_fingerprint(&cert, &text, "cert-clique-mismatch");
}

#[test]
fn omitted_route_resource_is_rejected() {
    let (mut cert, text) = golden_cert();
    let (flow, mut channels) = cert
        .routes
        .iter()
        .find(|(_, chans)| !chans.is_empty())
        .map(|(f, c)| (*f, c.clone()))
        .expect("some route crosses a channel");
    channels.pop();
    cert.routes.insert(flow, channels);
    expect_fingerprint(&cert, &text, "cert-crossing-mismatch");
}

#[test]
fn fingerprint_mismatch_is_rejected() {
    let (cert, text) = golden_cert();
    let rendered = cert.to_json();
    // Textual tampering leaves the embedded binding stale: the checker
    // must refuse before any set arithmetic runs.
    let tampered = rendered.replacen("\"contention_free\":true", "\"contention_free\":false", 1);
    assert_ne!(rendered, tampered, "tamper site must exist");
    let err = check_certificate(&text, &tampered, None, &CheckOptions::new())
        .expect_err("stale binding must be rejected");
    assert_eq!(err.fingerprint(), "cert-binding-mismatch");
}

#[test]
fn certificates_are_byte_deterministic_per_seed() {
    let (pattern, text) = pattern_and_text(Benchmark::Fft, 16);
    let a = run_portfolio(&pattern, 0x54, 2);
    let b = run_portfolio(&pattern, 0x54, 2);
    let cert_a = a.certificate(&pattern, None).to_json();
    let cert_b = b.certificate(&pattern, None).to_json();
    assert_eq!(
        cert_a, cert_b,
        "same seed must give byte-identical certificates"
    );
    check_certificate(&text, &cert_a, None, &CheckOptions::new()).expect("validates");
}

/// The checker intersects route channel lists by merging, so a list that
/// is not strictly increasing could hide a shared channel. The checked-in
/// fixture is the minimal forgery: two contending flows that share `X`,
/// listed unsorted, with crossings inverted and a fresh binding.
#[test]
fn unsorted_route_channels_are_rejected() {
    let text = include_str!("../examples_data/forged_unsorted_route.txt");
    let schedule = nocsyn::model::parse_schedule(text).expect("fixture pattern parses");
    let pattern = AppPattern::from_schedule(&schedule);
    let mut forged = Certificate {
        n_procs: 4,
        contention_free: true,
        cliques: pattern
            .cliques()
            .iter()
            .map(|c| c.iter().collect())
            .collect(),
        obligations: pattern.contention().iter().collect(),
        routes: Default::default(),
        crossings: Default::default(),
        witnesses: Vec::new(),
        job: None,
        claimed_binding: None,
    };
    for (flow, chans) in [
        ((0, 1), ["X", "B"].as_slice()),
        ((1, 2), &["L2+"]),
        ((2, 3), &["X", "A"]),
        ((3, 0), &["L3+"]),
    ] {
        let flow = Flow::from_indices(flow.0, flow.1);
        let chans: Vec<String> = chans.iter().map(|c| c.to_string()).collect();
        for ch in &chans {
            forged.crossings.entry(ch.clone()).or_default().push(flow);
        }
        forged.routes.insert(flow, chans);
    }
    let rendered = forged.to_json();
    assert_eq!(
        include_str!("../examples_data/forged_unsorted_route.cert.json"),
        format!("{rendered}\n"),
        "the checked-in fixture is this forgery"
    );
    expect_fingerprint(&forged, text, "cert-bad-field");

    // The same rule on a real certificate: reversing one multi-channel
    // route (crossings are unchanged, the binding is fresh).
    let (mut cert, text) = golden_cert();
    let chans = cert
        .routes
        .values_mut()
        .find(|chans| chans.len() > 1)
        .expect("some route crosses two channels");
    chans.reverse();
    expect_fingerprint(&cert, &text, "cert-bad-field");
}
