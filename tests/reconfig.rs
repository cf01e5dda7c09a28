//! Run-time reconfiguration: warm-started synthesis keeps the new network
//! close to the old one, `NetworkDelta` prices the change, and fault
//! repair restores service after failures.

use nocsyn::certify::{check_certificate, CheckOptions};
use nocsyn::engine::Engine;
use nocsyn::faults::{repair_routes, route_is_affected, DegradationReport, FaultScenario};
use nocsyn::model::{format_schedule, sha256};
use nocsyn::synth::{AppPattern, SynthesisRequest, SynthesisResult};
use nocsyn::topo::{build_certificate, verify_contention_free, NetworkDelta};
use nocsyn::workloads::{Benchmark, WorkloadParams};

fn light(benchmark: Benchmark) -> WorkloadParams {
    WorkloadParams::paper_default(benchmark)
        .with_iterations(1)
        .with_bytes(256)
}

/// The engine's best of two restarts, from the mega-switch.
fn cold(pattern: &AppPattern, seed: u64) -> SynthesisResult {
    run(SynthesisRequest::builder(pattern.clone())
        .seed(seed)
        .restarts(2))
}

/// One attempt started from `placement`: a warm-start reconfiguration
/// keeps continuity with a single run rather than a portfolio.
fn warm(pattern: &AppPattern, placement: &[usize], seed: u64) -> SynthesisResult {
    run(SynthesisRequest::builder(pattern.clone())
        .seed(seed)
        .restarts(1)
        .warm_start(placement.to_vec()))
}

fn run(builder: nocsyn::synth::SynthesisRequestBuilder) -> SynthesisResult {
    let request = builder.build().expect("request builds");
    Engine::new()
        .synthesize(request)
        .result
        .expect("no deadline, so a result exists")
}

/// SHA-256 of the rendered certificate: pins network, placement and
/// routes in one value.
fn cert_sha(result: &SynthesisResult, pattern: &AppPattern) -> String {
    sha256(result.certificate(pattern, None).to_json().as_bytes()).to_hex()
}

#[test]
fn incremental_synthesis_is_valid_and_contention_free() {
    let cg = AppPattern::from_schedule(&Benchmark::Cg.schedule(16, &light(Benchmark::Cg)).unwrap());
    let mg = AppPattern::from_schedule(&Benchmark::Mg.schedule(16, &light(Benchmark::Mg)).unwrap());

    let base = cold(&cg, 0x1E);
    let warm = warm(&mg, &base.placement, 0x1E);

    assert!(warm.network.is_strongly_connected());
    warm.routes.validate(&warm.network).unwrap();
    let check = verify_contention_free(mg.contention(), &warm.routes);
    assert!(check.is_contention_free(), "{check}");
    // Recorded from the single-run warm-start entry point the request's
    // warm start replaced.
    assert_eq!(
        cert_sha(&base, &cg),
        "850479d40976bd6ad8090b4a43d8d026631338a7a95c6dc47f62483078e4a0f2"
    );
    assert_eq!(
        cert_sha(&warm, &mg),
        "3387d3674b6e7d1199ab29ea22453a88202abe673c273655b8f33318ee04ee3b"
    );
}

#[test]
fn warm_start_changes_less_than_cold_start() {
    let cg = AppPattern::from_schedule(&Benchmark::Cg.schedule(16, &light(Benchmark::Cg)).unwrap());
    let mg = AppPattern::from_schedule(&Benchmark::Mg.schedule(16, &light(Benchmark::Mg)).unwrap());

    let base = cold(&cg, 0x1F);
    let warm = warm(&mg, &base.placement, 0x1F);
    let cold = cold(&mg, 0x1F);
    assert_eq!(
        cert_sha(&warm, &mg),
        "e8b0e62d6bac9903eba6cb20147275239ba886cc3a02ffd8636508152e4ed8ed"
    );

    let warm_delta = NetworkDelta::between(&base.network, &warm.network);
    let cold_delta = NetworkDelta::between(&base.network, &cold.network);
    // The guarantee of the warm start is placement continuity: physical
    // NI re-wiring (moving a processor to another switch) is the
    // expensive part of a reconfiguration, and the warm start avoids it
    // wherever the new pattern permits. Link re-wiring still tracks the
    // pattern difference in both cases.
    assert!(
        warm_delta.moved_procs().len() <= cold_delta.moved_procs().len(),
        "warm moved {:?} vs cold moved {:?}",
        warm_delta.moved_procs(),
        cold_delta.moved_procs()
    );
    // Sanity: neither edit script is pathological (bounded by rebuilding
    // every link of both networks).
    let bound = base.network.n_network_links()
        + warm
            .network
            .n_network_links()
            .max(cold.network.n_network_links());
    assert!(warm_delta.cost() <= bound + 16);
}

/// Single-link-failure → repair → Theorem-1 round-trip on a synthesized
/// benchmark network: every flow is classified, repaired routes never
/// touch the failed link, and clean repairs re-verify `C ∩ R = ∅`.
fn repair_round_trip(benchmark: Benchmark, n: usize, seed: u64) {
    let schedule = benchmark.schedule(n, &light(benchmark)).unwrap();
    let pattern_text = format_schedule(&schedule);
    let pattern = AppPattern::from_schedule(&schedule);
    let result = cold(&pattern, seed);
    let check_opts = CheckOptions::new();

    for scenario in FaultScenario::enumerate_single_link_faults(&result.network) {
        let outcome = repair_routes(&result.network, &result.routes, &scenario);
        assert_eq!(
            outcome.routes.len() + outcome.unroutable.len(),
            result.routes.len(),
            "{benchmark:?} {scenario}: repair lost flows"
        );
        for (flow, route) in outcome.routes.iter() {
            assert!(
                !route_is_affected(&result.network, route, &scenario),
                "{benchmark:?} {scenario}: repaired {flow} crosses the fault"
            );
            route.validate(&result.network, flow).unwrap();
        }
        // The degradation report agrees with a direct re-verification.
        let report = DegradationReport::analyze(
            &result.network,
            pattern.contention(),
            &result.routes,
            scenario.clone(),
        );
        let recheck = verify_contention_free(pattern.contention(), &outcome.routes);
        assert_eq!(
            report.still_contention_free(),
            recheck.is_contention_free() && outcome.unroutable.is_empty(),
            "{benchmark:?} {scenario}"
        );
        // Every repaired route table re-certifies through the
        // independent checker, and the certificate's verdict agrees
        // with the direct Theorem-1 re-check.
        let cert = build_certificate(
            pattern.n_procs(),
            pattern.contention(),
            report.repaired_routes(),
            None,
        );
        let summary = check_certificate(&pattern_text, &cert.to_json(), None, &check_opts)
            .unwrap_or_else(|rej| {
                panic!("{benchmark:?} {scenario}: repaired certificate rejected ({rej})")
            });
        assert_eq!(
            summary.contention_free,
            recheck.is_contention_free(),
            "{benchmark:?} {scenario}: certificate verdict disagrees with re-verification"
        );
    }
}

/// A deliberately corrupted repair — two contending flows forced onto a
/// shared channel behind a freedom claim — is caught by the checker.
#[test]
fn corrupted_repair_is_caught_by_the_checker() {
    let benchmark = Benchmark::Mg;
    let schedule = benchmark.schedule(8, &light(benchmark)).unwrap();
    let pattern_text = format_schedule(&schedule);
    let pattern = AppPattern::from_schedule(&schedule);
    let result = cold(&pattern, 0x23);

    let mut cert = build_certificate(
        pattern.n_procs(),
        pattern.contention(),
        &result.routes,
        None,
    );
    assert!(cert.contention_free, "baseline synthesis certifies clean");

    // "Repair" a contending pair onto one shared channel but keep the
    // freedom claim — the shape of a buggy repair path.
    let pair = pattern
        .contention()
        .iter()
        .next()
        .expect("MG8 has contention");
    cert.routes.insert(pair.first(), vec!["SHARED".to_string()]);
    cert.routes
        .insert(pair.second(), vec!["SHARED".to_string()]);
    let err = check_certificate(&pattern_text, &cert.to_json(), None, &CheckOptions::new())
        .expect_err("a false freedom claim must be rejected");
    assert_eq!(err.fingerprint(), "obligation-violated");
    let violations = err.violations();
    assert!(violations.iter().any(|v| v.pair == pair), "{violations:?}");
}

#[test]
fn cg16_single_link_failures_repair_and_reverify() {
    repair_round_trip(Benchmark::Cg, 16, 0x21);
}

#[test]
fn mg8_single_link_failures_repair_and_reverify() {
    repair_round_trip(Benchmark::Mg, 8, 0x22);
}

#[test]
fn identity_reconfiguration_when_pattern_unchanged() {
    let cg = AppPattern::from_schedule(&Benchmark::Cg.schedule(8, &light(Benchmark::Cg)).unwrap());
    let base = cold(&cg, 0x20);
    let again = warm(&cg, &base.placement, 0x20);
    assert_eq!(
        cert_sha(&again, &cg),
        "adeb0a702574bfc028f06c8dc0f691495c85e993c9b21c3d8f12ff4db183ff63"
    );
    // Same pattern from the same placement: no processor moves at all,
    // and the constraint is already satisfied so no splits happen.
    let delta = NetworkDelta::between(&base.network, &again.network);
    assert!(delta.moved_procs().is_empty(), "{delta}");
}
