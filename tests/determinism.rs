//! Determinism golden tests: the hermetic in-repo PRNG makes the whole
//! synthesis pipeline reproducible — same seed, same annealing
//! trajectory, same topology, byte for byte.

use nocsyn::engine::{Engine, JobStatus};
use nocsyn::model::sha256;
use nocsyn::synth::{AppPattern, SynthesisRequest, SynthesisResult};
use nocsyn::workloads::{Benchmark, WorkloadParams};

/// Structural fingerprint of a synthesized network: switch count, link
/// count, the width of every switch-to-switch pipe, and the placement.
type Fingerprint = (usize, usize, Vec<(usize, usize, usize)>, Vec<usize>);

fn fingerprint(result: &SynthesisResult) -> Fingerprint {
    let net = &result.network;
    let mut pipes = Vec::new();
    let switches: Vec<_> = net.switch_ids().collect();
    for (i, &a) in switches.iter().enumerate() {
        for &b in &switches[i + 1..] {
            let width = net.links_between(a, b);
            if width > 0 {
                pipes.push((a.index(), b.index(), width));
            }
        }
    }
    (
        net.n_switches(),
        net.n_network_links(),
        pipes,
        result.placement.clone(),
    )
}

/// The request for `pattern` at `seed` with `restarts` restarts.
fn request(pattern: &AppPattern, seed: u64, restarts: usize) -> SynthesisRequest {
    SynthesisRequest::builder(pattern.clone())
        .seed(seed)
        .restarts(restarts)
        .build()
        .expect("non-zero restarts build")
}

/// The engine's selected result for the request.
fn run_portfolio(pattern: &AppPattern, seed: u64, restarts: usize) -> SynthesisResult {
    Engine::new()
        .synthesize(request(pattern, seed, restarts))
        .result
        .expect("no deadline, so a result exists")
}

fn cg16_pattern() -> AppPattern {
    let sched = Benchmark::Cg
        .schedule(
            16,
            &WorkloadParams::paper_default(Benchmark::Cg).with_iterations(1),
        )
        .expect("16 is valid for CG");
    AppPattern::from_schedule(&sched)
}

/// The paper's worked example (CG on 16 processors), synthesized twice
/// with the same seed, yields identical topology fingerprints, identical
/// routes, and identical search statistics.
#[test]
fn cg16_same_seed_same_network() {
    let pattern = cg16_pattern();
    let a = run_portfolio(&pattern, 0xD5EED, 2);
    let b = run_portfolio(&pattern, 0xD5EED, 2);

    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.routes, b.routes);
    assert_eq!(a.report, b.report);
}

/// Distinct seeds still synthesize valid contention-free networks (smoke
/// check: determinism must not come from ignoring the seed).
#[test]
fn cg16_distinct_seeds_are_independent() {
    let pattern = cg16_pattern();
    let mut fingerprints = Vec::new();
    for seed in [1u64, 2, 3] {
        let result = run_portfolio(&pattern, seed, 1);
        assert!(result.network.is_strongly_connected(), "seed {seed}");
        assert!(result.report.contention_free, "seed {seed}");
        fingerprints.push(fingerprint(&result));
    }
    // Re-running any of the seeds reproduces its own fingerprint.
    let again = run_portfolio(&pattern, 2, 1);
    assert_eq!(fingerprint(&again), fingerprints[1]);
}

/// The same holds on a second benchmark shape (MG at 8 processors) with
/// the default restart budget, covering the multi-restart selection path.
#[test]
fn mg8_same_seed_same_network() {
    let sched = Benchmark::Mg
        .schedule(
            8,
            &WorkloadParams::paper_default(Benchmark::Mg).with_iterations(1),
        )
        .expect("8 is valid for MG");
    let pattern = AppPattern::from_schedule(&sched);
    let a = run_portfolio(&pattern, 7, 4);
    let b = run_portfolio(&pattern, 7, 4);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.routes, b.routes);
}

fn mg8_pattern() -> AppPattern {
    let sched = Benchmark::Mg
        .schedule(
            8,
            &WorkloadParams::paper_default(Benchmark::Mg).with_iterations(1),
        )
        .expect("8 is valid for MG");
    AppPattern::from_schedule(&sched)
}

/// `(structural fingerprint, sha256 of the rendered certificate)` of a
/// golden run; the certificate digest pins the routes as well.
type Golden = (Fingerprint, &'static str);

/// CG16 and MG8 at seed `0xD5EED` with 8 restarts, recorded from the
/// sequential restart loop the engine's portfolio replaced.
fn goldens() -> [(&'static str, AppPattern, Golden); 2] {
    [
        (
            "cg16",
            cg16_pattern(),
            (
                (
                    8,
                    10,
                    vec![
                        (0, 3, 1),
                        (0, 5, 1),
                        (0, 7, 1),
                        (1, 2, 1),
                        (1, 3, 1),
                        (1, 4, 1),
                        (2, 5, 1),
                        (4, 6, 1),
                        (4, 7, 1),
                        (5, 6, 1),
                    ],
                    vec![4, 7, 6, 4, 7, 0, 0, 3, 6, 5, 5, 2, 1, 3, 2, 1],
                ),
                "d8aa21561760a5c9b60a2db6c6035808ea4d36fda509abde807c0a0af9553639",
            ),
        ),
        (
            "mg8",
            mg8_pattern(),
            (
                (2, 1, vec![(0, 1, 1)], vec![0, 1, 1, 0, 1, 1, 0, 0]),
                "a5c469d67b0f4eeb856ffb53f28e2f8b02a4fc32d324e3901c0a1d909fb45607",
            ),
        ),
    ]
}

/// The parallel engine's restart portfolio selects the *bit-identical*
/// golden topology for any worker count — on CG16 and MG8, jobs=1 versus
/// jobs=4 — pinned against recorded literals.
#[test]
fn engine_golden_fingerprints_jobs1_vs_jobs4() {
    for (name, pattern, (golden, cert_sha)) in goldens() {
        let mut reports = Vec::new();
        for workers in [1usize, 4] {
            let outcome = Engine::new()
                .with_workers(workers)
                .synthesize(request(&pattern, 0xD5EED, 8));
            assert_eq!(outcome.status, JobStatus::Completed, "{name} x{workers}");
            let result = outcome.result.expect("completed job has a result");
            assert_eq!(fingerprint(&result), golden, "{name} x{workers}");
            let cert = result.certificate(&pattern, None).to_json();
            assert_eq!(
                sha256(cert.as_bytes()).to_hex(),
                cert_sha,
                "{name} x{workers}"
            );
            reports.push(result.report);
        }
        assert_eq!(reports[0], reports[1], "{name}");
    }
}

/// A 0 ms deadline cancels the portfolio before any restart runs: the
/// outcome degrades to `DeadlineExceeded` with no result — no panic, and
/// no leaked threads (the engine joins its scoped workers before
/// returning, so the process exits cleanly).
#[test]
fn engine_zero_deadline_cancels_without_panicking() {
    let late = SynthesisRequest::builder(cg16_pattern())
        .restarts(8)
        .deadline_ms(0)
        .build()
        .expect("request builds");
    let outcome = Engine::new().with_workers(4).synthesize(late);
    assert_eq!(outcome.status, JobStatus::DeadlineExceeded);
    assert!(outcome.result.is_none());
    assert_eq!(outcome.attempts_completed, 0);
    assert_eq!(outcome.attempts_total, 8);
}
