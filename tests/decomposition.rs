//! Decomposition-mode integration: worker-count invariance of the
//! rendered report, global Theorem-1 equivalence of the stitched
//! network, the certificate round trip through `nocsyn certify`, and the
//! pinned shape of decomposed designs at 64, 128 and 256 nodes.

use nocsyn::certify::{check_certificate, CheckOptions};
use nocsyn::cli;
use nocsyn::engine::{Engine, Job};
use nocsyn::model::{format_schedule, PhaseSchedule};
use nocsyn::serve::synth_json_object;
use nocsyn::synth::{AppPattern, SynthesisConfig, SynthesisMode, SynthesisRequest};
use nocsyn::topo::verify_contention_free;
use nocsyn::workloads::{clustered_permutation_schedule, WorkloadParams};

/// A 64-node locality-structured pattern: block-local permutations, plus
/// the few cross-block flows the generator finds room for.
fn clustered64() -> AppPattern {
    let sched = clustered_permutation_schedule(
        64,
        16,
        2,
        3,
        0xC105,
        &WorkloadParams::default().with_bytes(64),
    );
    AppPattern::from_schedule(&sched)
}

fn decomposed_request(pattern: AppPattern) -> SynthesisRequest {
    SynthesisRequest::builder(pattern)
        .config(SynthesisConfig::new().with_seed(65))
        .restarts(2)
        .mode(SynthesisMode::Decomposed { clusters: None })
        .build()
        .expect("a decomposed request builds")
}

#[test]
fn decomposed_report_is_identical_across_worker_counts() {
    let request = decomposed_request(clustered64());
    let run = |workers: usize| {
        let outcome = Engine::new()
            .with_workers(workers)
            .run(vec![Job::new("clus64", request.clone())])
            .pop()
            .expect("one outcome");
        synth_json_object(&request, &outcome)
    };
    let sequential = run(1);
    let parallel = run(4);
    assert_eq!(
        sequential, parallel,
        "the decomposed report must not depend on the worker count"
    );
    assert!(
        sequential.contains("\"mode\":\"decomposed\""),
        "{sequential}"
    );
    assert!(sequential.contains("\"clusters\":4"), "{sequential}");
}

#[test]
fn stitched_network_matches_fresh_theorem1_verification() {
    let pattern = clustered64();
    let request = decomposed_request(pattern.clone());
    let outcome = Engine::new()
        .run(vec![Job::new("clus64", request)])
        .pop()
        .expect("one outcome");
    let result = outcome.result.as_ref().expect("job completed");

    // The stitched global network must agree with an independent
    // Theorem-1 check, not just its own report flag.
    let check = verify_contention_free(pattern.contention(), &result.routes);
    assert!(check.is_contention_free(), "{check}");
    assert_eq!(result.report.contention_free, check.is_contention_free());
    assert!(result.network.is_strongly_connected());
    result.routes.validate(&result.network).expect("routes fit");
    assert!(outcome.decomposition.is_some(), "decomposition summary set");
}

#[test]
fn decomposed_cert_round_trips_through_certify() {
    let dir = std::env::temp_dir();
    let pattern_path = dir.join("nocsyn-test-decomp-pattern.txt");
    let cert_path = dir.join("nocsyn-test-decomp-cert.json");
    let sched = clustered_permutation_schedule(
        64,
        16,
        2,
        3,
        0xC105,
        &WorkloadParams::default().with_bytes(64),
    );
    std::fs::write(&pattern_path, format_schedule(&sched)).expect("temp dir writable");

    let args: Vec<String> = [
        "synth",
        pattern_path.to_str().expect("utf-8 temp path"),
        "--decompose",
        "--restarts",
        "2",
        "--seed",
        "65",
        "--emit-cert",
        cert_path.to_str().expect("utf-8 temp path"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let out = cli::run(&args).expect("decomposed synth succeeds");
    assert!(out.contains("decomposed: 4 clusters"), "{out}");
    assert!(out.contains("contention-free: true"), "{out}");

    let certify: Vec<String> = [
        "certify",
        pattern_path.to_str().expect("utf-8 temp path"),
        cert_path.to_str().expect("utf-8 temp path"),
        "--json",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let verdict = cli::run(&certify).expect("certificate checks");
    assert!(
        verdict.starts_with("{\"command\":\"certify\",\"valid\":true"),
        "{verdict}"
    );
    assert!(verdict.contains("\"contention_free\":true"), "{verdict}");
}

/// The `n`-node clustered permutation pattern of the scale sweep: 16-node
/// blocks, 2 phases, 3 cross-block flows asked per phase, 64 bytes,
/// generator seed `1 ^ n`.
fn scale_pattern(n: usize) -> PhaseSchedule {
    clustered_permutation_schedule(
        n,
        16,
        2,
        3,
        1 ^ n as u64,
        &WorkloadParams::default().with_bytes(64),
    )
}

/// `examples_data/clus64.txt`, which the CLI gates and the decomposed
/// certificate pin run on, is the sweep's 64-node pattern rendered.
#[test]
fn clus64_example_is_the_64_node_scale_pattern() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples_data/clus64.txt"
    ))
    .expect("example pattern");
    assert_eq!(text, format_schedule(&scale_pattern(64)));
}

/// `(n, constraints_met, max_degree, clusters, cut_flows, stitch_links,
/// largest_cluster, switches, links)` of one decomposed design.
type DecomposedRow = (usize, bool, usize, usize, usize, usize, usize, usize, usize);

/// Decomposed synthesis of the 64-, 128- and 256-node scale patterns
/// (search seed `1 ^ n`) under a 32-round partitioning budget and 2
/// restarts. Every stitched design is pinned, is contention-free by a
/// fresh Theorem-1 check, and passes the independent certificate checker.
/// The generator adds a cross flow only between processes its block
/// permutations leave idle, so these patterns carry almost no cut
/// traffic: one cut flow at 64 nodes, none at 128 or 256.
#[test]
fn decomposed_designs_at_scale_are_pinned() {
    const PINNED: [DecomposedRow; 3] = [
        (64, true, 5, 4, 1, 1, 16, 59, 83),
        (128, true, 5, 8, 0, 0, 16, 119, 171),
        (256, true, 5, 16, 0, 0, 16, 239, 341),
    ];
    let schedules: Vec<_> = PINNED.iter().map(|&(n, ..)| scale_pattern(n)).collect();
    let jobs = schedules
        .iter()
        .map(|sched| {
            let n = sched.n_procs();
            let request = SynthesisRequest::builder(AppPattern::from_schedule(sched))
                .config(
                    SynthesisConfig::new()
                        .with_seed(1 ^ n as u64)
                        .with_max_rounds(32),
                )
                .restarts(2)
                .mode(SynthesisMode::Decomposed { clusters: None })
                .build()
                .expect("a decomposed request builds");
            Job::new(format!("dec{n}"), request)
        })
        .collect();
    let outcomes = Engine::new().run(jobs);
    for ((sched, outcome), pinned) in schedules.iter().zip(&outcomes).zip(PINNED) {
        let n = sched.n_procs();
        let result = outcome.result.as_ref().expect("job completed");
        let shape = outcome
            .decomposition
            .as_ref()
            .expect("a decomposed job reports its decomposition");
        let report = &result.report;
        assert_eq!(
            (
                n,
                report.constraints_met,
                report.max_degree,
                shape.clusters,
                shape.cut_flows,
                shape.stitch_links,
                shape.largest_cluster,
                report.n_switches,
                report.n_links,
            ),
            pinned,
            "{n} nodes"
        );
        let pattern = AppPattern::from_schedule(sched);
        let check = verify_contention_free(pattern.contention(), &result.routes);
        assert!(check.is_contention_free(), "{n} nodes: {check}");
        let cert = result.certificate(&pattern, None).to_json();
        let verdict = check_certificate(&format_schedule(sched), &cert, None, &CheckOptions::new())
            .expect("the stitched design's certificate is accepted");
        assert!(verdict.contention_free, "{n} nodes");
    }
}
