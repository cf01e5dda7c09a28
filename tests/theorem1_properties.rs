//! Property-based tests of Theorem 1 over randomized well-behaved
//! patterns: whatever the pattern, if synthesis reports a feasible result
//! the materialized network must be contention-free and structurally
//! sound.

use nocsyn_check::{check_assert, check_assert_eq, check_assume, check_n, u64_in, usize_in};

use nocsyn::engine::Engine;
use nocsyn::model::SkewModel;
use nocsyn::synth::{AppPattern, SynthesisRequest, SynthesisResult};
use nocsyn::topo::{verify_contention_free, ConflictSet};
use nocsyn::workloads::{random_permutation_schedule, WorkloadParams};

/// Synthesized networks satisfy C ∩ R = ∅ for any random pattern.
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

#[test]
fn synthesized_networks_are_contention_free() {
    check_n(
        "synthesized_networks_are_contention_free",
        24,
        (usize_in(4..10), usize_in(1..8), u64_in(0..1_000)),
        |&(n_procs, n_phases, seed)| {
            let schedule = random_permutation_schedule(
                n_procs,
                n_phases,
                seed,
                &WorkloadParams::default().with_bytes(64),
            );
            check_assume!(!schedule.is_empty());
            let pattern = AppPattern::from_schedule(&schedule);
            let result = run_portfolio(&pattern, seed, 2);

            // Structure.
            check_assert!(result.network.is_strongly_connected());
            result.routes.validate(&result.network).unwrap();
            check_assert_eq!(result.routes.len(), pattern.flows().len());

            // Theorem 1, via witnesses and via the materialized conflict set.
            let report = verify_contention_free(pattern.contention(), &result.routes);
            check_assert!(report.is_contention_free(), "witnesses: {}", report);
            let conflicts = ConflictSet::from_routes(&result.routes);
            check_assert!(!nocsyn::topo::intersects(pattern.contention(), &conflicts));
            Ok(())
        },
    );
}

/// The placement maps every processor to its network home switch.
#[test]
fn placement_is_consistent() {
    check_n(
        "placement_is_consistent",
        24,
        (usize_in(4..9), u64_in(0..500)),
        |&(n_procs, seed)| {
            let schedule =
                random_permutation_schedule(n_procs, 3, seed, &WorkloadParams::default());
            check_assume!(!schedule.is_empty());
            let pattern = AppPattern::from_schedule(&schedule);
            let result = run_portfolio(&pattern, seed, 1);
            for proc in 0..n_procs {
                let home = result
                    .network
                    .switch_of(nocsyn::model::ProcId(proc))
                    .unwrap();
                check_assert_eq!(home.index(), result.placement[proc]);
            }
            Ok(())
        },
    );
}

/// Zero skew reproduces the ideal lowering exactly; *small* skew
/// (below any message duration) keeps every intra-phase overlap while
/// possibly adding cross-phase ones — the tradeoff the paper accepts
/// in Section 4.
#[test]
fn small_skew_preserves_intra_phase_contention() {
    check_n(
        "small_skew_preserves_intra_phase_contention",
        24,
        (
            usize_in(4..9),
            usize_in(1..6),
            u64_in(0..500),
            u64_in(0..64),
        ),
        |&(n_procs, n_phases, seed, skew)| {
            let schedule = random_permutation_schedule(
                n_procs,
                n_phases,
                seed,
                &WorkloadParams::default().with_bytes(256),
            );
            check_assume!(!schedule.is_empty());
            let ideal_trace = schedule.to_trace();
            check_assert_eq!(&SkewModel::none().apply(&schedule), &ideal_trace);

            // Messages last 256 ticks; skew < 64 cannot pull two same-phase
            // messages apart.
            let ideal = ideal_trace.contention_set();
            let skewed = SkewModel::new(skew, seed).apply(&schedule).contention_set();
            for pair in ideal.iter() {
                check_assert!(
                    skewed.conflicts(pair.first(), pair.second()),
                    "small skew dropped contention pair {}",
                    pair
                );
            }
            Ok(())
        },
    );
}
