//! Synthetic random well-behaved patterns, for property tests and for
//! exercising synthesis beyond the five NAS shapes.

use nocsyn_model::{Flow, Phase, PhaseSchedule};
use nocsyn_rng::Rng;

use crate::WorkloadParams;

/// Generates a schedule of `n_phases` random partial permutations over
/// `n_procs` processes, seeded for reproducibility.
///
/// Each phase pairs a random subset of processes (at least two) under a
/// random permutation with fixed points dropped — a "well-behaved" pattern
/// in the paper's sense: static, characterizable, one partial permutation
/// per contention period.
///
/// # Panics
///
/// Panics if `n_procs < 2`.
pub fn random_permutation_schedule(
    n_procs: usize,
    n_phases: usize,
    seed: u64,
    params: &WorkloadParams,
) -> PhaseSchedule {
    assert!(n_procs >= 2, "need at least two processes to communicate");
    let mut rng = Rng::seed_from_u64(seed);
    let mut sched = PhaseSchedule::new(n_procs);
    for _ in 0..n_phases {
        let mut procs: Vec<usize> = (0..n_procs).collect();
        rng.shuffle(&mut procs);
        // Random participant count in [2, n_procs].
        let take = rng.gen_range(2..=n_procs);
        let mut participants = procs[..take].to_vec();
        participants.sort_unstable();
        let mut targets = participants.clone();
        rng.shuffle(&mut targets);

        let mut phase = Phase::new()
            .with_bytes(params.bytes)
            .with_compute(params.compute_ticks);
        for (&s, &d) in participants.iter().zip(targets.iter()) {
            if s != d {
                phase
                    .add(Flow::from_indices(s, d))
                    .expect("permutation pairing is injective both ways");
            }
        }
        if !phase.is_empty() {
            sched.push(phase).expect("participants are in range");
        }
    }
    sched
}

/// Generates a locality-structured schedule: `n_procs / block` blocks of
/// `block` consecutive processes, each phase a random permutation
/// *within* every block plus **at most** `cross_flows` block-crossing
/// flows.
///
/// A cross flow is added only between a source and a destination that
/// the block permutations left idle (their fixed points), and the
/// generator gives up after `16 * cross_flows` random draws. A random
/// permutation leaves about one process per block idle, so most phases
/// get no cross flow at all: at 128 and 256 processes with 16-process
/// blocks, 2 phases and 3 asked per phase, seed `1 ^ n`, none is added.
/// Patterns that must carry cut traffic need another construction.
///
/// The shape is the scale-out form of the paper's "well-behaved"
/// workloads — NAS-style kernels communicate overwhelmingly within a
/// neighborhood — and the processor ids are contiguous per block, so an
/// affinity cut seeded from ids starts on the blocks.
///
/// Every phase remains a partial permutation (each process sources and
/// sinks at most one flow), so the pattern is well-behaved in the
/// paper's single-contention-period sense too.
///
/// # Panics
///
/// Panics if `n_procs < 2` or `block < 2`.
pub fn clustered_permutation_schedule(
    n_procs: usize,
    block: usize,
    n_phases: usize,
    cross_flows: usize,
    seed: u64,
    params: &WorkloadParams,
) -> PhaseSchedule {
    assert!(n_procs >= 2, "need at least two processes to communicate");
    assert!(block >= 2, "blocks need at least two processes");
    let mut rng = Rng::seed_from_u64(seed);
    let mut sched = PhaseSchedule::new(n_procs);
    for _ in 0..n_phases {
        let mut used_src = vec![false; n_procs];
        let mut used_dst = vec![false; n_procs];
        let mut phase = Phase::new()
            .with_bytes(params.bytes)
            .with_compute(params.compute_ticks);
        for start in (0..n_procs).step_by(block) {
            let members: Vec<usize> = (start..(start + block).min(n_procs)).collect();
            let mut targets = members.clone();
            rng.shuffle(&mut targets);
            for (&s, &d) in members.iter().zip(targets.iter()) {
                if s != d {
                    used_src[s] = true;
                    used_dst[d] = true;
                    phase
                        .add(Flow::from_indices(s, d))
                        .expect("block permutation is injective both ways");
                }
            }
        }
        // Cross-block flows between processes the block permutations left
        // idle in the needed direction (fixed points), keeping the phase a
        // partial permutation. Bounded retries keep generation total.
        let mut added = 0;
        for _ in 0..cross_flows * 16 {
            if added == cross_flows {
                break;
            }
            let s = rng.gen_range(0..n_procs);
            let d = rng.gen_range(0..n_procs);
            if s / block == d / block || used_src[s] || used_dst[d] {
                continue;
            }
            used_src[s] = true;
            used_dst[d] = true;
            phase
                .add(Flow::from_indices(s, d))
                .expect("endpoints were unused in this direction");
            added += 1;
        }
        if !phase.is_empty() {
            sched.push(phase).expect("participants are in range");
        }
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let p = WorkloadParams::default();
        let a = random_permutation_schedule(8, 5, 42, &p);
        let b = random_permutation_schedule(8, 5, 42, &p);
        assert_eq!(a, b);
        let c = random_permutation_schedule(8, 5, 43, &p);
        assert_ne!(a, c);
    }

    #[test]
    fn phases_are_partial_permutations() {
        let p = WorkloadParams::default();
        let sched = random_permutation_schedule(12, 20, 7, &p);
        for phase in sched.iter() {
            let mut sources = std::collections::BTreeSet::new();
            let mut dests = std::collections::BTreeSet::new();
            for f in phase.iter() {
                assert_ne!(f.src, f.dst);
                assert!(sources.insert(f.src), "duplicate source in phase");
                assert!(dests.insert(f.dst), "duplicate destination in phase");
            }
        }
    }

    #[test]
    fn respects_params() {
        let p = WorkloadParams::default().with_bytes(128).with_compute(999);
        let sched = random_permutation_schedule(4, 3, 1, &p);
        for phase in sched.iter() {
            assert_eq!(phase.bytes(), 128);
            assert_eq!(phase.compute_ticks(), 999);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_tiny_systems() {
        let _ = random_permutation_schedule(1, 1, 0, &WorkloadParams::default());
    }

    #[test]
    fn clustered_schedule_is_local_with_bounded_cross_traffic() {
        let p = WorkloadParams::default();
        let sched = clustered_permutation_schedule(64, 16, 4, 3, 9, &p);
        let mut cross = 0usize;
        let mut local = 0usize;
        for phase in sched.iter() {
            let mut sources = std::collections::BTreeSet::new();
            let mut dests = std::collections::BTreeSet::new();
            for f in phase.iter() {
                assert!(sources.insert(f.src), "duplicate source in phase");
                assert!(dests.insert(f.dst), "duplicate destination in phase");
                if f.src.index() / 16 == f.dst.index() / 16 {
                    local += 1;
                } else {
                    cross += 1;
                }
            }
        }
        assert!(cross <= 3 * 4, "at most cross_flows per phase, got {cross}");
        assert!(
            local > cross * 3,
            "traffic must be dominated by block-local flows ({local} local, {cross} cross)"
        );
        assert_eq!(
            sched,
            clustered_permutation_schedule(64, 16, 4, 3, 9, &p),
            "generation is a pure function of the seed"
        );
    }
}
