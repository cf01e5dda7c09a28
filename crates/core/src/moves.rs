//! Processor-move evaluation between a split pair (steps 7–9 of the Main
//! Partitioning Algorithm).

use nocsyn_model::ProcId;

use crate::{Partitioning, SynthesisConfig};

/// A candidate change to the split pair and the total link estimate it
/// would produce: either one processor moving across, or a balanced swap
/// of two processors (the Kernighan–Lin-style escape from single-move
/// local optima).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MoveCandidate {
    Single {
        proc: ProcId,
        to: usize,
        cost: usize,
    },
    Swap {
        a: ProcId,
        a_to: usize,
        b: ProcId,
        b_to: usize,
        cost: usize,
    },
}

impl MoveCandidate {
    pub(crate) fn cost(&self) -> usize {
        match *self {
            MoveCandidate::Single { cost, .. } | MoveCandidate::Swap { cost, .. } => cost,
        }
    }

    /// Applies this candidate to the partitioning.
    pub(crate) fn commit(&self, p: &mut Partitioning) {
        match *self {
            MoveCandidate::Single { proc, to, .. } => p.move_proc(proc, to),
            MoveCandidate::Swap {
                a, a_to, b, b_to, ..
            } => {
                p.move_proc(a, a_to);
                p.move_proc(b, b_to);
            }
        }
    }
}

/// Evaluates every balanced single-processor move and every pair swap
/// between switches `si` and `sj`, *assuming direct routes* for the
/// relocated processors' flows (as the paper specifies), and returns the
/// lowest-cost candidate.
///
/// Each candidate is scored by [`Partitioning::probe_move`] without
/// committing it, so it costs only the recolorings of the pipe
/// directions its flows leave and join.
///
/// Returns `None` when no legal candidate exists at all.
pub(crate) fn best_move(
    p: &mut Partitioning,
    si: usize,
    sj: usize,
    config: &SynthesisConfig,
) -> Option<MoveCandidate> {
    let mut best: Option<MoveCandidate> = None;

    // Single moves.
    let singles: Vec<(ProcId, usize, usize)> = p
        .members(si)
        .iter()
        .map(|&q| (q, si, sj))
        .chain(p.members(sj).iter().map(|&q| (q, sj, si)))
        .collect();
    for (proc, from, to) in singles {
        // A move may not empty its source switch: a split must stick, or
        // the search would undo it and re-split forever (the link objective
        // always prefers merging). The paper's balance rule alone permits
        // 2-vs-0, so this is a necessary strengthening.
        if p.members(from).len() == 1 {
            continue;
        }
        // Balance check (paper: imbalance limited to 2).
        let (ni, nj) = (p.members(si).len() as isize, p.members(sj).len() as isize);
        let (ni_after, nj_after) = if from == si {
            (ni - 1, nj + 1)
        } else {
            (ni + 1, nj - 1)
        };
        if (ni_after - nj_after).unsigned_abs() > config.balance_tolerance() {
            continue;
        }
        let (cost, _) = evaluate(p, &[(proc, to)], config);
        if best.as_ref().is_none_or(|b| cost < b.cost()) {
            best = Some(MoveCandidate::Single { proc, to, cost });
        }
    }

    // Balanced pair swaps (never change sizes, so always legal).
    let left: Vec<ProcId> = p.members(si).to_vec();
    let right: Vec<ProcId> = p.members(sj).to_vec();
    for &a in &left {
        for &b in &right {
            let (cost, _) = evaluate(p, &[(a, sj), (b, si)], config);
            if best.as_ref().is_none_or(|bst| cost < bst.cost()) {
                best = Some(MoveCandidate::Swap {
                    a,
                    a_to: sj,
                    b,
                    b_to: si,
                    cost,
                });
            }
        }
    }
    best
}

/// The total link estimate and the lexicographic score the partitioning
/// would have after the given relocations, with the relocated
/// processors' flows on direct routes — the paper's "expected number of
/// links ... assuming direct routes" evaluation, side-effect free (see
/// [`Partitioning::probe_move`]). Counts one tried move.
fn evaluate(
    p: &mut Partitioning,
    relocations: &[(ProcId, usize)],
    config: &SynthesisConfig,
) -> (usize, (usize, usize)) {
    p.stats.moves_tried += 1;
    p.probe_move(relocations, config)
}

/// Refinement between an arbitrary switch pair: singles in both directions
/// (allowed to empty a switch — merging is the point) and swaps, scored by
/// the lexicographic [`Partitioning::score`] (degree excess, then chip
/// area). Returns the best candidate and its score.
pub(crate) fn refine_move(
    p: &mut Partitioning,
    si: usize,
    sj: usize,
    config: &SynthesisConfig,
) -> Option<(MoveCandidate, (usize, usize))> {
    let mut best: Option<(MoveCandidate, (usize, usize))> = None;
    let consider = |cand: MoveCandidate,
                    score: (usize, usize),
                    best: &mut Option<(MoveCandidate, (usize, usize))>| {
        if best.as_ref().is_none_or(|(_, s)| score < *s) {
            *best = Some((cand, score));
        }
    };

    let singles: Vec<(ProcId, usize)> = p
        .members(si)
        .iter()
        .map(|&q| (q, sj))
        .chain(p.members(sj).iter().map(|&q| (q, si)))
        .collect();
    for (proc, to) in singles {
        let (_, score) = evaluate(p, &[(proc, to)], config);
        consider(
            MoveCandidate::Single { proc, to, cost: 0 },
            score,
            &mut best,
        );
    }
    let left: Vec<ProcId> = p.members(si).to_vec();
    let right: Vec<ProcId> = p.members(sj).to_vec();
    for &a in &left {
        for &b in &right {
            let (_, score) = evaluate(p, &[(a, sj), (b, si)], config);
            consider(
                MoveCandidate::Swap {
                    a,
                    a_to: sj,
                    b,
                    b_to: si,
                    cost: 0,
                },
                score,
                &mut best,
            );
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppPattern;
    use nocsyn_model::{Phase, PhaseSchedule};
    use nocsyn_rng::Rng;

    /// Pattern where procs {0,1} and {2,3} talk within their group only:
    /// the optimal 2/2 split has zero crossing traffic.
    fn clustered_pattern() -> AppPattern {
        let mut s = PhaseSchedule::new(4);
        s.push(Phase::from_flows([(0usize, 1usize), (2, 3)]).unwrap())
            .unwrap();
        s.push(Phase::from_flows([(1usize, 0usize), (3, 2)]).unwrap())
            .unwrap();
        AppPattern::from_schedule(&s)
    }

    #[test]
    fn best_move_finds_the_clustering() {
        // Start from the worst split — {0,2} vs {1,3} cuts every flow —
        // and verify greedy descent recovers the {0,1}/{2,3} clustering.
        let pattern = clustered_pattern();
        let config = SynthesisConfig::new();
        let mut p = Partitioning::megaswitch(&pattern).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        let sj = p.split(0, &mut rng);
        use nocsyn_model::ProcId;
        p.move_proc(ProcId(0), 0);
        p.move_proc(ProcId(2), 0);
        p.move_proc(ProcId(1), sj);
        p.move_proc(ProcId(3), sj);
        assert!(p.total_links() > 0);
        for _ in 0..6 {
            let before = p.total_links();
            match best_move(&mut p, 0, sj, &config) {
                Some(c) if c.cost() < before => c.commit(&mut p),
                _ => break,
            }
        }
        assert_eq!(p.total_links(), 0, "greedy moves did not decluster");
        p.assert_consistent();
    }

    #[test]
    fn moves_never_empty_a_switch() {
        let pattern = clustered_pattern();
        let config = SynthesisConfig::new();
        let mut p = Partitioning::megaswitch(&pattern).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        let sj = p.split(0, &mut rng);
        // Drain sj down to one member, then confirm no candidate move
        // takes the last one.
        while p.members(sj).len() > 1 {
            let proc = p.members(sj)[0];
            p.move_proc(proc, 0);
        }
        if let Some(MoveCandidate::Single { proc, to, .. }) = best_move(&mut p, 0, sj, &config) {
            assert_ne!(
                (proc, to),
                (p.members(sj)[0], 0),
                "move would empty switch {sj}"
            );
        }
    }

    #[test]
    fn balance_tolerance_blocks_lopsided_moves() {
        let pattern = clustered_pattern();
        // With tolerance 0, every single move (2/2 -> 1/3) is blocked;
        // only balanced swaps may be offered.
        let config = SynthesisConfig::new().with_balance_tolerance(0);
        let mut p = Partitioning::megaswitch(&pattern).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        let sj = p.split(0, &mut rng);
        // 2/2 split with tolerance 0: every single move makes it 1/3.
        match best_move(&mut p, 0, sj, &config) {
            None => {}
            Some(MoveCandidate::Swap { .. }) => {}
            Some(single) => panic!("unbalanced single move offered: {single:?}"),
        }
    }

    #[test]
    fn evaluation_leaves_state_unchanged() {
        let pattern = clustered_pattern();
        let config = SynthesisConfig::new();
        let mut p = Partitioning::megaswitch(&pattern).unwrap();
        let mut rng = Rng::seed_from_u64(1);
        let sj = p.split(0, &mut rng);
        let before_total = p.total_links();
        let before_members: Vec<Vec<_>> = vec![p.members(0).to_vec(), p.members(sj).to_vec()];
        let _ = best_move(&mut p, 0, sj, &config);
        assert_eq!(p.total_links(), before_total);
        assert_eq!(p.members(0), before_members[0].as_slice());
        assert_eq!(p.members(sj), before_members[1].as_slice());
        p.assert_consistent();
    }
}
