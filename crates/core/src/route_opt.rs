//! The `Best_Route` procedure (paper Appendix): indirect route assignment.
//!
//! When a switch `S_i` is split into `S_i` and `S_j`, a communication that
//! crosses a pipe `P_{i,k}` may instead detour through the sibling —
//! `P_{i,j}` then `P_{j,k}` — if that reduces the total links required
//! (the paper's Figure 5(e) shows communications (4,13)/(13,4) being
//! redirected this way). This module tries such detours for every pipe of
//! both split siblings and commits the ones that strictly reduce the link
//! estimate.

use nocsyn_model::Flow;

use crate::{ColoringStrategy, Partitioning, PipeKey, SynthesisConfig};

/// Anneal rounds one [`repair`] runs at most. Round `r` seeds its walk
/// with `r` and owns slot `r` of the [`AnnealMemo`].
pub(crate) const ANNEAL_ROUNDS: usize = 3;

/// Everything an anneal walk reads: with its round, the walk is a pure
/// function of these fields. Left out on purpose are the pipe-slot
/// numbering, which changes no computed value, and the coloring, probe
/// and score memos, which cache pure functions of the fields below.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AnnealInput {
    seed: u64,
    max_degree: usize,
    strategy: ColoringStrategy,
    n_switches: usize,
    home: Vec<usize>,
    paths: Vec<Vec<usize>>,
}

impl AnnealInput {
    fn capture(p: &Partitioning, config: &SynthesisConfig) -> Self {
        AnnealInput {
            seed: config.seed(),
            max_degree: config.max_degree(),
            strategy: p.strategy(),
            n_switches: p.n_switches(),
            home: p.homes().to_vec(),
            paths: p.paths().to_vec(),
        }
    }
}

/// What one walk did to its input: the flows it left on another path,
/// with those paths, and the reroute counters it added.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AnnealOutcome {
    changed: Vec<(usize, Vec<usize>)>,
    tried: usize,
    accepted: usize,
    neutral: usize,
}

/// Route repair's anneal memo: per round, the input of that round's last
/// walk and what the walk did. `partition::run`'s outer loop is the one
/// caller of [`repair`]. It re-runs `repair` on a state that has stalled,
/// and `synthesize_attempt`'s exact-coloring reruns run `run` again, so a
/// round often meets the input it annealed last: 48% of FFT16 walks and
/// 30% of BT16 walks on the paper's 16-node suite. No repeat of an older
/// input showed up there, so one slot per round is enough. The memo lives
/// in its attempt's [`Partitioning`] and never crosses threads.
#[derive(Debug, Clone, Default)]
pub(crate) struct AnnealMemo {
    slots: [Option<(AnnealInput, AnnealOutcome)>; ANNEAL_ROUNDS],
}

/// Runs `Best_Route(S_i, S_j)` on the current partitioning: for each pipe
/// connecting `si` (and, symmetrically, `sj`) to some other switch `k`,
/// tries to reroute each crossing communication via the sibling, and also
/// tries to straighten previously-detoured routes back to direct. Moves
/// are committed greedily when they strictly reduce the total link
/// estimate.
pub(crate) fn best_route(p: &mut Partitioning, si: usize, sj: usize) {
    for (switch, sibling) in [(si, sj), (sj, si)] {
        // Step 1-2: pipes connecting `switch` to others (excluding the
        // sibling pipe itself, which a detour cannot bypass).
        let pipe_keys: Vec<PipeKey> = p
            .pipes()
            .map(|(k, _)| k)
            .filter(|k| k.touches(switch) && !k.touches(sibling))
            .collect();
        for key in pipe_keys {
            let k_other = if key.lo() == switch {
                key.hi()
            } else {
                key.lo()
            };
            // Step 3: communications crossing this pipe (both directions;
            // bitset iteration yields ids in flow order, matching the old
            // sorted-set order).
            let crossing: Vec<Flow> = match p.pipe_flows(key) {
                Some((fwd, bwd)) => fwd
                    .iter()
                    .chain(bwd.iter())
                    .map(|id| p.interner().flow(id))
                    .collect(),
                None => continue,
            };
            for flow in crossing {
                try_detour(p, flow, switch, k_other, sibling);
            }
        }
    }

    // Straightening pass: a detour that stopped paying for itself (because
    // later moves shifted traffic) is reverted to the direct path.
    let detoured: Vec<usize> = (0..p.pattern().flows().len())
        .filter(|&i| p.path_of_idx(i).len() > 2)
        .collect();
    for idx in detoured {
        let direct = p.direct_path(idx);
        let before = p.total_links();
        p.stats.reroutes_tried += 1;
        let after = p.probe_total_links(idx, &direct);
        if after < before {
            p.set_path(idx, direct);
            p.stats.reroutes_accepted += 1;
        } else if after == before {
            p.stats.reroutes_neutral += 1;
        }
    }
}

/// Route repair for constraint violations that splitting cannot fix: a
/// single-processor switch whose distinct partners exceed its port budget
/// can consolidate several of its flows onto one shared first hop, because
/// serialized (different-period) flows share a link for free. For every
/// flow touching a violating switch, every detour through a third switch —
/// and the direct path — is scored by [`Partitioning::score`] (degree
/// excess first, then chip area) and the best strict improvement is
/// committed, until a fixpoint.
pub(crate) fn repair(p: &mut Partitioning, config: &SynthesisConfig) {
    greedy_repair(p, config);
    // Greedy rerouting stalls on plateaus (e.g. a uniform over-degree
    // grid where every single reroute is score-neutral). Anneal over
    // random reroutes to cross, then descend again; retry with fresh
    // annealing seeds while violations remain.
    for round in 0..ANNEAL_ROUNDS {
        if p.violating(config).is_empty() {
            break;
        }
        anneal_routes(p, config, round);
        greedy_repair(p, config);
    }
}

/// Strictly-improving reroute descent around violating switches.
fn greedy_repair(p: &mut Partitioning, config: &SynthesisConfig) {
    for _ in 0..6 {
        let mut improved = false;
        for v in p.violating(config) {
            // Flows crossing any pipe of v.
            let keys: Vec<PipeKey> = p.pipes().map(|(k, _)| k).filter(|k| k.touches(v)).collect();
            let crossing: Vec<Flow> = keys
                .iter()
                .filter_map(|&k| p.pipe_flows(k))
                .flat_map(|(f, b)| f.iter().chain(b.iter()))
                .map(|id| p.interner().flow(id))
                .collect();
            for flow in crossing {
                if reroute_best(p, flow, config) {
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
}

/// [`anneal_once`] through the partitioning's [`AnnealMemo`]. When round
/// `round` last annealed this same input, the walk is replayed instead of
/// rerun: the paths it left are installed and the counters it added are
/// added again, so routes and counters come out byte for byte as a fresh
/// walk's. In debug builds a replay also runs the walk on a clone and
/// checks both. Returns whether the walk was replayed.
fn anneal_routes(p: &mut Partitioning, config: &SynthesisConfig, round: usize) -> bool {
    let input = AnnealInput::capture(p, config);
    if let Some((last, outcome)) = p.anneal_memo.slots[round].take() {
        if last == input {
            #[cfg(debug_assertions)]
            let mut fresh = p.clone();
            p.apply_path_changes(outcome.changed.iter().cloned());
            p.stats.reroutes_tried += outcome.tried;
            p.stats.reroutes_accepted += outcome.accepted;
            p.stats.reroutes_neutral += outcome.neutral;
            #[cfg(debug_assertions)]
            {
                let walked = recorded_walk(&mut fresh, config, round, &input.paths);
                debug_assert_eq!(p.paths(), fresh.paths(), "replayed anneal paths");
                debug_assert_eq!(outcome, walked, "replayed anneal outcome");
            }
            p.anneal_memo.slots[round] = Some((last, outcome));
            return true;
        }
    }
    let outcome = recorded_walk(p, config, round, &input.paths);
    p.anneal_memo.slots[round] = Some((input, outcome));
    false
}

/// Runs [`anneal_once`] on a partitioning whose paths are `before`, and
/// records what it did.
fn recorded_walk(
    p: &mut Partitioning,
    config: &SynthesisConfig,
    round: usize,
    before: &[Vec<usize>],
) -> AnnealOutcome {
    let (tried, accepted, neutral) = (
        p.stats.reroutes_tried,
        p.stats.reroutes_accepted,
        p.stats.reroutes_neutral,
    );
    anneal_once(p, config, round as u64);
    AnnealOutcome {
        changed: p
            .paths()
            .iter()
            .zip(before)
            .enumerate()
            .filter(|(_, (now, was))| now != was)
            .map(|(idx, (now, _))| (idx, now.clone()))
            .collect(),
        tried: p.stats.reroutes_tried - tried,
        accepted: p.stats.reroutes_accepted - accepted,
        neutral: p.stats.reroutes_neutral - neutral,
    }
}

/// Metropolis annealing over single-flow reroutes, minimizing degree
/// excess first and chip area second. Restores the best configuration
/// visited.
fn anneal_once(p: &mut Partitioning, config: &SynthesisConfig, round: u64) {
    use nocsyn_rng::Rng;

    let scalar = |p: &Partitioning| {
        let (excess, area) = p.score(config);
        excess as f64 * 1000.0 + area as f64
    };
    let n_flows = p.pattern().flows().len();
    if n_flows == 0 || p.n_switches() < 3 {
        return;
    }
    let mut rng = Rng::seed_from_u64(config.seed() ^ 0xA11E_A1ED ^ (round << 17));

    let mut current = scalar(p);
    let mut best = current;
    let mut best_paths = p.paths().to_vec();
    let mut temperature = 50.0;
    let iterations = 400 * n_flows.min(64);

    for _ in 0..iterations {
        let idx = rng.gen_range(0..n_flows);
        // Build the candidate on the stack; the common case (probe and
        // reject or skip) allocates nothing.
        let (hs, hd) = p.direct_endpoints(idx);
        let mut buf = [0usize; 3];
        let candidate: &[usize] = if hs != hd && rng.gen_bool(0.7) {
            let via = rng.gen_range(0..p.n_switches());
            if via == hs || via == hd {
                buf[0] = hs;
                buf[1] = hd;
                &buf[..2]
            } else {
                buf = [hs, via, hd];
                &buf[..3]
            }
        } else if hs == hd {
            buf[0] = hs;
            &buf[..1]
        } else {
            buf[0] = hs;
            buf[1] = hd;
            &buf[..2]
        };
        if candidate == p.path_of_idx(idx) {
            continue;
        }
        p.stats.reroutes_tried += 1;
        let (excess, area) = p.probe_score(idx, candidate, config);
        let new = excess as f64 * 1000.0 + area as f64;
        if new == current {
            p.stats.reroutes_neutral += 1;
        }
        let accept = new <= current || rng.gen_f64() < ((current - new) / temperature).exp();
        if accept {
            p.set_path(idx, candidate.to_vec());
            current = new;
            if new < best {
                best = new;
                best_paths = p.paths().to_vec();
            }
            p.stats.reroutes_accepted += 1;
        }
        temperature = (temperature * 0.999).max(0.05);
    }

    // Restore the best visited configuration.
    if scalar(p) > best {
        for (i, path) in best_paths.into_iter().enumerate() {
            p.set_path(i, path);
        }
    }
}

/// Considers all simple reroutes of `flow` — the direct path and every
/// single-via detour — and commits the best one if it strictly improves
/// the lexicographic score. Returns whether a change was committed.
fn reroute_best(p: &mut Partitioning, flow: Flow, config: &SynthesisConfig) -> bool {
    let idx = p.flow_idx(flow);
    let original = p.path_of_idx(idx).to_vec();
    let current_score = p.score(config);
    let direct = p.direct_path(idx);
    let mut candidates: Vec<Vec<usize>> = vec![direct.clone()];
    if direct.len() == 2 {
        // Only detour through switches already piped to an endpoint:
        // consolidation onto an existing pipe is the only reroute that can
        // lower an endpoint's degree, and it keeps the candidate set small.
        let neighbors: Vec<usize> = p
            .pipes()
            .map(|(k, _)| k)
            .filter(|k| k.touches(direct[0]) || k.touches(direct[1]))
            .flat_map(|k| [k.lo(), k.hi()])
            .collect();
        let mut vias: Vec<usize> = neighbors
            .into_iter()
            .filter(|&v| v != direct[0] && v != direct[1])
            .collect();
        vias.sort_unstable();
        vias.dedup();
        for via in vias {
            candidates.push(vec![direct[0], via, direct[1]]);
        }
    }
    let mut best: Option<(Vec<usize>, (usize, usize))> = None;
    for cand in candidates {
        if cand == original {
            continue;
        }
        p.stats.reroutes_tried += 1;
        let score = p.probe_score(idx, &cand, config);
        if score == current_score {
            p.stats.reroutes_neutral += 1;
        }
        if score < current_score && best.as_ref().is_none_or(|(_, s)| score < *s) {
            best = Some((cand, score));
        }
    }
    if let Some((path, _)) = best {
        p.set_path(idx, path);
        p.stats.reroutes_accepted += 1;
        true
    } else {
        false
    }
}

/// Tries to replace the `a -> b` hop of `flow`'s path with `a -> via -> b`;
/// commits iff the total link estimate strictly decreases.
fn try_detour(p: &mut Partitioning, flow: Flow, a: usize, b: usize, via: usize) {
    let idx = p.flow_idx(flow);
    let old = p.path_of_idx(idx).to_vec();
    if old.contains(&via) {
        return; // detour would revisit a switch; keep paths simple
    }
    let Some(pos) = position_of_hop(&old, a, b) else {
        return;
    };
    let mut new = old.clone();
    new.insert(pos + 1, via);

    p.stats.reroutes_tried += 1;
    let before = p.total_links();
    let after = p.probe_total_links(idx, &new);
    if after < before {
        p.set_path(idx, new);
        p.stats.reroutes_accepted += 1;
    } else if after == before {
        p.stats.reroutes_neutral += 1;
    }
}

/// The index `i` such that the path crosses between `a` and `b` at hop
/// `(path[i], path[i+1])`, in either orientation.
fn position_of_hop(path: &[usize], a: usize, b: usize) -> Option<usize> {
    path.windows(2)
        .position(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppPattern, SynthesisConfig};
    use nocsyn_model::{Clique, CliqueSet, ContentionSet};
    use nocsyn_rng::Rng;

    #[test]
    fn hop_position_is_orientation_insensitive() {
        assert_eq!(position_of_hop(&[0, 2, 5], 2, 5), Some(1));
        assert_eq!(position_of_hop(&[0, 2, 5], 5, 2), Some(1));
        assert_eq!(position_of_hop(&[0, 2, 5], 0, 5), None);
    }

    /// A pattern engineered so a detour pays off: three flows from procs on
    /// switch A to procs on switch B are mutually conflicting, but one of
    /// them can share the (otherwise idle) path through a third switch.
    #[test]
    fn detour_reduces_links_when_direct_pipe_is_congested() {
        // 6 procs. Flows 0->3, 1->4, 2->5 all in one contention period.
        let flows = [(0usize, 3usize), (1, 4), (2, 5)];
        let cliques = CliqueSet::from_cliques([Clique::from(flows)]);
        let mut contention = ContentionSet::new();
        for i in 0..flows.len() {
            for j in i + 1..flows.len() {
                contention.insert(flows[i].into(), flows[j].into());
            }
        }
        let pattern =
            AppPattern::from_parts(6, flows.iter().map(|&f| f.into()), contention, cliques);
        let mut p = crate::Partitioning::megaswitch(&pattern).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        // Manufacture 3 switches: {0,1,2} on s0, {3,4,5} on s1, nothing on s2.
        p.split(0, &mut rng);
        p.split(0, &mut rng);
        // Deterministic layout regardless of rng: place explicitly.
        use nocsyn_model::ProcId;
        for proc in 0..3 {
            p.move_proc(ProcId(proc), 0);
        }
        for proc in 3..6 {
            p.move_proc(ProcId(proc), 1);
        }
        p.assert_consistent();
        // All three flows cross pipe (0,1) concurrently: 3 links.
        assert_eq!(p.total_links(), 3);

        // Detouring one flow via s2 yields pipes (0,1)=2, (0,2)=1, (2,1)=1
        // -> total 4: worse. Best_Route must therefore NOT commit it.
        best_route(&mut p, 0, 1);
        assert_eq!(p.total_links(), 3);
        p.assert_consistent();
    }

    /// The paper's Figure 5(e) situation: the direct pipe would need a 2nd
    /// link while the sibling path has spare capacity, so redirecting one
    /// communication saves a link.
    #[test]
    fn detour_commits_when_it_saves_a_link() {
        // Periods: {0->3, 1->4} concurrent; {2->5} alone; {0->3, 2->5}? No -
        // we want: pipe (0,1) carries two concurrent flows (needs 2), and a
        // via-switch path that already carries one of the SAME period's
        // flows... Construct:
        //   s0 hosts procs 0,1; s1 hosts 3,4; s2 hosts 2,5.
        //   Flows: a=0->3, b=1->4 (concurrent), c=2->5 (own period, stays
        //   inside s2).
        // Direct: pipe(0,1) = {a,b} concurrent -> 2 links. Detour b via s2:
        // pipe(0,1)={a}:1, pipe(0,2)={b}:1, pipe(1,2)... wait b=1->4 goes
        // s0->s2->s1: pipe(0,2)=1, pipe(2,1)=1 -> total 3 > 2. A detour
        // only pays when the via pipes ALREADY carry non-conflicting
        // traffic. Add flows d=0->5 (s0->s2) and e=2->4 (s2->s1) in a
        // DIFFERENT period from a,b, so they share links with b's detour.
        let flows = [(0usize, 3usize), (1, 4), (0, 5), (2, 4)];
        let cliques = CliqueSet::from_cliques([
            Clique::from([(0, 3), (1, 4)]),
            Clique::from([(0, 5), (2, 4)]),
        ]);
        let mut contention = ContentionSet::new();
        contention.insert((0, 3).into(), (1, 4).into());
        contention.insert((0, 5).into(), (2, 4).into());
        let pattern =
            AppPattern::from_parts(6, flows.iter().map(|&f| f.into()), contention, cliques);
        let mut p = crate::Partitioning::megaswitch(&pattern).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        p.split(0, &mut rng);
        p.split(0, &mut rng);
        use nocsyn_model::ProcId;
        for (proc, home) in [(0, 0), (1, 0), (3, 1), (4, 1), (2, 2), (5, 2)] {
            p.move_proc(ProcId(proc), home);
        }
        p.assert_consistent();
        // Direct routing: pipe(0,1)={a,b} -> 2, pipe(0,2)={d} -> 1,
        // pipe(1,2)={e bwd} -> 1. Total 4.
        assert_eq!(p.total_links(), 4);

        best_route(&mut p, 0, 2);
        // Detouring either of a (0->3) or b (1->4) via s2 rides the
        // existing pipes: pipe(0,1) drops to 1; pipes (0,2) and (1,2) stay
        // at 1 because the detoured flow conflicts with neither d nor e.
        // Total 3.
        assert_eq!(p.total_links(), 3);
        let a_path = p.path(Flow::from_indices(0, 3)).unwrap().to_vec();
        let b_path = p.path(Flow::from_indices(1, 4)).unwrap().to_vec();
        let detoured = [&a_path, &b_path].iter().filter(|p| p.len() == 3).count();
        assert_eq!(
            detoured, 1,
            "exactly one flow detours: {a_path:?} {b_path:?}"
        );
        p.assert_consistent();
    }

    #[test]
    fn straightening_reverts_stale_detours() {
        // Install a detour manually, then remove the traffic that paid for
        // it and confirm best_route straightens the path.
        let flows = [(0usize, 3usize)];
        let cliques = CliqueSet::from_cliques([Clique::from(flows)]);
        let pattern = AppPattern::from_parts(
            4,
            flows.iter().map(|&f| f.into()),
            ContentionSet::new(),
            cliques,
        );
        let mut p = crate::Partitioning::megaswitch(&pattern).unwrap();
        let mut rng = Rng::seed_from_u64(3);
        p.split(0, &mut rng);
        p.split(0, &mut rng);
        use nocsyn_model::ProcId;
        for (proc, home) in [(0, 0), (1, 2), (2, 2), (3, 1)] {
            p.move_proc(ProcId(proc), home);
        }
        let idx = p.flow_idx(Flow::from_indices(0, 3));
        p.set_path(idx, vec![0, 2, 1]);
        assert_eq!(p.total_links(), 2);
        best_route(&mut p, 0, 1);
        assert_eq!(p.path(Flow::from_indices(0, 3)).unwrap(), &[0, 1]);
        assert_eq!(p.total_links(), 1);
        p.assert_consistent();
    }

    /// Processor 0 alone on switch 0 talks to one partner per switch
    /// 1..=4, each in its own phase, so switch 0 needs degree 5 against a
    /// bound of 3 until serialized flows share a first hop. Processor 5
    /// has no flows: moving it changes degrees but no path.
    fn violating_star() -> (Partitioning, SynthesisConfig) {
        use nocsyn_model::{Phase, PhaseSchedule};
        let mut schedule = PhaseSchedule::new(6);
        for partner in 1..=4usize {
            schedule
                .push(Phase::from_flows([(0usize, partner)]).unwrap())
                .unwrap();
        }
        let pattern = AppPattern::from_schedule(&schedule);
        let p = Partitioning::from_assignment(&pattern, &[0, 1, 2, 3, 4, 1]).unwrap();
        let config = SynthesisConfig::new().with_max_degree(3).with_seed(4);
        assert_eq!(p.violating(&config), vec![0]);
        (p, config)
    }

    /// Anneals `p` in `round` and checks the result against a fresh walk
    /// on a clone with an empty memo: same paths, same counters, and a
    /// replay exactly when `replay` says so.
    fn anneal_matches_fresh_walk(
        p: &mut Partitioning,
        config: &SynthesisConfig,
        round: usize,
        replay: bool,
    ) {
        let mut fresh = p.clone();
        fresh.anneal_memo = AnnealMemo::default();
        assert!(!anneal_routes(&mut fresh, config, round));
        assert_eq!(anneal_routes(p, config, round), replay, "replayed");
        assert_eq!(p.paths(), fresh.paths(), "paths");
        assert_eq!(p.stats, fresh.stats, "counters");
        p.assert_consistent();
    }

    #[test]
    fn anneal_replays_a_repeated_input_and_misses_a_changed_one() {
        let (mut p, config) = violating_star();
        let input = p.paths().to_vec();
        anneal_matches_fresh_walk(&mut p, &config, 0, false);
        assert_ne!(p.paths(), &input[..], "the walk reroutes some flow");
        assert!(p.stats.reroutes_accepted > 0);
        p.apply_path_changes(input.iter().cloned().enumerate());
        // The memo now holds round 0's walk of `input`.
        let remembered = p.clone();
        anneal_matches_fresh_walk(&mut p, &config, 0, true);

        // Each round has its own slot and seed.
        anneal_matches_fresh_walk(&mut remembered.clone(), &config, 1, false);
        // Every field of the input is part of the key.
        let mut exact = remembered.clone();
        exact.set_strategy(ColoringStrategy::Exact);
        anneal_matches_fresh_walk(&mut exact, &config, 0, false);
        let mut moved = remembered.clone();
        moved.move_proc(nocsyn_model::ProcId(5), 0);
        assert_eq!(moved.paths(), remembered.paths());
        anneal_matches_fresh_walk(&mut moved, &config, 0, false);
        let reseeded = config.clone().with_seed(5);
        anneal_matches_fresh_walk(&mut remembered.clone(), &reseeded, 0, false);
        let looser = config.clone().with_max_degree(4);
        anneal_matches_fresh_walk(&mut remembered.clone(), &looser, 0, false);
        let mut wider = remembered.clone();
        wider.add_switch();
        anneal_matches_fresh_walk(&mut wider, &config, 0, false);
    }

    #[test]
    fn best_route_never_increases_cost() {
        let flows = [(0usize, 2usize), (1, 3)];
        let cliques = CliqueSet::from_cliques([Clique::from(flows)]);
        let mut contention = ContentionSet::new();
        contention.insert((0, 2).into(), (1, 3).into());
        let pattern =
            AppPattern::from_parts(4, flows.iter().map(|&f| f.into()), contention, cliques);
        let mut p = crate::Partitioning::megaswitch(&pattern).unwrap();
        let config = SynthesisConfig::new().with_max_degree(3).with_seed(2);
        crate::partition::run(&mut p, &config);
        // Repeated applications from any sibling pair must be monotone
        // non-increasing in the link estimate.
        for si in 0..p.n_switches() {
            for sj in 0..p.n_switches() {
                if si == sj {
                    continue;
                }
                let before = p.total_links();
                best_route(&mut p, si, sj);
                assert!(p.total_links() <= before);
                p.assert_consistent();
            }
        }
    }
}
