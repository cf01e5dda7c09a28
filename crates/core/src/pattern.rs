//! The synthesis input: a characterized application communication pattern.

use std::collections::BTreeSet;
use std::fmt;

use nocsyn_model::{CliqueSet, ContentionSet, Flow, FlowPair, PhaseSchedule, Trace};

/// Everything the design methodology needs to know about an application:
/// its process count, the distinct flows it performs, its potential
/// communication contention set `C`, and its maximum clique set `K`.
///
/// Build one [`from_trace`](AppPattern::from_trace) when you have timed
/// messages (e.g. an execution log) or
/// [`from_schedule`](AppPattern::from_schedule) when you have the
/// phase-parallel program structure directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppPattern {
    n_procs: usize,
    flows: Vec<Flow>,
    contention: ContentionSet,
    cliques: CliqueSet,
}

impl AppPattern {
    /// Characterizes a timed trace: computes `C` and the maximum clique
    /// set from message overlap.
    pub fn from_trace(trace: &Trace) -> Self {
        let flows: Vec<Flow> = trace.flows().into_iter().collect();
        AppPattern {
            n_procs: trace.n_procs(),
            flows,
            contention: trace.contention_set(),
            cliques: trace.maximum_clique_set(),
        }
    }

    /// Characterizes a phase-parallel schedule: each distinct phase is one
    /// contention period (the paper's Section 3 extraction), so the clique
    /// set is read directly off the program structure and `C` contains all
    /// intra-phase pairs.
    ///
    /// `C` grows with the square of phase width, so it is built in bulk.
    /// Every phase is a subset of some maximal clique, so the maximal
    /// cliques' pairs are exactly the intra-phase pairs. They go into one
    /// vector, which is sorted and deduplicated once; each clique's pairs
    /// come out in order, so the stable sort only merges one run per
    /// clique. The set is then built from the sorted run.
    pub fn from_schedule(schedule: &PhaseSchedule) -> Self {
        let cliques = schedule.maximum_clique_set();
        let mut pairs = Vec::new();
        let mut flows = Vec::new();
        for clique in cliques.iter() {
            flows.clear();
            flows.extend(clique.iter());
            for (i, &a) in flows.iter().enumerate() {
                pairs.extend(flows[i + 1..].iter().map(|&b| FlowPair::new(a, b)));
            }
        }
        pairs.sort();
        pairs.dedup();
        let contention: ContentionSet = pairs.into_iter().collect();
        AppPattern {
            n_procs: schedule.n_procs(),
            flows: schedule.all_flows().into_iter().collect(),
            contention,
            cliques,
        }
    }

    /// Builds a pattern from raw parts (for tests and custom frontends).
    /// The flow list is deduplicated and sorted.
    pub fn from_parts(
        n_procs: usize,
        flows: impl IntoIterator<Item = Flow>,
        contention: ContentionSet,
        cliques: CliqueSet,
    ) -> Self {
        let flows: BTreeSet<Flow> = flows.into_iter().collect();
        AppPattern {
            n_procs,
            flows: flows.into_iter().collect(),
            contention,
            cliques,
        }
    }

    /// Merges several application patterns into one synthesis target: the
    /// union of their flows, contention pairs and contention periods.
    ///
    /// A network synthesized for the merged pattern is contention-free
    /// for **each** application run by itself (the applications' cliques
    /// are all present individually — the merge does not assume two
    /// applications run concurrently). This is the design point the
    /// paper's Section 4.2 sensitivity experiment motivates: a workload
    /// of several characterized applications sharing one chip.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty.
    pub fn merged<'a, I>(patterns: I) -> AppPattern
    where
        I: IntoIterator<Item = &'a AppPattern>,
    {
        let mut iter = patterns.into_iter();
        let first = iter.next().expect("merging requires at least one pattern");
        let mut n_procs = first.n_procs;
        let mut flows: BTreeSet<Flow> = first.flows.iter().copied().collect();
        let mut contention = first.contention.clone();
        let mut cliques: Vec<_> = first.cliques.iter().cloned().collect();
        for p in iter {
            n_procs = n_procs.max(p.n_procs);
            flows.extend(p.flows.iter().copied());
            contention.extend(p.contention.iter());
            cliques.extend(p.cliques.iter().cloned());
        }
        AppPattern {
            n_procs,
            flows: flows.into_iter().collect(),
            contention,
            cliques: CliqueSet::from_cliques(cliques).into_maximal(),
        }
    }

    /// Number of processes / end-nodes.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }

    /// The distinct flows the application performs, sorted.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// The potential communication contention set `C`.
    pub fn contention(&self) -> &ContentionSet {
        &self.contention
    }

    /// The communication maximum clique set `K`.
    pub fn cliques(&self) -> &CliqueSet {
        &self.cliques
    }

    /// The paper's complexity parameters `(K, L)`: number of cliques and
    /// largest clique size.
    pub fn complexity(&self) -> (usize, usize) {
        (self.cliques.len(), self.cliques.max_clique_size())
    }
}

impl fmt::Display for AppPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (k, l) = self.complexity();
        write!(
            f,
            "pattern: {} procs, {} flows, |C| = {}, K = {k}, L = {l}",
            self.n_procs,
            self.flows.len(),
            self.contention.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::{Message, Phase, ProcId};

    #[test]
    fn from_trace_and_from_schedule_agree_on_simple_pattern() {
        // Same logical pattern built both ways.
        let mut sched = PhaseSchedule::new(4);
        sched
            .push(Phase::from_flows([(0usize, 1usize), (2, 3)]).unwrap())
            .unwrap();
        sched
            .push(Phase::from_flows([(1usize, 2usize)]).unwrap())
            .unwrap();
        let from_sched = AppPattern::from_schedule(&sched);
        let from_trace = AppPattern::from_trace(&sched.to_trace());
        assert_eq!(from_sched.flows(), from_trace.flows());
        assert_eq!(from_sched.contention(), from_trace.contention());
        assert_eq!(from_sched.cliques().len(), from_trace.cliques().len());
    }

    #[test]
    fn complexity_parameters() {
        let mut t = Trace::new(6);
        t.push(Message::new(ProcId(0), ProcId(1), 0, 10).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(2), ProcId(3), 0, 10).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(4), ProcId(5), 20, 30).unwrap())
            .unwrap();
        let p = AppPattern::from_trace(&t);
        assert_eq!(p.complexity(), (2, 2));
        assert_eq!(p.flows().len(), 3);
    }

    #[test]
    fn from_parts_dedups_flows() {
        let f = Flow::from_indices(0, 1);
        let p = AppPattern::from_parts(2, [f, f], ContentionSet::new(), CliqueSet::new());
        assert_eq!(p.flows().len(), 1);
    }

    #[test]
    fn merged_unions_everything() {
        let mut a = PhaseSchedule::new(4);
        a.push(Phase::from_flows([(0usize, 1usize), (2, 3)]).unwrap())
            .unwrap();
        let mut b = PhaseSchedule::new(6);
        b.push(Phase::from_flows([(0usize, 1usize), (4, 5)]).unwrap())
            .unwrap();
        let pa = AppPattern::from_schedule(&a);
        let pb = AppPattern::from_schedule(&b);
        let merged = AppPattern::merged([&pa, &pb]);
        assert_eq!(merged.n_procs(), 6);
        assert_eq!(merged.flows().len(), 3);
        // Contention from both apps survives.
        assert!(merged
            .contention()
            .conflicts(Flow::from_indices(0, 1), Flow::from_indices(2, 3)));
        assert!(merged
            .contention()
            .conflicts(Flow::from_indices(0, 1), Flow::from_indices(4, 5)));
        // But cross-application pairs are NOT invented.
        assert!(!merged
            .contention()
            .conflicts(Flow::from_indices(2, 3), Flow::from_indices(4, 5)));
        assert_eq!(merged.cliques().len(), 2);
    }

    #[test]
    fn merged_single_is_identity() {
        let mut a = PhaseSchedule::new(4);
        a.push(Phase::from_flows([(0usize, 1usize)]).unwrap())
            .unwrap();
        let pa = AppPattern::from_schedule(&a);
        assert_eq!(AppPattern::merged([&pa]), pa);
    }

    #[test]
    #[should_panic(expected = "at least one pattern")]
    fn merged_empty_panics() {
        let _ = AppPattern::merged(std::iter::empty());
    }

    /// `C` as first computed: one set insertion per intra-phase pair.
    fn contention_by_insertion(schedule: &PhaseSchedule) -> ContentionSet {
        let mut contention = ContentionSet::new();
        for phase in schedule.iter() {
            let flows: Vec<Flow> = phase.iter().collect();
            for i in 0..flows.len() {
                for j in i + 1..flows.len() {
                    contention.insert(flows[i], flows[j]);
                }
            }
        }
        contention
    }

    #[test]
    fn bulk_contention_matches_pairwise_insertion() {
        let mut rng = nocsyn_rng::Rng::seed_from_u64(0xc0_11de);
        let mut nonempty = 0;
        for case in 0..600 {
            let n = rng.gen_range(2..=12usize);
            let mut sched = PhaseSchedule::new(n);
            // A small flow pool, so flows repeat across phases.
            let pool: Vec<(usize, usize)> = (0..rng.gen_range(1..=2 * n))
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .filter(|(s, d)| s != d)
                .collect();
            let mut phases: Vec<Phase> = Vec::new();
            for _ in 0..rng.gen_range(0..6usize) {
                let phase = match phases.last() {
                    // A duplicate phase, or one dominated by its
                    // predecessor: neither is a maximal clique of its own.
                    Some(prev) if rng.gen_bool(0.25) => prev.clone(),
                    Some(prev) if rng.gen_bool(0.3) => {
                        Phase::from_flows(prev.iter().filter(|_| rng.gen_bool(0.5)))
                            .expect("a subset of a phase is a phase")
                    }
                    _ => {
                        let mut phase = Phase::new();
                        for _ in 0..rng.gen_range(0..=pool.len()) {
                            if let Some(&(s, d)) = rng.choose(&pool) {
                                // A flow whose source or destination is
                                // taken in this phase is skipped.
                                let _ = phase.add(Flow::from_indices(s, d));
                            }
                        }
                        phase
                    }
                };
                phases.push(phase);
            }
            for phase in phases {
                sched.push(phase).expect("phase fits");
            }
            let bulk = AppPattern::from_schedule(&sched);
            assert_eq!(
                bulk.contention(),
                &contention_by_insertion(&sched),
                "case {case}"
            );
            nonempty += usize::from(!bulk.contention().is_empty());
        }
        assert!(nonempty > 200, "only {nonempty} schedules had contention");
    }
}
