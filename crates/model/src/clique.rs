//! Communication cliques and the (maximum) clique set (Definition 5).
//!
//! A *potential contention period* is a span of time over which a fixed set
//! of messages is simultaneously live. Viewing messages as vertices and time
//! overlap as edges, the messages live at any instant form a clique; the
//! *communication clique set* `K` collects the flow sets of these cliques,
//! and the *maximum clique set* drops every clique covered by a larger one
//! (if a network is contention-free for a superset, it is contention-free
//! for the subset).

use std::collections::BTreeSet;
use std::fmt;

use crate::{BitSet, Flow, FlowInterner, Trace};

/// A set of flows that are pairwise live at some common instant — one
/// partial (or full) permutation required by the application.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clique {
    flows: BTreeSet<Flow>,
}

impl Clique {
    /// Creates an empty clique.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of flows in the clique.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the clique has no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Whether `flow` is a member.
    pub fn contains(&self, flow: Flow) -> bool {
        self.flows.contains(&flow)
    }

    /// Adds a flow; returns whether it was newly inserted.
    pub fn insert(&mut self, flow: Flow) -> bool {
        self.flows.insert(flow)
    }

    /// Whether every flow of `self` also belongs to `other`.
    pub fn is_subset(&self, other: &Clique) -> bool {
        self.flows.is_subset(&other.flows)
    }

    /// Iterates over member flows in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = Flow> + '_ {
        self.flows.iter().copied()
    }

    /// Counts how many flows of this clique satisfy `pred`.
    ///
    /// This is the `||K ∩ C_f||` operation at the heart of the paper's
    /// `Fast_Color` procedure: with `pred` selecting the communications
    /// crossing a pipe, the returned count is a lower bound on the number of
    /// links that pipe needs.
    pub fn count_matching<F: FnMut(Flow) -> bool>(&self, mut pred: F) -> usize {
        self.flows.iter().filter(|&&f| pred(f)).count()
    }

    /// Compiles this clique to a bitmask over `interner`'s universe.
    ///
    /// Flows not interned are silently dropped: a flow outside the
    /// universe can never appear in a crossing set drawn from that
    /// universe, so its absence cannot change any overlap count.
    pub fn mask(&self, interner: &FlowInterner) -> BitSet {
        let mut mask = interner.empty_set();
        for &f in &self.flows {
            if let Some(id) = interner.id(f) {
                mask.insert(id);
            }
        }
        mask
    }
}

impl FromIterator<Flow> for Clique {
    fn from_iter<I: IntoIterator<Item = Flow>>(iter: I) -> Self {
        Clique {
            flows: iter.into_iter().collect(),
        }
    }
}

impl Extend<Flow> for Clique {
    fn extend<I: IntoIterator<Item = Flow>>(&mut self, iter: I) {
        self.flows.extend(iter);
    }
}

impl<const N: usize> From<[(usize, usize); N]> for Clique {
    fn from(pairs: [(usize, usize); N]) -> Self {
        pairs.into_iter().map(Flow::from).collect()
    }
}

impl fmt::Display for Clique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, flow) in self.flows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{flow}")?;
        }
        write!(f, "}}")
    }
}

/// The communication clique set `K` of an application, optionally reduced to
/// maximal members only.
///
/// ```
/// use nocsyn_model::{CliqueSet, Message, ProcId, Trace};
/// # fn main() -> Result<(), nocsyn_model::ModelError> {
/// let mut t = Trace::new(6);
/// // Period 1: two concurrent messages; period 2: one lone message.
/// t.push(Message::new(ProcId(0), ProcId(1), 0, 10)?)?;
/// t.push(Message::new(ProcId(2), ProcId(3), 0, 10)?)?;
/// t.push(Message::new(ProcId(4), ProcId(5), 20, 30)?)?;
/// let k = CliqueSet::from_trace(&t).into_maximal();
/// assert_eq!(k.len(), 2);
/// assert_eq!(k.max_clique_size(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CliqueSet {
    cliques: Vec<Clique>,
}

impl CliqueSet {
    /// Creates an empty clique set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts the communication clique set from a timed trace.
    ///
    /// Every distinct clique of Definition 5 is the set of messages live at
    /// some instant `t`; because the live set only gains members at message
    /// starts, every *maximal* live set is attained at the start of its
    /// latest-starting member. Sampling the live set at each start event
    /// therefore captures a superset of the maximal cliques; duplicates are
    /// removed here and dominated (sub-)cliques by [`CliqueSet::into_maximal`].
    pub fn from_trace(trace: &Trace) -> Self {
        let mut messages: Vec<_> = trace.messages().collect();
        messages.sort_by_key(|m| (m.start(), m.finish()));

        let mut seen = BTreeSet::new();
        let mut cliques = Vec::new();
        for (i, m) in messages.iter().enumerate() {
            let t = m.start();
            // The live set at instant t: started at or before t, not yet
            // finished. Scan is quadratic but traces are small; the
            // simulator-scale hot paths never call this.
            let clique: Clique = messages[..=i]
                .iter()
                .filter(|other| other.interval().contains(t))
                .map(|other| other.flow())
                .collect();
            if !clique.is_empty() && seen.insert(clique.clone()) {
                cliques.push(clique);
            }
        }
        CliqueSet { cliques }
    }

    /// Builds a clique set directly from explicit flow sets (e.g. the
    /// phase-parallel schedule of Section 3 where each communication-library
    /// call is one contention period).
    pub fn from_cliques<I: IntoIterator<Item = Clique>>(cliques: I) -> Self {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for c in cliques {
            if !c.is_empty() && seen.insert(c.clone()) {
                out.push(c);
            }
        }
        CliqueSet { cliques: out }
    }

    /// Reduces to the *maximum clique set*: removes every clique that is a
    /// subset of another member.
    #[must_use]
    pub fn into_maximal(self) -> CliqueSet {
        let mut by_size: Vec<Clique> = self.cliques;
        by_size.sort_by_key(|c| std::cmp::Reverse(c.len()));
        let mut maximal: Vec<Clique> = Vec::new();
        for c in by_size {
            if !maximal.iter().any(|m| c.is_subset(m)) {
                maximal.push(c);
            }
        }
        CliqueSet { cliques: maximal }
    }

    /// Number of cliques (i.e. distinct potential contention periods).
    pub fn len(&self) -> usize {
        self.cliques.len()
    }

    /// Whether there are no cliques at all.
    pub fn is_empty(&self) -> bool {
        self.cliques.is_empty()
    }

    /// Size of the largest clique (`0` when empty) — the paper's `L`.
    pub fn max_clique_size(&self) -> usize {
        self.cliques.iter().map(Clique::len).max().unwrap_or(0)
    }

    /// Iterates over the cliques.
    pub fn iter(&self) -> impl Iterator<Item = &Clique> + '_ {
        self.cliques.iter()
    }

    /// The union of all member flows — every communication the application
    /// ever performs.
    pub fn all_flows(&self) -> BTreeSet<Flow> {
        self.cliques.iter().flat_map(|c| c.iter()).collect()
    }

    /// The paper's `Fast_Color` kernel: the maximum, over all cliques, of
    /// the number of member flows satisfying `pred`.
    ///
    /// With `pred` selecting the flows that cross a pipe in one direction,
    /// this is a lower bound on the chromatic number of that direction's
    /// conflict graph and hence on the links the pipe requires.
    pub fn max_overlap_with<F: FnMut(Flow) -> bool>(&self, mut pred: F) -> usize {
        self.cliques
            .iter()
            .map(|c| c.count_matching(&mut pred))
            .max()
            .unwrap_or(0)
    }

    /// Compiles every clique to a bitmask over `interner`'s universe, in
    /// clique order (see [`Clique::mask`] for the treatment of flows
    /// outside the universe).
    ///
    /// Pre-compiling the masks turns [`CliqueSet::max_overlap_with`] into
    /// word-wise AND + popcount against a crossing [`BitSet`] — the
    /// hot-path form of `Fast_Color` used by the synthesis inner loop.
    pub fn compile_masks(&self, interner: &FlowInterner) -> Vec<BitSet> {
        self.cliques.iter().map(|c| c.mask(interner)).collect()
    }
}

impl FromIterator<Clique> for CliqueSet {
    fn from_iter<I: IntoIterator<Item = Clique>>(iter: I) -> Self {
        CliqueSet::from_cliques(iter)
    }
}

impl fmt::Display for CliqueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.cliques.iter().enumerate() {
            writeln!(f, "period {i}: {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, ProcId};

    #[test]
    fn subset_cliques_are_pruned() {
        let small = Clique::from([(1, 2), (2, 3)]);
        let big = Clique::from([(1, 2), (2, 3), (3, 4)]);
        let k = CliqueSet::from_cliques([small.clone(), big.clone()]).into_maximal();
        assert_eq!(k.len(), 1);
        assert!(k.iter().next().unwrap().contains(Flow::from_indices(3, 4)));
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
    }

    #[test]
    fn incomparable_cliques_are_both_kept() {
        let a = Clique::from([(1, 2), (2, 3)]);
        let b = Clique::from([(1, 2), (4, 5)]);
        let k = CliqueSet::from_cliques([a, b]).into_maximal();
        assert_eq!(k.len(), 2);
    }

    #[test]
    fn trace_extraction_finds_staircase_cliques() {
        // m0=[0,10], m1=[5,15], m2=[12,20]:
        // at t=0 live {m0}; t=5 live {m0,m1}; t=12 live {m1,m2}.
        let mut t = Trace::new(6);
        t.push(Message::new(ProcId(0), ProcId(1), 0, 10).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(2), ProcId(3), 5, 15).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(4), ProcId(5), 12, 20).unwrap())
            .unwrap();
        let k = CliqueSet::from_trace(&t);
        assert_eq!(k.len(), 3);
        let maximal = k.into_maximal();
        assert_eq!(maximal.len(), 2);
        assert_eq!(maximal.max_clique_size(), 2);
    }

    #[test]
    fn max_overlap_with_counts_per_clique() {
        let k = CliqueSet::from_cliques([
            Clique::from([(0, 1), (2, 3)]),
            Clique::from([(0, 1), (4, 5), (6, 7)]),
        ]);
        // Select flows with even source index: all of them here.
        assert_eq!(k.max_overlap_with(|f| f.src.0 % 2 == 0), 3);
        // Select only (0,1): appears once in each clique.
        assert_eq!(k.max_overlap_with(|f| f == Flow::from_indices(0, 1)), 1);
        // Select nothing.
        assert_eq!(k.max_overlap_with(|_| false), 0);
    }

    #[test]
    fn all_flows_unions_members() {
        let k = CliqueSet::from_cliques([
            Clique::from([(0, 1), (2, 3)]),
            Clique::from([(2, 3), (4, 5)]),
        ]);
        assert_eq!(k.all_flows().len(), 3);
    }

    #[test]
    fn compiled_masks_agree_with_count_matching() {
        let k = CliqueSet::from_cliques([
            Clique::from([(0, 1), (2, 3)]),
            Clique::from([(0, 1), (4, 5), (6, 7)]),
        ]);
        let interner = FlowInterner::from_flows(k.all_flows());
        let masks = k.compile_masks(&interner);
        assert_eq!(masks.len(), k.len());
        // The crossing set {(0,1), (4,5)} overlaps clique 0 once, clique 1
        // twice — both via popcount and via the predicate form.
        let crossing = interner.set_of([Flow::from_indices(0, 1), Flow::from_indices(4, 5)]);
        let by_mask = masks
            .iter()
            .map(|m| m.intersection_len(&crossing))
            .max()
            .unwrap();
        let by_pred = k.max_overlap_with(|f| crossing.contains(interner.id(f).unwrap()));
        assert_eq!(by_mask, 2);
        assert_eq!(by_mask, by_pred);
    }

    #[test]
    fn mask_drops_flows_outside_the_universe() {
        let clique = Clique::from([(0, 1), (8, 9)]);
        let interner = FlowInterner::from_flows([Flow::from_indices(0, 1)]);
        let mask = clique.mask(&interner);
        assert_eq!(mask.len(), 1);
        assert!(mask.contains(0));
    }

    #[test]
    fn duplicate_cliques_are_deduplicated() {
        let c = Clique::from([(0, 1)]);
        let k = CliqueSet::from_cliques([c.clone(), c.clone(), c]);
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn pairwise_overlap_within_extracted_cliques() {
        // Every pair of flows in an extracted clique must come from
        // messages that overlap — the defining clique property.
        let mut t = Trace::new(8);
        t.push(Message::new(ProcId(0), ProcId(1), 0, 4).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(2), ProcId(3), 2, 8).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(4), ProcId(5), 3, 5).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(6), ProcId(7), 9, 12).unwrap())
            .unwrap();
        let k = CliqueSet::from_trace(&t);
        for clique in k.iter() {
            let members: Vec<Flow> = clique.iter().collect();
            for i in 0..members.len() {
                for j in i + 1..members.len() {
                    let mi = t.messages().find(|m| m.flow() == members[i]).unwrap();
                    let mj = t.messages().find(|m| m.flow() == members[j]).unwrap();
                    assert!(mi.overlaps(&mj));
                }
            }
        }
    }
}
