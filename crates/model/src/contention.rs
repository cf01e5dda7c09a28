//! The potential communication contention set `C` (Definition 4).

use std::collections::BTreeSet;
use std::fmt;

use crate::{Flow, OverlapRelation, Trace};

/// An unordered pair of flows that potentially collide.
///
/// Definition 4 phrases each potential contention as a 4-tuple
/// `(s1, d1, s2, d2)`; since contention is symmetric, we canonicalize the
/// pair so that `first <= second` under the lexicographic flow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowPair {
    first: Flow,
    second: Flow,
}

impl FlowPair {
    /// Creates a canonicalized pair (argument order does not matter).
    pub fn new(a: Flow, b: Flow) -> Self {
        if a <= b {
            FlowPair {
                first: a,
                second: b,
            }
        } else {
            FlowPair {
                first: b,
                second: a,
            }
        }
    }

    /// The lexicographically smaller flow.
    pub const fn first(&self) -> Flow {
        self.first
    }

    /// The lexicographically larger flow.
    pub const fn second(&self) -> Flow {
        self.second
    }

    /// Whether the pair mentions `flow`.
    pub fn involves(&self, flow: Flow) -> bool {
        self.first == flow || self.second == flow
    }
}

impl fmt::Display for FlowPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.first, self.second)
    }
}

/// The potential communication contention set `C` of an application.
///
/// Contains every unordered pair of flows carried by two distinct messages
/// that overlap in time. Pairs of *identical* flows (the same
/// source–destination pair overlapping itself, e.g. pipelined repeats) are
/// retained, as Definition 4 admits them.
///
/// ```
/// use nocsyn_model::{ContentionSet, Flow, Message, ProcId, Trace};
/// # fn main() -> Result<(), nocsyn_model::ModelError> {
/// let mut t = Trace::new(4);
/// t.push(Message::new(ProcId(0), ProcId(1), 0, 10)?)?;
/// t.push(Message::new(ProcId(2), ProcId(3), 5, 15)?)?;
/// let c = ContentionSet::from_trace(&t);
/// assert!(c.conflicts(Flow::from_indices(0, 1), Flow::from_indices(2, 3)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContentionSet {
    pairs: BTreeSet<FlowPair>,
}

impl ContentionSet {
    /// Creates an empty contention set (that of a contention-free pattern).
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes `C` for a trace by compressing its overlap relation onto
    /// flows.
    pub fn from_trace(trace: &Trace) -> Self {
        let overlap = OverlapRelation::from_trace(trace);
        Self::from_overlap(trace, &overlap)
    }

    /// Computes `C` from a precomputed overlap relation.
    pub fn from_overlap(trace: &Trace, overlap: &OverlapRelation) -> Self {
        let mut pairs = BTreeSet::new();
        for (a, b) in overlap.iter() {
            let (fa, fb) = (trace[a].flow(), trace[b].flow());
            pairs.insert(FlowPair::new(fa, fb));
        }
        ContentionSet { pairs }
    }

    /// Inserts a pair; returns whether it was newly added.
    pub fn insert(&mut self, a: Flow, b: Flow) -> bool {
        self.pairs.insert(FlowPair::new(a, b))
    }

    /// Whether flows `a` and `b` potentially collide.
    pub fn conflicts(&self, a: Flow, b: Flow) -> bool {
        self.pairs.contains(&FlowPair::new(a, b))
    }

    /// Number of distinct potential contention pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the pattern has no potential contention at all.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Iterates over the canonicalized pairs in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = FlowPair> + '_ {
        self.pairs.iter().copied()
    }

    /// All pairs that mention `flow`.
    pub fn pairs_involving(&self, flow: Flow) -> impl Iterator<Item = FlowPair> + '_ {
        self.pairs.iter().copied().filter(move |p| p.involves(flow))
    }
}

impl FromIterator<FlowPair> for ContentionSet {
    fn from_iter<I: IntoIterator<Item = FlowPair>>(iter: I) -> Self {
        ContentionSet {
            pairs: iter.into_iter().collect(),
        }
    }
}

impl Extend<FlowPair> for ContentionSet {
    fn extend<I: IntoIterator<Item = FlowPair>>(&mut self, iter: I) {
        self.pairs.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, ProcId};

    #[test]
    fn flow_pair_is_canonical() {
        let a = Flow::from_indices(5, 6);
        let b = Flow::from_indices(1, 2);
        assert_eq!(FlowPair::new(a, b), FlowPair::new(b, a));
        assert_eq!(FlowPair::new(a, b).first(), b);
    }

    #[test]
    fn repeated_pattern_is_compressed() {
        // The same pair of overlapping flows repeated in three program
        // phases contributes a single contention pair (the paper's
        // phase-parallel compression).
        let mut t = Trace::new(4);
        for phase in 0..3u64 {
            let base = phase * 100;
            t.push(Message::new(ProcId(0), ProcId(1), base, base + 10).unwrap())
                .unwrap();
            t.push(Message::new(ProcId(2), ProcId(3), base, base + 10).unwrap())
                .unwrap();
        }
        let c = ContentionSet::from_trace(&t);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn same_flow_overlapping_itself_is_recorded() {
        let mut t = Trace::new(2);
        t.push(Message::new(ProcId(0), ProcId(1), 0, 10).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(0), ProcId(1), 5, 12).unwrap())
            .unwrap();
        let c = ContentionSet::from_trace(&t);
        let f = Flow::from_indices(0, 1);
        assert!(c.conflicts(f, f));
    }

    #[test]
    fn disjoint_messages_produce_empty_set() {
        let mut t = Trace::new(4);
        t.push(Message::new(ProcId(0), ProcId(1), 0, 9).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(2), ProcId(3), 10, 19).unwrap())
            .unwrap();
        assert!(ContentionSet::from_trace(&t).is_empty());
    }

    #[test]
    fn pairs_involving_filters() {
        let mut c = ContentionSet::new();
        let f01 = Flow::from_indices(0, 1);
        let f23 = Flow::from_indices(2, 3);
        let f45 = Flow::from_indices(4, 5);
        c.insert(f01, f23);
        c.insert(f23, f45);
        assert_eq!(c.pairs_involving(f01).count(), 1);
        assert_eq!(c.pairs_involving(f23).count(), 2);
        assert_eq!(c.pairs_involving(f45).count(), 1);
    }

    #[test]
    fn collect_and_extend() {
        let f01 = Flow::from_indices(0, 1);
        let f23 = Flow::from_indices(2, 3);
        let mut c: ContentionSet = [FlowPair::new(f01, f23)].into_iter().collect();
        c.extend([FlowPair::new(f01, f01)]);
        assert_eq!(c.len(), 2);
    }
}
