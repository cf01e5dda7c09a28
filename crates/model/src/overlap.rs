//! The time-overlap relation `O` between messages (Definition 3).

use crate::{Message, MessageId, Trace};

/// Whether two messages potentially collide, i.e. overlap in time.
///
/// This is Definition 3 of the paper. The four disjuncts in the paper's
/// formula enumerate the ways two closed intervals can intersect; they are
/// equivalent to the single test `T_s(m1) <= T_f(m2) && T_s(m2) <= T_f(m1)`,
/// which is what [`TimeInterval::overlaps`](crate::TimeInterval::overlaps)
/// computes.
///
/// ```
/// use nocsyn_model::{overlaps, Message, ProcId};
/// # fn main() -> Result<(), nocsyn_model::ModelError> {
/// let a = Message::new(ProcId(0), ProcId(1), 0, 10)?;
/// let b = Message::new(ProcId(2), ProcId(3), 5, 15)?;
/// assert!(overlaps(&a, &b));
/// # Ok(())
/// # }
/// ```
pub fn overlaps(m1: &Message, m2: &Message) -> bool {
    m1.overlaps(m2)
}

/// The materialized overlap relation `O ⊆ M × M` of a trace.
///
/// Stores each unordered pair of distinct, time-overlapping messages once,
/// as `(lo, hi)` with `lo < hi`. Built with a start-time sweep in
/// `O(M log M + |O|)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverlapRelation {
    pairs: Vec<(MessageId, MessageId)>,
}

impl OverlapRelation {
    /// Computes the overlap relation of a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut order: Vec<MessageId> = trace.message_ids().collect();
        order.sort_by_key(|&id| (trace[id].start(), trace[id].finish(), id));

        let mut pairs = Vec::new();
        // Active list of messages whose intervals may still overlap future
        // starts; pruned lazily as starts advance past their finishes.
        let mut active: Vec<MessageId> = Vec::new();
        for &id in &order {
            let start = trace[id].start();
            active.retain(|&a| trace[a].finish() >= start);
            for &a in &active {
                let (lo, hi) = if a < id { (a, id) } else { (id, a) };
                pairs.push((lo, hi));
            }
            active.push(id);
        }
        pairs.sort_unstable();
        pairs.dedup();
        OverlapRelation { pairs }
    }

    /// Number of unordered overlapping pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no two messages overlap.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether the pair `(a, b)` is in the relation.
    pub fn contains(&self, a: MessageId, b: MessageId) -> bool {
        if a == b {
            return false;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        self.pairs.binary_search(&key).is_ok()
    }

    /// Iterates over the unordered pairs, each as `(lo, hi)` with `lo < hi`.
    pub fn iter(&self) -> impl Iterator<Item = (MessageId, MessageId)> + '_ {
        self.pairs.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, ProcId};

    fn trace_of(intervals: &[(u64, u64)]) -> Trace {
        let mut t = Trace::new(2 * intervals.len());
        for (i, &(s, f)) in intervals.iter().enumerate() {
            t.push(Message::new(ProcId(2 * i), ProcId(2 * i + 1), s, f).unwrap())
                .unwrap();
        }
        t
    }

    #[test]
    fn empty_trace_has_empty_relation() {
        let t = Trace::new(4);
        let o = OverlapRelation::from_trace(&t);
        assert!(o.is_empty());
    }

    #[test]
    fn chain_of_overlaps() {
        // [0,10], [5,15], [12,20]: pairs (0,1) and (1,2) but not (0,2).
        let t = trace_of(&[(0, 10), (5, 15), (12, 20)]);
        let o = OverlapRelation::from_trace(&t);
        assert_eq!(o.len(), 2);
        assert!(o.contains(MessageId(0), MessageId(1)));
        assert!(o.contains(MessageId(2), MessageId(1)));
        assert!(!o.contains(MessageId(0), MessageId(2)));
        assert!(!o.contains(MessageId(0), MessageId(0)));
    }

    #[test]
    fn shared_endpoint_counts_as_overlap() {
        let t = trace_of(&[(0, 10), (10, 20)]);
        let o = OverlapRelation::from_trace(&t);
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn all_concurrent_messages_form_complete_relation() {
        let t = trace_of(&[(0, 10), (0, 10), (0, 10), (0, 10)]);
        let o = OverlapRelation::from_trace(&t);
        assert_eq!(o.len(), 6); // C(4,2)
    }

    #[test]
    fn sweep_matches_quadratic_reference() {
        // Deterministic pseudo-random intervals; compare against the naive
        // O(M^2) definition from the paper.
        let mut intervals = Vec::new();
        let mut x = 12345u64;
        for _ in 0..60 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (x >> 33) % 200;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let d = (x >> 33) % 50;
            intervals.push((s, s + d));
        }
        let t = trace_of(&intervals);
        let o = OverlapRelation::from_trace(&t);
        for a in t.message_ids() {
            for b in t.message_ids() {
                if a == b {
                    continue;
                }
                assert_eq!(
                    o.contains(a, b),
                    overlaps(&t[a], &t[b]),
                    "mismatch for {a:?} {b:?}"
                );
            }
        }
    }
}
