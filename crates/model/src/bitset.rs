//! The dense id bitset kernel.
//!
//! The paper's Theorem 1 (`C ∩ R = ∅`) and its `Fast_Color` bound (the
//! largest overlap of a pipe's crossing set with a maximum clique) are set
//! arithmetic over small dense ids. Answering them over `BTreeSet<Flow>`
//! costs a tree probe per member; this module provides the flat
//! representation that turns them into machine words. A [`BitSet`] is a
//! growable `Vec<u64>` bitset over ids, so an overlap is word-wise AND +
//! popcount and a route edit is a word-wise XOR. It is the one set type
//! for every id space in the workspace: flows crossing a pipe, the
//! directed resources of a route footprint, conflict-graph adjacency rows
//! and coloring masks.
//!
//! A [`FlowInterner`] assigns every distinct flow of a pattern a
//! contiguous id — its rank in the sorted flow list — so iterating a
//! flow [`BitSet`] (ids ascend) visits flows in exactly the lexicographic
//! order a `BTreeSet<Flow>` iterates in. Every algorithm that swaps one
//! for the other therefore visits elements in the identical order — the
//! keystone of the bit-identical-results guarantee (DESIGN.md §11–12).

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::Flow;

/// Word size of the backing storage.
const BITS: usize = u64::BITS as usize;

/// Interns the distinct flows of a pattern to contiguous ids `0..len`.
///
/// Ids are assigned by lexicographic flow order, so `id` / `flow` are
/// order-preserving bijections between ids and member flows.
///
/// ```
/// use nocsyn_model::{Flow, FlowInterner};
///
/// let interner = FlowInterner::from_flows([
///     Flow::from_indices(2, 3),
///     Flow::from_indices(0, 1),
///     Flow::from_indices(2, 3), // duplicates collapse
/// ]);
/// assert_eq!(interner.len(), 2);
/// assert_eq!(interner.id(Flow::from_indices(0, 1)), Some(0));
/// assert_eq!(interner.flow(1), Flow::from_indices(2, 3));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowInterner {
    /// Sorted, deduplicated member flows; a flow's index is its id.
    flows: Vec<Flow>,
}

impl FlowInterner {
    /// Interns the given flows (sorted and deduplicated internally).
    pub fn from_flows<I: IntoIterator<Item = Flow>>(flows: I) -> Self {
        let mut flows: Vec<Flow> = flows.into_iter().collect();
        flows.sort_unstable();
        flows.dedup();
        FlowInterner { flows }
    }

    /// Wraps an already strictly sorted flow list without re-sorting.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `flows` is not strictly ascending.
    pub fn from_sorted_flows(flows: Vec<Flow>) -> Self {
        debug_assert!(
            flows.windows(2).all(|w| w[0] < w[1]),
            "flows must be strictly sorted"
        );
        FlowInterner { flows }
    }

    /// Number of interned flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow is interned.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The id of `flow`, if it is a member.
    pub fn id(&self, flow: Flow) -> Option<usize> {
        self.flows.binary_search(&flow).ok()
    }

    /// The flow with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id >= len()`.
    pub fn flow(&self, id: usize) -> Flow {
        self.flows[id]
    }

    /// The member flows in id (= lexicographic) order.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// An empty [`BitSet`] with room for every interned id.
    pub fn empty_set(&self) -> BitSet {
        BitSet::with_capacity(self.flows.len())
    }

    /// Builds the [`BitSet`] of the given member flows.
    ///
    /// # Panics
    ///
    /// Panics if a flow is not interned — ids only make sense in the
    /// universe they were interned against.
    pub fn set_of<I: IntoIterator<Item = Flow>>(&self, flows: I) -> BitSet {
        let mut set = self.empty_set();
        for f in flows {
            let id = self.id(f).expect("flow not interned in this universe");
            set.insert(id);
        }
        set
    }

    /// Iterates the flows named by `set`'s ids, in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if `set` holds an id that is not interned.
    pub fn flows_of<'a>(&'a self, set: &'a BitSet) -> impl Iterator<Item = Flow> + 'a {
        set.iter().map(|id| self.flows[id])
    }
}

/// A growable dense bitset over ids: `Vec<u64>` words, one bit per id.
///
/// There is no fixed universe. An id past the current width reads as
/// absent; [`insert`](BitSet::insert), [`toggle`](BitSet::toggle),
/// [`union_with`](BitSet::union_with) and [`xor_with`](BitSet::xor_with)
/// widen the set, and binary operations treat missing words as zero.
/// `Eq` and `Hash` ignore trailing zero words, so a set that grew and
/// then emptied equals (and hashes like) a fresh empty set. Iteration
/// yields ids in ascending order.
///
/// ```
/// use nocsyn_model::BitSet;
///
/// let mut a = BitSet::new();
/// a.insert(0);
/// a.insert(65);
/// a.insert(129); // grows on demand
/// let b = BitSet::from_ids([65]);
/// assert_eq!(a.len(), 3);
/// assert_eq!(a.intersection_len(&b), 1);
/// a.xor_with(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), [0, 129]);
/// a.toggle(0);
/// a.toggle(129);
/// assert_eq!(a, BitSet::new());
/// ```
#[derive(Clone, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set with words already allocated for ids `0..n`, so
    /// edits below `n` never reallocate.
    pub fn with_capacity(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(BITS)],
        }
    }

    /// Builds a set from ids.
    pub fn from_ids<I: IntoIterator<Item = usize>>(ids: I) -> Self {
        let mut set = BitSet::new();
        set.extend(ids);
        set
    }

    /// The words up to the last non-zero one — the part `Eq` and `Hash`
    /// look at.
    #[inline]
    fn trimmed(&self) -> &[u64] {
        let end = self
            .words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i + 1);
        &self.words[..end]
    }

    /// The word holding `id` and the bit of `id` in it, widening the set
    /// to cover `id` first.
    #[inline]
    fn slot_mut(&mut self, id: usize) -> (&mut u64, u64) {
        let index = id / BITS;
        if self.words.len() <= index {
            self.words.resize(index + 1, 0);
        }
        (&mut self.words[index], 1 << (id % BITS))
    }

    /// Widens the set to at least `other`'s width.
    fn widen_to(&mut self, other: &BitSet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
    }

    /// Number of set ids (population count).
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no id is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears every id (the allocated width is kept).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Whether `id` is set. Ids past the current width are absent.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / BITS)
            .is_some_and(|w| w & (1 << (id % BITS)) != 0)
    }

    /// Sets `id`, widening if needed; returns whether it was newly
    /// inserted.
    #[inline]
    pub fn insert(&mut self, id: usize) -> bool {
        let (word, mask) = self.slot_mut(id);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Clears `id`; returns whether it was present.
    pub fn remove(&mut self, id: usize) -> bool {
        let present = self.contains(id);
        if present {
            self.words[id / BITS] &= !(1 << (id % BITS));
        }
        present
    }

    /// Flips `id`, widening if needed; returns whether it is set
    /// afterwards.
    #[inline]
    pub fn toggle(&mut self, id: usize) -> bool {
        let (word, mask) = self.slot_mut(id);
        *word ^= mask;
        *word & mask != 0
    }

    /// `self |= other`, widening to cover `other`.
    pub fn union_with(&mut self, other: &BitSet) {
        self.widen_to(other);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// `self &= other`; ids past `other`'s width are cleared.
    pub fn intersect_with(&mut self, other: &BitSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// `self ^= other`, widening to cover `other` — the incremental-edit
    /// primitive: XOR-ing a delta removes the ids present in both and adds
    /// the ids only in `other`, in one word-wise pass.
    pub fn xor_with(&mut self, other: &BitSet) {
        self.widen_to(other);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w ^= o;
        }
    }

    /// `self &= !other`.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// `|self ∩ other|` without materializing the intersection — the
    /// `Fast_Color` kernel (AND + popcount per word of the narrower
    /// operand).
    #[inline]
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(w, o)| (w & o).count_ones() as usize)
            .sum()
    }

    /// Iterates set ids in ascending order.
    #[inline]
    pub fn iter(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl PartialEq for BitSet {
    #[inline]
    fn eq(&self, other: &BitSet) -> bool {
        self.trimmed() == other.trimmed()
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The length goes last: Fx-style hashers mix only upward, so a
        // final round keeps the bucket bits from reading the raw last word.
        let words = self.trimmed();
        for &w in words {
            state.write_u64(w);
        }
        state.write_usize(words.len());
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, ids: I) {
        for id in ids {
            self.insert(id);
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Ones<'a>;

    fn into_iter(self) -> Ones<'a> {
        self.iter()
    }
}

/// Ascending iterator over the set ids of a [`BitSet`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_assigns_sorted_ranks() {
        let interner = FlowInterner::from_flows([
            Flow::from_indices(3, 1),
            Flow::from_indices(0, 2),
            Flow::from_indices(0, 1),
        ]);
        assert_eq!(interner.len(), 3);
        let in_order: Vec<Flow> = (0..3).map(|i| interner.flow(i)).collect();
        let mut sorted = in_order.clone();
        sorted.sort();
        assert_eq!(in_order, sorted);
        for (i, &f) in interner.flows().iter().enumerate() {
            assert_eq!(interner.id(f), Some(i));
        }
        assert_eq!(interner.id(Flow::from_indices(7, 8)), None);
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn foreign_flow_is_rejected() {
        let interner = FlowInterner::from_flows([Flow::from_indices(0, 1)]);
        let _ = interner.set_of([Flow::from_indices(5, 6)]);
    }

    #[test]
    fn edits_across_word_boundaries_grow_on_demand() {
        let mut s = BitSet::new();
        for id in [0, 63, 64, 127, 128, 199] {
            assert!(!s.contains(id));
            assert!(s.insert(id));
            assert!(!s.insert(id), "double insert of {id}");
            assert!(s.contains(id));
        }
        assert_eq!(s.len(), 6);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.remove(5000), "ids past the width are absent");
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 63, 127, 128, 199]);
        assert!(s.toggle(500));
        assert!(!s.toggle(500));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s, BitSet::with_capacity(10));
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let narrow = BitSet::from_ids([5]);
        let mut wide = BitSet::from_ids([5, 400]);
        wide.remove(400);
        assert_eq!(narrow, wide);
        wide.insert(400);
        assert_ne!(narrow, wide);
    }

    #[test]
    fn debug_renders_as_set() {
        let s = BitSet::from_ids([1, 65]);
        assert_eq!(format!("{s:?}"), "{1, 65}");
    }
}
