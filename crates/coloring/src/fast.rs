//! The paper's `Fast_Color` procedure (Section 3.3 and Appendix).
//!
//! Solving a coloring problem for every candidate partition move would be
//! prohibitively expensive (and NP-hard in general). The paper's key
//! complexity lever is to *estimate* the links a pipe needs with a tight
//! lower bound instead: communications that belong to the same maximum
//! clique (contention period) and cross the same pipe direction pairwise
//! conflict, so they form a clique in the pipe's conflict graph — no
//! coloring can use fewer colors than the largest such intersection. The
//! bound is computed in `O(KL)` over `K` cliques of size ≤ `L`.

use std::collections::BTreeSet;

use nocsyn_model::{BitSet, CliqueSet, Flow};

/// Lower-bounds the links needed by *one direction* of a pipe carrying
/// `crossing`: the maximum, over every maximum clique, of how many clique
/// members cross.
pub fn fast_color_directed(cliques: &CliqueSet, crossing: &BTreeSet<Flow>) -> usize {
    cliques.max_overlap_with(|f| crossing.contains(&f))
}

/// The paper's `Fast_Color(Pipe P)`: estimates the number of full-duplex
/// links a pipe needs given the communications crossing it forward
/// (`forward`) and backward (`backward`).
///
/// Each direction is bounded separately ([`fast_color_directed`]); since a
/// full-duplex link serves both directions independently, the pipe needs
/// the maximum of the two.
///
/// ```
/// use std::collections::BTreeSet;
/// use nocsyn_coloring::fast_color;
/// use nocsyn_model::{Clique, CliqueSet, Flow};
///
/// // One contention period with 4 concurrent flows.
/// let cliques = CliqueSet::from_cliques([Clique::from([(0, 8), (1, 9), (8, 0), (9, 1)])]);
/// let forward: BTreeSet<Flow> =
///     [Flow::from_indices(0, 8), Flow::from_indices(1, 9)].into();
/// let backward: BTreeSet<Flow> =
///     [Flow::from_indices(8, 0), Flow::from_indices(9, 1)].into();
/// // Two simultaneous crossings each way -> 2 links suffice at minimum.
/// assert_eq!(fast_color(&cliques, &forward, &backward), 2);
/// ```
pub fn fast_color(
    cliques: &CliqueSet,
    forward: &BTreeSet<Flow>,
    backward: &BTreeSet<Flow>,
) -> usize {
    fast_color_directed(cliques, forward).max(fast_color_directed(cliques, backward))
}

/// Bitset form of [`fast_color_directed`]: the clique masks come from
/// [`CliqueSet::compile_masks`] and `crossing` is a [`BitSet`] over the
/// same interner, so each clique costs one AND + popcount pass instead of
/// a tree probe per member.
///
/// Computes the identical integer as the predicate form — `|mask ∩
/// crossing|` is the same count whichever representation holds the sets —
/// which is what keeps bitset-backed synthesis bit-identical.
pub fn fast_color_directed_masks(clique_masks: &[BitSet], crossing: &BitSet) -> usize {
    clique_masks
        .iter()
        .map(|m| m.intersection_len(crossing))
        .max()
        .unwrap_or(0)
}

/// Bitset form of [`fast_color`]: per-direction [`fast_color_directed_masks`],
/// maximum of the two.
pub fn fast_color_masks(clique_masks: &[BitSet], forward: &BitSet, backward: &BitSet) -> usize {
    fast_color_directed_masks(clique_masks, forward)
        .max(fast_color_directed_masks(clique_masks, backward))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact_chromatic, ConflictGraph};
    use nocsyn_model::{Clique, ContentionSet, FlowPair};

    fn flows(pairs: &[(usize, usize)]) -> BTreeSet<Flow> {
        pairs.iter().map(|&p| Flow::from(p)).collect()
    }

    #[test]
    fn empty_inputs_need_zero_links() {
        let k = CliqueSet::new();
        assert_eq!(fast_color(&k, &BTreeSet::new(), &BTreeSet::new()), 0);
        let k2 = CliqueSet::from_cliques([Clique::from([(0, 1)])]);
        assert_eq!(fast_color(&k2, &BTreeSet::new(), &BTreeSet::new()), 0);
    }

    #[test]
    fn directions_are_independent() {
        let k = CliqueSet::from_cliques([Clique::from([(0, 4), (1, 5), (4, 0)])]);
        let fwd = flows(&[(0, 4), (1, 5)]);
        let bwd = flows(&[(4, 0)]);
        assert_eq!(fast_color_directed(&k, &fwd), 2);
        assert_eq!(fast_color_directed(&k, &bwd), 1);
        assert_eq!(fast_color(&k, &fwd, &bwd), 2);
    }

    #[test]
    fn paper_cut_example_shape() {
        // Mirrors the paper's Cut 1 vs Cut 2 discussion (Fig. 2): more
        // messages crossing a cut does not imply more links if they fall in
        // different contention periods.
        let k = CliqueSet::from_cliques([
            Clique::from([(9, 10), (1, 2)]),
            Clique::from([(9, 11), (3, 4)]),
            Clique::from([(8, 14), (4, 13), (7, 10)]),
        ]);
        // Five messages cross this cut, but at most three are concurrent.
        let crossing = flows(&[(9, 10), (9, 11), (8, 14), (4, 13), (7, 10)]);
        assert_eq!(fast_color_directed(&k, &crossing), 3);
    }

    #[test]
    fn fast_color_lower_bounds_exact_coloring() {
        // Build a contention set whose conflict graph we can color exactly
        // and confirm the clique bound never exceeds the chromatic number.
        let periods = [
            vec![(0, 4), (1, 5), (2, 6)],
            vec![(0, 4), (3, 7)],
            vec![(1, 5), (2, 6), (3, 7)],
        ];
        let k = CliqueSet::from_cliques(
            periods
                .iter()
                .map(|p| p.iter().map(|&q| Flow::from(q)).collect::<Clique>()),
        );
        let crossing: BTreeSet<Flow> = periods.iter().flatten().map(|&q| Flow::from(q)).collect();

        // Contention set: pairs co-resident in a period.
        let mut c = ContentionSet::new();
        for p in &periods {
            for i in 0..p.len() {
                for j in i + 1..p.len() {
                    c.extend([FlowPair::new(Flow::from(p[i]), Flow::from(p[j]))]);
                }
            }
        }
        let graph = ConflictGraph::from_flows(crossing.iter().copied().collect(), &c);
        let chi = exact_chromatic(&graph).n_colors();
        let bound = fast_color_directed(&k, &crossing);
        assert!(bound <= chi, "bound {bound} exceeds chromatic number {chi}");
        assert_eq!(bound, 3);
        // The three periods pairwise cover every flow pair, so the conflict
        // graph is K4 and the true chromatic number is 4: the fast bound is
        // a *lower* bound and can be loose — exactly why the paper re-runs
        // formal coloring at finalization.
        assert_eq!(chi, 4);
    }

    #[test]
    fn bound_counts_only_crossing_members() {
        let k = CliqueSet::from_cliques([Clique::from([(0, 1), (2, 3), (4, 5), (6, 7)])]);
        let crossing = flows(&[(0, 1), (4, 5)]);
        assert_eq!(fast_color_directed(&k, &crossing), 2);
    }

    #[test]
    fn mask_form_matches_predicate_form() {
        use nocsyn_model::FlowInterner;

        let k = CliqueSet::from_cliques([
            Clique::from([(9, 10), (1, 2)]),
            Clique::from([(9, 11), (3, 4)]),
            Clique::from([(8, 14), (4, 13), (7, 10)]),
        ]);
        let interner = FlowInterner::from_flows(k.all_flows());
        let masks = k.compile_masks(&interner);

        let fwd = flows(&[(9, 10), (9, 11), (8, 14), (4, 13), (7, 10)]);
        let bwd = flows(&[(1, 2), (3, 4)]);
        let fwd_mask = interner.set_of(fwd.iter().copied());
        let bwd_mask = interner.set_of(bwd.iter().copied());

        assert_eq!(
            fast_color_directed_masks(&masks, &fwd_mask),
            fast_color_directed(&k, &fwd)
        );
        assert_eq!(
            fast_color_directed_masks(&masks, &bwd_mask),
            fast_color_directed(&k, &bwd)
        );
        assert_eq!(
            fast_color_masks(&masks, &fwd_mask, &bwd_mask),
            fast_color(&k, &fwd, &bwd)
        );
        assert_eq!(fast_color_directed_masks(&[], &fwd_mask), 0);
    }
}
