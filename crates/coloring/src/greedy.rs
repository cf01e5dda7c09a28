//! DSATUR greedy coloring: a fast, good upper bound.

use nocsyn_model::BitSet;

use crate::{Coloring, ConflictGraph};

/// Colors `graph` with the DSATUR heuristic (Brélaz 1979): repeatedly pick
/// the uncolored vertex with the most distinctly-colored neighbors
/// (saturation), breaking ties by degree then index, and give it the lowest
/// feasible color.
///
/// DSATUR is exact on bipartite graphs and typically within one color of
/// optimal on the small, dense conflict graphs pipe sizing produces. The
/// result is always a *proper* coloring; its color count is an upper bound
/// on the chromatic number.
pub fn greedy_dsatur(graph: &ConflictGraph) -> Coloring {
    let n = graph.n();
    let mut colors: Vec<Option<usize>> = vec![None; n];
    // The colors of v's colored neighbors, and how many there are.
    let mut neighbor_colors = vec![BitSet::new(); n];
    let mut saturation = vec![0usize; n];

    for _ in 0..n {
        // Select the most saturated uncolored vertex.
        let v = (0..n)
            .filter(|&v| colors[v].is_none())
            .max_by_key(|&v| (saturation[v], graph.degree(v), std::cmp::Reverse(v)))
            .expect("an uncolored vertex remains");

        // Lowest color absent from v's neighborhood.
        let mut color = 0;
        while neighbor_colors[v].contains(color) {
            color += 1;
        }
        colors[v] = Some(color);

        for u in graph.neighbors(v) {
            if colors[u].is_none() && neighbor_colors[u].insert(color) {
                saturation[u] += 1;
            }
        }
    }

    Coloring::new(
        colors
            .into_iter()
            .map(|c| c.expect("all vertices colored"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_uses_no_colors() {
        let g = ConflictGraph::from_edges(0, &[]);
        assert_eq!(greedy_dsatur(&g).n_colors(), 0);
    }

    #[test]
    fn edgeless_graph_uses_one_color() {
        let g = ConflictGraph::from_edges(5, &[]);
        let c = greedy_dsatur(&g);
        assert_eq!(c.n_colors(), 1);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let mut edges = Vec::new();
        for i in 0..6 {
            for j in i + 1..6 {
                edges.push((i, j));
            }
        }
        let g = ConflictGraph::from_edges(6, &edges);
        let c = greedy_dsatur(&g);
        assert_eq!(c.n_colors(), 6);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn even_cycle_is_two_colored() {
        let edges: Vec<(usize, usize)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        let g = ConflictGraph::from_edges(8, &edges);
        let c = greedy_dsatur(&g);
        assert_eq!(c.n_colors(), 2); // DSATUR is exact on bipartite graphs
        assert!(c.is_proper(&g));
    }

    #[test]
    fn odd_cycle_is_three_colored() {
        let edges: Vec<(usize, usize)> = (0..7).map(|i| (i, (i + 1) % 7)).collect();
        let g = ConflictGraph::from_edges(7, &edges);
        let c = greedy_dsatur(&g);
        assert_eq!(c.n_colors(), 3);
        assert!(c.is_proper(&g));
    }

    #[test]
    fn coloring_is_always_proper_on_random_graphs() {
        // Deterministic LCG-generated random graphs.
        let mut x = 99u64;
        for trial in 0..20 {
            let n = 5 + trial % 10;
            let mut edges = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if (x >> 60).is_multiple_of(2) {
                        edges.push((i, j));
                    }
                }
            }
            let g = ConflictGraph::from_edges(n, &edges);
            let c = greedy_dsatur(&g);
            assert!(c.is_proper(&g), "improper coloring on trial {trial}");
            assert!(c.n_colors() >= g.greedy_clique_bound());
        }
    }
}
