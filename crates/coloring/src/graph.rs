//! The conflict graph of a set of communications.

use std::fmt;

use nocsyn_model::{BitSet, ContentionSet, Flow};

/// An undirected graph whose vertices are communications (flows) and whose
/// edges join pairs that potentially conflict in time.
///
/// Adjacency is stored as per-vertex bitsets; conflict graphs are small
/// (bounded by the flows crossing one pipe), so dense storage wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    flows: Vec<Flow>,
    /// `adj[i]` holds the neighbors of vertex `i`.
    adj: Vec<BitSet>,
    n_edges: usize,
}

impl ConflictGraph {
    /// Builds the conflict graph over `flows`, joining two flows when the
    /// contention set marks them as potentially colliding.
    ///
    /// A flow paired with *itself* in the contention set (a pipelined
    /// repeat) cannot be represented as a self-edge in a coloring problem;
    /// per the paper's model such repeats are carried by the same vertex.
    pub fn from_flows(flows: Vec<Flow>, contention: &ContentionSet) -> Self {
        let n = flows.len();
        let mut adj = vec![BitSet::with_capacity(n); n];
        let mut n_edges = 0;
        for i in 0..n {
            for j in i + 1..n {
                if contention.conflicts(flows[i], flows[j]) {
                    adj[i].insert(j);
                    adj[j].insert(i);
                    n_edges += 1;
                }
            }
        }
        ConflictGraph {
            flows,
            adj,
            n_edges,
        }
    }

    /// Builds a graph from an explicit vertex count and edge list (vertex
    /// identities only; useful for tests and generic coloring).
    ///
    /// Flows are synthesized as `(i, i + n)` placeholders.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or a self-loop.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let flows = (0..n).map(|i| Flow::from_indices(i, i + n)).collect();
        let mut adj = vec![BitSet::with_capacity(n); n];
        let mut n_edges = 0;
        for &(i, j) in edges {
            assert!(i < n && j < n && i != j, "bad edge ({i}, {j}) for n = {n}");
            if adj[i].insert(j) {
                adj[j].insert(i);
                n_edges += 1;
            }
        }
        ConflictGraph {
            flows,
            adj,
            n_edges,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.flows.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// The flow at vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn flow(&self, i: usize) -> Flow {
        self.flows[i]
    }

    /// Whether vertices `i` and `j` are adjacent.
    pub fn adjacent(&self, i: usize, j: usize) -> bool {
        self.adj[i].contains(j)
    }

    /// Degree of vertex `i`.
    pub fn degree(&self, i: usize) -> usize {
        self.adj[i].len()
    }

    /// Iterates over the neighbors of vertex `i` in increasing order.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[i].iter()
    }

    /// A greedy lower bound on the clique number: grows a clique from each
    /// vertex in descending-degree order. Used as the starting lower bound
    /// for branch and bound.
    pub fn greedy_clique_bound(&self) -> usize {
        let n = self.n();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.degree(v)));
        let mut best = usize::from(n > 0);
        for &start in order.iter().take(16.min(n)) {
            let mut clique = vec![start];
            for &v in &order {
                if v != start && clique.iter().all(|&u| self.adjacent(u, v)) {
                    clique.push(v);
                }
            }
            best = best.max(clique.len());
        }
        best
    }
}

impl fmt::Display for ConflictGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "conflict graph: {} vertices, {} edges",
            self.n(),
            self.n_edges
        )?;
        for i in 0..self.n() {
            let nb: Vec<String> = self.neighbors(i).map(|j| j.to_string()).collect();
            writeln!(f, "  {} ({}): [{}]", i, self.flows[i], nb.join(", "))?;
        }
        Ok(())
    }
}

/// A proper coloring of a [`ConflictGraph`]: `color(i)` is the link index
/// assigned to vertex `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<usize>,
    n_colors: usize,
}

impl Coloring {
    /// Creates a coloring from per-vertex assignments.
    pub fn new(colors: Vec<usize>) -> Self {
        let n_colors = colors.iter().copied().max().map_or(0, |m| m + 1);
        Coloring { colors, n_colors }
    }

    /// The color (link index) of vertex `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn color(&self, i: usize) -> usize {
        self.colors[i]
    }

    /// Number of distinct colors used.
    pub fn n_colors(&self) -> usize {
        self.n_colors
    }

    /// Per-vertex color slice.
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// Whether this coloring is proper for `graph` (no edge joins two
    /// same-colored vertices) and covers every vertex.
    pub fn is_proper(&self, graph: &ConflictGraph) -> bool {
        if self.colors.len() != graph.n() {
            return false;
        }
        for i in 0..graph.n() {
            for j in graph.neighbors(i) {
                if j > i && self.colors[i] == self.colors[j] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::{Message, ProcId, Trace};

    fn triangle() -> ConflictGraph {
        ConflictGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn from_edges_builds_symmetric_adjacency() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.n_edges(), 3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.adjacent(i, j), i != j);
            }
        }
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn duplicate_edges_counted_once() {
        let g = ConflictGraph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn neighbors_across_word_boundary() {
        // 70 vertices: star centered at 0 touching 64..70.
        let edges: Vec<(usize, usize)> = (64..70).map(|j| (0, j)).collect();
        let g = ConflictGraph::from_edges(70, &edges);
        let nb: Vec<usize> = g.neighbors(0).collect();
        assert_eq!(nb, (64..70).collect::<Vec<_>>());
        assert_eq!(g.degree(0), 6);
        assert!(g.adjacent(67, 0));
    }

    #[test]
    fn from_flows_uses_contention_set() {
        let mut t = Trace::new(6);
        t.push(Message::new(ProcId(0), ProcId(1), 0, 10).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(2), ProcId(3), 5, 15).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(4), ProcId(5), 20, 30).unwrap())
            .unwrap();
        let flows: Vec<Flow> = t.flows().into_iter().collect();
        let g = ConflictGraph::from_flows(flows, &t.contention_set());
        assert_eq!(g.n(), 3);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn clique_bound_on_triangle_plus_pendant() {
        let g = ConflictGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(g.greedy_clique_bound(), 3);
    }

    #[test]
    fn clique_bound_trivial_cases() {
        assert_eq!(ConflictGraph::from_edges(0, &[]).greedy_clique_bound(), 0);
        assert_eq!(ConflictGraph::from_edges(3, &[]).greedy_clique_bound(), 1);
    }

    #[test]
    fn coloring_properness() {
        let g = triangle();
        assert!(Coloring::new(vec![0, 1, 2]).is_proper(&g));
        assert!(!Coloring::new(vec![0, 0, 1]).is_proper(&g));
        assert!(!Coloring::new(vec![0, 1]).is_proper(&g)); // wrong length
        assert_eq!(Coloring::new(vec![0, 1, 2]).n_colors(), 3);
        assert_eq!(Coloring::new(vec![]).n_colors(), 0);
    }
}
