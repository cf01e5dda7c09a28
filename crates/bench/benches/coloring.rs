//! Coloring benchmarks: the `O(KL)` fast bound versus real coloring.

use nocsyn_bench::timing::Runner;
use nocsyn_coloring::{
    exact_chromatic, fast_color_directed_masks, greedy_dsatur, two_color, ConflictGraph,
};
use nocsyn_model::{Clique, CliqueSet, ContentionSet, Flow, FlowInterner};

/// Deterministic pseudo-random conflict graph of `n` vertices with edge
/// probability ~1/3.
fn random_graph(n: usize, mut seed: u64) -> ConflictGraph {
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (seed >> 59).is_multiple_of(3) {
                edges.push((i, j));
            }
        }
    }
    ConflictGraph::from_edges(n, &edges)
}

fn bench_graph_coloring(runner: &Runner) {
    for n in [8usize, 16, 32] {
        let graph = random_graph(n, 42);
        runner.case(&format!("coloring/graph/dsatur/{n}"), || {
            greedy_dsatur(&graph)
        });
        runner.case(&format!("coloring/graph/exact/{n}"), || {
            exact_chromatic(&graph)
        });
        runner.case(&format!("coloring/graph/two-color/{n}"), || {
            two_color(&graph)
        });
    }
}

fn bench_fast_color(runner: &Runner) {
    // K cliques of L flows each, with half the flows crossing the probe
    // set: the paper's O(KL) estimate, in the form the search calls — the
    // cliques compiled to masks over a flow interner once, the crossing
    // set a bitset over the same interner.
    for (k, l) in [(8usize, 8usize), (32, 16), (128, 16), (32, 64)] {
        let cliques = CliqueSet::from_cliques((0..k).map(|i| {
            (0..l)
                .map(|j| Flow::from_indices(2 * (i * l + j), 2 * (i * l + j) + 1))
                .collect::<Clique>()
        }));
        let interner = FlowInterner::from_flows(cliques.iter().flat_map(|c| c.iter()));
        let masks = cliques.compile_masks(&interner);
        let crossing = interner.set_of(
            cliques
                .iter()
                .flat_map(|c| c.iter())
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(_, f)| f),
        );
        runner.case(&format!("coloring/fast-bound/K{k}-L{l}"), || {
            fast_color_directed_masks(&masks, &crossing)
        });
    }
}

fn bench_conflict_graph_build(runner: &Runner) {
    for n in [16usize, 64, 256] {
        let flows: Vec<Flow> = (0..n).map(|i| Flow::from_indices(i, i + n)).collect();
        let mut contention = ContentionSet::new();
        for i in (0..n).step_by(2) {
            for j in (1..n).step_by(3) {
                if i != j {
                    contention.insert(flows[i], flows[j]);
                }
            }
        }
        runner.case(&format!("coloring/build/{n}"), || {
            ConflictGraph::from_flows(flows.clone(), &contention)
        });
    }
}

fn main() {
    let runner = Runner::from_env();
    bench_graph_coloring(&runner);
    bench_fast_color(&runner);
    bench_conflict_graph_build(&runner);
}
