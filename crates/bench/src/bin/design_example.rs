//! The worked design example of Section 3.4: the CG benchmark on 16
//! processors (Figures 1, 2 and 5).
//!
//! Reproduces, in order: the contention periods of Figure 1; the Cut 1 vs
//! Cut 2 fast-coloring analysis of Figure 2 (4 links vs 3 links despite
//! more crossing messages); and the full synthesis run to a ≤5-degree
//! network far leaner than the 4x4 mesh, verified contention-free by
//! Theorem 1.

use std::collections::BTreeSet;

use nocsyn_coloring::fast_color;
use nocsyn_engine::Engine;
use nocsyn_floorplan::{mesh_baseline, place};
use nocsyn_model::{Flow, ProcId};
use nocsyn_synth::{AppPattern, SynthesisRequest};
use nocsyn_topo::verify_contention_free;
use nocsyn_workloads::figure1;

fn crossing(flows: &BTreeSet<Flow>, side_a: &[ProcId]) -> (BTreeSet<Flow>, BTreeSet<Flow>) {
    let a: BTreeSet<ProcId> = side_a.iter().copied().collect();
    let mut fwd = BTreeSet::new();
    let mut bwd = BTreeSet::new();
    for &f in flows {
        match (a.contains(&f.src), a.contains(&f.dst)) {
            (true, false) => {
                fwd.insert(f);
            }
            (false, true) => {
                bwd.insert(f);
            }
            _ => {}
        }
    }
    (fwd, bwd)
}

fn main() {
    // ------------------------------------------------------------------
    // Figure 1: the CG contention periods.
    // ------------------------------------------------------------------
    let sched = figure1::schedule();
    let cliques = sched.maximum_clique_set();
    println!("Figure 1 — CG@16 contention periods (0-indexed processes):");
    for (i, clique) in cliques.iter().enumerate() {
        println!("  period {}: {} flows: {}", i + 1, clique.len(), clique);
    }
    println!();

    // ------------------------------------------------------------------
    // Figure 2: Cut 1 vs Cut 2.
    // ------------------------------------------------------------------
    let all_flows = sched.all_flows();
    for (name, (a, _b), paper) in [
        ("Cut 1 (procs 1-8 | 9-16)", figure1::cut1(), 4usize),
        ("Cut 2 (procs 1-9 | 10-16)", figure1::cut2(), 3usize),
    ] {
        let (fwd, bwd) = crossing(&all_flows, &a);
        let links = fast_color(&cliques, &fwd, &bwd);
        println!(
            "{name}: {} crossing messages, Fast_Color -> {links} links (paper: {paper})",
            fwd.len() + bwd.len()
        );
        assert_eq!(links, paper, "cut analysis must match the paper");
    }
    println!();

    // ------------------------------------------------------------------
    // Figure 5: full synthesis under max node degree 5.
    // ------------------------------------------------------------------
    let pattern = AppPattern::from_schedule(&sched);
    let request = SynthesisRequest::builder(pattern.clone())
        .max_degree(5)
        .seed(0xF15)
        .build()
        .expect("default restarts and flat mode always build");
    let outcome = Engine::new().synthesize(request);
    let result = outcome.result.expect("CG pattern synthesizes");
    println!("synthesis under max node degree 5:");
    println!("{}", result.report);
    println!("report (JSON): {}", result.report.to_json());
    println!();
    println!("{}", result.network);

    let report = verify_contention_free(pattern.contention(), &result.routes);
    println!("Theorem 1 check: {report}");
    assert!(report.is_contention_free());

    let plan = place(&result.network, 0xF15);
    let area = plan.area(&result.network);
    let mesh = mesh_baseline(4, 4);
    println!(
        "area vs 4x4 mesh: switches {:.0}/{:.0} ({:.0}%), link area {:.0}/{:.0} ({:.0}%)",
        area.switch_area,
        mesh.switch_area,
        100.0 * area.switch_area / mesh.switch_area,
        area.link_area,
        mesh.link_area,
        100.0 * area.link_area / mesh.link_area,
    );
    println!();
    println!("paper reference (Figs 5(f), 6(b), 7(b)): ~6 switches, ~50% switch and ~42%");
    println!("link area of the mesh, contention-free for the CG pattern.");
}
