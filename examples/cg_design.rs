//! The paper's worked example (Sections 3.1-3.4): the CG benchmark on 16
//! processors, from contention periods through cut analysis to the final
//! synthesized network and its floorplan.
//!
//! Run with `cargo run --example cg_design`.

use std::collections::BTreeSet;

use nocsyn::coloring::fast_color;
use nocsyn::floorplan::mesh_baseline;
use nocsyn::prelude::*;
use nocsyn::workloads::figure1;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 1: the communication pattern (two row-reduction rounds and a
    // transpose) as a phase schedule.
    let schedule = figure1::schedule();
    let cliques = schedule.maximum_clique_set();
    println!("CG@16 contention periods:");
    for (i, c) in cliques.iter().enumerate() {
        println!("  period {}: {c}", i + 1);
    }

    // Figure 2: comparing two bisections with the Fast_Color bound. More
    // messages cross Cut 2, yet it needs fewer links — concurrency, not
    // message count, sizes a pipe.
    let flows = schedule.all_flows();
    for (name, (side_a, _)) in [("Cut 1", figure1::cut1()), ("Cut 2", figure1::cut2())] {
        let a: BTreeSet<_> = side_a.iter().copied().collect();
        let mut fwd = BTreeSet::new();
        let mut bwd = BTreeSet::new();
        for &f in &flows {
            match (a.contains(&f.src), a.contains(&f.dst)) {
                (true, false) => drop(fwd.insert(f)),
                (false, true) => drop(bwd.insert(f)),
                _ => {}
            }
        }
        println!(
            "{name}: {} crossing messages -> {} links",
            fwd.len() + bwd.len(),
            fast_color(&cliques, &fwd, &bwd)
        );
    }

    // Figures 5-6: full synthesis and floorplan.
    let pattern = AppPattern::from_schedule(&schedule);
    let request = SynthesisRequest::builder(pattern.clone())
        .seed(0xC9)
        .build()?;
    let result = Engine::new()
        .synthesize(request)
        .result
        .expect("no deadline, so a result exists");
    println!("\n{}", result.report);

    let plan = place(&result.network, 7);
    let area = plan.area(&result.network);
    let mesh = mesh_baseline(4, 4);
    println!(
        "area vs 4x4 mesh: switch {:.0}%, link {:.0}%",
        100.0 * area.switch_area / mesh.switch_area,
        100.0 * area.link_area / mesh.link_area
    );

    // The transpose flows all get dedicated, conflict-free paths.
    let transpose = figure1::transpose_clique();
    for flow in transpose.iter().take(3) {
        println!(
            "route for {flow}: {}",
            result
                .routes
                .route(*flow)
                .expect("all pattern flows routed")
        );
    }
    let _ = Flow::from_indices(0, 1); // (see quickstart for route queries)
    Ok(())
}
