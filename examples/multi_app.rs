//! One fabric for a whole workload: synthesize a single network that is
//! contention-free for *both* the CG and MG benchmarks, estimate its
//! energy, and emit a Graphviz rendering.
//!
//! Run with `cargo run --release --example multi_app`.

use nocsyn::floorplan::{estimate_energy, PowerParams};
use nocsyn::prelude::*;
use nocsyn::topo::to_dot;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cg = Benchmark::Cg.schedule(16, &WorkloadParams::paper_default(Benchmark::Cg))?;
    let mg = Benchmark::Mg.schedule(16, &WorkloadParams::paper_default(Benchmark::Mg))?;
    let p_cg = AppPattern::from_schedule(&cg);
    let p_mg = AppPattern::from_schedule(&mg);

    // One synthesis target covering both applications' contention periods.
    let merged = AppPattern::merged([&p_cg, &p_mg]);
    println!("CG:     {p_cg}");
    println!("MG:     {p_mg}");
    println!("merged: {merged}");

    let request = SynthesisRequest::builder(merged).seed(0xD0).build()?;
    let outcome = Engine::new().synthesize(request);
    let result = outcome.result.expect("no deadline, so a result exists");
    println!("\n{}", result.report);

    // The shared network is contention-free for each application alone.
    for (name, pattern) in [("CG", &p_cg), ("MG", &p_mg)] {
        let check = verify_contention_free(pattern.contention(), &result.routes);
        println!("{name}: {check}");
        assert!(check.is_contention_free());
    }

    // Energy estimate per application on the shared fabric.
    let plan = place(&result.network, 3);
    let params = PowerParams::default();
    for (name, schedule) in [("CG", &cg), ("MG", &mg)] {
        let report = estimate_energy(
            &result.network,
            &plan,
            &result.routes,
            &schedule.to_trace(),
            &params,
        );
        println!(
            "{name}: switch {:.0} + link {:.0} + leak {:.0} = {:.0} energy units",
            report.switch_dynamic,
            report.link_dynamic,
            report.leakage,
            report.total()
        );
    }

    // Graphviz rendering of the shared network (pipe `dot -Tsvg`).
    println!("\n{}", to_dot(&result.network));
    Ok(())
}
