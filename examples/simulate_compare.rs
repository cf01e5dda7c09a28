//! Head-to-head simulation: run the CG workload on a crossbar, a mesh, a
//! torus, and the network synthesized for it, and compare execution and
//! communication time — a miniature of the paper's Figure 8.
//!
//! Run with `cargo run --release --example simulate_compare`.

use nocsyn::prelude::*;
use nocsyn::topo::regular;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16;
    let schedule = Benchmark::Cg.schedule(n, &WorkloadParams::paper_default(Benchmark::Cg))?;

    // The four contenders.
    let (xbar, xbar_routes) = regular::crossbar(n)?;
    let (mesh, mesh_routes) = regular::mesh(4, 4)?;
    let (torus, torus_xy, torus_yx) = regular::torus_with_alternates(4, 4)?;
    let request = SynthesisRequest::builder(AppPattern::from_schedule(&schedule))
        .seed(1)
        .build()?;
    let generated = Engine::new()
        .synthesize(request)
        .result
        .expect("no deadline, so a result exists");

    let contenders: Vec<(&str, &nocsyn::topo::Network, RoutePolicy)> = vec![
        ("crossbar", &xbar, RoutePolicy::deterministic(xbar_routes)),
        ("mesh", &mesh, RoutePolicy::deterministic(mesh_routes)),
        (
            "torus",
            &torus,
            RoutePolicy::adaptive(vec![torus_xy, torus_yx]),
        ),
        (
            "generated",
            &generated.network,
            RoutePolicy::deterministic(generated.routes.clone()),
        ),
    ];

    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>9}",
        "network", "exec (cyc)", "comm (cyc)", "messages", "deadlocks"
    );
    let mut base = None;
    for (name, net, policy) in contenders {
        // Link delays follow each network's own floorplan.
        let plan = place(net, 99);
        let config = SimConfig::paper().with_link_delays(plan.link_lengths(net));
        let stats = AppDriver::new(net, policy, config).run(&schedule)?;
        let rel = match base {
            None => {
                base = Some(stats.exec_cycles as f64);
                1.0
            }
            Some(b) => stats.exec_cycles as f64 / b,
        };
        println!(
            "{:<10} {:>10} {:>12.0} {:>10} {:>9}   ({:>5.3}x crossbar)",
            name,
            stats.exec_cycles,
            stats.mean_comm_cycles,
            stats.delivered,
            stats.packets.deadlock_kills,
            rel
        );
    }
    Ok(())
}
