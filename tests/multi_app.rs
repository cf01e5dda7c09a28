//! Multi-application synthesis: one network provisioned for a set of
//! characterized applications (the design point motivated by the paper's
//! §4.2 sensitivity experiment).

use nocsyn::engine::Engine;
use nocsyn::floorplan::place;
use nocsyn::sim::{AppDriver, RoutePolicy, SimConfig};
use nocsyn::synth::{AppPattern, SynthesisRequest, SynthesisResult};
use nocsyn::topo::verify_contention_free;
use nocsyn::workloads::{Benchmark, WorkloadParams};

fn light(benchmark: Benchmark) -> WorkloadParams {
    WorkloadParams::paper_default(benchmark)
        .with_iterations(1)
        .with_bytes(256)
        .with_compute(100)
}

/// The engine's selected result for `pattern` at `seed` with `restarts`
/// restarts.
fn run_portfolio(pattern: &AppPattern, seed: u64, restarts: usize) -> SynthesisResult {
    let request = SynthesisRequest::builder(pattern.clone())
        .seed(seed)
        .restarts(restarts)
        .build()
        .expect("non-zero restarts build");
    Engine::new()
        .synthesize(request)
        .result
        .expect("no deadline, so a result exists")
}

#[test]
fn merged_network_is_contention_free_for_each_member() {
    let cg = Benchmark::Cg.schedule(16, &light(Benchmark::Cg)).unwrap();
    let mg = Benchmark::Mg.schedule(16, &light(Benchmark::Mg)).unwrap();
    let p_cg = AppPattern::from_schedule(&cg);
    let p_mg = AppPattern::from_schedule(&mg);
    let merged = AppPattern::merged([&p_cg, &p_mg]);

    let result = run_portfolio(&merged, 0x3A, 2);
    assert!(result.network.is_strongly_connected());
    result.routes.validate(&result.network).unwrap();

    // Contention-free for each application individually.
    for (name, pattern) in [("CG", &p_cg), ("MG", &p_mg)] {
        let report = verify_contention_free(pattern.contention(), &result.routes);
        assert!(report.is_contention_free(), "{name}: {report}");
    }

    // Both applications simulate cleanly on the shared fabric.
    let plan = place(&result.network, 5);
    for schedule in [&cg, &mg] {
        let sim = SimConfig::paper().with_link_delays(plan.link_lengths(&result.network));
        let stats = AppDriver::new(
            &result.network,
            RoutePolicy::deterministic(result.routes.clone()),
            sim,
        )
        .run(schedule)
        .unwrap();
        assert_eq!(stats.packets.deadlock_kills, 0);
        let expected: u64 = schedule.iter().map(|p| p.len() as u64).sum();
        assert_eq!(stats.delivered, expected);
    }
}

#[test]
fn merged_network_needs_no_more_than_sum_of_parts() {
    // Sharing pays: the merged network must not exceed the combined
    // resources of the two single-app networks.
    let cg = Benchmark::Cg.schedule(8, &light(Benchmark::Cg)).unwrap();
    let mg = Benchmark::Mg.schedule(8, &light(Benchmark::Mg)).unwrap();
    let p_cg = AppPattern::from_schedule(&cg);
    let p_mg = AppPattern::from_schedule(&mg);

    let merged = run_portfolio(&AppPattern::merged([&p_cg, &p_mg]), 0x3B, 2);
    let solo_cg = run_portfolio(&p_cg, 0x3B, 2);
    let solo_mg = run_portfolio(&p_mg, 0x3B, 2);
    assert!(
        merged.network.n_network_links()
            <= solo_cg.network.n_network_links() + solo_mg.network.n_network_links(),
        "merged {} vs {} + {}",
        merged.network.n_network_links(),
        solo_cg.network.n_network_links(),
        solo_mg.network.n_network_links()
    );
    assert!(merged.network.n_switches() <= 8);
}
