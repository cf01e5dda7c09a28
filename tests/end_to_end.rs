//! End-to-end integration: workload generation → contention model →
//! synthesis → verification → floorplan → simulation, across crates.

use nocsyn::engine::Engine;
use nocsyn::floorplan::place;
use nocsyn::sim::{AppDriver, RoutePolicy, SimConfig};
use nocsyn::synth::{AppPattern, SynthesisConfig, SynthesisRequest, SynthesisResult};
use nocsyn::topo::verify_contention_free;
use nocsyn::workloads::{Benchmark, WorkloadParams};

/// Light parameters so debug-mode simulation stays fast.
fn light(benchmark: Benchmark) -> WorkloadParams {
    WorkloadParams::paper_default(benchmark)
        .with_iterations(1)
        .with_bytes(256)
        .with_compute(100)
}

fn fast_config(seed: u64) -> SynthesisConfig {
    SynthesisConfig::new().with_seed(seed)
}

/// The engine's best of two restarts under `config`.
fn run_portfolio(pattern: &AppPattern, config: SynthesisConfig) -> SynthesisResult {
    let request = SynthesisRequest::builder(pattern.clone())
        .config(config)
        .restarts(2)
        .build()
        .unwrap();
    Engine::new().synthesize(request).result.unwrap()
}

#[test]
fn every_benchmark_synthesizes_and_simulates_small() {
    for benchmark in Benchmark::ALL {
        let n = benchmark.paper_procs(false);
        let schedule = benchmark.schedule(n, &light(benchmark)).unwrap();
        let pattern = AppPattern::from_schedule(&schedule);
        let result = run_portfolio(&pattern, fast_config(1));

        // Structural validity.
        assert!(result.network.is_strongly_connected(), "{benchmark}");
        result.routes.validate(&result.network).unwrap();

        // Theorem 1 (independent re-check, not the report flag).
        let check = verify_contention_free(pattern.contention(), &result.routes);
        assert!(check.is_contention_free(), "{benchmark}: {check}");

        // Simulation delivers every message with no deadlock.
        let plan = place(&result.network, 2);
        let sim = SimConfig::paper().with_link_delays(plan.link_lengths(&result.network));
        let stats = AppDriver::new(
            &result.network,
            RoutePolicy::deterministic(result.routes.clone()),
            sim,
        )
        .run(&schedule)
        .unwrap();
        let expected: u64 = schedule.iter().map(|p| p.len() as u64).sum();
        assert_eq!(stats.delivered, expected, "{benchmark}");
        assert_eq!(stats.packets.deadlock_kills, 0, "{benchmark}");
    }
}

#[test]
fn generated_network_never_uses_more_switches_than_procs() {
    for benchmark in [Benchmark::Cg, Benchmark::Mg] {
        let n = benchmark.paper_procs(true);
        let schedule = benchmark.schedule(n, &light(benchmark)).unwrap();
        let result = run_portfolio(&AppPattern::from_schedule(&schedule), fast_config(3));
        assert!(result.network.n_switches() <= n);
        assert!(result.report.constraints_met);
    }
}

#[test]
fn synthesis_is_deterministic_per_seed_across_the_stack() {
    let schedule = Benchmark::Cg.schedule(8, &light(Benchmark::Cg)).unwrap();
    let pattern = AppPattern::from_schedule(&schedule);
    let a = run_portfolio(&pattern, fast_config(7));
    let b = run_portfolio(&pattern, fast_config(7));
    assert_eq!(a.network, b.network);
    assert_eq!(a.routes, b.routes);
    assert_eq!(a.placement, b.placement);
}

#[test]
fn tighter_degree_constraints_cost_resources() {
    // Relaxing the degree bound can only reduce (or keep) the number of
    // switches needed.
    let schedule = Benchmark::Cg.schedule(16, &light(Benchmark::Cg)).unwrap();
    let pattern = AppPattern::from_schedule(&schedule);
    let tight = run_portfolio(&pattern, fast_config(5).with_max_degree(4));
    let loose = run_portfolio(&pattern, fast_config(5).with_max_degree(16));
    assert!(loose.network.n_switches() <= tight.network.n_switches());
    // With degree 16, the megaswitch itself satisfies the constraint.
    assert_eq!(loose.network.n_switches(), 1);
}
