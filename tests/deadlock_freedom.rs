//! Deadlock behavior of synthesized networks: the paper reports "no
//! deadlocks were detected" across its evaluation; we can go further and
//! *prove* static freedom for most generated route tables, and show the
//! simulator's regressive recovery covers the rest.

use nocsyn::engine::Engine;
use nocsyn::sim::{AppDriver, RoutePolicy, SimConfig};
use nocsyn::synth::{AppPattern, SynthesisRequest, SynthesisResult};
use nocsyn::topo::{is_deadlock_free, ChannelDependencyGraph};
use nocsyn::workloads::{Benchmark, WorkloadParams};

fn light(benchmark: Benchmark) -> WorkloadParams {
    WorkloadParams::paper_default(benchmark)
        .with_iterations(1)
        .with_bytes(512)
        .with_compute(50)
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
fn synthesized_routes_are_statically_or_dynamically_deadlock_free() {
    for benchmark in Benchmark::ALL {
        let n = benchmark.paper_procs(false);
        let schedule = benchmark.schedule(n, &light(benchmark)).unwrap();
        let pattern = AppPattern::from_schedule(&schedule);
        let result = run_portfolio(&pattern, 0xDF, 2);

        if is_deadlock_free(&result.routes) {
            continue; // statically proven: nothing more to check
        }
        // A CDG cycle exists; the paper's defense is 3 VCs + regressive
        // recovery. The application must still complete, and with the
        // paper's VC budget no kill should actually fire for these
        // patterns (matching "no deadlocks were detected").
        let stats = AppDriver::new(
            &result.network,
            RoutePolicy::deterministic(result.routes.clone()),
            SimConfig::paper(),
        )
        .run(&schedule)
        .unwrap();
        assert_eq!(
            stats.packets.deadlock_kills, 0,
            "{benchmark}: recovery fired despite the paper's VC budget"
        );
    }
}

#[test]
fn cdg_witness_cycles_are_real_cycles() {
    // Whenever check_acyclic reports a cycle, the witness must be a
    // closed walk over actual dependencies.
    let (_, routes) = nocsyn::topo::regular::torus(1, 5).unwrap();
    let cdg = ChannelDependencyGraph::from_routes(&routes);
    let cycle = cdg.check_acyclic().expect_err("5-ring wraps");
    assert!(cycle.len() >= 4);
    assert_eq!(cycle.first(), cycle.last());
    for w in cycle.windows(2) {
        // Each consecutive pair must be a dependency of some route.
        let dependent = routes
            .iter()
            .any(|(_, r)| r.hops().windows(2).any(|h| h[0] == w[0] && h[1] == w[1]));
        assert!(
            dependent,
            "witness edge {} -> {} is not a dependency",
            w[0], w[1]
        );
    }
}
