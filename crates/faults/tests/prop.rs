//! Property tests of route repair, on the in-repo `nocsyn-check`
//! harness: repaired routes never touch failed elements, repair is
//! complete (every flow classified), and unaffected routes are kept
//! verbatim — over random grids, random fault scenarios, and real
//! synthesized networks.

use nocsyn_check::{check, check_assert, u64_in, usize_in};
use nocsyn_faults::{repair_routes, route_is_affected, DegradationReport, FaultScenario};
use nocsyn_model::Flow;
use nocsyn_synth::{synthesize_attempt, AppPattern, SynthesisRequest};
use nocsyn_topo::{regular, Network, RouteTable};
use nocsyn_workloads::{Benchmark, WorkloadParams};

/// Asserts the repair invariants for one `(net, routes, scenario)`:
/// no repaired route touches a failed element, every flow is either
/// routed or witnessed, and unaffected routes survive bit-identical.
fn assert_repair_invariants(
    net: &Network,
    routes: &RouteTable,
    scenario: &FaultScenario,
) -> nocsyn_check::CaseResult {
    let outcome = repair_routes(net, routes, scenario);
    // Completeness: routed + unroutable partitions the original flows.
    check_assert!(outcome.routes.len() + outcome.unroutable.len() == routes.len());
    for (flow, route) in outcome.routes.iter() {
        // The core property: repair never routes through a failed link
        // or switch.
        check_assert!(
            !route_is_affected(net, route, scenario),
            "repaired route for {flow} crosses {scenario}"
        );
        for ch in route.hops() {
            check_assert!(!scenario.failed_links().contains(&ch.link));
        }
        // Repaired tables stay valid walks of the *original* network.
        route
            .validate(net, flow)
            .map_err(|e| nocsyn_check::CaseError::Fail(format!("{flow}: {e}")))?;
        // Stability: unaffected routes are untouched.
        if let Some(original) = routes.route(flow) {
            if !route_is_affected(net, original, scenario) {
                check_assert!(route == original, "unaffected {flow} was rewritten");
            }
        }
    }
    Ok(())
}

#[test]
fn repair_avoids_failed_elements_on_grids() {
    check(
        "repair_avoids_failed_elements_on_grids",
        (
            (usize_in(2..5), usize_in(2..5)),
            (usize_in(0..4), usize_in(0..3)),
            u64_in(0..1_000_000),
        ),
        |&((rows, cols), (n_links, n_switches), seed)| {
            let (net, routes) = regular::mesh(rows, cols).unwrap();
            let scenario = FaultScenario::sample(&net, n_links, n_switches, seed);
            assert_repair_invariants(&net, &routes, &scenario)?;
            let (net, routes) = regular::torus(rows.max(3), cols.max(3)).unwrap();
            let scenario = FaultScenario::sample(&net, n_links, n_switches, seed);
            assert_repair_invariants(&net, &routes, &scenario)
        },
    );
}

#[test]
fn repair_avoids_failed_elements_on_synthesized_networks() {
    check_fewer_cases();
}

/// Synthesized CG/MG networks at 8 procs: exhaustive single-link and
/// single-switch faults plus a few sampled multi-fault scenarios.
fn check_fewer_cases() {
    nocsyn_check::check_n(
        "repair_avoids_failed_elements_on_synthesized_networks",
        12,
        (
            nocsyn_check::choice([Benchmark::Cg, Benchmark::Mg]),
            u64_in(0..64),
        ),
        |&(benchmark, seed)| {
            let sched = benchmark
                .schedule(
                    8,
                    &WorkloadParams::paper_default(benchmark).with_iterations(1),
                )
                .unwrap();
            let pattern = AppPattern::from_schedule(&sched);
            let request = SynthesisRequest::builder(pattern)
                .seed(seed)
                .build()
                .unwrap();
            let result = synthesize_attempt(&request, 0).unwrap();
            for scenario in FaultScenario::enumerate_single_link_faults(&result.network)
                .into_iter()
                .chain(FaultScenario::enumerate_single_switch_faults(
                    &result.network,
                ))
                .chain((0..4).map(|k| FaultScenario::sample(&result.network, 2, 1, seed ^ k)))
            {
                assert_repair_invariants(&result.network, &result.routes, &scenario)?;
            }
            Ok(())
        },
    );
}

/// Degradation analysis classifies exactly the original flow set, and its
/// counts are consistent with the fates, for arbitrary scenarios.
#[test]
fn degradation_report_is_total_and_consistent() {
    check(
        "degradation_report_is_total_and_consistent",
        (
            usize_in(2..4),
            usize_in(2..4),
            usize_in(0..3),
            u64_in(0..1_000_000),
        ),
        |&(rows, cols, n_links, seed)| {
            let (net, routes) = regular::mesh(rows, cols).unwrap();
            let mut contention = nocsyn_model::ContentionSet::new();
            let n = rows * cols;
            contention.insert(Flow::from_indices(0, n - 1), Flow::from_indices(1, n - 2));
            let scenario = FaultScenario::sample(&net, n_links, 0, seed);
            let report = DegradationReport::analyze(&net, &contention, &routes, scenario);
            check_assert!(report.fates().count() == routes.len());
            check_assert!(
                report.n_repaired() + report.n_contention() + report.n_unroutable() == routes.len()
            );
            check_assert!(report.n_rerouted() <= report.n_repaired());
            check_assert!(
                report.still_contention_free()
                    == (report.n_contention() == 0 && report.n_unroutable() == 0)
            );
            Ok(())
        },
    );
}
