//! Quickstart: characterize a tiny application, synthesize a network for
//! it, and verify it is contention-free.
//!
//! Run with `cargo run --example quickstart`.

use nocsyn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the application's communication as phases: each phase is
    //    one communication call — a partial permutation of flows that are
    //    live simultaneously (one contention period).
    let mut schedule = PhaseSchedule::new(8);
    // A neighbor exchange...
    schedule.push(Phase::from_flows([
        (0usize, 1usize),
        (2, 3),
        (4, 5),
        (6, 7),
    ])?)?;
    schedule.push(Phase::from_flows([
        (1usize, 0usize),
        (3, 2),
        (5, 4),
        (7, 6),
    ])?)?;
    // ...then a butterfly step.
    schedule.push(Phase::from_flows([
        (0usize, 4usize),
        (1, 5),
        (2, 6),
        (3, 7),
    ])?)?;
    schedule.push(Phase::from_flows([
        (4usize, 0usize),
        (5, 1),
        (6, 2),
        (7, 3),
    ])?)?;

    // 2. Extract the contention model (Definitions 2-5 of the paper).
    let pattern = AppPattern::from_schedule(&schedule);
    println!("{pattern}");

    // 3. Synthesize a minimal low-contention network under a maximum
    //    switch degree of 5 (the paper's running constraint): one request,
    //    run by the engine's restart portfolio (8 restarts by default).
    let request = SynthesisRequest::builder(pattern.clone())
        .max_degree(5)
        .seed(42)
        .build()?;
    let outcome = Engine::new().synthesize(request);
    let result = outcome.result.expect("no deadline, so a result exists");
    println!("\n{}", result.report);
    println!("\n{}", result.network);

    // 4. Check Theorem 1: the application's potential contention set must
    //    not intersect the network's resource conflict set.
    let report = verify_contention_free(pattern.contention(), &result.routes);
    println!("{report}");
    assert!(report.is_contention_free());

    // 5. Inspect a route: flows are source-routed over explicit channels.
    let flow = nocsyn::model::Flow::from_indices(0, 4);
    if let Some(route) = result.routes.route(flow) {
        println!("route for {flow}: {route}");
    }
    Ok(())
}
