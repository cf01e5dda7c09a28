//! Synthesizing an interconnect for a custom SoC accelerator pipeline —
//! the paper's motivating use case beyond HPC benchmarks: a
//! special-purpose chip whose dataflow is known at design time.
//!
//! The fictional chip is a streaming video analytics SoC with 12 cores:
//!
//! ```text
//!   0: camera DMA        4-7: 4x decode lanes     10: detector
//!   1: preprocessor      8: feature extractor     11: DRAM controller
//!   2-3: 2x denoisers    9: tracker
//! ```
//!
//! Run with `cargo run --example custom_soc`.

use nocsyn::prelude::*;

fn pipeline_schedule() -> Result<PhaseSchedule, Box<dyn std::error::Error>> {
    let mut s = PhaseSchedule::new(12);
    // Stage A: camera feeds the preprocessor while the DRAM controller
    // streams reference frames to the tracker.
    s.push(
        Phase::from_flows([(0usize, 1usize), (11, 9)])?
            .with_bytes(8192)
            .with_compute(500),
    )?;
    // Stage B: preprocessor fans out to the two denoisers (two calls).
    s.push(
        Phase::from_flows([(1usize, 2usize), (11, 10)])?
            .with_bytes(8192)
            .with_compute(200),
    )?;
    s.push(
        Phase::from_flows([(1usize, 3usize)])?
            .with_bytes(8192)
            .with_compute(200),
    )?;
    // Stage C: denoisers feed decode lanes pairwise.
    s.push(
        Phase::from_flows([(2usize, 4usize), (3, 6)])?
            .with_bytes(4096)
            .with_compute(800),
    )?;
    s.push(
        Phase::from_flows([(2usize, 5usize), (3, 7)])?
            .with_bytes(4096)
            .with_compute(800),
    )?;
    // Stage D: decode lanes stream into the feature extractor (4 calls).
    for lane in 4..8usize {
        s.push(
            Phase::from_flows([(lane, 8usize)])?
                .with_bytes(2048)
                .with_compute(300),
        )?;
    }
    // Stage E: features to tracker and detector; results to DRAM.
    s.push(
        Phase::from_flows([(8usize, 9usize), (10, 11)])?
            .with_bytes(1024)
            .with_compute(400),
    )?;
    s.push(
        Phase::from_flows([(8usize, 10usize), (9, 11)])?
            .with_bytes(1024)
            .with_compute(400),
    )?;
    Ok(s)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schedule = pipeline_schedule()?;
    let pattern = AppPattern::from_schedule(&schedule);
    println!("{pattern}");

    // Tight budget: 4-port switches.
    let request = SynthesisRequest::builder(pattern.clone())
        .max_degree(4)
        .seed(0x50C)
        .build()?;
    let outcome = Engine::new().synthesize(request);
    let result = outcome.result.expect("no deadline, so a result exists");
    println!("\n{}", result.report);
    println!("{}", result.network);

    let check = verify_contention_free(pattern.contention(), &result.routes);
    println!("{check}");

    // Simulate the pipeline end to end on the synthesized fabric.
    let stats = AppDriver::new(
        &result.network,
        RoutePolicy::deterministic(result.routes.clone()),
        SimConfig::paper(),
    )
    .run(&schedule)?;
    println!("\nsimulated: {stats}");
    assert_eq!(stats.packets.deadlock_kills, 0);
    Ok(())
}
