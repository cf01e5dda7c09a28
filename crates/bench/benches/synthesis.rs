//! Synthesis benchmarks: the paper's §3.3 complexity claims in practice.
//!
//! * whole-methodology wall time per benchmark and process count (the
//!   `O(N²KL)` claim);
//! * fast vs exact coloring during the search (the central complexity
//!   lever — DESIGN.md ablation 1).

use nocsyn_bench::timing::Runner;
use nocsyn_synth::{
    synthesize_attempt, AppPattern, ColoringStrategy, SynthesisConfig, SynthesisRequest,
    SynthesisResult,
};
use nocsyn_workloads::{Benchmark, WorkloadParams};

/// One attempt (no restart portfolio) isolates the algorithm's own cost.
fn single_run(pattern: &AppPattern, config: SynthesisConfig) -> SynthesisResult {
    let request = SynthesisRequest::builder(pattern.clone())
        .config(config)
        .build()
        .unwrap();
    synthesize_attempt(&request, 0, 0).unwrap()
}

fn bench_by_size(runner: &Runner) {
    for n in [4usize, 8, 16, 64] {
        let schedule = Benchmark::Cg
            .schedule(
                n,
                &WorkloadParams::paper_default(Benchmark::Cg).with_iterations(1),
            )
            .expect("powers of two are valid for CG");
        let pattern = AppPattern::from_schedule(&schedule);
        runner.case(&format!("synthesize/cg/{n}"), || {
            single_run(&pattern, SynthesisConfig::new().with_seed(1))
        });
    }
}

fn bench_by_benchmark(runner: &Runner) {
    for benchmark in Benchmark::ALL {
        let schedule = benchmark
            .schedule(
                16,
                &WorkloadParams::paper_default(benchmark).with_iterations(1),
            )
            .expect("16 is valid for every benchmark");
        let pattern = AppPattern::from_schedule(&schedule);
        runner.case(&format!("synthesize/16procs/{}", benchmark.name()), || {
            single_run(&pattern, SynthesisConfig::new().with_seed(2))
        });
    }
}

fn bench_coloring_strategy(runner: &Runner) {
    let schedule = Benchmark::Cg
        .schedule(
            16,
            &WorkloadParams::paper_default(Benchmark::Cg).with_iterations(1),
        )
        .expect("16 is valid for CG");
    let pattern = AppPattern::from_schedule(&schedule);
    for (name, strategy) in [
        ("fast", ColoringStrategy::Fast),
        ("exact", ColoringStrategy::Exact),
    ] {
        runner.case(&format!("synthesize/coloring-strategy/{name}"), || {
            single_run(
                &pattern,
                SynthesisConfig::new().with_seed(3).with_coloring(strategy),
            )
        });
    }
}

fn main() {
    let runner = Runner::from_env();
    bench_by_size(&runner);
    bench_by_benchmark(&runner);
    bench_coloring_strategy(&runner);
}
