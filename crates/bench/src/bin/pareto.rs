//! Multi-objective sweep (the paper's conclusion: "optimization over
//! multiple objectives"): the resource trade-off curve across switch port
//! budgets for each 16-node benchmark, through the same engine sweep as
//! `nocsyn synth --pareto`.

use nocsyn_bench::HarnessError;
use nocsyn_engine::{Engine, JobError};
use nocsyn_synth::{AppPattern, SynthesisRequest};
use nocsyn_workloads::{Benchmark, WorkloadParams};

fn main() -> Result<(), HarnessError> {
    println!("Pareto frontier of (port budget, switches, links), 16-node configurations");
    for benchmark in Benchmark::ALL {
        let schedule = benchmark
            .schedule(16, &WorkloadParams::paper_default(benchmark))
            .expect("16 is valid for every benchmark");
        let request = SynthesisRequest::builder(AppPattern::from_schedule(&schedule))
            .seed(0x9A_u64 ^ (benchmark as u64))
            .restarts(8)
            .build()
            .expect("8 restarts and flat mode always build");
        let sweep = Engine::new().pareto_sweep(&request).map_err(|e| match e {
            JobError::Synth(e) => HarnessError::Synth(e),
            JobError::Panicked { message } => panic!("sweep attempt panicked: {message}"),
        })?;
        println!("  {}:", benchmark.name());
        for (p, _) in sweep {
            println!(
                "    degree ≤ {:>2}: {:>2} switches, {:>2} links{}",
                p.max_degree,
                p.n_switches,
                p.n_links,
                if p.feasible {
                    ""
                } else {
                    "  (constraint NOT met)"
                }
            );
        }
    }
    println!();
    println!("expected shape: relaxing the port budget monotonically shrinks the network,");
    println!("collapsing to the single mega-switch once a switch may host everyone.");
    Ok(())
}
