//! Ablations of the methodology's design choices (DESIGN.md §5):
//!
//! 1. fast vs exact coloring during the search (the paper's central
//!    complexity lever);
//! 2. `Best_Route` indirect routing on/off (Figure 5(e)'s link saving);
//! 3. balance tolerance 0 / 2 / 4;
//! 4. greedy descent vs a true simulated-annealing schedule.
//!
//! Each variant synthesizes every 16-node benchmark and reports final
//! link count, switch count and wall time. Pass `--jobs N` to synthesize
//! the benchmarks of each variant on N worker threads (per-benchmark
//! results are independent, so the table is identical for any N; only
//! the wall-time column changes).

use std::time::Instant;

use nocsyn_engine::{par_map, Engine};
use nocsyn_synth::{
    AcceptanceRule, AppPattern, ColoringStrategy, SynthesisConfig, SynthesisRequest,
};
use nocsyn_workloads::{Benchmark, WorkloadParams};

struct Variant {
    name: &'static str,
    config: SynthesisConfig,
}

fn variants() -> Vec<Variant> {
    let base = SynthesisConfig::new().with_max_degree(5).with_seed(0xAB1A);
    vec![
        Variant {
            name: "paper (fast, indirect, bal 2, greedy)",
            config: base.clone(),
        },
        Variant {
            name: "exact coloring during search",
            config: base.clone().with_coloring(ColoringStrategy::Exact),
        },
        Variant {
            name: "no indirect routing (Best_Route off)",
            config: base.clone().with_indirect_routing(false),
        },
        Variant {
            name: "balance tolerance 0",
            config: base.clone().with_balance_tolerance(0),
        },
        Variant {
            name: "balance tolerance 4",
            config: base.clone().with_balance_tolerance(4),
        },
        Variant {
            name: "simulated annealing acceptance",
            config: base.with_acceptance(AcceptanceRule::default_anneal()),
        },
    ]
}

fn main() {
    let jobs = std::env::args()
        .skip(1)
        .skip_while(|a| a != "--jobs")
        .nth(1)
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1);
    println!("ablation over all 16-node benchmarks (max degree 5, fixed seed)");
    println!(
        "  {:<40} | {:>6} | {:>8} | {:>9} | {:>9}",
        "variant", "links", "switches", "cont-free", "time (ms)"
    );
    for v in variants() {
        let start = Instant::now();
        let per_benchmark = par_map(Benchmark::ALL.to_vec(), jobs, |benchmark| {
            let sched = benchmark
                .schedule(16, &WorkloadParams::paper_default(benchmark))
                .expect("16 is valid for all benchmarks");
            let request = SynthesisRequest::builder(AppPattern::from_schedule(&sched))
                .config(v.config.clone())
                .build()
                .expect("default restarts and flat mode always build");
            // One engine worker: par_map already spreads the benchmarks.
            let outcome = Engine::new().with_workers(1).synthesize(request);
            let result = outcome.result.expect("synthesis succeeds");
            (
                result.report.n_links,
                result.report.n_switches,
                result.report.contention_free,
            )
        });
        let mut links = 0usize;
        let mut switches = 0usize;
        let mut all_free = true;
        for (l, s, free) in per_benchmark {
            links += l;
            switches += s;
            all_free &= free;
        }
        let elapsed = start.elapsed().as_millis();
        println!(
            "  {:<40} | {:>6} | {:>8} | {:>9} | {:>9}",
            v.name, links, switches, all_free, elapsed
        );
    }
    println!();
    println!("expected shape: exact coloring is slower for equal-or-fewer links; disabling");
    println!("indirect routing never reduces links; annealing trades time for occasional wins.");
}
