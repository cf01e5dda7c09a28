//! Figure 8 reproduction: total execution time and communication time of
//! mesh, torus and generated networks, normalized to a fully-connected
//! non-blocking crossbar, measured by closed-loop flit-level simulation.
//!
//! Usage: `fig8 [--nodes small|large|both] [--json] [--jobs N]` (default:
//! both, human-readable table; `--json` emits one machine-readable array
//! of row records instead; `--jobs` runs the per-benchmark
//! synthesize-and-simulate pipelines on N worker threads, printing in the
//! paper's order — output identical for any N). Run in release mode; the
//! 16-node FFT simulation covers hundreds of thousands of cycles.

use nocsyn_bench::{build_instance, Fig8Row, FigureArgs, HarnessError, NetworkKind};
use nocsyn_engine::par_map;
use nocsyn_model::json::JsonValue;
use nocsyn_sim::ExecutionStats;
use nocsyn_workloads::{Benchmark, WorkloadParams};

fn row_for(
    benchmark: Benchmark,
    large: bool,
) -> Result<(Fig8Row, [ExecutionStats; 4]), HarnessError> {
    let n = benchmark.paper_procs(large);
    let sched = benchmark
        .schedule(n, &WorkloadParams::paper_default(benchmark))
        .expect("paper process counts are valid");
    let seed = 0xF18 ^ (n as u64) ^ ((benchmark as u64) << 8);

    let mut stats = Vec::with_capacity(4);
    for kind in NetworkKind::ALL {
        let inst = build_instance(kind, &sched, seed)?;
        stats.push(inst.simulate(&sched)?);
    }
    let stats: [ExecutionStats; 4] = stats.try_into().expect("four kinds");
    let base_exec = stats[0].exec_cycles as f64;
    let base_comm = stats[0].mean_comm_cycles.max(1.0);
    let rel = |s: &ExecutionStats| {
        (
            s.exec_cycles as f64 / base_exec,
            s.mean_comm_cycles / base_comm,
        )
    };
    let (me, mc) = rel(&stats[1]);
    let (te, tc) = rel(&stats[2]);
    let (ge, gc) = rel(&stats[3]);
    Ok((
        Fig8Row {
            benchmark,
            n_procs: n,
            exec: [me, te, ge],
            comm: [mc, tc, gc],
        },
        stats,
    ))
}

fn main() -> Result<(), HarnessError> {
    let FigureArgs {
        configs,
        json,
        jobs,
    } = FigureArgs::from_env("fig8");
    let combos: Vec<(bool, Benchmark)> = configs
        .iter()
        .flat_map(|&large| Benchmark::ALL.into_iter().map(move |b| (large, b)))
        .collect();
    // Each row is an independent synthesize-and-simulate pipeline; fan
    // them across the worker pool, keeping the paper's row order.
    let results = par_map(combos, jobs, |(large, benchmark)| row_for(benchmark, large));
    let mut results = results.into_iter();
    if json {
        let mut rows = Vec::new();
        for _ in &configs {
            for _ in Benchmark::ALL {
                let (row, stats) = results.next().expect("one row per combo")?;
                let kills: u64 = stats.iter().map(|s| s.packets.deadlock_kills).sum();
                let mut record = row.to_json();
                if let JsonValue::Object(pairs) = &mut record {
                    pairs.push(("deadlock_kills".into(), JsonValue::from(kills)));
                }
                rows.push(record);
            }
        }
        println!("{}", JsonValue::array(rows));
        return Ok(());
    }
    for large in configs {
        let label = if large {
            "Figure 8(b): 16-node configurations"
        } else {
            "Figure 8(a): 8/9-node configurations"
        };
        println!("{label}");
        println!("  times normalized to the non-blocking crossbar (crossbar = 1.00)");
        println!(
            "  {:<5} {:>5} | {:>22} | {:>22} | {:>9}",
            "bench", "procs", "exec  (mesh torus gen)", "comm  (mesh torus gen)", "deadlocks"
        );
        for _ in Benchmark::ALL {
            let (row, stats) = results.next().expect("one row per combo")?;
            let kills: u64 = stats.iter().map(|s| s.packets.deadlock_kills).sum();
            println!(
                "  {:<5} {:>5} |   {:>5.3} {:>5.3} {:>6.3} |   {:>5.3} {:>5.3} {:>6.3} | {:>9}",
                row.benchmark.name(),
                row.n_procs,
                row.exec[0],
                row.exec[1],
                row.exec[2],
                row.comm[0],
                row.comm[1],
                row.comm[2],
                kills
            );
        }
        println!();
    }
    println!("paper reference: generated within 4% of the crossbar everywhere; at 16 nodes");
    println!("CG's generated network cuts comm ~26% and exec ~18% vs the mesh; no deadlocks.");
    Ok(())
}
