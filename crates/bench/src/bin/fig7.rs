//! Figure 7 reproduction: switch and link area of generated networks
//! normalized to a mesh (torus link area shown for reference).
//!
//! Usage: `fig7 [--nodes small|large|both] [--json] [--jobs N]` (default:
//! both, human-readable table; `--json` emits one machine-readable array
//! of row records instead; `--jobs` synthesizes the benchmark rows on N
//! worker threads — the rows are computed independently and printed in
//! the paper's order, so the output is identical for any N).

use nocsyn_bench::{build_instance, grid_dims, Fig7Row, FigureArgs, HarnessError, NetworkKind};
use nocsyn_engine::par_map;
use nocsyn_floorplan::mesh_baseline;
use nocsyn_model::json::JsonValue;
use nocsyn_workloads::{Benchmark, WorkloadParams};

fn row_for(benchmark: Benchmark, large: bool) -> Result<Fig7Row, HarnessError> {
    let n = benchmark.paper_procs(large);
    let sched = benchmark
        .schedule(n, &WorkloadParams::paper_default(benchmark))
        .expect("paper process counts are valid");
    let seed = 0x51ED ^ (n as u64) ^ ((benchmark as u64) << 8);
    let generated = build_instance(NetworkKind::Generated, &sched, seed)?;
    let (rows, cols) = grid_dims(n);
    let mesh = mesh_baseline(rows, cols);
    let gen_area = generated.area();
    Ok(Fig7Row {
        benchmark,
        n_procs: n,
        gen_switch: gen_area.switch_area / mesh.switch_area,
        gen_link: gen_area.link_area / mesh.link_area,
        torus_link: 2.0,
    })
}

fn main() -> Result<(), HarnessError> {
    let FigureArgs {
        configs,
        json,
        jobs,
    } = FigureArgs::from_env("fig7");
    let combos: Vec<(bool, Benchmark)> = configs
        .iter()
        .flat_map(|&large| Benchmark::ALL.into_iter().map(move |b| (large, b)))
        .collect();
    // Rows are independent synthesis+floorplan runs: fan them across the
    // worker pool, keeping the paper's row order.
    let rows = par_map(combos, jobs, |(large, benchmark)| row_for(benchmark, large));
    let mut rows = rows.into_iter();
    if json {
        let mut out = Vec::new();
        for _ in &configs {
            for _ in Benchmark::ALL {
                out.push(rows.next().expect("one row per combo")?.to_json());
            }
        }
        println!("{}", JsonValue::array(out));
        return Ok(());
    }
    for large in configs {
        let label = if large {
            "Figure 7(b): 16-node configurations"
        } else {
            "Figure 7(a): 8/9-node configurations"
        };
        println!("{label}");
        println!("  resources normalized to the mesh (mesh = 1.00); torus switch ratio is 1.00");
        println!(
            "  {:<5} {:>5} | {:>13} {:>10} | {:>16} {:>13}",
            "bench", "procs", "switch (gen)", "link (gen)", "link (torus/mesh)", "gen switches"
        );
        for _ in Benchmark::ALL {
            let row = rows.next().expect("one row per combo")?;
            let n_sw = (row.gen_switch * {
                let (r, c) = grid_dims(row.n_procs);
                (r * c) as f64
            })
            .round() as usize;
            println!(
                "  {:<5} {:>5} | {:>13.2} {:>10.2} | {:>16.2} {:>13}",
                row.benchmark.name(),
                row.n_procs,
                row.gen_switch,
                row.gen_link,
                row.torus_link,
                n_sw
            );
        }
        println!();
    }
    println!("paper reference: ~0.45-0.55 switch and ~0.25-0.60 link area for the generated");
    println!("networks; torus always 2x mesh link area at equal switch area.");
    Ok(())
}
