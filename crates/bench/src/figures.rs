//! The paper's evaluation, one function per figure.
//!
//! `reproduce <figure>` prints [`Figure::render`]. EXPERIMENTS.md quotes
//! every figure's text verbatim, and `tests/reproduce.rs` holds each
//! block to it byte for byte. A figure is a pure function of the seeds
//! pinned here: rows that fan out over [`par_map`] come back in input
//! order, so the worker count never reaches the text. The one wall-clock
//! value, the ablation's time per variant, goes to stderr.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use nocsyn_coloring::fast_color;
use nocsyn_engine::{par_map, Engine, JobError};
use nocsyn_faults::{DegradationReport, FaultScenario};
use nocsyn_floorplan::{mesh_baseline, place, torus_baseline};
use nocsyn_model::{Flow, PhaseSchedule, ProcId, SkewModel};
use nocsyn_sim::{run_trace, AppDriver, ExecutionStats, RoutePolicy, SimConfig};
use nocsyn_synth::{
    AcceptanceRule, AppPattern, ColoringStrategy, SynthesisConfig, SynthesisRequest,
};
use nocsyn_topo::{is_deadlock_free, regular, verify_contention_free, RouteTable};
use nocsyn_workloads::{figure1, open_loop_traffic, Benchmark, TrafficPattern, WorkloadParams};

use crate::{build_instance, HarnessError, Instance, NetworkKind};

/// `writeln!` into a `String`, which cannot fail.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// One evaluation artifact of the paper (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figures 1, 2 and 5: the worked CG design example.
    DesignExample,
    /// Figure 7: switch and link area of the generated networks over the
    /// mesh's.
    Fig7,
    /// Figure 8: execution and communication time over the crossbar's, by
    /// closed-loop simulation.
    Fig8,
    /// Section 4.2: foreign traces on the network generated for CG.
    Sensitivity,
    /// The design-choice ablations of DESIGN.md §5.
    Ablation,
    /// Section 3.4: per-link utilization, mesh vs generated.
    Utilization,
    /// Section 4: message latency under per-process time skew.
    SkewSweep,
    /// Section 4.2: execution time vs virtual channels per link.
    VcSweep,
    /// The conclusion's multi-objective sweep over degree bounds.
    Pareto,
    /// Off-design uniform-random traffic, mesh vs generated.
    LoadLatency,
    /// Link-fault degradation of each network (DESIGN.md §9).
    Degradation,
}

impl Figure {
    /// Every figure, in EXPERIMENTS.md order.
    pub const ALL: [Figure; 11] = [
        Figure::DesignExample,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Sensitivity,
        Figure::Ablation,
        Figure::Utilization,
        Figure::SkewSweep,
        Figure::VcSweep,
        Figure::Pareto,
        Figure::LoadLatency,
        Figure::Degradation,
    ];

    /// The name `reproduce` takes.
    pub fn name(self) -> &'static str {
        match self {
            Figure::DesignExample => "design_example",
            Figure::Fig7 => "fig7",
            Figure::Fig8 => "fig8",
            Figure::Sensitivity => "sensitivity",
            Figure::Ablation => "ablation",
            Figure::Utilization => "utilization",
            Figure::SkewSweep => "skew_sweep",
            Figure::VcSweep => "vc_sweep",
            Figure::Pareto => "pareto",
            Figure::LoadLatency => "load_latency",
            Figure::Degradation => "degradation",
        }
    }

    /// The figure called `name`, if there is one.
    pub fn from_name(name: &str) -> Option<Figure> {
        Figure::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Runs the figure's experiment and renders its text: every line ends
    /// in `\n`, and no line holds a wall-clock value.
    ///
    /// # Errors
    ///
    /// [`HarnessError`] if a network cannot be built, synthesized or
    /// simulated.
    pub fn render(self) -> Result<String, HarnessError> {
        match self {
            Figure::DesignExample => design_example(),
            Figure::Fig7 => fig7(),
            Figure::Fig8 => fig8(),
            Figure::Sensitivity => sensitivity(),
            Figure::Ablation => ablation(),
            Figure::Utilization => utilization(),
            Figure::SkewSweep => skew_sweep(),
            Figure::VcSweep => vc_sweep(),
            Figure::Pareto => pareto(),
            Figure::LoadLatency => load_latency(),
            Figure::Degradation => degradation(),
        }
    }
}

/// The worker count rows fan out over: the one `Engine::new()` sizes
/// itself to.
fn workers() -> usize {
    Engine::new().workers()
}

/// `benchmark` on `n` processes at the paper's default parameters.
fn paper_schedule(benchmark: Benchmark, n: usize) -> PhaseSchedule {
    benchmark
        .schedule(n, &WorkloadParams::paper_default(benchmark))
        .expect("the paper's process counts are valid for every benchmark")
}

/// The rows of Figures 7 and 8 in the paper's order: every benchmark at
/// its 8/9-node configuration (`false`), then at 16 nodes (`true`).
fn paper_rows() -> Vec<(bool, Benchmark)> {
    [false, true]
        .into_iter()
        .flat_map(|large| Benchmark::ALL.into_iter().map(move |b| (large, b)))
        .collect()
}

/// The caption of one node configuration of Figure `figure`.
fn config_caption(figure: u8, large: bool) -> String {
    if large {
        format!("Figure {figure}(b): 16-node configurations")
    } else {
        format!("Figure {figure}(a): 8/9-node configurations")
    }
}

/// The flows of `flows` crossing from `side_a` to the rest, and back.
fn crossing(flows: &BTreeSet<Flow>, side_a: &[ProcId]) -> (BTreeSet<Flow>, BTreeSet<Flow>) {
    let a: BTreeSet<ProcId> = side_a.iter().copied().collect();
    let mut fwd = BTreeSet::new();
    let mut bwd = BTreeSet::new();
    for &f in flows {
        match (a.contains(&f.src), a.contains(&f.dst)) {
            (true, false) => {
                fwd.insert(f);
            }
            (false, true) => {
                bwd.insert(f);
            }
            _ => {}
        }
    }
    (fwd, bwd)
}

/// Figures 1, 2 and 5: the contention periods of CG@16, the Cut 1 vs
/// Cut 2 fast-coloring analysis (4 links vs 3 despite more crossing
/// messages), and the full synthesis under degree 5, verified
/// contention-free by Theorem 1 and compared with the 4x4 mesh.
fn design_example() -> Result<String, HarnessError> {
    let mut out = String::new();
    let sched = figure1::schedule();
    let cliques = sched.maximum_clique_set();
    outln!(
        out,
        "Figure 1 — CG@16 contention periods (0-indexed processes):"
    );
    for (i, clique) in cliques.iter().enumerate() {
        outln!(
            out,
            "  period {}: {} flows: {}",
            i + 1,
            clique.len(),
            clique
        );
    }
    outln!(out);

    let all_flows = sched.all_flows();
    for (name, (a, _b), paper) in [
        ("Cut 1 (procs 1-8 | 9-16)", figure1::cut1(), 4usize),
        ("Cut 2 (procs 1-9 | 10-16)", figure1::cut2(), 3usize),
    ] {
        let (fwd, bwd) = crossing(&all_flows, &a);
        let links = fast_color(&cliques, &fwd, &bwd);
        outln!(
            out,
            "{name}: {} crossing messages, Fast_Color -> {links} links (paper: {paper})",
            fwd.len() + bwd.len()
        );
        assert_eq!(links, paper, "cut analysis must match the paper");
    }
    outln!(out);

    let pattern = AppPattern::from_schedule(&sched);
    let request = SynthesisRequest::builder(pattern.clone())
        .max_degree(5)
        .seed(0xF15)
        .build()
        .expect("default restarts and flat mode always build");
    let result = Engine::new()
        .synthesize(request)
        .result
        .expect("CG pattern synthesizes");
    outln!(out, "synthesis under max node degree 5:");
    outln!(out, "{}", result.report);
    outln!(out, "report (JSON): {}", result.report.to_json());
    outln!(out);
    outln!(out, "{}", result.network);

    let report = verify_contention_free(pattern.contention(), &result.routes);
    outln!(out, "Theorem 1 check: {report}");
    assert!(report.is_contention_free());

    let area = place(&result.network, 0xF15).area(&result.network);
    let mesh = mesh_baseline(4, 4);
    outln!(
        out,
        "area vs 4x4 mesh: switches {:.0}/{:.0} ({:.0}%), link area {:.0}/{:.0} ({:.0}%)",
        area.switch_area,
        mesh.switch_area,
        100.0 * area.switch_area / mesh.switch_area,
        area.link_area,
        mesh.link_area,
        100.0 * area.link_area / mesh.link_area,
    );
    Ok(out)
}

/// Figure 7: switch and link area of each generated network over the
/// mesh's, with the torus's link ratio for reference.
fn fig7() -> Result<String, HarnessError> {
    let rows = par_map(paper_rows(), workers(), |(large, benchmark)| {
        let n = benchmark.paper_procs(large);
        let seed = 0x51ED ^ (n as u64) ^ ((benchmark as u64) << 8);
        let generated =
            build_instance(NetworkKind::Generated, &paper_schedule(benchmark, n), seed)?;
        Ok::<_, HarnessError>((benchmark, n, generated))
    });
    let mut rows = rows.into_iter();
    let mut out = String::new();
    for large in [false, true] {
        if large {
            outln!(out);
        }
        outln!(out, "{}", config_caption(7, large));
        outln!(
            out,
            "  resources normalized to the mesh (mesh = 1.00); torus switch ratio is 1.00"
        );
        outln!(
            out,
            "  bench procs |  switch (gen) link (gen) | link (torus/mesh)  gen switches"
        );
        for row in rows.by_ref().take(Benchmark::ALL.len()) {
            let (benchmark, n, generated) = row?;
            let (r, c) = regular::grid_dims(n);
            let mesh = mesh_baseline(r, c);
            let area = generated.area();
            outln!(
                out,
                "  {:<5} {:>5} | {:>13.2} {:>10.2} | {:>16.2} {:>13}",
                benchmark.name(),
                n,
                area.switch_area / mesh.switch_area,
                area.link_area / mesh.link_area,
                torus_baseline(r, c).link_area / mesh.link_area,
                generated.network.n_switches()
            );
        }
    }
    Ok(out)
}

/// Figure 8: execution and mean communication time of the mesh, torus
/// and generated network over the crossbar's, simulated closed-loop.
fn fig8() -> Result<String, HarnessError> {
    let rows = par_map(paper_rows(), workers(), |(large, benchmark)| {
        let n = benchmark.paper_procs(large);
        let sched = paper_schedule(benchmark, n);
        let seed = 0xF18 ^ (n as u64) ^ ((benchmark as u64) << 8);
        let stats = NetworkKind::ALL
            .into_iter()
            .map(|kind| Ok(build_instance(kind, &sched, seed)?.simulate(&sched)?))
            .collect::<Result<Vec<ExecutionStats>, HarnessError>>()?;
        Ok::<_, HarnessError>((benchmark, n, stats))
    });
    let mut rows = rows.into_iter();
    let mut out = String::new();
    for large in [false, true] {
        if large {
            outln!(out);
        }
        outln!(out, "{}", config_caption(8, large));
        outln!(
            out,
            "  times normalized to the non-blocking crossbar (crossbar = 1.00)"
        );
        outln!(
            out,
            "  bench procs | exec  (mesh torus gen) | comm  (mesh torus gen) | deadlocks"
        );
        for row in rows.by_ref().take(Benchmark::ALL.len()) {
            let (benchmark, n, stats) = row?;
            // `NetworkKind::ALL` order: crossbar, mesh, torus, generated.
            let base_exec = stats[0].exec_cycles as f64;
            let base_comm = stats[0].mean_comm_cycles.max(1.0);
            let exec = |s: &ExecutionStats| s.exec_cycles as f64 / base_exec;
            let comm = |s: &ExecutionStats| s.mean_comm_cycles / base_comm;
            let kills: u64 = stats.iter().map(|s| s.packets.deadlock_kills).sum();
            outln!(
                out,
                "  {:<5} {:>5} |   {:>5.3} {:>5.3} {:>6.3} |   {:>5.3} {:>5.3} {:>6.3} | {:>9}",
                benchmark.name(),
                n,
                exec(&stats[1]),
                exec(&stats[2]),
                exec(&stats[3]),
                comm(&stats[1]),
                comm(&stats[2]),
                comm(&stats[3]),
                kills
            );
        }
    }
    Ok(out)
}

/// Section 4.2: the CG, FFT and BT traces on the network generated for
/// CG@16, each against its own generated network.
fn sensitivity() -> Result<String, HarnessError> {
    let n = 16;
    let host = build_instance(
        NetworkKind::Generated,
        &paper_schedule(Benchmark::Cg, n),
        0xC6,
    )?;
    let mut out = String::new();
    outln!(
        out,
        "host network: generated for CG@16 — {} switches, {} links, max degree {}",
        host.network.n_switches(),
        host.network.n_network_links(),
        host.network.max_degree()
    );
    outln!(out);
    outln!(
        out,
        "  trace  |  own net (cyc) |   CG net (cyc) | degradation"
    );
    // The host's policy routes the flows CG never performs by shortest
    // path; its floorplan here is seeded apart from the instance's own.
    let host_config = SimConfig::paper()
        .with_link_delays(place(&host.network, 0x711).link_lengths(&host.network));
    let traces = vec![Benchmark::Cg, Benchmark::Fft, Benchmark::Bt];
    let rows = par_map(traces, workers(), |foreign| {
        let sched = paper_schedule(foreign, n);
        let native = build_instance(NetworkKind::Generated, &sched, 0xC6 ^ (foreign as u64))?
            .simulate(&sched)?;
        let hosted =
            AppDriver::new(&host.network, host.policy.clone(), host_config.clone()).run(&sched)?;
        let degradation = hosted.exec_cycles as f64 / native.exec_cycles as f64 - 1.0;
        Ok::<_, HarnessError>(format!(
            "  {:<6} | {:>14} | {:>14} | {:>+10.1}%\n",
            foreign.name(),
            native.exec_cycles,
            hosted.exec_cycles,
            100.0 * degradation
        ))
    });
    for row in rows {
        out.push_str(&row?);
    }
    Ok(out)
}

/// The ablations of DESIGN.md §5: fast vs exact coloring during the
/// search, `Best_Route` indirect routing on and off, balance tolerance
/// 0 / 2 / 4, and greedy descent vs simulated annealing. Each variant's
/// totals sum the five 16-node benchmarks; its wall time goes to stderr.
fn ablation() -> Result<String, HarnessError> {
    let base = SynthesisConfig::new().with_max_degree(5).with_seed(0xAB1A);
    let variants = [
        ("paper (fast, indirect, bal 2, greedy)", base.clone()),
        (
            "exact coloring during search",
            base.clone().with_coloring(ColoringStrategy::Exact),
        ),
        (
            "no indirect routing (Best_Route off)",
            base.clone().with_indirect_routing(false),
        ),
        (
            "balance tolerance 0",
            base.clone().with_balance_tolerance(0),
        ),
        (
            "balance tolerance 4",
            base.clone().with_balance_tolerance(4),
        ),
        (
            "simulated annealing acceptance",
            base.with_acceptance(AcceptanceRule::default_anneal()),
        ),
    ];
    let mut out = String::new();
    outln!(
        out,
        "ablation over all 16-node benchmarks (max degree 5, fixed seed)"
    );
    outln!(
        out,
        "  variant                                  |  links | switches | cont-free"
    );
    for (name, config) in variants {
        let start = Instant::now();
        let designs = par_map(Benchmark::ALL.to_vec(), workers(), |benchmark| {
            let pattern = AppPattern::from_schedule(&paper_schedule(benchmark, 16));
            let request = SynthesisRequest::builder(pattern)
                .config(config.clone())
                .build()
                .expect("default restarts and flat mode always build");
            // One engine worker: par_map already spreads the benchmarks.
            let result = Engine::new()
                .with_workers(1)
                .synthesize(request)
                .result
                .expect("synthesis succeeds");
            result.report
        });
        let links: usize = designs.iter().map(|r| r.n_links).sum();
        let switches: usize = designs.iter().map(|r| r.n_switches).sum();
        let all_free = designs.iter().all(|r| r.contention_free);
        // Timing is best effort: a closed stderr must not fail the figure.
        let _ = writeln!(
            std::io::stderr(),
            "ablation: {name}: {} ms",
            start.elapsed().as_millis()
        );
        outln!(
            out,
            "  {:<40} | {:>6} | {:>8} | {:>9}",
            name,
            links,
            switches,
            all_free
        );
    }
    Ok(out)
}

/// Section 3.4: utilization of the switch-to-switch links of the mesh and
/// the generated network for every 16-node benchmark.
fn utilization() -> Result<String, HarnessError> {
    let mut out = String::new();
    outln!(
        out,
        "per-link utilization of switch-to-switch links, 16-node configurations"
    );
    outln!(
        out,
        "  bench network    |  links |  mean util  peak util |    idle links"
    );
    let rows: Vec<(Benchmark, NetworkKind)> = Benchmark::ALL
        .into_iter()
        .flat_map(|b| [NetworkKind::Mesh, NetworkKind::Generated].map(|kind| (b, kind)))
        .collect();
    let rows = par_map(rows, workers(), |(benchmark, kind)| {
        let schedule = paper_schedule(benchmark, 16);
        let inst = build_instance(kind, &schedule, 0x07EC ^ (benchmark as u64))?;
        let stats = inst.simulate(&schedule)?;
        // Processor attachments are the same on every topology.
        let network_links: Vec<f64> = inst
            .network
            .link_ids()
            .filter(|&l| {
                let link = inst.network.link(l).expect("iterating links");
                link.a().as_switch().is_some() && link.b().as_switch().is_some()
            })
            .map(|l| stats.link_utilization[l.index()])
            .collect();
        let mean = network_links.iter().sum::<f64>() / network_links.len() as f64;
        let peak = network_links.iter().copied().fold(0.0f64, f64::max);
        let idle = network_links.iter().filter(|&&u| u == 0.0).count();
        Ok::<_, HarnessError>(format!(
            "  {:<5} {:<10} | {:>6} | {:>9.1}% {:>9.1}% | {:>13}\n",
            benchmark.name(),
            kind.name(),
            network_links.len(),
            100.0 * mean,
            100.0 * peak,
            idle
        ))
    });
    for row in rows {
        out.push_str(&row?);
    }
    Ok(out)
}

/// Section 4's time-skew trade-off: the CG@16 schedule lowered to traces
/// at growing per-process skew and replayed open-loop on the generated
/// network, the mesh and the crossbar.
fn skew_sweep() -> Result<String, HarnessError> {
    let schedule = paper_schedule(Benchmark::Cg, 16);
    let instances = [
        NetworkKind::Generated,
        NetworkKind::Mesh,
        NetworkKind::Crossbar,
    ]
    .into_iter()
    .map(|kind| build_instance(kind, &schedule, 0x5EE7))
    .collect::<Result<Vec<_>, _>>()?;
    let mut out = String::new();
    outln!(
        out,
        "CG@16 open-loop replay: mean message latency (cycles) vs per-process skew"
    );
    outln!(
        out,
        "  skew (cyc) |  generated       mesh   crossbar |       gen vs xbar"
    );
    for skew in [0u64, 64, 256, 1024, 4096] {
        let trace = SkewModel::new(skew, 0xBEE5).apply(&schedule);
        let mut lat = Vec::new();
        for inst in &instances {
            let config =
                SimConfig::paper().with_link_delays(inst.floorplan.link_lengths(&inst.network));
            let stats = run_trace(&inst.network, &inst.policy, config, &trace)?;
            assert_eq!(
                stats.delivered as usize,
                trace.len(),
                "message conservation"
            );
            lat.push(stats.mean_latency);
        }
        outln!(
            out,
            "  {:>10} | {:>10.0} {:>10.0} {:>10.0} | {:>+16.1}%",
            skew,
            lat[0],
            lat[1],
            lat[2],
            100.0 * (lat[0] / lat[2] - 1.0)
        );
    }
    Ok(out)
}

/// Section 4.2's virtual channels: CG@16 execution time per network at 1
/// to 4 VCs per link, with deadlock recoveries and whether the generated
/// routes' channel dependency graph is acyclic.
fn vc_sweep() -> Result<String, HarnessError> {
    let schedule = paper_schedule(Benchmark::Cg, 16);
    let mut out = String::new();
    outln!(out, "CG@16 execution cycles vs virtual channels per link");
    outln!(
        out,
        "  network    |      1 VC      2 VC      3 VC      4 VC |   CDG-free"
    );
    for kind in [
        NetworkKind::Mesh,
        NetworkKind::Torus,
        NetworkKind::Generated,
    ] {
        let inst = build_instance(kind, &schedule, 0x7C)?;
        let mut row = Vec::new();
        let mut kills = 0u64;
        for vcs in 1..=4usize {
            let config = SimConfig::paper()
                .with_vcs(vcs)
                .with_link_delays(inst.floorplan.link_lengths(&inst.network));
            let stats =
                AppDriver::new(&inst.network, inst.policy.clone(), config).run(&schedule)?;
            kills += stats.packets.deadlock_kills;
            row.push(stats.exec_cycles);
        }
        let cdg = match &inst.synthesis {
            Some(s) => is_deadlock_free(&s.routes).to_string(),
            None => "-".to_string(),
        };
        outln!(
            out,
            "  {:<10} | {:>9} {:>9} {:>9} {:>9} | {:>10}   (kills across sweep: {kills})",
            kind.name(),
            row[0],
            row[1],
            row[2],
            row[3],
            cdg
        );
    }
    Ok(out)
}

/// The conclusion's multi-objective sweep: each 16-node benchmark's front
/// of (degree bound, switches, links), through the same engine sweep as
/// `nocsyn synth --pareto`.
fn pareto() -> Result<String, HarnessError> {
    let mut out = String::new();
    outln!(
        out,
        "Pareto frontier of (port budget, switches, links), 16-node configurations"
    );
    for benchmark in Benchmark::ALL {
        let pattern = AppPattern::from_schedule(&paper_schedule(benchmark, 16));
        let request = SynthesisRequest::builder(pattern)
            .seed(0x9A_u64 ^ (benchmark as u64))
            .restarts(8)
            .build()
            .expect("8 restarts and flat mode always build");
        let sweep = Engine::new().pareto_sweep(&request).map_err(|e| match e {
            JobError::Synth(e) => HarnessError::Synth(e),
            JobError::Panicked { message } => panic!("sweep attempt panicked: {message}"),
        })?;
        outln!(out, "  {}:", benchmark.name());
        for (p, _) in sweep {
            outln!(
                out,
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
    Ok(out)
}

/// The limitation experiment: open-loop uniform-random traffic at growing
/// injection rates on the mesh and on the network generated for CG@16.
fn load_latency() -> Result<String, HarnessError> {
    let schedule = paper_schedule(Benchmark::Cg, 16);
    let instances = [NetworkKind::Mesh, NetworkKind::Generated]
        .into_iter()
        .map(|kind| build_instance(kind, &schedule, 0x10AD))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = String::new();
    outln!(
        out,
        "uniform-random open-loop traffic on 16 nodes: mean latency (cycles)"
    );
    outln!(out, "  inj. rate |       mesh    generated |     gen pays");
    for rate in [0.05f64, 0.20, 0.40, 0.65, 0.90] {
        let trace = open_loop_traffic(16, TrafficPattern::UniformRandom, rate, 30_000, 128, 0xBEEF);
        let mut lat = Vec::new();
        for inst in &instances {
            let config = SimConfig::paper()
                .with_link_delays(inst.floorplan.link_lengths(&inst.network))
                .with_max_cycles(5_000_000);
            let stats = run_trace(&inst.network, &inst.policy, config, &trace)?;
            assert_eq!(stats.delivered as usize, trace.len());
            lat.push(stats.mean_latency);
        }
        outln!(
            out,
            "  {:>9.2} | {:>10.0} {:>12.0} | {:>+11.0}%",
            rate,
            lat[0],
            lat[1],
            100.0 * (lat[1] / lat[0] - 1.0)
        );
    }
    Ok(out)
}

/// Processes of the degradation sweep's CG instances (Figure 8's CG16).
const DEGRADATION_PROCS: usize = 16;
/// The sweep's largest number of failed links.
const DEGRADATION_MAX_FAULTS: usize = 3;
/// Sampled fault scenarios per fault count above zero.
const DEGRADATION_SCENARIOS: u64 = 8;
/// Seed of the fault sampler.
const DEGRADATION_SEED: u64 = 0xFA17;

/// One (network, fault count) cell of the degradation sweep.
struct DegradationCell {
    kind: NetworkKind,
    k: usize,
    scenarios: usize,
    clean: usize,
    disconnected: usize,
    mean_exec: Option<f64>,
}

/// The degradation sweep: seeded `k`-link fault scenarios on CG16's mesh,
/// torus and generated network; each repaired route table is re-checked
/// by Theorem 1 and, where every flow still has a route, simulated
/// closed-loop with the failed links enforced.
fn degradation() -> Result<String, HarnessError> {
    let benchmark = Benchmark::Cg;
    let schedule = benchmark
        .schedule(
            DEGRADATION_PROCS,
            &WorkloadParams::paper_default(benchmark).with_iterations(1),
        )
        .expect("paper process counts are valid");
    let pattern = AppPattern::from_schedule(&schedule);
    let seed = 0xF18 ^ (DEGRADATION_PROCS as u64) ^ ((benchmark as u64) << 8);
    let kinds = vec![
        NetworkKind::Mesh,
        NetworkKind::Torus,
        NetworkKind::Generated,
    ];
    let instances = par_map(kinds, workers(), |kind| {
        build_instance(kind, &schedule, seed)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let cells: Vec<_> = instances
        .iter()
        .flat_map(|inst| (0..=DEGRADATION_MAX_FAULTS).map(move |k| (inst, k)))
        .collect();
    let cells = par_map(cells, workers(), |(inst, k)| {
        degradation_cell(inst, k, &schedule, &pattern)
    });

    let mut out = String::new();
    outln!(
        out,
        "degradation sweep: {} at {} procs, {} sampled scenarios per fault count",
        benchmark.name(),
        DEGRADATION_PROCS,
        DEGRADATION_SCENARIOS
    );
    outln!(
        out,
        "  network   faults |  cont.free disconnected |    mean exec   vs k=0"
    );
    let mut baseline = f64::NAN;
    for cell in cells {
        let cell = cell?;
        if cell.k == 0 {
            baseline = cell.mean_exec.unwrap_or(f64::NAN);
        }
        let (exec, rel) = match cell.mean_exec {
            Some(e) => (format!("{e:.0}"), format!("{:.3}", e / baseline)),
            None => ("-".into(), "-".into()),
        };
        outln!(
            out,
            "  {:<9} {:>6} | {:>7}/{:<2} {:>12} | {:>12} {:>8}",
            cell.kind.name(),
            cell.k,
            cell.clean,
            cell.scenarios,
            cell.disconnected,
            exec,
            rel
        );
    }
    Ok(out)
}

/// The `k`-fault scenarios of one network: how many stay contention-free
/// after repair, how many disconnect a flow, and the mean execution time
/// of the rest.
fn degradation_cell(
    inst: &Instance,
    k: usize,
    schedule: &PhaseSchedule,
    pattern: &AppPattern,
) -> Result<DegradationCell, HarnessError> {
    // Deterministic first-alternative table over the pattern's flows —
    // exactly what the closed-loop driver will ask the policy for.
    let mut routes = RouteTable::new();
    for &flow in pattern.flows() {
        if let Some(route) = inst.policy.first_route(flow) {
            routes.insert(flow, route.clone());
        }
    }
    let scenarios: Vec<FaultScenario> = if k == 0 {
        vec![FaultScenario::none()]
    } else {
        (0..DEGRADATION_SCENARIOS)
            .map(|i| {
                FaultScenario::sample(&inst.network, k, 0, DEGRADATION_SEED ^ (i << 8) ^ k as u64)
            })
            .collect()
    };
    let mut clean = 0usize;
    let mut disconnected = 0usize;
    let mut execs: Vec<u64> = Vec::new();
    for scenario in &scenarios {
        let report = DegradationReport::analyze(
            &inst.network,
            pattern.contention(),
            &routes,
            scenario.clone(),
        );
        if report.still_contention_free() {
            clean += 1;
        }
        if report.n_unroutable() > 0 {
            disconnected += 1;
            continue;
        }
        let sim_config = SimConfig::paper()
            .with_link_delays(inst.floorplan.link_lengths(&inst.network))
            .with_failed_links(scenario.failed_links().iter().copied());
        let stats = AppDriver::new(
            &inst.network,
            RoutePolicy::deterministic(report.repaired_routes().clone()),
            sim_config,
        )
        .run(schedule)?;
        execs.push(stats.exec_cycles);
    }
    let mean_exec = if execs.is_empty() {
        None
    } else {
        Some(execs.iter().sum::<u64>() as f64 / execs.len() as f64)
    };
    Ok(DegradationCell {
        kind: inst.kind,
        k,
        scenarios: scenarios.len(),
        clean,
        disconnected,
        mean_exec,
    })
}
