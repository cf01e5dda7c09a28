//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! One binary, `reproduce <figure>`, prints any of the eleven evaluation
//! artifacts of [`figures::Figure`] (see DESIGN.md §4 and
//! EXPERIMENTS.md, which quotes every figure's text and is checked
//! against it by `tests/reproduce.rs`): the worked CG design example
//! (Figures 1, 2 and 5), Figures 7 and 8, the §4.2 sensitivity and
//! virtual-channel sweeps, §3.4 link utilization, the §4 skew sweep, the
//! design-choice ablations, the Pareto sweep, off-design load-latency
//! and the link-fault degradation sweep.
//!
//! The rest of the library is the plumbing the figures share: building
//! the four comparison networks for a benchmark, floorplanning them, and
//! running the closed-loop simulation with floorplan-derived link
//! delays. [`timing`] is the micro-benchmark harness of `benches/`.

use nocsyn_engine::{Engine, JobError, JobStatus};
use nocsyn_floorplan::{mesh_baseline, place, AreaReport, Floorplan};
use nocsyn_model::{Flow, PhaseSchedule};
use nocsyn_sim::{AppDriver, ExecutionStats, RoutePolicy, SimConfig, SimError};
use nocsyn_synth::{AppPattern, SynthError, SynthesisRequest, SynthesisResult};
use nocsyn_topo::{regular, Network, RouteTable, TopoError};

pub mod figures;

/// The four networks the paper compares for every benchmark (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetworkKind {
    /// The fully-connected non-blocking crossbar: the performance ideal.
    Crossbar,
    /// A 2-D mesh with dimension-order routing: the resource baseline.
    Mesh,
    /// A 2-D torus with (approximated) fully-adaptive routing.
    Torus,
    /// The network synthesized for the benchmark by the methodology.
    Generated,
}

impl NetworkKind {
    /// All four kinds in the paper's plotting order.
    pub const ALL: [NetworkKind; 4] = [
        NetworkKind::Crossbar,
        NetworkKind::Mesh,
        NetworkKind::Torus,
        NetworkKind::Generated,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            NetworkKind::Crossbar => "crossbar",
            NetworkKind::Mesh => "mesh",
            NetworkKind::Torus => "torus",
            NetworkKind::Generated => "generated",
        }
    }
}

/// A comparison network instantiated for an experiment: the topology, its
/// routing policy, and its floorplan (which fixes link delays).
#[derive(Debug)]
pub struct Instance {
    /// Which comparison point this is.
    pub kind: NetworkKind,
    /// The network.
    pub network: Network,
    /// Routing policy for simulation.
    pub policy: RoutePolicy,
    /// Placement on the tile grid.
    pub floorplan: Floorplan,
    /// Synthesis output (for `Generated` only).
    pub synthesis: Option<SynthesisResult>,
}

impl Instance {
    /// Area of this instance under the paper's model. Mesh and torus use
    /// their analytic baselines (hand layouts, as in the paper); other
    /// networks use their floorplan.
    pub fn area(&self) -> AreaReport {
        let (rows, cols) = regular::grid_dims(self.network.n_procs());
        match self.kind {
            NetworkKind::Mesh => mesh_baseline(rows, cols),
            NetworkKind::Torus => nocsyn_floorplan::torus_baseline(rows, cols),
            _ => self.floorplan.area(&self.network),
        }
    }

    /// Runs the closed-loop simulation of `schedule` on this instance with
    /// floorplan-derived link delays.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the driver.
    pub fn simulate(&self, schedule: &PhaseSchedule) -> Result<ExecutionStats, SimError> {
        let config =
            SimConfig::paper().with_link_delays(self.floorplan.link_lengths(&self.network));
        AppDriver::new(&self.network, self.policy.clone(), config).run(schedule)
    }
}

/// Errors from experiment setup.
#[derive(Debug)]
pub enum HarnessError {
    /// Topology construction failed.
    Topo(TopoError),
    /// Synthesis failed.
    Synth(SynthError),
    /// Simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Topo(e) => write!(f, "topology: {e}"),
            HarnessError::Synth(e) => write!(f, "synthesis: {e}"),
            HarnessError::Sim(e) => write!(f, "simulation: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Topo(e) => Some(e),
            HarnessError::Synth(e) => Some(e),
            HarnessError::Sim(e) => Some(e),
        }
    }
}

impl HarnessError {
    /// A short, stable, kebab-case identifier for the error class, never
    /// embedding input-derived values (same convention as
    /// `ModelError::fingerprint`). Wrapped errors keep their own
    /// fingerprint.
    pub fn fingerprint(&self) -> &'static str {
        match self {
            HarnessError::Topo(e) => e.fingerprint(),
            HarnessError::Synth(e) => e.fingerprint(),
            HarnessError::Sim(e) => e.fingerprint(),
        }
    }
}

impl From<TopoError> for HarnessError {
    fn from(e: TopoError) -> Self {
        HarnessError::Topo(e)
    }
}
impl From<SynthError> for HarnessError {
    fn from(e: SynthError) -> Self {
        HarnessError::Synth(e)
    }
}
impl From<SimError> for HarnessError {
    fn from(e: SimError) -> Self {
        HarnessError::Sim(e)
    }
}

/// Builds one comparison instance for a schedule.
///
/// For [`NetworkKind::Generated`], the schedule is synthesized with the
/// paper's default configuration (degree ≤ 5, seed fixed per benchmark);
/// flows outside the application pattern are routed by shortest path so
/// foreign traces can also run on the network (the sensitivity
/// experiment).
///
/// # Errors
///
/// [`HarnessError`] if topology construction or synthesis fails.
pub fn build_instance(
    kind: NetworkKind,
    schedule: &PhaseSchedule,
    seed: u64,
) -> Result<Instance, HarnessError> {
    let n = schedule.n_procs();
    let (rows, cols) = regular::grid_dims(n);
    let (network, policy, synthesis) = match kind {
        NetworkKind::Crossbar => {
            let (net, routes) = regular::crossbar(n)?;
            (net, RoutePolicy::deterministic(routes), None)
        }
        NetworkKind::Mesh => {
            let (net, routes) = regular::mesh(rows, cols)?;
            (net, RoutePolicy::deterministic(routes), None)
        }
        NetworkKind::Torus => {
            let (net, xy, yx) = regular::torus_with_alternates(rows, cols)?;
            (net, RoutePolicy::adaptive(vec![xy, yx]), None)
        }
        NetworkKind::Generated => {
            let request = SynthesisRequest::builder(AppPattern::from_schedule(schedule))
                .max_degree(5)
                .seed(seed)
                .restarts(16)
                .build()
                .expect("16 restarts and flat mode always build");
            // One worker: the figures parallelize over rows.
            let outcome = Engine::new().with_workers(1).synthesize(request);
            if let JobStatus::Failed(JobError::Synth(e)) = outcome.status {
                return Err(e.into());
            }
            let result = outcome
                .result
                .expect("no deadline: the portfolio completes unless an attempt panics");
            let routes = complete_routes(&result.network, &result.routes)?;
            (
                result.network.clone(),
                RoutePolicy::deterministic(routes),
                Some(result),
            )
        }
    };
    let floorplan = place(&network, seed ^ 0x5EED);
    Ok(Instance {
        kind,
        network,
        policy,
        floorplan,
        synthesis,
    })
}

/// Extends a synthesized route table to cover *all* ordered processor
/// pairs: synthesized routes where they exist, shortest paths elsewhere.
///
/// # Errors
///
/// [`TopoError`] if the network is not strongly connected.
pub fn complete_routes(net: &Network, routes: &RouteTable) -> Result<RouteTable, TopoError> {
    let mut complete = routes.clone();
    for s in 0..net.n_procs() {
        for d in 0..net.n_procs() {
            if s == d {
                continue;
            }
            let flow = Flow::from_indices(s, d);
            if complete.route(flow).is_none() {
                complete.insert(flow, nocsyn_topo::shortest_route(net, flow)?);
            }
        }
    }
    Ok(complete)
}

pub mod timing {
    //! A plain `std::time::Instant` micro-benchmark harness.
    //!
    //! The workspace carries no external bench framework; each file under
    //! `benches/` (built with `harness = false`) drives this module from
    //! its own `main`. Runs are budgeted by wall time per case, overridable
    //! with `NOCSYN_BENCH_BUDGET_MS`, and cases can be filtered by a
    //! substring argument (`cargo bench -p nocsyn-bench -- contention`).

    use std::time::{Duration, Instant};

    /// Timing summary of one benchmark case.
    #[derive(Debug, Clone)]
    pub struct Sample {
        /// Case name as printed.
        pub name: String,
        /// Measured iterations (excludes the warmup call).
        pub iters: u32,
        /// Mean wall time per iteration.
        pub mean: Duration,
        /// Fastest single iteration.
        pub min: Duration,
    }

    /// Bench runner: holds the per-case time budget and the case filter.
    #[derive(Debug, Clone)]
    pub struct Runner {
        budget: Duration,
        filter: Option<String>,
    }

    impl Runner {
        /// Builds a runner from the process environment: the budget from
        /// `NOCSYN_BENCH_BUDGET_MS` (default 300 ms per case) and the
        /// filter from the first non-flag CLI argument. Flags — including
        /// the `--bench` cargo passes to `harness = false` targets — are
        /// ignored.
        pub fn from_env() -> Self {
            let budget = std::env::var("NOCSYN_BENCH_BUDGET_MS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map_or(Duration::from_millis(300), Duration::from_millis);
            let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
            Runner { budget, filter }
        }

        /// Runs one case: a warmup call, then repeated timed calls until
        /// the budget is spent (at least 3, at most 100 000 iterations),
        /// and prints one summary line. Returns `None` when the case is
        /// filtered out.
        pub fn case<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Option<Sample> {
            if let Some(needle) = &self.filter {
                if !name.contains(needle.as_str()) {
                    return None;
                }
            }
            std::hint::black_box(f());
            let mut iters = 0u32;
            let mut total = Duration::ZERO;
            let mut min = Duration::MAX;
            while (total < self.budget && iters < 100_000) || iters < 3 {
                let t = Instant::now();
                std::hint::black_box(f());
                let dt = t.elapsed();
                total += dt;
                min = min.min(dt);
                iters += 1;
            }
            let sample = Sample {
                name: name.to_string(),
                iters,
                mean: total / iters,
                min,
            };
            println!(
                "{:<48} mean {:>12} min {:>12} ({} iters)",
                sample.name,
                fmt_duration(sample.mean),
                fmt_duration(sample.min),
                sample.iters
            );
            Some(sample)
        }
    }

    /// Formats a duration with a unit matched to its magnitude.
    pub fn fmt_duration(d: Duration) -> String {
        let ns = d.as_nanos();
        if ns < 10_000 {
            format!("{ns} ns")
        } else if ns < 10_000_000 {
            format!("{:.2} us", ns as f64 / 1_000.0)
        } else if ns < 10_000_000_000 {
            format!("{:.2} ms", ns as f64 / 1_000_000.0)
        } else {
            format!("{:.2} s", ns as f64 / 1_000_000_000.0)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn case_runs_at_least_three_iters() {
            let runner = Runner {
                budget: Duration::ZERO,
                filter: None,
            };
            let mut count = 0u32;
            let sample = runner.case("tiny", || count += 1).unwrap();
            assert_eq!(sample.iters, 3);
            // 3 measured + 1 warmup.
            assert_eq!(count, 4);
            assert!(sample.min <= sample.mean);
        }

        #[test]
        fn filter_skips_non_matching_cases() {
            let runner = Runner {
                budget: Duration::ZERO,
                filter: Some("match-me".into()),
            };
            assert!(runner.case("other", || ()).is_none());
            assert!(runner.case("does-match-me-too", || ()).is_some());
        }

        #[test]
        fn durations_format_with_scaled_units() {
            assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
            assert_eq!(fmt_duration(Duration::from_micros(120)), "120.00 us");
            assert_eq!(fmt_duration(Duration::from_millis(45)), "45.00 ms");
            assert_eq!(fmt_duration(Duration::from_secs(12)), "12.00 s");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_workloads::{Benchmark, WorkloadParams};

    #[test]
    fn harness_error_delegates_fingerprint_and_keeps_source() {
        use std::error::Error as _;
        let inner = SynthError::EmptyPattern;
        let e = HarnessError::from(inner.clone());
        assert_eq!(e.fingerprint(), inner.fingerprint());
        assert!(e
            .fingerprint()
            .chars()
            .all(|c| c.is_ascii_lowercase() || c == '-'));
        let src = e.source().expect("wrapped error is the source");
        assert_eq!(src.to_string(), inner.to_string());
        let boxed: Box<dyn std::error::Error + Send + Sync> = Box::new(e);
        assert!(boxed.to_string().starts_with("synthesis:"));
    }

    #[test]
    fn all_instances_build_for_cg8() {
        let sched = Benchmark::Cg
            .schedule(
                8,
                &WorkloadParams::paper_default(Benchmark::Cg).with_iterations(1),
            )
            .unwrap();
        for kind in NetworkKind::ALL {
            let inst = build_instance(kind, &sched, 1).unwrap();
            assert!(inst.network.is_strongly_connected(), "{kind:?}");
            let area = inst.area();
            assert!(area.switch_area > 0.0);
        }
    }

    #[test]
    fn generated_instance_is_contention_free_and_lean() {
        let sched = Benchmark::Cg
            .schedule(
                16,
                &WorkloadParams::paper_default(Benchmark::Cg).with_iterations(1),
            )
            .unwrap();
        let inst = build_instance(NetworkKind::Generated, &sched, 2).unwrap();
        let synth = inst.synthesis.as_ref().unwrap();
        assert!(synth.report.contention_free);
        // Fewer switches than the 16-switch mesh.
        assert!(inst.network.n_switches() < 16);
    }

    #[test]
    fn complete_routes_covers_all_pairs() {
        let sched = Benchmark::Mg
            .schedule(
                8,
                &WorkloadParams::paper_default(Benchmark::Mg).with_iterations(1),
            )
            .unwrap();
        let inst = build_instance(NetworkKind::Generated, &sched, 3).unwrap();
        let synth = inst.synthesis.as_ref().unwrap();
        let complete = complete_routes(&inst.network, &synth.routes).unwrap();
        assert_eq!(complete.len(), 8 * 7);
        complete.validate(&inst.network).unwrap();
    }

    #[test]
    fn simulate_runs_on_small_schedule() {
        let sched = Benchmark::Cg
            .schedule(
                8,
                &WorkloadParams::paper_default(Benchmark::Cg)
                    .with_iterations(1)
                    .with_bytes(64),
            )
            .unwrap();
        let inst = build_instance(NetworkKind::Crossbar, &sched, 4).unwrap();
        let stats = inst.simulate(&sched).unwrap();
        assert!(stats.exec_cycles > 0);
        assert!(stats.delivered > 0);
    }
}
