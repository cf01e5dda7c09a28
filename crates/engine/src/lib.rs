//! `nocsyn-engine` — the restart portfolio of the synthesis methodology
//! of `nocsyn-synth`, run in parallel and deterministically.
//!
//! The paper's search is embarrassingly restartable: a request's
//! `restarts()` independent attempts with splitmix-derived seeds, the
//! best one kept. This crate is the only place that portfolio runs. It
//! farms the attempts — and whole batches of synthesis jobs — across
//! threads while keeping the *chosen result bit-identical for any worker
//! count*; "sequential" is simply [`Engine::with_workers`]`(1)`:
//!
//! * every restart attempt is a pure function of `(request, attempt)`
//!   (see `nocsyn_synth::synthesize_attempt`), so it does not matter which
//!   thread runs it;
//! * the reduction is a stable argmin over `(rank, attempt)`, where the
//!   rank orders results by constraints met, then fewest links, then
//!   fewest switches — rank ties break on the lowest attempt index, so
//!   the first best attempt is kept.
//!
//! [`Engine::run`] takes a batch of [`Job`]s and returns one
//! [`JobOutcome`] per job, in job order; [`Engine::synthesize`] runs one
//! request and [`Engine::pareto_sweep`] one request per degree bound.
//! Work is scheduled at restart granularity: the `(job, attempt)` units
//! are numbered job by job, workers claim unit numbers through an atomic
//! cursor and derive each unit from per-job prefix sums of the attempt
//! counts, so restarts of one job and jobs of one batch share the same
//! worker pool with dynamic load balancing, and no allocation grows with
//! a restart count.
//!
//! Every job carries a [`SynthesisRequest`], which may select the
//! **decomposed** mode for large patterns: the engine clusters the flow
//! graph (`nocsyn_synth::cluster_pattern`), schedules every cluster as an
//! independent flat sub-request on the same unit queue (named `{job}/c{i}`
//! in telemetry, under `nocsyn_synth::cluster_config` — reseeded, with one
//! port of degree headroom reserved for stitching), stitches the
//! per-cluster networks with dedicated exact-colored inter-cluster pipes
//! and re-verifies Theorem 1 on the stitched whole
//! (`nocsyn_synth::stitch`). The reduction is deterministic: a failed
//! cluster fails the job with the lowest-indexed cluster's error, and the
//! stitched result is a pure function of the per-cluster results.
//!
//! Jobs may carry a **deadline**. Expiry is detected when a worker claims
//! the next unit of the job (granularity: one restart attempt); remaining
//! attempts are cancelled through a shared flag, and the job degrades
//! gracefully to its best-so-far result with
//! [`JobStatus::DeadlineExceeded`] — never a panic. With a deadline of
//! zero, no attempt runs and the outcome carries no result.
//!
//! The engine is **panic-isolated** and fails fast: every attempt runs
//! once under `catch_unwind`, so a panic inside one attempt becomes a
//! structured [`EngineEvent::AttemptPanicked`] plus
//! [`JobStatus::Failed`]`(`[`JobError::Panicked`]`)` for that job only —
//! never a poisoned pool or a lost batch. A structured synthesis error
//! fails its job the same way.
//!
//! Execution is observable through a structured [`EngineEvent`] stream
//! delivered to a pluggable [`EventSink`] ([`JsonLinesSink`] renders
//! JSON Lines via `nocsyn_model::json`). Sink I/O failures are surfaced,
//! not swallowed: the first failed emit degrades the stream loudly (a
//! best-effort stderr notice plus a best-effort
//! [`EngineEvent::SinkDegraded`] marker), once per engine, and the engine
//! falls back to discarding telemetry; results are never affected.
//! Telemetry order is not deterministic; results are.
//!
//! ```
//! use nocsyn_engine::Engine;
//! use nocsyn_model::{Phase, PhaseSchedule};
//! use nocsyn_synth::{AppPattern, SynthesisRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sched = PhaseSchedule::new(4);
//! sched.push(Phase::from_flows([(0usize, 1usize), (2, 3)])?)?;
//! let pattern = AppPattern::from_schedule(&sched);
//! let request = SynthesisRequest::builder(pattern).seed(7).restarts(4).build()?;
//!
//! // Any worker count selects the same result as one worker.
//! let parallel = Engine::new().with_workers(4).synthesize(request.clone());
//! let sequential = Engine::new().with_workers(1).synthesize(request);
//! let (parallel, sequential) = (parallel.result.unwrap(), sequential.result.unwrap());
//! assert_eq!(parallel.report, sequential.report);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod par;

pub use event::{CollectSink, EngineEvent, EventSink, JsonLinesSink, NullSink};
pub use par::par_map;

use std::collections::BTreeSet;
use std::io::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use nocsyn_synth::{
    attempt_seed, auto_cluster_count, cluster_config, cluster_pattern, pareto_filter, stitch,
    synthesize_attempt, ClusterPlan, DecompositionSummary, ParetoPoint, SynthError, SynthesisMode,
    SynthesisRequest, SynthesisResult,
};

/// The degree bounds of a [`Engine::pareto_sweep`], besides the request's
/// own. The top rung admits the 16-port mega-switch of a 16-node pattern.
const PARETO_LADDER: [usize; 6] = [4, 5, 6, 8, 12, 16];

/// Portfolio selection rank of a result — lower is better: constraints
/// met first, then fewest links, then fewest switches. The engine breaks
/// rank ties on the *attempt index* (lowest wins).
fn portfolio_rank(r: &SynthesisResult) -> (bool, usize, usize) {
    (
        !r.report.constraints_met, // met first
        r.report.n_links,
        r.report.n_switches,
    )
}

/// One synthesis request in a batch: a named [`SynthesisRequest`] (the
/// pattern, config, mode and deadline all live on the request — every
/// caller assembles one the same way).
#[derive(Debug, Clone)]
pub struct Job {
    /// Name carried through outcomes and telemetry. Decomposed jobs fan
    /// out into per-cluster sub-jobs named `{name}/c{i}` in telemetry.
    pub name: String,
    /// What to synthesize: pattern, config, restart count (the portfolio
    /// size), optional warm start, flat/decomposed mode and optional
    /// per-job deadline.
    pub request: SynthesisRequest,
    /// Attempts that panic instead of running — fault injection for tests
    /// and chaos drills. For a decomposed job the indices apply to every
    /// cluster sub-job.
    injected_panics: BTreeSet<usize>,
}

impl Job {
    /// Creates a job.
    pub fn new(name: impl Into<String>, request: SynthesisRequest) -> Self {
        Job {
            name: name.into(),
            request,
            injected_panics: BTreeSet::new(),
        }
    }

    /// Makes `attempt` panic instead of running. A fault-injection hook
    /// proving one poisoned attempt fails its own job and cannot take
    /// down its batch.
    #[must_use]
    pub fn with_injected_panic(mut self, attempt: usize) -> Self {
        self.injected_panics.insert(attempt);
        self
    }
}

/// The flat sub-job of cluster `index` of a decomposed job, named
/// `{job}/c{index}`: the cluster's pattern under [`cluster_config`], with
/// the parent's restart count, deadline and injected panics.
fn cluster_job(job: &Job, plan: &ClusterPlan, index: usize) -> Job {
    let mut builder = SynthesisRequest::builder(plan.clusters()[index].pattern().clone())
        .config(cluster_config(job.request.config(), index))
        .restarts(job.request.restarts().get());
    if let Some(deadline) = job.request.deadline() {
        builder = builder.deadline(deadline);
    }
    Job {
        name: format!("{}/c{index}", job.name),
        request: builder
            .build()
            .expect("a flat request with the parent's non-zero restarts builds"),
        injected_panics: job.injected_panics.clone(),
    }
}

/// How a job's exec sub-jobs fold back into one [`JobOutcome`].
enum Reduction {
    /// The single exec outcome is the job outcome.
    Flat,
    /// Stitch the per-cluster results ([`stitch`]) and re-verify
    /// Theorem 1 globally.
    Decomposed(ClusterPlan),
    /// Clustering itself failed; no exec jobs were scheduled.
    PlanFailed(SynthError),
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Synthesis returned a structured error.
    Synth(SynthError),
    /// An attempt panicked; the engine caught it at the attempt boundary.
    Panicked {
        /// The panic payload rendered as text.
        message: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Synth(e) => write!(f, "{e}"),
            JobError::Panicked { message } => write!(f, "attempt panicked: {message}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Synth(e) => Some(e),
            JobError::Panicked { .. } => None,
        }
    }
}

impl From<SynthError> for JobError {
    fn from(e: SynthError) -> Self {
        JobError::Synth(e)
    }
}

impl JobError {
    /// A short, stable, kebab-case identifier for the error class, never
    /// embedding input-derived values (same convention as
    /// `ModelError::fingerprint`). Wrapped synthesis errors keep their own
    /// fingerprint.
    pub fn fingerprint(&self) -> &'static str {
        match self {
            JobError::Synth(e) => e.fingerprint(),
            JobError::Panicked { .. } => "panicked",
        }
    }
}

/// Terminal status of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// The full restart portfolio ran; the result is the deterministic
    /// argmin over all attempts.
    Completed,
    /// The deadline expired before the portfolio finished; the outcome
    /// carries the best result among the attempts that did complete
    /// (possibly none, for a zero deadline).
    DeadlineExceeded,
    /// The job failed — a structured synthesis error, or a panic caught
    /// at the attempt boundary; remaining attempts were cancelled. Batch
    /// neighbors are unaffected.
    Failed(JobError),
}

impl JobStatus {
    /// Stable lowercase label used in telemetry (`completed` /
    /// `deadline_exceeded` / `failed`).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::DeadlineExceeded => "deadline_exceeded",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// Result of one job in a batch.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's name.
    pub name: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Selected synthesis result. `Some` whenever at least one attempt
    /// completed — including under [`JobStatus::DeadlineExceeded`], where
    /// it is the degraded best-so-far. Always `None` under
    /// [`JobStatus::Failed`]: which sibling attempts happened to finish
    /// before the failure cancelled the job is a scheduling race, so a
    /// partial best would not be deterministic across worker counts.
    pub result: Option<SynthesisResult>,
    /// Restart attempts that ran to completion.
    pub attempts_completed: usize,
    /// Restart attempts the portfolio was scheduled to run.
    pub attempts_total: usize,
    /// Cluster/stitch statistics when the job ran in decomposed mode and
    /// produced a stitched result; `None` for flat jobs.
    pub decomposition: Option<DecompositionSummary>,
}

/// Per-job shared state while the batch executes.
#[derive(Debug)]
struct JobState {
    attempts_total: usize,
    started: OnceLock<Instant>,
    cancelled: AtomicBool,
    deadline_hit: AtomicBool,
    remaining: AtomicUsize,
    completed: AtomicUsize,
    /// Partitioning moves evaluated across every completed attempt.
    moves: AtomicUsize,
    /// Best completed attempt: `(attempt index, result)`, minimal under
    /// `(portfolio_rank, attempt)`.
    best: Mutex<Option<(usize, SynthesisResult)>>,
    error: Mutex<Option<JobError>>,
}

impl JobState {
    fn new(attempts_total: usize) -> Self {
        JobState {
            attempts_total,
            started: OnceLock::new(),
            cancelled: AtomicBool::new(false),
            deadline_hit: AtomicBool::new(false),
            remaining: AtomicUsize::new(attempts_total),
            completed: AtomicUsize::new(0),
            moves: AtomicUsize::new(0),
            best: Mutex::new(None),
            error: Mutex::new(None),
        }
    }

    fn status(&self) -> JobStatus {
        let error = self.error.lock().expect("engine lock never poisoned");
        if let Some(e) = error.as_ref() {
            JobStatus::Failed(e.clone())
        } else if self.deadline_hit.load(Ordering::Acquire) {
            JobStatus::DeadlineExceeded
        } else {
            JobStatus::Completed
        }
    }

    fn into_outcome(self, name: String) -> JobOutcome {
        let status = self.status();
        let result = if matches!(status, JobStatus::Failed(_)) {
            None
        } else {
            self.best
                .into_inner()
                .expect("engine lock never poisoned")
                .map(|(_, r)| r)
        };
        JobOutcome {
            name,
            status,
            result,
            attempts_completed: self.completed.load(Ordering::Acquire),
            attempts_total: self.attempts_total,
            decomposition: None,
        }
    }
}

/// Folds a decomposed job's per-cluster outcomes into one: any failed
/// cluster fails the job (the lowest cluster index wins, so the reported
/// error is deterministic for any worker count); a cluster left without a
/// result (deadline before its first attempt completed) degrades the job
/// to [`JobStatus::DeadlineExceeded`] with no global result; otherwise
/// the cluster networks are stitched into one global network
/// ([`stitch`]) and Theorem 1 is re-verified on the stitched whole.
fn reduce_decomposed(job: &Job, plan: &ClusterPlan, parts: Vec<JobOutcome>) -> JobOutcome {
    let attempts_completed = parts.iter().map(|p| p.attempts_completed).sum();
    let attempts_total = parts.iter().map(|p| p.attempts_total).sum();
    let finish = |status, result, decomposition| JobOutcome {
        name: job.name.clone(),
        status,
        result,
        attempts_completed,
        attempts_total,
        decomposition,
    };
    if let Some(failed) = parts
        .iter()
        .find(|p| matches!(p.status, JobStatus::Failed(_)))
    {
        return finish(failed.status.clone(), None, None);
    }
    let deadline_hit = parts
        .iter()
        .any(|p| matches!(p.status, JobStatus::DeadlineExceeded));
    if parts.iter().any(|p| p.result.is_none()) {
        return finish(JobStatus::DeadlineExceeded, None, None);
    }
    let results: Vec<SynthesisResult> = parts
        .into_iter()
        .map(|p| p.result.expect("absence handled above"))
        .collect();
    match stitch(job.request.pattern(), plan, &results, job.request.config()) {
        Err(e) => finish(JobStatus::Failed(JobError::Synth(e)), None, None),
        Ok((result, summary)) => {
            let status = if deadline_hit {
                JobStatus::DeadlineExceeded
            } else {
                JobStatus::Completed
            };
            finish(status, Some(result), Some(summary))
        }
    }
}

/// Wraps an engine's sink: the first emit failure degrades the stream
/// loudly — a best-effort [`EngineEvent::SinkDegraded`] marker and a
/// best-effort stderr notice (stderr may itself be the broken sink) —
/// after which the guard behaves as a [`NullSink`], so workers never
/// block on broken telemetry I/O and results are never affected. Clones
/// of an engine share one guard, so it degrades once per engine.
struct SinkGuard {
    sink: Arc<dyn EventSink>,
    degraded: AtomicBool,
}

impl SinkGuard {
    fn new(sink: Arc<dyn EventSink>) -> Self {
        SinkGuard {
            sink,
            degraded: AtomicBool::new(false),
        }
    }

    fn emit(&self, event: &EngineEvent) {
        if self.degraded.load(Ordering::Acquire) {
            return;
        }
        if let Err(e) = self.sink.emit(event) {
            if !self.degraded.swap(true, Ordering::AcqRel) {
                // Tell the stream why it is ending (best effort — the
                // sink may be gone entirely), then drop further events.
                let _ = self.sink.emit(&EngineEvent::SinkDegraded {
                    error: e.to_string(),
                });
                let _ = writeln!(
                    std::io::stderr(),
                    "nocsyn-engine: telemetry sink degraded, events dropped from here: {e}"
                );
            }
        }
    }
}

/// Renders a panic payload: `&str` and `String` payloads verbatim,
/// anything else as a fixed placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The execution engine: a worker count and a telemetry sink.
///
/// Cheap to construct per batch; holds no threads between runs (workers
/// are scoped to [`Engine::run`] and always joined before it returns, so
/// nothing leaks even when deadlines fire).
#[derive(Clone)]
pub struct Engine {
    /// The set worker count; `None` sizes the engine to the machine when
    /// it needs a count.
    workers: Option<usize>,
    sink: Arc<SinkGuard>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Creates an engine sized to the machine
    /// (`std::thread::available_parallelism`, 1 if unknown) with telemetry
    /// discarded. The machine's count is read only when the engine needs
    /// it, so an engine given [`Engine::with_workers`] never asks.
    pub fn new() -> Self {
        Engine {
            workers: None,
            sink: Arc::new(SinkGuard::new(Arc::new(NullSink))),
        }
    }

    /// Sets the worker count (clamped to at least 1). The worker count
    /// affects wall time only, never the selected results.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Installs a telemetry sink behind a fresh degrade-once guard, which
    /// clones of the returned engine share.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Arc::new(SinkGuard::new(sink));
        self
    }

    /// Emits one event through the engine's sink guard — the path for
    /// events a caller adds to the engine's own stream (the serve daemon's
    /// per-request events). A broken sink degrades the stream once per
    /// engine, exactly as for the engine's job events.
    pub fn emit(&self, event: &EngineEvent) {
        self.sink.emit(event);
    }

    /// Configured worker count: the set one, else the machine's.
    pub fn workers(&self) -> usize {
        self.workers
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Runs a batch of jobs and returns their outcomes in job order.
    ///
    /// Scheduling unit: one restart attempt. Workers claim unit numbers
    /// through an atomic cursor and map each to its `(job, attempt)` by
    /// the per-job prefix sums of the attempt counts, so a long job's
    /// portfolio and its batch neighbors share the pool. All workers are
    /// joined before this returns.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<JobOutcome> {
        // Expand into flat exec jobs: a flat job runs as itself; a
        // decomposed job fans out into one per cluster under
        // `cluster_config` — reseeded so every cluster search is
        // independent and reproducible for any worker count, with one port
        // of degree headroom reserved for the stitch phase.
        let mut execs: Vec<Job> = Vec::new();
        let mut reductions: Vec<Reduction> = Vec::with_capacity(jobs.len());
        for job in &jobs {
            match job.request.mode() {
                SynthesisMode::Flat => {
                    execs.push(job.clone());
                    reductions.push(Reduction::Flat);
                }
                SynthesisMode::Decomposed { clusters } => {
                    let pattern = job.request.pattern();
                    let k = clusters.unwrap_or_else(|| auto_cluster_count(pattern.n_procs()));
                    match cluster_pattern(pattern, k) {
                        Err(e) => reductions.push(Reduction::PlanFailed(e)),
                        Ok(plan) => {
                            for ci in 0..plan.clusters().len() {
                                execs.push(cluster_job(job, &plan, ci));
                            }
                            reductions.push(Reduction::Decomposed(plan));
                        }
                    }
                }
            }
        }

        // The attempt count of a flat exec job is its restart count; exec
        // `ei` owns the unit numbers `starts[ei]..starts[ei + 1]`.
        let attempts = |exec: &Job| exec.request.restarts().get();
        let mut starts = vec![0];
        for exec in &execs {
            starts.push(starts[starts.len() - 1] + attempts(exec));
        }
        let states: Vec<JobState> = execs.iter().map(|e| JobState::new(attempts(e))).collect();
        let cursor = AtomicUsize::new(0);
        let n_units = starts[execs.len()];
        if n_units > 0 {
            thread::scope(|scope| {
                for _ in 0..self.workers().min(n_units) {
                    scope.spawn(|| self.work(&execs, &states, &starts, &cursor));
                }
            });
        }

        // Reduce exec outcomes back into job outcomes, in job order. A
        // job's exec sub-jobs are contiguous in `execs`.
        let mut exec_outcomes = execs
            .iter()
            .zip(states)
            .map(|(exec, state)| state.into_outcome(exec.name.clone()))
            .collect::<Vec<_>>()
            .into_iter();
        jobs.iter()
            .zip(reductions)
            .map(|(job, reduction)| match reduction {
                Reduction::Flat => exec_outcomes.next().expect("one exec per flat job"),
                Reduction::PlanFailed(e) => JobOutcome {
                    name: job.name.clone(),
                    status: JobStatus::Failed(JobError::Synth(e)),
                    result: None,
                    attempts_completed: 0,
                    attempts_total: 0,
                    decomposition: None,
                },
                Reduction::Decomposed(plan) => {
                    let parts: Vec<JobOutcome> =
                        exec_outcomes.by_ref().take(plan.clusters().len()).collect();
                    reduce_decomposed(job, &plan, parts)
                }
            })
            .collect()
    }

    /// Runs one request as a batch of one job named `synth`.
    pub fn synthesize(&self, request: SynthesisRequest) -> JobOutcome {
        self.run(vec![Job::new("synth", request)])
            .pop()
            .expect("one job in, one outcome out")
    }

    /// Sweeps the degree bound over `{4, 5, 6, 8, 12, 16}` plus the
    /// request's own bound, one derived request per rung (everything but
    /// the bound carries over, so a decomposed sweep stays decomposed),
    /// and keeps the Pareto-optimal points ([`pareto_filter`]) in degree
    /// order, each with the outcome it came from. The rungs run as one
    /// batch named `pareto/d{degree}`.
    ///
    /// A rung left without a result by the request's deadline is dropped
    /// rather than failing the sweep; without a deadline every rung
    /// completes and the front is fully deterministic.
    ///
    /// # Errors
    ///
    /// The error of the lowest rung that failed.
    pub fn pareto_sweep(
        &self,
        request: &SynthesisRequest,
    ) -> Result<Vec<(ParetoPoint, JobOutcome)>, JobError> {
        let mut degrees = PARETO_LADDER.to_vec();
        degrees.push(request.config().max_degree());
        degrees.sort_unstable();
        degrees.dedup();
        let jobs = degrees
            .iter()
            .map(|&degree| {
                let rung = request
                    .clone()
                    .with_config(request.config().clone().with_max_degree(degree));
                Job::new(format!("pareto/d{degree}"), rung)
            })
            .collect();
        let mut points = Vec::new();
        let mut outcomes = std::collections::BTreeMap::new();
        for (degree, outcome) in degrees.into_iter().zip(self.run(jobs)) {
            if let JobStatus::Failed(e) = outcome.status {
                return Err(e);
            }
            let Some(result) = &outcome.result else {
                continue;
            };
            points.push(ParetoPoint {
                max_degree: degree,
                n_switches: result.report.n_switches,
                n_links: result.report.n_links,
                feasible: result.report.constraints_met,
                result: result.clone(),
            });
            outcomes.insert(degree, outcome);
        }
        Ok(pareto_filter(points)
            .into_iter()
            .map(|point| {
                let outcome = outcomes
                    .remove(&point.max_degree)
                    .expect("every surviving point has its outcome");
                (point, outcome)
            })
            .collect())
    }

    /// Worker loop: claim unit numbers until they run out. Unit `i` is
    /// attempt `i - starts[ji]` of the exec job `ji` whose range holds it.
    fn work(&self, execs: &[Job], states: &[JobState], starts: &[usize], cursor: &AtomicUsize) {
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= starts[execs.len()] {
                break;
            }
            let ji = starts.partition_point(|&start| start <= i) - 1;
            let attempt = i - starts[ji];
            let job = &execs[ji];
            let state = &states[ji];
            let started = *state.started.get_or_init(|| {
                self.emit(&EngineEvent::JobStarted {
                    job: job.name.clone(),
                    attempts: state.attempts_total,
                    deadline_ms: job.request.deadline().map(|d| d.as_millis() as u64),
                });
                Instant::now()
            });
            self.check_deadline(job, state, started);
            if !state.cancelled.load(Ordering::Acquire) {
                self.run_attempt(job, state, attempt);
            }
            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                self.finish_job(job, state, started);
            }
        }
    }

    /// Cancels the job once its deadline has passed (checked at unit
    /// granularity: an in-flight attempt is never interrupted).
    fn check_deadline(&self, job: &Job, state: &JobState, started: Instant) {
        let Some(deadline) = job.request.deadline() else {
            return;
        };
        if state.cancelled.load(Ordering::Acquire) || started.elapsed() < deadline {
            return;
        }
        state.cancelled.store(true, Ordering::Release);
        if !state.deadline_hit.swap(true, Ordering::AcqRel) {
            self.emit(&EngineEvent::DeadlineExceeded {
                job: job.name.clone(),
                completed_attempts: state.completed.load(Ordering::Acquire),
            });
        }
    }

    /// Runs one restart attempt once, under `catch_unwind`, and merges a
    /// success into the stable argmin reduction. An error or a panic
    /// fails the job (first error wins) and cancels its remaining
    /// attempts; the batch carries on.
    fn run_attempt(&self, job: &Job, state: &JobState, attempt: usize) {
        let t0 = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if job.injected_panics.contains(&attempt) {
                panic!("injected panic (attempt {attempt})");
            }
            synthesize_attempt(&job.request, attempt)
        }));
        let error = match outcome {
            Ok(Ok(result)) => {
                self.emit(&EngineEvent::RestartCompleted {
                    job: job.name.clone(),
                    attempt,
                    seed: attempt_seed(job.request.config(), attempt),
                    links: result.report.n_links,
                    switches: result.report.n_switches,
                    constraints_met: result.report.constraints_met,
                    moves: result.report.moves_tried,
                    elapsed_ms: t0.elapsed().as_millis() as u64,
                });
                state.completed.fetch_add(1, Ordering::AcqRel);
                state
                    .moves
                    .fetch_add(result.report.moves_tried, Ordering::AcqRel);
                let mut best = state.best.lock().expect("engine lock never poisoned");
                let better = best.as_ref().is_none_or(|(best_attempt, best_result)| {
                    (portfolio_rank(&result), attempt)
                        < (portfolio_rank(best_result), *best_attempt)
                });
                if better {
                    *best = Some((attempt, result));
                }
                return;
            }
            Ok(Err(e)) => JobError::Synth(e),
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                self.emit(&EngineEvent::AttemptPanicked {
                    job: job.name.clone(),
                    attempt,
                    message: message.clone(),
                });
                JobError::Panicked { message }
            }
        };
        state.cancelled.store(true, Ordering::Release);
        state
            .error
            .lock()
            .expect("engine lock never poisoned")
            .get_or_insert(error);
    }

    /// Last unit of a job: emit `JobFinished` with its wall time.
    fn finish_job(&self, job: &Job, state: &JobState, started: Instant) {
        let (links, switches) = {
            let best = state.best.lock().expect("engine lock never poisoned");
            best.as_ref().map_or((None, None), |(_, r)| {
                (Some(r.report.n_links), Some(r.report.n_switches))
            })
        };
        self.emit(&EngineEvent::JobFinished {
            job: job.name.clone(),
            status: state.status().label().to_string(),
            completed_attempts: state.completed.load(Ordering::Acquire),
            links,
            switches,
            moves: state.moves.load(Ordering::Acquire),
            elapsed_ms: started.elapsed().as_millis() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::{Phase, PhaseSchedule};
    use nocsyn_synth::{AppPattern, SynthesisConfig};

    fn pattern(n: usize) -> AppPattern {
        let mut sched = PhaseSchedule::new(n);
        let forward: Vec<(usize, usize)> = (0..n).map(|p| (p, (p + 1) % n)).collect();
        let stride: Vec<(usize, usize)> = (0..n).map(|p| (p, (p + n / 2) % n)).collect();
        sched
            .push(Phase::from_flows(forward).expect("valid flows"))
            .expect("phase fits");
        sched
            .push(Phase::from_flows(stride).expect("valid flows"))
            .expect("phase fits");
        AppPattern::from_schedule(&sched)
    }

    const RESTARTS: usize = 6;

    fn config() -> SynthesisConfig {
        SynthesisConfig::new().with_seed(0xE7A1)
    }

    fn request(pattern: AppPattern) -> SynthesisRequest {
        SynthesisRequest::builder(pattern)
            .config(config())
            .restarts(RESTARTS)
            .build()
            .expect("flat request builds")
    }

    #[test]
    fn worker_count_is_the_set_one_else_the_machines() {
        assert_eq!(Engine::new().with_workers(3).workers(), 3);
        assert_eq!(Engine::new().with_workers(0).workers(), 1);
        let machine = thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Engine::new().workers(), machine);
        assert_eq!(Engine::default().workers(), machine);
    }

    /// The one-worker portfolio: what "sequential" means.
    fn sequential(request: SynthesisRequest) -> SynthesisResult {
        Engine::new()
            .with_workers(1)
            .synthesize(request)
            .result
            .expect("no deadline, so a result exists")
    }

    #[test]
    fn matches_sequential_synthesize_for_any_worker_count() {
        let sequential = sequential(request(pattern(8)));
        for workers in [2usize, 4, 8] {
            let outcome = Engine::new()
                .with_workers(workers)
                .synthesize(request(pattern(8)));
            assert_eq!(outcome.status, JobStatus::Completed, "workers={workers}");
            assert_eq!(outcome.attempts_completed, 6);
            let result = outcome.result.expect("completed job has a result");
            assert_eq!(result.report, sequential.report, "workers={workers}");
            assert_eq!(result.routes, sequential.routes, "workers={workers}");
            assert_eq!(result.placement, sequential.placement, "workers={workers}");
        }
    }

    #[test]
    fn batch_outcomes_come_back_in_job_order() {
        let jobs = vec![
            Job::new("a", request(pattern(4))),
            Job::new("b", request(pattern(8))),
            Job::new("c", request(pattern(6))),
        ];
        let outcomes = Engine::new().with_workers(4).run(jobs);
        let names: Vec<&str> = outcomes.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        for o in &outcomes {
            assert_eq!(o.status, JobStatus::Completed, "{}", o.name);
            assert!(o.result.is_some(), "{}", o.name);
            assert_eq!(o.attempts_completed, o.attempts_total, "{}", o.name);
        }
    }

    #[test]
    fn every_attempt_of_every_job_runs_exactly_once() {
        let counts = [1, 3, 2];
        let jobs = counts
            .iter()
            .enumerate()
            .map(|(i, &restarts)| {
                let request = SynthesisRequest::builder(pattern(4))
                    .config(config())
                    .restarts(restarts)
                    .build()
                    .expect("flat request builds");
                Job::new(format!("j{i}"), request)
            })
            .collect();
        let sink = Arc::new(CollectSink::new());
        Engine::new()
            .with_workers(2)
            .with_sink(sink.clone())
            .run(jobs);
        let mut ran: Vec<(String, usize)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                EngineEvent::RestartCompleted { job, attempt, .. } => Some((job, attempt)),
                _ => None,
            })
            .collect();
        ran.sort();
        let expected: Vec<(String, usize)> = counts
            .iter()
            .enumerate()
            .flat_map(|(i, &n)| (0..n).map(move |a| (format!("j{i}"), a)))
            .collect();
        assert_eq!(ran, expected);
    }

    #[test]
    fn zero_deadline_degrades_without_panicking() {
        let late = SynthesisRequest::builder(pattern(8))
            .config(config())
            .restarts(RESTARTS)
            .deadline_ms(0)
            .build()
            .expect("request builds");
        let job = Job::new("late", late);
        let outcome = Engine::new().with_workers(4).run(vec![job]).pop().unwrap();
        assert_eq!(outcome.status, JobStatus::DeadlineExceeded);
        assert!(outcome.result.is_none());
        assert_eq!(outcome.attempts_completed, 0);
        assert_eq!(outcome.attempts_total, 6);
    }

    #[test]
    fn empty_pattern_fails_the_job_but_not_the_batch() {
        let empty = AppPattern::from_schedule(&PhaseSchedule::new(0));
        let jobs = vec![
            Job::new("bad", request(empty)),
            Job::new("good", request(pattern(4))),
        ];
        let outcomes = Engine::new().with_workers(2).run(jobs);
        assert!(matches!(outcomes[0].status, JobStatus::Failed(_)));
        assert!(outcomes[0].result.is_none());
        assert_eq!(outcomes[1].status, JobStatus::Completed);
        assert!(outcomes[1].result.is_some());
    }

    #[test]
    fn telemetry_covers_the_job_lifecycle() {
        let sink = Arc::new(CollectSink::new());
        let job = Job::new("cg-ish", request(pattern(8)));
        let outcome = Engine::new()
            .with_workers(2)
            .with_sink(sink.clone())
            .run(vec![job])
            .pop()
            .unwrap();
        assert_eq!(outcome.status, JobStatus::Completed);
        let events = sink.events();
        let kinds: Vec<&str> = events.iter().map(EngineEvent::kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == "job_started").count(), 1);
        assert_eq!(kinds.iter().filter(|k| **k == "job_finished").count(), 1);
        assert_eq!(
            kinds.iter().filter(|k| **k == "restart_completed").count(),
            6
        );
        assert_eq!(events.first().unwrap().kind(), "job_started");
        assert_eq!(events.last().unwrap().kind(), "job_finished");
        // Every restart event carries this job's name, a distinct attempt
        // and that attempt's derived seed; attempt 0 runs on the request's
        // own seed.
        let mut attempts: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::RestartCompleted {
                    job, attempt, seed, ..
                } => {
                    assert_eq!(job, "cg-ish");
                    assert_eq!(*seed, attempt_seed(&config(), *attempt));
                    if *attempt == 0 {
                        assert_eq!(*seed, config().seed());
                    }
                    Some(*attempt)
                }
                _ => None,
            })
            .collect();
        attempts.sort_unstable();
        assert_eq!(attempts, vec![0, 1, 2, 3, 4, 5]);
    }

    /// Regression pin for the search-effort telemetry: every restart and
    /// job-finished event must carry a `moves` counter, both in the typed
    /// event and in its JSON rendering, and the job total must be the sum
    /// over its restarts (all attempts' effort, not the winner's alone).
    #[test]
    fn moves_telemetry_is_pinned_in_event_json() {
        let sink = Arc::new(CollectSink::new());
        let outcome = Engine::new()
            .with_workers(2)
            .with_sink(sink.clone())
            .synthesize(request(pattern(8)));
        assert_eq!(outcome.status, JobStatus::Completed);
        let events = sink.events();
        let mut restart_sum = 0usize;
        let mut finished_moves = None;
        for e in &events {
            match e {
                EngineEvent::RestartCompleted { moves, .. } => {
                    assert!(*moves > 0, "a restart that searched reports its moves");
                    restart_sum += moves;
                    let json = e.to_json().to_string();
                    assert!(json.contains("\"moves\":"), "{json}");
                }
                EngineEvent::JobFinished { moves, .. } => {
                    finished_moves = Some(*moves);
                    let json = e.to_json().to_string();
                    assert!(json.contains("\"moves\":"), "{json}");
                }
                _ => {}
            }
        }
        assert_eq!(
            finished_moves.expect("job_finished event is emitted"),
            restart_sum,
            "job moves must aggregate every restart's effort"
        );
    }

    #[test]
    fn decomposed_job_is_worker_invariant_and_contention_free() {
        let req = SynthesisRequest::builder(pattern(16))
            .config(config())
            .restarts(RESTARTS)
            .mode(SynthesisMode::Decomposed { clusters: Some(2) })
            .build()
            .expect("request builds");
        let sink = Arc::new(CollectSink::new());
        let baseline = Engine::new()
            .with_workers(1)
            .with_sink(sink.clone())
            .run(vec![Job::new("d", req.clone())])
            .pop()
            .expect("one outcome");
        assert_eq!(baseline.status, JobStatus::Completed);
        let summary = baseline
            .decomposition
            .expect("decomposed job carries a summary");
        assert_eq!(summary.clusters, 2);
        assert!(summary.cut_flows > 0);
        assert_eq!(baseline.attempts_total, 2 * RESTARTS);
        assert_eq!(baseline.attempts_completed, baseline.attempts_total);
        let base = baseline
            .result
            .as_ref()
            .expect("completed job has a result");
        assert!(base.report.contention_free);
        // Telemetry attributes units to the per-cluster sub-jobs.
        let started: Vec<String> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                EngineEvent::JobStarted { job, .. } => Some(job),
                _ => None,
            })
            .collect();
        assert_eq!(started, ["d/c0", "d/c1"]);
        for workers in [2usize, 4, 8] {
            let outcome = Engine::new()
                .with_workers(workers)
                .run(vec![Job::new("d", req.clone())])
                .pop()
                .expect("one outcome");
            assert_eq!(outcome.status, JobStatus::Completed, "workers={workers}");
            let result = outcome.result.expect("completed job has a result");
            assert_eq!(result.report, base.report, "workers={workers}");
            assert_eq!(result.routes, base.routes, "workers={workers}");
            assert_eq!(outcome.decomposition, Some(summary), "workers={workers}");
        }
    }

    #[test]
    fn decomposed_empty_pattern_fails_cleanly() {
        let empty = AppPattern::from_schedule(&PhaseSchedule::new(0));
        let req = SynthesisRequest::builder(empty)
            .config(config())
            .mode(SynthesisMode::Decomposed { clusters: None })
            .build()
            .expect("request builds");
        let outcome = Engine::new()
            .run(vec![Job::new("bad", req)])
            .pop()
            .expect("one outcome");
        match &outcome.status {
            JobStatus::Failed(e) => assert_eq!(e.fingerprint(), "empty-pattern"),
            other => panic!("expected a failure, got {other:?}"),
        }
        assert!(outcome.result.is_none());
        assert!(outcome.decomposition.is_none());
        assert_eq!(outcome.attempts_total, 0);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        assert!(Engine::new().run(Vec::new()).is_empty());
    }

    #[test]
    fn status_labels_are_stable() {
        assert_eq!(JobStatus::Completed.label(), "completed");
        assert_eq!(JobStatus::DeadlineExceeded.label(), "deadline_exceeded");
        assert_eq!(
            JobStatus::Failed(SynthError::EmptyPattern.into()).label(),
            "failed"
        );
        assert_eq!(
            JobStatus::Failed(JobError::Panicked {
                message: "boom".into()
            })
            .label(),
            "failed"
        );
    }

    #[test]
    fn job_error_displays_both_causes() {
        let synth = JobError::from(SynthError::EmptyPattern);
        assert_eq!(synth.to_string(), SynthError::EmptyPattern.to_string());
        let panicked = JobError::Panicked {
            message: "boom".into(),
        };
        assert_eq!(panicked.to_string(), "attempt panicked: boom");
    }

    #[test]
    fn injected_panic_fails_the_job_in_isolation() {
        let sink = Arc::new(CollectSink::new());
        let jobs = vec![
            Job::new("poisoned", request(pattern(8))).with_injected_panic(2),
            Job::new("healthy", request(pattern(8))),
        ];
        let outcomes = Engine::new()
            .with_workers(4)
            .with_sink(sink.clone())
            .run(jobs);
        match &outcomes[0].status {
            JobStatus::Failed(JobError::Panicked { message }) => {
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("expected a panicked failure, got {other:?}"),
        }
        // The sibling is bit-identical to a panic-free sequential run.
        assert_eq!(outcomes[1].status, JobStatus::Completed);
        let baseline = sequential(request(pattern(8)));
        let healthy = outcomes[1].result.as_ref().expect("healthy job succeeds");
        assert_eq!(healthy.report, baseline.report);
        assert_eq!(healthy.routes, baseline.routes);
        // The panic is a structured event, attributed to the right unit.
        let panics: Vec<EngineEvent> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind() == "attempt_panicked")
            .collect();
        assert_eq!(panics.len(), 1);
        let EngineEvent::AttemptPanicked { job, attempt, .. } = &panics[0] else {
            unreachable!("filtered on kind");
        };
        assert_eq!(job, "poisoned");
        assert_eq!(*attempt, 2);
    }

    /// Fails the first emit, accepts everything after — a transient I/O
    /// error mid-stream.
    struct FailOnceSink {
        failed: AtomicBool,
        inner: CollectSink,
    }

    impl EventSink for FailOnceSink {
        fn emit(&self, event: &EngineEvent) -> std::io::Result<()> {
            if !self.failed.swap(true, Ordering::AcqRel) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "broken pipe",
                ));
            }
            self.inner.emit(event)
        }
    }

    #[test]
    fn broken_sink_degrades_loudly_and_never_affects_results() {
        let sink = Arc::new(FailOnceSink {
            failed: AtomicBool::new(false),
            inner: CollectSink::new(),
        });
        let outcome = Engine::new()
            .with_workers(2)
            .with_sink(sink.clone())
            .synthesize(request(pattern(8)));
        assert_eq!(outcome.status, JobStatus::Completed);
        let baseline = sequential(request(pattern(8)));
        assert_eq!(
            outcome.result.expect("completed job has a result").report,
            baseline.report
        );
        // The stream ends with a single degradation marker; everything
        // after the failure is dropped, not half-written.
        let events = sink.inner.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind(), "sink_degraded");
    }

    /// Fails every emit and records which event kinds were attempted.
    #[derive(Default)]
    struct AlwaysFailSink {
        attempted: Mutex<Vec<&'static str>>,
    }

    impl EventSink for AlwaysFailSink {
        fn emit(&self, event: &EngineEvent) -> std::io::Result<()> {
            self.attempted
                .lock()
                .expect("sink lock never poisoned")
                .push(event.kind());
            Err(std::io::Error::from(std::io::ErrorKind::StorageFull))
        }
    }

    #[test]
    fn a_broken_sink_degrades_once_per_engine() {
        let sink = Arc::new(AlwaysFailSink::default());
        let engine = Engine::new().with_workers(2).with_sink(sink.clone());
        let first = engine.synthesize(request(pattern(8)));
        let second = engine.clone().synthesize(request(pattern(8)));
        engine.emit(&EngineEvent::SinkDegraded {
            error: "ignored".into(),
        });
        assert_eq!(first.status, JobStatus::Completed);
        assert_eq!(
            second.result.map(|r| r.report),
            first.result.map(|r| r.report)
        );
        // One failed job event, then the one degradation marker; nothing
        // after it reaches the sink, across runs, clones and direct emits.
        let attempted = sink.attempted.lock().expect("sink lock never poisoned");
        assert_eq!(*attempted, ["job_started", "sink_degraded"]);
    }

    #[test]
    fn warm_start_request_runs_from_the_given_placement() {
        let base = sequential(request(pattern(8)));
        let warm = SynthesisRequest::builder(pattern(8))
            .config(config())
            .restarts(1)
            .warm_start(base.placement.clone())
            .build()
            .expect("request builds");
        let outcome = Engine::new().with_workers(2).synthesize(warm);
        assert_eq!(outcome.status, JobStatus::Completed);
        let again = outcome.result.expect("completed job has a result");
        // Same pattern from a placement that already meets the
        // constraint: nothing moves.
        assert_eq!(again.placement, base.placement);
        // A placement that does not cover the pattern fails the job.
        let short = SynthesisRequest::builder(pattern(8))
            .warm_start(vec![0; 3])
            .build()
            .expect("request builds");
        let failed = Engine::new().synthesize(short);
        match &failed.status {
            JobStatus::Failed(e) => assert_eq!(e.fingerprint(), "empty-pattern"),
            other => panic!("expected a failure, got {other:?}"),
        }
    }

    #[test]
    fn pareto_sweep_returns_nondominated_feasible_points() {
        let req = SynthesisRequest::builder(pattern(8))
            .seed(5)
            .restarts(2)
            .build()
            .expect("request builds");
        let sweep = Engine::new()
            .with_workers(2)
            .pareto_sweep(&req)
            .expect("sweep succeeds");
        assert!(!sweep.is_empty());
        let points: Vec<&ParetoPoint> = sweep.iter().map(|(p, _)| p).collect();
        assert!(points.iter().all(|p| p.feasible));
        for a in &points {
            for b in &points {
                if !std::ptr::eq(*a, *b) {
                    assert!(!a.dominates(b), "dominated point survived");
                }
            }
        }
        assert!(points.iter().map(|p| p.max_degree).is_sorted());
        // Degree 8 admits the 8-port mega-switch (1 switch, 0 links).
        let top = points.last().expect("non-empty front");
        assert_eq!((top.n_switches, top.n_links), (1, 0));
        // Each point travels with the outcome it came from, and a rung is
        // the request with only its degree bound changed.
        for (point, outcome) in &sweep {
            let result = outcome.result.as_ref().expect("kept rungs have results");
            assert_eq!(result.report, point.result.report);
            let rung = req
                .clone()
                .with_config(req.config().clone().with_max_degree(point.max_degree));
            assert_eq!(sequential(rung).report, result.report);
        }
    }

    #[test]
    fn pareto_sweep_keeps_every_rung_when_nothing_is_feasible() {
        // 20 processors and no partitioning rounds: the mega-switch needs
        // 20 ports, above every rung.
        let req = SynthesisRequest::builder(pattern(20))
            .config(SynthesisConfig::new().with_max_rounds(0))
            .restarts(1)
            .build()
            .expect("request builds");
        let sweep = Engine::new().pareto_sweep(&req).expect("sweep succeeds");
        let degrees: Vec<usize> = sweep.iter().map(|(p, _)| p.max_degree).collect();
        assert_eq!(degrees, [4, 5, 6, 8, 12, 16]);
        assert!(sweep.iter().all(|(p, _)| !p.feasible));
    }

    #[test]
    fn pareto_sweep_reports_a_failed_rung() {
        let empty = AppPattern::from_schedule(&PhaseSchedule::new(0));
        let req = SynthesisRequest::builder(empty).build().expect("builds");
        let err = Engine::new()
            .pareto_sweep(&req)
            .expect_err("an empty pattern fails every rung");
        assert_eq!(err.fingerprint(), "empty-pattern");
    }
}
