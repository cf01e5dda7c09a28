//! Deterministic I/O chaos: seeded fault plans, fault-injecting I/O
//! wrappers, and the closed-loop harness behind `nocsyn chaos`.
//!
//! The fault model mirrors what PR 3 did for links and switches, applied
//! to the serving substrate instead of the synthesized network: every
//! fault is drawn from a seeded [`nocsyn_rng::Rng`] stream, so a chaos
//! run is a *replayable schedule*, not a dice roll. The named fault
//! points:
//!
//! | label                | where it fires                                  |
//! |----------------------|-------------------------------------------------|
//! | `disk-write-fail`    | a cache file write errors, nothing lands        |
//! | `disk-write-torn`    | the process "crashes" after `k` bytes land      |
//! | `disk-read-fail`     | a cache file read errors                        |
//! | `disk-rename-fail`   | a commit rename errors                          |
//! | `conn-read-stall`    | the peer stops sending mid-request (slowloris)  |
//! | `conn-mid-line-eof`  | the peer disconnects mid-line                   |
//! | `engine-panic`       | a synthesis attempt panics inside the engine    |
//!
//! A torn write models a *process crash*: after it fires, every further
//! I/O on the [`ChaosDisk`] fails until [`FaultPlan::revive`] — so the
//! in-process cleanup code cannot paper over the torn file, and the
//! startup recovery scan has to earn its keep.
//!
//! [`run_chaos`] drives a seeded schedule of requests × faults against an
//! in-process server over a [`MemDisk`] and checks three invariants:
//!
//! 1. **No torn entry is ever served**: every `status:"ok"` synth reply
//!    is byte-identical (modulo the cache-tier marker) to the fault-free
//!    reference reply for that job.
//! 2. **Every reply is well-formed** JSON with a declared kind, or the
//!    connection drops cleanly with no reply at all.
//! 3. **The cache heals**: once faults stop, a fresh process over the
//!    surviving store serves every job with the reference bytes, and the
//!    second request is a warm hit.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use nocsyn_model::json::{self, JsonValue};
use nocsyn_rng::{hash_str, Rng};

use crate::io::{DiskIo, MemDisk};
use crate::proto::{Request, SynthRequest};
use crate::server::{ServeOptions, Server};

/// A named place where the chaos layer may inject a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// A cache file write (`DiskIo::write`).
    DiskWrite,
    /// A cache file read (`DiskIo::read`).
    DiskRead,
    /// A commit rename (`DiskIo::rename`).
    DiskRename,
    /// Reading a request line from a connection.
    ConnRead,
    /// Running a synthesis job in the engine.
    Engine,
}

impl FaultPoint {
    const ALL: [FaultPoint; 5] = [
        FaultPoint::DiskWrite,
        FaultPoint::DiskRead,
        FaultPoint::DiskRename,
        FaultPoint::ConnRead,
        FaultPoint::Engine,
    ];

    fn index(self) -> usize {
        match self {
            FaultPoint::DiskWrite => 0,
            FaultPoint::DiskRead => 1,
            FaultPoint::DiskRename => 2,
            FaultPoint::ConnRead => 3,
            FaultPoint::Engine => 4,
        }
    }

    /// Stable kebab-case label of the point's RNG stream.
    pub fn label(self) -> &'static str {
        match self {
            FaultPoint::DiskWrite => "disk-write",
            FaultPoint::DiskRead => "disk-read",
            FaultPoint::DiskRename => "disk-rename",
            FaultPoint::ConnRead => "conn-read",
            FaultPoint::Engine => "engine",
        }
    }
}

/// One injected fault, as decided by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The operation errors; nothing happened.
    Fail,
    /// A write lands only its first `k` bytes, then the process "dies"
    /// (all further disk I/O fails until [`FaultPlan::revive`]).
    Torn(usize),
    /// The connection delivers `k` bytes and then stalls (times out).
    Stall(usize),
    /// The connection delivers `k` bytes and then closes mid-line.
    MidLineEof(usize),
    /// The synthesis attempt panics inside the engine.
    Panic,
}

/// Stable labels for the fault summary, one per injectable outcome.
const FAULT_LABELS: [&str; 7] = [
    "conn-mid-line-eof",
    "conn-read-stall",
    "disk-read-fail",
    "disk-rename-fail",
    "disk-write-fail",
    "disk-write-torn",
    "engine-panic",
];

/// A seeded, deterministic schedule of faults. Each fault point draws
/// from its own RNG stream (seeded from the plan seed and the point
/// label), so the decision sequence at one point is independent of how
/// calls interleave across points — the property that keeps same-seed
/// chaos runs byte-identical.
#[derive(Debug)]
pub struct FaultPlan {
    armed: bool,
    crashed: bool,
    probs: [f64; 5],
    rngs: [Rng; 5],
    ops: [u64; 5],
    scripted_fail: [Vec<u64>; 5],
    scripted_torn: Vec<(u64, usize)>,
    counts: BTreeMap<&'static str, u64>,
}

impl FaultPlan {
    /// A plan with the default fault probabilities, armed.
    pub fn seeded(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed);
        plan.probs = [0.10, 0.06, 0.05, 0.08, 0.03];
        plan
    }

    /// A plan that injects nothing until scripted faults are added —
    /// the starting point for targeted crash-point tests.
    pub fn quiet(seed: u64) -> Self {
        let rngs = FaultPoint::ALL.map(|p| Rng::seed_from_u64(seed ^ hash_str(p.label())));
        FaultPlan {
            armed: true,
            crashed: false,
            probs: [0.0; 5],
            rngs,
            ops: [0; 5],
            scripted_fail: Default::default(),
            scripted_torn: Vec::new(),
            counts: FAULT_LABELS.iter().map(|l| (*l, 0)).collect(),
        }
    }

    /// Overrides one point's fault probability.
    #[must_use]
    pub fn with_probability(mut self, point: FaultPoint, p: f64) -> Self {
        self.probs[point.index()] = p.clamp(0.0, 1.0);
        self
    }

    /// Scripts a hard failure at the `op`-th operation (0-based) of
    /// `point`, independent of the probabilistic stream.
    #[must_use]
    pub fn with_fail_at(mut self, point: FaultPoint, op: u64) -> Self {
        self.scripted_fail[point.index()].push(op);
        self
    }

    /// Scripts a torn write (crash after `k` bytes) at the `op`-th
    /// `DiskWrite` operation.
    #[must_use]
    pub fn with_torn_write_at(mut self, op: u64, k: usize) -> Self {
        self.scripted_torn.push((op, k));
        self
    }

    /// Stops all probabilistic injection (scripted faults still fire);
    /// the healing phase of a chaos run flips this.
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Whether a torn write has "crashed the process": all disk I/O
    /// fails until [`FaultPlan::revive`].
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Clears the crashed state — the harness's model of a restart.
    pub fn revive(&mut self) {
        self.crashed = false;
    }

    /// Per-label injected-fault counts (all labels, stable order).
    pub fn injected(&self) -> Vec<(&'static str, u64)> {
        self.counts.iter().map(|(l, c)| (*l, *c)).collect()
    }

    fn count(&mut self, label: &'static str) {
        *self.counts.entry(label).or_insert(0) += 1;
    }

    /// Decides whether the next operation at `point` faults. `len` is
    /// the operation's payload size, used to pick torn/cut offsets.
    pub fn decide(&mut self, point: FaultPoint, len: usize) -> Option<InjectedFault> {
        let i = point.index();
        let op = self.ops[i];
        self.ops[i] += 1;
        if self.crashed {
            return None;
        }
        if point == FaultPoint::DiskWrite {
            if let Some(&(_, k)) = self.scripted_torn.iter().find(|&&(o, _)| o == op) {
                self.crashed = true;
                self.count("disk-write-torn");
                return Some(InjectedFault::Torn(k.min(len)));
            }
        }
        if self.scripted_fail[i].contains(&op) {
            return Some(self.fail_kind(point, len));
        }
        if !self.armed || self.probs[i] <= 0.0 {
            return None;
        }
        let p = self.probs[i];
        if !self.rngs[i].gen_bool(p) {
            return None;
        }
        match point {
            FaultPoint::DiskWrite => {
                if self.rngs[i].gen_bool(0.5) {
                    let k = self.rngs[i].gen_range(0..=len);
                    self.crashed = true;
                    self.count("disk-write-torn");
                    Some(InjectedFault::Torn(k))
                } else {
                    self.count("disk-write-fail");
                    Some(InjectedFault::Fail)
                }
            }
            FaultPoint::ConnRead => {
                let k = self.rngs[i].gen_range(0..=len);
                if self.rngs[i].gen_bool(0.5) {
                    self.count("conn-read-stall");
                    Some(InjectedFault::Stall(k))
                } else {
                    self.count("conn-mid-line-eof");
                    Some(InjectedFault::MidLineEof(k))
                }
            }
            _ => Some(self.fail_kind(point, len)),
        }
    }

    /// The non-torn fault for a point (used by scripted failures).
    fn fail_kind(&mut self, point: FaultPoint, len: usize) -> InjectedFault {
        match point {
            FaultPoint::DiskWrite => {
                self.count("disk-write-fail");
                InjectedFault::Fail
            }
            FaultPoint::DiskRead => {
                self.count("disk-read-fail");
                InjectedFault::Fail
            }
            FaultPoint::DiskRename => {
                self.count("disk-rename-fail");
                InjectedFault::Fail
            }
            FaultPoint::ConnRead => {
                self.count("conn-mid-line-eof");
                InjectedFault::MidLineEof(len / 2)
            }
            FaultPoint::Engine => {
                self.count("engine-panic");
                InjectedFault::Panic
            }
        }
    }
}

fn chaos_err(detail: &str) -> io::Error {
    io::Error::other(format!("chaos: {detail}"))
}

/// A [`DiskIo`] that consults a shared [`FaultPlan`] before delegating
/// to the wrapped store. After a torn write "crashes the process", every
/// operation fails until the plan is revived.
#[derive(Debug)]
pub struct ChaosDisk {
    inner: Arc<dyn DiskIo>,
    plan: Arc<Mutex<FaultPlan>>,
}

impl ChaosDisk {
    /// Wraps `inner` with faults drawn from `plan`.
    pub fn new(inner: Arc<dyn DiskIo>, plan: Arc<Mutex<FaultPlan>>) -> Self {
        ChaosDisk { inner, plan }
    }

    fn plan(&self) -> MutexGuard<'_, FaultPlan> {
        self.plan.lock().expect("fault plan lock never poisoned")
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.plan().crashed() {
            Err(chaos_err("process crashed"))
        } else {
            Ok(())
        }
    }
}

impl DiskIo for ChaosDisk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        match self.plan().decide(FaultPoint::DiskWrite, bytes.len()) {
            None => self.inner.write(path, bytes),
            Some(InjectedFault::Fail) => Err(chaos_err("disk-write-fail")),
            Some(InjectedFault::Torn(k)) => {
                // The torn prefix lands; the error models the process
                // dying before the rest (the plan is now `crashed`, so
                // any in-process cleanup attempt fails too).
                let _ = self.inner.write(path, &bytes[..k.min(bytes.len())]);
                Err(chaos_err("disk-write-torn"))
            }
            Some(_) => Err(chaos_err("disk-write-fail")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check_alive()?;
        match self.plan().decide(FaultPoint::DiskRename, 0) {
            None => self.inner.rename(from, to),
            Some(_) => Err(chaos_err("disk-rename-fail")),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        match self.plan().decide(FaultPoint::DiskRead, 0) {
            None => self.inner.read(path),
            Some(_) => Err(chaos_err("disk-read-fail")),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        !self.plan().crashed() && self.inner.exists(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        self.inner.remove_file(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.check_alive()?;
        self.inner.list_dir(dir)
    }
}

/// A reader over an in-memory request that models connection faults:
/// after `cut` bytes it either stalls (every further read errors with
/// `TimedOut`, as a socket read deadline would) or closes (EOF mid-line).
#[derive(Debug)]
pub struct ChaosReader {
    data: Vec<u8>,
    pos: usize,
    cut: usize,
    stall: bool,
}

impl ChaosReader {
    /// Wraps `data`; `fault` is typically the plan's `ConnRead` decision.
    pub fn new(data: Vec<u8>, fault: Option<InjectedFault>) -> Self {
        let len = data.len();
        let (cut, stall) = match fault {
            Some(InjectedFault::Stall(k)) => (k.min(len), true),
            Some(InjectedFault::MidLineEof(k)) => (k.min(len), false),
            _ => (len, false),
        };
        ChaosReader {
            data,
            pos: 0,
            cut,
            stall,
        }
    }
}

impl Read for ChaosReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.cut {
            return if self.stall {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "chaos: conn-read-stall",
                ))
            } else {
                Ok(0)
            };
        }
        let n = buf.len().min(self.cut - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Tuning for one [`run_chaos`] schedule.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: fault streams, job corpus, and request order all
    /// derive from it.
    pub seed: u64,
    /// Connections driven during the fault phase.
    pub iters: u64,
    /// Distinct synthesis jobs in the corpus.
    pub jobs: usize,
    /// In-memory cache entries of the server under test — deliberately
    /// smaller than `jobs`, so disk promotion stays on the hot path.
    pub cache_capacity: usize,
    /// A scheduled process restart every this many connections (0 turns
    /// scheduled restarts off; torn-write crashes restart regardless).
    pub crash_every: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            iters: 500,
            jobs: 6,
            cache_capacity: 3,
            crash_every: 61,
        }
    }
}

/// Counters and verdicts from one chaos run. Wall-clock-free: same seed,
/// same bytes.
#[derive(Debug, Clone)]
pub struct ChaosSummary {
    /// Config echo: master seed.
    pub seed: u64,
    /// Config echo: fault-phase connections driven.
    pub iters: u64,
    /// Config echo: distinct jobs in the corpus.
    pub jobs: usize,
    /// Process restarts (scheduled + crash-forced).
    pub crashes: u64,
    /// Connections driven (fault phase).
    pub requests: u64,
    /// Well-formed `status:"ok"` synth replies observed.
    pub replies_ok: u64,
    /// Well-formed error replies observed.
    pub replies_error: u64,
    /// Connections that ended without a reply (stall, mid-line EOF).
    pub conn_drops: u64,
    /// Error replies by stable fingerprint.
    pub error_fingerprints: BTreeMap<String, u64>,
    /// Faults injected, by label (all labels, stable order).
    pub faults: Vec<(&'static str, u64)>,
    /// Cache disk errors accumulated across all server incarnations.
    pub disk_errors: u64,
    /// Cache certificate refusals accumulated across incarnations.
    pub cert_errors: u64,
    /// Valid entries found by startup scans across incarnations.
    pub recovered: u64,
    /// Files quarantined by startup scans across incarnations.
    pub quarantined: u64,
    /// Jobs that healed to byte-identical warm hits after faults stopped.
    pub healed: u64,
    /// Invariant violations (empty on a clean run).
    pub violations: Vec<String>,
}

impl ChaosSummary {
    /// Whether every invariant held.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic JSON rendering (no wall-clock fields).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("command", JsonValue::from("chaos")),
            ("seed", JsonValue::from(self.seed)),
            ("iters", JsonValue::from(self.iters)),
            ("jobs", JsonValue::from(self.jobs)),
            ("crashes", JsonValue::from(self.crashes)),
            ("requests", JsonValue::from(self.requests)),
            ("replies_ok", JsonValue::from(self.replies_ok)),
            ("replies_error", JsonValue::from(self.replies_error)),
            ("conn_drops", JsonValue::from(self.conn_drops)),
            (
                "errors",
                JsonValue::object(
                    self.error_fingerprints
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::from(*v))),
                ),
            ),
            (
                "faults",
                JsonValue::object(
                    self.faults
                        .iter()
                        .map(|(k, v)| (k.to_string(), JsonValue::from(*v))),
                ),
            ),
            ("disk_errors", JsonValue::from(self.disk_errors)),
            ("cert_errors", JsonValue::from(self.cert_errors)),
            ("recovered", JsonValue::from(self.recovered)),
            ("quarantined", JsonValue::from(self.quarantined)),
            ("healed", JsonValue::from(self.healed)),
            ("violations", JsonValue::from(self.violations.len() as u64)),
            (
                "violation_detail",
                JsonValue::array(self.violations.iter().map(|v| JsonValue::from(v.as_str()))),
            ),
        ])
    }

    /// Human-readable rendering.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos: seed {} · {} connections over {} jobs · {} restarts",
            self.seed, self.requests, self.jobs, self.crashes
        );
        let _ = writeln!(
            out,
            "replies: {} ok, {} error, {} dropped connections",
            self.replies_ok, self.replies_error, self.conn_drops
        );
        let injected: Vec<String> = self
            .faults
            .iter()
            .filter(|(_, c)| *c > 0)
            .map(|(l, c)| format!("{l}×{c}"))
            .collect();
        let _ = writeln!(
            out,
            "faults injected: {}",
            if injected.is_empty() {
                "none".to_string()
            } else {
                injected.join(", ")
            }
        );
        let _ = writeln!(
            out,
            "cache: {} disk errors, {} cert refusals, {} recovered, {} quarantined",
            self.disk_errors, self.cert_errors, self.recovered, self.quarantined
        );
        let _ = writeln!(
            out,
            "healed: {}/{} jobs byte-identical",
            self.healed, self.jobs
        );
        if self.clean() {
            let _ = writeln!(out, "invariants: all held (0 violations)");
        } else {
            let _ = writeln!(out, "invariants VIOLATED ({}):", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  - {v}");
            }
        }
        out
    }

    fn violation(&mut self, detail: String) {
        // Cap the detail list so a systematically-broken run cannot
        // allocate without bound; the count keeps the full tally.
        if self.violations.len() < 16 {
            self.violations.push(detail);
        } else if self.violations.len() == 16 {
            self.violations
                .push("… further violations elided".to_string());
        }
    }
}

/// One synthetic job: a small valid schedule and the request line that
/// submits it.
fn gen_request(rng: &mut Rng, job_seed: u64) -> String {
    let n = rng.gen_range(4..9usize);
    let mut ids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ids);
    let mut pattern = format!("procs {n}\nphase\n");
    for pair in ids.chunks(2) {
        if let [a, b] = pair {
            use std::fmt::Write as _;
            let _ = writeln!(pattern, "  {a} -> {b}");
        }
    }
    Request::Synth(SynthRequest {
        pattern,
        seed: Some(job_seed),
        restarts: Some(1),
        ..SynthRequest::default()
    })
    .to_json()
}

/// Collapses the cache-tier marker so replies from different tiers
/// compare byte-for-byte.
fn normalize_tier(line: &str) -> String {
    line.replace("\"cache\":\"hit\"", "\"cache\":\"miss\"")
        .replace("\"cache\":\"disk\"", "\"cache\":\"miss\"")
}

fn chaos_server(
    config: &ChaosConfig,
    dir: &Path,
    disk: &Arc<dyn DiskIo>,
    plan: &Arc<Mutex<FaultPlan>>,
) -> Server {
    Server::new(ServeOptions {
        cache_capacity: config.cache_capacity,
        cache_dir: Some(dir.to_path_buf()),
        disk_io: Some(disk.clone()),
        ..ServeOptions::default()
    })
    .with_fault_plan(plan.clone())
}

fn absorb_cache_stats(server: &Server, summary: &mut ChaosSummary) {
    let stats = server.cache_stats();
    summary.disk_errors += stats.disk_errors;
    summary.cert_errors += stats.cert_errors;
    summary.recovered += stats.recovered;
    summary.quarantined += stats.quarantined;
}

/// Validates one connection's reply bytes against the invariants and
/// updates the counters. Returns whether any reply line was seen.
fn check_replies(
    summary: &mut ChaosSummary,
    out: &[u8],
    expected: Option<&str>,
    context: &str,
) -> bool {
    let mut any = false;
    for raw in out.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
        any = true;
        let Ok(text) = std::str::from_utf8(raw) else {
            summary.violation(format!("{context}: reply is not UTF-8"));
            continue;
        };
        let Ok(value) = json::parse(text) else {
            summary.violation(format!("{context}: reply is not well-formed JSON: {text}"));
            continue;
        };
        match value.get("reply").and_then(JsonValue::as_str) {
            Some("synth") => {
                if value.get("status").and_then(JsonValue::as_str) == Some("ok") {
                    summary.replies_ok += 1;
                    if let Some(want) = expected {
                        if normalize_tier(text) != want {
                            summary.violation(format!(
                                "{context}: served bytes differ from the fault-free reference \
                                 (torn or stale entry served)"
                            ));
                        }
                    }
                } else {
                    summary.replies_error += 1;
                }
            }
            Some("error") => {
                summary.replies_error += 1;
                let fp = value
                    .get("error")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("missing-fingerprint")
                    .to_string();
                if fp == "missing-fingerprint" {
                    summary.violation(format!("{context}: error reply without a fingerprint"));
                }
                *summary.error_fingerprints.entry(fp).or_insert(0) += 1;
            }
            Some("stats") | Some("status") => {}
            _ => summary.violation(format!("{context}: reply with unknown kind: {text}")),
        }
    }
    any
}

/// Runs one seeded chaos schedule end to end and reports the verdict.
/// Deterministic: the summary (including its JSON form) is a pure
/// function of `config`.
pub fn run_chaos(config: &ChaosConfig) -> ChaosSummary {
    let mut summary = ChaosSummary {
        seed: config.seed,
        iters: config.iters,
        jobs: config.jobs.max(1),
        crashes: 0,
        requests: 0,
        replies_ok: 0,
        replies_error: 0,
        conn_drops: 0,
        error_fingerprints: BTreeMap::new(),
        faults: Vec::new(),
        disk_errors: 0,
        cert_errors: 0,
        recovered: 0,
        quarantined: 0,
        healed: 0,
        violations: Vec::new(),
    };
    let n_jobs = summary.jobs;
    let mut rng = Rng::seed_from_u64(config.seed ^ hash_str("chaos-harness"));
    let requests: Vec<String> = (0..n_jobs)
        .map(|i| gen_request(&mut rng, i as u64))
        .collect();

    // Fault-free reference: the bytes every later serve of the same job
    // must reproduce exactly.
    let reference = Server::new(ServeOptions {
        cache_capacity: n_jobs,
        ..ServeOptions::default()
    });
    let mut expected: Vec<String> = Vec::with_capacity(n_jobs);
    for req in &requests {
        let reply = reference.handle_line(req);
        expected.push(normalize_tier(&reply.line));
        if !reply.line.contains("\"status\":\"ok\"") {
            summary.violation(format!(
                "reference run failed for a corpus job: {}",
                reply.line
            ));
        }
    }
    if !summary.clean() {
        summary.faults = FaultPlan::quiet(config.seed).injected();
        return summary;
    }

    // Fault phase: one shared surviving store, fault-wrapped; the server
    // (the "process") restarts on schedule and whenever a torn write
    // kills it.
    let plan = Arc::new(Mutex::new(FaultPlan::seeded(config.seed)));
    let store = Arc::new(MemDisk::new());
    let disk: Arc<dyn DiskIo> = Arc::new(ChaosDisk::new(store, plan.clone()));
    let dir = PathBuf::from("chaos-store");
    let mut server = chaos_server(config, &dir, &disk, &plan);

    for it in 0..config.iters {
        let ji = rng.gen_range(0..n_jobs);
        let (line, want) = if it % 17 == 16 {
            (Request::Stats.to_json(), None)
        } else {
            (requests[ji].clone(), Some(expected[ji].as_str()))
        };
        let mut bytes = line.into_bytes();
        bytes.push(b'\n');
        let fault = plan
            .lock()
            .expect("fault plan lock never poisoned")
            .decide(FaultPoint::ConnRead, bytes.len());
        let reader = BufReader::new(ChaosReader::new(bytes, fault));
        let mut out: Vec<u8> = Vec::new();
        let stream = server.serve_stream(reader, &mut out);
        summary.requests += 1;
        let context = format!("connection {it}");
        let replied = check_replies(&mut summary, &out, want, &context);
        if stream.is_err() || !replied {
            summary.conn_drops += 1;
        }

        let crashed = plan
            .lock()
            .expect("fault plan lock never poisoned")
            .crashed();
        let scheduled = config.crash_every > 0 && (it + 1) % config.crash_every == 0;
        if crashed || scheduled {
            absorb_cache_stats(&server, &mut summary);
            plan.lock()
                .expect("fault plan lock never poisoned")
                .revive();
            server = chaos_server(config, &dir, &disk, &plan);
            summary.crashes += 1;
        }
    }
    absorb_cache_stats(&server, &mut summary);
    drop(server);

    // Healing phase: faults off, fresh process over whatever survived.
    {
        let mut p = plan.lock().expect("fault plan lock never poisoned");
        p.revive();
        p.disarm();
    }
    let healer = chaos_server(config, &dir, &disk, &plan);
    for (ji, req) in requests.iter().enumerate() {
        let first = healer.handle_line(req);
        let second = healer.handle_line(req);
        let first_ok = normalize_tier(&first.line) == expected[ji];
        let second_ok = normalize_tier(&second.line) == expected[ji]
            && second.line.contains("\"cache\":\"hit\"");
        if first_ok && second_ok {
            summary.healed += 1;
        } else {
            summary.violation(format!(
                "job {ji} did not heal to byte-identical warm results \
                 (first ok: {first_ok}, warm hit ok: {second_ok})"
            ));
        }
    }
    absorb_cache_stats(&healer, &mut summary);
    summary.faults = plan
        .lock()
        .expect("fault plan lock never poisoned")
        .injected();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_streams_are_deterministic_per_point() {
        let decisions = |seed| {
            let mut plan = FaultPlan::seeded(seed);
            (0..64)
                .map(|_| plan.decide(FaultPoint::DiskRead, 0).is_some())
                .collect::<Vec<bool>>()
        };
        assert_eq!(decisions(7), decisions(7));
        assert_ne!(decisions(7), decisions(8), "different seeds should differ");
    }

    #[test]
    fn disk_read_stream_is_independent_of_other_points() {
        // Interleaving calls at other points must not shift DiskRead's
        // decision sequence.
        let mut lone = FaultPlan::seeded(3);
        let lone_seq: Vec<bool> = (0..32)
            .map(|_| lone.decide(FaultPoint::DiskRead, 0).is_some())
            .collect();
        let mut mixed = FaultPlan::seeded(3);
        let mixed_seq: Vec<bool> = (0..32)
            .map(|_| {
                let _ = mixed.decide(FaultPoint::DiskWrite, 10);
                let _ = mixed.decide(FaultPoint::Engine, 0);
                mixed.revive(); // torn writes crash; clear for the probe
                mixed.decide(FaultPoint::DiskRead, 0).is_some()
            })
            .collect();
        assert_eq!(lone_seq, mixed_seq);
    }

    #[test]
    fn torn_write_crashes_until_revived() {
        let plan = Arc::new(Mutex::new(FaultPlan::quiet(0).with_torn_write_at(0, 3)));
        let store = Arc::new(MemDisk::new());
        let disk = ChaosDisk::new(store.clone(), plan.clone());
        let path = PathBuf::from("d").join("x.json");
        let err = disk
            .write(&path, b"0123456789")
            .expect_err("torn write errors");
        assert!(err.to_string().contains("disk-write-torn"));
        // The torn prefix landed on the underlying store.
        assert_eq!(store.snapshot(&path).expect("prefix landed"), b"012");
        // Everything now fails: the process is dead.
        assert!(disk.read(&path).is_err());
        assert!(disk.write(&path, b"full").is_err());
        assert!(!disk.exists(&path));
        plan.lock().expect("lock").revive();
        assert!(disk.read(&path).is_ok());
    }

    #[test]
    fn scripted_fail_fires_at_exactly_the_given_op() {
        let plan = Arc::new(Mutex::new(
            FaultPlan::quiet(0).with_fail_at(FaultPoint::DiskWrite, 1),
        ));
        let disk = ChaosDisk::new(Arc::new(MemDisk::new()), plan);
        let p = PathBuf::from("f");
        assert!(disk.write(&p, b"a").is_ok());
        assert!(disk.write(&p, b"b").is_err());
        assert!(disk.write(&p, b"c").is_ok());
    }

    #[test]
    fn chaos_reader_stall_and_eof() {
        let mut buf = Vec::new();
        let mut eof = ChaosReader::new(b"hello\n".to_vec(), Some(InjectedFault::MidLineEof(3)));
        eof.read_to_end(&mut buf)
            .expect("eof variant reads cleanly");
        assert_eq!(buf, b"hel");

        let mut stall = ChaosReader::new(b"hello\n".to_vec(), Some(InjectedFault::Stall(2)));
        let mut buf = Vec::new();
        let err = stall.read_to_end(&mut buf).expect_err("stall errors");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(buf, b"he");

        let mut clean = ChaosReader::new(b"hello\n".to_vec(), None);
        let mut buf = Vec::new();
        clean.read_to_end(&mut buf).expect("clean reads");
        assert_eq!(buf, b"hello\n");
    }

    #[test]
    fn summary_json_shape_is_stable() {
        let summary = run_chaos(&ChaosConfig {
            iters: 8,
            ..ChaosConfig::default()
        });
        let rendered = summary.to_json().to_string();
        for key in [
            "\"command\":\"chaos\"",
            "\"faults\":{",
            "\"disk-write-torn\":",
            "\"engine-panic\":",
            "\"violations\":",
            "\"healed\":",
        ] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
    }
}
