//! The daemon core: request handling, admission control, cache plumbing,
//! and the stream / listener loops.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use nocsyn_certify::{check_certificate, CheckOptions};
use nocsyn_engine::{Engine, EngineEvent, EventSink, Job, JobStatus, NullSink};
use nocsyn_model::json::JsonValue;
use nocsyn_model::{
    canonical_schedule, canonical_trace, Digest, ParseLimits, ParseOptions, ParseScheduleError,
};
use nocsyn_synth::{AppPattern, SynthesisConfig, SynthesisMode, SynthesisRequest};

use crate::cache::{CacheStats, CacheTier, ResultCache};
use crate::chaos::{FaultPlan, FaultPoint, InjectedFault};
use crate::io::DiskIo;
use crate::proto::{parse_request, Request, SynthRequest};
use crate::report::synth_json_object;

/// Protocol version advertised in `status` replies.
pub const PROTOCOL_VERSION: u64 = 1;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Resource limits applied to embedded pattern text (the PR 4
    /// admission-control boundary, reused verbatim).
    pub limits: ParseLimits,
    /// In-memory cache entries kept (LRU beyond this).
    pub cache_capacity: usize,
    /// Optional on-disk cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Requests one connection may issue before the server replies
    /// `too-many-requests` and closes it.
    pub max_requests_per_conn: usize,
    /// Synthesis jobs allowed in flight; beyond this the server answers
    /// `queue-full` instead of queueing unboundedly.
    pub max_queue_depth: usize,
    /// Hard cap on per-request `restarts` (admission control for the
    /// most expensive knob a client holds). `None` leaves requests
    /// unclamped.
    pub max_restarts: Option<u64>,
    /// Engine worker threads (affects wall time only, never results).
    pub workers: usize,
    /// Read/write deadline applied to accepted sockets (slowloris
    /// defense): a peer that stalls longer than this gets its connection
    /// dropped instead of wedging the accept loop. `None` blocks forever.
    pub io_timeout: Option<Duration>,
    /// Disk backend for the cache's on-disk tier. `None` uses the real
    /// filesystem; tests and the chaos harness install
    /// [`MemDisk`](crate::io::MemDisk) / [`ChaosDisk`](crate::ChaosDisk).
    pub disk_io: Option<Arc<dyn DiskIo>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            limits: ParseLimits::default(),
            cache_capacity: 256,
            cache_dir: None,
            max_requests_per_conn: 1024,
            max_queue_depth: 64,
            max_restarts: None,
            workers: 1,
            io_timeout: None,
            disk_io: None,
        }
    }
}

/// How a reply line classifies, for callers that dispatch on outcome
/// (the CLI, tests, and the fuzz oracle) without re-parsing the JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// A synth reply carrying a report; says which cache tier answered.
    Report(CacheTier),
    /// A `stats` reply.
    Stats,
    /// A `status` reply.
    Status,
    /// An error reply; carries the stable error fingerprint.
    Error(&'static str),
}

/// One reply: the wire line (no trailing newline) plus its
/// classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The JSON reply line exactly as written to the peer.
    pub line: String,
    /// Outcome classification.
    pub kind: ReplyKind,
}

impl Reply {
    fn error(fingerprint: &'static str, detail: &str) -> Reply {
        let obj = JsonValue::object([
            ("reply", JsonValue::from("error")),
            ("error", JsonValue::from(fingerprint)),
            ("detail", JsonValue::from(detail)),
        ]);
        Reply {
            line: obj.to_string(),
            kind: ReplyKind::Error(fingerprint),
        }
    }
}

/// Which parser accepted the pattern text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Phase-schedule text.
    Schedule,
    /// Timed-trace text.
    Trace,
}

impl PatternKind {
    /// Stable lowercase label, used inside the job fingerprint.
    pub fn label(&self) -> &'static str {
        match self {
            PatternKind::Schedule => "schedule",
            PatternKind::Trace => "trace",
        }
    }
}

/// A pattern accepted at the ingress boundary: the characterized
/// [`AppPattern`] plus the canonical text that identifies it.
#[derive(Debug, Clone)]
pub struct ParsedPattern {
    /// The synthesis input.
    pub pattern: AppPattern,
    /// Which format the text parsed as.
    pub kind: PatternKind,
    /// Canonical rendering of the parsed value — the `pattern` half of
    /// the cache key. Any two texts that parse to the same value have
    /// the same canonical rendering.
    pub canonical: String,
}

/// Parses pattern text under `opts`, autodetecting trace vs schedule by
/// the same rule as the CLI (any non-comment line starting with `msg `
/// makes it a trace).
///
/// # Errors
///
/// The bounded parser's [`ParseScheduleError`] on any syntactic,
/// semantic, or resource-limit problem. Never panics.
pub fn parse_pattern(text: &str, opts: &ParseOptions) -> Result<ParsedPattern, ParseScheduleError> {
    let is_trace = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .any(|l| l.starts_with("msg "));
    if is_trace {
        let trace = opts.parse_trace(text)?;
        Ok(ParsedPattern {
            pattern: AppPattern::from_trace(&trace),
            kind: PatternKind::Trace,
            canonical: canonical_trace(&trace),
        })
    } else {
        let schedule = opts.parse_schedule(text)?;
        Ok(ParsedPattern {
            pattern: AppPattern::from_schedule(&schedule),
            kind: PatternKind::Schedule,
            canonical: canonical_schedule(&schedule),
        })
    }
}

/// The content fingerprint of one synthesis job: the order-invariant
/// digest of the request's canonical form (config plus synthesis mode,
/// so a flat and a decomposed answer can never collide under one key)
/// plus the pattern's kind and canonical text.
///
/// The request's canonical form deliberately excludes the deadline — a
/// deadline bounds how long the search may run, never what a *completed*
/// search returns, and only completed results are cached under this key.
pub fn job_fingerprint(kind: PatternKind, canonical: &str, request: &SynthesisRequest) -> Digest {
    request
        .canonical_form()
        .field("pattern_kind", kind.label())
        .field("pattern", canonical)
        .digest()
}

/// The daemon: an engine, a cache, a telemetry sink, and the admission
/// counters. One instance serves any number of connections; request
/// handling is `&self` (the cache sits behind a mutex) so a server can
/// be shared across threads.
pub struct Server {
    opts: ServeOptions,
    engine: Engine,
    cache: Mutex<ResultCache>,
    sink: Arc<dyn EventSink>,
    sink_degraded: AtomicBool,
    in_flight: AtomicUsize,
    requests: AtomicU64,
    conn_errors: AtomicU64,
    shutdown: AtomicBool,
    fault_plan: Option<Arc<Mutex<FaultPlan>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Creates a server with telemetry discarded.
    pub fn new(opts: ServeOptions) -> Self {
        let mut cache = ResultCache::new(opts.cache_capacity);
        if let Some(io) = &opts.disk_io {
            cache = cache.with_io(io.clone());
        }
        if let Some(dir) = &opts.cache_dir {
            cache = cache.with_dir(dir.clone());
            // Startup scan: quarantine whatever a previous crash left
            // behind before the first lookup can trip over it.
            cache.recover();
        }
        let engine = Engine::new().with_workers(opts.workers);
        Server {
            opts,
            engine,
            cache: Mutex::new(cache),
            sink: Arc::new(NullSink),
            sink_degraded: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            conn_errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            fault_plan: None,
        }
    }

    /// Installs a chaos fault plan; the engine-panic fault point consults
    /// it on every cache-miss synthesis.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Arc<Mutex<FaultPlan>>) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Asks the server to stop: the connection being served drains
    /// normally (in-flight jobs complete, their replies flush), further
    /// synth requests are refused with `shutting-down`, and the accept
    /// loop exits after the current connection instead of blocking on
    /// another accept.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Whether [`Server::begin_shutdown`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Snapshot of the cache counters (the chaos harness accumulates
    /// these across simulated process restarts).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .lock()
            .expect("cache lock never poisoned")
            .stats()
    }

    /// The stats reply line, for flushing final counters at shutdown
    /// without synthesizing a request.
    pub fn stats_line(&self) -> String {
        self.stats_reply().line
    }

    /// Installs a telemetry sink; `serve_request` events flow through it
    /// alongside the engine's own job events.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.engine = self.engine.clone().with_sink(sink.clone());
        self.sink = sink;
        self
    }

    /// The configured options.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// Handles one request line and produces one reply. Total: every
    /// input, hostile or not, yields a well-formed JSON reply line.
    pub fn handle_line(&self, line: &str) -> Reply {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if line.len() > self.request_cap() {
            let reply = Reply::error("request-too-long", "request line exceeds the input budget");
            self.emit("unknown", &reply);
            return reply;
        }
        match parse_request(line) {
            Err(e) => {
                let reply = Reply::error(e.fingerprint, &e.detail);
                self.emit("unknown", &reply);
                reply
            }
            Ok(Request::Stats) => {
                let reply = self.stats_reply();
                self.emit("stats", &reply);
                reply
            }
            Ok(Request::Status) => {
                let reply = self.status_reply();
                self.emit("status", &reply);
                reply
            }
            Ok(Request::Synth(req)) => {
                let reply = self.synth(&req);
                self.emit("synth", &reply);
                reply
            }
        }
    }

    /// Longest accepted request line: the pattern input budget plus
    /// envelope headroom (JSON quoting roughly doubles newline-heavy
    /// text in the worst case).
    fn request_cap(&self) -> usize {
        self.opts
            .limits
            .max_input_bytes
            .saturating_mul(2)
            .saturating_add(1024)
    }

    fn synth(&self, req: &SynthRequest) -> Reply {
        if self.shutdown.load(Ordering::Relaxed) {
            return Reply::error(
                "shutting-down",
                "server is draining; no new synthesis accepted",
            );
        }
        if self.in_flight.load(Ordering::Relaxed) >= self.opts.max_queue_depth {
            return Reply::error("queue-full", "synthesis queue is at capacity; retry later");
        }
        let parse_opts = ParseOptions::new().with_limits(self.opts.limits.clone());
        let parsed = match parse_pattern(&req.pattern, &parse_opts) {
            Ok(p) => p,
            Err(e) => {
                return Reply::error(
                    "pattern-rejected",
                    &format!("{}: {e}", e.kind.fingerprint()),
                );
            }
        };

        let mut config = SynthesisConfig::new();
        if let Some(s) = req.seed {
            config = config.with_seed(s);
        }
        if let Some(d) = req.max_degree {
            config = config.with_max_degree(usize::try_from(d).unwrap_or(usize::MAX));
        }
        let mode = match req.mode.as_deref() {
            None | Some("flat") => SynthesisMode::Flat,
            Some("decomposed") => SynthesisMode::Decomposed {
                clusters: req
                    .clusters
                    .map(|c| usize::try_from(c).unwrap_or(usize::MAX)),
            },
            // The protocol layer admits only the two modes above.
            Some(other) => {
                return Reply::error("bad-field", &format!("unknown mode {other:?}"));
            }
        };
        // The restart cap is admission control on the *effective* job, so
        // it also bounds the default-portfolio case, not just explicit
        // oversized requests. It caps the builder input: a wire-level zero
        // stays zero and is rejected below.
        let mut restarts = req
            .restarts
            .map_or(SynthesisRequest::DEFAULT_RESTARTS, |r| {
                usize::try_from(r).unwrap_or(usize::MAX)
            });
        if let Some(cap) = self.opts.max_restarts {
            restarts = restarts.min(usize::try_from(cap).unwrap_or(usize::MAX).max(1));
        }
        let mut builder = SynthesisRequest::builder(parsed.pattern)
            .config(config)
            .restarts(restarts)
            .mode(mode);
        if let Some(ms) = req.deadline_ms {
            builder = builder.deadline_ms(ms);
        }
        // Wire-level zero restarts / zero clusters surface as typed
        // rejections with the builder's stable fingerprints, not silent
        // clamps.
        let request = match builder.build() {
            Ok(r) => r,
            Err(e) => return Reply::error(e.fingerprint(), &e.to_string()),
        };
        let fp = job_fingerprint(parsed.kind, &parsed.canonical, &request);

        if let Some((report, tier)) = self.cache_lookup(&fp, &parsed.canonical) {
            return self.report_reply(&fp, tier, "ok", &report);
        }

        // Cache miss: run the engine. The in-flight counter brackets
        // exactly the expensive section, so `queue-full` reflects actual
        // synthesis pressure rather than protocol chatter.
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        // The engine-panic fault point: when a chaos plan says this
        // synthesis panics, run the job with an injected attempt-0 panic
        // and let the engine's isolation turn it into a Failed outcome.
        let inject_panic = self
            .fault_plan
            .as_ref()
            .map(|plan| {
                matches!(
                    plan.lock()
                        .expect("fault plan lock never poisoned")
                        .decide(FaultPoint::Engine, 0),
                    Some(InjectedFault::Panic)
                )
            })
            .unwrap_or(false);
        let mut job = Job::new("synth", request.clone());
        if inject_panic {
            job = job.with_injected_panic(0);
        }
        let outcome = self
            .engine
            .run(vec![job])
            .pop()
            .expect("one job in, one outcome out");
        self.in_flight.fetch_sub(1, Ordering::Relaxed);

        match (&outcome.status, &outcome.result) {
            (JobStatus::Failed(e), _) => {
                Reply::error("synthesis-failed", &format!("{}: {e}", e.fingerprint()))
            }
            (_, None) => Reply::error(
                "deadline-exceeded",
                "deadline expired before any restart completed",
            ),
            (status, Some(result)) => {
                let report = synth_json_object(&request, &outcome);
                if *status == JobStatus::Completed {
                    // Only fully completed portfolios are cached: a
                    // deadline-degraded best-so-far under the same key
                    // would poison future exact answers. Each cached
                    // result carries its contention-freedom certificate,
                    // bound to the cache key, so a later disk load can be
                    // independently re-validated before it is served.
                    let cert = result.certificate(request.pattern(), Some(fp)).to_json();
                    self.cache_insert(fp, report.clone(), Some(cert));
                    self.report_reply(&fp, CacheTier::Miss, "ok", &report)
                } else {
                    self.report_reply(&fp, CacheTier::Miss, "deadline-exceeded", &report)
                }
            }
        }
    }

    /// Assembles a synth reply. The report object string is spliced in
    /// verbatim — never re-rendered — so a hit is byte-identical to the
    /// miss that populated it; `report` is deliberately the last field
    /// so envelope metadata stays in a fixed-width prefix.
    fn report_reply(&self, fp: &Digest, tier: CacheTier, status: &str, report: &str) -> Reply {
        Reply {
            line: format!(
                "{{\"reply\":\"synth\",\"status\":\"{status}\",\"fingerprint\":\"{fp}\",\"cache\":\"{}\",\"report\":{report}}}",
                tier.label(),
            ),
            kind: ReplyKind::Report(tier),
        }
    }

    fn stats_reply(&self) -> Reply {
        let (stats, entries) = {
            let cache = self.cache.lock().expect("cache lock never poisoned");
            (cache.stats(), cache.len())
        };
        let obj = JsonValue::object([
            ("reply", JsonValue::from("stats")),
            (
                "requests",
                JsonValue::from(self.requests.load(Ordering::Relaxed)),
            ),
            ("hits", JsonValue::from(stats.hits)),
            ("misses", JsonValue::from(stats.misses)),
            ("disk_hits", JsonValue::from(stats.disk_hits)),
            ("insertions", JsonValue::from(stats.insertions)),
            ("evictions", JsonValue::from(stats.evictions)),
            ("disk_errors", JsonValue::from(stats.disk_errors)),
            ("cert_errors", JsonValue::from(stats.cert_errors)),
            ("recovered", JsonValue::from(stats.recovered)),
            ("quarantined", JsonValue::from(stats.quarantined)),
            (
                "conn_errors",
                JsonValue::from(self.conn_errors.load(Ordering::Relaxed)),
            ),
            ("entries", JsonValue::from(entries)),
        ]);
        Reply {
            line: obj.to_string(),
            kind: ReplyKind::Stats,
        }
    }

    fn status_reply(&self) -> Reply {
        let obj = JsonValue::object([
            ("reply", JsonValue::from("status")),
            ("ok", JsonValue::from(true)),
            ("protocol", JsonValue::from(PROTOCOL_VERSION)),
            (
                "in_flight",
                JsonValue::from(self.in_flight.load(Ordering::Relaxed)),
            ),
        ]);
        Reply {
            line: obj.to_string(),
            kind: ReplyKind::Status,
        }
    }

    /// Cache lookup with the certificate gate on the untrusted disk
    /// tier: a disk entry is served only if its companion certificate
    /// validates against the canonical pattern *and* is bound to exactly
    /// this cache key.
    fn cache_lookup(&self, fp: &Digest, canonical: &str) -> Option<(String, CacheTier)> {
        let check = CheckOptions::new().with_limits(self.opts.limits.clone());
        self.cache
            .lock()
            .expect("cache lock never poisoned")
            .lookup_certified(fp, |cert| {
                check_certificate(canonical, cert, Some(fp), &check).is_ok()
            })
    }

    fn cache_insert(&self, fp: Digest, report: String, cert: Option<String>) {
        self.cache
            .lock()
            .expect("cache lock never poisoned")
            .insert_with_cert(fp, report, cert);
    }

    /// Emits a `serve_request` telemetry event; a broken sink degrades
    /// loudly once (stderr notice) and is then ignored, mirroring the
    /// engine's `SinkGuard` behavior.
    fn emit(&self, op: &str, reply: &Reply) {
        if self.sink_degraded.load(Ordering::Relaxed) {
            return;
        }
        let (outcome, fingerprint) = match &reply.kind {
            ReplyKind::Report(tier) => (tier.label(), extract_fingerprint(&reply.line)),
            ReplyKind::Stats | ReplyKind::Status => ("ok", String::new()),
            ReplyKind::Error(fp) => (*fp, String::new()),
        };
        let event = EngineEvent::ServeRequest {
            op: op.to_string(),
            outcome: outcome.to_string(),
            fingerprint,
        };
        if let Err(e) = self.sink.emit(&event) {
            if !self.sink_degraded.swap(true, Ordering::Relaxed) {
                eprintln!("nocsyn-serve: telemetry sink failed ({e}); further events dropped");
            }
        }
    }

    /// Serves one already-framed byte stream: newline-delimited requests
    /// in, newline-delimited replies out, one reply per request, flushed
    /// per line. Returns at end of stream, after the per-connection
    /// request cap trips, or after an oversized line (both of which
    /// close the connection — the remaining bytes cannot be trusted to
    /// re-frame).
    ///
    /// This is also `nocsyn serve --once`'s stdio drain mode: pipe
    /// requests in, read replies, no daemon outlives the script.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying stream.
    pub fn serve_stream<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<()> {
        let cap = self.request_cap();
        let mut served = 0usize;
        let mut buf: Vec<u8> = Vec::new();
        loop {
            buf.clear();
            let n = <&mut R as io::Read>::take(&mut reader, cap as u64 + 1)
                .read_until(b'\n', &mut buf)?;
            if n == 0 {
                return Ok(());
            }
            if buf.len() > cap {
                let reply =
                    Reply::error("request-too-long", "request line exceeds the input budget");
                writeln!(writer, "{}", reply.line)?;
                return writer.flush();
            }
            if !buf.ends_with(b"\n") {
                // The peer disconnected mid-line. The fragment was never
                // a committed request, so the clean-drop contract applies:
                // no reply is synthesized from half a line.
                return Ok(());
            }
            let text = String::from_utf8_lossy(&buf);
            let line = text.trim_end_matches(['\n', '\r']);
            if line.trim().is_empty() {
                continue;
            }
            served += 1;
            if served > self.opts.max_requests_per_conn {
                let reply = Reply::error(
                    "too-many-requests",
                    "per-connection request cap reached; reconnect to continue",
                );
                writeln!(writer, "{}", reply.line)?;
                return writer.flush();
            }
            let reply = self.handle_line(line);
            writeln!(writer, "{}", reply.line)?;
            writer.flush()?;
        }
    }

    /// Accept loop over a TCP listener (connections served serially —
    /// admission control, not parallelism, is the bottleneck this
    /// protects). With `once`, returns after the first connection closes,
    /// which is what the CI gate and tests use to keep daemons from
    /// outliving their scripts.
    ///
    /// One bad connection never takes the daemon down: per-connection
    /// I/O errors (including the `io_timeout` deadline tripping on a
    /// stalled peer) are counted in the `conn_errors` stat and the loop
    /// moves on to the next accept. The loop also exits after the
    /// current connection once [`Server::begin_shutdown`] is called.
    ///
    /// # Errors
    ///
    /// Propagates accept errors (the listener itself is broken).
    pub fn serve_listener(&self, listener: &TcpListener, once: bool) -> io::Result<()> {
        for conn in listener.incoming() {
            let stream = conn?;
            let served = stream
                .set_read_timeout(self.opts.io_timeout)
                .and_then(|()| stream.set_write_timeout(self.opts.io_timeout))
                .and_then(|()| {
                    let reader = BufReader::new(stream.try_clone()?);
                    self.serve_stream(reader, &stream)
                });
            if served.is_err() {
                self.conn_errors.fetch_add(1, Ordering::Relaxed);
            }
            if once || self.shutdown.load(Ordering::Relaxed) {
                return Ok(());
            }
        }
        Ok(())
    }
}

/// Pulls the fingerprint hex back out of an assembled reply line (it
/// sits at a fixed field in the envelope prefix).
fn extract_fingerprint(line: &str) -> String {
    line.split("\"fingerprint\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_engine::CollectSink;

    const PATTERN: &str = "procs 4\nphase\n  0 -> 1\n  2 -> 3\nphase\n  0 -> 2\n";

    fn synth_line(extra: &str) -> String {
        let quoted = PATTERN.replace('\n', "\\n");
        format!("{{\"op\":\"synth\",\"pattern\":\"{quoted}\",\"restarts\":1{extra}}}")
    }

    #[test]
    fn miss_then_hit_byte_identical_modulo_cache_marker() {
        let server = Server::new(ServeOptions::default());
        let req = synth_line("");
        let miss = server.handle_line(&req);
        let hit = server.handle_line(&req);
        assert_eq!(miss.kind, ReplyKind::Report(CacheTier::Miss));
        assert_eq!(hit.kind, ReplyKind::Report(CacheTier::Hit));
        assert_eq!(
            miss.line.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
            hit.line
        );
        // Both replies re-parse as JSON and agree on the report.
        let m = nocsyn_model::json::parse(&miss.line).expect("well-formed");
        let h = nocsyn_model::json::parse(&hit.line).expect("well-formed");
        assert_eq!(m.get("report"), h.get("report"));
        assert_eq!(m.get("fingerprint"), h.get("fingerprint"));
    }

    #[test]
    fn equivalent_pattern_texts_share_a_cache_entry() {
        let server = Server::new(ServeOptions::default());
        let a = server.handle_line(&synth_line(""));
        // Same pattern, different comments/whitespace/flow syntax.
        let noisy = "procs 4\n# c\n\nphase bytes=4096\n  0->1\n  2->3\nphase\n  0 -> 2\n";
        let quoted = noisy.replace('\n', "\\n");
        let b = server.handle_line(&format!(
            "{{\"op\":\"synth\",\"pattern\":\"{quoted}\",\"restarts\":1}}"
        ));
        assert_eq!(a.kind, ReplyKind::Report(CacheTier::Miss));
        assert_eq!(b.kind, ReplyKind::Report(CacheTier::Hit));
    }

    #[test]
    fn different_seed_is_a_different_key() {
        let server = Server::new(ServeOptions::default());
        let a = server.handle_line(&synth_line(",\"seed\":1"));
        let b = server.handle_line(&synth_line(",\"seed\":2"));
        assert_eq!(a.kind, ReplyKind::Report(CacheTier::Miss));
        assert_eq!(b.kind, ReplyKind::Report(CacheTier::Miss));
    }

    #[test]
    fn deadline_is_not_part_of_the_key() {
        let server = Server::new(ServeOptions::default());
        let a = server.handle_line(&synth_line(""));
        // Generous deadline: portfolio completes, so the key matches.
        let b = server.handle_line(&synth_line(",\"deadline_ms\":60000"));
        assert_eq!(a.kind, ReplyKind::Report(CacheTier::Miss));
        assert_eq!(b.kind, ReplyKind::Report(CacheTier::Hit));
    }

    #[test]
    fn zero_deadline_result_is_never_cached() {
        let server = Server::new(ServeOptions::default());
        let a = server.handle_line(&synth_line(",\"deadline_ms\":0"));
        assert_eq!(a.kind, ReplyKind::Error("deadline-exceeded"));
        // The full run afterwards is still a miss (nothing was poisoned).
        let b = server.handle_line(&synth_line(""));
        assert_eq!(b.kind, ReplyKind::Report(CacheTier::Miss));
    }

    #[test]
    fn rejected_patterns_and_frames_reply_with_fingerprints() {
        let server = Server::new(ServeOptions::default());
        let bad = server.handle_line("{\"op\":\"synth\",\"pattern\":\"wat\\n\"}");
        assert_eq!(bad.kind, ReplyKind::Error("pattern-rejected"));
        assert!(bad.line.contains("malformed"));
        let garbage = server.handle_line("not json at all");
        assert_eq!(garbage.kind, ReplyKind::Error("bad-json"));
        // Every reply is well-formed JSON.
        for r in [&bad, &garbage] {
            nocsyn_model::json::parse(&r.line).expect("error replies are JSON");
        }
    }

    #[test]
    fn queue_depth_zero_always_replies_queue_full() {
        let opts = ServeOptions {
            max_queue_depth: 0,
            ..ServeOptions::default()
        };
        let server = Server::new(opts);
        let r = server.handle_line(&synth_line(""));
        assert_eq!(r.kind, ReplyKind::Error("queue-full"));
    }

    #[test]
    fn restarts_are_clamped_by_admission_control() {
        let opts = ServeOptions {
            max_restarts: Some(1),
            ..ServeOptions::default()
        };
        let server = Server::new(opts);
        // restarts=999 is clamped to 1 -> same key as restarts=1.
        let a = server.handle_line(&synth_line(",\"seed\":3"));
        let b = server
            .handle_line(&synth_line(",\"seed\":3").replace("\"restarts\":1", "\"restarts\":999"));
        assert_eq!(a.kind, ReplyKind::Report(CacheTier::Miss));
        assert_eq!(b.kind, ReplyKind::Report(CacheTier::Hit));
        // The cap also bounds the default portfolio, and never turns a
        // wire-level zero into a valid job.
        let c = server.handle_line(&synth_line(",\"seed\":3").replace(",\"restarts\":1", ""));
        assert_eq!(c.kind, ReplyKind::Report(CacheTier::Hit));
        let z = server
            .handle_line(&synth_line(",\"seed\":3").replace("\"restarts\":1", "\"restarts\":0"));
        assert_eq!(z.kind, ReplyKind::Error("zero-restarts"));
    }

    #[test]
    fn stats_and_status_reflect_traffic() {
        let server = Server::new(ServeOptions::default());
        let _ = server.handle_line(&synth_line(""));
        let _ = server.handle_line(&synth_line(""));
        let stats = server.handle_line("{\"op\":\"stats\"}");
        assert_eq!(stats.kind, ReplyKind::Stats);
        let v = nocsyn_model::json::parse(&stats.line).expect("well-formed");
        assert_eq!(v.get("hits").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("misses").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("insertions").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("entries").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(v.get("requests").and_then(|x| x.as_u64()), Some(3));
        let status = server.handle_line("{\"op\":\"status\"}");
        assert_eq!(status.kind, ReplyKind::Status);
        let v = nocsyn_model::json::parse(&status.line).expect("well-formed");
        assert_eq!(v.get("ok").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(
            v.get("protocol").and_then(|x| x.as_u64()),
            Some(PROTOCOL_VERSION)
        );
    }

    #[test]
    fn serve_stream_drains_stdin_style_input() {
        let server = Server::new(ServeOptions::default());
        let input = format!(
            "{}\n\n{}\n{{\"op\":\"stats\"}}\n",
            synth_line(""),
            synth_line("")
        );
        let mut out: Vec<u8> = Vec::new();
        server
            .serve_stream(input.as_bytes(), &mut out)
            .expect("stream I/O");
        let text = String::from_utf8(out).expect("utf8 replies");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "blank line skipped, three replies");
        assert!(lines[0].contains("\"cache\":\"miss\""));
        assert!(lines[1].contains("\"cache\":\"hit\""));
        assert!(lines[2].starts_with("{\"reply\":\"stats\""));
    }

    #[test]
    fn per_connection_request_cap_closes_with_an_error() {
        let opts = ServeOptions {
            max_requests_per_conn: 2,
            ..ServeOptions::default()
        };
        let server = Server::new(opts);
        let input = "{\"op\":\"status\"}\n{\"op\":\"status\"}\n{\"op\":\"status\"}\n";
        let mut out: Vec<u8> = Vec::new();
        server
            .serve_stream(input.as_bytes(), &mut out)
            .expect("stream I/O");
        let text = String::from_utf8(out).expect("utf8 replies");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("too-many-requests"));
    }

    #[test]
    fn oversized_request_line_is_rejected_and_closes() {
        let opts = ServeOptions {
            limits: ParseLimits::default().with_max_input_bytes(64),
            ..ServeOptions::default()
        };
        let server = Server::new(opts);
        let long = format!(
            "{{\"op\":\"synth\",\"pattern\":\"{}\"}}\n",
            "x".repeat(4096)
        );
        let mut out: Vec<u8> = Vec::new();
        server
            .serve_stream(long.as_bytes(), &mut out)
            .expect("stream I/O");
        let text = String::from_utf8(out).expect("utf8 replies");
        assert!(text.contains("request-too-long"));
        assert_eq!(text.lines().count(), 1);
    }

    #[test]
    fn serve_request_events_flow_through_the_sink() {
        let sink = Arc::new(CollectSink::new());
        let server = Server::new(ServeOptions::default()).with_sink(sink.clone());
        let _ = server.handle_line(&synth_line(""));
        let _ = server.handle_line(&synth_line(""));
        let _ = server.handle_line("garbage");
        let events: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| e.kind() == "serve_request")
            .collect();
        assert_eq!(events.len(), 3);
        let outcomes: Vec<String> = events
            .iter()
            .map(|e| match e {
                EngineEvent::ServeRequest { outcome, .. } => outcome.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(outcomes, ["miss", "hit", "bad-json"]);
        // Cache-tier events carry the job fingerprint.
        if let EngineEvent::ServeRequest { fingerprint, .. } = &events[0] {
            assert_eq!(fingerprint.len(), 64);
        }
    }

    #[test]
    fn unterminated_final_line_is_dropped_without_a_reply() {
        let server = Server::new(ServeOptions::default());
        // A complete status request, then half a request with no newline.
        let input = "{\"op\":\"status\"}\n{\"op\":\"syn";
        let mut out: Vec<u8> = Vec::new();
        server
            .serve_stream(input.as_bytes(), &mut out)
            .expect("mid-line EOF is a clean drop, not an I/O error");
        let text = String::from_utf8(out).expect("utf8 replies");
        assert_eq!(text.lines().count(), 1, "only the framed request replies");
        assert!(text.starts_with("{\"reply\":\"status\""));
    }

    #[test]
    fn shutdown_drains_then_refuses_new_synthesis() {
        let server = Server::new(ServeOptions::default());
        let before = server.handle_line(&synth_line(""));
        assert_eq!(before.kind, ReplyKind::Report(CacheTier::Miss));
        assert!(!server.is_shutting_down());
        server.begin_shutdown();
        assert!(server.is_shutting_down());
        // Synthesis is refused with a stable fingerprint...
        let during = server.handle_line(&synth_line(",\"seed\":9"));
        assert_eq!(during.kind, ReplyKind::Error("shutting-down"));
        // ...but stats still flush, so operators see final counters.
        let stats = server.handle_line("{\"op\":\"stats\"}");
        assert_eq!(stats.kind, ReplyKind::Stats);
        assert_eq!(stats.line, server.stats_line());
    }

    #[test]
    fn fingerprint_helper_matches_served_fingerprint() {
        let server = Server::new(ServeOptions::default());
        let reply = server.handle_line(&synth_line(""));
        let parse_opts = ParseOptions::new();
        let parsed = parse_pattern(PATTERN, &parse_opts).expect("valid");
        let request = SynthesisRequest::builder(parsed.pattern.clone())
            .restarts(1)
            .build()
            .expect("request builds");
        let fp = job_fingerprint(parsed.kind, &parsed.canonical, &request);
        assert!(reply.line.contains(&fp.to_hex()));
    }

    #[test]
    fn zero_restarts_and_zero_clusters_are_typed_rejections() {
        let server = Server::new(ServeOptions::default());
        let r = server.handle_line(&synth_line("").replace("\"restarts\":1", "\"restarts\":0"));
        assert_eq!(r.kind, ReplyKind::Error("zero-restarts"));
        assert!(r.line.contains("restarts must be at least 1"));
        let z = server.handle_line(&synth_line(",\"mode\":\"decomposed\",\"clusters\":0"));
        assert_eq!(z.kind, ReplyKind::Error("zero-clusters"));
    }

    #[test]
    fn decomposed_mode_is_a_distinct_cache_key_and_caches() {
        let server = Server::new(ServeOptions::default());
        let flat = server.handle_line(&synth_line(""));
        let dec = server.handle_line(&synth_line(",\"mode\":\"decomposed\",\"clusters\":2"));
        assert_eq!(flat.kind, ReplyKind::Report(CacheTier::Miss));
        assert_eq!(
            dec.kind,
            ReplyKind::Report(CacheTier::Miss),
            "mode is part of the key, so this cannot hit the flat entry"
        );
        assert!(dec.line.contains("\"mode\":\"decomposed\""));
        assert!(dec.line.contains("\"contention_free\":true"));
        // A decomposed result is cache-worthy like any other: the stitched
        // network certifies, so the repeat is a verbatim hit.
        let hit = server.handle_line(&synth_line(",\"mode\":\"decomposed\",\"clusters\":2"));
        assert_eq!(hit.kind, ReplyKind::Report(CacheTier::Hit));
        assert_eq!(
            dec.line.replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
            hit.line
        );
    }
}
