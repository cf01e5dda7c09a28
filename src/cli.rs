//! The `nocsyn` command-line front end, as a library for testability.
//!
//! ```text
//! nocsyn info <pattern.txt>                 inspect a communication pattern
//! nocsyn synth <pattern.txt> [opts]         synthesize a network for it
//! nocsyn simulate <pattern.txt> [opts]      run it on a network, closed-loop
//! nocsyn verify <pattern.txt> [opts]        Theorem 1 check on a baseline
//! nocsyn faults <pattern.txt> [opts]        degradation under injected faults
//! nocsyn certify <pattern.txt> <cert.json>  independent certificate check
//! nocsyn fuzz [opts]                        deterministic ingestion fuzzing
//! nocsyn serve [opts]                       synthesis daemon with result cache
//! nocsyn client <addr> <op> [opts]          talk to a running daemon
//! ```
//!
//! Patterns use the plain-text format of [`nocsyn_model::text`]. The
//! binary in `src/main.rs` is a thin wrapper over [`run`].

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use nocsyn_certify::{check_certificate, check_certificate_for, CheckOptions, Rejection};
use nocsyn_engine::{par_map, Engine, EventSink, JobOutcome, JobStatus, JsonLinesSink, NullSink};
use nocsyn_faults::{DegradationReport, FaultScenario};
use nocsyn_floorplan::{mesh_baseline, place};
use nocsyn_fuzz::{CaseReport, FuzzConfig, FuzzTarget, Registry};
use nocsyn_model::json::JsonValue;
use nocsyn_model::{Digest, Flow, ParseLimits, ParseOptions, Pattern, PhaseSchedule, Trace};
use nocsyn_serve::{
    job_fingerprint, pareto_point_object, parse_pattern, run_chaos, synth_json_object,
    with_pareto_array, ChaosConfig, Client, ParsedPattern, Request, RetryPolicy, ServeOptions,
    Server, SynthRequest,
};
use nocsyn_sim::{AppDriver, RoutePolicy, SimConfig};
use nocsyn_synth::{explain, AppPattern, SynthesisResult};
use nocsyn_topo::{
    build_certificate, regular, to_dot, verify_contention_free, Network, RouteTable,
};

const HELP: &str = "\
nocsyn — contention-aware synthesis of application-specific interconnects

USAGE:
    nocsyn <command> <pattern.txt> [options]

COMMANDS:
    info       print the pattern's flows, contention set and contention periods
    synth      synthesize a minimal low-contention network for the pattern
    simulate   run the pattern closed-loop on a network
    verify     check Theorem 1 for the pattern on a baseline network
    faults     inject fault scenarios, repair routes, re-check Theorem 1
    certify    validate a contention-freedom certificate (independent checker)
    fuzz       run the deterministic ingestion fuzzer (takes no pattern file)
    serve      run the synthesis daemon (line protocol + result cache)
    client     send one request to a running daemon and print the reply
    chaos      run a seeded I/O fault schedule against an in-process server
               and check the crash-safety invariants (takes no pattern file)
    help       print this message

OPTIONS (every command):
    --json             machine-readable output: deterministic counters only,
                       no wall-clock fields (same seed => identical bytes)
    --seed <n>         search / synthesis seed [default 0xC0FFEE]

OPTIONS (synth):
    --max-degree <n>   switch port budget, processor links included [default 5]
    --restarts <n>     independent search restarts [default 8]
    --jobs <n>         worker threads for the restart portfolio [default 1];
                       the result is bit-identical for any worker count
    --deadline-ms <m>  wall-clock budget; on expiry the best-so-far result
                       is reported (degraded), never a panic
    --events           stream engine telemetry to stderr as JSON lines
    --explain          per-switch / per-pipe breakdown of the result
    --dot              print the generated network as Graphviz DOT
    --emit-cert <f>    write the contention-freedom certificate (JSON) to <f>;
                       bound to the job fingerprint `nocsyn serve` would use
    --decompose        cluster the flow graph, synthesize each cluster
                       independently, stitch with exact-colored inter-cluster
                       pipes, and re-verify Theorem 1 on the stitched whole
                       (the practical route to 64-256-node patterns)
    --clusters <n>     cluster count for --decompose [default: auto-sized]
    --pareto           with --json: sweep a ladder of degree budgets and embed
                       the non-dominated points (switches/links/area) as a
                       deterministic `pareto` array; without --json, print
                       the front as a table

OPTIONS (certify):
    nocsyn certify <pattern.txt> <cert.json> [--job <hex64>] [--json]
                       exits non-zero with a stable kebab-case fingerprint
                       (and typed obligation violations) on any rejection;
                       --job additionally demands the certificate be bound
                       to that job fingerprint

OPTIONS (simulate, verify, faults):
    --network <kind>   generated | mesh | torus | crossbar [default generated];
                       generated runs the synth request (--max-degree,
                       --restarts, --jobs, --deadline-ms, --decompose)

OPTIONS (faults):
    --exhaustive         every single-link and single-switch fault scenario
    --scenarios <n>      sampled scenarios when not exhaustive [default 8]
    --fault-links <k>    failed links per sampled scenario [default 1]
    --fault-switches <k> failed switches per sampled scenario [default 0]
    --scenario-seed <n>  sampling seed [default 0xFA07]
    --jobs <n>           analyze scenarios in parallel; output is
                         byte-identical for any worker count

OPTIONS (fuzz):
    --target <name>    all | parse_schedule | parse_trace | synthesis_request
                       | cli | ... [default all]
    --iters <n>        cases per target [default 10000]
    --corpus-dir <d>   extra corpus files to mutate (read sorted by name)
    (set NOCSYN_FUZZ_SEED=<case-seed> to replay a single reported case)

OPTIONS (serve):
    --listen <addr>       accept TCP connections on <addr> (e.g. 127.0.0.1:7733)
    --drain               read requests from stdin, write replies to stdout,
                          exit at end of input (scriptable / CI mode)
    --once                with --listen: exit after the first connection closes
    --cache-dir <d>       persist completed results as <fingerprint>.json files
    --cache-capacity <n>  in-memory cache entries [default 256]
    --max-requests <n>    requests allowed per connection [default 1024]
    --queue-depth <n>     in-flight synthesis bound; beyond it requests get a
                          structured queue-full reply [default 64]
    --max-restarts <n>    clamp client-requested restarts (admission control)
    --jobs <n>            engine worker threads [default 1]
    --io-timeout-ms <m>   read/write deadline per accepted socket; a peer
                          that stalls longer is dropped (slowloris defense)
    --events              stream serve + engine telemetry to stderr

OPTIONS (client):
    nocsyn client <addr> submit <pattern.txt> [--seed ...] [--restarts ...]
                                [--max-degree ...] [--deadline-ms ...]
                                [--decompose [--clusters ...]]
    nocsyn client <addr> status
    nocsyn client <addr> stats
    --retries <n>         retry connect failures, lost connections, and
                          queue-full replies up to <n> times [default 0]
    --backoff-ms <m>      base backoff per retry (k*m plus seeded jitter)
                          [default 50]
    exits non-zero with a stable kebab-case fingerprint (connect-failed,
    connection-lost, reply-malformed, retries-exhausted) on failure

OPTIONS (chaos):
    --seed <n>            fault schedule + corpus seed [default 0xC0FFEE]
    --iters <n>           connections to drive through the fault phase
                          [default 10000]
    --json                wall-clock-free summary; byte-identical across
                          same-seed runs; zero violations required

PATTERN FORMAT:
    procs 8
    phase bytes=4096 compute=1000
      0 -> 1
      2 -> 3
    repeat 4
";

/// Parsed command-line options.
struct Options {
    max_degree: u64,
    seed: u64,
    restarts: u64,
    jobs: usize,
    deadline_ms: Option<u64>,
    events: bool,
    dot: bool,
    explain: bool,
    network: String,
    exhaustive: bool,
    scenarios: usize,
    fault_links: usize,
    fault_switches: usize,
    scenario_seed: u64,
    json: bool,
    target: String,
    iters: u64,
    corpus_dir: Option<String>,
    listen: Option<String>,
    drain: bool,
    once: bool,
    cache_dir: Option<String>,
    cache_capacity: usize,
    max_requests: usize,
    queue_depth: usize,
    max_restarts: Option<u64>,
    io_timeout_ms: Option<u64>,
    retries: u64,
    backoff_ms: u64,
    emit_cert: Option<String>,
    job: Option<String>,
    decompose: bool,
    clusters: Option<u64>,
    pareto: bool,
}

/// The value after flag `name`.
fn flag_value(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{name} requires a value"))
}

/// The integer after flag `name`, naming the flag in any error — the
/// shared helper behind every `--flag <n>` option so messages stay
/// uniform across commands.
fn num_flag<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    name: &str,
) -> Result<T, String> {
    flag_value(it, name)?
        .parse()
        .map_err(|_| format!("{name} expects an integer"))
}

/// Rejects zero for count-valued flags where "none" is meaningless.
fn at_least_one<T: Default + PartialOrd>(name: &str, n: T) -> Result<T, String> {
    if n > T::default() {
        Ok(n)
    } else {
        Err(format!("{name} must be at least 1"))
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        max_degree: 5,
        seed: 0xC0FFEE,
        restarts: 8,
        jobs: 1,
        deadline_ms: None,
        events: false,
        dot: false,
        explain: false,
        network: "generated".into(),
        exhaustive: false,
        scenarios: 8,
        fault_links: 1,
        fault_switches: 0,
        scenario_seed: 0xFA07,
        json: false,
        target: "all".into(),
        iters: 10_000,
        corpus_dir: None,
        listen: None,
        drain: false,
        once: false,
        cache_dir: None,
        cache_capacity: 256,
        max_requests: 1024,
        queue_depth: 64,
        max_restarts: None,
        io_timeout_ms: None,
        retries: 0,
        backoff_ms: 50,
        emit_cert: None,
        job: None,
        decompose: false,
        clusters: None,
        pareto: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.as_str();
        match name {
            "--max-degree" => opts.max_degree = num_flag(&mut it, name)?,
            "--seed" => opts.seed = num_flag(&mut it, name)?,
            "--restarts" => opts.restarts = at_least_one(name, num_flag(&mut it, name)?)?,
            "--jobs" => opts.jobs = at_least_one(name, num_flag(&mut it, name)?)?,
            "--deadline-ms" => opts.deadline_ms = Some(num_flag(&mut it, name)?),
            "--events" => opts.events = true,
            "--dot" => opts.dot = true,
            "--explain" => opts.explain = true,
            "--network" => opts.network = flag_value(&mut it, name)?,
            "--exhaustive" => opts.exhaustive = true,
            "--json" => opts.json = true,
            "--scenarios" => opts.scenarios = at_least_one(name, num_flag(&mut it, name)?)?,
            "--fault-links" => opts.fault_links = num_flag(&mut it, name)?,
            "--fault-switches" => opts.fault_switches = num_flag(&mut it, name)?,
            "--scenario-seed" => opts.scenario_seed = num_flag(&mut it, name)?,
            "--target" => opts.target = flag_value(&mut it, name)?,
            "--iters" => opts.iters = at_least_one(name, num_flag(&mut it, name)?)?,
            "--corpus-dir" => opts.corpus_dir = Some(flag_value(&mut it, name)?),
            "--listen" => opts.listen = Some(flag_value(&mut it, name)?),
            "--drain" => opts.drain = true,
            "--once" => opts.once = true,
            "--cache-dir" => opts.cache_dir = Some(flag_value(&mut it, name)?),
            "--cache-capacity" => {
                opts.cache_capacity = at_least_one(name, num_flag(&mut it, name)?)?;
            }
            "--max-requests" => opts.max_requests = at_least_one(name, num_flag(&mut it, name)?)?,
            "--queue-depth" => opts.queue_depth = at_least_one(name, num_flag(&mut it, name)?)?,
            "--emit-cert" => opts.emit_cert = Some(flag_value(&mut it, name)?),
            "--decompose" => opts.decompose = true,
            // Deliberately no at_least_one: zero flows into the request
            // builder so the typed `zero-clusters` rejection is exercised.
            "--clusters" => opts.clusters = Some(num_flag(&mut it, name)?),
            "--pareto" => opts.pareto = true,
            "--job" => opts.job = Some(flag_value(&mut it, name)?),
            "--max-restarts" => {
                opts.max_restarts = Some(at_least_one(name, num_flag(&mut it, name)?)?);
            }
            "--io-timeout-ms" => {
                opts.io_timeout_ms = Some(at_least_one(name, num_flag(&mut it, name)?)?);
            }
            "--retries" => opts.retries = num_flag(&mut it, name)?,
            "--backoff-ms" => opts.backoff_ms = num_flag(&mut it, name)?,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(opts)
}

/// A command's entry point; it gets the arguments after the command name.
type Handler = fn(&[String]) -> Result<String, String>;

/// Every command `run` accepts, with its entry point. `run` looks the
/// command up here before it reads any file, and the `cli` fuzz target
/// (`dispatch_probe`) accepts exactly these names.
const COMMANDS: &[(&str, Handler)] = &[
    ("help", |_| Ok(HELP.to_string())),
    ("--help", |_| Ok(HELP.to_string())),
    ("-h", |_| Ok(HELP.to_string())),
    ("info", |args| run_on_pattern("info", args)),
    ("synth", |args| run_on_pattern("synth", args)),
    ("simulate", |args| run_on_pattern("simulate", args)),
    ("verify", |args| run_on_pattern("verify", args)),
    ("faults", |args| run_on_pattern("faults", args)),
    // The checker takes two files (pattern, certificate); everything
    // after them is options.
    ("certify", cmd_certify),
    // The fuzzer, the daemon and the chaos harness take no pattern file:
    // the daemon's patterns arrive inline over the protocol, and the
    // chaos harness generates its request corpus from the seed.
    ("fuzz", |args| cmd_fuzz(&parse_options(args)?)),
    ("serve", |args| cmd_serve(&parse_options(args)?)),
    ("client", cmd_client),
    ("chaos", |args| cmd_chaos(&parse_options(args)?)),
];

/// Executes the CLI for the given arguments (without the program name)
/// and returns its stdout text.
///
/// # Errors
///
/// A human-readable message for any usage, parse, synthesis or
/// simulation failure.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Ok(HELP.to_string());
    };
    let Some((_, handler)) = COMMANDS.iter().find(|(name, _)| name == command) else {
        return Err(format!("unknown command `{command}`"));
    };
    handler(&args[1..])
}

/// Runs a command whose first argument is a pattern file; everything
/// after the file is options.
fn run_on_pattern(command: &str, args: &[String]) -> Result<String, String> {
    let Some(path) = args.first() else {
        return Err(format!("`{command}` requires a pattern file"));
    };
    let opts = parse_options(&args[1..])?;
    let input = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let parsed = parse_pattern(&input, &ParseOptions::new()).map_err(|e| format!("{path}: {e}"))?;

    match command {
        "info" => cmd_info(&parsed, &opts),
        "synth" => cmd_synth(parsed, input, &opts),
        _ => {
            let (net, policy) = build_network_for(&parsed.pattern, input, &opts)?;
            match (command, &parsed.source) {
                ("simulate", Pattern::Schedule(s)) => cmd_simulate(s, &net, policy, &opts),
                ("simulate", Pattern::Trace(t)) => cmd_replay(t, &net, &policy, &opts),
                ("verify", _) => cmd_verify(&parsed.pattern, &policy, &opts),
                _ => cmd_faults(&parsed, &net, &policy, &opts),
            }
        }
    }
}

fn cmd_info(parsed: &ParsedPattern, opts: &Options) -> Result<String, String> {
    let pattern = &parsed.pattern;
    let n_events = match &parsed.source {
        Pattern::Schedule(s) => s.len(),
        Pattern::Trace(t) => t.len(),
    };
    if opts.json {
        let (periods, max_clique) = pattern.complexity();
        let obj = JsonValue::object([
            ("command", JsonValue::from("info")),
            ("procs", JsonValue::from(pattern.n_procs())),
            ("flows", JsonValue::from(pattern.flows().len())),
            ("events", JsonValue::from(n_events)),
            (
                "contention_pairs",
                JsonValue::from(pattern.contention().len()),
            ),
            ("periods", JsonValue::from(periods)),
            ("max_clique", JsonValue::from(max_clique)),
        ]);
        return Ok(format!("{obj}\n"));
    }
    let mut out = String::new();
    let _ = writeln!(out, "{pattern}");
    let _ = writeln!(
        out,
        "events: {n_events} ({} distinct periods)",
        pattern.cliques().len()
    );
    for (i, clique) in pattern.cliques().iter().enumerate() {
        let _ = writeln!(out, "  period {}: {clique}", i + 1);
    }
    Ok(out)
}

/// The synthesis job the flags describe, in its wire form. `client
/// submit` sends its [`Request::to_json`], and `synth` and `--network
/// generated` run its [`SynthRequest::build`], so the submitted job and
/// the local one are the same job by construction. Seed, restarts and
/// degree bound are always set (the CLI's defaults are the daemon's);
/// the other knobs only when a flag sets them.
fn synth_job(opts: &Options, pattern: String) -> Result<SynthRequest, String> {
    let job = SynthRequest {
        pattern,
        seed: Some(opts.seed),
        restarts: Some(opts.restarts),
        max_degree: Some(opts.max_degree),
        deadline_ms: opts.deadline_ms,
        mode: opts.decompose.then(|| "decomposed".to_string()),
        clusters: opts.clusters,
    };
    // The wire's rule on the mode knobs, reported in terms of the flags.
    job.synthesis_mode()
        .map_err(|_| "--clusters requires --decompose".to_string())?;
    Ok(job)
}

fn cmd_synth(parsed: ParsedPattern, text: String, opts: &Options) -> Result<String, String> {
    let request = synth_job(opts, text)?
        .build(parsed.pattern, None)
        .map_err(|e| e.detail)?;
    let pattern = request.pattern();
    let sink: Arc<dyn EventSink> = if opts.events {
        Arc::new(JsonLinesSink::stderr())
    } else {
        Arc::new(NullSink)
    };
    let engine = Engine::new().with_workers(opts.jobs).with_sink(sink);
    let outcome = engine.synthesize(request.clone());
    let result = outcome_result(&outcome, opts)?;
    if let Some(cert_path) = &opts.emit_cert {
        // Bind the certificate to the same job fingerprint the serve
        // cache would use for this request, so the file is
        // interchangeable with a daemon's cached certificate.
        let fp = job_fingerprint(parsed.kind, &parsed.canonical, &request);
        let cert = result.certificate(pattern, Some(fp)).to_json();
        std::fs::write(cert_path, format!("{cert}\n"))
            .map_err(|e| format!("writing {cert_path}: {e}"))?;
    }
    if opts.json {
        // One rendering shared with the serve daemon and its cache, so a
        // cache hit is byte-comparable against a direct CLI run.
        let base = synth_json_object(&request, &outcome);
        let body = if opts.pareto {
            // Each rung differs from the request only in its degree bound,
            // which the report object does not read.
            let sweep = engine.pareto_sweep(&request).map_err(|e| e.to_string())?;
            let rendered: Vec<String> = sweep
                .iter()
                .map(|(p, rung)| {
                    let report = synth_json_object(&request, rung);
                    pareto_point_object(p, request.seed(), &report)
                })
                .collect();
            with_pareto_array(&base, &rendered)
        } else {
            base
        };
        return Ok(format!("{body}\n"));
    }
    let mut out = String::new();
    if outcome.status == JobStatus::DeadlineExceeded {
        let _ = writeln!(
            out,
            "deadline exceeded after {}/{} restarts; reporting best-so-far",
            outcome.attempts_completed, outcome.attempts_total
        );
    }
    if let Some(d) = &outcome.decomposition {
        let _ = writeln!(
            out,
            "decomposed: {} clusters (largest {}), {} cut flows over {} stitch links",
            d.clusters, d.largest_cluster, d.cut_flows, d.stitch_links
        );
    }
    let _ = writeln!(out, "{}", result.report);
    let _ = writeln!(out, "\n{}", result.network);

    let check = verify_contention_free(pattern.contention(), &result.routes);
    let _ = writeln!(out, "{check}");

    if opts.explain {
        let _ = writeln!(out, "\n{}", explain(result, pattern));
    }

    let (rows, cols) = regular::grid_dims(pattern.n_procs());
    let plan = place(&result.network, opts.seed);
    let area = plan.area(&result.network);
    let mesh = mesh_baseline(rows, cols);
    let _ = writeln!(
        out,
        "area vs {rows}x{cols} mesh: switch {:.0}%, link {:.0}%",
        100.0 * area.switch_area / mesh.switch_area,
        100.0 * area.link_area / mesh.link_area.max(1.0),
    );
    if opts.pareto {
        let sweep = engine.pareto_sweep(&request).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "\npareto front (constraint sweep):");
        for (p, _) in &sweep {
            let _ = writeln!(
                out,
                "  max_degree {:>2}: {} switches, {} links{}",
                p.max_degree,
                p.n_switches,
                p.n_links,
                if p.feasible { "" } else { " (infeasible)" }
            );
        }
    }
    if opts.dot {
        let _ = writeln!(out, "\n{}", to_dot(&result.network));
    }
    Ok(out)
}

/// The result an engine outcome selected, or the CLI's message for why
/// there is none: the job's error, or a deadline that expired before any
/// restart completed.
fn outcome_result<'a>(
    outcome: &'a JobOutcome,
    opts: &Options,
) -> Result<&'a SynthesisResult, String> {
    if let JobStatus::Failed(e) = &outcome.status {
        return Err(e.to_string());
    }
    outcome.result.as_ref().ok_or_else(|| {
        format!(
            "deadline of {} ms expired before any of the {} restarts completed",
            opts.deadline_ms.unwrap_or(0),
            outcome.attempts_total
        )
    })
}

fn cmd_simulate(
    schedule: &PhaseSchedule,
    net: &Network,
    policy: RoutePolicy,
    opts: &Options,
) -> Result<String, String> {
    let plan = place(net, opts.seed);
    let config = SimConfig::paper().with_link_delays(plan.link_lengths(net));
    let stats = AppDriver::new(net, policy, config)
        .run(schedule)
        .map_err(|e| e.to_string())?;
    if opts.json {
        return Ok(format!(
            "{}\n",
            sim_stats_json("simulate", net, &stats, opts)
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "network: {} ({} switches, {} links)",
        opts.network,
        net.n_switches(),
        net.n_network_links()
    );
    let _ = writeln!(out, "{stats}");
    let _ = writeln!(
        out,
        "packet latency: mean {:.1}, max {}; deadlock kills: {}",
        stats.packets.mean_latency, stats.packets.max_latency, stats.packets.deadlock_kills
    );
    Ok(out)
}

fn cmd_verify(
    pattern: &AppPattern,
    policy: &RoutePolicy,
    opts: &Options,
) -> Result<String, String> {
    // Deterministic table: take the first-alternative route per flow.
    let routes = policy_table(policy, pattern)?;
    let report = verify_contention_free(pattern.contention(), &routes);
    if opts.json {
        let obj = JsonValue::object([
            ("command", JsonValue::from("verify")),
            ("network", JsonValue::from(opts.network.as_str())),
            (
                "contention_free",
                JsonValue::from(report.is_contention_free()),
            ),
            ("witnesses", JsonValue::from(report.witnesses().len())),
        ]);
        return Ok(format!("{obj}\n"));
    }
    Ok(format!("{report}\n"))
}

/// Renders simulation statistics as one deterministic JSON object —
/// counters and cycle counts only, never wall-clock time.
fn sim_stats_json(
    command: &str,
    net: &Network,
    stats: &nocsyn_sim::ExecutionStats,
    opts: &Options,
) -> JsonValue {
    JsonValue::object([
        ("command", JsonValue::from(command)),
        ("network", JsonValue::from(opts.network.as_str())),
        ("switches", JsonValue::from(net.n_switches())),
        ("links", JsonValue::from(net.n_network_links())),
        ("exec_cycles", JsonValue::from(stats.exec_cycles)),
        ("delivered", JsonValue::from(stats.delivered)),
        ("max_comm_cycles", JsonValue::from(stats.max_comm_cycles)),
        (
            "packets_delivered",
            JsonValue::from(stats.packets.delivered),
        ),
        ("max_latency", JsonValue::from(stats.packets.max_latency)),
        (
            "deadlock_kills",
            JsonValue::from(stats.packets.deadlock_kills),
        ),
        ("retransmits", JsonValue::from(stats.packets.retransmits)),
    ])
}

/// Fault-injection sweep: build (or synthesize) the network, inject each
/// scenario, repair the route table over the surviving subgraph, and
/// re-run the Theorem 1 check on the repaired table.
fn cmd_faults(
    parsed: &ParsedPattern,
    net: &Network,
    policy: &RoutePolicy,
    opts: &Options,
) -> Result<String, String> {
    let pattern = &parsed.pattern;
    let routes = policy_table(policy, pattern)?;
    let scenarios: Vec<FaultScenario> = if opts.exhaustive {
        FaultScenario::enumerate_single_link_faults(net)
            .into_iter()
            .chain(FaultScenario::enumerate_single_switch_faults(net))
            .collect()
    } else {
        (0..opts.scenarios as u64)
            .map(|k| {
                FaultScenario::sample(
                    net,
                    opts.fault_links,
                    opts.fault_switches,
                    opts.scenario_seed.wrapping_add(k),
                )
            })
            .collect()
    };
    if scenarios.is_empty() {
        return Err("no fault scenarios to analyze (network has no failable elements)".into());
    }
    // Each analysis is a pure function of its scenario, and par_map
    // returns results in input order, so the rendered report is
    // byte-identical for any --jobs value.
    let reports: Vec<DegradationReport> = par_map(scenarios, opts.jobs, |scenario| {
        DegradationReport::analyze(net, pattern.contention(), &routes, scenario)
    });
    let mut out = String::new();
    if opts.json {
        // Re-certify every repaired route table: each line carries a
        // `cert` delta with the certificate's binding and the verdict of
        // the independent checker. The report object itself is unchanged
        // (`DegradationReport::to_json` stays byte-stable); the delta is
        // appended here at the CLI layer.
        let check_opts = CheckOptions::new();
        for report in &reports {
            let cert = build_certificate(
                pattern.n_procs(),
                pattern.contention(),
                report.repaired_routes(),
                None,
            );
            let delta =
                match check_certificate_for(&parsed.source, &cert.to_json(), None, &check_opts) {
                    Ok(summary) => JsonValue::object([
                        ("valid", JsonValue::from(true)),
                        ("contention_free", JsonValue::from(summary.contention_free)),
                        ("routes", JsonValue::from(summary.n_routes)),
                        ("binding", JsonValue::from(summary.binding)),
                    ]),
                    Err(rej) => JsonValue::object([
                        ("valid", JsonValue::from(false)),
                        ("fingerprint", JsonValue::from(rej.fingerprint())),
                    ]),
                };
            let base = report.to_json();
            let mut fields: Vec<(String, JsonValue)> = base
                .as_object()
                .map(<[(String, JsonValue)]>::to_vec)
                .unwrap_or_default();
            fields.push(("cert".to_string(), delta));
            let _ = writeln!(out, "{}", JsonValue::object(fields));
        }
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "network: {} ({} switches, {} links); {} flows, {} scenarios",
        opts.network,
        net.n_switches(),
        net.n_network_links(),
        routes.len(),
        reports.len()
    );
    for report in &reports {
        let _ = writeln!(out, "{report}");
    }
    let clean = reports.iter().filter(|r| r.still_contention_free()).count();
    let _ = writeln!(
        out,
        "contention-free after repair: {clean}/{} scenarios",
        reports.len()
    );
    Ok(out)
}

/// Renders a flow as the `[src, dst]` JSON pair used throughout the
/// certificate schema.
fn flow_json(flow: Flow) -> JsonValue {
    JsonValue::array([
        JsonValue::from(flow.src.index()),
        JsonValue::from(flow.dst.index()),
    ])
}

/// The independent certificate checker: validates `<cert.json>` against
/// `<pattern.txt>` with `nocsyn-certify` (set arithmetic over the model
/// crate only — no synthesis code in the loop). Rejections are returned
/// as errors, so the process exits non-zero; with `--json` the error text
/// is a machine-readable object carrying the stable fingerprint and any
/// typed obligation violations.
fn cmd_certify(args: &[String]) -> Result<String, String> {
    let usage = "usage: nocsyn certify <pattern.txt> <cert.json> [--job <hex64>] [--json]";
    let (Some(pattern_path), Some(cert_path)) = (args.first(), args.get(1)) else {
        return Err(usage.into());
    };
    if pattern_path.starts_with('-') || cert_path.starts_with('-') {
        return Err(usage.into());
    }
    let opts = parse_options(&args[2..])?;
    let expected_job = match &opts.job {
        Some(hex) => Some(
            Digest::from_hex(hex)
                .ok_or_else(|| "--job expects a 64-hex-digit job fingerprint".to_string())?,
        ),
        None => None,
    };
    let pattern = std::fs::read_to_string(pattern_path)
        .map_err(|e| format!("reading {pattern_path}: {e}"))?;
    let cert =
        std::fs::read_to_string(cert_path).map_err(|e| format!("reading {cert_path}: {e}"))?;
    match check_certificate(&pattern, &cert, expected_job.as_ref(), &CheckOptions::new()) {
        Ok(summary) => {
            if opts.json {
                let obj = JsonValue::object([
                    ("command", JsonValue::from("certify")),
                    ("valid", JsonValue::from(true)),
                    ("contention_free", JsonValue::from(summary.contention_free)),
                    ("binding", JsonValue::from(summary.binding)),
                    ("routes", JsonValue::from(summary.n_routes)),
                    ("flows", JsonValue::from(summary.n_flows)),
                    ("witnesses", JsonValue::from(summary.n_witnesses)),
                ]);
                Ok(format!("{obj}\n"))
            } else {
                let verdict = if summary.contention_free {
                    "contention-free proof accepted"
                } else {
                    "non-freedom proof accepted (witnesses confirmed)"
                };
                let mut out = String::new();
                let _ = writeln!(out, "certificate: {verdict}");
                let _ = writeln!(out, "binding: {}", summary.binding);
                let _ = writeln!(
                    out,
                    "routes: {}/{} flows routed; {} witnesses",
                    summary.n_routes, summary.n_flows, summary.n_witnesses
                );
                Ok(out)
            }
        }
        Err(rej) => Err(render_rejection(&rej, opts.json)),
    }
}

/// Renders a certificate rejection for `cmd_certify`'s error path.
fn render_rejection(rej: &Rejection, json: bool) -> String {
    if !json {
        return format!("certificate rejected ({}): {rej}", rej.fingerprint());
    }
    let violations: Vec<JsonValue> = rej
        .violations()
        .iter()
        .map(|v| {
            JsonValue::object([
                (
                    "pair",
                    JsonValue::array([flow_json(v.pair.first()), flow_json(v.pair.second())]),
                ),
                (
                    "shared",
                    JsonValue::array(v.shared.iter().map(|s| JsonValue::from(s.as_str()))),
                ),
            ])
        })
        .collect();
    JsonValue::object([
        ("command", JsonValue::from("certify")),
        ("valid", JsonValue::from(false)),
        ("fingerprint", JsonValue::from(rej.fingerprint())),
        ("detail", JsonValue::from(rej.to_string())),
        ("violations", JsonValue::array(violations)),
    ])
    .to_string()
}

/// The pure slice of the CLI that the `cli` fuzz target exercises:
/// command lookup, option parsing and input-layer parsing, with no
/// filesystem access and no synthesis. Input layout: first line is the
/// argument vector (whitespace-split), the rest is the pattern body.
fn dispatch_probe(input: &[u8]) -> CaseReport {
    let ticks = input.len() as u64;
    let text = String::from_utf8_lossy(input);
    let (arg_line, body) = match text.split_once('\n') {
        Some((a, b)) => (a, b),
        None => (text.as_ref(), ""),
    };
    let argv: Vec<String> = arg_line.split_whitespace().map(str::to_string).collect();
    let Some(command) = argv.first() else {
        return CaseReport::rejected(ticks, "empty-argv");
    };
    if !COMMANDS.iter().any(|(name, _)| name == command) {
        return CaseReport::rejected(ticks, "unknown-command");
    }
    if parse_options(&argv[1..]).is_err() {
        return CaseReport::rejected(ticks, "options-rejected");
    }
    match parse_pattern(body, &ParseOptions::new()) {
        Ok(parsed) => CaseReport::accepted(ticks, parsed.pattern.flows().len() as u64),
        Err(_) => CaseReport::rejected(ticks, "input-rejected"),
    }
}

/// Corpus entries shaped like fuzzed CLI invocations (argument line +
/// pattern body), so the mutators reach deep into `dispatch_probe`.
fn cli_corpus() -> Vec<Vec<u8>> {
    [
        "synth --seed 3 --restarts 2 --jobs 2\nprocs 4\nphase bytes=64\n 0 -> 1\n 2 -> 3\n",
        "info\nprocs 2\nphase\n 0 -> 1\n",
        "faults --network mesh --exhaustive --json\nprocs 4\nphase\n 1 -> 2\n",
        "simulate --network torus\nprocs 4\nmsg 0 -> 1 start=0 finish=10\n",
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect()
}

fn cmd_fuzz(opts: &Options) -> Result<String, String> {
    let mut registry = Registry::with_builtin_targets();
    registry.register(FuzzTarget::new("cli", cli_corpus(), dispatch_probe));

    // `--corpus-dir` entries join every target's own corpus.
    let mut corpus = Vec::new();
    if let Some(dir) = &opts.corpus_dir {
        // Sorted read order keeps the corpus (and thus the whole run)
        // deterministic regardless of directory enumeration order.
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("reading corpus dir {dir}: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        paths.sort();
        for path in paths {
            corpus.push(
                std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?,
            );
        }
    }

    let config = FuzzConfig {
        iters: opts.iters,
        seed: opts.seed,
        ..FuzzConfig::default()
    }
    .from_env();
    let summary = nocsyn_fuzz::run(&registry, &opts.target, &corpus, &config)?;
    if !summary.clean() {
        // Non-zero exit with replay lines on stderr, so CI fails loudly.
        return Err(summary.render_human());
    }
    if opts.json {
        Ok(format!("{}\n", summary.to_json()))
    } else {
        Ok(summary.render_human())
    }
}

/// Builds a [`Server`] from the CLI options (shared by both serve
/// modes).
fn build_server(opts: &Options) -> Server {
    let serve_opts = ServeOptions {
        limits: ParseLimits::default(),
        cache_capacity: opts.cache_capacity,
        cache_dir: opts.cache_dir.clone().map(PathBuf::from),
        max_requests_per_conn: opts.max_requests,
        max_queue_depth: opts.queue_depth,
        max_restarts: opts.max_restarts,
        workers: opts.jobs,
        io_timeout: opts.io_timeout_ms.map(std::time::Duration::from_millis),
        disk_io: None,
    };
    let sink: Arc<dyn EventSink> = if opts.events {
        Arc::new(JsonLinesSink::stderr())
    } else {
        Arc::new(NullSink)
    };
    Server::new(serve_opts).with_sink(sink)
}

fn cmd_serve(opts: &Options) -> Result<String, String> {
    let server = build_server(opts);
    if let Some(addr) = &opts.listen {
        let listener = std::net::TcpListener::bind(addr.as_str())
            .map_err(|e| format!("binding {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        // Stderr so scripts capturing stdout see only protocol output;
        // printed before the accept loop so callers binding port 0 can
        // learn the ephemeral port. Best effort: a closed or full stderr
        // must not stop the daemon from serving.
        let _ = writeln!(std::io::stderr(), "nocsyn serve: listening on {local}");
        server
            .serve_listener(&listener, opts.once)
            .map_err(|e| e.to_string())?;
        Ok(String::new())
    } else if opts.drain {
        // Scriptable mode: requests on stdin, replies on stdout, exit at
        // end of input. `nocsyn serve --drain < jobs.jsonl` needs no
        // daemon lifecycle management at all.
        let stdin = std::io::stdin();
        let mut out: Vec<u8> = Vec::new();
        server
            .serve_stream(stdin.lock(), &mut out)
            .map_err(|e| e.to_string())?;
        String::from_utf8(out).map_err(|e| format!("reply stream was not UTF-8: {e}"))
    } else {
        Err("serve requires --listen <addr> or --drain".into())
    }
}

fn cmd_client(args: &[String]) -> Result<String, String> {
    let usage = "usage: nocsyn client <addr> submit <pattern.txt> [opts] | status | stats";
    let Some(addr) = args.first() else {
        return Err(usage.into());
    };
    let Some(op) = args.get(1) else {
        return Err(usage.into());
    };
    let (request, client_opts) = match op.as_str() {
        "status" => (Request::Status.to_json(), parse_options(&args[2..])?),
        "stats" => (Request::Stats.to_json(), parse_options(&args[2..])?),
        "submit" => {
            let Some(path) = args.get(2) else {
                return Err("client submit requires a pattern file".into());
            };
            let opts = parse_options(&args[3..])?;
            let pattern =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            (Request::Synth(synth_job(&opts, pattern)?).to_json(), opts)
        }
        other => return Err(format!("unknown client operation `{other}`; {usage}")),
    };
    // Failures surface as stable kebab-case fingerprints (connect-failed,
    // connection-lost, reply-malformed, retries-exhausted) with a
    // non-zero exit, so scripts can dispatch on the first token.
    let policy = RetryPolicy {
        retries: client_opts.retries,
        backoff_ms: client_opts.backoff_ms,
        seed: client_opts.seed,
    };
    let reply =
        Client::request_with_retry(addr.as_str(), &request, &policy).map_err(|e| e.to_string())?;
    Ok(format!("{reply}\n"))
}

fn cmd_chaos(opts: &Options) -> Result<String, String> {
    let config = ChaosConfig {
        seed: opts.seed,
        iters: opts.iters,
        ..ChaosConfig::default()
    };
    let summary = run_chaos(&config);
    if !summary.clean() {
        // Non-zero exit with the violation details on stderr, so CI
        // fails loudly.
        return Err(summary.render_human());
    }
    if opts.json {
        Ok(format!("{}\n", summary.to_json()))
    } else {
        Ok(summary.render_human())
    }
}

/// Open-loop replay of a timed trace (`simulate` on trace input).
fn cmd_replay(
    trace: &Trace,
    net: &Network,
    policy: &RoutePolicy,
    opts: &Options,
) -> Result<String, String> {
    let plan = place(net, opts.seed);
    let config = SimConfig::paper().with_link_delays(plan.link_lengths(net));
    let stats = nocsyn_sim::run_trace(net, policy, config, trace).map_err(|e| e.to_string())?;
    if opts.json {
        let obj = JsonValue::object([
            ("command", JsonValue::from("replay")),
            ("network", JsonValue::from(opts.network.as_str())),
            ("switches", JsonValue::from(net.n_switches())),
            ("links", JsonValue::from(net.n_network_links())),
            ("delivered", JsonValue::from(stats.delivered)),
            ("max_latency", JsonValue::from(stats.max_latency)),
            ("deadlock_kills", JsonValue::from(stats.deadlock_kills)),
            ("retransmits", JsonValue::from(stats.retransmits)),
        ]);
        return Ok(format!("{obj}\n"));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "network: {} ({} switches, {} links); open-loop trace replay",
        opts.network,
        net.n_switches(),
        net.n_network_links()
    );
    let _ = writeln!(out, "{stats}");
    Ok(out)
}

/// Builds the network `--network` names for the pattern. `text` is the
/// pattern's source, which `--network generated` runs as the flags' job.
fn build_network_for(
    pattern: &AppPattern,
    text: String,
    opts: &Options,
) -> Result<(Network, RoutePolicy), String> {
    let n = pattern.n_procs();
    let (rows, cols) = regular::grid_dims(n);
    match opts.network.as_str() {
        "crossbar" => {
            let (net, routes) = regular::crossbar(n).map_err(|e| e.to_string())?;
            Ok((net, RoutePolicy::deterministic(routes)))
        }
        "mesh" => {
            let (net, routes) = regular::mesh(rows, cols).map_err(|e| e.to_string())?;
            Ok((net, RoutePolicy::deterministic(routes)))
        }
        "torus" => {
            let (net, xy, yx) =
                regular::torus_with_alternates(rows, cols).map_err(|e| e.to_string())?;
            Ok((net, RoutePolicy::adaptive(vec![xy, yx])))
        }
        "generated" => {
            let request = synth_job(opts, text)?
                .build(pattern.clone(), None)
                .map_err(|e| e.detail)?;
            let outcome = Engine::new().with_workers(opts.jobs).synthesize(request);
            let result = outcome_result(&outcome, opts)?;
            Ok((
                result.network.clone(),
                RoutePolicy::deterministic(result.routes.clone()),
            ))
        }
        other => Err(format!(
            "unknown network `{other}` (expected generated|mesh|torus|crossbar)"
        )),
    }
}

/// Extracts a deterministic route table covering the pattern's flows from
/// a policy: the zero-load (first-alternative) choice per flow, which is
/// what a static Theorem 1 check should see.
fn policy_table(policy: &RoutePolicy, pattern: &AppPattern) -> Result<RouteTable, String> {
    let mut table = RouteTable::new();
    for &flow in pattern.flows() {
        let route = policy
            .first_route(flow)
            .ok_or_else(|| format!("no route for flow {flow}"))?;
        table.insert(flow, route.clone());
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_pattern(name: &str, content: &str) -> String {
        let path = std::env::temp_dir().join(format!("nocsyn-cli-test-{name}.txt"));
        std::fs::write(&path, content).expect("temp dir is writable");
        path.to_string_lossy().into_owned()
    }

    const PATTERN: &str =
        "procs 4\nphase bytes=256\n  0 -> 1\n  2 -> 3\nphase bytes=256\n  1 -> 2\n  3 -> 0\n";

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_without_arguments() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(run(&args(&["help"])).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn info_reports_periods() {
        let path = write_pattern("info", PATTERN);
        let out = run(&args(&["info", &path])).unwrap();
        assert!(out.contains("4 procs"));
        assert!(out.contains("period 1"));
    }

    #[test]
    fn synth_reports_network_and_theorem1() {
        let path = write_pattern("synth", PATTERN);
        let out = run(&args(&["synth", &path, "--restarts", "2", "--seed", "3"])).unwrap();
        assert!(out.contains("synthesized"));
        assert!(out.contains("contention-free: C ∩ R = ∅"));
        assert!(out.contains("area vs 2x2 mesh"));
    }

    #[test]
    fn synth_explain_breaks_down_pipes() {
        let path = write_pattern("explain", PATTERN);
        let out = run(&args(&["synth", &path, "--restarts", "1", "--explain"])).unwrap();
        assert!(out.contains("pipes:"));
        assert!(out.contains("switches:"));
    }

    #[test]
    fn synth_jobs_worker_count_does_not_change_output() {
        let path = write_pattern("jobs", PATTERN);
        let base = args(&["synth", &path, "--restarts", "4", "--seed", "11", "--dot"]);
        let j1 = run(&[base.clone(), args(&["--jobs", "1"])].concat()).unwrap();
        let j4 = run(&[base, args(&["--jobs", "4"])].concat()).unwrap();
        assert_eq!(j1, j4);
    }

    #[test]
    fn info_json_is_one_deterministic_object() {
        let path = write_pattern("info-json", PATTERN);
        let a = run(&args(&["info", &path, "--json"])).unwrap();
        let b = run(&args(&["info", &path, "--json"])).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"command\":\"info\""), "{a}");
        assert!(a.contains("\"procs\":4"), "{a}");
        assert!(a.contains("\"contention_pairs\":"), "{a}");
        assert!(a.contains("\"max_clique\":"), "{a}");
        assert_eq!(a.lines().count(), 1);
    }

    #[test]
    fn synth_json_reports_counters_and_is_jobs_invariant() {
        let path = write_pattern("synth-json", PATTERN);
        let base = args(&["synth", &path, "--restarts", "4", "--seed", "11", "--json"]);
        let j1 = run(&[base.clone(), args(&["--jobs", "1"])].concat()).unwrap();
        let j4 = run(&[base, args(&["--jobs", "4"])].concat()).unwrap();
        assert_eq!(j1, j4, "synth --json must be worker-count invariant");
        assert!(j1.starts_with("{\"command\":\"synth\""), "{j1}");
        assert!(j1.contains("\"status\":\"ok\""), "{j1}");
        assert!(j1.contains("\"contention_free\":true"), "{j1}");
        assert!(j1.contains("\"moves_tried\":"), "{j1}");
        // No wall-clock fields ever — the object must be byte-stable.
        assert!(!j1.contains("elapsed"), "{j1}");
    }

    #[test]
    fn client_submit_runs_the_job_synth_runs() {
        // Two 8-node rings: a decomposed job and a flat one differ in
        // their report, so a dropped mode shows.
        let mut body = String::from("procs 16\nphase bytes=256\n");
        for p in 0..16 {
            body.push_str(&format!("  {p} -> {}\n", p / 8 * 8 + (p + 1) % 8));
        }
        let path = write_pattern("client-decomposed", &body);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("an ephemeral port binds");
        let addr = listener.local_addr().expect("bound").to_string();
        let server = std::thread::spawn(move || {
            Server::new(ServeOptions::default()).serve_listener(&listener, true)
        });
        let flags = args(&["--decompose", "--clusters", "2", "--restarts", "1"]);
        let reply = run(&[args(&["client", &addr, "submit", &path]), flags.clone()].concat());
        server
            .join()
            .expect("server thread")
            .expect("one connection served");
        let local = run(&[args(&["synth", &path, "--json"]), flags].concat()).unwrap();
        assert!(local.contains("\"mode\":\"decomposed\""), "{local}");
        let reply = reply.unwrap();
        let report = reply
            .trim_end()
            .split_once("\"report\":")
            .and_then(|(_, r)| r.strip_suffix('}'));
        assert_eq!(report, Some(local.trim_end()), "{reply}");
    }

    #[test]
    fn simulate_json_reports_cycle_counters() {
        let path = write_pattern("sim-json", PATTERN);
        let a = run(&args(&["simulate", &path, "--network", "mesh", "--json"])).unwrap();
        let b = run(&args(&["simulate", &path, "--network", "mesh", "--json"])).unwrap();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"command\":\"simulate\""), "{a}");
        assert!(a.contains("\"network\":\"mesh\""), "{a}");
        assert!(a.contains("\"exec_cycles\":"), "{a}");
        assert!(a.contains("\"deadlock_kills\":"), "{a}");
    }

    #[test]
    fn generated_network_is_the_synth_result_for_any_jobs() {
        let path = write_pattern("sim-generated", PATTERN);
        let knobs = args(&["--seed", "5", "--max-degree", "3", "--json"]);
        let simulate = [
            args(&["simulate", &path, "--network", "generated"]),
            knobs.clone(),
        ]
        .concat();
        let j1 = run(&[simulate.clone(), args(&["--jobs", "1"])].concat()).unwrap();
        let j4 = run(&[simulate, args(&["--jobs", "4"])].concat()).unwrap();
        assert_eq!(j1, j4);
        // The simulated network is the one `synth` selects for the same
        // request.
        let synth = run(&[args(&["synth", &path]), knobs].concat()).unwrap();
        let counts = |out: &str| {
            let v = nocsyn_model::json::parse(out.trim()).expect("one JSON object");
            let field = |k: &str| v.get(k).and_then(|x| x.as_u64());
            (field("switches"), field("links"))
        };
        assert_eq!(counts(&j1), counts(&synth));
    }

    #[test]
    fn verify_json_reports_theorem1_outcome() {
        let path = write_pattern("verify-json", PATTERN);
        let out = run(&args(&["verify", &path, "--json"])).unwrap();
        assert!(out.starts_with("{\"command\":\"verify\""), "{out}");
        assert!(out.contains("\"contention_free\":"), "{out}");
        assert!(out.contains("\"witnesses\":"), "{out}");
    }

    #[test]
    fn synth_zero_deadline_fails_gracefully() {
        let path = write_pattern("deadline", PATTERN);
        let err = run(&args(&[
            "synth",
            &path,
            "--deadline-ms",
            "0",
            "--jobs",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("deadline"), "{err}");
    }

    #[test]
    fn synth_generous_deadline_still_reports() {
        let path = write_pattern("deadline-ok", PATTERN);
        let out = run(&args(&[
            "synth",
            &path,
            "--restarts",
            "2",
            "--deadline-ms",
            "60000",
        ]))
        .unwrap();
        assert!(out.contains("synthesized"), "{out}");
    }

    #[test]
    fn synth_dot_emits_graphviz() {
        let path = write_pattern("dot", PATTERN);
        let out = run(&args(&["synth", &path, "--restarts", "1", "--dot"])).unwrap();
        assert!(out.contains("graph network {"));
    }

    #[test]
    fn simulate_on_each_network_kind() {
        let path = write_pattern("sim", PATTERN);
        for kind in ["crossbar", "mesh", "torus", "generated"] {
            let out = run(&args(&[
                "simulate",
                &path,
                "--network",
                kind,
                "--restarts",
                "1",
            ]))
            .unwrap();
            assert!(out.contains("exec"), "{kind}: {out}");
            assert!(out.contains("deadlock kills: 0"), "{kind}");
        }
    }

    #[test]
    fn verify_flags_contention_on_baselines() {
        let path = write_pattern("verify", PATTERN);
        let out = run(&args(&["verify", &path, "--network", "crossbar"])).unwrap();
        assert!(out.contains("contention-free"));
    }

    #[test]
    fn faults_classifies_every_scenario() {
        let path = write_pattern("faults", PATTERN);
        let out = run(&args(&[
            "faults",
            &path,
            "--network",
            "mesh",
            "--exhaustive",
        ]))
        .unwrap();
        assert!(out.contains("scenarios"), "{out}");
        assert!(out.contains("contention-free after repair:"), "{out}");
        assert!(out.contains("faults L0:"), "{out}");
    }

    #[test]
    fn faults_json_is_identical_across_worker_counts() {
        let path = write_pattern("faults-jobs", PATTERN);
        let base = args(&[
            "faults",
            &path,
            "--network",
            "mesh",
            "--exhaustive",
            "--json",
        ]);
        let j1 = run(&[base.clone(), args(&["--jobs", "1"])].concat()).unwrap();
        let j4 = run(&[base, args(&["--jobs", "4"])].concat()).unwrap();
        assert_eq!(j1, j4);
        for line in j1.lines() {
            assert!(line.starts_with(r#"{"scenario":"#), "{line}");
            assert!(line.contains(r#""contention_free":"#), "{line}");
        }
    }

    #[test]
    fn faults_sampled_scenarios_are_seeded() {
        let path = write_pattern("faults-seed", PATTERN);
        let base = args(&[
            "faults",
            &path,
            "--network",
            "generated",
            "--restarts",
            "1",
            "--scenarios",
            "3",
            "--fault-links",
            "2",
            "--json",
        ]);
        let a = run(&[base.clone(), args(&["--scenario-seed", "7"])].concat()).unwrap();
        let b = run(&[base, args(&["--scenario-seed", "7"])].concat()).unwrap();
        assert_eq!(a, b, "same sampling seed must reproduce the sweep");
        assert_eq!(a.lines().count(), 3);
    }

    #[test]
    fn faults_rejects_bad_options() {
        let path = write_pattern("faults-bad", PATTERN);
        assert!(run(&args(&["faults", &path, "--scenarios", "0"])).is_err());
        assert!(run(&args(&["faults", &path, "--fault-links", "some"])).is_err());
        assert!(run(&args(&["faults", &path, "--scenario-seed"])).is_err());
    }

    #[test]
    fn synth_emit_cert_round_trips_through_certify() {
        let path = write_pattern("emit-cert", PATTERN);
        let cert = std::env::temp_dir().join("nocsyn-cli-test-emit-cert.json");
        let cert = cert.to_string_lossy().into_owned();
        run(&args(&[
            "synth",
            &path,
            "--restarts",
            "1",
            "--seed",
            "5",
            "--emit-cert",
            &cert,
        ]))
        .unwrap();
        let human = run(&args(&["certify", &path, &cert])).unwrap();
        assert!(human.contains("contention-free proof accepted"), "{human}");
        let json = run(&args(&["certify", &path, &cert, "--json"])).unwrap();
        assert!(
            json.starts_with("{\"command\":\"certify\",\"valid\":true"),
            "{json}"
        );
        assert!(json.contains("\"contention_free\":true"), "{json}");
        assert!(json.contains("\"binding\":"), "{json}");
    }

    #[test]
    fn certify_enforces_the_job_binding() {
        let path = write_pattern("cert-job", PATTERN);
        let cert = std::env::temp_dir().join("nocsyn-cli-test-cert-job.json");
        let cert = cert.to_string_lossy().into_owned();
        run(&args(&[
            "synth",
            &path,
            "--restarts",
            "1",
            "--seed",
            "5",
            "--emit-cert",
            &cert,
        ]))
        .unwrap();
        // The emitted certificate is bound to the job fingerprint serve
        // would compute; a wrong expected digest must be rejected.
        let wrong = "0".repeat(64);
        let err = run(&args(&["certify", &path, &cert, "--job", &wrong])).unwrap_err();
        assert!(err.contains("cert-job-mismatch"), "{err}");
        assert!(run(&args(&["certify", &path, &cert, "--job", "zz"])).is_err());
    }

    #[test]
    fn certify_rejects_tampered_certificates_with_a_fingerprint() {
        let path = write_pattern("cert-tamper", PATTERN);
        let cert = std::env::temp_dir().join("nocsyn-cli-test-cert-tamper.json");
        let cert = cert.to_string_lossy().into_owned();
        run(&args(&[
            "synth",
            &path,
            "--restarts",
            "1",
            "--seed",
            "5",
            "--emit-cert",
            &cert,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&cert).unwrap();
        let tampered = text.replacen("\"contention_free\":true", "\"contention_free\":false", 1);
        assert_ne!(text, tampered, "tamper site must exist");
        std::fs::write(&cert, tampered).unwrap();
        let err = run(&args(&["certify", &path, &cert, "--json"])).unwrap_err();
        assert!(err.contains("\"valid\":false"), "{err}");
        assert!(
            err.contains("\"fingerprint\":\"cert-binding-mismatch\""),
            "{err}"
        );
        std::fs::write(&cert, "not a certificate").unwrap();
        let err = run(&args(&["certify", &path, &cert])).unwrap_err();
        assert!(err.contains("certificate rejected ("), "{err}");
    }

    #[test]
    fn certify_rejects_bad_usage() {
        let path = write_pattern("cert-usage", PATTERN);
        assert!(run(&args(&["certify"])).is_err());
        assert!(run(&args(&["certify", &path])).is_err());
        assert!(run(&args(&["certify", &path, "--json"])).is_err());
        assert!(run(&args(&["certify", &path, "/nonexistent-nocsyn-cert"])).is_err());
    }

    #[test]
    fn faults_json_carries_a_cert_delta_per_scenario() {
        let path = write_pattern("faults-cert", PATTERN);
        let out = run(&args(&[
            "faults",
            &path,
            "--network",
            "mesh",
            "--exhaustive",
            "--json",
        ]))
        .unwrap();
        for line in out.lines() {
            assert!(line.contains("\"cert\":{\"valid\":true"), "{line}");
            assert!(line.contains("\"binding\":"), "{line}");
        }
    }

    #[test]
    fn trace_input_is_autodetected() {
        let trace = "procs 4\nmsg 0 -> 1 start=0 finish=200 bytes=256\nmsg 2 -> 3 start=0 finish=200 bytes=256\n";
        let path = write_pattern("trace", trace);
        let info = run(&args(&["info", &path])).unwrap();
        assert!(info.contains("4 procs"));
        let synth = run(&args(&["synth", &path, "--restarts", "1"])).unwrap();
        assert!(synth.contains("contention-free"));
        let replay = run(&args(&["simulate", &path, "--network", "mesh"])).unwrap();
        assert!(replay.contains("open-loop trace replay"));
        assert!(replay.contains("2 delivered"));
        let verify = run(&args(&["verify", &path, "--network", "crossbar"])).unwrap();
        assert!(verify.contains("contention-free"));
    }

    #[test]
    fn fuzz_smoke_runs_clean() {
        let out = run(&args(&["fuzz", "--iters", "200", "--seed", "1"])).unwrap();
        assert!(
            out.contains("ok: zero crashes, zero budget violations"),
            "{out}"
        );
        assert!(out.contains("cli:"), "{out}");
        assert!(out.contains("parse_schedule:"), "{out}");
        assert!(out.contains("parse_trace:"), "{out}");
    }

    #[test]
    fn fuzz_json_is_deterministic_per_seed() {
        let base = args(&["fuzz", "--iters", "150", "--seed", "9", "--json"]);
        let a = run(&base).unwrap();
        let b = run(&base).unwrap();
        assert_eq!(a, b, "same seed must give a byte-identical summary");
        assert!(a.starts_with("{\"seed\":9,\"iters\":150,"), "{a}");
        let c = run(&args(&["fuzz", "--iters", "150", "--seed", "10", "--json"])).unwrap();
        assert_ne!(a, c, "different seeds must explore different inputs");
    }

    #[test]
    fn fuzz_single_target_and_corpus_dir() {
        let dir = std::env::temp_dir().join("nocsyn-cli-test-corpus");
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        std::fs::write(dir.join("a.txt"), PATTERN).expect("writable");
        let out = run(&args(&[
            "fuzz",
            "--target",
            "parse_schedule",
            "--iters",
            "100",
            "--corpus-dir",
            &dir.to_string_lossy(),
        ]))
        .unwrap();
        assert!(out.contains("parse_schedule:"), "{out}");
        assert!(!out.contains("parse_trace:"), "{out}");
    }

    #[test]
    fn fuzz_rejects_bad_usage() {
        let err = run(&args(&["fuzz", "--target", "bogus", "--iters", "5"])).unwrap_err();
        assert!(err.contains("unknown fuzz target `bogus`"), "{err}");
        assert!(err.contains("parse_schedule"), "{err}");
        assert!(run(&args(&["fuzz", "--iters", "0"])).is_err());
        assert!(run(&args(&["fuzz", "--corpus-dir", "/nonexistent-nocsyn-dir"])).is_err());
    }

    #[test]
    fn dispatch_probe_covers_accept_and_reject_paths() {
        assert_eq!(dispatch_probe(b"").rejected, Some("empty-argv"));
        assert_eq!(dispatch_probe(b"bogus\n").rejected, Some("unknown-command"));
        assert_eq!(
            dispatch_probe(b"synth --wat\nprocs 2\n").rejected,
            Some("options-rejected")
        );
        assert_eq!(
            dispatch_probe(b"synth\nprocs 0\n").rejected,
            Some("input-rejected")
        );
        let ok = dispatch_probe(b"synth --seed 1\nprocs 4\nphase\n 0 -> 1\n");
        assert_eq!(ok.rejected, None);
        assert_eq!(ok.output_units, 1);
        // Every command `run` accepts, the daemon, client and chaos
        // commands included.
        for (name, _) in COMMANDS {
            let case = dispatch_probe(format!("{name}\nprocs 2\nphase\n 0 -> 1\n").as_bytes());
            assert_eq!(case.rejected, None, "`{name}` was refused");
        }
    }

    #[test]
    fn error_paths() {
        // An unknown command is named as such before any file is read:
        // neither a missing pattern argument nor an unreadable path may
        // mask it.
        for argv in [
            args(&["frobnicate"]),
            args(&["frobnicate", "/nonexistent.txt"]),
        ] {
            assert_eq!(run(&argv).unwrap_err(), "unknown command `frobnicate`");
        }
        assert!(run(&args(&["synth"])).is_err()); // missing file
        assert!(run(&args(&["info", "/nonexistent-nocsyn-file"])).is_err());
        let path = write_pattern("badopt", PATTERN);
        assert!(run(&args(&["synth", &path, "--max-degree", "lots"])).is_err());
        assert!(run(&args(&["synth", &path, "--restarts", "0"])).is_err());
        assert!(run(&args(&["synth", &path, "--jobs", "0"])).is_err());
        assert!(run(&args(&["synth", &path, "--jobs", "many"])).is_err());
        assert!(run(&args(&["synth", &path, "--jobs"])).is_err());
        assert!(run(&args(&["synth", &path, "--deadline-ms", "soon"])).is_err());
        assert!(run(&args(&["simulate", &path, "--network", "hypercube"])).is_err());
        assert!(run(&args(&["synth", &path, "--wat"])).is_err());
        // A cluster count without decomposition is refused, not ignored,
        // locally and before a submit connects.
        for cmd in [
            args(&["synth", &path]),
            args(&["simulate", &path, "--network", "generated"]),
            args(&["client", "127.0.0.1:9", "submit", &path]),
        ] {
            let err = run(&[cmd, args(&["--clusters", "2"])].concat()).unwrap_err();
            assert_eq!(err, "--clusters requires --decompose");
        }
        let bad = write_pattern("badpattern", "phase\n 0 -> 1\n");
        assert!(run(&args(&["info", &bad])).is_err());
    }

    #[test]
    fn synth_and_client_submit_compute_one_job_fingerprint() {
        let texts = [
            PATTERN,
            "procs 4\n# the same job, presented differently\nphase bytes=256\n 0->1\n 2->3\nphase bytes=256\n 1->2\n 3->0\n",
            "procs 4\nmsg 0 -> 1 start=0 finish=200 bytes=256\nmsg 2 -> 3 start=0 finish=200\n",
        ];
        let parse = |text: &str| parse_pattern(text, &ParseOptions::new()).expect("valid pattern");
        let mut rng = nocsyn_rng::Rng::seed_from_u64(0x10B);
        let mut distinct = std::collections::BTreeSet::new();
        for case in 0..300 {
            let mut flags: Vec<String> = Vec::new();
            let mut flag = |name: &str, value: Option<u64>| {
                flags.push(name.to_string());
                flags.extend(value.map(|v| v.to_string()));
            };
            let pick = |rng: &mut nocsyn_rng::Rng, small: u64| match rng.gen_range(0..4u32) {
                0 => u64::MAX,
                _ => rng.gen_range(0..=small),
            };
            if rng.gen_bool(0.5) {
                let seed = pick(&mut rng, 1 << 40);
                flag("--seed", Some(seed));
            }
            if rng.gen_bool(0.5) {
                let restarts = pick(&mut rng, 12).max(1);
                flag("--restarts", Some(restarts));
            }
            if rng.gen_bool(0.5) {
                let degree = pick(&mut rng, 8);
                flag("--max-degree", Some(degree));
            }
            if rng.gen_bool(0.3) {
                let ms = pick(&mut rng, 60_000);
                flag("--deadline-ms", Some(ms));
            }
            if rng.gen_bool(0.5) {
                flag("--decompose", None);
            }
            if rng.gen_bool(0.4) {
                let clusters = pick(&mut rng, 4);
                flag("--clusters", Some(clusters));
            }
            if rng.gen_bool(0.3) {
                let jobs = rng.gen_range(1..=4u64);
                flag("--jobs", Some(jobs));
            }
            let text = texts[case % texts.len()];
            let opts = parse_options(&flags).expect("generated flags parse");
            // What `synth` runs, keyed as `--emit-cert` keys it.
            let local = synth_job(&opts, text.to_string()).and_then(|job| {
                let parsed = parse(text);
                job.build(parsed.pattern, None)
                    .map(|r| job_fingerprint(parsed.kind, &parsed.canonical, &r))
                    .map_err(|e| e.detail)
            });
            // The line `client submit` sends, through the daemon's steps.
            let served = synth_job(&opts, text.to_string()).and_then(|job| {
                let line = Request::Synth(job).to_json();
                let Ok(Request::Synth(wire)) = nocsyn_serve::parse_request(&line) else {
                    panic!("the daemon refuses the submitted line {line}");
                };
                let parsed = parse(&wire.pattern);
                wire.build(parsed.pattern, None)
                    .map(|r| job_fingerprint(parsed.kind, &parsed.canonical, &r))
                    .map_err(|e| e.detail)
            });
            assert_eq!(local, served, "flags {flags:?}");
            if let Ok(fp) = local {
                distinct.insert(fp);
            }
        }
        // The flag sets really vary the job.
        assert!(distinct.len() > 100, "{} distinct jobs", distinct.len());
    }
}
