//! Synthesis hot-path performance harness: wall time and moves/sec for
//! the annealing search on CG16 / MG8 / FFT16.
//!
//! Usage: `perf [--json] [--seed S] [--iters N]`.
//!
//! Every future performance PR is judged against this harness (see
//! EXPERIMENTS.md and BENCH_6.json). Two output channels with different
//! contracts:
//!
//! * `--json` (stdout): **deterministic** counters only — link/switch
//!   totals of the portfolio winner and the summed search counters across
//!   all restarts and iterations. No wall-clock fields, so same-seed runs
//!   are byte-identical (CI diffs two runs).
//! * human mode (stdout) / `--json` companion (stderr): measured wall
//!   time and moves/sec, which vary run to run and stay out of the
//!   byte-compared artifact.
//!
//! The portfolio is driven attempt by attempt through
//! `synthesize_attempt` rather than through the engine so the harness
//! can sum the search counters over *every* restart (the report of the
//! winner alone undercounts the work performed), while still selecting
//! the result the engine would keep (`portfolio_rank`, ties on the
//! attempt index).

use std::time::{Duration, Instant};

use nocsyn_engine::portfolio_rank;
use nocsyn_model::json::JsonValue;
use nocsyn_synth::{synthesize_attempt, AppPattern, SynthesisRequest, SynthesisResult};
use nocsyn_workloads::{Benchmark, WorkloadParams};

/// One benchmark case of the harness.
struct Case {
    name: &'static str,
    benchmark: Benchmark,
    n_procs: usize,
}

const CASES: [Case; 3] = [
    Case {
        name: "CG16",
        benchmark: Benchmark::Cg,
        n_procs: 16,
    },
    Case {
        name: "MG8",
        benchmark: Benchmark::Mg,
        n_procs: 8,
    },
    Case {
        name: "FFT16",
        benchmark: Benchmark::Fft,
        n_procs: 16,
    },
];

/// Deterministic counters plus the (non-deterministic) elapsed time of
/// one case.
struct Outcome {
    name: &'static str,
    n_procs: usize,
    flows: usize,
    links: usize,
    switches: usize,
    constraints_met: bool,
    moves_tried: usize,
    moves_accepted: usize,
    reroutes_tried: usize,
    reroutes_accepted: usize,
    reroutes_neutral: usize,
    elapsed: Duration,
}

fn usage() -> ! {
    eprintln!("usage: perf [--json] [--seed S] [--iters N]");
    std::process::exit(2);
}

struct Options {
    json: bool,
    seed: u64,
    iters: usize,
}

fn parse_args() -> Options {
    let mut opts = Options {
        json: false,
        seed: 1,
        iters: 3,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.seed = s,
                None => usage(),
            },
            "--iters" => match args.next().and_then(|v| v.parse().ok()).filter(|&n| n >= 1) {
                Some(n) => opts.iters = n,
                None => usage(),
            },
            _ => usage(),
        }
    }
    opts
}

fn run_case(case: &Case, seed: u64, iters: usize) -> Outcome {
    let sched = case
        .benchmark
        .schedule(
            case.n_procs,
            &WorkloadParams::paper_default(case.benchmark).with_iterations(1),
        )
        .expect("harness process counts are valid");
    let request = SynthesisRequest::builder(AppPattern::from_schedule(&sched))
        .seed(seed)
        .build()
        .expect("default restarts and flat mode always build");

    let mut moves_tried = 0;
    let mut moves_accepted = 0;
    let mut reroutes_tried = 0;
    let mut reroutes_accepted = 0;
    let mut reroutes_neutral = 0;
    let mut best = None;
    let started = Instant::now();
    for _ in 0..iters {
        for attempt in 0..request.restarts().get() {
            let result =
                synthesize_attempt(&request, attempt, 0).expect("benchmark patterns are valid");
            moves_tried += result.report.moves_tried;
            moves_accepted += result.report.moves_accepted;
            reroutes_tried += result.report.reroutes_tried;
            reroutes_accepted += result.report.reroutes_accepted;
            reroutes_neutral += result.report.reroutes_neutral;
            let rank = (portfolio_rank(&result), attempt);
            if best
                .as_ref()
                .is_none_or(|(best_rank, _): &(_, SynthesisResult)| rank < *best_rank)
            {
                best = Some((rank, result));
            }
        }
    }
    let elapsed = started.elapsed();
    let (_, winner) = best.expect("at least one attempt ran");
    Outcome {
        name: case.name,
        n_procs: case.n_procs,
        flows: request.pattern().flows().len(),
        links: winner.report.n_links,
        switches: winner.report.n_switches,
        constraints_met: winner.report.constraints_met,
        moves_tried,
        moves_accepted,
        reroutes_tried,
        reroutes_accepted,
        reroutes_neutral,
        elapsed,
    }
}

fn moves_per_sec(o: &Outcome) -> f64 {
    let secs = o.elapsed.as_secs_f64();
    if secs > 0.0 {
        o.moves_tried as f64 / secs
    } else {
        0.0
    }
}

fn main() {
    let opts = parse_args();
    let outcomes: Vec<Outcome> = CASES
        .iter()
        .map(|c| run_case(c, opts.seed, opts.iters))
        .collect();

    if opts.json {
        let cases = JsonValue::array(outcomes.iter().map(|o| {
            JsonValue::object([
                ("name", JsonValue::from(o.name)),
                ("n_procs", JsonValue::from(o.n_procs)),
                ("flows", JsonValue::from(o.flows)),
                ("links", JsonValue::from(o.links)),
                ("switches", JsonValue::from(o.switches)),
                ("constraints_met", JsonValue::from(o.constraints_met)),
                ("moves_tried", JsonValue::from(o.moves_tried)),
                ("moves_accepted", JsonValue::from(o.moves_accepted)),
                ("reroutes_tried", JsonValue::from(o.reroutes_tried)),
                ("reroutes_accepted", JsonValue::from(o.reroutes_accepted)),
                ("reroutes_neutral", JsonValue::from(o.reroutes_neutral)),
            ])
        }));
        let doc = JsonValue::object([
            ("bench", JsonValue::from("perf")),
            ("seed", JsonValue::from(opts.seed)),
            ("iters", JsonValue::from(opts.iters)),
            (
                "restarts",
                JsonValue::from(SynthesisRequest::DEFAULT_RESTARTS),
            ),
            ("cases", cases),
        ]);
        println!("{doc}");
        // Timings go to stderr so the byte-compared artifact stays
        // deterministic.
        for o in &outcomes {
            eprintln!(
                "# {}: {:.1} ms, {:.0} moves/s",
                o.name,
                o.elapsed.as_secs_f64() * 1e3,
                moves_per_sec(o)
            );
        }
    } else {
        println!("synthesis perf (seed {}, iters {})", opts.seed, opts.iters);
        println!(
            "{:<6} {:>6} {:>6} {:>8} {:>12} {:>10} {:>12}",
            "case", "links", "switch", "moves", "elapsed ms", "moves/s", "constraints"
        );
        for o in &outcomes {
            println!(
                "{:<6} {:>6} {:>6} {:>8} {:>12.1} {:>10.0} {:>12}",
                o.name,
                o.links,
                o.switches,
                o.moves_tried,
                o.elapsed.as_secs_f64() * 1e3,
                moves_per_sec(o),
                if o.constraints_met { "met" } else { "MISSED" }
            );
        }
    }
}
