//! Synthesis of minimal, low-contention application-specific on-chip
//! networks — the core methodology of Ho & Pinkston, **"A Methodology for
//! Designing Efficient On-Chip Interconnects on Well-Behaved Communication
//! Patterns"** (HPCA 2003), Section 3.
//!
//! Given the communication pattern of a well-behaved application (an
//! [`AppPattern`], extracted from a timed trace or a phase schedule) and a
//! [`SynthesisRequest`], the [`synthesize_attempt`] entry point runs one
//! attempt of the paper's recursive-bisection algorithm:
//!
//! 1. Start from a single "mega-switch" connecting every processor (or
//!    from the request's warm-start placement).
//! 2. While some switch violates the design constraints, split it: create a
//!    new switch, move half of its processors over, and locally improve the
//!    partition by greedy processor moves (bounded imbalance) and indirect
//!    route assignment (`Best_Route`).
//! 3. Size every inter-switch *pipe* with the `Fast_Color` clique bound
//!    during the search, and with formal graph coloring at finalization.
//! 4. Materialize the result as a concrete [`Network`] and [`RouteTable`]
//!    in which temporally-conflicting communications are assigned to
//!    different parallel links — making the intersection of the
//!    application's contention set with the network's conflict set empty
//!    (Theorem 1).
//!
//! One attempt is single-threaded and pure. The restart portfolio — the
//! request's `restarts()` attempts, the best one kept — and decomposed
//! requests run in the `nocsyn-engine` crate.
//!
//! [`Network`]: nocsyn_topo::Network
//! [`RouteTable`]: nocsyn_topo::RouteTable
//!
//! # Example
//!
//! ```
//! use nocsyn_model::{Phase, PhaseSchedule};
//! use nocsyn_synth::{synthesize_attempt, AppPattern, SynthesisRequest};
//! use nocsyn_topo::verify_contention_free;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A tiny phase-parallel app on 8 processors: neighbor exchange, then a
//! // transpose-like permutation.
//! let mut sched = PhaseSchedule::new(8);
//! sched.push(Phase::from_flows([(0usize, 1usize), (2, 3), (4, 5), (6, 7)])?)?;
//! sched.push(Phase::from_flows([(1usize, 0usize), (3, 2), (5, 4), (7, 6)])?)?;
//! sched.push(Phase::from_flows([(0usize, 4usize), (1, 5), (2, 6), (3, 7)])?)?;
//!
//! let pattern = AppPattern::from_schedule(&sched);
//! let request = SynthesisRequest::builder(pattern.clone())
//!     .max_degree(5)
//!     .seed(7)
//!     .build()?;
//! let result = synthesize_attempt(&request, 0, 0)?;
//!
//! // The generated network satisfies the degree constraint and is
//! // contention-free for the application (Theorem 1).
//! assert!(result.report.constraints_met);
//! assert!(result.network.max_degree() <= 5);
//! let report = verify_contention_free(pattern.contention(), &result.routes);
//! assert!(report.is_contention_free());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anneal;
mod config;
mod decompose;
mod error;
mod explain;
mod finalize;
mod moves;
mod pareto;
mod partition;
mod pattern;
mod report;
mod request;
mod route_opt;

pub use anneal::AcceptanceRule;
pub use config::{ColoringStrategy, SynthesisConfig};
pub use decompose::{
    auto_cluster_count, cluster_config, cluster_pattern, cluster_seed, stitch, Cluster,
    ClusterPlan, DecompositionSummary,
};
pub use error::SynthError;
pub use explain::explain;
pub use finalize::SynthesisResult;
pub use pareto::{pareto_filter, ParetoPoint};
pub use partition::{Partitioning, PipeKey};
pub use pattern::AppPattern;
pub use report::SynthesisReport;
pub use request::{RequestBuildError, SynthesisMode, SynthesisRequest, SynthesisRequestBuilder};

/// The derived seed of restart `attempt` under `config`: the base seed
/// advanced by the golden-ratio (splitmix) increment per attempt.
fn attempt_seed(config: &SynthesisConfig, attempt: usize) -> u64 {
    config
        .seed()
        .wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The derived seed of `retry` of restart `attempt`: retry 0 is the
/// attempt's own seed (base seed plus `attempt` golden-ratio strides, so
/// attempt 0 runs on the base seed itself), and each further retry
/// advances a splitmix64 chain keyed on a *mixed* image of the attempt
/// seed. Exposed so the `nocsyn-engine` retry policy can report the seed
/// a rerun used — the retried result is still a pure function of
/// `(request, attempt, retry)`.
pub fn retry_seed(config: &SynthesisConfig, attempt: usize, retry: usize) -> u64 {
    let mut seed = attempt_seed(config, attempt);
    if retry == 0 {
        return seed;
    }
    // Chain from a mixed image of the attempt seed, not the raw seed:
    // `attempt_seed` strides attempts by the same golden-ratio constant
    // splitmix64 advances its state by, so raw chains from neighboring
    // attempts would alias (attempt a retry r == attempt a+1 retry r-1).
    let mut state = nocsyn_rng::splitmix64(&mut seed);
    let mut out = 0;
    for _ in 0..retry {
        out = nocsyn_rng::splitmix64(&mut state);
    }
    out
}

/// Runs `retry` of restart `attempt` of a flat request: one full
/// deterministic pass of the Main Partitioning Algorithm plus
/// finalization, seeded with [`retry_seed`], starting from the
/// mega-switch or from the request's warm-start placement.
///
/// The result is a pure function of `(request, attempt, retry)` —
/// independent of which thread runs it or in what order attempts
/// complete, which is what makes the `nocsyn-engine` portfolio
/// bit-identical for any worker count. The request's restart count,
/// mode and deadline are the engine's business: it runs `restarts()`
/// attempts, and expands a decomposed request into flat per-cluster
/// requests before any attempt runs.
///
/// # Errors
///
/// Returns [`SynthError::EmptyPattern`] for a pattern with no processors
/// or a warm start that does not cover them. A pattern whose constraints
/// cannot be met (e.g. a degree bound smaller than what any topology
/// needs) does not error: synthesis runs to its round limit and reports
/// `constraints_met = false`.
pub fn synthesize_attempt(
    request: &SynthesisRequest,
    attempt: usize,
    retry: usize,
) -> Result<SynthesisResult, SynthError> {
    let pattern = request.pattern();
    let config = request
        .config()
        .clone()
        .with_seed(retry_seed(request.config(), attempt, retry));
    let mut partitioning = match request.warm_start() {
        None => Partitioning::megaswitch(pattern)?,
        Some(placement) => Partitioning::from_assignment(pattern, placement)?,
    };
    partition::run(&mut partitioning, &config);
    let mut result = finalize::materialize(&partitioning, &config)?;

    // The paper's step 3: formal coloring may need more links than the
    // fast estimate, re-violating the degree constraint — in that case
    // partitioning resumes. Re-running with exact coloring makes the
    // search's degree estimates equal the finalized ones, so this loop
    // converges for any satisfiable constraint.
    let mut retries = 0;
    while !result.report.constraints_met && retries < 2 {
        let exact = config.clone().with_coloring(ColoringStrategy::Exact);
        partition::run(&mut partitioning, &exact);
        result = finalize::materialize(&partitioning, &config)?;
        retries += 1;
    }
    Ok(result)
}

#[cfg(test)]
mod seed_tests {
    use super::*;

    #[test]
    fn retry_zero_is_the_attempt_seed() {
        let config = SynthesisConfig::new().with_seed(0xFEED);
        for attempt in 0..8 {
            assert_eq!(
                retry_seed(&config, attempt, 0),
                attempt_seed(&config, attempt)
            );
        }
    }

    #[test]
    fn retry_seeds_are_distinct_and_reproducible() {
        let config = SynthesisConfig::new().with_seed(7);
        let mut seen = std::collections::BTreeSet::new();
        for attempt in 0..8 {
            for retry in 0..8 {
                let s = retry_seed(&config, attempt, retry);
                assert_eq!(s, retry_seed(&config, attempt, retry));
                assert!(
                    seen.insert(s),
                    "collision at attempt {attempt} retry {retry}"
                );
            }
        }
    }
}
