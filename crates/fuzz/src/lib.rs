//! Hermetic, deterministic fuzzing for nocsyn's ingestion boundary.
//!
//! This crate is the in-repo answer to "how do we know no input
//! byte-sequence panics the parsers, allocates unboundedly, or loops
//! forever?" — without pulling in an external fuzzer. Everything is
//! seeded from [`nocsyn_rng`], so a run is a pure function of
//! `(seed, iters, targets)`:
//!
//! * **Generators** ([`gen`]) produce inputs three ways per case — raw
//!   byte mutation of a corpus entry, token-level mutation of valid
//!   corpora, and grammar-aware construction of schedules/traces — so
//!   both the happy path and the error paths stay exercised.
//! * **Targets** ([`target`]) are named entry points (`parse_schedule`,
//!   `parse_trace`, the `route_edit_probe` differential oracle over the
//!   incremental Theorem-1 checker, plus whatever callers register,
//!   e.g. the CLI dispatch path) that report accepted/rejected/work-done
//!   per case. Each target owns its seed corpus, so an entry added for
//!   one target changes no other target's cases.
//! * **Budgets** ([`CaseBudget`]) bound each case: input size is capped
//!   before the target runs, and the target's self-reported tick and
//!   output counts are checked after. A violation is recorded, not
//!   fatal — the run completes and the summary says what blew up.
//! * **Triage** ([`triage`]) catches panics, normalizes messages into
//!   value-free fingerprints, and deduplicates crashes.
//! * **Replay**: every crash and violation records the *case seed* that
//!   produced it. `NOCSYN_FUZZ_SEED=<n>` re-runs exactly that case,
//!   mirroring `nocsyn-check`'s `NOCSYN_CHECK_SEED` contract.
//!
//! The JSON summary ([`FuzzSummary::to_json`]) contains no wall-clock
//! data, so two runs with the same seed produce byte-identical output —
//! CI diffs it to prove determinism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod certify_probe;
pub mod chaos_probe;
pub mod gen;
pub mod request_probe;
pub mod route_probe;
pub mod serve_probe;
pub mod target;
pub mod triage;

use std::collections::BTreeMap;

use nocsyn_model::json::JsonValue;
use nocsyn_rng::{splitmix64, Rng};

pub use target::{CaseReport, FuzzTarget, Registry};
pub use triage::{normalize_fingerprint, Crash};

/// Environment variable that replays a single fuzz case by its case
/// seed (printed in crash and violation reports).
pub const REPLAY_ENV: &str = "NOCSYN_FUZZ_SEED";

/// Per-case resource bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseBudget {
    /// Generated inputs are truncated to this many bytes before the
    /// target ever sees them.
    pub max_input_bytes: usize,
    /// Upper bound on a target's self-reported work (the built-in
    /// targets count input bytes, so this only trips for custom
    /// targets that loop).
    pub max_ticks: u64,
    /// Upper bound on a target's self-reported output size. Catches
    /// amplification bugs: a 4 KiB input must not expand into millions
    /// of phases/messages.
    pub max_output_units: u64,
}

impl Default for CaseBudget {
    fn default() -> Self {
        CaseBudget {
            max_input_bytes: 4096,
            max_ticks: 1 << 20,
            max_output_units: 2_000_000,
        }
    }
}

/// A recorded budget violation (deduplicated by `what` per target).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetViolation {
    /// Which budget tripped: `"ticks"` or `"output_units"`.
    pub what: &'static str,
    /// Case seed of the first violation; replayable via
    /// [`REPLAY_ENV`].
    pub first_seed: u64,
    /// The offending value at first occurrence.
    pub value: u64,
    /// The budget it exceeded.
    pub limit: u64,
    /// Number of cases that tripped this budget.
    pub count: u64,
}

/// Configuration for one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Cases per target.
    pub iters: u64,
    /// Base seed; case seeds derive from it.
    pub seed: u64,
    /// Per-case resource bounds.
    pub budget: CaseBudget,
    /// When set, run exactly one case whose case seed *is* this value
    /// (bypassing derivation) — the replay path.
    pub replay: Option<u64>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 1000,
            seed: 1,
            budget: CaseBudget::default(),
            replay: None,
        }
    }
}

impl FuzzConfig {
    /// Applies the [`REPLAY_ENV`] environment variable, if set and
    /// parseable, as the replay seed.
    pub fn from_env(mut self) -> Self {
        if let Ok(v) = std::env::var(REPLAY_ENV) {
            if let Ok(seed) = v.trim().parse::<u64>() {
                self.replay = Some(seed);
            }
        }
        self
    }
}

/// Derives the seed for `case` from `base_seed`.
///
/// This is the same derivation `nocsyn-check` uses, so the replay
/// contract is uniform across both harnesses: the printed seed alone
/// reconstructs the input.
pub fn case_seed(base_seed: u64, case: u64) -> u64 {
    let mut state = base_seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// Outcome tallies for one target.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSummary {
    /// Target name.
    pub name: String,
    /// Cases executed.
    pub cases: u64,
    /// Cases the target accepted.
    pub accepted: u64,
    /// Rejections tallied by error-kind fingerprint (sorted by key).
    pub rejections: BTreeMap<&'static str, u64>,
    /// Deduplicated crashes, in first-seen order.
    pub crashes: Vec<Crash>,
    /// Deduplicated budget violations, in first-seen order.
    pub violations: Vec<BudgetViolation>,
}

impl TargetSummary {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("target", JsonValue::from(self.name.as_str())),
            ("cases", JsonValue::from(self.cases)),
            ("accepted", JsonValue::from(self.accepted)),
            (
                "rejections",
                JsonValue::object(
                    self.rejections
                        .iter()
                        .map(|(k, v)| (*k, JsonValue::from(*v))),
                ),
            ),
            (
                "crashes",
                JsonValue::array(self.crashes.iter().map(|c| {
                    JsonValue::object([
                        ("fingerprint", JsonValue::from(c.fingerprint.as_str())),
                        ("first_seed", JsonValue::from(c.first_seed)),
                        ("count", JsonValue::from(c.count)),
                        ("message", JsonValue::from(c.message.as_str())),
                    ])
                })),
            ),
            (
                "budget_violations",
                JsonValue::array(self.violations.iter().map(|v| {
                    JsonValue::object([
                        ("what", JsonValue::from(v.what)),
                        ("first_seed", JsonValue::from(v.first_seed)),
                        ("value", JsonValue::from(v.value)),
                        ("limit", JsonValue::from(v.limit)),
                        ("count", JsonValue::from(v.count)),
                    ])
                })),
            ),
        ])
    }
}

/// Whole-run summary across targets.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzSummary {
    /// Base seed of the run.
    pub seed: u64,
    /// Cases per target.
    pub iters: u64,
    /// Replay seed, when the run was a single-case replay.
    pub replay: Option<u64>,
    /// Per-target results, in execution (name) order.
    pub targets: Vec<TargetSummary>,
}

impl FuzzSummary {
    /// Total unique crashes across targets.
    pub fn unique_crashes(&self) -> usize {
        self.targets.iter().map(|t| t.crashes.len()).sum()
    }

    /// Total unique budget violations across targets.
    pub fn unique_violations(&self) -> usize {
        self.targets.iter().map(|t| t.violations.len()).sum()
    }

    /// `true` when no crashes and no budget violations were observed.
    pub fn clean(&self) -> bool {
        self.unique_crashes() == 0 && self.unique_violations() == 0
    }

    /// Deterministic JSON form: pure function of `(seed, iters,
    /// targets)`, no wall-clock anywhere. CI re-runs the same seed and
    /// byte-diffs this output.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("seed", JsonValue::from(self.seed)),
            ("iters", JsonValue::from(self.iters)),
            (
                "replay",
                match self.replay {
                    Some(s) => JsonValue::from(s),
                    None => JsonValue::Null,
                },
            ),
            ("unique_crashes", JsonValue::from(self.unique_crashes())),
            (
                "unique_budget_violations",
                JsonValue::from(self.unique_violations()),
            ),
            (
                "targets",
                JsonValue::array(self.targets.iter().map(TargetSummary::to_json)),
            ),
        ])
    }

    /// Human-readable report with one `NOCSYN_FUZZ_SEED=<n>` replay
    /// line per crash/violation.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fuzz: seed={} iters={} targets={}\n",
            self.seed,
            self.iters,
            self.targets.len()
        ));
        for t in &self.targets {
            let rejected: u64 = t.rejections.values().sum();
            out.push_str(&format!(
                "  {}: {} cases, {} accepted, {} rejected, {} unique crashes, {} budget violations\n",
                t.name,
                t.cases,
                t.accepted,
                rejected,
                t.crashes.len(),
                t.violations.len()
            ));
            for c in &t.crashes {
                out.push_str(&format!(
                    "    crash x{}: {}\n      replay: {}\n",
                    c.count,
                    c.message,
                    c.replay_line(&t.name)
                ));
            }
            for v in &t.violations {
                out.push_str(&format!(
                    "    budget {} x{}: {} > {} (replay: {REPLAY_ENV}={} nocsyn fuzz --target {} --iters 1)\n",
                    v.what, v.count, v.value, v.limit, v.first_seed, t.name
                ));
            }
        }
        if self.clean() {
            out.push_str("  ok: zero crashes, zero budget violations\n");
        }
        out
    }
}

/// Runs `iters` cases (or one replay case) against a single target,
/// mutating its own corpus plus the `extra` entries.
pub fn run_target(target: &FuzzTarget, extra: &[Vec<u8>], config: &FuzzConfig) -> TargetSummary {
    let _hook = triage::SilentPanicGuard::install();
    let corpus: Vec<Vec<u8>> = target.corpus().iter().chain(extra).cloned().collect();
    let mut summary = TargetSummary {
        name: target.name().to_string(),
        cases: 0,
        accepted: 0,
        rejections: BTreeMap::new(),
        crashes: Vec::new(),
        violations: Vec::new(),
    };

    let cases: Box<dyn Iterator<Item = u64>> = match config.replay {
        Some(seed) => Box::new(std::iter::once(seed)),
        None => Box::new((0..config.iters).map(|c| case_seed(config.seed, c))),
    };

    for seed in cases {
        let mut rng = Rng::seed_from_u64(seed);
        let input = gen::generate_case(&mut rng, &corpus, config.budget.max_input_bytes);
        summary.cases += 1;
        match triage::run_caught(|| target.run(&input)) {
            Ok(report) => {
                match report.rejected {
                    Some(fp) => *summary.rejections.entry(fp).or_insert(0) += 1,
                    None => summary.accepted += 1,
                }
                record_violation(
                    &mut summary.violations,
                    "ticks",
                    report.ticks,
                    config.budget.max_ticks,
                    seed,
                );
                record_violation(
                    &mut summary.violations,
                    "output_units",
                    report.output_units,
                    config.budget.max_output_units,
                    seed,
                );
            }
            Err(message) => {
                let fingerprint = normalize_fingerprint(&message);
                match summary
                    .crashes
                    .iter_mut()
                    .find(|c| c.fingerprint == fingerprint)
                {
                    Some(c) => c.count += 1,
                    None => summary.crashes.push(Crash {
                        fingerprint,
                        first_seed: seed,
                        message,
                        count: 1,
                    }),
                }
            }
        }
    }
    summary
}

fn record_violation(
    violations: &mut Vec<BudgetViolation>,
    what: &'static str,
    value: u64,
    limit: u64,
    seed: u64,
) {
    if value <= limit {
        return;
    }
    match violations.iter_mut().find(|v| v.what == what) {
        Some(v) => v.count += 1,
        None => violations.push(BudgetViolation {
            what,
            first_seed: seed,
            value,
            limit,
            count: 1,
        }),
    }
}

/// Runs every named target (or all registered targets for `"all"`),
/// each over its own corpus plus the `extra` entries (e.g. files from
/// `--corpus-dir`). Unknown names yield `Err` with the valid list.
pub fn run(
    registry: &Registry,
    target: &str,
    extra: &[Vec<u8>],
    config: &FuzzConfig,
) -> Result<FuzzSummary, String> {
    let names: Vec<&'static str> = if target == "all" {
        registry.names()
    } else {
        match registry.names().iter().find(|n| **n == target) {
            Some(n) => vec![*n],
            None => {
                return Err(format!(
                    "unknown fuzz target `{target}` (known: all, {})",
                    registry.names().join(", ")
                ))
            }
        }
    };
    let targets = names
        .iter()
        .map(|name| {
            let t = registry.get(name).expect("name came from the registry");
            run_target(t, extra, config)
        })
        .collect();
    Ok(FuzzSummary {
        seed: config.seed,
        iters: config.iters,
        replay: config.replay,
        targets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_match_the_check_derivation() {
        let mut state = 7u64 ^ 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        assert_eq!(case_seed(7, 3), splitmix64(&mut state));
    }

    #[test]
    fn run_rejects_unknown_targets_with_the_known_list() {
        let registry = Registry::with_builtin_targets();
        let err = run(&registry, "nope", &[], &FuzzConfig::default()).unwrap_err();
        assert!(err.contains("unknown fuzz target `nope`"));
        assert!(err.contains("parse_schedule"));
    }

    #[test]
    fn budget_violations_deduplicate_and_count() {
        let mut v = Vec::new();
        record_violation(&mut v, "ticks", 10, 5, 100);
        record_violation(&mut v, "ticks", 99, 5, 200);
        record_violation(&mut v, "output_units", 3, 5, 300);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].count, 2);
        assert_eq!(v[0].first_seed, 100);
    }

    #[test]
    fn replay_runs_exactly_one_case_with_the_given_seed() {
        let registry = Registry::with_builtin_targets();
        let config = FuzzConfig {
            replay: Some(42),
            ..FuzzConfig::default()
        };
        let summary = run(&registry, "parse_schedule", &[], &config).expect("known target");
        assert_eq!(summary.targets[0].cases, 1);
        assert_eq!(summary.replay, Some(42));
    }

    #[test]
    fn from_env_is_a_no_op_without_the_variable() {
        // NOCSYN_FUZZ_SEED is owned by the replay integration test in
        // tests/; here we only check the unset path doesn't set replay.
        if std::env::var(REPLAY_ENV).is_err() {
            assert_eq!(FuzzConfig::default().from_env().replay, None);
        }
    }
}
