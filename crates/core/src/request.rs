//! The synthesis request: the one value every caller builds, shared by
//! the CLI, the engine batch API, and the serve daemon.
//!
//! A [`SynthesisRequest`] bundles everything a synthesis job needs — the
//! pattern, the [`SynthesisConfig`] of one attempt, the restart count of
//! the portfolio, an optional warm-start placement, the mode (flat or
//! decomposed) and an optional per-job deadline — behind a validating
//! builder. [`crate::synthesize_attempt`] runs one attempt of a flat
//! request; the `nocsyn-engine` crate runs the whole portfolio.
//!
//! The request's [`canonical_form`](SynthesisRequest::canonical_form) is
//! the cache-key half of the serve daemon's content addressing: it
//! extends the config's canonical form with the restart count, the mode
//! fields and (when set) the warm start, so a flat and a decomposed job
//! over the same config can never collide. The deadline is deliberately
//! *absent* from the form — it never changes a completed result.

use std::fmt;
use std::num::NonZeroUsize;
use std::time::Duration;

use nocsyn_model::CanonicalForm;

use crate::{AppPattern, SynthesisConfig};

/// How the request's pattern is synthesized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SynthesisMode {
    /// One flat run of the Main Partitioning Algorithm (the paper's
    /// published methodology).
    #[default]
    Flat,
    /// Clustered decomposition: partition the flow graph, synthesize each
    /// cluster independently, stitch with dedicated inter-cluster pipes
    /// and re-verify Theorem 1 globally (see `crate::decompose`).
    Decomposed {
        /// Requested cluster count; `None` picks one from the pattern
        /// size ([`crate::auto_cluster_count`]).
        clusters: Option<usize>,
    },
}

/// A typed, fingerprinted rejection from [`SynthesisRequestBuilder::build`].
///
/// Follows the uniform-error contract: every variant carries a stable
/// kebab-case [`fingerprint`](RequestBuildError::fingerprint) suitable
/// for wire protocols and log grepping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestBuildError {
    /// `restarts(0)` was requested. Zero restarts would mean "run no
    /// synthesis at all"; the builder rejects it rather than clamping,
    /// which would hide caller bugs.
    ZeroRestarts,
    /// More than [`SynthesisRequest::MAX_RESTARTS`] restarts were
    /// requested. The portfolio runs every restart, so an unbounded count
    /// is unbounded work from one request.
    TooManyRestarts {
        /// The requested restart count.
        requested: usize,
    },
    /// `Decomposed { clusters: Some(0) }` was requested; a decomposition
    /// into zero clusters is meaningless.
    ZeroClusters,
}

impl RequestBuildError {
    /// Stable kebab-case fingerprint of the error kind.
    pub fn fingerprint(&self) -> &'static str {
        match self {
            RequestBuildError::ZeroRestarts => "zero-restarts",
            RequestBuildError::TooManyRestarts { .. } => "too-many-restarts",
            RequestBuildError::ZeroClusters => "zero-clusters",
        }
    }
}

impl fmt::Display for RequestBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestBuildError::ZeroRestarts => {
                write!(f, "restarts must be at least 1 (got 0)")
            }
            RequestBuildError::TooManyRestarts { requested } => write!(
                f,
                "restarts must be at most {} (got {requested})",
                SynthesisRequest::MAX_RESTARTS
            ),
            RequestBuildError::ZeroClusters => {
                write!(f, "cluster count must be at least 1 (got 0)")
            }
        }
    }
}

impl std::error::Error for RequestBuildError {}

/// A fully validated synthesis job description.
///
/// Construct one through [`SynthesisRequest::builder`]; the builder is the
/// single place request-level invariants (restarts in
/// `1..=`[`MAX_RESTARTS`](Self::MAX_RESTARTS), non-zero cluster count) are
/// enforced.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisRequest {
    pattern: AppPattern,
    config: SynthesisConfig,
    restarts: NonZeroUsize,
    warm_start: Option<Vec<usize>>,
    mode: SynthesisMode,
    deadline: Option<Duration>,
}

impl SynthesisRequest {
    /// Restart count of a request that does not set one.
    pub const DEFAULT_RESTARTS: usize = 8;

    /// Largest restart count a request accepts. A fixed ceiling, not a
    /// knob: it bounds the work one request can ask for.
    pub const MAX_RESTARTS: usize = 1 << 16;

    /// Starts building a request for `pattern` with paper-default
    /// configuration, [`DEFAULT_RESTARTS`](Self::DEFAULT_RESTARTS)
    /// restarts from the mega-switch, flat mode and no deadline.
    pub fn builder(pattern: AppPattern) -> SynthesisRequestBuilder {
        SynthesisRequestBuilder {
            pattern,
            config: SynthesisConfig::new(),
            seed: None,
            restarts: Self::DEFAULT_RESTARTS,
            max_degree: None,
            warm_start: None,
            mode: SynthesisMode::Flat,
            deadline: None,
        }
    }

    /// The communication pattern to synthesize for.
    pub fn pattern(&self) -> &AppPattern {
        &self.pattern
    }

    /// The configuration of every attempt (each attempt reseeds it).
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Independent restarts in the portfolio, each with a derived seed;
    /// the engine keeps the best result. The published algorithm is one
    /// greedy run whose quality varies strongly with the random split
    /// choices; restarting is the standard stochastic-search remedy and
    /// stays within the paper's framework.
    pub fn restarts(&self) -> NonZeroUsize {
        self.restarts
    }

    /// The processor-to-switch placement every attempt starts from
    /// instead of the mega-switch (run-time reconfiguration: e.g. a
    /// previous [`SynthesisResult::placement`](crate::SynthesisResult)),
    /// if one was set. Flat mode only: the clusters of a decomposed
    /// request start from their own mega-switches.
    pub fn warm_start(&self) -> Option<&[usize]> {
        self.warm_start.as_deref()
    }

    /// The synthesis mode.
    pub fn mode(&self) -> SynthesisMode {
        self.mode
    }

    /// Optional per-job deadline (per cluster job in decomposed mode).
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The request's RNG seed (shorthand for `config().seed()`).
    pub fn seed(&self) -> u64 {
        self.config.seed()
    }

    /// Replaces the configuration wholesale, keeping every other field.
    /// Used to derive the rungs of a constraint sweep from one request.
    #[must_use]
    pub fn with_config(mut self, config: SynthesisConfig) -> Self {
        self.config = config;
        self
    }

    /// The request's canonical form: the config's canonical form plus the
    /// restart count, the mode fields and, only when one is set, the warm
    /// start. This is what cache keys must digest — a flat and a
    /// decomposed request over the same config always differ here, and
    /// an explicit cluster count differs from `auto`.
    ///
    /// The deadline is excluded on purpose: it bounds how long the search
    /// runs, never what a completed search returns (see
    /// [`SynthesisConfig::canonical_form`] for the same contract at the
    /// config level).
    pub fn canonical_form(&self) -> CanonicalForm {
        let mut form = self
            .config
            .canonical_form()
            .field("restarts", self.restarts);
        match self.mode {
            SynthesisMode::Flat => form.push_field("mode", "flat"),
            SynthesisMode::Decomposed { clusters } => {
                form.push_field("mode", "decomposed");
                match clusters {
                    None => form.push_field("clusters", "auto"),
                    Some(k) => form.push_field("clusters", k),
                }
            }
        }
        if let Some(placement) = &self.warm_start {
            let homes: Vec<String> = placement.iter().map(usize::to_string).collect();
            form.push_field("warm_start", homes.join(","));
        }
        form
    }
}

/// Builder for [`SynthesisRequest`]; see [`SynthesisRequest::builder`].
#[derive(Debug, Clone)]
pub struct SynthesisRequestBuilder {
    pattern: AppPattern,
    config: SynthesisConfig,
    seed: Option<u64>,
    restarts: usize,
    max_degree: Option<usize>,
    warm_start: Option<Vec<usize>>,
    mode: SynthesisMode,
    deadline: Option<Duration>,
}

impl SynthesisRequestBuilder {
    /// Replaces the base configuration (later `seed`/`max_degree` calls
    /// still override its fields).
    #[must_use]
    pub fn config(mut self, config: SynthesisConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the restart count. Zero and counts above
    /// [`SynthesisRequest::MAX_RESTARTS`] are **rejected** at
    /// [`build`](SynthesisRequestBuilder::build).
    #[must_use]
    pub fn restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Overrides the maximum node degree.
    #[must_use]
    pub fn max_degree(mut self, degree: usize) -> Self {
        self.max_degree = Some(degree);
        self
    }

    /// Starts every attempt from `placement` (processor index → switch
    /// index) instead of the mega-switch, so the new network stays as
    /// close to the old one as the pattern permits. A placement that
    /// does not cover the pattern's processors fails each attempt with
    /// [`SynthError::EmptyPattern`](crate::SynthError::EmptyPattern).
    #[must_use]
    pub fn warm_start(mut self, placement: Vec<usize>) -> Self {
        self.warm_start = Some(placement);
        self
    }

    /// Selects the synthesis mode.
    #[must_use]
    pub fn mode(mut self, mode: SynthesisMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the per-job deadline.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the per-job deadline in milliseconds.
    #[must_use]
    pub fn deadline_ms(self, ms: u64) -> Self {
        self.deadline(Duration::from_millis(ms))
    }

    /// Validates and assembles the request.
    ///
    /// # Errors
    ///
    /// * [`RequestBuildError::ZeroRestarts`] if `restarts(0)` was called.
    /// * [`RequestBuildError::TooManyRestarts`] if the restart count is
    ///   above [`SynthesisRequest::MAX_RESTARTS`].
    /// * [`RequestBuildError::ZeroClusters`] if the mode is
    ///   `Decomposed { clusters: Some(0) }`.
    pub fn build(self) -> Result<SynthesisRequest, RequestBuildError> {
        let restarts = NonZeroUsize::new(self.restarts).ok_or(RequestBuildError::ZeroRestarts)?;
        if restarts.get() > SynthesisRequest::MAX_RESTARTS {
            return Err(RequestBuildError::TooManyRestarts {
                requested: restarts.get(),
            });
        }
        if let SynthesisMode::Decomposed { clusters: Some(0) } = self.mode {
            return Err(RequestBuildError::ZeroClusters);
        }
        let mut config = self.config;
        if let Some(seed) = self.seed {
            config = config.with_seed(seed);
        }
        if let Some(degree) = self.max_degree {
            config = config.with_max_degree(degree);
        }
        Ok(SynthesisRequest {
            pattern: self.pattern,
            config,
            restarts,
            warm_start: self.warm_start,
            mode: self.mode,
            deadline: self.deadline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::{Phase, PhaseSchedule};

    fn pattern4() -> AppPattern {
        let mut s = PhaseSchedule::new(4);
        s.push(Phase::from_flows([(0usize, 1usize), (2, 3)]).expect("valid"))
            .expect("in range");
        AppPattern::from_schedule(&s)
    }

    #[test]
    fn builder_applies_overrides_in_any_call_order() {
        let a = SynthesisRequest::builder(pattern4())
            .seed(9)
            .restarts(3)
            .max_degree(4)
            .build()
            .expect("valid");
        let b = SynthesisRequest::builder(pattern4())
            .max_degree(4)
            .restarts(3)
            .seed(9)
            .build()
            .expect("valid");
        assert_eq!(a, b);
        assert_eq!(a.config().seed(), 9);
        assert_eq!(a.restarts().get(), 3);
        assert_eq!(a.config().max_degree(), 4);
        assert_eq!(
            a.canonical_form().digest(),
            b.canonical_form().digest(),
            "canonical form must be stable under setter reordering"
        );
    }

    #[test]
    fn zero_restarts_is_rejected_not_clamped() {
        let err = SynthesisRequest::builder(pattern4())
            .restarts(0)
            .build()
            .expect_err("zero restarts must be rejected");
        assert_eq!(err, RequestBuildError::ZeroRestarts);
        assert_eq!(err.fingerprint(), "zero-restarts");
    }

    #[test]
    fn restarts_above_the_ceiling_are_rejected() {
        let max = SynthesisRequest::MAX_RESTARTS;
        let at = SynthesisRequest::builder(pattern4()).restarts(max).build();
        assert_eq!(at.expect("the ceiling itself builds").restarts().get(), max);
        for requested in [max + 1, usize::MAX] {
            let err = SynthesisRequest::builder(pattern4())
                .restarts(requested)
                .mode(SynthesisMode::Decomposed { clusters: Some(0) })
                .build()
                .expect_err("restarts above the ceiling must be rejected");
            assert_eq!(err, RequestBuildError::TooManyRestarts { requested });
            assert_eq!(err.fingerprint(), "too-many-restarts");
            assert_eq!(
                err.to_string(),
                format!("restarts must be at most 65536 (got {requested})")
            );
        }
    }

    #[test]
    fn zero_clusters_is_rejected() {
        let err = SynthesisRequest::builder(pattern4())
            .mode(SynthesisMode::Decomposed { clusters: Some(0) })
            .build()
            .expect_err("zero clusters must be rejected");
        assert_eq!(err, RequestBuildError::ZeroClusters);
        assert_eq!(err.fingerprint(), "zero-clusters");
    }

    #[test]
    fn flat_and_decomposed_forms_never_collide() {
        let flat = SynthesisRequest::builder(pattern4()).build().expect("ok");
        let auto = SynthesisRequest::builder(pattern4())
            .mode(SynthesisMode::Decomposed { clusters: None })
            .build()
            .expect("ok");
        let four = SynthesisRequest::builder(pattern4())
            .mode(SynthesisMode::Decomposed { clusters: Some(4) })
            .build()
            .expect("ok");
        let d_flat = flat.canonical_form().digest();
        let d_auto = auto.canonical_form().digest();
        let d_four = four.canonical_form().digest();
        assert_ne!(d_flat, d_auto);
        assert_ne!(d_flat, d_four);
        assert_ne!(d_auto, d_four);
    }

    #[test]
    fn deadline_does_not_change_the_canonical_form() {
        let plain = SynthesisRequest::builder(pattern4()).build().expect("ok");
        let decorated = SynthesisRequest::builder(pattern4())
            .deadline_ms(250)
            .build()
            .expect("ok");
        assert_eq!(
            plain.canonical_form().digest(),
            decorated.canonical_form().digest()
        );
        assert_eq!(decorated.deadline(), Some(Duration::from_millis(250)));
    }

    #[test]
    fn restarts_and_warm_start_change_the_canonical_form() {
        let cold = SynthesisRequest::builder(pattern4()).build().expect("ok");
        assert_eq!(cold.restarts().get(), SynthesisRequest::DEFAULT_RESTARTS);
        assert!(cold.canonical_form().render().contains("restarts=8\n"));
        let fewer = SynthesisRequest::builder(pattern4())
            .restarts(2)
            .build()
            .expect("ok");
        let warm = SynthesisRequest::builder(pattern4())
            .warm_start(vec![0, 0, 1, 1])
            .build()
            .expect("ok");
        assert_eq!(warm.warm_start(), Some(&[0, 0, 1, 1][..]));
        assert!(!cold.canonical_form().render().contains("warm_start"));
        assert!(warm
            .canonical_form()
            .render()
            .contains("warm_start=0,0,1,1\n"));
        let d_cold = cold.canonical_form().digest();
        assert_ne!(d_cold, fewer.canonical_form().digest());
        assert_ne!(d_cold, warm.canonical_form().digest());
    }

    #[test]
    fn error_messages_are_human_readable() {
        assert_eq!(
            RequestBuildError::ZeroRestarts.to_string(),
            "restarts must be at least 1 (got 0)"
        );
        assert_eq!(
            RequestBuildError::ZeroClusters.to_string(),
            "cluster count must be at least 1 (got 0)"
        );
    }
}
