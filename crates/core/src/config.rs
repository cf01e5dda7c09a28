//! Synthesis configuration and design constraints.

use nocsyn_model::CanonicalForm;

use crate::AcceptanceRule;

/// Processor-move improvement rounds per split (and per switch pair in
/// the post-constraint refinement).
pub(crate) const MAX_MOVE_ROUNDS: usize = 64;

/// Which coloring backend sizes pipes *during the search*.
///
/// The paper's central complexity trick is [`ColoringStrategy::Fast`]; the
/// exact variant exists as an ablation (DESIGN.md §5.1) to quantify what
/// the fast bound costs in final link count versus what it saves in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColoringStrategy {
    /// The paper's `Fast_Color` clique lower bound, `O(KL)` per pipe.
    #[default]
    Fast,
    /// Exact chromatic number by branch and bound at every estimate.
    Exact,
}

/// Tunable parameters of the design methodology.
///
/// The defaults reproduce the paper's published setup: maximum node degree
/// 5 (straightforward comparison with a mesh of 5-port switches), balance
/// tolerance 2, greedy-descent move acceptance, fast coloring during the
/// search, and indirect routing enabled.
///
/// ```
/// use nocsyn_synth::SynthesisConfig;
/// let config = SynthesisConfig::new()
///     .with_max_degree(4)
///     .with_seed(42);
/// assert_eq!(config.max_degree(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisConfig {
    max_degree: usize,
    balance_tolerance: usize,
    seed: u64,
    coloring: ColoringStrategy,
    acceptance: AcceptanceRule,
    indirect_routing: bool,
    max_rounds: usize,
}

impl SynthesisConfig {
    /// Creates the paper-default configuration.
    pub fn new() -> Self {
        SynthesisConfig {
            max_degree: 5,
            balance_tolerance: 2,
            seed: 0xC0FFEE,
            coloring: ColoringStrategy::Fast,
            acceptance: AcceptanceRule::Greedy,
            indirect_routing: true,
            max_rounds: 10_000,
        }
    }

    /// Sets the maximum node degree (ports per switch, processor
    /// attachments included). The paper's example uses 5.
    #[must_use]
    pub fn with_max_degree(mut self, d: usize) -> Self {
        self.max_degree = d;
        self
    }

    /// Sets the processor-count imbalance allowed between a split pair
    /// (the paper limits it to 2).
    #[must_use]
    pub fn with_balance_tolerance(mut self, t: usize) -> Self {
        self.balance_tolerance = t;
        self
    }

    /// Seeds the random choices (which switch to split, which processors
    /// move first). Synthesis is fully deterministic given a seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the pipe-sizing backend used during the search.
    #[must_use]
    pub fn with_coloring(mut self, strategy: ColoringStrategy) -> Self {
        self.coloring = strategy;
        self
    }

    /// Selects the move-acceptance rule (greedy descent, or a simulated
    /// annealing schedule).
    #[must_use]
    pub fn with_acceptance(mut self, rule: AcceptanceRule) -> Self {
        self.acceptance = rule;
        self
    }

    /// Enables or disables `Best_Route` indirect route optimization
    /// (ablation; the paper's Figure 5(e) shows it saving links).
    #[must_use]
    pub fn with_indirect_routing(mut self, enabled: bool) -> Self {
        self.indirect_routing = enabled;
        self
    }

    /// Caps the number of partitioning rounds (safety bound for impossible
    /// constraints).
    #[must_use]
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Maximum node degree.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Allowed processor-count imbalance between a split pair.
    pub fn balance_tolerance(&self) -> usize {
        self.balance_tolerance
    }

    /// RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Pipe-sizing backend used during the search.
    pub fn coloring(&self) -> ColoringStrategy {
        self.coloring
    }

    /// Move-acceptance rule.
    pub fn acceptance(&self) -> AcceptanceRule {
        self.acceptance
    }

    /// Whether `Best_Route` indirect routing runs.
    pub fn indirect_routing(&self) -> bool {
        self.indirect_routing
    }

    /// Partitioning-round cap.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// The configuration's canonical form for content-addressed caching.
    ///
    /// Every field that influences one synthesis attempt appears as a
    /// named field (including the seed — the whole flow is a pure
    /// function of `(pattern, config, seed)`, and this form is the
    /// `(config, seed)` half of the cache key; the request adds the
    /// restart count and the mode). Enum variants get stable
    /// lowercase labels; the annealing schedule's parameters are emitted
    /// only when the annealing rule is selected, so `greedy` can never
    /// collide with an `anneal` at some temperature.
    ///
    /// Two configs compare equal iff their canonical forms digest
    /// equally; anything *not* in this form (e.g. a job deadline) must
    /// not change the synthesis output.
    pub fn canonical_form(&self) -> CanonicalForm {
        let mut form = CanonicalForm::new()
            .field("max_degree", self.max_degree)
            .field("balance_tolerance", self.balance_tolerance)
            .field("seed", self.seed)
            .field(
                "coloring",
                match self.coloring {
                    ColoringStrategy::Fast => "fast",
                    ColoringStrategy::Exact => "exact",
                },
            )
            .field("indirect_routing", self.indirect_routing)
            .field("max_rounds", self.max_rounds)
            // The move-round cap and the pipe-width bound are fixed, not
            // settable, but stay in the form so every job fingerprint,
            // cache key and certificate binding made while they were
            // settable still matches.
            .field("max_move_rounds", MAX_MOVE_ROUNDS)
            .field("max_pipe_width", "none");
        match self.acceptance {
            AcceptanceRule::Greedy => form.push_field("acceptance", "greedy"),
            AcceptanceRule::Anneal {
                initial_temperature,
                cooling,
            } => {
                form.push_field("acceptance", "anneal");
                form.push_field("anneal_initial_temperature", initial_temperature);
                form.push_field("anneal_cooling", cooling);
            }
        }
        form
    }
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SynthesisConfig::new();
        assert_eq!(c.max_degree(), 5);
        assert_eq!(c.balance_tolerance(), 2);
        assert_eq!(c.coloring(), ColoringStrategy::Fast);
        assert_eq!(c.acceptance(), AcceptanceRule::Greedy);
        assert!(c.indirect_routing());
        assert_eq!(SynthesisConfig::default(), c);
    }

    #[test]
    fn builder_chains() {
        let c = SynthesisConfig::new()
            .with_max_degree(7)
            .with_balance_tolerance(1)
            .with_seed(9)
            .with_coloring(ColoringStrategy::Exact)
            .with_indirect_routing(false)
            .with_max_rounds(3);
        assert_eq!(c.max_degree(), 7);
        assert_eq!(c.balance_tolerance(), 1);
        assert_eq!(c.seed(), 9);
        assert_eq!(c.coloring(), ColoringStrategy::Exact);
        assert!(!c.indirect_routing());
        assert_eq!(c.max_rounds(), 3);
    }

    #[test]
    fn canonical_form_distinguishes_every_field() {
        let base = SynthesisConfig::new();
        let d0 = base.canonical_form().digest();
        let variants = [
            base.clone().with_max_degree(4),
            base.clone().with_balance_tolerance(1),
            base.clone().with_seed(1),
            base.clone().with_coloring(ColoringStrategy::Exact),
            base.clone()
                .with_acceptance(AcceptanceRule::default_anneal()),
            base.clone().with_indirect_routing(false),
            base.clone().with_max_rounds(99),
        ];
        let mut digests = vec![d0];
        for v in &variants {
            digests.push(v.canonical_form().digest());
        }
        for i in 0..digests.len() {
            for j in (i + 1)..digests.len() {
                assert_ne!(digests[i], digests[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn canonical_form_is_stable_for_equal_configs() {
        let a = SynthesisConfig::new().with_seed(7).with_max_degree(4);
        let b = SynthesisConfig::new().with_max_degree(4).with_seed(7);
        assert_eq!(a.canonical_form().digest(), b.canonical_form().digest());
        // Anneal parameters surface in the form.
        let t1 = SynthesisConfig::new().with_acceptance(AcceptanceRule::Anneal {
            initial_temperature: 2.0,
            cooling: 0.95,
        });
        let t2 = SynthesisConfig::new().with_acceptance(AcceptanceRule::Anneal {
            initial_temperature: 3.0,
            cooling: 0.95,
        });
        assert_ne!(t1.canonical_form().digest(), t2.canonical_form().digest());
        let render = t1.canonical_form().render();
        assert!(render.contains("acceptance=anneal\n"));
        assert!(render.contains("anneal_initial_temperature=2\n"));
        assert!(render.contains("max_move_rounds=64\nmax_pipe_width=none\n"));
    }
}
