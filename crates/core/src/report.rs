//! Synthesis run reporting.

use std::fmt;

/// Summary of a synthesis run: what was built and how the search behaved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SynthesisReport {
    /// Switches in the materialized network.
    pub n_switches: usize,
    /// Switch-to-switch links in the materialized network (processor
    /// attachments excluded).
    pub n_links: usize,
    /// Largest switch degree in the materialized network (attachments
    /// included).
    pub max_degree: usize,
    /// Whether every switch meets the configured degree constraint after
    /// formal coloring.
    pub constraints_met: bool,
    /// Whether Theorem 1 holds: the application's contention set does not
    /// intersect the materialized network's conflict set.
    pub contention_free: bool,
    /// Links added at finalization solely to restore strong connectivity
    /// (carry no application traffic).
    pub connectivity_links: usize,
    /// Partitioning rounds executed.
    pub rounds: usize,
    /// Switch splits performed.
    pub splits: usize,
    /// Processor moves evaluated.
    pub moves_tried: usize,
    /// Processor moves committed.
    pub moves_accepted: usize,
    /// Route candidates evaluated: by `Best_Route`, and by route repair's
    /// greedy reroutes and anneal. A replayed anneal (one whose input its
    /// round already annealed) counts the candidates of the walk it
    /// replays, as a memoized coloring bound leaves every count as it was.
    pub reroutes_tried: usize,
    /// Route changes committed, by the same three procedures (a replayed
    /// anneal counts those of the walk it replays).
    pub reroutes_accepted: usize,
    /// Route candidates evaluated whose score exactly matched the
    /// incumbent — neither better nor worse — by the same three procedures
    /// (a replayed anneal counts those of the walk it replays).
    /// Distinguishes "the search found no improvement" from "the search
    /// never looked" when `reroutes_accepted` is zero.
    pub reroutes_neutral: usize,
    /// Total-link estimate at the start of each round.
    pub cost_history: Vec<usize>,
}

impl SynthesisReport {
    /// Renders the report as a machine-readable JSON value (see
    /// `nocsyn_model::json`), one key per field.
    pub fn to_json(&self) -> nocsyn_model::json::JsonValue {
        use nocsyn_model::json::JsonValue;
        JsonValue::object([
            ("n_switches", JsonValue::from(self.n_switches)),
            ("n_links", JsonValue::from(self.n_links)),
            ("max_degree", JsonValue::from(self.max_degree)),
            ("constraints_met", JsonValue::from(self.constraints_met)),
            ("contention_free", JsonValue::from(self.contention_free)),
            (
                "connectivity_links",
                JsonValue::from(self.connectivity_links),
            ),
            ("rounds", JsonValue::from(self.rounds)),
            ("splits", JsonValue::from(self.splits)),
            ("moves_tried", JsonValue::from(self.moves_tried)),
            ("moves_accepted", JsonValue::from(self.moves_accepted)),
            ("reroutes_tried", JsonValue::from(self.reroutes_tried)),
            ("reroutes_accepted", JsonValue::from(self.reroutes_accepted)),
            ("reroutes_neutral", JsonValue::from(self.reroutes_neutral)),
            (
                "cost_history",
                JsonValue::array(self.cost_history.iter().map(|&c| JsonValue::from(c))),
            ),
        ])
    }
}

impl fmt::Display for SynthesisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "synthesized {} switches, {} links (max degree {}), constraints {}",
            self.n_switches,
            self.n_links,
            self.max_degree,
            if self.constraints_met {
                "met"
            } else {
                "NOT met"
            }
        )?;
        writeln!(
            f,
            "contention-free: {}; connectivity links added: {}",
            self.contention_free, self.connectivity_links
        )?;
        write!(
            f,
            "search: {} rounds, {} splits, {}/{} moves, {}/{} reroutes ({} neutral)",
            self.rounds,
            self.splits,
            self.moves_accepted,
            self.moves_tried,
            self.reroutes_accepted,
            self.reroutes_tried,
            self.reroutes_neutral
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_facts() {
        let r = SynthesisReport {
            n_switches: 6,
            n_links: 7,
            max_degree: 5,
            constraints_met: true,
            contention_free: true,
            ..Default::default()
        };
        let s = r.to_string();
        assert!(s.contains("6 switches"));
        assert!(s.contains("7 links"));
        assert!(s.contains("constraints met"));
    }

    #[test]
    fn json_round_trips_key_fields() {
        let r = SynthesisReport {
            n_switches: 6,
            n_links: 7,
            max_degree: 5,
            constraints_met: true,
            contention_free: true,
            cost_history: vec![30, 24, 24],
            ..Default::default()
        };
        let json = r.to_json().to_string();
        assert!(json.starts_with("{\"n_switches\":6,\"n_links\":7,\"max_degree\":5"));
        assert!(json.contains("\"contention_free\":true"));
        assert!(json.contains("\"cost_history\":[30,24,24]"));
    }

    #[test]
    fn default_is_all_zero() {
        let r = SynthesisReport::default();
        assert_eq!(r.n_switches, 0);
        assert!(!r.constraints_met);
        assert!(r.cost_history.is_empty());
    }
}
