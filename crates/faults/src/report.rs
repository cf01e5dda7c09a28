//! Degradation reports: repair plus Theorem-1 re-verification.

use std::collections::BTreeMap;
use std::fmt;

use nocsyn_model::json::JsonValue;
use nocsyn_model::{ContentionSet, Flow};
use nocsyn_topo::{
    verify_contention_free, ContentionReport, ContentionWitness, Network, RouteTable,
};

use crate::{repair_routes, DisconnectionWitness, FaultScenario};

/// What happened to one flow under a fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowFate {
    /// The flow still has a route and is contention-free under the
    /// repaired table. `rerouted` distinguishes flows whose original
    /// route survived untouched from flows moved to a fallback path.
    Repaired {
        /// Whether the route had to change.
        rerouted: bool,
    },
    /// The flow has a route, but the repaired table violates Theorem 1
    /// for it: its route now shares channels with a temporally
    /// conflicting flow.
    ContentionIntroduced {
        /// The Theorem-1 witnesses involving this flow.
        witnesses: Vec<ContentionWitness>,
    },
    /// No surviving path exists for the flow.
    Unroutable {
        /// The structured disconnection witness.
        witness: DisconnectionWitness,
    },
}

impl FlowFate {
    /// Stable lowercase label
    /// (`repaired` / `contention_introduced` / `unroutable`).
    pub fn label(&self) -> &'static str {
        match self {
            FlowFate::Repaired { .. } => "repaired",
            FlowFate::ContentionIntroduced { .. } => "contention_introduced",
            FlowFate::Unroutable { .. } => "unroutable",
        }
    }
}

/// The full degradation analysis of one `(network, routes, scenario)`
/// triple: every flow of the original table classified, plus the
/// Theorem-1 report over the repaired table.
///
/// The report is a pure value — no timestamps, `BTreeMap`-ordered flows —
/// so its JSON rendering is byte-identical for the same inputs on any
/// worker count.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    scenario: FaultScenario,
    fates: BTreeMap<Flow, FlowFate>,
    check: ContentionReport,
    repaired_routes: RouteTable,
}

impl DegradationReport {
    /// Repairs `routes` under `scenario` and re-runs
    /// [`verify_contention_free`] on the result, classifying every flow.
    pub fn analyze(
        net: &Network,
        contention: &ContentionSet,
        routes: &RouteTable,
        scenario: FaultScenario,
    ) -> Self {
        let outcome = repair_routes(net, routes, &scenario);
        let check = verify_contention_free(contention, &outcome.routes);
        let mut fates: BTreeMap<Flow, FlowFate> = BTreeMap::new();
        for witness in &outcome.unroutable {
            fates.insert(
                witness.flow,
                FlowFate::Unroutable {
                    witness: witness.clone(),
                },
            );
        }
        for (flow, _) in outcome.routes.iter() {
            let witnesses: Vec<ContentionWitness> = check
                .witnesses()
                .iter()
                .filter(|w| w.flow_a == flow || w.flow_b == flow)
                .cloned()
                .collect();
            let fate = if witnesses.is_empty() {
                FlowFate::Repaired {
                    rerouted: outcome.rerouted.contains(&flow),
                }
            } else {
                FlowFate::ContentionIntroduced { witnesses }
            };
            fates.insert(flow, fate);
        }
        DegradationReport {
            scenario,
            fates,
            check,
            repaired_routes: outcome.routes,
        }
    }

    /// The scenario the report describes.
    pub fn scenario(&self) -> &FaultScenario {
        &self.scenario
    }

    /// Per-flow fates, in flow order.
    pub fn fates(&self) -> impl Iterator<Item = (Flow, &FlowFate)> + '_ {
        self.fates.iter().map(|(f, fate)| (*f, fate))
    }

    /// The fate of one flow, if it was in the original table.
    pub fn fate(&self, flow: Flow) -> Option<&FlowFate> {
        self.fates.get(&flow)
    }

    /// The Theorem-1 report over the repaired table.
    pub fn contention(&self) -> &ContentionReport {
        &self.check
    }

    /// The repaired route table (unroutable flows absent).
    pub fn repaired_routes(&self) -> &RouteTable {
        &self.repaired_routes
    }

    /// Flows that kept or regained a contention-free route.
    pub fn n_repaired(&self) -> usize {
        self.count(|f| matches!(f, FlowFate::Repaired { .. }))
    }

    /// Repaired flows that actually moved to a fallback path.
    pub fn n_rerouted(&self) -> usize {
        self.count(|f| matches!(f, FlowFate::Repaired { rerouted: true }))
    }

    /// Flows now violating Theorem 1.
    pub fn n_contention(&self) -> usize {
        self.count(|f| matches!(f, FlowFate::ContentionIntroduced { .. }))
    }

    /// Flows with no surviving path.
    pub fn n_unroutable(&self) -> usize {
        self.count(|f| matches!(f, FlowFate::Unroutable { .. }))
    }

    /// Whether the network degraded gracefully: every flow still routed
    /// and the repaired table still satisfies `C ∩ R = ∅`.
    pub fn still_contention_free(&self) -> bool {
        self.check.is_contention_free() && self.n_unroutable() == 0
    }

    fn count(&self, pred: impl Fn(&FlowFate) -> bool) -> usize {
        self.fates.values().filter(|f| pred(f)).count()
    }

    /// Deterministic JSON rendering: scenario, counts, then one entry per
    /// flow in flow order. Carries no clocks or volatile fields.
    pub fn to_json(&self) -> JsonValue {
        let flows = self.fates.iter().map(|(flow, fate)| {
            let mut fields = vec![
                ("src", JsonValue::from(flow.src.index())),
                ("dst", JsonValue::from(flow.dst.index())),
                ("fate", JsonValue::from(fate.label())),
            ];
            match fate {
                FlowFate::Repaired { rerouted } => {
                    fields.push(("rerouted", JsonValue::from(*rerouted)));
                }
                FlowFate::ContentionIntroduced { witnesses } => {
                    fields.push((
                        "witnesses",
                        JsonValue::array(witnesses.iter().map(|w| {
                            JsonValue::object([
                                ("flow_a", JsonValue::from(w.flow_a.to_string().as_str())),
                                ("flow_b", JsonValue::from(w.flow_b.to_string().as_str())),
                                (
                                    "shared",
                                    JsonValue::array(
                                        w.shared
                                            .iter()
                                            .map(|ch| JsonValue::from(ch.to_string().as_str())),
                                    ),
                                ),
                            ])
                        })),
                    ));
                }
                FlowFate::Unroutable { witness } => {
                    fields.push(("cause", JsonValue::from(witness.cause.label())));
                }
            }
            JsonValue::object(fields)
        });
        JsonValue::object([
            ("scenario", self.scenario.to_json()),
            ("n_repaired", JsonValue::from(self.n_repaired())),
            ("n_rerouted", JsonValue::from(self.n_rerouted())),
            ("n_contention", JsonValue::from(self.n_contention())),
            ("n_unroutable", JsonValue::from(self.n_unroutable())),
            (
                "contention_free",
                JsonValue::from(self.still_contention_free()),
            ),
            ("flows", JsonValue::array(flows)),
        ])
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "faults {}: {} repaired ({} rerouted), {} contention, {} unroutable — {}",
            self.scenario.label(),
            self.n_repaired(),
            self.n_rerouted(),
            self.n_contention(),
            self.n_unroutable(),
            if self.still_contention_free() {
                "still contention-free (C ∩ R = ∅)"
            } else {
                "DEGRADED"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_topo::regular;

    fn crossing_contention() -> ContentionSet {
        let mut c = ContentionSet::new();
        c.insert(Flow::from_indices(0, 3), Flow::from_indices(1, 2));
        c
    }

    #[test]
    fn empty_scenario_repairs_everything_in_place() {
        let (net, routes) = regular::mesh(2, 2).expect("mesh builds");
        let report = DegradationReport::analyze(
            &net,
            &crossing_contention(),
            &routes,
            FaultScenario::none(),
        );
        assert_eq!(report.n_repaired(), routes.len());
        assert_eq!(report.n_rerouted(), 0);
        assert_eq!(report.n_unroutable(), 0);
        assert!(report.still_contention_free());
        for (_, fate) in report.fates() {
            assert_eq!(fate.label(), "repaired");
        }
    }

    #[test]
    fn every_flow_is_classified() {
        let (net, routes) = regular::mesh(2, 2).expect("mesh builds");
        for scenario in FaultScenario::enumerate_single_link_faults(&net) {
            let report =
                DegradationReport::analyze(&net, &crossing_contention(), &routes, scenario);
            assert_eq!(
                report.n_repaired() + report.n_contention() + report.n_unroutable(),
                routes.len()
            );
        }
    }

    #[test]
    fn contention_fate_carries_theorem1_witnesses() {
        // 2x2 mesh, fail one column link: the two crossing flows are
        // forced to share the survivors somewhere, or stay clean — either
        // way the classification matches the contention report exactly.
        let (net, routes) = regular::mesh(2, 2).expect("mesh builds");
        let contention = crossing_contention();
        let mut contention_seen = false;
        for scenario in FaultScenario::enumerate_single_link_faults(&net) {
            let report = DegradationReport::analyze(&net, &contention, &routes, scenario);
            for (flow, fate) in report.fates() {
                if let FlowFate::ContentionIntroduced { witnesses } = fate {
                    contention_seen = true;
                    assert!(!witnesses.is_empty());
                    for w in witnesses {
                        assert!(w.flow_a == flow || w.flow_b == flow);
                        assert!(!w.shared.is_empty());
                    }
                }
            }
            assert_eq!(
                report.still_contention_free(),
                report.n_contention() == 0 && report.n_unroutable() == 0
            );
        }
        assert!(
            contention_seen,
            "no single-link fault of the 2x2 mesh introduced contention — the fixture is dead"
        );
    }

    #[test]
    fn json_is_deterministic_and_clock_free() {
        let (net, routes) = regular::mesh(2, 2).expect("mesh builds");
        let scenario = FaultScenario::sample(&net, 1, 0, 0xFA);
        let a = DegradationReport::analyze(&net, &crossing_contention(), &routes, scenario.clone())
            .to_json()
            .to_string();
        let b = DegradationReport::analyze(&net, &crossing_contention(), &routes, scenario)
            .to_json()
            .to_string();
        assert_eq!(a, b);
        assert!(a.contains(r#""scenario":"#));
        assert!(a.contains(r#""flows":["#));
        for volatile in ["time", "elapsed", "ms"] {
            assert!(!a.contains(volatile), "volatile field `{volatile}` in {a}");
        }
    }
}
