//! Incremental Theorem-1 checking: delta updates to `C ∩ R` under route
//! edits.
//!
//! [`verify_contention_free`](crate::verify_contention_free) recomputes
//! the whole intersection `C ∩ R` from scratch — the right tool for a
//! one-shot check, and the oracle everything here is measured against.
//! Reroute-heavy callers (fault repair sweeps, search loops) instead
//! edit one route at a time, and a single-flow edit can only change the
//! verdict of the contention pairs that *mention* that flow. The
//! [`IncrementalChecker`] exploits exactly that:
//!
//! * every routed flow carries a [`BitSet`] *footprint* over channel
//!   ids: the checker numbers directed channels in the order it first
//!   sees them, so a footprint's width follows the channels in use, not
//!   the raw [`LinkId`](crate::LinkId) of a route;
//! * the violated subset of `C` is kept as a sorted set of
//!   [`FlowPair`]s, repaired after each edit by re-testing only the
//!   pairs adjacent to the edited flow (bitset AND, word-at-a-time);
//! * [`IncrementalChecker::report`] materializes the witnesses from the
//!   live routes, producing a [`ContentionReport`] **equal** to what
//!   `verify_contention_free` would return on the same table — same
//!   pairs, same order, same shared-channel lists.
//!
//! The cost of an edit is `O(route length + pairs touching the flow)`
//! instead of `O(|C| · route length)`, which is what makes per-scenario
//! re-verification affordable in the fault sweep.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use nocsyn_model::{BitSet, ContentionSet, Flow, FlowPair, FxBuildHasher};

use crate::verify::ContentionReport;
use crate::{Channel, ContentionWitness, Route, RouteTable};

/// Maintains the Theorem-1 verdict `C ∩ R = ∅` across single-route
/// edits, with answers identical to a from-scratch
/// [`verify_contention_free`](crate::verify_contention_free) run.
///
/// ```
/// use nocsyn_model::{Message, ProcId, Trace};
/// use nocsyn_topo::{regular, IncrementalChecker};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut trace = Trace::new(4);
/// trace.push(Message::new(ProcId(0), ProcId(3), 0, 10)?)?;
/// trace.push(Message::new(ProcId(1), ProcId(3), 0, 10)?)?;
///
/// let (_, routes) = regular::mesh(2, 2)?;
/// let mut checker = IncrementalChecker::with_routes(&trace.contention_set(), &routes);
/// // Two overlapping messages into one destination share its ejection
/// // link; dropping either route clears the conflict.
/// assert!(!checker.is_contention_free());
/// checker.clear_route(nocsyn_model::Flow::from_indices(0, 3));
/// assert!(checker.is_contention_free());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalChecker {
    contention: ContentionSet,
    /// Contention pairs indexed by the flows they mention (self-pairs
    /// appear once). Built once; `C` is fixed for the checker's life.
    neighbors: BTreeMap<Flow, Vec<FlowPair>>,
    /// Directed channel → footprint id, in first-seen order.
    /// Append-only, so an id never changes meaning.
    channel_ids: HashMap<Channel, usize, FxBuildHasher>,
    routes: RouteTable,
    /// One footprint per *routed* flow (keys mirror `routes` exactly).
    footprints: BTreeMap<Flow, BitSet>,
    /// The violated subset of `C`, kept sorted so reports iterate in
    /// the same order as the exact checker.
    violations: BTreeSet<FlowPair>,
}

impl IncrementalChecker {
    /// Creates a checker for `contention` with no routes installed
    /// (vacuously contention-free).
    pub fn new(contention: &ContentionSet) -> Self {
        let mut neighbors: BTreeMap<Flow, Vec<FlowPair>> = BTreeMap::new();
        for pair in contention.iter() {
            neighbors.entry(pair.first()).or_default().push(pair);
            if pair.second() != pair.first() {
                neighbors.entry(pair.second()).or_default().push(pair);
            }
        }
        IncrementalChecker {
            contention: contention.clone(),
            neighbors,
            channel_ids: HashMap::default(),
            routes: RouteTable::new(),
            footprints: BTreeMap::new(),
            violations: BTreeSet::new(),
        }
    }

    /// Creates a checker preloaded with every route of `routes`.
    pub fn with_routes(contention: &ContentionSet, routes: &RouteTable) -> Self {
        let mut checker = IncrementalChecker::new(contention);
        for (flow, route) in routes.iter() {
            checker.set_route(flow, route.clone());
        }
        checker
    }

    /// The contention set the checker was built over.
    pub fn contention(&self) -> &ContentionSet {
        &self.contention
    }

    /// The current route table.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// The current route of `flow`, if any.
    pub fn route(&self, flow: Flow) -> Option<&Route> {
        self.routes.route(flow)
    }

    /// Installs (or replaces) the route for `flow`, returning the
    /// previous route; only contention pairs mentioning `flow` are
    /// re-evaluated.
    pub fn set_route(&mut self, flow: Flow, route: Route) -> Option<Route> {
        let mut footprint = BitSet::new();
        for ch in route.iter() {
            let next = self.channel_ids.len();
            footprint.insert(*self.channel_ids.entry(ch).or_insert(next));
        }
        self.footprints.insert(flow, footprint);
        let previous = self.routes.insert(flow, route);
        self.refresh_flow(flow);
        previous
    }

    /// Removes the route for `flow` (making it unrouted, hence ignored
    /// by Theorem 1), returning it if one existed.
    pub fn clear_route(&mut self, flow: Flow) -> Option<Route> {
        self.footprints.remove(&flow);
        let previous = self.routes.remove(flow);
        self.refresh_flow(flow);
        previous
    }

    /// Whether `C ∩ R = ∅` for the current table.
    pub fn is_contention_free(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violated contention pairs.
    pub fn n_violations(&self) -> usize {
        self.violations.len()
    }

    /// The violated pairs, in lexicographic ([`FlowPair`]) order.
    pub fn violations(&self) -> impl Iterator<Item = FlowPair> + '_ {
        self.violations.iter().copied()
    }

    /// Materializes the full [`ContentionReport`] for the current
    /// table — equal to `verify_contention_free(contention, routes())`.
    pub fn report(&self) -> ContentionReport {
        let witnesses = self
            .violations
            .iter()
            .map(|pair| {
                let (a, b) = (pair.first(), pair.second());
                let (Some(ra), Some(rb)) = (self.routes.route(a), self.routes.route(b)) else {
                    unreachable!("violated pairs have both flows routed");
                };
                ContentionWitness {
                    flow_a: a,
                    flow_b: b,
                    shared: ra.shared_channels(rb),
                }
            })
            .collect();
        ContentionReport::from_witnesses(witnesses)
    }

    /// Re-evaluates every contention pair that mentions `flow` against
    /// the current footprints. A pair is violated iff both its flows
    /// are routed and their footprints share a channel; for a self-pair
    /// that degenerates to "routed with a non-empty route", matching
    /// the exact checker's `shared_channels(self)` semantics.
    fn refresh_flow(&mut self, flow: Flow) {
        let Some(pairs) = self.neighbors.get(&flow) else {
            return;
        };
        for pair in pairs {
            let violated = match (
                self.footprints.get(&pair.first()),
                self.footprints.get(&pair.second()),
            ) {
                (Some(a), Some(b)) => a.intersects(b),
                _ => false,
            };
            if violated {
                self.violations.insert(*pair);
            } else {
                self.violations.remove(pair);
            }
        }
    }

    /// Full-recompute oracle: the incremental state must equal what a
    /// from-scratch pass over the current table derives. Debug/test
    /// builds only — it costs exactly the work the checker exists to
    /// avoid.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_consistent(&self) {
        let exact = crate::verify_contention_free(&self.contention, &self.routes);
        assert_eq!(
            self.report(),
            exact,
            "incremental report diverged from verify_contention_free"
        );
        assert_eq!(
            self.footprints.len(),
            self.routes.len(),
            "footprint keys out of sync with the route table"
        );
        for (flow, route) in self.routes.iter() {
            let mut expect = BitSet::new();
            for ch in route.iter() {
                let id = self.channel_ids.get(&ch);
                expect.insert(*id.expect("every routed channel is numbered"));
            }
            assert_eq!(
                self.footprints.get(&flow),
                Some(&expect),
                "stale footprint for {flow}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{regular, shortest_route, verify_contention_free};
    use nocsyn_model::{Message, ProcId, Trace};

    fn concurrent_trace(flows: &[(usize, usize)], n: usize) -> Trace {
        let mut t = Trace::new(n);
        for &(s, d) in flows {
            t.push(Message::new(ProcId(s), ProcId(d), 0, 10).unwrap())
                .unwrap();
        }
        t
    }

    #[test]
    fn preloaded_checker_matches_exact_verdict() {
        let t = concurrent_trace(&[(0, 3), (1, 3), (2, 0)], 4);
        let c = t.contention_set();
        for make in [regular::crossbar, |n| regular::mesh(2, n / 2)] {
            let (_, routes) = make(4).unwrap();
            let checker = IncrementalChecker::with_routes(&c, &routes);
            checker.assert_consistent();
            assert_eq!(checker.report(), verify_contention_free(&c, &routes));
            assert_eq!(
                checker.is_contention_free(),
                verify_contention_free(&c, &routes).is_contention_free()
            );
        }
    }

    #[test]
    fn edits_track_the_exact_checker() {
        let t = concurrent_trace(&[(0, 3), (1, 3)], 4);
        let c = t.contention_set();
        let (net, routes) = regular::mesh(2, 2).unwrap();
        let mut checker = IncrementalChecker::with_routes(&c, &routes);
        assert!(!checker.is_contention_free());

        let colliding = Flow::from_indices(1, 3);
        let removed = checker.clear_route(colliding).expect("was routed");
        checker.assert_consistent();
        assert!(checker.is_contention_free());

        let prev = checker.set_route(colliding, removed);
        assert_eq!(prev, None);
        checker.assert_consistent();
        assert!(!checker.is_contention_free());
        assert_eq!(checker.n_violations(), 1);
        assert_eq!(checker.violations().count(), 1);

        // Replacing with the same shortest route changes nothing.
        let same = shortest_route(&net, colliding).unwrap();
        checker.set_route(colliding, same);
        checker.assert_consistent();
    }

    #[test]
    fn self_pair_witnesses_the_whole_route() {
        // A flow overlapping its own repeat conflicts with itself on
        // every channel of its route, exactly as the exact checker says.
        let mut t = Trace::new(2);
        t.push(Message::new(ProcId(0), ProcId(1), 0, 10).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(0), ProcId(1), 5, 12).unwrap())
            .unwrap();
        let c = t.contention_set();
        let (_, routes) = regular::crossbar(2).unwrap();
        let checker = IncrementalChecker::with_routes(&c, &routes);
        checker.assert_consistent();
        assert!(!checker.is_contention_free());
        let report = checker.report();
        let flow = Flow::from_indices(0, 1);
        assert_eq!(report.witnesses()[0].flow_a, flow);
        assert_eq!(
            report.witnesses()[0].shared.len(),
            routes.route(flow).unwrap().len()
        );
    }

    #[test]
    fn footprints_number_channels_not_raw_link_ids() {
        // Route::new takes any LinkId; a footprint must be sized by the
        // channels in use, not by the largest raw index.
        use crate::{Channel, Direction, LinkId};
        let t = concurrent_trace(&[(0, 1), (2, 3)], 4);
        let far = |link, dir| Channel::new(LinkId(link), dir);
        let shared = far(usize::MAX, Direction::Forward);
        let mut checker = IncrementalChecker::new(&t.contention_set());
        checker.set_route(
            Flow::from_indices(0, 1),
            Route::new(vec![far(1 << 40, Direction::Backward), shared]),
        );
        checker.set_route(Flow::from_indices(2, 3), Route::new(vec![shared]));
        checker.assert_consistent();
        assert_eq!(checker.n_violations(), 1);
        assert!(checker
            .footprints
            .values()
            .all(|fp| fp.iter().all(|id| id < 2)));
    }

    #[test]
    fn unrouted_contention_flows_are_ignored() {
        let t = concurrent_trace(&[(0, 3), (1, 3)], 4);
        let checker = IncrementalChecker::new(&t.contention_set());
        assert!(checker.is_contention_free());
        assert!(checker.routes().is_empty());
        checker.assert_consistent();
    }
}
