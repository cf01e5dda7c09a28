//! Source-based routes and route tables (Definition 6).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::{Channel, Network, NodeRef, TopoError};
use nocsyn_model::Flow;

/// An ordered path of directed channels from a source end-node to a
/// destination end-node — the value `F(n_s, n_d)` of the paper's
/// source-based routing function.
///
/// A valid route starts with the source's injection channel, ends with the
/// destination's ejection channel, and is link-connected in between (see
/// [`Route::validate`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Route {
    hops: Vec<Channel>,
}

impl Route {
    /// Creates a route from an ordered list of channels.
    pub fn new(hops: Vec<Channel>) -> Self {
        Route { hops }
    }

    /// Number of channels traversed (injection and ejection included).
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the route has no hops.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The channels in traversal order.
    pub fn hops(&self) -> &[Channel] {
        &self.hops
    }

    /// Iterates over the channels in traversal order.
    pub fn iter(&self) -> impl Iterator<Item = Channel> + '_ {
        self.hops.iter().copied()
    }

    /// Whether this route uses `channel`.
    pub fn uses(&self, channel: Channel) -> bool {
        self.hops.contains(&channel)
    }

    /// The set of channels as a sorted set (for conflict intersection).
    pub fn channel_set(&self) -> BTreeSet<Channel> {
        self.hops.iter().copied().collect()
    }

    /// Whether two routes share at least one directed channel — the
    /// *conflicting paths* relation of Definition 7.
    pub fn conflicts_with(&self, other: &Route) -> bool {
        // Routes are short (≤ diameter + 2); quadratic scan beats set
        // construction at this size.
        self.hops.iter().any(|c| other.hops.contains(c))
    }

    /// The channels shared with another route, in this route's order.
    pub fn shared_channels(&self, other: &Route) -> Vec<Channel> {
        self.hops
            .iter()
            .copied()
            .filter(|c| other.hops.contains(c))
            .collect()
    }

    /// Checks that the route is a connected walk realizing `flow` in `net`:
    /// it must depart from `flow.src`, arrive at `flow.dst`, and every hop's
    /// head must equal the next hop's tail.
    ///
    /// # Errors
    ///
    /// [`TopoError::BrokenRoute`] (with the first offending hop index) if
    /// any of those conditions fail, or [`TopoError::UnknownLink`] if a hop
    /// references a link that is not in the network.
    pub fn validate(&self, net: &Network, flow: Flow) -> Result<(), TopoError> {
        let broken = |position| TopoError::BrokenRoute { flow, position };
        if self.hops.is_empty() {
            return Err(broken(0));
        }
        let mut at = NodeRef::Proc(flow.src);
        for (i, &ch) in self.hops.iter().enumerate() {
            let (tail, head) = net.channel_endpoints(ch)?;
            if tail != at {
                return Err(broken(i));
            }
            at = head;
        }
        if at != NodeRef::Proc(flow.dst) {
            return Err(broken(self.hops.len() - 1));
        }
        Ok(())
    }
}

impl FromIterator<Channel> for Route {
    fn from_iter<I: IntoIterator<Item = Channel>>(iter: I) -> Self {
        Route {
            hops: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ch) in self.hops.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{ch}")?;
        }
        Ok(())
    }
}

/// A deterministic source-based routing function: one [`Route`] per flow.
///
/// ```
/// use nocsyn_model::Flow;
/// use nocsyn_topo::regular;
///
/// # fn main() -> Result<(), nocsyn_topo::TopoError> {
/// let (net, routes) = regular::crossbar(4)?;
/// assert_eq!(routes.len(), 12); // all ordered pairs of 4 procs
/// routes.validate(&net)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    routes: BTreeMap<Flow, Route>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) the route for `flow`; returns the previous
    /// route if one existed.
    pub fn insert(&mut self, flow: Flow, route: Route) -> Option<Route> {
        self.routes.insert(flow, route)
    }

    /// Inserts a route only if the flow is not yet routed.
    pub fn insert_if_absent(&mut self, flow: Flow, route: Route) -> bool {
        match self.routes.entry(flow) {
            Entry::Vacant(v) => {
                v.insert(route);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// The route for `flow`, if present.
    pub fn route(&self, flow: Flow) -> Option<&Route> {
        self.routes.get(&flow)
    }

    /// Number of routed flows.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no flow is routed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Iterates over `(flow, route)` pairs in flow order.
    pub fn iter(&self) -> impl Iterator<Item = (Flow, &Route)> + '_ {
        self.routes.iter().map(|(f, r)| (*f, r))
    }

    /// The flows routed by this table.
    pub fn flows(&self) -> impl Iterator<Item = Flow> + '_ {
        self.routes.keys().copied()
    }

    /// Validates every route against `net` (see [`Route::validate`]).
    ///
    /// # Errors
    ///
    /// The first [`TopoError`] found, if any route is broken.
    pub fn validate(&self, net: &Network) -> Result<(), TopoError> {
        for (flow, route) in self.iter() {
            route.validate(net, flow)?;
        }
        Ok(())
    }

    /// How many routed flows traverse each channel (the per-channel static
    /// load; useful for utilization reporting).
    pub fn channel_load(&self) -> BTreeMap<Channel, usize> {
        let mut load = BTreeMap::new();
        for (_, route) in self.iter() {
            for ch in route.iter() {
                *load.entry(ch).or_insert(0) += 1;
            }
        }
        load
    }

    /// Mean hop count over all routes (`0.0` when empty).
    pub fn mean_hops(&self) -> f64 {
        if self.routes.is_empty() {
            return 0.0;
        }
        let total: usize = self.routes.values().map(Route::len).sum();
        total as f64 / self.routes.len() as f64
    }
}

impl FromIterator<(Flow, Route)> for RouteTable {
    fn from_iter<I: IntoIterator<Item = (Flow, Route)>>(iter: I) -> Self {
        RouteTable {
            routes: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::ProcId;

    /// proc0 - s0 - s1 - proc1, with an extra parallel link between s0, s1.
    fn line_net() -> (Network, Vec<Channel>) {
        let mut net = Network::new(2);
        let s0 = net.add_switch();
        let s1 = net.add_switch();
        let mid = net.add_link(s0, s1).unwrap();
        net.add_link(s0, s1).unwrap();
        let a0 = net.attach(ProcId(0), s0).unwrap();
        let a1 = net.attach(ProcId(1), s1).unwrap();
        let hops = vec![
            Channel::forward(a0),
            Channel::forward(mid),
            Channel::backward(a1),
        ];
        (net, hops)
    }

    #[test]
    fn valid_route_passes_validation() {
        let (net, hops) = line_net();
        let route = Route::new(hops);
        route.validate(&net, Flow::from_indices(0, 1)).unwrap();
    }

    #[test]
    fn reversed_route_fails_validation() {
        let (net, hops) = line_net();
        let route = Route::new(hops);
        assert!(matches!(
            route.validate(&net, Flow::from_indices(1, 0)),
            Err(TopoError::BrokenRoute { position: 0, .. })
        ));
    }

    #[test]
    fn disconnected_hop_is_located() {
        let (net, mut hops) = line_net();
        hops[1] = hops[1].reversed(); // middle hop now runs s1 -> s0
        let route = Route::new(hops);
        assert!(matches!(
            route.validate(&net, Flow::from_indices(0, 1)),
            Err(TopoError::BrokenRoute { position: 1, .. })
        ));
    }

    #[test]
    fn empty_route_is_broken() {
        let (net, _) = line_net();
        assert!(Route::default()
            .validate(&net, Flow::from_indices(0, 1))
            .is_err());
    }

    #[test]
    fn route_short_of_destination_is_broken() {
        let (net, hops) = line_net();
        let route = Route::new(hops[..2].to_vec());
        assert!(route.validate(&net, Flow::from_indices(0, 1)).is_err());
    }

    #[test]
    fn conflict_detection_is_direction_sensitive() {
        let (_, hops) = line_net();
        let forward = Route::new(hops.clone());
        // A hypothetical reverse route uses the same links the other way.
        let reverse: Route = hops.iter().rev().map(|c| c.reversed()).collect();
        assert!(!forward.conflicts_with(&reverse));
        assert!(forward.conflicts_with(&forward));
        assert_eq!(forward.shared_channels(&forward).len(), 3);
    }

    #[test]
    fn table_insert_and_load() {
        let (net, hops) = line_net();
        let flow = Flow::from_indices(0, 1);
        let mut table = RouteTable::new();
        assert!(table.insert_if_absent(flow, Route::new(hops.clone())));
        assert!(!table.insert_if_absent(flow, Route::default()));
        table.validate(&net).unwrap();
        let load = table.channel_load();
        assert_eq!(load.len(), 3);
        assert!(load.values().all(|&n| n == 1));
        assert!((table.mean_hops() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn collect_from_iterator() {
        let flow = Flow::from_indices(0, 1);
        let table: RouteTable = [(flow, Route::default())].into_iter().collect();
        assert_eq!(table.len(), 1);
        assert!(table.route(flow).is_some());
    }
}
