//! Finalization: formal coloring and materialization of the concrete
//! network (step 3 of the Main Partitioning Algorithm).

use std::collections::BTreeMap;

use nocsyn_coloring::{exact_chromatic, ConflictGraph};
use nocsyn_model::{Certificate, Digest, Flow, ProcId};
use nocsyn_topo::{
    build_certificate, verify_contention_free, Channel, LinkId, Network, Route, RouteTable,
};

use crate::{AppPattern, Partitioning, PipeKey, SynthError, SynthesisConfig, SynthesisReport};

/// The output of one synthesis attempt
/// ([`synthesize_attempt`](crate::synthesize_attempt)): the materialized
/// network, its source-routing table, the per-processor switch placement,
/// and the run report.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The generated network.
    pub network: Network,
    /// Source routes for every application flow, with temporally
    /// conflicting flows assigned to distinct parallel links.
    pub routes: RouteTable,
    /// Final home switch (index in `network`) of each processor.
    pub placement: Vec<usize>,
    /// Run summary.
    pub report: SynthesisReport,
}

impl SynthesisResult {
    /// Emits the contention-freedom certificate for this result: the
    /// Theorem-1 evidence object an independent checker (`nocsyn
    /// certify`) can validate without any synthesis code. `job`
    /// optionally binds the certificate to a serve-cache key.
    pub fn certificate(&self, pattern: &AppPattern, job: Option<Digest>) -> Certificate {
        build_certificate(pattern.n_procs(), pattern.contention(), &self.routes, job)
    }
}

/// Per-pipe finalized sizing: exact colorings of both directions.
struct FinalPipe {
    links: usize,
    forward_colors: BTreeMap<Flow, usize>,
    backward_colors: BTreeMap<Flow, usize>,
}

/// Runs formal (exact) coloring on every pipe and materializes the
/// partitioning into a concrete [`Network`] and [`RouteTable`].
///
/// Empty switches (no processors, no traffic) are dropped; if discarding
/// empty pipes leaves the switch graph disconnected, minimal extra links
/// are added to restore strong connectivity (they carry no traffic and are
/// counted in the report).
pub(crate) fn materialize(
    p: &Partitioning,
    config: &SynthesisConfig,
) -> Result<SynthesisResult, SynthError> {
    let pattern = p.pattern();

    // ------------------------------------------------------------------
    // Formal coloring of every pipe (the search only estimated).
    // ------------------------------------------------------------------
    let mut final_pipes: BTreeMap<PipeKey, FinalPipe> = BTreeMap::new();
    for (key, _) in p.pipes() {
        let (fwd, bwd) = p.pipe_flows(key).expect("pipes() yields live keys");
        let color_dir = |set: &nocsyn_model::BitSet| -> (usize, BTreeMap<Flow, usize>) {
            if set.is_empty() {
                return (0, BTreeMap::new());
            }
            // Ascending-id iteration is lexicographic flow order, so the
            // conflict graph and its coloring match the sorted-set era.
            let flows: Vec<Flow> = p.interner().flows_of(set).collect();
            let graph = ConflictGraph::from_flows(flows.clone(), pattern.contention());
            let coloring = exact_chromatic(&graph);
            let map = flows
                .iter()
                .enumerate()
                .map(|(i, &f)| (f, coloring.color(i)))
                .collect();
            (coloring.n_colors(), map)
        };
        let (chi_f, forward_colors) = color_dir(fwd);
        let (chi_b, backward_colors) = color_dir(bwd);
        final_pipes.insert(
            key,
            FinalPipe {
                links: chi_f.max(chi_b),
                forward_colors,
                backward_colors,
            },
        );
    }

    // ------------------------------------------------------------------
    // Live switches: keep those with processors or traffic; remap densely.
    // ------------------------------------------------------------------
    let n_old = p.n_switches();
    let mut live = vec![false; n_old];
    for (s, slot) in live.iter_mut().enumerate() {
        *slot = !p.members(s).is_empty();
    }
    for (key, fp) in &final_pipes {
        if fp.links > 0 {
            live[key.lo()] = true;
            live[key.hi()] = true;
        }
    }
    let mut remap = vec![usize::MAX; n_old];
    let mut net = Network::new(pattern.n_procs());
    for (old, is_live) in live.iter().enumerate() {
        if *is_live {
            remap[old] = net.add_switch().index();
        }
    }

    // Parallel links per pipe, ordered lo -> hi.
    let mut pipe_links: BTreeMap<PipeKey, Vec<LinkId>> = BTreeMap::new();
    for (key, fp) in &final_pipes {
        let mut ids = Vec::with_capacity(fp.links);
        for _ in 0..fp.links {
            ids.push(net.add_link(remap[key.lo()].into(), remap[key.hi()].into())?);
        }
        pipe_links.insert(*key, ids);
    }

    // Processor attachments.
    for proc in 0..pattern.n_procs() {
        let home = remap[p.home(ProcId(proc))];
        debug_assert_ne!(home, usize::MAX, "home switch of an end-node is live");
        net.attach(ProcId(proc), home.into())?;
    }

    // ------------------------------------------------------------------
    // Restore strong connectivity if empty pipes fragmented the graph.
    // ------------------------------------------------------------------
    let connectivity_links = connect_components(&mut net)?;

    // ------------------------------------------------------------------
    // Routes: walk each flow's switch path, picking the parallel link its
    // color names.
    // ------------------------------------------------------------------
    let mut routes = RouteTable::new();
    for &flow in pattern.flows() {
        let path = p.path(flow).expect("every pattern flow has a path");
        let mut hops = vec![net.injection_channel(flow.src)?];
        for w in path.windows(2) {
            let key = PipeKey::new(w[0], w[1]);
            let fp = &final_pipes[&key];
            let (color, forward) = if key.forward_from(w[0]) {
                (fp.forward_colors[&flow], true)
            } else {
                (fp.backward_colors[&flow], false)
            };
            let link = pipe_links[&key][color];
            hops.push(if forward {
                Channel::forward(link)
            } else {
                Channel::backward(link)
            });
        }
        hops.push(net.ejection_channel(flow.dst)?);
        let route = Route::new(hops);
        route.validate(&net, flow)?;
        routes.insert(flow, route);
    }

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    let contention = verify_contention_free(pattern.contention(), &routes);
    let max_degree = net.max_degree();
    let report = SynthesisReport {
        n_switches: net.n_switches(),
        n_links: net.n_network_links(),
        max_degree,
        constraints_met: max_degree <= config.max_degree(),
        contention_free: contention.is_contention_free(),
        connectivity_links,
        rounds: p.stats.rounds,
        splits: p.stats.splits,
        moves_tried: p.stats.moves_tried,
        moves_accepted: p.stats.moves_accepted,
        reroutes_tried: p.stats.reroutes_tried,
        reroutes_accepted: p.stats.reroutes_accepted,
        reroutes_neutral: p.stats.reroutes_neutral,
        cost_history: p.stats.cost_history.clone(),
    };

    let placement = (0..pattern.n_procs())
        .map(|proc| remap[p.home(ProcId(proc))])
        .collect();

    Ok(SynthesisResult {
        network: net,
        routes,
        placement,
        report,
    })
}

/// Joins disconnected switch components with single links (chained in
/// component discovery order). Returns how many links were added. Shared
/// with the decomposition stitcher, which bridges traffic-free clusters
/// the same way flat finalization bridges traffic-free switch islands.
pub(crate) fn connect_components(net: &mut Network) -> Result<usize, SynthError> {
    let n = net.n_switches();
    if n == 0 {
        return Ok(0);
    }
    let mut component = vec![usize::MAX; n];
    let mut n_components = 0;
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        let id = n_components;
        n_components += 1;
        let mut stack = vec![start];
        component[start] = id;
        while let Some(s) = stack.pop() {
            let neighbors: Vec<usize> = net
                .incident(s.into())
                .filter_map(|(_, far)| far.as_switch())
                .map(|sw| sw.index())
                .collect();
            for nb in neighbors {
                if component[nb] == usize::MAX {
                    component[nb] = id;
                    stack.push(nb);
                }
            }
        }
    }
    if n_components <= 1 {
        return Ok(0);
    }
    // Link the lowest-degree switch of each component to the next
    // component's, so the extra ports land where there is slack.
    let mut reps = vec![usize::MAX; n_components];
    for (s, &c) in component.iter().enumerate() {
        if reps[c] == usize::MAX || net.degree(s.into()) < net.degree(reps[c].into()) {
            reps[c] = s;
        }
    }
    for pair in reps.windows(2) {
        net.add_link(pair[0].into(), pair[1].into())?;
    }
    Ok(n_components - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_attempt, AppPattern, ColoringStrategy, SynthesisRequest};
    use nocsyn_model::{Phase, PhaseSchedule};

    /// One attempt of a request built on `config` (the engine runs the
    /// full portfolio).
    fn one_attempt(pattern: &AppPattern, config: &SynthesisConfig) -> SynthesisResult {
        let request = SynthesisRequest::builder(pattern.clone())
            .config(config.clone())
            .build()
            .unwrap();
        synthesize_attempt(&request, 0).unwrap()
    }

    fn schedule8() -> PhaseSchedule {
        let mut s = PhaseSchedule::new(8);
        s.push(Phase::from_flows([(0usize, 1usize), (2, 3), (4, 5), (6, 7)]).unwrap())
            .unwrap();
        s.push(Phase::from_flows([(1usize, 0usize), (3, 2), (5, 4), (7, 6)]).unwrap())
            .unwrap();
        s.push(Phase::from_flows([(0usize, 4usize), (1, 5), (2, 6), (3, 7)]).unwrap())
            .unwrap();
        s
    }

    #[test]
    fn synthesized_network_is_valid_and_contention_free() {
        let pattern = AppPattern::from_schedule(&schedule8());
        let config = SynthesisConfig::new().with_max_degree(5).with_seed(1);
        let result = one_attempt(&pattern, &config);
        assert!(result.network.is_strongly_connected());
        result.routes.validate(&result.network).unwrap();
        assert!(result.report.contention_free);
        assert!(result.report.constraints_met);
        assert!(result.network.max_degree() <= 5);
        assert_eq!(result.placement.len(), 8);
        // Every flow of the pattern is routed.
        assert_eq!(result.routes.len(), pattern.flows().len());
    }

    #[test]
    fn placement_matches_network_attachment() {
        let pattern = AppPattern::from_schedule(&schedule8());
        let config = SynthesisConfig::new().with_seed(3);
        let result = one_attempt(&pattern, &config);
        for proc in 0..8 {
            assert_eq!(
                result.network.switch_of(ProcId(proc)).unwrap().index(),
                result.placement[proc]
            );
        }
    }

    #[test]
    fn exact_strategy_never_needs_more_links_than_fast() {
        let pattern = AppPattern::from_schedule(&schedule8());
        let fast = one_attempt(
            &pattern,
            &SynthesisConfig::new()
                .with_seed(7)
                .with_coloring(ColoringStrategy::Fast),
        );
        let exact = one_attempt(
            &pattern,
            &SynthesisConfig::new()
                .with_seed(7)
                .with_coloring(ColoringStrategy::Exact),
        );
        // Both contention-free; the exact search sees true costs so its
        // result can only be at least as good on this seed's trajectory.
        assert!(fast.report.contention_free);
        assert!(exact.report.contention_free);
    }

    #[test]
    fn connect_components_bridges_islands() {
        let mut net = Network::new(0);
        for _ in 0..4 {
            net.add_switch();
        }
        net.add_link(0.into(), 1.into()).unwrap();
        // components: {0,1}, {2}, {3}
        let added = connect_components(&mut net).unwrap();
        assert_eq!(added, 2);
        // All switches now reachable.
        let mut reach = [false; 4];
        let mut stack = vec![0usize];
        reach[0] = true;
        while let Some(s) = stack.pop() {
            for (_, far) in net.incident(s.into()) {
                if let Some(sw) = far.as_switch() {
                    if !reach[sw.index()] {
                        reach[sw.index()] = true;
                        stack.push(sw.index());
                    }
                }
            }
        }
        assert!(reach.iter().all(|&r| r));
    }

    #[test]
    fn connect_components_noop_when_connected() {
        let mut net = Network::new(0);
        net.add_switch();
        net.add_switch();
        net.add_link(0.into(), 1.into()).unwrap();
        assert_eq!(connect_components(&mut net).unwrap(), 0);
        assert_eq!(connect_components(&mut Network::new(0)).unwrap(), 0);
    }
}
