//! Clustered decomposition synthesis for patterns beyond the flat
//! annealer's reach (64–256 nodes).
//!
//! The flat Main Partitioning Algorithm explores a search space that
//! grows super-linearly with the processor count; the paper stops at the
//! 8/16-node NAS configurations. Decomposition recovers scalability the
//! way Ogras & Marculescu's long-link insertion work does for meshes:
//! divide and conquer over the *traffic* graph.
//!
//! 1. **Cut** — [`cluster_pattern`] partitions the processors into `k`
//!    balanced clusters along the flow-affinity structure (flows are the
//!    edges of the Theorem-1 clique graph, so cutting where affinity is
//!    low cuts few cliques).
//! 2. **Conquer** — each cluster becomes an independent [`AppPattern`]
//!    (internal flows relabeled, the global contention set and clique set
//!    restricted to them) synthesized through the ordinary engine
//!    portfolio.
//! 3. **Stitch** — [`stitch`] copies the per-cluster networks into one
//!    global network and routes every *cut* flow over a dedicated
//!    inter-cluster pipe between its endpoints' home switches, sized by
//!    exact coloring against the **global** contention set. Stitch pipes
//!    carry no intra-cluster traffic, so they cannot introduce new
//!    conflicts inside clusters.
//! 4. **Re-verify** — the stitched route table is re-checked against the
//!    full contention set with `verify_contention_free`; the report's
//!    `contention_free` flag (and any certificate emitted from the
//!    result) is backed by that global check, never by the construction
//!    argument alone.

use std::collections::BTreeMap;

use nocsyn_coloring::{exact_chromatic, ConflictGraph};
use nocsyn_model::{Clique, CliqueSet, ContentionSet, Flow, ProcId};
use nocsyn_topo::{verify_contention_free, Channel, LinkId, Network, NodeRef, Route, RouteTable};

use crate::{AppPattern, PipeKey, SynthError, SynthesisConfig, SynthesisReport, SynthesisResult};

/// Affinity-refinement passes over the processor assignment. The loop
/// also stops early at a fixpoint; the cap only bounds pathological
/// oscillation.
const REFINE_ROUNDS: usize = 16;

/// The default cluster count for an `n_procs`-node pattern: one cluster
/// per 16 processors (the largest size the flat annealer handles
/// comfortably), at least 2, at most 64.
pub fn auto_cluster_count(n_procs: usize) -> usize {
    (n_procs / 16).clamp(2, 64).min(n_procs.max(1))
}

/// The derived base seed of cluster `index` under request seed `base`:
/// a splitmix64 image of the pair, so sibling cluster jobs explore
/// unrelated restart portfolios while staying a pure function of
/// `(base, index)`.
pub fn cluster_seed(base: u64, index: usize) -> u64 {
    let mut state = base ^ (index as u64 + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    nocsyn_rng::splitmix64(&mut state)
}

/// The configuration a cluster sub-job runs under: reseeded with
/// [`cluster_seed`], and with **one port of degree headroom reserved**
/// for the stitch phase — inter-cluster pipes and connectivity bridges
/// attach to switches the cluster synthesis already finished, so the
/// cluster must stay one port under the global bound for the stitched
/// whole to meet it. The reservation floors at 2 usable ports (below
/// that no connected switch network exists at all).
pub fn cluster_config(base: &SynthesisConfig, index: usize) -> SynthesisConfig {
    let reserved = base.max_degree().saturating_sub(1).max(2);
    base.clone()
        .with_seed(cluster_seed(base.seed(), index))
        .with_max_degree(reserved)
}

/// One cluster of the decomposition: which global processors it owns and
/// the self-contained sub-pattern covering their internal traffic.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Global processor indices, ascending. Local processor `i` of
    /// [`Cluster::pattern`] is `procs[i]`.
    procs: Vec<usize>,
    /// The cluster's internal communication pattern, in local indices.
    pattern: AppPattern,
}

impl Cluster {
    /// Global processor indices owned by this cluster, ascending.
    pub fn procs(&self) -> &[usize] {
        &self.procs
    }

    /// The cluster-internal pattern (local processor indices).
    pub fn pattern(&self) -> &AppPattern {
        &self.pattern
    }
}

/// A full decomposition: the clusters plus every flow the cut severed.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    n_procs: usize,
    clusters: Vec<Cluster>,
    cut_flows: Vec<Flow>,
}

impl ClusterPlan {
    /// The clusters, in stable order.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Flows whose endpoints landed in different clusters (global
    /// indices, sorted).
    pub fn cut_flows(&self) -> &[Flow] {
        &self.cut_flows
    }

    /// Processor count of the decomposed pattern.
    pub fn n_procs(&self) -> usize {
        self.n_procs
    }
}

/// Scalar summary of a stitched decomposition, carried on the job
/// outcome and rendered into the `--json` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecompositionSummary {
    /// Number of clusters synthesized.
    pub clusters: usize,
    /// Number of flows crossing cluster boundaries.
    pub cut_flows: usize,
    /// Inter-cluster links added by the stitch (coloring-sized pipes).
    pub stitch_links: usize,
    /// Processor count of the largest cluster.
    pub largest_cluster: usize,
}

/// Partitions `pattern`'s processors into (at most) `n_clusters` balanced
/// clusters along the flow-affinity structure and derives each cluster's
/// internal sub-pattern. Fully deterministic: contiguous seeding followed
/// by bounded greedy affinity refinement with lexicographic tie-breaks.
///
/// # Errors
///
/// [`SynthError::EmptyPattern`] for a pattern with no processors.
pub fn cluster_pattern(pattern: &AppPattern, n_clusters: usize) -> Result<ClusterPlan, SynthError> {
    let n = pattern.n_procs();
    if n == 0 {
        return Err(SynthError::EmptyPattern);
    }
    let k = n_clusters.clamp(1, n);

    // Flow adjacency (undirected): the affinity a processor has for a
    // cluster is how many of its flows stay internal if it joins.
    let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &flow in pattern.flows() {
        neighbors[flow.src.index()].push(flow.dst.index());
        neighbors[flow.dst.index()].push(flow.src.index());
    }

    // Contiguous seeding, then greedy refinement under a balance cap.
    let mut assign: Vec<usize> = (0..n).map(|p| p * k / n).collect();
    let mut size = vec![0usize; k];
    for &c in &assign {
        size[c] += 1;
    }
    let max_size = n.div_ceil(k) + 1;
    for _ in 0..REFINE_ROUNDS {
        let mut moved = false;
        for p in 0..n {
            let cur = assign[p];
            if size[cur] <= 1 {
                continue;
            }
            let mut affinity = vec![0usize; k];
            for &q in &neighbors[p] {
                affinity[assign[q]] += 1;
            }
            let mut best = cur;
            for c in 0..k {
                if c != cur && size[c] < max_size && affinity[c] > affinity[best] {
                    best = c;
                }
            }
            if best != cur {
                size[cur] -= 1;
                size[best] += 1;
                assign[p] = best;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }

    // Refinement may only empty a cluster at k == n corner cases; drop
    // empties while keeping the remaining order stable.
    let mut dense = vec![usize::MAX; k];
    let mut n_live = 0;
    for c in 0..k {
        if size[c] > 0 {
            dense[c] = n_live;
            n_live += 1;
        }
    }
    for a in assign.iter_mut() {
        *a = dense[*a];
    }

    // Cluster membership and global -> local relabeling.
    let mut procs: Vec<Vec<usize>> = vec![Vec::new(); n_live];
    for (p, &c) in assign.iter().enumerate() {
        procs[c].push(p);
    }
    let mut local = vec![usize::MAX; n];
    for members in &procs {
        for (i, &p) in members.iter().enumerate() {
            local[p] = i;
        }
    }

    // Split flows into internal (relabeled per cluster) and cut (global).
    let mut internal: Vec<Vec<Flow>> = vec![Vec::new(); n_live];
    let mut cut_flows = Vec::new();
    let relabel = |flow: Flow| Flow::from_indices(local[flow.src.index()], local[flow.dst.index()]);
    let cluster_of = |flow: Flow| -> Option<usize> {
        let c = assign[flow.src.index()];
        (c == assign[flow.dst.index()]).then_some(c)
    };
    for &flow in pattern.flows() {
        match cluster_of(flow) {
            Some(c) => internal[c].push(relabel(flow)),
            None => cut_flows.push(flow),
        }
    }

    // Restrict the global contention set and clique set to each cluster's
    // internal flows: every contention pair between two internal flows
    // survives, so a contention-free sub-network is contention-free for
    // its share of the *global* pattern, not just a local approximation.
    let mut contention: Vec<ContentionSet> = vec![ContentionSet::new(); n_live];
    for pair in pattern.contention().iter() {
        if let (Some(a), Some(b)) = (cluster_of(pair.first()), cluster_of(pair.second())) {
            if a == b {
                contention[a].insert(relabel(pair.first()), relabel(pair.second()));
            }
        }
    }
    let mut cliques: Vec<Vec<Clique>> = vec![Vec::new(); n_live];
    for clique in pattern.cliques().iter() {
        let mut per_cluster: BTreeMap<usize, Clique> = BTreeMap::new();
        for flow in clique.iter() {
            if let Some(c) = cluster_of(flow) {
                per_cluster.entry(c).or_default().insert(relabel(flow));
            }
        }
        for (c, sub) in per_cluster {
            cliques[c].push(sub);
        }
    }

    let clusters = procs
        .into_iter()
        .zip(internal)
        .zip(contention.into_iter().zip(cliques))
        .map(|((members, flows), (contention, cliques))| {
            let pattern = AppPattern::from_parts(
                members.len(),
                flows,
                contention,
                CliqueSet::from_cliques(cliques).into_maximal(),
            );
            Cluster {
                procs: members,
                pattern,
            }
        })
        .collect();

    Ok(ClusterPlan {
        n_procs: n,
        clusters,
        cut_flows,
    })
}

/// Copies the per-cluster results into one global network, routes every
/// cut flow over a dedicated inter-cluster pipe (exact-colored against
/// the global contention set), restores connectivity between
/// traffic-free clusters, and re-verifies Theorem 1 on the stitched
/// route table from scratch.
///
/// `parts[i]` must be the synthesis result of `plan.clusters()[i]`.
///
/// # Errors
///
/// Propagates topology errors from network assembly ([`SynthError`]).
///
/// # Panics
///
/// Panics if `parts` does not line up with `plan` (caller bug).
pub fn stitch(
    pattern: &AppPattern,
    plan: &ClusterPlan,
    parts: &[SynthesisResult],
    config: &SynthesisConfig,
) -> Result<(SynthesisResult, DecompositionSummary), SynthError> {
    assert_eq!(
        parts.len(),
        plan.clusters.len(),
        "one synthesis result per cluster"
    );
    assert_eq!(plan.n_procs, pattern.n_procs(), "plan matches pattern");

    let mut net = Network::new(pattern.n_procs());
    let mut routes = RouteTable::new();
    let mut placement = vec![usize::MAX; pattern.n_procs()];

    // ------------------------------------------------------------------
    // Copy every cluster network (switches, links, attachments, routes)
    // with a dense switch offset and a link-id remap. Replaying links in
    // id order preserves channel directions exactly.
    // ------------------------------------------------------------------
    for (cluster, part) in plan.clusters.iter().zip(parts) {
        let offset = net.n_switches();
        for _ in 0..part.network.n_switches() {
            net.add_switch();
        }
        let mut link_map: Vec<LinkId> = Vec::with_capacity(part.network.n_links());
        for id in part.network.link_ids() {
            let link = part.network.link(id)?;
            let mapped = match (link.a(), link.b()) {
                (NodeRef::Switch(a), NodeRef::Switch(b)) => {
                    net.add_link((offset + a.index()).into(), (offset + b.index()).into())?
                }
                (NodeRef::Proc(p), NodeRef::Switch(s)) => net.attach(
                    ProcId(cluster.procs[p.index()]),
                    (offset + s.index()).into(),
                )?,
                (a, b) => unreachable!("link {a} -- {b} has no proc-side tail"),
            };
            link_map.push(mapped);
        }
        for (local, &home) in part.placement.iter().enumerate() {
            placement[cluster.procs[local]] = offset + home;
        }
        for (flow, route) in part.routes.iter() {
            let global = Flow::from_indices(
                cluster.procs[flow.src.index()],
                cluster.procs[flow.dst.index()],
            );
            let hops = route
                .iter()
                .map(|ch| Channel::new(link_map[ch.link.index()], ch.dir))
                .collect();
            let route = Route::new(hops);
            route.validate(&net, global)?;
            routes.insert(global, route);
        }
    }

    // ------------------------------------------------------------------
    // Stitch pipes: group cut flows by their endpoints' home switches and
    // size each pipe by exact coloring of both directions against the
    // GLOBAL contention set — the same finalization rule flat synthesis
    // applies, so Theorem 1 holds by the identical argument.
    // ------------------------------------------------------------------
    let mut pipe_dirs: BTreeMap<PipeKey, (Vec<Flow>, Vec<Flow>)> = BTreeMap::new();
    for &flow in &plan.cut_flows {
        let u = placement[flow.src.index()];
        let v = placement[flow.dst.index()];
        let key = PipeKey::new(u, v);
        let (fwd, bwd) = pipe_dirs.entry(key).or_default();
        if key.forward_from(u) {
            fwd.push(flow);
        } else {
            bwd.push(flow);
        }
    }
    let mut stitch_links = 0;
    for (key, (fwd, bwd)) in &pipe_dirs {
        let color_dir = |flows: &[Flow]| -> (usize, BTreeMap<Flow, usize>) {
            if flows.is_empty() {
                return (0, BTreeMap::new());
            }
            let graph = ConflictGraph::from_flows(flows.to_vec(), pattern.contention());
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
        let width = chi_f.max(chi_b);
        let mut links = Vec::with_capacity(width);
        for _ in 0..width {
            links.push(net.add_link(key.lo().into(), key.hi().into())?);
        }
        stitch_links += width;
        for (&flow, &color) in forward_colors.iter().chain(backward_colors.iter()) {
            let forward = forward_colors.contains_key(&flow);
            let link = links[color];
            let hops = vec![
                net.injection_channel(flow.src)?,
                if forward {
                    Channel::forward(link)
                } else {
                    Channel::backward(link)
                },
                net.ejection_channel(flow.dst)?,
            ];
            let route = Route::new(hops);
            route.validate(&net, flow)?;
            routes.insert(flow, route);
        }
    }

    // Clusters with no cut traffic between them leave the switch graph
    // disconnected; bridge them degree-aware so every extra port lands
    // on the switch with the most headroom.
    let connectivity_links = bridge_components(&mut net)?;

    // ------------------------------------------------------------------
    // Global re-verification and report.
    // ------------------------------------------------------------------
    let contention = verify_contention_free(pattern.contention(), &routes);
    // Constraints are judged on the *stitched* network against the
    // caller's original config — not on the parts' verdicts, which target
    // the tighter headroom bound of [`cluster_config`]. A cluster that
    // misses its reserved-port goal by one is still a success if the
    // stitch and bridge ports fit under the real budget.
    let max_degree = net.max_degree();
    let constraints_met = max_degree <= config.max_degree();
    let sum = |f: fn(&SynthesisReport) -> usize| parts.iter().map(|p| f(&p.report)).sum();
    let report = SynthesisReport {
        n_switches: net.n_switches(),
        n_links: net.n_network_links(),
        max_degree,
        constraints_met,
        contention_free: contention.is_contention_free(),
        connectivity_links: connectivity_links + sum(|r| r.connectivity_links),
        rounds: sum(|r| r.rounds),
        splits: sum(|r| r.splits),
        moves_tried: sum(|r| r.moves_tried),
        moves_accepted: sum(|r| r.moves_accepted),
        reroutes_tried: sum(|r| r.reroutes_tried),
        reroutes_accepted: sum(|r| r.reroutes_accepted),
        reroutes_neutral: sum(|r| r.reroutes_neutral),
        cost_history: Vec::new(),
    };
    let summary = DecompositionSummary {
        clusters: plan.clusters.len(),
        cut_flows: plan.cut_flows.len(),
        stitch_links,
        largest_cluster: plan
            .clusters
            .iter()
            .map(|c| c.procs.len())
            .max()
            .unwrap_or(0),
    };
    Ok((
        SynthesisResult {
            network: net,
            routes,
            placement,
            report,
        },
        summary,
    ))
}

/// Joins disconnected switch components with single links, re-selecting
/// the lowest-degree switch on *both* sides before every bridge (ties to
/// the lowest index). Unlike the flat finalizer's chain — which can land
/// two bridge ports on one switch — this spreads the extra ports across
/// whatever headroom the cluster networks left, which is exactly the one
/// port [`cluster_config`] reserved. Returns how many links were added.
fn bridge_components(net: &mut Network) -> Result<usize, SynthError> {
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
    let mut connected = vec![false; n_components];
    connected[0] = true;
    let mut added = 0;
    for joining in 1..n_components {
        let min_degree = |net: &Network, keep: &dyn Fn(usize) -> bool| {
            (0..n)
                .filter(|&s| keep(s))
                .min_by_key(|&s| (net.degree(s.into()), s))
                .expect("every component id owns at least one switch")
        };
        let a = min_degree(net, &|s| connected[component[s]]);
        let b = min_degree(net, &|s| component[s] == joining);
        net.add_link(a.into(), b.into())?;
        connected[joining] = true;
        added += 1;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_attempt, SynthesisRequest};
    use nocsyn_model::{Phase, PhaseSchedule};

    fn pattern16() -> AppPattern {
        // Two 8-proc halves with heavy internal traffic and a thin cut.
        let mut s = PhaseSchedule::new(16);
        s.push(
            Phase::from_flows([
                (0usize, 1usize),
                (2, 3),
                (4, 5),
                (6, 7),
                (8, 9),
                (10, 11),
                (12, 13),
                (14, 15),
            ])
            .expect("valid"),
        )
        .expect("in range");
        s.push(Phase::from_flows([(1usize, 2usize), (3, 4), (9, 10), (11, 12)]).expect("valid"))
            .expect("in range");
        s.push(Phase::from_flows([(7usize, 8usize), (15, 0)]).expect("valid"))
            .expect("in range");
        AppPattern::from_schedule(&s)
    }

    /// One attempt per cluster (the engine runs the full portfolio).
    fn synthesize_plan(plan: &ClusterPlan, config: &SynthesisConfig) -> Vec<SynthesisResult> {
        plan.clusters()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let request = SynthesisRequest::builder(c.pattern().clone())
                    .config(cluster_config(config, i))
                    .build()
                    .expect("request builds");
                synthesize_attempt(&request, 0).expect("cluster synthesis")
            })
            .collect()
    }

    #[test]
    fn auto_cluster_count_scales_with_pattern_size() {
        assert_eq!(auto_cluster_count(1), 1);
        assert_eq!(auto_cluster_count(8), 2);
        assert_eq!(auto_cluster_count(64), 4);
        assert_eq!(auto_cluster_count(256), 16);
        assert_eq!(auto_cluster_count(4096), 64);
    }

    #[test]
    fn cluster_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..32 {
            let s = cluster_seed(7, i);
            assert_eq!(s, cluster_seed(7, i));
            assert!(seen.insert(s), "cluster seed collision at {i}");
        }
    }

    #[test]
    fn clustering_covers_every_processor_once() {
        let pattern = pattern16();
        let plan = cluster_pattern(&pattern, 2).expect("plan");
        let mut owned = [0usize; 16];
        for c in plan.clusters() {
            for &p in c.procs() {
                owned[p] += 1;
            }
        }
        assert!(owned.iter().all(|&n| n == 1), "partition must be exact");
        // Every pattern flow is either internal to some cluster or cut.
        let internal: usize = plan
            .clusters()
            .iter()
            .map(|c| c.pattern().flows().len())
            .sum();
        assert_eq!(internal + plan.cut_flows().len(), pattern.flows().len());
        // The affinity cut keeps the two dense halves together: only the
        // two bridge flows are cut.
        assert!(plan.cut_flows().len() <= 4, "{:?}", plan.cut_flows());
    }

    #[test]
    fn empty_pattern_is_rejected() {
        let p = AppPattern::from_parts(0, [], ContentionSet::new(), CliqueSet::new());
        assert!(matches!(
            cluster_pattern(&p, 2),
            Err(SynthError::EmptyPattern)
        ));
    }

    #[test]
    fn stitched_network_is_globally_contention_free() {
        let pattern = pattern16();
        let plan = cluster_pattern(&pattern, 2).expect("plan");
        let config = SynthesisConfig::new().with_seed(3);
        let parts = synthesize_plan(&plan, &config);
        let (result, summary) = stitch(&pattern, &plan, &parts, &config).expect("stitch");
        assert!(result.network.is_strongly_connected());
        result.routes.validate(&result.network).expect("routes");
        assert_eq!(result.routes.len(), pattern.flows().len());
        assert!(result.report.contention_free);
        // The report flag is backed by a from-scratch global check.
        let fresh = verify_contention_free(pattern.contention(), &result.routes);
        assert!(fresh.is_contention_free());
        assert_eq!(summary.clusters, 2);
        assert_eq!(summary.cut_flows, plan.cut_flows().len());
        assert!(summary.stitch_links >= 1);
        assert_eq!(summary.largest_cluster, 8);
    }

    #[test]
    fn stitch_is_deterministic() {
        let pattern = pattern16();
        let config = SynthesisConfig::new().with_seed(5);
        let run = || {
            let plan = cluster_pattern(&pattern, 3).expect("plan");
            let parts = synthesize_plan(&plan, &config);
            let (result, summary) = stitch(&pattern, &plan, &parts, &config).expect("stitch");
            (result.placement.clone(), result.report.clone(), summary)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_cluster_plan_degenerates_to_flat_shape() {
        let pattern = pattern16();
        let plan = cluster_pattern(&pattern, 1).expect("plan");
        assert_eq!(plan.clusters().len(), 1);
        assert!(plan.cut_flows().is_empty());
        let config = SynthesisConfig::new().with_seed(1);
        let parts = synthesize_plan(&plan, &config);
        let (result, summary) = stitch(&pattern, &plan, &parts, &config).expect("stitch");
        assert!(result.report.contention_free);
        assert_eq!(summary.stitch_links, 0);
        assert_eq!(summary.cut_flows, 0);
    }
}
