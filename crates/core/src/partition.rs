//! Partitioning state and the Main Partitioning Algorithm (paper Appendix).
//!
//! Synthesis works on an abstract *partitioning*: an assignment of
//! processors to switches, plus a per-flow path through switches. Every
//! unordered switch pair with traffic between them is a *pipe*; the number
//! of links a pipe needs is estimated by coloring (fast or exact) of the
//! communications crossing it, per direction. The concrete [`Network`]
//! (with real parallel links) is only materialized at finalization.
//!
//! Pipes live in append-only *slots*, numbered in first-seen order, and
//! every flow carries a [`BitSet`] footprint of the directed pipe
//! resources its path crosses (resource id = `slot * 2 + direction`). A
//! candidate reroute, move or swap therefore never walks the pipe map:
//! each changed flow's old crossings come straight from its footprint,
//! its new crossings from its candidate path, and the two lists cancel by
//! parity — the delta-update invariant of DESIGN.md §11–12.
//! [`Partitioning::probe_score`] evaluates a reroute and
//! [`Partitioning::probe_move`] a move or swap from those toggles alone,
//! with the full recompute demoted to a debug-assert oracle.
//!
//! [`Network`]: nocsyn_topo::Network

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use nocsyn_coloring::{exact_chromatic, fast_color_directed_masks, ConflictGraph};
use nocsyn_model::{BitSet, ContentionSet, Flow, FlowInterner, FxBuildHasher, ProcId};
use nocsyn_rng::Rng;

use crate::anneal::Acceptor;
use crate::config::MAX_MOVE_ROUNDS;
use crate::route_opt::AnnealMemo;
use crate::{moves, route_opt, AppPattern, ColoringStrategy, SynthError, SynthesisConfig};

/// An unordered pair of switch indices naming a pipe; `lo < hi`.
///
/// The *forward* direction of a pipe runs from `lo` to `hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PipeKey {
    lo: usize,
    hi: usize,
}

impl PipeKey {
    /// Creates the pipe key for switches `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; pipes join distinct switches.
    pub fn new(a: usize, b: usize) -> Self {
        assert_ne!(a, b, "a pipe joins two distinct switches");
        PipeKey {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// The smaller switch index.
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// The larger switch index.
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Whether traversal from `a` to `b` is this pipe's forward direction.
    pub fn forward_from(&self, a: usize) -> bool {
        a == self.lo
    }

    /// Whether the pipe touches switch `s`.
    pub fn touches(&self, s: usize) -> bool {
        self.lo == s || self.hi == s
    }
}

impl fmt::Display for PipeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P({},{})", self.lo, self.hi)
    }
}

/// The communications crossing one pipe (as [`BitSet`]s over the
/// pattern's interned flow ids), with its current per-direction link
/// estimates. Slots persist after a pipe drains (empty sets, zero links)
/// so footprint resource ids stay stable for the whole search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PipeState {
    pub(crate) key: PipeKey,
    pub(crate) forward: BitSet,
    pub(crate) backward: BitSet,
    /// Population counts of `forward` / `backward`, maintained on every
    /// toggle so emptiness tests never scan the bitset words.
    fwd_n: usize,
    bwd_n: usize,
    /// Per-direction edit generations (bumped on every toggle), versioning
    /// the probe memo: a memoized flipped-direction estimate is valid only
    /// while its direction's generation is unchanged.
    fwd_gen: u64,
    bwd_gen: u64,
    pub(crate) fwd_links: usize,
    pub(crate) bwd_links: usize,
    pub(crate) links: usize,
}

impl PipeState {
    fn new(key: PipeKey, universe: usize) -> Self {
        PipeState {
            key,
            forward: BitSet::with_capacity(universe),
            backward: BitSet::with_capacity(universe),
            fwd_n: 0,
            bwd_n: 0,
            fwd_gen: 0,
            bwd_gen: 0,
            fwd_links: 0,
            bwd_links: 0,
            links: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.fwd_n == 0 && self.bwd_n == 0
    }
}

/// Counters describing a synthesis run (embedded into the final
/// [`SynthesisReport`](crate::SynthesisReport)).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct SearchStats {
    pub(crate) rounds: usize,
    pub(crate) splits: usize,
    pub(crate) moves_tried: usize,
    pub(crate) moves_accepted: usize,
    pub(crate) reroutes_tried: usize,
    pub(crate) reroutes_accepted: usize,
    /// Reroutes whose evaluated score exactly matched the incumbent:
    /// tried, scored, and found neither better nor worse. Distinguishes
    /// "no improvement existed" from "never evaluated" when
    /// `reroutes_accepted` is zero.
    pub(crate) reroutes_neutral: usize,
    pub(crate) cost_history: Vec<usize>,
}

/// Memoized committed score: the degree bound it was computed under, and
/// the `(excess, area)` pair.
type ScoreMemo = (usize, (usize, usize));

/// A probe toggle: flow `idx` entering or leaving directed pipe resource
/// `res` (`slot * 2 + direction`), packed as `res << 32 | idx`. Sorted
/// toggles group by slot, then direction; a single flip's word is its
/// `probe_cache` key.
fn toggle_word(res: usize, idx: usize) -> u64 {
    ((res as u64) << 32) | idx as u64
}

/// A probe's change at one switch: `(switch, incident links, live
/// incident pipes, members)`.
type SwitchDelta = (usize, isize, isize, isize);

/// Adds a change to switch `s`'s entry of a probe's per-switch deltas.
fn add_switch_delta(
    switches: &mut Vec<SwitchDelta>,
    s: usize,
    d_incident: isize,
    d_pipes: isize,
    d_members: isize,
) {
    match switches.iter_mut().find(|e| e.0 == s) {
        Some(e) => {
            e.1 += d_incident;
            e.2 += d_pipes;
            e.3 += d_members;
        }
        None => switches.push((s, d_incident, d_pipes, d_members)),
    }
}

/// The evolving partition of processors into switches, with per-flow switch
/// paths and per-pipe link estimates.
#[derive(Debug, Clone)]
pub struct Partitioning {
    pattern: AppPattern,
    strategy: ColoringStrategy,
    /// Processor → switch index.
    home: Vec<usize>,
    /// Switch index → member processors (sorted).
    members: Vec<Vec<ProcId>>,
    /// Flow index (into `pattern.flows()`) → switch path. The path starts
    /// at the source's home switch and ends at the destination's; adjacent
    /// entries are distinct and the path is simple.
    paths: Vec<Vec<usize>>,
    /// Interner over `pattern.flows()`: a flow's id equals its index in
    /// the (sorted, deduplicated) flow list, so paths, crossing bitsets
    /// and the pattern share one id space.
    interner: FlowInterner,
    /// `pattern.cliques()` compiled to bitmasks over `interner`, once per
    /// partitioning — the `Fast_Color` hot path is AND + popcount against
    /// these.
    clique_masks: Vec<BitSet>,
    /// Processor index → flow indices with that processor as an endpoint
    /// (ascending), precomputed so moves don't rescan the flow list.
    proc_flows: Vec<Vec<usize>>,
    /// Pipe key → slot, densely: `lo * pipe_stride + hi` → slot (or
    /// `u32::MAX`), so the probe loop resolves a pipe with one indexed
    /// load. Holds every slot; rebuilt from `pipe_slots` when a switch is
    /// added.
    pipe_lookup: Vec<u32>,
    pipe_stride: usize,
    /// Slot id → pipe state. A drained pipe keeps its slot zeroed rather
    /// than being removed, so resource ids in footprints never dangle.
    pipe_slots: Vec<PipeState>,
    /// The *live* (non-empty) pipes in sorted key order — the view every
    /// deterministic iteration ([`Partitioning::pipes`]) walks.
    live_pipes: BTreeMap<PipeKey, usize>,
    /// Flow index → footprint of directed pipe resources its path crosses
    /// (resource id = `slot * 2 + direction`), maintained by XOR-toggle in
    /// lock-step with `paths`.
    footprints: Vec<BitSet>,
    /// Switch index → sum of link estimates of incident pipes, maintained
    /// by [`Partitioning::recompute_pipe_slot`] so [`Partitioning::degree`]
    /// is O(1) instead of a scan over the pipe map.
    incident_links: Vec<usize>,
    /// Switch index → number of live incident pipes (for
    /// [`Partitioning::live_switches`] without a pipe-map scan).
    incident_pipes: Vec<usize>,
    /// Switch index → whether it would survive materialization, with the
    /// live count maintained alongside so `score` never rescans.
    switch_live: Vec<bool>,
    live_switch_count: usize,
    /// Reused buffer of pipe slots touched by the current path-change
    /// batch.
    touched_scratch: Vec<usize>,
    /// Reused buffers for the probes: toggles (see [`toggle_word`]) and
    /// per-switch delta accumulators.
    probe_toggles: Vec<u64>,
    probe_switches: Vec<SwitchDelta>,
    /// Reused bitset holding a probed direction's crossing set.
    dir_scratch: BitSet,
    /// Generation-checked memo of flipped-direction estimates, keyed by
    /// the flip's [`toggle_word`]. Entries are valid
    /// while the direction's edit generation matches; stale entries are
    /// overwritten on the next miss.
    probe_cache: HashMap<u64, (u64, u32), FxBuildHasher>,
    /// Memoized fast-coloring bounds per crossing set. The bound is a pure
    /// function of the set (clique masks are fixed per pattern), so caching
    /// changes no computed value — it only spares the mask sweep when the
    /// annealed reroute loop revisits a set, which it does constantly.
    fast_cache: HashMap<BitSet, usize, FxBuildHasher>,
    /// Memoized exact chromatic numbers per crossing set (same purity
    /// argument as `fast_cache`, for the branch-and-bound).
    chi_cache: HashMap<BitSet, usize, FxBuildHasher>,
    /// Committed score memo, invalidated by every mutation; `Cell` so the
    /// historically-`&self` [`Partitioning::score`] can fill it.
    score_memo: Cell<Option<ScoreMemo>>,
    /// Route repair's record of each anneal round's last walk, replayed
    /// when the round meets the same input again (see [`AnnealMemo`]).
    pub(crate) anneal_memo: AnnealMemo,
    total_links: usize,
    pub(crate) stats: SearchStats,
}

/// Flow indices incident to each processor, in ascending index order.
fn proc_flow_table(pattern: &AppPattern) -> Vec<Vec<usize>> {
    let mut table = vec![Vec::new(); pattern.n_procs()];
    for (i, f) in pattern.flows().iter().enumerate() {
        table[f.src.index()].push(i);
        if f.dst != f.src {
            table[f.dst.index()].push(i);
        }
    }
    table
}

/// Looks up (or creates) the slot of `key`. Free function over the
/// storage fields so callers can hold disjoint borrows of the rest of the
/// partitioning. The dense lookup holds every known slot, so a miss is a
/// new pipe and takes the next slot.
fn intern_pipe_slot(
    pipe_slots: &mut Vec<PipeState>,
    pipe_lookup: &mut [u32],
    pipe_stride: usize,
    universe: usize,
    key: PipeKey,
) -> usize {
    let cell = &mut pipe_lookup[key.lo * pipe_stride + key.hi];
    if *cell == u32::MAX {
        *cell = pipe_slots.len() as u32;
        pipe_slots.push(PipeState::new(key, universe));
    }
    *cell as usize
}

/// Link estimate of one pipe direction under `strategy`, memoized per
/// crossing set. Both caches store exactly what the uncached computation
/// returns, so hits change no computed value.
fn estimate_dir(
    strategy: ColoringStrategy,
    clique_masks: &[BitSet],
    interner: &FlowInterner,
    contention: &ContentionSet,
    fast_cache: &mut HashMap<BitSet, usize, FxBuildHasher>,
    chi_cache: &mut HashMap<BitSet, usize, FxBuildHasher>,
    set: &BitSet,
) -> usize {
    if set.is_empty() {
        return 0;
    }
    match strategy {
        ColoringStrategy::Fast => {
            if let Some(&links) = fast_cache.get(set) {
                return links;
            }
            let links = fast_color_directed_masks(clique_masks, set);
            fast_cache.insert(set.clone(), links);
            links
        }
        ColoringStrategy::Exact => {
            if let Some(&chi) = chi_cache.get(set) {
                return chi;
            }
            let g = ConflictGraph::from_flows(interner.flows_of(set).collect(), contention);
            let chi = exact_chromatic(&g).n_colors();
            chi_cache.insert(set.clone(), chi);
            chi
        }
    }
}

impl Partitioning {
    /// Builds the initial single-"mega-switch" partitioning (step 1 of the
    /// main algorithm).
    ///
    /// # Errors
    ///
    /// [`SynthError::EmptyPattern`] if the pattern has no processors.
    pub fn megaswitch(pattern: &AppPattern) -> Result<Self, SynthError> {
        if pattern.n_procs() == 0 {
            return Err(SynthError::EmptyPattern);
        }
        let n = pattern.n_procs();
        let n_flows = pattern.flows().len();
        let interner = FlowInterner::from_sorted_flows(pattern.flows().to_vec());
        let clique_masks = pattern.cliques().compile_masks(&interner);
        let proc_flows = proc_flow_table(pattern);
        let paths = vec![vec![0]; n_flows];
        Ok(Partitioning {
            pattern: pattern.clone(),
            strategy: ColoringStrategy::Fast,
            home: vec![0; n],
            members: vec![(0..n).map(ProcId).collect()],
            paths,
            interner,
            clique_masks,
            proc_flows,
            pipe_lookup: vec![u32::MAX],
            pipe_stride: 1,
            pipe_slots: Vec::new(),
            live_pipes: BTreeMap::new(),
            footprints: vec![BitSet::new(); n_flows],
            incident_links: vec![0],
            incident_pipes: vec![0],
            switch_live: vec![true],
            live_switch_count: 1,
            touched_scratch: Vec::new(),
            probe_toggles: Vec::new(),
            probe_switches: Vec::new(),
            dir_scratch: BitSet::with_capacity(n_flows),
            probe_cache: HashMap::default(),
            fast_cache: HashMap::default(),
            chi_cache: HashMap::default(),
            score_memo: Cell::new(None),
            anneal_memo: AnnealMemo::default(),
            total_links: 0,
            stats: SearchStats::default(),
        })
    }

    /// Builds a partitioning from an explicit processor-to-switch
    /// assignment with direct routing — the start of an attempt whose
    /// request carries a [warm start](crate::SynthesisRequest::warm_start).
    ///
    /// # Errors
    ///
    /// [`SynthError::EmptyPattern`] if the pattern has no processors or
    /// `homes` does not cover them.
    pub fn from_assignment(pattern: &AppPattern, homes: &[usize]) -> Result<Self, SynthError> {
        if pattern.n_procs() == 0 || homes.len() != pattern.n_procs() {
            return Err(SynthError::EmptyPattern);
        }
        let n_switches = homes.iter().copied().max().unwrap_or(0) + 1;
        let n_flows = pattern.flows().len();
        let mut members: Vec<Vec<ProcId>> = vec![Vec::new(); n_switches];
        for (p, &h) in homes.iter().enumerate() {
            members[h].push(ProcId(p));
        }
        let switch_live: Vec<bool> = members.iter().map(|m| !m.is_empty()).collect();
        let live_switch_count = switch_live.iter().filter(|&&b| b).count();
        let interner = FlowInterner::from_sorted_flows(pattern.flows().to_vec());
        let mut partitioning = Partitioning {
            clique_masks: pattern.cliques().compile_masks(&interner),
            interner,
            proc_flows: proc_flow_table(pattern),
            paths: vec![Vec::new(); n_flows],
            pattern: pattern.clone(),
            strategy: ColoringStrategy::Fast,
            home: homes.to_vec(),
            incident_links: vec![0; n_switches],
            incident_pipes: vec![0; n_switches],
            switch_live,
            live_switch_count,
            touched_scratch: Vec::new(),
            probe_toggles: Vec::new(),
            probe_switches: Vec::new(),
            dir_scratch: BitSet::with_capacity(n_flows),
            probe_cache: HashMap::default(),
            fast_cache: HashMap::default(),
            chi_cache: HashMap::default(),
            score_memo: Cell::new(None),
            anneal_memo: AnnealMemo::default(),
            members,
            pipe_lookup: vec![u32::MAX; n_switches * n_switches],
            pipe_stride: n_switches,
            pipe_slots: Vec::new(),
            live_pipes: BTreeMap::new(),
            footprints: vec![BitSet::new(); n_flows],
            total_links: 0,
            stats: SearchStats::default(),
        };
        for idx in 0..partitioning.paths.len() {
            let direct = partitioning.direct_path(idx);
            partitioning.set_path(idx, direct);
        }
        Ok(partitioning)
    }

    /// The application pattern being synthesized for.
    pub fn pattern(&self) -> &AppPattern {
        &self.pattern
    }

    /// Number of switches created so far.
    pub fn n_switches(&self) -> usize {
        self.members.len()
    }

    /// The home switch of a processor.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn home(&self, proc: ProcId) -> usize {
        self.home[proc.index()]
    }

    /// The processors attached to switch `s` (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn members(&self, s: usize) -> &[ProcId] {
        &self.members[s]
    }

    /// The switch path currently assigned to `flow`, if the application
    /// uses that flow.
    pub fn path(&self, flow: Flow) -> Option<&[usize]> {
        self.interner.id(flow).map(|i| self.paths[i].as_slice())
    }

    /// The interner mapping this pattern's flows to the contiguous ids
    /// used by [`Partitioning::pipe_flows`] bitsets (a flow's id is its
    /// index in [`AppPattern::flows`]).
    pub fn interner(&self) -> &FlowInterner {
        &self.interner
    }

    /// Sum of link estimates over all pipes — the objective the search
    /// minimizes.
    pub fn total_links(&self) -> usize {
        self.total_links
    }

    /// Iterates over `(pipe, link estimate)` for every non-empty pipe, in
    /// sorted key order.
    pub fn pipes(&self) -> impl Iterator<Item = (PipeKey, usize)> + '_ {
        self.live_pipes
            .iter()
            .map(|(k, &slot)| (*k, self.pipe_slots[slot].links))
    }

    /// The flows crossing `pipe` in its forward and backward directions,
    /// as bitsets over [`Partitioning::interner`] ids (iterating a set
    /// yields ids in ascending order — lexicographic flow order).
    pub fn pipe_flows(&self, pipe: PipeKey) -> Option<(&BitSet, &BitSet)> {
        self.live_pipes.get(&pipe).map(|&slot| {
            let st = &self.pipe_slots[slot];
            (&st.forward, &st.backward)
        })
    }

    /// Estimated node degree of switch `s`: attached processors plus the
    /// link estimates of every incident pipe (cached incrementally; O(1)).
    pub fn degree(&self, s: usize) -> usize {
        self.members[s].len() + self.incident_links[s]
    }

    /// Switches violating the design constraint: degree over the maximum.
    pub fn violating(&self, config: &SynthesisConfig) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&s| self.degree(s) > config.max_degree())
            .collect()
    }

    /// Switches that would survive materialization: those hosting
    /// processors or carrying traffic (dead switches are dropped).
    /// Maintained incrementally; O(1).
    pub fn live_switches(&self) -> usize {
        self.live_switch_count
    }

    /// Lexicographic optimization score: total degree excess over the
    /// constraint first (0 when all constraints hold), then chip area
    /// (links + live switches). Strictly decreasing accepts make every
    /// repair/refinement loop terminate. Memoized between mutations, so
    /// re-reading the committed score inside the reroute loop is O(1).
    pub fn score(&self, config: &SynthesisConfig) -> (usize, usize) {
        let max_degree = config.max_degree();
        if let Some((memo_degree, memo_score)) = self.score_memo.get() {
            if memo_degree == max_degree {
                return memo_score;
            }
        }
        let excess: usize = (0..self.members.len())
            .map(|s| self.degree(s).saturating_sub(max_degree))
            .sum();
        let score = (excess, self.total_links + self.live_switch_count);
        self.score_memo.set(Some((max_degree, score)));
        score
    }

    // ------------------------------------------------------------------
    // Mutators (crate-internal; the search drives these).
    // ------------------------------------------------------------------

    pub(crate) fn set_strategy(&mut self, strategy: ColoringStrategy) {
        if self.strategy != strategy {
            self.strategy = strategy;
            self.score_memo.set(None);
            // Memoized flip estimates were computed under the old strategy.
            self.probe_cache.clear();
            let slots: Vec<usize> = self.live_pipes.values().copied().collect();
            for slot in slots {
                self.recompute_pipe_slot(slot);
            }
        }
    }

    /// Re-derives one slot's per-direction link estimates from its
    /// (already-updated) crossing sets, then reconciles every aggregate
    /// hanging off it: total links, per-switch incident sums, the live
    /// pipe view, and switch liveness.
    fn recompute_pipe_slot(&mut self, slot: usize) {
        let new_fwd = estimate_dir(
            self.strategy,
            &self.clique_masks,
            &self.interner,
            self.pattern.contention(),
            &mut self.fast_cache,
            &mut self.chi_cache,
            &self.pipe_slots[slot].forward,
        );
        let new_bwd = estimate_dir(
            self.strategy,
            &self.clique_masks,
            &self.interner,
            self.pattern.contention(),
            &mut self.fast_cache,
            &mut self.chi_cache,
            &self.pipe_slots[slot].backward,
        );
        let st = &mut self.pipe_slots[slot];
        let key = st.key;
        let old_links = st.links;
        let new_links = new_fwd.max(new_bwd);
        st.fwd_links = new_fwd;
        st.bwd_links = new_bwd;
        st.links = new_links;
        let now_empty = st.is_empty();
        self.total_links = self.total_links - old_links + new_links;
        for s in [key.lo, key.hi] {
            // Add before subtracting: the sum never transiently underflows.
            self.incident_links[s] = self.incident_links[s] + new_links - old_links;
        }
        let was_live = self.live_pipes.contains_key(&key);
        if was_live && now_empty {
            debug_assert_eq!(new_links, 0);
            self.live_pipes.remove(&key);
            self.incident_pipes[key.lo] -= 1;
            self.incident_pipes[key.hi] -= 1;
            self.refresh_switch_live(key.lo);
            self.refresh_switch_live(key.hi);
        } else if !was_live && !now_empty {
            self.live_pipes.insert(key, slot);
            self.incident_pipes[key.lo] += 1;
            self.incident_pipes[key.hi] += 1;
            self.refresh_switch_live(key.lo);
            self.refresh_switch_live(key.hi);
        }
    }

    /// Reconciles `switch_live[s]` (and the live count) after a change to
    /// switch `s`'s members or incident pipes.
    fn refresh_switch_live(&mut self, s: usize) {
        let live = !self.members[s].is_empty() || self.incident_pipes[s] > 0;
        if live != self.switch_live[s] {
            self.switch_live[s] = live;
            if live {
                self.live_switch_count += 1;
            } else {
                self.live_switch_count -= 1;
            }
        }
    }

    /// Applies a batch of path changes (flow index → new path)
    /// incrementally: the old and new crossings of every changed flow are
    /// XOR-toggled into the per-pipe bitsets — and the flow's footprint —
    /// in place (a flow crossing the same pipe and direction both before
    /// and after cancels out), and each touched pipe's link estimate is
    /// recomputed exactly once — however many flows of the batch cross it.
    /// Allocation-free apart from a reused touched-slots scratch buffer.
    pub(crate) fn apply_path_changes<I>(&mut self, changes: I)
    where
        I: IntoIterator<Item = (usize, Vec<usize>)>,
    {
        self.score_memo.set(None);
        let universe = self.paths.len();
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        for (idx, new_path) in changes {
            debug_assert!(
                new_path.windows(2).all(|w| w[0] != w[1]),
                "path repeats a switch"
            );
            let old_path = std::mem::replace(&mut self.paths[idx], new_path);
            for path in [old_path.as_slice(), self.paths[idx].as_slice()] {
                for w in path.windows(2) {
                    let key = PipeKey::new(w[0], w[1]);
                    let slot = intern_pipe_slot(
                        &mut self.pipe_slots,
                        &mut self.pipe_lookup,
                        self.pipe_stride,
                        universe,
                        key,
                    );
                    let forward = key.forward_from(w[0]);
                    let st = &mut self.pipe_slots[slot];
                    let (set, count, gen) = if forward {
                        (&mut st.forward, &mut st.fwd_n, &mut st.fwd_gen)
                    } else {
                        (&mut st.backward, &mut st.bwd_n, &mut st.bwd_gen)
                    };
                    if set.toggle(idx) {
                        *count += 1;
                    } else {
                        *count -= 1;
                    }
                    *gen += 1;
                    self.footprints[idx].toggle(slot * 2 + usize::from(!forward));
                    touched.push(slot);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &slot in &touched {
            self.recompute_pipe_slot(slot);
        }
        self.touched_scratch = touched;
    }

    /// Installs `path` for flow `idx`, updating pipe crossings and link
    /// estimates.
    pub(crate) fn set_path(&mut self, idx: usize, path: Vec<usize>) {
        self.apply_path_changes([(idx, path)]);
    }

    // ------------------------------------------------------------------
    // Probes: score a candidate reroute or move without committing it.
    // ------------------------------------------------------------------

    /// Empties the probe buffers before a probe gathers its toggles.
    fn start_probe(&mut self) {
        self.probe_toggles.clear();
        self.probe_switches.clear();
    }

    /// Appends the toggles of flow `idx` moving onto `new_path`: its
    /// current footprint, then the candidate's crossings. Interns
    /// candidate pipes on the fly — an interned-but-empty slot is
    /// indistinguishable from an absent pipe.
    fn push_probe_toggles(&mut self, idx: usize, new_path: &[usize]) {
        let universe = self.paths.len();
        self.probe_toggles
            .extend(self.footprints[idx].iter().map(|res| toggle_word(res, idx)));
        for w in new_path.windows(2) {
            let key = PipeKey::new(w[0], w[1]);
            let slot = intern_pipe_slot(
                &mut self.pipe_slots,
                &mut self.pipe_lookup,
                self.pipe_stride,
                universe,
                key,
            );
            let res = slot * 2 + usize::from(!key.forward_from(w[0]));
            self.probe_toggles.push(toggle_word(res, idx));
        }
    }

    /// Link estimate of one direction of `slot` with the flows of
    /// `toggles` (all on that direction) flipped, plus whether the
    /// direction would then be empty. Reads the committed set into a
    /// scratch bitset; commits nothing. With `memo`, a single-flow flip
    /// goes through `probe_cache`.
    fn flipped_dir_links(
        &mut self,
        slot: usize,
        backward: bool,
        toggles: &[u64],
        memo: bool,
    ) -> (usize, bool) {
        let st = &self.pipe_slots[slot];
        let (set, count, gen, links) = if backward {
            (&st.backward, st.bwd_n, st.bwd_gen, st.bwd_links)
        } else {
            (&st.forward, st.fwd_n, st.fwd_gen, st.fwd_links)
        };
        if toggles.is_empty() {
            return (links, count == 0);
        }
        let flipped_n = toggles.iter().fold(count, |n, &t| {
            if set.contains(t as u32 as usize) {
                n - 1
            } else {
                n + 1
            }
        });
        if flipped_n == 0 {
            return (0, true);
        }
        // The anneal re-probes the same (pipe, direction, flow) flips over
        // and over between commits; a generation-checked memo answers those
        // without touching the bitset or the set-keyed caches.
        let memo_key = match toggles {
            &[t] if memo => Some(t),
            _ => None,
        };
        if let Some(key) = memo_key {
            if let Some(&(g, links)) = self.probe_cache.get(&key) {
                if g == gen {
                    return (links as usize, false);
                }
            }
        }
        self.dir_scratch.clone_from(set);
        for &t in toggles {
            self.dir_scratch.toggle(t as u32 as usize);
        }
        let links = estimate_dir(
            self.strategy,
            &self.clique_masks,
            &self.interner,
            self.pattern.contention(),
            &mut self.fast_cache,
            &mut self.chi_cache,
            &self.dir_scratch,
        );
        if let Some(key) = memo_key {
            self.probe_cache.insert(key, (gen, links as u32));
        }
        (links, false)
    }

    /// The delta core behind every probe. Cancels the gathered toggles by
    /// parity (a flow crossing a resource both before and after appears
    /// twice and drops out), then re-estimates each touched slot with
    /// each direction's flows flipped. Returns the change in total links
    /// and adds every touched switch's change in incident links and live
    /// pipes to `probe_switches`. `memo` routes single-flow flips through
    /// `probe_cache`, which serves the anneal's reroutes; move probes stay
    /// out of it.
    fn probe_links_delta(&mut self, memo: bool) -> isize {
        let mut toggles = std::mem::take(&mut self.probe_toggles);
        toggles.sort_unstable();
        // A footprint is a set and a candidate path is simple, so a toggle
        // occurs at most twice; keep odd occurrences.
        let mut keep = 0;
        let mut i = 0;
        while i < toggles.len() {
            if i + 1 < toggles.len() && toggles[i + 1] == toggles[i] {
                i += 2;
            } else {
                toggles[keep] = toggles[i];
                keep += 1;
                i += 1;
            }
        }
        toggles.truncate(keep);
        let mut d_total = 0isize;
        let mut i = 0;
        while i < toggles.len() {
            // Sorted: a slot's forward toggles, then its backward ones.
            let slot = (toggles[i] >> 33) as usize;
            let run_end = |from: usize, res: usize| {
                from + toggles[from..]
                    .iter()
                    .take_while(|&&t| t >> 32 == res as u64)
                    .count()
            };
            let mid = run_end(i, slot * 2);
            let end = run_end(mid, slot * 2 + 1);
            let (new_fwd, fwd_empty) = self.flipped_dir_links(slot, false, &toggles[i..mid], memo);
            let (new_bwd, bwd_empty) = self.flipped_dir_links(slot, true, &toggles[mid..end], memo);
            let st = &self.pipe_slots[slot];
            let d_links = new_fwd.max(new_bwd) as isize - st.links as isize;
            let d_pipes = isize::from(!(fwd_empty && bwd_empty)) - isize::from(!st.is_empty());
            d_total += d_links;
            for s in [st.key.lo, st.key.hi] {
                add_switch_delta(&mut self.probe_switches, s, d_links, d_pipes, 0);
            }
            i = end;
        }
        self.probe_toggles = toggles;
        d_total
    }

    /// The exact [`Partitioning::score`] after a probed change that moves
    /// total links by `d_links`: the committed score plus each switch in
    /// `probe_switches` changing its degree excess and liveness.
    fn probed_score(&self, d_links: isize, config: &SynthesisConfig) -> (usize, usize) {
        let (base_excess, base_area) = self.score(config);
        let max_degree = config.max_degree() as isize;
        let (mut d_excess, mut d_live) = (0isize, 0isize);
        for &(s, d_incident, d_pipes, d_members) in &self.probe_switches {
            let members = self.members[s].len() as isize;
            let deg_old = members + self.incident_links[s] as isize;
            let deg_new = deg_old + d_incident + d_members;
            d_excess += (deg_new - max_degree).max(0) - (deg_old - max_degree).max(0);
            let now_live = members + d_members > 0 || self.incident_pipes[s] as isize + d_pipes > 0;
            d_live += isize::from(now_live) - isize::from(self.switch_live[s]);
        }
        (
            (base_excess as isize + d_excess) as usize,
            (base_area as isize + d_links + d_live) as usize,
        )
    }

    /// The total link estimate the partitioning would have after rerouting
    /// flow `idx` onto `new_path`, computed from the toggled footprints
    /// alone — no committed state changes. In debug builds the result is
    /// checked against a real apply-score-revert.
    pub(crate) fn probe_total_links(&mut self, idx: usize, new_path: &[usize]) -> usize {
        self.start_probe();
        self.push_probe_toggles(idx, new_path);
        let probed = (self.total_links as isize + self.probe_links_delta(true)) as usize;
        #[cfg(debug_assertions)]
        {
            let old_path = self.paths[idx].clone();
            self.set_path(idx, new_path.to_vec());
            let actual = self.total_links;
            self.set_path(idx, old_path);
            debug_assert_eq!(
                probed, actual,
                "probe_total_links diverged from full recompute"
            );
        }
        probed
    }

    /// The exact [`Partitioning::score`] the partitioning would have after
    /// rerouting flow `idx` onto `new_path`, assembled as committed score
    /// plus per-touched-pipe deltas (links, switch degree excess, pipe and
    /// switch liveness) — O(footprint), no committed state changes. In
    /// debug builds the result is checked against a real
    /// apply-score-revert (the full `C ∩ R` recompute demoted to oracle).
    pub(crate) fn probe_score(
        &mut self,
        idx: usize,
        new_path: &[usize],
        config: &SynthesisConfig,
    ) -> (usize, usize) {
        self.start_probe();
        self.push_probe_toggles(idx, new_path);
        let d_links = self.probe_links_delta(true);
        let probed = self.probed_score(d_links, config);
        #[cfg(debug_assertions)]
        {
            let old_path = self.paths[idx].clone();
            self.set_path(idx, new_path.to_vec());
            let actual = self.score(config);
            self.set_path(idx, old_path);
            debug_assert_eq!(probed, actual, "probe_score diverged from full recompute");
        }
        probed
    }

    /// The total link estimate and the exact [`Partitioning::score`] the
    /// partitioning would have after [`Partitioning::move_proc`] committed
    /// `relocations` in order — distinct processors, each to a switch
    /// other than its home. Every moved processor's flows go onto direct
    /// paths under the new homes (a flow between two moved processors
    /// counts once), each move takes one member from its old switch and
    /// gives one to its new switch, and the delta core scores the result;
    /// no committed state changes. In debug builds the result is checked
    /// against a real apply-read-undo.
    pub(crate) fn probe_move(
        &mut self,
        relocations: &[(ProcId, usize)],
        config: &SynthesisConfig,
    ) -> (usize, (usize, usize)) {
        self.start_probe();
        for (k, &(proc, to)) in relocations.iter().enumerate() {
            let from = self.home[proc.index()];
            debug_assert_ne!(from, to, "a relocation must change the home");
            add_switch_delta(&mut self.probe_switches, from, 0, 0, -1);
            add_switch_delta(&mut self.probe_switches, to, 0, 0, 1);
            for n in 0..self.proc_flows[proc.index()].len() {
                let idx = self.proc_flows[proc.index()][n];
                let flow = self.pattern.flows()[idx];
                if relocations[..k]
                    .iter()
                    .any(|&(q, _)| q == flow.src || q == flow.dst)
                {
                    continue; // gathered with the earlier processor
                }
                let home_after = |q: ProcId| {
                    relocations
                        .iter()
                        .find(|&&(r, _)| r == q)
                        .map_or(self.home[q.index()], |&(_, to)| to)
                };
                let path = [home_after(flow.src), home_after(flow.dst)];
                let direct = if path[0] == path[1] {
                    &path[..1]
                } else {
                    &path[..]
                };
                self.push_probe_toggles(idx, direct);
            }
        }
        let d_links = self.probe_links_delta(false);
        let probed = (
            (self.total_links as isize + d_links) as usize,
            self.probed_score(d_links, config),
        );
        #[cfg(debug_assertions)]
        {
            let actual = self.apply_read_undo(relocations, |p| (p.total_links, p.score(config)));
            debug_assert_eq!(probed, actual, "probe_move diverged from apply-read-undo");
        }
        probed
    }

    /// Commits `relocations` with [`Partitioning::move_proc`], reads the
    /// result, and undoes everything exactly, the touched flows' detours
    /// included — the full recompute that [`Partitioning::probe_move`]
    /// is checked against.
    #[cfg(any(test, debug_assertions))]
    fn apply_read_undo<T>(
        &mut self,
        relocations: &[(ProcId, usize)],
        read: impl FnOnce(&Self) -> T,
    ) -> T {
        let mut saved: Vec<(usize, Vec<usize>)> = Vec::new();
        for &(proc, _) in relocations {
            for &idx in &self.proc_flows[proc.index()] {
                if !saved.iter().any(|(j, _)| *j == idx) {
                    saved.push((idx, self.paths[idx].clone()));
                }
            }
        }
        let homes: Vec<(ProcId, usize)> = relocations
            .iter()
            .map(|&(proc, _)| (proc, self.home[proc.index()]))
            .collect();
        for &(proc, to) in relocations {
            self.move_proc(proc, to);
        }
        let out = read(self);
        for &(proc, home) in homes.iter().rev() {
            self.move_proc(proc, home);
        }
        self.apply_path_changes(saved);
        out
    }

    /// The endpoint home switches of flow `idx` — its direct path is
    /// `[hs]` (same switch) or `[hs, hd]`.
    pub(crate) fn direct_endpoints(&self, idx: usize) -> (usize, usize) {
        let flow = self.pattern.flows()[idx];
        (self.home[flow.src.index()], self.home[flow.dst.index()])
    }

    /// The direct path for flow `idx` under current homes.
    pub(crate) fn direct_path(&self, idx: usize) -> Vec<usize> {
        let (hs, hd) = self.direct_endpoints(idx);
        if hs == hd {
            vec![hs]
        } else {
            vec![hs, hd]
        }
    }

    /// Index of `flow` in the pattern's flow list.
    pub(crate) fn flow_idx(&self, flow: Flow) -> usize {
        self.interner.id(flow).expect("flow belongs to the pattern")
    }

    /// The switch path of the flow at index `idx`.
    pub(crate) fn path_of_idx(&self, idx: usize) -> &[usize] {
        &self.paths[idx]
    }

    /// Every flow's switch path, by flow index.
    pub(crate) fn paths(&self) -> &[Vec<usize>] {
        &self.paths
    }

    /// Every processor's home switch, by processor index.
    pub(crate) fn homes(&self) -> &[usize] {
        &self.home
    }

    /// The coloring strategy the link estimates are computed under.
    pub(crate) fn strategy(&self) -> ColoringStrategy {
        self.strategy
    }

    /// Moves `proc` to switch `to`, resetting its flows to direct paths
    /// (the paper evaluates and commits moves under direct routing). All
    /// of the processor's flows are re-pathed in one delta batch, so each
    /// pipe they touch is recolored once.
    pub(crate) fn move_proc(&mut self, proc: ProcId, to: usize) {
        let from = self.home[proc.index()];
        if from == to {
            return;
        }
        self.members[from].retain(|&p| p != proc);
        let pos = self.members[to].partition_point(|&p| p < proc);
        self.members[to].insert(pos, proc);
        self.home[proc.index()] = to;
        self.refresh_switch_live(from);
        self.refresh_switch_live(to);
        let changes: Vec<(usize, Vec<usize>)> = self.proc_flows[proc.index()]
            .iter()
            .map(|&idx| (idx, self.direct_path(idx)))
            .collect();
        self.apply_path_changes(changes);
    }

    /// Adds an empty switch (growing the incident caches with it) and
    /// returns its index.
    pub(crate) fn add_switch(&mut self) -> usize {
        self.members.push(Vec::new());
        self.incident_links.push(0);
        self.incident_pipes.push(0);
        self.switch_live.push(false);
        self.score_memo.set(None);
        // The dense pipe-lookup stride changed; re-project every known
        // slot into the wider matrix (rare: once per split).
        let n = self.members.len();
        self.pipe_stride = n;
        self.pipe_lookup.clear();
        self.pipe_lookup.resize(n * n, u32::MAX);
        for (slot, st) in self.pipe_slots.iter().enumerate() {
            self.pipe_lookup[st.key.lo * n + st.key.hi] = slot as u32;
        }
        n - 1
    }

    /// Splits switch `si` (step 5): creates a new switch, moves half of
    /// `si`'s processors to it (chosen uniformly at random), and resets the
    /// affected flows to direct paths. Returns the new switch's index.
    pub(crate) fn split(&mut self, si: usize, rng: &mut Rng) -> usize {
        let sj = self.add_switch();
        let mut movers = self.members[si].clone();
        rng.shuffle(&mut movers);
        movers.truncate(self.members[si].len() / 2);
        for proc in movers {
            self.move_proc(proc, sj);
        }
        sj
    }

    /// From-scratch link estimate of one direction (no caches) — the
    /// reference the consistency oracle compares incremental state against.
    #[cfg(test)]
    fn estimate_dir_uncached(&self, set: &BitSet) -> usize {
        match self.strategy {
            ColoringStrategy::Fast => fast_color_directed_masks(&self.clique_masks, set),
            ColoringStrategy::Exact => {
                if set.is_empty() {
                    0
                } else {
                    let g = ConflictGraph::from_flows(
                        self.interner.flows_of(set).collect(),
                        self.pattern.contention(),
                    );
                    exact_chromatic(&g).n_colors()
                }
            }
        }
    }

    /// Debug-only consistency check: pipe sets match paths, footprints
    /// match crossings, totals match from-scratch estimates, liveness
    /// caches match scans.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self) {
        let mut expect: BTreeMap<PipeKey, (BitSet, BitSet)> = BTreeMap::new();
        for (idx, path) in self.paths.iter().enumerate() {
            let flow = self.pattern.flows()[idx];
            assert_eq!(path[0], self.home[flow.src.index()], "path start mismatch");
            assert_eq!(
                *path.last().unwrap(),
                self.home[flow.dst.index()],
                "path end mismatch"
            );
            for w in path.windows(2) {
                let key = PipeKey::new(w[0], w[1]);
                let e = expect.entry(key).or_default();
                if key.forward_from(w[0]) {
                    e.0.insert(idx);
                } else {
                    e.1.insert(idx);
                }
            }
        }
        assert_eq!(self.live_pipes.len(), expect.len(), "live pipe sets differ");
        let mut total = 0;
        for (key, (fwd, bwd)) in &expect {
            let slot = *self
                .live_pipes
                .get(key)
                .unwrap_or_else(|| panic!("pipe {key} missing from live view"));
            let st = &self.pipe_slots[slot];
            assert_eq!(st.key, *key, "slot key of {key}");
            assert_eq!(&st.forward, fwd, "forward set of {key}");
            assert_eq!(&st.backward, bwd, "backward set of {key}");
            assert_eq!(st.fwd_n, fwd.len(), "forward count of {key}");
            assert_eq!(st.bwd_n, bwd.len(), "backward count of {key}");
            assert_eq!(
                st.fwd_links,
                self.estimate_dir_uncached(&st.forward),
                "fwd links of {key}"
            );
            assert_eq!(
                st.bwd_links,
                self.estimate_dir_uncached(&st.backward),
                "bwd links of {key}"
            );
            assert_eq!(st.links, st.fwd_links.max(st.bwd_links), "links of {key}");
            total += st.links;
        }
        for (slot, st) in self.pipe_slots.iter().enumerate() {
            if self.live_pipes.get(&st.key) != Some(&slot) {
                assert!(
                    st.is_empty() && st.links == 0,
                    "drained slot {slot} not zeroed"
                );
            }
            assert_eq!(
                self.pipe_lookup[st.key.lo * self.pipe_stride + st.key.hi],
                slot as u32,
                "slot {slot} not mirrored in the dense lookup"
            );
        }
        assert_eq!(self.pipe_stride, self.members.len(), "stale pipe stride");
        assert_eq!(
            self.pipe_lookup.iter().filter(|&&c| c != u32::MAX).count(),
            self.pipe_slots.len(),
            "dense lookup has stray entries"
        );
        assert_eq!(self.total_links, total, "total_links out of sync");
        for (idx, path) in self.paths.iter().enumerate() {
            let mut fp = BitSet::new();
            for w in path.windows(2) {
                let key = PipeKey::new(w[0], w[1]);
                let slot = self.pipe_lookup[key.lo * self.pipe_stride + key.hi];
                assert_ne!(slot, u32::MAX, "crossed pipe {key} has no slot");
                fp.insert(slot as usize * 2 + usize::from(!key.forward_from(w[0])));
            }
            assert_eq!(self.footprints[idx], fp, "footprint of flow {idx}");
        }
        for s in 0..self.members.len() {
            let links: usize = self
                .live_pipes
                .iter()
                .filter(|(k, _)| k.touches(s))
                .map(|(_, &slot)| self.pipe_slots[slot].links)
                .sum();
            let count = self.live_pipes.keys().filter(|k| k.touches(s)).count();
            assert_eq!(self.incident_links[s], links, "incident_links of {s}");
            assert_eq!(self.incident_pipes[s], count, "incident_pipes of {s}");
            assert_eq!(
                self.switch_live[s],
                !self.members[s].is_empty() || count > 0,
                "switch_live of {s}"
            );
        }
        assert_eq!(
            self.live_switch_count,
            self.switch_live.iter().filter(|&&b| b).count(),
            "live_switch_count out of sync"
        );
    }
}

/// The Main Partitioning Algorithm (paper Appendix): recursively bisects
/// switches until every switch meets the design constraints, improving each
/// split with processor moves and `Best_Route`, then repairing remaining
/// violations by rerouting and refining the feasible result.
pub(crate) fn run(p: &mut Partitioning, config: &SynthesisConfig) {
    p.set_strategy(config.coloring());
    let mut rng = Rng::seed_from_u64(config.seed());
    let mut acceptor = Acceptor::new(config.acceptance());

    // Outer cycle: splitting, route repair, and refinement feed each
    // other (repair can make an unsplittable violation feasible; refine
    // can merge once feasible; merging may expose a better split).
    let mut last_score = None;
    for _outer in 0..4 {
        split_loop(p, config, &mut rng, &mut acceptor);
        if !p.violating(config).is_empty() && config.indirect_routing() {
            route_opt::repair(p, config);
        }
        refine(p, config);
        let score = p.score(config);
        if score.0 == 0 || last_score == Some(score) {
            break; // feasible, or a fixpoint nothing further will move
        }
        last_score = Some(score);
    }
}

/// Steps 2–9 of the paper's algorithm: bisect violating switches until all
/// constraints hold or nothing remains splittable.
fn split_loop(
    p: &mut Partitioning,
    config: &SynthesisConfig,
    rng: &mut Rng,
    acceptor: &mut Acceptor,
) {
    for _round in 0..config.max_rounds() {
        p.stats.rounds += 1;
        p.stats.cost_history.push(p.total_links());

        // Step 4: a random constraint-violating switch that can be split.
        let splittable: Vec<usize> = p
            .violating(config)
            .into_iter()
            .filter(|&s| p.members(s).len() >= 2)
            .collect();
        let Some(&si) = rng.choose(&splittable) else {
            break; // all constraints met, or nothing splittable remains
        };

        // Step 5: split.
        let sj = p.split(si, rng);
        p.stats.splits += 1;

        // Steps 6-9: alternate route optimization and processor moves.
        for _ in 0..MAX_MOVE_ROUNDS {
            if config.indirect_routing() {
                route_opt::best_route(p, si, sj);
            }
            let before = p.total_links();
            let Some(candidate) = moves::best_move(p, si, sj, config) else {
                break;
            };
            let accepted = candidate.cost() < before
                || matches!(config.acceptance(), crate::AcceptanceRule::Anneal { .. })
                    && acceptor.accepts(before, candidate.cost(), rng);
            if !accepted {
                break;
            }
            candidate.commit(p);
            p.stats.moves_accepted += 1;
        }
        let _ = rng.next_u64(); // decorrelate successive rounds
    }
}

/// Post-constraint refinement: once every switch satisfies the design
/// constraints, sweep over switch pairs running the move/swap descent with
/// merging allowed, accepting only configurations that keep the
/// constraints satisfied and strictly reduce `links + live switches`
/// (both chip-area units). This is an extension over the published
/// algorithm (which stops at the first feasible configuration; DESIGN.md
/// §5b). It always runs: no configuration switch turns it off, so
/// `reproduce ablation` has no row for it.
fn refine(p: &mut Partitioning, config: &SynthesisConfig) {
    if !p.violating(config).is_empty() {
        // Merging is only meaningful between feasible configurations: from
        // a violating state, total-excess descent degenerates into a few
        // huge switches (fewer pipes, hopeless degrees). Leave violating
        // states to the split loop and route repair.
        return;
    }
    let n = p.n_switches();
    for _pass in 0..4 {
        let mut improved = false;
        for si in 0..n {
            for sj in si + 1..n {
                if p.members(si).is_empty() && p.members(sj).is_empty() {
                    continue;
                }
                // Descend between this pair while profitable. Commit
                // reproduces the trial state exactly, so the score
                // computed inside refine_move holds afterwards; starting
                // from excess 0, lexicographic descent keeps excess 0.
                for _ in 0..MAX_MOVE_ROUNDS {
                    let current = p.score(config);
                    match moves::refine_move(p, si, sj, config) {
                        Some((cand, score)) if score < current => {
                            cand.commit(p);
                            p.stats.moves_accepted += 1;
                            improved = true;
                        }
                        _ => break,
                    }
                }
            }
        }
        // Refinement starts at excess 0 and commits only strict
        // lexicographic improvements, so no switch violates here and
        // route repair would have nothing to do.
        debug_assert!(p.violating(config).is_empty());
        if !improved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocsyn_model::{Phase, PhaseSchedule};

    fn pattern4() -> AppPattern {
        let mut s = PhaseSchedule::new(4);
        s.push(Phase::from_flows([(0usize, 1usize), (2, 3)]).unwrap())
            .unwrap();
        s.push(Phase::from_flows([(0usize, 2usize), (1, 3)]).unwrap())
            .unwrap();
        AppPattern::from_schedule(&s)
    }

    #[test]
    fn megaswitch_has_no_pipes() {
        let p = Partitioning::megaswitch(&pattern4()).unwrap();
        assert_eq!(p.n_switches(), 1);
        assert_eq!(p.total_links(), 0);
        assert_eq!(p.members(0).len(), 4);
        assert_eq!(p.live_switches(), 1);
        p.assert_consistent();
    }

    #[test]
    fn empty_pattern_is_rejected() {
        let empty = AppPattern::from_parts(
            0,
            [],
            nocsyn_model::ContentionSet::new(),
            nocsyn_model::CliqueSet::new(),
        );
        assert!(matches!(
            Partitioning::megaswitch(&empty),
            Err(SynthError::EmptyPattern)
        ));
    }

    #[test]
    fn split_moves_half_and_updates_pipes() {
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        let mut rng = Rng::seed_from_u64(0);
        let sj = p.split(0, &mut rng);
        assert_eq!(sj, 1);
        assert_eq!(p.members(0).len() + p.members(1).len(), 4);
        assert_eq!(p.members(1).len(), 2);
        p.assert_consistent();
        // With procs split 2/2, at least one app flow crosses the pipe.
        assert!(p.total_links() >= 1);
    }

    #[test]
    fn move_proc_resets_paths_to_direct() {
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        let mut rng = Rng::seed_from_u64(1);
        p.split(0, &mut rng);
        let proc = p.members(0)[0];
        p.move_proc(proc, 1);
        p.assert_consistent();
        for &idx in &p.proc_flows[proc.index()] {
            assert_eq!(p.paths[idx], p.direct_path(idx));
        }
    }

    #[test]
    fn set_path_with_via_updates_three_pipes() {
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        let mut rng = Rng::seed_from_u64(2);
        p.split(0, &mut rng);
        // Force a third switch by moving one proc.
        p.add_switch();
        let proc = p.members(0)[0];
        p.move_proc(proc, 2);
        p.assert_consistent();

        // Find a flow between switch 2 and another switch and detour it.
        let flow_idx = p.proc_flows[proc.index()][0];
        let direct = p.paths[flow_idx].clone();
        if direct.len() == 2 {
            let (a, b) = (direct[0], direct[1]);
            let via = (0..3).find(|&v| v != a && v != b).unwrap();
            p.set_path(flow_idx, vec![a, via, b]);
            p.assert_consistent();
            assert_eq!(p.path(p.pattern.flows()[flow_idx]).unwrap().len(), 3);
            // And back.
            p.set_path(flow_idx, direct);
            p.assert_consistent();
        }
    }

    #[test]
    fn probe_score_matches_apply_for_random_reroutes() {
        // Exercise the probe against apply-and-score over a mix of
        // detours, straightenings and no-op-adjacent shapes. (The probe's
        // own debug oracle re-checks every call too; this keeps the
        // guarantee alive even with debug assertions disabled.)
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        let config = SynthesisConfig::new().with_max_degree(2);
        let mut rng = Rng::seed_from_u64(9);
        p.split(0, &mut rng);
        p.split(0, &mut rng);
        p.add_switch();
        for trial in 0..200 {
            let idx = rng.gen_range(0..p.paths.len());
            let direct = p.direct_path(idx);
            let candidate = if direct.len() == 2 && rng.gen_bool(0.6) {
                let via = rng.gen_range(0..p.n_switches());
                if via == direct[0] || via == direct[1] {
                    direct
                } else {
                    vec![direct[0], via, direct[1]]
                }
            } else {
                direct
            };
            if candidate == p.path_of_idx(idx) {
                continue;
            }
            let probed_links = p.probe_total_links(idx, &candidate);
            let probed_score = p.probe_score(idx, &candidate, &config);
            let original = p.path_of_idx(idx).to_vec();
            p.set_path(idx, candidate.clone());
            assert_eq!(probed_links, p.total_links(), "links, trial {trial}");
            assert_eq!(probed_score, p.score(&config), "score, trial {trial}");
            // Commit some candidates, revert others, to vary the base.
            if rng.gen_bool(0.5) {
                p.set_path(idx, original);
            }
            p.assert_consistent();
        }
    }

    /// A seeded 16-processor schedule: four phases, each a random cyclic
    /// shift over a shuffled processor order (every processor sends once
    /// and receives once per phase).
    fn pattern16(rng: &mut Rng) -> AppPattern {
        let mut s = PhaseSchedule::new(16);
        for _ in 0..4 {
            let mut order: Vec<usize> = (0..16).collect();
            rng.shuffle(&mut order);
            let shift = rng.gen_range(1..16usize);
            let flows = (0..16).map(|i| (order[i], order[(i + shift) % 16]));
            s.push(Phase::from_flows(flows).unwrap()).unwrap();
        }
        AppPattern::from_schedule(&s)
    }

    /// Detours a random cut flow through a third switch, if it picks one.
    fn install_detour(p: &mut Partitioning, rng: &mut Rng) {
        let idx = rng.gen_range(0..p.paths.len());
        let direct = p.direct_path(idx);
        let via = rng.gen_range(0..p.n_switches());
        if direct.len() == 2 && !direct.contains(&via) {
            p.set_path(idx, vec![direct[0], via, direct[1]]);
        }
    }

    #[test]
    fn probe_move_matches_apply_for_random_moves_and_swaps() {
        // The move probe against a real apply (move_proc per relocation)
        // over singles, swaps of unrelated and of communicating processors
        // and moves that empty a switch, from states with detours
        // installed, under both coloring strategies. (The probe's own
        // debug oracle re-checks every call too; this keeps the guarantee
        // alive with debug assertions disabled.)
        for (seed, strategy) in [(21, ColoringStrategy::Fast), (22, ColoringStrategy::Exact)] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut p = Partitioning::megaswitch(&pattern16(&mut rng)).unwrap();
            p.set_strategy(strategy);
            let config = SynthesisConfig::new().with_max_degree(5);
            let s1 = p.split(0, &mut rng);
            p.split(0, &mut rng);
            p.split(s1, &mut rng);
            p.add_switch(); // empty: pipes to it hold no slot yet
            crate::route_opt::best_route(&mut p, 0, s1);
            for _ in 0..6 {
                install_detour(&mut p, &mut rng);
            }
            p.assert_consistent();
            let (mut talking_swaps, mut emptying) = (0, 0);
            for trial in 0..300 {
                let n = p.pattern.n_procs();
                let a = ProcId(rng.gen_range(0..n));
                let relocations = match rng.gen_range(0..4usize) {
                    0 => {
                        // A communicating pair on two switches trades homes.
                        let flow = p.pattern.flows()[rng.gen_range(0..p.paths.len())];
                        let (hs, hd) = (p.home(flow.src), p.home(flow.dst));
                        if hs == hd {
                            continue;
                        }
                        talking_swaps += 1;
                        vec![(flow.src, hd), (flow.dst, hs)]
                    }
                    1 => {
                        let b = ProcId(rng.gen_range(0..n));
                        if p.home(a) == p.home(b) {
                            continue;
                        }
                        vec![(a, p.home(b)), (b, p.home(a))]
                    }
                    _ => {
                        let to = rng.gen_range(0..p.n_switches());
                        if to == p.home(a) {
                            continue;
                        }
                        if p.members(p.home(a)).len() == 1 {
                            emptying += 1;
                        }
                        vec![(a, to)]
                    }
                };
                let probed = p.probe_move(&relocations, &config);
                let applied =
                    p.apply_read_undo(&relocations, |p| (p.total_links(), p.score(&config)));
                assert_eq!(
                    probed, applied,
                    "{strategy:?} trial {trial}: {relocations:?}"
                );
                // Commit some candidates, leave others undone, to vary the
                // base.
                if rng.gen_bool(0.5) {
                    for &(q, to) in &relocations {
                        p.move_proc(q, to);
                    }
                }
                if rng.gen_bool(0.3) {
                    install_detour(&mut p, &mut rng);
                }
                p.assert_consistent();
            }
            assert!(
                talking_swaps > 0 && emptying > 0,
                "{talking_swaps} {emptying}"
            );
        }
    }

    #[test]
    fn degree_counts_members_and_incident_links() {
        let mut p = Partitioning::megaswitch(&pattern4()).unwrap();
        assert_eq!(p.degree(0), 4);
        let mut rng = Rng::seed_from_u64(3);
        p.split(0, &mut rng);
        let link_sum: usize = p.pipes().map(|(_, l)| l).sum();
        assert_eq!(p.degree(0) + p.degree(1), 4 + 2 * link_sum);
    }

    #[test]
    fn run_reaches_constraints_on_small_pattern() {
        let pattern = pattern4();
        let mut p = Partitioning::megaswitch(&pattern).unwrap();
        let config = SynthesisConfig::new().with_max_degree(3).with_seed(11);
        run(&mut p, &config);
        assert!(
            p.violating(&config).is_empty(),
            "degrees: {:?}",
            (0..p.n_switches()).map(|s| p.degree(s)).collect::<Vec<_>>()
        );
        p.assert_consistent();
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let pattern = pattern4();
        let config = SynthesisConfig::new().with_max_degree(3).with_seed(5);
        let mut a = Partitioning::megaswitch(&pattern).unwrap();
        let mut b = Partitioning::megaswitch(&pattern).unwrap();
        run(&mut a, &config);
        run(&mut b, &config);
        assert_eq!(a.home, b.home);
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.total_links(), b.total_links());
    }

    #[test]
    fn impossible_constraint_terminates() {
        let pattern = pattern4();
        let mut p = Partitioning::megaswitch(&pattern).unwrap();
        // Degree 0 can never be satisfied; the run must still terminate.
        let config = SynthesisConfig::new()
            .with_max_degree(0)
            .with_max_rounds(50)
            .with_seed(1);
        run(&mut p, &config);
        assert!(!p.violating(&config).is_empty());
        assert!(p.stats.rounds <= 50);
    }

    #[test]
    fn pipe_key_invariants() {
        let k = PipeKey::new(5, 2);
        assert_eq!((k.lo(), k.hi()), (2, 5));
        assert!(k.forward_from(2));
        assert!(!k.forward_from(5));
        assert!(k.touches(5) && k.touches(2) && !k.touches(3));
        assert_eq!(k.to_string(), "P(2,5)");
    }

    #[test]
    #[should_panic(expected = "distinct switches")]
    fn pipe_key_rejects_self() {
        let _ = PipeKey::new(3, 3);
    }
}
