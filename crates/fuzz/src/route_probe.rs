//! Fuzz target `route_edit_probe`: grammar-aware random route-edit
//! scripts differentially tested against the exact Theorem-1 checker.
//!
//! The input bytes are decoded as a script of structured edits over a
//! fixed 3×3 mesh — re-route a flow along its dimension-order path,
//! detour it around a link or a switch, or unroute it — applied in
//! lock-step to an [`IncrementalChecker`] and to a plain mirror table.
//! After **every** edit the incremental verdict is compared against a
//! from-scratch [`verify_contention_free`] recompute on the mirror; any
//! divergence panics, which the fuzz runner records as a crash with a
//! `NOCSYN_FUZZ_SEED` replay recipe.
//!
//! Unlike the parse targets this one has no reject path: every byte
//! string decodes to some script, so coverage is pure oracle pressure.

use std::collections::BTreeSet;

use nocsyn_model::{ContentionSet, Flow};
use nocsyn_topo::{
    regular, shortest_route_avoiding, verify_contention_free, IncrementalChecker, LinkId, Network,
    RouteTable, SwitchId,
};

use crate::target::{CaseReport, FuzzTarget};

/// Hard cap on decoded edits per case, so a budget-sized input cannot
/// turn one case into an unbounded differential soak.
const MAX_EDITS: usize = 128;

/// The fixed differential fixture: one network, its dimension-order
/// baseline table, the flow vocabulary, and a contention set mixing
/// cross pairs with self-pairs.
fn fixture() -> (Network, RouteTable, Vec<Flow>, ContentionSet) {
    let (net, baseline) = regular::mesh(3, 3).expect("3x3 mesh builds");
    let flows: Vec<Flow> = baseline.flows().collect();
    let mut contention = ContentionSet::new();
    // A spread of flow pairs (stride 7 walks the whole vocabulary) plus
    // two self-pairs, so the oracle sees both witness shapes.
    for k in 0..24 {
        contention.insert(flows[k], flows[(k * 7 + 1) % flows.len()]);
    }
    contention.insert(flows[0], flows[0]);
    contention.insert(flows[5], flows[5]);
    (net, baseline, flows, contention)
}

/// Decodes and applies one 3-byte edit to the checker and the mirror.
fn apply_edit(
    net: &Network,
    baseline: &RouteTable,
    flows: &[Flow],
    checker: &mut IncrementalChecker,
    mirror: &mut RouteTable,
    edit: &[u8],
) {
    let flow = flows[edit[0] as usize % flows.len()];
    let param = edit[2] as usize;
    let routed = match edit[1] % 4 {
        // Baseline dimension-order route.
        0 => Some(
            baseline
                .route(flow)
                .expect("baseline routes every flow")
                .clone(),
        ),
        // Detour around one link (removal when that disconnects).
        1 => {
            let avoid: BTreeSet<LinkId> = [LinkId(param % net.n_links())].into();
            shortest_route_avoiding(net, flow, &avoid, &BTreeSet::new()).ok()
        }
        // Unroute the flow.
        2 => None,
        // Detour around one switch (removal when that disconnects).
        _ => {
            let avoid: BTreeSet<SwitchId> = [SwitchId(param % net.n_switches())].into();
            shortest_route_avoiding(net, flow, &BTreeSet::new(), &avoid).ok()
        }
    };
    match routed {
        Some(route) => {
            checker.set_route(flow, route.clone());
            mirror.insert(flow, route);
        }
        None => {
            checker.clear_route(flow);
            mirror.remove(flow);
        }
    }
}

/// Builds the `route_edit_probe` target.
pub fn route_edit_probe_target() -> FuzzTarget {
    let (net, baseline, flows, contention) = fixture();
    FuzzTarget::new("route_edit_probe", route_edit_corpus(), move |input| {
        let ticks = input.len() as u64;
        let mut checker = IncrementalChecker::with_routes(&contention, &baseline);
        let mut mirror = baseline.clone();
        let mut edits = 0u64;
        for edit in input.chunks_exact(3).take(MAX_EDITS) {
            apply_edit(&net, &baseline, &flows, &mut checker, &mut mirror, edit);
            edits += 1;
            // The differential oracle: a divergence is a kernel bug and
            // panics, which the runner triages as a crash.
            let exact = verify_contention_free(&contention, &mirror);
            assert_eq!(
                checker.report(),
                exact,
                "incremental Theorem-1 state diverged from the exact checker"
            );
        }
        CaseReport::accepted(ticks, edits)
    })
}

/// Seed corpus: edit scripts that reach every edit kind, the self-pair
/// flows, and a detour of every flow around the centre switch.
pub fn route_edit_corpus() -> Vec<Vec<u8>> {
    vec![
        // Flow 0 through each kind: baseline, link detour, unroute,
        // switch detour.
        vec![0, 0, 0, 0, 1, 3, 0, 2, 0, 0, 3, 4],
        // Self-pair flow 5: detoured, unrouted, restored.
        vec![5, 1, 7, 5, 2, 0, 5, 0, 0],
        (0u8..24).flat_map(|flow| [flow, 3, 4]).collect(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbitrary_bytes_are_accepted_and_counted() {
        let t = route_edit_probe_target();
        let input: Vec<u8> = (0u16..600).map(|b| (b % 251) as u8).collect();
        let report = t.run(&input);
        assert_eq!(report.rejected, None);
        assert_eq!(report.ticks, input.len() as u64);
        assert_eq!(report.output_units, (input.len() / 3).min(MAX_EDITS) as u64);
    }

    #[test]
    fn empty_and_short_inputs_do_nothing() {
        let t = route_edit_probe_target();
        assert_eq!(t.run(&[]).output_units, 0);
        assert_eq!(t.run(&[1, 2]).output_units, 0);
    }

    #[test]
    fn edit_count_is_capped() {
        let t = route_edit_probe_target();
        let input = vec![7u8; 3 * (MAX_EDITS + 50)];
        assert_eq!(t.run(&input).output_units, MAX_EDITS as u64);
    }

    #[test]
    fn every_opcode_reaches_a_consistent_end_state() {
        // One edit per opcode on the same flow; the target's internal
        // oracle asserts per-step, so reaching the end is the test.
        let t = route_edit_probe_target();
        let script: Vec<u8> = [[3, 0, 0], [3, 1, 4], [3, 2, 0], [3, 3, 4]].concat();
        assert_eq!(t.run(&script).output_units, 4);
    }
}
