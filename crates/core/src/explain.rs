//! Human-readable synthesis explanations.
//!
//! A synthesis result is a network and routes; this module reconstructs
//! the *why* for review: which processors share each switch, which flows
//! cross each pipe in which direction, and how the pipe's link count
//! relates to the worst concurrent demand (the `Fast_Color` bound).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use nocsyn_coloring::fast_color;
use nocsyn_model::Flow;
use nocsyn_topo::NodeRef;

use crate::{AppPattern, SynthesisResult};

/// Renders a per-switch, per-pipe breakdown of a synthesis result.
///
/// ```
/// use nocsyn_model::{Phase, PhaseSchedule};
/// use nocsyn_synth::{explain, synthesize_attempt, AppPattern, SynthesisRequest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sched = PhaseSchedule::new(4);
/// sched.push(Phase::from_flows([(0usize, 2usize), (1, 3)])?)?;
/// let pattern = AppPattern::from_schedule(&sched);
/// let request = SynthesisRequest::builder(pattern.clone()).build()?;
/// let result = synthesize_attempt(&request, 0)?;
/// let text = explain(&result, &pattern);
/// assert!(text.contains("switches"));
/// # Ok(())
/// # }
/// ```
pub fn explain(result: &SynthesisResult, pattern: &AppPattern) -> String {
    let net = &result.network;
    let mut out = String::new();
    let _ = writeln!(out, "{}", result.report);
    let _ = writeln!(out);

    // Switch membership.
    let _ = writeln!(out, "switches:");
    for s in net.switch_ids() {
        let attached: Vec<String> = net
            .switch(s)
            .expect("iterating ids")
            .attached()
            .iter()
            .map(|p| p.to_string())
            .collect();
        let _ = writeln!(
            out,
            "  {s}: [{}] — {} of {} ports used",
            attached.join(", "),
            net.degree(s),
            net.degree(s).max(result.report.max_degree)
        );
    }

    // Pipes: group parallel links by switch pair and recover crossing
    // flows from the route table.
    let mut pipe_links: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    for link in net.link_ids() {
        let l = net.link(link).expect("iterating links");
        if let (NodeRef::Switch(a), NodeRef::Switch(b)) = (l.a(), l.b()) {
            let key = (a.index().min(b.index()), a.index().max(b.index()));
            *pipe_links.entry(key).or_insert(0) += 1;
        }
    }
    let mut crossing: BTreeMap<(usize, usize), (BTreeSet<Flow>, BTreeSet<Flow>)> = BTreeMap::new();
    for (flow, route) in result.routes.iter() {
        for ch in route.iter() {
            let Ok((tail, head)) = net.channel_endpoints(ch) else {
                continue;
            };
            if let (NodeRef::Switch(a), NodeRef::Switch(b)) = (tail, head) {
                let key = (a.index().min(b.index()), a.index().max(b.index()));
                let entry = crossing.entry(key).or_default();
                if a.index() <= b.index() {
                    entry.0.insert(flow);
                } else {
                    entry.1.insert(flow);
                }
            }
        }
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "pipes:");
    for (&(a, b), &links) in &pipe_links {
        let (fwd, bwd) = crossing.get(&(a, b)).cloned().unwrap_or_default();
        let demand = fast_color(pattern.cliques(), &fwd, &bwd);
        let _ = writeln!(
            out,
            "  S{a} -- S{b}: {links} link(s); worst concurrent demand {demand}"
        );
        let list = |set: &BTreeSet<Flow>| {
            set.iter()
                .map(Flow::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        };
        if !fwd.is_empty() {
            let _ = writeln!(out, "      S{a}->S{b}: {}", list(&fwd));
        }
        if !bwd.is_empty() {
            let _ = writeln!(out, "      S{b}->S{a}: {}", list(&bwd));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_attempt, SynthesisRequest};
    use nocsyn_model::{Phase, PhaseSchedule};

    fn result_and_pattern() -> (SynthesisResult, AppPattern) {
        let mut sched = PhaseSchedule::new(6);
        sched
            .push(Phase::from_flows([(0usize, 3usize), (1, 4), (2, 5)]).unwrap())
            .unwrap();
        sched
            .push(Phase::from_flows([(3usize, 0usize), (4, 1), (5, 2)]).unwrap())
            .unwrap();
        let pattern = AppPattern::from_schedule(&sched);
        let request = SynthesisRequest::builder(pattern.clone())
            .max_degree(4)
            .seed(8)
            .build()
            .unwrap();
        (synthesize_attempt(&request, 0).unwrap(), pattern)
    }

    #[test]
    fn explanation_covers_every_pipe_and_switch() {
        let (result, pattern) = result_and_pattern();
        let text = explain(&result, &pattern);
        for s in result.network.switch_ids() {
            assert!(text.contains(&format!("{s}:")), "missing switch {s}");
        }
        assert!(text.contains("pipes:"));
        assert!(text.contains("worst concurrent demand"));
    }

    #[test]
    fn demand_never_exceeds_provisioned_links() {
        // The explanation's recomputed demand must be covered by the
        // materialized link counts (that is the whole point of formal
        // coloring).
        let (result, pattern) = result_and_pattern();
        let text = explain(&result, &pattern);
        let mut checked = 0;
        for line in text.lines() {
            let Some((head, demand_str)) = line.split_once(" link(s); worst concurrent demand ")
            else {
                continue;
            };
            let links: usize = head
                .rsplit(':')
                .next()
                .expect("rsplit yields at least one piece")
                .trim()
                .parse()
                .expect("link count is an integer");
            let demand: usize = demand_str.trim().parse().expect("demand is an integer");
            assert!(demand <= links, "under-provisioned pipe: {line}");
            checked += 1;
        }
        assert!(checked > 0, "no pipe lines found in:\n{text}");
    }
}
