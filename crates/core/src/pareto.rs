//! Multi-objective exploration: the Pareto frontier of a constraint
//! sweep.
//!
//! The paper's conclusion points at "optimization over multiple
//! objectives" as the natural extension: a designer rarely wants one
//! network, but the *trade-off curve* between switch cost, wiring and the
//! port budget the floorplan can afford. The sweep itself (one request
//! per degree bound) runs in the `nocsyn-engine` crate; this module holds
//! the point type and the dominance filter.

use crate::SynthesisResult;

/// One point of a constraint sweep.
#[derive(Debug)]
pub struct ParetoPoint {
    /// The degree constraint this point was synthesized under.
    pub max_degree: usize,
    /// Switches in the result.
    pub n_switches: usize,
    /// Switch-to-switch links in the result.
    pub n_links: usize,
    /// Whether the constraint was actually met.
    pub feasible: bool,
    /// The full synthesis result.
    pub result: SynthesisResult,
}

impl ParetoPoint {
    /// Whether this point dominates `other`: feasible, no worse in every
    /// objective (degree budget, switches, links) and better in at least
    /// one.
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        if !self.feasible || !other.feasible {
            return self.feasible && !other.feasible;
        }
        let no_worse = self.max_degree <= other.max_degree
            && self.n_switches <= other.n_switches
            && self.n_links <= other.n_links;
        let better = self.max_degree < other.max_degree
            || self.n_switches < other.n_switches
            || self.n_links < other.n_links;
        no_worse && better
    }
}

/// Keeps the non-dominated feasible points of a sweep, sorted by degree
/// bound. If nothing is feasible every point survives, so the caller
/// always gets something to inspect.
pub fn pareto_filter(mut points: Vec<ParetoPoint>) -> Vec<ParetoPoint> {
    if points.iter().any(|p| p.feasible) {
        let dominated: Vec<bool> = points
            .iter()
            .map(|p| points.iter().any(|q| !std::ptr::eq(p, q) && q.dominates(p)))
            .collect();
        let mut keep = Vec::new();
        for (point, dominated) in points.into_iter().zip(dominated) {
            if point.feasible && !dominated {
                keep.push(point);
            }
        }
        points = keep;
    }
    points.sort_by_key(|p| p.max_degree);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize_attempt, AppPattern, SynthesisRequest};
    use nocsyn_model::{Phase, PhaseSchedule};

    fn pattern8() -> AppPattern {
        let mut s = PhaseSchedule::new(8);
        s.push(Phase::from_flows([(0usize, 1usize), (2, 3), (4, 5), (6, 7)]).unwrap())
            .unwrap();
        s.push(Phase::from_flows([(0usize, 4usize), (1, 5), (2, 6), (3, 7)]).unwrap())
            .unwrap();
        AppPattern::from_schedule(&s)
    }

    #[test]
    fn dominance_relation() {
        let request = SynthesisRequest::builder(pattern8())
            .seed(1)
            .build()
            .unwrap();
        let r = synthesize_attempt(&request, 0, 0).unwrap();
        let make = |d, s, l, f| ParetoPoint {
            max_degree: d,
            n_switches: s,
            n_links: l,
            feasible: f,
            result: r.clone(),
        };
        assert!(make(4, 2, 1, true).dominates(&make(5, 2, 1, true)));
        assert!(make(4, 2, 1, true).dominates(&make(4, 3, 2, true)));
        assert!(!make(4, 2, 1, true).dominates(&make(4, 2, 1, true)));
        assert!(!make(5, 2, 1, true).dominates(&make(4, 3, 2, true)));
        assert!(make(9, 9, 9, true).dominates(&make(3, 1, 0, false)));
        assert!(!make(3, 1, 0, false).dominates(&make(9, 9, 9, true)));
    }

    #[test]
    fn filter_keeps_nondominated_points_sorted_by_degree() {
        let request = SynthesisRequest::builder(pattern8())
            .seed(2)
            .build()
            .unwrap();
        let r = synthesize_attempt(&request, 0, 0).unwrap();
        let make = |d, s, l, f| ParetoPoint {
            max_degree: d,
            n_switches: s,
            n_links: l,
            feasible: f,
            result: r.clone(),
        };
        let degrees = |points: Vec<ParetoPoint>| -> Vec<usize> {
            points.iter().map(|p| p.max_degree).collect()
        };
        // The (6, 3, 4) point is dominated by (5, 2, 3); the infeasible
        // point is dominated by every feasible one.
        let front = pareto_filter(vec![
            make(8, 1, 0, true),
            make(6, 3, 4, true),
            make(4, 9, 9, false),
            make(5, 2, 3, true),
        ]);
        assert_eq!(degrees(front), [5, 8]);
        // With nothing feasible, every point survives.
        let all = pareto_filter(vec![make(4, 1, 1, false), make(3, 1, 1, false)]);
        assert_eq!(degrees(all), [3, 4]);
    }
}
