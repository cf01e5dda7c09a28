//! Theorem 1: the sufficient condition for contention freedom.

use std::fmt;

use nocsyn_model::{ContentionSet, Flow};

use crate::{Channel, ConflictSet, RouteTable};

/// One violation of the contention-free condition: a pair of flows that is
/// both in the application's potential contention set `C` and in the
/// network's resource conflict set `R`, with the channels they fight over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionWitness {
    /// First flow of the colliding pair.
    pub flow_a: Flow,
    /// Second flow of the colliding pair.
    pub flow_b: Flow,
    /// The directed channels shared by their routes.
    pub shared: Vec<Channel>,
}

impl fmt::Display for ContentionWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} and {} share", self.flow_a, self.flow_b)?;
        for ch in &self.shared {
            write!(f, " {ch}")?;
        }
        Ok(())
    }
}

/// Outcome of checking Theorem 1 over a concrete application and network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContentionReport {
    witnesses: Vec<ContentionWitness>,
}

impl ContentionReport {
    /// Whether `C ∩ R = ∅`, i.e. the sufficient condition for
    /// contention-free communication holds.
    pub fn is_contention_free(&self) -> bool {
        self.witnesses.is_empty()
    }

    /// The violating pairs, if any.
    pub fn witnesses(&self) -> &[ContentionWitness] {
        &self.witnesses
    }

    /// Number of violating pairs.
    pub fn len(&self) -> usize {
        self.witnesses.len()
    }

    /// Whether there are no violations (alias of
    /// [`ContentionReport::is_contention_free`] for collection symmetry).
    pub fn is_empty(&self) -> bool {
        self.witnesses.is_empty()
    }
}

impl fmt::Display for ContentionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_contention_free() {
            write!(f, "contention-free: C ∩ R = ∅")
        } else {
            writeln!(
                f,
                "{} potential contention(s) mapped to shared links:",
                self.len()
            )?;
            for w in &self.witnesses {
                writeln!(f, "  {w}")?;
            }
            Ok(())
        }
    }
}

/// Checks Theorem 1 of the paper: the application with potential
/// communication contention set `contention` is contention-free on the
/// network realized by `routes` if `C ∩ R = ∅`.
///
/// Instead of materializing all of `R`, each pair of `C` is tested directly
/// against the two routes — `C` is the smaller set by construction and every
/// element of the intersection must come from it.
///
/// Flows in `C` with no route in the table are ignored (they carry no
/// traffic on this network); synthesis guarantees every application flow is
/// routed before verification.
///
/// ```
/// use nocsyn_model::{Message, ProcId, Trace};
/// use nocsyn_topo::{regular, verify_contention_free};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut trace = Trace::new(4);
/// trace.push(Message::new(ProcId(0), ProcId(3), 0, 10)?)?;
/// trace.push(Message::new(ProcId(1), ProcId(3), 0, 10)?)?;
///
/// let (_, crossbar_routes) = regular::crossbar(4)?;
/// // Two messages into one destination share its ejection link even on a
/// // crossbar: no network can make this pattern contention-free.
/// let report = verify_contention_free(&trace.contention_set(), &crossbar_routes);
/// assert!(!report.is_contention_free());
/// # Ok(())
/// # }
/// ```
pub fn verify_contention_free(contention: &ContentionSet, routes: &RouteTable) -> ContentionReport {
    let mut witnesses = Vec::new();
    for pair in contention.iter() {
        let (a, b) = (pair.first(), pair.second());
        let (Some(ra), Some(rb)) = (routes.route(a), routes.route(b)) else {
            continue;
        };
        let shared = ra.shared_channels(rb);
        if !shared.is_empty() {
            witnesses.push(ContentionWitness {
                flow_a: a,
                flow_b: b,
                shared,
            });
        }
    }
    ContentionReport { witnesses }
}

/// Convenience: checks Theorem 1 against a pre-materialized conflict set
/// instead of raw routes (no witness channels available this way).
pub fn intersects(contention: &ContentionSet, conflicts: &ConflictSet) -> bool {
    contention
        .iter()
        .any(|p| conflicts.conflicts(p.first(), p.second()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular;
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
    fn crossbar_is_contention_free_for_permutations() {
        let t = concurrent_trace(&[(0, 1), (1, 0), (2, 3), (3, 2)], 4);
        let (_, routes) = regular::crossbar(4).unwrap();
        let report = verify_contention_free(&t.contention_set(), &routes);
        assert!(report.is_contention_free());
        assert!(report.is_empty());
    }

    #[test]
    fn mesh_column_sharing_is_witnessed() {
        // On a 2x2 DOR mesh, 0->3 and 1->3 share the column channel into
        // switch 3 and the ejection link of proc 3.
        let t = concurrent_trace(&[(0, 3), (1, 3)], 4);
        let (_, routes) = regular::mesh(2, 2).unwrap();
        let report = verify_contention_free(&t.contention_set(), &routes);
        assert!(!report.is_contention_free());
        assert_eq!(report.len(), 1);
        let w = &report.witnesses()[0];
        assert!(!w.shared.is_empty());
    }

    #[test]
    fn sequential_messages_never_contend() {
        let mut t = Trace::new(4);
        t.push(Message::new(ProcId(0), ProcId(3), 0, 10).unwrap())
            .unwrap();
        t.push(Message::new(ProcId(1), ProcId(3), 20, 30).unwrap())
            .unwrap();
        let (_, routes) = regular::mesh(2, 2).unwrap();
        let report = verify_contention_free(&t.contention_set(), &routes);
        assert!(report.is_contention_free());
    }

    #[test]
    fn unrouted_flows_are_ignored() {
        let t = concurrent_trace(&[(0, 3), (1, 3)], 4);
        let report = verify_contention_free(&t.contention_set(), &RouteTable::new());
        assert!(report.is_contention_free());
    }

    #[test]
    fn intersects_agrees_with_witness_check() {
        let t = concurrent_trace(&[(0, 3), (1, 3), (2, 0)], 4);
        let c = t.contention_set();
        for make in [regular::crossbar, |n| regular::mesh(2, n / 2)] {
            let (_, routes) = make(4).unwrap();
            let r = ConflictSet::from_routes(&routes);
            assert_eq!(
                intersects(&c, &r),
                !verify_contention_free(&c, &routes).is_contention_free()
            );
        }
    }
}
