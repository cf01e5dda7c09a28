//! Certificate emission: extracting the Theorem-1 evidence object from a
//! routed network.
//!
//! [`build_certificate`] is the one place the per-route resource sets
//! and contention witnesses of a [`Certificate`](nocsyn_model::Certificate)
//! are derived from real routes. Its verdict and witnesses are
//! [`verify_contention_free`]'s, rendered into channel labels, so the
//! certificate agrees with the verifier by construction.

use nocsyn_model::{CertWitness, Certificate, ContentionSet, Digest, FlowPair};

use crate::{verify_contention_free, Channel, RouteTable};

/// Channel labels, sorted as strings and without repeats: the order the
/// certificate schema requires.
fn labels(channels: impl IntoIterator<Item = Channel>) -> Vec<String> {
    let mut labels: Vec<String> = channels.into_iter().map(|ch| ch.to_string()).collect();
    labels.sort_unstable();
    labels.dedup();
    labels
}

/// Builds the contention-freedom certificate for `routes` against an
/// application with `n_procs` processes and potential contention set
/// `contention`.
///
/// A witness is recorded for every contention pair with both ends routed
/// whose resource sets intersect — the pairs
/// [`verify_contention_free`] reports — so `contention_free` is the
/// verifier's verdict on the same inputs. `job` optionally binds the
/// certificate to a serve cache key (the job-fingerprint digest).
pub fn build_certificate(
    n_procs: usize,
    contention: &ContentionSet,
    routes: &RouteTable,
    job: Option<Digest>,
) -> Certificate {
    let witnesses: Vec<CertWitness> = verify_contention_free(contention, routes)
        .witnesses()
        .iter()
        .map(|w| CertWitness {
            pair: FlowPair::new(w.flow_a, w.flow_b),
            shared: labels(w.shared.iter().copied()),
        })
        .collect();
    Certificate {
        n_procs,
        contention_free: witnesses.is_empty(),
        routes: routes
            .iter()
            .map(|(flow, route)| (flow, labels(route.iter())))
            .collect(),
        witnesses,
        job: job.map(|d| d.to_hex()),
        binding: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular;
    use nocsyn_model::{Message, ParseLimits, ProcId, Trace};

    fn concurrent_trace(flows: &[(usize, usize)], n: usize) -> Trace {
        let mut t = Trace::new(n);
        for &(s, d) in flows {
            t.push(Message::new(ProcId(s), ProcId(d), 0, 10).unwrap())
                .unwrap();
        }
        t
    }

    #[test]
    fn certificate_verdict_matches_the_verifier() {
        for flows in [
            vec![(0usize, 1usize), (1, 0), (2, 3), (3, 2)],
            vec![(0, 3), (1, 3)],
        ] {
            let t = concurrent_trace(&flows, 4);
            let (_, routes) = regular::mesh(2, 2).unwrap();
            let contention = t.contention_set();
            let report = verify_contention_free(&contention, &routes);
            let cert = build_certificate(4, &contention, &routes, None);
            assert_eq!(cert.contention_free, report.is_contention_free());
            assert_eq!(cert.witnesses.len(), report.len());
            let text = cert.to_json();
            let back = Certificate::parse(&text, &ParseLimits::default()).expect("parses");
            assert_eq!(back.to_json(), text);
        }
    }

    #[test]
    fn route_labels_are_sorted_and_cover_every_routed_flow() {
        let t = concurrent_trace(&[(0, 3), (1, 2)], 4);
        let (_, routes) = regular::torus(2, 2).unwrap();
        let cert = build_certificate(4, &t.contention_set(), &routes, None);
        assert_eq!(cert.routes.len(), routes.len());
        for (flow, chans) in &cert.routes {
            assert!(chans.windows(2).all(|w| w[0] < w[1]));
            let route = routes.route(*flow).expect("routed");
            assert_eq!(chans.len(), route.channel_set().len());
        }
    }

    #[test]
    fn unrouted_contention_pairs_produce_no_witness() {
        let t = concurrent_trace(&[(0, 3), (1, 3)], 4);
        let cert = build_certificate(4, &t.contention_set(), &RouteTable::new(), None);
        assert!(cert.witnesses.is_empty());
        assert!(cert.contention_free);
    }
}
