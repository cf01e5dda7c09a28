//! Fuzz target `synthesis_request`: the request builder under arbitrary
//! decoded knobs.
//!
//! Each case decodes the input bytes into a small pattern plus every
//! request-level knob (seed, restarts, max degree, mode, cluster count)
//! and drives [`SynthesisRequest::builder`] with them. The oracle is the
//! builder's public contract:
//!
//! * building never panics, whatever the knobs (a panic is recorded as a
//!   crash by the runner);
//! * `restarts(0)` is rejected with the typed `zero-restarts`
//!   fingerprint — never silently clamped;
//! * `Decomposed { clusters: Some(0) }` is rejected with
//!   `zero-clusters` (after the restart check, matching `build`'s
//!   documented precedence);
//! * an accepted request's [`canonical_form`] digest is invariant under
//!   the *order* the builder setters were applied in — the cache-key
//!   property the serve daemon relies on.
//!
//! [`canonical_form`]: SynthesisRequest::canonical_form

use nocsyn_model::{Flow, Phase, PhaseSchedule};
use nocsyn_synth::{AppPattern, RequestBuildError, SynthesisMode, SynthesisRequest};

use crate::target::{CaseReport, FuzzTarget};

/// Decoded knobs for one fuzz case.
struct Knobs {
    pattern: AppPattern,
    seed: u64,
    restarts: usize,
    max_degree: usize,
    mode: SynthesisMode,
}

/// Decodes the raw input into builder knobs. Total: every byte string
/// decodes to *some* knob set, so mutation always reaches the builder.
fn decode(input: &[u8]) -> Knobs {
    let byte = |i: usize| input.get(i).copied().unwrap_or(0);
    let n_procs = 2 + (byte(0) % 8) as usize;
    let mut sched = PhaseSchedule::new(n_procs);
    let mut flows = Vec::new();
    for pair in input.get(8..).unwrap_or(&[]).chunks(2).take(8) {
        let src = (pair[0] as usize) % n_procs;
        let dst = (pair.get(1).copied().unwrap_or(1) as usize) % n_procs;
        if src != dst {
            flows.push(Flow::from_indices(src, dst));
        }
    }
    flows.sort_unstable();
    flows.dedup();
    if let Ok(phase) = Phase::from_flows(flows) {
        let _ = sched.push(phase);
    }
    let seed = u64::from_le_bytes([
        byte(1),
        byte(2),
        byte(3),
        byte(4),
        byte(5),
        byte(6),
        byte(7),
        0,
    ]);
    let restarts = (byte(2) % 5) as usize; // 0 hit ~20% of cases
    let max_degree = 2 + (byte(3) % 8) as usize;
    let clusters = (byte(5) % 4) as usize; // 0 hit ~25% of decomposed cases
    let mode = match byte(4) % 3 {
        0 => SynthesisMode::Flat,
        1 => SynthesisMode::Decomposed { clusters: None },
        _ => SynthesisMode::Decomposed {
            clusters: Some(clusters),
        },
    };
    Knobs {
        pattern: AppPattern::from_schedule(&sched),
        seed,
        restarts,
        max_degree,
        mode,
    }
}

/// Builds the request applying the setters in one of two orders chosen
/// by `reversed` — the canonical form must not notice the difference.
fn build(knobs: &Knobs, reversed: bool) -> Result<SynthesisRequest, RequestBuildError> {
    let builder = SynthesisRequest::builder(knobs.pattern.clone());
    let builder = if reversed {
        builder
            .mode(knobs.mode)
            .max_degree(knobs.max_degree)
            .restarts(knobs.restarts)
            .seed(knobs.seed)
    } else {
        builder
            .seed(knobs.seed)
            .restarts(knobs.restarts)
            .max_degree(knobs.max_degree)
            .mode(knobs.mode)
    };
    builder.build()
}

/// Built-in target: `SynthesisRequestBuilder::build` with the typed
/// rejection and order-invariance oracles.
pub fn synthesis_request_target() -> FuzzTarget {
    FuzzTarget::new("synthesis_request", request_corpus(), |input| {
        let ticks = input.len() as u64;
        let knobs = decode(input);
        match build(&knobs, false) {
            Err(err) => {
                // Typed rejections, in build()'s documented precedence.
                let expected = if knobs.restarts == 0 {
                    RequestBuildError::ZeroRestarts
                } else {
                    RequestBuildError::ZeroClusters
                };
                assert_eq!(err, expected, "unexpected rejection for decoded knobs");
                if knobs.restarts == 0 {
                    assert_eq!(err.fingerprint(), "zero-restarts");
                } else {
                    assert_eq!(knobs.mode, SynthesisMode::Decomposed { clusters: Some(0) });
                    assert_eq!(err.fingerprint(), "zero-clusters");
                }
                CaseReport::rejected(ticks, err.fingerprint())
            }
            Ok(request) => {
                assert_ne!(knobs.restarts, 0, "restarts=0 must never build");
                // Setter order must not leak into the cache key.
                let reordered = build(&knobs, true).expect("same knobs, same verdict");
                assert_eq!(
                    request.canonical_form().digest(),
                    reordered.canonical_form().digest(),
                    "canonical form must be setter-order invariant"
                );
                assert_eq!(request.restarts().get(), knobs.restarts);
                assert_eq!(request.config().max_degree(), knobs.max_degree);
                assert_eq!(request.mode(), knobs.mode);
                CaseReport::accepted(ticks, request.canonical_form().len() as u64)
            }
        }
    })
}

/// Seed corpus of knob encodings (see `decode`): one per mode, each
/// with a restart count the builder accepts.
pub fn request_corpus() -> Vec<Vec<u8>> {
    vec![
        // Flat, 4 procs, 1 restart, flows 0->1 and 2->3.
        vec![2, 9, 1, 3, 0, 0, 0, 0, 0, 1, 2, 3],
        // Decomposed with an automatic cluster count, 8 procs, a chain.
        vec![6, 1, 2, 2, 1, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5],
        // Decomposed into two clusters.
        vec![6, 7, 3, 5, 2, 2, 0, 0, 0, 7, 7, 0],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_classifies_decoded_corners() {
        let target = synthesis_request_target();
        // byte(2) drives restarts (mod 5); zero hits the typed rejection.
        let zero_restarts = [0u8, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(target.run(&zero_restarts).rejected, Some("zero-restarts"));
        // restarts nonzero, mode byte 2 => explicit clusters, byte(5)=0.
        let zero_clusters = [0u8, 0, 1, 0, 2, 0, 0, 0];
        assert_eq!(target.run(&zero_clusters).rejected, Some("zero-clusters"));
        // restarts nonzero, flat mode: accepted.
        let flat = [0u8, 0, 1, 0, 0, 0, 0, 0, 3, 4, 5, 6];
        assert_eq!(target.run(&flat).rejected, None);
        // Arbitrary junk never panics.
        for len in 0..32 {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            target.run(&junk);
        }
    }
}
