//! Workspace-wide error-uniformity contract: every public error type
//! implements `std::error::Error` (so it rides in a `Box<dyn Error>`),
//! renders a non-empty lowercase `Display`, and exposes a stable
//! kebab-case `fingerprint()` that never embeds input-derived values.

use std::error::Error;

use nocsyn::engine::JobError;
use nocsyn::model::{parse_schedule, Flow, ModelError, ProcId};
use nocsyn::sim::SimError;
use nocsyn::synth::{RequestBuildError, SynthError};
use nocsyn::topo::TopoError;
use nocsyn::workloads::WorkloadError;
use nocsyn_check::CaseError;

/// A fingerprint is a stable identifier, not a message: short,
/// lowercase, kebab-case, no digits smuggled in from the input.
fn assert_fingerprint_shape(fp: &str) {
    assert!(!fp.is_empty());
    assert!(fp.len() <= 40, "fingerprint too long: {fp}");
    assert!(
        fp.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
        "fingerprint not kebab-case: {fp}"
    );
}

/// Every error crosses an API boundary as a trait object without losing
/// its message.
fn assert_boxable(err: impl Error + Send + Sync + 'static, fingerprint: &str) {
    assert_fingerprint_shape(fingerprint);
    let display = err.to_string();
    let boxed: Box<dyn Error + Send + Sync> = Box::new(err);
    assert!(!boxed.to_string().is_empty());
    assert_eq!(boxed.to_string(), display);
}

#[test]
fn every_public_error_type_is_uniform() {
    let e = ModelError::SelfLoop { proc: ProcId(3) };
    assert_boxable(e.clone(), e.fingerprint());

    let e = TopoError::Unreachable {
        flow: Flow::from_indices(0, 1),
    };
    assert_boxable(e.clone(), e.fingerprint());

    let e = SimError::CycleCapExceeded { cycles: 10 };
    assert_boxable(e.clone(), e.fingerprint());

    let e = SynthError::EmptyPattern;
    assert_boxable(e.clone(), e.fingerprint());

    let e = RequestBuildError::ZeroRestarts;
    assert_boxable(e, e.fingerprint());
    let e = RequestBuildError::TooManyRestarts { requested: 1 << 20 };
    assert_boxable(e, e.fingerprint());
    let e = RequestBuildError::ZeroClusters;
    assert_boxable(e, e.fingerprint());

    let e = WorkloadError::NotPowerOfTwo { n_procs: 9 };
    assert_boxable(e.clone(), e.fingerprint());

    let e = JobError::Panicked {
        message: "boom".into(),
    };
    assert_boxable(e.clone(), e.fingerprint());

    let e = parse_schedule("procs 0\n").unwrap_err();
    assert_boxable(e.clone(), e.fingerprint());

    let e = CaseError::Fail("property violated".into());
    assert_boxable(e.clone(), e.fingerprint());
}

#[test]
fn fingerprints_never_embed_values() {
    // Two errors of the same class but different payloads share one id.
    let a = WorkloadError::TooFewProcs {
        n_procs: 1,
        minimum: 4,
    };
    let b = WorkloadError::TooFewProcs {
        n_procs: 3,
        minimum: 16,
    };
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_ne!(a.to_string(), b.to_string());

    let a = TopoError::Unreachable {
        flow: Flow::from_indices(0, 1),
    };
    let b = TopoError::Unreachable {
        flow: Flow::from_indices(7, 2),
    };
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn wrapper_errors_delegate_fingerprint_and_source() {
    // SynthError::Materialize wraps TopoError and keeps it as `source()`;
    // JobError::Synth delegates its fingerprint to the synthesis error.
    let inner = TopoError::DegenerateShape { what: "x" };
    let synth = SynthError::from(inner.clone());
    assert_eq!(synth.fingerprint(), "materialize");
    let src = synth.source().expect("materialize keeps its cause");
    assert_eq!(src.to_string(), inner.to_string());

    let job = JobError::from(synth.clone());
    assert_eq!(job.fingerprint(), synth.fingerprint());
    assert_eq!(
        job.source().expect("job error keeps its cause").to_string(),
        synth.to_string()
    );

    // Parse errors delegate to their kind.
    let e = parse_schedule("procs 99999999999\n").unwrap_err();
    assert_eq!(e.fingerprint(), e.kind.fingerprint());
    assert_eq!(e.fingerprint(), "limit-exceeded");
}

#[test]
fn fingerprints_are_distinct_within_a_type() {
    let ids = [
        ModelError::InvertedInterval {
            start: nocsyn::model::Time::new(5),
            finish: nocsyn::model::Time::new(1),
        }
        .fingerprint(),
        ModelError::SelfLoop { proc: ProcId(0) }.fingerprint(),
        ModelError::ProcOutOfRange {
            proc: ProcId(9),
            n_procs: 4,
        }
        .fingerprint(),
        ModelError::DuplicateSourceInPhase { proc: ProcId(0) }.fingerprint(),
        ModelError::DuplicateDestinationInPhase { proc: ProcId(0) }.fingerprint(),
    ];
    let unique: std::collections::BTreeSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "colliding fingerprints: {ids:?}");
}
