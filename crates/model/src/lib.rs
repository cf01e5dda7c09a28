//! Communication-pattern and contention modeling for application-specific
//! on-chip interconnect synthesis.
//!
//! This crate implements the *system, time and path conflict models* of
//! Ho & Pinkston, **"A Methodology for Designing Efficient On-Chip
//! Interconnects on Well-Behaved Communication Patterns"** (HPCA 2003),
//! Section 2:
//!
//! * [`Message`] — a point-to-point communication with source, destination,
//!   starting time and finishing time (Definition 2).
//! * [`Trace`] — the set of all messages of an application, i.e. its
//!   *communication pattern*.
//! * [`overlaps`] / [`OverlapRelation`] — the time-overlap relation `O`
//!   between messages (Definition 3).
//! * [`ContentionSet`] — the *potential communication contention set* `C`
//!   (Definition 4): source–destination pairs of potentially colliding
//!   messages.
//! * [`CliqueSet`] — the *communication clique set* `K` (Definition 5) and
//!   its reduction to the *maximum clique set*, which drives the fast
//!   coloring bound used during synthesis.
//! * [`PhaseSchedule`] — the phase-parallel abstraction the paper uses to
//!   extract contention periods from programs whose processes issue the same
//!   communication-library calls in lock step (Section 3, "one library call
//!   = one contention period").
//!
//! The *path* half of the conflict model (routing functions and the network
//! resource conflict set `R` of Definitions 6–7) lives in `nocsyn-topo`,
//! because it depends on a concrete network.
//!
//! # Example
//!
//! ```
//! use nocsyn_model::{Message, ProcId, Trace};
//!
//! # fn main() -> Result<(), nocsyn_model::ModelError> {
//! let mut trace = Trace::new(4);
//! trace.push(Message::new(ProcId(0), ProcId(1), 0, 10)?)?;
//! trace.push(Message::new(ProcId(2), ProcId(3), 5, 15)?)?;
//! trace.push(Message::new(ProcId(1), ProcId(2), 20, 30)?)?;
//!
//! // Messages 0 and 1 overlap in time; message 2 does not overlap anything.
//! let contention = trace.contention_set();
//! assert_eq!(contention.len(), 1);
//!
//! // Two potential contention periods -> two maximal cliques.
//! let cliques = trace.maximum_clique_set();
//! assert_eq!(cliques.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cert;
mod clique;
mod contention;
mod error;
pub mod fingerprint;
mod flowset;
mod hash;
mod ids;
pub mod json;
mod message;
mod overlap;
mod phase;
mod routeset;
mod skew;
pub mod text;
mod time;
mod trace;

pub use cert::{CertError, CertWitness, Certificate, CERT_SCHEMA};
pub use clique::{Clique, CliqueSet};
pub use contention::{ContentionSet, FlowPair};
pub use error::ModelError;
pub use fingerprint::{canonical_schedule, canonical_trace, sha256, CanonicalForm, Digest, Sha256};
pub use flowset::{FlowInterner, FlowSet, Ones};
pub use hash::{FxBuildHasher, FxHasher};
pub use ids::{Flow, MessageId, ProcId};
pub use message::Message;
pub use overlap::{overlaps, OverlapRelation};
pub use phase::{Phase, PhaseSchedule};
pub use routeset::{ResourceInterner, ResourceOnes, RouteSet};
pub use skew::SkewModel;
pub use text::{
    format_schedule, format_trace, parse_schedule, parse_trace, ParseErrorKind, ParseLimits,
    ParseOptions, ParseScheduleError, Pattern,
};
pub use time::{Time, TimeInterval};
pub use trace::Trace;
