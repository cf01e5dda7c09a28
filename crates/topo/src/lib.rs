//! Network topology substrate for on-chip interconnect synthesis.
//!
//! Implements the *system* and *path conflict* halves of the Ho & Pinkston
//! (HPCA 2003) model:
//!
//! * [`Network`] — a strongly-connected directed multigraph of switches and
//!   processors (Definition 1). Switch pairs may be joined by multiple
//!   parallel links; every processor attaches to exactly one switch through
//!   one full-duplex link.
//! * [`Route`] / [`RouteTable`] — a deterministic *source-based routing
//!   function* `F : P × P → P(L)` (Definition 6), mapping each flow to an
//!   ordered path of directed [`Channel`]s.
//! * [`ConflictSet`] — the *network resource conflict set* `R`
//!   (Definition 7): flow pairs whose routing paths share a channel.
//! * [`verify_contention_free`] — Theorem 1: `C ∩ R = ∅ ⇒ contention-free`,
//!   with witnesses when the check fails.
//! * [`regular`] — generators for the baseline topologies of the paper's
//!   evaluation: 2-D mesh with dimension-order routing, 2-D torus, and the
//!   fully-connected crossbar ("mega-switch").
//!
//! # Example
//!
//! ```
//! use nocsyn_model::Flow;
//! use nocsyn_topo::regular;
//!
//! # fn main() -> Result<(), nocsyn_topo::TopoError> {
//! // A 4x4 mesh of processor tiles with dimension-order routing.
//! let (net, routes) = regular::mesh(4, 4)?;
//! assert_eq!(net.n_switches(), 16);
//! assert!(net.is_strongly_connected());
//!
//! let route = routes.route(Flow::from_indices(0, 15)).unwrap();
//! // 0 -> 3 along x, then down to 15: 6 switch-to-switch hops + inject/eject.
//! assert_eq!(route.len(), 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cdg;
mod certificate;
mod conflict;
mod diff;
pub mod dot;
mod error;
mod ids;
mod network;
pub mod regular;
mod route;
mod shortest;
mod verify;

pub use cdg::{is_deadlock_free, ChannelDependencyGraph};
pub use certificate::build_certificate;
pub use conflict::ConflictSet;
pub use diff::NetworkDelta;
pub use dot::{loaded_to_dot, route_to_dot, to_dot};
pub use error::TopoError;
pub use ids::{Channel, Direction, LinkId, NodeRef, SwitchId};
pub use network::{Link, Network, Switch};
pub use route::{Route, RouteTable};
pub use shortest::{shortest_route, shortest_route_avoiding, switch_distances};
pub use verify::{intersects, verify_contention_free, ContentionReport, ContentionWitness};
