//! `nocsyn` — contention-aware synthesis of application-specific on-chip
//! interconnects.
//!
//! Facade crate re-exporting the whole workspace. See the individual crates
//! for details; `README.md` has the architecture overview.

#![forbid(unsafe_code)]

pub mod cli;

pub mod prelude {
    //! The curated single-import surface for typical programs:
    //! `use nocsyn::prelude::*;` covers characterizing an application,
    //! synthesizing a network for it (a [`SynthesisRequest`] run by the
    //! [`Engine`]), verifying contention-freedom, simulating it, and
    //! batching jobs. Specialized items (Graphviz rendering, regular
    //! topologies, energy models, fuzzing) stay behind their module paths.
    //!
    //! Where two crates export the same name (`Engine` exists in both the
    //! batch engine and the simulator core), the prelude carries the
    //! batch [`Engine`]; reach the other as `nocsyn::sim::Engine`.
    pub use nocsyn_engine::{
        CollectSink, Engine, EngineEvent, EventSink, Job, JobOutcome, JobStatus, JsonLinesSink,
    };
    pub use nocsyn_floorplan::place;
    pub use nocsyn_model::{
        parse_schedule, parse_trace, BitSet, Flow, FlowInterner, ParseLimits, ParseOptions, Phase,
        PhaseSchedule, ProcId, Trace,
    };
    pub use nocsyn_sim::{AppDriver, RoutePolicy, SimConfig};
    pub use nocsyn_synth::{
        AppPattern, ColoringStrategy, SynthesisConfig, SynthesisMode, SynthesisRequest,
        SynthesisResult,
    };
    pub use nocsyn_topo::{verify_contention_free, Network};
    pub use nocsyn_workloads::{Benchmark, WorkloadParams};
}

pub use nocsyn_certify as certify;
pub use nocsyn_coloring as coloring;
pub use nocsyn_engine as engine;
pub use nocsyn_faults as faults;
pub use nocsyn_floorplan as floorplan;
pub use nocsyn_model as model;
pub use nocsyn_serve as serve;
pub use nocsyn_sim as sim;
pub use nocsyn_synth as synth;
pub use nocsyn_topo as topo;
pub use nocsyn_workloads as workloads;
