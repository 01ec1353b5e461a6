//! # parcomm-fault — deterministic fault injection for the parcomm stack
//!
//! Chaos engineering for a discrete-event simulator has one extra
//! obligation the real world never grants: **replayability**. Every fault a
//! [`FaultPlan`] injects is derived from the plan's own seed through
//! dedicated RNGs (or deterministic counters), never from the simulation's
//! main jitter RNG, so:
//!
//! - the same `(sim seed, FaultPlan)` pair always reproduces the identical
//!   faulted trace, byte for byte — a chaos failure is a unit test, not a
//!   flake;
//! - [`FaultPlan::none`] arms nothing: zero extra events, zero extra RNG
//!   draws, and a run digest **byte-identical** to a build without the
//!   fault machinery.
//!
//! ## Fault classes
//!
//! | Class | Injected at | Recovery |
//! |---|---|---|
//! | transient link drop / latency spike | `netsim` fabric | retransmit / absorb — latency only, never integrity |
//! | NIC outage window | `netsim` routing | re-route + re-stripe over surviving rails; UCX put retry with backoff if the whole node is dark |
//! | progression-engine stall | `mpisim` PE daemon | bounded: delayed puts, then catches up |
//! | progression-engine crash | `mpisim` PE daemon | recovery off: watchdog surfaces [`MpiError::ProgressionHalted`]; recovery on: host lease-detects the dead engine, drains its queue, and replays the epoch |
//! | delayed / lost device flag write | `gpusim` stream emission | delayed: absorbed; lost: watchdog surfaces a typed timeout |
//! | delayed / lost device shmem signal | `gpusim` stream emission (symmetric-heap channels) | delayed: absorbed; lost: epoch replay re-issues the put host-side when recovery is armed, typed timeout otherwise |
//! | symmetric-heap registration failure | `parcomm-shmem` heap | the channel demotes to the Progression Engine with a typed `ShmemError` denial |
//! | IPC revocation mid-epoch | `ucxsim` rkey | Kernel Copy falls back to the Progression Engine per `MPIX_Pready` |
//!
//! Unsurvivable classes require an armed watchdog
//! ([`FaultPlan::with_watchdog`]) to convert the would-be hang into a typed
//! [`MpiError`]; the [`chaos`] helpers arm one by default.
//!
//! ## Cells and campaigns
//!
//! Every chaos axis runs through one descriptor, [`Cell`]: the
//! [`Workload`] (partitioned allreduce, device-initiated p2p, or the mux
//! MoE layer at a channel budget), node count, [`TopologyShape`], stripe
//! count, copy mechanism, and whether the recovery ladder is armed.
//! [`Cell::run`] executes one plan on it. The [`coverage`] module is the
//! one campaign engine: it runs a [`Corpus`] — the fixed seed × rate ×
//! stripes grid, or the coverage-guided search — on the sweep pool,
//! checks each cell against the recovery contract, and bisects violations
//! to minimal failing plans.
//!
//! ## Quickstart
//!
//! ```
//! use parcomm_fault::{chaos, FaultPlan};
//!
//! // Seeded chaos: transient drops + spikes + one NIC down-window.
//! let plan = FaultPlan::chaos(0xC4A05, 0.3).expect("rate in [0, 1]");
//! let a = chaos::run_allreduce(7, &plan, 1);
//! let b = chaos::run_allreduce(7, &plan, 1);
//! assert_eq!(a.digest, b.digest, "same (seed, plan) => same trace");
//! assert!(a.survived(), "chaos defaults are survivable");
//!
//! // The baseline is untouched: FaultPlan::none() arms nothing.
//! assert_ne!(chaos::run_allreduce(7, &FaultPlan::none(), 1).digest, a.digest);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod coverage;

pub use chaos::{Cell, TopologyShape, Workload};
pub use coverage::{
    CampaignError, Corpus, CoverageCampaignConfig, CoverageOutcome, CoverageReport, FaultClass,
    FaultLayer,
};
pub use parcomm_mpi::{FaultPlan, MpiError, PlanError};
