//! # amac — multi-message broadcast with abstract MAC layers and unreliable links
//!
//! A full Rust reproduction of *"Multi-Message Broadcast with Abstract MAC
//! Layers and Unreliable Links"* (Ghaffari, Kantor, Lynch, Newport,
//! PODC 2014; arXiv:1405.1671): the dual-graph network model, the standard
//! and enhanced abstract MAC layers with adversarial message schedulers,
//! the BMMB and FMMB algorithms, the Section 3.3 lower-bound
//! constructions, and an experiment harness regenerating every cell of the
//! paper's Figure 1.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`graph`] — dual graphs `(G, G′)`, grey-zone embeddings, topology
//!   generators ([`amac_graph`]);
//! * [`sim`] — deterministic discrete-event substrate ([`amac_sim`]);
//! * [`mac`] — the abstract MAC layer runtime, scheduler policies, and the
//!   model-conformance validator ([`amac_mac`]);
//! * [`store`] — durable trace store: versioned on-disk event format and
//!   deterministic replay ([`amac_store`]);
//! * [`obs`] — deterministic observability: sim-time metric histograms
//!   and Chrome-trace span timelines ([`amac_obs`]);
//! * [`core`] — the MMB problem, BMMB, FMMB, and bound formulas
//!   ([`amac_core`]);
//! * [`lower`] — executable lower bounds ([`amac_lower`]);
//! * [`proto`] — protocol services layered on the MAC abstraction:
//!   crash-tolerant consensus and leader election ([`amac_proto`]);
//! * [`mod@bench`] — parameter sweeps, fits, and table rendering for the
//!   Figure 1 reproduction ([`amac_bench`]);
//! * [`check`] — bounded exhaustive model checking of the runtime's
//!   schedule space with counterexample shrinking ([`amac_check`]).
//!
//! ## Quickstart
//!
//! ```
//! use amac::core::{run_bmmb, Assignment, RunOptions};
//! use amac::graph::{generators, DualGraph, NodeId};
//! use amac::mac::{policies::LazyPolicy, MacConfig};
//!
//! let dual = DualGraph::reliable(generators::line(10)?);
//! let report = run_bmmb(
//!     &dual,
//!     MacConfig::from_ticks(2, 40),
//!     &Assignment::all_at(NodeId::new(0), 2),
//!     LazyPolicy::new().prefer_duplicates(),
//!     &RunOptions::default(),
//! );
//! assert!(report.solved_and_valid());
//! # Ok::<(), amac::graph::GraphError>(())
//! ```
//!
//! See the `examples/` directory for runnable scenarios and `amac-bench`
//! for the paper-table reproduction harness.

/// Dual-graph network substrate (re-export of [`amac_graph`]).
pub use amac_graph as graph;

/// Deterministic discrete-event simulation substrate (re-export of
/// [`amac_sim`]).
pub use amac_sim as sim;

/// The abstract MAC layer: runtime, policies, validator (re-export of
/// [`amac_mac`]).
pub use amac_mac as mac;

/// Durable trace store: on-disk event format, recording observer, and
/// deterministic replay (re-export of [`amac_store`]).
pub use amac_store as store;

/// Deterministic observability: sim-time metric histograms and span
/// timelines (re-export of [`amac_obs`]).
pub use amac_obs as obs;

/// MMB problem and algorithms: BMMB, FMMB, bounds (re-export of
/// [`amac_core`]).
pub use amac_core as core;

/// Executable lower-bound constructions (re-export of [`amac_lower`]).
pub use amac_lower as lower;

/// Protocol services on the abstract MAC layer: crash-tolerant consensus
/// and leader election (re-export of [`amac_proto`]).
pub use amac_proto as proto;

/// Experiment harness for the Figure 1 reproduction (re-export of
/// [`amac_bench`]).
pub use amac_bench as bench;

/// Bounded exhaustive model checker over the runtime's nondeterminism
/// (re-export of [`amac_check`]).
pub use amac_check as check;
