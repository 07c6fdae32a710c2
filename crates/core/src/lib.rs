//! # amac-core — multi-message broadcast algorithms
//!
//! The algorithmic heart of the PODC 2014 reproduction: the
//! **multi-message broadcast (MMB)** problem and the paper's two
//! algorithms, running over the abstract MAC layer of [`amac_mac`].
//!
//! * [`Bmmb`] — Basic Multi-Message Broadcast (Section 3): FIFO flooding
//!   with duplicate suppression, for the *standard* MAC layer. Analyzed
//!   bounds: `O((D+k)·F_ack)` for arbitrary `G′` (Theorem 3.1),
//!   `O(D·F_prog + r·k·F_ack)` for `r`-restricted `G′` (Theorem 3.2), and
//!   the exact Theorem 3.16 deadline in [`bounds`].
//! * [`Fmmb`] — Fast Multi-Message Broadcast (Section 4): MIS + gather +
//!   overlay spread in the *enhanced* MAC layer with grey-zone `G′`,
//!   achieving `O((D log n + k log n + log³ n)·F_prog)` w.h.p.
//! * [`Assignment`] / [`CompletionTracker`] — problem definition:
//!   assignments, delivery tracking, per-component completion.
//! * [`bounds`] — closed-form formulas for every Figure 1 cell.
//! * [`run_bmmb`] / [`run_fmmb`] — one-call experiment harnesses with
//!   model-conformance validation.
//! * [`RunOptions`] / [`Instruments`] — what a run observes, and the one
//!   place that attaches those observers (streaming validator,
//!   `.amactrace` recorder, metrics) to a runtime and seals them into an
//!   [`InstrumentReport`]; every harness, the `amac-proto` services
//!   included, goes through it. Span timelines are rebuilt from a
//!   recording (`repro replay FILE --observer spans`).
//!
//! ## Quick start
//!
//! ```
//! use amac_core::{run_bmmb, Assignment, RunOptions};
//! use amac_graph::{generators, DualGraph, NodeId};
//! use amac_mac::{policies::LazyPolicy, MacConfig};
//!
//! // Flood 3 messages from node 0 down a 12-node line under the
//! // worst-case scheduler; the run is checked against the MAC model.
//! let dual = DualGraph::reliable(generators::line(12)?);
//! let report = run_bmmb(
//!     &dual,
//!     MacConfig::from_ticks(2, 40),
//!     &Assignment::all_at(NodeId::new(0), 3),
//!     LazyPolicy::new().prefer_duplicates(),
//!     &RunOptions::default(),
//! );
//! assert!(report.solved_and_valid());
//! println!("completed at t = {}", report.completion_ticks());
//! # Ok::<(), amac_graph::GraphError>(())
//! ```

mod bmmb;
pub mod bounds;
mod fmmb;
mod harness;
mod mmb;

pub use bmmb::Bmmb;
pub use fmmb::{run_fmmb, Fmmb, FmmbPacket, FmmbParams, FmmbReport, MisStatus, Schedule, Segment};
pub use harness::{run_bmmb, run_mmb, InstrumentReport, Instruments, MmbReport, RunOptions};
pub use mmb::{Assignment, CompletionTracker, Delivered, MessageId, MmbMessage};
