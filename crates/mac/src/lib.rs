//! # amac-mac — the abstract MAC layer
//!
//! An executable model of the **abstract MAC layer** from *"Multi-Message
//! Broadcast with Abstract MAC Layers and Unreliable Links"* (Ghaffari,
//! Kantor, Lynch, Newport, PODC 2014), in both its **standard** and
//! **enhanced** variants.
//!
//! The model gives each node an *acknowledged local broadcast* primitive
//! over a dual graph `(G, G′)`: a broadcast is always delivered to reliable
//! (`G`) neighbors and possibly to some unreliable (`G′ \ G`) neighbors,
//! then acknowledged. Two constants bound the non-determinism: `F_ack`
//! (time to complete and acknowledge a broadcast) and `F_prog` (time within
//! which a node hears *something* while a `G`-neighbor broadcasts), with
//! `F_prog ≪ F_ack` in practice.
//!
//! All remaining freedom — delivery timing, which unreliable links fire,
//! which message satisfies the progress bound — belongs to an adversarial
//! *message scheduler*, modelled by the [`Policy`] trait. The [`Runtime`]
//! clamps every policy into validity and *enforces* the progress bound, so
//! every execution this crate produces conforms to the model.
//!
//! Execution and observation are decoupled: the runtime streams every
//! MAC-level event to pluggable [`Observer`]s. Attach an
//! [`OnlineValidator`] to re-check conformance *while the execution runs*
//! in memory proportional to the in-flight state, or a [`TraceObserver`]
//! to record a full [`trace::Trace`] for the post-hoc [`validate`]
//! function and hand inspection.
//!
//! ## Layer map
//!
//! | concept in the paper | type here |
//! |---|---|
//! | node automaton (Timed I/O Automaton) | [`Automaton`] + [`Ctx`] |
//! | `bcast`/`ack`/`abort`/`rcv` interface | [`Ctx::bcast`], [`Automaton::on_ack`], [`Ctx::abort`], [`Automaton::on_receive`] |
//! | message scheduler adversary | [`Policy`] (+ [`policies`]) |
//! | `F_ack`, `F_prog`, model variant | [`MacConfig`], [`ModelVariant`] |
//! | execution (admissible timed execution) | [`Runtime`] + [`Observer`] stream |
//! | guarantees 1–5 of Section 3.2.1 | [`Runtime`] enforcement + [`OnlineValidator`] / [`validate`] |
//! | node-crash faults (the NR18/ZT24 follow-up model) | [`FaultPlan`] + [`Runtime::with_faults`] |
//!
//! ## Example: flooding a token under a worst-case scheduler
//!
//! ```
//! use amac_graph::{generators, DualGraph, NodeId};
//! use amac_mac::{
//!     policies::LazyPolicy, Automaton, Ctx, MacConfig, MacMessage, MessageKey,
//!     OnlineValidator, Runtime,
//! };
//!
//! #[derive(Clone, Debug)]
//! struct Token;
//! impl MacMessage for Token {
//!     fn key(&self) -> MessageKey { MessageKey(0) }
//! }
//!
//! struct Hop { seen: bool }
//! impl Automaton for Hop {
//!     type Msg = Token;
//!     type Env = ();
//!     type Out = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Token, ()>) {
//!         if ctx.id() == NodeId::new(0) {
//!             self.seen = true;
//!             ctx.bcast(Token);
//!         }
//!     }
//!     fn on_receive(&mut self, msg: &Token, ctx: &mut Ctx<'_, Token, ()>) {
//!         if !self.seen {
//!             self.seen = true;
//!             ctx.bcast(msg.clone());
//!         }
//!     }
//!     fn on_ack(&mut self, _: &Token, _: &mut Ctx<'_, Token, ()>) {}
//! }
//!
//! let dual = DualGraph::reliable(generators::line(8)?);
//! let cfg = MacConfig::from_ticks(2, 40);
//! let nodes = (0..8).map(|_| Hop { seen: false }).collect();
//! let mut rt = Runtime::new(dual.clone(), cfg, nodes, LazyPolicy::new());
//! let validator = rt.attach(OnlineValidator::new(dual, cfg));
//! rt.run();
//! // Even under the lazy scheduler the progress bound drives the token
//! // down the line at F_prog per hop, and the execution is model-valid —
//! // checked while it ran, with no retained trace:
//! assert!(rt.detach(validator).into_report(true).is_ok());
//! # Ok::<(), amac_graph::GraphError>(())
//! ```

pub mod choice;
mod config;
mod fault;
mod instance;
mod message;
mod node;
pub mod observer;
pub mod online;
pub mod policies;
mod policy;
mod runtime;
pub mod trace;
mod validator;

pub use choice::{ChoicePoint, ChoicePolicy, ChoiceSource, RngSource};
pub use config::{MacConfig, ModelVariant};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use instance::InstanceId;
pub use message::{MacMessage, MessageKey};
pub use node::{Automaton, Ctx, TimerId};
pub use observer::{CounterObserver, Observer, ObserverHandle, TraceObserver};
pub use online::{OnlineStats, OnlineValidator};
pub use policy::{BcastInfo, BcastPlan, ForcedCandidate, Policy, PolicyCtx};
pub use runtime::{OutputRecord, RunOutcome, Runtime};
pub use validator::{validate, ValidationReport, Violation};
