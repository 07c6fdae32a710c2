//! # amac-sim — deterministic discrete-event simulation substrate
//!
//! The execution substrate for the PODC 2014 abstract-MAC-layer
//! reproduction. The paper's semantics are Timed I/O Automata: real-valued
//! time, instantaneous (zero-delay) automaton steps, and non-deterministic
//! scheduling resolved by an adversary. This crate realizes the portions of
//! that semantics every layer above needs:
//!
//! * [`Time`] / [`Duration`] — integer-tick simulated time (all the paper's
//!   proofs are interval arithmetic over `F_prog`/`F_ack` sums, which ticks
//!   preserve exactly);
//! * [`EventQueue`] — a calendar queue (a ring of [`RING_TICKS`] one-tick
//!   buckets plus a far heap) with stable FIFO ordering at equal
//!   timestamps, so zero-delay step chains have a well-defined,
//!   reproducible order, plus O(1) cancellation (needed for the enhanced
//!   MAC layer's `abort`);
//! * [`SimRng`] — a splittable deterministic PRNG so each node and each
//!   scheduler gets its own replayable random stream, mirroring the paper's
//!   "random bits handed out at the start" convention;
//! * [`stats`] — counters, online summaries and histograms for the
//!   experiment harnesses.
//!
//! ## Example
//!
//! ```
//! use amac_sim::{Duration, EventQueue, Time};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.schedule(Time::from_ticks(2), Ev::Ping);
//! while let Some((t, ev)) = q.pop() {
//!     if ev == Ev::Ping && t.ticks() < 10 {
//!         q.schedule_after(Duration::from_ticks(2), Ev::Pong);
//!     }
//! }
//! assert_eq!(q.now(), Time::from_ticks(4));
//! ```

pub mod hash;
mod queue;
mod rng;
pub mod stats;
mod time;

pub use hash::{fnv1a64, FastHashMap, FastHashSet, FastHasher, Fnv1a};
pub use queue::{EventId, EventQueue, RING_TICKS};
pub use rng::SimRng;
pub use time::{Duration, Time};
