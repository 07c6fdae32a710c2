//! # amac-check — bounded exhaustive checking of the MAC runtime's
//! nondeterminism
//!
//! Every guarantee the workspace validates elsewhere — the five aMAC
//! properties, consensus agreement, election uniqueness — is checked
//! along *seeded random* executions, so a schedule-dependent bug
//! survives until a lucky seed finds it. The paper's claims are
//! ∀-quantified over adversarial delivery orderings and fault timings;
//! this crate quantifies the same way, for small instances: it
//! enumerates **every schedule** the model permits (up to configurable
//! bounds) and judges each against pluggable safety properties.
//!
//! The pieces:
//!
//! * [`ReplaySource`] — the enumerating [`ChoiceSource`]: replays a
//!   choice prefix, defaults beyond it, logs every decision (its width
//!   and [`ChoicePoint`] label). The same [`ChoicePolicy`] that backs
//!   `RandomPolicy` becomes the exhaustive adversary when driven by it.
//! * [`Scenario`] — a protocol instance plus its properties:
//!   [`ConsensusScenario`], [`ElectionScenario`], [`FloodScenario`], and
//!   the deliberately under-provisioned
//!   [`ConsensusScenario::broken`] used to exercise the counterexample
//!   pipeline.
//! * [`explore()`] — the stateless DFS controller with fingerprint
//!   deduplication and depth/step bounds; returns a [`CheckReport`] with
//!   explored/duplicate statistics.
//! * [`shrink()`] — the delta-debugging minimizer invoked on violation.
//! * [`check_fixture`] — replays an emitted `.amactrace` counterexample
//!   through stream-level properties, reproducing the violation from the
//!   stored bytes alone.
//!
//! ## Example: certify a 3-node consensus, then break it
//!
//! ```
//! use amac_check::{explore, Bounds, ConsensusScenario};
//!
//! // The shipped protocol, correctly provisioned: clean space.
//! let report = explore(&ConsensusScenario::certified(3, 0), &Bounds::default(), None);
//! assert!(report.exhausted && report.is_clean());
//!
//! // One phase against a 1-crash budget: the checker finds the crash
//! // placement and delivery timing that break agreement, and shrinks it.
//! let report = explore(&ConsensusScenario::broken(3), &Bounds::default(), None);
//! let cx = report.counterexample.expect("under-provisioned phases must fail");
//! assert_eq!(cx.property, amac_check::PROP_CONSENSUS);
//! ```
//!
//! [`ChoiceSource`]: amac_mac::ChoiceSource
//! [`ChoicePoint`]: amac_mac::ChoicePoint
//! [`ChoicePolicy`]: amac_mac::ChoicePolicy

pub mod explore;
pub mod scenario;
pub mod schedule;
pub mod shrink;
pub mod stream;

pub use explore::{explore, Bounds, CheckReport, CheckStats, Counterexample};
pub use scenario::{
    ConsensusScenario, ElectionScenario, FloodScenario, RunVerdict, Scenario, PROP_COMPLETION,
    PROP_CONSENSUS, PROP_ELECTION, PROP_MAC,
};
pub use schedule::{Draw, ReplaySource};
pub use shrink::{shrink, ShrinkOutcome};
pub use stream::{check_fixture, EstimateAgreement, FixtureCheck};
