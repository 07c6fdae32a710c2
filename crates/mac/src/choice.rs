//! Explicit nondeterminism: every scheduler freedom as a named choice.
//!
//! The runtime itself is deterministic — all of the model's latitude
//! (delivery timing within the `[1, F_ack]` window, which contending
//! message a forced progress delivery feeds, whether a `G′ \ G` link
//! fires) enters through the [`Policy`] callbacks, and fault/back-off
//! placement enters through the harnesses that build [`FaultPlan`]s and
//! protocol parameters. This module narrows all of those entry points to
//! a single funnel: the [`ChoiceSource`] trait, which resolves one
//! decision at a time, each labelled with a [`ChoicePoint`] describing
//! what is being decided.
//!
//! Two kinds of implementor exist:
//!
//! * [`RngSource`] — a seeded [`SimRng`]; random testing. Draw-for-draw
//!   identical to the pre-`ChoiceSource` seeded policies, so recorded
//!   `.amactrace` files and canonical experiment seeds are unaffected.
//! * `amac-check`'s DFS controller — replays a chosen prefix and
//!   enumerates the remaining alternatives, turning the same policy code
//!   into a bounded exhaustive model checker.
//!
//! [`ChoicePolicy`] is the bridge: a [`Policy`] that spends its entire
//! latitude through a `ChoiceSource`. `RandomPolicy` (in
//! [`policies`](crate::policies)) is now a thin wrapper around
//! `ChoicePolicy<RngSource>`.
//!
//! [`FaultPlan`]: crate::FaultPlan

use crate::policy::{BcastInfo, BcastPlan, ForcedCandidate, Policy, PolicyCtx};
use amac_graph::NodeId;
use amac_sim::{Duration, SimRng};

/// The semantic role of a single nondeterministic decision.
///
/// Labels let an enumerating [`ChoiceSource`] report *what* each position
/// in a schedule decided (and let a shrinker print readable
/// counterexamples); random sources ignore them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoicePoint {
    /// Ack delay for a new instance: index `i` means `i + 1` ticks, so the
    /// width is `F_ack` and the result lands in the model's `[1, F_ack]`.
    AckDelay,
    /// Delivery delay on a reliable link: index `i` means `i` ticks, width
    /// `ack + 1` (the runtime flushes undelivered receivers at the ack).
    ReliableDelay,
    /// Whether a `G′ \ G` link fires at all for this broadcast.
    UnreliableInclude,
    /// Delivery delay on an unreliable link (same encoding as
    /// [`ReliableDelay`](ChoicePoint::ReliableDelay)).
    UnreliableDelay,
    /// Which contending candidate a forced progress delivery feeds.
    ForcedPick,
    /// Crash/recovery placement chosen by a checking harness.
    FaultPlacement,
    /// Protocol-level latitude (e.g. an election back-off window slot).
    ProtocolChoice,
}

/// A source of resolved nondeterministic decisions.
///
/// Each call resolves one decision; the sequence of calls an execution
/// makes — its *schedule* — fully determines that execution, because the
/// runtime is deterministic in everything else.
pub trait ChoiceSource {
    /// Picks one alternative out of `width` (must be ≥ 1); returns an
    /// index in `[0, width)`.
    fn choose(&mut self, point: ChoicePoint, width: u64) -> u64;

    /// A biased binary decision. Random implementors honour the
    /// probability; enumerating implementors branch both ways whenever
    /// `0 < probability < 1` and take the forced arm (without consuming a
    /// schedule position) at the extremes.
    fn chance(&mut self, point: ChoicePoint, probability: f64) -> bool {
        if probability <= 0.0 {
            false
        } else if probability >= 1.0 {
            true
        } else {
            self.choose(point, 2) == 1
        }
    }
}

impl<S: ChoiceSource + ?Sized> ChoiceSource for &mut S {
    fn choose(&mut self, point: ChoicePoint, width: u64) -> u64 {
        (**self).choose(point, width)
    }

    fn chance(&mut self, point: ChoicePoint, probability: f64) -> bool {
        (**self).chance(point, probability)
    }
}

/// Seeded random resolution of choices: the [`SimRng`]-backed
/// [`ChoiceSource`].
///
/// Draw-for-draw compatible with calling [`SimRng::below`] /
/// [`SimRng::chance`] directly, which keeps every pre-refactor seeded
/// execution byte-identical (see `tests/choice_equivalence.rs` in this
/// crate and the workspace determinism suite).
#[derive(Debug, Clone)]
pub struct RngSource {
    rng: SimRng,
}

impl RngSource {
    /// Creates a source from an experiment seed.
    pub fn seed(seed: u64) -> RngSource {
        RngSource {
            rng: SimRng::seed(seed),
        }
    }
}

impl ChoiceSource for RngSource {
    fn choose(&mut self, _point: ChoicePoint, width: u64) -> u64 {
        self.rng.below(width)
    }

    fn chance(&mut self, _point: ChoicePoint, probability: f64) -> bool {
        self.rng.chance(probability)
    }
}

/// A [`Policy`] that spends the scheduler's entire latitude through a
/// [`ChoiceSource`]: ack delays over `[1, F_ack]`, per-receiver delivery
/// delays over `[0, ack]`, unreliable-link inclusion as a binary choice,
/// forced picks over the full candidate list.
///
/// With an [`RngSource`] this *is* the uniform random adversary
/// (`RandomPolicy` wraps exactly that); with `amac-check`'s DFS source it
/// enumerates every schedule the model permits.
///
/// # Examples
///
/// ```
/// use amac_mac::{ChoicePolicy, RngSource};
///
/// let policy = ChoicePolicy::new(RngSource::seed(7)).with_unreliable_probability(0.5);
/// # let _ = policy;
/// ```
#[derive(Debug)]
pub struct ChoicePolicy<C> {
    source: C,
    unreliable_probability: f64,
}

impl<C: ChoiceSource> ChoicePolicy<C> {
    /// Wraps a choice source; unreliable links stay silent by default
    /// (probability 0 — enumerating sources then never branch on them).
    pub fn new(source: C) -> ChoicePolicy<C> {
        ChoicePolicy {
            source,
            unreliable_probability: 0.0,
        }
    }

    /// Sets the per-neighbor unreliable inclusion probability. Any value
    /// in `(0, 1)` makes enumerating sources branch on each `G′ \ G`
    /// neighbor of each broadcast.
    pub fn with_unreliable_probability(mut self, p: f64) -> ChoicePolicy<C> {
        self.unreliable_probability = p;
        self
    }

    /// The wrapped source.
    pub fn source(&self) -> &C {
        &self.source
    }
}

impl<C: ChoiceSource> Policy for ChoicePolicy<C> {
    fn plan_bcast(&mut self, ctx: &PolicyCtx<'_>, info: &BcastInfo) -> BcastPlan {
        let f_ack = ctx.config.f_ack().ticks();
        let ack_ticks = 1 + self.source.choose(ChoicePoint::AckDelay, f_ack);
        let ack = Duration::from_ticks(ack_ticks);
        let mut reliable = Vec::new();
        for &j in ctx.dual.reliable_neighbors(info.sender) {
            let d = self
                .source
                .choose(ChoicePoint::ReliableDelay, ack_ticks + 1);
            reliable.push((j, Duration::from_ticks(d)));
        }
        let mut unreliable = Vec::new();
        for &j in ctx.dual.unreliable_neighbors(info.sender) {
            if self
                .source
                .chance(ChoicePoint::UnreliableInclude, self.unreliable_probability)
            {
                let d = self
                    .source
                    .choose(ChoicePoint::UnreliableDelay, ack_ticks + 1);
                unreliable.push((j, Duration::from_ticks(d)));
            }
        }
        BcastPlan {
            ack_delay: ack,
            reliable_default: None,
            reliable,
            unreliable,
        }
    }

    fn pick_forced(
        &mut self,
        _ctx: &PolicyCtx<'_>,
        _receiver: NodeId,
        candidates: &[ForcedCandidate],
    ) -> usize {
        self.source
            .choose(ChoicePoint::ForcedPick, candidates.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MacConfig;
    use crate::instance::InstanceId;
    use crate::message::MessageKey;
    use amac_graph::{generators, DualGraph};
    use amac_sim::Time;

    fn ctx_fixture() -> (DualGraph, MacConfig) {
        let g = generators::line(4).unwrap();
        let mut rng = SimRng::seed(1);
        let dual = generators::r_restricted_augment(g, 3, 1.0, &mut rng).unwrap();
        (dual, MacConfig::from_ticks(2, 20))
    }

    fn info() -> BcastInfo {
        BcastInfo {
            instance: InstanceId::new(0),
            sender: NodeId::new(1),
            key: MessageKey(5),
        }
    }

    /// Counts every branch it is offered and always takes the last
    /// alternative, exercising the clamp-free upper edge of each window.
    struct MaxSource {
        draws: Vec<(ChoicePoint, u64)>,
    }

    impl ChoiceSource for MaxSource {
        fn choose(&mut self, point: ChoicePoint, width: u64) -> u64 {
            self.draws.push((point, width));
            width - 1
        }
    }

    #[test]
    fn rng_source_matches_raw_simrng() {
        let mut raw = SimRng::seed(42);
        let mut src = RngSource::seed(42);
        for bound in [1u64, 2, 7, 100] {
            assert_eq!(raw.below(bound), src.choose(ChoicePoint::AckDelay, bound));
        }
        assert_eq!(
            raw.chance(0.3),
            src.chance(ChoicePoint::UnreliableInclude, 0.3)
        );
        // The extremes must not draw — SimRng::chance short-circuits and
        // the source must preserve that for byte-identical streams.
        assert!(!src.chance(ChoicePoint::UnreliableInclude, 0.0));
        assert!(src.chance(ChoicePoint::UnreliableInclude, 1.0));
        // Streams still aligned after the non-drawing extremes.
        assert_eq!(raw.below(9), src.choose(ChoicePoint::ForcedPick, 9));
    }

    #[test]
    fn choice_policy_offers_every_model_freedom() {
        let (dual, config) = ctx_fixture();
        let ctx = PolicyCtx {
            dual: &dual,
            config: &config,
            now: Time::ZERO,
        };
        let mut policy =
            ChoicePolicy::new(MaxSource { draws: Vec::new() }).with_unreliable_probability(0.5);
        let plan = policy.plan_bcast(&ctx, &info());
        // Max index on AckDelay (width F_ack) → the full F_ack delay.
        assert_eq!(plan.ack_delay, config.f_ack());
        assert_eq!(
            plan.reliable.len(),
            dual.reliable_neighbors(NodeId::new(1)).len()
        );
        // chance(0.5) branches via choose(2); last alternative = include.
        assert_eq!(
            plan.unreliable.len(),
            dual.unreliable_neighbors(NodeId::new(1)).len()
        );
        let draws = policy.source().draws.clone();
        assert_eq!(draws[0], (ChoicePoint::AckDelay, config.f_ack().ticks()));
        assert!(draws
            .iter()
            .any(|&(p, w)| p == ChoicePoint::ReliableDelay && w == config.f_ack().ticks() + 1));
        assert!(draws
            .iter()
            .any(|&(p, _)| p == ChoicePoint::UnreliableInclude));
    }

    #[test]
    fn zero_probability_never_branches() {
        let (dual, config) = ctx_fixture();
        let ctx = PolicyCtx {
            dual: &dual,
            config: &config,
            now: Time::ZERO,
        };
        let mut policy = ChoicePolicy::new(MaxSource { draws: Vec::new() });
        let plan = policy.plan_bcast(&ctx, &info());
        assert!(plan.unreliable.is_empty());
        assert!(policy
            .source()
            .draws
            .iter()
            .all(|&(p, _)| p != ChoicePoint::UnreliableInclude));
    }

    #[test]
    fn forced_pick_spans_candidates() {
        let (dual, config) = ctx_fixture();
        let ctx = PolicyCtx {
            dual: &dual,
            config: &config,
            now: Time::ZERO,
        };
        let cands: Vec<ForcedCandidate> = (0..3)
            .map(|i| ForcedCandidate {
                instance: InstanceId::new(i),
                sender: NodeId::new(0),
                key: MessageKey(i),
                start: Time::ZERO,
                duplicate_for_receiver: false,
                reliable_link: true,
            })
            .collect();
        let mut policy = ChoicePolicy::new(MaxSource { draws: Vec::new() });
        assert_eq!(policy.pick_forced(&ctx, NodeId::new(2), &cands), 2);
    }
}
