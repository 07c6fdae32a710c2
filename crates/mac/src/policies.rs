//! Generic message schedulers (adversaries) usable with any topology.
//!
//! * [`EagerPolicy`] — best case: immediate deliveries and acks, optional
//!   probabilistic unreliable deliveries. An optimistic baseline.
//! * [`LazyPolicy`] — worst case within the model: every ack takes the full
//!   `F_ack`; receivers get messages only when the progress bound forces
//!   them to. Optionally prefers feeding *duplicates* on forced
//!   deliveries — the freedom that drives the paper's pessimistic bounds.
//! * [`RandomPolicy`] — seeded uniform choices over all the scheduler's
//!   freedoms; useful for property-based testing.
//!
//! All three produce only valid executions (the runtime clamps and enforces
//! the model guarantees); they differ purely in how adversarially they
//! exercise the scheduler's latitude.

use crate::choice::{ChoicePoint, ChoicePolicy, ChoiceSource, RngSource};
use crate::policy::{BcastInfo, BcastPlan, ForcedCandidate, Policy, PolicyCtx};
use amac_graph::NodeId;
use amac_sim::Duration;

/// Best-case scheduler: deliveries after one tick, ack right after, and
/// (optionally) unreliable deliveries with a fixed probability.
///
/// # Examples
///
/// ```
/// use amac_mac::policies::EagerPolicy;
///
/// let fast = EagerPolicy::new();
/// let leaky = EagerPolicy::new().with_unreliable(0.5, 7);
/// # let _ = (fast, leaky);
/// ```
#[derive(Debug)]
pub struct EagerPolicy {
    unreliable_probability: f64,
    source: RngSource,
}

impl EagerPolicy {
    /// Immediate scheduler with no unreliable deliveries (`G′` links stay
    /// silent, the adversary's prerogative).
    pub fn new() -> EagerPolicy {
        EagerPolicy {
            unreliable_probability: 0.0,
            source: RngSource::seed(0),
        }
    }

    /// Enables unreliable deliveries: each `G′ \ G` neighbor receives each
    /// broadcast independently with probability `p` (seeded).
    pub fn with_unreliable(mut self, p: f64, seed: u64) -> EagerPolicy {
        self.unreliable_probability = p;
        self.source = RngSource::seed(seed);
        self
    }
}

impl Default for EagerPolicy {
    fn default() -> Self {
        EagerPolicy::new()
    }
}

impl Policy for EagerPolicy {
    fn plan_bcast(&mut self, ctx: &PolicyCtx<'_>, info: &BcastInfo) -> BcastPlan {
        let d = Duration::TICK;
        let ack = d + Duration::TICK;
        if self.unreliable_probability == 0.0 {
            // The common case builds no per-broadcast lists at all.
            return BcastPlan::uniform_with_delivery(ack, d);
        }
        let p = self.unreliable_probability;
        let unreliable = ctx
            .dual
            .unreliable_neighbors(info.sender)
            .iter()
            .filter(|_| self.source.chance(ChoicePoint::UnreliableInclude, p))
            .map(|&j| (j, d))
            .collect();
        BcastPlan {
            ack_delay: ack,
            reliable_default: Some(d),
            reliable: Vec::new(),
            unreliable,
        }
    }
}

/// Worst-case scheduler: acks at exactly `F_ack`, deliveries withheld until
/// the ack (so receivers see messages only via the runtime's forced
/// progress deliveries every `F_prog`), no voluntary unreliable deliveries.
///
/// With [`prefer_duplicates`](LazyPolicy::prefer_duplicates) the forced
/// deliveries pick messages the receiver has already seen whenever
/// possible — the "old messages arriving from far away at inopportune
/// points" behaviour the paper blames for the `O((D+k)·F_ack)` slowdown.
#[derive(Debug, Default)]
pub struct LazyPolicy {
    prefer_duplicates: bool,
}

impl LazyPolicy {
    /// Plain lazy scheduler (forced picks take the oldest candidate).
    pub fn new() -> LazyPolicy {
        LazyPolicy {
            prefer_duplicates: false,
        }
    }

    /// Makes forced progress deliveries prefer semantically useless
    /// duplicates over new information.
    pub fn prefer_duplicates(mut self) -> LazyPolicy {
        self.prefer_duplicates = true;
        self
    }
}

impl Policy for LazyPolicy {
    fn plan_bcast(&mut self, ctx: &PolicyCtx<'_>, _info: &BcastInfo) -> BcastPlan {
        // Deliveries default to the ack deadline; the runtime flushes them
        // right before the ack, and the progress bound forces earlier ones.
        BcastPlan::uniform(ctx.config.f_ack())
    }

    fn pick_forced(
        &mut self,
        _ctx: &PolicyCtx<'_>,
        _receiver: NodeId,
        candidates: &[ForcedCandidate],
    ) -> usize {
        if self.prefer_duplicates {
            if let Some(i) = candidates.iter().position(|c| c.duplicate_for_receiver) {
                return i;
            }
        }
        0
    }
}

/// Uniformly random scheduler over all the model's freedoms, seeded for
/// reproducibility: ack delays uniform in `[1, F_ack]`, delivery delays
/// uniform in `[0, ack]`, each unreliable neighbor included with
/// probability `p`, forced picks uniform.
///
/// This is [`ChoicePolicy`] over an [`RngSource`] — the same policy code
/// the `amac-check` DFS controller enumerates, resolved randomly instead.
/// The seeded draw stream is unchanged from the pre-`ChoiceSource`
/// implementation (see `tests/choice_equivalence.rs`).
#[derive(Debug)]
pub struct RandomPolicy {
    inner: ChoicePolicy<RngSource>,
}

impl RandomPolicy {
    /// Creates a random scheduler with the given seed and an unreliable
    /// delivery probability of 0.5.
    pub fn new(seed: u64) -> RandomPolicy {
        RandomPolicy {
            inner: ChoicePolicy::new(RngSource::seed(seed)).with_unreliable_probability(0.5),
        }
    }

    /// Sets the per-neighbor unreliable delivery probability.
    pub fn with_unreliable_probability(mut self, p: f64) -> RandomPolicy {
        self.inner = self.inner.with_unreliable_probability(p);
        self
    }
}

impl Policy for RandomPolicy {
    fn plan_bcast(&mut self, ctx: &PolicyCtx<'_>, info: &BcastInfo) -> BcastPlan {
        self.inner.plan_bcast(ctx, info)
    }

    fn pick_forced(
        &mut self,
        ctx: &PolicyCtx<'_>,
        receiver: NodeId,
        candidates: &[ForcedCandidate],
    ) -> usize {
        self.inner.pick_forced(ctx, receiver, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MacConfig;
    use crate::instance::InstanceId;
    use crate::message::MessageKey;
    use amac_graph::{generators, DualGraph};
    use amac_sim::{SimRng, Time};

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

    #[test]
    fn eager_plans_fast_deliveries() {
        let (dual, config) = ctx_fixture();
        let ctx = PolicyCtx {
            dual: &dual,
            config: &config,
            now: Time::ZERO,
        };
        let plan = EagerPolicy::new().plan_bcast(&ctx, &info());
        assert_eq!(plan.ack_delay, Duration::from_ticks(2));
        assert_eq!(
            plan.reliable_default,
            Some(Duration::TICK),
            "uniform delivery, no per-neighbor list"
        );
        assert!(plan.reliable.is_empty());
        assert!(plan.unreliable.is_empty());
    }

    #[test]
    fn eager_unreliable_probability_one_covers_all() {
        let (dual, config) = ctx_fixture();
        let ctx = PolicyCtx {
            dual: &dual,
            config: &config,
            now: Time::ZERO,
        };
        let plan = EagerPolicy::new()
            .with_unreliable(1.0, 3)
            .plan_bcast(&ctx, &info());
        assert_eq!(
            plan.unreliable.len(),
            dual.unreliable_neighbors(NodeId::new(1)).len()
        );
    }

    #[test]
    fn lazy_plans_full_ack_delay() {
        let (dual, config) = ctx_fixture();
        let ctx = PolicyCtx {
            dual: &dual,
            config: &config,
            now: Time::ZERO,
        };
        let plan = LazyPolicy::new().plan_bcast(&ctx, &info());
        assert_eq!(plan.ack_delay, config.f_ack());
        assert!(plan.reliable.is_empty(), "deliveries default to ack time");
    }

    fn candidate(i: u64, dup: bool) -> ForcedCandidate {
        ForcedCandidate {
            instance: InstanceId::new(i),
            sender: NodeId::new(0),
            key: MessageKey(i),
            start: Time::ZERO,
            duplicate_for_receiver: dup,
            reliable_link: true,
        }
    }

    #[test]
    fn lazy_duplicate_preference() {
        let (dual, config) = ctx_fixture();
        let ctx = PolicyCtx {
            dual: &dual,
            config: &config,
            now: Time::ZERO,
        };
        let cands = vec![candidate(0, false), candidate(1, true), candidate(2, true)];
        let mut plain = LazyPolicy::new();
        assert_eq!(plain.pick_forced(&ctx, NodeId::new(2), &cands), 0);
        let mut dup = LazyPolicy::new().prefer_duplicates();
        assert_eq!(dup.pick_forced(&ctx, NodeId::new(2), &cands), 1);
        let none = vec![candidate(0, false)];
        assert_eq!(dup.pick_forced(&ctx, NodeId::new(2), &none), 0);
    }

    #[test]
    fn random_policy_is_seeded_deterministic() {
        let (dual, config) = ctx_fixture();
        let ctx = PolicyCtx {
            dual: &dual,
            config: &config,
            now: Time::ZERO,
        };
        let p1 = RandomPolicy::new(9).plan_bcast(&ctx, &info());
        let p2 = RandomPolicy::new(9).plan_bcast(&ctx, &info());
        assert_eq!(p1.ack_delay, p2.ack_delay);
        assert_eq!(p1.reliable, p2.reliable);
        assert!(p1.ack_delay.ticks() >= 1 && p1.ack_delay <= config.f_ack());
    }
}
