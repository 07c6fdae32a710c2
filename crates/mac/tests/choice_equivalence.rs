//! The `ChoiceSource` refactor must not move a single byte: the seeded
//! policies (`RandomPolicy`, `EagerPolicy::with_unreliable`) now draw
//! through [`RngSource`], and every execution they produce must be
//! trace-identical to the pre-refactor implementations, which drew from
//! [`SimRng`] directly. The reference policies below are verbatim copies
//! of the pre-refactor draw sequences; any change to the draw order,
//! count, or primitive used inside `ChoicePolicy`/`RngSource` fails here.

use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::policies::{EagerPolicy, RandomPolicy};
use amac_mac::trace::Trace;
use amac_mac::{
    Automaton, BcastInfo, BcastPlan, Ctx, ForcedCandidate, MacConfig, MacMessage, MessageKey,
    Policy, PolicyCtx, Runtime, TraceObserver,
};
use amac_sim::{Duration, SimRng};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Token(u64);
impl MacMessage for Token {
    fn key(&self) -> MessageKey {
        MessageKey(self.0)
    }
}

/// Floods and re-broadcasts enough to exercise forced picks and acks.
struct Chatter {
    token: Option<u64>,
    rebroadcasts: u64,
}

impl Automaton for Chatter {
    type Msg = Token;
    type Env = ();
    type Out = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, Token, ()>) {
        if let Some(t) = self.token {
            ctx.bcast(Token(t));
        }
    }

    fn on_receive(&mut self, msg: &Token, ctx: &mut Ctx<'_, Token, ()>) {
        if self.token.is_none() {
            self.token = Some(msg.0);
            if !ctx.has_broadcast_in_flight() {
                ctx.bcast(msg.clone());
            }
        }
    }

    fn on_ack(&mut self, msg: &Token, ctx: &mut Ctx<'_, Token, ()>) {
        if self.rebroadcasts > 0 {
            self.rebroadcasts -= 1;
            ctx.bcast(msg.clone());
        }
    }
}

/// The pre-refactor `RandomPolicy`, kept verbatim as the golden reference.
struct ReferenceRandomPolicy {
    rng: SimRng,
    unreliable_probability: f64,
}

impl Policy for ReferenceRandomPolicy {
    fn plan_bcast(&mut self, ctx: &PolicyCtx<'_>, info: &BcastInfo) -> BcastPlan {
        let f_ack = ctx.config.f_ack().ticks();
        let ack_ticks = 1 + self.rng.below(f_ack);
        let ack = Duration::from_ticks(ack_ticks);
        let mut reliable = Vec::new();
        for &j in ctx.dual.reliable_neighbors(info.sender) {
            reliable.push((j, Duration::from_ticks(self.rng.below(ack_ticks + 1))));
        }
        let mut unreliable = Vec::new();
        for &j in ctx.dual.unreliable_neighbors(info.sender) {
            if self.rng.chance(self.unreliable_probability) {
                unreliable.push((j, Duration::from_ticks(self.rng.below(ack_ticks + 1))));
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
        self.rng.below(candidates.len() as u64) as usize
    }
}

/// The pre-refactor `EagerPolicy` with unreliable deliveries enabled.
struct ReferenceEagerPolicy {
    delivery_delay: Duration,
    unreliable_probability: f64,
    rng: SimRng,
}

impl Policy for ReferenceEagerPolicy {
    fn plan_bcast(&mut self, ctx: &PolicyCtx<'_>, info: &BcastInfo) -> BcastPlan {
        let d = self.delivery_delay;
        let ack = d + Duration::TICK;
        if self.unreliable_probability == 0.0 {
            return BcastPlan::uniform_with_delivery(ack, d);
        }
        let unreliable = ctx
            .dual
            .unreliable_neighbors(info.sender)
            .iter()
            .filter(|_| self.rng.chance(self.unreliable_probability))
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

fn dual(pick: u8, n: usize, grey_seed: u64) -> DualGraph {
    let g = match pick % 3 {
        0 => generators::line(n).unwrap(),
        1 => generators::ring(n.max(3)).unwrap(),
        _ => generators::complete(n).unwrap(),
    };
    // Add unreliable edges so the chance() draws actually fire.
    let mut rng = SimRng::seed(grey_seed);
    generators::r_restricted_augment(g, 2, 0.8, &mut rng).unwrap()
}

fn chatters(n: usize, sources: usize) -> Vec<Chatter> {
    (0..n)
        .map(|i| Chatter {
            token: (i < sources).then_some(i as u64 + 1),
            rebroadcasts: 2,
        })
        .collect()
}

fn run_trace(dual: &DualGraph, cfg: MacConfig, nodes: Vec<Chatter>, policy: impl Policy) -> Trace {
    let mut rt = Runtime::new(dual.clone(), cfg, nodes, policy);
    let tracer = rt.attach(TraceObserver::new());
    rt.run();
    rt.detach(tracer).into_trace()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `RandomPolicy` (now `ChoicePolicy<RngSource>`) is execution-identical
    /// to the pre-refactor direct-`SimRng` implementation for every seed.
    #[test]
    fn random_policy_matches_pre_refactor_reference(
        seed in 0u64..u64::MAX,
        pick in 0u8..3,
        n in 3usize..7,
        sources in 1usize..3,
        p_pick in 0u8..4,
    ) {
        let p = [0.0, 0.3, 0.5, 1.0][p_pick as usize];
        let d = dual(pick, n, seed ^ 0xA5A5);
        let cfg = MacConfig::from_ticks(2, 12);
        let new = run_trace(
            &d,
            cfg,
            chatters(n, sources),
            RandomPolicy::new(seed).with_unreliable_probability(p),
        );
        let old = run_trace(
            &d,
            cfg,
            chatters(n, sources),
            ReferenceRandomPolicy { rng: SimRng::seed(seed), unreliable_probability: p },
        );
        prop_assert_eq!(new.entries(), old.entries());
    }

    /// `EagerPolicy::with_unreliable` draws through `RngSource` now; the
    /// stream must be unchanged.
    #[test]
    fn eager_policy_matches_pre_refactor_reference(
        seed in 0u64..u64::MAX,
        pick in 0u8..3,
        n in 3usize..7,
        p_pick in 0u8..3,
    ) {
        let p = [0.0, 0.4, 1.0][p_pick as usize];
        let d = dual(pick, n, seed ^ 0x5A5A);
        let cfg = MacConfig::from_ticks(2, 12);
        let new = run_trace(&d, cfg, chatters(n, 2), EagerPolicy::new().with_unreliable(p, seed));
        let old = run_trace(
            &d,
            cfg,
            chatters(n, 2),
            ReferenceEagerPolicy {
                delivery_delay: Duration::TICK,
                unreliable_probability: p,
                rng: SimRng::seed(seed),
            },
        );
        prop_assert_eq!(new.entries(), old.entries());
    }
}
