//! Model conformance under fault injection: every execution the [`Runtime`]
//! produces under a random [`FaultPlan`] must be accepted by the
//! crash-conditioned post-hoc oracle ([`oracle::validate`]) — and by the
//! streaming [`OnlineValidator`], which must report the *identical
//! violation set* — and the fault semantics themselves must hold (a
//! crashed node goes silent the instant it crashes).

mod oracle;

use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::policies::{EagerPolicy, LazyPolicy, RandomPolicy};
use amac_mac::trace::{Trace, TraceKind};
use amac_mac::{
    Automaton, Ctx, FaultKind, FaultPlan, MacConfig, MacMessage, MessageKey, OnlineValidator,
    Policy, Runtime, TraceObserver, ValidationReport, Violation,
};
use amac_sim::{SimRng, Time};
use oracle::validate;
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Token(u64);
impl MacMessage for Token {
    fn key(&self) -> MessageKey {
        MessageKey(self.0)
    }
}

/// Floods one token per source: forwards the first copy received, then
/// keeps rebroadcasting on every ack so executions stay busy long enough
/// for crashes to land mid-traffic.
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

fn topology(pick: u8, n: usize) -> DualGraph {
    let g = match pick % 4 {
        0 => generators::line(n).unwrap(),
        1 => generators::ring(n.max(3)).unwrap(),
        2 => generators::star(n).unwrap(),
        _ => generators::complete(n).unwrap(),
    };
    DualGraph::reliable(g)
}

fn chatters(n: usize, sources: usize) -> Vec<Chatter> {
    (0..n)
        .map(|i| Chatter {
            token: (i < sources).then_some(i as u64 + 1),
            rebroadcasts: 3,
        })
        .collect()
}

/// Runs a faulted execution with both a trace observer and a streaming
/// validator attached; returns the recorded trace and the live report.
fn run_with_plan_validated(
    dual: &DualGraph,
    cfg: MacConfig,
    nodes: Vec<Chatter>,
    policy: impl Policy,
    plan: FaultPlan,
) -> (Trace, ValidationReport) {
    let mut rt = Runtime::new(dual.clone(), cfg, nodes, policy)
        .with_faults(plan)
        .with_event_limit(2_000_000);
    let tracer = rt.attach(TraceObserver::new());
    let validator = rt.attach(OnlineValidator::new(dual.clone(), cfg));
    rt.run();
    let online = rt.detach(validator).into_report(true);
    (rt.detach(tracer).into_trace(), online)
}

fn run_with_plan(
    dual: &DualGraph,
    cfg: MacConfig,
    nodes: Vec<Chatter>,
    policy: impl Policy,
    plan: FaultPlan,
) -> Trace {
    run_with_plan_validated(dual, cfg, nodes, policy, plan).0
}

/// Order-insensitive view of a violation list, for set comparison.
fn violation_set(violations: &[Violation]) -> Vec<String> {
    let mut v: Vec<String> = violations.iter().map(|x| format!("{x:?}")).collect();
    v.sort();
    v
}

/// The regression check the fault model hangs on: once a node's crash time
/// has passed (with no recovery in between), it must never appear as a
/// broadcaster — nor as an acker, aborter, or receiver — in the trace.
fn assert_silent_after_crash(trace: &Trace) {
    for fault in trace.faults() {
        if fault.kind != FaultKind::Crash {
            continue;
        }
        let recovery = trace
            .faults()
            .iter()
            .find(|r| r.kind == FaultKind::Recover && r.node == fault.node && r.time >= fault.time)
            .map(|r| r.time)
            .unwrap_or(Time::MAX);
        for e in trace.entries() {
            if e.node == fault.node && e.time > fault.time && e.time < recovery {
                panic!(
                    "crashed node {} appears on a {:?} at t={} (crashed at t={}, recovery {:?})",
                    fault.node, e.kind, e.time, fault.time, recovery
                );
            }
        }
    }
}

#[test]
fn crashed_broadcaster_never_reappears_in_the_trace() {
    // Deterministic regression instance: heavy traffic on a ring, half the
    // nodes crash at staggered times.
    let dual = topology(1, 8);
    let cfg = MacConfig::from_ticks(2, 12);
    let mut plan = FaultPlan::new();
    for (i, node) in [1usize, 3, 5, 7].into_iter().enumerate() {
        plan = plan.crash_at(NodeId::new(node), Time::from_ticks(4 * (i as u64 + 1)));
    }
    let trace = run_with_plan(&dual, cfg, chatters(8, 4), LazyPolicy::new(), plan);
    assert!(
        trace.faults().len() == 4,
        "all four crashes applied: {trace}"
    );
    assert_silent_after_crash(&trace);
    assert!(
        trace.count(TraceKind::Bcast) > 4,
        "traffic must outlive the crashes"
    );
    let violations = validate(&trace, &dual, &cfg, true);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn recovery_reopens_the_node_without_breaking_conformance() {
    let dual = topology(0, 6);
    let cfg = MacConfig::from_ticks(2, 10);
    let plan = FaultPlan::new()
        .crash_at(NodeId::new(2), Time::from_ticks(3))
        .recover_at(NodeId::new(2), Time::from_ticks(30))
        .crash_at(NodeId::new(4), Time::from_ticks(5));
    let trace = run_with_plan(&dual, cfg, chatters(6, 3), EagerPolicy::new(), plan);
    assert_silent_after_crash(&trace);
    let violations = validate(&trace, &dual, &cfg, true);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Cases per property in `cargo test`.
const CASES: u32 = 64;

/// Cases per property in the long run, the `#[ignore]`d copies below:
/// `cargo test --release -p amac-mac --test fault_conformance -- --ignored`.
const LONG_CASES: u32 = 10_000;

/// One faulted execution: a topology, a random crash schedule inside a
/// window, bounds and a scheduler.
#[derive(Debug)]
struct Scenario {
    seed: u64,
    topo: u8,
    n: usize,
    sources: usize,
    crash_count: usize,
    window: u64,
    f_prog: u64,
    f_ack_mult: u64,
    policy_pick: u8,
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        (0u64..1_000_000, 0u8..4, 3usize..10, 1usize..4, 0usize..5),
        (5u64..80, 1u64..4, 2u64..10, 0u8..3),
    )
        .prop_map(
            |((seed, topo, n, sources, crash_count), (window, f_prog, f_ack_mult, policy_pick))| {
                Scenario {
                    seed,
                    topo,
                    n,
                    sources,
                    crash_count,
                    window,
                    f_prog,
                    f_ack_mult,
                    policy_pick,
                }
            },
        )
}

impl Scenario {
    /// Runs the execution with a trace observer and a streaming validator
    /// attached; returns the dual, the bounds, the recorded trace, the live
    /// report and the random stream that drew the crash plan.
    fn run(&self) -> (DualGraph, MacConfig, Trace, ValidationReport, SimRng) {
        let crash_count = self.crash_count.min(self.n - 1);
        let sources = self.sources.min(self.n);
        let dual = topology(self.topo, self.n);
        let cfg = MacConfig::from_ticks(self.f_prog, self.f_prog * self.f_ack_mult);
        let mut rng = SimRng::seed(self.seed);
        let window = Time::from_ticks(self.window);
        let plan = FaultPlan::random_crashes(self.n, crash_count, window, &mut rng);
        let policy: Box<dyn Policy> = match self.policy_pick {
            0 => Box::new(EagerPolicy::new()),
            1 => Box::new(LazyPolicy::new().prefer_duplicates()),
            _ => Box::new(RandomPolicy::new(self.seed ^ 0xFA57)),
        };
        let nodes = chatters(self.n, sources);
        let (trace, online) = run_with_plan_validated(&dual, cfg, nodes, policy, plan);
        (dual, cfg, trace, online, rng)
    }
}

/// The acceptance property of the fault subsystem: for any topology,
/// scheduler, and random crash schedule, the runtime's execution passes
/// the crash-conditioned validator — crashes never manufacture spurious
/// guarantee violations. The streaming [`OnlineValidator`] (both attached
/// live and replayed over the recorded trace) must report the *identical*
/// violation set as the post-hoc oracle.
fn validators_agree_on_the_runtime_trace(s: &Scenario) -> Result<(), TestCaseError> {
    let (dual, cfg, trace, online, _) = s.run();
    assert_silent_after_crash(&trace);
    let posthoc = validate(&trace, &dual, &cfg, true);
    prop_assert!(posthoc.is_empty(), "{:?}: {:?}", s, posthoc);
    prop_assert_eq!(
        violation_set(online.violations()),
        violation_set(&posthoc),
        "{:?}: live online validator disagrees with post-hoc\nonline: {}\npost-hoc: {:?}",
        s,
        online,
        posthoc
    );
    let replayed = OnlineValidator::replay(&trace, &dual, &cfg, true);
    prop_assert_eq!(
        violation_set(replayed.violations()),
        violation_set(&posthoc),
        "{:?}: replayed online validator disagrees with post-hoc",
        s
    );
    Ok(())
}

/// The same agreement where violations happen: a share of the `rcv`s of a
/// faulted runtime trace is deleted (never the last entry, which fixes the
/// post-hoc horizon), so receivers starve, miss reliable deliveries and
/// break progress windows. Fault records after the last entry are dropped:
/// the streaming validator judges windows against the stream's own clock,
/// which they would move past the horizon (the documented margin of
/// `amac_mac::online`).
fn validators_agree_with_dropped_receives(
    s: &Scenario,
    drop_percent: u64,
) -> Result<(), TestCaseError> {
    let (dual, cfg, trace, _, mut rng) = s.run();
    let entries = trace.entries();
    let mut thinned = Trace::new();
    for (i, e) in entries.iter().enumerate() {
        let last = i + 1 == entries.len();
        if e.kind == TraceKind::Rcv && !last && rng.below(100) < drop_percent {
            continue;
        }
        thinned.push(e.time, e.instance, e.node, e.kind, e.key);
    }
    let horizon = trace.last_time().unwrap_or(Time::ZERO);
    for f in trace.faults().iter().filter(|f| f.time <= horizon) {
        thinned.push_fault(f.time, f.node, f.kind);
    }
    let posthoc = validate(&thinned, &dual, &cfg, true);
    let replayed = OnlineValidator::replay(&thinned, &dual, &cfg, true);
    prop_assert_eq!(
        violation_set(replayed.violations()),
        violation_set(&posthoc),
        "{:?}: online validator disagrees with post-hoc\nonline: {}\npost-hoc: {:?}",
        s,
        replayed,
        posthoc
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn online_and_posthoc_validators_agree_on_faulted_runtime_traces(s in scenarios()) {
        validators_agree_on_the_runtime_trace(&s)?;
    }

    #[test]
    fn online_and_posthoc_validators_agree_on_traces_with_dropped_receives(
        s in scenarios(),
        drop_percent in 1u64..100,
    ) {
        validators_agree_with_dropped_receives(&s, drop_percent)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(LONG_CASES))]

    #[test]
    #[ignore = "long run: --release -- --ignored"]
    fn long_run_validators_agree_on_faulted_runtime_traces(s in scenarios()) {
        validators_agree_on_the_runtime_trace(&s)?;
    }

    #[test]
    #[ignore = "long run: --release -- --ignored"]
    fn long_run_validators_agree_on_traces_with_dropped_receives(
        s in scenarios(),
        drop_percent in 1u64..100,
    ) {
        validators_agree_with_dropped_receives(&s, drop_percent)?;
    }
}
