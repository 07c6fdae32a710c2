//! Crash-tolerant binary consensus on the enhanced abstract MAC layer, in
//! the style of Newport & Robinson (DISC 2018).
//!
//! ## The algorithm
//!
//! Time is cut into `phases` flooding rounds of `phase_len` each, with
//! `phase_len > F_ack` so every round's broadcast completes (delivers to
//! all live reliable neighbors, then acks) strictly inside its round. Each
//! node keeps a current estimate `v` (initially its input):
//!
//! 1. at the start of every round it broadcasts `(round, v)`;
//! 2. whenever it receives an estimate it folds it in (`v := v ∧ v'` — the
//!    binary *min*, so `false` is contagious);
//! 3. after round `phases` it decides `v` and goes quiet.
//!
//! This is the classic FloodSet argument driven entirely by `bcast`/`ack`:
//! a node that crashes mid-broadcast may deliver to only *some* neighbors
//! (the abstract MAC layer's partial-delivery adversary, injected here via
//! [`FaultPlan`]), but with at most `phases − 1` crashes some round is
//! crash-free, every live node's estimate floods everywhere in it, and all
//! estimates are equal from then on. Hence with crash budget `f`,
//! [`ConsensusParams::for_crashes`] picks `f + 1` phases:
//!
//! * **agreement** — all decisions (including by nodes that crash after
//!   deciding) are equal;
//! * **validity** — the decision is some node's input (a fold of inputs);
//! * **integrity** — one decision per node;
//! * **termination** — every node alive at the horizon decides by round
//!   `phases` (deterministic here; the randomized NR18 protocol gets the
//!   analogous guarantee w.h.p.).
//!
//! All four are re-checked per execution by [`validate_consensus`] — the
//! consensus-level analogue of the MAC-level
//! [`OnlineValidator`](amac_mac::OnlineValidator) — and the MAC-level
//! execution (crash events included) still passes that validator.
//!
//! The guarantees assume the crash pattern cannot disconnect the reliable
//! graph `G` (e.g. a complete single-hop `G`, the NR18 setting). The
//! `amac-lower` crate ships a choke-star scenario showing exactly how
//! flooding consensus breaks when a crash *does* disconnect `G`.

use amac_core::{InstrumentReport, Instruments, RunOptions};
use amac_graph::{DualGraph, NodeId};
use amac_mac::{
    Automaton, Ctx, FaultPlan, MacConfig, MacMessage, MessageKey, OnlineStats, Policy, RunOutcome,
    Runtime, ValidationReport,
};
use amac_sim::stats::Counters;
use amac_sim::{Duration, Time};
use std::fmt;

/// One flooding-phase estimate: the sender's current value, tagged with
/// the round it was broadcast in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsensusMsg {
    /// The flooding round this estimate belongs to.
    pub phase: u64,
    /// The sender's estimate at the round start.
    pub value: bool,
}

impl MacMessage for ConsensusMsg {
    /// Semantic key: estimates with the same `(phase, value)` are
    /// interchangeable, so duplicate-feeding schedulers treat them as
    /// duplicates — which the min-fold absorbs for free.
    fn key(&self) -> MessageKey {
        MessageKey((self.phase << 1) | self.value as u64)
    }
}

/// A node's irrevocable consensus output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision(pub bool);

/// Timing parameters of one consensus instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsensusParams {
    /// Number of flooding rounds before deciding.
    pub phases: u64,
    /// Round length; must exceed `F_ack` so a round's broadcasts complete
    /// inside it.
    pub phase_len: Duration,
}

impl ConsensusParams {
    /// Parameters tolerating up to `max_crashes` node crashes:
    /// `max_crashes + 1` rounds of `F_ack + 2` ticks each.
    pub fn for_crashes(max_crashes: usize, config: &MacConfig) -> ConsensusParams {
        ConsensusParams {
            phases: max_crashes as u64 + 1,
            phase_len: config.f_ack() + Duration::from_ticks(2),
        }
    }

    /// The instant by which every live node has decided: the end of the
    /// last round, plus one tick of slack.
    pub fn horizon(&self) -> Time {
        Time::ZERO + self.phase_len.times(self.phases) + Duration::TICK
    }
}

/// The per-node automaton: see the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct ConsensusNode {
    params: ConsensusParams,
    value: bool,
    phase: u64,
    decided: Option<bool>,
    rebroadcast_on_ack: bool,
}

impl ConsensusNode {
    /// A node with input `value`.
    pub fn new(value: bool, params: ConsensusParams) -> ConsensusNode {
        ConsensusNode {
            params,
            value,
            phase: 0,
            decided: None,
            rebroadcast_on_ack: false,
        }
    }

    /// The node's current estimate.
    pub fn estimate(&self) -> bool {
        self.value
    }

    /// The node's decision, once made.
    pub fn decision(&self) -> Option<bool> {
        self.decided
    }

    fn broadcast_estimate(&mut self, ctx: &mut Ctx<'_, ConsensusMsg, Decision>) {
        if ctx.has_broadcast_in_flight() {
            // Only reachable when phase_len <= F_ack (a misconfiguration):
            // fall back to rebroadcasting as soon as the ack frees us.
            self.rebroadcast_on_ack = true;
        } else {
            ctx.bcast(ConsensusMsg {
                phase: self.phase,
                value: self.value,
            });
        }
    }
}

impl Automaton for ConsensusNode {
    type Msg = ConsensusMsg;
    type Env = ();
    type Out = Decision;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ConsensusMsg, Decision>) {
        self.broadcast_estimate(ctx);
        ctx.set_timer(self.params.phase_len, 0);
    }

    fn on_receive(&mut self, msg: &ConsensusMsg, _ctx: &mut Ctx<'_, ConsensusMsg, Decision>) {
        if self.decided.is_none() {
            // Binary min-fold: `false` is contagious.
            self.value &= msg.value;
        }
    }

    fn on_ack(&mut self, _msg: &ConsensusMsg, ctx: &mut Ctx<'_, ConsensusMsg, Decision>) {
        if self.rebroadcast_on_ack && self.decided.is_none() {
            self.rebroadcast_on_ack = false;
            self.broadcast_estimate(ctx);
        }
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_, ConsensusMsg, Decision>) {
        if self.decided.is_some() {
            return;
        }
        self.phase += 1;
        if self.phase >= self.params.phases {
            self.decided = Some(self.value);
            ctx.output(Decision(self.value));
        } else {
            self.broadcast_estimate(ctx);
            ctx.set_timer(self.params.phase_len, 0);
        }
    }
}

/// A violation of the consensus guarantees found in one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConsensusViolation {
    /// Two nodes decided different values.
    Disagreement {
        /// A node that decided `false`.
        no: NodeId,
        /// A node that decided `true`.
        yes: NodeId,
    },
    /// A node decided a value that was nobody's input.
    InvalidDecision {
        /// The offending node.
        node: NodeId,
        /// The decided value.
        value: bool,
    },
    /// A node alive at the horizon never decided.
    MissingDecision {
        /// The silent node.
        node: NodeId,
    },
    /// A node decided more than once.
    DuplicateDecision {
        /// The offending node.
        node: NodeId,
    },
}

impl fmt::Display for ConsensusViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusViolation::Disagreement { no, yes } => {
                write!(f, "{no} decided false but {yes} decided true (agreement)")
            }
            ConsensusViolation::InvalidDecision { node, value } => {
                write!(
                    f,
                    "{node} decided {value}, which was nobody's input (validity)"
                )
            }
            ConsensusViolation::MissingDecision { node } => {
                write!(f, "live node {node} never decided (termination)")
            }
            ConsensusViolation::DuplicateDecision { node } => {
                write!(f, "{node} decided more than once (integrity)")
            }
        }
    }
}

/// The post-hoc consensus verdict: agreement, validity, integrity, and
/// termination of live nodes, re-derived from the recorded decisions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsensusCheck {
    violations: Vec<ConsensusViolation>,
}

impl ConsensusCheck {
    /// `true` when all four guarantees held.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations found.
    pub fn violations(&self) -> &[ConsensusViolation] {
        &self.violations
    }
}

impl fmt::Display for ConsensusCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(f, "consensus guarantees hold");
        }
        writeln!(f, "{} consensus violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Re-checks the consensus guarantees from one execution's observables:
/// per-node inputs, per-node decisions (with duplicates flagged by the
/// harness), and which nodes were still live at the horizon.
///
/// Agreement and validity cover *every* decision made, including by nodes
/// that crashed afterwards (crash-stop semantics: a decision, once output,
/// counts). Termination is conditioned on liveness: only nodes alive at
/// the horizon must have decided.
pub fn validate_consensus(
    initial: &[bool],
    decisions: &[Option<(Time, bool)>],
    duplicates: &[NodeId],
    live: &[bool],
) -> ConsensusCheck {
    let mut check = ConsensusCheck::default();
    let first_no = decisions
        .iter()
        .position(|d| matches!(d, Some((_, false))))
        .map(NodeId::new);
    let first_yes = decisions
        .iter()
        .position(|d| matches!(d, Some((_, true))))
        .map(NodeId::new);
    if let (Some(no), Some(yes)) = (first_no, first_yes) {
        check
            .violations
            .push(ConsensusViolation::Disagreement { no, yes });
    }
    for (i, d) in decisions.iter().enumerate() {
        match d {
            Some((_, value)) => {
                if !initial.contains(value) {
                    check.violations.push(ConsensusViolation::InvalidDecision {
                        node: NodeId::new(i),
                        value: *value,
                    });
                }
            }
            None => {
                if live[i] {
                    check.violations.push(ConsensusViolation::MissingDecision {
                        node: NodeId::new(i),
                    });
                }
            }
        }
    }
    for &node in duplicates {
        check
            .violations
            .push(ConsensusViolation::DuplicateDecision { node });
    }
    check
}

/// Result of one consensus execution.
#[derive(Clone, Debug)]
pub struct ConsensusReport {
    /// Per-node decision (time, value), `None` for nodes that never
    /// decided (crashed early).
    pub decisions: Vec<Option<(Time, bool)>>,
    /// Per-node liveness at the end of the run (`false` = crashed).
    pub live: Vec<bool>,
    /// The inputs.
    pub initial: Vec<bool>,
    /// First instant at which every live node had decided, if reached.
    pub completion: Option<Time>,
    /// Simulated time when the run stopped.
    pub end_time: Time,
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// MAC-level event counters (includes `crash`/`recover`).
    pub counters: Counters,
    /// The consensus-level verdict ([`validate_consensus`]).
    pub check: ConsensusCheck,
    /// MAC-model trace validation, when requested via
    /// [`RunOptions::validate`].
    pub validation: Option<ValidationReport>,
    /// Peak-memory statistics of the streaming validator, when validation
    /// ran.
    pub validator_stats: Option<OnlineStats>,
    /// Always `None`, as is `shard_stats`. The benchmark under
    /// `perfbench/` builds this report as a struct literal that names both
    /// fields, so they stay, with a type that can hold no value, until
    /// that literal drops them.
    pub trace: Option<std::convert::Infallible>,
    /// Always `None`: see [`trace`](ConsensusReport::trace).
    pub shard_stats: Option<std::convert::Infallible>,
    /// Deterministic sim-time metrics when [`RunOptions::metrics`] was
    /// set.
    pub metrics: Option<amac_obs::MetricsReport>,
}

impl ConsensusReport {
    /// The agreed value, when at least one node decided and agreement
    /// held.
    pub fn agreed_value(&self) -> Option<bool> {
        if !self.check.is_ok() {
            return None;
        }
        self.decisions.iter().flatten().map(|&(_, v)| v).next()
    }

    /// `true` when all live nodes decided, the consensus guarantees held,
    /// and (if validated) the MAC trace conformed to the model.
    pub fn ok(&self) -> bool {
        self.completion.is_some()
            && self.check.is_ok()
            && self
                .validation
                .as_ref()
                .map_or(true, amac_mac::ValidationReport::is_ok)
    }

    /// Completion time in ticks.
    ///
    /// # Panics
    ///
    /// Panics if some live node never decided.
    pub fn completion_ticks(&self) -> u64 {
        self.completion
            .expect("consensus run did not complete")
            .ticks()
    }

    /// Number of consensus violations plus MAC-trace violations — the
    /// quantity the `consensus_crash` experiment aggregates (its mean must
    /// be exactly 0).
    pub fn violation_count(&self) -> usize {
        self.check.violations().len() + self.validation.as_ref().map_or(0, |v| v.violations().len())
    }
}

impl fmt::Display for ConsensusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.completion {
            Some(t) => write!(f, "consensus at t={t}")?,
            None => write!(f, "consensus incomplete")?,
        }
        let crashed = self.live.iter().filter(|&&l| !l).count();
        write!(
            f,
            "; {} node(s), {} crashed, {}",
            self.live.len(),
            crashed,
            self.check
        )
    }
}

/// Runs one consensus instance over `dual` under the given fault plan and
/// scheduler policy, up to [`ConsensusParams::horizon`] at the latest,
/// then re-checks the consensus guarantees (and, when requested, MAC-model
/// conformance of the trace, crash events included).
///
/// # Panics
///
/// Panics unless `config` is the enhanced variant (the protocol needs
/// timers) and `initial.len() == dual.len()`. Also panics if the fault
/// plan schedules *recovery* events: this is a **crash-stop** protocol
/// (as in NR18) — a node re-joining mid-protocol would have lost its
/// phase timers and could re-flood a stale estimate after the others
/// converged, so recovery needs a different algorithm, not a silent
/// best effort.
pub fn run_consensus<P: Policy>(
    dual: &DualGraph,
    config: MacConfig,
    initial: &[bool],
    params: &ConsensusParams,
    faults: FaultPlan,
    policy: P,
    options: &RunOptions,
) -> ConsensusReport {
    assert!(
        config.is_enhanced(),
        "consensus drives its rounds with timers: use MacConfig::enhanced()"
    );
    assert_eq!(initial.len(), dual.len(), "need exactly one input per node");
    assert!(
        faults
            .events()
            .iter()
            .all(|e| e.kind != amac_mac::FaultKind::Recover),
        "consensus is crash-stop: recovery events are not supported (a re-joining \
         node could re-flood a stale estimate and break agreement)"
    );
    let n = dual.len();
    let nodes = initial
        .iter()
        .map(|&v| ConsensusNode::new(v, *params))
        .collect();
    let mut rt = Runtime::new(dual.clone(), config, nodes, policy).with_faults(faults.clone());
    let instruments = Instruments::attach(options, &mut rt, Some(&faults));

    let mut decisions: Vec<Option<(Time, bool)>> = vec![None; n];
    let mut duplicates: Vec<NodeId> = Vec::new();
    let mut completion: Option<Time> = None;
    let outcome = loop {
        let step_outcome = rt.run_until_next(params.horizon());
        for rec in rt.drain_outputs() {
            let slot = &mut decisions[rec.node.index()];
            if slot.is_some() {
                duplicates.push(rec.node);
            } else {
                let Decision(value) = rec.out;
                *slot = Some((rec.time, value));
            }
        }
        if completion.is_none() {
            let all_live_decided =
                (0..n).all(|i| decisions[i].is_some() || rt.is_crashed(NodeId::new(i)));
            if all_live_decided {
                completion = Some(rt.now());
                if options.stop_on_completion {
                    break RunOutcome::Stopped;
                }
            }
        }
        if let Some(o) = step_outcome {
            break o;
        }
    };

    let live: Vec<bool> = (0..n).map(|i| !rt.is_crashed(NodeId::new(i))).collect();
    let check = validate_consensus(initial, &decisions, &duplicates, &live);
    let InstrumentReport {
        validation,
        validator_stats,
        metrics,
    } = instruments.finish(&mut rt, outcome);

    ConsensusReport {
        decisions,
        live,
        initial: initial.to_vec(),
        completion,
        end_time: rt.now(),
        outcome,
        counters: rt.counters(),
        check,
        validation,
        validator_stats,
        trace: None,
        shard_stats: None,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_graph::generators;
    use amac_mac::policies::{EagerPolicy, LazyPolicy, RandomPolicy};
    use amac_sim::SimRng;

    fn complete_dual(n: usize) -> DualGraph {
        DualGraph::reliable(generators::complete(n).unwrap())
    }

    fn cfg() -> MacConfig {
        MacConfig::from_ticks(2, 16).enhanced()
    }

    fn alternating(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 2 == 0).collect()
    }

    #[test]
    fn crash_free_consensus_decides_the_min_everywhere() {
        let n = 8;
        let params = ConsensusParams::for_crashes(0, &cfg());
        let report = run_consensus(
            &complete_dual(n),
            cfg(),
            &alternating(n),
            &params,
            FaultPlan::new(),
            LazyPolicy::new().prefer_duplicates(),
            &RunOptions::default(),
        );
        assert!(report.ok(), "{report}");
        assert_eq!(report.agreed_value(), Some(false), "false is contagious");
        assert_eq!(report.completion_ticks(), params.phase_len.ticks());
    }

    #[test]
    fn all_true_inputs_decide_true() {
        let n = 5;
        let params = ConsensusParams::for_crashes(1, &cfg());
        let report = run_consensus(
            &complete_dual(n),
            cfg(),
            &vec![true; n],
            &params,
            FaultPlan::new(),
            EagerPolicy::new(),
            &RunOptions::default(),
        );
        assert!(report.ok(), "{report}");
        assert_eq!(
            report.agreed_value(),
            Some(true),
            "validity: all-true stays true"
        );
    }

    #[test]
    fn consensus_survives_random_crashes_within_budget() {
        let n = 10;
        for seed in 0..20u64 {
            let crashes = (seed % 4) as usize;
            let params = ConsensusParams::for_crashes(crashes, &cfg());
            let mut rng = SimRng::seed(seed);
            let faults = FaultPlan::random_crashes(n, crashes, params.horizon(), &mut rng);
            let report = run_consensus(
                &complete_dual(n),
                cfg(),
                &alternating(n),
                &params,
                faults,
                RandomPolicy::new(seed ^ 0xC0),
                &RunOptions::default(),
            );
            assert!(report.ok(), "seed {seed}: {report}");
            assert!(
                report.validation.as_ref().unwrap().is_ok(),
                "seed {seed}: MAC trace must stay valid under crashes"
            );
        }
    }

    #[test]
    fn mid_broadcast_crash_partial_delivery_is_absorbed() {
        // Crash the only false-valued node right after its first broadcast
        // starts: with budget 1 (two phases) the survivors still agree —
        // either everyone heard the false (decide false) or no one did
        // (decide true). Both are valid outcomes; agreement is the point.
        let n = 6;
        let params = ConsensusParams::for_crashes(1, &cfg());
        let mut initial = vec![true; n];
        initial[0] = false;
        for crash_tick in 0..params.phase_len.ticks() {
            let faults = FaultPlan::new().crash_at(NodeId::new(0), Time::from_ticks(crash_tick));
            let report = run_consensus(
                &complete_dual(n),
                cfg(),
                &initial,
                &params,
                faults,
                LazyPolicy::new().prefer_duplicates(),
                &RunOptions::default(),
            );
            assert!(report.ok(), "crash at t={crash_tick}: {report}");
        }
    }

    #[test]
    fn validator_flags_disagreement_and_bad_values() {
        let initial = vec![true, true];
        let decisions = vec![
            Some((Time::from_ticks(5), false)),
            Some((Time::from_ticks(5), true)),
        ];
        let check = validate_consensus(&initial, &decisions, &[NodeId::new(1)], &[true, true]);
        assert!(!check.is_ok());
        assert!(check
            .violations()
            .iter()
            .any(|v| matches!(v, ConsensusViolation::Disagreement { .. })));
        assert!(check
            .violations()
            .iter()
            .any(|v| matches!(v, ConsensusViolation::InvalidDecision { value: false, .. })));
        assert!(check
            .violations()
            .iter()
            .any(|v| matches!(v, ConsensusViolation::DuplicateDecision { .. })));
        let s = check.to_string();
        assert!(s.contains("agreement"));
    }

    #[test]
    fn validator_conditions_termination_on_liveness() {
        let initial = vec![true, false];
        let decisions = vec![None, Some((Time::from_ticks(3), false))];
        let live_silent = validate_consensus(&initial, &decisions, &[], &[true, true]);
        assert!(matches!(
            live_silent.violations()[0],
            ConsensusViolation::MissingDecision { .. }
        ));
        let crashed_silent = validate_consensus(&initial, &decisions, &[], &[false, true]);
        assert!(crashed_silent.is_ok(), "{crashed_silent}");
    }

    #[test]
    fn stop_on_completion_halts_at_the_decision() {
        let n = 4;
        let params = ConsensusParams::for_crashes(0, &cfg());
        let report = run_consensus(
            &complete_dual(n),
            cfg(),
            &alternating(n),
            &params,
            FaultPlan::new(),
            EagerPolicy::new(),
            &RunOptions::fast().stopping_on_completion(),
        );
        assert_eq!(report.outcome, RunOutcome::Stopped);
        assert!(report.completion.is_some());
    }

    #[test]
    #[should_panic(expected = "crash-stop")]
    fn recovery_plans_are_rejected() {
        let params = ConsensusParams::for_crashes(1, &cfg());
        let faults = FaultPlan::new()
            .crash_at(NodeId::new(0), Time::from_ticks(1))
            .recover_at(NodeId::new(0), Time::from_ticks(5));
        run_consensus(
            &complete_dual(3),
            cfg(),
            &[true, false, true],
            &params,
            faults,
            EagerPolicy::new(),
            &RunOptions::fast(),
        );
    }

    #[test]
    #[should_panic(expected = "enhanced")]
    fn standard_variant_is_rejected() {
        let params = ConsensusParams::for_crashes(0, &MacConfig::from_ticks(2, 16));
        run_consensus(
            &complete_dual(2),
            MacConfig::from_ticks(2, 16),
            &[true, false],
            &params,
            FaultPlan::new(),
            EagerPolicy::new(),
            &RunOptions::fast(),
        );
    }
}
