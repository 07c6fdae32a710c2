//! Wake-up / leader election via randomized broadcast back-off on the
//! enhanced abstract MAC layer.
//!
//! ## The protocol
//!
//! Every node draws an independent back-off delay uniformly from
//! `[0, window)` and sleeps. When its timer fires and it has heard no
//! claim yet, it *claims* leadership by broadcasting its own id; a node
//! that hears a claim first never initiates (suppression — the wake-up
//! service of the NR18 consensus construction). Claims flood: whenever a
//! node learns of a smaller claimed id it adopts it and rebroadcasts it
//! once (re-arming on `ack` if a better claim arrived mid-broadcast). On a
//! connected reliable graph the execution quiesces with every live node
//! agreeing on the *smallest claimed id* — typically after only a handful
//! of claims, because the first claim's flood outruns most back-off
//! timers.
//!
//! The back-off makes initiation count (message complexity) small while
//! the flood makes convergence fast: expected time is
//! `O(window + D·F_prog)` under any valid scheduler, which the `election`
//! experiment in `amac-bench` sweeps over grey-zone duals.
//!
//! [`validate_election`] re-checks the outcome post hoc: all live nodes
//! agree on one leader, that leader actually claimed, and (crash-free) it
//! is the smallest claimant. Crashes are supported via
//! [`FaultPlan`]: agreement among live nodes survives any crash pattern
//! that leaves the live part of `G` connected, though the elected id may
//! belong to a node that crashed after claiming (wake-up semantics: the
//! service elects an *id*, it does not monitor the leader's health).
//!
//! Crash-*recovery* is supported too, unlike in the crash-stop
//! [`consensus`](crate::consensus) protocol: a node re-joining re-arms its
//! back-off (if it never heard a claim) or re-announces its possibly stale
//! best, and the *challenge-response* rule — any node hearing a strictly
//! worse claim re-floods its better one — pulls the late-comer back to
//! the network's choice.

use amac_core::{InstrumentReport, Instruments, RunOptions};
use amac_graph::{DualGraph, NodeId};
use amac_mac::{
    Automaton, Ctx, FaultPlan, MacConfig, MacMessage, MessageKey, OnlineStats, Policy, RunOutcome,
    Runtime, ValidationReport,
};
use amac_sim::stats::Counters;
use amac_sim::{Duration, SimRng, Time};
use std::fmt;

/// A leadership claim: the smallest candidate id its sender knows of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClaimMsg {
    /// The claimed candidate.
    pub candidate: NodeId,
}

impl MacMessage for ClaimMsg {
    /// Semantic key: every relay of the same candidate carries the same
    /// key, so duplicate-feeding schedulers recognize re-floods.
    fn key(&self) -> MessageKey {
        MessageKey(self.candidate.index() as u64)
    }
}

/// The per-node automaton: see the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct ElectionNode {
    backoff: Duration,
    best: Option<NodeId>,
    initiated: bool,
    /// A strictly worse claim arrived while a broadcast was in flight:
    /// answer it with our better claim once the ack frees us.
    challenge: bool,
}

impl ElectionNode {
    /// A node that will claim leadership after `backoff` unless suppressed
    /// by an earlier claim.
    pub fn new(backoff: Duration) -> ElectionNode {
        ElectionNode {
            backoff,
            best: None,
            initiated: false,
            challenge: false,
        }
    }

    /// The smallest claimed id this node has adopted, if any.
    pub fn leader(&self) -> Option<NodeId> {
        self.best
    }

    /// `true` if this node initiated a claim of its own (its back-off
    /// fired before any claim reached it).
    pub fn initiated(&self) -> bool {
        self.initiated
    }

    fn adopt(&mut self, candidate: NodeId, ctx: &mut Ctx<'_, ClaimMsg, NodeId>) {
        self.best = Some(candidate);
        ctx.output(candidate);
        if !ctx.has_broadcast_in_flight() {
            ctx.bcast(ClaimMsg { candidate });
        }
        // Else: a stale claim is in flight; on_ack re-floods the newer one.
    }
}

impl Automaton for ElectionNode {
    type Msg = ClaimMsg;
    type Env = ();
    type Out = NodeId;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ClaimMsg, NodeId>) {
        ctx.set_timer(self.backoff, 0);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_, ClaimMsg, NodeId>) {
        if self.best.is_none() {
            self.initiated = true;
            self.adopt(ctx.id(), ctx);
        }
    }

    fn on_receive(&mut self, msg: &ClaimMsg, ctx: &mut Ctx<'_, ClaimMsg, NodeId>) {
        match self.best {
            Some(b) if msg.candidate > b => {
                // Challenge-response: the sender believes in a strictly
                // worse leader (a late initiator, or a node re-joining
                // after an outage) — re-flood the better claim so it
                // converges instead of staying split.
                if ctx.has_broadcast_in_flight() {
                    self.challenge = true;
                } else {
                    ctx.bcast(ClaimMsg { candidate: b });
                }
            }
            Some(b) if msg.candidate == b => {}
            _ => self.adopt(msg.candidate, ctx),
        }
    }

    fn on_ack(&mut self, msg: &ClaimMsg, ctx: &mut Ctx<'_, ClaimMsg, NodeId>) {
        let challenged = std::mem::take(&mut self.challenge);
        if let Some(best) = self.best {
            if best < msg.candidate || challenged {
                // A better claim arrived while the old one was in flight,
                // or a worse claimant is waiting for correction.
                ctx.bcast(ClaimMsg { candidate: best });
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, ClaimMsg, NodeId>) {
        match self.best {
            // The outage may have swallowed the back-off timer: re-arm it
            // (the node claims later unless a claim reaches it first).
            None => {
                ctx.set_timer(self.backoff, 0);
            }
            // Re-announce our best: if the network converged lower while
            // we were out, any neighbor's challenge-response corrects us.
            Some(b) => {
                if !ctx.has_broadcast_in_flight() {
                    ctx.bcast(ClaimMsg { candidate: b });
                }
            }
        }
    }
}

/// A violation of the election guarantees found in one execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ElectionViolation {
    /// Two live nodes ended with different leaders.
    LeaderDisagreement {
        /// A live node and its leader.
        a: NodeId,
        /// The disagreeing live node.
        b: NodeId,
    },
    /// A live node ended with no leader at all.
    MissingLeader {
        /// The leaderless node.
        node: NodeId,
    },
    /// The agreed leader never actually claimed leadership.
    PhantomLeader {
        /// The phantom id.
        leader: NodeId,
    },
    /// Crash-free executions must elect the *smallest* claimant.
    NotTheSmallestClaimant {
        /// The elected id.
        leader: NodeId,
        /// The smaller claimant that should have won.
        smallest: NodeId,
    },
}

impl fmt::Display for ElectionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElectionViolation::LeaderDisagreement { a, b } => {
                write!(f, "live nodes {a} and {b} ended with different leaders")
            }
            ElectionViolation::MissingLeader { node } => {
                write!(f, "live node {node} ended with no leader")
            }
            ElectionViolation::PhantomLeader { leader } => {
                write!(f, "elected id {leader} never claimed leadership")
            }
            ElectionViolation::NotTheSmallestClaimant { leader, smallest } => {
                write!(f, "elected {leader} although {smallest} also claimed")
            }
        }
    }
}

/// The post-hoc election verdict.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ElectionCheck {
    violations: Vec<ElectionViolation>,
}

impl ElectionCheck {
    /// `true` when the election guarantees held.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations found.
    pub fn violations(&self) -> &[ElectionViolation] {
        &self.violations
    }
}

impl fmt::Display for ElectionCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(f, "election guarantees hold");
        }
        writeln!(f, "{} election violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Re-checks an election outcome: agreement and completeness among live
/// nodes, the leader being a real claimant, and — when no node crashed —
/// minimality of the elected id.
pub fn validate_election(
    leaders: &[Option<NodeId>],
    claimants: &[NodeId],
    live: &[bool],
) -> ElectionCheck {
    let mut check = ElectionCheck::default();
    let mut agreed: Option<(NodeId, NodeId)> = None; // (node, its leader)
    for (i, leader) in leaders.iter().enumerate() {
        if !live[i] {
            continue;
        }
        let node = NodeId::new(i);
        match (leader, agreed) {
            (None, _) => check
                .violations
                .push(ElectionViolation::MissingLeader { node }),
            (Some(l), None) => agreed = Some((node, *l)),
            (Some(l), Some((first, first_leader))) => {
                if *l != first_leader {
                    check
                        .violations
                        .push(ElectionViolation::LeaderDisagreement { a: first, b: node });
                }
            }
        }
    }
    if let Some((_, leader)) = agreed {
        if !claimants.contains(&leader) {
            check
                .violations
                .push(ElectionViolation::PhantomLeader { leader });
        }
        if live.iter().all(|&l| l) {
            if let Some(&smallest) = claimants.iter().min() {
                if smallest < leader {
                    check
                        .violations
                        .push(ElectionViolation::NotTheSmallestClaimant { leader, smallest });
                }
            }
        }
    }
    check
}

/// Result of one election execution.
#[derive(Clone, Debug)]
pub struct ElectionReport {
    /// Per-node elected leader (`None` for nodes that heard nothing, e.g.
    /// crashed early).
    pub leaders: Vec<Option<NodeId>>,
    /// Nodes whose back-off fired before any claim reached them, in id
    /// order — the protocol's message-complexity driver.
    pub claimants: Vec<NodeId>,
    /// Per-node liveness at the end of the run.
    pub live: Vec<bool>,
    /// The instant the last node adopted its final leader — the
    /// convergence time.
    pub convergence: Option<Time>,
    /// Simulated time when the run stopped.
    pub end_time: Time,
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// MAC-level event counters.
    pub counters: Counters,
    /// The election-level verdict ([`validate_election`]).
    pub check: ElectionCheck,
    /// MAC-model trace validation, when requested.
    pub validation: Option<ValidationReport>,
    /// Peak-memory statistics of the streaming validator, when validation
    /// ran.
    pub validator_stats: Option<OnlineStats>,
    /// Deterministic sim-time metrics when [`RunOptions::metrics`] was
    /// set.
    pub metrics: Option<amac_obs::MetricsReport>,
}

impl ElectionReport {
    /// The elected leader, when the election succeeded.
    pub fn leader(&self) -> Option<NodeId> {
        if !self.check.is_ok() {
            return None;
        }
        self.leaders.iter().flatten().next().copied()
    }

    /// `true` when every live node elected the same valid leader and (if
    /// validated) the MAC trace conformed to the model.
    pub fn ok(&self) -> bool {
        self.check.is_ok()
            && self.convergence.is_some()
            && self
                .validation
                .as_ref()
                .map_or(true, amac_mac::ValidationReport::is_ok)
    }

    /// Convergence time in ticks.
    ///
    /// # Panics
    ///
    /// Panics if no node ever adopted a leader.
    pub fn convergence_ticks(&self) -> u64 {
        self.convergence
            .expect("election never adopted any leader")
            .ticks()
    }

    /// Number of election violations plus MAC-trace violations — the
    /// quantity the `election` experiment aggregates (its mean must be
    /// exactly 0).
    pub fn violation_count(&self) -> usize {
        self.check.violations().len() + self.validation.as_ref().map_or(0, |v| v.violations().len())
    }
}

impl fmt::Display for ElectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.leader() {
            Some(l) => write!(f, "elected {l}")?,
            None => write!(f, "no agreed leader")?,
        }
        write!(
            f,
            "; {} claimant(s) over {} node(s), {}",
            self.claimants.len(),
            self.leaders.len(),
            self.check
        )
    }
}

/// Runs one election over `dual`: per-node back-offs drawn uniformly from
/// `[0, window)` out of `SimRng::seed(seed).split(node)`, execution run to
/// quiescence, outcome re-checked post hoc.
///
/// # Panics
///
/// Panics unless `config` is the enhanced variant (back-off needs timers)
/// and `window` is at least one tick.
pub fn run_election<P: Policy>(
    dual: &DualGraph,
    config: MacConfig,
    window: Duration,
    seed: u64,
    faults: FaultPlan,
    policy: P,
    options: &RunOptions,
) -> ElectionReport {
    assert!(
        window.ticks() >= 1,
        "back-off window must be at least 1 tick"
    );
    let root = SimRng::seed(seed);
    let backoffs: Vec<Duration> = (0..dual.len())
        .map(|i| {
            let mut rng = root.split(i as u64);
            Duration::from_ticks(rng.below(window.ticks()))
        })
        .collect();
    run_election_with_backoffs(dual, config, &backoffs, faults, policy, options)
}

/// Runs one election with *explicit* per-node back-offs instead of seeded
/// draws — the entry point `amac-check` uses to enumerate the protocol's
/// own nondeterminism (each back-off becomes a checker choice) alongside
/// the scheduler's.
///
/// # Panics
///
/// Panics unless `config` is the enhanced variant (back-off needs timers)
/// and `backoffs` has one entry per node.
pub fn run_election_with_backoffs<P: Policy>(
    dual: &DualGraph,
    config: MacConfig,
    backoffs: &[Duration],
    faults: FaultPlan,
    policy: P,
    options: &RunOptions,
) -> ElectionReport {
    assert!(
        config.is_enhanced(),
        "election back-off needs timers: use MacConfig::enhanced()"
    );
    let n = dual.len();
    assert_eq!(backoffs.len(), n, "one back-off per node");
    let nodes = backoffs.iter().map(|&b| ElectionNode::new(b)).collect();
    let mut rt = Runtime::new(dual.clone(), config, nodes, policy).with_faults(faults.clone());
    let instruments = Instruments::attach(options, &mut rt, Some(&faults));

    let mut convergence: Option<Time> = None;
    let outcome = loop {
        let step_outcome = rt.run_until_next(Time::MAX);
        for rec in rt.drain_outputs() {
            // Adoptions only improve, so the last one is the convergence
            // instant.
            convergence = Some(rec.time);
        }
        if let Some(o) = step_outcome {
            break o;
        }
    };

    let leaders: Vec<Option<NodeId>> = (0..n).map(|i| rt.node(NodeId::new(i)).leader()).collect();
    let claimants: Vec<NodeId> = (0..n)
        .map(NodeId::new)
        .filter(|&i| rt.node(i).initiated())
        .collect();
    let live: Vec<bool> = (0..n).map(|i| !rt.is_crashed(NodeId::new(i))).collect();
    let check = validate_election(&leaders, &claimants, &live);
    let InstrumentReport {
        validation,
        validator_stats,
        metrics,
    } = instruments.finish(&mut rt, outcome);

    ElectionReport {
        leaders,
        claimants,
        live,
        convergence,
        end_time: rt.now(),
        outcome,
        counters: rt.counters(),
        check,
        validation,
        validator_stats,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_graph::generators;
    use amac_mac::policies::{EagerPolicy, LazyPolicy, RandomPolicy};

    fn cfg() -> MacConfig {
        MacConfig::from_ticks(2, 12).enhanced()
    }

    fn line_dual(n: usize) -> DualGraph {
        DualGraph::reliable(generators::line(n).unwrap())
    }

    #[test]
    fn every_node_elects_the_smallest_claimant() {
        for seed in 0..10u64 {
            let report = run_election(
                &line_dual(12),
                cfg(),
                Duration::from_ticks(30),
                seed,
                FaultPlan::new(),
                LazyPolicy::new(),
                &RunOptions::default(),
            );
            assert!(report.ok(), "seed {seed}: {report}");
            let leader = report.leader().unwrap();
            assert_eq!(
                Some(&leader),
                report.claimants.iter().min(),
                "seed {seed}: smallest claimant wins"
            );
            assert!(!report.claimants.is_empty());
        }
    }

    #[test]
    fn suppression_keeps_the_claimant_count_low() {
        // A tiny flood time relative to the window: the first claim
        // reaches everyone long before most back-offs fire.
        let report = run_election(
            &DualGraph::reliable(generators::complete(16).unwrap()),
            cfg(),
            Duration::from_ticks(200),
            3,
            FaultPlan::new(),
            EagerPolicy::new(),
            &RunOptions::default(),
        );
        assert!(report.ok(), "{report}");
        assert!(
            report.claimants.len() <= 3,
            "flooding should suppress most claims, got {}",
            report.claimants.len()
        );
    }

    #[test]
    fn election_survives_crashes_that_keep_g_connected() {
        // Crash two interior nodes of a complete graph mid-election: the
        // live rest still agrees.
        let n = 10;
        let dual = DualGraph::reliable(generators::complete(n).unwrap());
        for seed in 0..10u64 {
            let faults = FaultPlan::new()
                .crash_at(NodeId::new(4), Time::from_ticks(seed % 7))
                .crash_at(NodeId::new(7), Time::from_ticks(3 + seed % 11));
            let report = run_election(
                &dual,
                cfg(),
                Duration::from_ticks(40),
                seed,
                faults,
                RandomPolicy::new(seed),
                &RunOptions::default(),
            );
            assert!(report.ok(), "seed {seed}: {report}");
        }
    }

    #[test]
    fn recovered_node_rejoins_and_agrees() {
        // Node 5 is out for the entire election and recovers long after
        // the flood quiesced: its re-armed back-off fires, it claims
        // itself, and the challenge-response of its neighbors (or its own
        // smaller id winning) pulls everyone to one leader again.
        let n = 8;
        let dual = DualGraph::reliable(generators::complete(n).unwrap());
        for seed in 0..10u64 {
            let faults = FaultPlan::new()
                .crash_at(NodeId::new(5), Time::ZERO)
                .recover_at(NodeId::new(5), Time::from_ticks(200));
            let report = run_election(
                &dual,
                cfg(),
                Duration::from_ticks(30),
                seed,
                faults,
                EagerPolicy::new(),
                &RunOptions::default(),
            );
            assert!(report.ok(), "seed {seed}: {report}");
            assert_eq!(
                report.leaders[5], report.leaders[0],
                "seed {seed}: the late-comer must converge to the same leader"
            );
            assert_eq!(report.violation_count(), 0);
        }
    }

    #[test]
    fn convergence_is_bounded_by_window_plus_flood_time() {
        let n = 16;
        let report = run_election(
            &line_dual(n),
            cfg(),
            Duration::from_ticks(20),
            5,
            FaultPlan::new(),
            LazyPolicy::new(),
            &RunOptions::default(),
        );
        assert!(report.ok(), "{report}");
        // Generous O(window + D * F_ack) sanity bound.
        let bound = 20 + (n as u64) * 12 * 2;
        assert!(
            report.convergence_ticks() <= bound,
            "converged at {} > bound {bound}",
            report.convergence_ticks()
        );
    }

    #[test]
    fn validator_flags_phantom_and_split_leaders() {
        let leaders = vec![Some(NodeId::new(2)), Some(NodeId::new(3)), None];
        let claimants = vec![NodeId::new(3)];
        let live = vec![true, true, true];
        let check = validate_election(&leaders, &claimants, &live);
        assert!(check
            .violations()
            .iter()
            .any(|v| matches!(v, ElectionViolation::LeaderDisagreement { .. })));
        assert!(check
            .violations()
            .iter()
            .any(|v| matches!(v, ElectionViolation::MissingLeader { .. })));
        assert!(check
            .violations()
            .iter()
            .any(|v| matches!(v, ElectionViolation::PhantomLeader { .. })));
        let minimality = validate_election(
            &[Some(NodeId::new(1)), Some(NodeId::new(1))],
            &[NodeId::new(0), NodeId::new(1)],
            &[true, true],
        );
        assert!(minimality
            .violations()
            .iter()
            .any(|v| matches!(v, ElectionViolation::NotTheSmallestClaimant { .. })));
    }
}
