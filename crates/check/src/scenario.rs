//! Checkable scenarios: a protocol instance plus its safety properties.
//!
//! A [`Scenario`] packages everything one execution needs — topology,
//! MAC bounds, protocol parameters, fault latitude — behind a single
//! entry point that resolves all nondeterminism through a
//! [`ReplaySource`] and judges the finished run against its properties.
//! The explorer re-invokes `run` once per schedule; the scenario must
//! therefore be a pure function of the schedule (it draws *everything*,
//! including crash placement and protocol back-offs, from the source).
//!
//! Properties are reported as a coarse identifier (for the shrinker to
//! match violations across schedules) plus a human-readable detail:
//!
//! * `"mac"` — one of the five model guarantees, from [`OnlineValidator`]
//!   (crash-conditioned when the schedule placed faults);
//! * `"consensus"` — agreement/validity/termination/integrity, from
//!   [`validate_consensus`];
//! * `"election"` — ≤ 1 elected leader and the election liveness
//!   conditions, from [`validate_election`];
//! * `"completion"` — a flood that went quiescent without delivering
//!   everything.
//!
//! [`OnlineValidator`]: amac_mac::OnlineValidator
//! [`validate_consensus`]: amac_proto::consensus::validate_consensus
//! [`validate_election`]: amac_proto::election::validate_election

use crate::schedule::ReplaySource;
use amac_core::{run_bmmb, Assignment, RunOptions};
use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::{ChoicePoint, ChoicePolicy, ChoiceSource, FaultPlan, MacConfig, ValidationReport};
use amac_proto::consensus::{run_consensus, ConsensusParams};
use amac_proto::election::run_election_with_backoffs;
use amac_sim::{Duration, Time};
use std::path::Path;

/// Property identifier for MAC-model guarantee violations.
pub const PROP_MAC: &str = "mac";
/// Property identifier for consensus safety/termination violations.
pub const PROP_CONSENSUS: &str = "consensus";
/// Property identifier for election safety/liveness violations.
pub const PROP_ELECTION: &str = "election";
/// Property identifier for incomplete floods.
pub const PROP_COMPLETION: &str = "completion";

/// The judged outcome of one execution.
#[derive(Clone, Debug)]
pub struct RunVerdict {
    /// Violated property identifier, when the run broke one.
    pub property: Option<&'static str>,
    /// Human-readable description of the first violation.
    pub detail: Option<String>,
    /// MAC-level events the execution emitted.
    pub events: u64,
    /// The validator's fingerprint of the emitted event stream
    /// ([`OnlineStats::fingerprint`](amac_mac::OnlineStats::fingerprint))
    /// — two schedules with equal fingerprints induced the same observable
    /// execution.
    pub fingerprint: u64,
}

/// A bounded model-checking target: builds and judges one execution per
/// schedule.
pub trait Scenario {
    /// Short identifier (used in reports and JSON output).
    fn name(&self) -> &str;

    /// Runs one execution with all nondeterminism resolved by `source`,
    /// optionally recording it to an `.amactrace` file at `record`.
    fn run(&self, source: &mut ReplaySource, record: Option<&Path>) -> RunVerdict;
}

fn mac_verdict(validation: Option<&ValidationReport>) -> Option<String> {
    validation.and_then(|v| v.violations().first().map(std::string::ToString::to_string))
}

fn run_options(record: Option<&Path>) -> RunOptions {
    let options = RunOptions::default();
    match record {
        // Schedules have no seed; the header seed is metadata only.
        Some(path) => options.recording(path, 0),
        None => options,
    }
}

/// Draws a crash plan from the source: `slots` crash slots, each either
/// skipped or placed on a `(node, tick)` pair with the tick inside
/// `window`. With `optional` the skip arm is alternative 0, so the DFS
/// default schedule is crash-free.
fn draw_crashes(
    source: &mut ReplaySource,
    nodes: usize,
    slots: usize,
    window: u64,
    optional: bool,
) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for _ in 0..slots {
        let width = nodes as u64 + u64::from(optional);
        let pick = source.choose(ChoicePoint::FaultPlacement, width);
        let target = if optional {
            if pick == 0 {
                continue; // skip arm: this slot crashes nobody
            }
            pick - 1
        } else {
            pick
        };
        let tick = source.choose(ChoicePoint::FaultPlacement, window);
        plan = plan.crash_at(NodeId::new(target as usize), Time::from_ticks(tick));
    }
    plan
}

/// Bounded consensus instance on a complete graph.
///
/// The *certified* construction runs the shipped protocol with the phase
/// count matching its crash budget ([`ConsensusParams::for_crashes`]) —
/// exhaustive exploration must find zero violations. The *broken*
/// construction under-provisions the phase count (1 phase against a
/// 1-crash budget), the classic flood-set mistake; the checker finds the
/// crash placement and delivery timing that break agreement, shrinks the
/// schedule, and emits the fixture.
#[derive(Clone, Debug)]
pub struct ConsensusScenario {
    /// Node count (complete reliable topology).
    pub nodes: usize,
    /// `F_ack` in ticks of the check-scale MAC config (`F_prog` = 1).
    pub f_ack: u64,
    /// Per-node initial values.
    pub inputs: Vec<bool>,
    /// Crash slots the schedule may place.
    pub crashes: usize,
    /// Crash slots may be skipped (certified) or must fire (broken —
    /// keeps the bug's precondition on every DFS branch so it is found
    /// without first exhausting the crash-free subspace).
    pub optional_crashes: bool,
    /// Crash ticks are drawn from `[0, crash_window)`.
    pub crash_window: u64,
    /// Phase-count override; `None` uses the shipped
    /// [`ConsensusParams::for_crashes`] provisioning.
    pub phases: Option<u64>,
}

impl ConsensusScenario {
    /// The shipped protocol, provisioned for `crashes` crashes: the
    /// certification target (expected violation-free).
    pub fn certified(nodes: usize, crashes: usize) -> ConsensusScenario {
        ConsensusScenario {
            nodes,
            f_ack: 2,
            // Minority holds `false` (the contagious value): the hardest
            // inputs for agreement-under-crash, since losing one node can
            // lose the minority value entirely.
            inputs: (0..nodes).map(|i| i != 0).collect(),
            crashes,
            optional_crashes: true,
            crash_window: 4,
            phases: None,
        }
    }

    /// The deliberately broken variant: a 1-crash budget served by a
    /// single phase. Used by tests and `repro check consensus --broken`
    /// to exercise the shrinker and fixture pipeline.
    pub fn broken(nodes: usize) -> ConsensusScenario {
        ConsensusScenario {
            crashes: 1,
            optional_crashes: false,
            phases: Some(1),
            ..ConsensusScenario::certified(nodes, 1)
        }
    }

    fn config(&self) -> MacConfig {
        MacConfig::from_ticks(1, self.f_ack).enhanced()
    }

    fn params(&self) -> ConsensusParams {
        let config = self.config();
        match self.phases {
            Some(phases) => ConsensusParams {
                phases,
                phase_len: config.f_ack() + Duration::from_ticks(2),
            },
            None => ConsensusParams::for_crashes(self.crashes, &config),
        }
    }
}

impl Scenario for ConsensusScenario {
    fn name(&self) -> &str {
        "consensus"
    }

    fn run(&self, source: &mut ReplaySource, record: Option<&Path>) -> RunVerdict {
        let dual = DualGraph::reliable(
            generators::complete(self.nodes).expect("complete graph of n ≥ 1 nodes"),
        );
        let plan = draw_crashes(
            source,
            self.nodes,
            self.crashes,
            self.crash_window,
            self.optional_crashes,
        );
        let report = run_consensus(
            &dual,
            self.config(),
            &self.inputs,
            &self.params(),
            plan,
            ChoicePolicy::new(&mut *source),
            &run_options(record),
        );
        let stats = report.validator_stats.expect("checked runs are validated");
        let (property, detail) = if let Some(d) = mac_verdict(report.validation.as_ref()) {
            (Some(PROP_MAC), Some(d))
        } else if let Some(v) = report.check.violations().first() {
            (Some(PROP_CONSENSUS), Some(v.to_string()))
        } else {
            (None, None)
        };
        RunVerdict {
            property,
            detail,
            events: stats.events,
            fingerprint: stats.fingerprint,
        }
    }
}

/// Bounded leader-election instance on a complete graph, with per-node
/// back-offs enumerated by the schedule (via
/// [`run_election_with_backoffs`]) alongside the scheduler's freedom.
#[derive(Clone, Debug)]
pub struct ElectionScenario {
    /// Node count (complete reliable topology).
    pub nodes: usize,
    /// `F_ack` in ticks of the check-scale MAC config (`F_prog` = 1).
    pub f_ack: u64,
    /// Back-offs are drawn from `[0, window)` ticks per node.
    pub window: u64,
}

impl ElectionScenario {
    /// The shipped election protocol at check scale (expected
    /// violation-free).
    pub fn certified(nodes: usize) -> ElectionScenario {
        ElectionScenario {
            nodes,
            f_ack: 2,
            window: 2,
        }
    }
}

impl Scenario for ElectionScenario {
    fn name(&self) -> &str {
        "election"
    }

    fn run(&self, source: &mut ReplaySource, record: Option<&Path>) -> RunVerdict {
        let dual = DualGraph::reliable(
            generators::complete(self.nodes).expect("complete graph of n ≥ 1 nodes"),
        );
        let config = MacConfig::from_ticks(1, self.f_ack).enhanced();
        let backoffs: Vec<Duration> = (0..self.nodes)
            .map(|_| Duration::from_ticks(source.choose(ChoicePoint::ProtocolChoice, self.window)))
            .collect();
        let report = run_election_with_backoffs(
            &dual,
            config,
            &backoffs,
            FaultPlan::new(),
            ChoicePolicy::new(&mut *source),
            &run_options(record),
        );
        let stats = report.validator_stats.expect("checked runs are validated");
        let (property, detail) = if let Some(d) = mac_verdict(report.validation.as_ref()) {
            (Some(PROP_MAC), Some(d))
        } else if let Some(v) = report.check.violations().first() {
            (Some(PROP_ELECTION), Some(v.to_string()))
        } else {
            (None, None)
        };
        RunVerdict {
            property,
            detail,
            events: stats.events,
            fingerprint: stats.fingerprint,
        }
    }
}

/// Bounded BMMB flood on a line: `messages` tokens injected at node 0,
/// checked for MAC conformance and completion at quiescence.
#[derive(Clone, Debug)]
pub struct FloodScenario {
    /// Node count (line topology — the diameter-stressing shape).
    pub nodes: usize,
    /// Messages all started at node 0.
    pub messages: usize,
    /// `F_ack` in ticks of the check-scale MAC config (`F_prog` = 1).
    pub f_ack: u64,
}

impl FloodScenario {
    /// The shipped BMMB flood at check scale (expected violation-free).
    pub fn certified(nodes: usize, messages: usize) -> FloodScenario {
        FloodScenario {
            nodes,
            messages,
            f_ack: 2,
        }
    }
}

impl Scenario for FloodScenario {
    fn name(&self) -> &str {
        "flood"
    }

    fn run(&self, source: &mut ReplaySource, record: Option<&Path>) -> RunVerdict {
        let dual = DualGraph::reliable(generators::line(self.nodes).expect("line of n ≥ 2 nodes"));
        let config = MacConfig::from_ticks(1, self.f_ack);
        let report = run_bmmb(
            &dual,
            config,
            &Assignment::all_at(NodeId::new(0), self.messages),
            ChoicePolicy::new(&mut *source),
            &run_options(record),
        );
        let stats = report.validator_stats.expect("checked runs are validated");
        let (property, detail) = if let Some(d) = mac_verdict(report.validation.as_ref()) {
            (Some(PROP_MAC), Some(d))
        } else if report.completion.is_none() {
            (
                Some(PROP_COMPLETION),
                Some("flood went quiescent before every node held every message".to_string()),
            )
        } else {
            (None, None)
        };
        RunVerdict {
            property,
            detail,
            events: stats.events,
            fingerprint: stats.fingerprint,
        }
    }
}
