//! FMMB execution harness: builds the per-node automata, runs the
//! schedule, and reports completion plus MIS diagnostics.

use super::node::{Fmmb, MisStatus};
use super::params::FmmbParams;
use crate::harness::{InstrumentReport, Instruments, RunOptions};
use crate::mmb::{Assignment, CompletionTracker, Delivered};
use amac_graph::{algo, DualGraph, NodeId, NodeSet};
use amac_mac::{MacConfig, OnlineStats, Policy, RunOutcome, Runtime, ValidationReport};
use amac_sim::stats::Counters;
use amac_sim::{SimRng, Time};
use std::fmt;

/// Result of one FMMB run.
#[derive(Clone, Debug)]
pub struct FmmbReport {
    /// Time of the last required delivery, if the problem was solved.
    pub completion: Option<Time>,
    /// Simulated time when the run stopped.
    pub end_time: Time,
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Required deliveries still missing.
    pub missing: usize,
    /// The MIS computed by the subroutine.
    pub mis: NodeSet,
    /// `true` if the MIS is a maximal independent set of `G` (Lemma 4.5's
    /// w.h.p. guarantee; can be `false` on unlucky seeds).
    pub mis_valid: bool,
    /// Message instances broadcast over the MAC layer.
    pub instances: usize,
    /// MAC-level event counters.
    pub counters: Counters,
    /// Validation report from the streaming validator, when requested.
    pub validation: Option<ValidationReport>,
    /// Peak-memory statistics of the streaming validator, when validation
    /// ran.
    pub validator_stats: Option<OnlineStats>,
    /// Total rounds in the schedule (for round-based accounting).
    pub schedule_rounds: u64,
    /// Always `None`, as is `shard_stats`. The benchmark under
    /// `perfbench/` builds this report as a struct literal that names both
    /// fields, so they stay, with a type that can hold no value, until
    /// that literal drops them.
    pub trace: Option<std::convert::Infallible>,
    /// Always `None`: see [`trace`](FmmbReport::trace).
    pub shard_stats: Option<std::convert::Infallible>,
    /// Deterministic sim-time metrics when [`RunOptions::metrics`] was
    /// set.
    pub metrics: Option<amac_obs::MetricsReport>,
}

impl FmmbReport {
    /// `true` when the problem was solved, the MIS was valid, and (if
    /// validated) the execution conformed to the model.
    pub fn solved_and_valid(&self) -> bool {
        self.completion.is_some()
            && self.mis_valid
            && self
                .validation
                .as_ref()
                .map_or(true, amac_mac::ValidationReport::is_ok)
    }

    /// Completion time in ticks.
    ///
    /// # Panics
    ///
    /// Panics if the run did not complete.
    pub fn completion_ticks(&self) -> u64 {
        self.completion.expect("FMMB run did not complete").ticks()
    }
}

impl fmt::Display for FmmbReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.completion {
            Some(t) => write!(f, "solved at t={t}")?,
            None => write!(f, "unsolved ({} deliveries missing)", self.missing)?,
        }
        write!(
            f,
            "; MIS size {} ({}), {} instances",
            self.mis.len(),
            if self.mis_valid { "valid" } else { "INVALID" },
            self.instances
        )
    }
}

/// Runs FMMB over `dual` under the enhanced MAC layer.
///
/// `seed` derives each node's private random stream (`seed.split(node)`),
/// mirroring the paper's up-front randomness model.
///
/// # Panics
///
/// Panics if `config` is not the enhanced variant — FMMB requires timers,
/// abort, and knowledge of `F_prog`.
///
/// # Examples
///
/// ```no_run
/// use amac_core::{run_fmmb, Assignment, FmmbParams, RunOptions};
/// use amac_graph::{generators, NodeId};
/// use amac_mac::{policies::LazyPolicy, MacConfig};
/// use amac_sim::SimRng;
///
/// let mut rng = SimRng::seed(5);
/// let net = generators::connected_grey_zone_network(
///     &generators::GreyZoneConfig::new(40, 4.0),
///     100,
///     &mut rng,
/// )?;
/// let config = MacConfig::from_ticks(2, 50).enhanced();
/// let assignment = Assignment::random(40, 3, &mut rng);
/// let params = FmmbParams::new(3, net.dual.diameter());
/// let report = run_fmmb(
///     &net.dual, config, &assignment, &params, 7,
///     LazyPolicy::new(), &RunOptions::default(),
/// );
/// assert!(report.solved_and_valid());
/// # Ok::<(), amac_graph::GraphError>(())
/// ```
pub fn run_fmmb<P: Policy>(
    dual: &DualGraph,
    config: MacConfig,
    assignment: &Assignment,
    params: &FmmbParams,
    seed: u64,
    policy: P,
    options: &RunOptions,
) -> FmmbReport {
    assert!(
        config.is_enhanced(),
        "FMMB requires the enhanced abstract MAC layer (use MacConfig::enhanced)"
    );
    let n = dual.len();
    let schedule = params.schedule(n);
    let root = SimRng::seed(seed);
    let nodes: Vec<Fmmb> = (0..n)
        .map(|i| {
            let node = Fmmb::new(
                schedule.clone(),
                params.activation_probability,
                root.split(i as u64),
            );
            if params.use_abort {
                node
            } else {
                node.without_abort()
            }
        })
        .collect();

    let mut rt = Runtime::new(dual.clone(), config, nodes, policy);
    let instruments = Instruments::attach(options, &mut rt, None);
    for (node, msg) in assignment.arrivals() {
        rt.inject(*node, *msg);
    }

    let mut tracker = CompletionTracker::new(dual, assignment);
    let outcome = loop {
        if options.stop_on_completion && tracker.is_complete() {
            break RunOutcome::Stopped;
        }
        let step_outcome = rt.run_until_next(Time::MAX);
        for rec in rt.drain_outputs() {
            let Delivered(id) = rec.out;
            tracker.record(rec.time, rec.node, id);
        }
        if let Some(o) = step_outcome {
            break o;
        }
    };

    let mut mis = NodeSet::new(n);
    for i in 0..n {
        if rt.node(NodeId::new(i)).mis_status() == MisStatus::InMis {
            mis.insert(NodeId::new(i));
        }
    }
    let mis_valid = algo::is_maximal_independent(dual.g(), &mis);

    let InstrumentReport {
        validation,
        validator_stats,
        metrics,
    } = instruments.finish(&mut rt, outcome);

    FmmbReport {
        completion: tracker.completed_at(),
        end_time: rt.now(),
        outcome,
        missing: tracker.remaining(),
        mis,
        mis_valid,
        instances: rt.instances_started(),
        counters: rt.counters(),
        validation,
        validator_stats,
        schedule_rounds: schedule.total_rounds(),
        trace: None,
        shard_stats: None,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_graph::generators;
    use amac_mac::policies::{EagerPolicy, LazyPolicy};

    fn grey_net(n: usize, side: f64, seed: u64) -> amac_graph::generators::GreyZoneNetwork {
        let mut rng = SimRng::seed(seed);
        generators::connected_grey_zone_network(
            &generators::GreyZoneConfig::new(n, side),
            200,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn fmmb_solves_small_grey_zone_network() {
        let net = grey_net(24, 3.0, 11);
        let config = MacConfig::from_ticks(2, 40).enhanced();
        let mut rng = SimRng::seed(21);
        let assignment = Assignment::random(24, 2, &mut rng);
        let params = FmmbParams::new(2, net.dual.diameter());
        let report = run_fmmb(
            &net.dual,
            config,
            &assignment,
            &params,
            3,
            LazyPolicy::new(),
            &RunOptions::default().stopping_on_completion(),
        );
        assert!(report.mis_valid, "MIS invalid: {report}");
        assert!(report.completion.is_some(), "unsolved: {report}");
    }

    #[test]
    fn fmmb_mis_is_maximal_independent_across_seeds() {
        let net = grey_net(30, 3.5, 4);
        let config = MacConfig::from_ticks(2, 30).enhanced();
        let assignment = Assignment::all_at(NodeId::new(0), 1);
        let params = FmmbParams::new(1, net.dual.diameter());
        let mut ok = 0;
        for seed in 0..5 {
            let report = run_fmmb(
                &net.dual,
                config,
                &assignment,
                &params,
                seed,
                EagerPolicy::new(),
                &RunOptions::fast().stopping_on_completion(),
            );
            if report.mis_valid {
                ok += 1;
            }
        }
        assert!(ok >= 4, "MIS should be valid w.h.p., got {ok}/5");
    }

    #[test]
    #[should_panic(expected = "enhanced abstract MAC layer")]
    fn standard_config_rejected() {
        let net = grey_net(10, 2.0, 1);
        let config = MacConfig::from_ticks(2, 20); // standard!
        let assignment = Assignment::all_at(NodeId::new(0), 1);
        let params = FmmbParams::new(1, net.dual.diameter());
        run_fmmb(
            &net.dual,
            config,
            &assignment,
            &params,
            0,
            EagerPolicy::new(),
            &RunOptions::fast(),
        );
    }
}
