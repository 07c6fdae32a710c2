//! Executable lower-bound scenarios: run an MMB algorithm against the
//! paper's adversarial constructions and report how the measured time
//! compares to the claimed bound.

use crate::adversary::{GreyZoneAdversary, StaggeredPolicy};
use amac_core::{bounds, run_bmmb, Assignment, MessageId, MmbReport, RunOptions};
use amac_graph::{generators, DualGraph, NodeId};
use amac_mac::policies::LazyPolicy;
use amac_mac::{FaultPlan, MacConfig, MessageKey};
use amac_proto::consensus::{run_consensus, ConsensusParams, ConsensusReport};
use amac_sim::Time;
use std::fmt;

/// Outcome of a lower-bound scenario: the measured completion time versus
/// the bound the construction is supposed to force.
#[derive(Clone, Debug)]
pub struct LowerBoundReport {
    /// Scenario label (for tables).
    pub label: &'static str,
    /// The driving parameter (`k` for the choke star, `D` for the dual
    /// line).
    pub parameter: usize,
    /// Measured completion time in ticks.
    pub completion_ticks: u64,
    /// The Ω-bound in ticks (`k·F_ack` or `D·F_ack`).
    pub bound_ticks: u64,
    /// `completion / bound`; the lower bound holds empirically when this
    /// stays above a positive constant as the parameter grows.
    pub ratio: f64,
    /// The underlying run report.
    pub run: MmbReport,
}

impl fmt::Display for LowerBoundReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: param={} measured={} bound={} ratio={:.2}",
            self.label, self.parameter, self.completion_ticks, self.bound_ticks, self.ratio
        )
    }
}

/// Builds the Lemma 3.18 choke-star instance: `G′ = G`, `k` leaves-plus-hub
/// messages (a *singleton assignment*), and the single receiver behind the
/// hub.
///
/// Returns the dual graph and the assignment.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn choke_star_instance(k: usize) -> (DualGraph, Assignment) {
    let (g, _hub, _receiver) = generators::choke_star(k).expect("k >= 1");
    let dual = DualGraph::reliable(g);
    // Nodes 0..k-1 are u_1..u_k (index k-1 is the hub u_k); each starts
    // with one unique message. The receiver v (index k) starts with none.
    let assignment =
        Assignment::new((0..k as u64).map(|i| (NodeId::new(i as usize), MessageId(i))));
    (dual, assignment)
}

/// Runs BMMB on the choke star under the lazy duplicate-feeding scheduler
/// and reports the measured time against the `Ω(k·F_ack)` bound
/// (Lemma 3.18).
pub fn run_choke_star(k: usize, config: MacConfig, options: &RunOptions) -> LowerBoundReport {
    let (dual, assignment) = choke_star_instance(k);
    let run = run_bmmb(
        &dual,
        config,
        &assignment,
        LazyPolicy::new().prefer_duplicates(),
        options,
    );
    let completion_ticks = run
        .completion
        .map(amac_sim::Time::ticks)
        .unwrap_or(run.end_time.ticks());
    let bound_ticks = bounds::lower_choke(k, &config).ticks();
    LowerBoundReport {
        label: "choke-star (Lemma 3.18)",
        parameter: k,
        completion_ticks,
        bound_ticks,
        ratio: completion_ticks as f64 / bound_ticks as f64,
        run,
    }
}

/// Builds the Figure 2 dual-line instance: message `m₀` at `a₁`, message
/// `m₁` at `b₁` (`k = 2`).
pub fn dual_line_instance(d: usize) -> (DualGraph, Assignment) {
    let net = generators::dual_line(d).expect("d >= 2");
    let assignment = Assignment::new([(net.a(1), MessageId(0)), (net.b(1), MessageId(1))]);
    (net.dual, assignment)
}

/// Runs BMMB on the Figure 2 network against the Section 3.3 grey-zone
/// adversary and reports the measured time against the `Ω(D·F_ack)` bound
/// (Lemmas 3.19–3.20).
pub fn run_dual_line(d: usize, config: MacConfig, options: &RunOptions) -> LowerBoundReport {
    let (dual, assignment) = dual_line_instance(d);
    let adversary = GreyZoneAdversary::new(d, MessageKey(0), MessageKey(1));
    let run = run_bmmb(&dual, config, &assignment, adversary, options);
    let completion_ticks = run
        .completion
        .map(amac_sim::Time::ticks)
        .unwrap_or(run.end_time.ticks());
    let bound_ticks = bounds::lower_grey_zone(d, &config).ticks();
    LowerBoundReport {
        label: "dual-line (Fig. 2, Lemmas 3.19-3.20)",
        parameter: d,
        completion_ticks,
        bound_ticks,
        ratio: completion_ticks as f64 / bound_ticks as f64,
        run,
    }
}

/// Outcome of the [crash-star consensus scenario](run_crash_star): how a
/// hub crash splits a flooding-consensus audience.
#[derive(Clone, Debug)]
pub struct CrashStarReport {
    /// Number of leaves (network size is `leaves + 1`).
    pub leaves: usize,
    /// Flooding phases the protocol ran.
    pub phases: u64,
    /// When the hub crashed (mid-stagger).
    pub crash_time: Time,
    /// Leaves that decided `false` (heard the hub's value before the
    /// crash).
    pub decided_false: usize,
    /// Leaves that decided `true` (never heard it).
    pub decided_true: usize,
    /// The underlying consensus run, including the violation list.
    pub run: ConsensusReport,
}

impl CrashStarReport {
    /// `true` when the crash split the leaves into disagreeing camps.
    pub fn disagreement(&self) -> bool {
        self.decided_false > 0 && self.decided_true > 0
    }
}

impl fmt::Display for CrashStarReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crash-star: {} leaves, {} phase(s), hub crashed at t={}: {} decided false, {} true ({})",
            self.leaves,
            self.phases,
            self.crash_time,
            self.decided_false,
            self.decided_true,
            if self.disagreement() {
                "agreement VIOLATED"
            } else {
                "agreement held"
            }
        )
    }
}

/// The crash-star consensus scenario: why flooding consensus needs more
/// than flooding.
///
/// A star of `leaves` nodes around a hub — the same single-bridge
/// fragility as the Lemma 3.18 choke star, pointed at consensus instead
/// of broadcast. The hub holds the only `false` input; every leaf holds
/// `true`. Under the [`StaggeredPolicy`] the hub's first broadcast
/// reaches one leaf per tick, and the hub **crashes mid-broadcast** at
/// tick `⌊leaves/2⌋ + 1`: exactly the leaves served before the crash
/// learn `false`. Because the hub was the star's only bridge, the two
/// camps can never reconcile — flooding consensus on this topology
/// *stalls* at disagreement no matter how many extra phases it is given
/// (run it with `phases > 1` to watch the extra rounds change nothing).
///
/// This is the fault-model counterpart of the choke-star lower bound: the
/// NR18-style consensus guarantee is conditioned on crashes not
/// disconnecting `G` (e.g. the single-hop/complete setting of
/// `amac_proto::consensus`), and this scenario is the witness that the
/// condition is necessary. The MAC layer itself stays blameless — the
/// returned run still passes the `OnlineValidator` with the crash event
/// present.
pub fn run_crash_star(leaves: usize, phases: u64, options: &RunOptions) -> CrashStarReport {
    assert!(leaves >= 2, "need at least two leaves to split");
    let n = leaves + 1;
    // F_prog above the stagger span, or forced progress deliveries would
    // outrun the staggered schedule and defuse the partial delivery.
    let config = MacConfig::from_ticks(leaves as u64 + 2, 2 * leaves as u64 + 8).enhanced();
    let params = ConsensusParams {
        phases,
        phase_len: config.f_ack() + amac_sim::Duration::from_ticks(2),
    };
    let dual = DualGraph::reliable(generators::star(n).expect("n >= 2"));
    // Node 0 is the hub: the only false input.
    let initial: Vec<bool> = (0..n).map(|i| i != 0).collect();
    let crash_time = Time::from_ticks(leaves as u64 / 2 + 1);
    let faults = FaultPlan::new().crash_at(NodeId::new(0), crash_time);
    let run = run_consensus(
        &dual,
        config,
        &initial,
        &params,
        faults,
        StaggeredPolicy::new(),
        options,
    );
    let decided_false = run
        .decisions
        .iter()
        .filter(|d| matches!(d, Some((_, false))))
        .count();
    let decided_true = run
        .decisions
        .iter()
        .filter(|d| matches!(d, Some((_, true))))
        .count();
    CrashStarReport {
        leaves,
        phases,
        crash_time,
        decided_false,
        decided_true,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MacConfig {
        MacConfig::from_ticks(2, 40)
    }

    #[test]
    fn choke_star_forces_k_fack() {
        // Ω(k·F_ack): the measured/bound ratio must stay above a positive
        // constant as k grows (the constant is (k-1)/k-ish: the hub relays
        // one message per F_ack).
        for k in [4, 8, 16] {
            let report = run_choke_star(k, cfg(), &RunOptions::default());
            assert!(report.run.solved_and_valid(), "{}", report.run);
            assert!(
                report.ratio >= 0.6,
                "k={k}: expected Ω(k*F_ack), got ratio {:.2}",
                report.ratio
            );
        }
    }

    #[test]
    fn choke_star_ratio_stays_constant_as_k_grows() {
        let r4 = run_choke_star(4, cfg(), &RunOptions::fast()).ratio;
        let r32 = run_choke_star(32, cfg(), &RunOptions::fast()).ratio;
        // The ratio must not vanish with k (that would mean o(k*F_ack)).
        assert!(
            r32 >= 0.8 * r4.min(1.0),
            "ratio collapsed: {r4:.2} -> {r32:.2}"
        );
    }

    #[test]
    fn dual_line_forces_d_fack() {
        // Ω(D·F_ack): the adversary makes the frontier advance one hop per
        // F_ack (constant ≈ (D-1)/D after queue-flush accounting).
        for d in [4, 8] {
            let report = run_dual_line(d, cfg(), &RunOptions::default());
            assert!(report.run.solved_and_valid(), "{}", report.run);
            assert!(
                report.ratio >= 0.5,
                "d={d}: expected Ω(D*F_ack), got ratio {:.2}",
                report.ratio
            );
        }
    }

    #[test]
    fn dual_line_scales_linearly_in_d() {
        let cfg = cfg();
        let t8 = run_dual_line(8, cfg, &RunOptions::fast()).completion_ticks;
        let t16 = run_dual_line(16, cfg, &RunOptions::fast()).completion_ticks;
        let growth = t16 as f64 / t8 as f64;
        assert!(
            (1.6..=2.6).contains(&growth),
            "doubling D should roughly double time, got x{growth:.2}"
        );
    }

    #[test]
    fn dual_line_time_tracks_f_ack_not_f_prog() {
        // The whole point of the lower bound: scaling F_ack up (with
        // F_prog fixed) must scale the completion time proportionally.
        let slow = MacConfig::from_ticks(2, 80);
        let fast = MacConfig::from_ticks(2, 20);
        let t_slow = run_dual_line(8, slow, &RunOptions::fast()).completion_ticks;
        let t_fast = run_dual_line(8, fast, &RunOptions::fast()).completion_ticks;
        let scale = t_slow as f64 / t_fast as f64;
        assert!(
            scale >= 2.5,
            "quadrupling F_ack should scale time ~4x, got x{scale:.2}"
        );
    }

    #[test]
    fn crash_star_splits_naive_flooding_consensus() {
        for leaves in [4, 6, 9] {
            let report = run_crash_star(leaves, 1, &RunOptions::default());
            assert!(report.disagreement(), "{report}");
            assert!(
                !report.run.check.is_ok(),
                "the consensus validator must flag the split"
            );
            // Both camps are non-trivial: the stagger split mid-audience.
            assert_eq!(report.decided_false, leaves / 2);
            assert_eq!(report.decided_true, leaves - leaves / 2);
            // The MAC layer is blameless: the trace (crash included) is
            // model-valid; only the protocol-level guarantee broke.
            assert!(
                report.run.validation.as_ref().unwrap().is_ok(),
                "MAC trace must stay valid"
            );
        }
    }

    #[test]
    fn extra_phases_do_not_heal_a_disconnected_star() {
        // The whole point: once the hub (the only bridge) is gone, no
        // amount of extra flooding rounds reconnects the camps — unlike
        // on a complete graph, where crashes+1 phases always suffice.
        let naive = run_crash_star(6, 1, &RunOptions::fast());
        let patient = run_crash_star(6, 4, &RunOptions::fast());
        assert!(naive.disagreement());
        assert!(patient.disagreement(), "{patient}");
        assert_eq!(
            (patient.decided_false, patient.decided_true),
            (naive.decided_false, naive.decided_true),
            "extra rounds changed nothing"
        );
    }

    #[test]
    fn without_the_crash_the_star_agrees() {
        let leaves = 6;
        let n = leaves + 1;
        let config = MacConfig::from_ticks(leaves as u64 + 2, 2 * leaves as u64 + 8).enhanced();
        let params = ConsensusParams {
            phases: 1,
            phase_len: config.f_ack() + amac_sim::Duration::from_ticks(2),
        };
        let dual = DualGraph::reliable(generators::star(n).unwrap());
        let initial: Vec<bool> = (0..n).map(|i| i != 0).collect();
        let report = run_consensus(
            &dual,
            config,
            &initial,
            &params,
            FaultPlan::new(),
            StaggeredPolicy::new(),
            &RunOptions::default(),
        );
        assert!(report.ok(), "{report}");
        assert_eq!(report.agreed_value(), Some(false));
    }

    #[test]
    fn instances_have_expected_shape() {
        let (dual, assignment) = choke_star_instance(5);
        assert_eq!(dual.len(), 6);
        assert_eq!(assignment.k(), 5);
        let (dual, assignment) = dual_line_instance(6);
        assert_eq!(dual.len(), 12);
        assert_eq!(assignment.k(), 2);
    }
}
