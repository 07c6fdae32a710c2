//! `SUB-MIS`, `SUB-GATHER`, `SUB-SPREAD` — the three FMMB subroutines,
//! measured individually with an instrumented runner:
//!
//! * **MIS** (Lemma 4.5): rounds until every node has decided (joined or
//!   covered), versus the scheduled `O(log³ n)` segment; validity rate
//!   over seeds;
//! * **gather** (Lemma 4.6): rounds from the gather segment start until
//!   every message is owned by an MIS node, versus `O(k + log n)` periods;
//! * **spread** (Lemmas 4.7–4.8): rounds from gather completion until MMB
//!   completion, versus `O((D + k)·log n)`.

use super::LabeledOutlier;
use crate::engine::{CellResult, TrialRunner, TrialStats};
use crate::table::{ci_cell, mean_cell, Table};
use amac_core::{Assignment, Delivered, FmmbParams, Instruments, MessageId, MisStatus, RunOptions};
use amac_graph::generators::{connected_grey_zone_network, GreyZoneConfig, GreyZoneNetwork};
use amac_graph::{algo, DualGraph, NodeId, NodeSet};
use amac_mac::{MacConfig, Policy, RunOutcome, Runtime};
use amac_sim::{SimRng, Time};
use std::collections::HashSet;

/// Milestones of one instrumented FMMB run, in rounds (`F_prog + 2` ticks
/// each).
#[derive(Clone, Copy, Debug)]
pub struct Milestones {
    /// Round by which every node had decided its MIS status.
    pub all_decided_round: Option<u64>,
    /// Round by which every message was owned by some MIS node.
    pub gather_done_round: Option<u64>,
    /// Round by which the MMB problem was solved.
    pub completion_round: Option<u64>,
    /// Whether the resulting MIS was a maximal independent set of `G`.
    pub mis_valid: bool,
    /// The scheduled MIS segment length in rounds.
    pub mis_segment_rounds: u64,
    /// The gather segment start (rounds).
    pub gather_start_round: u64,
}

/// Runs FMMB while checking node-state milestones once per round, until
/// MMB completion or quiescence. `options` selects the observers (see
/// [`Instruments`]); its stop rule does not apply, and only its
/// recording outlives the run (no validator verdict or metrics are
/// returned). Observers do not disturb the execution, so the milestones
/// are identical for any `options`.
pub fn run_instrumented<P: Policy>(
    dual: &DualGraph,
    config: MacConfig,
    assignment: &Assignment,
    params: &FmmbParams,
    seed: u64,
    policy: P,
    options: &RunOptions,
) -> Milestones {
    assert!(config.is_enhanced(), "FMMB requires the enhanced model");
    let n = dual.len();
    let schedule = params.schedule(n);
    let round_ticks = config.f_prog().ticks() + 2;
    let mut rt = Runtime::new(dual.clone(), config, params.nodes(n, seed), policy);
    let instruments = Instruments::attach(options, &mut rt, None);
    for (node, msg) in assignment.arrivals() {
        rt.inject(*node, *msg);
    }

    let all_ids: HashSet<MessageId> = assignment.message_ids().collect();
    let mut tracker = amac_core::CompletionTracker::new(dual, assignment);
    let mut milestones = Milestones {
        all_decided_round: None,
        gather_done_round: None,
        completion_round: None,
        mis_valid: false,
        mis_segment_rounds: schedule.mis_rounds(),
        gather_start_round: schedule.mis_rounds(),
    };

    let mut round = 0u64;
    let outcome = loop {
        let outcome = rt.run_until(Time::from_ticks((round + 1) * round_ticks));
        for rec in rt.drain_outputs() {
            let Delivered(id) = rec.out;
            tracker.record(rec.time, rec.node, id);
        }
        if milestones.all_decided_round.is_none() {
            let decided =
                (0..n).all(|i| rt.node(NodeId::new(i)).mis_status() != MisStatus::Undecided);
            if decided {
                milestones.all_decided_round = Some(round);
            }
        }
        if milestones.gather_done_round.is_none() {
            let mut owned: HashSet<MessageId> = HashSet::new();
            for i in 0..n {
                let node = rt.node(NodeId::new(i));
                if node.in_mis() {
                    owned.extend(node.message_set());
                }
            }
            if all_ids.iter().all(|id| owned.contains(id)) {
                milestones.gather_done_round = Some(round);
            }
        }
        if milestones.completion_round.is_none() && tracker.is_complete() {
            milestones.completion_round = Some(round);
        }
        round += 1;
        if outcome == RunOutcome::Idle || milestones.completion_round.is_some() {
            break outcome;
        }
    };

    let mut mis = NodeSet::new(n);
    for i in 0..n {
        if rt.node(NodeId::new(i)).in_mis() {
            mis.insert(NodeId::new(i));
        }
    }
    milestones.mis_valid = algo::is_maximal_independent(dual.g(), &mis);
    instruments.finish(&mut rt, outcome);
    milestones
}

/// One row of the MIS sweep (aggregated over seeds × trials).
#[derive(Clone, Copy, Debug)]
pub struct MisPoint {
    /// Network size.
    pub n: usize,
    /// `⌈log₂ n⌉³` (the bound shape).
    pub log_cubed: u64,
    /// Mean rounds until all nodes decided (over seeds and trials).
    pub decided_rounds: f64,
    /// Scheduled MIS segment rounds (mean over trials, rounded; the
    /// schedule depends on each trial's sampled diameter).
    pub segment_rounds: u64,
    /// Fraction of runs yielding a valid maximal independent set.
    pub validity_rate: f64,
}

/// Results of the subroutine experiments.
#[derive(Clone, Debug)]
pub struct Subroutines {
    /// MIS sweep over `n`.
    pub mis: Vec<MisPoint>,
    /// Gather sweep over `k`: `(k, gather rounds used, k + log n)`.
    pub gather: Vec<(usize, TrialStats, u64)>,
    /// Spread sweep over `n` (growing `D`): `(n, mean D, spread rounds
    /// used, mean (D + k) * log n)`.
    pub spread: Vec<(usize, u64, TrialStats, u64)>,
    /// Captured outlier traces per sweep point (empty unless the runner
    /// has trace capture enabled).
    pub outliers: Vec<LabeledOutlier>,
    /// Rendered table.
    pub table: Table,
}

/// Per-trial shared state: every network/assignment the three subroutine
/// sweeps need, sampled from the trial's stream in the historical order.
struct TrialSetup {
    salt: u64,
    /// Per `n`: MIS network + params (`k = 1` singleton assignment).
    mis: Vec<(GreyZoneNetwork, FmmbParams)>,
    gather_net: GreyZoneNetwork,
    /// Per `k`: gather params + random assignment on the fixed network.
    gather: Vec<(FmmbParams, Assignment)>,
    /// Per `n`: spread network, its diameter, params, and assignment.
    spread: Vec<(GreyZoneNetwork, usize, FmmbParams, Assignment)>,
}

/// Runs all three subroutine experiments. Each trial samples fresh
/// grey-zone networks and assignments from its split seed (trial 0 keeps
/// the historical sampling), the per-network `seeds` repetitions run
/// within each trial as before, and each sweep point of a trial is its own
/// engine cell, scheduled over the worker pool.
pub fn run(
    f_prog: u64,
    ns: &[usize],
    ks: &[usize],
    density: f64,
    seeds: &[u64],
    runner: &TrialRunner,
) -> Subroutines {
    let cfg = MacConfig::from_ticks(f_prog, 8 * f_prog).enhanced();
    let n_fixed = *ns.last().expect("non-empty ns");
    let k_fixed = *ks.first().expect("non-empty ks");

    // Points: per n a 3-lane MIS point [decided_mean, validity, segment],
    // per k a gather point [rounds used], per n a 3-lane spread point
    // [rounds used, d, bound].
    let widths: Vec<usize> = std::iter::repeat(3)
        .take(ns.len())
        .chain(std::iter::repeat(1).take(ks.len()))
        .chain(std::iter::repeat(3).take(ns.len()))
        .collect();
    let run = runner.run_sweep(
        1234,
        &widths,
        |trial| {
            // Sampling order mirrors the historical whole-sweep closure,
            // so per-trial topologies are unchanged.
            let mut rng = SimRng::seed(trial.seed(1234));
            let salt = trial.seed(0);
            let mis = ns
                .iter()
                .map(|&n| {
                    let side = (n as f64 / density).sqrt();
                    let net = connected_grey_zone_network(
                        &GreyZoneConfig::new(n, side).with_c(2.0),
                        500,
                        &mut rng,
                    )
                    .expect("connected sample");
                    let params = FmmbParams::new(1, net.dual.diameter());
                    (net, params)
                })
                .collect();
            let side = (n_fixed as f64 / density).sqrt();
            let gather_net = connected_grey_zone_network(
                &GreyZoneConfig::new(n_fixed, side).with_c(2.0),
                500,
                &mut rng,
            )
            .expect("connected sample");
            let gather = ks
                .iter()
                .map(|&k| {
                    let params = FmmbParams::new(k, gather_net.dual.diameter());
                    let assignment = Assignment::random(n_fixed, k, &mut rng);
                    (params, assignment)
                })
                .collect();
            let spread = ns
                .iter()
                .map(|&n| {
                    let side = (n as f64 / density).sqrt();
                    let net = connected_grey_zone_network(
                        &GreyZoneConfig::new(n, side).with_c(2.0),
                        500,
                        &mut rng,
                    )
                    .expect("connected sample");
                    let d = net.dual.diameter();
                    let params = FmmbParams::new(k_fixed, d);
                    let assignment = Assignment::random(n, k_fixed, &mut rng);
                    (net, d, params, assignment)
                })
                .collect();
            TrialSetup {
                salt,
                mis,
                gather_net,
                gather,
                spread,
            }
        },
        |setup, cell| {
            if cell.point < ns.len() {
                // --- SUB-MIS: several instrumented seeds on one network ---
                let n = ns[cell.point];
                let (net, params) = &setup.mis[cell.point];
                let assignment = Assignment::all_at(NodeId::new(0), 1);
                let mut decided_sum = 0.0;
                let mut valid = 0usize;
                // The MIS lanes average over all instrumented seeds, so no
                // single execution produces the recorded value; the capture
                // is the first seed's run — a *representative* execution of
                // this point's trial, unlike the other sweeps where the
                // trace is exactly the run behind the statistic.
                for (si, &seed) in seeds.iter().enumerate() {
                    let options = if si == 0 {
                        super::cell_options(cell)
                    } else {
                        RunOptions::fast()
                    };
                    let m = run_instrumented(
                        &net.dual,
                        cfg,
                        &assignment,
                        params,
                        seed ^ setup.salt,
                        amac_mac::policies::LazyPolicy::new(),
                        &options,
                    );
                    decided_sum += m.all_decided_round.unwrap_or(m.mis_segment_rounds) as f64;
                    valid += usize::from(m.mis_valid);
                }
                CellResult::vector(vec![
                    decided_sum / seeds.len() as f64,
                    valid as f64 / seeds.len() as f64,
                    params.schedule(n).mis_rounds() as f64,
                ])
            } else if cell.point < ns.len() + ks.len() {
                // --- SUB-GATHER: sweep k on the fixed network ---
                let (params, assignment) = &setup.gather[cell.point - ns.len()];
                let m = run_instrumented(
                    &setup.gather_net.dual,
                    cfg,
                    assignment,
                    params,
                    seeds[0] ^ setup.salt,
                    amac_mac::policies::LazyPolicy::new(),
                    &super::cell_options(cell),
                );
                // Unreached milestone: record NaN, not a huge finite
                // sentinel — Welford propagates it, so the mean/ci95 cells
                // print `NaN`, an explicit failure marker instead of a
                // plausible-looking number.
                let used = m
                    .gather_done_round
                    .map(|g| g.saturating_sub(m.gather_start_round) as f64)
                    .unwrap_or(f64::NAN);
                CellResult::scalar(used)
            } else {
                // --- SUB-SPREAD: sweep n (D grows with sqrt n) ---
                let idx = cell.point - ns.len() - ks.len();
                let (net, d, params, assignment) = &setup.spread[idx];
                let m = run_instrumented(
                    &net.dual,
                    cfg,
                    assignment,
                    params,
                    seeds[0] ^ setup.salt,
                    amac_mac::policies::LazyPolicy::new(),
                    &super::cell_options(cell),
                );
                // NaN on an unreached milestone, as in the gather sweep.
                let used = match (m.completion_round, m.gather_done_round) {
                    (Some(c), Some(g)) => c.saturating_sub(g) as f64,
                    _ => f64::NAN,
                };
                let lg = amac_core::bounds::log2_ceil(ns[idx]).max(1);
                CellResult::vector(vec![
                    used,
                    *d as f64,
                    ((*d as u64 + k_fixed as u64) * lg) as f64,
                ])
            }
        },
    );
    let label = |i: usize| {
        if i < ns.len() {
            format!("mis-n={}", ns[i])
        } else if i < ns.len() + ks.len() {
            format!("gather-k={}", ks[i - ns.len()])
        } else {
            format!("spread-n={}", ns[i - ns.len() - ks.len()])
        }
    };
    let outliers = super::collect_outliers(&run, label);

    let (mis_points, rest) = run.points().split_at(ns.len());
    let (gather_points, spread_points) = rest.split_at(ks.len());

    let mis: Vec<MisPoint> = ns
        .iter()
        .zip(mis_points)
        .map(|(&n, p)| {
            let lg = amac_core::bounds::log2_ceil(n).max(1);
            MisPoint {
                n,
                log_cubed: lg * lg * lg,
                decided_rounds: p.lane(0).mean(),
                segment_rounds: p.lane(2).mean().round() as u64,
                validity_rate: p.lane(1).mean(),
            }
        })
        .collect();

    let lg_fixed = amac_core::bounds::log2_ceil(n_fixed).max(1);
    let gather: Vec<(usize, TrialStats, u64)> = ks
        .iter()
        .zip(gather_points)
        .map(|(&k, p)| {
            (
                k,
                TrialStats::from_aggregate(p.primary()),
                k as u64 + lg_fixed,
            )
        })
        .collect();

    let spread: Vec<(usize, u64, TrialStats, u64)> = ns
        .iter()
        .zip(spread_points)
        .map(|(&n, p)| {
            (
                n,
                p.lane(1).mean().round() as u64,
                TrialStats::from_aggregate(p.lane(0)),
                p.lane(2).mean().round() as u64,
            )
        })
        .collect();

    let mut table = Table::new(
        format!("SUB-*  FMMB subroutines (grey zone, density {density}, F_prog={f_prog})"),
        &[
            "subroutine",
            "param",
            "rounds used",
            "ci95",
            "bound shape",
            "note",
        ],
    );
    for p in &mis {
        table.row([
            "MIS (Lem 4.5)".to_string(),
            format!("n={}", p.n),
            format!("{:.0}", p.decided_rounds),
            String::new(),
            format!("log^3 n = {}", p.log_cubed),
            format!(
                "segment {}, valid {:.0}%",
                p.segment_rounds,
                p.validity_rate * 100.0
            ),
        ]);
    }
    for (k, used, bound) in &gather {
        table.row([
            "gather (Lem 4.6)".to_string(),
            format!("k={k}"),
            mean_cell(used),
            ci_cell(used),
            format!("k + log n = {bound}"),
            String::new(),
        ]);
    }
    for (n, d, used, bound) in &spread {
        table.row([
            "spread (Lem 4.7/4.8)".to_string(),
            format!("n={n}"),
            mean_cell(used),
            ci_cell(used),
            format!("(D+k)*log n = {bound}"),
            format!("D={d}"),
        ]);
    }
    table.note(format!(
        "{}, {} instrumented seed(s) per network",
        super::trials_phrase(runner, &run),
        seeds.len()
    ));
    table.note("rounds used are until the milestone, not the (longer) fixed schedule");

    super::append_plots(&mut table, runner, &run, label);

    Subroutines {
        mis,
        gather,
        spread,
        outliers,
        table,
    }
}

/// Default parameterisation at an explicit trial/job count.
pub fn run_default_with(runner: &TrialRunner) -> Subroutines {
    run(2, &[16, 32, 64], &[2, 4, 8], 2.0, &[1, 2, 3], runner)
}

/// Smoke parameterisation (what `repro --smoke` runs) at an explicit
/// trial/job count.
pub fn run_smoke_with(runner: &TrialRunner) -> Subroutines {
    run(2, &[8, 12], &[1, 2], 2.0, &[1], runner)
}

#[cfg(test)]
mod tests {
    use super::*;

    use amac_mac::policies::LazyPolicy;
    use amac_mac::trace::TraceKind;
    use amac_mac::CounterObserver;
    use amac_store::{replay_into, TraceReader};

    /// A 20-node grey-zone network, FMMB parameters for it, and a
    /// 2-message assignment.
    fn small_network() -> (DualGraph, FmmbParams, Assignment) {
        let mut rng = SimRng::seed(8);
        let net = connected_grey_zone_network(&GreyZoneConfig::new(20, 3.2), 200, &mut rng)
            .expect("connected");
        let params = FmmbParams::new(2, net.dual.diameter());
        let assignment = Assignment::random(20, 2, &mut rng);
        (net.dual, params, assignment)
    }

    #[test]
    fn instrumented_run_reaches_all_milestones() {
        let (dual, params, assignment) = small_network();
        let m = run_instrumented(
            &dual,
            MacConfig::from_ticks(2, 16).enhanced(),
            &assignment,
            &params,
            3,
            LazyPolicy::new(),
            &RunOptions::fast(),
        );
        assert!(m.mis_valid);
        assert!(m.all_decided_round.is_some());
        assert!(m.gather_done_round.is_some());
        assert!(m.completion_round.is_some());
        // Milestones are ordered: decide, then gather, then complete.
        assert!(m.gather_done_round >= m.all_decided_round);
        assert!(m.completion_round >= m.gather_done_round);
    }

    #[test]
    fn instrumented_run_honours_without_abort() {
        let (dual, params, assignment) = small_network();
        let dir = std::env::temp_dir().join(format!(
            "amac-bench-subroutines-abort-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        // Records one instrumented run and counts its aborts in the
        // replayed recording.
        let aborts = |params: &FmmbParams| {
            let path = dir.join("run.amactrace");
            run_instrumented(
                &dual,
                MacConfig::from_ticks(2, 16).enhanced(),
                &assignment,
                params,
                3,
                LazyPolicy::new(),
                &RunOptions::fast().recording(&path, 3),
            );
            let mut counter = CounterObserver::new();
            replay_into(&mut TraceReader::open(&path).unwrap(), &mut counter).unwrap();
            counter.count(TraceKind::Abort)
        };
        assert!(
            aborts(&params) > 0,
            "the paper's FMMB aborts its broadcasts"
        );
        assert_eq!(aborts(&params.clone().without_abort()), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn small_sweep_produces_full_table() {
        let res = run(2, &[16, 24], &[2], 2.0, &[1], &TrialRunner::single());
        assert_eq!(res.mis.len(), 2);
        assert_eq!(res.gather.len(), 1);
        assert_eq!(res.spread.len(), 2);
        assert!(res.mis.iter().all(|p| p.validity_rate > 0.0));
        assert!(!res.table.is_empty());
    }

    #[test]
    fn multi_trial_sweep_aggregates() {
        let res = run(2, &[12, 16], &[1], 2.0, &[1], &TrialRunner::new(2, 2));
        assert_eq!(res.mis.len(), 2);
        for (_, used, _) in &res.gather {
            assert_eq!(used.trials, 2);
        }
        for (_, _, used, _) in &res.spread {
            assert_eq!(used.trials, 2);
        }
        assert!(res
            .mis
            .iter()
            .all(|p| (0.0..=1.0).contains(&p.validity_rate)));
    }
}
