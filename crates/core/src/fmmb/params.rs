//! FMMB tuning parameters and the global round schedule.
//!
//! FMMB divides time into lock-step rounds of length `F_prog + 2` ticks
//! (strictly longer than `F_prog`, so the progress bound guarantees a
//! silent node hears a sole broadcasting `G`-neighbor within the round,
//! with one tick of slack so forced deliveries land before the round-end
//! abort).
//! All nodes share the schedule: an MIS segment of
//! `mis_phases × (election + announcement)` rounds, a gather segment of
//! three-round periods, and a spread segment of phases each containing
//! `lb_periods` three-round periods.
//!
//! The paper gives the segment lengths asymptotically
//! (`O(c² log² n)` phases, `O(c² (k + log n))` periods,
//! `DH + k` phases × `O(c² log n)` periods); the constants here are the
//! knobs the experiments expose. Following the paper's presentation, the
//! subroutine lengths are parameterized by `k` and a diameter bound
//! (`k_hint`, `d_hint`); a standard doubling trick would remove that
//! knowledge at a constant-factor cost.

use crate::bounds::log2_ceil;
use crate::Fmmb;
use amac_sim::SimRng;

/// Tuning constants for [`Fmmb`](crate::Fmmb).
#[derive(Clone, Debug, PartialEq)]
pub struct FmmbParams {
    /// Number of messages `k` (or an upper bound): sizes the gather segment
    /// and the spread phase count.
    pub k_hint: usize,
    /// Upper bound on the overlay diameter `D_H` (any bound on the
    /// `G`-diameter works, since `D_H ≤ D_G`).
    pub d_hint: usize,
    /// Per-period/round activation probability `1/Θ(c²)` used by the MIS
    /// announcement, gather, and spread subroutines.
    pub activation_probability: f64,
    /// Election rounds per MIS phase = `election_factor · ⌈log₂ n⌉`
    /// (paper: 4).
    pub election_factor: u64,
    /// Announcement rounds per MIS phase = `announce_factor · ⌈log₂ n⌉`
    /// (paper: `Θ(c²) · log n`).
    pub announce_factor: u64,
    /// MIS phases = `⌈mis_phase_factor · ⌈log₂ n⌉²⌉` (paper:
    /// `O(c² log² n)`).
    pub mis_phase_factor: f64,
    /// Gather periods = `⌈gather_factor · (k_hint + ⌈log₂ n⌉)⌉` (paper:
    /// `O(c² (k + log n))`).
    pub gather_factor: f64,
    /// Local-broadcast periods per spread phase =
    /// `⌈lb_factor · ⌈log₂ n⌉⌉` (paper: `O(c² log n)`).
    pub lb_factor: f64,
    /// Extra spread phases beyond `d_hint + k_hint` (slack for the w.h.p.
    /// argument).
    pub spread_slack: u64,
    /// Whether nodes use the enhanced layer's **abort** interface. With
    /// abort (the paper's FMMB), rounds last `F_prog + 2` ticks. Without
    /// it — the ablation the paper's conclusion motivates ("most existing
    /// MAC layers do not offer an interface to abort messages") — a
    /// broadcast must run to its acknowledgment, so rounds must last
    /// `F_ack + 2` ticks and the algorithm loses its `F_ack`-independence.
    pub use_abort: bool,
}

impl FmmbParams {
    /// Defaults tuned for grey-zone networks with `c ≈ 2` at the scales the
    /// experiments use; `k` and a diameter bound must be supplied.
    ///
    /// The activation probability and period counts trade off against each
    /// other through the unique-activation probability
    /// `p·(1-p)^(|S|-1)` of Lemmas 4.6/4.7: denser MIS neighborhoods need
    /// a smaller `p` and more periods. These defaults hold w.h.p. for the
    /// experiment scales (`n ≤ ~200`, `c = 2`).
    pub fn new(k_hint: usize, d_hint: usize) -> FmmbParams {
        FmmbParams {
            k_hint,
            d_hint,
            activation_probability: 0.12,
            election_factor: 4,
            announce_factor: 14,
            mis_phase_factor: 0.75,
            gather_factor: 14.0,
            lb_factor: 9.0,
            spread_slack: 12,
            use_abort: true,
        }
    }

    /// Disables the abort interface (ablation): rounds stretch to
    /// `F_ack + 2` ticks and the Theorem 4.1 `F_ack`-independence is lost.
    pub fn without_abort(mut self) -> FmmbParams {
        self.use_abort = false;
        self
    }

    /// Scales every segment by roughly `scale` (trade success probability
    /// for runtime in stress tests).
    pub fn scaled(mut self, scale: f64) -> FmmbParams {
        self.announce_factor = ((self.announce_factor as f64) * scale).ceil() as u64;
        self.mis_phase_factor *= scale;
        self.gather_factor *= scale;
        self.lb_factor *= scale;
        self
    }

    /// Builds the `n` FMMB processes of one run: each follows
    /// [`schedule(n)`](FmmbParams::schedule), draws from its own stream
    /// `SimRng::seed(seed).split(node)` (the paper's up-front randomness
    /// model), and uses the abort interface exactly when
    /// [`use_abort`](FmmbParams::use_abort) is set.
    pub fn nodes(&self, n: usize, seed: u64) -> Vec<Fmmb> {
        let schedule = self.schedule(n);
        let root = SimRng::seed(seed);
        (0..n)
            .map(|i| {
                let node = Fmmb::new(
                    schedule.clone(),
                    self.activation_probability,
                    root.split(i as u64),
                );
                if self.use_abort {
                    node
                } else {
                    node.without_abort()
                }
            })
            .collect()
    }

    /// Computes the concrete schedule for a network of `n` nodes.
    pub fn schedule(&self, n: usize) -> Schedule {
        let lg = log2_ceil(n).max(1);
        let election_rounds = (self.election_factor * lg).clamp(1, 126);
        let announce_rounds = (self.announce_factor * lg).max(1);
        let mis_phases = ((self.mis_phase_factor * (lg * lg) as f64).ceil() as u64).max(1);
        let gather_periods =
            ((self.gather_factor * (self.k_hint as f64 + lg as f64)).ceil() as u64).max(1);
        let lb_periods = ((self.lb_factor * lg as f64).ceil() as u64).max(1);
        let spread_phases = (self.d_hint + self.k_hint) as u64 + self.spread_slack;
        Schedule {
            log2n: lg,
            election_rounds,
            announce_rounds,
            mis_phases,
            gather_periods,
            lb_periods,
            spread_phases,
        }
    }
}

/// The concrete global round schedule shared by all nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// `⌈log₂ n⌉` (at least 1).
    pub log2n: u64,
    /// Election rounds per MIS phase.
    pub election_rounds: u64,
    /// Announcement rounds per MIS phase.
    pub announce_rounds: u64,
    /// Number of MIS phases.
    pub mis_phases: u64,
    /// Number of gather periods (3 rounds each).
    pub gather_periods: u64,
    /// Local-broadcast periods per spread phase (3 rounds each).
    pub lb_periods: u64,
    /// Number of spread phases.
    pub spread_phases: u64,
}

/// What a given round index is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Segment {
    /// MIS election round `round_in` (0-based) of `phase`.
    MisElection {
        /// MIS phase index.
        phase: u64,
        /// Round within the election part.
        round_in: u64,
    },
    /// MIS announcement round `round_in` of `phase`.
    MisAnnounce {
        /// MIS phase index.
        phase: u64,
        /// Round within the announcement part.
        round_in: u64,
    },
    /// Gather period `period`, round `round_in ∈ {0,1,2}`.
    Gather {
        /// Gather period index.
        period: u64,
        /// Round within the period.
        round_in: u8,
    },
    /// Spread phase `phase`, period `period`, round `round_in ∈ {0,1,2}`.
    Spread {
        /// Spread phase index.
        phase: u64,
        /// Local-broadcast period within the phase.
        period: u64,
        /// Round within the period.
        round_in: u8,
    },
    /// Past the end of the schedule.
    Done,
}

impl Schedule {
    /// Rounds in one MIS phase.
    pub fn mis_phase_rounds(&self) -> u64 {
        self.election_rounds + self.announce_rounds
    }

    /// Total rounds in the MIS segment.
    pub fn mis_rounds(&self) -> u64 {
        self.mis_phases * self.mis_phase_rounds()
    }

    /// Total rounds in the gather segment.
    pub fn gather_rounds(&self) -> u64 {
        3 * self.gather_periods
    }

    /// Rounds in one spread phase.
    pub fn spread_phase_rounds(&self) -> u64 {
        3 * self.lb_periods
    }

    /// Total rounds in the spread segment.
    pub fn spread_rounds(&self) -> u64 {
        self.spread_phases * self.spread_phase_rounds()
    }

    /// Total schedule length in rounds.
    pub fn total_rounds(&self) -> u64 {
        self.mis_rounds() + self.gather_rounds() + self.spread_rounds()
    }

    /// Maps a round index to its segment.
    pub fn segment(&self, round: u64) -> Segment {
        let mis_total = self.mis_rounds();
        if round < mis_total {
            let phase = round / self.mis_phase_rounds();
            let r = round % self.mis_phase_rounds();
            return if r < self.election_rounds {
                Segment::MisElection { phase, round_in: r }
            } else {
                Segment::MisAnnounce {
                    phase,
                    round_in: r - self.election_rounds,
                }
            };
        }
        let round = round - mis_total;
        if round < self.gather_rounds() {
            return Segment::Gather {
                period: round / 3,
                round_in: (round % 3) as u8,
            };
        }
        let round = round - self.gather_rounds();
        if round < self.spread_rounds() {
            let per_phase = self.spread_phase_rounds();
            let within = round % per_phase;
            return Segment::Spread {
                phase: round / per_phase,
                period: within / 3,
                round_in: (within % 3) as u8,
            };
        }
        Segment::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_covers_every_round_exactly_once() {
        let sched = FmmbParams::new(3, 5).schedule(32);
        let total = sched.total_rounds();
        assert_eq!(
            total,
            sched.mis_rounds() + sched.gather_rounds() + sched.spread_rounds()
        );
        assert_eq!(sched.segment(total), Segment::Done);
        assert_ne!(sched.segment(total - 1), Segment::Done);
        assert!(matches!(
            sched.segment(0),
            Segment::MisElection {
                phase: 0,
                round_in: 0
            }
        ));
    }

    #[test]
    fn segment_boundaries_are_consistent() {
        let sched = FmmbParams::new(2, 4).schedule(16);
        // Last election round of phase 0 followed by first announce round.
        let e = sched.election_rounds;
        assert!(matches!(
            sched.segment(e - 1),
            Segment::MisElection { phase: 0, .. }
        ));
        assert!(matches!(
            sched.segment(e),
            Segment::MisAnnounce {
                phase: 0,
                round_in: 0
            }
        ));
        // First gather round right after the MIS segment.
        assert!(matches!(
            sched.segment(sched.mis_rounds()),
            Segment::Gather {
                period: 0,
                round_in: 0
            }
        ));
        // First spread round right after gather.
        assert!(matches!(
            sched.segment(sched.mis_rounds() + sched.gather_rounds()),
            Segment::Spread {
                phase: 0,
                period: 0,
                round_in: 0
            }
        ));
    }

    #[test]
    fn spread_indexing_walks_periods_and_phases() {
        let sched = FmmbParams::new(1, 2).schedule(8);
        let base = sched.mis_rounds() + sched.gather_rounds();
        match sched.segment(base + 3) {
            Segment::Spread {
                phase: 0,
                period: 1,
                round_in: 0,
            } => {}
            s => panic!("unexpected segment {s:?}"),
        }
        match sched.segment(base + sched.spread_phase_rounds()) {
            Segment::Spread {
                phase: 1,
                period: 0,
                round_in: 0,
            } => {}
            s => panic!("unexpected segment {s:?}"),
        }
    }

    #[test]
    fn scaling_grows_segments() {
        let small = FmmbParams::new(2, 3).schedule(64);
        let big = FmmbParams::new(2, 3).scaled(2.0).schedule(64);
        assert!(big.mis_phases >= small.mis_phases);
        assert!(big.gather_periods >= small.gather_periods);
        assert!(big.lb_periods >= small.lb_periods);
    }

    #[test]
    fn schedule_grows_polylog_in_n() {
        let p = FmmbParams::new(1, 1);
        let s16 = p.schedule(16).total_rounds();
        let s256 = p.schedule(256).total_rounds();
        let s4096 = p.schedule(4096).total_rounds();
        assert!(s256 > s16);
        assert!(s4096 > s256);
        // log^3 growth: doubling log n should scale MIS rounds ~8x, far
        // below linear growth in n (x16 here).
        assert!(s4096 < s256 * 16);
    }

    #[test]
    fn election_rounds_capped_for_huge_networks() {
        let sched = FmmbParams::new(1, 1).schedule(1 << 40);
        assert!(sched.election_rounds <= 126);
    }
}
