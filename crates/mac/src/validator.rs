//! The verdict types of MAC-layer validation: each [`Violation`] of the
//! model guarantees (paper Section 3.2.1) that the
//! [`OnlineValidator`](crate::OnlineValidator) can find, and the
//! [`ValidationReport`] it returns.

use crate::instance::InstanceId;
use crate::trace::TraceKind;
use amac_graph::NodeId;
use amac_sim::Time;
use std::error::Error;
use std::fmt;

/// A single violation of the model guarantees found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// An instance has more than one `bcast` entry.
    DuplicateBcast {
        /// The offending instance.
        instance: InstanceId,
    },
    /// An event references an instance with no preceding `bcast` (the cause
    /// function is undefined for it).
    MissingBcast {
        /// The offending instance.
        instance: InstanceId,
    },
    /// A receiver got a message from a node that is not its `G′`-neighbor.
    RcvToNonNeighbor {
        /// The offending instance.
        instance: InstanceId,
        /// The receiver.
        receiver: NodeId,
    },
    /// The same receiver got the same instance twice.
    DuplicateRcv {
        /// The offending instance.
        instance: InstanceId,
        /// The receiver.
        receiver: NodeId,
    },
    /// A `rcv` appears after the instance's terminating event.
    RcvAfterTermination {
        /// The offending instance.
        instance: InstanceId,
        /// The receiver.
        receiver: NodeId,
    },
    /// An instance has more than one `ack`/`abort`.
    MultipleTerminations {
        /// The offending instance.
        instance: InstanceId,
    },
    /// An `ack`/`abort` is attributed to a node other than the sender.
    TerminationByNonSender {
        /// The offending instance.
        instance: InstanceId,
        /// The node recorded on the terminating event.
        node: NodeId,
    },
    /// An acked instance never delivered to some reliable neighbor.
    MissingReliableDelivery {
        /// The offending instance.
        instance: InstanceId,
        /// The `G`-neighbor that never received it.
        receiver: NodeId,
    },
    /// The ack came later than `F_ack` after the broadcast.
    AckBoundExceeded {
        /// The offending instance.
        instance: InstanceId,
        /// Observed delay in ticks.
        delay: u64,
    },
    /// An instance never terminated in a quiescent execution.
    MissingTermination {
        /// The offending instance.
        instance: InstanceId,
    },
    /// A window longer than `F_prog` was spanned by a `G`-neighbor's
    /// instance while the receiver had no covering receive (no receive, at
    /// any time up to the window's end, from an instance still contending
    /// at the window's start).
    ProgressViolation {
        /// The starving receiver.
        receiver: NodeId,
        /// The spanning instance from a `G`-neighbor.
        instance: InstanceId,
        /// Start of the uncovered window.
        window_start: Time,
    },
    /// A crashed node acted (broadcast, acknowledged, aborted) or received
    /// a message strictly inside one of its crash intervals.
    ActionWhileCrashed {
        /// The instance the offending event belongs to.
        instance: InstanceId,
        /// The crashed node recorded on the event.
        node: NodeId,
        /// The offending event's kind.
        kind: TraceKind,
    },
    /// A sender started a new broadcast before terminating the previous one
    /// (user well-formedness).
    OverlappingBcasts {
        /// The offending sender.
        sender: NodeId,
        /// The earlier, still-in-flight instance.
        first: InstanceId,
        /// The prematurely started instance.
        second: InstanceId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateBcast { instance } => {
                write!(f, "instance {instance} broadcast more than once")
            }
            Violation::MissingBcast { instance } => {
                write!(f, "instance {instance} has events but no bcast")
            }
            Violation::RcvToNonNeighbor { instance, receiver } => {
                write!(f, "instance {instance} delivered to non-G'-neighbor {receiver}")
            }
            Violation::DuplicateRcv { instance, receiver } => {
                write!(f, "instance {instance} delivered twice to {receiver}")
            }
            Violation::RcvAfterTermination { instance, receiver } => {
                write!(f, "instance {instance} delivered to {receiver} after termination")
            }
            Violation::MultipleTerminations { instance } => {
                write!(f, "instance {instance} terminated more than once")
            }
            Violation::TerminationByNonSender { instance, node } => {
                write!(f, "instance {instance} terminated by non-sender {node}")
            }
            Violation::MissingReliableDelivery { instance, receiver } => write!(
                f,
                "instance {instance} acked without delivering to reliable neighbor {receiver}"
            ),
            Violation::AckBoundExceeded { instance, delay } => {
                write!(f, "instance {instance} acked after {delay} ticks, beyond F_ack")
            }
            Violation::MissingTermination { instance } => {
                write!(f, "instance {instance} never terminated in a quiescent execution")
            }
            Violation::ProgressViolation {
                receiver,
                instance,
                window_start,
            } => write!(
                f,
                "receiver {receiver} had no covering receive for the window starting at t={window_start} while instance {instance} of a G-neighbor spanned it (progress bound)"
            ),
            Violation::ActionWhileCrashed { instance, node, kind } => write!(
                f,
                "crashed node {node} appears on a {kind:?} event of instance {instance}"
            ),
            Violation::OverlappingBcasts { sender, first, second } => write!(
                f,
                "sender {sender} started {second} before terminating {first} (user well-formedness)"
            ),
        }
    }
}

impl Error for Violation {}

/// The result of validating one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    violations: Vec<Violation>,
}

impl ValidationReport {
    /// Builds a report from an already-collected violation list (used by
    /// the [`OnlineValidator`](crate::OnlineValidator)).
    pub(crate) fn from_violations(violations: Vec<Violation>) -> ValidationReport {
        ValidationReport { violations }
    }

    /// `true` when no violations were found.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// All violations found.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// One-line verdict for table footers and replay summaries:
    /// `"ok"`, or the violation count.
    pub fn summary(&self) -> String {
        if self.is_ok() {
            "ok".to_string()
        } else {
            format!("{} violation(s)", self.violations.len())
        }
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(f, "execution conforms to the abstract MAC layer model");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hand_built::assert_rows;

    #[test]
    fn report_display_lists_violations() {
        let ok = ValidationReport::default();
        assert_eq!(ok.summary(), "ok");
        assert!(ok.to_string().contains("conforms"));
        let report = ValidationReport::from_violations(vec![Violation::MissingTermination {
            instance: InstanceId::new(0),
        }]);
        assert!(!report.is_ok());
        assert_eq!(report.summary(), "1 violation(s)");
        let s = report.to_string();
        assert!(s.contains("violation"));
        assert!(s.contains("never terminated"), "{s}");
    }

    // Each hand-built trace is the row of the same name in the table of
    // `tests/hand_built/mod.rs`, judged by the post-hoc oracle and the
    // online validator alike.

    #[test]
    fn accepts_valid_trace() {
        assert_rows(&["accepts_valid_trace"]);
    }

    #[test]
    fn rejects_missing_reliable_delivery() {
        assert_rows(&["rejects_missing_reliable_delivery"]);
    }

    #[test]
    fn rejects_ack_bound_excess() {
        assert_rows(&["rejects_ack_bound_excess"]);
    }

    #[test]
    fn rejects_rcv_to_non_neighbor() {
        assert_rows(&["rejects_rcv_to_non_neighbor"]);
    }

    #[test]
    fn rejects_duplicate_rcv() {
        assert_rows(&["rejects_duplicate_rcv"]);
    }

    #[test]
    fn rejects_missing_termination_when_quiescent() {
        assert_rows(&[
            "rejects_missing_termination_when_quiescent",
            "rejects_missing_termination_when_quiescent (truncated)",
        ]);
    }

    #[test]
    fn rejects_progress_starvation() {
        assert_rows(&["rejects_progress_starvation"]);
    }

    #[test]
    fn progress_covered_by_earlier_rcv_from_live_instance() {
        assert_rows(&["progress_covered_by_earlier_rcv_from_live_instance"]);
    }

    #[test]
    fn progress_protection_ends_at_protector_termination() {
        assert_rows(&["progress_protection_ends_at_protector_termination"]);
    }

    #[test]
    fn progress_satisfied_by_other_instances() {
        assert_rows(&["progress_satisfied_by_other_instances"]);
    }

    #[test]
    fn rejects_overlapping_bcasts() {
        assert_rows(&["rejects_overlapping_bcasts"]);
    }

    #[test]
    fn rejects_orphaned_events() {
        assert_rows(&["rejects_orphaned_events"]);
    }

    #[test]
    fn rejects_termination_by_non_sender() {
        assert_rows(&["rejects_termination_by_non_sender"]);
    }

    #[test]
    fn abort_exempts_ack_checks() {
        assert_rows(&["abort_exempts_ack_checks"]);
    }

    #[test]
    fn late_crash_does_not_excuse_an_overdue_ack() {
        assert_rows(&["late_crash_does_not_excuse_an_overdue_ack"]);
    }

    #[test]
    fn recovered_receiver_can_starve_again() {
        assert_rows(&["recovered_receiver_can_starve_again"]);
    }

    #[test]
    fn crashed_sender_exempts_termination_and_progress() {
        assert_rows(&[
            "crashed_sender_exempts_termination_and_progress",
            "crashed_sender_exempts_termination_and_progress (no fault log)",
        ]);
    }

    #[test]
    fn rejects_actions_by_crashed_nodes() {
        assert_rows(&["rejects_actions_by_crashed_nodes"]);
    }

    #[test]
    fn crashed_receiver_exempts_reliable_delivery() {
        assert_rows(&["crashed_receiver_exempts_reliable_delivery"]);
    }

    #[test]
    fn post_recovery_rebroadcast_is_well_formed() {
        assert_rows(&[
            "post_recovery_rebroadcast_is_well_formed",
            "post_recovery_rebroadcast_is_well_formed (no fault log)",
        ]);
    }
}
