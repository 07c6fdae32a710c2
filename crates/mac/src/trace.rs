//! Execution traces: the ground truth record of MAC-level events.
//!
//! A [`TraceObserver`](crate::TraceObserver) appends one entry per
//! `bcast` / `rcv` / `ack` / `abort` event. A trace can be fed back to
//! [`OnlineValidator::replay`](crate::OnlineValidator::replay), which
//! re-checks the paper's five MAC-layer guarantees on the concrete
//! execution — our mechanical substitute for the paper's hand proofs of
//! model conformance. Traces can also be constructed by hand, which the
//! test suite uses for fault injection (deliberately invalid traces must be
//! rejected).

use crate::fault::FaultKind;
use crate::instance::InstanceId;
use crate::message::MessageKey;
use amac_graph::NodeId;
use amac_sim::Time;
use std::fmt;

/// The kind of a trace entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A node initiated a local broadcast (one per message instance).
    Bcast,
    /// A node received the instance's message.
    Rcv,
    /// The MAC layer acknowledged the instance to its sender.
    Ack,
    /// The sender aborted the instance (enhanced model only).
    Abort,
}

impl TraceKind {
    /// Stable single-byte wire code of this kind, used as the record tag of
    /// the `amac-store` on-disk trace format (`docs/TRACE_FORMAT.md`).
    /// These values are part of the persisted format: never renumber them —
    /// new kinds get new codes.
    pub const fn code(self) -> u8 {
        match self {
            TraceKind::Bcast => 0,
            TraceKind::Rcv => 1,
            TraceKind::Ack => 2,
            TraceKind::Abort => 3,
        }
    }

    /// Inverse of [`code`](TraceKind::code); `None` for an unassigned code.
    pub const fn from_code(code: u8) -> Option<TraceKind> {
        match code {
            0 => Some(TraceKind::Bcast),
            1 => Some(TraceKind::Rcv),
            2 => Some(TraceKind::Ack),
            3 => Some(TraceKind::Abort),
            _ => None,
        }
    }
}

/// One MAC-level event.
///
/// Also the event type the runtime feeds to every attached
/// [`Observer`](crate::Observer) — the trace is simply the log of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Simulated time of the event.
    pub time: Time,
    /// The message instance the event belongs to (the model's *cause*
    /// function, made explicit).
    pub instance: InstanceId,
    /// The acting node: the sender for `Bcast`/`Ack`/`Abort`, the receiver
    /// for `Rcv`.
    pub node: NodeId,
    /// Event kind.
    pub kind: TraceKind,
    /// Semantic key of the instance's payload.
    pub key: MessageKey,
}

/// One applied node fault (crash or recovery), recorded alongside the
/// MAC-level events so the validator can condition the model guarantees on
/// node liveness. Kept in a separate log from [`TraceEntry`]: faults are
/// node-level, not instance-level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// When the fault was applied.
    pub time: Time,
    /// The affected node.
    pub node: NodeId,
    /// Crash or recovery.
    pub kind: FaultKind,
}

/// An append-only log of MAC-level events in execution order.
///
/// Entries are totally ordered by append position; ties in `time` reflect
/// zero-delay steps, whose relative order is meaningful (e.g. all `rcv`s of
/// an instance precede its `ack` even when they share a tick).
///
/// # Examples
///
/// ```
/// use amac_mac::trace::{Trace, TraceKind};
/// use amac_mac::{InstanceId, MessageKey};
/// use amac_graph::NodeId;
/// use amac_sim::Time;
///
/// let mut t = Trace::new();
/// t.push(Time::ZERO, InstanceId::new(0), NodeId::new(0), TraceKind::Bcast, MessageKey(1));
/// t.push(Time::from_ticks(3), InstanceId::new(0), NodeId::new(1), TraceKind::Rcv, MessageKey(1));
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.entries()[1].kind, TraceKind::Rcv);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    faults: Vec<FaultRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an event.
    pub fn push(
        &mut self,
        time: Time,
        instance: InstanceId,
        node: NodeId,
        kind: TraceKind,
        key: MessageKey,
    ) {
        if let Some(last) = self.entries.last() {
            debug_assert!(last.time <= time, "trace must be time-ordered");
        }
        self.entries.push(TraceEntry {
            time,
            instance,
            node,
            kind,
            key,
        });
    }

    /// Appends a node fault (crash or recovery) to the fault log.
    pub fn push_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        if let Some(last) = self.faults.last() {
            debug_assert!(last.time <= time, "fault log must be time-ordered");
        }
        self.faults.push(FaultRecord { time, node, kind });
    }

    /// All applied node faults in execution order (empty for crash-free
    /// executions).
    pub fn faults(&self) -> &[FaultRecord] {
        &self.faults
    }

    /// All entries in execution order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the trace records no events.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Time of the last recorded event (the trace horizon), or `None` for
    /// an empty trace. Entries are appended in time order, so this is also
    /// the maximum timestamp.
    pub fn last_time(&self) -> Option<Time> {
        self.entries.last().map(|e| e.time)
    }

    /// Number of entries of the given kind.
    pub fn count(&self, kind: TraceKind) -> usize {
        self.entries.iter().filter(|e| e.kind == kind).count()
    }

    /// Iterates entries of one kind.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace with {} events:", self.entries.len())?;
        for e in &self.entries {
            writeln!(
                f,
                "  t={:<8} {:?} inst={:?} node={} key={}",
                e.time, e.kind, e.instance, e.node, e.key
            )?;
        }
        if !self.faults.is_empty() {
            writeln!(f, "faults ({}):", self.faults.len())?;
            for rec in &self.faults {
                writeln!(f, "  t={:<8} {} node={}", rec.time, rec.kind, rec.node)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_times(t: &Trace) -> Vec<u64> {
        t.entries().iter().map(|e| e.time.ticks()).collect()
    }

    #[test]
    fn append_preserves_order() {
        let mut t = Trace::new();
        for i in 0..5 {
            t.push(
                Time::from_ticks(i),
                InstanceId::new(0),
                NodeId::new(0),
                TraceKind::Rcv,
                MessageKey(0),
            );
        }
        assert_eq!(entry_times(&t), vec![0, 1, 2, 3, 4]);
        assert_eq!(t.last_time(), Some(Time::from_ticks(4)));
        assert_eq!(Trace::new().last_time(), None);
    }

    #[test]
    fn count_by_kind() {
        let mut t = Trace::new();
        t.push(
            Time::ZERO,
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Bcast,
            MessageKey(0),
        );
        t.push(
            Time::ZERO,
            InstanceId::new(0),
            NodeId::new(1),
            TraceKind::Rcv,
            MessageKey(0),
        );
        t.push(
            Time::ZERO,
            InstanceId::new(0),
            NodeId::new(2),
            TraceKind::Rcv,
            MessageKey(0),
        );
        t.push(
            Time::ZERO,
            InstanceId::new(0),
            NodeId::new(0),
            TraceKind::Ack,
            MessageKey(0),
        );
        assert_eq!(t.count(TraceKind::Rcv), 2);
        assert_eq!(t.count(TraceKind::Bcast), 1);
        assert_eq!(t.count(TraceKind::Abort), 0);
        assert_eq!(t.of_kind(TraceKind::Rcv).count(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn wire_codes_round_trip_and_stay_stable() {
        let kinds = [
            TraceKind::Bcast,
            TraceKind::Rcv,
            TraceKind::Ack,
            TraceKind::Abort,
        ];
        for kind in kinds {
            assert_eq!(TraceKind::from_code(kind.code()), Some(kind));
        }
        // Persisted-format pins: renumbering breaks stored traces.
        assert_eq!(TraceKind::Bcast.code(), 0);
        assert_eq!(TraceKind::Rcv.code(), 1);
        assert_eq!(TraceKind::Ack.code(), 2);
        assert_eq!(TraceKind::Abort.code(), 3);
        assert_eq!(TraceKind::from_code(4), None);
    }

    #[test]
    fn fault_log_is_recorded_and_displayed() {
        let mut t = Trace::new();
        t.push_fault(Time::from_ticks(4), NodeId::new(2), FaultKind::Crash);
        t.push_fault(Time::from_ticks(9), NodeId::new(2), FaultKind::Recover);
        assert_eq!(t.faults().len(), 2);
        assert_eq!(t.faults()[0].kind, FaultKind::Crash);
        assert!(t.is_empty(), "faults live in their own log");
        let s = t.to_string();
        assert!(s.contains("crash"));
        assert!(s.contains("recover"));
    }

    #[test]
    fn display_renders_every_entry() {
        let mut t = Trace::new();
        t.push(
            Time::ZERO,
            InstanceId::new(3),
            NodeId::new(1),
            TraceKind::Bcast,
            MessageKey(9),
        );
        let s = t.to_string();
        assert!(s.contains("Bcast"));
        assert!(s.contains("k9"));
    }
}
