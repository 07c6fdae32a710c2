//! The observer pipeline: streaming consumers of MAC-level events.
//!
//! The [`Runtime`](crate::Runtime) does not own a [`Trace`] (or any other
//! derived view of the execution). Instead it *emits* every MAC-level
//! event — `bcast` / `rcv` / `ack` / `abort`, plus node crash/recovery
//! faults — to whatever set of [`Observer`]s the caller attached, as the
//! events happen. Execution and observation are decoupled: the hot path
//! pays only for the observers actually present (none, by default), and
//! new views of an execution are new observers, not new runtime fields.
//!
//! Three observers ship with this crate:
//!
//! * [`TraceObserver`] — records the full [`Trace`], O(events) memory; the
//!   pre-observer default behaviour, now attached by hand only (no
//!   harness keeps a trace). Attach it when you need the whole execution
//!   in memory: `repro replay --observer trace`, the runtime's tests, hand
//!   inspection, or a trace for the post-hoc oracle that this crate's
//!   tests compare the streaming validator against.
//! * [`CounterObserver`] — per-kind event counts, O(1) memory.
//! * [`OnlineValidator`](crate::OnlineValidator) — checks the five MAC
//!   guarantees *while the execution runs*, with memory proportional to
//!   the in-flight state rather than the execution length (see
//!   [`online`](crate::online)). It also counts the events and folds them
//!   into an order-sensitive fingerprint
//!   ([`OnlineStats`](crate::OnlineStats)), which is how the model checker
//!   tells executions apart without keeping their traces.
//!
//! Downstream crates plug further observers into the same pipeline:
//! `amac-store`'s `StoreObserver` streams the execution to a durable
//! `.amactrace` file, and `amac-obs` adds `MetricsObserver` (sim-time
//! latency/slack histograms, per-node counters) and `SpanObserver`
//! (per-instance span timelines as Chrome trace-event JSON).
//!
//! Observers are attached with [`Runtime::attach`](crate::Runtime::attach),
//! which returns a typed [`ObserverHandle`]; after (or during) the run the
//! observer is borrowed back with
//! [`Runtime::observer`](crate::Runtime::observer) or reclaimed by value
//! with [`Runtime::detach`](crate::Runtime::detach). The run harnesses do
//! not call these themselves: `amac_core::Instruments` attaches the
//! observers a `RunOptions` selects (validator, store, metrics, spans, in
//! that order) and detaches and seals them when the run ends.

use crate::fault::FaultKind;
use crate::trace::{Trace, TraceEntry, TraceKind};
use amac_graph::NodeId;
use amac_sim::Time;
use std::any::Any;
use std::marker::PhantomData;

/// A streaming consumer of MAC-level events.
///
/// The runtime calls [`on_event`](Observer::on_event) for every
/// `bcast`/`rcv`/`ack`/`abort` in execution order (times are
/// non-decreasing; ties reflect zero-delay steps whose relative order is
/// meaningful), and [`on_fault`](Observer::on_fault) for every applied
/// node crash or recovery. Observers must not assume they see a complete
/// execution until the caller stops stepping the runtime.
///
/// The `Any` supertrait is what lets [`Runtime::detach`](crate::Runtime::detach)
/// hand the concrete observer back by value.
pub trait Observer: Any {
    /// A MAC-level event was recorded.
    fn on_event(&mut self, event: &TraceEntry);

    /// A node fault (crash or recovery) was applied. Default: ignore.
    fn on_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        let _ = (time, node, kind);
    }
}

/// Typed handle to an observer attached to a runtime, returned by
/// [`Runtime::attach`](crate::Runtime::attach). Redeem it with
/// [`Runtime::observer`](crate::Runtime::observer) (borrow) or
/// [`Runtime::detach`](crate::Runtime::detach) (take back by value).
#[derive(Debug)]
pub struct ObserverHandle<O> {
    pub(crate) index: usize,
    pub(crate) _marker: PhantomData<fn() -> O>,
}

/// The set of observers attached to one runtime. Detached slots stay as
/// holes so outstanding handles keep their indices.
#[derive(Default)]
pub(crate) struct ObserverSet {
    observers: Vec<Option<Box<dyn Observer>>>,
}

impl ObserverSet {
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.observers.iter().all(Option::is_none)
    }

    pub(crate) fn attach<O: Observer>(&mut self, observer: O) -> ObserverHandle<O> {
        self.observers.push(Some(Box::new(observer)));
        ObserverHandle {
            index: self.observers.len() - 1,
            _marker: PhantomData,
        }
    }

    pub(crate) fn get<O: Observer>(&self, handle: &ObserverHandle<O>) -> &O {
        let boxed = self.observers[handle.index]
            .as_ref()
            .expect("observer was already detached");
        (boxed.as_ref() as &dyn Any)
            .downcast_ref::<O>()
            .expect("observer handle type matches the attached observer")
    }

    pub(crate) fn detach<O: Observer>(&mut self, handle: ObserverHandle<O>) -> O {
        let boxed = self.observers[handle.index]
            .take()
            .expect("observer was already detached");
        *(boxed as Box<dyn Any>)
            .downcast::<O>()
            .unwrap_or_else(|_| panic!("observer handle type matches the attached observer"))
    }

    #[inline]
    pub(crate) fn emit(&mut self, event: &TraceEntry) {
        for observer in self.observers.iter_mut().flatten() {
            observer.on_event(event);
        }
    }

    #[inline]
    pub(crate) fn emit_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        for observer in self.observers.iter_mut().flatten() {
            observer.on_fault(time, node, kind);
        }
    }
}

/// Records the full execution [`Trace`] — the pre-observer default
/// behaviour, now attached by hand only. O(events) memory; attach it only
/// when a surface actually consumes the trace (`repro replay --observer
/// trace`, [`OnlineValidator::replay`](crate::OnlineValidator::replay),
/// the test oracle). To tell executions apart, compare the validator's
/// [`OnlineStats::fingerprint`](crate::OnlineStats::fingerprint) instead;
/// to keep an execution past the run, record it to an `.amactrace` file.
///
/// # Examples
///
/// ```
/// use amac_mac::{Runtime, TraceObserver, MacConfig, policies::EagerPolicy};
/// # use amac_mac::{Automaton, Ctx, MacMessage, MessageKey};
/// # use amac_graph::{generators, DualGraph};
/// # #[derive(Clone, Debug)]
/// # struct T;
/// # impl MacMessage for T { fn key(&self) -> MessageKey { MessageKey(0) } }
/// # struct Quiet;
/// # impl Automaton for Quiet {
/// #     type Msg = T; type Env = (); type Out = ();
/// #     fn on_receive(&mut self, _: &T, _: &mut Ctx<'_, T, ()>) {}
/// #     fn on_ack(&mut self, _: &T, _: &mut Ctx<'_, T, ()>) {}
/// # }
/// let dual = DualGraph::reliable(generators::line(2)?);
/// let mut rt = Runtime::new(dual, MacConfig::from_ticks(1, 4), vec![Quiet, Quiet], EagerPolicy::new());
/// let tracer = rt.attach(TraceObserver::new());
/// rt.run();
/// let trace = rt.detach(tracer).into_trace();
/// assert!(trace.is_empty(), "nobody broadcast");
/// # Ok::<(), amac_graph::GraphError>(())
/// ```
#[derive(Debug, Default)]
pub struct TraceObserver {
    trace: Trace,
}

impl TraceObserver {
    /// Creates an observer with an empty trace.
    pub fn new() -> TraceObserver {
        TraceObserver::default()
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the observer, returning the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl Observer for TraceObserver {
    fn on_event(&mut self, event: &TraceEntry) {
        self.trace.push(
            event.time,
            event.instance,
            event.node,
            event.kind,
            event.key,
        );
    }

    fn on_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        self.trace.push_fault(time, node, kind);
    }
}

/// Counts MAC-level events per kind (plus applied faults) in O(1) memory —
/// the cheapest useful observer, and the reference example for writing new
/// ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct CounterObserver {
    counts: [u64; 4],
    faults: u64,
}

impl CounterObserver {
    /// Creates a zeroed counter.
    pub fn new() -> CounterObserver {
        CounterObserver::default()
    }

    fn slot(kind: TraceKind) -> usize {
        match kind {
            TraceKind::Bcast => 0,
            TraceKind::Rcv => 1,
            TraceKind::Ack => 2,
            TraceKind::Abort => 3,
        }
    }

    /// Number of events of `kind` observed so far.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.counts[Self::slot(kind)]
    }

    /// Total MAC-level events observed (faults excluded).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of applied faults (crashes plus recoveries) observed.
    pub fn faults(&self) -> u64 {
        self.faults
    }
}

impl Observer for CounterObserver {
    fn on_event(&mut self, event: &TraceEntry) {
        self.counts[Self::slot(event.kind)] += 1;
    }

    fn on_fault(&mut self, _time: Time, _node: NodeId, _kind: FaultKind) {
        self.faults += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceId;
    use crate::message::MessageKey;

    fn entry(kind: TraceKind, ticks: u64) -> TraceEntry {
        TraceEntry {
            time: Time::from_ticks(ticks),
            instance: InstanceId::new(0),
            node: NodeId::new(0),
            kind,
            key: MessageKey(1),
        }
    }

    #[test]
    fn trace_observer_replays_events_into_a_trace() {
        let mut obs = TraceObserver::new();
        obs.on_event(&entry(TraceKind::Bcast, 0));
        obs.on_event(&entry(TraceKind::Ack, 2));
        obs.on_fault(Time::from_ticks(3), NodeId::new(1), FaultKind::Crash);
        assert_eq!(obs.trace().len(), 2);
        let trace = obs.into_trace();
        assert_eq!(trace.count(TraceKind::Ack), 1);
        assert_eq!(trace.faults().len(), 1);
    }

    #[test]
    fn counter_observer_counts_by_kind() {
        let mut obs = CounterObserver::new();
        obs.on_event(&entry(TraceKind::Bcast, 0));
        obs.on_event(&entry(TraceKind::Rcv, 1));
        obs.on_event(&entry(TraceKind::Rcv, 1));
        obs.on_fault(Time::from_ticks(2), NodeId::new(0), FaultKind::Crash);
        assert_eq!(obs.count(TraceKind::Rcv), 2);
        assert_eq!(obs.count(TraceKind::Bcast), 1);
        assert_eq!(obs.count(TraceKind::Abort), 0);
        assert_eq!(obs.total(), 3);
        assert_eq!(obs.faults(), 1);
    }

    #[test]
    fn observer_set_attach_get_detach_roundtrip() {
        let mut set = ObserverSet::default();
        assert!(set.is_empty());
        let counters = set.attach(CounterObserver::new());
        let tracer = set.attach(TraceObserver::new());
        assert!(!set.is_empty());
        set.emit(&entry(TraceKind::Bcast, 0));
        assert_eq!(set.get(&counters).total(), 1);
        assert_eq!(set.get(&tracer).trace().len(), 1);
        let taken = set.detach(tracer);
        assert_eq!(taken.trace().len(), 1);
        // The counter handle survives the tracer's detach.
        set.emit(&entry(TraceKind::Ack, 1));
        assert_eq!(set.detach(counters).total(), 2);
        assert!(set.is_empty());
    }
}
