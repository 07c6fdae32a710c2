//! Span timelines: every MAC bcast instance as a Chrome trace event.
//!
//! [`SpanObserver`] turns the event stream into instance spans — start at
//! the `bcast` tick, end at the terminal `ack`/`abort` (or the sender's
//! crash), with one instant per receiver delivery — and exports the
//! [Chrome trace-event JSON] that Perfetto and `chrome://tracing` load
//! directly. Simulated ticks are mapped 1:1 onto trace microseconds.
//!
//! Every event lands on track 0 (`"tid":0`): an execution is one totally
//! ordered timeline.
//!
//! [Chrome trace-event JSON]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::escape;
use amac_graph::NodeId;
use amac_mac::trace::{TraceEntry, TraceKind};
use amac_mac::{FaultKind, Observer};
use amac_sim::Time;

/// How an instance's span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// Still open when the export was produced.
    Open,
    /// Acknowledged to the sender.
    Acked,
    /// Aborted by the sender (enhanced model).
    Aborted,
    /// Silenced by the sender's crash.
    Crashed,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Open => "open",
            Outcome::Acked => "ack",
            Outcome::Aborted => "abort",
            Outcome::Crashed => "crash",
        }
    }
}

/// One instance span under construction, indexed by instance id.
#[derive(Clone, Debug)]
struct Span {
    start: u64,
    sender: u32,
    key: u64,
    end: Option<u64>,
    outcome: Outcome,
    /// Receiver deliveries as `(tick, node)` in delivery order.
    rcvs: Vec<(u64, u32)>,
}

/// Builds per-instance spans from the event stream and renders Chrome
/// trace-event JSON.
///
/// # Examples
///
/// ```
/// use amac_obs::SpanObserver;
///
/// let spans = SpanObserver::new();
/// let json = spans.to_chrome_json();
/// assert!(json.starts_with("{\"traceEvents\":["));
/// ```
#[derive(Debug, Default)]
pub struct SpanObserver {
    spans: Vec<Option<Span>>,
    end_ticks: u64,
}

impl SpanObserver {
    /// Creates an empty observer.
    pub fn new() -> SpanObserver {
        SpanObserver::default()
    }

    fn span_mut(&mut self, index: usize) -> &mut Option<Span> {
        if self.spans.len() <= index {
            self.spans.resize(index + 1, None);
        }
        &mut self.spans[index]
    }

    /// Number of spans started so far.
    pub fn len(&self) -> usize {
        self.spans.iter().flatten().count()
    }

    /// `true` when no span has started.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the Chrome trace-event document: one `ph:"X"` complete
    /// event per instance span plus one `ph:"i"` instant per receiver
    /// delivery, in instance order (deterministic). Open spans extend to
    /// the last observed tick and are labelled `"outcome":"open"`.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        for (index, span) in self.spans.iter().enumerate() {
            let Some(span) = span else { continue };
            let end = span.end.unwrap_or(self.end_ticks.max(span.start));
            let name = escape(&format!("i{index} k{}", span.key));
            events.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"mac\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":0,\"args\":{{\"instance\":{index},\"sender\":{},\
                 \"key\":{},\"rcvs\":{},\"outcome\":\"{}\"}}}}",
                span.start,
                end - span.start,
                span.sender,
                span.key,
                span.rcvs.len(),
                span.outcome.label(),
            ));
            for &(tick, node) in &span.rcvs {
                events.push(format!(
                    "{{\"name\":\"rcv i{index}\",\"cat\":\"mac\",\"ph\":\"i\",\"ts\":{tick},\
                     \"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{{\"instance\":{index},\
                     \"node\":{node}}}}}",
                ));
            }
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }
}

impl Observer for SpanObserver {
    fn on_event(&mut self, event: &TraceEntry) {
        let ticks = event.time.ticks();
        self.end_ticks = self.end_ticks.max(ticks);
        let index = event.instance.index();
        match event.kind {
            TraceKind::Bcast => {
                *self.span_mut(index) = Some(Span {
                    start: ticks,
                    sender: event.node.index() as u32,
                    key: event.key.0,
                    end: None,
                    outcome: Outcome::Open,
                    rcvs: Vec::new(),
                });
            }
            TraceKind::Rcv => {
                if let Some(Some(span)) = self.spans.get_mut(index) {
                    span.rcvs.push((ticks, event.node.index() as u32));
                }
            }
            TraceKind::Ack | TraceKind::Abort => {
                if let Some(Some(span)) = self.spans.get_mut(index) {
                    if span.end.is_none() {
                        span.end = Some(ticks);
                        span.outcome = if event.kind == TraceKind::Ack {
                            Outcome::Acked
                        } else {
                            Outcome::Aborted
                        };
                    }
                }
            }
        }
    }

    fn on_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        self.end_ticks = self.end_ticks.max(time.ticks());
        if kind != FaultKind::Crash {
            return;
        }
        // Close the crashed sender's open span: the runtime silences its
        // in-flight instance, so no terminal event will arrive.
        let crashed = node.index() as u32;
        for span in self.spans.iter_mut().flatten() {
            if span.sender == crashed && span.end.is_none() {
                span.end = Some(time.ticks());
                span.outcome = Outcome::Crashed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_mac::{InstanceId, MessageKey};

    fn entry(kind: TraceKind, ticks: u64, inst: u64, node: usize) -> TraceEntry {
        TraceEntry {
            time: Time::from_ticks(ticks),
            instance: InstanceId::new(inst),
            node: NodeId::new(node),
            kind,
            key: MessageKey(3),
        }
    }

    fn feed(spans: &mut SpanObserver) {
        spans.on_event(&entry(TraceKind::Bcast, 0, 0, 0));
        spans.on_event(&entry(TraceKind::Rcv, 2, 0, 1));
        spans.on_event(&entry(TraceKind::Ack, 3, 0, 0));
        spans.on_event(&entry(TraceKind::Bcast, 4, 1, 1));
    }

    #[test]
    fn spans_have_duration_receivers_and_outcomes() {
        let mut spans = SpanObserver::new();
        feed(&mut spans);
        assert_eq!(spans.len(), 2);
        let json = spans.to_chrome_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0,\"dur\":3"));
        assert!(json.contains("\"outcome\":\"ack\""));
        assert!(json.contains("\"outcome\":\"open\""), "i1 never terminated");
        assert!(json.contains("\"ph\":\"i\""), "delivery instant present");
        assert_eq!(
            json.matches("\"tid\":0").count(),
            3,
            "two spans and one delivery instant, all on track 0"
        );
        // Valid-enough JSON: brackets and braces balance.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn crash_closes_the_senders_open_span() {
        let mut spans = SpanObserver::new();
        spans.on_event(&entry(TraceKind::Bcast, 0, 0, 2));
        spans.on_fault(Time::from_ticks(5), NodeId::new(2), FaultKind::Crash);
        let json = spans.to_chrome_json();
        assert!(json.contains("\"outcome\":\"crash\""));
        assert!(json.contains("\"dur\":5"));
    }

    #[test]
    fn export_is_deterministic() {
        let run = || {
            let mut spans = SpanObserver::new();
            feed(&mut spans);
            spans.to_chrome_json()
        };
        assert_eq!(run(), run());
    }
}
