//! The deterministic metrics observer and its JSON report.
//!
//! [`MetricsObserver`] consumes the runtime's event stream (it sees
//! exactly what every other [`Observer`] sees — no
//! privileged runtime access) and aggregates:
//!
//! * **Delivery latency** — `rcv.time − bcast.time` per receiver. On
//!   fault-free runs the MAC layer acknowledges within `F_ack`, and every
//!   delivery precedes its ack, so this histogram's max is bounded by
//!   `F_ack` (asserted in the bench determinism suite).
//! * **Ack latency** — `ack.time − bcast.time` per instance.
//! * **Progress slack** — `(bcast.time + F_prog) − rcv.time`, clamped at
//!   zero: how much of the progress window a delivery left unused.
//!   Deliveries past the window are legal (progress is a *some-message*
//!   guarantee, not per-instance) and counted as `late_deliveries`.
//! * **Per-node counters** and an **in-flight instance depth** series —
//!   the observer-visible proxy for event-queue load: `Bcast` opens an
//!   instance; `Ack`/`Abort` close it; a sender crash silences it.
//!
//! Everything above is a pure function of the deterministic event stream,
//! so the rendered JSON document is byte-identical across `--jobs`.

use crate::hist::Histogram;
use crate::json::escape;
use crate::series::TimeSeries;
use amac_graph::NodeId;
use amac_mac::trace::{TraceEntry, TraceKind};
use amac_mac::{FaultKind, InstanceId, MacConfig, Observer};
use amac_sim::Time;

/// Points kept in the in-flight depth series.
const SERIES_POINTS: usize = 128;

/// Per-node event counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeCounters {
    /// Broadcasts initiated by the node.
    pub bcast: u64,
    /// Messages delivered to the node.
    pub rcv: u64,
    /// Acknowledgments received by the node (as sender).
    pub ack: u64,
    /// Aborts issued by the node.
    pub abort: u64,
}

/// One open or closed instance, tracked by instance index.
#[derive(Clone, Copy, Debug)]
struct InstanceState {
    start: u64,
    sender: u32,
    open: bool,
}

/// Streaming deterministic metrics over the MAC event stream; see the
/// module docs for the metric definitions.
///
/// # Examples
///
/// ```
/// use amac_mac::{MacConfig, Observer};
/// use amac_obs::MetricsObserver;
///
/// let mut metrics = MetricsObserver::new(MacConfig::from_ticks(2, 16));
/// // ... attach to a Runtime, or feed TraceEntry values by hand ...
/// let report = metrics.into_report();
/// assert_eq!(report.events_total(), 0);
/// ```
#[derive(Debug)]
pub struct MetricsObserver {
    f_prog: u64,
    f_ack: u64,
    delivery: Histogram,
    ack: Histogram,
    slack: Histogram,
    per_node: Vec<NodeCounters>,
    instances: Vec<Option<InstanceState>>,
    /// Open instance of each sender, for crash-time closure (a node has
    /// at most one in-flight instance).
    open_by_sender: Vec<Option<InstanceId>>,
    late_deliveries: u64,
    faults: u64,
    in_flight: u64,
    depth: TimeSeries,
    end_ticks: u64,
}

impl MetricsObserver {
    /// Creates an observer measuring against `config`'s bounds.
    pub fn new(config: MacConfig) -> MetricsObserver {
        MetricsObserver::from_ticks(config.f_prog().ticks(), config.f_ack().ticks())
    }

    /// Creates an observer from raw bounds in ticks — the replay path,
    /// where only the stored trace header is available.
    pub fn from_ticks(f_prog: u64, f_ack: u64) -> MetricsObserver {
        MetricsObserver {
            f_prog,
            f_ack,
            delivery: Histogram::new(),
            ack: Histogram::new(),
            slack: Histogram::new(),
            per_node: Vec::new(),
            instances: Vec::new(),
            open_by_sender: Vec::new(),
            late_deliveries: 0,
            faults: 0,
            in_flight: 0,
            depth: TimeSeries::new(SERIES_POINTS),
            end_ticks: 0,
        }
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeCounters {
        if self.per_node.len() <= node.index() {
            self.per_node
                .resize(node.index() + 1, NodeCounters::default());
        }
        &mut self.per_node[node.index()]
    }

    fn instance_mut(&mut self, id: InstanceId) -> &mut Option<InstanceState> {
        if self.instances.len() <= id.index() {
            self.instances.resize(id.index() + 1, None);
        }
        &mut self.instances[id.index()]
    }

    fn close(&mut self, id: InstanceId, ticks: u64) {
        let Some(Some(state)) = self.instances.get_mut(id.index()) else {
            return;
        };
        if !state.open {
            return;
        }
        state.open = false;
        let sender = state.sender as usize;
        if let Some(slot) = self.open_by_sender.get_mut(sender) {
            *slot = None;
        }
        self.in_flight = self.in_flight.saturating_sub(1);
        self.depth.record(ticks, self.in_flight);
    }

    /// Consumes the observer, producing the final [`MetricsReport`].
    pub fn into_report(self) -> MetricsReport {
        let mut events = [0u64; 4];
        for c in &self.per_node {
            events[0] += c.bcast;
            events[1] += c.rcv;
            events[2] += c.ack;
            events[3] += c.abort;
        }
        MetricsReport {
            f_prog: self.f_prog,
            f_ack: self.f_ack,
            bcasts: events[0],
            rcvs: events[1],
            acks: events[2],
            aborts: events[3],
            faults: self.faults,
            late_deliveries: self.late_deliveries,
            end_ticks: self.end_ticks,
            delivery_latency: self.delivery,
            ack_latency: self.ack,
            progress_slack: self.slack,
            per_node: self.per_node,
            in_flight: self.depth,
        }
    }
}

impl Observer for MetricsObserver {
    fn on_event(&mut self, event: &TraceEntry) {
        let ticks = event.time.ticks();
        self.end_ticks = self.end_ticks.max(ticks);
        match event.kind {
            TraceKind::Bcast => {
                self.node_mut(event.node).bcast += 1;
                let sender = event.node.index();
                *self.instance_mut(event.instance) = Some(InstanceState {
                    start: ticks,
                    sender: sender as u32,
                    open: true,
                });
                if self.open_by_sender.len() <= sender {
                    self.open_by_sender.resize(sender + 1, None);
                }
                self.open_by_sender[sender] = Some(event.instance);
                self.in_flight += 1;
                self.depth.record(ticks, self.in_flight);
            }
            TraceKind::Rcv => {
                self.node_mut(event.node).rcv += 1;
                let state = self
                    .instances
                    .get(event.instance.index())
                    .copied()
                    .flatten();
                if let Some(state) = state {
                    self.delivery.record(ticks - state.start);
                    let deadline = state.start + self.f_prog;
                    self.slack.record(deadline.saturating_sub(ticks));
                    if ticks > deadline {
                        self.late_deliveries += 1;
                    }
                }
            }
            TraceKind::Ack => {
                self.node_mut(event.node).ack += 1;
                let state = self
                    .instances
                    .get(event.instance.index())
                    .copied()
                    .flatten();
                if let Some(state) = state {
                    self.ack.record(ticks - state.start);
                }
                self.close(event.instance, ticks);
            }
            TraceKind::Abort => {
                self.node_mut(event.node).abort += 1;
                self.close(event.instance, ticks);
            }
        }
    }

    fn on_fault(&mut self, time: Time, node: NodeId, kind: FaultKind) {
        self.faults += 1;
        self.end_ticks = self.end_ticks.max(time.ticks());
        if kind == FaultKind::Crash {
            // A crash silences the node's in-flight instance: no further
            // events for it will arrive, so close it here (mirroring the
            // runtime's `Terminated::Crashed`).
            if let Some(Some(id)) = self.open_by_sender.get(node.index()).copied() {
                self.close(id, time.ticks());
            }
        }
    }
}

/// The finished metrics of one execution, renderable as deterministic
/// JSON (see `docs/OBSERVABILITY.md` for the schema).
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// Progress bound `F_prog`, in ticks.
    pub f_prog: u64,
    /// Acknowledgment bound `F_ack`, in ticks.
    pub f_ack: u64,
    /// Total broadcast events.
    pub bcasts: u64,
    /// Total delivery events.
    pub rcvs: u64,
    /// Total acknowledgment events.
    pub acks: u64,
    /// Total abort events.
    pub aborts: u64,
    /// Applied node faults (crashes plus recoveries).
    pub faults: u64,
    /// Deliveries later than `bcast + F_prog` (legal; see module docs).
    pub late_deliveries: u64,
    /// Tick of the last observed event.
    pub end_ticks: u64,
    /// Per-receiver delivery latency, in ticks.
    pub delivery_latency: Histogram,
    /// Per-instance acknowledgment latency, in ticks.
    pub ack_latency: Histogram,
    /// Unused progress-window ticks per delivery (clamped at zero).
    pub progress_slack: Histogram,
    /// Per-node counters, indexed by node.
    pub per_node: Vec<NodeCounters>,
    /// In-flight instance depth over simulated time.
    pub in_flight: TimeSeries,
}

impl MetricsReport {
    /// Total MAC-level events.
    pub fn events_total(&self) -> u64 {
        self.bcasts + self.rcvs + self.acks + self.aborts
    }

    /// `true` when every recorded delivery latency is within the `F_ack`
    /// bound — guaranteed by the model on fault-free runs (each delivery
    /// precedes its instance's ack, which `F_ack` bounds).
    pub fn delivery_within_ack_bound(&self) -> bool {
        self.delivery_latency
            .max()
            .map_or(true, |m| m <= self.f_ack)
    }

    fn per_node_json(&self) -> String {
        let mut summary = [(u64::MAX, 0u64, 0u64); 4]; // (min, max, total) per kind
        for c in &self.per_node {
            for (slot, v) in [c.bcast, c.rcv, c.ack, c.abort].into_iter().enumerate() {
                summary[slot].0 = summary[slot].0.min(v);
                summary[slot].1 = summary[slot].1.max(v);
                summary[slot].2 += v;
            }
        }
        let field = |name: &str, (min, max, total): (u64, u64, u64)| {
            let min = if self.per_node.is_empty() { 0 } else { min };
            format!("\"{name}\":{{\"min\":{min},\"max\":{max},\"total\":{total}}}")
        };
        let mut out = format!(
            "{{\"nodes\":{},{},{},{},{}",
            self.per_node.len(),
            field("bcast", summary[0]),
            field("rcv", summary[1]),
            field("ack", summary[2]),
            field("abort", summary[3]),
        );
        // The full per-node table only at small n: a 10⁵-node sweep does
        // not want a 10⁵-row JSON array.
        if self.per_node.len() <= 32 {
            out.push_str(",\"counts\":[");
            for (i, c) in self.per_node.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{},{},{}]", c.bcast, c.rcv, c.ack, c.abort));
            }
            out.push(']');
        }
        out.push('}');
        out
    }

    /// Renders the full metrics document, a pure function of the
    /// deterministic event stream.
    pub fn to_json(&self, experiment: &str) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"amac-metrics-v1\",\n");
        out.push_str(&format!("  \"experiment\": \"{}\",\n", escape(experiment)));
        out.push_str(&format!("  \"f_prog\": {},\n", self.f_prog));
        out.push_str(&format!("  \"f_ack\": {},\n", self.f_ack));
        out.push_str(&format!("  \"end_tick\": {},\n", self.end_ticks));
        out.push_str(&format!(
            "  \"events\": {{\"bcast\":{},\"rcv\":{},\"ack\":{},\"abort\":{},\"faults\":{},\"late_deliveries\":{}}},\n",
            self.bcasts, self.rcvs, self.acks, self.aborts, self.faults, self.late_deliveries,
        ));
        out.push_str(&format!(
            "  \"delivery_latency\": {},\n",
            self.delivery_latency.to_json()
        ));
        out.push_str(&format!(
            "  \"ack_latency\": {},\n",
            self.ack_latency.to_json()
        ));
        out.push_str(&format!(
            "  \"progress_slack\": {},\n",
            self.progress_slack.to_json()
        ));
        out.push_str(&format!("  \"per_node\": {},\n", self.per_node_json()));
        out.push_str(&format!("  \"in_flight\": {}", self.in_flight.to_json()));
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amac_mac::MessageKey;

    fn entry(kind: TraceKind, ticks: u64, inst: u64, node: usize) -> TraceEntry {
        TraceEntry {
            time: Time::from_ticks(ticks),
            instance: InstanceId::new(inst),
            node: NodeId::new(node),
            kind,
            key: MessageKey(7),
        }
    }

    fn observe(events: &[TraceEntry]) -> MetricsReport {
        let mut m = MetricsObserver::from_ticks(2, 8);
        for e in events {
            m.on_event(e);
        }
        m.into_report()
    }

    #[test]
    fn latencies_are_measured_from_instance_start() {
        let report = observe(&[
            entry(TraceKind::Bcast, 10, 0, 0),
            entry(TraceKind::Rcv, 11, 0, 1),
            entry(TraceKind::Rcv, 14, 0, 2),
            entry(TraceKind::Ack, 15, 0, 0),
        ]);
        assert_eq!(report.delivery_latency.count(), 2);
        assert_eq!(report.delivery_latency.max(), Some(4));
        assert_eq!(report.ack_latency.max(), Some(5));
        // Slack: deadline 12; rcv@11 leaves 1, rcv@14 is 2 late (slack 0).
        assert_eq!(report.progress_slack.max(), Some(1));
        assert_eq!(report.late_deliveries, 1);
        assert!(report.delivery_within_ack_bound());
        assert_eq!(report.events_total(), 4);
        assert_eq!(report.per_node[0].bcast, 1);
        assert_eq!(report.per_node[2].rcv, 1);
    }

    #[test]
    fn depth_tracks_open_instances_and_crash_closes() {
        let mut m = MetricsObserver::from_ticks(2, 8);
        m.on_event(&entry(TraceKind::Bcast, 0, 0, 0));
        m.on_event(&entry(TraceKind::Bcast, 1, 1, 1));
        m.on_fault(Time::from_ticks(2), NodeId::new(1), FaultKind::Crash);
        m.on_event(&entry(TraceKind::Ack, 3, 0, 0));
        // A late ack for the crashed instance must not double-close.
        m.on_event(&entry(TraceKind::Ack, 4, 1, 1));
        let report = m.into_report();
        assert_eq!(report.in_flight.peak(), 2);
        assert_eq!(report.faults, 1);
        let last = *report.in_flight.points().last().unwrap();
        assert_eq!(last.1, 0, "all instances closed by the end");
    }

    #[test]
    fn json_ends_with_the_in_flight_series() {
        let report = observe(&[
            entry(TraceKind::Bcast, 0, 0, 0),
            entry(TraceKind::Rcv, 1, 0, 1),
            entry(TraceKind::Ack, 1, 0, 0),
        ]);
        let json = report.to_json("unit");
        assert!(json.starts_with("{\n  \"schema\": \"amac-metrics-v1\",\n"));
        let last = json.rfind("\n  \"").expect("members are indented");
        assert!(json[last..].starts_with("\n  \"in_flight\": "));
        assert!(json.ends_with("]}\n}\n"), "{json}");
        assert_eq!(json, report.to_json("unit"), "rendering is repeatable");
    }

    #[test]
    fn json_braces_balance() {
        let mut m = MetricsObserver::from_ticks(2, 8);
        for i in 0..40u64 {
            m.on_event(&entry(TraceKind::Bcast, i, i, (i % 5) as usize));
            m.on_event(&entry(TraceKind::Rcv, i + 1, i, ((i + 1) % 5) as usize));
            m.on_event(&entry(TraceKind::Ack, i + 2, i, (i % 5) as usize));
        }
        let json = m.into_report().to_json("balance \"quoted\" id");
        let depth_ok = |open: char, close: char| {
            let opens = json.matches(open).count();
            let closes = json.matches(close).count();
            opens == closes
        };
        assert!(depth_ok('{', '}'));
        assert!(depth_ok('[', ']'));
        assert!(json.contains("balance \\\"quoted\\\" id"));
    }
}
