//! The Basic Multi-Message Broadcast (BMMB) protocol (paper Section 3).
//!
//! Every process keeps a FIFO queue `bcastq` and a set `rcvd`. On first
//! learning a message (environment `arrive` or MAC `rcv`), it delivers the
//! message locally and appends it to `bcastq`; duplicates are discarded.
//! Whenever it is not waiting for an acknowledgment and `bcastq` is
//! non-empty, it immediately broadcasts the head and waits for the ack.
//!
//! BMMB runs in the **standard** abstract MAC layer: it is purely event
//! driven, uses no clocks, no aborts, and no knowledge of the timing
//! constants. Its guarantees (all proved in the paper, reproduced by the
//! experiments in `amac-bench`):
//!
//! * arbitrary `G′`: `O((D + k) · F_ack)` (Theorem 3.1);
//! * `r`-restricted `G′`: `O(D·F_prog + r·k·F_ack)`, concretely
//!   `t₁ = (D + (r+1)k − 2)·F_prog + r(k−1)·F_ack` (Theorem 3.16);
//! * `G′ = G`: `O(D·F_prog + k·F_ack)` (prior work, subsumed by `r = 1`).

use crate::mmb::{Delivered, MessageId, MmbMessage};
use amac_mac::{Automaton, Ctx};
use amac_sim::FastHashSet;
use std::collections::VecDeque;

/// One BMMB process (node automaton).
///
/// # Examples
///
/// ```
/// use amac_core::{Assignment, Bmmb};
/// use amac_graph::{generators, DualGraph, NodeId};
/// use amac_mac::{policies::LazyPolicy, MacConfig, Runtime};
///
/// let dual = DualGraph::reliable(generators::line(6)?);
/// let cfg = MacConfig::from_ticks(2, 24);
/// let nodes = (0..6).map(|_| Bmmb::new()).collect();
/// let mut rt = Runtime::new(dual, cfg, nodes, LazyPolicy::new());
/// for (node, msg) in Assignment::all_at(NodeId::new(0), 2).arrivals() {
///     rt.inject(*node, *msg);
/// }
/// rt.run();
/// assert_eq!(rt.outputs().len(), 2 * 6, "2 messages delivered at 6 nodes");
/// # Ok::<(), amac_graph::GraphError>(())
/// ```
#[derive(Debug, Default)]
pub struct Bmmb {
    bcastq: VecDeque<MmbMessage>,
    rcvd: FastHashSet<MessageId>,
    sent: FastHashSet<MessageId>,
}

impl Bmmb {
    /// Creates a BMMB process with empty queue and received set.
    pub fn new() -> Bmmb {
        Bmmb::default()
    }

    /// `true` if this process has learned message `id` (the `rcvd` set).
    pub fn has_received(&self, id: MessageId) -> bool {
        self.rcvd.contains(&id)
    }

    /// `true` if this process has broadcast and been acked for `id` (the
    /// *sent set* used in the proof of Theorem 3.1).
    pub fn has_sent(&self, id: MessageId) -> bool {
        self.sent.contains(&id)
    }

    /// Number of messages learned so far (`|R_i(t)|` in the paper).
    pub fn received_count(&self) -> usize {
        self.rcvd.len()
    }

    /// Number of messages completed so far (`|C_i(t)|` in the paper).
    pub fn sent_count(&self) -> usize {
        self.sent.len()
    }

    /// Current queue length (`R_i − C_i` by Lemma 3.6).
    pub fn queue_len(&self) -> usize {
        self.bcastq.len()
    }

    /// Learns a message: deliver it, enqueue it, and broadcast if idle.
    fn learn(&mut self, msg: MmbMessage, ctx: &mut Ctx<'_, MmbMessage, Delivered>) {
        if !self.rcvd.insert(msg.id) {
            return; // duplicate: discard
        }
        ctx.output(Delivered(msg.id));
        self.bcastq.push_back(msg);
        self.pump(ctx);
    }

    /// Broadcasts the queue head when no broadcast is in flight.
    fn pump(&mut self, ctx: &mut Ctx<'_, MmbMessage, Delivered>) {
        if !ctx.has_broadcast_in_flight() {
            if let Some(&head) = self.bcastq.front() {
                ctx.bcast(head);
            }
        }
    }
}

impl Automaton for Bmmb {
    type Msg = MmbMessage;
    type Env = MmbMessage;
    type Out = Delivered;

    fn on_env(&mut self, input: MmbMessage, ctx: &mut Ctx<'_, MmbMessage, Delivered>) {
        self.learn(input, ctx);
    }

    fn on_receive(&mut self, msg: &MmbMessage, ctx: &mut Ctx<'_, MmbMessage, Delivered>) {
        self.learn(*msg, ctx);
    }

    fn on_ack(&mut self, msg: &MmbMessage, ctx: &mut Ctx<'_, MmbMessage, Delivered>) {
        let head = self
            .bcastq
            .pop_front()
            .expect("ack with empty bcastq is impossible for BMMB");
        debug_assert_eq!(head.id, msg.id, "acks follow queue order");
        self.sent.insert(head.id);
        self.pump(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mmb::Assignment;
    use amac_graph::{generators, DualGraph, NodeId};
    use amac_mac::{policies, MacConfig, OnlineValidator, Runtime, ValidationReport};

    fn run_line(
        n: usize,
        assignment: &Assignment,
        policy: impl amac_mac::Policy,
    ) -> (Runtime<Bmmb, impl amac_mac::Policy>, ValidationReport) {
        let dual = DualGraph::reliable(generators::line(n).unwrap());
        let cfg = MacConfig::from_ticks(2, 24);
        let nodes = (0..n).map(|_| Bmmb::new()).collect();
        let mut rt = Runtime::new(dual.clone(), cfg, nodes, policy);
        let validator = rt.attach(OnlineValidator::new(dual, cfg));
        for (node, msg) in assignment.arrivals() {
            rt.inject(*node, *msg);
        }
        rt.run();
        let report = rt.detach(validator).into_report(true);
        (rt, report)
    }

    #[test]
    fn single_message_floods_line() {
        let a = Assignment::all_at(NodeId::new(0), 1);
        let (rt, _) = run_line(8, &a, policies::EagerPolicy::new());
        for i in 0..8 {
            assert!(rt.node(NodeId::new(i)).has_received(MessageId(0)));
            assert!(rt.node(NodeId::new(i)).has_sent(MessageId(0)));
            assert_eq!(rt.node(NodeId::new(i)).queue_len(), 0);
        }
        assert_eq!(rt.outputs().len(), 8);
    }

    #[test]
    fn duplicates_are_discarded() {
        let a = Assignment::all_at(NodeId::new(0), 1);
        let (rt, _) = run_line(4, &a, policies::EagerPolicy::new());
        // Exactly one deliver output per node despite multiple receptions.
        assert_eq!(rt.outputs().len(), 4);
        assert_eq!(rt.node(NodeId::new(1)).received_count(), 1);
    }

    #[test]
    fn multiple_messages_complete_under_lazy_scheduler() {
        let a = Assignment::all_at(NodeId::new(0), 3);
        let (rt, report) = run_line(5, &a, policies::LazyPolicy::new().prefer_duplicates());
        assert_eq!(rt.outputs().len(), 15);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn fifo_queue_order_is_respected() {
        // All messages at node 0; acks must pop in FIFO order (checked by
        // the debug_assert in on_ack) and the sent set must fill up.
        let a = Assignment::all_at(NodeId::new(0), 5);
        let (rt, _) = run_line(3, &a, policies::RandomPolicy::new(7));
        let n0 = rt.node(NodeId::new(0));
        assert_eq!(n0.sent_count(), 5);
        assert_eq!(n0.queue_len(), 0);
    }

    #[test]
    fn works_on_disconnected_topology() {
        let g = amac_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let dual = DualGraph::reliable(g);
        let cfg = MacConfig::from_ticks(2, 24);
        let nodes = (0..4).map(|_| Bmmb::new()).collect();
        let mut rt = Runtime::new(dual, cfg, nodes, policies::EagerPolicy::new());
        rt.inject(
            NodeId::new(0),
            MmbMessage {
                id: MessageId(0),
                origin: NodeId::new(0),
            },
        );
        rt.run();
        assert!(rt.node(NodeId::new(1)).has_received(MessageId(0)));
        assert!(!rt.node(NodeId::new(2)).has_received(MessageId(0)));
    }

    #[test]
    fn unreliable_shortcuts_may_speed_up_but_never_break() {
        let g = generators::line(10).unwrap();
        let dual = generators::long_range_augment(g, 3).unwrap();
        let cfg = MacConfig::from_ticks(2, 24);
        let nodes = (0..10).map(|_| Bmmb::new()).collect();
        let mut rt = Runtime::new(
            dual.clone(),
            cfg,
            nodes,
            policies::EagerPolicy::new().with_unreliable(1.0, 5),
        );
        let validator = rt.attach(OnlineValidator::new(dual, cfg));
        rt.inject(
            NodeId::new(0),
            MmbMessage {
                id: MessageId(0),
                origin: NodeId::new(0),
            },
        );
        rt.run();
        assert_eq!(rt.outputs().len(), 10);
        let report = rt.detach(validator).into_report(true);
        assert!(report.is_ok(), "{report}");
    }
}
