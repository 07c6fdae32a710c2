//! The node-side programming model: event-driven automata over the
//! acknowledged local broadcast interface.

use crate::config::{MacConfig, ModelVariant};
use crate::message::MacMessage;
use amac_graph::{DualGraph, NodeId};
use amac_sim::{Duration, Time};
use std::fmt;

/// A deferred effect requested by a node callback, applied by the runtime
/// after the callback returns.
#[derive(Debug)]
pub(crate) enum Command<M, O> {
    Bcast(M),
    Abort,
    SetTimer { delay: Duration, tag: u64 },
    Output(O),
}

/// The interface a node automaton sees during a callback.
///
/// `Ctx` buffers effects ([`bcast`](Ctx::bcast), [`abort`](Ctx::abort),
/// timers, outputs) and exposes the read-only information the model grants
/// a node: its id, its reliable and unreliable neighbor lists (the paper
/// assumes nodes can tell these apart), and — **in the enhanced variant
/// only** — the current time, the timing constants, and the network size.
///
/// Methods gated on the enhanced variant panic in the standard variant:
/// using them there is a programming error that would invalidate the
/// model-conformance claims of the standard-model experiments.
pub struct Ctx<'a, M, O> {
    pub(crate) node: NodeId,
    pub(crate) now: Time,
    pub(crate) config: &'a MacConfig,
    pub(crate) dual: &'a DualGraph,
    pub(crate) in_flight: bool,
    pub(crate) commands: Vec<Command<M, O>>,
}

impl<M, O> Ctx<'_, M, O> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Reliable (`G`) neighbors of this node.
    pub fn reliable_neighbors(&self) -> &[NodeId] {
        self.dual.reliable_neighbors(self.node)
    }

    /// Unreliable-only (`G′ \ G`) neighbors of this node.
    pub fn unreliable_neighbors(&self) -> &[NodeId] {
        self.dual.unreliable_neighbors(self.node)
    }

    /// The model variant this execution runs under.
    pub fn variant(&self) -> ModelVariant {
        self.config.variant()
    }

    /// Returns `true` if a broadcast of this node is currently in flight
    /// (initiated, not yet acknowledged or aborted), taking commands
    /// buffered in this callback into account.
    pub fn has_broadcast_in_flight(&self) -> bool {
        let mut state = self.in_flight;
        for c in &self.commands {
            match c {
                Command::Bcast(_) => state = true,
                Command::Abort => state = false,
                _ => {}
            }
        }
        state
    }

    /// Initiates an acknowledged local broadcast of `msg`.
    ///
    /// # Panics
    ///
    /// Panics if a broadcast is already in flight (user well-formedness:
    /// two `bcast`s must have an intervening `ack` or `abort`).
    pub fn bcast(&mut self, msg: M) {
        assert!(
            !self.has_broadcast_in_flight(),
            "node {} issued bcast with a broadcast already in flight (user well-formedness)",
            self.node
        );
        self.commands.push(Command::Bcast(msg));
    }

    /// Aborts the broadcast in flight (enhanced model only).
    ///
    /// # Panics
    ///
    /// Panics in the standard variant, or if no broadcast is in flight
    /// (user well-formedness: every `abort` follows its `bcast`).
    pub fn abort(&mut self) {
        self.require_enhanced("abort");
        assert!(
            self.has_broadcast_in_flight(),
            "node {} issued abort with no broadcast in flight (user well-formedness)",
            self.node
        );
        self.commands.push(Command::Abort);
    }

    /// Sets a timer firing `delay` from now with the given `tag`, delivered
    /// to [`Automaton::on_timer`] (enhanced model only). A timer cannot be
    /// cancelled: an automaton that no longer wants a firing ignores its
    /// tag. A firing that falls in a crash outage is lost.
    ///
    /// # Panics
    ///
    /// Panics in the standard variant.
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.require_enhanced("set_timer");
        self.commands.push(Command::SetTimer { delay, tag });
    }

    /// Emits a problem-level output event (e.g. an MMB `deliver`), recorded
    /// with the current time by the runtime.
    pub fn output(&mut self, out: O) {
        self.commands.push(Command::Output(out));
    }

    /// Current simulated time (enhanced model only: standard-model nodes
    /// are event driven and have no clocks).
    ///
    /// # Panics
    ///
    /// Panics in the standard variant.
    pub fn now(&self) -> Time {
        self.require_enhanced("now");
        self.now
    }

    /// The progress bound `F_prog` (enhanced model only).
    ///
    /// # Panics
    ///
    /// Panics in the standard variant.
    pub fn f_prog(&self) -> Duration {
        self.require_enhanced("f_prog");
        self.config.f_prog()
    }

    /// The acknowledgment bound `F_ack` (enhanced model only).
    ///
    /// # Panics
    ///
    /// Panics in the standard variant.
    pub fn f_ack(&self) -> Duration {
        self.require_enhanced("f_ack");
        self.config.f_ack()
    }

    /// The network size `n` (enhanced model only; the FMMB subroutines use
    /// it for their `log n` phase counts).
    ///
    /// # Panics
    ///
    /// Panics in the standard variant.
    pub fn node_count(&self) -> usize {
        self.require_enhanced("node_count");
        self.dual.len()
    }

    fn require_enhanced(&self, what: &str) {
        assert!(
            self.config.is_enhanced(),
            "Ctx::{what} requires the enhanced abstract MAC layer (node {})",
            self.node
        );
    }
}

impl<M, O> fmt::Debug for Ctx<'_, M, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("node", &self.node)
            .field("now", &self.now)
            .field("in_flight", &self.in_flight)
            .field("buffered_commands", &self.commands.len())
            .finish()
    }
}

/// An event-driven node automaton running over the abstract MAC layer.
///
/// The runtime invokes the callbacks; all effects go through the provided
/// [`Ctx`]. Callbacks execute instantaneously in simulated time (zero-delay
/// automaton steps, as in the paper's Timed I/O Automata semantics).
///
/// # Examples
///
/// A one-shot flooder: broadcast a token on start, forward it once.
///
/// The runtime keeps each broadcast's payload for the life of its
/// instance and hands it to [`on_receive`](Automaton::on_receive) /
/// [`on_ack`](Automaton::on_ack) **by reference**: a delivery never
/// clones the payload, whatever its size. Automata that need ownership
/// (e.g. to re-broadcast) clone explicitly.
///
/// ```
/// use amac_mac::{Automaton, Ctx, MacMessage, MessageKey};
///
/// #[derive(Clone, Debug)]
/// struct Token(u64);
/// impl MacMessage for Token {
///     fn key(&self) -> MessageKey { MessageKey(self.0) }
/// }
///
/// struct Flooder { seen: bool, is_source: bool }
///
/// impl Automaton for Flooder {
///     type Msg = Token;
///     type Env = ();
///     type Out = u64;
///
///     fn on_start(&mut self, ctx: &mut Ctx<'_, Token, u64>) {
///         if self.is_source {
///             self.seen = true;
///             ctx.bcast(Token(7));
///         }
///     }
///
///     fn on_receive(&mut self, msg: &Token, ctx: &mut Ctx<'_, Token, u64>) {
///         if !self.seen {
///             self.seen = true;
///             ctx.output(msg.0);
///             if !ctx.has_broadcast_in_flight() {
///                 ctx.bcast(msg.clone());
///             }
///         }
///     }
///
///     fn on_ack(&mut self, _msg: &Token, _ctx: &mut Ctx<'_, Token, u64>) {}
/// }
/// ```
pub trait Automaton {
    /// Payload type carried by this automaton's broadcasts.
    type Msg: MacMessage;
    /// Environment input type (e.g. MMB `arrive` events).
    type Env: fmt::Debug;
    /// Problem-level output type (e.g. MMB `deliver` events).
    type Out: fmt::Debug;

    /// Wake-up at the start of the execution (time 0).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Out>) {
        let _ = ctx;
    }

    /// An environment input arrived (scheduled via the runtime's `inject`).
    fn on_env(&mut self, input: Self::Env, ctx: &mut Ctx<'_, Self::Msg, Self::Out>) {
        let _ = (input, ctx);
    }

    /// The MAC layer delivered a message to this node. The payload is
    /// borrowed from the sender's in-flight instance; clone it if
    /// ownership is needed.
    fn on_receive(&mut self, msg: &Self::Msg, ctx: &mut Ctx<'_, Self::Msg, Self::Out>);

    /// The MAC layer acknowledged this node's broadcast of `msg`.
    fn on_ack(&mut self, msg: &Self::Msg, ctx: &mut Ctx<'_, Self::Msg, Self::Out>);

    /// A timer set via [`Ctx::set_timer`] fired (enhanced model only).
    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Self::Msg, Self::Out>) {
        let _ = (tag, ctx);
    }

    /// The node recovered from a crash (crash-recovery fault model, see
    /// [`FaultPlan`](crate::FaultPlan)): its state survived the outage, but
    /// every broadcast, delivery, and timer firing scheduled during the
    /// outage was silently dropped, and any broadcast in flight at the
    /// crash was silenced. Default: do nothing.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Out>) {
        let _ = ctx;
    }
}
