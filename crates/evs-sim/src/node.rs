//! The state-machine interface simulated processes implement.

use crate::{ProcessId, SimTime, StableStore};
use evs_telemetry::Telemetry;
use std::fmt;

/// An opaque handle for a pending timer, returned by [`Ctx::set_timer`] and
/// accepted by [`Ctx::cancel_timer`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub(crate) u64);

/// An application-defined timer discriminator.
///
/// Protocol layers typically define constants (`const TOKEN_LOSS: TimerKind =
/// TimerKind(1);`) so a node can tell its timers apart in
/// [`Node::on_timer`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimerKind(pub u32);

/// A deterministic, event-driven process: the unit the simulator schedules.
///
/// A `Node` never blocks and never reads wall-clock time; it reacts to
/// messages and timers through a [`Ctx`] that exposes simulated time, the
/// broadcast medium, timers and the trace. The same state machine could
/// be driven by a real UDP socket loop — nothing in the trait is
/// simulator-specific.
///
/// # Crash and recovery
///
/// When the simulator crashes a process it calls [`Node::on_crash`], drops
/// all of the process's pending timers and stops delivering messages to it.
/// The implementation must discard its volatile state (the paper's fail-stop
/// assumption) and keep only what it already made durable — the EVS engine
/// keeps a write-ahead log behind its `Storage`. On recovery the simulator
/// calls [`Node::on_recover`], and the process resumes under the *same*
/// [`ProcessId`] — the distinguishing feature of the extended virtual
/// synchrony failure model.
pub trait Node {
    /// The wire message type exchanged between nodes.
    type Msg: Clone + fmt::Debug;
    /// The trace event type this node emits via [`Ctx::emit`].
    type Ev: fmt::Debug;

    /// Called once when the simulation starts (or when this node is created).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Ev>);

    /// Called for every message received over the medium.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Ev>,
        from: ProcessId,
        msg: Self::Msg,
    );

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Ev>, kind: TimerKind);

    /// Called when the simulator crashes this process.
    ///
    /// Implementations must drop volatile state here and keep their durable
    /// log. The context may be used to emit a final trace event (the
    /// paper's `fail_p(c)`), and the node may append to its log — writes
    /// made here model state that was already persisted at the instant of
    /// failure. Sends and timers requested from `on_crash` are discarded: a
    /// crashing process transmits nothing.
    fn on_crash(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Ev>);

    /// Called when the simulator recovers this process.
    ///
    /// The node should re-initialize from its durable log and re-arm its
    /// timers.
    fn on_recover(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Ev>);
}

/// What a node asked its driver to do during a callback.
///
/// [`Sim`](crate::Sim) interprets these internally; a transport driver
/// obtains them from [`Ctx::detached`] + [`Ctx::take_effects`] and maps
/// them onto its own medium (the workspace's one live driver is
/// `evs-runtime`'s `Worker`).
#[derive(Debug)]
pub enum Effect<M> {
    /// Send `M` to every process in the sender's component.
    Broadcast(M),
    /// Send `M` to one process.
    Unicast(ProcessId, M),
    /// Arm a one-shot timer: `(handle, delay in ticks, discriminator)`.
    SetTimer(TimerId, u64, TimerKind),
    /// Cancel a previously armed timer.
    CancelTimer(TimerId),
}

/// The capability handle a [`Node`] uses to interact with the world.
///
/// A `Ctx` is only valid for the duration of one callback; effects requested
/// through it (sends, timers) are applied by the simulator after the callback
/// returns, in request order.
pub struct Ctx<'a, M, E> {
    pub(crate) pid: ProcessId,
    pub(crate) now: SimTime,
    pub(crate) effects: Vec<Effect<M>>,
    pub(crate) trace: &'a mut Vec<(SimTime, E)>,
    pub(crate) next_timer_id: &'a mut u64,
    pub(crate) telemetry: Telemetry,
}

impl<'a, M, E> Ctx<'a, M, E> {
    /// Builds a context for a custom transport driver (UDP, TCP, …): the
    /// driver owns the process's trace and timer counter, and after running
    /// a node callback collects the requested [`Effect`]s with
    /// [`Ctx::take_effects`] to map them onto its medium.
    ///
    /// `_stable` is ignored: the node keeps its own durable log. The
    /// parameter stays so the benchmark's reactor, which still passes a
    /// [`StableStore`], builds unchanged.
    pub fn detached(
        pid: ProcessId,
        now: SimTime,
        _stable: &'a mut StableStore,
        trace: &'a mut Vec<(SimTime, E)>,
        next_timer_id: &'a mut u64,
    ) -> Self {
        Ctx {
            pid,
            now,
            effects: Vec::new(),
            trace,
            next_timer_id,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Like [`Ctx::detached`], but with an attached [`Telemetry`] handle so a
    /// custom transport driver participates in metrics and flight recording.
    pub fn detached_with_telemetry(
        pid: ProcessId,
        now: SimTime,
        trace: &'a mut Vec<(SimTime, E)>,
        next_timer_id: &'a mut u64,
        telemetry: Telemetry,
    ) -> Self {
        Ctx {
            pid,
            now,
            effects: Vec::new(),
            trace,
            next_timer_id,
            telemetry,
        }
    }

    /// Drains the effects requested so far (for custom transport drivers).
    pub fn take_effects(&mut self) -> Vec<Effect<M>> {
        std::mem::take(&mut self.effects)
    }

    /// The identity of the process running this callback.
    pub fn id(&self) -> ProcessId {
        self.pid
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Broadcasts `msg` to every process in the sender's current network
    /// component (including the sender itself, mirroring multicast loopback
    /// on a LAN).
    ///
    /// Delivery is subject to the medium's latency and loss model, and to the
    /// topology *at delivery time*: a packet in flight across a partition
    /// that forms before it lands is lost, which is exactly the paper's
    /// "partition at an arbitrary instant" fault.
    pub fn broadcast(&mut self, msg: M) {
        self.effects.push(Effect::Broadcast(msg));
    }

    /// Sends `msg` to `to` only. Same delivery model as [`Ctx::broadcast`].
    pub fn unicast(&mut self, to: ProcessId, msg: M) {
        self.effects.push(Effect::Unicast(to, msg));
    }

    /// Arms a one-shot timer that fires `delay` ticks from now, invoking
    /// [`Node::on_timer`] with `kind`.
    ///
    /// Timers are volatile: a crash cancels all of the process's pending
    /// timers.
    pub fn set_timer(&mut self, delay: u64, kind: TimerKind) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.effects.push(Effect::SetTimer(id, delay, kind));
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer(id));
    }

    /// Appends an event to this process's trace, timestamped with the
    /// current simulated time.
    ///
    /// Traces survive crashes (they record what actually happened, which the
    /// specification checker needs even for failed processes).
    pub fn emit(&mut self, event: E) {
        self.trace.push((self.now, event));
    }

    /// This process's telemetry handle (detached unless the driver enabled
    /// telemetry). Protocol layers clone it at startup and record through
    /// the clone; a detached handle makes every operation a no-op.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_queues_effects_in_order() {
        let mut trace: Vec<(SimTime, &str)> = Vec::new();
        let mut next = 0u64;
        let mut ctx: Ctx<'_, u8, &str> = Ctx {
            pid: ProcessId::new(0),
            now: SimTime::from_ticks(9),
            effects: Vec::new(),
            trace: &mut trace,
            next_timer_id: &mut next,
            telemetry: Telemetry::disabled(),
        };
        ctx.broadcast(1);
        let t = ctx.set_timer(10, TimerKind(2));
        ctx.cancel_timer(t);
        ctx.unicast(ProcessId::new(1), 3);
        ctx.emit("hello");
        assert_eq!(ctx.effects.len(), 4);
        assert_eq!(ctx.now().ticks(), 9);
        assert_eq!(trace, vec![(SimTime::from_ticks(9), "hello")]);
        assert_eq!(next, 1);
    }
}
