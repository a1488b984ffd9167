//! # evs-sim — deterministic network substrate for the EVS reproduction
//!
//! This crate is the bottom layer of the reproduction of *Extended Virtual
//! Synchrony* (Moser, Amir, Melliar-Smith, Agarwal; ICDCS 1994). It provides
//! the environment the paper assumes but does not define: a broadcast
//! domain whose network "may partition into some finite number of
//! components", whose components "may subsequently merge", and whose
//! processes "may fail and may subsequently recover … with stable storage
//! intact" (§2 of the paper).
//!
//! Everything is simulated as a seeded discrete-event system so that every
//! execution — including executions with message loss, partitions forming
//! while packets are in flight, and crash/recovery cascades — is exactly
//! reproducible. The protocol stacks built on top (`evs-order`,
//! `evs-membership`, `evs-core`) are written as [`Node`] state machines and
//! never observe anything but messages, timers and simulated time, so the
//! same state machines run live over real sockets (`evs-runtime`).
//!
//! ## Quick tour
//!
//! * [`Sim`] — the event loop: owns processes, clock, medium and fault
//!   schedule.
//! * [`Node`] / [`Ctx`] — the state-machine interface and its capability
//!   handle.
//! * [`Topology`] — the component structure of the (possibly partitioned)
//!   network.
//! * [`StableStore`] — an empty placeholder: a process's stable storage is
//!   its own write-ahead log (the EVS engine's `Storage`), not the
//!   simulator's.
//! * [`Action`] — the fault-injection vocabulary (partition, merge, crash,
//!   recover, loss-rate changes, application invocations).
//!
//! ## Example
//!
//! ```
//! use evs_sim::{Action, Ctx, NetConfig, Node, ProcessId, Sim, SimTime, TimerKind};
//!
//! struct Counter { seen: usize }
//! impl Node for Counter {
//!     type Msg = u32;
//!     type Ev = u32;
//!     fn on_start(&mut self, _ctx: &mut Ctx<'_, u32, u32>) {}
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u32, u32>, _from: ProcessId, m: u32) {
//!         self.seen += 1;
//!         ctx.emit(m);
//!     }
//!     fn on_timer(&mut self, _: &mut Ctx<'_, u32, u32>, _: TimerKind) {}
//!     fn on_crash(&mut self, _: &mut Ctx<'_, u32, u32>) { self.seen = 0; }
//!     fn on_recover(&mut self, _: &mut Ctx<'_, u32, u32>) {}
//! }
//!
//! let mut sim = Sim::new(3, NetConfig::default(), |_| Counter { seen: 0 });
//! let p0 = ProcessId::new(0);
//! sim.at_invoke(SimTime::from_ticks(5), p0, |_n, ctx| ctx.broadcast(99));
//! sim.at(SimTime::from_ticks(6), Action::Partition(vec![vec![p0]]));
//! sim.run_until(SimTime::from_ticks(100));
//! assert_eq!(sim.node(p0).seen, 1); // loopback
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ids;
mod node;
mod sim;
mod stable;
mod time;
mod topology;

pub use topology::Topology;

pub use ids::{all_ids, ProcessId};
pub use node::{Ctx, Effect, Node, TimerId, TimerKind};
pub use sim::{Action, NetConfig, Sim};
pub use stable::StableStore;
pub use time::SimTime;

// Re-exported so drivers and applications can configure and harvest
// telemetry without naming the bottom crate directly.
pub use evs_telemetry::{RecordedEvent, Telemetry, TelemetryEvent, DEFAULT_FLIGHT_CAPACITY};
