//! The bounded flight recorder: the last K structured events per process.
//!
//! Protocol runs can span millions of events; the recorder keeps only a
//! bounded suffix, which is exactly what a post-mortem wants — when a
//! specification checker reports a violation, the recorder's dump shows
//! what each process was doing just before the end.
//!
//! Events are retained in three classes with independent capacity (see
//! [`EventClass`]). Token circulation dominates any run by orders of
//! magnitude — a single ring would evict every message origination,
//! configuration change and recovery step long before a post-mortem reads
//! the dump, leaving `evs-inspect` nothing to derive lifecycle spans from.
//! And with a broker front-end, message originations themselves become a
//! burst class: a client-load spike produces thousands of
//! `MessageOriginated` events that would flush the configuration and
//! recovery history out of a shared span ring. Each class therefore lives
//! in its own ring: high-rate traffic evicts only high-rate traffic,
//! message spans evict only message spans, and the rare configuration /
//! recovery spans are never displaced by either. A dump interleaves all
//! three classes back into recording order.

use crate::event::{EventClass, TelemetryEvent};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Default number of events retained per process.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// A timestamped entry of the flight recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Tick count (simulated or real driver time) when recorded.
    pub at: u64,
    /// The event.
    pub event: TelemetryEvent,
}

impl fmt::Display for RecordedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={}] {}", self.at, self.event)
    }
}

/// The three rings, guarded together so a dump sees a consistent cut.
#[derive(Debug)]
struct Rings {
    /// Monotone recording index, shared by all rings; a dump merges on it.
    seq: u64,
    /// High-rate traffic (token circulation, link faults, sessions, ...).
    recent: VecDeque<(u64, RecordedEvent)>,
    /// Message originations — burst-prone under a broker client load,
    /// but protected from token-rate eviction.
    messages: VecDeque<(u64, RecordedEvent)>,
    /// Configuration / recovery / storage spans — protected from both.
    spans: VecDeque<(u64, RecordedEvent)>,
}

impl Rings {
    fn ring_mut(&mut self, class: EventClass) -> &mut VecDeque<(u64, RecordedEvent)> {
        match class {
            EventClass::HighRate => &mut self.recent,
            EventClass::MessageSpan => &mut self.messages,
            EventClass::ConfigSpan => &mut self.spans,
        }
    }
}

/// A bounded ring buffer of [`RecordedEvent`]s, safe to push from the
/// owning process thread while another thread dumps. Each retention class
/// (see module docs) keeps `capacity` events of its own; eviction never
/// crosses classes.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    rings: Mutex<Rings>,
}

impl FlightRecorder {
    /// Creates a recorder keeping the last `capacity` events of each
    /// class (high-rate, message-span and config-span).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "flight recorder needs room for at least one event"
        );
        FlightRecorder {
            capacity,
            rings: Mutex::new(Rings {
                seq: 0,
                recent: VecDeque::with_capacity(capacity),
                messages: VecDeque::new(),
                spans: VecDeque::new(),
            }),
        }
    }

    /// Appends an event, evicting the oldest of its class once that
    /// class's ring is full.
    pub fn push(&self, at: u64, event: TelemetryEvent) {
        let mut rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let seq = rings.seq;
        rings.seq += 1;
        let ring = rings.ring_mut(event.class());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back((seq, RecordedEvent { at, event }));
    }

    /// The retained suffix, oldest first: all classes interleaved back
    /// into recording order.
    pub fn dump(&self) -> Vec<RecordedEvent> {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut merged: Vec<(u64, RecordedEvent)> = rings
            .recent
            .iter()
            .chain(rings.messages.iter())
            .chain(rings.spans.iter())
            .copied()
            .collect();
        merged.sort_by_key(|(seq, _)| *seq);
        merged.into_iter().map(|(_, e)| e).collect()
    }

    /// Total events ever pushed (≥ the dump's length). `seq` counts every
    /// push, so it doubles as the lifetime total — no separate counter.
    pub fn total_recorded(&self) -> u64 {
        self.rings.lock().unwrap_or_else(|e| e.into_inner()).seq
    }

    /// The configured per-class capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> TelemetryEvent {
        TelemetryEvent::TokenRotated {
            epoch: 1,
            rotations: n,
        }
    }

    fn originated(counter: u64) -> TelemetryEvent {
        TelemetryEvent::MessageOriginated {
            sender: 1,
            counter,
            service: "safe",
        }
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let rec = FlightRecorder::new(8);
        for i in 0..5 {
            rec.push(i, ev(i));
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 5);
        assert_eq!(dump[0].at, 0);
        assert_eq!(dump[4].at, 4);
        assert_eq!(rec.total_recorded(), 5);
    }

    #[test]
    fn wraparound_keeps_exactly_the_last_k() {
        let rec = FlightRecorder::new(4);
        for i in 0..10 {
            rec.push(i, ev(i));
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 4);
        // The last K survive, oldest first.
        let at: Vec<u64> = dump.iter().map(|r| r.at).collect();
        assert_eq!(at, vec![6, 7, 8, 9]);
        assert_eq!(rec.total_recorded(), 10);
    }

    #[test]
    fn display_is_readable() {
        let rec = FlightRecorder::new(2);
        rec.push(42, ev(7));
        let line = rec.dump()[0].to_string();
        assert_eq!(line, "[t=42] token rotation #7 (epoch 1)");
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_capacity_rejected() {
        let _ = FlightRecorder::new(0);
    }

    #[test]
    fn span_grade_events_survive_a_token_flood() {
        let rec = FlightRecorder::new(4);
        rec.push(0, originated(1));
        for i in 1..100 {
            rec.push(i, ev(i));
        }
        let dump = rec.dump();
        // The origination outlived 99 rotations: it sits first (recording
        // order), followed by the last 4 high-rate events.
        assert_eq!(dump.len(), 5);
        assert_eq!(dump[0].at, 0);
        assert!(matches!(
            dump[0].event,
            TelemetryEvent::MessageOriginated { .. }
        ));
        assert_eq!(dump[4].at, 99);
    }

    #[test]
    fn config_spans_survive_a_client_load_burst() {
        // A broker flush turns thousands of client ops into originations;
        // those must not evict the run's configuration history.
        let rec = FlightRecorder::new(4);
        rec.push(
            0,
            TelemetryEvent::ConfigInstalled {
                epoch: 7,
                rep: 0,
                members: 3,
            },
        );
        for i in 1..1000 {
            rec.push(i, originated(i));
        }
        let dump = rec.dump();
        // The configuration install outlived 999 originations; the
        // message ring kept only its own last 4.
        assert_eq!(dump.len(), 5);
        assert!(matches!(
            dump[0].event,
            TelemetryEvent::ConfigInstalled { .. }
        ));
        assert_eq!(dump[4].at, 999);
    }

    #[test]
    fn classes_evict_independently() {
        let rec = FlightRecorder::new(2);
        // Fill each class past capacity.
        for i in 0..5 {
            rec.push(i, ev(i)); // high-rate
            rec.push(100 + i, originated(i)); // message span
            rec.push(
                200 + i,
                TelemetryEvent::ObligationSetSize { size: 1 }, // config span
            );
        }
        let dump = rec.dump();
        // Two survivors per class.
        assert_eq!(dump.len(), 6);
        let high = dump
            .iter()
            .filter(|r| matches!(r.event, TelemetryEvent::TokenRotated { .. }))
            .count();
        let msg = dump
            .iter()
            .filter(|r| matches!(r.event, TelemetryEvent::MessageOriginated { .. }))
            .count();
        let cfg = dump
            .iter()
            .filter(|r| matches!(r.event, TelemetryEvent::ObligationSetSize { .. }))
            .count();
        assert_eq!((high, msg, cfg), (2, 2, 2));
    }
}
