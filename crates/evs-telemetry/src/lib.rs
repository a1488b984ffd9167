//! Metrics, structured tracing and flight recording for the EVS stack.
//!
//! This crate is the observability substrate of the workspace. It is
//! deliberately dependency-free (std only) and sits *below* every
//! protocol crate, so the ring (`evs-order`), the membership algorithm
//! (`evs-membership`) and the engine (`evs-core`) can all emit the same
//! [`TelemetryEvent`] vocabulary through one [`Telemetry`] handle that
//! the driver (`evs-sim`) threads through its `Ctx`. The paper's own §2
//! events (send, deliver, deliver_conf, fail) are not part of it: their
//! one record is the engine's `EvsEvent` trace, which the engine counts
//! into the `messages_sent`, `messages_delivered` and `configs_delivered`
//! counters as it writes it.
//!
//! Three pieces:
//!
//! * [`Registry`] — per-process counters, gauges and log-bucketed
//!   histograms, all a few relaxed atomic ops on the hot path.
//! * [`FlightRecorder`] — a bounded ring buffer of the last K
//!   [`TelemetryEvent`]s, dumped when a specification checker reports a
//!   violation.
//! * [`Exposition`] — the one snapshot type and its one text codec: what
//!   [`Telemetry::snapshot`] returns, what an `OBS?` scrape carries, and
//!   what the bench baseline stores. A run's snapshot is one exposition
//!   per process, summed by [`counter_totals`] and [`total`].
//!
//! The [`names`] module holds the canonical `&'static str` constants for
//! every counter/gauge/histogram; instrumented layers and analysis code
//! (`evs-inspect`, the bench regression gate) share them, so a typo is a
//! compile error rather than a silently forked metric.
//!
//! The [`Telemetry`] handle itself is either *enabled* (an
//! `Arc`-shared registry + recorder) or *detached* (`None` inside).
//! Every operation on a detached handle is an `Option` check and an
//! immediate return, so instrumented code costs nothing measurable when
//! telemetry is off — the ordering benches run detached.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod expo;
mod metrics;
pub mod names;
mod phase;
mod recorder;

pub use event::{EventClass, TelemetryEvent};
pub use expo::{
    counter_totals, total, Exposition, HistStat, ParseError, ParseErrorKind, PhaseStat, EXPO_HEADER,
};
pub use metrics::{
    log_bucket_bound, log_bucket_index, Counter, Gauge, LogHistogram, LogHistogramSnapshot,
    Registry, LOG_BUCKET_COUNT,
};
pub use phase::{Phase, PhaseClock};
pub use recorder::{FlightRecorder, RecordedEvent, DEFAULT_FLIGHT_CAPACITY};

use std::sync::{Arc, OnceLock};

#[derive(Debug)]
struct Inner {
    pid: u32,
    registry: Registry,
    recorder: FlightRecorder,
    /// Per-kind counter handles, filled on first record of each kind.
    /// [`Telemetry::record`] sits on the protocol's hot path, and the
    /// registry's name resolution takes a lock per lookup; the cache
    /// makes the steady-state counter bump one atomic `fetch_add`.
    /// Lazy so that only kinds actually recorded appear in reports,
    /// exactly as when every record resolved its counter by name.
    event_counters: [OnceLock<Counter>; TelemetryEvent::KINDS],
}

impl Inner {
    /// The cached counter for `event`'s kind, resolving it on first use.
    fn event_counter(&self, event: &TelemetryEvent) -> &Counter {
        let kind = event.kind();
        self.event_counters[kind]
            .get_or_init(|| self.registry.counter(TelemetryEvent::KIND_NAMES[kind]))
    }
}

/// A per-process telemetry handle, cheap to clone and thread everywhere.
///
/// A handle is either *enabled* — all clones share one [`Registry`] and
/// one [`FlightRecorder`] — or *detached*, in which case every method is
/// a no-op. Protocol code holds a `Telemetry` unconditionally and never
/// branches on enablement itself.
#[derive(Clone, Debug, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl Telemetry {
    /// A detached handle: records and lookups are no-ops.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// An enabled handle for process `pid` with the default flight
    /// recorder capacity ([`DEFAULT_FLIGHT_CAPACITY`]).
    pub fn enabled(pid: u32) -> Self {
        Telemetry::with_capacity(pid, DEFAULT_FLIGHT_CAPACITY)
    }

    /// An enabled handle whose flight recorder keeps the last
    /// `flight_capacity` events.
    pub fn with_capacity(pid: u32, flight_capacity: usize) -> Self {
        Telemetry(Some(Arc::new(Inner {
            pid,
            registry: Registry::new(),
            recorder: FlightRecorder::new(flight_capacity),
            event_counters: [const { OnceLock::new() }; TelemetryEvent::KINDS],
        })))
    }

    /// True when this handle is attached to a registry.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The owning process id, or `None` when detached.
    pub fn pid(&self) -> Option<u32> {
        self.0.as_ref().map(|i| i.pid)
    }

    /// Records a structured event: pushes it into the flight recorder
    /// and bumps the counter named [`TelemetryEvent::name`].
    ///
    /// `at` is the driver's tick count (simulated or real) at the time
    /// of the event.
    pub fn record(&self, at: u64, event: TelemetryEvent) {
        if let Some(inner) = &self.0 {
            inner.recorder.push(at, event);
            inner.event_counter(&event).inc();
        }
    }

    /// Resolves the counter `name` (detached handle → detached counter).
    ///
    /// Hot paths should resolve once and keep the returned handle: an
    /// update is then a single `fetch_add` with no name lookup.
    pub fn counter(&self, name: &'static str) -> Counter {
        match &self.0 {
            Some(inner) => inner.registry.counter(name),
            None => Counter::detached(),
        }
    }

    /// Resolves the gauge `name` (detached handle → detached gauge).
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match &self.0 {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::detached(),
        }
    }

    /// Resolves the log-bucketed histogram `name` (detached handle →
    /// detached histogram). All log histograms share one bucket layout.
    pub fn log_histogram(&self, name: &'static str) -> LogHistogram {
        match &self.0 {
            Some(inner) => inner.registry.log_histogram(name),
            None => LogHistogram::detached(),
        }
    }

    /// A point-in-time copy of every instrument as an [`Exposition`]
    /// (sequence 0, no info keys), or `None` when detached.
    pub fn snapshot(&self) -> Option<Exposition> {
        self.0
            .as_ref()
            .map(|inner| Exposition::from_registry(inner.pid, &inner.registry))
    }

    /// The flight recorder's retained suffix, oldest first (empty when
    /// detached).
    pub fn flight_dump(&self) -> Vec<RecordedEvent> {
        self.0.as_ref().map_or_else(Vec::new, |i| i.recorder.dump())
    }

    /// Total events ever recorded (0 when detached).
    pub fn events_recorded(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.recorder.total_recorded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handle_is_a_noop() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.pid(), None);
        t.record(
            1,
            TelemetryEvent::MessageOriginated {
                sender: 0,
                counter: 1,
                service: "agreed",
            },
        );
        t.counter("x").inc();
        assert_eq!(t.counter("x").get(), 0);
        assert!(t.snapshot().is_none());
        assert!(t.flight_dump().is_empty());
        assert_eq!(t.events_recorded(), 0);
    }

    #[test]
    fn record_feeds_both_recorder_and_counters() {
        let t = Telemetry::enabled(3);
        for i in 0..4 {
            t.record(
                i,
                TelemetryEvent::TokenRotated {
                    epoch: 1,
                    rotations: i,
                },
            );
        }
        assert_eq!(t.pid(), Some(3));
        assert_eq!(t.counter("token_rotations").get(), 4);
        let dump = t.flight_dump();
        assert_eq!(dump.len(), 4);
        assert_eq!(dump[0].at, 0);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.pid, 3);
        assert_eq!(snap.counters["token_rotations"], 4);
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::enabled(0);
        let c = t.clone();
        t.counter("hits").inc();
        c.counter("hits").add(2);
        assert_eq!(t.counter("hits").get(), 3);
    }

    #[test]
    fn flight_capacity_is_respected() {
        let t = Telemetry::with_capacity(0, 2);
        for i in 0..5 {
            t.record(i, TelemetryEvent::RecoveryStepEntered { step: 2, epoch: 1 });
        }
        assert_eq!(t.flight_dump().len(), 2);
        assert_eq!(t.events_recorded(), 5);
        // The counter still saw every event.
        assert_eq!(t.counter("recovery_steps_entered").get(), 5);
    }
}
