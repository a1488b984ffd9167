//! Wall-clock phase attribution for the live driver loops.
//!
//! A [`PhaseClock`] chains one `Instant::now()` per loop stage: every
//! [`mark`](PhaseClock::mark) attributes the time since the previous
//! mark to the named [`Phase`], so the phase nanosecond counters
//! partition 100% of loop wall-clock between them — the `OBS?`
//! exposition divides per-phase time by the loop total to report
//! fractions, and they sum to ~1.0 by construction.
//!
//! The clock is the cheapest instrument that still answers "where does
//! the live driver's time go": one `Instant::now()`, one counter add and
//! one log-histogram observe per mark (all relaxed atomics). On a
//! detached telemetry handle every mark is a single branch.
//! [`PhaseClock::calibrate`] measures the real per-mark cost so
//! `tests/obs.rs` can assert the <2% overhead budget from measurements
//! rather than assumptions.

use crate::metrics::{Counter, Gauge, LogHistogram};
use crate::names;
use crate::Telemetry;
use std::time::Instant;

/// The stages of a live driver loop, in the order a healthy iteration
/// visits them. The mapping from loop code to phase is documented in
/// DESIGN.md ("Phase timers").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Blocked in a socket/channel receive that produced a packet.
    Recv,
    /// Decoding wire frames into protocol messages.
    Decode,
    /// Engine dispatch of non-token messages (data, membership,
    /// recovery).
    Dispatch,
    /// Engine dispatch of token visits (ordering work rides the token).
    Token,
    /// Appending to and syncing the write-ahead journal.
    Wal,
    /// Encoding and writing outbound datagrams/effects.
    Send,
    /// Firing due protocol timers.
    Timers,
    /// Control-plane work: commands, `OBS?` scrapes, inspect closures.
    Control,
    /// Parked on an event wait with a computed protocol deadline: park
    /// time is bounded by the earliest deadline and ends the instant work
    /// arrives.
    Park,
    /// Submitting batched socket work through a `SocketDriver`
    /// (`sendmmsg`/`recvmmsg` syscalls, or their portable fallback).
    Submit,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 10;

    /// Every phase, indexable by `phase as usize`.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Recv,
        Phase::Decode,
        Phase::Dispatch,
        Phase::Token,
        Phase::Wal,
        Phase::Send,
        Phase::Timers,
        Phase::Control,
        Phase::Park,
        Phase::Submit,
    ];

    /// The phase's short name as it appears in expositions.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Recv => "recv",
            Phase::Decode => "decode",
            Phase::Dispatch => "dispatch",
            Phase::Token => "token",
            Phase::Wal => "wal",
            Phase::Send => "send",
            Phase::Timers => "timers",
            Phase::Control => "control",
            Phase::Park => "park",
            Phase::Submit => "submit",
        }
    }

    /// The canonical name of the phase's total-nanoseconds counter.
    pub fn counter_name(self) -> &'static str {
        match self {
            Phase::Recv => names::PHASE_NS_RECV,
            Phase::Decode => names::PHASE_NS_DECODE,
            Phase::Dispatch => names::PHASE_NS_DISPATCH,
            Phase::Token => names::PHASE_NS_TOKEN,
            Phase::Wal => names::PHASE_NS_WAL,
            Phase::Send => names::PHASE_NS_SEND,
            Phase::Timers => names::PHASE_NS_TIMERS,
            Phase::Control => names::PHASE_NS_CONTROL,
            Phase::Park => names::PHASE_NS_PARK,
            Phase::Submit => names::PHASE_NS_SUBMIT,
        }
    }

    /// The canonical name of the phase's duration log histogram.
    pub fn histogram_name(self) -> &'static str {
        match self {
            Phase::Recv => names::PHASE_DUR_RECV,
            Phase::Decode => names::PHASE_DUR_DECODE,
            Phase::Dispatch => names::PHASE_DUR_DISPATCH,
            Phase::Token => names::PHASE_DUR_TOKEN,
            Phase::Wal => names::PHASE_DUR_WAL,
            Phase::Send => names::PHASE_DUR_SEND,
            Phase::Timers => names::PHASE_DUR_TIMERS,
            Phase::Control => names::PHASE_DUR_CONTROL,
            Phase::Park => names::PHASE_DUR_PARK,
            Phase::Submit => names::PHASE_DUR_SUBMIT,
        }
    }

    /// The phase whose exposition name is `name`, if any.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }
}

/// A chained wall-clock phase attributor (see module docs).
#[derive(Debug)]
pub struct PhaseClock {
    enabled: bool,
    started: Instant,
    last: Instant,
    ns: [Counter; Phase::COUNT],
    dur: [LogHistogram; Phase::COUNT],
    marks: Counter,
    loop_ns: Gauge,
}

impl PhaseClock {
    /// A clock recording into `telemetry`'s registry. On a detached
    /// handle the clock is disabled and every mark is one branch.
    pub fn new(telemetry: &Telemetry) -> PhaseClock {
        let now = Instant::now();
        PhaseClock {
            enabled: telemetry.is_enabled(),
            started: now,
            last: now,
            ns: Phase::ALL.map(|p| telemetry.counter(p.counter_name())),
            dur: Phase::ALL.map(|p| telemetry.log_histogram(p.histogram_name())),
            marks: telemetry.counter(names::PHASE_MARKS),
            loop_ns: telemetry.gauge(names::PHASE_LOOP_NS),
        }
    }

    /// True when marks record (the telemetry handle was enabled).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attributes the wall-clock time since the previous mark to
    /// `phase` and restarts the stretch.
    #[inline]
    pub fn mark(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let d = now.duration_since(self.last).as_nanos() as u64;
        let i = phase as usize;
        self.ns[i].add(d);
        self.dur[i].observe(d);
        self.marks.inc();
        self.loop_ns
            .set(now.duration_since(self.started).as_nanos() as i64);
        self.last = now;
    }

    /// Measures the wall-clock cost of one enabled `mark`, in
    /// nanoseconds, by timing `iters` marks on a scratch registry. The
    /// overhead test multiplies this by a live run's mark count to bound
    /// the phase-timer self-overhead.
    pub fn calibrate(iters: u64) -> f64 {
        let scratch = Telemetry::enabled(u32::MAX);
        let mut clock = PhaseClock::new(&scratch);
        let iters = iters.max(1);
        let begin = Instant::now();
        for i in 0..iters {
            clock.mark(Phase::ALL[(i % Phase::COUNT as u64) as usize]);
        }
        begin.elapsed().as_nanos() as f64 / iters as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_partition_loop_time() {
        let t = Telemetry::enabled(0);
        let mut clock = PhaseClock::new(&t);
        assert!(clock.is_enabled());
        for _ in 0..50 {
            std::thread::sleep(std::time::Duration::from_micros(50));
            clock.mark(Phase::Park);
            clock.mark(Phase::Dispatch);
        }
        let snap = t.snapshot().unwrap();
        let total: u64 = Phase::ALL
            .iter()
            .map(|p| snap.counters.get(p.counter_name()).copied().unwrap_or(0))
            .sum();
        let loop_ns = snap.gauges[names::PHASE_LOOP_NS] as u64;
        // The chained marks attribute everything up to the last mark;
        // the loop gauge was set at that same mark, so they agree.
        assert_eq!(total, loop_ns);
        assert!(snap.counters[names::PHASE_NS_PARK] > snap.counters[names::PHASE_NS_DISPATCH]);
        assert_eq!(snap.counters[names::PHASE_MARKS], 100);
        assert_eq!(
            snap.log_histograms[names::PHASE_DUR_PARK].count
                + snap.log_histograms[names::PHASE_DUR_DISPATCH].count,
            100
        );
    }

    #[test]
    fn detached_clock_records_nothing() {
        let t = Telemetry::disabled();
        let mut clock = PhaseClock::new(&t);
        assert!(!clock.is_enabled());
        clock.mark(Phase::Recv);
        clock.mark(Phase::Send);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn calibrate_reports_sane_cost() {
        let ns = PhaseClock::calibrate(10_000);
        // An enabled mark is an Instant::now() + a few relaxed atomics:
        // single-digit microseconds even on a loaded CI box.
        assert!(ns > 0.0);
        assert!(ns < 10_000.0, "mark cost {ns} ns is implausibly high");
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
            assert!(p.counter_name().starts_with("phase_ns_"));
            assert!(p.histogram_name().starts_with("phase_dur_"));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }
}
