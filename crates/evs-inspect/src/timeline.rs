//! The merged global timeline.
//!
//! Each process's flight recorder is a locally-ordered event log. The
//! merge stitches them into one globally-ordered view keyed by the tick
//! each event was recorded at (the simulator's logical clock, or the
//! live worker's tick). Within a tick, events order by process
//! id and then by the process's own recording order — a total order
//! consistent with the paper's `→` precedes relation as far as the
//! recorded ticks resolve it, and — crucially for reproducibility —
//! **independent of the order the dumps are ingested in**.

use evs_telemetry::{RecordedEvent, Telemetry, TelemetryEvent};
use std::fmt::Write as _;

/// One event on the merged timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Tick the event was recorded at.
    pub at: u64,
    /// Recording process.
    pub pid: u32,
    /// Position in the recording process's own dump (tie-break only).
    pub index: u32,
    /// The event itself.
    pub event: TelemetryEvent,
}

/// The causally-ordered merge of every process's flight recorder.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    /// Entries sorted by `(at, pid, index)`.
    pub entries: Vec<TimelineEntry>,
    /// Number of distinct processes that contributed events.
    pub processes: usize,
}

impl Timeline {
    /// Merges flight-recorder dumps, one `(pid, dump)` pair per process.
    /// The result is identical for any ingestion order of the pairs.
    pub fn merge(dumps: &[(u32, Vec<RecordedEvent>)]) -> Timeline {
        let mut entries: Vec<TimelineEntry> = Vec::new();
        let mut pids: Vec<u32> = Vec::new();
        for (pid, dump) in dumps {
            if !dump.is_empty() && !pids.contains(pid) {
                pids.push(*pid);
            }
            for (index, rec) in dump.iter().enumerate() {
                entries.push(TimelineEntry {
                    at: rec.at,
                    pid: *pid,
                    index: index as u32,
                    event: rec.event,
                });
            }
        }
        entries.sort_by_key(|e| (e.at, e.pid, e.index));
        Timeline {
            entries,
            processes: pids.len(),
        }
    }

    /// Collects the flight recorders of live handles and merges them.
    /// Detached handles contribute nothing.
    pub fn from_handles<'a>(handles: impl IntoIterator<Item = &'a Telemetry>) -> Timeline {
        Timeline::merge(&collect_dumps(handles))
    }

    /// Renders the timeline as text, one `[t=..] P<pid> ..` line per
    /// event. When `max_lines` is `Some(k)` only the last `k` events are
    /// shown, with an elision note — flight recorders are bounded, but a
    /// multi-process merge can still be long.
    pub fn to_text(&self, max_lines: Option<usize>) -> String {
        let mut out = String::new();
        let total = self.entries.len();
        let skip = match max_lines {
            Some(k) if total > k => total - k,
            _ => 0,
        };
        let _ = writeln!(
            out,
            "merged causal timeline: {} event(s) from {} process(es)",
            total, self.processes
        );
        if skip > 0 {
            let _ = writeln!(out, "  ... ({skip} earlier event(s) omitted)");
        }
        for e in &self.entries[skip..] {
            let _ = writeln!(out, "  [t={}] P{} {}", e.at, e.pid, e.event);
        }
        out
    }
}

/// Snapshots `(pid, flight dump)` pairs from enabled telemetry handles.
pub fn collect_dumps<'a>(
    handles: impl IntoIterator<Item = &'a Telemetry>,
) -> Vec<(u32, Vec<RecordedEvent>)> {
    handles
        .into_iter()
        .filter_map(|t| t.pid().map(|pid| (pid, t.flight_dump())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump(pid: u32, events: &[(u64, TelemetryEvent)]) -> (u32, Vec<RecordedEvent>) {
        let t = Telemetry::enabled(pid);
        for (at, ev) in events {
            t.record(*at, *ev);
        }
        (pid, t.flight_dump())
    }

    #[test]
    fn merge_orders_by_tick_then_pid_then_local_order() {
        let a = dump(
            1,
            &[
                (
                    5,
                    TelemetryEvent::TokenRotated {
                        epoch: 1,
                        rotations: 1,
                    },
                ),
                (
                    9,
                    TelemetryEvent::TokenRotated {
                        epoch: 1,
                        rotations: 2,
                    },
                ),
            ],
        );
        let b = dump(
            0,
            &[(
                5,
                TelemetryEvent::TokenRotated {
                    epoch: 1,
                    rotations: 1,
                },
            )],
        );
        let tl = Timeline::merge(&[a, b]);
        assert_eq!(tl.processes, 2);
        let order: Vec<(u64, u32)> = tl.entries.iter().map(|e| (e.at, e.pid)).collect();
        assert_eq!(order, vec![(5, 0), (5, 1), (9, 1)]);
    }

    #[test]
    fn merge_is_ingestion_order_independent() {
        let a = dump(
            0,
            &[(
                3,
                TelemetryEvent::TokenRotated {
                    epoch: 1,
                    rotations: 1,
                },
            )],
        );
        let b = dump(
            1,
            &[(
                2,
                TelemetryEvent::TokenRotated {
                    epoch: 1,
                    rotations: 1,
                },
            )],
        );
        let fwd = Timeline::merge(&[a.clone(), b.clone()]);
        let rev = Timeline::merge(&[b, a]);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn text_render_caps_lines() {
        let d = dump(
            0,
            &(0..10)
                .map(|i| {
                    (
                        i,
                        TelemetryEvent::TokenRotated {
                            epoch: 1,
                            rotations: i,
                        },
                    )
                })
                .collect::<Vec<_>>(),
        );
        let tl = Timeline::merge(&[d]);
        let text = tl.to_text(Some(3));
        assert!(text.contains("7 earlier event(s) omitted"));
        assert_eq!(text.matches("[t=").count(), 3);
        let full = tl.to_text(None);
        assert_eq!(full.matches("[t=").count(), 10);
    }
}
