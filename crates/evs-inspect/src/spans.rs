//! Lifecycle spans: the trace's §2 events joined with the merged
//! timeline.
//!
//! Two kinds, matching the two lifecycles of the paper:
//!
//! * [`MessageSpan`] — one per message identity (`sender`, `counter`):
//!   originate (timeline) → `send_p(m)`, the token stamp → first delivery
//!   → last delivery (trace), measured in ticks and in token rotations
//!   observed by the sender (timeline).
//! * [`ConfigSpan`] — one per configuration change (`epoch`, `rep`):
//!   membership commit → recovery Steps 2–6 of §3 (entered / reached /
//!   exited per process, with the paper's step names) → install
//!   (timeline) → transitional and regular `deliver_conf_p(c)` (trace).
//!
//! The trace is whole and the flight recorders are bounded, so a span may
//! lack its timeline half (an origination evicted from its ring) but
//! never its trace half.

use crate::timeline::Timeline;
use evs_core::{EvsEvent, Trace};
use evs_telemetry::TelemetryEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The paper's §3 name for a recovery step (0 is this implementation's
/// marker for a recovery abandoned by a crash).
pub fn step_name(step: u8) -> &'static str {
    match step {
        0 => "abandoned by crash",
        1 => "normal operation (fresh ring)",
        2 => "freeze old configuration",
        3 => "broadcast exchange report",
        4 => "determine transitional configuration",
        5 => "rebroadcast and acknowledge",
        6 => "deliver and install",
        _ => "unknown step",
    }
}

/// Cross-process summary of one recovery step of one configuration
/// change: when it was first and last reached, and by how many processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepSpan {
    /// The §3 step number (see [`step_name`]).
    pub step: u8,
    /// Tick the first process reached the step.
    pub first_at: u64,
    /// Tick the last process reached the step.
    pub last_at: u64,
    /// Distinct processes that reached the step.
    pub processes: u32,
}

/// The lifecycle of one message identity across the whole run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageSpan {
    /// Originating process.
    pub sender: u32,
    /// Sender-local counter (with `sender`, the paper's unique id).
    pub counter: u64,
    /// Service level ("causal", "agreed", "safe"); empty if only
    /// deliveries were observed and no origination or send.
    pub service: String,
    /// Epoch of the configuration the message was stamped in.
    pub epoch: Option<u64>,
    /// Representative of that configuration.
    pub rep: Option<u32>,
    /// The message's `ord` in that configuration's total order, from its
    /// first delivery (`send_p(m)` carries none).
    pub seq: Option<u64>,
    /// Tick the application handed the message to the engine.
    pub originated_at: Option<u64>,
    /// Tick the token stamped it into the total order (`send_p(m)`).
    pub stamped_at: Option<u64>,
    /// Tick of the first delivery on any process.
    pub first_delivered_at: Option<u64>,
    /// Tick of the last delivery on any process.
    pub completed_at: Option<u64>,
    /// Total deliveries across processes.
    pub deliveries: u32,
    /// Deliveries that happened in a transitional configuration.
    pub transitional_deliveries: u32,
    /// Token rotations the sender observed in the stamping configuration
    /// between the stamp and the last delivery.
    pub rotations: Option<u64>,
}

/// The lifecycle of one configuration change across the whole run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigSpan {
    /// Epoch of the new regular configuration.
    pub epoch: u64,
    /// Representative of the new regular configuration.
    pub rep: u32,
    /// Membership size (from the richest event observed).
    pub members: u32,
    /// Tick the proposal was first committed (membership event).
    pub committed_at: Option<u64>,
    /// Tick the configuration was first installed.
    pub installed_at: Option<u64>,
    /// First `deliver_conf` of the regular configuration.
    pub delivered_regular_at: Option<u64>,
    /// Transitional configurations delivered on the way into this epoch:
    /// `(rep, first tick)` per transitional identifier.
    pub transitional: Vec<(u32, u64)>,
    /// First entry into recovery for this proposal epoch.
    pub recovery_entered_at: Option<u64>,
    /// Last exit from recovery for this proposal epoch.
    pub recovery_exited_at: Option<u64>,
    /// True if any process abandoned this recovery by crashing.
    pub aborted: bool,
    /// Per-step cross-process breakdown, ascending by step.
    pub steps: Vec<StepSpan>,
}

fn min_opt(slot: &mut Option<u64>, at: u64) {
    *slot = Some(slot.map_or(at, |v| v.min(at)));
}

fn max_opt(slot: &mut Option<u64>, at: u64) {
    *slot = Some(slot.map_or(at, |v| v.max(at)));
}

impl MessageSpan {
    fn new(sender: u32, counter: u64) -> MessageSpan {
        MessageSpan {
            sender,
            counter,
            service: String::new(),
            epoch: None,
            rep: None,
            seq: None,
            originated_at: None,
            stamped_at: None,
            first_delivered_at: None,
            completed_at: None,
            deliveries: 0,
            transitional_deliveries: 0,
            rotations: None,
        }
    }

    /// Derives every message span of the trace and the timeline, ordered
    /// by stamping configuration and `ord` (unstamped messages last, by
    /// identity).
    pub fn derive(tl: &Timeline, trace: &Trace) -> Vec<MessageSpan> {
        let mut spans: BTreeMap<(u32, u64), MessageSpan> = BTreeMap::new();
        // Rotation ticks observed per (pid, epoch), for the rotation
        // distance of each span.
        let mut rotations: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
        for e in &tl.entries {
            match e.event {
                TelemetryEvent::MessageOriginated {
                    sender,
                    counter,
                    service,
                } => {
                    let s = spans
                        .entry((sender, counter))
                        .or_insert_with(|| MessageSpan::new(sender, counter));
                    min_opt(&mut s.originated_at, e.at);
                    s.service = service.to_string();
                }
                TelemetryEvent::TokenRotated { epoch, .. } => {
                    rotations.entry((e.pid, epoch)).or_default().push(e.at);
                }
                _ => {}
            }
        }
        for (t, event) in trace.events.iter().flatten() {
            let at = t.ticks();
            let (EvsEvent::Send { id, service, .. } | EvsEvent::Deliver { id, service, .. }) =
                event
            else {
                continue;
            };
            let (sender, counter) = (id.sender.index(), id.counter);
            let s = spans
                .entry((sender, counter))
                .or_insert_with(|| MessageSpan::new(sender, counter));
            if s.service.is_empty() {
                s.service = service.to_string();
            }
            match event {
                EvsEvent::Send { config, .. } => {
                    min_opt(&mut s.stamped_at, at);
                    s.epoch = Some(config.epoch);
                    s.rep = Some(config.rep.index());
                }
                EvsEvent::Deliver { config, seq, .. } => {
                    min_opt(&mut s.first_delivered_at, at);
                    max_opt(&mut s.completed_at, at);
                    s.deliveries += 1;
                    if config.transitional {
                        s.transitional_deliveries += 1;
                    }
                    s.seq.get_or_insert(*seq);
                }
                _ => {}
            }
        }
        let mut out: Vec<MessageSpan> = spans.into_values().collect();
        for s in &mut out {
            if let (Some(epoch), Some(from), Some(to)) = (s.epoch, s.stamped_at, s.completed_at) {
                s.rotations = Some(rotations.get(&(s.sender, epoch)).map_or(0, |ticks| {
                    ticks.iter().filter(|t| **t > from && **t <= to).count() as u64
                }));
            }
        }
        out.sort_by_key(|s| (s.epoch.is_none(), s.epoch, s.seq, s.sender, s.counter));
        out
    }

    /// One human-readable line for the span report.
    pub fn to_text(&self) -> String {
        let mut line = format!("P{}#{}", self.sender, self.counter);
        if !self.service.is_empty() {
            let _ = write!(line, " {}", self.service);
        }
        match (self.epoch, self.rep, self.seq) {
            (Some(e), Some(r), Some(q)) => {
                let _ = write!(line, " ord {q} in R{e}@P{r}");
            }
            (Some(e), Some(r), None) => {
                let _ = write!(line, " in R{e}@P{r}");
            }
            _ => line.push_str(" (never stamped)"),
        }
        line.push(':');
        if let Some(t) = self.originated_at {
            let _ = write!(line, " originated t={t}");
        }
        if let Some(t) = self.stamped_at {
            let _ = write!(line, " stamped t={t}");
            if let Some(o) = self.originated_at {
                let _ = write!(line, " (+{})", t.saturating_sub(o));
            }
        }
        match (self.first_delivered_at, self.completed_at) {
            (Some(first), Some(done)) => {
                let _ = write!(line, " first delivery t={first}");
                let _ = write!(line, " complete t={done}");
                if let Some(s) = self.stamped_at {
                    let _ = write!(line, " (+{} tick(s)", done.saturating_sub(s));
                    if let Some(r) = self.rotations {
                        let _ = write!(line, ", {r} rotation(s)");
                    }
                    line.push(')');
                }
                let _ = write!(line, ", {} delivery(ies)", self.deliveries);
                if self.transitional_deliveries > 0 {
                    let _ = write!(line, " ({} transitional)", self.transitional_deliveries);
                }
            }
            _ => line.push_str(" never delivered"),
        }
        line
    }
}

impl ConfigSpan {
    fn new(epoch: u64, rep: u32) -> ConfigSpan {
        ConfigSpan {
            epoch,
            rep,
            members: 0,
            committed_at: None,
            installed_at: None,
            delivered_regular_at: None,
            transitional: Vec::new(),
            recovery_entered_at: None,
            recovery_exited_at: None,
            aborted: false,
            steps: Vec::new(),
        }
    }

    /// Derives every configuration-change span of the timeline and the
    /// trace, ordered by `(epoch, rep)`.
    ///
    /// Recovery-step and transitional-configuration events carry only the
    /// proposal epoch, so when concurrent partitions propose the same
    /// epoch under different representatives (possible after a split)
    /// those rows attach to every span of that epoch.
    pub fn derive(tl: &Timeline, trace: &Trace) -> Vec<ConfigSpan> {
        let mut spans: BTreeMap<(u64, u32), ConfigSpan> = BTreeMap::new();
        // (epoch, step) -> (first, last, pids)
        let mut steps: BTreeMap<(u64, u8), (u64, u64, Vec<u32>)> = BTreeMap::new();
        let mut entered: BTreeMap<u64, u64> = BTreeMap::new();
        let mut exited: BTreeMap<u64, u64> = BTreeMap::new();
        let mut aborted: Vec<u64> = Vec::new();
        let mut transitional: BTreeMap<u64, BTreeMap<u32, u64>> = BTreeMap::new();
        fn span_slot(
            spans: &mut BTreeMap<(u64, u32), ConfigSpan>,
            epoch: u64,
            rep: u32,
            members: u32,
        ) -> &mut ConfigSpan {
            let s = spans
                .entry((epoch, rep))
                .or_insert_with(|| ConfigSpan::new(epoch, rep));
            s.members = s.members.max(members);
            s
        }
        for e in &tl.entries {
            let mut step_event = |epoch: u64, step: u8, pid: u32, at: u64| {
                let slot = steps.entry((epoch, step)).or_insert((at, at, Vec::new()));
                slot.0 = slot.0.min(at);
                slot.1 = slot.1.max(at);
                if !slot.2.contains(&pid) {
                    slot.2.push(pid);
                }
            };
            match e.event {
                TelemetryEvent::ConfigCommitted {
                    epoch,
                    rep,
                    members,
                } => {
                    min_opt(
                        &mut span_slot(&mut spans, epoch, rep, members).committed_at,
                        e.at,
                    );
                }
                TelemetryEvent::ConfigInstalled {
                    epoch,
                    rep,
                    members,
                } => {
                    min_opt(
                        &mut span_slot(&mut spans, epoch, rep, members).installed_at,
                        e.at,
                    );
                }
                TelemetryEvent::RecoveryStepEntered { step, epoch } => {
                    let at = entered.entry(epoch).or_insert(e.at);
                    *at = (*at).min(e.at);
                    step_event(epoch, step, e.pid, e.at);
                }
                TelemetryEvent::RecoveryStepReached { step, epoch } => {
                    step_event(epoch, step, e.pid, e.at);
                }
                TelemetryEvent::RecoveryStepExited { step, epoch } => {
                    let at = exited.entry(epoch).or_insert(e.at);
                    *at = (*at).max(e.at);
                    if step == 0 {
                        aborted.push(epoch);
                    }
                    step_event(epoch, step, e.pid, e.at);
                }
                _ => {}
            }
        }
        for (t, event) in trace.events.iter().flatten() {
            let EvsEvent::DeliverConf(cfg) = event else {
                continue;
            };
            let (epoch, rep, at) = (cfg.id.epoch, cfg.id.rep.index(), t.ticks());
            if cfg.is_regular() {
                let members = cfg.members.len() as u32;
                min_opt(
                    &mut span_slot(&mut spans, epoch, rep, members).delivered_regular_at,
                    at,
                );
            } else {
                let first = transitional
                    .entry(epoch)
                    .or_default()
                    .entry(rep)
                    .or_insert(at);
                *first = (*first).min(at);
            }
        }
        for s in spans.values_mut() {
            s.recovery_entered_at = entered.get(&s.epoch).copied();
            s.recovery_exited_at = exited.get(&s.epoch).copied();
            s.aborted = aborted.contains(&s.epoch);
            s.transitional = transitional
                .get(&s.epoch)
                .map(|m| m.iter().map(|(rep, at)| (*rep, *at)).collect())
                .unwrap_or_default();
            s.steps = steps
                .iter()
                .filter(|((epoch, _), _)| *epoch == s.epoch)
                .map(|((_, step), (first, last, pids))| StepSpan {
                    step: *step,
                    first_at: *first,
                    last_at: *last,
                    processes: pids.len() as u32,
                })
                .collect();
        }
        spans.into_values().collect()
    }

    /// Multi-line human-readable rendering, including the per-step
    /// recovery breakdown.
    pub fn to_text(&self) -> String {
        let mut out = format!("R{}@P{}", self.epoch, self.rep);
        if self.members > 0 {
            let _ = write!(out, " ({} members)", self.members);
        }
        out.push(':');
        if let Some(t) = self.committed_at {
            let _ = write!(out, " committed t={t}");
        }
        if let Some(t) = self.installed_at {
            let _ = write!(out, " installed t={t}");
        }
        if let Some(t) = self.delivered_regular_at {
            let _ = write!(out, " delivered t={t}");
        }
        for (rep, at) in &self.transitional {
            let _ = write!(out, " [T{}@P{} delivered t={at}]", self.epoch, rep);
        }
        if let (Some(a), Some(b)) = (self.recovery_entered_at, self.recovery_exited_at) {
            let _ = write!(
                out,
                "\n  recovery (\u{a7}3): entered t={a} .. exited t={b} ({} tick(s)){}",
                b.saturating_sub(a),
                if self.aborted { " [ABORTED]" } else { "" }
            );
        } else if self.recovery_entered_at.is_some() {
            out.push_str("\n  recovery (\u{a7}3): entered but NEVER exited");
        }
        for s in &self.steps {
            let _ = write!(
                out,
                "\n    step {} ({:<38}) first t={} last t={} ({} process(es))",
                s.step,
                step_name(s.step),
                s.first_at,
                s.last_at,
                s.processes
            );
        }
        out
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use evs_core::trace_io::parse_trace;
    use evs_telemetry::Telemetry;

    /// One message's and one configuration change's life on two
    /// processes: the §2 events in the trace, everything around them on
    /// the timeline.
    fn run() -> (Timeline, Trace) {
        let p0 = Telemetry::enabled(0);
        let p1 = Telemetry::enabled(1);
        p0.record(
            2,
            TelemetryEvent::MessageOriginated {
                sender: 0,
                counter: 1,
                service: "agreed",
            },
        );
        p0.record(
            6,
            TelemetryEvent::TokenRotated {
                epoch: 1,
                rotations: 1,
            },
        );
        p0.record(
            10,
            TelemetryEvent::ConfigCommitted {
                epoch: 2,
                rep: 0,
                members: 2,
            },
        );
        for pid in [&p0, &p1] {
            pid.record(
                11,
                TelemetryEvent::RecoveryStepEntered { step: 2, epoch: 2 },
            );
            pid.record(
                11,
                TelemetryEvent::RecoveryStepReached { step: 3, epoch: 2 },
            );
            pid.record(
                12,
                TelemetryEvent::RecoveryStepReached { step: 4, epoch: 2 },
            );
            pid.record(
                13,
                TelemetryEvent::RecoveryStepReached { step: 5, epoch: 2 },
            );
            pid.record(15, TelemetryEvent::RecoveryStepExited { step: 6, epoch: 2 });
        }
        p0.record(
            10,
            TelemetryEvent::ConfigInstalled {
                epoch: 2,
                rep: 0,
                members: 2,
            },
        );
        let trace = parse_trace(
            "process 0
  @5 send 0#1 R1.0 agreed
  @6 dlv 0#1 R1.0 agreed 1
  @14 conf T2.0 * 0 1
  @15 conf R2.0 * 0 1
process 1
  @7 dlv 0#1 R1.0 agreed 1
  @14 conf T2.0 * 0 1
  @15 conf R2.0 * 0 1
",
        )
        .expect("fixture trace parses");
        (Timeline::from_handles([&p0, &p1]), trace)
    }

    #[test]
    fn message_span_covers_the_lifecycle() {
        let (tl, trace) = run();
        let spans = MessageSpan::derive(&tl, &trace);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.sender, s.counter), (0, 1));
        assert_eq!(s.originated_at, Some(2));
        assert_eq!(s.stamped_at, Some(5));
        assert_eq!(s.first_delivered_at, Some(6));
        assert_eq!(s.completed_at, Some(7));
        assert_eq!(s.deliveries, 2);
        assert_eq!(s.rotations, Some(1));
        assert!(s.to_text().contains("ord 1 in R1@P0"));
    }

    #[test]
    fn a_span_without_its_origination_still_has_its_trace_half() {
        // The origination was evicted from the flight recorder (here: no
        // recorder at all); the trace alone still stamps and delivers it.
        let (_, trace) = run();
        let spans = MessageSpan::derive(&Timeline::default(), &trace);
        let s = &spans[0];
        assert_eq!((s.originated_at, s.stamped_at), (None, Some(5)));
        assert_eq!(
            (s.service.as_str(), s.seq, s.deliveries),
            ("agreed", Some(1), 2)
        );
    }

    #[test]
    fn config_span_maps_recovery_steps() {
        let (tl, trace) = run();
        let spans = ConfigSpan::derive(&tl, &trace);
        assert_eq!(spans.len(), 1, "{spans:?}");
        let s = spans.iter().find(|s| s.epoch == 2).unwrap();
        assert_eq!(s.committed_at, Some(10));
        assert_eq!(s.installed_at, Some(10));
        assert_eq!(s.delivered_regular_at, Some(15));
        assert_eq!(s.recovery_entered_at, Some(11));
        assert_eq!(s.recovery_exited_at, Some(15));
        assert_eq!(s.transitional, vec![(0, 14)]);
        assert!(!s.aborted);
        let step4 = s.steps.iter().find(|x| x.step == 4).unwrap();
        assert_eq!(
            (step4.first_at, step4.last_at, step4.processes),
            (12, 12, 2)
        );
        let text = s.to_text();
        assert!(text.contains("determine transitional configuration"));
        assert!(text.contains("entered t=11 .. exited t=15"));
    }
}
