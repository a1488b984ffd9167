//! Plain-text serialization of execution traces and flight dumps.
//!
//! The soak harness and property tests find counterexamples by running
//! millions of events; being able to archive a failing trace, attach it to
//! a bug report, and re-run the checker on it later is an operational
//! necessity. The format is deliberately human-readable — one event per
//! line — so a trace diff is meaningful in review:
//!
//! ```text
//! process 0
//!   @12 conf R1.0 * 0 1 2
//!   @30 send 0#1 R1.0 safe
//!   @45 dlv 0#1 R1.0 safe 3
//!   @99 fail R1.0
//!   @28 messages_originated 0 1 safe
//! ```
//!
//! `conf` lines list the members after `*`; `R`/`T` prefixes mark regular
//! and transitional configuration identifiers. Any other kind is an event
//! of the process's flight dump: its [`TelemetryEvent::name`], then the
//! variant's fields in declaration order. A string field must name a
//! member of its closed vocabulary (service levels, membership states).
//! A document with both kinds of line is a run's post-mortem
//! ([`format_postmortem`]); one with only the first is a trace
//! ([`format_trace`]). Round-tripping is exact:
//! `parse(format(trace)) == trace`.

use crate::{Configuration, EvsEvent, Trace};
use core::fmt;
use evs_membership::ConfigId;
use evs_order::{MessageId, Service};
use evs_sim::{ProcessId, SimTime};
use evs_telemetry::{names, RecordedEvent, TelemetryEvent};
use std::fmt::Write as _;
use std::str::FromStr;

/// Errors from [`parse_trace`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

/// One line of a process's record: a §2 event of its trace, or an event
/// of its flight dump.
#[derive(Clone, Debug, PartialEq)]
pub enum Line {
    /// A trace event.
    Event(SimTime, EvsEvent),
    /// A flight-recorder event.
    Recorded(RecordedEvent),
}

impl Line {
    /// The tick the line was recorded at.
    pub fn at(&self) -> u64 {
        match self {
            Line::Event(t, _) => t.ticks(),
            Line::Recorded(rec) => rec.at,
        }
    }
}

/// Every process's flight dump, `(pid, events)`, as
/// `evs_inspect::InspectReport::analyze` reads them.
pub type Dumps = Vec<(u32, Vec<RecordedEvent>)>;

fn write_config_id(out: &mut String, c: ConfigId) {
    out.push(if c.transitional { 'T' } else { 'R' });
    out.push_str(&format!("{}.{}", c.epoch, c.rep.index()));
}

fn write_service(out: &mut String, s: Service) {
    out.push_str(match s {
        Service::Causal => "causal",
        Service::Agreed => "agreed",
        Service::Safe => "safe",
    });
}

/// Appends one event in the archival per-line format (`@time kind ...`,
/// no leading indentation, no trailing newline) to `out`.
///
/// This is the unit the process-kill harness journals: each live process
/// appends `format_event` lines to its own durable trace file *before*
/// acting on the event, and the orchestrator reassembles a [`Trace`] with
/// [`parse_line`] after the run. [`format_trace`] is this plus `process`
/// headers and indentation.
pub fn format_event(out: &mut String, t: SimTime, ev: &EvsEvent) {
    out.push_str(&format!("@{} ", t.ticks()));
    match ev {
        EvsEvent::DeliverConf(c) => {
            out.push_str("conf ");
            write_config_id(out, c.id);
            out.push_str(" *");
            for m in &c.members {
                out.push_str(&format!(" {}", m.index()));
            }
        }
        EvsEvent::Send {
            id,
            config,
            service,
        } => {
            out.push_str(&format!("send {}#{} ", id.sender.index(), id.counter));
            write_config_id(out, *config);
            out.push(' ');
            write_service(out, *service);
        }
        EvsEvent::Deliver {
            id,
            config,
            service,
            seq,
        } => {
            out.push_str(&format!("dlv {}#{} ", id.sender.index(), id.counter));
            write_config_id(out, *config);
            out.push(' ');
            write_service(out, *service);
            out.push_str(&format!(" {seq}"));
        }
        EvsEvent::Fail { config } => {
            out.push_str("fail ");
            write_config_id(out, *config);
        }
    }
}

/// Appends one flight-recorder event in the per-line format (`@at name
/// fields...`, no leading indentation, no trailing newline) to `out`.
pub fn format_recorded(out: &mut String, rec: &RecordedEvent) {
    let _ = write!(out, "@{} {}", rec.at, rec.event.name());
    write_fields(out, &rec.event);
}

/// Renders a trace in the archival text format.
pub fn format_trace(trace: &Trace) -> String {
    format_postmortem(trace, &[])
}

/// Renders a run's post-mortem: under each `process` header, that
/// process's trace events, then its flight dump. With no dumps this is
/// [`format_trace`], byte for byte.
pub fn format_postmortem(trace: &Trace, dumps: &[(u32, Vec<RecordedEvent>)]) -> String {
    let processes = dumps
        .iter()
        .map(|(pid, _)| *pid as usize + 1)
        .fold(trace.num_processes(), usize::max);
    let mut out = String::new();
    for pid in 0..processes {
        out.push_str(&format!("process {pid}\n"));
        for (t, ev) in trace.events.get(pid).into_iter().flatten() {
            out.push_str("  ");
            format_event(&mut out, *t, ev);
            out.push('\n');
        }
        for (_, dump) in dumps.iter().filter(|(p, _)| *p as usize == pid) {
            for rec in dump {
                out.push_str("  ");
                format_recorded(&mut out, rec);
                out.push('\n');
            }
        }
    }
    out
}

/// The service levels a `messages_originated` line may name.
const SERVICES: &[&str] = &["causal", "agreed", "safe"];
/// The membership states a `membership_transitions` line may name.
const MEMB_STATES: &[&str] = &["stable", "gather", "commit"];

/// A numeric or boolean field.
fn value<T: FromStr>(tok: &str) -> Option<T> {
    tok.parse().ok()
}

/// A service level, re-interned so a parsed event carries the same
/// `&'static str` the recorder wrote.
fn service_level(tok: &str) -> Option<&'static str> {
    SERVICES.iter().find(|s| **s == tok).copied()
}

/// A membership state, re-interned likewise.
fn memb_state(tok: &str) -> Option<&'static str> {
    MEMB_STATES.iter().find(|s| **s == tok).copied()
}

/// The next token, parsed as the field `what`.
fn field<'a, T>(
    toks: &mut impl Iterator<Item = &'a str>,
    parse: fn(&str) -> Option<T>,
    what: &str,
) -> Result<T, String> {
    let tok = toks.next().ok_or_else(|| format!("missing {what}"))?;
    parse(tok).ok_or_else(|| format!("bad {what} {tok:?}"))
}

/// The flight-dump half of the codec, one row per event kind: its name
/// constant, its variant, and each field with the function that parses
/// it, in declaration order. Writing is exhaustive over the variants, so
/// a new kind does not compile without its row.
macro_rules! telemetry_lines {
    ($($name:ident => $variant:ident { $($field:ident: $parse:ident),* },)*) => {
        fn write_fields(out: &mut String, event: &TelemetryEvent) {
            match *event {
                $(TelemetryEvent::$variant { $($field),* } => {
                    $(let _ = write!(out, " {}", $field);)*
                })*
            }
        }

        fn parse_fields<'a>(
            name: &str,
            toks: &mut impl Iterator<Item = &'a str>,
        ) -> Result<TelemetryEvent, String> {
            Ok(match name {
                $(names::$name => TelemetryEvent::$variant {
                    $($field: field(toks, $parse, stringify!($field))?,)*
                },)*
                _ => return Err("unknown event kind".into()),
            })
        }
    };
}

telemetry_lines! {
    TOKENS_RECEIVED => TokenReceived { epoch: value, token_id: value, aru: value },
    TOKENS_FORWARDED => TokenForwarded { epoch: value, token_id: value, to: value },
    TOKEN_RETRANSMISSIONS => TokenRetransmitted { epoch: value, token_id: value },
    TOKEN_ROTATIONS => TokenRotated { epoch: value, rotations: value },
    RETRANSMISSIONS_SERVED => RetransmissionsServed { epoch: value, count: value },
    HOLES_REQUESTED => HolesRequested { epoch: value, count: value },
    SAFE_LINE_ADVANCES => SafeLineAdvanced { epoch: value, safe_line: value },
    MEMBERSHIP_TRANSITIONS => MembershipTransition { from: memb_state, to: memb_state },
    CONFIGS_COMMITTED => ConfigCommitted { epoch: value, rep: value, members: value },
    CONFIGS_INSTALLED => ConfigInstalled { epoch: value, rep: value, members: value },
    MESSAGES_ORIGINATED => MessageOriginated { sender: value, counter: value, service: service_level },
    RECOVERY_STEPS_ENTERED => RecoveryStepEntered { step: value, epoch: value },
    RECOVERY_STEP_MARKS => RecoveryStepReached { step: value, epoch: value },
    RECOVERY_STEPS_EXITED => RecoveryStepExited { step: value, epoch: value },
    OBLIGATION_SET_SAMPLES => ObligationSetSize { size: value },
    STORAGE_RECOVERIES => StorageRecovered { records: value, snapshot: value, wal: value },
    LINK_DROPS => LinkPacketDropped { from: value, to: value },
    LINK_DELAYS => LinkPacketDelayed { from: value, to: value, ticks: value },
    LINK_DUPLICATES => LinkPacketDuplicated { from: value, to: value },
    BROKER_SESSIONS => SessionOpened { broker: value, client: value },
    BROKER_BATCHES_FLUSHED => BatchFlushed { broker: value, ops: value, bytes: value },
    BROKER_BACKPRESSURE => BackpressureSignaled { broker: value, client: value },
    BROKER_RECONNECTS => BrokerReattached { broker: value, to: value, resubmitted: value },
    CHAOS_RUNS => ChaosRunExecuted { seed: value, steps: value, failed: value },
    CHAOS_VIOLATIONS => ChaosViolationFound { seed: value, specs: value },
    CHAOS_SHRINKS => ChaosPlanShrunk { from_steps: value, to_steps: value, checks: value },
    CHAOS_PROGRESS => ChaosProgress { done: value, total: value, failures: value },
}

fn parse_config_id(tok: &str, line: usize) -> Result<ConfigId, ParseTraceError> {
    let err = |reason: String| ParseTraceError { line, reason };
    let transitional = match tok.as_bytes().first() {
        Some(b'R') => false,
        Some(b'T') => true,
        _ => return Err(err(format!("bad config id {tok:?}"))),
    };
    let rest = &tok[1..];
    let (epoch, rep) = rest
        .split_once('.')
        .ok_or_else(|| err(format!("bad config id {tok:?}")))?;
    Ok(ConfigId {
        epoch: epoch
            .parse()
            .map_err(|_| err(format!("bad epoch in {tok:?}")))?,
        rep: ProcessId::new(
            rep.parse()
                .map_err(|_| err(format!("bad rep in {tok:?}")))?,
        ),
        transitional,
    })
}

fn parse_message_id(tok: &str, line: usize) -> Result<MessageId, ParseTraceError> {
    let err = |reason: String| ParseTraceError { line, reason };
    let (sender, counter) = tok
        .split_once('#')
        .ok_or_else(|| err(format!("bad message id {tok:?}")))?;
    Ok(MessageId {
        sender: ProcessId::new(
            sender
                .parse()
                .map_err(|_| err(format!("bad sender in {tok:?}")))?,
        ),
        counter: counter
            .parse()
            .map_err(|_| err(format!("bad counter in {tok:?}")))?,
    })
}

fn parse_service(tok: &str, line: usize) -> Result<Service, ParseTraceError> {
    match tok {
        "causal" => Ok(Service::Causal),
        "agreed" => Ok(Service::Agreed),
        "safe" => Ok(Service::Safe),
        other => Err(ParseTraceError {
            line,
            reason: format!("bad service {other:?}"),
        }),
    }
}

/// Parses one line in the archival format (`@time kind ...`), the
/// inverse of [`format_event`] and [`format_recorded`]. Leading/trailing
/// whitespace is ignored. `line` is the 1-based line number reported in
/// errors.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] on any malformed line: an unknown kind,
/// a missing or trailing field, a number out of its field's range, or a
/// string outside its field's vocabulary.
pub fn parse_line(raw: &str, line: usize) -> Result<Line, ParseTraceError> {
    let err = |reason: String| ParseTraceError { line, reason };
    let mut toks = raw.split_whitespace();
    let at = toks
        .next()
        .and_then(|t| t.strip_prefix('@'))
        .ok_or_else(|| err("missing @time".into()))?;
    let at: u64 = at.parse().map_err(|_| err(format!("bad time {at:?}")))?;
    let kind = toks
        .next()
        .ok_or_else(|| err("missing event kind".into()))?;
    let mut next = |what: &str| {
        toks.next()
            .ok_or_else(|| err(format!("{kind}: missing {what}")))
    };
    let t = SimTime::from_ticks(at);
    let parsed = match kind {
        "conf" => {
            let id = parse_config_id(next("id")?, line)?;
            if next("member list")? != "*" {
                return Err(err("conf: missing member list".into()));
            }
            let members: Result<Vec<ProcessId>, _> = toks
                .by_ref()
                .map(|m| m.parse::<u32>().map(ProcessId::new))
                .collect();
            let members = members.map_err(|_| err("conf: bad member".into()))?;
            if members.is_empty() {
                return Err(err("conf: empty membership".into()));
            }
            Line::Event(t, EvsEvent::DeliverConf(Configuration::new(id, members)))
        }
        "send" => Line::Event(
            t,
            EvsEvent::Send {
                id: parse_message_id(next("id")?, line)?,
                config: parse_config_id(next("config")?, line)?,
                service: parse_service(next("service")?, line)?,
            },
        ),
        "dlv" => Line::Event(
            t,
            EvsEvent::Deliver {
                id: parse_message_id(next("id")?, line)?,
                config: parse_config_id(next("config")?, line)?,
                service: parse_service(next("service")?, line)?,
                seq: next("seq")?
                    .parse()
                    .map_err(|_| err("dlv: bad seq".into()))?,
            },
        ),
        "fail" => Line::Event(
            t,
            EvsEvent::Fail {
                config: parse_config_id(next("config")?, line)?,
            },
        ),
        name => Line::Recorded(RecordedEvent {
            at,
            event: parse_fields(name, &mut toks).map_err(|e| err(format!("{name}: {e}")))?,
        }),
    };
    if toks.next().is_some() {
        return Err(err("trailing tokens".into()));
    }
    Ok(parsed)
}

/// Parses the archival text format back into a [`Trace`], skipping any
/// flight-dump lines.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] naming the offending line on any
/// malformed input.
pub fn parse_trace(text: &str) -> Result<Trace, ParseTraceError> {
    parse_postmortem(text).map(|(trace, _)| trace)
}

/// Parses a post-mortem document back into its trace and the flight
/// dumps of the processes that carry one, sorted by pid: the exact input
/// of `evs_inspect::InspectReport::analyze`.
///
/// # Errors
///
/// Returns a [`ParseTraceError`] naming the offending line on any
/// malformed input.
pub fn parse_postmortem(text: &str) -> Result<(Trace, Dumps), ParseTraceError> {
    let mut events: Vec<Vec<(SimTime, EvsEvent)>> = Vec::new();
    let mut dumps: Vec<Vec<RecordedEvent>> = Vec::new();
    let mut current: Option<usize> = None;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let err = |reason: String| ParseTraceError { line, reason };
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("process ") {
            let pid: usize = rest
                .trim()
                .parse()
                .map_err(|_| err(format!("bad process header {trimmed:?}")))?;
            // Ids may be sparse, but the tables grow to the highest one
            // named: a document may not name more processes than it has
            // bytes.
            if pid >= text.len() {
                return Err(err(format!("process id {pid} out of range")));
            }
            if events.len() <= pid {
                events.resize_with(pid + 1, Vec::new);
                dumps.resize_with(pid + 1, Vec::new);
            }
            current = Some(pid);
            continue;
        }
        let pid = current.ok_or_else(|| err("event before any process header".into()))?;
        match parse_line(trimmed, line)? {
            Line::Event(t, ev) => events[pid].push((t, ev)),
            Line::Recorded(rec) => dumps[pid].push(rec),
        }
    }
    let dumps = dumps
        .into_iter()
        .enumerate()
        .filter(|(_, dump)| !dump.is_empty())
        .map(|(pid, dump)| (pid as u32, dump))
        .collect();
    Ok((Trace::new(events), dumps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvsCluster, Service};

    #[test]
    fn round_trip_a_real_execution() {
        let mut cluster = EvsCluster::<String>::builder(3).seed(42).build();
        assert!(cluster.run_until_settled(400_000));
        cluster.submit(ProcessId::new(0), Service::Safe, "x".into());
        cluster.submit(ProcessId::new(1), Service::Agreed, "y".into());
        assert!(cluster.run_until_settled(200_000));
        let p = ProcessId::new;
        cluster.partition(&[&[p(0)], &[p(1), p(2)]]);
        assert!(cluster.run_until_settled(400_000));
        cluster.crash(p(2));
        assert!(cluster.run_until_settled(400_000));

        let trace = cluster.trace();
        let text = format_trace(&trace);
        let back = parse_trace(&text).expect("parses");
        assert_eq!(trace.events, back.events, "exact round trip");
        // The parsed trace still checks out.
        crate::checker::check_all(&back).unwrap();
    }

    #[test]
    fn golden_format_shape() {
        let cfg = Configuration::new(
            ConfigId::regular(1, ProcessId::new(0)),
            vec![ProcessId::new(0), ProcessId::new(1)],
        );
        let trace = Trace::new(vec![vec![
            (SimTime::from_ticks(5), EvsEvent::DeliverConf(cfg.clone())),
            (
                SimTime::from_ticks(9),
                EvsEvent::Send {
                    id: MessageId::new(ProcessId::new(0), 1),
                    config: cfg.id,
                    service: Service::Safe,
                },
            ),
        ]]);
        let text = format_trace(&trace);
        assert_eq!(
            text,
            "process 0\n  @5 conf R1.0 * 0 1\n  @9 send 0#1 R1.0 safe\n"
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (bad, what) in [
            ("  @5 conf R1.0 * 0", "event before any process header"),
            ("process 0\n  conf R1.0 * 0", "missing @time"),
            ("process 0\n  @5 conf X1.0 * 0", "bad config id"),
            ("process 0\n  @5 conf R1.0 *", "empty membership"),
            ("process 0\n  @5 send 0-1 R1.0 safe", "bad message id"),
            ("process 0\n  @5 dlv 0#1 R1.0 turbo 1", "bad service"),
            ("process 0\n  @5 zap R1.0", "unknown event kind"),
            ("process 0\n  @5 token_rotations 1", "missing rotations"),
            ("process 0\n  @5 token_rotations 1 2 3", "trailing tokens"),
            ("process 0\n  @5 recovery_step_marks 256 1", "bad step"),
            (
                "process 0\n  @5 membership_transitions stable idle",
                "bad to",
            ),
            ("process x", "bad process header"),
        ] {
            let e = parse_trace(bad).unwrap_err();
            assert!(
                e.reason.contains(what),
                "{bad:?} gave {e:?}, expected {what:?}"
            );
        }
    }

    #[test]
    fn per_line_helpers_round_trip() {
        // The unit the kill harness journals: one line per event, no
        // process headers. Format then parse must be exact.
        let cfg = Configuration::new(
            ConfigId::transitional(3, ProcessId::new(1)),
            vec![ProcessId::new(1), ProcessId::new(2)],
        );
        let events = [
            (SimTime::from_ticks(7), EvsEvent::DeliverConf(cfg.clone())),
            (
                SimTime::from_ticks(8),
                EvsEvent::Deliver {
                    id: MessageId::new(ProcessId::new(2), 4),
                    config: cfg.id,
                    service: Service::Agreed,
                    seq: 11,
                },
            ),
            (SimTime::from_ticks(9), EvsEvent::Fail { config: cfg.id }),
        ];
        for (t, ev) in &events {
            let mut line = String::new();
            format_event(&mut line, *t, ev);
            assert!(!line.contains('\n'), "one event, one line");
            let back = parse_line(&line, 1).expect("parses");
            assert_eq!(back, Line::Event(*t, ev.clone()));
        }
        assert!(parse_line("@5 zap R1.0", 3).is_err());
    }

    #[test]
    fn sparse_process_ids_round_trip() {
        let text = "process 2\n  @1 fail R7.2\n";
        let trace = parse_trace(text).unwrap();
        assert_eq!(trace.num_processes(), 3);
        assert!(trace.events[0].is_empty());
        assert_eq!(trace.events[2].len(), 1);
        assert_eq!(
            format_trace(&trace),
            "process 0\nprocess 1\nprocess 2\n  @1 fail R7.2\n"
        );
    }

    #[test]
    fn a_flight_dump_line_is_its_name_then_its_fields_in_order() {
        let rec = |at, event| RecordedEvent { at, event };
        for (rec, text) in [
            (
                rec(
                    28,
                    TelemetryEvent::MessageOriginated {
                        sender: 0,
                        counter: 1,
                        service: "safe",
                    },
                ),
                "@28 messages_originated 0 1 safe",
            ),
            (
                rec(
                    5,
                    TelemetryEvent::StorageRecovered {
                        records: 12,
                        snapshot: true,
                        wal: false,
                    },
                ),
                "@5 storage_recoveries 12 true false",
            ),
        ] {
            let mut line = String::new();
            format_recorded(&mut line, &rec);
            assert_eq!(line, text);
            assert_eq!(parse_line(&line, 1), Ok(Line::Recorded(rec)));
        }
    }

    #[test]
    fn a_postmortem_round_trips_and_without_dumps_is_the_trace() {
        let trace = parse_trace("process 0\n  @5 conf R1.0 * 0 1\nprocess 1\n  @6 fail R1.0\n")
            .expect("fixture trace parses");
        let rec = |at, epoch| RecordedEvent {
            at,
            event: TelemetryEvent::TokenRotated {
                epoch,
                rotations: 1,
            },
        };
        // A dump may name a process the trace never reached.
        let dumps = vec![(0, vec![rec(4, 1), rec(7, 1)]), (3, vec![rec(9, 2)])];
        let text = format_postmortem(&trace, &dumps);
        assert_eq!(format_postmortem(&trace, &[]), format_trace(&trace));
        let (back, back_dumps) = parse_postmortem(&text).expect("parses");
        assert_eq!(back_dumps, dumps);
        assert_eq!(&back.events[..2], &trace.events[..]);
        assert_eq!(back.num_processes(), 4);
        assert_eq!(parse_trace(&text).expect("parses").events, back.events);
    }
}
