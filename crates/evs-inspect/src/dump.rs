//! On-disk post-mortems: flight-recorder dumps as JSON files.
//!
//! A live cluster (`examples/udp_cluster.rs`) runs one OS process per
//! protocol participant, so no single process can hand all the telemetry
//! handles to [`InspectReport::from_handles`](crate::InspectReport). The
//! escape hatch is files: each process serializes its own flight dump
//! with [`dump_to_json`] and writes it next to its peers
//! ([`write_dumps`]); any process — or a later invocation long after the
//! run exited — re-ingests the whole directory with [`load_dumps`] and
//! feeds the result, beside the run's trace (journaled or written with
//! `evs_core::trace_io`), straight into
//! [`InspectReport::analyze`](crate::InspectReport::analyze).
//!
//! The format is one flat JSON object per event — `{"at":…,"name":…,`
//! then the variant's fields by name — wrapped in a per-process document
//! `{"pid":…,"events":[…]}`. `name` is the event's stable counter
//! identifier ([`TelemetryEvent::name`]), which uniquely determines the
//! variant. Like every JSON document in this workspace the emission is
//! hand-rolled and the parser is [`evs_telemetry::json`]; the `&'static str`
//! fields of [`TelemetryEvent`] (service levels, membership states) are
//! re-interned against the known vocabulary on the way back in, so an
//! unknown token is a parse failure, not a leaked allocation.

use evs_telemetry::json::{self, push_json_string, Value};
use evs_telemetry::{names, RecordedEvent, TelemetryEvent};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Serializes one recorded event as a flat JSON object.
pub fn event_to_json(rec: &RecordedEvent) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"at\":{},\"name\":", rec.at);
    push_json_string(&mut out, rec.event.name());
    match rec.event {
        TelemetryEvent::TokenReceived {
            epoch,
            token_id,
            aru,
        } => {
            let _ = write!(
                out,
                ",\"epoch\":{epoch},\"token_id\":{token_id},\"aru\":{aru}"
            );
        }
        TelemetryEvent::TokenForwarded {
            epoch,
            token_id,
            to,
        } => {
            let _ = write!(
                out,
                ",\"epoch\":{epoch},\"token_id\":{token_id},\"to\":{to}"
            );
        }
        TelemetryEvent::TokenRetransmitted { epoch, token_id } => {
            let _ = write!(out, ",\"epoch\":{epoch},\"token_id\":{token_id}");
        }
        TelemetryEvent::TokenRotated { epoch, rotations } => {
            let _ = write!(out, ",\"epoch\":{epoch},\"rotations\":{rotations}");
        }
        TelemetryEvent::RetransmissionsServed { epoch, count }
        | TelemetryEvent::HolesRequested { epoch, count } => {
            let _ = write!(out, ",\"epoch\":{epoch},\"count\":{count}");
        }
        TelemetryEvent::SafeLineAdvanced { epoch, safe_line } => {
            let _ = write!(out, ",\"epoch\":{epoch},\"safe_line\":{safe_line}");
        }
        TelemetryEvent::MembershipTransition { from, to } => {
            out.push_str(",\"from\":");
            push_json_string(&mut out, from);
            out.push_str(",\"to\":");
            push_json_string(&mut out, to);
        }
        TelemetryEvent::ConfigCommitted {
            epoch,
            rep,
            members,
        }
        | TelemetryEvent::ConfigInstalled {
            epoch,
            rep,
            members,
        } => {
            let _ = write!(
                out,
                ",\"epoch\":{epoch},\"rep\":{rep},\"members\":{members}"
            );
        }
        TelemetryEvent::MessageOriginated {
            sender,
            counter,
            service,
        } => {
            let _ = write!(
                out,
                ",\"sender\":{sender},\"counter\":{counter},\"service\":"
            );
            push_json_string(&mut out, service);
        }
        TelemetryEvent::RecoveryStepEntered { step, epoch }
        | TelemetryEvent::RecoveryStepReached { step, epoch }
        | TelemetryEvent::RecoveryStepExited { step, epoch } => {
            let _ = write!(out, ",\"step\":{step},\"epoch\":{epoch}");
        }
        TelemetryEvent::ObligationSetSize { size } => {
            let _ = write!(out, ",\"size\":{size}");
        }
        TelemetryEvent::StorageRecovered {
            records,
            snapshot,
            wal,
        } => {
            let _ = write!(
                out,
                ",\"records\":{records},\"snapshot\":{snapshot},\"wal\":{wal}"
            );
        }
        TelemetryEvent::LinkPacketDropped { from, to }
        | TelemetryEvent::LinkPacketDuplicated { from, to } => {
            let _ = write!(out, ",\"from\":{from},\"to\":{to}");
        }
        TelemetryEvent::LinkPacketDelayed { from, to, ticks } => {
            let _ = write!(out, ",\"from\":{from},\"to\":{to},\"ticks\":{ticks}");
        }
        TelemetryEvent::SessionOpened { broker, client } => {
            let _ = write!(out, ",\"broker\":{broker},\"client\":{client}");
        }
        TelemetryEvent::BatchFlushed { broker, ops, bytes } => {
            let _ = write!(out, ",\"broker\":{broker},\"ops\":{ops},\"bytes\":{bytes}");
        }
        TelemetryEvent::BackpressureSignaled { broker, client } => {
            let _ = write!(out, ",\"broker\":{broker},\"client\":{client}");
        }
        TelemetryEvent::BrokerReattached {
            broker,
            to,
            resubmitted,
        } => {
            let _ = write!(
                out,
                ",\"broker\":{broker},\"to\":{to},\"resubmitted\":{resubmitted}"
            );
        }
        TelemetryEvent::ChaosRunExecuted {
            seed,
            steps,
            failed,
        } => {
            let _ = write!(
                out,
                ",\"seed\":{seed},\"steps\":{steps},\"failed\":{failed}"
            );
        }
        TelemetryEvent::ChaosViolationFound { seed, specs } => {
            let _ = write!(out, ",\"seed\":{seed},\"specs\":{specs}");
        }
        TelemetryEvent::ChaosPlanShrunk {
            from_steps,
            to_steps,
            checks,
        } => {
            let _ = write!(
                out,
                ",\"from_steps\":{from_steps},\"to_steps\":{to_steps},\"checks\":{checks}"
            );
        }
        TelemetryEvent::ChaosProgress {
            done,
            total,
            failures,
        } => {
            let _ = write!(
                out,
                ",\"done\":{done},\"total\":{total},\"failures\":{failures}"
            );
        }
    }
    out.push('}');
    out
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

fn field_u32(v: &Value, key: &str) -> Option<u32> {
    u32::try_from(field_u64(v, key)?).ok()
}

fn field_u8(v: &Value, key: &str) -> Option<u8> {
    u8::try_from(field_u64(v, key)?).ok()
}

fn field_bool(v: &Value, key: &str) -> Option<bool> {
    match v.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Re-interns a parsed string against a known static vocabulary, so a
/// parsed event carries the same `&'static str` the recorder wrote.
fn intern(v: &Value, key: &str, table: &[&'static str]) -> Option<&'static str> {
    let s = v.get(key)?.as_str()?;
    table.iter().find(|t| **t == s).copied()
}

/// The service levels `evs-core` stamps into originations.
const SERVICES: &[&str] = &["causal", "agreed", "safe"];
/// The membership state names `evs-membership` records transitions with.
const MEMB_STATES: &[&str] = &["stable", "gather", "commit"];

/// Parses one event back from its [`event_to_json`] object. Returns
/// `None` on a missing/ill-typed field, an unknown `name`, or a string
/// field outside the known vocabulary.
pub fn event_from_json(v: &Value) -> Option<RecordedEvent> {
    let at = field_u64(v, "at")?;
    let name = v.get("name")?.as_str()?;
    let event = match name {
        names::TOKENS_RECEIVED => TelemetryEvent::TokenReceived {
            epoch: field_u64(v, "epoch")?,
            token_id: field_u64(v, "token_id")?,
            aru: field_u64(v, "aru")?,
        },
        names::TOKENS_FORWARDED => TelemetryEvent::TokenForwarded {
            epoch: field_u64(v, "epoch")?,
            token_id: field_u64(v, "token_id")?,
            to: field_u32(v, "to")?,
        },
        names::TOKEN_RETRANSMISSIONS => TelemetryEvent::TokenRetransmitted {
            epoch: field_u64(v, "epoch")?,
            token_id: field_u64(v, "token_id")?,
        },
        names::TOKEN_ROTATIONS => TelemetryEvent::TokenRotated {
            epoch: field_u64(v, "epoch")?,
            rotations: field_u64(v, "rotations")?,
        },
        names::RETRANSMISSIONS_SERVED => TelemetryEvent::RetransmissionsServed {
            epoch: field_u64(v, "epoch")?,
            count: field_u64(v, "count")?,
        },
        names::HOLES_REQUESTED => TelemetryEvent::HolesRequested {
            epoch: field_u64(v, "epoch")?,
            count: field_u64(v, "count")?,
        },
        names::SAFE_LINE_ADVANCES => TelemetryEvent::SafeLineAdvanced {
            epoch: field_u64(v, "epoch")?,
            safe_line: field_u64(v, "safe_line")?,
        },
        names::MEMBERSHIP_TRANSITIONS => TelemetryEvent::MembershipTransition {
            from: intern(v, "from", MEMB_STATES)?,
            to: intern(v, "to", MEMB_STATES)?,
        },
        names::CONFIGS_COMMITTED => TelemetryEvent::ConfigCommitted {
            epoch: field_u64(v, "epoch")?,
            rep: field_u32(v, "rep")?,
            members: field_u32(v, "members")?,
        },
        names::CONFIGS_INSTALLED => TelemetryEvent::ConfigInstalled {
            epoch: field_u64(v, "epoch")?,
            rep: field_u32(v, "rep")?,
            members: field_u32(v, "members")?,
        },
        names::MESSAGES_ORIGINATED => TelemetryEvent::MessageOriginated {
            sender: field_u32(v, "sender")?,
            counter: field_u64(v, "counter")?,
            service: intern(v, "service", SERVICES)?,
        },
        names::RECOVERY_STEPS_ENTERED => TelemetryEvent::RecoveryStepEntered {
            step: field_u8(v, "step")?,
            epoch: field_u64(v, "epoch")?,
        },
        names::RECOVERY_STEP_MARKS => TelemetryEvent::RecoveryStepReached {
            step: field_u8(v, "step")?,
            epoch: field_u64(v, "epoch")?,
        },
        names::RECOVERY_STEPS_EXITED => TelemetryEvent::RecoveryStepExited {
            step: field_u8(v, "step")?,
            epoch: field_u64(v, "epoch")?,
        },
        names::OBLIGATION_SET_SAMPLES => TelemetryEvent::ObligationSetSize {
            size: field_u32(v, "size")?,
        },
        names::STORAGE_RECOVERIES => TelemetryEvent::StorageRecovered {
            records: field_u64(v, "records")?,
            snapshot: field_bool(v, "snapshot")?,
            wal: field_bool(v, "wal")?,
        },
        names::LINK_DROPS => TelemetryEvent::LinkPacketDropped {
            from: field_u32(v, "from")?,
            to: field_u32(v, "to")?,
        },
        names::LINK_DELAYS => TelemetryEvent::LinkPacketDelayed {
            from: field_u32(v, "from")?,
            to: field_u32(v, "to")?,
            ticks: field_u64(v, "ticks")?,
        },
        names::LINK_DUPLICATES => TelemetryEvent::LinkPacketDuplicated {
            from: field_u32(v, "from")?,
            to: field_u32(v, "to")?,
        },
        names::BROKER_SESSIONS => TelemetryEvent::SessionOpened {
            broker: field_u32(v, "broker")?,
            client: field_u64(v, "client")?,
        },
        names::BROKER_BATCHES_FLUSHED => TelemetryEvent::BatchFlushed {
            broker: field_u32(v, "broker")?,
            ops: field_u32(v, "ops")?,
            bytes: field_u64(v, "bytes")?,
        },
        names::BROKER_BACKPRESSURE => TelemetryEvent::BackpressureSignaled {
            broker: field_u32(v, "broker")?,
            client: field_u64(v, "client")?,
        },
        names::BROKER_RECONNECTS => TelemetryEvent::BrokerReattached {
            broker: field_u32(v, "broker")?,
            to: field_u32(v, "to")?,
            resubmitted: field_u64(v, "resubmitted")?,
        },
        names::CHAOS_RUNS => TelemetryEvent::ChaosRunExecuted {
            seed: field_u64(v, "seed")?,
            steps: field_u32(v, "steps")?,
            failed: field_bool(v, "failed")?,
        },
        names::CHAOS_VIOLATIONS => TelemetryEvent::ChaosViolationFound {
            seed: field_u64(v, "seed")?,
            specs: field_u32(v, "specs")?,
        },
        names::CHAOS_SHRINKS => TelemetryEvent::ChaosPlanShrunk {
            from_steps: field_u32(v, "from_steps")?,
            to_steps: field_u32(v, "to_steps")?,
            checks: field_u32(v, "checks")?,
        },
        names::CHAOS_PROGRESS => TelemetryEvent::ChaosProgress {
            done: field_u64(v, "done")?,
            total: field_u64(v, "total")?,
            failures: field_u64(v, "failures")?,
        },
        _ => return None,
    };
    Some(RecordedEvent { at, event })
}

/// Serializes one process's flight dump as a JSON document.
pub fn dump_to_json(pid: u32, dump: &[RecordedEvent]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"pid\":{pid},\"events\":[");
    for (i, rec) in dump.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&event_to_json(rec));
    }
    out.push_str("]}");
    out
}

/// Parses a document back from [`dump_to_json`] output.
pub fn dump_from_json(doc: &str) -> Option<(u32, Vec<RecordedEvent>)> {
    let v = json::parse(doc).ok()?;
    let pid = field_u32(&v, "pid")?;
    let events = v
        .get("events")?
        .as_array()?
        .iter()
        .map(event_from_json)
        .collect::<Option<Vec<_>>>()?;
    Some((pid, events))
}

/// The file name a process's post-mortem dump is written under.
pub fn dump_file_name(pid: u32) -> String {
    format!("evs-dump-p{pid}.json")
}

/// Writes one `evs-dump-p<pid>.json` per `(pid, dump)` pair into `dir`
/// (created if absent). Returns the paths written.
pub fn write_dumps(dir: &Path, dumps: &[(u32, Vec<RecordedEvent>)]) -> io::Result<Vec<PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(dumps.len());
    for (pid, dump) in dumps {
        let path = dir.join(dump_file_name(*pid));
        fs::write(&path, dump_to_json(*pid, dump))?;
        paths.push(path);
    }
    Ok(paths)
}

/// Loads every `evs-dump-p*.json` in `dir` back into `(pid, dump)` pairs
/// sorted by pid — the exact shape
/// [`InspectReport::analyze`](crate::InspectReport::analyze) and
/// [`Timeline::merge`](crate::Timeline::merge) ingest. A file that fails
/// to parse is an [`io::ErrorKind::InvalidData`] error naming the file;
/// files outside the naming convention are ignored.
pub fn load_dumps(dir: &Path) -> io::Result<Vec<(u32, Vec<RecordedEvent>)>> {
    let mut dumps = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !(name.starts_with("evs-dump-p") && name.ends_with(".json")) {
            continue;
        }
        let doc = fs::read_to_string(&path)?;
        let parsed = dump_from_json(&doc).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a flight-recorder dump", path.display()),
            )
        })?;
        dumps.push(parsed);
    }
    dumps.sort_by_key(|(pid, _)| *pid);
    Ok(dumps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InspectReport;
    use evs_core::Trace;

    /// One instance of every variant, so the round-trip test breaks the
    /// moment a new variant is added without a serialization arm.
    fn every_event() -> Vec<RecordedEvent> {
        let events = vec![
            TelemetryEvent::TokenReceived {
                epoch: 1,
                token_id: 2,
                aru: 3,
            },
            TelemetryEvent::TokenForwarded {
                epoch: 1,
                token_id: 2,
                to: 4,
            },
            TelemetryEvent::TokenRetransmitted {
                epoch: 1,
                token_id: 2,
            },
            TelemetryEvent::TokenRotated {
                epoch: 1,
                rotations: 7,
            },
            TelemetryEvent::RetransmissionsServed { epoch: 1, count: 5 },
            TelemetryEvent::HolesRequested { epoch: 1, count: 6 },
            TelemetryEvent::SafeLineAdvanced {
                epoch: 1,
                safe_line: 9,
            },
            TelemetryEvent::MembershipTransition {
                from: "stable",
                to: "gather",
            },
            TelemetryEvent::ConfigCommitted {
                epoch: 2,
                rep: 0,
                members: 3,
            },
            TelemetryEvent::ConfigInstalled {
                epoch: 2,
                rep: 0,
                members: 3,
            },
            TelemetryEvent::MessageOriginated {
                sender: 1,
                counter: 4,
                service: "agreed",
            },
            TelemetryEvent::RecoveryStepEntered { step: 2, epoch: 2 },
            TelemetryEvent::RecoveryStepReached { step: 4, epoch: 2 },
            TelemetryEvent::RecoveryStepExited { step: 6, epoch: 2 },
            TelemetryEvent::ObligationSetSize { size: 5 },
            TelemetryEvent::StorageRecovered {
                records: 12,
                snapshot: true,
                wal: true,
            },
            TelemetryEvent::LinkPacketDropped { from: 0, to: 1 },
            TelemetryEvent::LinkPacketDelayed {
                from: 0,
                to: 1,
                ticks: 3,
            },
            TelemetryEvent::LinkPacketDuplicated { from: 0, to: 1 },
            TelemetryEvent::SessionOpened {
                broker: 0,
                client: 1_000_001,
            },
            TelemetryEvent::BatchFlushed {
                broker: 0,
                ops: 512,
                bytes: 40_960,
            },
            TelemetryEvent::BackpressureSignaled {
                broker: 0,
                client: 1_000_001,
            },
            TelemetryEvent::BrokerReattached {
                broker: 0,
                to: 2,
                resubmitted: 17,
            },
            TelemetryEvent::ChaosRunExecuted {
                seed: 42,
                steps: 6,
                failed: false,
            },
            TelemetryEvent::ChaosViolationFound { seed: 42, specs: 2 },
            TelemetryEvent::ChaosPlanShrunk {
                from_steps: 9,
                to_steps: 2,
                checks: 30,
            },
            TelemetryEvent::ChaosProgress {
                done: 10,
                total: 100,
                failures: 1,
            },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| RecordedEvent {
                at: i as u64,
                event,
            })
            .collect()
    }

    #[test]
    fn every_variant_round_trips() {
        let dump = every_event();
        let doc = dump_to_json(7, &dump);
        let (pid, back) = dump_from_json(&doc).expect("parse back");
        assert_eq!(pid, 7);
        assert_eq!(back, dump);
    }

    #[test]
    fn unknown_vocabulary_is_rejected_not_leaked() {
        let doc = "{\"pid\":0,\"events\":[{\"at\":1,\"name\":\"messages_originated\",\
                   \"sender\":0,\"counter\":1,\"service\":\"express\"}]}";
        assert!(dump_from_json(doc).is_none());
        let doc = "{\"pid\":0,\"events\":[{\"at\":1,\"name\":\"no_such_event\"}]}";
        assert!(dump_from_json(doc).is_none());
    }

    #[test]
    fn directory_round_trip_feeds_analyze() {
        let dir = std::env::temp_dir().join(format!("evs-dump-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let dumps = vec![(0u32, every_event()), (1u32, every_event())];
        let paths = write_dumps(&dir, &dumps).expect("write");
        assert_eq!(paths.len(), 2);
        // An unrelated file in the directory does not break ingestion.
        fs::write(dir.join("notes.txt"), "not a dump").unwrap();
        let back = load_dumps(&dir).expect("load");
        assert_eq!(back, dumps);
        let report = InspectReport::analyze(&Trace::default(), &back);
        assert_eq!(report.timeline.processes, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_dump_file_is_invalid_data() {
        let dir = std::env::temp_dir().join(format!("evs-dump-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("evs-dump-p0.json"), "{\"pid\":0}").unwrap();
        let err = load_dumps(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }
}
