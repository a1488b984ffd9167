//! Every decoder that reads bytes from outside the process is total.
//!
//! Datagrams arrive from the network, WAL segments and snapshots from a
//! disk that may have been rewritten underneath the process, scrapes over
//! UDP, and baselines, traces and flight dumps from files. For each
//! decoder in [`DECODERS`], on arbitrary bytes and on mutated valid
//! encodings:
//!
//! * it returns a value or a typed error, and never panics;
//! * its heap high-water mark stays within a constant multiple of the
//!   input's length: [`BINARY_C`] bytes per input byte for the binary
//!   codecs, [`TEXT_C`] for the text formats, whose values are trees;
//! * every input a canonical format accepts re-encodes to exactly itself,
//!   and every valid encoding decodes back to the value it encodes.
//!
//! The one bounded exception is `Exchange.received`: a 16-byte run may
//! stand for up to [`MAX_RECEIVED`] ordinals by design, so an exchange
//! frame is allowed that many ordinals on top of its constant, and
//! `a_maximal_exchange_stays_within_its_ordinal_allowance` pins it.

use evs_broker::proto::{self, BatchEntry};
use evs_core::codec::DecodeError;
use evs_core::persist::{Checkpoint, WalRecord};
use evs_core::recovery::ExchangeState;
use evs_core::{trace_io, wire, Configuration, EvsEvent, EvsMsg, Payload, Trace};
use evs_membership::{ConfigId, MembMsg};
use evs_order::{MessageId, OrderedMsg, RingMsg, Service, Token};
use evs_sim::{ProcessId, SimTime};
use evs_telemetry::{Exposition, Phase, PhaseClock, RecordedEvent, Telemetry, TelemetryEvent};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Heap bytes a binary decoder may hold per input byte.
const BINARY_C: usize = 16;
/// Heap bytes a text decoder may hold per input byte (plus one byte's
/// worth, for the error message an empty input earns).
const TEXT_C: usize = 160;
/// The most ordinals one `Exchange.received` may list (`wire`'s cap).
const MAX_RECEIVED: usize = 1 << 20;
/// Heap bytes one `Exchange.received` ordinal may cost in its set.
const ORDINAL_BYTES: usize = 32;

// --- the heap high-water mark, per thread ----------------------------------

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(n: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + n);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(n: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(n)));
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, unchanged; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and asserts that the heap it holds at its high-water mark —
/// its result included — stays within `allowed` bytes.
fn bounded<T>(name: &str, input_len: usize, allowed: usize, f: impl FnOnce() -> T) -> T {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get) - start;
    assert!(
        peak <= allowed,
        "{name}: {peak} heap bytes for a {input_len}-byte input, over its {allowed}"
    );
    out
}

fn binary<T>(name: &str, input: &[u8], f: impl FnOnce() -> T) -> T {
    bounded(name, input.len(), BINARY_C * input.len(), f)
}

fn text<T>(name: &str, input: &str, f: impl FnOnce() -> T) -> T {
    bounded(name, input.len(), TEXT_C * (input.len() + 1), f)
}

// --- the decoders ------------------------------------------------------------

/// What one decoder made of one input.
enum Verdict {
    Rejected,
    /// Accepted; for a canonical format, the value re-encoded.
    Accepted(Option<Vec<u8>>),
}

fn canonical<T>(decoded: Option<T>, encode: impl FnOnce(T) -> Vec<u8>) -> Verdict {
    decoded.map_or(Verdict::Rejected, |v| Verdict::Accepted(Some(encode(v))))
}

fn accepted<T>(decoded: Option<T>) -> Verdict {
    decoded.map_or(Verdict::Rejected, |_| Verdict::Accepted(None))
}

/// How the harness turns raw bytes into one decoder's input.
#[derive(Clone, Copy)]
enum Form {
    /// As they are.
    Bytes,
    /// As UTF-8 (invalid sequences replaced): the text parsers take `&str`.
    Text,
    /// As a record body sealed with a valid integrity word, so damage
    /// reaches the structural parse behind the seal.
    Sealed,
}

struct Decoder {
    name: &'static str,
    form: Form,
    /// Decodes a prepared input under its heap bound.
    run: fn(&[u8]) -> Verdict,
    /// Valid encodings (record bodies, for [`Form::Sealed`]).
    corpus: fn() -> Vec<Vec<u8>>,
}

const DECODERS: &[Decoder] = &[
    Decoder {
        name: "wire::decode",
        form: Form::Bytes,
        run: wire_decode,
        corpus: wire_corpus,
    },
    Decoder {
        name: "wire::unpack_frames",
        form: Form::Bytes,
        run: wire_unpack,
        corpus: datagram_corpus,
    },
    Decoder {
        name: "WalRecord::decode",
        form: Form::Bytes,
        run: wal_record,
        corpus: wal_corpus,
    },
    Decoder {
        name: "WalRecord::decode, re-sealed",
        form: Form::Sealed,
        run: wal_record,
        corpus: || wal_corpus().into_iter().map(unsealed).collect(),
    },
    Decoder {
        name: "Checkpoint::decode",
        form: Form::Bytes,
        run: checkpoint,
        corpus: checkpoint_corpus,
    },
    Decoder {
        name: "Checkpoint::decode, re-sealed",
        form: Form::Sealed,
        run: checkpoint,
        corpus: || checkpoint_corpus().into_iter().map(unsealed).collect(),
    },
    Decoder {
        name: "proto::decode_batch",
        form: Form::Bytes,
        run: broker_batch,
        corpus: || vec![proto::encode_batch(7, &batch_entries()).to_vec()],
    },
    Decoder {
        name: "proto::decode_submit",
        form: Form::Bytes,
        run: broker_submit,
        corpus: || vec![proto::encode_submit(42, b"balance?")],
    },
    Decoder {
        name: "proto::decode_reply",
        form: Form::Bytes,
        run: broker_reply,
        corpus: || vec![proto::encode_reply(42, 9)],
    },
    Decoder {
        name: "evs_store::scan_records",
        form: Form::Bytes,
        run: store_scan,
        corpus: store_corpus,
    },
    Decoder {
        name: "Exposition::parse",
        form: Form::Text,
        run: exposition,
        corpus: || vec![exposition_sample().to_text().into_bytes()],
    },
    Decoder {
        name: "trace_io::parse_trace",
        form: Form::Text,
        run: trace,
        corpus: || vec![trace_io::format_trace(&trace_sample()).into_bytes()],
    },
    Decoder {
        name: "trace_io::parse_postmortem",
        form: Form::Text,
        run: postmortem,
        corpus: || vec![trace_io::format_postmortem(&trace_sample(), &dumps_sample()).into_bytes()],
    },
];

fn wire_decode(input: &[u8]) -> Verdict {
    let ordinals = if input.first() == Some(&3) {
        ORDINAL_BYTES * MAX_RECEIVED
    } else {
        0
    };
    let allowed = BINARY_C * input.len() + ordinals;
    let decoded = bounded("wire::decode", input.len(), allowed, || wire::decode(input));
    if let Ok(EvsMsg::Exchange(e)) = &decoded {
        assert!(e.received.len() <= MAX_RECEIVED);
    }
    canonical(decoded.ok(), |f| wire::encode(&f))
}

fn wire_unpack(input: &[u8]) -> Verdict {
    let frames = binary("wire::unpack_frames", input, || wire::unpack_frames(input));
    canonical(frames.ok(), wire::pack_frames)
}

fn wal_record(input: &[u8]) -> Verdict {
    let record = binary("WalRecord::decode", input, || WalRecord::decode(input));
    canonical(record, |r| {
        let mut out = Vec::new();
        r.encode(&mut out);
        out
    })
}

fn checkpoint(input: &[u8]) -> Verdict {
    let cp = binary("Checkpoint::decode", input, || Checkpoint::decode(input));
    canonical(cp, |cp| {
        let mut out = Vec::new();
        cp.encode(&mut out);
        out
    })
}

fn broker_batch(input: &[u8]) -> Verdict {
    let batch = binary("proto::decode_batch", input, || proto::decode_batch(input));
    canonical(batch, |(broker, entries)| {
        let owned: Vec<BatchEntry> = entries
            .iter()
            .map(|e| BatchEntry {
                client: e.client,
                seq: e.seq,
                op: Payload::from(e.op),
            })
            .collect();
        proto::encode_batch(broker, &owned).to_vec()
    })
}

fn broker_submit(input: &[u8]) -> Verdict {
    let submit = binary("proto::decode_submit", input, || {
        proto::decode_submit(input)
    });
    canonical(submit, |(client, op)| proto::encode_submit(client, op))
}

fn broker_reply(input: &[u8]) -> Verdict {
    let reply = binary("proto::decode_reply", input, || proto::decode_reply(input));
    canonical(reply, |(client, seq)| proto::encode_reply(client, seq))
}

/// Scanning never fails; an input counts as accepted when it is nothing
/// but clean frames.
fn store_scan(input: &[u8]) -> Verdict {
    let scan = binary("evs_store::scan_records", input, || {
        evs_store::scan_records(input)
    });
    canonical((scan.clean_len == input.len()).then_some(scan), |scan| {
        let mut out = Vec::new();
        for r in &scan.records {
            evs_store::encode_record(r, &mut out);
        }
        out
    })
}

fn utf8(input: &[u8]) -> &str {
    std::str::from_utf8(input).expect("prepared as text")
}

fn exposition(input: &[u8]) -> Verdict {
    let doc = utf8(input);
    let expo = text("Exposition::parse", doc, || Exposition::parse(doc));
    canonical(expo.ok(), |e| e.to_text().into_bytes())
}

fn trace(input: &[u8]) -> Verdict {
    let doc = utf8(input);
    accepted(text("trace_io::parse_trace", doc, || trace_io::parse_trace(doc)).ok())
}

fn postmortem(input: &[u8]) -> Verdict {
    let doc = utf8(input);
    accepted(
        text("trace_io::parse_postmortem", doc, || {
            trace_io::parse_postmortem(doc)
        })
        .ok(),
    )
}

// --- valid encodings ------------------------------------------------------------

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn frames() -> Vec<EvsMsg<Payload>> {
    let c = ConfigId::regular(4, p(1));
    let msg = |seq: u64, payload: &[u8]| OrderedMsg {
        config: c,
        seq,
        id: MessageId::new(p(2), seq),
        service: Service::Safe,
        payload: Payload::from(payload),
    };
    vec![
        EvsMsg::Memb(MembMsg::Heartbeat { config: c }),
        EvsMsg::Memb(MembMsg::Join {
            candidates: BTreeSet::from([p(0), p(2)]),
            max_epoch: 3,
        }),
        EvsMsg::Memb(MembMsg::Commit {
            config: c,
            members: vec![p(0), p(2)],
        }),
        EvsMsg::Memb(MembMsg::Ack { config: c }),
        EvsMsg::Memb(MembMsg::Install { config: c }),
        EvsMsg::Ring(RingMsg::Data(msg(1, b"payload"))),
        EvsMsg::Ring(RingMsg::Batch(vec![msg(2, b"ab"), msg(3, b"")])),
        EvsMsg::Ring(RingMsg::Token(Token {
            config: c,
            token_id: 9,
            seq: 3,
            aru: 2,
            aru_id: Some(p(1)),
            rtr: vec![1, 2],
            rotation: 5,
        })),
        EvsMsg::Exchange(exchange(2, BTreeSet::from([3, 4, 7]))),
        EvsMsg::Rebroadcast {
            proposal: c,
            msg: msg(4, b"x"),
        },
        EvsMsg::RecoveryAck { proposal: c },
        EvsMsg::Ring(RingMsg::Wake(c)),
        EvsMsg::Ring(RingMsg::Wake(ConfigId::transitional(u64::MAX, p(u32::MAX)))),
        // Every LEB128 field of the token at its widest.
        EvsMsg::Ring(RingMsg::Token(Token {
            config: ConfigId::regular(u64::MAX, p(u32::MAX)),
            token_id: u64::MAX,
            seq: u64::MAX,
            aru: 0,
            aru_id: Some(p(u32::MAX)),
            rtr: vec![0, u64::MAX],
            rotation: u64::MAX,
        })),
        // Every LEB128 field of the data frames at its widest: a 10-byte
        // `seq` step and counter, a `u32::MAX` sender beside a small one.
        EvsMsg::Ring(RingMsg::Batch(vec![
            wide(1, p(u32::MAX), u64::MAX),
            wide(u64::MAX, p(0), 0),
        ])),
        EvsMsg::Rebroadcast {
            proposal: ConfigId::transitional(u64::MAX, p(u32::MAX)),
            msg: wide(u64::MAX, p(u32::MAX), u64::MAX),
        },
    ]
}

/// A message of the widest configuration.
fn wide(seq: u64, sender: ProcessId, counter: u64) -> OrderedMsg<Payload> {
    OrderedMsg {
        config: ConfigId::regular(u64::MAX, p(u32::MAX)),
        seq,
        id: MessageId::new(sender, counter),
        service: Service::Agreed,
        payload: Payload::from(b"w"),
    }
}

fn exchange(floor: u64, received: BTreeSet<u64>) -> ExchangeState {
    ExchangeState {
        proposal: ConfigId::regular(5, p(0)),
        sender: p(1),
        last_regular: ConfigId::regular(4, p(0)),
        floor,
        received,
        high_seen: 7,
        safe_line: 2,
        obligations: BTreeSet::from([p(1)]),
    }
}

fn wire_corpus() -> Vec<Vec<u8>> {
    frames().iter().map(wire::encode).collect()
}

fn datagram_corpus() -> Vec<Vec<u8>> {
    let frames = wire_corpus();
    vec![
        Vec::new(),
        wire::pack_frames(&frames[..2]),
        wire::pack_frames(&frames),
    ]
}

fn records() -> Vec<WalRecord> {
    vec![
        WalRecord::Lease(1024),
        WalRecord::Sent {
            counter: 7,
            epoch: 3,
            rep: 1,
            seq: 42,
        },
        WalRecord::ConfDelivered {
            epoch: 9,
            rep: 0,
            transitional: true,
        },
        WalRecord::Obligations(vec![0, 2, 5]),
        WalRecord::Cut {
            epoch: 9,
            rep: 0,
            transitional: false,
            seq: 17,
        },
        WalRecord::Epoch(12),
        WalRecord::FailMark {
            epoch: 9,
            rep: 0,
            msg_counter: 55,
            max_epoch: 12,
        },
    ]
}

fn wal_corpus() -> Vec<Vec<u8>> {
    records()
        .iter()
        .map(|r| {
            let mut out = Vec::new();
            r.encode(&mut out);
            out
        })
        .collect()
}

fn checkpoints() -> [Checkpoint; 2] {
    let two_field = Checkpoint {
        msg_counter: 2048,
        max_epoch: 17,
        installed: None,
    };
    let three_field = Checkpoint {
        installed: Some(ConfigId::transitional(7, p(2))),
        ..two_field
    };
    [two_field, three_field]
}

fn checkpoint_corpus() -> Vec<Vec<u8>> {
    checkpoints()
        .iter()
        .map(|cp| {
            let mut out = Vec::new();
            cp.encode(&mut out);
            out
        })
        .collect()
}

/// `body` followed by the persistence layer's integrity word (FNV-1a).
fn sealed(body: &[u8]) -> Vec<u8> {
    let word = body.iter().fold(0x811C_9DC5u32, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    });
    let mut out = body.to_vec();
    out.extend_from_slice(&word.to_le_bytes());
    out
}

fn unsealed(mut record: Vec<u8>) -> Vec<u8> {
    record.truncate(record.len() - 4);
    record
}

fn batch_entries() -> Vec<BatchEntry> {
    vec![
        BatchEntry {
            client: 1,
            seq: 1,
            op: Payload::from(b"credit 40"),
        },
        BatchEntry {
            client: 900_007,
            seq: 3,
            op: Payload::new(),
        },
    ]
}

fn store_corpus() -> Vec<Vec<u8>> {
    let mut log = Vec::new();
    for record in wal_corpus() {
        evs_store::encode_record(&record, &mut log);
    }
    let mut one = Vec::new();
    evs_store::encode_record(b"x", &mut one);
    vec![log, one]
}

fn telemetry_sample() -> Telemetry {
    let t = Telemetry::enabled(3);
    t.counter("messages_sent").add(17);
    t.gauge("obligation_set_size").set(-2);
    t.log_histogram("wal_sync_ns").observe(31_000);
    let mut clock = PhaseClock::new(&t);
    clock.mark(Phase::Park);
    clock.mark(Phase::Dispatch);
    t
}

fn exposition_sample() -> Exposition {
    let info = [
        ("role".to_string(), "daemon".to_string()),
        ("members".to_string(), "P0 P1 P2".to_string()),
    ];
    Exposition::from_telemetry(9, &telemetry_sample(), info).expect("enabled")
}

fn trace_sample() -> Trace {
    let c = ConfigId::regular(1, p(0));
    let id = MessageId::new(p(0), 1);
    let at = SimTime::from_ticks;
    Trace::new(vec![
        vec![
            (
                at(5),
                EvsEvent::DeliverConf(Configuration::new(c, vec![p(0), p(1)])),
            ),
            (
                at(9),
                EvsEvent::Send {
                    id,
                    config: c,
                    service: Service::Safe,
                },
            ),
            (
                at(12),
                EvsEvent::Deliver {
                    id,
                    config: c,
                    service: Service::Safe,
                    seq: 1,
                },
            ),
        ],
        vec![(at(30), EvsEvent::Fail { config: c })],
    ])
}

/// One event of every telemetry kind, in [`TelemetryEvent::KIND_NAMES`]
/// order; `every_telemetry_kind_round_trips` fails if a kind is missing.
fn every_telemetry_kind() -> Vec<RecordedEvent> {
    use TelemetryEvent::*;
    let events = [
        TokenReceived {
            epoch: 1,
            token_id: 2,
            aru: 3,
        },
        TokenForwarded {
            epoch: 1,
            token_id: 2,
            to: 4,
        },
        TokenRetransmitted {
            epoch: 1,
            token_id: 2,
        },
        TokenRotated {
            epoch: 1,
            rotations: 7,
        },
        RetransmissionsServed { epoch: 1, count: 5 },
        HolesRequested { epoch: 1, count: 6 },
        SafeLineAdvanced {
            epoch: 1,
            safe_line: 9,
        },
        MembershipTransition {
            from: "gather",
            to: "commit",
        },
        ConfigCommitted {
            epoch: 2,
            rep: 0,
            members: 3,
        },
        ConfigInstalled {
            epoch: 2,
            rep: 0,
            members: 3,
        },
        MessageOriginated {
            sender: 0,
            counter: 1,
            service: "safe",
        },
        RecoveryStepEntered { step: 2, epoch: 2 },
        RecoveryStepReached { step: 3, epoch: 2 },
        RecoveryStepExited { step: 6, epoch: 2 },
        ObligationSetSize { size: 5 },
        StorageRecovered {
            records: 12,
            snapshot: true,
            wal: false,
        },
        LinkPacketDropped { from: 0, to: 1 },
        LinkPacketDelayed {
            from: 0,
            to: 1,
            ticks: 3,
        },
        LinkPacketDuplicated { from: 0, to: 1 },
        SessionOpened {
            broker: 0,
            client: u64::MAX,
        },
        BatchFlushed {
            broker: 0,
            ops: u32::MAX,
            bytes: 40_960,
        },
        BackpressureSignaled {
            broker: 0,
            client: 1_000_001,
        },
        BrokerReattached {
            broker: 0,
            to: 2,
            resubmitted: 17,
        },
        ChaosRunExecuted {
            seed: 42,
            steps: 6,
            failed: false,
        },
        ChaosViolationFound { seed: 42, specs: 2 },
        ChaosPlanShrunk {
            from_steps: 9,
            to_steps: 2,
            checks: 30,
        },
        ChaosProgress {
            done: 10,
            total: 100,
            failures: 1,
        },
    ];
    events
        .into_iter()
        .zip(1..)
        .map(|(event, at)| RecordedEvent { at, event })
        .collect()
}

/// Flight dumps beside [`trace_sample`]: every kind on process 1, and
/// one on a process the trace never reached.
fn dumps_sample() -> Vec<(u32, Vec<RecordedEvent>)> {
    let late = RecordedEvent {
        at: 40,
        event: TelemetryEvent::ObligationSetSize { size: 1 },
    };
    vec![(1, every_telemetry_kind()), (3, vec![late])]
}

// --- the harness -------------------------------------------------------------------

fn prepare(form: Form, raw: &[u8]) -> Vec<u8> {
    match form {
        Form::Bytes => raw.to_vec(),
        Form::Text => String::from_utf8_lossy(raw).into_owned().into_bytes(),
        Form::Sealed => sealed(raw),
    }
}

fn corpora() -> &'static [Vec<Vec<u8>>] {
    static CORPORA: OnceLock<Vec<Vec<Vec<u8>>>> = OnceLock::new();
    CORPORA.get_or_init(|| DECODERS.iter().map(|d| (d.corpus)()).collect())
}

/// Runs `d` on `raw`: bounded (inside `run`), and canonical when accepted.
fn check(d: &Decoder, raw: &[u8]) -> Verdict {
    let input = prepare(d.form, raw);
    let verdict = (d.run)(&input);
    if let Verdict::Accepted(Some(re)) = &verdict {
        assert!(
            *re == input,
            "{}: accepted {input:02x?} but re-encodes it as {re:02x?}",
            d.name
        );
    }
    verdict
}

/// One edit of a valid encoding: what a flaky medium, a torn write or a
/// hostile peer does to it.
fn mutate(bytes: &mut Vec<u8>, kind: u8, at: usize, value: u32) {
    let at = at % bytes.len().max(1);
    match kind {
        0 => {
            if let Some(b) = bytes.get_mut(at) {
                *b ^= 1 << (value % 8);
            }
        }
        1 => bytes.truncate(at),
        2 => bytes.insert(at.min(bytes.len()), value as u8),
        3 => {
            if at < bytes.len() {
                bytes.remove(at);
            }
        }
        // A hostile length or count, in either byte order.
        _ => {
            let word = [0, 1, 0xff, 0x00ff_ffff, 1 << 24, u32::MAX][value as usize % 6];
            let raw = if kind == 4 {
                word.to_le_bytes()
            } else {
                word.to_be_bytes()
            };
            for (k, b) in raw.into_iter().enumerate() {
                if let Some(slot) = bytes.get_mut(at + k) {
                    *slot = b;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_are_decoded_or_refused(
        raw in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        for d in DECODERS {
            check(d, &raw);
        }
    }

    #[test]
    fn mutated_encodings_are_decoded_or_refused(
        pick in any::<usize>(),
        edits in proptest::collection::vec((0u8..6, any::<usize>(), any::<u32>()), 1..4),
    ) {
        for (d, corpus) in DECODERS.iter().zip(corpora()) {
            let mut raw = corpus[pick % corpus.len()].clone();
            for &(kind, at, value) in &edits {
                mutate(&mut raw, kind, at, value);
            }
            check(d, &raw);
        }
    }
}

#[test]
fn every_valid_encoding_is_accepted_and_canonical() {
    for (d, corpus) in DECODERS.iter().zip(corpora()) {
        for raw in corpus {
            assert!(
                matches!(check(d, raw), Verdict::Accepted(_)),
                "{}: refused a valid encoding {raw:02x?}",
                d.name
            );
        }
    }
}

#[test]
fn decoding_inverts_encoding() {
    for (r, bytes) in records().into_iter().zip(wal_corpus()) {
        assert_eq!(WalRecord::decode(&bytes), Some(r));
    }
    for (cp, bytes) in checkpoints().into_iter().zip(checkpoint_corpus()) {
        assert_eq!(Checkpoint::decode(&bytes), Some(cp));
    }
    let entries = batch_entries();
    let batch = proto::encode_batch(7, &entries);
    let (broker, back) = proto::decode_batch(&batch).expect("batch");
    assert_eq!((broker, back.len()), (7, entries.len()));
    for (b, e) in back.iter().zip(&entries) {
        assert_eq!((b.client, b.seq, b.op), (e.client, e.seq, e.op.as_slice()));
    }
    let submit = proto::encode_submit(42, b"op");
    assert_eq!(proto::decode_submit(&submit), Some((42, &b"op"[..])));
    assert_eq!(
        proto::decode_reply(&proto::encode_reply(42, 9)),
        Some((42, 9))
    );
    let e = exchange(0, (1..=300).chain(302..=310).collect());
    let Ok(EvsMsg::Exchange(back)) = wire::decode(&wire::encode(&EvsMsg::Exchange(e.clone())))
    else {
        panic!("an exchange decodes as one");
    };
    assert_eq!(back, e);
    let expo = exposition_sample();
    assert_eq!(Exposition::parse(&expo.to_text()), Ok(expo));
    let t = trace_sample();
    let back = trace_io::parse_trace(&trace_io::format_trace(&t)).expect("trace");
    assert_eq!(back.events, t.events);
    let dumps = dumps_sample();
    let (back, back_dumps) =
        trace_io::parse_postmortem(&trace_io::format_postmortem(&t, &dumps)).expect("post-mortem");
    assert_eq!(&back.events[..t.num_processes()], &t.events[..]);
    assert_eq!(back_dumps, dumps);
}

/// A count prefix may not presize more than the bytes behind it can hold:
/// the batch tag, then a count of `MAX_LEN − 1` on an empty body.
#[test]
fn a_5_byte_batch_frame_reserves_nothing() {
    assert!(matches!(
        wire_decode(&[9, 0xff, 0xff, 0xff, 0x07]),
        Verdict::Rejected
    ));
}

/// The token of [`frames`], spelled field by field in its LEB128 layout:
/// tag, epoch, rep, transitional, token id, seq, seq − aru, aru id,
/// request count, requests as steps, rotation.
fn token_fields() -> Vec<Vec<u8>> {
    [
        &[2][..],
        &[4],
        &[1],
        &[0],
        &[9],
        &[3],
        &[1],
        &[1, 1],
        &[2],
        &[1, 1],
        &[5],
    ]
    .map(<[u8]>::to_vec)
    .to_vec()
}

#[test]
fn hostile_tokens_are_refused() {
    let token = |fields: &[Vec<u8>]| fields.concat();
    assert_eq!(
        token(&token_fields()),
        wire_corpus()[7],
        "the layout spelled"
    );
    let with = |i: usize, bytes: &[u8]| {
        let mut fields = token_fields();
        fields[i] = bytes.to_vec();
        token(&fields)
    };
    let mut eleven = vec![0x80; 10];
    eleven.push(1);
    let mut tenth_above_1 = vec![0xff; 9];
    tenth_above_1.push(2);
    let above_u32 = [0x80, 0x80, 0x80, 0x80, 0x10]; // 1 << 32
    let two_to_63 = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
    let u64_max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let bad = |what, tag| DecodeError::BadTag { what, tag };
    let leb = |tag| bad("canonical LEB128 u64", tag);
    let requests = bad("ascending retransmission requests", 0);
    let pid = bad("u32 process id", 0);
    for (why, frame, err) in [
        ("overlong varint", with(4, &[0x89, 0x00]), leb(0)),
        ("overlong zero", with(6, &[0x80, 0x00]), leb(0)),
        ("11-byte varint", with(4, &eleven), leb(0x80)),
        ("10th byte above 1", with(5, &tenth_above_1), leb(2)),
        (
            "seq − aru above seq",
            with(6, &[4]),
            bad("aru at or below seq", 0),
        ),
        (
            "request count beyond the input",
            with(8, &[0xc8, 0x01]),
            DecodeError::UnexpectedEof,
        ),
        (
            "request count of 2^63",
            with(8, &two_to_63),
            DecodeError::OversizedLength { len: 1 << 63 },
        ),
        ("repeated request", with(9, &[1, 0]), requests.clone()),
        (
            "request past u64::MAX",
            with(9, &[&u64_max[..], &[1]].concat()),
            requests,
        ),
        ("rep above u32::MAX", with(2, &above_u32), pid.clone()),
        (
            "aru id above u32::MAX",
            with(7, &[&[1][..], &above_u32].concat()),
            pid,
        ),
        (
            "truncated varint",
            [token(&token_fields()[..5]), vec![0x80]].concat(),
            DecodeError::UnexpectedEof,
        ),
    ] {
        assert!(
            matches!(wire_decode(&frame), Verdict::Rejected),
            "{why}: {frame:02x?}"
        );
        assert_eq!(wire::decode(&frame).err(), Some(err), "{why}");
    }
}

/// One byte a request is the densest a token gets, and a request list
/// costs 8 heap bytes an entry, so even a token of nothing but requests
/// stays within the binary bound.
#[test]
fn a_token_of_one_byte_requests_stays_within_its_bound() {
    let mut fields = token_fields();
    fields[8] = vec![0xe8, 0x07]; // 1000
    fields[9] = vec![1; 1000];
    let frame = fields.concat();
    assert!(matches!(wire_decode(&frame), Verdict::Accepted(Some(_))));
}

/// The batch of [`frames`], spelled field by field in its LEB128 layout:
/// tag, count, epoch, rep, transitional, then per message its `seq` step,
/// sender, counter, service, payload length and payload.
fn batch_fields() -> Vec<Vec<u8>> {
    [
        &[9][..],
        &[2],
        &[4],
        &[1],
        &[0],
        &[2],
        &[2],
        &[2],
        &[2],
        &[2],
        b"ab",
        &[1],
        &[2],
        &[3],
        &[2],
        &[0],
    ]
    .map(<[u8]>::to_vec)
    .to_vec()
}

/// The fields of [`batch_fields`] that are varints.
const BATCH_VARINTS: [usize; 11] = [1, 2, 3, 5, 6, 7, 9, 11, 12, 13, 15];

/// The data frame of [`frames`], spelled likewise: tag, epoch, rep,
/// transitional, `seq` (a step from 0), sender, counter, service, payload
/// length, payload.
fn data_fields() -> Vec<Vec<u8>> {
    [
        &[7][..],
        &[4],
        &[1],
        &[0],
        &[1],
        &[2],
        &[1],
        &[2],
        &[7],
        b"payload",
    ]
    .map(<[u8]>::to_vec)
    .to_vec()
}

/// The rebroadcast of [`frames`], spelled likewise: tag, the proposal's
/// epoch, rep and flag, then the message's configuration and fields.
fn rebroadcast_fields() -> Vec<Vec<u8>> {
    [
        &[8][..],
        &[4],
        &[1],
        &[0],
        &[4],
        &[1],
        &[0],
        &[4],
        &[2],
        &[4],
        &[2],
        &[1],
        b"x",
    ]
    .map(<[u8]>::to_vec)
    .to_vec()
}

#[test]
fn hostile_data_frames_are_refused() {
    let corpus = wire_corpus();
    for (fields, at, name) in [
        (batch_fields(), 6, "batch"),
        (data_fields(), 5, "data"),
        (rebroadcast_fields(), 9, "rebroadcast"),
    ] {
        assert_eq!(fields.concat(), corpus[at], "the {name} layout spelled");
    }
    let with = |fields: Vec<Vec<u8>>, i: usize, bytes: &[u8]| {
        let mut fields = fields;
        fields[i] = bytes.to_vec();
        fields.concat()
    };
    let batch = |i, bytes: &[u8]| with(batch_fields(), i, bytes);
    let two_to_63 = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
    let u64_max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    let above_u32 = [0x80, 0x80, 0x80, 0x80, 0x10]; // 1 << 32
    let bad = |what, tag| DecodeError::BadTag { what, tag };
    let leb = bad("canonical LEB128 u64", 0);
    let seq = bad("ascending seq", 0);
    let pid = bad("u32 process id", 0);
    // The same value spelled one byte longer than it must be.
    let overlong = |field: &[u8]| vec![field[0] | 0x80, 0x00];
    let mut cases: Vec<(String, Vec<u8>, DecodeError)> = Vec::new();
    for i in BATCH_VARINTS {
        let frame = batch(i, &overlong(&batch_fields()[i]));
        cases.push((format!("overlong batch field {i}"), frame, leb.clone()));
    }
    for i in [1, 2, 4, 5, 6, 8] {
        let frame = with(data_fields(), i, &overlong(&data_fields()[i]));
        cases.push((format!("overlong data field {i}"), frame, leb.clone()));
    }
    for i in [1, 2, 4, 5, 7, 8, 9, 11] {
        let frame = with(rebroadcast_fields(), i, &overlong(&rebroadcast_fields()[i]));
        cases.push((
            format!("overlong rebroadcast field {i}"),
            frame,
            leb.clone(),
        ));
    }
    let old = |hex: &str| -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect()
    };
    for (why, frame, err) in [
        ("a first seq of 0", batch(5, &[0]), seq.clone()),
        ("a seq step of 0", batch(11, &[0]), seq.clone()),
        (
            "a seq step past u64::MAX",
            batch(11, &u64_max),
            seq.clone(),
        ),
        ("a lone message's seq of 0", with(data_fields(), 4, &[0]), seq),
        (
            "a count beyond the input",
            batch(1, &[0xc8, 0x01]),
            DecodeError::UnexpectedEof,
        ),
        (
            "a count of 2^63",
            batch(1, &two_to_63),
            DecodeError::OversizedLength { len: 1 << 63 },
        ),
        ("a sender above u32::MAX", batch(12, &above_u32), pid.clone()),
        ("a rep above u32::MAX", batch(3, &above_u32), pid),
        (
            "a payload length past the frame",
            batch(15, &[1]),
            DecodeError::UnexpectedEof,
        ),
        (
            "a truncated varint",
            [batch_fields()[..7].concat(), vec![0x80]].concat(),
            DecodeError::UnexpectedEof,
        ),
        // The fixed-width layout's vectors, as its build wrote them.
        (
            "a fixed-width data frame",
            old("012a0000000000000003000000000700000000000000020000006a00000000000000020500000068656c6c6f"),
            bad("EvsMsg", 1),
        ),
        (
            "a fixed-width batch",
            old("06020000002a0000000000000003000000000800000000000000020000006b00000000000000010200000061622a0000000000000003000000000900000000000000020000006c000000000000000000000000"),
            bad("EvsMsg", 6),
        ),
        (
            "a fixed-width rebroadcast",
            old("042b0000000000000001000000012a0000000000000003000000000500000000000000020000006800000000000000010100000078"),
            bad("EvsMsg", 4),
        ),
    ] {
        cases.push((why.to_string(), frame, err));
    }
    for (why, frame, err) in cases {
        assert!(
            matches!(wire_decode(&frame), Verdict::Rejected),
            "{why}: {frame:02x?}"
        );
        assert_eq!(wire::decode(&frame).err(), Some(err), "{why}");
    }
}

/// Five bytes a message is the densest a batch gets, and a decoded
/// message costs 72 heap bytes, so even a batch of nothing but empty
/// messages stays within the binary bound.
#[test]
fn a_batch_of_5_byte_messages_stays_within_its_bound() {
    let mut frame = vec![9, 0xe8, 0x07, 4, 1, 0]; // 1000 messages
    for _ in 0..1000 {
        frame.extend_from_slice(&[1, 0, 0, 0, 0]);
    }
    assert!(matches!(wire_decode(&frame), Verdict::Accepted(Some(_))));
}

#[test]
fn a_19_byte_commit_reserves_nothing() {
    let ack = wire::encode(&EvsMsg::RecoveryAck {
        proposal: ConfigId::regular(1, p(0)),
    });
    let mut frame = vec![0, 2];
    frame.extend_from_slice(&ack[1..]);
    frame.extend_from_slice(&[0xff, 0xff, 0xff, 0x00]);
    assert_eq!(frame.len(), 19);
    assert!(matches!(wire_decode(&frame), Verdict::Rejected));
}

#[test]
fn a_resealed_9_byte_obligations_body_reserves_nothing() {
    let body = [4, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0];
    assert!(matches!(wal_record(&sealed(&body)), Verdict::Rejected));
}

#[test]
fn a_strict_bool_refuses_every_other_byte() {
    let conf = unsealed(wal_corpus()[2].clone());
    for flag in 2..=255u8 {
        let mut body = conf.clone();
        *body.last_mut().expect("a flag") = flag;
        assert!(matches!(wal_record(&sealed(&body)), Verdict::Rejected));
    }
}

#[test]
fn an_exposition_with_extra_fields_is_refused() {
    let text = exposition_sample().to_text();
    for (from, to) in [
        ("pid 3\n", "pid 3 junk\n"),
        ("seq 9\n", "seq 9\n\n"),
        ("\nend\n", "\nend\nend\n"),
    ] {
        assert!(
            Exposition::parse(&text.replacen(from, to, 1)).is_err(),
            "{to:?}"
        );
    }
    let hist = text.lines().find(|l| l.starts_with("hist ")).expect("hist");
    let extra = text.replacen(hist, &format!("{hist} 7"), 1);
    assert!(Exposition::parse(&extra).is_err());
}

#[test]
fn every_telemetry_kind_round_trips() {
    let sample = every_telemetry_kind();
    let names: Vec<&str> = sample.iter().map(|rec| rec.event.name()).collect();
    assert_eq!(names, TelemetryEvent::KIND_NAMES, "one sample per kind");
    for rec in sample {
        let mut line = String::new();
        trace_io::format_recorded(&mut line, &rec);
        assert_eq!(
            trace_io::parse_line(&line, 1),
            Ok(trace_io::Line::Recorded(rec)),
            "{line}"
        );
    }
}

#[test]
fn hostile_flight_dump_lines_are_refused() {
    for (line, why) in [
        ("@1 tokens_recieved 1 2 3", "unknown event kind"),
        ("@1 token_rotations 1", "missing rotations"),
        ("@1 token_rotations 1 7 7", "trailing tokens"),
        ("@1 messages_originated 0 1 express", "bad service"),
        ("@1 membership_transitions stable Gather", "bad to"),
        ("@1 storage_recoveries 1 yes true", "bad snapshot"),
        ("@1 recovery_step_marks 256 2", "bad step"),
        ("@1 configs_installed 2 4294967296 3", "bad rep"),
        ("@1 obligation_set_samples -1", "bad size"),
    ] {
        let doc = format!("process 0\n  {line}\n");
        let parsed = text("trace_io::parse_postmortem", &doc, || {
            trace_io::parse_postmortem(&doc)
        });
        let err = parsed.expect_err(line);
        assert!(err.reason.contains(why), "{line}: {err}");
    }
}

#[test]
fn a_trace_cannot_name_more_processes_than_it_has_bytes() {
    assert!(trace_io::parse_trace("process 4000000000\n").is_err());
    assert_eq!(
        trace_io::parse_trace("process 2\n").map(|t| t.num_processes()),
        Ok(3)
    );
}

#[test]
fn a_maximal_exchange_stays_within_its_ordinal_allowance() {
    // One run of two ordinals; its length field sits at offset 51 (tag,
    // two configurations, sender, floor, run count, run start).
    let with_run_len = |len: usize| {
        let mut frame = wire::encode(&EvsMsg::Exchange(exchange(0, BTreeSet::from([1, 2]))));
        frame[51..59].copy_from_slice(&(len as u64).to_le_bytes());
        frame
    };
    let max = with_run_len(MAX_RECEIVED);
    assert!(matches!(wire_decode(&max), Verdict::Accepted(Some(_))));
    let over = with_run_len(MAX_RECEIVED + 1);
    assert!(matches!(wire_decode(&over), Verdict::Rejected));
}
