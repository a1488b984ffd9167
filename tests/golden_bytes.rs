//! Golden bytes: every frame and record the system puts on the wire or on
//! disk, pinned as hex. A codec refactor must leave each of these vectors
//! byte-identical — a peer running the previous build, or a log it wrote,
//! has to keep decoding. A vector changes only with a deliberate format
//! change, and CHANGES.md lists each such change with its old and new hex.

use evs_broker::proto::{self, BatchEntry};
use evs_core::persist::{Checkpoint, WalRecord};
use evs_core::recovery::ExchangeState;
use evs_core::{wire, EvsMsg, Payload};
use evs_membership::{ConfigId, MembMsg};
use evs_order::{MessageId, OrderedMsg, RingMsg, Service, Token};
use evs_sim::ProcessId;
use std::collections::BTreeSet;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn data(seq: u64, service: Service, payload: &[u8]) -> OrderedMsg<Payload> {
    OrderedMsg {
        config: ConfigId::regular(42, p(3)),
        seq,
        id: MessageId::new(p(2), 99 + seq),
        service,
        payload: Payload::from(payload),
    }
}

fn frames() -> Vec<(&'static str, EvsMsg<Payload>)> {
    let cfg = ConfigId::regular(42, p(3));
    let tcfg = ConfigId::transitional(43, p(1));
    vec![
        (
            "heartbeat",
            EvsMsg::Memb(MembMsg::Heartbeat { config: cfg }),
        ),
        (
            "join",
            EvsMsg::Memb(MembMsg::Join {
                candidates: [p(0), p(2), p(9)].into_iter().collect(),
                max_epoch: 17,
            }),
        ),
        (
            "commit",
            EvsMsg::Memb(MembMsg::Commit {
                config: cfg,
                members: vec![p(0), p(1), p(2)],
            }),
        ),
        ("ack", EvsMsg::Memb(MembMsg::Ack { config: tcfg })),
        ("install", EvsMsg::Memb(MembMsg::Install { config: cfg })),
        (
            "data",
            EvsMsg::Ring(RingMsg::Data(data(7, Service::Safe, b"hello"))),
        ),
        (
            "batch",
            EvsMsg::Ring(RingMsg::Batch(vec![
                data(8, Service::Agreed, b"ab"),
                data(9, Service::Causal, b""),
            ])),
        ),
        (
            "token",
            EvsMsg::Ring(RingMsg::Token(Token {
                config: cfg,
                token_id: 1234,
                seq: 56,
                aru: 54,
                aru_id: Some(p(4)),
                rtr: vec![3, 9, 27],
                rotation: 12,
            })),
        ),
        (
            "exchange_gap_free",
            EvsMsg::Exchange(ExchangeState {
                proposal: cfg,
                sender: p(2),
                last_regular: ConfigId::regular(41, p(0)),
                floor: 0,
                received: (1..=20_000).collect(),
                high_seen: 20_000,
                safe_line: 19_990,
                obligations: BTreeSet::new(),
            }),
        ),
        (
            "exchange_holes",
            EvsMsg::Exchange(ExchangeState {
                proposal: cfg,
                sender: p(1),
                last_regular: ConfigId::regular(41, p(0)),
                floor: 3,
                received: [4, 5, 6, 8, 11].into_iter().collect(),
                high_seen: 11,
                safe_line: 3,
                obligations: [p(0), p(1)].into_iter().collect(),
            }),
        ),
        (
            "rebroadcast",
            EvsMsg::Rebroadcast {
                proposal: tcfg,
                msg: data(5, Service::Agreed, b"x"),
            },
        ),
        ("recovery_ack", EvsMsg::RecoveryAck { proposal: cfg }),
        ("wake", EvsMsg::Ring(RingMsg::Wake(cfg))),
    ]
}

fn records() -> Vec<(&'static str, WalRecord)> {
    vec![
        ("lease", WalRecord::Lease(1024)),
        (
            "sent",
            WalRecord::Sent {
                counter: 7,
                epoch: 3,
                rep: 1,
                seq: 42,
            },
        ),
        (
            "conf",
            WalRecord::ConfDelivered {
                epoch: 9,
                rep: 0,
                transitional: true,
            },
        ),
        ("obligations", WalRecord::Obligations(vec![0, 2, 5])),
        (
            "cut",
            WalRecord::Cut {
                epoch: 9,
                rep: 0,
                transitional: false,
                seq: 17,
            },
        ),
        ("epoch", WalRecord::Epoch(12)),
        (
            "fail",
            WalRecord::FailMark {
                epoch: 9,
                rep: 0,
                msg_counter: 55,
                max_epoch: 12,
            },
        ),
    ]
}

/// Every vector, by name, as hex.
fn actual() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = frames()
        .into_iter()
        .map(|(name, f)| (name, hex(&wire::encode(&f))))
        .collect();
    let mut buf = Vec::new();
    for (name, r) in records() {
        r.encode(&mut buf);
        out.push((name, hex(&buf)));
    }
    let two_field = Checkpoint {
        msg_counter: 2048,
        max_epoch: 17,
        installed: None,
    };
    let three_field = Checkpoint {
        installed: Some(ConfigId::transitional(7, p(2))),
        ..two_field
    };
    for (name, cp) in [("checkpoint_2", two_field), ("checkpoint_3", three_field)] {
        cp.encode(&mut buf);
        out.push((name, hex(&buf)));
    }
    let entries = [
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
    ];
    out.push(("broker_batch", hex(&proto::encode_batch(7, &entries))));
    out.push(("broker_submit", hex(&proto::encode_submit(42, b"balance?"))));
    out.push(("broker_reply", hex(&proto::encode_reply(42, 9))));
    let mut frame = Vec::new();
    evs_store::encode_record(b"wal payload", &mut frame);
    out.push(("store_frame", hex(&frame)));
    // A datagram of two frames, each behind its LEB128 length.
    let [data, token] = ["data", "token"].map(|name| {
        let (_, f) = frames()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("listed");
        wire::encode(&f)
    });
    out.push(("packed_data_token", hex(&wire::pack_frames([data, token]))));
    out
}

/// Captured from the codec before it moved onto one cursor; a change here
/// is a wire or disk format change, not a refactor. The token's vector and
/// the data frames' (`data`, `batch`, `rebroadcast`) are the ones taken
/// since, for their LEB128 layouts, as are the wake's and the packed
/// datagram's, whose frame lengths are LEB128 too.
const GOLDEN: &[(&str, &str)] = &[
    ("heartbeat", "00002a000000000000000300000000"),
    ("join", "0001030000000000000002000000090000001100000000000000"),
    ("commit", "00022a00000000000000030000000003000000000000000100000002000000"),
    ("ack", "00032b000000000000000100000001"),
    ("install", "00042a000000000000000300000000"),
    ("data", "072a030007026a020568656c6c6f"),
    ("batch", "09022a030008026b0102616201026c0000"),
    ("token", "022a0300d20938020104030306120c"),
    ("exchange_gap_free", "032a00000000000000030000000002000000290000000000000000000000000000000000000000010000000100000000000000204e000000000000204e000000000000164e00000000000000000000"),
    ("exchange_holes", "032a000000000000000300000000010000002900000000000000000000000003000000000000000300000004000000000000000300000000000000080000000000000001000000000000000b0000000000000001000000000000000b000000000000000300000000000000020000000000000001000000"),
    ("rebroadcast", "082b01012a0300050268010178"),
    ("recovery_ack", "052a000000000000000300000000"),
    ("wake", "0a2a0300"),
    ("lease", "010004000000000000204d47d6"),
    ("sent", "0207000000000000000300000000000000010000002a00000000000000ca76ae98"),
    ("conf", "0309000000000000000000000001fea065fc"),
    ("obligations", "040300000000000000020000000500000067a4c7ef"),
    ("cut", "050900000000000000000000000011000000000000002a0153c0"),
    ("epoch", "060c000000000000009583ce10"),
    ("fail", "0709000000000000000000000037000000000000000c000000000000008452f1b2"),
    ("checkpoint_2", "08000800000000000011000000000000003e63808b"),
    ("checkpoint_3", "080008000000000000110000000000000007000000000000000200000001be132a5b"),
    ("broker_batch", "455642310000000700000002000000000000000100000000000000010000000963726564697420343000000000000dbba7000000000000000300000000"),
    ("broker_submit", "45564253000000000000002a0000000862616c616e63653f"),
    ("broker_reply", "45564252000000000000002a0000000000000009"),
    ("store_frame", "0b0000005f3cda1e77616c207061796c6f6164"),
    ("packed_data_token", "0e072a030007026a020568656c6c6f0f022a0300d20938020104030306120c"),
];

#[test]
fn every_frame_and_record_is_byte_identical() {
    let actual = actual();
    let listing: String = actual
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", \"{h}\"),\n"))
        .collect();
    let golden: Vec<(&str, String)> = GOLDEN.iter().map(|(n, h)| (*n, h.to_string())).collect();
    assert_eq!(actual, golden, "bytes changed; current listing:\n{listing}");
}

#[test]
fn the_gap_free_exchange_is_79_bytes() {
    let (_, f) = frames()
        .into_iter()
        .find(|(name, _)| *name == "exchange_gap_free")
        .expect("listed");
    assert_eq!(wire::encode(&f).len(), 79);
}
