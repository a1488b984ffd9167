//! Property-based tests of the wire codec: canonical round-trips for
//! arbitrary frames and for packed datagrams, and decoded payloads as
//! views — their bytes, equality, hashing and `ptr_eq`. Robustness against
//! arbitrary and mutated bytes is `tests/decoders_total.rs`'s, at the
//! workspace root, with every other decoder.

use evs_core::codec::DecodeError;
use evs_core::recovery::ExchangeState;
use evs_core::{wire, EvsMsg, Payload};
use evs_membership::{ConfigId, MembMsg};
use evs_order::{MessageId, OrderedMsg, RingMsg, Service, Token};
use evs_sim::ProcessId;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn pid() -> impl Strategy<Value = ProcessId> {
    (0u32..64).prop_map(ProcessId::new)
}

fn config_id() -> impl Strategy<Value = ConfigId> {
    (0u64..1000, pid(), any::<bool>()).prop_map(|(epoch, rep, transitional)| ConfigId {
        epoch,
        rep,
        transitional,
    })
}

fn service() -> impl Strategy<Value = Service> {
    prop_oneof![
        Just(Service::Causal),
        Just(Service::Agreed),
        Just(Service::Safe)
    ]
}

/// A field of a LEB128 frame: small, anywhere, or an extreme of the
/// varint widths.
fn wide_field() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..10_000, any::<u64>(), Just(u64::MAX), Just(0)]
}

fn wide_pid() -> impl Strategy<Value = ProcessId> {
    prop_oneof![0u32..64, any::<u32>(), Just(u32::MAX)].prop_map(ProcessId::new)
}

fn wide_config() -> impl Strategy<Value = ConfigId> {
    (wide_field(), wide_pid(), any::<bool>()).prop_map(|(epoch, rep, transitional)| ConfigId {
        epoch,
        rep,
        transitional,
    })
}

/// A message ordinal: never 0, small or anywhere up to `u64::MAX`.
fn seq() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..10_000, 1..=u64::MAX, Just(u64::MAX)]
}

/// A message's fields besides its configuration: `seq`, sender, counter,
/// service, payload.
type MsgFields = (u64, ProcessId, u64, Service, Vec<u8>);

fn msg_fields(payload: impl Strategy<Value = Vec<u8>>) -> impl Strategy<Value = MsgFields> {
    (seq(), wide_pid(), wide_field(), service(), payload)
}

fn message(
    config: ConfigId,
    (seq, sender, counter, service, payload): MsgFields,
) -> OrderedMsg<Payload> {
    OrderedMsg {
        config,
        seq,
        id: MessageId { sender, counter },
        service,
        payload: Payload::from(payload),
    }
}

fn small_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..200)
}

fn ordered_msg() -> impl Strategy<Value = OrderedMsg<Payload>> {
    (wide_config(), msg_fields(small_payload()))
        .prop_map(|(config, fields)| message(config, fields))
}

/// Any batch a token visit can build: up to `max` messages of one
/// configuration in strictly ascending `seq`, from mixed senders. The wire
/// format can say nothing else.
fn batch(
    payload: impl Strategy<Value = Vec<u8>>,
    max: usize,
) -> impl Strategy<Value = Vec<OrderedMsg<Payload>>> {
    (
        wide_config(),
        proptest::collection::vec(msg_fields(payload), 0..max),
    )
        .prop_map(|(config, mut fields)| {
            fields.sort_by_key(|f| f.0);
            fields.dedup_by_key(|f| f.0);
            fields.into_iter().map(|f| message(config, f)).collect()
        })
}

/// A payload that is empty half of the time and otherwise up to 4 KiB.
fn large_payload() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        proptest::collection::vec(any::<u8>(), 0..=4096),
    ]
}

/// Any token a ring can forward: `aru` at most `seq`, requests ascending.
fn token() -> impl Strategy<Value = Token> {
    (
        wide_config(),
        (wide_field(), wide_field(), wide_field()),
        proptest::option::of(wide_pid()),
        proptest::collection::btree_set(wide_field(), 0..20),
        wide_field(),
    )
        .prop_map(
            |(config, (token_id, seq, below), aru_id, rtr, rotation)| Token {
                config,
                token_id,
                seq,
                aru: seq - below.min(seq),
                aru_id,
                rtr: rtr.into_iter().collect(),
                rotation,
            },
        )
}

fn pid_set() -> impl Strategy<Value = BTreeSet<ProcessId>> {
    proptest::collection::btree_set(pid(), 0..10)
}

fn memb_msg() -> impl Strategy<Value = MembMsg> {
    prop_oneof![
        config_id().prop_map(|config| MembMsg::Heartbeat { config }),
        (pid_set(), 0u64..1000).prop_map(|(candidates, max_epoch)| MembMsg::Join {
            candidates,
            max_epoch
        }),
        (config_id(), proptest::collection::vec(pid(), 0..10))
            .prop_map(|(config, members)| MembMsg::Commit { config, members }),
        config_id().prop_map(|config| MembMsg::Ack { config }),
        config_id().prop_map(|config| MembMsg::Install { config }),
    ]
}

fn exchange() -> impl Strategy<Value = ExchangeState> {
    (
        config_id(),
        pid(),
        config_id(),
        // An arbitrary floor, then what was received above it as stretches
        // of (ordinals skipped, ordinals held): sparse singletons, dense
        // runs, and — with nothing skipped — runs the codec must merge.
        0u64..100_000,
        proptest::collection::vec((0u64..4, 1u64..40), 0..12),
        0u64..500,
        0u64..500,
        pid_set(),
    )
        .prop_map(
            |(
                proposal,
                sender,
                last_regular,
                floor,
                stretches,
                high_seen,
                safe_line,
                obligations,
            )| {
                let mut received = BTreeSet::new();
                let mut next = floor + 1;
                for (skipped, held) in stretches {
                    received.extend(next + skipped..next + skipped + held);
                    next += skipped + held;
                }
                ExchangeState {
                    proposal,
                    sender,
                    last_regular,
                    floor,
                    received,
                    high_seen,
                    safe_line,
                    obligations,
                }
            },
        )
}

fn frame() -> impl Strategy<Value = EvsMsg<Payload>> {
    prop_oneof![
        memb_msg().prop_map(EvsMsg::Memb),
        ordered_msg().prop_map(|m| EvsMsg::Ring(RingMsg::Data(m))),
        batch(small_payload(), 5).prop_map(|b| EvsMsg::Ring(RingMsg::Batch(b))),
        token().prop_map(|t| EvsMsg::Ring(RingMsg::Token(t))),
        exchange().prop_map(EvsMsg::Exchange),
        (wide_config(), ordered_msg())
            .prop_map(|(proposal, msg)| EvsMsg::Rebroadcast { proposal, msg }),
        config_id().prop_map(|proposal| EvsMsg::RecoveryAck { proposal }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// encode → decode → encode is a fixed point (canonical codec).
    #[test]
    fn round_trip_is_canonical(f in frame()) {
        let bytes = wire::encode(&f);
        let back = wire::decode(&bytes).expect("well-formed frame decodes");
        prop_assert_eq!(wire::encode(&back), bytes);
    }

    /// An exchange report comes back as it went in, whatever its floor and
    /// however sparse what it lists above it.
    #[test]
    fn exchange_round_trips(e in exchange()) {
        let bytes = wire::encode(&EvsMsg::Exchange(e.clone()));
        match wire::decode(&bytes) {
            Ok(EvsMsg::Exchange(back)) => prop_assert_eq!(back, e),
            other => prop_assert!(false, "decoded to {:?}", other),
        }
    }

    /// A token comes back as it went in, `u64::MAX` fields included.
    #[test]
    fn token_round_trips(t in token()) {
        let bytes = wire::encode(&EvsMsg::Ring(RingMsg::Token(t.clone())));
        match wire::decode(&bytes) {
            Ok(EvsMsg::Ring(RingMsg::Token(back))) => prop_assert_eq!(back, t),
            other => prop_assert!(false, "decoded to {:?}", other),
        }
    }

    /// Packing frames into one datagram and unpacking them yields the same
    /// decoded messages as decoding each frame individually.
    #[test]
    fn packed_decode_equals_sequential_decode(
        frames in proptest::collection::vec(frame(), 0..6),
    ) {
        let encoded: Vec<_> = frames.iter().map(wire::encode).collect();
        let datagram = wire::pack_frames(&encoded);
        let views = wire::unpack_frames(&datagram).expect("own pack unpacks");
        prop_assert_eq!(views.len(), frames.len());
        for (view, bytes) in views.iter().zip(&encoded) {
            let packed = wire::decode(view).expect("packed frame decodes");
            let sequential = wire::decode(bytes).expect("sequential frame decodes");
            // EvsMsg is payload-generic without PartialEq; canonical
            // re-encoding is the equality the codec guarantees.
            prop_assert_eq!(wire::encode(&packed), wire::encode(&sequential));
        }
    }

    /// A batch of any payloads — empty ones, 4 KiB ones, none at all —
    /// comes back byte for byte, and every payload is its own bytes even
    /// once the frame it was decoded from is gone.
    #[test]
    fn batches_round_trip_byte_for_byte(
        msgs in batch(large_payload(), 8),
    ) {
        let mut bytes = wire::encode(&EvsMsg::Ring(RingMsg::Batch(msgs.clone())));
        let back = match wire::decode(&bytes) {
            Ok(EvsMsg::Ring(RingMsg::Batch(back))) => back,
            other => return Err(TestCaseError::fail(format!("decoded to {other:?}"))),
        };
        prop_assert_eq!(wire::encode(&EvsMsg::Ring(RingMsg::Batch(back.clone()))), bytes.clone());
        // The views copied the frame: overwriting and dropping it changes
        // nothing they read.
        bytes.fill(0xEE);
        drop(bytes);
        prop_assert_eq!(back.len(), msgs.len());
        for (got, sent) in back.iter().zip(&msgs) {
            prop_assert_eq!(&got.payload, &sent.payload);
            prop_assert_eq!(
                (got.config, got.seq, got.id, got.service),
                (sent.config, sent.seq, sent.id, sent.service)
            );
        }
    }

    /// A datagram cut at any byte boundary either errors cleanly or parses
    /// as exactly the whole frames that fit — never a partial frame, never
    /// a panic.
    #[test]
    fn packed_truncation_never_panics(
        frames in proptest::collection::vec(frame(), 1..5),
        cut_seed in 0usize..10_000,
    ) {
        let encoded: Vec<_> = frames.iter().map(wire::encode).collect();
        let datagram = wire::pack_frames(&encoded);
        let cut = cut_seed % datagram.len();
        match wire::unpack_frames(&datagram[..cut]) {
            Ok(views) => {
                // Only complete frames, accounting for every byte kept:
                // each view and its length header, packed alone.
                let consumed: usize = views.iter().map(|v| wire::pack_frames([v]).len()).sum();
                prop_assert_eq!(consumed, cut);
            }
            Err(DecodeError::UnexpectedEof) => {}
            Err(e) => prop_assert!(false, "unexpected error at {}: {}", cut, e),
        }
    }

}

/// A batch the format cannot say never comes back as a different batch:
/// the encoder refuses a second configuration outright, and a `seq` that
/// does not ascend encodes to a step the decoder refuses.
#[test]
fn an_illegal_batch_never_comes_back_as_a_different_one() {
    let msg = |epoch: u64, seq: u64| OrderedMsg {
        config: ConfigId::regular(epoch, ProcessId::new(0)),
        seq,
        id: MessageId::new(ProcessId::new(1), seq),
        service: Service::Agreed,
        payload: Payload::from(b"m"),
    };
    let mixed = EvsMsg::Ring(RingMsg::Batch(vec![msg(5, 1), msg(6, 2)]));
    let refused = std::panic::catch_unwind(|| wire::encode(&mixed));
    let reason = refused.expect_err("a mixed batch encodes");
    assert_eq!(
        reason.downcast_ref::<&str>(),
        Some(&"a batch carries one configuration")
    );
    for seqs in [[2, 2], [3, 2], [u64::MAX, 1]] {
        let batch = seqs.iter().map(|&seq| msg(5, seq)).collect();
        let bytes = wire::encode(&EvsMsg::Ring(RingMsg::Batch(batch)));
        assert_eq!(
            wire::decode(&bytes).err(),
            Some(DecodeError::BadTag {
                what: "ascending seq",
                tag: 0
            }),
            "seqs {seqs:?}"
        );
    }
}

/// Decodes a batch of two messages carrying `a` and `b`: two views into
/// one frame buffer.
fn decoded_pair(a: &[u8], b: &[u8]) -> (Payload, Payload) {
    let msg = |seq: u64, body: &[u8]| OrderedMsg {
        config: ConfigId::regular(5, ProcessId::new(0)),
        seq,
        id: MessageId::new(ProcessId::new(1), seq),
        service: Service::Agreed,
        payload: Payload::copy_from_slice(body),
    };
    let frame = wire::encode(&EvsMsg::Ring(RingMsg::Batch(vec![msg(1, a), msg(2, b)])));
    match wire::decode(&frame) {
        Ok(EvsMsg::Ring(RingMsg::Batch(mut msgs))) if msgs.len() == 2 => {
            let second = msgs.pop().unwrap().payload;
            (msgs.pop().unwrap().payload, second)
        }
        other => panic!("decoded to {other:?}"),
    }
}

#[test]
fn a_view_and_an_owned_copy_are_one_set_element() {
    let (view, other) = decoded_pair(b"same bytes", b"other bytes");
    let owned = Payload::from(b"same bytes".to_vec());
    assert_eq!(view, owned);
    assert_ne!(view, other);
    let set: std::collections::HashSet<Payload> = [view.clone(), owned, view].into();
    assert_eq!(set.len(), 1, "a view and its owned copy hash alike");
}

#[test]
fn ptr_eq_is_one_buffer_and_one_range() {
    // Equal bytes, one buffer, two ranges: equal, but not the same view.
    let (first, second) = decoded_pair(b"twin", b"twin");
    assert_eq!(first, second);
    assert!(!first.ptr_eq(&second));
    assert!(first.ptr_eq(&first.clone()) && second.clone().ptr_eq(&second));
    // Two empty views at different offsets are distinct views too.
    let (empty, after) = decoded_pair(b"", b"");
    assert!(!empty.ptr_eq(&after));
}

/// The report's size follows the holes in the in-flight window, not the
/// configuration's age: 100,000 messages received without a gap are one
/// run, with or without a floor under them.
#[test]
fn a_long_contiguous_history_encodes_in_under_100_bytes() {
    let report = |floor: u64| ExchangeState {
        proposal: ConfigId::regular(9, ProcessId::new(0)),
        sender: ProcessId::new(2),
        last_regular: ConfigId::regular(8, ProcessId::new(0)),
        floor,
        received: (floor + 1..=100_000).collect(),
        high_seen: 100_000,
        safe_line: 99_900,
        obligations: BTreeSet::new(),
    };
    for floor in [0, 99_872] {
        let bytes = wire::encode(&EvsMsg::Exchange(report(floor)));
        assert!(bytes.len() < 100, "{} bytes at floor {floor}", bytes.len());
        match wire::decode(&bytes) {
            Ok(EvsMsg::Exchange(back)) => assert_eq!(back, report(floor)),
            other => panic!("decoded to {other:?}"),
        }
    }
}
