//! Property-based tests of the wire codec: canonical round-trips for
//! arbitrary frames, and total robustness against arbitrary input bytes
//! (a malformed datagram must produce an error, never a panic and never a
//! bogus frame that re-encodes differently).

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

fn message_id() -> impl Strategy<Value = MessageId> {
    (pid(), 0u64..10_000).prop_map(|(sender, counter)| MessageId { sender, counter })
}

fn ordered_msg() -> impl Strategy<Value = OrderedMsg<Payload>> {
    (
        config_id(),
        1u64..10_000,
        message_id(),
        service(),
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(config, seq, id, service, payload)| OrderedMsg {
            config,
            seq,
            id,
            service,
            payload: Payload::from(payload),
        })
}

fn token() -> impl Strategy<Value = Token> {
    (
        config_id(),
        0u64..10_000,
        0u64..10_000,
        0u64..10_000,
        proptest::option::of(pid()),
        proptest::collection::btree_set(0u64..500, 0..20),
        0u64..1000,
    )
        .prop_map(
            |(config, token_id, seq, aru, aru_id, rtr, rotation)| Token {
                config,
                token_id,
                seq,
                aru,
                aru_id,
                rtr,
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
        proptest::collection::vec(ordered_msg(), 0..5)
            .prop_map(|b| EvsMsg::Ring(RingMsg::Batch(b))),
        token().prop_map(|t| EvsMsg::Ring(RingMsg::Token(t))),
        exchange().prop_map(EvsMsg::Exchange),
        (config_id(), ordered_msg())
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

    /// Arbitrary bytes never panic the decoder, and anything it does accept
    /// re-encodes to exactly the input (no ambiguous encodings).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        if let Ok(frame) = wire::decode(&bytes) {
            let reencoded = wire::encode(&frame);
            prop_assert_eq!(reencoded.as_ref(), &bytes[..]);
        }
    }

    /// Bit-flipping a valid frame either fails cleanly or decodes to a
    /// frame that still re-encodes canonically.
    #[test]
    fn bit_flips_are_handled(f in frame(), pos in 0usize..64, bit in 0u8..8) {
        let mut bytes = wire::encode(&f).to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(frame) = wire::decode(&bytes) {
            let reencoded = wire::encode(&frame);
            prop_assert_eq!(reencoded.as_ref(), &bytes[..]);
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
                // Only complete frames, accounting for every byte kept.
                let consumed: usize = views.iter().map(|v| 4 + v.len()).sum();
                prop_assert_eq!(consumed, cut);
            }
            Err(wire::WireError::UnexpectedEof) => {}
            Err(e) => prop_assert!(false, "unexpected error at {}: {}", cut, e),
        }
    }

    /// Arbitrary bytes fed to the unpacker never panic; any accepted split
    /// repacks to exactly the input.
    #[test]
    fn arbitrary_datagrams_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        if let Ok(views) = wire::unpack_frames(&bytes) {
            let repacked = wire::pack_frames(&views);
            prop_assert_eq!(repacked.as_ref(), &bytes[..]);
        }
    }
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
