//! Differential properties of the broker's two per-op decisions: a batch
//! frame decodes into views equal field for field to what was encoded, and
//! the ledger's floor-and-sparse bookkeeping answers exactly like the set
//! of every `(client, seq)` ever applied.

use evs_broker::proto::{self, BatchEntry};
use evs_broker::OpLedger;
use evs_core::Payload;
use proptest::prelude::*;
use std::collections::HashSet;

fn entry() -> impl Strategy<Value = BatchEntry> {
    (
        any::<u64>(),
        any::<u64>(),
        prop_oneof![Just(0usize), 0usize..=1024],
        any::<u8>(),
    )
        .prop_map(|(client, seq, len, fill)| BatchEntry {
            client,
            seq,
            op: Payload::from(vec![fill; len]),
        })
}

/// A stream of `(client, seq)` deliveries over a few clients: mostly the
/// next seq, with duplicates, skips ahead and replays mixed in.
fn deliveries() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..4, 0u64..8, 0u8..8), 0..300).prop_map(|steps| {
        let mut next = [1u64; 4];
        steps
            .into_iter()
            .map(|(client, jump, kind)| {
                let n = &mut next[client as usize];
                let seq = match kind {
                    // Replay of something at or below the current mark.
                    0 => 1 + jump.min(*n - 1),
                    // Reordered: a seq ahead of the current mark.
                    1 => *n + jump,
                    _ => {
                        *n += 1;
                        *n - 1
                    }
                };
                (client, seq)
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn decoded_views_equal_the_encoded_entries(
        broker in any::<u32>(),
        entries in proptest::collection::vec(entry(), 0..24),
    ) {
        let frame = proto::encode_batch(broker, &entries);
        let (back_broker, views) = proto::decode_batch(&frame).expect("decodes");
        prop_assert_eq!(back_broker, broker);
        prop_assert_eq!(views.len(), entries.len());
        for (view, entry) in views.iter().zip(&entries) {
            prop_assert_eq!(view.client, entry.client);
            prop_assert_eq!(view.seq, entry.seq);
            prop_assert_eq!(view.op, entry.op.as_slice());
        }
        // Strict as ever: a frame cut at an entry boundary (a valid
        // shorter batch, were the count not checked) or a byte before one,
        // and a frame with a trailing byte, are all refused.
        let mut boundary = proto::BATCH_HEADER_BYTES;
        for entry in &entries {
            for cut in [boundary - 1, boundary] {
                prop_assert!(proto::decode_batch(&frame[..cut]).is_none(), "cut at {}", cut);
            }
            boundary += entry.encoded_len();
        }
        let mut padded = frame.to_vec();
        padded.push(0);
        prop_assert!(proto::decode_batch(&padded).is_none());
    }

    // The planted `broker-mutation` bug applies below-floor duplicates
    // again: exactly the disagreement this property exists to find.
    #[cfg(not(feature = "broker-mutation"))]
    #[test]
    fn the_ledger_agrees_with_the_set_of_applied_ops(stream in deliveries()) {
        let mut ledger = OpLedger::new();
        let mut model = HashSet::new();
        for (client, seq) in stream {
            prop_assert_eq!(
                ledger.apply(client, seq),
                model.insert((client, seq)),
                "apply({}, {})", client, seq
            );
            for c in 0..4 {
                for s in 1..12 {
                    prop_assert_eq!(ledger.contains(c, s), model.contains(&(c, s)));
                }
            }
        }
    }
}
