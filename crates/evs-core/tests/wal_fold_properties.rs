//! Property test of the engine's send journaling: one `Sent` record per
//! stamping burst (the burst's send high-water mark) folds to the same
//! recovered state as one `Sent` per message.
//!
//! Synthetic incarnations are generated as the engine writes them:
//! `Lease` blocks taken before their first id, bursts of 1–16 sends each
//! followed by the drain's `Cut`, and configuration deliveries (with the
//! Step 2 `Epoch` before them). Each ends either in a clean `FailMark` or
//! in a kill that cuts the log at some record boundary. Every field of
//! [`persist::fold`]'s result but the record count must agree between the
//! per-message log and the per-burst one — for a kill, between the
//! per-message log cut at index k and the per-burst records before that
//! cut.

use evs_core::persist::{self, Checkpoint, Recovered, WalRecord};
use evs_membership::ConfigId;
use evs_sim::ProcessId;
use proptest::prelude::*;

/// One step of a synthetic incarnation.
#[derive(Clone, Debug)]
enum Step {
    /// A token visit that stamps this many own messages.
    Burst(u64),
    /// A configuration change: proposal epoch, an optional transitional
    /// configuration, then the regular one.
    Conf { transitional: bool },
    /// Deliveries of other members' messages: a `Cut` only.
    Deliver,
}

#[derive(Clone, Debug)]
struct Incarnation {
    /// The checkpoint a previous compaction left, if any.
    snapshot: Option<Checkpoint>,
    /// Ids a `Lease` claims past the first id it covers (the engine's
    /// `LEASE_BLOCK`, shrunk so that blocks run out mid-run).
    lease_block: u64,
    steps: Vec<Step>,
    /// True for a clean crash (`FailMark`), false for a kill.
    clean: bool,
}

fn step() -> impl Strategy<Value = Step> {
    // Bursts listed twice: half of all steps stamp messages.
    prop_oneof![
        (1u64..=16).prop_map(Step::Burst),
        (1u64..=16).prop_map(Step::Burst),
        any::<bool>().prop_map(|transitional| Step::Conf { transitional }),
        Just(Step::Deliver),
    ]
}

fn incarnation() -> impl Strategy<Value = Incarnation> {
    let snapshot = proptest::option::of((0u64..5_000, 0u64..4)).prop_map(|cp| {
        cp.map(|(msg_counter, max_epoch)| Checkpoint {
            msg_counter,
            max_epoch,
            installed: Some(ConfigId::regular(max_epoch, ProcessId::new(0))),
        })
    });
    (
        snapshot,
        1u64..40,
        proptest::collection::vec(step(), 0..24),
        any::<bool>(),
    )
        .prop_map(|(snapshot, lease_block, steps, clean)| Incarnation {
            snapshot,
            lease_block,
            steps,
            clean,
        })
}

/// A record of the per-message log, and whether the per-burst log keeps it.
struct Entry {
    rec: WalRecord,
    per_burst: bool,
}

/// The per-message log of `inc`, each record marked with whether the
/// per-burst log writes it too: everything but a burst's `Sent` records
/// before its last.
fn per_message_log(inc: &Incarnation) -> Vec<Entry> {
    let mut log = Vec::new();
    let mut push = |rec, per_burst| log.push(Entry { rec, per_burst });
    let (mut counter, mut epoch) = inc
        .snapshot
        .map_or((0, 0), |cp| (cp.msg_counter, cp.max_epoch));
    // A restart resumes with the recovered counter as its lease ceiling.
    let mut lease_limit = counter;
    let mut seq = 0;
    if inc.snapshot.is_none() {
        push(
            WalRecord::ConfDelivered {
                epoch,
                rep: 0,
                transitional: false,
            },
            true,
        );
    }
    for step in &inc.steps {
        match *step {
            Step::Burst(n) => {
                // Ids are originated (and leased) before the visit stamps them.
                for id in counter + 1..=counter + n {
                    if id > lease_limit {
                        lease_limit = id + inc.lease_block;
                        push(WalRecord::Lease(lease_limit), true);
                    }
                }
                for i in 1..=n {
                    seq += 1;
                    let rec = WalRecord::Sent {
                        counter: counter + i,
                        epoch,
                        rep: 0,
                        seq,
                    };
                    push(rec, i == n);
                }
                counter += n;
                push(cut(epoch, seq), true);
            }
            Step::Conf { transitional } => {
                epoch += 1;
                seq = 0;
                push(WalRecord::Epoch(epoch), true);
                if transitional {
                    push(
                        WalRecord::ConfDelivered {
                            epoch,
                            rep: 0,
                            transitional: true,
                        },
                        true,
                    );
                }
                push(
                    WalRecord::ConfDelivered {
                        epoch,
                        rep: 0,
                        transitional: false,
                    },
                    true,
                );
            }
            Step::Deliver => {
                seq += 1;
                push(cut(epoch, seq), true);
            }
        }
    }
    if inc.clean {
        push(
            WalRecord::FailMark {
                epoch,
                rep: 0,
                msg_counter: counter,
                max_epoch: epoch,
            },
            true,
        );
    }
    log
}

fn cut(epoch: u64, seq: u64) -> WalRecord {
    WalRecord::Cut {
        epoch,
        rep: 0,
        transitional: false,
        seq,
    }
}

fn fold(snapshot: Option<&[u8]>, recs: &[&WalRecord]) -> Recovered {
    let raw: Vec<Vec<u8>> = recs
        .iter()
        .map(|r| {
            let mut b = Vec::new();
            r.encode(&mut b);
            b
        })
        .collect();
    Recovered {
        records: 0,
        ..persist::fold(snapshot, &raw, &[])
    }
}

proptest! {
    #[test]
    fn per_burst_sent_folds_like_per_message_sent(inc in incarnation()) {
        let log = per_message_log(&inc);
        let blob = inc.snapshot.map(|cp| {
            let mut b = Vec::new();
            cp.encode(&mut b);
            b
        });
        // A clean end keeps the whole log; a kill keeps any prefix of it.
        let cuts = if inc.clean { log.len()..=log.len() } else { 0..=log.len() };
        for k in cuts {
            let kept = &log[..k];
            let per_message: Vec<&WalRecord> = kept.iter().map(|e| &e.rec).collect();
            let per_burst: Vec<&WalRecord> =
                kept.iter().filter(|e| e.per_burst).map(|e| &e.rec).collect();
            prop_assert_eq!(
                fold(blob.as_deref(), &per_message),
                fold(blob.as_deref(), &per_burst),
                "cut at {} of {}: {:?}",
                k,
                log.len(),
                inc
            );
        }
    }
}
