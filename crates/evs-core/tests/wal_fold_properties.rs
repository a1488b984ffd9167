//! Property test of the engine's journaling across versions: every log
//! shape the engine has written folds to the state the oldest one does.
//!
//! One synthetic incarnation is written as the engine writes it, as a
//! merged log whose entries are marked with the shapes that contain them:
//!
//! * *per-message*: a `Sent` per message, a `Cut` per delivery drain and
//!   the §3 Step 5.c `Obligations` around every configuration change;
//! * *per-burst*: the same with one `Sent` per stamping burst, its last;
//! * *lean*, what the engine writes today: only `Lease`, `ConfDelivered`,
//!   `Epoch` and `FailMark`, plus a `Lease` and an `Epoch` of the
//!   checkpoint's counter and epoch right after a snapshot, and the
//!   current lease again right after an excommunication's `FailMark`.
//!
//! Steps are `Lease` blocks taken before their first id, bursts of 1–16
//! sends, deliveries of other members' messages, configuration changes
//! (the Step 2 `Epoch` first) and excommunications (a `FailMark` with the
//! exact counter, then a fresh singleton's `ConfDelivered`). Each
//! incarnation ends in a clean `FailMark` or in a kill at any record
//! boundary of the merged log; a kill keeps, of each shape, the entries
//! before that boundary.
//!
//! At every kill point the lean log folds like the per-message one on
//! every field but the counter, which always covers every id handed out
//! and may only be larger: after an excommunication the older shapes'
//! counter rests on the `Sent` records alone, while the lean log's
//! re-journaled lease runs ahead of the ids sent under it. Without an
//! excommunication the three shapes fold alike on every field. With the
//! snapshot unreadable, the lean log's counter is still at least the older
//! shapes', and it is bounded whenever theirs is; so is its epoch.

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
    /// Corruption the engine cannot repair in place: `fail_p(c)`, then a
    /// fresh singleton configuration.
    Excommunicate,
}

#[derive(Clone, Debug)]
struct Incarnation {
    /// The checkpoint a previous compaction (or restart) left, if any.
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
        Just(Step::Excommunicate),
    ]
}

fn incarnation() -> impl Strategy<Value = Incarnation> {
    let snapshot = proptest::option::of((0u64..5_000, 0u64..4, any::<bool>())).prop_map(|cp| {
        cp.map(|(msg_counter, max_epoch, installed)| Checkpoint {
            msg_counter,
            max_epoch,
            installed: installed.then(|| ConfigId::regular(max_epoch, ProcessId::new(0))),
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

/// Shape bits of an [`Entry`].
const MESSAGE: u8 = 1;
const BURST: u8 = 2;
const LEAN: u8 = 4;
const OLD: u8 = MESSAGE | BURST;
const ALL: u8 = OLD | LEAN;

/// A record of the merged log: the shapes that write it, and the largest
/// id handed out once it is written.
struct Entry {
    rec: WalRecord,
    shapes: u8,
    used: u64,
}

/// The merged log of `inc`, and the largest id possibly handed out before
/// its first record (the snapshot's counter).
fn merged_log(inc: &Incarnation) -> (Vec<Entry>, u64) {
    let (mut counter, mut epoch) = inc
        .snapshot
        .map_or((0, 0), |cp| (cp.msg_counter, cp.max_epoch));
    let start = counter;
    let mut log = Vec::new();
    let mut push = |rec, shapes, used| log.push(Entry { rec, shapes, used });
    // A compaction (or restart) leaves the counter as its lease ceiling.
    let mut lease_limit = counter;
    let mut seq = 0;
    match inc.snapshot {
        Some(cp) => {
            push(WalRecord::Lease(cp.msg_counter), LEAN, counter);
            push(WalRecord::Epoch(cp.max_epoch), LEAN, counter);
        }
        None => push(conf(epoch, false), ALL, counter),
    }
    for step in &inc.steps {
        match *step {
            Step::Burst(n) => {
                // Ids are originated (and leased) before the visit stamps them.
                for id in counter + 1..=counter + n {
                    if id > lease_limit {
                        lease_limit = id + inc.lease_block;
                        push(WalRecord::Lease(lease_limit), ALL, counter);
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
                    push(rec, if i == n { OLD } else { MESSAGE }, counter + i);
                }
                counter += n;
                push(cut(epoch, seq), OLD, counter);
            }
            Step::Conf { transitional } => {
                epoch += 1;
                seq = 0;
                push(WalRecord::Epoch(epoch), ALL, counter);
                push(WalRecord::Obligations(vec![0, 1]), OLD, counter);
                if transitional {
                    push(conf(epoch, true), ALL, counter);
                }
                push(conf(epoch, false), ALL, counter);
                push(WalRecord::Obligations(Vec::new()), OLD, counter);
            }
            Step::Deliver => {
                seq += 1;
                push(cut(epoch, seq), OLD, counter);
            }
            Step::Excommunicate => {
                push(fail_mark(epoch, counter), ALL, counter);
                push(WalRecord::Lease(lease_limit), LEAN, counter);
                epoch += 1;
                seq = 0;
                push(conf(epoch, false), ALL, counter);
            }
        }
    }
    if inc.clean {
        push(fail_mark(epoch, counter), ALL, counter);
    }
    (log, start)
}

fn conf(epoch: u64, transitional: bool) -> WalRecord {
    WalRecord::ConfDelivered {
        epoch,
        rep: 0,
        transitional,
    }
}

fn cut(epoch: u64, seq: u64) -> WalRecord {
    WalRecord::Cut {
        epoch,
        rep: 0,
        transitional: false,
        seq,
    }
}

fn fail_mark(epoch: u64, msg_counter: u64) -> WalRecord {
    WalRecord::FailMark {
        epoch,
        rep: 0,
        msg_counter,
        max_epoch: epoch,
    }
}

/// Folds the entries of `kept` that belong to `shape`; the record count
/// is zeroed, since it differs between shapes by construction.
fn fold(snapshot: Option<&[u8]>, kept: &[Entry], shape: u8) -> Recovered {
    let raw: Vec<Vec<u8>> = kept
        .iter()
        .filter(|e| e.shapes & shape != 0)
        .map(|e| {
            let mut b = Vec::new();
            e.rec.encode(&mut b);
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
    fn every_log_shape_folds_like_the_per_message_log(inc in incarnation()) {
        let (log, start) = merged_log(&inc);
        let blob = inc.snapshot.map(|cp| {
            let mut b = Vec::new();
            cp.encode(&mut b);
            b
        });
        let bad = blob.as_ref().map(|b| {
            let mut b = b.clone();
            b[1] ^= 0xFF;
            b
        });
        let excommunicated = inc.steps.iter().any(|s| matches!(s, Step::Excommunicate));
        // A clean end keeps the whole log; a kill keeps any prefix of it.
        let cuts = if inc.clean { log.len()..=log.len() } else { 0..=log.len() };
        for k in cuts {
            let kept = &log[..k];
            let used = kept.last().map_or(start, |e| e.used);
            let message = fold(blob.as_deref(), kept, MESSAGE);
            let lean = fold(blob.as_deref(), kept, LEAN);
            if !excommunicated {
                prop_assert_eq!(
                    &fold(blob.as_deref(), kept, BURST),
                    &message,
                    "per-burst, cut at {} of {}: {:?}",
                    k,
                    log.len(),
                    inc
                );
                prop_assert_eq!(lean.msg_counter, message.msg_counter);
            }
            prop_assert_eq!(
                Recovered { msg_counter: 0, ..lean.clone() },
                Recovered { msg_counter: 0, ..message.clone() },
                "lean, cut at {} of {}: {:?}",
                k,
                log.len(),
                inc
            );
            prop_assert!(lean.msg_counter >= message.msg_counter.max(used));
            if let Some(bad) = bad.as_deref() {
                let lean = fold(Some(bad), kept, LEAN);
                for old in [MESSAGE, BURST] {
                    let old = fold(Some(bad), kept, old);
                    prop_assert!(lean.msg_counter >= old.msg_counter);
                    prop_assert!(lean.counter_bounded || !old.counter_bounded);
                    prop_assert!(lean.max_epoch >= old.max_epoch);
                }
                prop_assert!(!lean.counter_bounded || lean.msg_counter >= used);
            }
        }
    }
}
