//! Allocation counts on the broker tier's per-op path, pinned: a warm
//! submit — its decode and its copy into the open batch frame — allocates
//! nothing, a flush allocates the same few times whatever its op count, a
//! delivered batch decodes into views with one allocation (the entry
//! list), an in-order ledger application allocates nothing, and routing a
//! batch's replies allocates the entry list and the reply list, nothing
//! per op — after which the broker holds no frame: each flushed frame is
//! kept until a delivery equal to it. A whole warm round for 1,024 known
//! clients allocates per frame, never per op; and since no broker map is
//! ever iterated, two brokers hashing client ids under different seeds
//! answer the same calls with the same bytes.
//!
//! The counting allocator (after `bench/src/alloc.rs`) counts per thread,
//! so tests running side by side do not see each other's allocations.

use evs_broker::proto::{self, BatchEntry};
use evs_broker::{Broker, BrokerParams, OpLedger, SubmitOutcome};
use evs_core::Payload;
use evs_sim::ProcessId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn counted(bytes: usize) {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's own layout
// and pointer, unchanged; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes allocated that `f` makes on this thread, and its
/// result.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (after.0 - before.0, after.1 - before.1, out)
}

/// A batch as the broker benchmark cuts them: 710 ops of 64 B each, close
/// to the 60,000-byte default budget.
const OPS: u64 = 710;
const OP_BYTES: usize = 64;

fn batch_entries() -> Vec<BatchEntry> {
    (0..OPS)
        .map(|client| BatchEntry {
            client,
            seq: 1,
            op: Payload::from(vec![client as u8; OP_BYTES]),
        })
        .collect()
}

#[test]
fn decoding_a_batch_allocates_only_the_entry_list() {
    let frame = proto::encode_batch(4, &batch_entries());
    let (allocs, _, decoded) = allocs_of(|| proto::decode_batch(&frame));
    let (broker, entries) = decoded.expect("decodes");
    assert_eq!((broker, entries.len()), (4, OPS as usize));
    assert!(entries.iter().all(|e| e.op.len() == OP_BYTES));
    assert_eq!(allocs, 1, "the entry list, no copy of any op");
}

#[test]
fn a_hostile_entry_count_presizes_by_the_frame_not_the_count() {
    let mut frame = proto::BATCH_MAGIC.to_vec();
    frame.extend_from_slice(&0u32.to_be_bytes());
    frame.extend_from_slice(&u32::MAX.to_be_bytes());
    frame.extend_from_slice(&[0; 12]);
    let (allocs, bytes, decoded) = allocs_of(|| proto::decode_batch(&frame));
    assert_eq!(decoded, None);
    assert!(
        allocs <= 1 && bytes <= 256,
        "{allocs} allocations, {bytes} B"
    );
}

#[test]
fn in_order_ledger_application_allocates_nothing() {
    const CLIENTS: u64 = 1024;
    let mut ledger = OpLedger::new();
    // A client's first op costs its slot in the client table and nothing
    // else: the table grows by doublings, no reordering set is built.
    let (allocs, _, ()) = allocs_of(|| {
        for client in 0..CLIENTS {
            assert!(ledger.apply(client, 1));
        }
    });
    let doublings = (CLIENTS as f64).log2();
    assert!(
        allocs as f64 <= doublings,
        "{allocs} allocations to warm up"
    );
    let (allocs, _, ()) = allocs_of(|| {
        for seq in 2..=4 {
            for client in 0..CLIENTS {
                assert!(ledger.apply(client, seq));
            }
        }
    });
    assert_eq!(allocs, 0);
    assert!(ledger.contains(CLIENTS - 1, 4) && !ledger.contains(0, 5));
}

/// One op of `OP_BYTES` from each of the first `ops` clients, as submit
/// datagrams.
fn submits(ops: u64) -> Vec<Vec<u8>> {
    (0..ops)
        .map(|client| proto::encode_submit(client, &[client as u8; OP_BYTES]))
        .collect()
}

/// Decodes and submits every datagram at tick `at`.
fn submit_all(broker: &mut Broker, at: u64, datagrams: &[Vec<u8>]) {
    for datagram in datagrams {
        let (client, op) = proto::decode_submit(datagram).expect("a submit frame");
        let outcome = broker.submit(at, client, op);
        assert!(matches!(outcome, SubmitOutcome::Accepted { .. }));
    }
}

/// A broker that has carried one full batch from every client through
/// flush and delivery: its sessions, open frame and queues have their
/// capacity.
fn warm_broker(datagrams: &[Vec<u8>]) -> Broker {
    let mut broker = Broker::new(0, ProcessId::new(0), BrokerParams::default());
    submit_all(&mut broker, 0, datagrams);
    for frame in broker.force_flush(0) {
        broker.on_delivered(0, &frame);
    }
    assert_eq!(broker.inflight(), 0);
    broker
}

#[test]
fn a_warm_submit_allocates_nothing() {
    let datagrams = submits(OPS);
    let mut broker = warm_broker(&datagrams);
    let (allocs, _, ()) = allocs_of(|| submit_all(&mut broker, 1, &datagrams));
    assert_eq!(broker.pending(), OPS as usize);
    assert_eq!(
        allocs, 0,
        "decode is a view, the copy lands in the open frame"
    );
}

#[test]
fn a_flush_allocates_the_same_for_any_op_count() {
    let datagrams = submits(OPS);
    let mut broker = warm_broker(&datagrams);
    let mut counts = Vec::new();
    for ops in [1, 16, OPS as usize] {
        submit_all(&mut broker, 1, &datagrams[..ops]);
        let (allocs, bytes, frames) = allocs_of(|| broker.force_flush(1));
        assert_eq!(frames.len(), 1);
        assert!(
            bytes as usize <= frames[0].len() + 128,
            "{bytes} B for a {} B frame",
            frames[0].len()
        );
        counts.push(allocs);
        for frame in frames {
            broker.on_delivered(2, &frame);
        }
    }
    assert!(
        counts.iter().all(|&n| n == counts[0] && n <= 2),
        "{counts:?} allocations: the frame and the list it is returned in"
    );
}

#[test]
fn routing_a_batch_of_replies_allocates_twice() {
    let mut broker = Broker::new(0, ProcessId::new(0), BrokerParams::default());
    submit_all(&mut broker, 0, &submits(OPS));
    let batches = broker.force_flush(0);
    assert_eq!(batches.len(), 1, "one batch");
    assert!(
        broker.held_bytes() >= batches[0].len(),
        "kept until delivered"
    );
    let (allocs, _, replies) = allocs_of(|| broker.on_delivered(1, &batches[0]));
    assert_eq!(replies.len(), OPS as usize);
    assert_eq!(broker.inflight(), 0);
    assert!(
        allocs <= 2,
        "{allocs} allocations: entry list and reply list only"
    );
    assert_eq!(broker.held_bytes(), 0, "every op acked, no frame retained");
}

#[test]
fn a_delivered_frame_is_released_while_later_ones_wait() {
    let params = BrokerParams {
        max_batch_ops: 4,
        ..BrokerParams::default()
    };
    let mut broker = Broker::new(0, ProcessId::new(0), params);
    submit_all(&mut broker, 0, &submits(5));
    let batches = broker.force_flush(0);
    assert_eq!(batches.len(), 2, "4-op bound");
    assert_eq!(broker.held_bytes(), batches[0].len() + batches[1].len());
    // A copy, as a daemon decoding it off the wire would deliver it.
    let decoded = Payload::copy_from_slice(&batches[0]);
    assert!(!decoded.ptr_eq(&batches[0]));
    broker.on_delivered(1, &decoded);
    assert_eq!(broker.held_bytes(), batches[1].len());
    broker.on_delivered(2, &batches[1]);
    assert_eq!(broker.held_bytes(), 0);
}

#[test]
fn frames_acked_through_a_resubmitted_copy_are_released() {
    let mut broker = Broker::new(0, ProcessId::new(0), BrokerParams::default());
    let datagrams = submits(2);
    let mut originals = Vec::new();
    for datagram in &datagrams {
        submit_all(&mut broker, 0, std::slice::from_ref(datagram));
        originals.extend(broker.force_flush(0));
    }
    let resubmitted = broker.reattach(1, ProcessId::new(1));
    assert_eq!((originals.len(), resubmitted.len()), (2, 1));
    // The originals' deliveries ack both ops; the one resubmitted frame,
    // equal to neither, is never seen.
    for frame in &originals {
        broker.on_delivered(2, frame);
    }
    assert_eq!(broker.inflight(), 0);
    assert_eq!(broker.held_bytes(), 0);
}

#[test]
fn a_warm_round_for_known_clients_allocates_per_frame_not_per_op() {
    const CLIENTS: u64 = 1024;
    let datagrams = submits(CLIENTS);
    let mut broker = warm_broker(&datagrams);
    let mut ledgers: Vec<OpLedger> = (0..3).map(|_| OpLedger::new()).collect();
    let mut round = |at: u64| {
        submit_all(&mut broker, at, &datagrams);
        let frames = broker.force_flush(at);
        let mut replies = 0;
        for frame in &frames {
            for ledger in &mut ledgers {
                let (_, entries) = proto::decode_batch(frame).expect("a batch");
                assert!(entries.iter().all(|e| ledger.apply(e.client, e.seq)));
            }
            replies += broker.on_delivered(at, frame).len();
        }
        assert_eq!(replies, CLIENTS as usize);
        frames.len() as u64
    };
    round(1);
    let (allocs, _, frames) = allocs_of(|| round(2));
    assert_eq!(broker.inflight(), 0);
    // Per frame: the frame, the broker's entry and reply lists, and each
    // ledger's entry list; plus the list the flush returns.
    assert!(
        allocs <= frames * 6 + 1,
        "{allocs} allocations for {CLIENTS} ops in {frames} frames"
    );
}

#[test]
fn brokers_hashing_under_different_seeds_answer_byte_for_byte_alike() {
    // Each broker's session map draws its own seed: these two lay the
    // same client ids out in different orders.
    let mut brokers = [(); 2].map(|()| {
        let params = BrokerParams {
            max_batch_ops: 96,
            session_inflight: 3,
            ..BrokerParams::default()
        };
        Broker::new(0, ProcessId::new(0), params)
    });
    // Every outcome, reply list and frame, as bytes (a `Payload`'s
    // `Debug` shows only a prefix).
    let mut outputs: [Vec<Vec<u8>>; 2] = Default::default();
    for (broker, out) in brokers.iter_mut().zip(&mut outputs) {
        let mut rng = 0x5EED_u64;
        let mut flushed: Vec<Payload> = Vec::new();
        for at in 0..2_000u64 {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let pick = (rng >> 33) as usize;
            let frames = match pick % 20 {
                0..=11 => {
                    let client = (rng >> 13) % 1024;
                    let outcome = broker.submit(at, client, &client.to_le_bytes());
                    out.push(format!("{outcome:?}").into_bytes());
                    Vec::new()
                }
                12 | 13 => broker.poll_flush(at),
                // An earlier frame, delivered (again): replies in entry
                // order, duplicates silent.
                14..=16 if !flushed.is_empty() => {
                    let replies = broker.on_delivered(at, &flushed[pick % flushed.len()]);
                    out.push(format!("{replies:?}").into_bytes());
                    Vec::new()
                }
                17 => broker.reattach(at, ProcessId::new(1)),
                _ => broker.force_flush(at),
            };
            out.extend(frames.iter().map(|frame| frame.to_vec()));
            flushed.extend(frames);
        }
        out.push(format!("{} {}", broker.inflight(), broker.held_bytes()).into_bytes());
    }
    let replied = outputs[0].iter().any(|line| line.starts_with(b"[Reply"));
    assert!(replied, "deliveries routed replies");
    assert!(outputs[0] == outputs[1], "output depends on the map seed");
}
