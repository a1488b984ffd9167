//! Differential properties of the broker's per-op decisions: a batch
//! frame decodes into views equal field for field to what was encoded,
//! the ledger's floor-and-tail bookkeeping answers exactly like the set
//! of every `(client, seq)` ever applied, a session's acked set answers
//! exactly like a window of the unacked seqs, and the broker, which encodes
//! each op into its batch frame as the op arrives, cuts, acks and
//! resubmits exactly like a queue of whole ops cut greedily at flush time.

use evs_broker::proto::{self, BatchEntry, BATCH_HEADER_BYTES};
use evs_broker::{Broker, BrokerParams, OpLedger, Reply, Session, SubmitOutcome};
use evs_core::Payload;
use evs_sim::ProcessId;
use evs_telemetry::{names, Telemetry};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

const BROKER: u32 = 5;

/// The reference batcher: every accepted op waits whole in a FIFO, and a
/// flush cuts the FIFO greedily from the front into frames. Sessions keep
/// each unacked op's bytes, which a reattachment queues again.
struct Model {
    params: BrokerParams,
    /// Per client: the next seq and the unacked `(seq, op)`s.
    sessions: BTreeMap<u64, (u64, VecDeque<(u64, Payload)>)>,
    pending: VecDeque<BatchEntry>,
    pending_since: u64,
    inflight: usize,
}

impl Model {
    fn submit(&mut self, at: u64, client: u64, op: &[u8]) -> SubmitOutcome {
        let full = self.inflight >= self.params.broker_inflight;
        let (next, window) = self.sessions.entry(client).or_insert((1, VecDeque::new()));
        if full || window.len() >= self.params.session_inflight.max(1) {
            return SubmitOutcome::Backpressure;
        }
        let seq = *next;
        *next += 1;
        window.push_back((seq, Payload::from(op)));
        if self.pending.is_empty() {
            self.pending_since = at;
        }
        self.pending.push_back(BatchEntry {
            client,
            seq,
            op: Payload::from(op),
        });
        self.inflight += 1;
        SubmitOutcome::Accepted { seq }
    }

    fn poll_flush(&mut self, at: u64) -> Vec<Payload> {
        let mut out = Vec::new();
        while self.pending.len() >= self.params.max_batch_ops
            || BATCH_HEADER_BYTES
                + self
                    .pending
                    .iter()
                    .map(BatchEntry::encoded_len)
                    .sum::<usize>()
                > self.params.max_batch_bytes
        {
            out.push(self.cut(at));
        }
        if !self.pending.is_empty()
            && at.saturating_sub(self.pending_since) >= self.params.flush_interval
        {
            out.push(self.cut(at));
        }
        out
    }

    fn force_flush(&mut self, at: u64) -> Vec<Payload> {
        let mut out = Vec::new();
        while !self.pending.is_empty() {
            out.push(self.cut(at));
        }
        out
    }

    /// One frame of the longest FIFO prefix within both bounds, and never
    /// less than one op.
    fn cut(&mut self, at: u64) -> Payload {
        let (mut n, mut bytes) = (0, BATCH_HEADER_BYTES);
        while let Some(e) = self.pending.get(n) {
            if n > 0
                && (n >= self.params.max_batch_ops
                    || bytes + e.encoded_len() > self.params.max_batch_bytes)
            {
                break;
            }
            bytes += e.encoded_len();
            n += 1;
        }
        self.pending_since = at;
        let batch: Vec<BatchEntry> = self.pending.drain(..n).collect();
        proto::encode_batch(BROKER, &batch)
    }

    fn on_delivered(&mut self, frame: &[u8]) -> Vec<Reply> {
        let Some((BROKER, entries)) = proto::decode_batch(frame) else {
            return Vec::new();
        };
        let mut replies = Vec::new();
        for e in entries {
            let Some((_, window)) = self.sessions.get_mut(&e.client) else {
                continue;
            };
            if let Some(i) = window.iter().position(|(seq, _)| *seq == e.seq) {
                window.remove(i);
                self.inflight -= 1;
                replies.push(Reply {
                    client: e.client,
                    seq: e.seq,
                });
            }
        }
        replies
    }

    fn reattach(&mut self, at: u64) -> Vec<Payload> {
        self.pending.clear();
        for (&client, (_, window)) in &self.sessions {
            for (seq, op) in window {
                self.pending.push_back(BatchEntry {
                    client,
                    seq: *seq,
                    op: op.clone(),
                });
            }
        }
        self.pending_since = at;
        self.force_flush(at)
    }
}

/// One call into the broker (and the model), or the clock moving.
#[derive(Clone, Debug)]
enum Step {
    Submit {
        client: u64,
        len: usize,
    },
    Tick(u64),
    Poll,
    Force,
    /// Delivers the frame flushed this many frames ago, modulo all flushed
    /// so far: repeats are duplicate deliveries.
    Deliver(usize),
    Reattach,
}

fn step() -> impl Strategy<Value = Step> {
    // Small ops, ops two of which just fit or just miss the default
    // 60,000-byte budget, and ops alone at or over it.
    let len = prop_oneof![0usize..64, 29_970usize..29_996, 59_960usize..60_010];
    (0u8..15, 0u64..6, len, 0usize..8).prop_map(|(kind, n, len, back)| match kind {
        0..=5 => Step::Submit { client: n % 5, len },
        6 | 7 => Step::Tick(n),
        8 | 9 => Step::Poll,
        10 => Step::Force,
        11..=13 => Step::Deliver(back),
        _ => Step::Reattach,
    })
}

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

/// Which seq an ack or an apply names, relative to what the client has
/// been issued (or applied in order) so far.
#[derive(Clone, Copy, Debug)]
enum Pick {
    /// The oldest seq still at or above the floor mark: in order.
    Next,
    /// A seq ahead of the mark, out of order.
    Ahead(u64),
    /// A seq the mark has passed: a duplicate, possibly below the floor.
    Behind(u64),
    /// A seq never issued, or seq 0, which never is.
    Never(u64),
}

fn pick() -> impl Strategy<Value = Pick> {
    (0u8..10, 0u64..6).prop_map(|(kind, n)| match kind {
        0..=3 => Pick::Next,
        4 | 5 => Pick::Ahead(n + 1),
        6 | 7 => Pick::Behind(n),
        8 => Pick::Never(n),
        _ => Pick::Never(0),
    })
}

/// The seq `pick` names for a client whose lowest open seq is `mark` and
/// whose next unissued seq is `next`.
fn resolve(pick: Pick, mark: u64, next: u64) -> u64 {
    match pick {
        Pick::Next => mark,
        Pick::Ahead(n) => mark + n,
        Pick::Behind(n) => mark.saturating_sub(n + 1),
        Pick::Never(0) => 0,
        Pick::Never(n) => next + n - 1,
    }
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

    // Same: below-floor duplicates are what the planted bug lets through.
    #[cfg(not(feature = "broker-mutation"))]
    #[test]
    fn the_ledger_agrees_with_a_btree_set(
        steps in proptest::collection::vec((0u64..3, pick()), 0..400),
    ) {
        let mut ledger = OpLedger::new();
        let mut model = BTreeSet::new();
        for (client, pick) in steps {
            // Seqs start at 1: from a client's first sighting on, the
            // ledger reads the never-issued seq 0 as applied.
            model.insert((client, 0));
            // The mark: the client's lowest seq not applied yet.
            let mark = (1..).find(|&s| !model.contains(&(client, s))).expect("finite");
            // The ledger never learns what was issued: "never issued" is
            // far ahead.
            let seq = resolve(pick, mark, mark + 64);
            prop_assert_eq!(
                ledger.apply(client, seq),
                model.insert((client, seq)),
                "apply({}, {})", client, seq
            );
            let top = model.range((client, 0)..(client + 1, 0)).last().map_or(0, |&(_, s)| s);
            for s in 0..top + 3 {
                prop_assert_eq!(ledger.contains(client, s), model.contains(&(client, s)));
            }
        }
    }

    #[test]
    fn a_session_acks_like_a_window_of_unacked_seqs(
        limit in 0usize..6,
        steps in proptest::collection::vec(prop_oneof![Just(None), pick().prop_map(Some)], 0..200),
    ) {
        let mut session = Session::new(limit);
        // The old session: the unacked seqs, ascending, and the next seq.
        let (mut window, mut next) = (VecDeque::<u64>::new(), 1u64);
        for step in steps {
            match step {
                None => {
                    let want = (window.len() < limit.max(1)).then(|| {
                        window.push_back(next);
                        next += 1;
                        next - 1
                    });
                    prop_assert_eq!(session.try_submit(), want);
                }
                Some(pick) => {
                    let mark = window.front().copied().unwrap_or(next);
                    let seq = resolve(pick, mark, next);
                    let want = match window.binary_search(&seq) {
                        Ok(i) => window.remove(i).is_some(),
                        Err(_) => false,
                    };
                    prop_assert_eq!(session.ack(seq), want, "ack({})", seq);
                }
            }
            prop_assert_eq!(session.inflight_len(), window.len());
            for s in 0..next + 3 {
                prop_assert_eq!(session.is_unacked(s), window.contains(&s), "seq {}", s);
            }
        }
    }

    #[test]
    fn encoding_on_accept_cuts_like_the_greedy_queue(
        max_batch_ops in 1usize..5,
        flush_interval in 0u64..6,
        session_inflight in 1usize..5,
        broker_inflight in 2usize..10,
        steps in proptest::collection::vec(step(), 0..80),
    ) {
        let params = BrokerParams {
            max_batch_ops,
            flush_interval,
            session_inflight,
            broker_inflight,
            ..BrokerParams::default()
        };
        let telemetry = Telemetry::enabled(0);
        let mut broker =
            Broker::with_telemetry(BROKER, ProcessId::new(0), params.clone(), telemetry.clone());
        let mut model = Model {
            params,
            sessions: BTreeMap::new(),
            pending: VecDeque::new(),
            pending_since: 0,
            inflight: 0,
        };
        let (mut at, mut flushed) = (0u64, Vec::<Payload>::new());
        for (i, step) in steps.into_iter().enumerate() {
            let (frames, want) = match step {
                Step::Submit { client, len } => {
                    let op = vec![i as u8; len];
                    prop_assert_eq!(broker.submit(at, client, &op), model.submit(at, client, &op));
                    (Vec::new(), Vec::new())
                }
                Step::Tick(ticks) => {
                    at += ticks;
                    (Vec::new(), Vec::new())
                }
                Step::Poll => (broker.poll_flush(at), model.poll_flush(at)),
                Step::Force => (broker.force_flush(at), model.force_flush(at)),
                Step::Reattach => (
                    broker.reattach(at, ProcessId::new(1)),
                    model.reattach(at),
                ),
                Step::Deliver(back) => {
                    if let Some(frame) = flushed.iter().rev().cycle().nth(back) {
                        prop_assert_eq!(broker.on_delivered(at, frame), model.on_delivered(frame));
                    }
                    (Vec::new(), Vec::new())
                }
            };
            prop_assert_eq!(&frames, &want);
            flushed.extend(frames);
            prop_assert_eq!(broker.pending(), model.pending.len());
            prop_assert_eq!(broker.inflight(), model.inflight);
            if broker.inflight() == 0 {
                prop_assert_eq!(broker.held_bytes(), 0);
            }
        }
        let snap = telemetry.snapshot().expect("enabled");
        let batches = snap.counters.get(names::BROKER_BATCHES_FLUSHED).copied().unwrap_or(0);
        prop_assert_eq!(batches, flushed.len() as u64);
        prop_assert_eq!(snap.gauges[names::BROKER_PENDING_OPS], model.pending.len() as i64);
        prop_assert_eq!(snap.gauges[names::BROKER_INFLIGHT_OPS], model.inflight as i64);
    }
}
