//! The broker: a prepare-batch pipeline between client sessions and one
//! attached EVS daemon.
//!
//! Ops accepted from sessions accumulate until a size or latency bound,
//! then flush as **one** batched multicast frame — the daemon group
//! orders a handful of batches instead of thousands of individual client
//! ops. Replies route back per client off the batch's agreed/safe
//! delivery at the attached daemon, and on a daemon loss the broker
//! reattaches to a survivor and resubmits everything still unacked (the
//! daemon-side [`OpLedger`](crate::OpLedger) dedups the overlap).

use crate::proto::{self, BatchEntry, BATCH_HEADER_BYTES};
use crate::session::{Session, SubmitOutcome};
use evs_core::{EvsParams, Payload};
use evs_order::Service;
use evs_sim::ProcessId;
use evs_telemetry::{names, Counter, Gauge, LogHistogram, Telemetry, TelemetryEvent};
use std::collections::{BTreeMap, VecDeque};

/// Tunables of one broker's prepare-batch pipeline and queues.
#[derive(Clone, Debug)]
pub struct BrokerParams {
    /// Flush a batch before its frame would exceed this many bytes.
    /// Defaults to [`EvsParams::max_datagram_bytes`] — the same budget
    /// the live driver packs ring datagrams against, so one tunable
    /// governs both.
    pub max_batch_bytes: usize,
    /// Flush a batch once it holds this many ops, whatever its size.
    pub max_batch_ops: usize,
    /// Flush a non-empty batch this many ticks after its oldest op
    /// arrived (the latency bound of the pipeline).
    pub flush_interval: u64,
    /// Per-session in-flight window: a client with this many unacked ops
    /// gets backpressure instead of buffer growth.
    pub session_inflight: usize,
    /// Broker-wide in-flight budget across all sessions.
    pub broker_inflight: usize,
    /// The delivery service batches are submitted under. Reply routing
    /// keys off agreed/safe delivery; `Agreed` is the default.
    pub service: Service,
}

impl Default for BrokerParams {
    fn default() -> Self {
        BrokerParams {
            max_batch_bytes: EvsParams::default().max_datagram_bytes,
            max_batch_ops: 4096,
            flush_interval: 8,
            session_inflight: 64,
            broker_inflight: 1 << 16,
            service: Service::Agreed,
        }
    }
}

/// One routed reply: the op `(client, seq)` was delivered by the group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    /// The client whose op was delivered.
    pub client: u64,
    /// The op's per-client sequence number.
    pub seq: u64,
}

/// A client-session front-end multiplexing many clients over one attached
/// EVS daemon. Driver-agnostic: the sim driver
/// ([`BrokerCluster`](crate::BrokerCluster)) and the live UDP example both
/// feed it the same calls — `connect`/`submit` in, flushed batch frames
/// out, delivered frames back in, replies out.
#[derive(Debug)]
pub struct Broker {
    id: u32,
    attached: ProcessId,
    /// `BTreeMap` so reattachment resubmits in deterministic client order.
    sessions: BTreeMap<u64, Session>,
    pending: VecDeque<BatchEntry>,
    pending_bytes: usize,
    /// Tick the oldest pending op arrived at (latency-bound clock).
    pending_since: u64,
    inflight_ops: usize,
    params: BrokerParams,
    telemetry: Telemetry,
    // Event-backed names (sessions, batches, backpressure, reconnects)
    // are counted by `Telemetry::record` itself; only the high-volume
    // per-op counters need explicit handles.
    c_submitted: Counter,
    c_replies: Counter,
    h_batch_ops: LogHistogram,
    // Queue-depth gauges for the live observability plane (`evs-top`
    // shows broker backlog next to ring progress).
    g_inflight: Gauge,
    g_pending: Gauge,
}

impl Broker {
    /// Creates broker `id` attached to daemon `attached`, telemetry
    /// detached.
    pub fn new(id: u32, attached: ProcessId, params: BrokerParams) -> Self {
        Broker::with_telemetry(id, attached, params, Telemetry::disabled())
    }

    /// Creates a broker recording into `telemetry`.
    pub fn with_telemetry(
        id: u32,
        attached: ProcessId,
        params: BrokerParams,
        telemetry: Telemetry,
    ) -> Self {
        Broker {
            id,
            attached,
            sessions: BTreeMap::new(),
            pending: VecDeque::new(),
            pending_bytes: 0,
            pending_since: 0,
            inflight_ops: 0,
            c_submitted: telemetry.counter(names::BROKER_OPS_SUBMITTED),
            c_replies: telemetry.counter(names::BROKER_REPLIES_ROUTED),
            h_batch_ops: telemetry.log_histogram(names::BROKER_BATCH_OPS),
            g_inflight: telemetry.gauge(names::BROKER_INFLIGHT_OPS),
            g_pending: telemetry.gauge(names::BROKER_PENDING_OPS),
            params,
            telemetry,
        }
    }

    /// Refreshes the queue-depth gauges from the current counts; called
    /// after every mutation of the inflight/pending queues.
    fn update_depth_gauges(&self) {
        self.g_inflight.set(self.inflight_ops as i64);
        self.g_pending.set(self.pending.len() as i64);
    }

    /// This broker's identifier (stamped into every batch frame).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The daemon this broker currently submits through.
    pub fn attached(&self) -> ProcessId {
        self.attached
    }

    /// Number of open sessions.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Unacked ops across all sessions.
    pub fn inflight(&self) -> usize {
        self.inflight_ops
    }

    /// Ops accumulated but not yet flushed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Opens a session for `client` (idempotent).
    pub fn connect(&mut self, at: u64, client: u64) {
        if self.sessions.contains_key(&client) {
            return;
        }
        self.sessions
            .insert(client, Session::new(client, self.params.session_inflight));
        self.telemetry.record(
            at,
            TelemetryEvent::SessionOpened {
                broker: self.id,
                client,
            },
        );
    }

    /// Accepts one op from `client` into the prepare-batch pipeline. A
    /// first submit from an unknown client opens its session implicitly.
    pub fn submit(&mut self, at: u64, client: u64, op: Payload) -> SubmitOutcome {
        self.connect(at, client);
        if self.inflight_ops >= self.params.broker_inflight {
            return self.backpressure(at, client);
        }
        let session = self.sessions.get_mut(&client).expect("session just opened");
        let Some(seq) = session.try_submit(op.clone()) else {
            return self.backpressure(at, client);
        };
        if self.pending.is_empty() {
            self.pending_since = at;
        }
        self.pending_bytes += proto::ENTRY_HEADER_BYTES + op.len();
        self.pending.push_back(BatchEntry { client, seq, op });
        self.inflight_ops += 1;
        self.c_submitted.inc();
        self.update_depth_gauges();
        SubmitOutcome::Accepted { seq }
    }

    fn backpressure(&mut self, at: u64, client: u64) -> SubmitOutcome {
        self.telemetry.record(
            at,
            TelemetryEvent::BackpressureSignaled {
                broker: self.id,
                client,
            },
        );
        SubmitOutcome::Backpressure
    }

    /// Flushes any batches whose size, op-count or latency bound is due.
    /// Each returned frame is one EVS `submit` for the attached daemon.
    pub fn poll_flush(&mut self, at: u64) -> Vec<Payload> {
        let mut out = Vec::new();
        while self.size_bound_reached() {
            out.push(self.cut_batch(at));
        }
        if !self.pending.is_empty()
            && at.saturating_sub(self.pending_since) >= self.params.flush_interval
        {
            out.push(self.cut_batch(at));
        }
        out
    }

    /// Flushes everything pending regardless of bounds (shutdown, or a
    /// bench draining its tail).
    pub fn force_flush(&mut self, at: u64) -> Vec<Payload> {
        let mut out = Vec::new();
        while !self.pending.is_empty() {
            out.push(self.cut_batch(at));
        }
        out
    }

    fn size_bound_reached(&self) -> bool {
        self.pending.len() >= self.params.max_batch_ops
            || BATCH_HEADER_BYTES + self.pending_bytes > self.params.max_batch_bytes
    }

    /// Drains pending ops from the front into one encoded batch frame,
    /// greedily up to the size/op bounds (always at least one op).
    fn cut_batch(&mut self, at: u64) -> Payload {
        let mut entries = Vec::new();
        let mut bytes = BATCH_HEADER_BYTES;
        while let Some(front) = self.pending.front() {
            let len = front.encoded_len();
            if !entries.is_empty()
                && (entries.len() >= self.params.max_batch_ops
                    || bytes + len > self.params.max_batch_bytes)
            {
                break;
            }
            bytes += len;
            self.pending_bytes -= len;
            entries.push(self.pending.pop_front().expect("front just seen"));
        }
        self.pending_since = at;
        let frame = proto::encode_batch(self.id, &entries);
        self.h_batch_ops.observe(entries.len() as u64);
        self.update_depth_gauges();
        self.telemetry.record(
            at,
            TelemetryEvent::BatchFlushed {
                broker: self.id,
                ops: entries.len() as u32,
                bytes: frame.len() as u64,
            },
        );
        frame
    }

    /// Routes one delivered application payload. Frames that are not
    /// batches, or batches from other brokers, return no replies; a batch
    /// of this broker's acks every entry still in flight and returns one
    /// [`Reply`] per newly acked op. Re-acks (the same op delivered again
    /// in a transitional configuration, or observed again after a
    /// reattachment replay) are silently idempotent.
    pub fn on_delivered(&mut self, at: u64, frame: &[u8]) -> Vec<Reply> {
        let Some((broker, entries)) = proto::decode_batch(frame) else {
            return Vec::new();
        };
        if broker != self.id {
            return Vec::new();
        }
        let mut replies = Vec::new();
        for e in entries {
            let Some(session) = self.sessions.get_mut(&e.client) else {
                continue;
            };
            if session.ack(e.seq) {
                self.inflight_ops -= 1;
                self.c_replies.inc();
                replies.push(Reply {
                    client: e.client,
                    seq: e.seq,
                });
            }
        }
        let _ = at;
        self.update_depth_gauges();
        replies
    }

    /// Reattaches to daemon `to` after losing the previous attachment:
    /// the pending queue is rebuilt from every session's unacked window
    /// (a superset of what was pending — ops whose batch flushed but
    /// whose delivery was never observed are resubmitted too), and the
    /// rebuilt batches are returned for immediate submission at `to`.
    /// The daemon-side ledger makes the overlap exactly-once.
    pub fn reattach(&mut self, at: u64, to: ProcessId) -> Vec<Payload> {
        self.attached = to;
        self.pending.clear();
        self.pending_bytes = 0;
        self.pending_since = at;
        let mut resubmitted = 0u64;
        for session in self.sessions.values() {
            for (seq, op) in session.unacked() {
                self.pending_bytes += proto::ENTRY_HEADER_BYTES + op.len();
                self.pending.push_back(BatchEntry {
                    client: session.client(),
                    seq,
                    op: op.clone(),
                });
                resubmitted += 1;
            }
        }
        self.update_depth_gauges();
        self.telemetry.record(
            at,
            TelemetryEvent::BrokerReattached {
                broker: self.id,
                to: to.index(),
                resubmitted,
            },
        );
        self.force_flush(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> BrokerParams {
        BrokerParams {
            max_batch_bytes: 200,
            max_batch_ops: 4,
            flush_interval: 10,
            session_inflight: 3,
            broker_inflight: 8,
            ..BrokerParams::default()
        }
    }

    fn op(n: usize) -> Payload {
        Payload::from(vec![0xAB; n])
    }

    #[test]
    fn accumulates_until_the_latency_bound() {
        let mut b = Broker::new(0, ProcessId::new(0), small_params());
        assert_eq!(b.submit(0, 1, op(4)), SubmitOutcome::Accepted { seq: 1 });
        assert_eq!(b.submit(2, 2, op(4)), SubmitOutcome::Accepted { seq: 1 });
        assert!(b.poll_flush(5).is_empty(), "latency bound not reached");
        let batches = b.poll_flush(10);
        assert_eq!(batches.len(), 1);
        let (id, entries) = proto::decode_batch(&batches[0]).unwrap();
        assert_eq!(id, 0);
        assert_eq!(entries.len(), 2);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn op_count_bound_cuts_a_batch_immediately() {
        let mut b = Broker::new(1, ProcessId::new(0), small_params());
        for client in 0..5 {
            b.submit(0, client, op(1));
        }
        let batches = b.poll_flush(0);
        assert_eq!(batches.len(), 1, "4-op bound cut one batch");
        let (_, entries) = proto::decode_batch(&batches[0]).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(b.pending(), 1, "fifth op awaits its own bound");
    }

    #[test]
    fn size_bound_splits_large_payloads() {
        let mut b = Broker::new(0, ProcessId::new(0), small_params());
        // Each entry is 20 + 80 = 100 bytes against a 200-byte budget:
        // header + one entry fits, two entries do not.
        for client in 0..3 {
            b.submit(0, client, op(80));
        }
        let batches = b.force_flush(0);
        assert_eq!(batches.len(), 3);
        for frame in &batches {
            assert!(frame.len() <= 200);
        }
    }

    #[test]
    fn session_window_backpressures() {
        let mut b = Broker::new(0, ProcessId::new(0), small_params());
        for _ in 0..3 {
            assert!(matches!(
                b.submit(0, 7, op(1)),
                SubmitOutcome::Accepted { .. }
            ));
        }
        assert_eq!(b.submit(0, 7, op(1)), SubmitOutcome::Backpressure);
        // Another client is unaffected.
        assert!(matches!(
            b.submit(0, 8, op(1)),
            SubmitOutcome::Accepted { .. }
        ));
    }

    #[test]
    fn broker_budget_backpressures_across_sessions() {
        let mut b = Broker::new(0, ProcessId::new(0), small_params());
        for client in 0..8 {
            assert!(matches!(
                b.submit(0, client, op(1)),
                SubmitOutcome::Accepted { .. }
            ));
        }
        assert_eq!(b.submit(0, 100, op(1)), SubmitOutcome::Backpressure);
    }

    #[test]
    fn delivery_acks_and_routes_replies_once() {
        let mut b = Broker::new(3, ProcessId::new(0), small_params());
        b.submit(0, 1, op(1));
        b.submit(0, 2, op(1));
        let batches = b.force_flush(0);
        assert_eq!(batches.len(), 1);
        let replies = b.on_delivered(5, &batches[0]);
        assert_eq!(
            replies,
            vec![Reply { client: 1, seq: 1 }, Reply { client: 2, seq: 1 }]
        );
        assert_eq!(b.inflight(), 0);
        // Redelivery (transitional configuration) is idempotent.
        assert!(b.on_delivered(6, &batches[0]).is_empty());
    }

    #[test]
    fn foreign_batches_and_noise_route_nothing() {
        let mut b = Broker::new(0, ProcessId::new(0), small_params());
        b.submit(0, 1, op(1));
        let other = proto::encode_batch(
            9,
            &[BatchEntry {
                client: 1,
                seq: 1,
                op: op(1),
            }],
        );
        assert!(b.on_delivered(0, &other).is_empty());
        assert!(b.on_delivered(0, b"not a frame").is_empty());
        assert_eq!(b.inflight(), 1);
    }

    #[test]
    fn reattach_resubmits_everything_unacked() {
        let mut b = Broker::new(0, ProcessId::new(0), small_params());
        b.submit(0, 1, op(1));
        b.submit(0, 2, op(1));
        let flushed = b.force_flush(0);
        b.submit(1, 1, op(1)); // still pending, never flushed
                               // Only client 1's first op gets acked before the daemon dies.
        let one = proto::decode_batch(&flushed[0]).unwrap().1;
        let partial = proto::encode_batch(0, &one[..1]);
        b.on_delivered(2, &partial);

        let batches = b.reattach(3, ProcessId::new(2));
        assert_eq!(b.attached(), ProcessId::new(2));
        let mut resubmitted: Vec<(u64, u64)> = batches
            .iter()
            .flat_map(|f| proto::decode_batch(f).unwrap().1)
            .map(|e| (e.client, e.seq))
            .collect();
        resubmitted.sort_unstable();
        // Unacked = client 1 seq 2 (pending) and client 2 seq 1 (flushed
        // but unacked); the acked (1, 1) is not resubmitted.
        assert_eq!(resubmitted, vec![(1, 2), (2, 1)]);
    }

    #[test]
    fn telemetry_counts_the_pipeline() {
        let t = Telemetry::enabled(0);
        let mut b = Broker::with_telemetry(0, ProcessId::new(0), small_params(), t.clone());
        b.submit(0, 1, op(1));
        b.submit(0, 1, op(1));
        b.submit(0, 1, op(1));
        b.submit(0, 1, op(1)); // window of 3 → backpressure
        let batches = b.force_flush(0);
        b.on_delivered(1, &batches[0]);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counters[names::BROKER_SESSIONS], 1);
        assert_eq!(snap.counters[names::BROKER_OPS_SUBMITTED], 3);
        assert_eq!(snap.counters[names::BROKER_BACKPRESSURE], 1);
        assert_eq!(snap.counters[names::BROKER_BATCHES_FLUSHED], 1);
        assert_eq!(snap.counters[names::BROKER_REPLIES_ROUTED], 3);
        // Depth gauges track the queues: everything flushed and acked.
        assert_eq!(snap.gauges[names::BROKER_INFLIGHT_OPS], 0);
        assert_eq!(snap.gauges[names::BROKER_PENDING_OPS], 0);
    }

    #[test]
    fn depth_gauges_follow_the_queues() {
        let t = Telemetry::enabled(0);
        let mut b = Broker::with_telemetry(0, ProcessId::new(0), small_params(), t.clone());
        b.submit(0, 1, op(1));
        b.submit(0, 2, op(1));
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.gauges[names::BROKER_INFLIGHT_OPS], 2);
        assert_eq!(snap.gauges[names::BROKER_PENDING_OPS], 2);
        let batches = b.force_flush(0);
        let snap = t.snapshot().unwrap();
        assert_eq!(
            snap.gauges[names::BROKER_INFLIGHT_OPS],
            2,
            "flushed, unacked"
        );
        assert_eq!(snap.gauges[names::BROKER_PENDING_OPS], 0);
        b.on_delivered(1, &batches[0]);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.gauges[names::BROKER_INFLIGHT_OPS], 0);
    }
}
