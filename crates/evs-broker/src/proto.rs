//! The broker wire vocabulary: batched multicast frames and the framed
//! client protocol.
//!
//! Three frame kinds, each starting with a 4-byte magic so a receiver can
//! classify a buffer without context:
//!
//! * **Batch** (`EVB1`) — what a broker multicasts through the daemon
//!   group: one frame carrying many client ops, each stamped with the
//!   originating broker, the client identifier and the broker-assigned
//!   per-client sequence number. This is the payload of a single EVS
//!   `submit`; the group orders one batch, not thousands of ops.
//! * **Submit** (`EVBS`) — client → broker: one op from one client.
//! * **Reply** (`EVBR`) — broker → client: the op with this per-client
//!   sequence number was delivered (agreed/safe) by the group.
//!
//! All integers are big-endian, written with `bytes::BufMut` and read
//! through the checked `evs_core::codec` cursor. Decoders reject bad
//! magic, truncation and trailing bytes — a decoder returning `None`
//! means "not mine", which is how daemon-side consumers skip non-broker
//! application payloads.

use bytes::BufMut;
use evs_core::codec::{Get, Result, MAX_LEN};
use evs_core::Payload;

/// Magic prefix of a batched-multicast frame.
pub const BATCH_MAGIC: [u8; 4] = *b"EVB1";
/// Magic prefix of a client submit frame.
pub const SUBMIT_MAGIC: [u8; 4] = *b"EVBS";
/// Magic prefix of a broker reply frame.
pub const REPLY_MAGIC: [u8; 4] = *b"EVBR";

/// Fixed bytes of a batch frame before the first entry: magic, broker id,
/// entry count.
pub const BATCH_HEADER_BYTES: usize = 4 + 4 + 4;
/// Fixed bytes of one batch entry before its op bytes: client id,
/// per-client sequence number, op length.
pub const ENTRY_HEADER_BYTES: usize = 8 + 8 + 4;

/// One client op inside a batch: the unit the prepare-batch pipeline
/// accumulates and the daemon-side ledger dedups on `(client, seq)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchEntry {
    /// The submitting client.
    pub client: u64,
    /// Broker-assigned per-client sequence number (from 1).
    pub seq: u64,
    /// The opaque op bytes.
    pub op: Payload,
}

impl BatchEntry {
    /// Encoded size of this entry inside a batch frame.
    pub fn encoded_len(&self) -> usize {
        ENTRY_HEADER_BYTES + self.op.len()
    }
}

/// Decodes the body that follows `magic` in `bytes` with `read`, which
/// must consume all of it. `None` — "not mine" — for a foreign magic or
/// any decode error.
fn decode_frame<'a, T>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    read: impl FnOnce(&mut Get<'a, true>) -> Result<T>,
) -> Option<T> {
    let mut g = Get::be(bytes.strip_prefix(magic)?);
    let value = read(&mut g).ok()?;
    g.finish().ok()?;
    Some(value)
}

/// An op's length-prefixed bytes, as a view into the frame.
fn op_bytes<'a>(g: &mut Get<'a, true>) -> Result<&'a [u8]> {
    let len = g.count(MAX_LEN, 1)?;
    g.bytes(len)
}

/// True if `bytes` starts like a batch frame (cheap classification for
/// delivery consumers sharing the group with non-broker traffic).
pub fn is_batch(bytes: &[u8]) -> bool {
    bytes.get(..4) == Some(&BATCH_MAGIC)
}

/// Encodes one batched-multicast frame. The returned [`Payload`] is what
/// the broker submits to its attached daemon — the zero-copy type means
/// the ring store, broadcast fan-out and delivery logs all alias this one
/// buffer.
pub fn encode_batch(broker: u32, entries: &[BatchEntry]) -> Payload {
    let mut frame = BatchFrame::new(broker);
    for e in entries {
        frame.push(e.client, e.seq, &e.op);
    }
    frame.seal()
}

/// A batch frame built one entry at a time: the broker copies each op
/// into its open frame on arrival, once.
#[derive(Debug)]
pub(crate) struct BatchFrame {
    /// Header, its entry count patched at seal, and the entries so far.
    buf: Vec<u8>,
    ops: usize,
}

impl BatchFrame {
    /// An empty frame of broker `broker`.
    pub(crate) fn new(broker: u32) -> Self {
        let mut buf = Vec::with_capacity(BATCH_HEADER_BYTES);
        buf.put_slice(&BATCH_MAGIC);
        buf.put_u32(broker);
        buf.put_u32(0);
        BatchFrame { buf, ops: 0 }
    }

    /// Entries encoded so far.
    pub(crate) fn ops(&self) -> usize {
        self.ops
    }

    /// The frame's encoded size so far, header included.
    pub(crate) fn encoded_len(&self) -> usize {
        self.buf.len()
    }

    /// Appends one entry.
    pub(crate) fn push(&mut self, client: u64, seq: u64, op: &[u8]) {
        self.buf.put_u64(client);
        self.buf.put_u64(seq);
        self.buf.put_u32(op.len() as u32);
        self.buf.put_slice(op);
        self.ops += 1;
    }

    /// The finished frame, in one allocation. This frame is left empty
    /// and keeps its buffer for the next one.
    pub(crate) fn seal(&mut self) -> Payload {
        self.buf[8..BATCH_HEADER_BYTES].copy_from_slice(&(self.ops as u32).to_be_bytes());
        let frame = Payload::copy_from_slice(&self.buf);
        self.buf.truncate(BATCH_HEADER_BYTES);
        self.ops = 0;
        frame
    }
}

/// One client op of a delivered batch, borrowed from the frame: a daemon
/// applying the batch and a broker routing its replies read `client` and
/// `seq` without copying any op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchEntryRef<'a> {
    /// The submitting client.
    pub client: u64,
    /// Broker-assigned per-client sequence number (from 1).
    pub seq: u64,
    /// The opaque op bytes, a view into the frame.
    pub op: &'a [u8],
}

/// Decodes a batch frame back into `(broker, entries)`, each entry a view
/// into `bytes`: one allocation, the entry list, presized by what the
/// frame can hold. `None` on bad magic, truncation or trailing bytes.
pub fn decode_batch(bytes: &[u8]) -> Option<(u32, Vec<BatchEntryRef<'_>>)> {
    decode_frame(bytes, &BATCH_MAGIC, |g| {
        let broker = g.u32()?;
        let count = g.count(MAX_LEN, ENTRY_HEADER_BYTES)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(BatchEntryRef {
                client: g.u64()?,
                seq: g.u64()?,
                op: op_bytes(g)?,
            });
        }
        Ok((broker, entries))
    })
}

/// Encodes a client submit frame (client → broker).
pub fn encode_submit(client: u64, op: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 4 + op.len());
    out.put_slice(&SUBMIT_MAGIC);
    out.put_u64(client);
    out.put_u32(op.len() as u32);
    out.put_slice(op);
    out
}

/// Decodes a client submit frame into `(client, op)`, the op a view into
/// `bytes` for [`Broker::submit`](crate::Broker::submit) to copy.
pub fn decode_submit(bytes: &[u8]) -> Option<(u64, &[u8])> {
    decode_frame(bytes, &SUBMIT_MAGIC, |g| Ok((g.u64()?, op_bytes(g)?)))
}

/// Encodes a broker reply frame (broker → client).
pub fn encode_reply(client: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 8);
    out.put_slice(&REPLY_MAGIC);
    out.put_u64(client);
    out.put_u64(seq);
    out
}

/// Decodes a broker reply frame into `(client, seq)`.
pub fn decode_reply(bytes: &[u8]) -> Option<(u64, u64)> {
    decode_frame(bytes, &REPLY_MAGIC, |g| Ok((g.u64()?, g.u64()?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> Vec<BatchEntry> {
        vec![
            BatchEntry {
                client: 1,
                seq: 1,
                op: Payload::from(&b"credit 40"[..]),
            },
            BatchEntry {
                client: 900_007,
                seq: 3,
                op: Payload::new(),
            },
            BatchEntry {
                client: u64::MAX,
                seq: u64::MAX,
                op: Payload::from(vec![0xEE; 300]),
            },
        ]
    }

    fn views(es: &[BatchEntry]) -> Vec<BatchEntryRef<'_>> {
        es.iter()
            .map(|e| BatchEntryRef {
                client: e.client,
                seq: e.seq,
                op: &e.op,
            })
            .collect()
    }

    #[test]
    fn batch_round_trips() {
        let es = entries();
        let batch = encode_batch(7, &es);
        assert!(is_batch(&batch));
        let (broker, back) = decode_batch(&batch).expect("decode");
        assert_eq!(broker, 7);
        assert_eq!(back, views(&es));
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = encode_batch(0, &[]);
        assert_eq!(batch.len(), BATCH_HEADER_BYTES);
        assert_eq!(decode_batch(&batch), Some((0, Vec::new())));
    }

    #[test]
    fn encoded_len_matches_the_wire() {
        let es = entries();
        let batch = encode_batch(3, &es);
        let expect: usize =
            BATCH_HEADER_BYTES + es.iter().map(BatchEntry::encoded_len).sum::<usize>();
        assert_eq!(batch.len(), expect);
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let batch = encode_batch(7, &entries());
        for cut in 1..batch.len() {
            assert_eq!(decode_batch(&batch[..cut]), None, "cut at {cut}");
        }
        let mut padded = batch.to_vec();
        padded.push(0);
        assert_eq!(decode_batch(&padded), None);
    }

    #[test]
    fn foreign_magic_is_not_mine() {
        assert!(!is_batch(b"EVSC1234"));
        assert_eq!(decode_batch(b"EVSC1234"), None);
        assert_eq!(decode_submit(b"EVB1"), None);
        assert_eq!(decode_reply(b""), None);
    }

    #[test]
    fn client_frames_round_trip() {
        let s = encode_submit(42, b"balance?");
        assert_eq!(decode_submit(&s), Some((42, &b"balance?"[..])));

        let r = encode_reply(42, 9);
        assert_eq!(decode_reply(&r), Some((42, 9)));
        assert_eq!(decode_reply(&r[..r.len() - 1]), None);
    }
}
