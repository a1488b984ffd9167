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
//! All integers are big-endian. Decoders reject bad magic, truncation and
//! trailing bytes — a decoder returning `None` means "not mine", which is
//! how daemon-side consumers skip non-broker application payloads.

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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn take<'a>(buf: &'a [u8], at: &mut usize, n: usize) -> Option<&'a [u8]> {
    let end = at.checked_add(n)?;
    let slice = buf.get(*at..end)?;
    *at = end;
    Some(slice)
}

fn read_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    Some(u32::from_be_bytes(take(buf, at, 4)?.try_into().ok()?))
}

fn read_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    Some(u64::from_be_bytes(take(buf, at, 8)?.try_into().ok()?))
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
    let total: usize =
        BATCH_HEADER_BYTES + entries.iter().map(BatchEntry::encoded_len).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&BATCH_MAGIC);
    put_u32(&mut out, broker);
    put_u32(&mut out, entries.len() as u32);
    for e in entries {
        put_u64(&mut out, e.client);
        put_u64(&mut out, e.seq);
        put_u32(&mut out, e.op.len() as u32);
        out.extend_from_slice(&e.op);
    }
    Payload::from(out)
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
/// into `bytes`: one allocation, the entry list. `None` on bad magic,
/// truncation or trailing bytes.
pub fn decode_batch(bytes: &[u8]) -> Option<(u32, Vec<BatchEntryRef<'_>>)> {
    if !is_batch(bytes) {
        return None;
    }
    let mut at = 4;
    let broker = read_u32(bytes, &mut at)?;
    let count = read_u32(bytes, &mut at)? as usize;
    let mut entries = Vec::with_capacity(count.min(bytes.len() / ENTRY_HEADER_BYTES + 1));
    for _ in 0..count {
        let client = read_u64(bytes, &mut at)?;
        let seq = read_u64(bytes, &mut at)?;
        let len = read_u32(bytes, &mut at)? as usize;
        let op = take(bytes, &mut at, len)?;
        entries.push(BatchEntryRef { client, seq, op });
    }
    if at != bytes.len() {
        return None;
    }
    Some((broker, entries))
}

/// Encodes a client submit frame (client → broker).
pub fn encode_submit(client: u64, op: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 4 + op.len());
    out.extend_from_slice(&SUBMIT_MAGIC);
    put_u64(&mut out, client);
    put_u32(&mut out, op.len() as u32);
    out.extend_from_slice(op);
    out
}

/// Decodes a client submit frame into `(client, op)`.
pub fn decode_submit(bytes: &[u8]) -> Option<(u64, Payload)> {
    if bytes.get(..4) != Some(&SUBMIT_MAGIC) {
        return None;
    }
    let mut at = 4;
    let client = read_u64(bytes, &mut at)?;
    let len = read_u32(bytes, &mut at)? as usize;
    let op = Payload::copy_from_slice(take(bytes, &mut at, len)?);
    (at == bytes.len()).then_some((client, op))
}

/// Encodes a broker reply frame (broker → client).
pub fn encode_reply(client: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 8 + 8);
    out.extend_from_slice(&REPLY_MAGIC);
    put_u64(&mut out, client);
    put_u64(&mut out, seq);
    out
}

/// Decodes a broker reply frame into `(client, seq)`.
pub fn decode_reply(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.get(..4) != Some(&REPLY_MAGIC) {
        return None;
    }
    let mut at = 4;
    let client = read_u64(bytes, &mut at)?;
    let seq = read_u64(bytes, &mut at)?;
    (at == bytes.len()).then_some((client, seq))
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
        let (client, op) = decode_submit(&s).expect("submit");
        assert_eq!((client, op.as_slice()), (42, &b"balance?"[..]));

        let r = encode_reply(42, 9);
        assert_eq!(decode_reply(&r), Some((42, 9)));
        assert_eq!(decode_reply(&r[..r.len() - 1]), None);
    }
}
