//! Compact binary wire format for [`EvsMsg`] frames.
//!
//! The simulator moves typed messages directly; a real deployment (UDP
//! multicast, as Totem/Transis used) needs a byte encoding, and the live
//! worker loop (`evs-runtime`) uses it on every medium, in memory too. This module provides a hand-rolled, dependency-light
//! codec for `EvsMsg<Payload>` — the zero-copy payload type the rest of
//! the stack hands around — covering every nested protocol type:
//! configuration identifiers, ring data, data batches and tokens,
//! membership frames, and recovery exchange state.
//!
//! Layout conventions: fixed-width little-endian integers, one-byte tags
//! for enums, `u32` length prefixes for collections, `0`/`1` for booleans.
//! Decoding reads through the checked [`Get`] cursor and is strict:
//! trailing garbage inside a frame, unknown tags, non-canonical sets and
//! truncation are all errors — a malformed datagram must never turn into a
//! plausible protocol message.
//!
//! [`decode`] copies a data-carrying frame once: every payload of it is a
//! [`Payload`] view into one buffer, so a batch costs two allocations
//! whatever its size.
//!
//! Two hot-path conveniences for transports:
//!
//! * [`encode_into`] encodes into a caller-owned [`BytesMut`], so a send
//!   loop reuses one allocation for every frame it emits.
//! * [`pack_frames`] / [`unpack_frames`] pack several encoded frames into
//!   one length-delimited datagram (`u32` little-endian length headers),
//!   so a burst — say, every message stamped on one token visit — costs
//!   one system call instead of one per message.
//!
//! ```
//! use evs_core::{wire, EvsMsg, Payload};
//! use evs_membership::{ConfigId, MembMsg};
//! use evs_sim::ProcessId;
//!
//! let frame: EvsMsg<Payload> = EvsMsg::Memb(MembMsg::Heartbeat {
//!     config: ConfigId::regular(7, ProcessId::new(1)),
//! });
//! let bytes = wire::encode(&frame);
//! let back = wire::decode(&bytes).unwrap();
//! assert!(matches!(back, EvsMsg::Memb(MembMsg::Heartbeat { .. })));
//! ```

use crate::codec::{DecodeError, Get, Result, MAX_LEN};
use crate::recovery::ExchangeState;
use crate::{EvsMsg, Payload};
use bytes::{BufMut, BytesMut};
use evs_membership::{ConfigId, MembMsg};
use evs_order::{MessageId, OrderedMsg, RingMsg, Service, Token};
use evs_sim::ProcessId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Cap on the ordinals one [`ExchangeState`] may list above its floor. A
/// run costs 16 bytes on the wire however long it is, so the element count
/// is bounded here and not by the datagram: far above any window the ring
/// allows (`evs_order::MAX_HOLE_GAP` plus a few rotations of stamping),
/// small enough that a hostile frame cannot expand into gigabytes.
const MAX_RECEIVED: u64 = 1 << 20;

/// Wire bytes of the fixed-width elements collections are made of: the
/// least one element can occupy, which bounds a count's presize.
const PID_BYTES: usize = 4;
const ORDINAL_BYTES: usize = 8;
const RUN_BYTES: usize = 16;

// --- primitive helpers -------------------------------------------------

fn put_pid(out: &mut BytesMut, p: ProcessId) {
    out.put_u32_le(p.index());
}

fn get_pid(g: &mut Get) -> Result<ProcessId> {
    g.u32().map(ProcessId::new)
}

fn put_config(out: &mut BytesMut, c: ConfigId) {
    out.put_u64_le(c.epoch);
    put_pid(out, c.rep);
    out.put_u8(u8::from(c.transitional));
}

fn get_config(g: &mut Get) -> Result<ConfigId> {
    Ok(ConfigId {
        epoch: g.u64()?,
        rep: get_pid(g)?,
        transitional: g.bool()?,
    })
}

fn put_service(out: &mut BytesMut, s: Service) {
    out.put_u8(match s {
        Service::Causal => 0,
        Service::Agreed => 1,
        Service::Safe => 2,
    });
}

fn get_service(g: &mut Get) -> Result<Service> {
    match g.u8()? {
        0 => Ok(Service::Causal),
        1 => Ok(Service::Agreed),
        2 => Ok(Service::Safe),
        tag => Err(DecodeError::BadTag {
            what: "Service",
            tag,
        }),
    }
}

fn put_message_id(out: &mut BytesMut, id: MessageId) {
    put_pid(out, id.sender);
    out.put_u64_le(id.counter);
}

fn get_message_id(g: &mut Get) -> Result<MessageId> {
    Ok(MessageId {
        sender: get_pid(g)?,
        counter: g.u64()?,
    })
}

fn put_bytes(out: &mut BytesMut, b: &[u8]) {
    out.put_u32_le(b.len() as u32);
    out.put_slice(b);
}

/// Writes a set as its size followed by its elements, ascending.
fn put_set<T: Copy>(out: &mut BytesMut, set: &BTreeSet<T>, put: impl Fn(&mut BytesMut, T)) {
    out.put_u32_le(set.len() as u32);
    for &x in set {
        put(out, x);
    }
}

/// Reads a set written by [`put_set`]. The encoding is canonical —
/// strictly ascending, no duplicates — and anything else is a corrupt
/// frame, named `what` in the error.
fn get_set<'a, T: Ord + Copy>(
    g: &mut Get<'a>,
    elem_bytes: usize,
    what: &'static str,
    get: impl Fn(&mut Get<'a>) -> Result<T>,
) -> Result<BTreeSet<T>> {
    let n = g.count(MAX_LEN, elem_bytes)?;
    let mut set = BTreeSet::new();
    let mut last = None;
    for _ in 0..n {
        let x = get(g)?;
        if last.is_some_and(|prev| prev >= x) {
            return Err(DecodeError::BadTag { what, tag: 0 });
        }
        last = Some(x);
        set.insert(x);
    }
    Ok(set)
}

/// Encodes the ordinals received above `floor` as the floor followed by
/// ascending maximal `(start, len)` runs: the frame's size follows the
/// number of holes in the in-flight window, not the configuration's age.
fn put_received(out: &mut BytesMut, floor: u64, received: &BTreeSet<u64>) {
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &s in received {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == s => *len += 1,
            _ => runs.push((s, 1)),
        }
    }
    out.put_u64_le(floor);
    out.put_u32_le(runs.len() as u32);
    for (start, len) in runs {
        out.put_u64_le(start);
        out.put_u64_le(len);
    }
}

fn get_received(g: &mut Get) -> Result<(u64, BTreeSet<u64>)> {
    let floor = g.u64()?;
    let runs = g.count(MAX_LEN, RUN_BYTES)?;
    let mut set = BTreeSet::new();
    // Canonical encoding: every run is non-empty, the first starts above
    // the floor and each later one past the ordinal after its
    // predecessor's last (adjacent runs would have been one run).
    let mut min_start = floor.checked_add(1);
    let mut total = 0u64;
    for _ in 0..runs {
        let start = g.u64()?;
        let len = g.u64()?;
        total = total.saturating_add(len);
        if total > MAX_RECEIVED {
            return Err(DecodeError::OversizedLength { len: total });
        }
        let last = len.checked_sub(1).and_then(|l| start.checked_add(l));
        match (min_start, last) {
            (Some(min), Some(last)) if start >= min => {
                set.extend(start..=last);
                min_start = last.checked_add(2);
            }
            _ => {
                return Err(DecodeError::BadTag {
                    what: "ascending ordinal runs above the floor",
                    tag: 0,
                })
            }
        }
    }
    Ok((floor, set))
}

// --- protocol types -----------------------------------------------------

fn put_ordered_msg(out: &mut BytesMut, m: &OrderedMsg<Payload>) {
    put_config(out, m.config);
    out.put_u64_le(m.seq);
    put_message_id(out, m.id);
    put_service(out, m.service);
    put_bytes(out, &m.payload);
}

/// The payloads of one data-carrying frame (`Data`, `Rebroadcast`,
/// `Batch`), decoded as views into one buffer.
///
/// The buffer is allocated at the frame's first payload and holds the rest
/// of the frame from that payload's first byte: for a `Data` or
/// `Rebroadcast` frame, whose payload is the last field, exactly the
/// payload; for a batch, every later payload too, and the message headers
/// between them. A malformed frame therefore allocates at most its length.
struct FramePayloads<'a> {
    frame: &'a [u8],
    /// The buffer and the frame offset of its first byte.
    buf: Option<(Arc<[u8]>, usize)>,
}

impl<'a> FramePayloads<'a> {
    /// Reads the next length-prefixed payload off `g`, a cursor over the
    /// rest of this frame.
    #[inline(always)]
    fn next(&mut self, g: &mut Get<'a>) -> Result<Payload> {
        let len = g.count(MAX_LEN, 1)?;
        let at = self.frame.len() - g.remaining();
        g.bytes(len)?;
        // A view's range is `u32`: a frame past 4 GiB starts a new buffer
        // where the next view would not fit.
        if matches!(&self.buf, Some((_, base)) if at + len - base > u32::MAX as usize) {
            self.buf = None;
        }
        let frame = self.frame;
        let (buf, base) = self
            .buf
            .get_or_insert_with(|| (Arc::from(&frame[at..]), at));
        Ok(Payload::view(buf, (at - *base) as u32, len as u32))
    }
}

// Inlined into the batch loop: built in place, a message is not copied
// out of a returned `Result`.
#[inline(always)]
fn get_ordered_msg<'a>(
    g: &mut Get<'a>,
    payloads: &mut FramePayloads<'a>,
) -> Result<OrderedMsg<Payload>> {
    Ok(OrderedMsg {
        config: get_config(g)?,
        seq: g.u64()?,
        id: get_message_id(g)?,
        service: get_service(g)?,
        payload: payloads.next(g)?,
    })
}

fn put_token(out: &mut BytesMut, t: &Token) {
    put_config(out, t.config);
    out.put_u64_le(t.token_id);
    out.put_u64_le(t.seq);
    out.put_u64_le(t.aru);
    match t.aru_id {
        None => out.put_u8(0),
        Some(p) => {
            out.put_u8(1);
            put_pid(out, p);
        }
    }
    put_set(out, &t.rtr, |out, s| out.put_u64_le(s));
    out.put_u64_le(t.rotation);
}

fn get_token(g: &mut Get) -> Result<Token> {
    Ok(Token {
        config: get_config(g)?,
        token_id: g.u64()?,
        seq: g.u64()?,
        aru: g.u64()?,
        aru_id: match g.u8()? {
            0 => None,
            1 => Some(get_pid(g)?),
            tag => {
                return Err(DecodeError::BadTag {
                    what: "Option<ProcessId>",
                    tag,
                })
            }
        },
        rtr: get_set(g, ORDINAL_BYTES, "ascending u64 set", Get::u64)?,
        rotation: g.u64()?,
    })
}

fn put_memb(out: &mut BytesMut, m: &MembMsg) {
    match m {
        MembMsg::Heartbeat { config } => {
            out.put_u8(0);
            put_config(out, *config);
        }
        MembMsg::Join {
            candidates,
            max_epoch,
        } => {
            out.put_u8(1);
            put_set(out, candidates, put_pid);
            out.put_u64_le(*max_epoch);
        }
        MembMsg::Commit { config, members } => {
            out.put_u8(2);
            put_config(out, *config);
            out.put_u32_le(members.len() as u32);
            for &p in members {
                put_pid(out, p);
            }
        }
        MembMsg::Ack { config } => {
            out.put_u8(3);
            put_config(out, *config);
        }
        MembMsg::Install { config } => {
            out.put_u8(4);
            put_config(out, *config);
        }
    }
}

fn get_memb(g: &mut Get) -> Result<MembMsg> {
    match g.u8()? {
        0 => Ok(MembMsg::Heartbeat {
            config: get_config(g)?,
        }),
        1 => Ok(MembMsg::Join {
            candidates: get_set(g, PID_BYTES, "ascending ProcessId set", get_pid)?,
            max_epoch: g.u64()?,
        }),
        2 => {
            let config = get_config(g)?;
            let len = g.count(MAX_LEN, PID_BYTES)?;
            let mut members = Vec::with_capacity(len);
            for _ in 0..len {
                members.push(get_pid(g)?);
            }
            Ok(MembMsg::Commit { config, members })
        }
        3 => Ok(MembMsg::Ack {
            config: get_config(g)?,
        }),
        4 => Ok(MembMsg::Install {
            config: get_config(g)?,
        }),
        tag => Err(DecodeError::BadTag {
            what: "MembMsg",
            tag,
        }),
    }
}

fn put_exchange(out: &mut BytesMut, e: &ExchangeState) {
    put_config(out, e.proposal);
    put_pid(out, e.sender);
    put_config(out, e.last_regular);
    put_received(out, e.floor, &e.received);
    out.put_u64_le(e.high_seen);
    out.put_u64_le(e.safe_line);
    put_set(out, &e.obligations, put_pid);
}

fn get_exchange(g: &mut Get) -> Result<ExchangeState> {
    let proposal = get_config(g)?;
    let sender = get_pid(g)?;
    let last_regular = get_config(g)?;
    let (floor, received) = get_received(g)?;
    Ok(ExchangeState {
        proposal,
        sender,
        last_regular,
        floor,
        received,
        high_seen: g.u64()?,
        safe_line: g.u64()?,
        obligations: get_set(g, PID_BYTES, "ascending ProcessId set", get_pid)?,
    })
}

// --- frames --------------------------------------------------------------

/// Encodes one EVS frame into a byte buffer.
pub fn encode(msg: &EvsMsg<Payload>) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(64);
    encode_into(msg, &mut out);
    out.into()
}

/// Encodes one EVS frame into a reusable buffer.
///
/// The buffer is cleared first, so a transport loop can keep one
/// [`BytesMut`] per worker and encode every outgoing frame into it without
/// allocating: the backing capacity survives [`BytesMut::clear`] and grows
/// to the high-water mark of the traffic.
pub fn encode_into(msg: &EvsMsg<Payload>, out: &mut BytesMut) {
    out.clear();
    match msg {
        EvsMsg::Memb(m) => {
            out.put_u8(0);
            put_memb(out, m);
        }
        EvsMsg::Ring(RingMsg::Data(d)) => {
            out.put_u8(1);
            put_ordered_msg(out, d);
        }
        EvsMsg::Ring(RingMsg::Token(t)) => {
            out.put_u8(2);
            put_token(out, t);
        }
        EvsMsg::Exchange(e) => {
            out.put_u8(3);
            put_exchange(out, e);
        }
        EvsMsg::Rebroadcast { proposal, msg } => {
            out.put_u8(4);
            put_config(out, *proposal);
            put_ordered_msg(out, msg);
        }
        EvsMsg::RecoveryAck { proposal } => {
            out.put_u8(5);
            put_config(out, *proposal);
        }
        EvsMsg::Ring(RingMsg::Batch(msgs)) => put_batch(out, msgs),
    }
}

fn put_batch(out: &mut BytesMut, msgs: &[OrderedMsg<Payload>]) {
    out.put_u8(6);
    out.put_u32_le(msgs.len() as u32);
    for m in msgs {
        put_ordered_msg(out, m);
    }
}

/// Encodes the data batch frame of `msgs` into a reusable buffer: the
/// bytes [`encode_into`] writes for a `RingMsg::Batch` of the same
/// messages, without needing one.
pub fn encode_batch_into(msgs: &[OrderedMsg<Payload>], out: &mut BytesMut) {
    out.clear();
    put_batch(out, msgs);
}

/// Bytes a data batch frame spends before its first message: tag, count.
const BATCH_FRAME_HEADER: usize = 1 + 4;
/// Bytes one message of a data frame spends besides its payload:
/// configuration, ordinal, message id, service, payload length.
const ORDERED_MSG_HEADER: usize = 13 + 8 + 12 + 1 + 4;
/// The length header [`pack_into`] puts in front of every frame.
const PACK_HEADER: usize = 4;

/// Splits a data batch into consecutive parts whose batch frames, packed,
/// each fit a datagram of `budget` bytes, so one token visit's burst can
/// never outgrow the datagram it is sent in. A part holds at least one
/// message: one too large for the budget alone is a part by itself.
pub fn batch_parts(
    mut msgs: &[OrderedMsg<Payload>],
    budget: usize,
) -> impl Iterator<Item = &[OrderedMsg<Payload>]> {
    std::iter::from_fn(move || {
        let mut bytes = PACK_HEADER + BATCH_FRAME_HEADER;
        let mut n = 0;
        for m in msgs {
            bytes += ORDERED_MSG_HEADER + m.payload.len();
            if n > 0 && bytes > budget {
                break;
            }
            n += 1;
        }
        let (part, rest) = msgs.split_at(n);
        msgs = rest;
        (n > 0).then_some(part)
    })
}

/// Decodes one EVS frame from a byte slice.
///
/// The frame is copied once, lazily: the payloads of a data-carrying frame
/// are views into one buffer holding the frame from its first payload on
/// (see [`Payload`]), so a batch of any size costs two allocations — the
/// message list and that buffer.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, unknown tags, oversized length
/// prefixes, or trailing bytes.
pub fn decode(frame: &[u8]) -> Result<EvsMsg<Payload>> {
    let mut g = Get::le(frame);
    let mut payloads = FramePayloads { frame, buf: None };
    let msg = match g.u8()? {
        0 => EvsMsg::Memb(get_memb(&mut g)?),
        1 => EvsMsg::Ring(RingMsg::Data(get_ordered_msg(&mut g, &mut payloads)?)),
        2 => EvsMsg::Ring(RingMsg::Token(get_token(&mut g)?)),
        3 => EvsMsg::Exchange(get_exchange(&mut g)?),
        4 => EvsMsg::Rebroadcast {
            proposal: get_config(&mut g)?,
            msg: get_ordered_msg(&mut g, &mut payloads)?,
        },
        5 => EvsMsg::RecoveryAck {
            proposal: get_config(&mut g)?,
        },
        6 => {
            let len = g.count(MAX_LEN, ORDERED_MSG_HEADER)?;
            let mut msgs = Vec::with_capacity(len);
            for _ in 0..len {
                msgs.push(get_ordered_msg(&mut g, &mut payloads)?);
            }
            EvsMsg::Ring(RingMsg::Batch(msgs))
        }
        tag => {
            return Err(DecodeError::BadTag {
                what: "EvsMsg",
                tag,
            })
        }
    };
    g.finish()?;
    Ok(msg)
}

// --- datagram packing ----------------------------------------------------

/// Appends one encoded frame to a datagram under construction, prefixed
/// with a `u32` little-endian length header. Pair with [`unpack_frames`]
/// on the receive side.
pub fn pack_into(frame: &[u8], out: &mut BytesMut) {
    out.put_u32_le(frame.len() as u32);
    out.put_slice(frame);
}

/// Packs several encoded frames into one length-delimited datagram.
///
/// A token visit can stamp a burst of messages and serve a batch of
/// retransmissions at once; shipping the burst as one datagram amortises
/// the per-packet cost (system call, route lookup, per-destination copy)
/// over the whole visit. The inverse is [`unpack_frames`].
pub fn pack_frames<I, F>(frames: I) -> Vec<u8>
where
    I: IntoIterator<Item = F>,
    F: AsRef<[u8]>,
{
    let mut out = BytesMut::new();
    for f in frames {
        pack_into(f.as_ref(), &mut out);
    }
    out.into()
}

/// Splits a packed datagram back into its frames, as zero-copy views into
/// the datagram buffer.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEof`] if the datagram is truncated
/// anywhere — inside a length header or inside a frame body — and
/// [`DecodeError::OversizedLength`] for a hostile header. A truncated
/// datagram never yields a partial frame list.
pub fn unpack_frames(datagram: &[u8]) -> Result<Vec<&[u8]>> {
    let mut g = Get::le(datagram);
    let mut frames = Vec::new();
    while g.remaining() > 0 {
        let len = g.count(MAX_LEN, 1)?;
        frames.push(g.bytes(len)?);
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn sample_frames() -> Vec<EvsMsg<Payload>> {
        let cfg = ConfigId::regular(42, p(3));
        let tcfg = ConfigId::transitional(43, p(1));
        vec![
            EvsMsg::Memb(MembMsg::Heartbeat { config: cfg }),
            EvsMsg::Memb(MembMsg::Join {
                candidates: [p(0), p(2), p(9)].into_iter().collect(),
                max_epoch: 17,
            }),
            EvsMsg::Memb(MembMsg::Commit {
                config: cfg,
                members: vec![p(0), p(1), p(2)],
            }),
            EvsMsg::Memb(MembMsg::Ack { config: cfg }),
            EvsMsg::Memb(MembMsg::Install { config: cfg }),
            EvsMsg::Ring(RingMsg::Data(OrderedMsg {
                config: cfg,
                seq: 7,
                id: MessageId::new(p(2), 99),
                service: Service::Safe,
                payload: Payload::from(b"hello world"),
            })),
            EvsMsg::Ring(RingMsg::Batch(vec![
                OrderedMsg {
                    config: cfg,
                    seq: 8,
                    id: MessageId::new(p(0), 3),
                    service: Service::Agreed,
                    payload: Payload::from(b"first of a burst"),
                },
                OrderedMsg {
                    config: cfg,
                    seq: 9,
                    id: MessageId::new(p(1), 12),
                    service: Service::Safe,
                    payload: Payload::new(),
                },
            ])),
            EvsMsg::Ring(RingMsg::Batch(Vec::new())),
            EvsMsg::Ring(RingMsg::Token(Token {
                config: cfg,
                token_id: 1234,
                seq: 56,
                aru: 54,
                aru_id: Some(p(4)),
                rtr: [3, 9, 27].into_iter().collect(),
                rotation: 12,
            })),
            EvsMsg::Ring(RingMsg::Token(Token {
                config: tcfg,
                token_id: 1,
                seq: 0,
                aru: 0,
                aru_id: None,
                rtr: BTreeSet::new(),
                rotation: 0,
            })),
            EvsMsg::Exchange(ExchangeState {
                proposal: cfg,
                sender: p(1),
                last_regular: ConfigId::regular(41, p(0)),
                floor: 3,
                received: [4, 5, 6, 8, 11].into_iter().collect(),
                high_seen: 11,
                safe_line: 3,
                obligations: [p(0), p(1)].into_iter().collect(),
            }),
            EvsMsg::Rebroadcast {
                proposal: cfg,
                msg: OrderedMsg {
                    config: ConfigId::regular(41, p(0)),
                    seq: 5,
                    id: MessageId::new(p(0), 5),
                    service: Service::Agreed,
                    payload: Payload::new(),
                },
            },
            EvsMsg::RecoveryAck { proposal: cfg },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for frame in sample_frames() {
            let bytes = encode(&frame);
            let back = decode(&bytes).expect("decodes");
            // EvsMsg has no PartialEq (payload-generic); compare re-encoded
            // bytes, which is equivalent for a canonical codec.
            assert_eq!(encode(&back), bytes, "frame {frame:?}");
        }
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        for frame in sample_frames() {
            let bytes = encode(&frame);
            for cut in 0..bytes.len() {
                let result = decode(&bytes[..cut]);
                assert!(
                    result.is_err(),
                    "truncated at {cut}/{} decoded: {frame:?}",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let frame = EvsMsg::<Payload>::RecoveryAck {
            proposal: ConfigId::regular(1, p(0)),
        };
        let mut bytes = encode(&frame).to_vec();
        bytes.push(0xFF);
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            decode(&[99]),
            Err(DecodeError::BadTag {
                what: "EvsMsg",
                tag: 99
            })
        ));
        assert!(matches!(
            decode(&[0, 77]),
            Err(DecodeError::BadTag {
                what: "MembMsg",
                tag: 77
            })
        ));
    }

    #[test]
    fn oversized_length_is_rejected() {
        // Data frame with a payload length beyond MAX_LEN.
        let cfg = ConfigId::regular(1, p(0));
        let mut out = BytesMut::new();
        out.put_u8(1); // Ring::Data
        put_config(&mut out, cfg);
        out.put_u64_le(1);
        put_message_id(&mut out, MessageId::new(p(0), 1));
        put_service(&mut out, Service::Agreed);
        out.put_u32_le(u32::MAX); // absurd payload length
        assert!(matches!(
            decode(&out),
            Err(DecodeError::OversizedLength { .. })
        ));
    }

    /// An exchange frame whose `received` runs are spelled out by hand.
    fn exchange_with_runs(floor: u64, runs: &[(u64, u64)]) -> BytesMut {
        let cfg = ConfigId::regular(1, p(0));
        let mut out = BytesMut::new();
        out.put_u8(3);
        put_config(&mut out, cfg);
        put_pid(&mut out, p(1));
        put_config(&mut out, cfg);
        out.put_u64_le(floor);
        out.put_u32_le(runs.len() as u32);
        for &(start, len) in runs {
            out.put_u64_le(start);
            out.put_u64_le(len);
        }
        out.put_u64_le(0);
        out.put_u64_le(0);
        put_set(&mut out, &BTreeSet::new(), put_pid);
        out
    }

    #[test]
    fn received_runs_must_be_canonical_and_bounded() {
        let received = |floor, runs: &[(u64, u64)]| match decode(&exchange_with_runs(floor, runs)) {
            Ok(EvsMsg::Exchange(e)) => Ok(e.received.into_iter().collect::<Vec<u64>>()),
            Ok(other) => panic!("decoded to {other:?}"),
            Err(e) => Err(e),
        };
        assert_eq!(received(4, &[(5, 2), (8, 1)]), Ok(vec![5, 6, 8]));
        for (floor, runs) in [
            (4, &[(4, 2)][..]),     // reaches down to the floor
            (4, &[(5, 0)]),         // empty run
            (4, &[(5, 2), (7, 1)]), // adjacent: one run spelled as two
            (4, &[(8, 1), (5, 2)]), // descending
            (4, &[(u64::MAX, 2)]),  // runs off the end of the ordinals
            (u64::MAX, &[(u64::MAX, 1)]),
        ] {
            assert!(
                matches!(received(floor, runs), Err(DecodeError::BadTag { .. })),
                "floor {floor}, runs {runs:?}"
            );
        }
        // Sixteen bytes may not expand into an unbounded set.
        assert!(matches!(
            received(0, &[(1, MAX_RECEIVED + 1)]),
            Err(DecodeError::OversizedLength { .. })
        ));
    }

    #[test]
    fn encode_into_reuses_one_buffer() {
        let mut scratch = BytesMut::with_capacity(16);
        for frame in sample_frames() {
            encode_into(&frame, &mut scratch);
            assert_eq!(&scratch[..], &encode(&frame)[..], "frame {frame:?}");
        }
    }

    #[test]
    fn packed_datagram_round_trips() {
        let frames = sample_frames();
        let encoded: Vec<Vec<u8>> = frames.iter().map(encode).collect();
        let datagram = pack_frames(&encoded);
        let views = unpack_frames(&datagram).expect("unpacks");
        assert_eq!(views.len(), frames.len());
        for (view, bytes) in views.iter().zip(&encoded) {
            assert_eq!(*view, &bytes[..]);
            decode(view).expect("packed frame decodes");
        }
        // The empty datagram is a valid pack of zero frames.
        assert_eq!(unpack_frames(&[]).unwrap().len(), 0);
    }

    #[test]
    fn packed_truncation_is_detected_everywhere() {
        let encoded: Vec<Vec<u8>> = sample_frames().iter().map(encode).collect();
        let datagram = pack_frames(&encoded);
        for cut in 1..datagram.len() {
            // Every proper prefix that does not end exactly on a frame
            // boundary must error; prefixes on a boundary are themselves
            // valid (shorter) datagrams and must not panic either way.
            match unpack_frames(&datagram[..cut]) {
                Ok(views) => {
                    let bytes: usize = views.iter().map(|v| 4 + v.len()).sum();
                    assert_eq!(bytes, cut, "partial frame accepted at {cut}");
                }
                Err(DecodeError::UnexpectedEof) => {}
                Err(e) => panic!("unexpected error at {cut}: {e}"),
            }
        }
    }

    #[test]
    fn batch_parts_each_fit_the_budget_and_cover_the_batch() {
        let msg = |seq: u64, len: usize| OrderedMsg {
            config: ConfigId::regular(2, p(0)),
            seq,
            id: MessageId::new(p(1), seq),
            service: Service::Agreed,
            payload: Payload::from(vec![seq as u8; len]),
        };
        let msgs: Vec<_> = [300, 0, 500, 40, 2_000, 10, 10, 700]
            .into_iter()
            .enumerate()
            .map(|(k, len)| msg(k as u64 + 1, len))
            .collect();
        let whole = EvsMsg::Ring(RingMsg::Batch(msgs.clone()));
        let mut scratch = BytesMut::new();
        // A batch within the budget is one part, encoded as before; the
        // size the split reckons with is the size on the wire, to the byte.
        let fits = PACK_HEADER + encode(&whole).len();
        assert_eq!(batch_parts(&msgs, fits).count(), 1);
        assert_eq!(batch_parts(&msgs, fits - 1).count(), 2);
        encode_batch_into(&msgs, &mut scratch);
        assert_eq!(&scratch[..], &encode(&whole)[..]);

        let budget = 1_000;
        let parts: Vec<_> = batch_parts(&msgs, budget).collect();
        for part in &parts {
            encode_batch_into(part, &mut scratch);
            let packed = PACK_HEADER + scratch.len();
            // Only a message too large on its own may exceed the budget,
            // and then alone.
            assert!(packed <= budget || part.len() == 1, "{packed} B part");
            let Ok(EvsMsg::Ring(RingMsg::Batch(back))) = decode(&scratch) else {
                panic!("a part decodes as a batch");
            };
            assert_eq!(back.len(), part.len());
        }
        let seqs: Vec<u64> = parts.iter().flat_map(|p| p.iter().map(|m| m.seq)).collect();
        assert_eq!(seqs, (1..=8).collect::<Vec<_>>(), "consecutive, in order");
        assert!(parts
            .iter()
            .any(|p| p.len() == 1 && p[0].payload.len() == 2_000));
        assert_eq!(batch_parts(&[], budget).count(), 0);
    }

    #[test]
    fn hostile_pack_header_is_rejected() {
        let mut datagram = BytesMut::new();
        datagram.put_u32_le(MAX_LEN as u32 + 1);
        datagram.put_slice(&[0; 8]);
        assert!(matches!(
            unpack_frames(&datagram),
            Err(DecodeError::OversizedLength { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(
            DecodeError::UnexpectedEof.to_string(),
            "unexpected end of frame"
        );
        assert_eq!(
            DecodeError::BadTag {
                what: "Service",
                tag: 9
            }
            .to_string(),
            "invalid tag 9 for Service"
        );
    }
}
