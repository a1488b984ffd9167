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
//! for enums, `u32` length prefixes for collections, `u8` for booleans.
//! Decoding is strict: trailing garbage inside a frame, unknown tags and
//! truncation are all errors — a malformed datagram must never turn into a
//! plausible protocol message.
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

use crate::recovery::ExchangeState;
use crate::{EvsMsg, Payload};
use bytes::{BufMut, Bytes, BytesMut};
use core::fmt;
use evs_membership::{ConfigId, MembMsg};
use evs_order::{MessageId, OrderedMsg, RingMsg, Service, Token};
use evs_sim::ProcessId;
use std::collections::BTreeSet;

/// Errors produced while decoding a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the frame was complete.
    UnexpectedEof,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which enum was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix exceeded the sanity limit (corrupt or hostile frame).
    OversizedLength {
        /// The claimed length.
        len: u64,
    },
    /// The frame decoded but left unconsumed bytes behind.
    TrailingBytes {
        /// How many bytes were left.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of frame"),
            WireError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            WireError::OversizedLength { len } => write!(f, "length {len} exceeds frame limit"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after frame")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Sanity cap for any single length prefix (collections, payloads).
const MAX_LEN: u64 = 1 << 24;

/// Cap on the ordinals one [`ExchangeState`] may list above its floor. A
/// run costs 16 bytes on the wire however long it is, so the element count
/// is bounded here and not by the datagram: far above any window the ring
/// allows (`evs_order::MAX_HOLE_GAP` plus a few rotations of stamping),
/// small enough that a hostile frame cannot expand into gigabytes.
const MAX_RECEIVED: u64 = 1 << 20;

type Result<T> = std::result::Result<T, WireError>;

// --- primitive helpers -------------------------------------------------

/// Splits the next `n` bytes off the front of the frame.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(WireError::UnexpectedEof);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn get_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N]> {
    Ok(take(buf, N)?.try_into().expect("took N bytes"))
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    Ok(get_array::<1>(buf)?[0])
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    get_array(buf).map(u32::from_le_bytes)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    get_array(buf).map(u64::from_le_bytes)
}

fn get_len(buf: &mut &[u8]) -> Result<usize> {
    let len = u64::from(get_u32(buf)?);
    if len > MAX_LEN {
        return Err(WireError::OversizedLength { len });
    }
    Ok(len as usize)
}

fn get_bool(buf: &mut &[u8]) -> Result<bool> {
    match get_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(WireError::BadTag { what: "bool", tag }),
    }
}

fn put_pid(out: &mut BytesMut, p: ProcessId) {
    out.put_u32_le(p.index());
}

fn get_pid(buf: &mut &[u8]) -> Result<ProcessId> {
    Ok(ProcessId::new(get_u32(buf)?))
}

fn put_config(out: &mut BytesMut, c: ConfigId) {
    out.put_u64_le(c.epoch);
    put_pid(out, c.rep);
    out.put_u8(u8::from(c.transitional));
}

fn get_config(buf: &mut &[u8]) -> Result<ConfigId> {
    let epoch = get_u64(buf)?;
    let rep = get_pid(buf)?;
    let transitional = get_bool(buf)?;
    Ok(ConfigId {
        epoch,
        rep,
        transitional,
    })
}

fn put_service(out: &mut BytesMut, s: Service) {
    out.put_u8(match s {
        Service::Causal => 0,
        Service::Agreed => 1,
        Service::Safe => 2,
    });
}

fn get_service(buf: &mut &[u8]) -> Result<Service> {
    match get_u8(buf)? {
        0 => Ok(Service::Causal),
        1 => Ok(Service::Agreed),
        2 => Ok(Service::Safe),
        tag => Err(WireError::BadTag {
            what: "Service",
            tag,
        }),
    }
}

fn put_message_id(out: &mut BytesMut, id: MessageId) {
    put_pid(out, id.sender);
    out.put_u64_le(id.counter);
}

fn get_message_id(buf: &mut &[u8]) -> Result<MessageId> {
    let sender = get_pid(buf)?;
    let counter = get_u64(buf)?;
    Ok(MessageId { sender, counter })
}

fn put_bytes(out: &mut BytesMut, b: &[u8]) {
    out.put_u32_le(b.len() as u32);
    out.put_slice(b);
}

fn put_pid_set(out: &mut BytesMut, set: &BTreeSet<ProcessId>) {
    out.put_u32_le(set.len() as u32);
    for &p in set {
        put_pid(out, p);
    }
}

fn get_pid_set(buf: &mut &[u8]) -> Result<BTreeSet<ProcessId>> {
    let len = get_len(buf)?;
    let mut set = BTreeSet::new();
    let mut last: Option<ProcessId> = None;
    for _ in 0..len {
        let p = get_pid(buf)?;
        // Canonical encoding: strictly ascending, no duplicates. Anything
        // else is a corrupt frame.
        if last.is_some_and(|prev| prev >= p) {
            return Err(WireError::BadTag {
                what: "ascending ProcessId set",
                tag: 0,
            });
        }
        last = Some(p);
        set.insert(p);
    }
    Ok(set)
}

fn put_u64_set(out: &mut BytesMut, set: &BTreeSet<u64>) {
    out.put_u32_le(set.len() as u32);
    for &s in set {
        out.put_u64_le(s);
    }
}

fn get_u64_set(buf: &mut &[u8]) -> Result<BTreeSet<u64>> {
    let len = get_len(buf)?;
    let mut set = BTreeSet::new();
    let mut last: Option<u64> = None;
    for _ in 0..len {
        let v = get_u64(buf)?;
        if last.is_some_and(|prev| prev >= v) {
            return Err(WireError::BadTag {
                what: "ascending u64 set",
                tag: 0,
            });
        }
        last = Some(v);
        set.insert(v);
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

fn get_received(buf: &mut &[u8]) -> Result<(u64, BTreeSet<u64>)> {
    let floor = get_u64(buf)?;
    let runs = get_len(buf)?;
    let mut set = BTreeSet::new();
    // Canonical encoding: every run is non-empty, the first starts above
    // the floor and each later one past the ordinal after its
    // predecessor's last (adjacent runs would have been one run).
    let mut min_start = floor.checked_add(1);
    let mut total = 0u64;
    for _ in 0..runs {
        let start = get_u64(buf)?;
        let len = get_u64(buf)?;
        total = total.saturating_add(len);
        if total > MAX_RECEIVED {
            return Err(WireError::OversizedLength { len: total });
        }
        let last = len.checked_sub(1).and_then(|l| start.checked_add(l));
        match (min_start, last) {
            (Some(min), Some(last)) if start >= min => {
                set.extend(start..=last);
                min_start = last.checked_add(2);
            }
            _ => {
                return Err(WireError::BadTag {
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

fn get_ordered_msg(buf: &mut &[u8]) -> Result<OrderedMsg<Payload>> {
    Ok(OrderedMsg {
        config: get_config(buf)?,
        seq: get_u64(buf)?,
        id: get_message_id(buf)?,
        service: get_service(buf)?,
        payload: {
            let len = get_len(buf)?;
            Payload::copy_from_slice(take(buf, len)?)
        },
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
    put_u64_set(out, &t.rtr);
    out.put_u64_le(t.rotation);
}

fn get_token(buf: &mut &[u8]) -> Result<Token> {
    let config = get_config(buf)?;
    let token_id = get_u64(buf)?;
    let seq = get_u64(buf)?;
    let aru = get_u64(buf)?;
    let aru_id = match get_u8(buf)? {
        0 => None,
        1 => Some(get_pid(buf)?),
        tag => {
            return Err(WireError::BadTag {
                what: "Option<ProcessId>",
                tag,
            })
        }
    };
    let rtr = get_u64_set(buf)?;
    let rotation = get_u64(buf)?;
    Ok(Token {
        config,
        token_id,
        seq,
        aru,
        aru_id,
        rtr,
        rotation,
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
            put_pid_set(out, candidates);
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

fn get_memb(buf: &mut &[u8]) -> Result<MembMsg> {
    match get_u8(buf)? {
        0 => Ok(MembMsg::Heartbeat {
            config: get_config(buf)?,
        }),
        1 => Ok(MembMsg::Join {
            candidates: get_pid_set(buf)?,
            max_epoch: get_u64(buf)?,
        }),
        2 => {
            let config = get_config(buf)?;
            let len = get_len(buf)?;
            let mut members = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                members.push(get_pid(buf)?);
            }
            Ok(MembMsg::Commit { config, members })
        }
        3 => Ok(MembMsg::Ack {
            config: get_config(buf)?,
        }),
        4 => Ok(MembMsg::Install {
            config: get_config(buf)?,
        }),
        tag => Err(WireError::BadTag {
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
    put_pid_set(out, &e.obligations);
}

fn get_exchange(buf: &mut &[u8]) -> Result<ExchangeState> {
    let proposal = get_config(buf)?;
    let sender = get_pid(buf)?;
    let last_regular = get_config(buf)?;
    let (floor, received) = get_received(buf)?;
    Ok(ExchangeState {
        proposal,
        sender,
        last_regular,
        floor,
        received,
        high_seen: get_u64(buf)?,
        safe_line: get_u64(buf)?,
        obligations: get_pid_set(buf)?,
    })
}

// --- frames --------------------------------------------------------------

/// Encodes one EVS frame into a byte buffer.
pub fn encode(msg: &EvsMsg<Payload>) -> Bytes {
    let mut out = BytesMut::with_capacity(64);
    encode_into(msg, &mut out);
    out.freeze()
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
        EvsMsg::Ring(RingMsg::Batch(msgs)) => {
            out.put_u8(6);
            out.put_u32_le(msgs.len() as u32);
            for m in msgs {
                put_ordered_msg(out, m);
            }
        }
    }
}

/// Decodes one EVS frame from a byte slice.
///
/// # Errors
///
/// Returns a [`WireError`] on truncation, unknown tags, oversized length
/// prefixes, or trailing bytes.
pub fn decode(frame: &[u8]) -> Result<EvsMsg<Payload>> {
    let mut buf = frame;
    let msg = match get_u8(&mut buf)? {
        0 => EvsMsg::Memb(get_memb(&mut buf)?),
        1 => EvsMsg::Ring(RingMsg::Data(get_ordered_msg(&mut buf)?)),
        2 => EvsMsg::Ring(RingMsg::Token(get_token(&mut buf)?)),
        3 => EvsMsg::Exchange(get_exchange(&mut buf)?),
        4 => EvsMsg::Rebroadcast {
            proposal: get_config(&mut buf)?,
            msg: get_ordered_msg(&mut buf)?,
        },
        5 => EvsMsg::RecoveryAck {
            proposal: get_config(&mut buf)?,
        },
        6 => {
            let len = get_len(&mut buf)?;
            let mut msgs = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                msgs.push(get_ordered_msg(&mut buf)?);
            }
            EvsMsg::Ring(RingMsg::Batch(msgs))
        }
        tag => {
            return Err(WireError::BadTag {
                what: "EvsMsg",
                tag,
            })
        }
    };
    if !buf.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: buf.len(),
        });
    }
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
pub fn pack_frames<I, F>(frames: I) -> Bytes
where
    I: IntoIterator<Item = F>,
    F: AsRef<[u8]>,
{
    let mut out = BytesMut::new();
    for f in frames {
        pack_into(f.as_ref(), &mut out);
    }
    out.freeze()
}

/// Splits a packed datagram back into its frames, as zero-copy views into
/// the datagram buffer.
///
/// # Errors
///
/// Returns [`WireError::UnexpectedEof`] if the datagram is truncated
/// anywhere — inside a length header or inside a frame body — and
/// [`WireError::OversizedLength`] for a hostile header. A truncated
/// datagram never yields a partial frame list.
pub fn unpack_frames(datagram: &[u8]) -> Result<Vec<&[u8]>> {
    let mut rest = datagram;
    let mut frames = Vec::new();
    while !rest.is_empty() {
        if rest.len() < 4 {
            return Err(WireError::UnexpectedEof);
        }
        let (header, tail) = rest.split_at(4);
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
        if len > MAX_LEN {
            return Err(WireError::OversizedLength { len });
        }
        let len = len as usize;
        if tail.len() < len {
            return Err(WireError::UnexpectedEof);
        }
        let (frame, tail) = tail.split_at(len);
        frames.push(frame);
        rest = tail;
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
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(matches!(
            decode(&[99]),
            Err(WireError::BadTag {
                what: "EvsMsg",
                tag: 99
            })
        ));
        assert!(matches!(
            decode(&[0, 77]),
            Err(WireError::BadTag {
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
            Err(WireError::OversizedLength { .. })
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
        put_pid_set(&mut out, &BTreeSet::new());
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
                matches!(received(floor, runs), Err(WireError::BadTag { .. })),
                "floor {floor}, runs {runs:?}"
            );
        }
        // Sixteen bytes may not expand into an unbounded set.
        assert!(matches!(
            received(0, &[(1, MAX_RECEIVED + 1)]),
            Err(WireError::OversizedLength { .. })
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
        let encoded: Vec<Bytes> = frames.iter().map(encode).collect();
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
        let encoded: Vec<Bytes> = sample_frames().iter().map(encode).collect();
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
                Err(WireError::UnexpectedEof) => {}
                Err(e) => panic!("unexpected error at {cut}: {e}"),
            }
        }
    }

    #[test]
    fn hostile_pack_header_is_rejected() {
        let mut datagram = BytesMut::new();
        datagram.put_u32_le(MAX_LEN as u32 + 1);
        datagram.put_slice(&[0; 8]);
        assert!(matches!(
            unpack_frames(&datagram),
            Err(WireError::OversizedLength { .. })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(
            WireError::UnexpectedEof.to_string(),
            "unexpected end of frame"
        );
        assert_eq!(
            WireError::BadTag {
                what: "Service",
                tag: 9
            }
            .to_string(),
            "invalid tag 9 for Service"
        );
    }
}
