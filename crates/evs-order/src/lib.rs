//! # evs-order — Totem-style token-ring total ordering substrate
//!
//! Part of the reproduction of *Extended Virtual Synchrony* (Moser, Amir,
//! Melliar-Smith, Agarwal; ICDCS 1994). The paper's EVS algorithm (§3) sits
//! "on top of the message transmission, membership, and total ordering
//! algorithms" of the Totem protocol; this crate reimplements the ordering
//! piece: a logical token-passing ring (cf. reference \[3\] of the paper,
//! "Fast message ordering and membership using a logical token-passing
//! ring").
//!
//! What the EVS layer needs from this substrate — and what it provides:
//!
//! * **Ordinals.** The token's holder stamps new messages with dense,
//!   per-configuration sequence numbers: "these ordinals impose a total
//!   order on messages broadcast within a configuration" (§2).
//! * **Acknowledgment.** The token's `aru` (all-received-up-to) field
//!   aggregates receipt state around the ring; once an ordinal is covered by
//!   the `aru` on two successive visits, the holder knows every member has
//!   received it — the "acknowledgments from all of the other processes"
//!   that gate safe delivery (paper §3, Step 1).
//! * **Retransmission.** Holes are advertised on the token and refilled by
//!   any member that has the message, healing multicast omission faults.
//!
//! Key types: [`Ring`] (the per-configuration engine), [`OrderedMsg`] /
//! [`Token`] / [`RingMsg`] (wire types), [`MessageId`] (crash-stable message
//! identity), [`Service`] (causal / agreed / safe, §2), and
//! [`RingSnapshot`] (the frozen state handed to the EVS recovery
//! algorithm when a configuration ends).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod msg;
mod ring;

pub use msg::{MessageId, OrderedMsg, RingMsg, Service, Token};
pub use ring::{DeliveryClass, Ring, RingOut, RingSnapshot, MAX_HOLE_GAP, SEQ_CEILING};
