//! # evs-membership — the low-level membership substrate
//!
//! Part of the reproduction of *Extended Virtual Synchrony* (Moser, Amir,
//! Melliar-Smith, Agarwal; ICDCS 1994). The paper's extended virtual
//! synchrony algorithm (§3) runs "on top of the message transmission,
//! membership, and total ordering algorithms"; this crate supplies the
//! membership piece, in the style of the Transis/Totem membership protocols
//! the paper cites (\[2\] and \[3\] in its bibliography).
//!
//! It provides:
//!
//! * [`ConfigId`] — globally unique, per-process-monotone configuration
//!   identifiers (regular and transitional);
//! * [`ProposedConfig`] — an identifier plus the agreed, sorted membership;
//! * [`Membership`] — the sans-I/O state machine: heartbeat failure
//!   detection, a gather phase that converges on the component's membership,
//!   and a commit/install round that makes every member agree on the same
//!   `(id, members)` pair. Every waiting state times out by *shrinking* the
//!   candidate set, which is exactly the termination property §3 of the
//!   paper requires of the underlying membership algorithm.
//!
//! The EVS engine in `evs-core` drives this machine from simulator timers
//! and runs the paper's recovery algorithm whenever a new configuration is
//! proposed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config_id;
mod protocol;

pub use config_id::{ConfigId, ProposedConfig};
pub use protocol::{MembMsg, MembOut, Membership};
