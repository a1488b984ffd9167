//! Wire types of the total-order substrate.

use core::fmt;
use evs_membership::ConfigId;
use evs_sim::ProcessId;

/// A system-wide unique message identifier.
///
/// Specification 1.4 of the paper requires that "two different processes do
/// not send the same message" and that a process never sends the same
/// message in two configurations. Identity here is `(sender, counter)`
/// where the counter is monotone at the sender *across crashes* (the EVS
/// engine persists it to stable storage), so a recovered process can never
/// reuse an identifier.
///
/// # Examples
///
/// ```
/// use evs_order::MessageId;
/// use evs_sim::ProcessId;
///
/// let m = MessageId::new(ProcessId::new(2), 7);
/// assert_eq!(m.to_string(), "P2#7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId {
    /// The originating process.
    pub sender: ProcessId,
    /// Sender-local monotone counter (persisted across crashes).
    pub counter: u64,
}

impl MessageId {
    /// Creates a message identifier.
    pub const fn new(sender: ProcessId, counter: u64) -> Self {
        MessageId { sender, counter }
    }
}

impl fmt::Debug for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.sender, self.counter)
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The delivery service requested for a message (§2 of the paper).
///
/// * `Causal` — deliver respecting causality within the configuration
///   (Isis `cbcast`). In this implementation causal delivery rides on the
///   total order, which "preserves causality" (§2), so it shares the agreed
///   delivery rule; it is kept distinct so applications (and the checker's
///   Specification 5) can tell what was requested.
/// * `Agreed` — totally ordered within the component; deliverable as soon as
///   all predecessors in the total order have been delivered (Isis
///   `abcast`).
/// * `Safe` — deliverable only once every process in the configuration has
///   acknowledged receipt (Isis all-stable `abcast`); the focus of the
///   paper's Specifications 7.1/7.2.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Service {
    /// Causally ordered delivery.
    Causal,
    /// Totally ordered (agreed) delivery.
    Agreed,
    /// Totally ordered delivery with the safe-delivery guarantee.
    Safe,
}

impl Service {
    /// Returns true for [`Service::Safe`].
    pub const fn is_safe(self) -> bool {
        matches!(self, Service::Safe)
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Service::Causal => "causal",
            Service::Agreed => "agreed",
            Service::Safe => "safe",
        };
        f.write_str(s)
    }
}

/// A message stamped into the total order of one regular configuration.
///
/// The `seq` ordinal is the paper's "ordinal number associated with each
/// message" that "imposes a total order on messages broadcast within a
/// configuration"; ordinals are dense (1, 2, 3, …) per configuration.
#[derive(Clone, PartialEq, Eq)]
pub struct OrderedMsg<P> {
    /// The regular configuration whose total order this message belongs to.
    pub config: ConfigId,
    /// Position in that configuration's total order, starting at 1.
    pub seq: u64,
    /// Globally unique message identity.
    pub id: MessageId,
    /// Requested delivery service.
    pub service: Service,
    /// Application payload.
    pub payload: P,
}

impl<P> fmt::Debug for OrderedMsg<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Msg[{} seq={} {} {}]",
            self.config, self.seq, self.id, self.service
        )
    }
}

/// The circulating ring token (cf. Totem's regular token).
///
/// The token is the ring's single writer: only its holder assigns new
/// ordinals, so ordinals are unique and gap-free. It also aggregates
/// acknowledgment state: `aru` ("all received up to") converges to the
/// minimum contiguous prefix received across the ring, which is how safe
/// delivery learns that "acknowledgments for the message \[arrived\] from all
/// of the other processes in the configuration" (§3 Step 1).
#[derive(Clone, PartialEq, Eq)]
pub struct Token {
    /// Configuration this token orders.
    pub config: ConfigId,
    /// Strictly increasing per hop; receivers discard a token whose id does
    /// not exceed the last one they saw, which makes hop-level
    /// retransmission of a lost token idempotent.
    pub token_id: u64,
    /// Highest ordinal assigned so far.
    pub seq: u64,
    /// All-received-up-to: lowest contiguous receipt prefix over the ring.
    pub aru: u64,
    /// The process that last lowered `aru` (None when `aru == seq`).
    pub aru_id: Option<ProcessId>,
    /// Retransmission requests: ordinals some member is missing,
    /// strictly ascending. A sorted list and not a set: the token is
    /// decoded from every datagram that claims to carry one, and a list
    /// costs 8 heap bytes an ordinal however the requests were spelled.
    pub rtr: Vec<u64>,
    /// Completed rotations (diagnostics; incremented at the representative).
    pub rotation: u64,
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Token[{} id={} seq={} aru={} rot={} rtr={:?}]",
            self.config, self.token_id, self.seq, self.aru, self.rotation, self.rtr
        )
    }
}

/// A frame of the ring protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RingMsg<P> {
    /// An ordered data message, sent to the other ring members.
    Data(OrderedMsg<P>),
    /// A burst of ordered data messages from one token visit, sent to the
    /// other ring members as a single frame. The token holder stamps up to `max_per_visit`
    /// messages (and serves retransmission requests) per visit; packing the
    /// burst into one frame turns that into one transmit per destination
    /// instead of one per message. A batch holds one configuration in
    /// strictly ascending `seq` — the visit's served retransmissions, then
    /// its stamps — which is all the wire format can say; a receiver
    /// treats it exactly as the same messages arriving back to back.
    Batch(Vec<OrderedMsg<P>>),
    /// The token, unicast to the ring successor.
    Token(Token),
    /// A call for the idle token of this configuration, unicast to the
    /// member the sender believes parks it: the sender has a submission
    /// waiting. A hint only — a holder releases the token at once, any
    /// other member forwards it from its next quiescent visit, and a lost
    /// wake costs the submission at most one hold.
    Wake(ConfigId),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_id_identity_and_order() {
        let a = MessageId::new(ProcessId::new(1), 4);
        let b = MessageId::new(ProcessId::new(1), 5);
        let c = MessageId::new(ProcessId::new(2), 1);
        assert!(a < b && b < c);
        assert_ne!(a, b);
    }

    #[test]
    fn service_safety_flag() {
        assert!(Service::Safe.is_safe());
        assert!(!Service::Agreed.is_safe());
        assert!(!Service::Causal.is_safe());
        assert_eq!(Service::Safe.to_string(), "safe");
    }

    #[test]
    fn debug_formats() {
        let m = OrderedMsg {
            config: ConfigId::regular(1, ProcessId::new(0)),
            seq: 3,
            id: MessageId::new(ProcessId::new(2), 9),
            service: Service::Safe,
            payload: (),
        };
        assert_eq!(format!("{m:?}"), "Msg[R1@P0 seq=3 P2#9 safe]");
    }
}
