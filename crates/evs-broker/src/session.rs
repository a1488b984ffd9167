//! Per-client sessions: sequence stamping, a bounded in-flight window,
//! and the unacked set a reconnecting broker resubmits.

use crate::seqset::SeqSet;

/// What happened to one client submit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The op entered the prepare-batch pipeline with this per-client
    /// sequence number; a [`Reply`](crate::Reply) for it will follow its
    /// agreed/safe delivery.
    Accepted {
        /// The broker-assigned per-client sequence number.
        seq: u64,
    },
    /// A bounded queue (this session's window or the whole broker's
    /// in-flight budget) is full — the client must retry later. Nothing
    /// was buffered.
    Backpressure,
}

/// One client's connection state at a broker.
///
/// A session stamps each accepted op with the next per-client sequence
/// number and counts it in a bounded in-flight window until the broker
/// observes the op's delivery: the unacked seqs are the issued ones that
/// are not in the acked set, so a session whose acks arrive in order is a
/// few words inline, with no buffer. The window is the backpressure bound
/// and names what a reconnect resubmits, from the op bytes in the
/// [`Broker`](crate::Broker)'s frames; the daemon-side
/// [`OpLedger`](crate::OpLedger) makes that resubmission safe.
#[derive(Debug)]
pub struct Session {
    next_seq: u64,
    /// Acked sequence numbers.
    acked: SeqSet,
    limit: usize,
}

impl Session {
    /// Opens a session with an in-flight window of `limit` ops.
    pub fn new(limit: usize) -> Self {
        Session {
            next_seq: 1,
            acked: SeqSet::default(),
            limit: limit.max(1),
        }
    }

    /// Admits one op into the window, returning its sequence number — or
    /// `None` (backpressure) when the window is full.
    pub fn try_submit(&mut self) -> Option<u64> {
        if self.inflight_len() >= self.limit {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(seq)
    }

    /// Acknowledges the op with sequence number `seq`. Returns true the
    /// first time; a second ack of the same seq (a redelivery in an old
    /// configuration racing the reconnect) is an idempotent `false`.
    pub fn ack(&mut self, seq: u64) -> bool {
        (self.acked.floor()..self.next_seq).contains(&seq) && self.acked.insert(seq)
    }

    /// True while the op with sequence number `seq` awaits its ack — what
    /// a reconnect resubmits.
    pub fn is_unacked(&self, seq: u64) -> bool {
        seq < self.next_seq && !self.acked.contains(seq)
    }

    /// Number of unacked ops in the window.
    pub fn inflight_len(&self) -> usize {
        (self.next_seq - self.acked.floor()) as usize - self.acked.tail_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_dense_sequence_numbers() {
        let mut s = Session::new(4);
        assert_eq!(s.try_submit(), Some(1));
        assert_eq!(s.try_submit(), Some(2));
        assert_eq!(s.try_submit(), Some(3));
        assert_eq!(s.inflight_len(), 3);
    }

    #[test]
    fn full_window_backpressures_without_burning_a_seq() {
        let mut s = Session::new(2);
        assert_eq!(s.try_submit(), Some(1));
        assert_eq!(s.try_submit(), Some(2));
        assert_eq!(s.try_submit(), None);
        assert!(s.ack(1));
        // The freed slot reuses the *next* number, not a hole.
        assert_eq!(s.try_submit(), Some(3));
    }

    #[test]
    fn ack_is_idempotent_and_order_insensitive() {
        let mut s = Session::new(8);
        for _ in 0..3 {
            s.try_submit();
        }
        assert!(s.ack(2));
        assert!(!s.ack(2));
        assert!(!s.ack(99));
        let left: Vec<u64> = (0..5).filter(|&seq| s.is_unacked(seq)).collect();
        assert_eq!(left, vec![1, 3]);
    }

    #[test]
    fn zero_limit_still_admits_one() {
        let mut s = Session::new(0);
        assert_eq!(s.try_submit(), Some(1));
        assert_eq!(s.try_submit(), None);
    }
}
