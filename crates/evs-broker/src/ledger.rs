//! The daemon-side op ledger: exactly-once application of client ops.
//!
//! EVS itself delivers each *message* at most once per configuration —
//! but a broker that reconnects to a surviving configuration resubmits
//! its unacked ops, and some of those may already have been delivered
//! (the ack just never reached the broker). The ledger is the replicated
//! application's dedup filter: every daemon runs every delivered batch
//! entry through [`OpLedger::apply`], and only the first sighting of a
//! `(client, seq)` pair is applied to application state.
//!
//! Per client the ledger keeps a contiguous *floor* (every seq below it
//! has been applied) plus the applied seqs above the floor, so memory
//! stays proportional to reordering, not to history.

use crate::clientmap::ClientMap;
use crate::seqset::SeqSet;

/// Tracks which `(client, seq)` ops a daemon has applied. One per daemon;
/// deterministic given the delivery order it is fed.
#[derive(Debug, Default)]
pub struct OpLedger {
    /// Each client's applied seqs.
    clients: ClientMap<SeqSet>,
}

impl OpLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        OpLedger::default()
    }

    /// Records the delivery of `(client, seq)`. Returns true if this is
    /// its first application — the caller applies the op to application
    /// state — and false for a duplicate, which must be discarded.
    pub fn apply(&mut self, client: u64, seq: u64) -> bool {
        let applied = self.clients.entry(client).or_default();
        // The planted `broker-mutation` bug skips the floor check: ops
        // already compacted below the floor — exactly what a broker
        // resubmits across a reconnect — are applied a second time.
        #[cfg(not(feature = "broker-mutation"))]
        if seq < applied.floor() {
            return false;
        }
        applied.insert(seq)
    }

    /// True if `(client, seq)` has been applied.
    pub fn contains(&self, client: u64, seq: u64) -> bool {
        self.clients
            .get(&client)
            .is_some_and(|applied| applied.contains(seq))
    }

    /// Number of clients with any applied op.
    pub fn clients(&self) -> usize {
        self.clients.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Duplicate rejection below the floor is exactly what the planted
    // `broker-mutation` bug removes, so these assertions only hold on the
    // correct build.
    #[cfg(not(feature = "broker-mutation"))]
    #[test]
    fn first_application_only() {
        let mut l = OpLedger::new();
        assert!(l.apply(5, 1));
        assert!(l.apply(5, 2));
        assert!(!l.apply(5, 1), "compacted duplicate must be rejected");
        assert!(!l.apply(5, 2));
        assert!(l.contains(5, 1) && l.contains(5, 2) && !l.contains(5, 3));
    }

    #[cfg(not(feature = "broker-mutation"))]
    #[test]
    fn out_of_order_applies_compact_into_the_floor() {
        let mut l = OpLedger::new();
        assert!(l.apply(1, 3));
        assert!(!l.apply(1, 3), "sparse duplicate must be rejected");
        assert!(l.apply(1, 1));
        assert!(l.apply(1, 2));
        // All three now sit below the floor.
        assert!(!l.apply(1, 1) && !l.apply(1, 2) && !l.apply(1, 3));
        assert!(l.apply(1, 4));
    }

    #[test]
    fn clients_are_independent() {
        let mut l = OpLedger::new();
        assert!(l.apply(1, 1));
        assert!(l.apply(2, 1));
        assert_eq!(l.clients(), 2);
    }
}
