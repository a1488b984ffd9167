//! The broker tier's one set of per-client sequence numbers: a session's
//! acked seqs and a ledger's applied seqs.

/// A set of sequence numbers held as a *floor* — every seq below it is in
/// the set — plus the ascending seqs above the floor that are in it too.
///
/// Sequence numbers start at 1, so an empty set's floor is 1. Seqs that
/// arrive in order only raise the floor: the tail stays empty and the set
/// allocates nothing. A seq that arrives early waits in the tail until the
/// seqs before it close the gap, so the tail is as long as the reordering,
/// not the history.
#[derive(Debug)]
pub(crate) struct SeqSet {
    floor: u64,
    /// Seqs in the set at or above `floor`, ascending.
    tail: Vec<u64>,
}

impl Default for SeqSet {
    fn default() -> Self {
        SeqSet {
            floor: 1,
            tail: Vec::new(),
        }
    }
}

impl SeqSet {
    /// The lowest seq that may be missing: every seq below it is in the set.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// Number of seqs in the set at or above the floor.
    pub(crate) fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// True if `seq` is in the set.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        seq < self.floor || self.tail.binary_search(&seq).is_ok()
    }

    /// Adds `seq`, which the caller has checked is not below the floor.
    /// Returns false if the tail already held it.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        if seq == self.floor {
            self.floor += 1;
        } else {
            match self.tail.binary_search(&seq) {
                Ok(_) => return false,
                Err(i) => self.tail.insert(i, seq),
            }
        }
        // The tail's run that continues the floor joins it.
        while let Ok(i) = self.tail.binary_search(&self.floor) {
            self.tail.remove(i);
            self.floor += 1;
        }
        true
    }
}
