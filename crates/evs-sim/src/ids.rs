//! Process identifiers.

use core::fmt;

/// A unique, stable identifier for a process in the distributed system.
///
/// The paper's model (§2) requires that "each of the processes in the system
/// has a unique identifier" and that a process which fails and later recovers
/// "has the same identifier as before the failure". `ProcessId` is therefore
/// assigned once, at system construction time, and survives crashes.
///
/// Identifiers are totally ordered; the membership and ordering substrates
/// use this order to pick deterministic leaders and ring successors.
///
/// # Examples
///
/// ```
/// use evs_sim::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert!(ProcessId::new(1) < ProcessId::new(2));
/// assert_eq!(p.to_string(), "P3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        ProcessId(index)
    }

    /// Returns the dense index backing this identifier.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for vector indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(index: u32) -> Self {
        ProcessId(index)
    }
}

/// Returns the process identifiers `P0..Pn`, the usual "universe" of a
/// simulation with `n` processes.
///
/// # Examples
///
/// ```
/// let ids = evs_sim::all_ids(3);
/// assert_eq!(ids.len(), 3);
/// assert_eq!(ids[2].index(), 2);
/// ```
pub fn all_ids(n: usize) -> Vec<ProcessId> {
    (0..n as u32).map(ProcessId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_follows_index() {
        assert!(ProcessId::new(0) < ProcessId::new(1));
        assert!(ProcessId::new(7) > ProcessId::new(3));
        assert_eq!(ProcessId::new(4), ProcessId::new(4));
    }

    #[test]
    fn debug_and_display_agree() {
        let p = ProcessId::new(12);
        assert_eq!(format!("{p}"), "P12");
        assert_eq!(format!("{p:?}"), "P12");
    }

    #[test]
    fn all_ids_is_dense() {
        let ids = all_ids(5);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.as_usize(), i);
        }
    }
}
