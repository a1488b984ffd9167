//! Configuration identifiers.

use core::fmt;
use evs_sim::ProcessId;

/// A globally unique identifier for a configuration.
///
/// The paper (§2) requires each configuration — a membership plus "a unique
/// identifier" — to be identified unambiguously across the whole system,
/// even when the network has partitioned and several components form
/// configurations concurrently. Uniqueness here comes from the pair
/// `(epoch, rep)`:
///
/// * `epoch` increases monotonically at every process (it is derived from
///   the largest epoch any member has ever seen, plus one, and is persisted
///   to stable storage across crashes), and
/// * `rep` is the representative — the smallest member — of the forming
///   component; concurrent configurations in disjoint components necessarily
///   have different representatives.
///
/// The `transitional` flag distinguishes the paper's *transitional*
/// configurations from *regular* ones: a transitional configuration derived
/// from regular proposal `(e, r)` is identified as `(e, min-member, T)`.
/// Since the transitional configurations leading into one regular
/// configuration have disjoint memberships, their representatives differ and
/// their identifiers remain unique.
///
/// Identifiers are totally ordered by `(epoch, rep, transitional)`; within
/// one process's history, later-installed configurations always compare
/// greater.
///
/// # Examples
///
/// ```
/// use evs_membership::ConfigId;
/// use evs_sim::ProcessId;
///
/// let r = ConfigId::regular(4, ProcessId::new(1));
/// let t = ConfigId::transitional(5, ProcessId::new(2));
/// assert!(r < t);
/// assert_eq!(r.to_string(), "R4@P1");
/// assert_eq!(t.to_string(), "T5@P2");
/// assert!(!r.transitional && t.transitional);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConfigId {
    /// Monotone epoch number; strictly larger than any epoch previously
    /// observed by any member of the configuration.
    pub epoch: u64,
    /// The representative (smallest member) of the forming component.
    pub rep: ProcessId,
    /// True for transitional configurations (paper §2: "in a transitional
    /// configuration no new messages are broadcast but the remaining
    /// messages from the prior regular configuration are delivered").
    pub transitional: bool,
}

impl ConfigId {
    /// Identifier for a regular configuration.
    pub const fn regular(epoch: u64, rep: ProcessId) -> Self {
        ConfigId {
            epoch,
            rep,
            transitional: false,
        }
    }

    /// Identifier for a transitional configuration.
    pub const fn transitional(epoch: u64, rep: ProcessId) -> Self {
        ConfigId {
            epoch,
            rep,
            transitional: true,
        }
    }

    /// Returns true if this identifies a regular configuration.
    pub const fn is_regular(self) -> bool {
        !self.transitional
    }
}

impl fmt::Debug for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}@{}",
            if self.transitional { "T" } else { "R" },
            self.epoch,
            self.rep
        )
    }
}

impl fmt::Display for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A configuration agreed by the membership algorithm: an identifier plus
/// the agreed member list (always sorted, always non-empty).
///
/// This is what the membership layer hands up to the extended virtual
/// synchrony layer ("the membership algorithm ensures that all processes in
/// a configuration agree on the membership of that configuration", §2). The
/// EVS layer then runs its recovery algorithm before the configuration is
/// actually *delivered* to the application.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ProposedConfig {
    /// The unique identifier.
    pub id: ConfigId,
    /// Sorted member list.
    pub members: Vec<ProcessId>,
}

impl ProposedConfig {
    /// Creates a proposal, sorting (and deduplicating) the member list.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(id: ConfigId, mut members: Vec<ProcessId>) -> Self {
        assert!(
            !members.is_empty(),
            "a configuration has at least one member"
        );
        members.sort_unstable();
        members.dedup();
        ProposedConfig { id, members }
    }

    /// A singleton configuration containing only `p` — the shape of the
    /// configuration a process installs when it starts or recovers from a
    /// crash (§2: "…may recover with a deliver_conf event, where the
    /// membership is {p}").
    pub fn singleton(epoch: u64, p: ProcessId) -> Self {
        ProposedConfig {
            id: ConfigId::regular(epoch, p),
            members: vec![p],
        }
    }

    /// Returns true if `p` is a member.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.members.binary_search(&p).is_ok()
    }

    /// The representative: the smallest member.
    pub fn rep(&self) -> ProcessId {
        self.members[0]
    }
}

impl fmt::Debug for ProposedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.id, self.members)
    }
}

impl fmt::Display for ProposedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn ordering_is_epoch_then_rep_then_kind() {
        let a = ConfigId::regular(1, p(5));
        let b = ConfigId::regular(2, p(0));
        let c = ConfigId::regular(2, p(1));
        let d = ConfigId::transitional(2, p(1));
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn concurrent_components_get_distinct_ids() {
        // Two disjoint components forming at the same epoch: reps differ.
        let left = ConfigId::regular(3, p(0));
        let right = ConfigId::regular(3, p(2));
        assert_ne!(left, right);
    }

    #[test]
    fn proposal_sorts_and_dedups() {
        let cfg = ProposedConfig::new(ConfigId::regular(1, p(0)), vec![p(2), p(0), p(2), p(1)]);
        assert_eq!(cfg.members, vec![p(0), p(1), p(2)]);
        assert_eq!(cfg.rep(), p(0));
        assert!(cfg.contains(p(1)));
        assert!(!cfg.contains(p(3)));
    }

    #[test]
    fn singleton_shape() {
        let cfg = ProposedConfig::singleton(7, p(4));
        assert_eq!(cfg.members, vec![p(4)]);
        assert_eq!(cfg.id, ConfigId::regular(7, p(4)));
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_membership_rejected() {
        ProposedConfig::new(ConfigId::regular(0, p(0)), vec![]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ProposedConfig::singleton(2, p(9)).to_string(), "R2@P9[P9]");
    }
}
