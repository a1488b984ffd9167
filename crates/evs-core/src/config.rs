//! Configurations as delivered to the application.

use core::fmt;
use evs_membership::{ConfigId, ProposedConfig};
use evs_sim::ProcessId;

/// Whether a configuration is regular or transitional (§2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ConfigurationKind {
    /// "In a regular configuration new messages are broadcast and
    /// delivered."
    Regular,
    /// "In a transitional configuration no new messages are broadcast but
    /// the remaining messages from the prior regular configuration are
    /// delivered."
    Transitional,
}

/// A configuration: a unique identifier plus its agreed membership.
///
/// Configuration change messages delivering these values are the unit of
/// synchronization in extended virtual synchrony: "delivery of a
/// configuration change message that initiates a new configuration follows
/// delivery of every message in the configuration that it terminates and
/// precedes delivery of every message in the configuration that it
/// initiates" (§2).
///
/// Two `Configuration` values are the same configuration iff they are equal;
/// the membership algorithm guarantees that all members associate the same
/// membership with a given [`ConfigId`].
///
/// # Examples
///
/// ```
/// use evs_core::{Configuration, ConfigurationKind};
/// use evs_membership::ConfigId;
/// use evs_sim::ProcessId;
///
/// let c = Configuration::new(
///     ConfigId::regular(3, ProcessId::new(0)),
///     vec![ProcessId::new(0), ProcessId::new(1)],
/// );
/// assert_eq!(c.kind(), ConfigurationKind::Regular);
/// assert!(c.contains(ProcessId::new(1)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Configuration {
    /// The unique identifier.
    pub id: ConfigId,
    /// Sorted membership.
    pub members: Vec<ProcessId>,
}

impl Configuration {
    /// Creates a configuration, sorting and deduplicating the members.
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
        Configuration { id, members }
    }

    /// Regular/transitional discriminator (encoded in the id).
    pub fn kind(&self) -> ConfigurationKind {
        if self.id.transitional {
            ConfigurationKind::Transitional
        } else {
            ConfigurationKind::Regular
        }
    }

    /// Returns true for a regular configuration.
    pub fn is_regular(&self) -> bool {
        self.id.is_regular()
    }

    /// Returns true if `p` is a member.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.members.binary_search(&p).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Configurations are never empty; this always returns false.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl From<ProposedConfig> for Configuration {
    fn from(p: ProposedConfig) -> Self {
        Configuration {
            id: p.id,
            members: p.members,
        }
    }
}

impl fmt::Debug for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.id, self.members)
    }
}

impl fmt::Display for Configuration {
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
    fn kind_follows_id() {
        let r = Configuration::new(ConfigId::regular(1, p(0)), vec![p(0)]);
        let t = Configuration::new(ConfigId::transitional(1, p(0)), vec![p(0)]);
        assert_eq!(r.kind(), ConfigurationKind::Regular);
        assert!(r.is_regular());
        assert_eq!(t.kind(), ConfigurationKind::Transitional);
        assert!(!t.is_regular());
    }

    #[test]
    fn members_sorted_and_deduped() {
        let c = Configuration::new(ConfigId::regular(1, p(0)), vec![p(2), p(1), p(2)]);
        assert_eq!(c.members, vec![p(1), p(2)]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn from_proposed() {
        let prop = ProposedConfig::new(ConfigId::regular(5, p(1)), vec![p(1), p(3)]);
        let c: Configuration = prop.clone().into();
        assert_eq!(c.id, prop.id);
        assert_eq!(c.members, prop.members);
    }

    #[test]
    fn identity_is_full_equality() {
        let a = Configuration::new(ConfigId::regular(1, p(0)), vec![p(0), p(1)]);
        let b = Configuration::new(ConfigId::regular(1, p(0)), vec![p(0), p(1)]);
        let c = Configuration::new(ConfigId::regular(2, p(0)), vec![p(0), p(1)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
