//! Network topology: which processes can currently communicate.
//!
//! The paper models a partitioned network as a set of *components*: "the
//! processes in a component can receive messages broadcast by other processes
//! in the same component, but processes in two different components are
//! unable to communicate with each other" (§2). [`Topology`] is exactly that
//! equivalence relation — a component label per process.

use crate::ProcessId;
use std::collections::BTreeMap;

/// An assignment of every process to a connected component.
///
/// Reachability is symmetric and transitive by construction, matching the
/// paper's component model. The topology can change over the run via
/// [`Topology::split`] and [`Topology::merge`], modeling network partitioning
/// and remerging.
///
/// # Examples
///
/// ```
/// use evs_sim::{ProcessId, Topology};
///
/// let mut topo = Topology::fully_connected(4);
/// let p = |i| ProcessId::new(i);
/// assert!(topo.reachable(p(0), p(3)));
///
/// topo.split(&[vec![p(0), p(1)], vec![p(2), p(3)]]);
/// assert!(topo.reachable(p(0), p(1)));
/// assert!(!topo.reachable(p(1), p(2)));
///
/// topo.merge(&[p(1), p(2)]);
/// assert!(topo.reachable(p(0), p(3)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Component label of each process, indexed by `ProcessId::as_usize`.
    component: Vec<u32>,
    /// Next fresh label handed out by `split`.
    next_label: u32,
}

impl Topology {
    /// Creates a topology in which all `n` processes share one component.
    pub fn fully_connected(n: usize) -> Self {
        Topology {
            component: vec![0; n],
            next_label: 1,
        }
    }

    /// Number of processes covered by this topology.
    pub fn len(&self) -> usize {
        self.component.len()
    }

    /// Returns true if the topology covers no processes.
    pub fn is_empty(&self) -> bool {
        self.component.is_empty()
    }

    /// Returns true if `a` and `b` are currently in the same component.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range for this topology.
    pub fn reachable(&self, a: ProcessId, b: ProcessId) -> bool {
        self.component[a.as_usize()] == self.component[b.as_usize()]
    }

    /// Repartitions the named processes into the given groups.
    ///
    /// Each group becomes its own fresh component. Processes not named in any
    /// group keep their current label, so a split can be applied to a subset
    /// of the network while the rest is untouched.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range or if a process appears in two
    /// groups.
    pub fn split(&mut self, groups: &[Vec<ProcessId>]) {
        let mut seen = vec![false; self.component.len()];
        for group in groups {
            let label = self.next_label;
            self.next_label += 1;
            for &p in group {
                assert!(
                    !std::mem::replace(&mut seen[p.as_usize()], true),
                    "{p} appears in two groups"
                );
                self.component[p.as_usize()] = label;
            }
        }
    }

    /// Merges the components containing the named processes into one.
    ///
    /// # Panics
    ///
    /// Panics if `bridge` is empty or any id is out of range.
    pub fn merge(&mut self, bridge: &[ProcessId]) {
        assert!(!bridge.is_empty(), "merge requires at least one process");
        let target = self.component[bridge[0].as_usize()];
        let labels: Vec<u32> = bridge
            .iter()
            .map(|p| self.component[p.as_usize()])
            .collect();
        for c in &mut self.component {
            if labels.contains(c) {
                *c = target;
            }
        }
    }

    /// Reconnects every process into a single component.
    pub fn merge_all(&mut self) {
        let label = self.next_label;
        self.next_label += 1;
        for c in &mut self.component {
            *c = label;
        }
    }

    /// Isolates a single process into its own fresh component.
    pub fn isolate(&mut self, p: ProcessId) {
        self.split(&[vec![p]]);
    }

    /// Returns the members of the component containing `p`, in id order.
    pub fn component_of(&self, p: ProcessId) -> Vec<ProcessId> {
        let label = self.component[p.as_usize()];
        (0..self.component.len() as u32)
            .map(ProcessId::new)
            .filter(|q| self.component[q.as_usize()] == label)
            .collect()
    }

    /// Returns all components, each as an id-ordered member list.
    ///
    /// Components are returned in order of their smallest member.
    pub fn components(&self) -> Vec<Vec<ProcessId>> {
        let mut by_label: BTreeMap<u32, Vec<ProcessId>> = BTreeMap::new();
        for (i, &label) in self.component.iter().enumerate() {
            by_label
                .entry(label)
                .or_default()
                .push(ProcessId::new(i as u32));
        }
        let mut comps: Vec<_> = by_label.into_values().collect();
        comps.sort_by_key(|c| c[0]);
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn fully_connected_reaches_everywhere() {
        let t = Topology::fully_connected(5);
        for a in 0..5 {
            for b in 0..5 {
                assert!(t.reachable(p(a), p(b)));
            }
        }
    }

    #[test]
    fn split_disconnects_and_is_symmetric() {
        let mut t = Topology::fully_connected(5);
        t.split(&[vec![p(0), p(1)], vec![p(2), p(3), p(4)]]);
        assert!(t.reachable(p(0), p(1)));
        assert!(t.reachable(p(3), p(4)));
        assert!(!t.reachable(p(0), p(2)));
        assert!(!t.reachable(p(2), p(0)));
    }

    #[test]
    fn partial_split_keeps_rest() {
        let mut t = Topology::fully_connected(4);
        t.split(&[vec![p(0)]]);
        assert!(!t.reachable(p(0), p(1)));
        assert!(t.reachable(p(1), p(3)));
    }

    #[test]
    fn merge_joins_whole_components() {
        let mut t = Topology::fully_connected(6);
        t.split(&[vec![p(0), p(1)], vec![p(2), p(3)], vec![p(4), p(5)]]);
        t.merge(&[p(1), p(2)]);
        assert!(t.reachable(p(0), p(3)));
        assert!(!t.reachable(p(0), p(4)));
    }

    #[test]
    fn merge_all_reconnects() {
        let mut t = Topology::fully_connected(3);
        t.split(&[vec![p(0)], vec![p(1)], vec![p(2)]]);
        t.merge_all();
        assert!(t.reachable(p(0), p(2)));
    }

    #[test]
    fn components_listing() {
        let mut t = Topology::fully_connected(4);
        t.split(&[vec![p(2)], vec![p(0), p(3)]]);
        let comps = t.components();
        assert_eq!(comps, vec![vec![p(0), p(3)], vec![p(1)], vec![p(2)]]);
        assert_eq!(t.component_of(p(3)), vec![p(0), p(3)]);
    }

    #[test]
    #[should_panic(expected = "appears in two groups")]
    fn split_rejects_duplicates() {
        let mut t = Topology::fully_connected(3);
        t.split(&[vec![p(0), p(1)], vec![p(1)]]);
    }

    #[test]
    fn isolate_single() {
        let mut t = Topology::fully_connected(3);
        t.isolate(p(1));
        assert_eq!(t.component_of(p(1)), vec![p(1)]);
        assert!(t.reachable(p(0), p(2)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Reachability is always an equivalence relation, no matter what
        /// sequence of splits and merges is applied.
        #[test]
        fn reachability_stays_an_equivalence(
            n in 2usize..8,
            ops in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(0usize..8, 1..6)),
                0..12
            ),
        ) {
            let mut t = Topology::fully_connected(n);
            for (kind, procs) in ops {
                let procs: Vec<ProcessId> = procs
                    .into_iter()
                    .map(|i| ProcessId::new((i % n) as u32))
                    .collect();
                match kind {
                    0 => {
                        // split into singletons of the (deduped) listed procs
                        let mut seen = std::collections::BTreeSet::new();
                        let groups: Vec<Vec<ProcessId>> = procs
                            .into_iter()
                            .filter(|p| seen.insert(*p))
                            .map(|p| vec![p])
                            .collect();
                        t.split(&groups);
                    }
                    1 => t.merge(&procs),
                    _ => t.merge_all(),
                }
                // Reflexive + symmetric + transitive on every triple.
                for a in 0..n {
                    let pa = ProcessId::new(a as u32);
                    prop_assert!(t.reachable(pa, pa));
                    for b in 0..n {
                        let pb = ProcessId::new(b as u32);
                        prop_assert_eq!(t.reachable(pa, pb), t.reachable(pb, pa));
                        for c in 0..n {
                            let pc = ProcessId::new(c as u32);
                            if t.reachable(pa, pb) && t.reachable(pb, pc) {
                                prop_assert!(t.reachable(pa, pc));
                            }
                        }
                    }
                }
                // Components partition the process set.
                let comps = t.components();
                let total: usize = comps.iter().map(Vec::len).sum();
                prop_assert_eq!(total, n);
            }
        }
    }
}
