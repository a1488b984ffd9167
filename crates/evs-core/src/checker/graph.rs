//! The `→` (precedes) relation and the `ord` function, built from a trace.
//!
//! The paper's model postulates a global partial order `→` and a logical
//! total order `ord` over all events (§2). A trace only records what each
//! process did, in what local order; the checker must therefore *construct*
//! a witness `(→, ord)` and verify it exists:
//!
//! * `→` is the transitive closure of (a) per-process event order
//!   (Spec 1.2), (b) `send(m) → deliver(m)` for every delivery (Spec 1.3),
//!   and (c) the synchronization required by Specs 2.3/2.4 — which is
//!   realized canonically by *merging* all `deliver_conf(c)` events for the
//!   same configuration `c` into one graph node. If this merged graph is
//!   acyclic, a valid partial order exists; a cycle means Specs 1.1/2.3/2.4
//!   are jointly unsatisfiable for this trace.
//! * `ord` additionally requires deliveries of the same message to share a
//!   logical time (Spec 6.2), so those events are merged as well. If the
//!   finer quotient is still acyclic, a topological numbering *is* a valid
//!   `ord` (it satisfies 6.1 and 6.2 by construction); a cycle refutes
//!   Specs 6.1/6.2.
//!
//! `→` is read through vector timestamps (the logical-clocks construction).
//! An event has at most two in-edges: its process predecessor, and its
//! message's first send for a delivery or the next installation of its
//! configuration for a configuration change. The installations of one
//! configuration thus form a ring, which is strongly connected, so
//! condensing the strongly connected components performs the merge, and a
//! component holding more than one class is a cycle. One pass in
//! topological order gives each component `k` a row `vt[k][p]`, the number
//! of process `p`'s first events that reach `k`. Since `p`'s events reach
//! everything their successors in `p` reach, `(p, i) → b` iff
//! `i < vt[k(b)][p]`: one lookup per query, `events × n` words in all.

use super::Analysis;
use crate::Trace;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// No event or component.
const NONE: usize = usize::MAX;

/// A reference to one event: `(process index, position in its log)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EvRef {
    /// Process index.
    pub pid: usize,
    /// Position within that process's log.
    pub idx: usize,
}

/// The quotient precedence structure of a trace.
#[derive(Debug, Default)]
pub struct EventGraph {
    /// Id of each process's first event: `(pid, idx)` is event
    /// `start[pid] + idx`.
    start: Vec<usize>,
    /// Strongly connected component of the precedes graph per event.
    component: Vec<usize>,
    /// Vector timestamps, `start.len()` entries per component.
    vt: Vec<u32>,
    /// True if every component is a single class.
    acyclic: bool,
    /// `ord` value per event, if the ord quotient is acyclic.
    ord: Option<Vec<usize>>,
}

impl EventGraph {
    /// Builds the graph from a trace.
    pub fn build(trace: &Trace) -> Self {
        Analysis::build(trace).graph
    }

    /// The graph of an indexed trace.
    pub(super) fn new(a: &Analysis<'_>) -> Self {
        let start: Vec<usize> = (a.trace.events.iter())
            .scan(0, |next, log| {
                Some(std::mem::replace(next, *next + log.len()))
            })
            .collect();
        let (n, total, id) = (start.len(), a.trace.len(), |r: EvRef| start[r.pid] + r.idx);
        // Each event's in-edges in `→`. Each ord class, named by its first
        // event — a configuration's first installation, a message's first
        // delivery — as a ring of its members. Each first send's message's
        // first delivery.
        let mut preds = vec![[NONE; 2]; total];
        let (mut first, mut ring): (Vec<_>, Vec<_>) = (0..total).map(|e| (e, e)).unzip();
        let mut sent_to = vec![NONE; total];
        for (log, &s) in a.trace.events.iter().zip(&start) {
            (s + 1..s + log.len()).for_each(|e| preds[e][0] = e - 1);
        }
        for installs in a.conf_delivs.values() {
            for (i, &r) in installs.iter().enumerate() {
                let next = id(installs[(i + 1) % installs.len()]);
                (preds[id(r)][1], ring[id(r)], first[id(r)]) = (next, next, id(installs[0]));
            }
        }
        for (m, send, delivs) in a.messages() {
            let send = a.first_sends.get(&m).or(send.map(|s| &s.r)).map(|&r| id(r));
            for (i, d) in delivs.iter().enumerate() {
                let next = id(delivs[(i + 1) % delivs.len()].r);
                let from = send.unwrap_or(NONE);
                (preds[id(d.r)][1], ring[id(d.r)], first[id(d.r)]) = (from, next, id(delivs[0].r));
            }
            if let (Some(s), Some(d)) = (send, delivs.first()) {
                sent_to[s] = id(d.r);
            }
        }

        // Each component's row, seeded with its own events, then joined
        // with its predecessors', which complete before it.
        let (component, done) = strong_components(&preds);
        let components = done.last().map_or(0, |&e| component[e] + 1);
        let mut vt = vec![0; components * n];
        for (pid, (log, &s)) in a.trace.events.iter().zip(&start).enumerate() {
            for idx in 0..log.len() {
                vt[component[s + idx] * n + pid] = idx as u32 + 1;
            }
        }
        for &e in &done {
            let k = component[e];
            for &d in preds[e].iter().filter(|&&d| d != NONE && component[d] != k) {
                let (below, row) = vt.split_at_mut(k * n);
                for (t, &f) in row[..n].iter_mut().zip(&below[component[d] * n..][..n]) {
                    *t = (*t).max(f);
                }
            }
        }
        let merged: usize = a.conf_delivs.values().map(|l| l.len() - 1).sum();

        // Kahn's algorithm over the ord classes, smallest first event first.
        let succ = |e: usize| {
            let next = (e + 1 < total && preds[e + 1][0] == e).then_some(e + 1);
            next.into_iter()
                .chain((sent_to[e] != NONE).then_some(sent_to[e]))
        };
        let mut indeg = vec![0; total];
        for e in 0..total {
            succ(e)
                .filter(|&f| first[f] != first[e])
                .for_each(|f| indeg[first[f]] += 1);
        }
        let classes = (0..total).filter(|&e| first[e] == e);
        let mut ready: BinaryHeap<_> = classes
            .clone()
            .filter(|&e| indeg[e] == 0)
            .map(Reverse)
            .collect();
        let mut rank = vec![NONE; total];
        let mut placed = 0;
        while let Some(Reverse(c)) = ready.pop() {
            rank[c] = placed;
            placed += 1;
            let mut e = c;
            loop {
                for f in succ(e).map(|f| first[f]).filter(|&f| f != c) {
                    indeg[f] -= 1;
                    if indeg[f] == 0 {
                        ready.push(Reverse(f));
                    }
                }
                e = ring[e];
                if e == c {
                    break;
                }
            }
        }
        let ord = (placed == classes.count()).then(|| first.iter().map(|&c| rank[c]).collect());

        EventGraph {
            acyclic: components == total - merged,
            start,
            component,
            vt,
            ord,
        }
    }

    fn id(&self, r: EvRef) -> usize {
        self.start[r.pid] + r.idx
    }

    /// How many of process `p`'s first events precede `b`:
    /// `(p, i) → b` iff `i < horizon(b, p)`.
    pub(super) fn horizon(&self, b: EvRef, p: usize) -> usize {
        self.vt[self.component[self.id(b)] * self.start.len() + p] as usize
    }

    /// True if the precedes quotient is acyclic, i.e. a valid `→` partial
    /// order satisfying Specs 1.1, 1.2, 2.3 and 2.4 exists.
    pub fn precedes_acyclic(&self) -> bool {
        self.acyclic
    }

    /// True if the ord quotient is acyclic, i.e. an `ord` satisfying Specs
    /// 6.1 and 6.2 exists.
    pub fn ord_feasible(&self) -> bool {
        self.ord.is_some()
    }

    /// The constructed `ord` value of an event (a concrete witness for the
    /// paper's logical total order), if feasible.
    pub fn ord_of(&self, r: EvRef) -> Option<u64> {
        self.ord.as_ref().map(|o| o[self.id(r)] as u64)
    }

    /// Whether `a → b` in the constructed precedes relation (reflexive, as
    /// in the paper).
    pub fn precedes(&self, a: EvRef, b: EvRef) -> bool {
        a.idx < self.horizon(b, a.pid)
    }
}

/// Tarjan's strongly connected components over each node's in-edges
/// (`NONE` for none), iteratively: the component of each node, numbered
/// in completion order — after every component with an edge into it —
/// and the nodes in that order.
fn strong_components(preds: &[[usize; 2]]) -> (Vec<usize>, Vec<usize>) {
    let n = preds.len();
    let (mut index, mut low, mut comp) = (vec![NONE; n], vec![0; n], vec![NONE; n]);
    let (mut stack, mut done, mut calls) = (Vec::new(), Vec::with_capacity(n), Vec::new());
    let mut visited = 0;
    for root in 0..n {
        if index[root] != NONE {
            continue;
        }
        calls.push((root, 0));
        while let Some((v, next)) = calls.pop() {
            if next == 0 {
                (index[v], low[v]) = (visited, visited);
                visited += 1;
                stack.push(v);
            }
            if let Some(&w) = preds[v].get(next) {
                calls.push((v, next + 1));
                if w != NONE && index[w] == NONE {
                    calls.push((w, 0));
                } else if w != NONE && comp[w] == NONE {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            if let Some(&(u, _)) = calls.last() {
                low[u] = low[u].min(low[v]);
            }
            if low[v] == index[v] {
                let k = done.last().map_or(0, |&w| comp[w] + 1);
                let at = stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("v is on the stack");
                for w in stack.drain(at..) {
                    comp[w] = k;
                    done.push(w);
                }
            }
        }
    }
    (comp, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Configuration, EvsEvent};
    use evs_membership::ConfigId;
    use evs_order::{MessageId, Service};
    use evs_sim::{ProcessId, SimTime};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn cfg(epoch: u64, members: &[u32]) -> Configuration {
        Configuration::new(
            ConfigId::regular(epoch, p(members[0])),
            members.iter().map(|&i| p(i)).collect(),
        )
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_ticks(n)
    }

    fn send(mid: (u32, u64), c: &Configuration) -> EvsEvent {
        EvsEvent::Send {
            id: MessageId::new(p(mid.0), mid.1),
            config: c.id,
            service: Service::Agreed,
        }
    }

    fn deliver(mid: (u32, u64), c: &Configuration, seq: u64) -> EvsEvent {
        EvsEvent::Deliver {
            id: MessageId::new(p(mid.0), mid.1),
            config: c.id,
            service: Service::Agreed,
            seq,
        }
    }

    #[test]
    fn linear_history_is_acyclic_and_ordered() {
        let c = cfg(0, &[0, 1]);
        let trace = Trace::new(vec![
            vec![
                (t(0), EvsEvent::DeliverConf(c.clone())),
                (t(1), send((0, 1), &c)),
                (t(2), deliver((0, 1), &c, 1)),
            ],
            vec![
                (t(0), EvsEvent::DeliverConf(c.clone())),
                (t(3), deliver((0, 1), &c, 1)),
            ],
        ]);
        let g = EventGraph::build(&trace);
        assert!(g.precedes_acyclic());
        assert!(g.ord_feasible());
        // send precedes both deliveries.
        let s = EvRef { pid: 0, idx: 1 };
        let d0 = EvRef { pid: 0, idx: 2 };
        let d1 = EvRef { pid: 1, idx: 1 };
        assert!(g.precedes(s, d0));
        assert!(g.precedes(s, d1));
        assert!(!g.precedes(d0, s));
        // Same-message deliveries share an ord value; send is earlier.
        assert_eq!(g.ord_of(d0), g.ord_of(d1));
        assert!(g.ord_of(s).unwrap() < g.ord_of(d0).unwrap());
    }

    #[test]
    fn conf_merge_synchronizes_processes() {
        // P0's event after conf c must follow P1's events before conf c.
        let c0 = cfg(0, &[0, 1]);
        let c1 = cfg(1, &[0, 1]);
        let trace = Trace::new(vec![
            vec![
                (t(0), EvsEvent::DeliverConf(c0.clone())),
                (t(5), EvsEvent::DeliverConf(c1.clone())),
                (t(6), send((0, 1), &c1)),
            ],
            vec![
                (t(0), EvsEvent::DeliverConf(c0.clone())),
                (t(1), send((1, 1), &c0)),
                (t(7), EvsEvent::DeliverConf(c1.clone())),
            ],
        ]);
        let g = EventGraph::build(&trace);
        assert!(g.precedes_acyclic());
        // P1's send in c0 precedes the (merged) conf change c1, which
        // precedes P0's send in c1.
        let s1 = EvRef { pid: 1, idx: 1 };
        let s0 = EvRef { pid: 0, idx: 2 };
        assert!(g.precedes(s1, s0));
        assert!(!g.precedes(s0, s1));
    }

    #[test]
    fn contradictory_conf_orders_create_a_cycle() {
        // P0 delivers conf A then conf B; P1 delivers conf B then conf A.
        // The merged graph must be cyclic (Specs 2.3/2.4 unsatisfiable).
        let a = cfg(1, &[0, 1]);
        let b = cfg(2, &[0, 1]);
        let trace = Trace::new(vec![
            vec![
                (t(0), EvsEvent::DeliverConf(a.clone())),
                (t(1), EvsEvent::DeliverConf(b.clone())),
            ],
            vec![
                (t(0), EvsEvent::DeliverConf(b)),
                (t(1), EvsEvent::DeliverConf(a)),
            ],
        ]);
        let g = EventGraph::build(&trace);
        assert!(!g.precedes_acyclic());
        assert!(!g.ord_feasible());
    }

    #[test]
    fn contradictory_delivery_orders_break_ord_only() {
        // Two processes deliver the same two messages in opposite orders:
        // the precedes relation is still fine (no cross edges), but no ord
        // can give each message a single logical time (Spec 6.2).
        let c = cfg(0, &[0, 1]);
        let trace = Trace::new(vec![
            vec![
                (t(0), EvsEvent::DeliverConf(c.clone())),
                (t(1), deliver((0, 1), &c, 1)),
                (t(2), deliver((1, 1), &c, 2)),
            ],
            vec![
                (t(0), EvsEvent::DeliverConf(c.clone())),
                (t(1), deliver((1, 1), &c, 2)),
                (t(2), deliver((0, 1), &c, 1)),
            ],
        ]);
        let g = EventGraph::build(&trace);
        assert!(g.precedes_acyclic());
        assert!(!g.ord_feasible());
    }

    #[test]
    fn empty_trace() {
        let g = EventGraph::build(&Trace::default());
        assert!(g.precedes_acyclic());
        assert!(g.ord_feasible());
    }
}
