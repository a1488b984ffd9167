//! Property-based tests of the membership algorithm: under random
//! sequences of connectivity changes, the protocol must
//!
//! 1. **Agree** — a configuration identifier never maps to two different
//!    memberships, across everything any process ever installs.
//! 2. **Progress monotonically** — each process installs strictly
//!    increasing configuration identifiers.
//! 3. **Converge** — once the topology stops changing, every component
//!    settles on exactly its reachable set, with one shared identifier.
//! 4. **Terminate** — convergence happens within a bounded number of
//!    ticks (the §3 termination property: stuck proposals shrink).

use evs_membership::{ConfigId, MembMsg, MembOut, Membership, ProposedConfig};
use evs_sim::{ProcessId, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

/// Mini-network: reliable instant delivery filtered by component labels.
struct Net {
    procs: Vec<Membership>,
    now: SimTime,
    comp: Vec<u8>,
    installed: Vec<Vec<ProposedConfig>>,
}

impl Net {
    fn new(n: usize) -> Self {
        let now = SimTime::ZERO;
        Net {
            procs: (0..n)
                .map(|i| Membership::new(pid(i), ProposedConfig::singleton(0, pid(i)), 0, now))
                .collect(),
            now,
            comp: vec![0; n],
            installed: vec![Vec::new(); n],
        }
    }

    fn step(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.now += 8;
            let mut inbox: Vec<(usize, ProcessId, MembMsg)> = Vec::new();
            for i in 0..self.procs.len() {
                let outs = self.procs[i].tick(self.now);
                self.route(i, outs, &mut inbox);
            }
            while !inbox.is_empty() {
                for (to, from, msg) in std::mem::take(&mut inbox) {
                    let outs = self.procs[to].on_message(self.now, from, msg);
                    self.route(to, outs, &mut inbox);
                }
            }
        }
    }

    fn route(
        &mut self,
        from: usize,
        outs: Vec<MembOut>,
        inbox: &mut Vec<(usize, ProcessId, MembMsg)>,
    ) {
        for o in outs {
            match o {
                MembOut::Broadcast(msg) => {
                    for to in 0..self.procs.len() {
                        if to != from && self.comp[to] == self.comp[from] {
                            inbox.push((to, pid(from), msg.clone()));
                        }
                    }
                }
                MembOut::Send(to, msg) => {
                    if self.comp[to.as_usize()] == self.comp[from] {
                        inbox.push((to.as_usize(), pid(from), msg));
                    }
                }
                MembOut::GatherStarted => {}
                MembOut::Propose(cfg) => self.installed[from].push(cfg),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn membership_invariants_under_random_topologies(
        n in 2usize..6,
        phases in proptest::collection::vec(
            (proptest::collection::vec(0u8..3, 6), 30u64..120),
            1..5
        ),
    ) {
        let mut net = Net::new(n);
        net.step(150);
        for (labels, ticks) in &phases {
            net.comp.copy_from_slice(&labels[..n]);
            net.step(*ticks);
        }
        // Quiesce: final topology fixed, generous budget (bounded
        // termination).
        net.step(400);

        // 3 + 4: per component, every member ends stable with the same
        // view covering exactly the component.
        for i in 0..n {
            let view = net.procs[i].view();
            let expect: Vec<ProcessId> = (0..n)
                .filter(|&j| net.comp[j] == net.comp[i])
                .map(pid)
                .collect();
            prop_assert_eq!(
                &view.members, &expect,
                "P{} view {:?} != component {:?}", i, view, expect
            );
            prop_assert!(net.procs[i].is_stable(), "P{} not stable", i);
            for j in 0..n {
                if net.comp[j] == net.comp[i] {
                    prop_assert_eq!(net.procs[j].view().id, view.id);
                }
            }
        }

        // 1: one identifier, one membership — over all installations ever.
        let mut by_id: BTreeMap<ConfigId, Vec<ProcessId>> = BTreeMap::new();
        for installs in &net.installed {
            for cfg in installs {
                if let Some(prev) = by_id.insert(cfg.id, cfg.members.clone()) {
                    prop_assert_eq!(prev, cfg.members.clone(), "id {} reused", cfg.id);
                }
            }
        }

        // 2: strictly increasing ids per process.
        for (i, installs) in net.installed.iter().enumerate() {
            for w in installs.windows(2) {
                prop_assert!(
                    w[0].id < w[1].id,
                    "P{} installed non-monotone ids {} then {}", i, w[0].id, w[1].id
                );
            }
        }
    }
}
