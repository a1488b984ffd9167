//! The checker against a literal reading of the model, on random small
//! traces (at most four processes and about sixty events), many of them
//! deliberately broken: deliveries swapped, sends dropped, configuration
//! changes duplicated or reordered (which makes `→` cyclic), events copied
//! across processes.
//!
//! * `→` must equal the Floyd–Warshall closure of the quotient definition:
//!   process order, `send(m) → deliver(m)` from the first send of `m`, and
//!   every installation of one configuration a single node.
//! * Spec 5 and Spec 6.3 violations must equal their pairwise first-order
//!   readings, as multisets.

use evs_core::checker::{check_all, Analysis, EvRef};
use evs_core::{Configuration, EvsEvent, Trace};
use evs_membership::ConfigId;
use evs_order::{MessageId, Service};
use evs_sim::{ProcessId, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn config(id: ConfigId, members: &[u32]) -> Configuration {
    Configuration::new(id, members.iter().map(|&i| ProcessId::new(i)).collect())
}

/// A run of one regular configuration, part of which moves on through a
/// transitional and a second regular one, delivering one agreed order with
/// occasional gaps — then up to three mutations.
fn random_trace(seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=4u32);
    let everyone: Vec<u32> = (0..n).collect();
    let mut movers: Vec<u32> = everyone
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.6))
        .collect();
    if movers.is_empty() {
        movers.push(0);
    }
    let stages = [
        config(ConfigId::regular(1, ProcessId::new(0)), &everyone),
        config(
            ConfigId::transitional(2, ProcessId::new(movers[0])),
            &movers,
        ),
        config(ConfigId::regular(2, ProcessId::new(movers[0])), &movers),
    ];
    let mut logs: Vec<Vec<EvsEvent>> =
        vec![vec![EvsEvent::DeliverConf(stages[0].clone())]; n as usize];
    let mut stage = vec![0; n as usize];
    let mut delivered = vec![0; n as usize];
    let mut order: Vec<MessageId> = Vec::new();
    for _ in 0..rng.gen_range(4..=44) {
        let p = rng.gen_range(0..n);
        let (log, at) = (&mut logs[p as usize], stage[p as usize]);
        let current = stages[at].id;
        match rng.gen_range(0..20) {
            0..=5 if current.is_regular() => {
                let id = MessageId::new(ProcessId::new(p), log.len() as u64);
                let service = if rng.gen_bool(0.5) {
                    Service::Safe
                } else {
                    Service::Agreed
                };
                log.push(EvsEvent::Send {
                    id,
                    config: current,
                    service,
                });
                order.push(id);
            }
            6..=15 if delivered[p as usize] < order.len() => {
                let seq = delivered[p as usize] + usize::from(rng.gen_bool(0.1));
                if let Some(&id) = order.get(seq) {
                    let (config, service) = (current, Service::Agreed);
                    log.push(EvsEvent::Deliver {
                        id,
                        config,
                        service,
                        seq: seq as u64 + 1,
                    });
                }
                delivered[p as usize] = seq + 1;
            }
            16..=18 if at < 2 && movers.contains(&p) => {
                stage[p as usize] += 1;
                log.push(EvsEvent::DeliverConf(stages[at + 1].clone()));
            }
            19 => log.push(EvsEvent::Fail { config: current }),
            _ => {}
        }
    }
    for _ in 0..rng.gen_range(0..=3) {
        let p = rng.gen_range(0..n as usize);
        let len = logs[p].len();
        let pick = |rng: &mut SmallRng, want: fn(&EvsEvent) -> bool, log: &[EvsEvent]| {
            let hits: Vec<usize> = (0..log.len()).filter(|&i| want(&log[i])).collect();
            (!hits.is_empty()).then(|| hits[rng.gen_range(0..hits.len())])
        };
        let delivery = |e: &EvsEvent| matches!(e, EvsEvent::Deliver { .. });
        let send = |e: &EvsEvent| matches!(e, EvsEvent::Send { .. });
        let change = |e: &EvsEvent| matches!(e, EvsEvent::DeliverConf(_));
        match rng.gen_range(0..5) {
            0 => {
                if let (Some(a), Some(b)) = (
                    pick(&mut rng, delivery, &logs[p]),
                    pick(&mut rng, delivery, &logs[p]),
                ) {
                    logs[p].swap(a, b);
                }
            }
            1 => {
                if let Some(a) = pick(&mut rng, send, &logs[p]) {
                    logs[p].remove(a);
                }
            }
            2 => {
                if let Some(a) = pick(&mut rng, change, &logs[p]) {
                    let copy = logs[p][a].clone();
                    logs[p].insert(rng.gen_range(0..=len), copy);
                }
            }
            3 => {
                if let (Some(a), Some(b)) = (
                    pick(&mut rng, change, &logs[p]),
                    pick(&mut rng, change, &logs[p]),
                ) {
                    logs[p].swap(a, b);
                }
            }
            _ => {
                let q = rng.gen_range(0..n as usize);
                if !logs[q].is_empty() {
                    let copy = logs[q][rng.gen_range(0..logs[q].len())].clone();
                    logs[p].insert(rng.gen_range(0..=len), copy);
                }
            }
        }
    }
    let stamp = |log: Vec<EvsEvent>| {
        (log.into_iter().enumerate())
            .map(|(i, e)| (SimTime::from_ticks(i as u64), e))
            .collect()
    };
    Trace::new(logs.into_iter().map(stamp).collect())
}

/// Every event, and `reach[i][j]` iff event i → event j.
fn closure(trace: &Trace) -> (Vec<EvRef>, Vec<Vec<bool>>) {
    let refs: Vec<EvRef> = (trace.events.iter().enumerate())
        .flat_map(|(pid, log)| (0..log.len()).map(move |idx| EvRef { pid, idx }))
        .collect();
    let ev = |r: EvRef| &trace.events[r.pid][r.idx].1;
    let first_send = |m: &MessageId| {
        refs.iter()
            .copied()
            .find(|&r| matches!(ev(r), EvsEvent::Send { id, .. } if id == m))
    };
    let mut reach = vec![vec![false; refs.len()]; refs.len()];
    for (i, &a) in refs.iter().enumerate() {
        for (j, &b) in refs.iter().enumerate() {
            reach[i][j] = a == b
                || (a.pid == b.pid && a.idx + 1 == b.idx)
                || matches!((ev(a), ev(b)), (EvsEvent::DeliverConf(x), EvsEvent::DeliverConf(y)) if x.id == y.id)
                || matches!(ev(b), EvsEvent::Deliver { id, .. } if first_send(id) == Some(a));
        }
    }
    for k in 0..refs.len() {
        let via = reach[k].clone();
        for row in reach.iter_mut().filter(|row| row[k]) {
            row.iter_mut().zip(&via).for_each(|(x, &y)| *x |= y);
        }
    }
    (refs, reach)
}

/// Spec 5 read pairwise: if `send(m1)` strictly precedes `send(m2)` in
/// configuration `c`, whoever delivers `m2` in `com(c)` delivers `m1`
/// there first.
fn spec5(a: &Analysis<'_>, precedes: &dyn Fn(EvRef, EvRef) -> bool) -> Vec<String> {
    let mut v = Vec::new();
    for (m1, s1) in &a.sends {
        for (m2, s2) in &a.sends {
            let c = s1.config;
            if s2.config != c || !precedes(s1.r, s2.r) || precedes(s2.r, s1.r) {
                continue;
            }
            for d2 in a.delivers.get(m2).into_iter().flatten() {
                let q = d2.r.pid;
                let of_m1 = || a.delivers.get(m1).into_iter().flatten();
                let com = |d: &&evs_core::checker::DeliverInfo| {
                    d.r.pid == q && a.com_compatible(d.config, c)
                };
                if !a.com_compatible(d2.config, c)
                    || of_m1().filter(com).any(|d1| d1.r.idx < d2.r.idx)
                {
                    continue;
                }
                v.push(if of_m1().any(|d1| com(&d1)) {
                    format!("P{q} delivers {m1} after {m2} despite send({m1}) -> send({m2})")
                } else {
                    format!("P{q} delivers {m2} but not its causal predecessor {m1} (config {c})")
                });
            }
        }
    }
    v
}

/// Spec 6.3 read pairwise: if some process delivers `m1` before `m2` in
/// the realm of regular configuration `r`, whoever delivers `m2` in
/// configuration `c2` of that realm delivers `m1` too, unless `m1` was not
/// sent in `r` or its sender is not a member of `c2`.
fn spec6_3(a: &Analysis<'_>) -> Vec<String> {
    let in_realm = |pid: usize, r: ConfigId| -> Vec<(MessageId, ConfigId)> {
        (a.trace.events[pid].iter())
            .filter_map(|(_, e)| match e {
                EvsEvent::Deliver { id, config, .. } if a.reg(*config) == Some(r) => {
                    Some((*id, *config))
                }
                _ => None,
            })
            .collect()
    };
    let n = a.trace.num_processes();
    let mut v = Vec::new();
    for &r in a.configs.keys().filter(|c| c.is_regular()) {
        let lists: Vec<_> = (0..n).map(|pid| in_realm(pid, r)).collect();
        let before = |m1: MessageId, m2: MessageId| {
            (lists.iter())
                .any(|l| (0..l.len()).any(|i| l[i].0 == m1 && l[i + 1..].iter().any(|x| x.0 == m2)))
        };
        let ever: Vec<MessageId> = lists.iter().flatten().map(|x| x.0).collect();
        for (pid, list) in lists.iter().enumerate() {
            for &(m2, c2) in list {
                let Some(members) = a.configs.get(&c2).map(|c| &c.members) else {
                    continue;
                };
                let mut skipped: Vec<MessageId> = (ever.iter().copied())
                    .filter(|m1| !list.iter().any(|x| x.0 == *m1) && before(*m1, m2))
                    .filter(|m1| {
                        a.sends
                            .get(m1)
                            .is_some_and(|s| s.config == r && members.contains(&s.sender))
                    })
                    .collect();
                skipped.sort();
                skipped.dedup();
                for m1 in skipped {
                    let sender = a.sends[&m1].sender;
                    v.push(format!(
                        "P{pid} delivers {m2} in {c2} but skipped {m1} (ordered earlier) whose sender {sender} is a member of {c2}"
                    ));
                }
            }
        }
    }
    v
}

fn sorted(mut v: Vec<String>) -> Vec<String> {
    v.sort();
    v
}

proptest! {
    #[test]
    fn checker_agrees_with_the_literal_reading(seed in any::<u64>()) {
        let trace = random_trace(seed);
        let a = Analysis::build(&trace);
        let (refs, reach) = closure(&trace);
        for (i, &x) in refs.iter().enumerate() {
            for (j, &y) in refs.iter().enumerate() {
                prop_assert_eq!(a.graph.precedes(x, y), reach[i][j], "{:?} -> {:?}\n{}", x, y, trace);
            }
        }
        let index = |r: EvRef| refs.iter().position(|&x| x == r).expect("an event");
        let literal = |x: EvRef, y: EvRef| reach[index(x)][index(y)];
        let found = check_all(&trace).err().unwrap_or_default();
        let of = |spec: &str| sorted(found.iter().filter(|v| v.spec == spec).map(|v| v.detail.clone()).collect());
        prop_assert_eq!(of("5"), sorted(spec5(&a, &literal)), "{}", trace);
        prop_assert_eq!(of("6.3"), sorted(spec6_3(&a)), "{}", trace);
    }
}
