//! The individual specification predicates (Specs 1–7, §2.1 of the paper).
//!
//! Each pass reads the `→` witness through [`EventGraph`](super::EventGraph)'s
//! vector timestamps and walks the trace, or one merge of the per-message
//! indexes, a bounded number of times: no pass enumerates pairs of events
//! or messages.

use super::{Analysis, DeliverInfo, EvRef, Violation};
use crate::EvsEvent;
use evs_membership::ConfigId;
use evs_order::{MessageId, Service};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Per process, `(position in its log, message)` pairs in log order.
type ByPosition = Vec<Vec<(usize, MessageId)>>;

/// **Basic Delivery (Specs 1.1–1.4).**
///
/// * 1.1 — `→` is a partial order: checked as acyclicity of the constructed
///   precedes quotient (a cycle also refutes 2.3/2.4, whose
///   synchronization the quotient encodes).
/// * 1.2 — events of one process are totally ordered: holds by
///   construction, a trace is a per-process sequence.
/// * 1.3 — every delivered message was sent, in the regular configuration
///   underlying the delivery's configuration, and the send precedes the
///   delivery.
/// * 1.4 — sends happen in regular configurations; a message is sent by one
///   process, once (duplicate sends are reported while indexing); no
///   process delivers the same message twice.
pub fn check_spec1(a: &Analysis<'_>) -> Vec<Violation> {
    let mut v = Vec::new();
    if !a.graph.precedes_acyclic() {
        v.push(Violation {
            spec: "1.1",
            detail: "the precedes relation (with Spec 2.3/2.4 synchronization) is cyclic"
                .to_string(),
        });
    }
    for (m, send, delivs) in a.messages() {
        for d in delivs {
            let Some(send) = send else {
                v.push(Violation {
                    spec: "1.3",
                    detail: format!(
                        "P{} delivers {m} in {} but no send event exists",
                        d.r.pid, d.config
                    ),
                });
                continue;
            };
            if a.reg(d.config) != Some(send.config) {
                v.push(Violation {
                    spec: "1.3",
                    detail: format!(
                        "P{} delivers {m} in {} whose regular configuration is not the sending configuration {}",
                        d.r.pid, d.config, send.config
                    ),
                });
            }
            if !a.graph.precedes(send.r, d.r) {
                v.push(Violation {
                    spec: "1.3",
                    detail: format!("send of {m} does not precede its delivery at P{}", d.r.pid),
                });
            }
        }
        if let Some(send) = send.filter(|s| !s.config.is_regular()) {
            v.push(Violation {
                spec: "1.4",
                detail: format!("{m} sent in non-regular configuration {}", send.config),
            });
        }
        // Deliveries are indexed in process order.
        for by_one in delivs.chunk_by(|x, y| x.r.pid == y.r.pid) {
            if by_one.len() > 1 {
                v.push(Violation {
                    spec: "1.4",
                    detail: format!("P{} delivers {m} {} times", by_one[0].r.pid, by_one.len()),
                });
            }
        }
    }
    v
}

/// **Delivery of Configuration Changes (Specs 2.1–2.4).**
///
/// * 2.1 — quiescent agreement: if `c` is the final configuration of a
///   surviving process, it is the final configuration of every member.
/// * 2.2 — every send/deliver/fail happens inside the configuration most
///   recently installed by that process, with no intervening change.
/// * 2.3/2.4 — cross-process synchronization of configuration changes:
///   encoded in the precedes quotient; refuted only by a cycle (reported
///   under 1.1).
pub fn check_spec2(a: &Analysis<'_>) -> Vec<Violation> {
    let mut v = Vec::new();

    // --- 2.2 (and first-event sanity): scan each process's history,
    // noting where it ends: (last installed configuration, failed after
    // it?).
    let mut finals: Vec<Option<(ConfigId, bool)>> = Vec::new();
    for (pid, log) in a.trace.events.iter().enumerate() {
        let mut current: Option<ConfigId> = None;
        let mut last = None;
        for (idx, (_, ev)) in log.iter().enumerate() {
            match ev {
                EvsEvent::DeliverConf(c) => {
                    current = Some(c.id);
                    last = Some((c.id, false));
                }
                EvsEvent::Send { config, .. }
                | EvsEvent::Deliver { config, .. }
                | EvsEvent::Fail { config } => {
                    if current != Some(*config) {
                        v.push(Violation {
                            spec: "2.2",
                            detail: format!(
                                "P{pid} event #{idx} ({ev}) in configuration {config} but currently installed: {current:?}"
                            ),
                        });
                    }
                    if matches!(ev, EvsEvent::Fail { .. }) {
                        current = None; // next event must be a recovery conf change
                        last = last.map(|(c, _)| (c, true));
                    }
                }
            }
        }
        finals.push(last);
    }

    // --- 2.1: quiescent agreement on the final configuration.
    // For each process p whose history ends in configuration c without a
    // failure in c, every member of c must also end in c without failing.
    for (pid, &fin) in finals.iter().enumerate() {
        let Some((c, false)) = fin else {
            continue;
        };
        let Some(cfg) = a.configs.get(&c) else {
            continue;
        };
        for &q in &cfg.members {
            match finals.get(q.as_usize()).copied().flatten() {
                Some((qc, qfailed)) if qc == c && !qfailed => {}
                other => v.push(Violation {
                    spec: "2.1",
                    detail: format!("P{pid} ends in {c} but member {q} ends in {other:?}"),
                }),
            }
        }
    }
    v
}

/// **Self-Delivery (Spec 3).** A process delivers its own messages — in the
/// sending configuration or its transitional configuration — unless it
/// fails before leaving them.
pub fn check_spec3(a: &Analysis<'_>) -> Vec<Violation> {
    let mut v = Vec::new();
    for (m, send, delivs) in a.messages() {
        let Some(send) = send else {
            continue;
        };
        let pid = send.r.pid;
        if a.delivered_in_com(delivs, pid, send.config) {
            continue;
        }
        // Scan forward from the send: did the process leave com(c) without
        // failing (a failure in com(c) exempts it)?
        let left = (a.trace.events[pid][send.r.idx + 1..].iter()).find_map(|(_, ev)| match ev {
            EvsEvent::Fail { config } if a.com_compatible(*config, send.config) => Some(false),
            EvsEvent::DeliverConf(c2) if !a.com_compatible(c2.id, send.config) => Some(true),
            _ => None,
        });
        if left == Some(true) {
            v.push(Violation {
                spec: "3",
                detail: format!(
                    "P{pid} sent {m} in {} and moved on without delivering it",
                    send.config
                ),
            });
        }
    }
    v
}

/// **Failure Atomicity (Spec 4).** Processes that proceed together from
/// configuration `c` to configuration `c'''` deliver the same set of
/// messages in `c`.
pub fn check_spec4(a: &Analysis<'_>) -> Vec<Violation> {
    let mut v = Vec::new();
    // (c, c''') → (first process seen, its delivered set in c)
    let mut by_transition: HashMap<(ConfigId, ConfigId), (usize, Vec<MessageId>)> = HashMap::new();
    for (pid, log) in a.trace.events.iter().enumerate() {
        // The configuration segments of pid's history, each with the sorted
        // set of messages delivered in it.
        let mut segs: Vec<(ConfigId, Vec<MessageId>)> = Vec::new();
        for (_, ev) in log {
            match (ev, segs.last_mut()) {
                (EvsEvent::DeliverConf(c), _) => segs.push((c.id, Vec::new())),
                (EvsEvent::Deliver { id, .. }, Some(seg)) => seg.1.push(*id),
                _ => {}
            }
        }
        for i in 1..segs.len() {
            let (c, next) = (segs[i - 1].0, segs[i].0);
            let mut delivered = std::mem::take(&mut segs[i - 1].1);
            delivered.sort_unstable();
            delivered.dedup();
            match by_transition.get(&(c, next)) {
                None => {
                    by_transition.insert((c, next), (pid, delivered));
                }
                Some((other, set)) if *set != delivered => {
                    let extra = |x: &[MessageId], y: &[MessageId]| -> Vec<MessageId> {
                        x.iter()
                            .copied()
                            .filter(|m| y.binary_search(m).is_err())
                            .collect()
                    };
                    let (only_theirs, only_ours) = (extra(set, &delivered), extra(&delivered, set));
                    v.push(Violation {
                        spec: "4",
                        detail: format!(
                            "P{pid} and P{other} both moved {c} -> {next} but delivered different sets in {c}: P{other} extra {only_theirs:?}, P{pid} extra {only_ours:?}"
                        ),
                    });
                }
                Some(_) => {}
            }
        }
    }
    v
}

/// **Causal Delivery (Spec 5).** Within one configuration, if
/// `send(m) → send(m')` and a process delivers `m'`, it delivers `m`
/// first.
///
/// The sends of one sender that precede `send(m')` are a prefix of its
/// sends, `horizon(send(m'))` long, so each deliverer keeps, per sending
/// configuration and sender, its first send there not yet delivered; a
/// delivery of `m'` is in order when every such pointer has passed the
/// horizon. Sends in `send(m')`'s own strongly connected block (only on a
/// cycle) do not strictly precede it and are exempt.
pub fn check_spec5(a: &Analysis<'_>) -> Vec<Violation> {
    // Each configuration's sends, per sender in its order, and the
    // deliverer's pointer into each sender's list: its first send there
    // the deliverer has not delivered.
    let n = a.trace.num_processes();
    let mut sent: BTreeMap<ConfigId, (ByPosition, Vec<usize>)> = BTreeMap::new();
    for (m, s) in &a.sends {
        let (senders, _) = sent
            .entry(s.config)
            .or_insert_with(|| (vec![Vec::new(); n], vec![0; n]));
        senders[s.r.pid].push((s.r.idx, *m));
    }
    for sends in sent.values_mut().flat_map(|(senders, _)| senders) {
        sends.sort_unstable();
    }

    // (configuration, m', m, deliverer, position) per delivery out of order.
    let mut missed = Vec::new();
    let logs = &a.trace.events;
    let mut done: Vec<Vec<bool>> = logs.iter().map(|l| vec![false; l.len()]).collect();
    for (q, log) in logs.iter().enumerate() {
        done.iter_mut().for_each(|d| d.fill(false));
        sent.values_mut().for_each(|(_, next)| next.fill(0));
        for (idx, (_, ev)) in log.iter().enumerate() {
            let EvsEvent::Deliver { id: m2, config, .. } = ev else {
                continue;
            };
            let s2 = a
                .sends
                .get(m2)
                .filter(|s| a.com_compatible(*config, s.config));
            let Some(s2) = s2 else {
                continue;
            };
            done[s2.r.pid][s2.r.idx] = true;
            let (senders, next) = sent.get_mut(&s2.config).expect("indexed above");
            for (p, (sends, next)) in senders.iter().zip(next).enumerate() {
                while *next < sends.len() && done[p][sends[*next].0] {
                    *next += 1;
                }
                let horizon = a.graph.horizon(s2.r, p);
                for &(i, m1) in sends[*next..].iter().take_while(|s| s.0 < horizon) {
                    if !done[p][i] && !a.graph.precedes(s2.r, EvRef { pid: p, idx: i }) {
                        missed.push((s2.config, *m2, m1, q, idx));
                    }
                }
            }
        }
    }
    missed.sort_unstable();
    (missed.into_iter())
        .map(|(c, m2, m1, q, _)| {
            let later = a
                .delivers
                .get(&m1)
                .is_some_and(|d| a.delivered_in_com(d, q, c));
            Violation {
                spec: "5",
                detail: if later {
                    format!("P{q} delivers {m1} after {m2} despite send({m1}) -> send({m2})")
                } else {
                    format!("P{q} delivers {m2} but not its causal predecessor {m1} (config {c})")
                },
            }
        })
        .collect()
}

/// **Totally Ordered Delivery (Specs 6.1–6.3).**
///
/// * 6.1/6.2 — existence of an `ord` consistent with `→` that gives each
///   message delivery and each configuration change a single logical time:
///   checked as acyclicity of the ord quotient.
/// * 6.3 — no gaps: if some process delivered `m` before `m'` (within one
///   regular configuration's realm), any process delivering `m'` must also
///   deliver `m`, unless `m`'s sender is outside that process's
///   configuration.
pub fn check_spec6(a: &Analysis<'_>) -> Vec<Violation> {
    let mut v = Vec::new();
    if !a.graph.ord_feasible() {
        v.push(Violation {
            spec: "6.1/6.2",
            detail: "no logical total order exists: the ord quotient is cyclic".to_string(),
        });
    }

    // --- 6.3, per underlying regular configuration r: which processes
    // deliver there at all, then what each of those misses — messages
    // sent in r that someone else delivers in r.
    let in_realm = |d: &DeliverInfo, r| a.reg(d.config) == Some(r);
    let mut active = BTreeSet::new();
    for (pid, log) in a.trace.events.iter().enumerate() {
        let mut last = None;
        for (_, ev) in log {
            if let EvsEvent::Deliver { config, .. } = ev {
                if last.replace(*config) != Some(*config) {
                    active.extend(a.reg(*config).map(|r| (r, pid)));
                }
            }
        }
    }
    let mut missing: BTreeMap<(ConfigId, usize), Vec<MessageId>> = BTreeMap::new();
    for (m, send, delivs) in a.messages() {
        let Some(r) = send.map(|s| s.config) else {
            continue;
        };
        if delivs.iter().any(|d| in_realm(d, r)) {
            for &(_, pid) in active.range((r, 0)..=(r, usize::MAX)) {
                if !delivs.iter().any(|d| d.r.pid == pid && in_realm(d, r)) {
                    missing.entry((r, pid)).or_default().push(m);
                }
            }
        }
    }
    // Per (r, process), where each process delivers the messages it
    // skipped in r: some process delivers m before m' iff one of these
    // positions is below one of its deliveries of m'.
    let at: BTreeMap<(ConfigId, usize), ByPosition> = (missing.into_iter())
        .map(|((r, pid), skipped)| {
            let mut at = vec![Vec::new(); a.trace.num_processes()];
            for m1 in skipped {
                for d in a.delivers[&m1].iter().filter(|d| in_realm(d, r)) {
                    at[d.r.pid].push((d.r.idx, m1));
                }
            }
            at.iter_mut().for_each(|at| at.sort_unstable());
            ((r, pid), at)
        })
        .collect();
    for (pid, log) in a.trace.events.iter().enumerate() {
        for (_, ev) in log {
            let EvsEvent::Deliver {
                id: m2, config: c2, ..
            } = ev
            else {
                continue;
            };
            let Some(r) = a.reg(*c2) else {
                continue;
            };
            let (Some(at), Some(c)) = (at.get(&(r, pid)), a.configs.get(c2)) else {
                continue;
            };
            let gaps: BTreeSet<MessageId> = (a.delivers[m2].iter().filter(|d| in_realm(d, r)))
                .flat_map(|d| at[d.r.pid].iter().take_while(move |s| s.0 < d.r.idx))
                .map(|&(_, m1)| m1)
                .filter(|m1| c.members.contains(&a.sends[m1].sender))
                .collect();
            for m1 in gaps {
                v.push(Violation {
                    spec: "6.3",
                    detail: format!(
                        "P{pid} delivers {m2} in {c2} but skipped {m1} (ordered earlier) whose sender {} is a member of {c2}",
                        a.sends[&m1].sender
                    ),
                });
            }
        }
    }
    v
}

/// **Safe Delivery (Specs 7.1–7.2).**
///
/// * 7.1 — a safe message delivered anywhere in configuration `c` is
///   delivered by every member of `c` (in a configuration sharing `c`'s
///   regular configuration) unless that member fails there.
/// * 7.2 — a safe message delivered in a *regular* configuration implies
///   every member installed that configuration.
pub fn check_spec7(a: &Analysis<'_>) -> Vec<Violation> {
    let mut v = Vec::new();
    for (m, _, delivs) in a.messages() {
        for d in delivs.iter().filter(|d| d.service == Service::Safe) {
            let Some(cfg) = a.configs.get(&d.config) else {
                continue;
            };
            // --- 7.1
            for &q in &cfg.members {
                if !a.delivered_in_com(delivs, q.as_usize(), d.config)
                    && !a.failed_in_com(q, d.config)
                {
                    v.push(Violation {
                        spec: "7.1",
                        detail: format!(
                            "safe {m} delivered by P{} in {} but member {q} neither delivers it nor fails there",
                            d.r.pid, d.config
                        ),
                    });
                }
            }
            // --- 7.2
            if d.config.is_regular() {
                let installs = a.conf_delivs.get(&d.config).map_or(&[][..], |l| l);
                for &q in &cfg.members {
                    if !installs.iter().any(|r| r.pid == q.as_usize()) {
                        v.push(Violation {
                            spec: "7.2",
                            detail: format!(
                                "safe {m} delivered in regular {} but member {q} never installed it",
                                d.config
                            ),
                        });
                    }
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Analysis;
    use crate::{Configuration, Trace};
    use evs_sim::{ProcessId, SimTime};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn t(n: u64) -> SimTime {
        SimTime::from_ticks(n)
    }

    fn rcfg(epoch: u64, members: &[u32]) -> Configuration {
        Configuration::new(
            ConfigId::regular(epoch, p(members[0])),
            members.iter().map(|&i| p(i)).collect(),
        )
    }

    fn tcfg(epoch: u64, members: &[u32]) -> Configuration {
        Configuration::new(
            ConfigId::transitional(epoch, p(members[0])),
            members.iter().map(|&i| p(i)).collect(),
        )
    }

    fn send(s: u32, n: u64, c: &Configuration, sv: Service) -> EvsEvent {
        EvsEvent::Send {
            id: MessageId::new(p(s), n),
            config: c.id,
            service: sv,
        }
    }

    fn deliver(s: u32, n: u64, c: &Configuration, sv: Service, seq: u64) -> EvsEvent {
        EvsEvent::Deliver {
            id: MessageId::new(p(s), n),
            config: c.id,
            service: sv,
            seq,
        }
    }

    /// The §3.1 shape: a safe message delivered by P0 in the regular
    /// configuration and by P1 in *its own* transitional configuration is
    /// accepted by Spec 7.1 (com-compatibility across different
    /// transitional configurations of the same regular configuration).
    #[test]
    fn spec7_accepts_delivery_in_own_transitional() {
        let r = rcfg(1, &[0, 1]);
        let tr0 = tcfg(2, &[0]); // P0's transitional after r
        let tr1 = tcfg(2, &[1]); // P1's transitional after r
        let r0 = rcfg(2, &[0]);
        let r1 = rcfg(3, &[1]);
        let trace = Trace::new(vec![
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(1), send(0, 1, &r, Service::Safe)),
                (t(2), deliver(0, 1, &r, Service::Safe, 1)),
                (t(3), EvsEvent::DeliverConf(tr0)),
                (t(4), EvsEvent::DeliverConf(r0)),
            ],
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(3), EvsEvent::DeliverConf(tr1.clone())),
                // delivered in P1's transitional: still satisfies 7.1
                (t(4), deliver(0, 1, &tr1, Service::Safe, 1)),
                (t(5), EvsEvent::DeliverConf(r1)),
            ],
        ]);
        let a = Analysis::build(&trace);
        assert!(check_spec7(&a).is_empty());
        assert!(check_spec1(&a).is_empty());
        assert!(check_spec3(&a).is_empty());
    }

    /// Spec 7.1 exempts a member that fails in a com-compatible
    /// configuration — even if it later recovers elsewhere.
    #[test]
    fn spec7_exempts_failed_member_even_after_recovery() {
        let r = rcfg(1, &[0, 1]);
        let r0 = rcfg(2, &[0]);
        let tr0 = tcfg(2, &[0]);
        let solo1 = rcfg(3, &[1]);
        let trace = Trace::new(vec![
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(1), send(0, 1, &r, Service::Safe)),
                (t(2), deliver(0, 1, &r, Service::Safe, 1)),
                (t(3), EvsEvent::DeliverConf(tr0)),
                (t(4), EvsEvent::DeliverConf(r0)),
            ],
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(1), EvsEvent::Fail { config: r.id }),
                // recovers later as a singleton
                (t(9), EvsEvent::DeliverConf(solo1)),
            ],
        ]);
        let a = Analysis::build(&trace);
        assert!(check_spec7(&a).is_empty(), "{:?}", check_spec7(&a));
    }

    /// Spec 3 treats delivery in the process's own transitional
    /// configuration as self-delivery.
    #[test]
    fn spec3_accepts_transitional_self_delivery() {
        let r = rcfg(1, &[0, 1]);
        let tr0 = tcfg(2, &[0]);
        let r0 = rcfg(2, &[0]);
        let trace = Trace::new(vec![
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(1), send(0, 1, &r, Service::Agreed)),
                (t(2), EvsEvent::DeliverConf(tr0.clone())),
                (t(3), deliver(0, 1, &tr0, Service::Agreed, 1)),
                (t(4), EvsEvent::DeliverConf(r0)),
            ],
            vec![(t(0), EvsEvent::DeliverConf(r.clone()))],
        ]);
        let a = Analysis::build(&trace);
        assert!(check_spec3(&a).is_empty());
    }

    /// Spec 3 exempts a sender whose trace simply ends while still in the
    /// sending configuration (the run was cut short, no obligation yet).
    #[test]
    fn spec3_vacuous_when_still_in_configuration() {
        let r = rcfg(1, &[0]);
        let trace = Trace::new(vec![vec![
            (t(0), EvsEvent::DeliverConf(r.clone())),
            (t(1), send(0, 1, &r, Service::Agreed)),
        ]]);
        let a = Analysis::build(&trace);
        assert!(check_spec3(&a).is_empty());
    }

    /// Spec 4 does not relate processes that moved to different next
    /// configurations.
    #[test]
    fn spec4_ignores_diverging_transitions() {
        let r = rcfg(1, &[0, 1]);
        let t0 = tcfg(2, &[0]);
        let t1 = tcfg(2, &[1]);
        let trace = Trace::new(vec![
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(1), send(0, 1, &r, Service::Agreed)),
                (t(2), deliver(0, 1, &r, Service::Agreed, 1)),
                (t(3), EvsEvent::DeliverConf(t0)),
            ],
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                // P1 delivered nothing in r, but its next config differs.
                (t(3), EvsEvent::DeliverConf(t1)),
            ],
        ]);
        let a = Analysis::build(&trace);
        assert!(check_spec4(&a).is_empty());
    }

    /// Spec 6.3 does not fire when the skipped message's sender is outside
    /// the delivering process's configuration (the transitional exemption).
    #[test]
    fn spec6_gap_allowed_for_outside_sender() {
        let r = rcfg(1, &[0, 1, 2]);
        // P1's transitional excludes P0 (the sender of the skipped m).
        let tr1 = tcfg(2, &[1, 2]);
        let r12 = rcfg(2, &[1, 2]);
        let trace = Trace::new(vec![
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(1), send(0, 1, &r, Service::Agreed)),
                (t(2), deliver(0, 1, &r, Service::Agreed, 1)),
                (t(3), send(0, 2, &r, Service::Agreed)),
                (t(4), deliver(0, 2, &r, Service::Agreed, 2)),
            ],
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(5), EvsEvent::DeliverConf(tr1.clone())),
                // skips m (seq 1) but delivers m' (seq 2): allowed only if
                // the sender of m is not in tr1 — which is the case...
                (t(6), deliver(2, 9, &tr1, Service::Agreed, 3)),
                (t(7), EvsEvent::DeliverConf(r12.clone())),
            ],
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(1), send(2, 9, &r, Service::Agreed)),
                (t(5), EvsEvent::DeliverConf(tr1.clone())),
                // Same logical position as P1's delivery (after the tr1
                // configuration change everywhere — Spec 6.2).
                (t(6), deliver(2, 9, &tr1, Service::Agreed, 3)),
                (t(7), EvsEvent::DeliverConf(r12)),
            ],
        ]);
        let a = Analysis::build(&trace);
        // P1 and P2 delivered P2's message (seq 3) in tr1 while skipping
        // P0's messages 1 and 2 — permitted by 6.3 because the skipped
        // messages' sender P0 is not a member of tr1.
        let v = check_spec6(&a);
        assert!(v.is_empty(), "{v:?}");
    }

    /// Spec 2.2 catches a message delivered after a failure with no
    /// recovery configuration in between.
    #[test]
    fn spec2_rejects_activity_after_fail_without_recovery() {
        let r = rcfg(1, &[0]);
        let trace = Trace::new(vec![vec![
            (t(0), EvsEvent::DeliverConf(r.clone())),
            (t(1), EvsEvent::Fail { config: r.id }),
            (t(2), send(0, 1, &r, Service::Agreed)),
        ]]);
        let a = Analysis::build(&trace);
        let v = check_spec2(&a);
        assert!(v.iter().any(|x| x.spec == "2.2"), "{v:?}");
    }

    /// Spec 2.1 exempts processes whose final configuration segment ends in
    /// a failure.
    #[test]
    fn spec2_quiescence_exempts_failed_processes() {
        let r = rcfg(1, &[0, 1]);
        let trace = Trace::new(vec![
            vec![(t(0), EvsEvent::DeliverConf(r.clone()))],
            vec![
                (t(0), EvsEvent::DeliverConf(r.clone())),
                (t(1), EvsEvent::Fail { config: r.id }),
            ],
        ]);
        let a = Analysis::build(&trace);
        // P0 ends in r; P1 is a member but failed there: 2.1's conclusion
        // is excused for P1... the spec as stated asserts q does not fail,
        // so a strict reading flags it; our checker follows the paper's
        // prose ("if the process fails, then the other processes will
        // detect the failure and install a new configuration") evaluated
        // at quiescence — P0 still sitting in r with a failed member is a
        // genuine violation of quiescent convergence.
        let v = check_spec2(&a);
        assert!(v.iter().any(|x| x.spec == "2.1"), "{v:?}");
    }

    /// The identity registry rejects one ConfigId bound to two
    /// memberships.
    #[test]
    fn registry_rejects_membership_disagreement() {
        let a1 = rcfg(1, &[0, 1]);
        let mut a2 = rcfg(1, &[0, 1]);
        a2.members = vec![p(0)];
        let trace = Trace::new(vec![
            vec![(t(0), EvsEvent::DeliverConf(a1))],
            vec![(t(0), EvsEvent::DeliverConf(a2))],
        ]);
        let result = crate::checker::check_all(&trace);
        let violations = result.unwrap_err();
        assert!(violations.iter().any(|v| v.spec == "identity"));
    }
}
