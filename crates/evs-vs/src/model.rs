//! Birman's virtual synchrony model (§4 of the paper) and its checker.
//!
//! The paper restates the Isis model: a history is *complete* (C1–C3) and
//! *legal* (L1–L5). §5.1 proves that runs filtered from an
//! extended-virtual-synchrony system are acceptable — this module makes
//! that proof machine-checkable by verifying the properties on concrete
//! filtered runs ([`VsRun`](crate::VsRun)):
//!
//! * **C1** — histories are causally closed: every delivered message was
//!   sent, and the send precedes the delivery.
//! * **C2** — every send is matched by a delivery (after the *extend*
//!   mechanism, which imputes deliveries lost to a failure; the checker
//!   exempts senders that stop).
//! * **C3** — a multicast delivered by one member of view `g^x` is
//!   delivered by all members (again with the extend exemption for
//!   processes that stop).
//! * **L1/L2** — a global `time` function consistent with causality exists
//!   and distinct events of one process have distinct times: checked as
//!   acyclicity of the merged event graph.
//! * **L3** — view events for the same view share one logical time:
//!   encoded by merging them in that graph.
//! * **L4** — all deliveries of a message occur in the same view.
//! * **L5** — deliveries of an `abcast` message share one logical time:
//!   encoded by merging them (agreed and safe messages are abcast here;
//!   causal messages are cbcast and exempt).

use crate::VsRun;
use core::fmt;
use evs_order::{MessageId, Service};
use evs_sim::ProcessId;
use std::collections::HashMap;

/// A process identity in the virtual synchrony model: the underlying
/// process plus an incarnation number (a resumed process re-enters the
/// primary component as a "new" process, §4.1/§5 Rule 4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VsProcId {
    /// Underlying transport identity.
    pub pid: ProcessId,
    /// How many times this process has re-entered the primary component
    /// after an absence.
    pub incarnation: u32,
}

impl fmt::Debug for VsProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.pid, self.incarnation)
    }
}

impl fmt::Display for VsProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a view instance `g^x`: the primary configuration it stems
/// from plus the split step (§5 Rule 3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VsViewId {
    /// The primary configuration this view derives from.
    pub base: evs_membership::ConfigId,
    /// Split step within that configuration change (Rule 3 merges one
    /// process per step).
    pub step: u32,
}

impl fmt::Display for VsViewId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.base, self.step)
    }
}

/// A view: instance identifier plus membership.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VsView {
    /// Instance identifier.
    pub id: VsViewId,
    /// Members, sorted by process id.
    pub members: Vec<VsProcId>,
}

/// One event of a virtual-synchrony history.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VsEvent {
    /// `view_i(g^x)`: the process installs a view.
    View(VsView),
    /// `cbcast`/`abcast`: the process multicasts a message.
    Send {
        /// Message identity.
        id: MessageId,
        /// `Causal` = cbcast; `Agreed`/`Safe` = abcast.
        service: Service,
    },
    /// The process delivers a message in a view.
    Deliver {
        /// Message identity.
        id: MessageId,
        /// cbcast/abcast discriminator, as on the send.
        service: Service,
        /// The view the delivery occurs in.
        view: VsViewId,
    },
    /// The distinguished final event of a failed process.
    Stop {
        /// The VS identity that stopped.
        who: VsProcId,
    },
}

/// A violation of the virtual synchrony model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VsViolation {
    /// Which property failed (`"C1"`..`"C3"`, `"L1/L2/L3/L5"`, `"L4"`).
    pub property: &'static str,
    /// Description.
    pub detail: String,
}

impl fmt::Display for VsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.property, self.detail)
    }
}

/// Checks that a filtered run is an acceptable virtual-synchrony execution
/// (complete after extension, and legal).
///
/// # Errors
///
/// Returns all property violations found.
pub fn check_vs(run: &VsRun) -> Result<(), Vec<VsViolation>> {
    let mut v = Vec::new();

    // Index sends, deliveries, stops.
    let mut send_at: HashMap<MessageId, (usize, usize)> = HashMap::new();
    let mut delivs: HashMap<MessageId, Vec<(usize, usize, VsViewId)>> = HashMap::new();
    let mut stopped: Vec<bool> = vec![false; run.events.len()];
    let mut views_by_id: HashMap<VsViewId, &VsView> = HashMap::new();
    for (pid, log) in run.events.iter().enumerate() {
        for (idx, ev) in log.iter().enumerate() {
            match ev {
                VsEvent::Send { id, .. } => {
                    send_at.entry(*id).or_insert((pid, idx));
                }
                VsEvent::Deliver { id, view, .. } => {
                    delivs.entry(*id).or_default().push((pid, idx, *view));
                }
                VsEvent::Stop { .. } => stopped[pid] = true,
                VsEvent::View(view) => {
                    if let Some(prev) = views_by_id.get(&view.id) {
                        if **prev != *view {
                            v.push(VsViolation {
                                property: "L3",
                                detail: format!(
                                    "view {} installed with different memberships",
                                    view.id
                                ),
                            });
                        }
                    } else {
                        views_by_id.insert(view.id, view);
                    }
                }
            }
        }
    }

    // --- C1: every delivery has a send; send precedes delivery. Precedence
    // across processes is established through the graph below; here we
    // check existence and local order for self-deliveries.
    for (m, ds) in &delivs {
        match send_at.get(m) {
            None => v.push(VsViolation {
                property: "C1",
                detail: format!("{m} delivered but never sent in the VS run"),
            }),
            Some(&(spid, sidx)) => {
                for &(dpid, didx, _) in ds {
                    if dpid == spid && didx < sidx {
                        v.push(VsViolation {
                            property: "C1",
                            detail: format!("{m} delivered before its send at P{spid}"),
                        });
                    }
                }
            }
        }
    }

    // --- C2: every send matched by a delivery, unless the sender stopped
    // (the extend mechanism imputes the lost delivery).
    for (m, &(spid, _)) in &send_at {
        if !delivs.contains_key(m) && !stopped[spid] {
            v.push(VsViolation {
                property: "C2",
                detail: format!(
                    "{m} sent by P{spid} but never delivered, and P{spid} did not stop"
                ),
            });
        }
    }

    // --- L4: all deliveries of a message occur in the same view.
    for (m, ds) in &delivs {
        let first = ds[0].2;
        if ds.iter().any(|&(_, _, view)| view != first) {
            let views: Vec<String> = ds.iter().map(|d| d.2.to_string()).collect();
            v.push(VsViolation {
                property: "L4",
                detail: format!("{m} delivered in different views: {views:?}"),
            });
        }
    }

    // --- C3: delivered by one member of g^x => delivered by all members,
    // unless a member stopped (extend). Per §5.1 of the paper, the extend
    // mechanism is "appropriately revised to exclude from the history
    // messages sent by failed processes that were not delivered by one or
    // more processes that do not fail": a failed sender's message that only
    // ever reached other failed processes is dropped from the history
    // rather than imputed.
    for (m, ds) in &delivs {
        let excluded = send_at.get(m).is_some_and(|&(spid, _)| {
            stopped[spid] && ds.iter().all(|&(dpid, _, _)| stopped[dpid])
        });
        if excluded {
            continue;
        }
        let view_id = ds[0].2;
        let Some(view) = views_by_id.get(&view_id) else {
            continue;
        };
        for member in &view.members {
            let pid = member.pid.as_usize();
            let delivered = ds.iter().any(|&(dpid, _, _)| dpid == pid);
            if !delivered && !stopped[pid] {
                v.push(VsViolation {
                    property: "C3",
                    detail: format!(
                        "{m} delivered in view {view_id} but member {member} neither delivers nor stops"
                    ),
                });
            }
        }
    }

    // --- L1/L2/L3/L5 feasibility: merge view events per view id and
    // abcast deliveries per message; require acyclicity of process-order +
    // send→deliver edges over the quotient.
    let mut class: HashMap<(usize, usize), usize> = HashMap::new();
    let mut next_class = 0usize;
    let mut view_class: HashMap<VsViewId, usize> = HashMap::new();
    let mut abcast_class: HashMap<MessageId, usize> = HashMap::new();
    for (pid, log) in run.events.iter().enumerate() {
        for (idx, ev) in log.iter().enumerate() {
            let c = match ev {
                VsEvent::View(view) => *view_class.entry(view.id).or_insert_with(|| {
                    next_class += 1;
                    next_class - 1
                }),
                VsEvent::Deliver {
                    id,
                    service: Service::Agreed | Service::Safe,
                    ..
                } => *abcast_class.entry(*id).or_insert_with(|| {
                    next_class += 1;
                    next_class - 1
                }),
                _ => {
                    next_class += 1;
                    next_class - 1
                }
            };
            class.insert((pid, idx), c);
        }
    }
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); next_class];
    for (pid, log) in run.events.iter().enumerate() {
        for idx in 1..log.len() {
            let (a, b) = (class[&(pid, idx - 1)], class[&(pid, idx)]);
            if a != b {
                adj[a].push(b);
            }
        }
    }
    for (m, ds) in &delivs {
        if let Some(&(spid, sidx)) = send_at.get(m) {
            for &(dpid, didx, _) in ds {
                let (a, b) = (class[&(spid, sidx)], class[&(dpid, didx)]);
                if a != b {
                    adj[a].push(b);
                }
            }
        }
    }
    if !is_acyclic(&adj) {
        v.push(VsViolation {
            property: "L1/L2/L3/L5",
            detail: "no legal time assignment exists (merged event graph is cyclic)".to_string(),
        });
    }

    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

fn is_acyclic(adj: &[Vec<usize>]) -> bool {
    let n = adj.len();
    let mut indeg = vec![0usize; n];
    for out in adj {
        for &b in out {
            indeg[b] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(c) = queue.pop() {
        seen += 1;
        for &d in &adj[c] {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                queue.push(d);
            }
        }
    }
    seen == n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn vp(i: u32) -> VsProcId {
        VsProcId {
            pid: p(i),
            incarnation: 0,
        }
    }

    fn view(epoch: u64, step: u32, members: &[u32]) -> VsView {
        VsView {
            id: VsViewId {
                base: evs_membership::ConfigId::regular(epoch, p(members[0])),
                step,
            },
            members: members.iter().map(|&i| vp(i)).collect(),
        }
    }

    fn mid(i: u32, n: u64) -> MessageId {
        MessageId::new(p(i), n)
    }

    fn send(i: u32, n: u64) -> VsEvent {
        VsEvent::Send {
            id: mid(i, n),
            service: Service::Agreed,
        }
    }

    fn deliver(i: u32, n: u64, v: &VsView) -> VsEvent {
        VsEvent::Deliver {
            id: mid(i, n),
            service: Service::Agreed,
            view: v.id,
        }
    }

    #[test]
    fn clean_run_is_acceptable() {
        let v1 = view(1, 0, &[0, 1]);
        let run = VsRun {
            events: vec![
                vec![VsEvent::View(v1.clone()), send(0, 1), deliver(0, 1, &v1)],
                vec![VsEvent::View(v1.clone()), deliver(0, 1, &v1)],
            ],
            views: vec![v1],
        };
        check_vs(&run).unwrap();
    }

    #[test]
    fn missing_send_violates_c1() {
        let v1 = view(1, 0, &[0]);
        let run = VsRun {
            events: vec![vec![VsEvent::View(v1.clone()), deliver(9, 1, &v1)]],
            views: vec![v1],
        };
        let errs = check_vs(&run).unwrap_err();
        assert!(errs.iter().any(|e| e.property == "C1"), "{errs:?}");
    }

    #[test]
    fn undelivered_send_violates_c2_unless_stopped() {
        let v1 = view(1, 0, &[0]);
        let bad = VsRun {
            events: vec![vec![VsEvent::View(v1.clone()), send(0, 1)]],
            views: vec![v1.clone()],
        };
        let errs = check_vs(&bad).unwrap_err();
        assert!(errs.iter().any(|e| e.property == "C2"), "{errs:?}");

        let stopped = VsRun {
            events: vec![vec![
                VsEvent::View(v1.clone()),
                send(0, 1),
                VsEvent::Stop { who: vp(0) },
            ]],
            views: vec![v1],
        };
        check_vs(&stopped).unwrap();
    }

    #[test]
    fn partial_delivery_violates_c3() {
        let v1 = view(1, 0, &[0, 1]);
        let run = VsRun {
            events: vec![
                vec![VsEvent::View(v1.clone()), send(0, 1), deliver(0, 1, &v1)],
                vec![VsEvent::View(v1.clone())], // never delivers, never stops
            ],
            views: vec![v1],
        };
        let errs = check_vs(&run).unwrap_err();
        assert!(errs.iter().any(|e| e.property == "C3"), "{errs:?}");
    }

    #[test]
    fn cross_view_delivery_violates_l4() {
        let v1 = view(1, 0, &[0, 1]);
        let v2 = view(2, 0, &[0, 1]);
        let run = VsRun {
            events: vec![
                vec![
                    VsEvent::View(v1.clone()),
                    send(0, 1),
                    deliver(0, 1, &v1),
                    VsEvent::View(v2.clone()),
                ],
                vec![
                    VsEvent::View(v1.clone()),
                    VsEvent::View(v2.clone()),
                    deliver(0, 1, &v2),
                ],
            ],
            views: vec![v1, v2],
        };
        let errs = check_vs(&run).unwrap_err();
        assert!(errs.iter().any(|e| e.property == "L4"), "{errs:?}");
    }

    #[test]
    fn contradictory_abcast_orders_violate_legality() {
        let v1 = view(1, 0, &[0, 1]);
        let run = VsRun {
            events: vec![
                vec![
                    VsEvent::View(v1.clone()),
                    send(0, 1),
                    send(0, 2),
                    deliver(0, 1, &v1),
                    deliver(0, 2, &v1),
                ],
                vec![
                    VsEvent::View(v1.clone()),
                    deliver(0, 2, &v1),
                    deliver(0, 1, &v1),
                ],
            ],
            views: vec![v1],
        };
        let errs = check_vs(&run).unwrap_err();
        assert!(errs.iter().any(|e| e.property == "L1/L2/L3/L5"), "{errs:?}");
    }
}
