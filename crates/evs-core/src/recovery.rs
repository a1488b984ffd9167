//! The recovery algorithm of §3 of the paper (Steps 3–6), as pure logic.
//!
//! The stateful EVS engine (`engine` module) drives the message exchange;
//! the functions here capture the *decisions*: which processes form the
//! transitional configuration, which messages must be rebroadcast, and —
//! Step 6 — exactly what is delivered, in which configuration, and what is
//! discarded. Keeping them pure makes the trickiest part of the paper
//! directly unit-testable.

use crate::Configuration;
use evs_membership::{ConfigId, ProposedConfig};
use evs_order::{OrderedMsg, RingSnapshot, Service};
use evs_sim::ProcessId;
use std::collections::{BTreeMap, BTreeSet};

/// Step 3 of the recovery algorithm: the state each process of the proposed
/// new configuration shares with the others.
///
/// "Each process supplies the identifier of its last regular configuration,
/// the identifier of the last safe message it delivered, and its obligation
/// set" — plus, operationally, its receipt state so Step 4.b can compute
/// which messages to rebroadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExchangeState {
    /// The proposed configuration this exchange belongs to.
    pub proposal: ConfigId,
    /// Who is reporting.
    pub sender: ProcessId,
    /// The sender's last regular configuration.
    pub last_regular: ConfigId,
    /// The sender's store floor: it received every ordinal `1..=floor` of
    /// `last_regular`, and so did every other member of that configuration
    /// (the floor never passes the safe line), so nothing at or below it
    /// is listed, rebroadcast or delivered by this recovery.
    pub floor: u64,
    /// Ordinals above `floor` (in `last_regular`'s total order) the sender
    /// has received.
    pub received: BTreeSet<u64>,
    /// Highest ordinal the sender knows to exist in `last_regular`.
    pub high_seen: u64,
    /// Highest ordinal the sender knows was received by every member of
    /// `last_regular` (its safe line; subsumes "the last safe message it
    /// delivered").
    pub safe_line: u64,
    /// The sender's obligation set (§3 Step 1: processes whose messages it
    /// has acknowledged in a way that may have enabled safe delivery
    /// elsewhere).
    pub obligations: BTreeSet<ProcessId>,
}

impl ExchangeState {
    /// Builds the exchange report for `me` from its frozen ring state.
    pub fn from_snapshot<P>(
        proposal: ConfigId,
        me: ProcessId,
        old: &RingSnapshot<P>,
        obligations: &BTreeSet<ProcessId>,
    ) -> Self {
        ExchangeState {
            proposal,
            sender: me,
            last_regular: old.config,
            floor: old.floor,
            received: old.store.keys().copied().collect(),
            high_seen: old.high_seen,
            safe_line: old.safe_line,
            obligations: obligations.clone(),
        }
    }

    /// Does the sender hold ordinal `seq` of its last regular
    /// configuration?
    pub fn holds(&self, seq: u64) -> bool {
        seq <= self.floor || self.received.contains(&seq)
    }
}

/// Step 4.a: the members of the proposed transitional configuration of a
/// process — "the members of the new regular configuration whose previous
/// regular configuration is the same as the previous regular configuration
/// of this process".
///
/// Only processes that have actually reported (via [`ExchangeState`]) can be
/// classified; the caller invokes this once reports from all proposal
/// members are in.
pub fn transitional_members(
    my_last_regular: ConfigId,
    exchanges: &BTreeMap<ProcessId, ExchangeState>,
) -> Vec<ProcessId> {
    exchanges
        .values()
        .filter(|e| e.last_regular == my_last_regular)
        .map(|e| e.sender)
        .collect()
}

/// The identifier of the transitional configuration formed by `members`
/// moving into proposal `proposal`: epoch of the proposal, representative =
/// smallest transitional member. Transitional configurations merging into
/// the same regular configuration have disjoint memberships, so their
/// representatives — and hence identifiers — differ.
pub fn transitional_id(proposal: ConfigId, members: &[ProcessId]) -> ConfigId {
    ConfigId::transitional(
        proposal.epoch,
        members.iter().copied().min().expect("non-empty"),
    )
}

/// Step 4.b: which ordinals this process should rebroadcast, because some
/// member of its transitional configuration has not received them.
/// `i_hold` answers for this process's *current* store, which grows by
/// rebroadcast receipts after its own report was frozen.
///
/// To avoid redundant traffic, responsibility is divided deterministically:
/// the lowest-id transitional member holding a message rebroadcasts it.
/// (Under message loss the exchange round repeats, so any residual gap
/// heals on a later pass.)
pub fn rebroadcast_set(
    me: ProcessId,
    trans: &[ProcessId],
    exchanges: &BTreeMap<ProcessId, ExchangeState>,
    i_hold: impl Fn(u64) -> bool,
) -> Vec<u64> {
    let reports = || trans.iter().filter_map(|q| exchanges.get(q));
    needed_set(trans, exchanges)
        .into_iter()
        .filter(|&s| {
            // Someone in the transitional configuration lacks it...
            reports().any(|e| !e.holds(s))
            // ...and we are the lowest-id holder.
                && i_hold(s)
                && reports().all(|e| e.sender >= me || !e.holds(s))
        })
        .collect()
}

/// The union of the ordinals the members of the transitional configuration
/// list as received — with what lies at or below the process's own floor,
/// what every member must hold before acknowledging (Step 5.b).
pub fn needed_set(
    trans: &[ProcessId],
    exchanges: &BTreeMap<ProcessId, ExchangeState>,
) -> BTreeSet<u64> {
    let mut needed = BTreeSet::new();
    for q in trans {
        if let Some(e) = exchanges.get(q) {
            needed.extend(e.received.iter().copied());
        }
    }
    needed
}

/// Step 5.c: the obligation set after acknowledging — the previous
/// obligations plus the transitional members and *their* exchanged
/// obligation sets. All transitional members compute the same value, which
/// is what makes the Step 6 discard decision symmetric.
pub fn extended_obligations(
    current: &BTreeSet<ProcessId>,
    trans: &[ProcessId],
    exchanges: &BTreeMap<ProcessId, ExchangeState>,
) -> BTreeSet<ProcessId> {
    // The `chaos-mutation` feature injects a deliberate protocol bug for
    // the evs-chaos self-test: skipping this union leaves transitional
    // members out of the obligation set, so Step 6.a discards messages it
    // must retain (breaking self-delivery, Spec 3, among others).
    if cfg!(feature = "chaos-mutation") {
        return current.clone();
    }
    let mut obl = current.clone();
    for q in trans {
        obl.insert(*q);
        if let Some(e) = exchanges.get(q) {
            obl.extend(e.obligations.iter().copied());
        }
    }
    obl
}

/// The outcome of Step 6, computed atomically: everything the process
/// delivers to finish the old configuration and install the new one.
#[derive(Clone, Debug)]
pub struct RecoveryPlan<P> {
    /// Step 6.b — messages delivered *in the old regular configuration*
    /// (they satisfied that configuration's causal/safe requirements).
    pub regular_deliveries: Vec<OrderedMsg<P>>,
    /// Step 6.c — the transitional configuration change.
    pub transitional: Configuration,
    /// Step 6.d — messages delivered in the transitional configuration.
    pub transitional_deliveries: Vec<OrderedMsg<P>>,
    /// Step 6.e — the new regular configuration change.
    pub new_regular: Configuration,
    /// Messages discarded by Step 6.a (for diagnostics/tests): ordinals
    /// that followed the first unavailable message and whose senders were
    /// not in the obligation set.
    pub discarded: Vec<u64>,
}

/// Executes Step 6 of the recovery algorithm as a pure computation.
///
/// * `old` is the frozen ring of the previous regular configuration, with
///   `old.store` already updated by the rebroadcast exchange (so it holds
///   the union of the transitional members' messages).
/// * `exchanges` holds the Step-3 reports from all members of `proposal`.
/// * `obligations` is the (already extended, Step 5.c) obligation set.
///
/// # Panics
///
/// Panics if called before this process's own exchange report is present,
/// or if internal invariants are violated (delivery point past the limit,
/// which would indicate a protocol bug upstream).
pub fn compute_plan<P: Clone>(
    me: ProcessId,
    old: &RingSnapshot<P>,
    proposal: &ProposedConfig,
    exchanges: &BTreeMap<ProcessId, ExchangeState>,
    obligations: &BTreeSet<ProcessId>,
) -> RecoveryPlan<P> {
    assert!(
        exchanges.get(&me).is_some(),
        "own exchange report must be present"
    );
    let trans = transitional_members(old.config, exchanges);
    assert!(
        trans.contains(&me),
        "process must be in its own transitional configuration"
    );

    // Knowledge about the old regular configuration, pooled over the
    // transitional members (symmetric: computed from the same exchanges).
    let r_high = trans
        .iter()
        .filter_map(|q| exchanges.get(q))
        .map(|e| e.high_seen)
        .max()
        .unwrap_or(0);
    let r_safe_line = trans
        .iter()
        .filter_map(|q| exchanges.get(q))
        .map(|e| e.safe_line)
        .max()
        .unwrap_or(0);

    // First ordinal no transitional member holds. Every member of the old
    // configuration holds everything up to anyone's floor, so the search
    // starts above ours and all members still find the same hole.
    let first_hole = ((old.floor + 1)..=r_high)
        .find(|s| !old.store.contains_key(s))
        .unwrap_or(r_high + 1);

    // First safe-service message not acknowledged by every member of the
    // old regular configuration.
    let first_unacked_safe = old
        .store
        .iter()
        .find(|(s, m)| m.service == Service::Safe && **s > r_safe_line)
        .map(|(s, _)| *s)
        .unwrap_or(u64::MAX);

    let limit = first_hole.min(first_unacked_safe);
    assert!(
        old.delivered_upto < limit,
        "delivered past the recovery limit: {} >= {} (protocol bug)",
        old.delivered_upto,
        limit
    );

    // Step 6.a: discard messages after the first hole whose senders are not
    // in the obligation set (they may causally depend on an unavailable
    // message). The obligation set includes all transitional members, so
    // self-delivery (Spec 3) survives this step.
    let mut discarded = Vec::new();
    let mut retained: BTreeMap<u64, &OrderedMsg<P>> = BTreeMap::new();
    for (&s, m) in &old.store {
        if s > first_hole && !obligations.contains(&m.id.sender) {
            discarded.push(s);
        } else {
            retained.insert(s, m);
        }
    }

    // Step 6.b: deliver, still in the old regular configuration, the
    // messages that satisfied its requirements. Steps 6.b and 6.d start
    // above `delivered_upto`, which the floor never passes.
    debug_assert!(old.floor <= old.delivered_upto, "floor past delivery");
    let regular_deliveries: Vec<OrderedMsg<P>> = ((old.delivered_upto + 1)..limit)
        .filter_map(|s| retained.get(&s).map(|m| (*m).clone()))
        .collect();
    debug_assert_eq!(
        regular_deliveries.len() as u64,
        limit - old.delivered_upto - 1,
        "the prefix below the limit must be fully available"
    );

    // Step 6.c: the transitional configuration.
    let transitional = Configuration::new(transitional_id(proposal.id, &trans), trans.clone());

    // Step 6.d: deliver the remaining retained messages, in order, in the
    // transitional configuration. (Retained messages past the first hole
    // all have obligated senders; the contiguous ones simply follow the
    // order.)
    let transitional_deliveries: Vec<OrderedMsg<P>> =
        retained.range(limit..).map(|(_, m)| (*m).clone()).collect();

    // Step 6.e: the new regular configuration.
    let new_regular = Configuration::from(proposal.clone());

    RecoveryPlan {
        regular_deliveries,
        transitional,
        transitional_deliveries,
        new_regular,
        discarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evs_order::MessageId;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn rcfg(epoch: u64, rep: u32) -> ConfigId {
        ConfigId::regular(epoch, p(rep))
    }

    fn msg(cfg: ConfigId, seq: u64, sender: u32, service: Service) -> OrderedMsg<&'static str> {
        OrderedMsg {
            config: cfg,
            seq,
            id: MessageId::new(p(sender), seq),
            service,
            payload: "x",
        }
    }

    fn snapshot(
        cfg: ConfigId,
        members: &[u32],
        seqs: &[(u64, u32, Service)],
        high: u64,
        safe_line: u64,
        delivered: u64,
    ) -> RingSnapshot<&'static str> {
        RingSnapshot {
            config: cfg,
            members: members.iter().map(|&i| p(i)).collect(),
            floor: 0,
            store: seqs
                .iter()
                .map(|&(s, sender, service)| (s, msg(cfg, s, sender, service)))
                .collect(),
            my_aru: 0,
            high_seen: high,
            safe_line,
            delivered_upto: delivered,
            pending: Vec::new(),
        }
    }

    fn exch(
        proposal: ConfigId,
        sender: u32,
        last_regular: ConfigId,
        received: &[u64],
        high: u64,
        safe_line: u64,
        obligations: &[u32],
    ) -> ExchangeState {
        ExchangeState {
            proposal,
            sender: p(sender),
            last_regular,
            floor: 0,
            received: received.iter().copied().collect(),
            high_seen: high,
            safe_line,
            obligations: obligations.iter().map(|&i| p(i)).collect(),
        }
    }

    #[test]
    fn transitional_membership_partitions_by_previous_config() {
        let old_a = rcfg(1, 0);
        let old_b = rcfg(1, 2);
        let prop = rcfg(2, 0);
        let mut ex = BTreeMap::new();
        ex.insert(p(0), exch(prop, 0, old_a, &[], 0, 0, &[]));
        ex.insert(p(1), exch(prop, 1, old_a, &[], 0, 0, &[]));
        ex.insert(p(2), exch(prop, 2, old_b, &[], 0, 0, &[]));
        assert_eq!(transitional_members(old_a, &ex), vec![p(0), p(1)]);
        assert_eq!(transitional_members(old_b, &ex), vec![p(2)]);
    }

    #[test]
    fn transitional_ids_for_disjoint_groups_differ() {
        let prop = rcfg(7, 0);
        let a = transitional_id(prop, &[p(0), p(1)]);
        let b = transitional_id(prop, &[p(2), p(3)]);
        assert_ne!(a, b);
        assert!(a.transitional && b.transitional);
        assert_eq!(a.epoch, 7);
    }

    #[test]
    fn rebroadcast_lowest_holder_wins() {
        let old = rcfg(1, 0);
        let prop = rcfg(2, 0);
        let mut ex = BTreeMap::new();
        // seq 1: held by 0 and 1, missing at 2 → P0 rebroadcasts.
        // seq 2: held by 1 only → P1 rebroadcasts.
        // seq 3: held by all → nobody rebroadcasts.
        ex.insert(p(0), exch(prop, 0, old, &[1, 3], 3, 0, &[]));
        ex.insert(p(1), exch(prop, 1, old, &[1, 2, 3], 3, 0, &[]));
        ex.insert(p(2), exch(prop, 2, old, &[3], 3, 0, &[]));
        let trans = vec![p(0), p(1), p(2)];
        let duties = |i: u32| rebroadcast_set(p(i), &trans, &ex, |s| ex[&p(i)].holds(s));
        let (r0, r1, r2) = (duties(0), duties(1), duties(2));
        assert_eq!(r0, vec![1]);
        assert_eq!(r1, vec![2]);
        assert!(r2.is_empty());
        assert_eq!(
            needed_set(&trans, &ex).into_iter().collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    /// Members that dropped different prefixes still agree on every
    /// decision: what lies at or below a floor is held, never listed.
    #[test]
    fn floors_stand_for_the_dropped_prefix() {
        let old_cfg = rcfg(1, 0);
        let prop = ProposedConfig::new(rcfg(2, 0), vec![p(0), p(1)]);
        // P0 dropped 1..=4, P1 only 1..=2 and it never received 6.
        let mut e0 = exch(prop.id, 0, old_cfg, &[5, 6], 6, 4, &[]);
        e0.floor = 4;
        let mut e1 = exch(prop.id, 1, old_cfg, &[3, 4, 5], 6, 4, &[]);
        e1.floor = 2;
        assert!(e0.holds(3) && e1.holds(3) && !e1.holds(6));
        let ex: BTreeMap<_, _> = [(p(0), e0), (p(1), e1)].into_iter().collect();
        let trans = vec![p(0), p(1)];
        assert_eq!(
            rebroadcast_set(p(0), &trans, &ex, |s| ex[&p(0)].holds(s)),
            vec![6],
            "3 and 4 are listed by P1 alone, yet P0 holds them below its floor"
        );
        assert!(rebroadcast_set(p(1), &trans, &ex, |s| ex[&p(1)].holds(s)).is_empty());

        // P0's plan after the exchange: it delivered 1..=5, holds 5 and 6.
        let mut old = snapshot(
            old_cfg,
            &[0, 1],
            &[(5, 0, Service::Agreed), (6, 1, Service::Safe)],
            6,
            4,
            5,
        );
        old.floor = 4;
        let obl = extended_obligations(&BTreeSet::new(), &trans, &ex);
        let plan = compute_plan(p(0), &old, &prop, &ex, &obl);
        assert!(
            plan.regular_deliveries.is_empty(),
            "5 was delivered already"
        );
        let seqs = |v: &[OrderedMsg<&str>]| v.iter().map(|m| m.seq).collect::<Vec<_>>();
        assert_eq!(seqs(&plan.transitional_deliveries), vec![6]);
        assert!(plan.discarded.is_empty());
    }

    #[test]
    fn obligations_extend_symmetrically() {
        let old = rcfg(1, 0);
        let prop = rcfg(2, 0);
        let mut ex = BTreeMap::new();
        ex.insert(p(0), exch(prop, 0, old, &[], 0, 0, &[7]));
        ex.insert(p(1), exch(prop, 1, old, &[], 0, 0, &[8]));
        let trans = vec![p(0), p(1)];
        let from_0 = extended_obligations(&[p(9)].into_iter().collect(), &trans, &ex);
        let expected: BTreeSet<ProcessId> = [p(0), p(1), p(7), p(8), p(9)].into_iter().collect();
        assert_eq!(from_0, expected);
    }

    /// The happy path: nothing missing, nothing unsafe — everything delivers
    /// in the old regular configuration.
    #[test]
    fn plan_clean_history_delivers_everything_in_regular() {
        let old_cfg = rcfg(1, 0);
        let prop = ProposedConfig::new(rcfg(2, 0), vec![p(0), p(1)]);
        let old = snapshot(
            old_cfg,
            &[0, 1],
            &[(1, 0, Service::Agreed), (2, 1, Service::Safe)],
            2,
            2,
            0,
        );
        let mut ex = BTreeMap::new();
        ex.insert(p(0), exch(prop.id, 0, old_cfg, &[1, 2], 2, 2, &[]));
        ex.insert(p(1), exch(prop.id, 1, old_cfg, &[1, 2], 2, 2, &[]));
        let obl = extended_obligations(&BTreeSet::new(), &[p(0), p(1)], &ex);
        let plan = compute_plan(p(0), &old, &prop, &ex, &obl);
        assert_eq!(
            plan.regular_deliveries
                .iter()
                .map(|m| m.seq)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(plan.transitional_deliveries.is_empty());
        assert!(plan.discarded.is_empty());
        assert_eq!(plan.transitional.members, vec![p(0), p(1)]);
        assert_eq!(plan.new_regular.members, vec![p(0), p(1)]);
        assert!(plan.transitional.id.transitional);
        assert!(plan.new_regular.id.is_regular());
    }

    /// §3.1's message n: safe message acked within the transitional group
    /// but not by the departed member — delivered in the transitional
    /// configuration, not the regular one.
    #[test]
    fn plan_unacked_safe_moves_to_transitional() {
        let old_cfg = rcfg(1, 0);
        // Old config {0,1,2}; 2 departs; proposal {0,1}.
        let prop = ProposedConfig::new(rcfg(2, 0), vec![p(0), p(1)]);
        let old = snapshot(
            old_cfg,
            &[0, 1, 2],
            &[(1, 0, Service::Agreed), (2, 1, Service::Safe)],
            2,
            1, // safe line does not cover seq 2
            0,
        );
        let mut ex = BTreeMap::new();
        ex.insert(p(0), exch(prop.id, 0, old_cfg, &[1, 2], 2, 1, &[]));
        ex.insert(p(1), exch(prop.id, 1, old_cfg, &[1, 2], 2, 1, &[]));
        let obl = extended_obligations(&BTreeSet::new(), &[p(0), p(1)], &ex);
        let plan = compute_plan(p(0), &old, &prop, &ex, &obl);
        assert_eq!(
            plan.regular_deliveries
                .iter()
                .map(|m| m.seq)
                .collect::<Vec<_>>(),
            vec![1],
            "only the agreed prefix delivers in the regular configuration"
        );
        assert_eq!(
            plan.transitional_deliveries
                .iter()
                .map(|m| m.seq)
                .collect::<Vec<_>>(),
            vec![2],
            "the safe message delivers in the transitional configuration"
        );
        assert!(plan.discarded.is_empty());
    }

    /// §3.1's messages l and m: a hole (l, never received) forces messages
    /// after it from non-obligated senders (the departed process) to be
    /// discarded, while obligated senders' messages survive.
    #[test]
    fn plan_discards_after_hole_except_obligated() {
        let old_cfg = rcfg(1, 0);
        let prop = ProposedConfig::new(rcfg(2, 0), vec![p(0), p(1)]);
        // seq 2 (message l from departed P2) was never received by anyone in
        // the transitional group; seq 3 (message m from P2) and seq 4 (from
        // P1, a transitional member) follow it.
        let old = snapshot(
            old_cfg,
            &[0, 1, 2],
            &[
                (1, 0, Service::Agreed),
                (3, 2, Service::Agreed),
                (4, 1, Service::Agreed),
            ],
            4,
            1,
            0,
        );
        let mut ex = BTreeMap::new();
        ex.insert(p(0), exch(prop.id, 0, old_cfg, &[1, 3, 4], 4, 1, &[]));
        ex.insert(p(1), exch(prop.id, 1, old_cfg, &[1, 3, 4], 4, 1, &[]));
        let obl = extended_obligations(&BTreeSet::new(), &[p(0), p(1)], &ex);
        let plan = compute_plan(p(0), &old, &prop, &ex, &obl);
        assert_eq!(
            plan.regular_deliveries
                .iter()
                .map(|m| m.seq)
                .collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(
            plan.discarded,
            vec![3],
            "P2's m is causally suspect: dropped"
        );
        assert_eq!(
            plan.transitional_deliveries
                .iter()
                .map(|m| m.seq)
                .collect::<Vec<_>>(),
            vec![4],
            "the transitional member's own message survives (self-delivery)"
        );
    }

    /// Symmetry: two transitional members compute identical plans from the
    /// same exchange data (Spec 4, failure atomicity).
    #[test]
    fn plan_is_symmetric_across_members() {
        let old_cfg = rcfg(1, 0);
        let prop = ProposedConfig::new(rcfg(2, 0), vec![p(0), p(1)]);
        let seqs = &[
            (1, 0, Service::Agreed),
            (2, 1, Service::Safe),
            (4, 0, Service::Agreed),
        ];
        // Different local delivery progress, same pooled store.
        let old0 = snapshot(old_cfg, &[0, 1, 2], seqs, 4, 1, 1);
        let old1 = snapshot(old_cfg, &[0, 1, 2], seqs, 4, 1, 0);
        let mut ex = BTreeMap::new();
        ex.insert(p(0), exch(prop.id, 0, old_cfg, &[1, 2, 4], 4, 1, &[]));
        ex.insert(p(1), exch(prop.id, 1, old_cfg, &[1, 2, 4], 4, 1, &[]));
        let obl = extended_obligations(&BTreeSet::new(), &[p(0), p(1)], &ex);
        let plan0 = compute_plan(p(0), &old0, &prop, &ex, &obl);
        let plan1 = compute_plan(p(1), &old1, &prop, &ex, &obl);
        // Regular deliveries differ only by what was already delivered.
        let all0: Vec<u64> = (1..=plan0.regular_deliveries.last().map_or(0, |m| m.seq)).collect();
        let _ = all0;
        let total0: Vec<u64> = (1..=old0.delivered_upto)
            .chain(plan0.regular_deliveries.iter().map(|m| m.seq))
            .collect();
        let total1: Vec<u64> = (1..=old1.delivered_upto)
            .chain(plan1.regular_deliveries.iter().map(|m| m.seq))
            .collect();
        assert_eq!(
            total0, total1,
            "same total set delivered in the regular config"
        );
        let t0: Vec<u64> = plan0
            .transitional_deliveries
            .iter()
            .map(|m| m.seq)
            .collect();
        let t1: Vec<u64> = plan1
            .transitional_deliveries
            .iter()
            .map(|m| m.seq)
            .collect();
        assert_eq!(t0, t1, "same set delivered in the transitional config");
        assert_eq!(plan0.transitional, plan1.transitional);
        assert_eq!(plan0.discarded, plan1.discarded);
    }

    /// A merge: processes from different previous configurations form
    /// separate transitional configurations into the same new regular one.
    #[test]
    fn plan_merge_separates_transitional_groups() {
        let old_a = rcfg(1, 0);
        let old_b = rcfg(1, 2);
        let prop = ProposedConfig::new(rcfg(2, 0), vec![p(0), p(1), p(2), p(3)]);
        let old = snapshot(old_a, &[0, 1], &[(1, 0, Service::Agreed)], 1, 1, 0);
        let mut ex = BTreeMap::new();
        ex.insert(p(0), exch(prop.id, 0, old_a, &[1], 1, 1, &[]));
        ex.insert(p(1), exch(prop.id, 1, old_a, &[1], 1, 1, &[]));
        ex.insert(p(2), exch(prop.id, 2, old_b, &[1, 2], 2, 2, &[]));
        ex.insert(p(3), exch(prop.id, 3, old_b, &[1, 2], 2, 2, &[]));
        let trans = transitional_members(old_a, &ex);
        assert_eq!(trans, vec![p(0), p(1)]);
        let obl = extended_obligations(&BTreeSet::new(), &trans, &ex);
        let plan = compute_plan(p(0), &old, &prop, &ex, &obl);
        assert_eq!(plan.transitional.members, vec![p(0), p(1)]);
        assert_eq!(plan.new_regular.members, vec![p(0), p(1), p(2), p(3)]);
        // The other group's ordinals (high_seen = 2 in old_b) do not leak
        // into this group's recovery.
        assert_eq!(
            plan.regular_deliveries
                .iter()
                .map(|m| m.seq)
                .collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn plan_empty_history() {
        let old_cfg = rcfg(0, 0);
        let prop = ProposedConfig::new(rcfg(1, 0), vec![p(0), p(1)]);
        let old = snapshot(old_cfg, &[0], &[], 0, 0, 0);
        let mut ex = BTreeMap::new();
        ex.insert(p(0), exch(prop.id, 0, old_cfg, &[], 0, 0, &[]));
        ex.insert(p(1), exch(prop.id, 1, rcfg(0, 1), &[], 0, 0, &[]));
        let obl = extended_obligations(&BTreeSet::new(), &[p(0)], &ex);
        let plan = compute_plan(p(0), &old, &prop, &ex, &obl);
        assert!(plan.regular_deliveries.is_empty());
        assert!(plan.transitional_deliveries.is_empty());
        assert_eq!(plan.transitional.members, vec![p(0)]);
    }

    #[test]
    #[should_panic(expected = "own exchange report")]
    fn plan_requires_own_exchange() {
        let old_cfg = rcfg(0, 0);
        let prop = ProposedConfig::new(rcfg(1, 0), vec![p(0)]);
        let old = snapshot(old_cfg, &[0], &[], 0, 0, 0);
        let ex = BTreeMap::new();
        compute_plan::<&str>(p(0), &old, &prop, &ex, &BTreeSet::new());
    }
}
