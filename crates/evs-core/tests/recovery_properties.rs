//! Property-based tests of the recovery planner (§3 Step 6): for random
//! old-configuration histories and exchange reports, the plan must be
//!
//! 1. **Symmetric** — all members of one transitional configuration compute
//!    the same transitional membership, the same delivery sets per
//!    configuration, and the same discards (this is what makes Spec 4 hold
//!    mechanically).
//! 2. **Order-preserving** — deliveries are in strictly increasing ordinal
//!    order, regular deliveries all precede the transitional limit.
//! 3. **Self-delivery-preserving** — no message from a transitional member
//!    is ever discarded (Spec 3).
//! 4. **Safe-respecting** — a safe message is delivered in the old regular
//!    configuration only if the pooled safe line covers it (Spec 7 within
//!    the old configuration).
//! 5. **Floor-blind** — members that dropped the prefix of their store at a
//!    floor (never past their safe line or what they delivered) decide
//!    exactly what they would have decided with the full history: same
//!    rebroadcast duties, same Step 5.b verdict, same plan.

use evs_core::recovery::{
    compute_plan, extended_obligations, needed_set, rebroadcast_set, transitional_members,
    ExchangeState,
};
use evs_membership::{ConfigId, ProposedConfig};
use evs_order::{MessageId, OrderedMsg, RingSnapshot, Service};
use evs_sim::ProcessId;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i as u32)
}

/// A randomly generated "old configuration" situation, as seen by the
/// surviving transitional group.
#[derive(Debug, Clone)]
struct Scenario {
    /// Number of processes in the old configuration.
    old_n: usize,
    /// Which of them survive into the proposal (at least one).
    survivors: Vec<usize>,
    /// For each ordinal 1..=high: (sender, service, known-to-survivors,
    /// which survivors held it before the rebroadcast exchange — a bit per
    /// survivor index, see [`Scenario::held`]).
    msgs: Vec<(usize, Service, bool, u8)>,
    /// Pooled safe line (≤ high).
    safe_line: u64,
    /// Per-survivor delivered_upto (≤ its contiguous known prefix; the
    /// planner requires delivered < limit which the generator respects by
    /// keeping deliveries below the safe line and first hole).
    delivered: Vec<u64>,
    /// Per-survivor store floor, ≤ min(safe_line, delivered_upto).
    floors: Vec<u64>,
}

impl Scenario {
    /// Did survivor `k` hold ordinal `seq` before the exchange? Everything
    /// it delivered and everything up to anyone's floor (the safe line
    /// bounds a floor, so every member received it); above that, what the
    /// generated mask says, with one fixed holder so that a message known
    /// to the group is held by somebody.
    fn held(&self, k: usize, seq: u64) -> bool {
        let (_, _, known, mask) = self.msgs[(seq - 1) as usize];
        let everyone = *self.floors.iter().max().expect("a survivor");
        known
            && (seq <= everyone.max(self.delivered[k])
                || mask >> k & 1 == 1
                || k == seq as usize % self.survivors.len())
    }
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (2usize..6, 1usize..20)
        .prop_flat_map(|(old_n, high)| {
            let survivors =
                proptest::collection::vec(any::<bool>(), old_n).prop_map(move |mut picks| {
                    if picks.iter().all(|p| !p) {
                        picks[0] = true; // at least one survivor
                    }
                    (0..old_n).filter(|&i| picks[i]).collect::<Vec<usize>>()
                });
            let msgs = proptest::collection::vec(
                (
                    0..old_n,
                    prop_oneof![
                        Just(Service::Causal),
                        Just(Service::Agreed),
                        Just(Service::Safe)
                    ],
                    // 85% of messages are known to the surviving group.
                    prop::bool::weighted(0.85),
                    any::<u8>(),
                ),
                high..=high,
            );
            let floor_picks = proptest::collection::vec(any::<u64>(), old_n);
            (Just(old_n), survivors, msgs, 0..=(high as u64), floor_picks)
        })
        .prop_map(|(old_n, survivors, msgs, safe_line, floor_picks)| {
            // Deliveries must stay below both the first hole and the first
            // unacked safe message; easiest sound choice: below the
            // contiguous known prefix AND the safe line AND the first
            // safe-but-unacked ordinal.
            let mut contiguous = 0u64;
            for (i, (_, _, known, _)) in msgs.iter().enumerate() {
                if *known && contiguous == i as u64 {
                    contiguous = i as u64 + 1;
                } else {
                    break;
                }
            }
            let mut max_delivered = 0u64;
            for s in 1..=contiguous {
                let (_, service, _, _) = msgs[(s - 1) as usize];
                if service == Service::Safe && s > safe_line {
                    break;
                }
                max_delivered = s;
            }
            // Spread the members' delivery progress across 0..=max so the
            // symmetry property is exercised on genuinely different local
            // states.
            let k = survivors.len() as u64;
            let delivered: Vec<u64> = (0..k).map(|i| max_delivered * i / k.max(1)).collect();
            let floors = delivered
                .iter()
                .zip(floor_picks)
                .map(|(d, pick)| pick % (d.min(&safe_line) + 1))
                .collect();
            Scenario {
                old_n,
                survivors,
                msgs,
                safe_line,
                delivered,
                floors,
            }
        })
}

/// Builds the frozen snapshot + exchange map for survivor `k`, every
/// member's store and report cut at its entry of `floors`. With `pooled`
/// the snapshot's store is what the member holds once the rebroadcast
/// exchange completed (the union of what survivors knew); without, what it
/// held when its report was frozen.
fn build(
    sc: &Scenario,
    k: usize, // index into survivors
    floors: &[u64],
    pooled: bool,
) -> (
    ProcessId,
    RingSnapshot<u64>,
    ProposedConfig,
    BTreeMap<ProcessId, ExchangeState>,
    BTreeSet<ProcessId>,
) {
    let old_cfg = ConfigId::regular(1, pid(0));
    let me = pid(sc.survivors[k]);
    let high = sc.msgs.len() as u64;
    let store: BTreeMap<u64, OrderedMsg<u64>> = (floors[k] + 1..=high)
        .filter(|&seq| sc.held(k, seq) || (pooled && sc.msgs[(seq - 1) as usize].2))
        .map(|seq| {
            let (sender, service, _, _) = sc.msgs[(seq - 1) as usize];
            (
                seq,
                OrderedMsg {
                    config: old_cfg,
                    seq,
                    id: MessageId::new(pid(sender), seq),
                    service,
                    payload: seq,
                },
            )
        })
        .collect();
    let proposal = ProposedConfig::new(
        ConfigId::regular(2, pid(sc.survivors[0])),
        sc.survivors.iter().map(|&i| pid(i)).collect(),
    );
    let mut exchanges = BTreeMap::new();
    for (j, &s) in sc.survivors.iter().enumerate() {
        exchanges.insert(
            pid(s),
            ExchangeState {
                proposal: proposal.id,
                sender: pid(s),
                last_regular: old_cfg,
                floor: floors[j],
                received: (floors[j] + 1..=high)
                    .filter(|&seq| sc.held(j, seq))
                    .collect(),
                high_seen: high,
                safe_line: sc.safe_line,
                obligations: BTreeSet::new(),
            },
        );
    }
    let trans: Vec<ProcessId> = sc.survivors.iter().map(|&i| pid(i)).collect();
    let obligations = extended_obligations(&BTreeSet::new(), &trans, &exchanges);
    let snapshot = RingSnapshot {
        config: old_cfg,
        members: (0..sc.old_n).map(pid).collect(),
        floor: floors[k],
        store,
        my_aru: 0,
        high_seen: high,
        safe_line: sc.safe_line,
        delivered_upto: sc.delivered[k],
        pending: Vec::new(),
    };
    (me, snapshot, proposal, exchanges, obligations)
}

/// Everything Steps 4–6 decide for survivor `k` under `floors`: its
/// rebroadcast duties and Step 5.b verdict when the reports are in, the
/// verdict again once the exchange completed, and the Step 6 plan.
fn decisions(
    sc: &Scenario,
    k: usize,
    floors: &[u64],
) -> (Vec<u64>, bool, bool, Vec<u64>, Vec<u64>, Vec<u64>) {
    let holds_needed = |snap: &RingSnapshot<u64>, ex: &BTreeMap<ProcessId, ExchangeState>| {
        let trans = transitional_members(snap.config, ex);
        needed_set(&trans, ex)
            .iter()
            .all(|s| *s <= snap.floor || snap.store.contains_key(s))
    };
    let (me, frozen, _, exchanges, _) = build(sc, k, floors, false);
    let trans = transitional_members(frozen.config, &exchanges);
    let duties = rebroadcast_set(me, &trans, &exchanges, |s| frozen.store.contains_key(&s));
    let ack_before = holds_needed(&frozen, &exchanges);

    let (me, pooled, proposal, exchanges, obligations) = build(sc, k, floors, true);
    let ack_after = holds_needed(&pooled, &exchanges);
    let plan = compute_plan(me, &pooled, &proposal, &exchanges, &obligations);
    let seqs = |v: &[OrderedMsg<u64>]| v.iter().map(|m| m.seq).collect::<Vec<u64>>();
    (
        duties,
        ack_before,
        ack_after,
        seqs(&plan.regular_deliveries),
        seqs(&plan.transitional_deliveries),
        plan.discarded,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn plans_are_symmetric_and_lawful(sc in scenario()) {
        let mut reference: Option<(Vec<u64>, Vec<u64>, Vec<u64>)> = None;
        for k in 0..sc.survivors.len() {
            let (me, snapshot, proposal, exchanges, obligations) =
                build(&sc, k, &sc.floors, true);
            let plan = compute_plan(me, &snapshot, &proposal, &exchanges, &obligations);

            // 2: strictly increasing ordinals, regular before transitional.
            let reg: Vec<u64> = plan.regular_deliveries.iter().map(|m| m.seq).collect();
            let tra: Vec<u64> = plan.transitional_deliveries.iter().map(|m| m.seq).collect();
            for w in reg.windows(2) { prop_assert!(w[0] < w[1]); }
            for w in tra.windows(2) { prop_assert!(w[0] < w[1]); }
            if let (Some(last_r), Some(first_t)) = (reg.last(), tra.first()) {
                prop_assert!(last_r < first_t);
            }

            // 3: nothing from a transitional member is discarded.
            for seq in &plan.discarded {
                let (sender, _, _, _) = sc.msgs[(*seq - 1) as usize];
                prop_assert!(
                    !sc.survivors.contains(&sender),
                    "discarded seq {} from surviving sender {}", seq, sender
                );
            }

            // 4: safe messages in the regular deliveries are covered by the
            // pooled safe line.
            for m in &plan.regular_deliveries {
                if m.service == Service::Safe {
                    prop_assert!(m.seq <= sc.safe_line,
                        "safe seq {} delivered in regular config above safe line {}",
                        m.seq, sc.safe_line);
                }
            }

            // Transitional metadata.
            let trans = transitional_members(snapshot.config, &exchanges);
            prop_assert_eq!(&plan.transitional.members, &trans);
            prop_assert!(plan.transitional.id.transitional);

            // 1: symmetry — the union (already-delivered + planned regular)
            // and the transitional set and discards agree across members.
            let full_regular: Vec<u64> =
                (1..=sc.delivered[k]).chain(reg.iter().copied()).collect();
            match &reference {
                None => reference = Some((full_regular, tra, plan.discarded.clone())),
                Some((r0, t0, d0)) => {
                    prop_assert_eq!(&full_regular, r0, "regular sets diverge");
                    prop_assert_eq!(&tra, t0, "transitional sets diverge");
                    prop_assert_eq!(&plan.discarded, d0, "discards diverge");
                }
            }
        }
    }

    /// 5: cutting every member's store and report at its floor changes no
    /// decision of Steps 4–6.
    #[test]
    fn floors_change_no_decision(sc in scenario()) {
        let full = vec![0; sc.survivors.len()];
        for k in 0..sc.survivors.len() {
            let cut = decisions(&sc, k, &sc.floors);
            prop_assert_eq!(&cut, &decisions(&sc, k, &full), "survivor {}", k);
            prop_assert!(cut.2, "a completed exchange leaves nothing needed");
            // What is rebroadcast, delivered in the transitional
            // configuration or discarded lies above everyone's floor; what
            // a member still delivers in the regular one, above its own.
            for s in cut.0.iter().chain(&cut.4).chain(&cut.5) {
                prop_assert!(sc.floors.iter().all(|f| s > f), "ordinal {} below a floor", s);
            }
            prop_assert!(cut.3.iter().all(|s| *s > sc.floors[k]));
        }
    }

    /// The needed set equals the union of survivor stores, and the
    /// rebroadcast duties partition it among the lowest-id holders.
    #[test]
    fn rebroadcast_duties_cover_the_needed_set(
        n in 2usize..5,
        holdings in proptest::collection::vec(
            proptest::collection::btree_set(1u64..30, 0..12), 2..5
        ),
    ) {
        let n = n.min(holdings.len());
        let old_cfg = ConfigId::regular(1, pid(0));
        let prop_id = ConfigId::regular(2, pid(0));
        let mut exchanges = BTreeMap::new();
        for (i, held) in holdings.iter().take(n).enumerate() {
            exchanges.insert(pid(i), ExchangeState {
                proposal: prop_id,
                sender: pid(i),
                last_regular: old_cfg,
                floor: 0,
                received: held.clone(),
                high_seen: held.iter().max().copied().unwrap_or(0),
                safe_line: 0,
                obligations: BTreeSet::new(),
            });
        }
        let trans: Vec<ProcessId> = (0..n).map(pid).collect();
        let needed = needed_set(&trans, &exchanges);
        let union: BTreeSet<u64> = holdings.iter().take(n).flatten().copied().collect();
        prop_assert_eq!(&needed, &union);

        // Each ordinal missing somewhere is rebroadcast by exactly one
        // process (the lowest-id holder).
        let mut covered: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, held) in holdings.iter().take(n).enumerate() {
            let duties = rebroadcast_set(pid(i), &trans, &exchanges, |s| held.contains(&s));
            for s in duties {
                prop_assert!(covered.insert(s, i).is_none(),
                    "seq {} rebroadcast twice", s);
            }
        }
        for s in &union {
            let missing_somewhere = (0..n).any(|i| !holdings[i].contains(s));
            prop_assert_eq!(covered.contains_key(s), missing_somewhere,
                "seq {} coverage wrong", s);
        }
    }
}
