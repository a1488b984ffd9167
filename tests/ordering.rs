//! Experiments E5/E6: causal delivery (Spec 5, Figure 5) and totally
//! ordered delivery (Specs 6.1–6.3), exercised on real executions and on
//! hand-crafted violation fixtures that the checker must reject.

use evs::core::{checker, Configuration, Delivery, EvsCluster, EvsEvent, Service, Trace};
use evs::membership::ConfigId;
use evs::order::MessageId;
use evs::sim::{ProcessId, SimTime};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

// ---------------------------------------------------------------------
// Positive runs: the protocol satisfies the ordering specifications.
// ---------------------------------------------------------------------

#[test]
fn causal_chains_deliver_in_causal_order() {
    // P0 sends a, then P1 (after delivering a) sends b, then P2 (after b)
    // sends c: every process delivers a < b < c.
    let mut cluster = EvsCluster::<String>::builder(3).build();
    assert!(cluster.run_until_settled(300_000));
    cluster.submit(p(0), Service::Causal, "a".into());
    assert!(cluster.run_until_settled(100_000));
    cluster.submit(p(1), Service::Causal, "b".into());
    assert!(cluster.run_until_settled(100_000));
    cluster.submit(p(2), Service::Causal, "c".into());
    assert!(cluster.run_until_settled(100_000));
    for q in cluster.processes() {
        let order: Vec<String> = cluster
            .deliveries(q)
            .iter()
            .filter_map(|d| d.payload().cloned())
            .collect();
        assert_eq!(order, vec!["a", "b", "c"], "at {q}");
    }
    checker::assert_evs(&cluster.trace());
}

#[test]
fn concurrent_senders_agree_on_one_total_order() {
    // Burst-submit from all processes with no waiting: the token decides a
    // single order; all processes observe it identically.
    let mut cluster = EvsCluster::<String>::builder(4).seed(99).build();
    assert!(cluster.run_until_settled(300_000));
    for i in 0..32 {
        cluster.submit(p(i % 4), Service::Agreed, format!("c{i}"));
    }
    assert!(cluster.run_until_settled(300_000));
    let order0: Vec<String> = cluster
        .deliveries(p(0))
        .iter()
        .filter_map(|d| d.payload().cloned())
        .collect();
    assert_eq!(order0.len(), 32);
    for q in cluster.processes() {
        let order: Vec<String> = cluster
            .deliveries(q)
            .iter()
            .filter_map(|d| d.payload().cloned())
            .collect();
        assert_eq!(order, order0, "divergent total order at {q}");
    }
    checker::assert_evs(&cluster.trace());
}

#[test]
fn sender_order_is_preserved_per_process() {
    // FIFO from each sender (a consequence of causal order: a process's
    // sends are causally chained through its own history).
    let mut cluster = EvsCluster::<String>::builder(3).seed(3).build();
    assert!(cluster.run_until_settled(300_000));
    for i in 0..10 {
        cluster.submit(p(1), Service::Agreed, format!("fifo-{i}"));
    }
    assert!(cluster.run_until_settled(200_000));
    for q in cluster.processes() {
        let order: Vec<String> = cluster
            .deliveries(q)
            .iter()
            .filter_map(|d| d.payload().cloned())
            .collect();
        let expect: Vec<String> = (0..10).map(|i| format!("fifo-{i}")).collect();
        assert_eq!(order, expect, "FIFO violated at {q}");
    }
}

#[test]
fn causality_does_not_cross_configurations() {
    // Messages sent in different configurations are not causally related in
    // the model ("causality … is local to a single configuration and is
    // terminated by a membership change"). A message from the old config
    // is never delivered in the new one.
    let mut cluster = EvsCluster::<String>::builder(3).build();
    assert!(cluster.run_until_settled(300_000));
    cluster.submit(p(0), Service::Agreed, "old-config".into());
    assert!(cluster.run_until_settled(100_000));
    cluster.partition(&[&[p(0), p(1)], &[p(2)]]);
    assert!(cluster.run_until_settled(400_000));
    cluster.submit(p(0), Service::Agreed, "new-config".into());
    assert!(cluster.run_until_settled(100_000));
    // Every delivery's configuration identifier is the one it was sent in.
    let trace = cluster.trace();
    checker::assert_evs(&trace);
    for q in [p(0), p(1)] {
        let confs: Vec<ConfigId> = cluster
            .deliveries(q)
            .iter()
            .filter_map(|d| match d {
                Delivery::Message { config, .. } => Some(*config),
                _ => None,
            })
            .collect();
        assert_eq!(confs.len(), 2);
        assert_ne!(confs[0].epoch, confs[1].epoch, "different configs at {q}");
    }
}

// ---------------------------------------------------------------------
// Negative fixtures: the checker rejects fabricated violations. These are
// the executable versions of the paper's Figures 1–5 "crossed" diagrams.
// ---------------------------------------------------------------------

fn cfg(epoch: u64, members: &[u32]) -> Configuration {
    Configuration::new(
        ConfigId::regular(epoch, p(members[0])),
        members.iter().map(|&i| p(i)).collect(),
    )
}

fn t(n: u64) -> SimTime {
    SimTime::from_ticks(n)
}

fn ev_send(sender: u32, n: u64, c: &Configuration, service: Service) -> EvsEvent {
    EvsEvent::Send {
        id: MessageId::new(p(sender), n),
        config: c.id,
        service,
    }
}

fn ev_deliver(sender: u32, n: u64, c: &Configuration, service: Service, seq: u64) -> EvsEvent {
    EvsEvent::Deliver {
        id: MessageId::new(p(sender), n),
        config: c.id,
        service,
        seq,
    }
}

fn spec_violated(trace: &Trace, spec: &str) -> bool {
    match checker::check_all(trace) {
        Ok(()) => false,
        Err(violations) => violations.iter().any(|v| v.spec == spec),
    }
}

#[test]
fn checker_rejects_delivery_without_send() {
    let c = cfg(1, &[0, 1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_deliver(1, 1, &c, Service::Agreed, 1)),
        ],
        vec![(t(0), EvsEvent::DeliverConf(c.clone()))],
    ]);
    assert!(spec_violated(&trace, "1.3"));
}

#[test]
fn checker_rejects_send_in_transitional_configuration() {
    let r = cfg(1, &[0, 1]);
    let tr = Configuration::new(ConfigId::transitional(2, p(0)), vec![p(0), p(1)]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(r.clone())),
            (t(1), EvsEvent::DeliverConf(tr.clone())),
            (t(2), ev_send(0, 1, &tr, Service::Agreed)),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(r)),
            (t(1), EvsEvent::DeliverConf(tr.clone())),
        ],
    ]);
    assert!(spec_violated(&trace, "1.4"));
}

#[test]
fn checker_rejects_duplicate_delivery() {
    let c = cfg(1, &[0, 1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Agreed)),
            (t(2), ev_deliver(0, 1, &c, Service::Agreed, 1)),
            (t(3), ev_deliver(0, 1, &c, Service::Agreed, 1)),
        ],
        vec![(t(0), EvsEvent::DeliverConf(c.clone()))],
    ]);
    assert!(spec_violated(&trace, "1.4"));
}

#[test]
fn checker_rejects_event_outside_installed_configuration() {
    let c = cfg(1, &[0, 1]);
    let other = cfg(9, &[0, 1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            // Sent in a configuration never installed here.
            (t(1), ev_send(0, 1, &other, Service::Agreed)),
        ],
        vec![(t(0), EvsEvent::DeliverConf(c))],
    ]);
    assert!(spec_violated(&trace, "2.2"));
}

#[test]
fn checker_rejects_divergent_final_configurations() {
    // Spec 2.1: P0 ends in {0,1} but P1 ends elsewhere without failing.
    let c = cfg(1, &[0, 1]);
    let solo = cfg(2, &[1]);
    let trace = Trace::new(vec![
        vec![(t(0), EvsEvent::DeliverConf(c.clone()))],
        vec![
            (t(0), EvsEvent::DeliverConf(c)),
            (t(1), EvsEvent::DeliverConf(solo)),
        ],
    ]);
    assert!(spec_violated(&trace, "2.1"));
}

#[test]
fn checker_rejects_self_delivery_violation() {
    // Spec 3 / Figure 3: P0 sends m in c, moves to c2 without failing, and
    // never delivers m.
    let c = cfg(1, &[0, 1]);
    let c2 = cfg(2, &[0, 1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Agreed)),
            (t(2), EvsEvent::DeliverConf(c2.clone())),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(2), EvsEvent::DeliverConf(c2)),
        ],
    ]);
    assert!(spec_violated(&trace, "3"));
}

#[test]
fn checker_rejects_failure_atomicity_violation() {
    // Spec 4 / Figure 4: P0 and P1 move c -> c2 together but deliver
    // different message sets in c.
    let c = cfg(1, &[0, 1]);
    let c2 = cfg(2, &[0, 1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Agreed)),
            (t(2), ev_deliver(0, 1, &c, Service::Agreed, 1)),
            (t(3), EvsEvent::DeliverConf(c2.clone())),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(3), EvsEvent::DeliverConf(c2)),
        ],
    ]);
    assert!(spec_violated(&trace, "4"));
}

#[test]
fn checker_rejects_causal_violation() {
    // Spec 5 / Figure 5: send(m) -> send(m') (P1 delivers m before sending
    // m'), yet P2 delivers m' without m.
    let c = cfg(1, &[0, 1, 2]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Agreed)),
            (t(5), ev_deliver(0, 1, &c, Service::Agreed, 1)),
            (t(6), ev_deliver(1, 1, &c, Service::Agreed, 2)),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(2), ev_deliver(0, 1, &c, Service::Agreed, 1)),
            (t(3), ev_send(1, 1, &c, Service::Agreed)),
            (t(6), ev_deliver(1, 1, &c, Service::Agreed, 2)),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            // delivers m' but never m:
            (t(7), ev_deliver(1, 1, &c, Service::Agreed, 2)),
        ],
    ]);
    assert!(spec_violated(&trace, "5"));
}

#[test]
fn checker_rejects_contradictory_total_orders() {
    // Spec 6.2: two processes deliver the same two messages in opposite
    // orders — no ord function can exist.
    let c = cfg(1, &[0, 1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Agreed)),
            (t(2), ev_send(0, 2, &c, Service::Agreed)),
            (t(3), ev_deliver(0, 1, &c, Service::Agreed, 1)),
            (t(4), ev_deliver(0, 2, &c, Service::Agreed, 2)),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(3), ev_deliver(0, 2, &c, Service::Agreed, 2)),
            (t(4), ev_deliver(0, 1, &c, Service::Agreed, 1)),
        ],
    ]);
    assert!(spec_violated(&trace, "6.1/6.2"));
}

#[test]
fn checker_rejects_order_gap() {
    // Spec 6.3: P1 delivers m' having skipped m although m's sender is a
    // member of P1's configuration.
    let c = cfg(1, &[0, 1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Agreed)),
            (t(2), ev_send(0, 2, &c, Service::Agreed)),
            (t(3), ev_deliver(0, 1, &c, Service::Agreed, 1)),
            (t(4), ev_deliver(0, 2, &c, Service::Agreed, 2)),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(4), ev_deliver(0, 2, &c, Service::Agreed, 2)),
        ],
    ]);
    assert!(spec_violated(&trace, "6.3"));
}

#[test]
fn checker_reports_violations_in_a_stable_order() {
    // Two members each deliver P2's message twice (Spec 1.4) after skipping
    // two messages of P0's, a member of their configuration (Spec 6.3): the
    // list must come out the same on every call.
    let c = cfg(1, &[0, 1, 2]);
    let twice = vec![
        (t(0), EvsEvent::DeliverConf(c.clone())),
        (t(4), ev_deliver(2, 1, &c, Service::Agreed, 3)),
        (t(5), ev_deliver(2, 1, &c, Service::Agreed, 3)),
    ];
    let mut sender = twice.clone();
    sender.insert(1, (t(1), ev_send(2, 1, &c, Service::Agreed)));
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Agreed)),
            (t(2), ev_send(0, 2, &c, Service::Agreed)),
            (t(3), ev_deliver(0, 1, &c, Service::Agreed, 1)),
            (t(4), ev_deliver(0, 2, &c, Service::Agreed, 2)),
            (t(5), ev_deliver(2, 1, &c, Service::Agreed, 3)),
        ],
        twice,
        sender,
    ]);
    let first = checker::check_all(&trace).unwrap_err();
    assert!(first.iter().filter(|v| v.spec == "1.4").count() >= 2);
    assert!(first.iter().filter(|v| v.spec == "6.3").count() >= 2);
    for _ in 1..16 {
        assert_eq!(checker::check_all(&trace).unwrap_err(), first);
    }
}

#[test]
fn checker_rejects_safe_delivery_violation() {
    // Spec 7.1: a safe message delivered by P0 in c; member P1 neither
    // delivers it nor fails.
    let c = cfg(1, &[0, 1]);
    let c2 = cfg(2, &[0, 1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Safe)),
            (t(2), ev_deliver(0, 1, &c, Service::Safe, 1)),
            (t(3), EvsEvent::DeliverConf(c2.clone())),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(3), EvsEvent::DeliverConf(c2)),
        ],
    ]);
    assert!(spec_violated(&trace, "7.1"));
}

#[test]
fn checker_rejects_safe_delivery_without_installation() {
    // Spec 7.2: safe message delivered in regular c, but member P1 never
    // installed c. (P1 fails so 7.1 is exempt; 7.2 still fires.)
    let c = cfg(1, &[0, 1]);
    let c0 = cfg(0, &[1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Safe)),
            (t(2), ev_deliver(0, 1, &c, Service::Safe, 1)),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(c0.clone())),
            (t(1), EvsEvent::Fail { config: c0.id }),
        ],
    ]);
    assert!(spec_violated(&trace, "7.2"));
}

#[test]
fn checker_accepts_the_paper_compliant_counterpart() {
    // Control for the fixtures above: the same shape with the violation
    // repaired passes all specifications.
    let c = cfg(1, &[0, 1]);
    let trace = Trace::new(vec![
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(1), ev_send(0, 1, &c, Service::Safe)),
            (t(3), ev_deliver(0, 1, &c, Service::Safe, 1)),
        ],
        vec![
            (t(0), EvsEvent::DeliverConf(c.clone())),
            (t(4), ev_deliver(0, 1, &c, Service::Safe, 1)),
        ],
    ]);
    checker::check_all(&trace).unwrap();
}
