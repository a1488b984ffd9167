//! Experiment E4 (Spec 4, Failure Atomicity) and general partition/merge
//! behaviour: processes that move together agree; components evolve
//! independently; everything re-merges cleanly.

use evs::core::{checker, Delivery, EvsCluster, Service};
use evs::sim::ProcessId;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Message payloads delivered at a process.
fn texts(cluster: &EvsCluster<String>, at: ProcessId) -> Vec<String> {
    cluster
        .deliveries(at)
        .iter()
        .filter_map(|d| d.payload().cloned())
        .collect()
}

#[test]
fn both_components_continue_after_partition() {
    // The motivating property of the paper: unlike virtual synchrony,
    // *every* component keeps operating after a partition.
    let mut cluster = EvsCluster::<String>::builder(5).build();
    assert!(cluster.run_until_settled(300_000));
    cluster.partition(&[&[p(0), p(1), p(2)], &[p(3), p(4)]]);
    assert!(cluster.run_until_settled(400_000));

    cluster.submit(p(0), Service::Safe, "majority-side".into());
    cluster.submit(p(4), Service::Safe, "minority-side".into());
    assert!(cluster.run_until_settled(200_000));

    for q in [p(0), p(1), p(2)] {
        assert!(texts(&cluster, q).contains(&"majority-side".to_string()));
        assert!(!texts(&cluster, q).contains(&"minority-side".to_string()));
    }
    for q in [p(3), p(4)] {
        assert!(texts(&cluster, q).contains(&"minority-side".to_string()));
        assert!(!texts(&cluster, q).contains(&"majority-side".to_string()));
    }
    checker::assert_evs(&cluster.trace());
}

#[test]
fn merge_after_divergence_is_clean() {
    let mut cluster = EvsCluster::<String>::builder(4).build();
    assert!(cluster.run_until_settled(300_000));
    cluster.partition(&[&[p(0), p(1)], &[p(2), p(3)]]);
    assert!(cluster.run_until_settled(400_000));
    // Divergent histories.
    for i in 0..5 {
        cluster.submit(p(0), Service::Safe, format!("left-{i}"));
        cluster.submit(p(3), Service::Safe, format!("right-{i}"));
    }
    assert!(cluster.run_until_settled(300_000));
    cluster.merge_all();
    assert!(cluster.run_until_settled(400_000));
    // New traffic reaches everyone.
    cluster.submit(p(1), Service::Safe, "after-merge".into());
    assert!(cluster.run_until_settled(200_000));
    for q in cluster.processes() {
        assert!(texts(&cluster, q).contains(&"after-merge".to_string()));
    }
    // Old component traffic never crossed.
    assert!(!texts(&cluster, p(0)).contains(&"right-0".to_string()));
    assert!(!texts(&cluster, p(3)).contains(&"left-0".to_string()));
    checker::assert_evs(&cluster.trace());
}

#[test]
fn failure_atomicity_under_repeated_partitions() {
    // Spec 4 on a run with several reconfigurations and concurrent traffic.
    let mut cluster = EvsCluster::<String>::builder(5).seed(77).build();
    assert!(cluster.run_until_settled(300_000));
    let schedule: &[&[&[ProcessId]]] = &[
        &[&[p(0), p(1)], &[p(2), p(3), p(4)]],
        &[&[p(0), p(1), p(2)], &[p(3), p(4)]],
        &[&[p(0)], &[p(1), p(2)], &[p(3), p(4)]],
    ];
    let mut n = 0;
    for groups in schedule {
        // Concurrent traffic right around the reconfiguration.
        for q in cluster.processes() {
            n += 1;
            cluster.submit(q, Service::Safe, format!("m{n}"));
        }
        cluster.partition(groups);
        cluster.run_for(3_000);
        for q in cluster.processes() {
            n += 1;
            cluster.submit(q, Service::Agreed, format!("m{n}"));
        }
        assert!(cluster.run_until_settled(500_000));
    }
    cluster.merge_all();
    assert!(cluster.run_until_settled(500_000));
    // The checker enforces Spec 4 (and everything else) over the whole run.
    checker::assert_evs(&cluster.trace());
}

#[test]
fn three_way_partition_and_staged_remerge() {
    let mut cluster = EvsCluster::<String>::builder(6).seed(5).build();
    assert!(cluster.run_until_settled(300_000));
    cluster.partition(&[&[p(0), p(1)], &[p(2), p(3)], &[p(4), p(5)]]);
    assert!(cluster.run_until_settled(400_000));
    for q in [p(0), p(2), p(4)] {
        cluster.submit(q, Service::Safe, format!("island-{q}"));
    }
    assert!(cluster.run_until_settled(300_000));
    // Merge two islands first.
    cluster.sim_mut().merge(&[p(1), p(2)]);
    assert!(cluster.run_until_settled(400_000));
    assert_eq!(cluster.config(p(0)).members, vec![p(0), p(1), p(2), p(3)]);
    // Then everyone.
    cluster.merge_all();
    assert!(cluster.run_until_settled(400_000));
    for q in cluster.processes() {
        assert_eq!(cluster.config(q).members.len(), 6);
    }
    checker::assert_evs(&cluster.trace());
}

#[test]
fn processes_moving_together_deliver_identical_sets_explicitly() {
    // Direct (non-checker) assertion of Spec 4 on the delivery streams:
    // group segments of p(1) and p(2), which always travel together.
    let mut cluster = EvsCluster::<String>::builder(4).seed(21).build();
    assert!(cluster.run_until_settled(300_000));
    for i in 0..8 {
        cluster.submit(p(i % 4), Service::Safe, format!("x{i}"));
    }
    // Partition while traffic is in flight; p1 and p2 stay together.
    cluster.run_for(500);
    cluster.partition(&[&[p(0)], &[p(1), p(2)], &[p(3)]]);
    assert!(cluster.run_until_settled(500_000));

    let segments = |at: ProcessId| -> Vec<(String, Vec<String>)> {
        let mut segs = Vec::new();
        for d in cluster.deliveries(at) {
            match d {
                Delivery::Config(c) => segs.push((c.to_string(), Vec::new())),
                Delivery::Message { payload, .. } => {
                    if let Some(last) = segs.last_mut() {
                        last.1.push(payload.clone());
                    }
                }
            }
        }
        segs
    };
    let s1 = segments(p(1));
    let s2 = segments(p(2));
    // Align on shared configurations: deliveries within each shared config
    // must be identical.
    for (c1, msgs1) in &s1 {
        for (c2, msgs2) in &s2 {
            if c1 == c2 {
                assert_eq!(msgs1, msgs2, "different sets in {c1}");
            }
        }
    }
    checker::assert_evs(&cluster.trace());
}
