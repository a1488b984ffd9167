//! A configuration that has lived long still recovers over real UDP: the
//! recovery's `Exchange` report and the ring store follow the in-flight
//! window, not the number of messages the configuration ever ordered. With
//! a report listing every ordinal received, the frame passed UDP's
//! 65,507 bytes after ~8,000 messages and the recovery below never
//! completed.

use evs_core::{ConfigId, Delivery, EvsParams, EvsProcess, Payload, Service};
use evs_runtime::Cluster;
use evs_sim::ProcessId;
use evs_telemetry::{names, RunReport};
use std::collections::BTreeMap;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);
const N: usize = 3;
/// Well past the ~8k messages at which a full-history report stopped
/// fitting a datagram.
const MESSAGES: usize = 20_000;
const BURST: usize = 250;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn settled_with(n: usize) -> impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone {
    move |node| node.is_settled() && node.current_config().members.len() == n
}

fn delivered(count: usize) -> impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone {
    move |node| node.deliveries().iter().filter_map(|d| d.payload()).count() >= count
}

fn submit(net: &Cluster, at: u32, service: Service, first: usize, count: usize) {
    net.invoke(p(at), move |node, ctx| {
        for k in first..first + count {
            node.submit(ctx, service, Payload::from(k.to_le_bytes().to_vec()));
        }
    });
}

/// Per configuration, a rolling hash of the ids a member delivered in it,
/// after each delivery (the specification checker is cubic in the trace;
/// 20,000 messages are beyond it).
fn digest(node: &EvsProcess<Payload>) -> BTreeMap<ConfigId, Vec<u64>> {
    let mut per_config: BTreeMap<ConfigId, Vec<u64>> = BTreeMap::new();
    for d in node.deliveries() {
        match d {
            Delivery::Config(c) => {
                per_config.entry(c.id).or_default();
            }
            Delivery::Message { id, config, .. } => {
                let hashes = per_config.entry(*config).or_default();
                let mut hash = hashes.last().copied().unwrap_or(0);
                for word in [u64::from(id.sender.index()), id.counter] {
                    hash = (hash ^ word).wrapping_mul(0x0100_0000_01B3);
                }
                hashes.push(hash);
            }
        }
    }
    per_config
}

#[test]
fn a_long_lived_configuration_recovers_over_udp() {
    let net = Cluster::udp_loopback(N).expect("bind loopback sockets");
    let everyone: Vec<ProcessId> = (0..N as u32).map(p).collect();
    // Load until the configuration in place has ordered MESSAGES: a
    // reconfiguration a busy machine forces mid-load starts its count again.
    let mut sent = 0;
    loop {
        assert!(net.wait_until(WAIT, settled_with(N)), "formation");
        let ordered = net.inspect(p(0), |node, _| node.obs().high_seen) as usize;
        if ordered >= MESSAGES {
            break;
        }
        for _ in 0..(MESSAGES - ordered).div_ceil(BURST) {
            submit(
                &net,
                (sent / BURST % N) as u32,
                Service::Agreed,
                sent,
                BURST,
            );
            sent += BURST;
        }
        assert!(net.wait_until(WAIT, delivered(sent)), "all delivered");
    }
    let loaded = net.inspect(p(0), |node, _| node.current_config().id);

    // What a member retains is what may still be in flight — a few
    // rotations of stamping — however much the configuration has ordered.
    let window = 4 * N * EvsParams::default().max_per_visit;
    let assert_windowed = |when: &str| {
        for &q in &everyone {
            let obs = net.inspect(q, |node, _| node.obs());
            assert!(
                obs.store_len <= window,
                "{q} {when}: {} messages retained above floor {}",
                obs.store_len,
                obs.store_floor
            );
        }
    };
    assert_windowed("after the load");

    // One member away and back: the recovery of a configuration that
    // ordered 20,000 messages, twice over, then of the pair's and the
    // loner's.
    net.faults().partition(&[vec![p(0), p(1)], vec![p(2)]]);
    assert!(net.wait_until_on(&[p(0), p(1)], WAIT, settled_with(2)));
    assert!(net.wait_until_on(&[p(2)], WAIT, settled_with(1)));
    submit(&net, 0, Service::Safe, sent, 1);
    submit(&net, 2, Service::Safe, sent + 1, 1);
    assert!(net.wait_until(WAIT, delivered(sent + 1)));
    net.faults().merge_all();
    assert!(net.wait_until(WAIT, settled_with(N)), "merge");
    submit(&net, 1, Service::Safe, sent + 2, 1);
    assert!(net.wait_until(WAIT, delivered(sent + 2)));
    assert_windowed("after the merge");

    // Members that were in a configuration together delivered the same
    // messages in it, in the same order: all of them where the
    // configuration was quiet when it ended, as the loaded and the merged
    // one were; one a prefix of the other's anywhere else.
    let merged = net.inspect(p(0), |node, _| node.current_config().id);
    let digests: Vec<_> = everyone
        .iter()
        .map(|&q| net.inspect(q, |node, _| digest(node)))
        .collect();
    assert!(digests[0][&loaded].len() >= MESSAGES);
    for (q, theirs) in digests.iter().enumerate().skip(1) {
        for quiet in [loaded, merged] {
            assert_eq!(
                theirs.get(&quiet),
                digests[0].get(&quiet),
                "P{q} in {quiet}"
            );
        }
        for (config, in_config) in theirs {
            let ours = digests[0].get(config).map_or(&[][..], |v| v);
            if let Some(shared) = in_config.len().min(ours.len()).checked_sub(1) {
                assert_eq!(in_config[shared], ours[shared], "P{q} and P0 in {config}");
            }
        }
    }

    let report = RunReport::collect(&net.telemetry_handles());
    assert_eq!(report.total(names::OVERSIZED_DATAGRAMS_DROPPED), 0);
    net.shutdown();
}
