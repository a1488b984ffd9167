//! Isolated probes of layers the reactor cannot time from outside: the
//! ring's token visit, `persist::fold`, and the specification checker. They
//! run in the traced mode only, on fixed inputs.

use crate::trace::now_ns;
use evs_core::{checker, persist, EvsCluster, Payload, Service};
use evs_membership::ConfigId;
use evs_order::{MessageId, Ring, RingOut, Token};
use evs_sim::{ProcessId, SimTime};
use evs_store::{FileStorage, Storage};
use std::hint::black_box;
use std::path::Path;

/// One timed `persist::fold` over a real log.
#[derive(Clone, Copy, Debug)]
pub struct Fold {
    pub records: u64,
    pub ns: u64,
}

/// Replays `storage` and times the fold of what it holds.
pub fn fold_storage(storage: &mut dyn Storage) -> Result<Fold, String> {
    let replay = storage.replay().map_err(|e| format!("replay: {e}"))?;
    let t0 = now_ns();
    let recovered = persist::fold(
        replay.snapshot.as_deref(),
        &replay.records,
        &replay.gap_positions,
    );
    let ns = now_ns() - t0;
    black_box(&recovered);
    Ok(Fold {
        records: recovered.records,
        ns,
    })
}

/// [`fold_storage`] over the write-ahead log a killed node left in `dir`.
pub fn fold_wal_dir(dir: &Path) -> Result<Fold, String> {
    let mut storage = FileStorage::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    fold_storage(&mut storage)
}

/// Mean nanoseconds per call of the ring's four hot operations.
#[derive(Clone, Copy, Default, Debug)]
pub struct RingCosts {
    /// A token visit that stamps a full flow-control window.
    pub visit_busy_ns: f64,
    /// A token visit on a quiescent ring (the idle fast path).
    pub visit_idle_ns: f64,
    pub on_data_ns: f64,
    pub pop_delivery_ns: f64,
}

const RING_MEMBERS: usize = 3;
const PER_VISIT: usize = 16;
const BUSY_VISITS: usize = 3_000;
const IDLE_VISITS: usize = 30_000;

/// Three `Ring`s handed one token in a loop, nothing else in the way.
pub fn ring() -> RingCosts {
    let members: Vec<ProcessId> = (0..RING_MEMBERS as u32).map(ProcessId::new).collect();
    let config = ConfigId::regular(1, members[0]);
    let mut rings: Vec<Ring<Payload>> = members
        .iter()
        .map(|&m| Ring::new(m, config, members.clone(), PER_VISIT))
        .collect();
    let payload = Payload::from(vec![7u8; 64]);
    let mut counter = 0u64;
    let mut load = |ring: &mut Ring<Payload>, who: usize| {
        for _ in 0..PER_VISIT {
            counter += 1;
            let id = MessageId::new(ProcessId::new(who as u32), counter);
            black_box(ring.submit(id, Service::Agreed, payload.clone()));
        }
    };
    let (mut visit_ns, mut data_ns, mut data_calls, mut pop_ns, mut pops) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    // Applies one visit's effects; returns the forwarded token.
    let mut apply = |rings: &mut Vec<Ring<Payload>>, from: usize, outs: Vec<RingOut<Payload>>| {
        let mut next: Option<(usize, Token)> = None;
        for out in outs {
            match out {
                RingOut::Data(msg) => {
                    for (i, ring) in rings.iter_mut().enumerate() {
                        if i != from {
                            let msg = msg.clone();
                            let t0 = now_ns();
                            ring.on_data(msg);
                            data_ns += now_ns() - t0;
                            data_calls += 1;
                        }
                    }
                }
                RingOut::TokenTo(to, tok) => next = Some((to.as_usize(), tok)),
            }
        }
        for ring in rings.iter_mut() {
            loop {
                let t0 = now_ns();
                let popped = ring.pop_delivery();
                let dt = now_ns() - t0;
                if popped.is_none() {
                    break;
                }
                pop_ns += dt;
                pops += 1;
            }
        }
        next.expect("a multi-member ring always forwards the token")
    };

    load(&mut rings[0], 0);
    let outs = rings[0].bootstrap_token(SimTime::ZERO);
    let (mut at, mut tok) = apply(&mut rings, 0, outs);
    for _ in 0..BUSY_VISITS {
        load(&mut rings[at], at);
        let t0 = now_ns();
        let outs = rings[at].on_token(SimTime::ZERO, tok);
        visit_ns += now_ns() - t0;
        (at, tok) = apply(&mut rings, at, outs);
    }
    let visit_busy_ns = visit_ns as f64 / BUSY_VISITS as f64;
    // A few rotations with nothing pending bring aru and safe line level,
    // after which every visit takes the idle fast path.
    for _ in 0..4 * RING_MEMBERS {
        let outs = rings[at].on_token(SimTime::ZERO, tok);
        (at, tok) = apply(&mut rings, at, outs);
    }
    let mut idle_ns = 0u64;
    for _ in 0..IDLE_VISITS {
        let t0 = now_ns();
        let outs = rings[at].on_token(SimTime::ZERO, tok);
        idle_ns += now_ns() - t0;
        (at, tok) = apply(&mut rings, at, outs);
    }
    RingCosts {
        visit_busy_ns,
        visit_idle_ns: idle_ns as f64 / IDLE_VISITS as f64,
        on_data_ns: data_ns as f64 / data_calls.max(1) as f64,
        pop_delivery_ns: pop_ns as f64 / pops.max(1) as f64,
    }
}

/// `checker::check_all` on a fixed simulated trace: 512 messages among five
/// processes, one of which crashes half-way and recovers. Returns
/// microseconds per trace event.
pub fn checker_us_per_event() -> Result<f64, String> {
    let mut cluster = EvsCluster::<Payload>::builder(5).seed(7).build();
    if !cluster.run_until_settled(200_000) {
        return Err("checker probe: simulated group did not form".into());
    }
    let ids = cluster.processes();
    for k in 0..512u64 {
        if k == 256 {
            cluster.crash(ids[4]);
        }
        let origin = ids[(k % 4) as usize];
        let service = if k % 4 == 0 {
            Service::Safe
        } else {
            Service::Agreed
        };
        cluster.submit(origin, service, Payload::from(k.to_le_bytes().to_vec()));
        cluster.run_for(20);
    }
    cluster.recover(ids[4]);
    if !cluster.run_until_settled(400_000) {
        return Err("checker probe: simulated group did not re-form".into());
    }
    let trace = cluster.trace();
    let t0 = now_ns();
    let verdict = checker::check_all(&trace);
    let ns = now_ns() - t0;
    if let Err(v) = verdict {
        return Err(format!(
            "checker probe: {} violations on the fixed trace",
            v.len()
        ));
    }
    Ok(ns as f64 / 1e3 / trace.len().max(1) as f64)
}
