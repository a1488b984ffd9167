//! The four workloads, the run loop around the epochs, and the metrics.
//!
//! A run is: one 512-op *verification epoch* whose full event trace goes
//! through `checker::check_all`; for CPU-bound workloads one discarded
//! warm-up epoch; then measured epochs of fixed work until `--seconds` have
//! passed. End-to-end metrics come from untraced epochs only; `--trace 1`
//! records spans in three epochs out of four and reports the per-layer
//! metrics instead (the untraced fourth gives the tracing overhead).

use crate::epoch::{run_epoch, set_up, EpochOut, Plan, Refs, Segment};
use crate::load::{BrokerLoad, ClosedLoad, FaultPlan, Load, OpenLoad, Rng};
use crate::probes;
use crate::reactor::{Sink, Spec};
use crate::reference::{REF_SYS_NOMINAL_S, REF_USER_NOMINAL_S};
use crate::trace::{self, now_ns, Agg, Raw, Sp};
use evs_core::{checker, Delivery, Payload, Service, Trace};
use std::io::Write as _;
use std::path::PathBuf;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Ring64bAgreed,
    Ring2kSafe,
    BrokerUdpWal,
    FaultN5Safe,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ring64bAgreed,
        Workload::Ring2kSafe,
        Workload::BrokerUdpWal,
        Workload::FaultN5Safe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ring64bAgreed => "ring_64b_agreed",
            Workload::Ring2kSafe => "ring_2k_safe",
            Workload::BrokerUdpWal => "broker_udp_wal",
            Workload::FaultN5Safe => "fault_n5_safe",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Ops of the verification epoch: the checker is roughly cubic in events,
/// so it never sees a timed epoch's trace.
const VERIFY_OPS: u64 = 512;
/// Closed-loop window of the direct-submit workloads.
const WINDOW: u64 = 256;
/// Client sessions of the broker workload, one op in flight each.
const CLIENTS: u64 = 1024;
/// Open-loop rate of the fault workload, ops per second.
const FAULT_RATE: u64 = 2_000;
/// Ops a fault epoch offers after its victim has rejoined (1.75 s worth);
/// with the restart at 2.2 s an epoch's load lasts about four seconds.
const FAULT_OPS_AFTER_REJOIN: u64 = 3_500;
/// Ledger capacity of a fault epoch: room for a rejoin that takes a second.
const FAULT_EPOCH_MAX_OPS: u64 = 10_000;

/// The trace file holds the first spans of the first segment of the first
/// traced epochs: enough to see every call in order, small enough to read.
const RAW_SPAN_EPOCHS: usize = 5;
const RAW_SPANS_PER_EPOCH: usize = 10_000;

/// Clusters formed and dropped just to time their set-up.
const EXTRA_SETUPS: usize = 12;

/// A sink for clusters that carry no load.
struct Discard;

impl Sink for Discard {
    fn delivered(&mut self, _member: usize, _delivery: Delivery<Payload>) {}
}

/// Fixed sizes of a workload: the same on every commit.
struct Shape {
    spec: Spec,
    virtual_clock: bool,
    epoch_ops: u64,
    seg_ops: u64,
}

fn shape(w: Workload) -> Shape {
    match w {
        Workload::Ring64bAgreed => Shape {
            spec: Spec {
                n: 3,
                udp: false,
                wal: false,
            },
            virtual_clock: true,
            epoch_ops: 250_000,
            seg_ops: 25_000,
        },
        Workload::Ring2kSafe => Shape {
            spec: Spec {
                n: 3,
                udp: false,
                wal: false,
            },
            virtual_clock: true,
            epoch_ops: 48_000,
            seg_ops: 4_000,
        },
        Workload::BrokerUdpWal => Shape {
            spec: Spec {
                n: 3,
                udp: true,
                wal: true,
            },
            virtual_clock: true,
            epoch_ops: 120_000,
            seg_ops: 12_000,
        },
        Workload::FaultN5Safe => Shape {
            spec: Spec {
                n: 5,
                udp: false,
                wal: true,
            },
            virtual_clock: false,
            epoch_ops: FAULT_EPOCH_MAX_OPS,
            seg_ops: 1_000,
        },
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunOut {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

pub fn run(opts: &Opts) -> Result<RunOut, String> {
    let w = opts.workload;
    let sh = shape(w);
    let n = sh.spec.n;
    let seed = opts.seed;
    match w {
        Workload::Ring64bAgreed => drive(
            opts,
            &sh,
            ClosedLoad::new(n, VERIFY_OPS, Service::Agreed, 64, WINDOW, seed),
            ClosedLoad::new(n, sh.epoch_ops, Service::Agreed, 64, WINDOW, seed),
        ),
        Workload::Ring2kSafe => drive(
            opts,
            &sh,
            ClosedLoad::new(n, VERIFY_OPS, Service::Safe, 2048, WINDOW, seed),
            ClosedLoad::new(n, sh.epoch_ops, Service::Safe, 2048, WINDOW, seed),
        ),
        Workload::BrokerUdpWal => drive(
            opts,
            &sh,
            BrokerLoad::new(n, VERIFY_OPS, 64, 64, seed)?,
            BrokerLoad::new(n, sh.epoch_ops, CLIENTS, 64, seed)?,
        ),
        Workload::FaultN5Safe => {
            // The verification epoch compresses the same schedule into two
            // seconds at an eighth of the rate; the timed epochs kill at
            // 1.0–1.2 s and restart at 2.2 s of their four.
            let verify = OpenLoad::new(
                n,
                VERIFY_OPS,
                FAULT_RATE / 8,
                64,
                FaultPlan {
                    kill_at_ns: 500_000_000,
                    kill_jitter_ns: 100_000_000,
                    restart_at_ns: 1_100_000_000,
                    ops_after_rejoin: 150,
                },
                seed,
            );
            let mut main = OpenLoad::new(
                n,
                sh.epoch_ops,
                FAULT_RATE,
                64,
                FaultPlan {
                    kill_at_ns: 1_000_000_000,
                    kill_jitter_ns: 200_000_000,
                    restart_at_ns: 2_200_000_000,
                    ops_after_rejoin: FAULT_OPS_AFTER_REJOIN,
                },
                seed,
            );
            main.probe_persist = opts.traced;
            drive(opts, &sh, verify, main)
        }
    }
}

fn wal_root(epoch: usize) -> PathBuf {
    PathBuf::from(format!("bench/out/wal/{}-{epoch}", std::process::id()))
}

fn drive<L: Load>(opts: &Opts, sh: &Shape, mut verify: L, mut main: L) -> Result<RunOut, String> {
    let w = opts.workload;
    let mut seeds = Rng(opts.seed ^ 0x5EED_0FE9);
    let mut plan = Plan {
        spec: sh.spec,
        virtual_clock: sh.virtual_clock,
        seg_ops: VERIFY_OPS,
        traced: false,
        raw_spans: 0,
        keep_trace: true,
    };

    // 1. The verification epoch: same reactor path, every event kept, the
    //    full specification suite on the result.
    let mut verdict = run_epoch(plan, &mut verify, None, seeds.next(), wal_root(0))?;
    let trace = Trace::new(verdict.traces.take().expect("keep_trace was set"));
    let events = trace.len();
    let t0 = now_ns();
    let violations = match checker::check_all(&trace) {
        Ok(()) => 0,
        Err(v) => {
            for violation in v.iter().take(5) {
                println!("# SPEC VIOLATION: {violation:?}");
            }
            v.len()
        }
    };
    println!(
        "# {}: verification epoch: {} ops, {} events, check_all {} in {:.2} s, {} failed{}",
        w.name(),
        verdict.completed,
        events,
        if violations == 0 { "clean" } else { "VIOLATED" },
        (now_ns() - t0) as f64 / 1e9,
        verdict.failures.total(),
        verdict
            .aborted
            .as_deref()
            .map(|a| format!(" (aborted: {a})"))
            .unwrap_or_default(),
    );
    drop(verify);
    drop(trace);

    // 2. Warm-up (CPU-bound workloads): faults in the heap the measured
    //    epochs will reuse; discarded.
    plan.keep_trace = false;
    plan.seg_ops = sh.seg_ops;
    let mut refs = if sh.virtual_clock {
        Some(Refs::new()?)
    } else {
        None
    };
    if sh.virtual_clock {
        run_epoch(plan, &mut main, refs.as_mut(), seeds.next(), wal_root(1))?;
    }

    // 3. Set-up alone, several times: a run has too few epochs (five, on
    //    the fault workload) for a steady median of their set-up times.
    let mut setups = Vec::new();
    for k in 0..EXTRA_SETUPS {
        let root = wal_root(100 + k);
        setups.push(set_up(sh.spec, false, root.clone(), &mut Discard)?.1);
        let _ = std::fs::remove_dir_all(root);
    }

    // 4. Measured epochs of fixed work, until the time is up.
    let mut epochs: Vec<EpochOut> = Vec::new();
    let started = now_ns();
    let budget_ns = (opts.seconds * 1e9) as u64;
    let min_epochs = if opts.traced { 2 } else { 1 };
    loop {
        let k = epochs.len();
        let elapsed = now_ns() - started;
        let mean = if k == 0 { 0 } else { elapsed / k as u64 };
        if k >= min_epochs && elapsed + mean / 2 >= budget_ns {
            break;
        }
        // With --trace 1, one epoch in four stays untraced: the overhead
        // of tracing is the difference.
        plan.traced = opts.traced && !k.is_multiple_of(4);
        plan.raw_spans = if plan.traced && k < RAW_SPAN_EPOCHS {
            RAW_SPANS_PER_EPOCH
        } else {
            0
        };
        trace::set_epoch(k as u32);
        let out = run_epoch(
            plan,
            &mut main,
            refs.as_mut(),
            seeds.next(),
            wal_root(2 + k),
        )?;
        let stop = out.aborted.is_some();
        epochs.push(out);
        if stop {
            break;
        }
    }
    let _ = std::fs::remove_dir_all("bench/out/wal");

    let mut attempted = verdict.attempted;
    let mut failures = verdict.failures;
    for e in &epochs {
        attempted += e.attempted;
        failures.add(&e.failures);
        if let Some(why) = &e.aborted {
            println!("# epoch aborted: {why}");
        }
    }
    let failed = failures.total();
    let correct = violations == 0
        && failed == 0
        && verdict.aborted.is_none()
        && epochs.iter().all(|e| e.aborted.is_none());
    println!(
        "# {}: {attempted} ops attempted in {} epochs, {failed} failed (backpressured {}, duplicated {}, \
         unknown {}, incomplete {}, late {}, order mismatches {}); {} oversize frames dropped",
        w.name(),
        epochs.len() + 1,
        failures.backpressured,
        failures.duplicated,
        failures.unknown,
        failures.incomplete,
        failures.late,
        failures.order_mismatches,
        epochs.iter().map(|e| e.meters.oversize_frames).sum::<u64>(),
    );

    let metrics = if opts.traced {
        let (agg, raw) = trace::take_aggregates();
        write_trace_file(w, &raw)?;
        let layers = per_layer(&epochs, &agg)?;
        print_layer_table(w, &epochs, &agg);
        layers
    } else {
        // Raw values are still printed, though only the traced run
        // reports them as metrics.
        for m in host(&epochs) {
            println!("# {:<36} {:>16.4} {}", m.name, m.value, m.unit);
        }
        setups.extend(epochs.iter().map(|e| e.setup_s));
        end_to_end(sh, &epochs, median(setups))
    };
    for m in &metrics {
        println!("# {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    Ok(RunOut {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How fast the host ran the reference kernels around a segment, relative
/// to the host the nominal durations were taken on: `(user, sys)`.
fn host_speed(seg: &Segment) -> (f64, f64) {
    match seg.refs {
        Some((before, after)) => (
            REF_USER_NOMINAL_S / ((before.user_s + after.user_s) / 2.0),
            REF_SYS_NOMINAL_S / ((before.sys_s + after.sys_s) / 2.0),
        ),
        None => (1.0, 1.0),
    }
}

/// A segment's busy time at host speed 1.0: user-mode time scaled by the
/// user reference, kernel time by the system reference. Segments of the
/// schedule-bound workload carry no reference and stay raw.
fn normalised_ns(seg: &Segment) -> f64 {
    let (user, sys) = host_speed(seg);
    (seg.busy_ns - seg.sys_ns.min(seg.busy_ns)) as f64 * user
        + seg.sys_ns.min(seg.busy_ns) as f64 * sys
}

fn end_to_end(sh: &Shape, epochs: &[EpochOut], setup_s: f64) -> Vec<Metric> {
    let untraced: Vec<&EpochOut> = epochs.iter().filter(|e| !e.traced).collect();
    let segs: Vec<&Segment> = untraced.iter().flat_map(|e| e.segments.iter()).collect();
    let ops: u64 = untraced.iter().map(|e| e.completed).sum();
    let ops_per_s = if sh.virtual_clock {
        let seg_ops: u64 = segs.iter().map(|s| s.ops).sum();
        seg_ops as f64 / (segs.iter().map(|s| normalised_ns(s)).sum::<f64>() / 1e9)
    } else {
        // Open loop: the rate achieved over the load phase.
        ops as f64 / (untraced.iter().map(|e| e.load_wall_ns).sum::<u64>() as f64 / 1e9)
    };
    let scaled = |pick: fn(&Segment) -> u64| {
        median(
            segs.iter()
                .map(|s| pick(s) as f64 * normalised_ns(s) / s.busy_ns.max(1) as f64 / 1e3)
                .collect(),
        )
    };
    let raw =
        |pick: fn(&Segment) -> u64| median(segs.iter().map(|s| pick(s) as f64 / 1e3).collect());
    let (p50, p99) = if sh.virtual_clock {
        (scaled(|s| s.p50_ns), scaled(|s| s.p99_ns))
    } else {
        (raw(|s| s.p50_ns), raw(|s| s.p99_ns))
    };
    let wire: u64 = untraced.iter().map(|e| e.meters.wire_bytes).sum();
    vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "ops_per_s",
            value: ops_per_s,
            unit: "ops/s",
        },
        Metric {
            name: "op_latency_p50_us",
            value: p50,
            unit: "us",
        },
        Metric {
            name: "op_latency_p99_us",
            value: p99,
            unit: "us",
        },
        Metric {
            name: "heap_b_per_op",
            value: median(
                untraced
                    .iter()
                    .map(|e| e.heap_growth_b as f64 / e.completed.max(1) as f64)
                    .collect(),
            ),
            unit: "B/op",
        },
        Metric {
            name: "peak_heap_mb",
            value: median(
                untraced
                    .iter()
                    .map(|e| e.peak_heap_b as f64 / 1e6)
                    .collect(),
            ),
            unit: "MB",
        },
        Metric {
            name: "wire_b_per_op",
            value: wire as f64 / ops.max(1) as f64,
            unit: "B/op",
        },
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(ns: Option<u64>) -> Option<f64> {
    ns.map(|v| v as f64 / 1e6)
}

fn per_layer(epochs: &[EpochOut], agg: &[Agg]) -> Result<Vec<Metric>, String> {
    let traced: Vec<&EpochOut> = epochs.iter().filter(|e| e.traced).collect();
    let untraced: Vec<&EpochOut> = epochs.iter().filter(|e| !e.traced).collect();
    let ops = traced.iter().map(|e| e.completed).sum::<u64>() as f64;
    let busy = traced.iter().map(|e| e.busy_ns).sum::<u64>() as f64;
    let m = |pick: fn(&EpochOut) -> u64| traced.iter().map(|e| pick(e)).sum::<u64>() as f64;
    let a = |sp: Sp| agg[sp as usize];
    let self_ns = |sp: Sp| a(sp).self_ns as f64;
    let per_call = |sp: Sp| ratio(a(sp).total_ns as f64, a(sp).count as f64);
    let layer_allocs = |layer: &str| {
        Sp::ALL
            .iter()
            .filter(|sp| sp.layer() == layer)
            .map(|&sp| a(sp).self_allocs as f64)
            .sum::<f64>()
    };
    let attributed: f64 = Sp::ALL.iter().map(|&sp| self_ns(sp)).sum();

    // Tracing overhead: busy time per op, traced against untraced epochs
    // of this same run (at host speed 1.0 where references were taken).
    let busy_per_op = |es: &[&EpochOut]| {
        let ops: u64 = es
            .iter()
            .flat_map(|e| e.segments.iter())
            .map(|s| s.ops)
            .sum();
        let ns: f64 = es
            .iter()
            .flat_map(|e| e.segments.iter())
            .map(normalised_ns)
            .sum();
        ratio(ns, ops as f64)
    };
    let overhead = match (busy_per_op(&traced), busy_per_op(&untraced)) {
        (t, u) if t > 0.0 && u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };

    let faults: Vec<_> = epochs.iter().filter_map(|e| e.extras.fault).collect();
    let fault_ms = |pick: fn(&crate::load::FaultTimes) -> Option<u64>| {
        median(faults.iter().filter_map(|f| ms(pick(f))).collect())
    };
    let folds: Vec<_> = traced.iter().filter_map(|e| e.extras.fold).collect();
    let batches = m(|e| e.extras.batches);
    let ring = probes::ring();
    let checker_us = probes::checker_us_per_event()?;
    let mut out: Vec<Metric> = Vec::new();
    let mut put =
        |name: &'static str, value: f64, unit: &'static str| out.push(Metric { name, value, unit });

    put(
        "wire.encode_ns_per_op",
        self_ns(Sp::WireEncode) / ops,
        "ns/op",
    );
    put(
        "wire.decode_ns_per_op",
        self_ns(Sp::WireDecode) / ops,
        "ns/op",
    );
    put("wire.pack_ns_per_op", self_ns(Sp::WirePack) / ops, "ns/op");
    put(
        "wire.unpack_ns_per_op",
        self_ns(Sp::WireUnpack) / ops,
        "ns/op",
    );
    put("wire.frames_per_op", m(|e| e.meters.frames) / ops, "1/op");
    put(
        "wire.frame_bytes_mean",
        ratio(m(|e| e.meters.frame_bytes), m(|e| e.meters.frames)),
        "B",
    );
    put("wire.allocs_per_op", layer_allocs("wire") / ops, "1/op");

    put(
        "engine.submit_ns_per_op",
        self_ns(Sp::EngineSubmit) / ops,
        "ns/op",
    );
    put(
        "engine.on_token_ns_per_visit",
        ratio(self_ns(Sp::EngineToken), a(Sp::EngineToken).count as f64),
        "ns",
    );
    put(
        "engine.token_visits_per_op",
        m(|e| e.meters.token_visits) / ops,
        "1/op",
    );
    put(
        "engine.on_data_ns_per_msg",
        ratio(self_ns(Sp::EngineData), m(|e| e.meters.data_msgs)),
        "ns",
    );
    put(
        "engine.data_msgs_per_op",
        m(|e| e.meters.data_msgs) / ops,
        "1/op",
    );
    put(
        "engine.on_timer_ns_per_op",
        self_ns(Sp::EngineTimer) / ops,
        "ns/op",
    );
    put(
        "engine.take_deliveries_ns_per_op",
        self_ns(Sp::EngineTake) / ops,
        "ns/op",
    );
    put(
        "engine.retained_b_per_op",
        ratio(
            epochs.iter().map(|e| e.engine_held_b).sum::<u64>() as f64,
            epochs.iter().map(|e| e.completed).sum::<u64>() as f64,
        ),
        "B/op",
    );
    put("engine.allocs_per_op", layer_allocs("engine") / ops, "1/op");

    put("ring.visit_busy_ns", ring.visit_busy_ns, "ns");
    put("ring.visit_idle_ns", ring.visit_idle_ns, "ns");
    put("ring.on_data_ns", ring.on_data_ns, "ns");
    put("ring.pop_delivery_ns", ring.pop_delivery_ns, "ns");

    put("store.append_ns_per_call", per_call(Sp::StoreAppend), "ns");
    put("store.sync_ns_per_call", per_call(Sp::StoreSync), "ns");
    put(
        "store.appends_per_op",
        m(|e| e.meters.store_appends) / ops,
        "1/op",
    );
    put(
        "store.syncs_per_op",
        m(|e| e.meters.store_syncs) / ops,
        "1/op",
    );
    put(
        "store.bytes_per_op",
        m(|e| e.meters.store_bytes) / ops,
        "B/op",
    );
    put(
        "store.replay_ms",
        median(
            epochs
                .iter()
                .filter(|e| e.extras.fault.is_some())
                .map(|e| e.meters.store_replay_ns as f64 / 1e6)
                .collect(),
        ),
        "ms",
    );
    put("store.allocs_per_op", layer_allocs("store") / ops, "1/op");

    put(
        "persist.fold_ns_per_record",
        ratio(
            folds.iter().map(|f| f.ns).sum::<u64>() as f64,
            folds.iter().map(|f| f.records).sum::<u64>() as f64,
        ),
        "ns",
    );
    put(
        "persist.records_replayed",
        median(folds.iter().map(|f| f.records as f64).collect()),
        "count",
    );

    put("net.submit_ns_per_call", per_call(Sp::NetSubmit), "ns");
    put("net.complete_ns_per_call", per_call(Sp::NetComplete), "ns");
    put(
        "net.submits_per_op",
        m(|e| e.meters.net_submits) / ops,
        "1/op",
    );
    put(
        "net.completes_per_op",
        m(|e| e.meters.net_completes) / ops,
        "1/op",
    );
    put(
        "net.empty_completes_share",
        ratio(
            m(|e| e.meters.net_empty_completes),
            m(|e| e.meters.net_completes),
        ),
        "share",
    );
    put(
        "net.datagrams_per_op",
        m(|e| e.meters.datagrams) / ops,
        "1/op",
    );
    put(
        "net.datagram_bytes_mean",
        ratio(m(|e| e.meters.datagram_bytes), m(|e| e.meters.datagrams)),
        "B",
    );
    put(
        "net.sys_share",
        ratio(m(|e| e.meters.sys_ns), busy),
        "share",
    );
    put("net.allocs_per_op", layer_allocs("net") / ops, "1/op");

    put(
        "broker.submit_ns_per_op",
        self_ns(Sp::BrokerSubmit) / ops,
        "ns/op",
    );
    put(
        "broker.flush_ns_per_batch",
        ratio(self_ns(Sp::BrokerFlush), batches),
        "ns",
    );
    put(
        "broker.on_delivered_ns_per_op",
        self_ns(Sp::BrokerDelivered) / ops,
        "ns/op",
    );
    put("broker.ops_per_batch", ratio(ops, batches), "count");
    put(
        "broker.queue_wait_us_p50",
        median(
            traced
                .iter()
                .filter_map(|e| e.extras.queue_wait_p50_ns)
                .map(|v| v as f64 / 1e3)
                .collect(),
        ),
        "us",
    );
    put(
        "broker.backpressure_share",
        ratio(
            m(|e| e.failures.backpressured),
            traced.iter().map(|e| e.attempted).sum::<u64>() as f64,
        ),
        "share",
    );
    put("broker.allocs_per_op", layer_allocs("broker") / ops, "1/op");

    put("recovery.outage_ms", fault_ms(|f| f.outage_ns), "ms");
    put("recovery.rejoin_ms", fault_ms(|f| f.rejoin_ns), "ms");
    put("recovery.detect_ms", fault_ms(|f| f.detect_ns), "ms");
    put("recovery.install_ms", fault_ms(|f| f.install_ns), "ms");
    put(
        "recovery.config_changes",
        median(faults.iter().map(|f| f.config_changes as f64).collect()),
        "count",
    );
    put(
        "recovery.exchange_frame_bytes_max",
        epochs
            .iter()
            .map(|e| e.observed.exchange_frame_bytes_max)
            .max()
            .unwrap_or(0) as f64,
        "B",
    );
    put(
        "recovery.retransmitted_msgs",
        median(
            epochs
                .iter()
                .map(|e| e.meters.rebroadcasts as f64)
                .collect(),
        ),
        "count",
    );

    put("checker.us_per_event", checker_us, "us");

    put(
        "reactor.sweeps_per_op",
        m(|e| e.meters.sweeps) / ops,
        "1/op",
    );
    put(
        "reactor.idle_sweep_share",
        ratio(m(|e| e.meters.idle_sweeps), m(|e| e.meters.sweeps)),
        "share",
    );
    put(
        "reactor.self_ns_per_op",
        (self_ns(Sp::Sweep) + self_ns(Sp::Generator)) / ops,
        "ns/op",
    );
    put(
        "reactor.unattributed_share",
        ratio(busy - attributed, busy),
        "share",
    );
    put("reactor.trace_overhead_share", overhead, "share");
    put(
        "reactor.generator_late_us_p99",
        median(
            epochs
                .iter()
                .filter_map(|e| e.extras.generator_late_p99_ns)
                .map(|v| v as f64 / 1e3)
                .collect(),
        ),
        "us",
    );
    put(
        "reactor.allocs_per_op",
        layer_allocs("reactor") / ops,
        "1/op",
    );

    out.extend(host(epochs));
    Ok(out)
}

/// What the host did during the run: how fast it ran the reference kernels
/// (1.0 when none were taken) and the throughput before normalisation.
fn host(epochs: &[EpochOut]) -> Vec<Metric> {
    let segs = || epochs.iter().flat_map(|e| e.segments.iter());
    let speeds: Vec<(f64, f64)> = segs().map(host_speed).collect();
    let untraced = || {
        epochs
            .iter()
            .filter(|e| !e.traced)
            .flat_map(|e| e.segments.iter())
    };
    vec![
        Metric {
            name: "host.user_speed",
            value: median(speeds.iter().map(|s| s.0).collect()),
            unit: "ratio",
        },
        Metric {
            name: "host.sys_speed",
            value: median(speeds.iter().map(|s| s.1).collect()),
            unit: "ratio",
        },
        Metric {
            name: "host.raw_ops_per_s",
            value: ratio(
                untraced().map(|s| s.ops).sum::<u64>() as f64,
                untraced().map(|s| s.busy_ns).sum::<u64>() as f64 / 1e9,
            ),
            unit: "ops/s",
        },
    ]
}

/// The table ROADMAP asks for: one row per layer in ns/op, summing (with
/// the reactor's own time and the unattributed remainder) to the busy time
/// per op of the traced epochs.
fn print_layer_table(w: Workload, epochs: &[EpochOut], agg: &[Agg]) {
    let traced: Vec<&EpochOut> = epochs.iter().filter(|e| e.traced).collect();
    let ops = traced.iter().map(|e| e.completed).sum::<u64>().max(1) as f64;
    let busy = traced.iter().map(|e| e.busy_ns).sum::<u64>() as f64;
    println!(
        "# {}: per-layer self time over {} traced ops",
        w.name(),
        ops
    );
    println!(
        "# {:<26} {:>12} {:>8} {:>12} {:>12}",
        "span", "self ns/op", "share", "calls/op", "allocs/op"
    );
    let mut layers: Vec<(&str, f64)> = Vec::new();
    let mut attributed = 0.0;
    for &sp in Sp::ALL {
        let a = agg[sp as usize];
        attributed += a.self_ns as f64;
        match layers.iter_mut().find(|(l, _)| *l == sp.layer()) {
            Some((_, ns)) => *ns += a.self_ns as f64,
            None => layers.push((sp.layer(), a.self_ns as f64)),
        }
        if a.count > 0 {
            println!(
                "# {:<26} {:>12.1} {:>7.1}% {:>12.3} {:>12.3}",
                sp.name(),
                a.self_ns as f64 / ops,
                100.0 * a.self_ns as f64 / busy,
                a.count as f64 / ops,
                a.self_allocs as f64 / ops,
            );
        }
    }
    println!("# {:<26} {:>12} {:>8}", "layer", "self ns/op", "share");
    for (layer, ns) in layers {
        println!(
            "# {:<26} {:>12.1} {:>7.1}%",
            layer,
            ns / ops,
            100.0 * ns / busy
        );
    }
    println!(
        "# {:<26} {:>12.1} {:>7.1}%",
        "(unattributed)",
        (busy - attributed) / ops,
        100.0 * (busy - attributed) / busy
    );
    println!("# {:<26} {:>12.1} {:>7.1}%", "busy time", busy / ops, 100.0);
}

fn write_trace_file(w: Workload, raw: &[Raw]) -> Result<(), String> {
    let dir = PathBuf::from("bench/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", w.name()));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "{{\"workload\": \"{}\", \"spans\": [", w.name())?;
        for (i, s) in raw.iter().enumerate() {
            let op = if s.op == u64::MAX {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"epoch\": {}, \"op\": {}}}{}",
                s.sp.name(),
                s.id,
                s.parent,
                s.start_ns,
                s.end_ns,
                s.epoch,
                op,
                if i + 1 == raw.len() { "" } else { "," },
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# {} raw spans written to {}", raw.len(), path.display());
    Ok(())
}
