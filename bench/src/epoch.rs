//! One epoch: a fresh cluster formed on the wall clock, a fixed amount of
//! load split into fixed-size segments, the books closed, the cluster
//! dropped.
//!
//! Work per epoch is fixed, never time: at a fixed op count every count the
//! benchmark reports (allocations, retained bytes, datagrams, sweeps)
//! repeats exactly, and a fresh cluster per epoch bounds what the never
//! pruned `Ring::store` can retain.

use crate::alloc;
use crate::load::{quantile, Extras, Failures, Load};
use crate::probes::fold_storage;
use crate::reactor::{Cluster, Observed, Sink, Spec};
use crate::reference::{RefSys, RefUser};
use crate::trace::{self, now_ns, Snapshot, METERS};
use evs_core::EvsEvent;
use evs_sim::SimTime;
use std::path::PathBuf;
use std::time::Duration;

/// The two reference kernels, timed back to back.
pub struct Refs {
    user: RefUser,
    sys: RefSys,
}

/// Seconds the user and system reference kernels took.
#[derive(Clone, Copy, Debug)]
pub struct RefTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Refs {
    pub fn new() -> Result<Refs, String> {
        Ok(Refs {
            user: RefUser::new(),
            sys: RefSys::new().map_err(|e| format!("reference socket: {e}"))?,
        })
    }

    pub fn measure(&mut self) -> Result<RefTimes, String> {
        Ok(RefTimes {
            user_s: self.user.run(),
            sys_s: self
                .sys
                .run()
                .map_err(|e| format!("reference socket: {e}"))?,
        })
    }
}

/// How an epoch is run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub spec: Spec,
    /// One protocol tick per sweep after formation (CPU-bound workloads);
    /// otherwise the load runs on the wall clock and idles between events.
    pub virtual_clock: bool,
    /// Ops per segment.
    pub seg_ops: u64,
    /// Record spans during the load.
    pub traced: bool,
    /// Raw spans to keep from the first segment, for the trace file.
    pub raw_spans: usize,
    /// Keep the `EvsEvent` traces for the specification checker.
    pub keep_trace: bool,
}

/// One fixed-size slice of an epoch's load.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub ops: u64,
    /// Time the reactor spent working (idle spins excluded).
    pub busy_ns: u64,
    /// The part of it inside kernel-backed driver / storage calls.
    pub sys_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Reference kernels just before and just after the segment
    /// (CPU-bound workloads only).
    pub refs: Option<(RefTimes, RefTimes)>,
}

pub struct EpochOut {
    pub setup_s: f64,
    pub attempted: u64,
    pub completed: u64,
    pub failures: Failures,
    /// Why the epoch was cut short, if it was.
    pub aborted: Option<String>,
    pub segments: Vec<Segment>,
    /// Wall-clock length of the load phase, reference kernels excluded.
    pub load_wall_ns: u64,
    /// The part of it the reactor spent working: all of it on a virtual
    /// clock, idle spins excluded on the wall clock.
    pub busy_ns: u64,
    /// Live heap at the end of the load minus at its start.
    pub heap_growth_b: i64,
    /// Peak live heap over the epoch, above the level before the cluster.
    pub peak_heap_b: u64,
    /// Bytes freed by dropping the `EvsProcess` objects alone.
    pub engine_held_b: u64,
    /// Counter deltas over the load phase.
    pub meters: Snapshot,
    pub observed: Observed,
    pub extras: Extras,
    pub traced: bool,
    pub traces: Option<Vec<Vec<(SimTime, EvsEvent)>>>,
}

/// An epoch that makes no progress for this long is aborted.
const STALL: Duration = Duration::from_secs(5);
const FORMATION_TIMEOUT: Duration = Duration::from_secs(30);

/// Ops per latency window: a p99 then has ten samples beyond it.
const LATENCY_WINDOW: usize = 1_000;

/// The median, over consecutive windows of [`LATENCY_WINDOW`] completions,
/// of each window's p50 and p99. A host stall (or a fault) spoils the tail
/// of the windows it falls in and no others, so it shows in `outage_ms` and
/// the recovery metrics rather than in the steady-state percentiles.
fn windowed_percentiles(lat: &mut [u64]) -> (u64, u64) {
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let window = LATENCY_WINDOW.min(lat.len().max(1));
    for w in lat.chunks_exact_mut(window) {
        p50s.push(quantile(w, 0.50).unwrap_or(0));
        p99s.push(quantile(w, 0.99).unwrap_or(0));
    }
    (
        quantile(&mut p50s, 0.50).unwrap_or(0),
        quantile(&mut p99s, 0.50).unwrap_or(0),
    )
}

/// Sockets bound and storage opened → all `n` members settled in one
/// regular configuration, on the wall clock. Returns the cluster and the
/// seconds it took: one sample of `setup_s`.
pub fn set_up(
    spec: Spec,
    keep_trace: bool,
    wal_root: PathBuf,
    sink: &mut dyn Sink,
) -> Result<(Cluster, f64), String> {
    let t0 = now_ns();
    let mut cluster = Cluster::start(spec, keep_trace, wal_root, sink)?;
    cluster.form(sink, FORMATION_TIMEOUT)?;
    Ok((cluster, (now_ns() - t0) as f64 / 1e9))
}

pub fn run_epoch<L: Load>(
    plan: Plan,
    load: &mut L,
    mut refs: Option<&mut Refs>,
    epoch_seed: u64,
    wal_root: PathBuf,
) -> Result<EpochOut, String> {
    let heap_base = alloc::live();
    alloc::reset_peak();

    let (mut cluster, setup_s) = set_up(plan.spec, plan.keep_trace, wal_root.clone(), load)?;
    if plan.virtual_clock {
        cluster.use_virtual_clock();
    }
    load.begin(&mut cluster, epoch_seed)?;

    let heap0 = alloc::live();
    let meters0 = METERS.snapshot();
    let mut ref_before = match refs.as_deref_mut() {
        Some(r) => Some(r.measure()?),
        None => None,
    };
    if plan.traced {
        trace::keep_raw_until(trace::raw_len() + plan.raw_spans);
        trace::set_enabled(true);
    }

    let mut segments = Vec::new();
    let mut aborted = None;
    let mut load_wall_ns = 0u64;
    let mut busy_ns = 0u64;
    let mut seg_t0 = now_ns();
    let mut seg_idle_ns = 0u64;
    let mut worked_until = seg_t0;
    let mut seg_sys0 = METERS.snapshot().sys_ns;
    let mut seg_done0 = 0u64;
    let mut progress = (0u64, 0u64, now_ns());
    let mut spins = 0u32;
    loop {
        let l = load.ledger();
        if load.exhausted() && l.completed == l.attempted && l.fully_delivered == l.attempted {
            break;
        }
        if !plan.virtual_clock {
            let now = now_ns();
            if !cluster.has_work() && !load.due(now) {
                // Nothing due: spin. Sleeping would add the scheduler's
                // wake-up latency to every op of an open loop.
                std::hint::spin_loop();
                trace::count(&METERS.sweeps, 1);
                trace::count(&METERS.idle_sweeps, 1);
                spins += 1;
                if spins.is_multiple_of(4096) && now - progress.2 > STALL.as_nanos() as u64 {
                    aborted = Some("no progress for 5 s".to_string());
                    break;
                }
                continue;
            }
            // Everything since the last piece of work ended was idling.
            seg_idle_ns += now - worked_until;
        }
        if let Err(e) = load.step(&mut cluster) {
            aborted = Some(e);
            break;
        }
        cluster.sweep(load);
        if !plan.virtual_clock {
            worked_until = now_ns();
        }

        let l = load.ledger();
        let done = l.completed;
        if (done, l.fully_delivered) != (progress.0, progress.1) {
            progress = (done, l.fully_delivered, now_ns());
        } else {
            spins += 1;
            if spins.is_multiple_of(256) && now_ns() - progress.2 > STALL.as_nanos() as u64 {
                aborted = Some("no progress for 5 s".to_string());
                break;
            }
        }
        if done - seg_done0 >= plan.seg_ops {
            let end = now_ns();
            let was_traced = trace::enabled();
            trace::set_enabled(false);
            trace::keep_raw_until(0);
            let sys = METERS.snapshot().sys_ns;
            let lat = &mut load.ledger_mut().lat_ns;
            let (p50_ns, p99_ns) = windowed_percentiles(lat);
            lat.clear();
            let seg_refs = match (refs.as_deref_mut(), ref_before) {
                (Some(r), Some(before)) => {
                    let after = r.measure()?;
                    ref_before = Some(after);
                    Some((before, after))
                }
                _ => None,
            };
            let seg_busy_ns = end - seg_t0 - seg_idle_ns;
            load_wall_ns += end - seg_t0;
            busy_ns += seg_busy_ns;
            segments.push(Segment {
                ops: done - seg_done0,
                busy_ns: seg_busy_ns,
                sys_ns: sys - seg_sys0,
                p50_ns,
                p99_ns,
                refs: seg_refs,
            });
            seg_done0 = done;
            seg_sys0 = sys;
            seg_idle_ns = 0;
            trace::set_enabled(was_traced);
            seg_t0 = now_ns();
            worked_until = seg_t0;
            // The reference kernels took real time; it is not a stall.
            progress.2 = seg_t0;
        }
    }
    let tail_end = now_ns();
    load_wall_ns += tail_end - seg_t0;
    busy_ns += tail_end - seg_t0 - seg_idle_ns;
    trace::set_enabled(false);
    trace::keep_raw_until(0);

    let heap1 = alloc::live();
    let meters = METERS.snapshot().since(&meters0);
    load.ledger_mut().close();
    let l = load.ledger();
    let (attempted, completed, failures) = (l.attempted, l.completed, l.failures);
    let mut extras = load.extras();
    if plan.traced && extras.fold.is_none() {
        // No victim's log to fold: fold what node 0 journaled instead.
        if let Some(node) = cluster.node_mut(0) {
            extras.fold = Some(fold_storage(node.storage_mut())?);
        }
    }
    let observed = cluster.observed;
    let traces = plan.keep_trace.then(|| cluster.take_traces());
    let before_drop = alloc::live();
    cluster.drop_nodes();
    let engine_held_b = before_drop - alloc::live();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&wal_root);
    Ok(EpochOut {
        setup_s,
        attempted,
        completed,
        failures,
        aborted,
        segments,
        load_wall_ns,
        busy_ns,
        heap_growth_b: heap1 as i64 - heap0 as i64,
        peak_heap_b: alloc::peak().saturating_sub(heap_base),
        engine_held_b,
        meters,
        observed,
        extras,
        traced: plan.traced,
        traces,
    })
}
