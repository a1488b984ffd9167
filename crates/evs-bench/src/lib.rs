//! # evs-bench — shared helpers for the benchmark harness
//!
//! The paper is a model/algorithm paper and reports no performance tables;
//! the benchmarks here characterize the reproduction itself (and the
//! Totem-substrate claims the paper builds on: "fast message ordering",
//! bounded-time membership). Each Criterion bench also prints a summary
//! table of *simulated-time* metrics (ticks, token rotations) — wall time
//! measures the simulator, simulated time measures the protocol.
//!
//! See `DESIGN.md` (B1–B6) and `EXPERIMENTS.md` for what each bench
//! regenerates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use evs_core::{EvsCluster, EvsEvent, Service};
use evs_sim::{ProcessId, SimTime};

/// The latest timestamp of an event matching `pred` anywhere in the trace.
fn last_event_time(trace: &evs_core::Trace, pred: impl Fn(&EvsEvent) -> bool) -> Option<SimTime> {
    trace
        .events
        .iter()
        .flat_map(|log| log.iter())
        .filter(|(_, e)| pred(e))
        .map(|(t, _)| *t)
        .max()
}

/// Builds a settled cluster of `n` processes with the given seed.
///
/// Telemetry stays detached: the timed benchmark loops must measure the
/// protocol, not the metrics pipeline. Use [`instrumented_cluster`] for
/// the out-of-band counter snapshots printed next to the timing tables.
///
/// # Panics
///
/// Panics if the group does not converge (it always does under the default
/// loss-free network).
pub fn settled_cluster(n: usize, seed: u64) -> EvsCluster<u64> {
    let mut cluster = EvsCluster::<u64>::builder(n).seed(seed).build();
    assert!(cluster.run_until_settled(1_000_000), "formation stalled");
    cluster
}

/// Like [`settled_cluster`], but with per-process telemetry enabled —
/// for the `report_json` sidecar, never inside a timed loop.
///
/// # Panics
///
/// Panics if the group does not converge.
pub fn instrumented_cluster(n: usize, seed: u64) -> EvsCluster<u64> {
    let mut cluster = EvsCluster::<u64>::builder(n)
        .seed(seed)
        .telemetry(true)
        .build();
    assert!(cluster.run_until_settled(1_000_000), "formation stalled");
    cluster
}

/// Serializes a scenario's counter snapshot as a JSON object — the
/// machine-readable sidecar a bench prints alongside its human table, so
/// runs can be diffed (`messages_sent`, `token_retransmissions`,
/// `token_rotations`, …).
///
/// The object is `{"scenario": .., "totals": {..}, "report": <RunReport>}`;
/// `totals` sums each counter across processes.
pub fn report_json(scenario: &str, cluster: &EvsCluster<u64>) -> String {
    report_json_with_extras(scenario, cluster, &std::collections::BTreeMap::new())
}

/// Like [`report_json`], with extra derived metrics merged into `totals`.
///
/// The smoke scenarios use this to gate deterministic simulated-time
/// figures (delivery-latency percentiles in ticks) alongside the raw
/// counters; an extra with the same name as a counter wins.
pub fn report_json_with_extras(
    scenario: &str,
    cluster: &EvsCluster<u64>,
    extras: &std::collections::BTreeMap<String, u64>,
) -> String {
    let report = cluster.run_report();
    let mut totals: std::collections::BTreeMap<String, u64> =
        report.counter_totals().into_iter().collect();
    totals.extend(extras.iter().map(|(k, v)| (k.clone(), *v)));
    let mut out = String::from("{\"scenario\":");
    evs_telemetry::report::push_json_string(&mut out, scenario);
    out.push_str(",\"totals\":{");
    let mut first = true;
    for (name, value) in &totals {
        if !first {
            out.push(',');
        }
        first = false;
        evs_telemetry::report::push_json_string(&mut out, name);
        out.push(':');
        out.push_str(&value.to_string());
    }
    out.push_str("},\"report\":");
    out.push_str(&report.to_json());
    out.push('}');
    out
}

/// Submits `k` messages round-robin and runs until everything is delivered
/// everywhere. Returns the simulated ticks from submission to the last
/// delivery anywhere (exact, from trace timestamps).
///
/// # Panics
///
/// Panics if the cluster fails to settle.
pub fn pump_messages(cluster: &mut EvsCluster<u64>, k: u64, service: Service) -> u64 {
    let n = cluster.processes().len() as u64;
    let start = cluster.now();
    for i in 0..k {
        cluster.submit(ProcessId::new((i % n) as u32), service, i);
    }
    assert!(cluster.run_until_settled(5_000_000), "message pump stalled");
    let end = last_event_time(&cluster.trace(), |e| matches!(e, EvsEvent::Deliver { .. }))
        .unwrap_or(start);
    end.since(start)
}

/// Ticks from "partition applied" to the last configuration installation
/// (exact, from trace timestamps).
///
/// # Panics
///
/// Panics if reconfiguration stalls.
pub fn reconfiguration_ticks(cluster: &mut EvsCluster<u64>, groups: &[&[ProcessId]]) -> u64 {
    let start = cluster.now();
    cluster.partition(groups);
    assert!(
        cluster.run_until_settled(5_000_000),
        "reconfiguration stalled"
    );
    let end = last_event_time(
        &cluster.trace(),
        |e| matches!(e, EvsEvent::DeliverConf(c) if c.is_regular()),
    )
    .unwrap_or(start);
    end.since(start)
}

/// Ticks from "merge applied" to the last configuration installation.
///
/// # Panics
///
/// Panics if the merge stalls.
pub fn merge_ticks(cluster: &mut EvsCluster<u64>) -> u64 {
    let start = cluster.now();
    cluster.merge_all();
    assert!(cluster.run_until_settled(5_000_000), "merge stalled");
    let end = last_event_time(
        &cluster.trace(),
        |e| matches!(e, EvsEvent::DeliverConf(c) if c.is_regular()),
    )
    .unwrap_or(start);
    end.since(start)
}

/// Generates a trace of roughly `events` events: a settled group exchanging
/// messages with one partition/merge cycle in the middle.
pub fn trace_of_size(events: usize, seed: u64) -> evs_core::Trace {
    let n = 4;
    let mut cluster = settled_cluster(n, seed);
    // Each message yields ~1 send + n deliveries; configs add a handful.
    let msgs = (events / (n + 1)).max(1) as u64;
    let half = msgs / 2;
    pump_messages(&mut cluster, half, Service::Safe);
    let p = ProcessId::new;
    cluster.partition(&[&[p(0), p(1)], &[p(2), p(3)]]);
    assert!(cluster.run_until_settled(5_000_000));
    cluster.merge_all();
    assert!(cluster.run_until_settled(5_000_000));
    pump_messages(&mut cluster, msgs - half, Service::Safe);
    cluster.trace()
}

/// The deterministic smoke scenarios behind `BENCH_baseline.json` and the
/// `./ci.sh bench-diff` regression gate.
///
/// One fixed message load pumped through settled clusters of a few sizes,
/// same seeds every run — so the counter snapshot is reproducible and any
/// drift between two runs of the same code is zero. That exactness is what
/// makes a counter diff meaningful as a CI gate.
pub mod smoke {
    use super::{instrumented_cluster, pump_messages, report_json_with_extras};
    use evs_core::Service;
    use evs_telemetry::{names, LogHistogramSnapshot, RunReport};
    use std::collections::BTreeMap;

    /// Fixed base seed for every smoke scenario.
    pub const SEED: u64 = 0xB5E0;
    /// Messages pumped per service class per scenario.
    pub const MESSAGES: u64 = 64;
    /// Cluster sizes exercised, one scenario each.
    pub const SIZES: &[usize] = &[3, 5, 8];

    /// One executed smoke scenario: its counter totals plus the
    /// simulated-time figures, and the JSON line the baseline file stores.
    pub struct Scenario {
        /// Cluster size.
        pub n: usize,
        /// Simulated ticks to deliver the agreed-service load everywhere.
        pub agreed_ticks: u64,
        /// Simulated ticks to deliver the safe-service load everywhere.
        pub safe_ticks: u64,
        /// Counter totals summed across processes.
        pub totals: BTreeMap<String, u64>,
        /// The `report_json` line (what `BENCH_baseline.json` records).
        pub json: String,
    }

    impl Scenario {
        /// The stable scenario key both sides of a diff are matched on.
        /// Tick figures are embedded in the full scenario name, so the key
        /// deliberately stops at the cluster size.
        pub fn key(&self) -> String {
            format!("bench_smoke/n{}", self.n)
        }
    }

    /// Runs every smoke scenario (deterministic; a few seconds).
    ///
    /// Besides the raw counter totals, each scenario gates the
    /// origination→delivery latency percentiles (in simulated ticks, so
    /// they are exact and machine-independent) for the agreed and safe
    /// loads — a latency regression fails the diff like a counter
    /// regression does.
    pub fn run() -> Vec<Scenario> {
        SIZES
            .iter()
            .map(|&n| {
                let mut cluster = instrumented_cluster(n, SEED + n as u64);
                let agreed_ticks = pump_messages(&mut cluster, MESSAGES, Service::Agreed);
                let safe_ticks = pump_messages(&mut cluster, MESSAGES, Service::Safe);
                let name =
                    format!("bench_smoke/n{n}/agreed_ticks{agreed_ticks}/safe_ticks{safe_ticks}");
                let report = cluster.run_report();
                let mut extras = BTreeMap::new();
                for service in [Service::Agreed, Service::Safe] {
                    if let Some(lat) = merged_histogram(&report, latency_name(service)) {
                        extras.insert(format!("latency_{service}_p50_ticks"), lat.percentile(0.50));
                        extras.insert(format!("latency_{service}_p99_ticks"), lat.percentile(0.99));
                    }
                }
                let mut totals = report.counter_totals();
                totals.extend(extras.iter().map(|(k, v)| (k.clone(), *v)));
                Scenario {
                    n,
                    agreed_ticks,
                    safe_ticks,
                    totals,
                    json: report_json_with_extras(&name, &cluster, &extras),
                }
            })
            .collect()
    }

    /// The per-service origination→delivery latency histogram name.
    fn latency_name(service: Service) -> &'static str {
        match service {
            Service::Causal => names::DELIVERY_LATENCY_CAUSAL,
            Service::Agreed => names::DELIVERY_LATENCY_AGREED,
            Service::Safe => names::DELIVERY_LATENCY_SAFE,
        }
    }

    /// Merges the named histogram across every process of the report;
    /// `None` when no process recorded it.
    fn merged_histogram(report: &RunReport, name: &str) -> Option<LogHistogramSnapshot> {
        let mut merged: Option<LogHistogramSnapshot> = None;
        for h in report
            .processes
            .iter()
            .filter_map(|p| p.log_histograms.get(name))
        {
            merged.get_or_insert_with(Default::default).merge(h);
        }
        merged
    }

    /// Serializes the scenarios as the baseline file's JSON array.
    pub fn baseline_json(scenarios: &[Scenario]) -> String {
        let lines: Vec<&str> = scenarios.iter().map(|s| s.json.as_str()).collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

pub mod diff;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_settled_clusters_and_traces() {
        let mut c = settled_cluster(3, 1);
        let ticks = pump_messages(&mut c, 5, Service::Safe);
        assert!(ticks > 0);
        let t = trace_of_size(200, 2);
        assert!(t.len() >= 100, "trace has {} events", t.len());
        evs_core::checker::check_all(&t).unwrap();
    }
}

/// Thin [`evs_sim::Node`] wrappers that drive the two ordering substrates
/// (token ring vs Isis-style sequencer) directly under the simulator's
/// latency model, for the B10 baseline comparison. No membership layer: a
/// fixed configuration, loss-free network.
pub mod substrates {
    use evs_membership::ConfigId;
    use evs_order::{MessageId, Ring, RingMsg, RingOut, SeqMsg, SeqOut, Sequencer, Service};
    use evs_sim::{Ctx, Node, ProcessId, TimerKind};

    const TICK: TimerKind = TimerKind(1);
    const TICK_INTERVAL: u64 = 16;

    fn fixed_config() -> ConfigId {
        ConfigId::regular(1, ProcessId::new(0))
    }

    /// A node running just the token-ring substrate.
    pub struct RingNode {
        ring: Ring<u64>,
        next_id: u64,
        /// Ordinals delivered, in order (the bench reads timestamps from
        /// the emitted trace).
        pub delivered: Vec<u64>,
        /// Frames this node processed (load-concentration metric).
        pub frames: u64,
    }

    impl RingNode {
        /// Creates the node for `me` in a fixed `n`-member configuration.
        pub fn new(me: ProcessId, n: usize) -> Self {
            let members = evs_sim::all_ids(n);
            RingNode {
                ring: Ring::new(me, fixed_config(), members, 16),
                next_id: 0,
                delivered: Vec::new(),
                frames: 0,
            }
        }

        /// Submits one message with the given service.
        pub fn submit(&mut self, ctx: &mut Ctx<'_, RingMsg<u64>, u64>, service: Service) {
            self.next_id += 1;
            let id = MessageId::new(ctx.id(), self.next_id);
            if self.ring.submit(id, service, self.next_id).is_some() {
                self.drain(ctx);
            }
        }

        fn apply(&mut self, ctx: &mut Ctx<'_, RingMsg<u64>, u64>, outs: Vec<RingOut<u64>>) {
            for o in outs {
                match o {
                    RingOut::Data(m) => ctx.broadcast(RingMsg::Data(m)),
                    RingOut::TokenTo(to, t) => ctx.unicast(to, RingMsg::Token(t)),
                }
            }
            self.drain(ctx);
        }

        fn drain(&mut self, ctx: &mut Ctx<'_, RingMsg<u64>, u64>) {
            while let Some((m, _)) = self.ring.pop_delivery() {
                self.delivered.push(m.seq);
                ctx.emit(m.seq);
            }
        }
    }

    impl Node for RingNode {
        type Msg = RingMsg<u64>;
        type Ev = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, u64>) {
            let now = ctx.now();
            let outs = self.ring.bootstrap_token(now);
            self.apply(ctx, outs);
            ctx.set_timer(TICK_INTERVAL, TICK);
        }

        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, Self::Msg, u64>,
            _from: ProcessId,
            msg: Self::Msg,
        ) {
            self.frames += 1;
            let now = ctx.now();
            match msg {
                RingMsg::Data(d) => {
                    self.ring.on_data(d);
                    self.drain(ctx);
                }
                RingMsg::Batch(batch) => {
                    for d in batch {
                        self.ring.on_data(d);
                    }
                    self.drain(ctx);
                }
                RingMsg::Token(t) => {
                    let outs = self.ring.on_token(now, t);
                    self.apply(ctx, outs);
                }
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, u64>, _kind: TimerKind) {
            let now = ctx.now();
            if let Some(out) = self.ring.maybe_retransmit(now, 64, 512) {
                self.apply(ctx, vec![out]);
            }
            ctx.set_timer(TICK_INTERVAL, TICK);
        }

        fn on_crash(&mut self, _: &mut Ctx<'_, Self::Msg, u64>) {}
        fn on_recover(&mut self, _: &mut Ctx<'_, Self::Msg, u64>) {}
    }

    /// A node running just the sequencer substrate.
    pub struct SeqNode {
        seq: Sequencer<u64>,
        next_id: u64,
        /// Ordinals delivered, in order.
        pub delivered: Vec<u64>,
        /// Frames this node processed (load-concentration metric).
        pub frames: u64,
    }

    impl SeqNode {
        /// Creates the node for `me` in a fixed `n`-member configuration.
        pub fn new(me: ProcessId, n: usize) -> Self {
            let members = evs_sim::all_ids(n);
            SeqNode {
                seq: Sequencer::new(me, fixed_config(), members),
                next_id: 0,
                delivered: Vec::new(),
                frames: 0,
            }
        }

        /// Submits one message with the given service.
        pub fn submit(&mut self, ctx: &mut Ctx<'_, SeqMsg<u64>, u64>, service: Service) {
            self.next_id += 1;
            let id = MessageId::new(ctx.id(), self.next_id);
            let outs = self.seq.submit(id, service, self.next_id);
            self.apply(ctx, outs);
        }

        fn apply(&mut self, ctx: &mut Ctx<'_, SeqMsg<u64>, u64>, outs: Vec<SeqOut<u64>>) {
            for o in outs {
                match o {
                    SeqOut::Broadcast(m) => ctx.broadcast(m),
                    SeqOut::Send(to, m) => ctx.unicast(to, m),
                }
            }
            while let Some((m, _)) = self.seq.pop_delivery() {
                self.delivered.push(m.seq);
                ctx.emit(m.seq);
            }
        }
    }

    impl Node for SeqNode {
        type Msg = SeqMsg<u64>;
        type Ev = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, u64>) {
            ctx.set_timer(TICK_INTERVAL, TICK);
        }

        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, Self::Msg, u64>,
            from: ProcessId,
            msg: Self::Msg,
        ) {
            self.frames += 1;
            let outs = self.seq.on_message(from, msg);
            self.apply(ctx, outs);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, u64>, _kind: TimerKind) {
            let outs = self.seq.tick();
            self.apply(ctx, outs);
            ctx.set_timer(TICK_INTERVAL, TICK);
        }

        fn on_crash(&mut self, _: &mut Ctx<'_, Self::Msg, u64>) {}
        fn on_recover(&mut self, _: &mut Ctx<'_, Self::Msg, u64>) {}
    }
}
