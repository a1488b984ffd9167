//! Anomaly detection over the merged timeline and derived spans.
//!
//! These are *symptoms*, not specification violations — the conformance
//! checker owns correctness. An anomaly points a reader of a failing (or
//! merely slow) run at the interesting part of the timeline: a recovery
//! that never finished, a starving token, a retransmission storm, an
//! obligation set that only ever grows.

use crate::spans::{step_name, ConfigSpan, MessageSpan};
use crate::timeline::Timeline;
use evs_telemetry::TelemetryEvent;
use std::collections::BTreeMap;
use std::fmt;

/// Detection thresholds. The defaults suit the workspace's simulator
/// scales; tune per deployment.
#[derive(Clone, Copy, Debug)]
pub struct AnomalyConfig {
    /// A token gap is starvation when it exceeds `starvation_factor` times
    /// the process's median gap in that configuration...
    pub starvation_factor: u64,
    /// ...and is at least this many ticks (filters tiny rings).
    pub starvation_min_ticks: u64,
    /// Total missing ordinals requested by one process in one
    /// configuration before it counts as a hole-request storm.
    pub hole_storm_threshold: u64,
    /// Consecutive strictly-increasing obligation-set samples on one
    /// process before flagging unbounded growth.
    pub obligation_growth_run: usize,
    /// Token retransmissions by one process in one configuration before a
    /// retransmission storm is considered...
    pub retx_storm_threshold: u64,
    /// ...and only when retransmissions also reach this multiple of the
    /// process's successful token forwards in that configuration. A lossy
    /// ring retransmits roughly in proportion to its loss rate; a storm
    /// is retransmission *instead of* progress, not alongside it.
    pub retx_storm_factor: u64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            starvation_factor: 8,
            starvation_min_ticks: 200,
            hole_storm_threshold: 64,
            obligation_growth_run: 3,
            retx_storm_threshold: 32,
            retx_storm_factor: 2,
        }
    }
}

/// Every anomaly kind [`detect`] can emit, one per detector — the
/// coverage target for harnesses (the chaos factory counts, per kind,
/// how often each detector fired across a soak and reports the ones
/// that never did). Keep in sync with the detectors below.
pub const ANOMALY_KINDS: &[&str] = &[
    "stuck_recovery",
    "token_starvation",
    "hole_request_storm",
    "obligation_growth",
    "undelivered_message",
    "unstamped_message",
    "retransmission_storm",
    "silent_state_loss",
];

/// One detected anomaly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Anomaly {
    /// Stable kind tag ("stuck_recovery", "token_starvation",
    /// "hole_request_storm", "obligation_growth", "undelivered_message",
    /// "unstamped_message", "retransmission_storm", "silent_state_loss").
    pub kind: &'static str,
    /// The process concerned, if the symptom is per-process.
    pub pid: Option<u32>,
    /// The configuration epoch concerned, if any.
    pub epoch: Option<u64>,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.kind)?;
        if let Some(p) = self.pid {
            write!(f, " P{p}")?;
        }
        if let Some(e) = self.epoch {
            write!(f, " epoch {e}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Runs every detector.
pub fn detect(
    tl: &Timeline,
    messages: &[MessageSpan],
    configs: &[ConfigSpan],
    cfg: &AnomalyConfig,
) -> Vec<Anomaly> {
    let mut out = Vec::new();
    stuck_recovery(configs, &mut out);
    token_starvation(tl, cfg, &mut out);
    hole_storms(tl, cfg, &mut out);
    obligation_growth(tl, cfg, &mut out);
    message_lifecycle_gaps(messages, &mut out);
    retransmission_storms(tl, cfg, &mut out);
    silent_state_loss(tl, &mut out);
    out
}

fn silent_state_loss(tl: &Timeline, out: &mut Vec<Anomaly>) {
    // A recovery that found a write-ahead log on disk but replayed nothing
    // from it rebuilt the process from scratch while persisted state sat
    // unread — exactly the failure mode durable storage exists to prevent.
    // (No WAL at all is a legitimate first boot; a snapshot with zero
    // trailing records is a freshly-compacted log.)
    for e in &tl.entries {
        if let TelemetryEvent::StorageRecovered {
            records,
            snapshot,
            wal,
        } = e.event
        {
            if wal && !snapshot && records == 0 {
                out.push(Anomaly {
                    kind: "silent_state_loss",
                    pid: Some(e.pid),
                    epoch: None,
                    detail: format!(
                        "recovery at t={} found a write-ahead log but replayed \
                         0 records and no snapshot; persisted state was ignored",
                        e.at
                    ),
                });
            }
        }
    }
}

fn stuck_recovery(configs: &[ConfigSpan], out: &mut Vec<Anomaly>) {
    for c in configs {
        if c.recovery_entered_at.is_some() && c.recovery_exited_at.is_none() {
            // A proposal that arrives mid-recovery restarts the algorithm
            // under a fresh epoch; the abandoned round never records an
            // exit of its own. If a higher epoch completed (exited
            // recovery or installed) after this one was entered, the
            // round was superseded, not stuck — routine under sustained
            // loss.
            let entered = c.recovery_entered_at.unwrap_or(0);
            let superseded = configs.iter().any(|d| {
                d.epoch > c.epoch
                    && d.recovery_exited_at
                        .or(d.installed_at)
                        .is_some_and(|at| at >= entered)
            });
            if superseded {
                continue;
            }
            let last = c.steps.iter().map(|s| s.step).max().unwrap_or(2);
            out.push(Anomaly {
                kind: "stuck_recovery",
                pid: None,
                epoch: Some(c.epoch),
                detail: format!(
                    "recovery toward R{}@P{} entered at t={} and never exited; \
                     last step reached: {} ({})",
                    c.epoch,
                    c.rep,
                    c.recovery_entered_at.unwrap_or(0),
                    last,
                    step_name(last)
                ),
            });
        }
    }
}

fn token_starvation(tl: &Timeline, cfg: &AnomalyConfig, out: &mut Vec<Anomaly>) {
    let mut visits: BTreeMap<(u32, u64), Vec<u64>> = BTreeMap::new();
    // Retransmission instants per epoch, any process: a gap some ring
    // member spent retransmitting into is a lossy-but-live ring healing
    // itself, not a starving one.
    let mut retx: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for e in &tl.entries {
        match e.event {
            TelemetryEvent::TokenReceived { epoch, .. } => {
                visits.entry((e.pid, epoch)).or_default().push(e.at);
            }
            TelemetryEvent::TokenRetransmitted { epoch, .. } => {
                retx.entry(epoch).or_default().push(e.at);
            }
            _ => {}
        }
    }
    for ((pid, epoch), ticks) in visits {
        if ticks.len() < 3 {
            continue;
        }
        let mut gaps: Vec<u64> = ticks.windows(2).map(|w| w[1] - w[0]).collect();
        let (widest, at) = ticks
            .windows(2)
            .map(|w| (w[1] - w[0], w[0]))
            .max()
            .expect("len >= 3");
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2].max(1);
        let bridged = retx
            .get(&epoch)
            .is_some_and(|r| r.iter().any(|&t| t > at && t < at + widest));
        if !bridged
            && widest >= cfg.starvation_min_ticks
            && widest >= cfg.starvation_factor * median
        {
            out.push(Anomaly {
                kind: "token_starvation",
                pid: Some(pid),
                epoch: Some(epoch),
                detail: format!(
                    "token silent for {widest} tick(s) after t={at} \
                     (median inter-visit gap {median})"
                ),
            });
        }
    }
}

fn retransmission_storms(tl: &Timeline, cfg: &AnomalyConfig, out: &mut Vec<Anomaly>) {
    let mut retx: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    let mut forwards: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for e in &tl.entries {
        match e.event {
            TelemetryEvent::TokenRetransmitted { epoch, .. } => {
                *retx.entry((e.pid, epoch)).or_insert(0) += 1;
            }
            TelemetryEvent::TokenForwarded { epoch, .. } => {
                *forwards.entry((e.pid, epoch)).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    for ((pid, epoch), count) in retx {
        let fwd = forwards.get(&(pid, epoch)).copied().unwrap_or(0).max(1);
        if count >= cfg.retx_storm_threshold && count >= cfg.retx_storm_factor * fwd {
            out.push(Anomaly {
                kind: "retransmission_storm",
                pid: Some(pid),
                epoch: Some(epoch),
                detail: format!(
                    "{count} token retransmission(s) against {fwd} successful \
                     forward(s); the ring is retransmitting instead of rotating"
                ),
            });
        }
    }
}

fn hole_storms(tl: &Timeline, cfg: &AnomalyConfig, out: &mut Vec<Anomaly>) {
    let mut holes: BTreeMap<(u32, u64), u64> = BTreeMap::new();
    for e in &tl.entries {
        if let TelemetryEvent::HolesRequested { epoch, count } = e.event {
            *holes.entry((e.pid, epoch)).or_insert(0) += count;
        }
    }
    for ((pid, epoch), total) in holes {
        if total >= cfg.hole_storm_threshold {
            out.push(Anomaly {
                kind: "hole_request_storm",
                pid: Some(pid),
                epoch: Some(epoch),
                detail: format!(
                    "{total} missing ordinal(s) requested in one configuration \
                     (threshold {})",
                    cfg.hole_storm_threshold
                ),
            });
        }
    }
}

fn obligation_growth(tl: &Timeline, cfg: &AnomalyConfig, out: &mut Vec<Anomaly>) {
    let mut samples: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for e in &tl.entries {
        if let TelemetryEvent::ObligationSetSize { size } = e.event {
            samples.entry(e.pid).or_default().push(size);
        }
    }
    for (pid, sizes) in samples {
        // Only a growth run still standing at the *end* of the recording
        // is suspicious: superseded recovery rounds under loss grow the
        // set a few times and then retire it (the engine samples size 0
        // at Step 6), which is healing, not a leak.
        let mut run = 1usize;
        for w in sizes.windows(2) {
            if w[1] > w[0] {
                run += 1;
            } else {
                run = 1;
            }
        }
        if run >= cfg.obligation_growth_run {
            out.push(Anomaly {
                kind: "obligation_growth",
                pid: Some(pid),
                epoch: None,
                detail: format!(
                    "obligation set still growing after {run} consecutive recoveries \
                     (sizes {sizes:?}); Step 5.c obligations are not being retired"
                ),
            });
        }
    }
}

fn message_lifecycle_gaps(messages: &[MessageSpan], out: &mut Vec<Anomaly>) {
    for m in messages {
        if m.stamped_at.is_some() && m.deliveries == 0 {
            out.push(Anomaly {
                kind: "undelivered_message",
                pid: Some(m.sender),
                epoch: m.epoch,
                detail: format!(
                    "P{}#{} was stamped at t={} but never delivered anywhere",
                    m.sender,
                    m.counter,
                    m.stamped_at.unwrap_or(0)
                ),
            });
        } else if m.originated_at.is_some() && m.stamped_at.is_none() {
            out.push(Anomaly {
                kind: "unstamped_message",
                pid: Some(m.sender),
                epoch: None,
                detail: format!(
                    "P{}#{} was originated at t={} but the token never stamped it",
                    m.sender,
                    m.counter,
                    m.originated_at.unwrap_or(0)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evs_core::trace_io::parse_trace;
    use evs_core::Trace;
    use evs_telemetry::Telemetry;

    #[test]
    fn detects_stuck_recovery_and_starvation() {
        let t = Telemetry::enabled(0);
        t.record(
            1,
            TelemetryEvent::ConfigCommitted {
                epoch: 3,
                rep: 0,
                members: 2,
            },
        );
        t.record(2, TelemetryEvent::RecoveryStepEntered { step: 2, epoch: 3 });
        t.record(2, TelemetryEvent::RecoveryStepReached { step: 3, epoch: 3 });
        // Token visits with one pathological gap.
        for at in [10u64, 20, 30, 40, 1000, 1010] {
            t.record(
                at,
                TelemetryEvent::TokenReceived {
                    epoch: 2,
                    token_id: at,
                    aru: 0,
                },
            );
        }
        let tl = Timeline::from_handles([&t]);
        let msgs = MessageSpan::derive(&tl, &Trace::default());
        let cfgs = ConfigSpan::derive(&tl, &Trace::default());
        let anomalies = detect(&tl, &msgs, &cfgs, &AnomalyConfig::default());
        assert!(
            anomalies
                .iter()
                .any(|a| a.kind == "stuck_recovery"
                    && a.detail.contains("broadcast exchange report")),
            "{anomalies:?}"
        );
        assert!(
            anomalies
                .iter()
                .any(|a| a.kind == "token_starvation" && a.pid == Some(0)),
            "{anomalies:?}"
        );
    }

    #[test]
    fn superseded_recovery_is_not_stuck() {
        // Recovery toward epoch 3 is entered but never exits: a fresh
        // proposal (epoch 4) restarted the algorithm mid-flight and that
        // round completed. The abandoned epoch-3 round must not be
        // flagged.
        let t = Telemetry::enabled(0);
        t.record(2, TelemetryEvent::RecoveryStepEntered { step: 2, epoch: 3 });
        t.record(2, TelemetryEvent::RecoveryStepReached { step: 3, epoch: 3 });
        t.record(9, TelemetryEvent::RecoveryStepReached { step: 3, epoch: 4 });
        t.record(15, TelemetryEvent::RecoveryStepExited { step: 6, epoch: 4 });
        t.record(
            16,
            TelemetryEvent::ConfigInstalled {
                epoch: 4,
                rep: 0,
                members: 2,
            },
        );
        let tl = Timeline::from_handles([&t]);
        let msgs = MessageSpan::derive(&tl, &Trace::default());
        let cfgs = ConfigSpan::derive(&tl, &Trace::default());
        let anomalies = detect(&tl, &msgs, &cfgs, &AnomalyConfig::default());
        assert!(
            !anomalies.iter().any(|a| a.kind == "stuck_recovery"),
            "{anomalies:?}"
        );
    }

    #[test]
    fn retired_obligations_are_not_growth() {
        let detect_sizes = |sizes: &[u32]| {
            let t = Telemetry::enabled(0);
            for (i, size) in sizes.iter().enumerate() {
                t.record(
                    i as u64 + 1,
                    TelemetryEvent::ObligationSetSize { size: *size },
                );
            }
            let tl = Timeline::from_handles([&t]);
            detect(&tl, &[], &[], &AnomalyConfig::default())
        };
        // Grew across three recoveries, then Step 6 retired everything:
        // healing under loss, not a leak.
        assert!(
            detect_sizes(&[1, 2, 3, 0]).is_empty(),
            "retired set must not be flagged"
        );
        // Still growing when the recording ends: that is the leak.
        let anomalies = detect_sizes(&[1, 2, 3]);
        assert!(
            anomalies
                .iter()
                .any(|a| a.kind == "obligation_growth" && a.pid == Some(0)),
            "{anomalies:?}"
        );
    }

    #[test]
    fn quiet_run_has_no_anomalies() {
        let t = Telemetry::enabled(0);
        for at in [10u64, 20, 30, 40] {
            t.record(
                at,
                TelemetryEvent::TokenReceived {
                    epoch: 1,
                    token_id: at,
                    aru: 0,
                },
            );
        }
        let tl = Timeline::from_handles([&t]);
        let anomalies = detect(
            &tl,
            &MessageSpan::derive(&tl, &Trace::default()),
            &ConfigSpan::derive(&tl, &Trace::default()),
            &AnomalyConfig::default(),
        );
        assert!(anomalies.is_empty(), "{anomalies:?}");
    }

    #[test]
    fn retransmission_activity_suppresses_starvation() {
        // Same pathological visit gap as the starvation test, but another
        // ring member retransmitted the token inside the gap: the ring
        // was lossy-but-live, so no starvation is flagged.
        let a = Telemetry::enabled(0);
        for at in [10u64, 20, 30, 40, 1000, 1010] {
            a.record(
                at,
                TelemetryEvent::TokenReceived {
                    epoch: 2,
                    token_id: at,
                    aru: 0,
                },
            );
        }
        let b = Telemetry::enabled(1);
        b.record(
            300,
            TelemetryEvent::TokenRetransmitted {
                epoch: 2,
                token_id: 5,
            },
        );
        let tl = Timeline::from_handles([&a, &b]);
        let anomalies = detect(
            &tl,
            &MessageSpan::derive(&tl, &Trace::default()),
            &ConfigSpan::derive(&tl, &Trace::default()),
            &AnomalyConfig::default(),
        );
        assert!(
            !anomalies.iter().any(|x| x.kind == "token_starvation"),
            "{anomalies:?}"
        );
    }

    #[test]
    fn detects_retransmission_storm_but_not_proportional_loss() {
        let cfg = AnomalyConfig::default();
        // Storm: retransmissions vastly outnumber successful forwards.
        let stormy = Telemetry::enabled(0);
        stormy.record(
            1,
            TelemetryEvent::TokenForwarded {
                epoch: 1,
                token_id: 1,
                to: 1,
            },
        );
        for at in 0..cfg.retx_storm_threshold {
            stormy.record(
                10 + at,
                TelemetryEvent::TokenRetransmitted {
                    epoch: 1,
                    token_id: 1,
                },
            );
        }
        let tl = Timeline::from_handles([&stormy]);
        let anomalies = detect(
            &tl,
            &MessageSpan::derive(&tl, &Trace::default()),
            &ConfigSpan::derive(&tl, &Trace::default()),
            &cfg,
        );
        assert!(
            anomalies
                .iter()
                .any(|x| x.kind == "retransmission_storm" && x.pid == Some(0)),
            "{anomalies:?}"
        );

        // Proportional loss: plenty of retransmissions, but forwards keep
        // pace — a lossy ring that still rotates is not a storm.
        let lossy = Telemetry::enabled(0);
        for at in 0..cfg.retx_storm_threshold {
            lossy.record(
                10 + at,
                TelemetryEvent::TokenRetransmitted {
                    epoch: 1,
                    token_id: at,
                },
            );
            lossy.record(
                10 + at,
                TelemetryEvent::TokenForwarded {
                    epoch: 1,
                    token_id: at,
                    to: 1,
                },
            );
        }
        let tl = Timeline::from_handles([&lossy]);
        let anomalies = detect(
            &tl,
            &MessageSpan::derive(&tl, &Trace::default()),
            &ConfigSpan::derive(&tl, &Trace::default()),
            &cfg,
        );
        assert!(
            !anomalies.iter().any(|x| x.kind == "retransmission_storm"),
            "{anomalies:?}"
        );
    }

    #[test]
    fn detects_silent_state_loss_but_not_fresh_boot() {
        let detect_one = |records: u64, snapshot: bool, wal: bool| {
            let t = Telemetry::enabled(1);
            t.record(
                5,
                TelemetryEvent::StorageRecovered {
                    records,
                    snapshot,
                    wal,
                },
            );
            let tl = Timeline::from_handles([&t]);
            detect(&tl, &[], &[], &AnomalyConfig::default())
        };
        // WAL present, nothing replayed, no snapshot: persisted state was
        // silently dropped.
        let anomalies = detect_one(0, false, true);
        assert!(
            anomalies
                .iter()
                .any(|a| a.kind == "silent_state_loss" && a.pid == Some(1)),
            "{anomalies:?}"
        );
        // First boot (no WAL at all) is fine.
        assert!(detect_one(0, false, false).is_empty());
        // Freshly-compacted log: snapshot carried the state.
        assert!(detect_one(0, true, true).is_empty());
        // Normal replay.
        assert!(detect_one(7, false, true).is_empty());
    }

    #[test]
    fn message_gaps_join_the_trace_with_the_timeline() {
        // P0#1 was originated and sent but never delivered; P0#2 was
        // originated but never sent.
        let t = Telemetry::enabled(0);
        for counter in [1, 2] {
            t.record(
                counter,
                TelemetryEvent::MessageOriginated {
                    sender: 0,
                    counter,
                    service: "safe",
                },
            );
        }
        let trace = parse_trace("process 0\n  @3 send 0#1 R1.0 safe\n").unwrap();
        let tl = Timeline::from_handles([&t]);
        let msgs = MessageSpan::derive(&tl, &trace);
        let anomalies = detect(&tl, &msgs, &[], &AnomalyConfig::default());
        let kinds: Vec<&str> = anomalies.iter().map(|a| a.kind).collect();
        assert_eq!(
            kinds,
            ["undelivered_message", "unstamped_message"],
            "{anomalies:?}"
        );
        assert_eq!(anomalies[0].epoch, Some(1));
    }
}
