//! The `evs-top` dashboard model: per-endpoint scrape history, respawn
//! detection, and a terminal table renderer.
//!
//! The model is deliberately UI-free — it takes scrapes in and hands a
//! rendered `String` back — so it is unit-testable without a terminal
//! and reusable by the CI smoke (which asserts on one rendered frame).

use evs_telemetry::{names, Exposition, Phase};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded scrape: the exposition plus the scraper's clock.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Microseconds on the scraper's monotonic clock when the scrape
    /// returned; rate denominators come from deltas of this.
    pub at_us: u64,
    /// The parsed exposition.
    pub expo: Exposition,
}

/// Scrape history of one endpoint.
#[derive(Clone, Debug, Default)]
pub struct NodeState {
    /// The previous successful scrape (rate baseline).
    pub prev: Option<Sample>,
    /// The latest successful scrape.
    pub last: Option<Sample>,
    /// Process incarnations seen: 1 after the first scrape, +1 every
    /// time the snapshot sequence regresses or the OS pid changes —
    /// i.e. across every `kill -9`/respawn.
    pub incarnations: u32,
    /// Scrapes that timed out or failed to parse.
    pub failures: u64,
}

/// The whole dashboard: every endpoint's scrape history.
#[derive(Clone, Debug, Default)]
pub struct TopState {
    nodes: BTreeMap<String, NodeState>,
}

impl TopState {
    /// An empty dashboard.
    pub fn new() -> TopState {
        TopState::default()
    }

    /// Records a successful scrape of `endpoint` at scraper time
    /// `at_us`. Detects respawns: a sequence number at or below the
    /// previous one, or a changed `os_pid` info key, starts a new
    /// incarnation (and drops the rate baseline, which spans processes).
    pub fn record(&mut self, endpoint: &str, at_us: u64, expo: Exposition) {
        let node = self.nodes.entry(endpoint.to_string()).or_default();
        let respawned = match &node.last {
            None => true,
            Some(prev_sample) => {
                expo.seq <= prev_sample.expo.seq
                    || expo.info.get("os_pid") != prev_sample.expo.info.get("os_pid")
            }
        };
        if respawned {
            node.incarnations += 1;
            node.prev = None;
        } else {
            node.prev = node.last.take();
        }
        node.last = Some(Sample { at_us, expo });
    }

    /// Records a failed scrape (timeout, parse error) of `endpoint`.
    pub fn record_failure(&mut self, endpoint: &str) {
        self.nodes.entry(endpoint.to_string()).or_default().failures += 1;
    }

    /// The recorded state of `endpoint`, if any.
    pub fn node(&self, endpoint: &str) -> Option<&NodeState> {
        self.nodes.get(endpoint)
    }

    /// Number of endpoints with at least one successful scrape.
    pub fn live_nodes(&self) -> usize {
        self.nodes.values().filter(|n| n.last.is_some()).count()
    }

    /// Renders the dashboard table. `elapsed_us` is the scraper's
    /// uptime, shown in the header.
    pub fn render(&self, elapsed_us: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "evs-top — {} node(s), t={:.1}s",
            self.live_nodes(),
            elapsed_us as f64 / 1e6
        );
        let _ = writeln!(
            out,
            "{:<21} {:>3} {:>3} {:<6} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9} {:>6} {:>7} {:>6}",
            "ENDPOINT",
            "PID",
            "INC",
            "CONFIG",
            "ROT/s",
            "AGR/s",
            "SAFE/s",
            "RETX/s",
            "DROP/s",
            "WALp99us",
            "BP",
            "ARULAG",
            "PARK%"
        );
        for (endpoint, node) in &self.nodes {
            let Some(last) = &node.last else {
                let _ = writeln!(
                    out,
                    "{endpoint:<21} (no scrape yet, {} failure(s))",
                    node.failures
                );
                continue;
            };
            let e = &last.expo;
            let rate = |name: &str| -> String {
                match &node.prev {
                    Some(prev) => {
                        let dt = last.at_us.saturating_sub(prev.at_us) as f64 / 1e6;
                        if dt <= 0.0 {
                            return "-".to_string();
                        }
                        let now = e.counters.get(name).copied().unwrap_or(0);
                        let before = prev.expo.counters.get(name).copied().unwrap_or(0);
                        format!("{:.0}", now.saturating_sub(before) as f64 / dt)
                    }
                    None => "-".to_string(),
                }
            };
            let wal_p99 = e
                .hists
                .get(names::WAL_SYNC_NS)
                .map(|h| format!("{}", h.p99 / 1_000))
                .unwrap_or_else(|| "-".to_string());
            let parked = e
                .phases
                .get(Phase::Park.name())
                .map(|p| format!("{:.1}", p.ppm as f64 / 10_000.0))
                .unwrap_or_else(|| "-".to_string());
            let _ =
                writeln!(
                out,
                "{:<21} {:>3} {:>3} {:<6} {:>8} {:>8} {:>8} {:>7} {:>7} {:>9} {:>6} {:>7} {:>6}",
                endpoint,
                e.pid,
                node.incarnations,
                e.info.get("config").map(String::as_str).unwrap_or("-"),
                rate(names::TOKEN_ROTATIONS),
                rate(names::DELIVERED_AGREED),
                rate(names::DELIVERED_SAFE),
                rate(names::TOKEN_RETRANSMISSIONS),
                rate(names::LINK_DROPS),
                wal_p99,
                e.counters.get(names::BROKER_BACKPRESSURE).copied().unwrap_or(0),
                e.info.get("aru_lag").map(String::as_str).unwrap_or("-"),
                parked,
            );
        }
        if let Some(progress) = self.chaos_progress() {
            out.push_str(&progress);
            out.push('\n');
        }
        out
    }

    /// A chaos-campaign progress line, when any scraped process carries
    /// the campaign gauges.
    fn chaos_progress(&self) -> Option<String> {
        for (endpoint, node) in &self.nodes {
            let expo = &node.last.as_ref()?.expo;
            let total = expo
                .gauges
                .get(names::CHAOS_CAMPAIGN_TOTAL)
                .copied()
                .unwrap_or(0);
            if total > 0 {
                let done = expo
                    .gauges
                    .get(names::CHAOS_CAMPAIGN_DONE)
                    .copied()
                    .unwrap_or(0);
                let failures = expo
                    .gauges
                    .get(names::CHAOS_CAMPAIGN_FAILURES)
                    .copied()
                    .unwrap_or(0);
                return Some(format!(
                    "chaos @{endpoint}: {done}/{total} plans ({:.1}%), {failures} failure(s)",
                    done as f64 * 100.0 / total as f64
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expo(seq: u64, rotations: u64, os_pid: &str) -> Exposition {
        let mut e = Exposition {
            seq,
            ..Default::default()
        };
        e.counters
            .insert(names::TOKEN_ROTATIONS.to_string(), rotations);
        e.info.insert("os_pid".to_string(), os_pid.to_string());
        e.info.insert("config".to_string(), "R1@P0".to_string());
        e
    }

    #[test]
    fn rates_come_from_deltas() {
        let mut top = TopState::new();
        top.record("127.0.0.1:9000", 0, expo(1, 100, "10"));
        top.record("127.0.0.1:9000", 2_000_000, expo(2, 300, "10"));
        let frame = top.render(2_000_000);
        // 200 rotations over 2 seconds.
        assert!(frame.contains("100"), "frame: {frame}");
        assert_eq!(top.node("127.0.0.1:9000").unwrap().incarnations, 1);
    }

    #[test]
    fn seq_regression_means_respawn() {
        let mut top = TopState::new();
        top.record("n0", 0, expo(5, 500, "10"));
        top.record("n0", 1_000_000, expo(1, 3, "11"));
        let node = top.node("n0").unwrap();
        assert_eq!(node.incarnations, 2);
        // Rate baseline dropped: the next frame shows no rate.
        assert!(node.prev.is_none());
    }

    #[test]
    fn os_pid_change_alone_means_respawn() {
        let mut top = TopState::new();
        top.record("n0", 0, expo(5, 500, "10"));
        // Seq advanced but the OS pid changed → still a respawn.
        top.record("n0", 1_000_000, expo(6, 2, "11"));
        assert_eq!(top.node("n0").unwrap().incarnations, 2);
    }

    #[test]
    fn failures_are_counted_and_rendered() {
        let mut top = TopState::new();
        top.record_failure("n1");
        top.record_failure("n1");
        assert_eq!(top.node("n1").unwrap().failures, 2);
        assert_eq!(top.live_nodes(), 0);
        assert!(top.render(0).contains("no scrape yet, 2 failure(s)"));
    }

    #[test]
    fn chaos_progress_line_appears_when_gauges_present() {
        let mut top = TopState::new();
        let mut e = expo(1, 0, "10");
        e.gauges
            .insert(names::CHAOS_CAMPAIGN_TOTAL.to_string(), 200);
        e.gauges.insert(names::CHAOS_CAMPAIGN_DONE.to_string(), 50);
        e.gauges
            .insert(names::CHAOS_CAMPAIGN_FAILURES.to_string(), 1);
        top.record("campaign", 0, e);
        let frame = top.render(0);
        assert!(frame.contains("chaos @campaign: 50/200 plans (25.0%), 1 failure(s)"));
    }
}
