//! The text exposition format: one process's telemetry as a
//! line-oriented snapshot — the workspace's one metrics document. An
//! `OBS?` scrape answers with one, [`Telemetry::snapshot`] returns one,
//! a run's snapshot is one per process (summed by [`counter_totals`] and
//! [`total`]), and the bench baseline is one per scenario, concatenated.
//! Every one round-trips through [`Exposition::parse`].
//!
//! Format (one record per line, space-separated):
//!
//! ```text
//! EVSOBS 1
//! pid 2
//! seq 17
//! info config R3@P0
//! info role daemon
//! counter token_rotations 4211
//! gauge obligation_set_size 0
//! hist wal_sync_ns 130 5561000 92000 31000 61000 92000
//! phase park 181000000 905123
//! end
//! ```
//!
//! `hist` fields are `count sum max p50 p90 p99`; `phase` fields are
//! total attributed nanoseconds and the phase's fraction of all
//! attributed time in parts-per-million. Fractions are integers so the
//! text round-trips exactly — no float formatting instability — and the
//! ppm values sum to 1e6 (minus at most one truncated ppm per phase).
//! The `end` trailer guards against datagram truncation: a parse
//! without it fails.

use crate::metrics::Registry;
use crate::{names, Phase, Telemetry};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// First line of every exposition: magic + format version.
pub const EXPO_HEADER: &str = "EVSOBS 1";

/// Summary statistics of one log-bucketed histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistStat {
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// One live-loop phase's share of wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Total nanoseconds attributed to the phase.
    pub ns: u64,
    /// The phase's fraction of all attributed time, in parts per
    /// million (so 905123 ≈ 90.5%).
    pub ppm: u64,
}

/// A parsed (or to-be-rendered) exposition snapshot of one process.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Exposition {
    /// The process's telemetry pid.
    pub pid: u32,
    /// Monotonic snapshot sequence number; resets when the process
    /// respawns, which is how `evs-top` detects a new incarnation.
    pub seq: u64,
    /// Free-form info keys (role, config, os_pid, members, …). Keys are
    /// single tokens; values may contain spaces but not newlines.
    pub info: BTreeMap<String, String>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Log-histogram summaries by name.
    pub hists: BTreeMap<String, HistStat>,
    /// Phase-time attribution by phase name.
    pub phases: BTreeMap<String, PhaseStat>,
}

impl Exposition {
    /// Builds a snapshot of `telemetry` with the given sequence number
    /// and extra info keys. Returns `None` on a detached handle.
    pub fn from_telemetry(
        seq: u64,
        telemetry: &Telemetry,
        info: impl IntoIterator<Item = (String, String)>,
    ) -> Option<Exposition> {
        let mut expo = telemetry.snapshot()?;
        expo.seq = seq;
        expo.info = info
            .into_iter()
            .map(|(k, v)| {
                (
                    k.split_whitespace().collect::<Vec<_>>().join("_"),
                    v.replace(['\n', '\r'], " "),
                )
            })
            .collect();
        Some(expo)
    }

    /// Snapshots every instrument of `registry` (sequence 0, no info).
    ///
    /// Phase entries are derived from the `phase_ns_*` counters written
    /// by a `PhaseClock`; processes without one simply expose no
    /// `phase` lines.
    pub(crate) fn from_registry(pid: u32, registry: &Registry) -> Exposition {
        let counters = registry.counter_values();
        let mut phases = BTreeMap::new();
        let total: u64 = Phase::ALL
            .iter()
            .filter_map(|p| counters.get(p.counter_name()))
            .sum();
        for p in Phase::ALL {
            let ns = counters.get(p.counter_name()).copied().unwrap_or(0);
            // checked_div: no phase clock ran → no phase lines at all.
            let Some(ppm) = ns.saturating_mul(1_000_000).checked_div(total) else {
                break;
            };
            phases.insert(p.name().to_string(), PhaseStat { ns, ppm });
        }
        Exposition {
            pid,
            seq: 0,
            info: BTreeMap::new(),
            counters,
            gauges: registry.gauge_values(),
            hists: registry
                .log_histogram_values()
                .into_iter()
                .map(|(name, h)| {
                    (
                        name,
                        HistStat {
                            count: h.count,
                            sum: h.sum,
                            max: h.max,
                            p50: h.percentile(0.5),
                            p90: h.percentile(0.9),
                            p99: h.percentile(0.99),
                        },
                    )
                })
                .collect(),
            phases,
        }
    }

    /// Total nanoseconds attributed across all phases.
    pub fn phase_total_ns(&self) -> u64 {
        self.phases.values().map(|p| p.ns).sum()
    }

    /// The loop wall-clock gauge set at the last phase mark, if any.
    pub fn loop_ns(&self) -> Option<u64> {
        self.gauges
            .get(names::PHASE_LOOP_NS)
            .map(|&v| v.max(0) as u64)
    }

    /// Fraction of loop wall-clock covered by phase attribution
    /// (0.0–~1.0; `None` without a phase clock). The chained-mark design
    /// makes this ≈1.0 by construction — a shortfall means marks are
    /// missing from some loop path.
    pub fn coverage(&self) -> Option<f64> {
        let loop_ns = self.loop_ns()?;
        if loop_ns == 0 {
            return None;
        }
        Some(self.phase_total_ns() as f64 / loop_ns as f64)
    }

    /// Renders the exposition text (see module docs for the grammar).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(EXPO_HEADER);
        out.push('\n');
        let _ = writeln!(out, "pid {}", self.pid);
        let _ = writeln!(out, "seq {}", self.seq);
        for (k, v) in &self.info {
            let _ = writeln!(out, "info {k} {v}");
        }
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {k} {v}");
        }
        for (k, h) in &self.hists {
            let _ = writeln!(
                out,
                "hist {k} {} {} {} {} {} {}",
                h.count, h.sum, h.max, h.p50, h.p90, h.p99
            );
        }
        for (k, p) in &self.phases {
            let _ = writeln!(out, "phase {k} {} {}", p.ns, p.ppm);
        }
        out.push_str("end\n");
        out
    }

    /// Parses exposition text back into a structured snapshot.
    ///
    /// The grammar is exactly what [`Exposition::to_text`] writes, so
    /// `to_text(parse(t)) == t` for every accepted `t`: unknown line kinds
    /// (version skew — the version is in the header for exactly that
    /// reason), missing or extra fields, blank lines and any other text
    /// `to_text` would not have produced are rejected. A missing `end`
    /// trailer means the datagram was truncated.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the first offending line (1-based).
    pub fn parse(text: &str) -> Result<Exposition, ParseError> {
        let at = |line: usize, what| ParseError { line, what };
        let mut lines = text.lines().zip(1..);
        if lines.next().map(|(l, _)| l) != Some(EXPO_HEADER) {
            return Err(at(1, ParseErrorKind::Header));
        }
        let mut expo = Exposition::default();
        let mut ended = false;
        let mut last = 1;
        for (line, n) in lines {
            last = n;
            if ended {
                return Err(at(n, ParseErrorKind::AfterEnd));
            }
            let malformed = at(n, ParseErrorKind::Malformed);
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let keyed = || rest.split_once(' ').ok_or(malformed);
            match kind {
                "end" => ended = true,
                "pid" => [expo.pid] = fields(rest).ok_or(malformed)?,
                "seq" => [expo.seq] = fields(rest).ok_or(malformed)?,
                "info" => {
                    let (key, value) = keyed()?;
                    expo.info.insert(key.to_string(), value.to_string());
                }
                "counter" => {
                    let (key, value) = keyed()?;
                    let [n] = fields(value).ok_or(malformed)?;
                    expo.counters.insert(key.to_string(), n);
                }
                "gauge" => {
                    let (key, value) = keyed()?;
                    let [n] = fields(value).ok_or(malformed)?;
                    expo.gauges.insert(key.to_string(), n);
                }
                "hist" => {
                    let (key, value) = keyed()?;
                    let [count, sum, max, p50, p90, p99] = fields(value).ok_or(malformed)?;
                    let h = HistStat {
                        count,
                        sum,
                        max,
                        p50,
                        p90,
                        p99,
                    };
                    expo.hists.insert(key.to_string(), h);
                }
                "phase" => {
                    let (key, value) = keyed()?;
                    let [ns, ppm] = fields(value).ok_or(malformed)?;
                    expo.phases.insert(key.to_string(), PhaseStat { ns, ppm });
                }
                _ => return Err(at(n, ParseErrorKind::UnknownLine)),
            }
        }
        if !ended {
            return Err(at(last + 1, ParseErrorKind::Truncated));
        }
        // Order, duplicates, spacing and number spelling are checked in one
        // place: the canonical rendering of what was read must be the input.
        // The error names the first line (newline included) that differs.
        let canonical = expo.to_text();
        if canonical != text {
            let line = canonical
                .split_inclusive('\n')
                .zip(text.split_inclusive('\n'))
                .position(|(a, b)| a != b)
                .map_or(last + 1, |i| i + 1);
            return Err(at(line, ParseErrorKind::NonCanonical));
        }
        Ok(expo)
    }
}

/// Why [`Exposition::parse`] refused a text, and on which line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// The offending line, 1-based.
    pub line: usize,
    /// What was wrong with it.
    pub what: ParseErrorKind,
}

/// What [`Exposition::parse`] found wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The first line is not [`EXPO_HEADER`] (or the text is empty).
    Header,
    /// A line kind the format does not have (version skew).
    UnknownLine,
    /// A known line kind with missing, extra or non-numeric fields.
    Malformed,
    /// A line after the `end` trailer.
    AfterEnd,
    /// No `end` trailer: the text was cut short.
    Truncated,
    /// Well-formed lines that `to_text` would have written otherwise
    /// (order, duplicates, spacing, number spelling).
    NonCanonical,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ParseErrorKind::Header => "missing exposition header",
            ParseErrorKind::UnknownLine => "unknown exposition line",
            ParseErrorKind::Malformed => "malformed exposition line",
            ParseErrorKind::AfterEnd => "line after the end trailer",
            ParseErrorKind::Truncated => "truncated exposition: missing end trailer",
            ParseErrorKind::NonCanonical => "non-canonical exposition text",
        })
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Exactly `N` space-separated numbers, no more and no fewer.
fn fields<T: std::str::FromStr + Copy + Default, const N: usize>(text: &str) -> Option<[T; N]> {
    let mut out = [T::default(); N];
    let mut parts = text.split(' ');
    for slot in &mut out {
        *slot = parts.next()?.parse().ok()?;
    }
    parts.next().is_none().then_some(out)
}

/// Sums each counter across a run's snapshots (one per process).
pub fn counter_totals(run: &[Exposition]) -> BTreeMap<String, u64> {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for (name, v) in run.iter().flat_map(|e| &e.counters) {
        *totals.entry(name.clone()).or_insert(0) += v;
    }
    totals
}

/// The summed value of one counter across a run's snapshots.
pub fn total(run: &[Exposition], counter: &str) -> u64 {
    run.iter().filter_map(|e| e.counters.get(counter)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PhaseClock;

    #[test]
    fn exposition_round_trips() {
        let t = Telemetry::enabled(4);
        t.counter(names::TOKEN_ROTATIONS).add(17);
        t.gauge(names::OBLIGATION_SET_SIZE).set(-2);
        t.log_histogram(names::WAL_SYNC_NS).observe(31_000);
        t.log_histogram(names::WAL_SYNC_NS).observe(92_000);
        let mut clock = PhaseClock::new(&t);
        clock.mark(Phase::Park);
        clock.mark(Phase::Dispatch);
        let expo = Exposition::from_telemetry(
            9,
            &t,
            [
                ("config".to_string(), "R3@P0".to_string()),
                ("members".to_string(), "P0 P1 P2".to_string()),
            ],
        )
        .unwrap();
        let text = expo.to_text();
        let parsed = Exposition::parse(&text).unwrap();
        assert_eq!(parsed, expo);
        assert_eq!(parsed.pid, 4);
        assert_eq!(parsed.seq, 9);
        assert_eq!(parsed.info["members"], "P0 P1 P2");
        assert_eq!(parsed.counters[names::TOKEN_ROTATIONS], 17);
        assert_eq!(parsed.gauges[names::OBLIGATION_SET_SIZE], -2);
        assert_eq!(parsed.hists[names::WAL_SYNC_NS].count, 2);
        assert_eq!(parsed.hists[names::WAL_SYNC_NS].max, 92_000);
    }

    #[test]
    fn phase_ppms_sum_to_about_one_million() {
        let t = Telemetry::enabled(0);
        let mut clock = PhaseClock::new(&t);
        for _ in 0..20 {
            std::thread::sleep(std::time::Duration::from_micros(20));
            clock.mark(Phase::Park);
            clock.mark(Phase::Recv);
            clock.mark(Phase::Send);
        }
        let expo = Exposition::from_telemetry(1, &t, []).unwrap();
        let ppm_sum: u64 = expo.phases.values().map(|p| p.ppm).sum();
        // Integer truncation loses at most 1 ppm per phase.
        assert!(ppm_sum > 1_000_000 - Phase::COUNT as u64);
        assert!(ppm_sum <= 1_000_000);
        // Chained marks attribute all loop time → coverage ≈ 1.
        let cov = expo.coverage().unwrap();
        assert!(cov > 0.99 && cov < 1.01, "coverage {cov}");
    }

    #[test]
    fn detached_telemetry_yields_none() {
        assert!(Exposition::from_telemetry(0, &Telemetry::disabled(), []).is_none());
    }

    #[test]
    fn parse_names_the_offending_line() {
        let t = Telemetry::enabled(0);
        t.counter(names::MESSAGES_SENT).add(1);
        let text = Exposition::from_telemetry(3, &t, []).unwrap().to_text();
        let err = |text: &str| Exposition::parse(text).unwrap_err();
        let at = |line, what| ParseError { line, what };
        // Header, pid, seq, one counter, end: the trailer is line 5.
        let truncated = text.strip_suffix("end\n").unwrap();
        assert_eq!(err(truncated), at(5, ParseErrorKind::Truncated));
        assert_eq!(err(""), at(1, ParseErrorKind::Header));
        assert_eq!(err("NOPE 9\nend\n"), at(1, ParseErrorKind::Header));
        let skewed = format!("{EXPO_HEADER}\nwat 1\nend\n");
        assert_eq!(err(&skewed), at(2, ParseErrorKind::UnknownLine));
        let garbled = text.replace("messages_sent 1", "messages_sent notanum");
        assert_eq!(err(&garbled), at(4, ParseErrorKind::Malformed));
        assert_eq!(
            err(&format!("{text}end\n")),
            at(6, ParseErrorKind::AfterEnd)
        );
        let padded = text.replace("seq 3", "seq 03");
        assert_eq!(err(&padded), at(3, ParseErrorKind::NonCanonical));
        let unterminated = text.strip_suffix('\n').unwrap();
        assert_eq!(err(unterminated), at(5, ParseErrorKind::NonCanonical));
        assert_eq!(err(&skewed).to_string(), "line 2: unknown exposition line");
    }

    #[test]
    fn totals_sum_across_processes() {
        let a = Telemetry::enabled(0);
        a.counter("messages_sent").add(3);
        a.counter("token_rotations").add(10);
        let b = Telemetry::enabled(1);
        b.counter("messages_sent").add(4);
        let run: Vec<Exposition> = [&a, &b, &Telemetry::disabled()]
            .into_iter()
            .filter_map(Telemetry::snapshot)
            .collect();
        assert_eq!(run.len(), 2);
        assert_eq!(total(&run, "messages_sent"), 7);
        assert_eq!(counter_totals(&run)["token_rotations"], 10);
        assert_eq!(total(&run, "absent"), 0);
    }

    #[test]
    fn info_keys_and_values_are_sanitized() {
        let t = Telemetry::enabled(0);
        let expo = Exposition::from_telemetry(
            0,
            &t,
            [("two words".to_string(), "line\nbreak".to_string())],
        )
        .unwrap();
        let parsed = Exposition::parse(&expo.to_text()).unwrap();
        assert_eq!(parsed.info["two_words"], "line break");
    }
}
