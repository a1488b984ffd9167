//! Counters, gauges and log-bucketed histograms behind a per-process
//! [`Registry`].
//!
//! All mutation is a single atomic operation, so instruments can be
//! updated from any thread (the live driver runs one thread per process
//! and the main thread snapshots concurrently). Name resolution takes a
//! `std::sync::RwLock` once per lookup; hot paths resolve their
//! instruments up front and hold the returned handles, after which an
//! update is one `fetch_add`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A monotonically increasing counter.
///
/// The default handle is *detached*: every operation is a no-op. Handles
/// obtained from a [`Registry`] share the registry's storage, so clones
/// and re-lookups of the same name observe one value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached counter: increments vanish, `get` returns 0.
    pub fn detached() -> Self {
        Counter(None)
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A detached gauge: updates vanish, `get` returns 0.
    pub fn detached() -> Self {
        Gauge(None)
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 when detached).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

// ---- log-bucketed histograms ----
//
// The one histogram of the workspace. Its users span simulated ticks
// (delivery latency), small counts (messages per token visit, ops per
// broker batch) and wall-clock nanoseconds up to tens of milliseconds
// (live-loop phases, WAL sync), so the layout needs no bounds chosen up
// front: values 0–15 get one exact bucket each, and every power-of-two
// octave above is split into 8 sub-buckets, bounding the relative
// quantile error at 12.5% across the whole `u64` range. All buckets
// exist up front (no allocation, no locking on observe), so an
// observation is a handful of relaxed atomic ops.

/// Number of sub-buckets per power-of-two octave (`2^LOG_SUB_BITS`).
const LOG_SUB_BITS: u32 = 3;
/// Values below this get one exact bucket each.
const LOG_EXACT: u64 = 16;
/// Total bucket count of a [`LogHistogram`]: 16 exact + 60 octaves × 8.
pub const LOG_BUCKET_COUNT: usize = 16 + 60 * 8;

/// The bucket index a value lands in (exact below [`LOG_EXACT`], then
/// octave/sub-bucket addressing).
pub fn log_bucket_index(v: u64) -> usize {
    if v < LOG_EXACT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // v in [2^exp, 2^(exp+1)), exp >= 4
    let sub = (v >> (exp - LOG_SUB_BITS)) & ((1 << LOG_SUB_BITS) - 1);
    16 + ((exp - 4) as usize) * 8 + sub as usize
}

/// The inclusive upper bound of bucket `index` — the value a quantile
/// falling in that bucket reports.
///
/// # Panics
///
/// Panics when `index >= LOG_BUCKET_COUNT`.
pub fn log_bucket_bound(index: usize) -> u64 {
    assert!(index < LOG_BUCKET_COUNT, "bucket index out of range");
    if index < LOG_EXACT as usize {
        return index as u64;
    }
    let exp = 4 + ((index - 16) / 8) as u32;
    let sub = ((index - 16) % 8) as u64;
    // The last bucket's bound is 2^64 - 1; the additions wrap to exactly
    // 2^64 there, so wrapping arithmetic yields u64::MAX after the -1.
    (1u64 << exp)
        .wrapping_add((sub + 1) << (exp - LOG_SUB_BITS))
        .wrapping_sub(1)
}

/// Shared storage of a log-bucketed histogram.
#[derive(Debug)]
struct LogHistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LogHistogramCore {
    fn new() -> Self {
        LogHistogramCore {
            buckets: (0..LOG_BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[log_bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LogHistogramSnapshot {
        LogHistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A lock-free log-bucketed histogram handle (see [`log_bucket_index`]
/// for the bucket layout).
#[derive(Clone, Debug, Default)]
pub struct LogHistogram(Option<Arc<LogHistogramCore>>);

impl LogHistogram {
    /// A detached histogram: observations vanish.
    pub fn detached() -> Self {
        LogHistogram(None)
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        if let Some(core) = &self.0 {
            core.observe(v);
        }
    }

    /// Snapshot of the current state, or `None` when detached.
    pub fn snapshot(&self) -> Option<LogHistogramSnapshot> {
        self.0.as_ref().map(|core| core.snapshot())
    }
}

/// A point-in-time copy of a [`LogHistogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogramSnapshot {
    /// Per-bucket observation counts, [`LOG_BUCKET_COUNT`] entries.
    pub buckets: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest value observed.
    pub max: u64,
}

impl Default for LogHistogramSnapshot {
    fn default() -> Self {
        LogHistogramSnapshot {
            buckets: vec![0; LOG_BUCKET_COUNT],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogramSnapshot {
    /// Mean of the observations, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated value at quantile `q` (clamped to 0.0–1.0): the upper
    /// bound of the bucket holding the q-th observation, clamped to the
    /// observed maximum (so exact-bucket values are exact and no quantile
    /// exceeds an actually-seen value). Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return log_bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self` bucket-by-bucket — the cross-process
    /// aggregation used when several registries observed the same
    /// distribution. It cannot fail: every log histogram shares one
    /// layout. The merge is pure integer addition, so it is associative and
    /// commutative — merging per-thread histograms yields bit-identical
    /// results regardless of merge order (the same guarantee the chaos
    /// campaign's shard merge relies on).
    pub fn merge(&mut self, other: &LogHistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// The per-process instrument registry: names → shared storage.
///
/// Instruments are created on first lookup; later lookups of the same
/// name return handles over the same storage.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<&'static str, Arc<AtomicI64>>>,
    log_histograms: RwLock<BTreeMap<&'static str, Arc<LogHistogramCore>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves (creating if needed) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        if let Some(cell) = read(&self.counters).get(name) {
            return Counter(Some(Arc::clone(cell)));
        }
        let mut map = write(&self.counters);
        let cell = map
            .entry(name)
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Some(Arc::clone(cell)))
    }

    /// Resolves (creating if needed) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        if let Some(cell) = read(&self.gauges).get(name) {
            return Gauge(Some(Arc::clone(cell)));
        }
        let mut map = write(&self.gauges);
        let cell = map
            .entry(name)
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Some(Arc::clone(cell)))
    }

    /// Resolves (creating if needed) the log-bucketed histogram `name`.
    /// Every log histogram shares one bucket layout, so no bounds
    /// argument is needed.
    pub fn log_histogram(&self, name: &'static str) -> LogHistogram {
        if let Some(core) = read(&self.log_histograms).get(name) {
            return LogHistogram(Some(Arc::clone(core)));
        }
        let mut map = write(&self.log_histograms);
        let core = map
            .entry(name)
            .or_insert_with(|| Arc::new(LogHistogramCore::new()));
        LogHistogram(Some(Arc::clone(core)))
    }

    /// Copies every counter's current value.
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        read(&self.counters)
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Copies every gauge's current value.
    pub fn gauge_values(&self) -> BTreeMap<String, i64> {
        read(&self.gauges)
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Snapshots every log-bucketed histogram.
    pub fn log_histogram_values(&self) -> BTreeMap<String, LogHistogramSnapshot> {
        read(&self.log_histograms)
            .iter()
            .map(|(k, core)| (k.to_string(), core.snapshot()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_storage() {
        let reg = Registry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.counter_values()["hits"], 5);
    }

    #[test]
    fn detached_instruments_are_noops() {
        let c = Counter::detached();
        c.inc();
        assert_eq!(c.get(), 0);
        let g = Gauge::detached();
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 0);
        let h = LogHistogram::detached();
        h.observe(3);
        assert!(h.snapshot().is_none());
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        assert_eq!(reg.gauge_values()["depth"], 7);
    }

    #[test]
    fn concurrent_increments_from_many_threads() {
        let reg = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("shared");
                let h = reg.log_histogram("obs");
                for i in 0..1_000 {
                    c.inc();
                    h.observe(i % 7);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter_values()["shared"], 8_000);
        assert_eq!(reg.log_histogram_values()["obs"].count, 8_000);
    }

    #[test]
    fn log_bucket_exact_range_is_exact() {
        // Values below 16 each own a bucket whose bound is the value.
        for v in 0..16u64 {
            let i = log_bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(log_bucket_bound(i), v);
        }
        // Continuity: 16 starts the first octave bucket.
        assert_eq!(log_bucket_index(16), 16);
    }

    #[test]
    fn log_bucket_bounds_are_strictly_increasing_and_tight() {
        let mut prev = None;
        for i in 0..LOG_BUCKET_COUNT {
            let bound = log_bucket_bound(i);
            if let Some(p) = prev {
                assert!(bound > p, "bucket {i} bound {bound} <= previous {p}");
                // Every bound is the largest value mapping to its bucket,
                // and bound+1 belongs to the next bucket.
                assert_eq!(log_bucket_index(bound), i);
                assert_eq!(log_bucket_index(p + 1), i);
            }
            prev = Some(bound);
        }
        // The last bucket covers the top of the u64 range.
        assert_eq!(log_bucket_bound(LOG_BUCKET_COUNT - 1), u64::MAX);
        assert_eq!(log_bucket_index(u64::MAX), LOG_BUCKET_COUNT - 1);
    }

    #[test]
    fn log_bucket_relative_error_is_bounded() {
        // The bucket bound overestimates a contained value by at most
        // one sub-bucket width = 2^(exp-3), i.e. 12.5% of the value.
        for &v in &[17u64, 100, 1_000, 65_537, 1 << 40, (1 << 50) + 12345] {
            let bound = log_bucket_bound(log_bucket_index(v));
            assert!(bound >= v);
            assert!((bound - v) as f64 <= v as f64 * 0.125);
        }
    }

    #[test]
    fn log_histogram_observe_and_percentiles() {
        let reg = Registry::new();
        let h = reg.log_histogram("phase_ns");
        for v in [5u64, 5, 5, 5, 5, 100, 100, 100, 5_000, 5_000] {
            h.observe(v);
        }
        let snap = h.snapshot().unwrap();
        assert_eq!(snap.count, 10);
        assert_eq!(snap.sum, 10_325);
        assert_eq!(snap.max, 5_000);
        // p50 lands in the exact range → exact.
        assert_eq!(snap.percentile(0.5), 5);
        // p99 lands in 5_000's bucket; bound clamps to the observed max.
        assert_eq!(snap.percentile(0.99), 5_000);
        assert_eq!(snap.percentile(0.0), 5);
    }

    #[test]
    fn log_histogram_merge_is_plain_addition() {
        let reg = Registry::new();
        let a = reg.log_histogram("a");
        let b = reg.log_histogram("b");
        a.observe(3);
        a.observe(1_000);
        b.observe(3);
        b.observe(1 << 30);
        let sa = a.snapshot().unwrap();
        let sb = b.snapshot().unwrap();
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        // Commutative and bit-identical in both orders.
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 4);
        assert_eq!(ab.sum, 3 + 1_000 + 3 + (1u64 << 30));
        assert_eq!(ab.max, 1 << 30);
        assert_eq!(ab.buckets[log_bucket_index(3)], 2);
    }

    #[test]
    fn log_histogram_handles_share_storage() {
        let reg = Registry::new();
        let a = reg.log_histogram("shared");
        let b = reg.log_histogram("shared");
        a.observe(10);
        b.observe(20);
        assert_eq!(reg.log_histogram_values()["shared"].count, 2);
    }
}
