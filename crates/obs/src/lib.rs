//! temu-obs: a std-only, allocation-light metrics registry.
//!
//! The workspace's observability spine: atomic [`Counter`]s, [`Gauge`]s,
//! and fixed-bucket log2 [`Histogram`]s (p50/p90/p99 + max recovered by
//! linear interpolation inside the matching bucket), grouped in a
//! [`Registry`] that renders versioned JSON snapshots. A process-wide
//! [`global()`] registry plus the [`time!`] span-timer macro let deep
//! layers (the thermal solver, the sweep runner) record latencies without
//! threading a handle through every constructor; servers that need
//! isolation (several instances in one test process) hold their own
//! `Registry` and merge the global one into their snapshot.
//!
//! Recording is lock-free — one `fetch_add` per counter hit, three relaxed
//! atomics per histogram sample — and hot paths are expected to gate on
//! [`enabled()`] (one relaxed load) so the whole layer costs nothing when
//! nobody is looking. Set `TEMU_OBS=0` to start disabled.
//!
//! Like the `crates/compat/` shims, this crate exists because the build
//! environment has no crates.io access; it is a minimal stand-in for a
//! metrics facade, not a general-purpose library.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Version tag carried by every snapshot (`"temu_metrics"` field).
pub const SNAPSHOT_VERSION: u64 = 1;

/// Bucket count: one bucket per bit length of the recorded `u64`, so the
/// full range is covered with relative error bounded by the bucket width
/// (a factor of two before interpolation).
pub const N_BUCKETS: usize = 64;

/// Environment variable consulted once when [`global()`] initializes:
/// `TEMU_OBS=0` starts the process-wide registry disabled.
pub const OBS_ENV: &str = "TEMU_OBS";

/// Monotone event counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (queue depths, pool sizes).
#[derive(Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket log2 histogram over `u64` samples (typically nanoseconds).
///
/// Bucket `0` holds exactly the value `0`; bucket `i ≥ 1` holds values of
/// bit length `i`, i.e. the range `[2^(i-1), 2^i - 1]`; the top bucket
/// saturates, absorbing everything from `2^62` up. Recording is three
/// relaxed atomic RMWs and never allocates; quantiles are computed on a
/// [`HistogramView`] taken with [`Histogram::view`].
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The bucket a value lands in: its bit length, capped at the top.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(N_BUCKETS - 1)
        }
    }

    /// Inclusive `[lo, hi]` range of values bucket `i` covers.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < N_BUCKETS, "bucket index out of range");
        if i == 0 {
            (0, 0)
        } else if i == N_BUCKETS - 1 {
            (1 << (i - 1), u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy for quantile math and serialization. Taken
    /// with relaxed loads: concurrent writers may land between bucket
    /// reads, so the view is a consistent *lower bound* per bucket, never
    /// torn within one (count is derived from the bucket array itself).
    pub fn view(&self) -> HistogramView {
        let counts: [u64; N_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramView {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable snapshot of a [`Histogram`]; all derived statistics
/// (quantiles, mean, merge) live here so they are deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramView {
    pub counts: [u64; N_BUCKETS],
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramView {
    fn default() -> Self {
        Self { counts: [0; N_BUCKETS], sum: 0, max: 0 }
    }
}

impl HistogramView {
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by walking the
    /// cumulative bucket counts and interpolating linearly inside the
    /// matching bucket; the top of the highest non-empty bucket is
    /// tightened to the observed max so saturated tails stay honest.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if cum + c >= target {
                let (lo, hi) = Histogram::bucket_bounds(i);
                let hi = hi.min(self.max).max(lo);
                let frac = ((target - cum) / c).clamp(0.0, 1.0);
                return lo + (frac * (hi - lo) as f64).round() as u64;
            }
            cum += c;
        }
        self.max
    }

    /// Accumulates another view into this one (sums saturate).
    pub fn merge(&mut self, other: &HistogramView) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Renders the summary object used by snapshots:
    /// `{"count":..,"sum":..,"max":..,"mean":..,"p50":..,"p90":..,"p99":..}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.count(),
            self.sum,
            self.max,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A named collection of metrics. Lookup-or-create takes one mutex; hot
/// sites hold the returned `Arc` (or cache it in a `OnceLock`, as the
/// [`time!`] macro does) so steady-state recording never touches the lock.
#[derive(Default)]
pub struct Registry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Self { enabled: AtomicBool::new(true), inner: Mutex::new(Inner::default()) }
    }

    /// The process-wide registry ([`global()`]).
    pub fn global() -> &'static Registry {
        global()
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Metric registration can't deadlock through this lock (no
        // callbacks run under it), so a poisoned lock just means a writer
        // panicked mid-insert; the map is still structurally sound.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.lock();
        match inner.counters.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::default());
                inner.counters.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.lock();
        match inner.gauges.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Arc::new(Gauge::default());
                inner.gauges.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.lock();
        match inner.histograms.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::default());
                inner.histograms.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// A name-prefixing handle for one subsystem: metrics created through
    /// `registry.scope("serve")` are named `serve.<name>`.
    pub fn scope(&self, prefix: &str) -> Scope<'_> {
        Scope { registry: self, prefix: prefix.to_string() }
    }

    /// A point-in-time copy of every metric, with deterministic (sorted)
    /// iteration order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.view())).collect(),
        }
    }
}

/// See [`Registry::scope`].
pub struct Scope<'a> {
    registry: &'a Registry,
    prefix: String,
}

impl Scope<'_> {
    fn name(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(&self.name(name))
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.registry.gauge(&self.name(name))
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(&self.name(name))
    }
}

/// A point-in-time copy of a [`Registry`] (or a merge of several), ready
/// for quantile math and JSON rendering.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramView>,
}

impl Snapshot {
    /// Folds another snapshot in: counters and histogram buckets add,
    /// gauges keep the *other* side on collision (merge the more-specific
    /// registry last if its gauges should win).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// The comma-separated body fields of the versioned snapshot object —
    /// `"temu_metrics":1,"counters":{..},"gauges":{..},"histograms":{..}`
    /// — without enclosing braces, so callers can splice in their own
    /// leading fields (`"ok":true`, `"seq":N`, `"unix_ms":T`).
    pub fn to_json_fields(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!("\"temu_metrics\":{SNAPSHOT_VERSION},\"counters\":{{"));
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{v}", json_string(k)));
        }
        out.push_str("},\"gauges\":{");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{v}", json_string(k)));
        }
        out.push_str("},\"histograms\":{");
        first = true;
        for (k, v) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{}:{}", json_string(k), v.to_json()));
        }
        out.push('}');
        out
    }

    /// The full versioned snapshot object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.to_json_fields())
    }
}

/// Minimal JSON string rendering for metric names (which are plain
/// dotted identifiers in practice, but addresses with `:` and arbitrary
/// labels pass through correctly too).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry. Initialized on first use; starts disabled
/// when `TEMU_OBS=0` is set in the environment.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| {
        let registry = Registry::new();
        if std::env::var(OBS_ENV).as_deref() == Ok("0") {
            registry.set_enabled(false);
        }
        registry
    })
}

/// Whether the process-wide registry is recording. Hot paths check this
/// (one relaxed load after initialization) before touching any metric.
pub fn enabled() -> bool {
    global().enabled()
}

/// Times an expression into a named histogram on the [`global()`]
/// registry, in nanoseconds:
///
/// ```
/// let sum = temu_obs::time!("example.sum", (0..100u64).sum::<u64>());
/// ```
///
/// The histogram handle is resolved once per call site (cached in a
/// `OnceLock`), and when the registry is disabled the expression runs
/// with zero instrumentation cost beyond one relaxed load.
#[macro_export]
macro_rules! time {
    ($name:expr, $e:expr) => {{
        if $crate::enabled() {
            static __TEMU_OBS_HIST: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
                ::std::sync::OnceLock::new();
            let __h = __TEMU_OBS_HIST.get_or_init(|| $crate::global().histogram($name));
            let __t = ::std::time::Instant::now();
            let __r = $e;
            __h.record_duration(__t.elapsed());
            __r
        } else {
            $e
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_partition_the_u64_range() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), N_BUCKETS - 1);
        // Every bucket's bounds round-trip through bucket_index, and
        // adjacent buckets tile the range with no gap or overlap.
        for i in 0..N_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "hi of bucket {i}");
            if i + 1 < N_BUCKETS {
                let (next_lo, _) = Histogram::bucket_bounds(i + 1);
                assert_eq!(hi + 1, next_lo, "buckets {i} and {} must abut", i + 1);
            }
        }
    }

    #[test]
    fn saturation_at_max_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(1 << 62);
        h.record(u64::MAX - 1);
        let v = h.view();
        assert_eq!(v.counts[N_BUCKETS - 1], 3);
        assert_eq!(v.count(), 3);
        assert_eq!(v.max, u64::MAX);
        assert!(v.quantile(0.50) >= 1 << 62);
        // The saturated bucket's quantiles are clamped by the observed
        // max, not the theoretical bucket top (u64::MAX).
        let h = Histogram::default();
        h.record(1 << 62);
        h.record((1 << 62) + 1000);
        let v = h.view();
        assert_eq!(v.quantile(1.0), (1 << 62) + 1000);
        assert!(v.quantile(0.99) <= v.max);
    }

    #[test]
    fn quantile_interpolation_within_one_bucket() {
        // 100 samples spread across bucket 7 ([64, 127]): interpolation
        // should place p50 near the middle of the bucket, p99 near the
        // top, rather than snapping to a bucket edge.
        let h = Histogram::default();
        for i in 0..100u64 {
            h.record(64 + (i * 63) / 99);
        }
        let v = h.view();
        let p50 = v.quantile(0.50);
        let p99 = v.quantile(0.99);
        assert!((90..=105).contains(&p50), "p50 = {p50}");
        assert!(p99 > p50 && p99 <= 127, "p99 = {p99}");
        assert_eq!(v.quantile(1.0), 127);
    }

    #[test]
    fn quantiles_across_buckets_respect_cumulative_order() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(100); // bucket 7
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 14
        }
        let v = h.view();
        assert!(v.quantile(0.50) <= 127, "p50 must sit in the low bucket");
        assert!(v.quantile(0.99) >= 8192, "p99 must reach the tail bucket");
        assert_eq!(v.count(), 100);
        assert_eq!(v.max, 10_000);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let v = Histogram::default().view();
        assert_eq!(v.count(), 0);
        assert_eq!(v.quantile(0.5), 0);
        assert_eq!(v.mean(), 0.0);
    }

    #[test]
    fn merge_sums_buckets_and_keeps_max() {
        let a = Histogram::default();
        let b = Histogram::default();
        for i in 1..=50u64 {
            a.record(i);
        }
        for i in 51..=100u64 {
            b.record(i);
        }
        let mut m = a.view();
        m.merge(&b.view());
        let all = Histogram::default();
        for i in 1..=100u64 {
            all.record(i);
        }
        assert_eq!(m, all.view());
    }

    #[test]
    fn registry_interns_and_snapshots() {
        let r = Registry::new();
        let c = r.counter("a.hits");
        c.add(3);
        r.counter("a.hits").inc(); // same underlying counter
        r.gauge("a.depth").set(7);
        r.scope("b").histogram("lat").record(1000);
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("a.hits"), Some(&4));
        assert_eq!(snap.gauges.get("a.depth"), Some(&7));
        assert_eq!(snap.histograms.get("b.lat").map(HistogramView::count), Some(1));
        let json = snap.to_json();
        assert!(json.starts_with(&format!("{{\"temu_metrics\":{SNAPSHOT_VERSION},")));
        assert!(json.contains("\"a.hits\":4"));
        assert!(json.contains("\"b.lat\":{\"count\":1"));
    }

    #[test]
    fn snapshot_merge_adds_counters_and_buckets() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("x").add(2);
        b.counter("x").add(3);
        b.counter("y").add(1);
        a.histogram("h").record(10);
        b.histogram("h").record(20);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counters.get("x"), Some(&5));
        assert_eq!(snap.counters.get("y"), Some(&1));
        assert_eq!(snap.histograms.get("h").map(HistogramView::count), Some(2));
    }

    #[test]
    fn snapshots_stay_consistent_and_monotone_under_concurrent_writers() {
        use std::sync::atomic::AtomicBool;
        let r = Arc::new(Registry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let c = r.counter("w.events");
                    let h = r.histogram("w.lat");
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        c.inc();
                        h.record(t * 1000 + n % 97);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        let mut last_count = 0u64;
        let mut last_hist = 0u64;
        for _ in 0..200 {
            let snap = r.snapshot();
            let count = snap.counters.get("w.events").copied().unwrap_or(0);
            let view = snap.histograms.get("w.lat").cloned().unwrap_or_default();
            assert!(count >= last_count, "counter went backwards");
            assert!(view.count() >= last_hist, "histogram count went backwards");
            // The view is internally consistent: derived count comes from
            // the bucket array itself, and quantiles never panic.
            let _ = (view.quantile(0.5), view.quantile(0.99), view.mean());
            last_count = count;
            last_hist = view.count();
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("w.events"), Some(&total));
        assert_eq!(snap.histograms.get("w.lat").map(HistogramView::count), Some(total));
    }

    #[test]
    fn time_macro_records_into_global() {
        global().set_enabled(true);
        let out = crate::time!("obs.selftest.span", 21 * 2);
        assert_eq!(out, 42);
        let h = global().histogram("obs.selftest.span");
        assert_eq!(h.view().count(), 1);
        // Disabled: the expression still runs, nothing is recorded.
        global().set_enabled(false);
        let out = crate::time!("obs.selftest.span", 21 * 3);
        assert_eq!(out, 63);
        assert_eq!(h.view().count(), 1);
        global().set_enabled(true);
    }

    #[test]
    fn json_escaping_handles_odd_names() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
