//! Log-bucketed atomic latency histograms (HDR-style).
//!
//! A [`Histogram`] records `u64` values (by convention nanoseconds) into
//! logarithmically spaced buckets with [`SUB_BUCKETS`] linear sub-buckets per
//! octave, bounding the relative quantile error at `1/SUB_BUCKETS` (~3%).
//! Recording is a single relaxed `fetch_add` on an `AtomicU64` bucket plus two
//! for count/sum, so histograms are safe to share across threads and cheap
//! enough for per-collective latencies. Snapshots are plain data: mergeable
//! across ranks and subtractable for windowed percentiles.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

/// Linear sub-buckets per power-of-two octave. Must be a power of two.
pub const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Total bucket count: values below `SUB_BUCKETS` get exact linear buckets,
/// every octave above contributes `SUB_BUCKETS` more.
pub const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// Map a value to its bucket index.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
    SUB_BUCKETS + (exp - SUB_BITS) as usize * SUB_BUCKETS + sub
}

/// Lower bound of the value range covered by a bucket index (the
/// representative value reported for percentiles in that bucket).
fn bucket_floor(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let octave = (index - SUB_BUCKETS) / SUB_BUCKETS;
    let sub = (index - SUB_BUCKETS) % SUB_BUCKETS;
    let exp = octave as u32 + SUB_BITS;
    (1u64 << exp) + ((sub as u64) << (exp - SUB_BITS))
}

/// A concurrent log-bucketed histogram of `u64` values.
///
/// All operations are lock-free; `record` is wait-free. The histogram never
/// saturates: values beyond the largest bucket clamp into it and `max` keeps
/// the exact observed maximum.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The bucket array is huge and mostly zero; summarise instead.
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed)) // ordering: stat read; snapshots tolerate cross-cell lag
            .field("sum", &self.sum.load(Ordering::Relaxed)) // ordering: stat read; snapshots tolerate cross-cell lag
            .field("max", &self.max.load(Ordering::Relaxed)) // ordering: stat read; snapshots tolerate cross-cell lag
            .finish_non_exhaustive()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value. Wait-free: three relaxed `fetch_add`s plus a
    /// `fetch_max`.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
        self.sum.fetch_add(value, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
        self.max.fetch_max(value, Ordering::Relaxed); // ordering: independent wait-free counter bump; no cross-field sync
    }

    /// Record a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // ordering: stat read; snapshots tolerate cross-cell lag
    }

    /// Take a consistent-enough snapshot for reporting. Concurrent recording
    /// may skew individual buckets by in-flight increments; percentile error
    /// from a torn snapshot is bounded by the number of in-flight recorders.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed)) // ordering: stat read; snapshots tolerate cross-cell lag
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed), // ordering: stat read; snapshots tolerate cross-cell lag
            sum: self.sum.load(Ordering::Relaxed), // ordering: stat read; snapshots tolerate cross-cell lag
            max: self.max.load(Ordering::Relaxed), // ordering: stat read; snapshots tolerate cross-cell lag
        }
    }

    /// Reset every bucket to zero. Not linearizable against concurrent
    /// recorders; intended for tests and between benchmark phases.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed); // ordering: plain publish; readers only need eventual visibility
        }
        self.count.store(0, Ordering::Relaxed); // ordering: plain publish; readers only need eventual visibility
        self.sum.store(0, Ordering::Relaxed); // ordering: plain publish; readers only need eventual visibility
        self.max.store(0, Ordering::Relaxed); // ordering: plain publish; readers only need eventual visibility
    }
}

/// An owned, plain-data copy of a histogram's state.
///
/// Snapshots merge across ranks (`merge`) and subtract for windowed
/// percentiles (`delta_since`). JSON serialisation emits the summary only
/// (count, mean, p50/p90/p99, max) — not the bucket array.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// containing the `ceil(q * count)`-th recorded value (so `p100 <= max`
    /// within one bucket's resolution). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another snapshot into this one (e.g. merging per-rank histograms).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The values recorded since `earlier` was taken, as a new snapshot.
    /// `earlier` must be an older snapshot of the same histogram; buckets
    /// subtract saturating so a racy pair degrades gracefully.
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(earlier.buckets.iter())
            .map(|(a, b)| a.saturating_sub(*b))
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            // max is not subtractable; keep the later max as an upper bound.
            max: self.max,
        }
    }
}

impl Serialize for HistogramSnapshot {
    fn json_into(&self, out: &mut String) {
        out.push('{');
        out.push_str("\"count\":");
        self.count.json_into(out);
        out.push_str(",\"mean\":");
        self.mean().json_into(out);
        out.push_str(",\"p50\":");
        self.p50().json_into(out);
        out.push_str(",\"p90\":");
        self.p90().json_into(out);
        out.push_str(",\"p99\":");
        self.p99().json_into(out);
        out.push_str(",\"max\":");
        self.max.json_into(out);
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_roundtrip_is_monotone_and_tight() {
        let mut last = 0usize;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last || v < 64, "indices monotone for v={v}");
            last = i.max(last);
            let floor = bucket_floor(i);
            assert!(floor <= v, "floor {floor} > value {v}");
            // Relative error bound: floor is within 1/SUB_BUCKETS of v.
            if v >= SUB_BUCKETS as u64 {
                assert!(
                    (v - floor) as f64 / v as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                    "bucket too coarse for {v}: floor {floor}"
                );
            } else {
                assert_eq!(floor, v);
            }
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn exact_percentiles_on_small_values() {
        let h = Histogram::new();
        for v in 1..=20u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 20);
        assert_eq!(s.p50(), 10);
        assert_eq!(s.p90(), 18);
        assert_eq!(s.quantile(1.0), 20);
        assert_eq!(s.max(), 20);
        assert!((s.mean() - 10.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_relative_error_bounded() {
        let h = Histogram::new();
        // Uniform values over a wide range.
        for i in 0..10_000u64 {
            h.record(i * 1_000 + 7);
        }
        let s = h.snapshot();
        for (q, expect) in [(0.5, 5_000_000u64), (0.99, 9_900_000u64)] {
            let got = s.quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.05, "q={q} got {got} expected ~{expect} err {err}");
        }
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let u = Histogram::new();
        for v in 0..1000u64 {
            if v % 2 == 0 {
                a.record(v * 13)
            } else {
                b.record(v * 13)
            }
            u.record(v * 13);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, u.snapshot());
    }

    #[test]
    fn delta_since_isolates_window() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(10);
        }
        let early = h.snapshot();
        for _ in 0..50 {
            h.record(1_000_000);
        }
        let d = h.snapshot().delta_since(&early);
        assert_eq!(d.count(), 50);
        // All windowed values were ~1ms, so p50 must be in that octave.
        assert!(d.p50() > 900_000, "windowed p50 {} too small", d.p50());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per = 20_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per {
                        h.record((t as u64 + 1) * 100 + i % 7);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count(), threads as u64 * per);
        let total: u64 = s.buckets.iter().sum();
        assert_eq!(total, threads as u64 * per);
    }

    #[test]
    fn snapshot_serialises_summary_only() {
        let h = Histogram::new();
        h.record(5);
        h.record(15);
        let json = serde::json::to_string(&h.snapshot());
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"max\":15"));
        assert!(!json.contains("buckets"));
    }
}
