//! Lock-free metrics primitives: sharded counters and fixed-bucket
//! log-scale latency histograms.
//!
//! The server needs per-request accounting that is safe to touch from
//! every connection and worker thread without a lock and without
//! floating point on the hot path. Two primitives cover all of it:
//!
//! - [`Counter`] — a monotone counter sharded across cache lines.
//!   Increments pick a shard by a per-thread index (assigned once, on a
//!   thread's first increment anywhere), so concurrent writers from
//!   different threads do not bounce one cache line; reads sum the
//!   shards. All operations are `Relaxed`: the counters carry no
//!   ordering obligations, only totals.
//! - [`Histogram`] — exact bucket counts over a fixed log-scale layout:
//!   values 0..8 get exact buckets, every power-of-two octave above
//!   that is split into 8 linear sub-buckets (≤ 12.5 % relative error).
//!   Recording is three relaxed `fetch_add`s (bucket, count, sum); no
//!   floats, no allocation, no locks. Quantiles (p50/p90/p99…) are
//!   derived at *scrape* time from a [`HistogramSnapshot`] with integer
//!   rank arithmetic, reporting the matching bucket's upper bound.
//!
//! The bucket layout covers the full `u64` range (496 buckets), so a
//! nanosecond-scale latency histogram never saturates or clips.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards per [`Counter`]. Power of two; eight covers the
/// worker-pool sizes the server runs with.
const SHARDS: usize = 8;

/// One cache-line-padded shard.
#[derive(Default)]
#[repr(align(64))]
struct Shard(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index, assigned round-robin on first use and
    /// shared by every counter (same thread → same shard everywhere).
    static SHARD_IX: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
}

/// A sharded, lock-free, monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    shards: [Shard; SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` (relaxed; never blocks).
    #[inline]
    pub fn add(&self, n: u64) {
        let ix = SHARD_IX.with(|i| *i);
        self.shards[ix].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (sum over shards).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count for the full `u64` range: 8 exact small-value
/// buckets plus 8 sub-buckets for each octave with leading bit 3..=63.
pub const HIST_BUCKETS: usize = SUB + (61 * SUB);

/// The bucket index recording `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB + ((msb - SUB_BITS) as usize) * SUB + sub
    }
}

/// The largest value falling into bucket `i` (inclusive).
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let octave = (i - SUB) / SUB;
        let sub = ((i - SUB) % SUB) as u64;
        let msb = octave as u32 + SUB_BITS;
        let lower = (1u64 << msb) + (sub << (msb - SUB_BITS));
        lower + ((1u64 << (msb - SUB_BITS)) - 1)
    }
}

/// A fixed-bucket log-scale histogram of `u64` samples. Recording is
/// lock-free and float-free; quantiles come from [`Histogram::snapshot`].
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram (allocates its bucket array once).
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the non-empty buckets, for quantile
    /// derivation and exposition.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                buckets.push((bucket_upper(i), n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={})", self.count())
    }
}

/// A consistent-enough copy of a [`Histogram`]: non-empty `(upper
/// bound, count)` pairs in ascending bucket order plus totals.
/// (Concurrent recording during the snapshot can skew `count` by the
/// in-flight samples; the server tolerates that — scrapes are advisory.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
    /// `(inclusive upper bound, count)` for each non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `num/den` quantile (e.g. `quantile(50, 100)` = p50): the
    /// upper bound of the bucket containing the sample of that rank.
    /// Integer arithmetic throughout; returns 0 for an empty histogram.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        let total: u64 = self.buckets.iter().map(|(_, n)| n).sum();
        if total == 0 || den == 0 {
            return 0;
        }
        let rank = total.saturating_mul(num).div_ceil(den);
        let rank = rank.clamp(1, total);
        let mut cum = 0u64;
        for (upper, n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return *upper;
            }
        }
        self.buckets.last().map_or(0, |(upper, _)| *upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_monotone_and_total() {
        // Every value maps into a bucket whose bounds contain it, and
        // bucket upper bounds strictly increase.
        let probes = [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            100,
            1_000,
            123_456,
            u32::MAX as u64,
            1 << 40,
            (1 << 63) + 12345,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "v={v} i={i}");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "v={v} i={i}");
            }
        }
        for i in 1..HIST_BUCKETS {
            assert!(bucket_upper(i) > bucket_upper(i - 1), "i={i}");
        }
        assert_eq!(bucket_upper(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Sub-bucketing keeps the reported upper bound within 12.5 % of
        // the recorded value for values ≥ 8.
        for &v in &[8u64, 100, 999, 10_000, 1_000_000, 123_456_789] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            assert!((upper - v) * 8 <= v, "v={v} upper={upper}");
        }
    }

    #[test]
    fn quantiles_from_known_samples() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v * 1000); // 1k..100k ns
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        let p50 = snap.quantile(50, 100);
        let p99 = snap.quantile(99, 100);
        // Bucketed answers: within one sub-bucket (12.5 %) of the exact
        // rank values 50_000 and 99_000.
        assert!((50_000..=57_000).contains(&p50), "p50={p50}");
        assert!((99_000..=112_000).contains(&p99), "p99={p99}");
        assert!(p50 <= snap.quantile(90, 100));
        assert!(snap.quantile(90, 100) <= p99);
        // Bucket counts are exact and complete.
        let total: u64 = snap.buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().snapshot().quantile(99, 100), 0);
    }

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        c.add(42);
        assert_eq!(c.get(), 8042);
    }
}
