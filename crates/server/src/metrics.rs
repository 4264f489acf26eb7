//! The serving metrics surface.
//!
//! Counters are plain relaxed atomics bumped on the hot path; latencies
//! are recorded per request (submit → response) into a fixed-size
//! log-scale `LatencyHistogram` — O(1) memory and a single relaxed
//! `fetch_add` per request, so the surface stays flat at 10⁵+ in-flight
//! requests — and reduced to percentiles only when a snapshot is taken.
//! The queue-depth gauge counts requests that have been submitted but not
//! yet responded to — it spans the scheduler's coalescing window *and*
//! the worker queue, which is the number an operator actually wants; the
//! sharded scheduler additionally keeps one depth/peak gauge pair per
//! shard so overload decisions and balance reporting see the queue that
//! actually admitted the request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution bits: 2⁶ = 64 sub-buckets per power of two, so
/// values below 64 µs are exact and everything above is recorded within
/// a 1/64 (≈1.6%) relative rounding, always rounding *down* to the
/// bucket floor.
const SUB_BITS: u32 = 6;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// 64 exact buckets + 58 major (power-of-two) ranges × 64 sub-buckets
/// covers every `u64` microsecond value in ~30 KB of counters.
const BUCKET_COUNT: usize = (SUB_BUCKETS + (63 - SUB_BITS as u64) * SUB_BUCKETS) as usize;

/// Index of the histogram bucket holding `us`.
fn bucket_index(us: u64) -> usize {
    if us < SUB_BUCKETS {
        us as usize
    } else {
        let e = 63 - u64::from(us.leading_zeros());
        let major = e - u64::from(SUB_BITS) + 1;
        let sub = (us >> (e - u64::from(SUB_BITS))) - SUB_BUCKETS;
        (major * SUB_BUCKETS + sub) as usize
    }
}

/// The smallest value a bucket holds (the reported representative:
/// percentiles round down, never up, by at most 1/64 relative).
fn bucket_floor(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB_BUCKETS {
        i
    } else {
        let major = i / SUB_BUCKETS;
        let sub = i % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << (major - 1)
    }
}

/// A fixed-bucket log-scale latency histogram: lock-free recording,
/// O(1) memory independent of request count.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    /// Exact running sum of samples in µs (not bucket floors) — the
    /// `_sum` a Prometheus histogram exposes, and what lets a trace's
    /// per-request phase decomposition be cross-checked against the
    /// histogram in aggregate.
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one latency sample (lock-free).
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    fn counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The non-empty `(bucket_floor_us, count)` pairs of a bucket-count
/// copy, in ascending floor order.
fn nonzero_buckets(counts: &[u64]) -> Vec<(u64, u64)> {
    counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (bucket_floor(i), c))
        .collect()
}

/// Nearest-rank percentile over a bucket-count copy: the floor of the
/// bucket holding the rank-th smallest sample.
fn percentile(counts: &[u64], q: f64) -> Duration {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return Duration::ZERO;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return Duration::from_micros(bucket_floor(i));
        }
    }
    Duration::from_micros(bucket_floor(counts.len() - 1))
}

/// Internal live counters (shared across scheduler shards, workers,
/// clients).
#[derive(Debug)]
pub(crate) struct ServerMetrics {
    pub submitted: AtomicU64,
    pub answered: AtomicU64,
    pub rejected_admission: AtomicU64,
    pub rejected_settlement: AtomicU64,
    pub failed: AtomicU64,
    pub batches: AtomicU64,
    pub coalesced_batches: AtomicU64,
    pub single_batches: AtomicU64,
    pub batch_requests: AtomicU64,
    pub batch_rows: AtomicU64,
    pub max_occupancy: AtomicU64,
    pub queue_depth: AtomicU64,
    pub peak_queue_depth: AtomicU64,
    pub rank_closed_batches: AtomicU64,
    pub window_closed_batches: AtomicU64,
    pub ceiling_closed_batches: AtomicU64,
    pub drain_closed_batches: AtomicU64,
    pub worker_respawns: AtomicU64,
    pub quarantined_shapes: AtomicU64,
    pub degraded_releases: AtomicU64,
    pub shed: AtomicU64,
    pub ledger_replays: AtomicU64,
    pub laplace_batches: AtomicU64,
    pub gaussian_batches: AtomicU64,
    pub cross_eps_batches: AtomicU64,
    pub stolen_batches: AtomicU64,
    /// Per-shard submitted-but-unanswered gauges (index = shard id).
    shard_depths: Vec<AtomicU64>,
    shard_peaks: Vec<AtomicU64>,
    latencies: LatencyHistogram,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new(1)
    }
}

impl ServerMetrics {
    /// Live counters for a server running `shards` scheduler shards.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            submitted: AtomicU64::new(0),
            answered: AtomicU64::new(0),
            rejected_admission: AtomicU64::new(0),
            rejected_settlement: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            coalesced_batches: AtomicU64::new(0),
            single_batches: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
            batch_rows: AtomicU64::new(0),
            max_occupancy: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            peak_queue_depth: AtomicU64::new(0),
            rank_closed_batches: AtomicU64::new(0),
            window_closed_batches: AtomicU64::new(0),
            ceiling_closed_batches: AtomicU64::new(0),
            drain_closed_batches: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            quarantined_shapes: AtomicU64::new(0),
            degraded_releases: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            ledger_replays: AtomicU64::new(0),
            laplace_batches: AtomicU64::new(0),
            gaussian_batches: AtomicU64::new(0),
            cross_eps_batches: AtomicU64::new(0),
            stolen_batches: AtomicU64::new(0),
            shard_depths: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_peaks: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            latencies: LatencyHistogram::default(),
        }
    }

    /// A request entered shard `shard`'s queue.
    pub fn enqueued(&self, shard: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
        let shard_depth = self.shard_depths[shard].fetch_add(1, Ordering::Relaxed) + 1;
        self.shard_peaks[shard].fetch_max(shard_depth, Ordering::Relaxed);
    }

    /// A request left shard `shard`'s queue (answered or rejected);
    /// records latency.
    pub fn dequeued(&self, shard: usize, latency: Duration) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.shard_depths[shard].fetch_sub(1, Ordering::Relaxed);
        self.latencies.record(latency);
    }

    /// Undoes an [`enqueued`](Self::enqueued) whose submission never
    /// reached a scheduler shard (send failure at shutdown); no latency
    /// sample is taken.
    pub fn enqueue_rolled_back(&self, shard: usize) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.shard_depths[shard].fetch_sub(1, Ordering::Relaxed);
    }

    /// The live submitted-but-unanswered depth of one shard.
    pub fn shard_depth(&self, shard: usize) -> u64 {
        self.shard_depths[shard].load(Ordering::Relaxed)
    }

    /// A batch was flushed to the workers. `gaussian` tags the batch's
    /// noise model; `distinct_eps` is how many distinct per-release ε
    /// values its members carry (cross-ε coalescing makes this > 1 only
    /// for Gaussian batches).
    pub fn batch_flushed(&self, requests: u64, rows: u64, gaussian: bool, distinct_eps: u64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if requests > 1 {
            self.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        } else {
            self.single_batches.fetch_add(1, Ordering::Relaxed);
        }
        if gaussian {
            self.gaussian_batches.fetch_add(1, Ordering::Relaxed);
            if distinct_eps > 1 {
                self.cross_eps_batches.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.laplace_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.batch_requests.fetch_add(requests, Ordering::Relaxed);
        self.batch_rows.fetch_add(rows, Ordering::Relaxed);
        self.max_occupancy.fetch_max(requests, Ordering::Relaxed);
    }

    /// Reduces the live counters to an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counts = self.latencies.counts();
        let batches = self.batches.load(Ordering::Relaxed);
        let batch_requests = self.batch_requests.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            rejected_admission: self.rejected_admission.load(Ordering::Relaxed),
            rejected_settlement: self.rejected_settlement.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            batches,
            coalesced_batches: self.coalesced_batches.load(Ordering::Relaxed),
            single_batches: self.single_batches.load(Ordering::Relaxed),
            mean_occupancy: if batches > 0 {
                batch_requests as f64 / batches as f64
            } else {
                0.0
            },
            max_occupancy: self.max_occupancy.load(Ordering::Relaxed),
            batch_rows: self.batch_rows.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            rank_closed_batches: self.rank_closed_batches.load(Ordering::Relaxed),
            window_closed_batches: self.window_closed_batches.load(Ordering::Relaxed),
            ceiling_closed_batches: self.ceiling_closed_batches.load(Ordering::Relaxed),
            drain_closed_batches: self.drain_closed_batches.load(Ordering::Relaxed),
            worker_respawns: self.worker_respawns.load(Ordering::Relaxed),
            quarantined_shapes: self.quarantined_shapes.load(Ordering::Relaxed),
            degraded_releases: self.degraded_releases.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            ledger_replays: self.ledger_replays.load(Ordering::Relaxed),
            laplace_batches: self.laplace_batches.load(Ordering::Relaxed),
            gaussian_batches: self.gaussian_batches.load(Ordering::Relaxed),
            cross_eps_batches: self.cross_eps_batches.load(Ordering::Relaxed),
            stolen_batches: self.stolen_batches.load(Ordering::Relaxed),
            shard_depths: self
                .shard_depths
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
            shard_peak_depths: self
                .shard_peaks
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
            p50_latency: percentile(&counts, 0.50),
            p99_latency: percentile(&counts, 0.99),
            p999_latency: percentile(&counts, 0.999),
            latency_sum: Duration::from_micros(self.latencies.sum_us.load(Ordering::Relaxed)),
            latency_buckets: nonzero_buckets(&counts),
        }
    }
}

/// A point-in-time copy of the serving counters, exposed through
/// [`ServerReport`](crate::server::ServerReport).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests that entered the queue.
    pub submitted: u64,
    /// Requests answered with a release.
    pub answered: u64,
    /// Requests refused at admission (unknown tenant / budget).
    pub rejected_admission: u64,
    /// Requests refused at settlement (budget spent concurrently between
    /// admission and release).
    pub rejected_settlement: u64,
    /// Requests failed by a compile/answer error.
    pub failed: u64,
    /// Batches flushed to the worker pool.
    pub batches: u64,
    /// Batches carrying two or more coalesced requests.
    pub coalesced_batches: u64,
    /// Single-request batches (the fallthrough path).
    pub single_batches: u64,
    /// Mean requests per batch.
    pub mean_occupancy: f64,
    /// Largest batch observed.
    pub max_occupancy: u64,
    /// Total workload rows answered across all batches.
    pub batch_rows: u64,
    /// Peak submitted-but-unanswered requests (across all shards).
    pub peak_queue_depth: u64,
    /// Batches closed by the rank-growth rule (the estimated combined
    /// rank stopped growing) rather than by the cap, the window, or
    /// shutdown.
    pub rank_closed_batches: u64,
    /// Batches closed because their coalescing window elapsed (including
    /// zero-window servers whose batches never wait).
    pub window_closed_batches: u64,
    /// Batches closed at the `max_batch` occupancy ceiling.
    pub ceiling_closed_batches: u64,
    /// Batches flushed by the shutdown drain (the scheduler hung up with
    /// the batch still open).
    pub drain_closed_batches: u64,
    /// Worker panics contained and recovered from (the worker kept — or
    /// logically respawned into — its pool slot).
    pub worker_respawns: u64,
    /// Distinct workload shapes quarantined after crashing a worker.
    pub quarantined_shapes: u64,
    /// Releases answered by the degraded-mode fallback because the
    /// configured mechanism blew its compile deadline.
    pub degraded_releases: u64,
    /// Requests shed at submission because the admitting shard's queue
    /// was at its configured depth cap.
    pub shed: u64,
    /// Tenant ε-journals replayed when tenants registered (restart
    /// resumes honored by the durable ledgers).
    pub ledger_replays: u64,
    /// Batches answered with Laplace noise (pure ε-DP releases).
    pub laplace_batches: u64,
    /// Batches answered with Gaussian noise ((ε, δ)-DP releases).
    pub gaussian_batches: u64,
    /// Gaussian batches whose members span two or more distinct
    /// per-release ε values — batches that exist *only* because of
    /// cross-ε coalescing (an ε-keyed scheduler would have fragmented
    /// them).
    pub cross_eps_batches: u64,
    /// Batches a worker claimed from another shard's flush queue (the
    /// work-stealing handoff; 0 on a single-shard server).
    pub stolen_batches: u64,
    /// Live submitted-but-unanswered requests per scheduler shard at
    /// snapshot time (index = shard id; one entry on an unsharded
    /// server).
    pub shard_depths: Vec<u64>,
    /// Peak submitted-but-unanswered requests each shard ever held —
    /// the shard-balance signal: a hot shard shows up as one peak far
    /// above the rest.
    pub shard_peak_depths: Vec<u64>,
    /// Median submit→response latency (histogram floor: exact below
    /// 64 µs, within 1/64 relative — rounding down — above).
    pub p50_latency: Duration,
    /// 99th-percentile submit→response latency (same resolution).
    pub p99_latency: Duration,
    /// 99.9th-percentile submit→response latency (same resolution).
    pub p999_latency: Duration,
    /// Exact sum of every recorded latency sample (a Prometheus
    /// histogram's `_sum`; per-sample µs, not bucket floors).
    pub latency_sum: Duration,
    /// The raw non-empty histogram buckets as `(bucket_floor_us, count)`
    /// pairs in ascending floor order — everything needed to re-derive
    /// any percentile or export cumulative Prometheus buckets.
    pub latency_buckets: Vec<(u64, u64)>,
}

impl MetricsSnapshot {
    /// Iterates the raw `(bucket_floor_us, count)` latency histogram
    /// pairs, ascending, skipping empty buckets.
    pub fn histogram_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.latency_buckets.iter().copied()
    }

    /// Total latency samples recorded (= requests that got a response).
    pub fn latency_samples(&self) -> u64 {
        self.latency_buckets.iter().map(|&(_, c)| c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_up() {
        let m = ServerMetrics::new(2);
        m.enqueued(0);
        m.enqueued(1);
        m.enqueued(1);
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 3);
        assert_eq!(m.shard_depth(0), 1);
        assert_eq!(m.shard_depth(1), 2);
        m.batch_flushed(2, 10, true, 2);
        m.batch_flushed(1, 3, false, 1);
        m.dequeued(0, Duration::from_millis(4));
        m.dequeued(1, Duration::from_millis(8));
        m.dequeued(1, Duration::from_millis(100));
        m.answered.fetch_add(3, Ordering::Relaxed);

        let s = m.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.answered, 3);
        assert_eq!(s.batches, 2);
        assert_eq!(s.coalesced_batches, 1);
        assert_eq!(s.single_batches, 1);
        assert_eq!(s.max_occupancy, 2);
        assert_eq!(s.batch_rows, 13);
        assert!((s.mean_occupancy - 1.5).abs() < 1e-12);
        assert_eq!(s.peak_queue_depth, 3);
        assert_eq!(s.shard_depths, vec![0, 0]);
        assert_eq!(s.shard_peak_depths, vec![1, 2]);
        assert_eq!(s.gaussian_batches, 1);
        assert_eq!(s.laplace_batches, 1);
        assert_eq!(s.cross_eps_batches, 1);
        // 8000 µs is a bucket floor (125 × 64), so the median is exact;
        // 100 ms rounds down within the histogram's 1/64 resolution.
        assert_eq!(s.p50_latency, Duration::from_millis(8));
        assert!(s.p99_latency <= Duration::from_millis(100));
        assert!(s.p99_latency >= Duration::from_micros(100_000 - 100_000 / 64));
    }

    #[test]
    fn percentiles_on_empty_and_single() {
        let h = LatencyHistogram::default();
        assert_eq!(percentile(&h.counts(), 0.5), Duration::ZERO);
        h.record(Duration::from_micros(7));
        let counts = h.counts();
        assert_eq!(percentile(&counts, 0.5), Duration::from_micros(7));
        assert_eq!(percentile(&counts, 0.99), Duration::from_micros(7));
        let h = LatencyHistogram::default();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us));
        }
        let counts = h.counts();
        // The first major range (64..128) still has stride 1, so every
        // value below 128 µs is exact.
        assert_eq!(percentile(&counts, 0.50), Duration::from_micros(50));
        assert_eq!(percentile(&counts, 0.99), Duration::from_micros(99));
    }

    #[test]
    fn histogram_percentiles_track_the_exact_sort_within_resolution() {
        // The regression the histogram must pass against the old
        // Vec-sort path: for an arbitrary small sample, every reported
        // percentile equals the exact nearest-rank value rounded down by
        // at most 1/64 relative.
        let exact_percentile = |sorted: &[u64], q: f64| -> u64 {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..500 {
            // Deterministic xorshift spread over ~6 decades of µs.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            samples.push(x % 10_000_000);
        }
        let h = LatencyHistogram::default();
        for &s in &samples {
            h.record(Duration::from_micros(s));
        }
        samples.sort_unstable();
        let counts = h.counts();
        for q in [0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let exact = exact_percentile(&samples, q);
            let reported = percentile(&counts, q).as_micros() as u64;
            assert!(
                reported <= exact && exact - reported <= exact / 64 + 1,
                "q={q}: reported {reported} vs exact {exact}"
            );
        }
    }

    #[test]
    fn snapshot_exposes_raw_buckets_sum_and_p999() {
        let m = ServerMetrics::new(1);
        // 998 fast samples and two slow ones: nearest-rank p99.9 of
        // 1000 samples is rank 999 — a slow sample — so p99.9 must
        // surface the outlier that p99 (rank 990) is allowed to hide.
        for _ in 0..998 {
            m.enqueued(0);
            m.dequeued(0, Duration::from_micros(10));
        }
        for _ in 0..2 {
            m.enqueued(0);
            m.dequeued(0, Duration::from_millis(50));
        }
        let s = m.snapshot();
        assert_eq!(s.p99_latency, Duration::from_micros(10));
        assert!(
            s.p999_latency >= Duration::from_micros(50_000 - 50_000 / 64),
            "p99.9 must surface the 50 ms outlier, got {:?}",
            s.p999_latency
        );
        assert_eq!(s.latency_sum, Duration::from_micros(998 * 10 + 2 * 50_000));
        assert_eq!(s.latency_samples(), 1000);
        let buckets: Vec<(u64, u64)> = s.histogram_buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (10, 998));
        assert_eq!(buckets[1].1, 2);
        assert!(buckets[0].0 < buckets[1].0, "floors ascend");
        // The raw pairs re-derive the exact same percentiles the
        // snapshot reported.
        let floor_of = |q: f64| -> u64 {
            let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0;
            for &(floor, c) in &buckets {
                seen += c;
                if seen >= rank {
                    return floor;
                }
            }
            unreachable!()
        };
        assert_eq!(Duration::from_micros(floor_of(0.5)), s.p50_latency);
        assert_eq!(Duration::from_micros(floor_of(0.999)), s.p999_latency);
    }

    #[test]
    fn bucket_round_trip_covers_the_range() {
        for v in (0..4096u64).chain([8000, 99_328, 100_000, 1 << 20, u64::MAX / 2, u64::MAX]) {
            let i = bucket_index(v);
            let floor = bucket_floor(i);
            assert!(floor <= v, "floor {floor} > value {v}");
            assert!(
                v - floor <= v / 64,
                "value {v} rounded down past 1/64 (floor {floor})"
            );
            // Floors are canonical: a floor indexes back to its own bucket.
            assert_eq!(bucket_index(floor), i);
        }
    }
}
