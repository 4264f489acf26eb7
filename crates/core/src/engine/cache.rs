//! The compiled-strategy cache and its similarity index.
//!
//! Strategy search is the expensive, data-independent step of every
//! mechanism here (Algorithm 1 takes minutes at the paper's full scale;
//! answering is microseconds), so the engine memoizes compiled strategies
//! by `(workload fingerprint, kind, options digest)`:
//!
//! * **Memory layer** — an `Arc`-shared map; a repeated compile of an
//!   already-seen workload is an O(1) map lookup with zero decomposition
//!   work.
//! * **Store layer (optional)** — decomposition-backed strategies persist
//!   their `(B, L)` factors through the versioned `LRMS` strategy store
//!   (see [`super::store`]), so a fresh process pointed at the same
//!   directory skips Algorithm 1 and only pays the (cheap)
//!   load-and-revalidate path.
//! * **Similarity index** — on an exact miss, the nearest decomposition
//!   this engine holds in memory (freshly compiled, or loaded by a disk
//!   hit) over the same `(kind, options digest, structural class, n)`
//!   with compatible rank and a close coarse column profile seeds the ALM
//!   solver as a warm start. A similarity hit is **never served**: the
//!   solver still runs to the full convergence contract; only its
//!   starting point changes.
//!
//! Caching is privacy-neutral: a strategy depends only on the public
//! workload `W` (keyed by its content fingerprint) and public solver
//! options — never on data or ε — so reuse releases nothing. Warm
//! starting is equally neutral: the seed is public for the same reason,
//! and the seeded solve satisfies the same `Δ(B,L) ≤ 1` constraint.

use crate::decomposition::WorkloadDecomposition;
use crate::engine::registry::{MechanismKind, NoiseFlavor};
use crate::engine::store::{StoredHeader, StrategyStore};
use crate::engine::WarmStartProvenance;
use crate::mechanism::Mechanism;
use lrm_linalg::operator::profile_distance;
use lrm_opt::WarmStart;
use lrm_workload::{Fingerprint, Workload};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: workload content, mechanism kind, and the digest of the
/// options that kind reads.
pub(crate) type CacheKey = (Fingerprint, MechanismKind, u64);

/// Number of buckets in the coarse column profile the similarity index
/// compares — coarse enough that a nudged panel boundary barely moves it,
/// fine enough that disjoint workloads are far apart.
pub(crate) const PROFILE_BUCKETS: usize = 16;

/// L1 distance above which two profiles are "not similar" (the full range
/// is `[0, 2]`; near-duplicates measure well under 0.1).
const SIMILARITY_THRESHOLD: f64 = 0.5;

/// Bound on resident similarity entries; oldest admitted go first.
const SIM_CAPACITY: usize = 256;

/// A cached compiled strategy.
#[derive(Clone)]
pub(crate) struct CachedStrategy {
    pub mechanism: Arc<dyn Mechanism + Send + Sync>,
    /// The workload operator this strategy was compiled for. A memory hit
    /// is confirmed against it before being served: the 64-bit fingerprint
    /// in the key is non-cryptographic, and a collision here would
    /// silently answer with a strategy built for a different `W`. The
    /// row-streamed logical compare (`op_logical_eq`) costs O(m·n) time
    /// but only O(n) scratch — structured workloads are never densified
    /// for it.
    pub workload_op: Arc<dyn lrm_linalg::MatrixOp>,
    /// Decomposition rank `r` for decomposition-backed kinds.
    pub strategy_rank: Option<usize>,
    /// Outer ALM iterations of the compile that produced this strategy
    /// (`None` for non-iterative kinds and disk reloads).
    pub alm_iterations: Option<usize>,
    /// Columns the ALM solved over (`None` exactly when `alm_iterations`
    /// is).
    pub solved_cols: Option<usize>,
    /// Nesterov iterations of that compile (`None` exactly when
    /// `alm_iterations` is).
    pub nesterov_iterations: Option<usize>,
    /// Closed-form expected average error at the engine's reference ε,
    /// computed once at insert so cache hits pay no error evaluation.
    pub expected_avg_error: f64,
}

/// Where a compile was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Full strategy search ran from the cold (Lemma 3) initializer.
    Miss,
    /// Full strategy search ran, seeded by a similar cached decomposition
    /// — same convergence contract, fewer iterations.
    WarmStart,
    /// Served from the in-memory map — no decomposition work at all.
    MemoryHit,
    /// Factors loaded from the strategy store and revalidated — no
    /// decomposition work, only I/O and a residual recompute.
    DiskHit,
}

/// Counters exposed by [`Engine::cache_stats`](super::Engine::cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Compiles served from memory.
    pub memory_hits: u64,
    /// Compiles served by loading stored factors.
    pub disk_hits: u64,
    /// Compiles that ran the full strategy search cold.
    pub misses: u64,
    /// Compiles that ran the full strategy search from a similarity seed.
    pub warm_hits: u64,
    /// Factor loads from the on-disk strategy store.
    pub store_loads: u64,
    /// Store files evicted to stay under the capacity bound.
    pub evictions: u64,
    /// Strategies currently held in memory.
    pub entries: usize,
}

/// One similarity-index entry: the public coordinates of a decomposition
/// held in memory, plus its factors.
struct SimEntry {
    kind: MechanismKind,
    digest: u64,
    class: &'static str,
    n: usize,
    rank: usize,
    fingerprint: u64,
    profile: Vec<f64>,
    decomposition: Arc<WorkloadDecomposition>,
}

pub(crate) struct StrategyCache {
    entries: Mutex<HashMap<CacheKey, CachedStrategy>>,
    sim: Mutex<Vec<SimEntry>>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    warm_hits: AtomicU64,
    store_loads: AtomicU64,
    evictions: AtomicU64,
    store: Option<StrategyStore>,
}

impl StrategyCache {
    /// Opens the cache, backed by an `LRMS` store when `store_dir` is set.
    pub fn new(store_dir: Option<PathBuf>, store_capacity: usize) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            sim: Mutex::new(Vec::new()),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            store_loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            store: store_dir.map(|dir| StrategyStore::open(dir, store_capacity)),
        }
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            store_loads: self.store_loads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.lock().expect("cache lock").len(),
        }
    }

    /// Memory lookup. Counting is the caller's job (via [`record`]) so
    /// every outcome is tallied in exactly one place.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedStrategy> {
        self.entries.lock().expect("cache lock").get(key).cloned()
    }

    /// Records which path a compile took.
    pub fn record(&self, outcome: CacheOutcome) {
        match outcome {
            CacheOutcome::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::WarmStart => self.warm_hits.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::DiskHit => self.disk_hits.fetch_add(1, Ordering::Relaxed),
            CacheOutcome::MemoryHit => self.memory_hits.fetch_add(1, Ordering::Relaxed),
        };
    }

    pub fn insert(&self, key: CacheKey, strategy: CachedStrategy) {
        self.entries
            .lock()
            .expect("cache lock")
            .insert(key, strategy);
    }

    /// Drops every strategy resident in memory — the compiled map and the
    /// similarity index.
    pub fn clear(&self) {
        self.entries.lock().expect("cache lock").clear();
        self.sim.lock().expect("sim lock").clear();
    }

    /// Tries to serve a decomposition-backed compile from the strategy
    /// store. Unreadable, corrupt, version-mismatched, or invalid files
    /// are treated as misses — the subsequent compile overwrites them.
    pub fn try_disk_load(
        &self,
        key: &CacheKey,
        workload: &Workload,
        flavor: NoiseFlavor,
    ) -> Option<WorkloadDecomposition> {
        let store = self.store.as_ref()?;
        let path = store.path_for(key.0.as_u64(), key.1, key.2);
        if !path.exists() {
            return None;
        }
        let (dec, _) = store.load_exact(&path, workload, flavor).ok()?;
        self.store_loads.fetch_add(1, Ordering::Relaxed);
        Some(dec)
    }

    /// Best-effort persist of freshly computed factors plus their public
    /// coordinates; a full disk (or read-only directory) must not fail
    /// the compile that produced them.
    pub fn persist(
        &self,
        key: &CacheKey,
        workload: &Workload,
        profile: &[f64],
        decomposition: &WorkloadDecomposition,
        flavor: NoiseFlavor,
    ) {
        if let Some(store) = &self.store {
            let header = StoredHeader {
                fingerprint: key.0.as_u64(),
                digest: key.2,
                kind: key.1,
                flavor,
                class: workload.op().structure_class().to_string(),
                m: workload.num_queries(),
                n: workload.domain_size(),
                rank: decomposition.rank(),
                cold_iterations: decomposition.stats().outer_iterations,
                profile: profile.to_vec(),
            };
            let evicted = store.save(&header, decomposition);
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Admits a decomposition into the similarity index (replacing any
    /// previous entry for the same key coordinates).
    pub fn admit_seed(
        &self,
        key: &CacheKey,
        workload: &Workload,
        profile: Vec<f64>,
        decomposition: Arc<WorkloadDecomposition>,
    ) {
        let mut sim = self.sim.lock().expect("sim lock");
        let (fingerprint, kind, digest) = (key.0.as_u64(), key.1, key.2);
        sim.retain(|e| (e.fingerprint, e.kind, e.digest) != (fingerprint, kind, digest));
        if sim.len() >= SIM_CAPACITY {
            sim.remove(0);
        }
        sim.push(SimEntry {
            kind,
            digest,
            class: workload.op().structure_class(),
            n: workload.domain_size(),
            rank: decomposition.rank(),
            fingerprint,
            profile,
            decomposition,
        });
    }

    /// The decomposition the similarity index holds for `key`.
    #[cfg(test)]
    pub fn resident_decomposition(&self, key: &CacheKey) -> Option<Arc<WorkloadDecomposition>> {
        let coordinates = (key.0.as_u64(), key.1, key.2);
        let sim = self.sim.lock().expect("sim lock");
        sim.iter()
            .find(|e| (e.fingerprint, e.kind, e.digest) == coordinates)
            .map(|e| Arc::clone(&e.decomposition))
    }

    /// Nearest decomposition in memory usable as a warm-start seed for
    /// the given compile coordinates, or `None` when nothing is close
    /// enough. Candidates must match `(kind, options digest, structural
    /// class, n)` exactly, sit within a factor of two of the target rank
    /// (when the target is known), and measure under the profile-distance
    /// threshold; the closest wins. The compile's own workload is
    /// excluded — that would be an exact hit, not a seed.
    pub fn nearest_seed(
        &self,
        kind: MechanismKind,
        digest: u64,
        workload: &Workload,
        target_rank: Option<usize>,
        profile: &[f64],
    ) -> Option<(WarmStart, WarmStartProvenance)> {
        let class = workload.op().structure_class();
        let n = workload.domain_size();
        let fingerprint = workload.fingerprint().as_u64();
        let sim = self.sim.lock().expect("sim lock");
        let mut best: Option<(&SimEntry, f64)> = None;
        for e in sim.iter() {
            if e.kind != kind
                || e.digest != digest
                || e.class != class
                || e.n != n
                || e.fingerprint == fingerprint
            {
                continue;
            }
            if let Some(r) = target_rank {
                if e.rank < r.div_ceil(2) || e.rank > 2 * r {
                    continue;
                }
            }
            let d = profile_distance(&e.profile, profile);
            if d < SIMILARITY_THRESHOLD && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((e, d));
            }
        }
        let (e, profile_distance) = best?;
        let dec = &e.decomposition;
        let provenance = WarmStartProvenance {
            seed_fingerprint: e.fingerprint,
            profile_distance,
        };
        Some((WarmStart::new(dec.b().clone(), dec.l().clone()), provenance))
    }
}

impl std::fmt::Debug for StrategyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategyCache")
            .field("stats", &self.stats())
            .field("sim_entries", &self.sim.lock().expect("sim lock").len())
            .field("store", &self.store)
            .finish()
    }
}
