//! The serving engine: compile once, cache by workload, answer many times
//! under a tracked privacy budget.
//!
//! The paper's operational insight is that strategy search (Algorithm 1)
//! is the expensive, *data-independent* step while answering is
//! microseconds. This module packages that shape as an API:
//!
//! * [`MechanismKind`] — the mechanism registry: every strategy in this
//!   crate behind one enum, compiled through one dispatch;
//! * [`Engine::compile`] — returns a [`CompiledMechanism`] (strategy +
//!   [`CompileMeta`]: wall-time, rank, cache outcome, expected error at
//!   the engine's reference ε), served through a two-layer
//!   compiled-strategy cache (in-memory map + optional `LRMS` disk store)
//!   keyed by the workload's content [`lrm_workload::Fingerprint`];
//! * [`Engine::compile_best`] — argmin over a panel of kinds by
//!   closed-form expected error (free: it reads only public quantities);
//! * [`Session`] — answering under a [`BudgetLedger`](lrm_dp::BudgetLedger):
//!   each release debits ε, and exhaustion is a typed error, not a silent
//!   over-spend.
//!
//! ```
//! use lrm_core::engine::{Engine, MechanismKind};
//! use lrm_dp::Epsilon;
//! use lrm_workload::Workload;
//!
//! let w = Workload::from_rows(&[
//!     &[1.0, 1.0, 1.0, 1.0],
//!     &[1.0, 1.0, 0.0, 0.0],
//!     &[0.0, 0.0, 1.0, 1.0],
//! ]).unwrap();
//!
//! let engine = Engine::builder().build();
//! let compiled = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
//! let mut session = compiled.session(Epsilon::new(1.0).unwrap());
//!
//! let mut rng = lrm_dp::rng::derive_rng(7, 0);
//! let half = Epsilon::new(0.5).unwrap();
//! let release = session
//!     .answer(&[82_700.0, 19_000.0, 67_000.0, 5_900.0], half, &mut rng)
//!     .unwrap();
//! assert_eq!(release.answers.len(), 3);
//! assert!((release.eps_remaining - 0.5).abs() < 1e-12);
//! ```

mod cache;
mod registry;
mod session;
mod store;

pub use cache::{CacheOutcome, CacheStats};
pub use registry::{CompileOptions, MechanismKind, NoiseFlavor};
pub use session::{BatchAnswer, EngineError, Session};

use crate::decomposition::DecompositionStats;
use crate::error::CoreError;
use crate::mechanism::Mechanism;
use cache::{CachedStrategy, StrategyCache, PROFILE_BUCKETS};
use lrm_dp::{Budget, Epsilon};
use lrm_linalg::operator::coarse_column_profile;
use lrm_workload::{Fingerprint, Workload};
use rand::RngCore;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Default bound on resident strategy-store files.
const DEFAULT_STORE_CAPACITY: usize = 512;

/// Default reference δ quoted by approximate-DP compile metadata.
const DEFAULT_REFERENCE_DELTA: f64 = 1e-6;

/// Builder for [`Engine`].
#[derive(Debug)]
pub struct EngineBuilder {
    reference_eps: Epsilon,
    reference_delta: f64,
    defaults: CompileOptions,
    spill_dir: Option<PathBuf>,
    store_capacity: usize,
}

impl EngineBuilder {
    /// Starts from the defaults: reference ε = 1, reference δ = 1e-6,
    /// default compile options, no disk spill.
    pub fn new() -> Self {
        Self {
            reference_eps: Epsilon::new(1.0).expect("1.0 is a valid budget"),
            reference_delta: DEFAULT_REFERENCE_DELTA,
            defaults: CompileOptions::default(),
            spill_dir: None,
            store_capacity: DEFAULT_STORE_CAPACITY,
        }
    }

    /// Sets the reference ε used for the expected-error metadata and for
    /// [`Engine::compile_best`] comparisons. All noise errors scale as
    /// `1/ε²`, so the reference only matters when relaxed-LRM structural
    /// residuals enter a comparison.
    pub fn reference_epsilon(mut self, eps: Epsilon) -> Self {
        self.reference_eps = eps;
        self
    }

    /// Sets the reference δ that pairs with the reference ε when an
    /// approximate-DP ([`NoiseFlavor::ApproxDp`]) compile quotes its
    /// expected error — Gaussian noise has no pure-ε error at all.
    /// Ignored by pure compiles. Default: 1e-6.
    ///
    /// Panics if `delta` is not in `(0, 1)` — a configuration error, not
    /// a runtime condition.
    pub fn reference_delta(mut self, delta: f64) -> Self {
        assert!(
            delta.is_finite() && delta > 0.0 && delta < 1.0,
            "reference δ must be in (0, 1), got {delta}"
        );
        self.reference_delta = delta;
        self
    }

    /// Sets the default [`CompileOptions`] used by
    /// [`Engine::compile_default`].
    pub fn compile_options(mut self, options: CompileOptions) -> Self {
        self.defaults = options;
        self
    }

    /// Enables the on-disk strategy store: decomposition-backed strategies
    /// are persisted here (versioned `LRMS` format) and reloaded —
    /// revalidated exactly — instead of recompiled, across processes and
    /// restarts. A reloaded decomposition also seeds warm starts for
    /// similar workloads, like a freshly compiled one.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Bounds the number of files the strategy store retains; beyond it,
    /// the least recently written entries are evicted at save time.
    /// Default: 512.
    pub fn store_capacity(mut self, capacity: usize) -> Self {
        self.store_capacity = capacity.max(1);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Engine {
        Engine {
            reference_eps: self.reference_eps,
            reference_delta: self.reference_delta,
            defaults: self.defaults,
            cache: StrategyCache::new(self.spill_dir, self.store_capacity),
        }
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The compile-once / answer-many entry point. See the
/// [module docs](self) for the full picture.
#[derive(Debug)]
pub struct Engine {
    reference_eps: Epsilon,
    reference_delta: f64,
    defaults: CompileOptions,
    cache: StrategyCache,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::builder().build()
    }
}

impl Engine {
    /// Starts an [`EngineBuilder`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The ε all compile metadata reports expected errors at.
    pub fn reference_epsilon(&self) -> Epsilon {
        self.reference_eps
    }

    /// The δ paired with the reference ε for approximate-DP metadata.
    pub fn reference_delta(&self) -> f64 {
        self.reference_delta
    }

    /// The (ε, δ) budget `flavor`'s expected-error metadata is quoted at.
    fn reference_budget(&self, flavor: NoiseFlavor) -> Budget {
        match flavor {
            NoiseFlavor::PureDp => Budget::pure(self.reference_eps),
            NoiseFlavor::ApproxDp => Budget::approx(self.reference_eps, self.reference_delta)
                .expect("builder-validated reference δ"),
        }
    }

    /// The options [`Engine::compile_default`] uses.
    pub fn default_options(&self) -> &CompileOptions {
        &self.defaults
    }

    /// Cache counters: memory hits, disk hits, cold misses, warm-started
    /// compiles, store loads, store evictions, resident entries.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Compiles `kind` for `workload`, served from the strategy cache when
    /// the same `(workload, kind, options)` triple has been seen before.
    pub fn compile(
        &self,
        workload: &Workload,
        kind: MechanismKind,
        options: &CompileOptions,
    ) -> Result<CompiledMechanism, CoreError> {
        let t0 = Instant::now();
        registry::check_flavor_supported(kind, options.flavor)?;
        let key = (workload.fingerprint(), kind, options.digest(kind));
        let flavor = options.flavor;

        if let Some(cached) = self.cache.lookup(&key) {
            // Confirm the hit against the actual workload: on the
            // astronomically rare fingerprint collision we must recompile
            // rather than serve a strategy built for a different workload.
            // The compare streams rows through the operators — structured
            // workloads stay structured.
            if lrm_linalg::operator::op_logical_eq(
                cached.workload_op.as_ref(),
                workload.op().as_ref(),
            ) {
                return Ok(self.finish(key, flavor, CacheOutcome::MemoryHit, t0, cached, None));
            }
        }

        let profile = kind
            .is_decomposition_backed()
            .then(|| coarse_column_profile(workload.op().as_ref(), PROFILE_BUCKETS));
        if let Some(profile) = &profile {
            if let Some(decomposition) = self.cache.try_disk_load(&key, workload, flavor) {
                let decomposition = Arc::new(decomposition);
                self.cache
                    .admit_seed(&key, workload, profile.clone(), Arc::clone(&decomposition));
                let mechanism =
                    registry::rebuild_from_decomposition(kind, (*decomposition).clone(), workload);
                let rank = Some(decomposition.rank());
                let cached = self.admit(key, flavor, workload, rank, None, mechanism);
                return Ok(self.finish(key, flavor, CacheOutcome::DiskHit, t0, cached, None));
            }
        }

        // Exact miss: the nearest same-digest decomposition held in memory
        // — same kind, structural class, and domain, with compatible rank
        // and a close column profile — seeds the solver. The seeded
        // compile runs the full convergence contract; the seed is never
        // served directly.
        let seed = profile.as_ref().and_then(|profile| {
            let target_rank = match options.decomposition_for(kind).target_rank {
                crate::decomposition::TargetRank::Exact(r) => Some(r),
                crate::decomposition::TargetRank::RatioOfRank(_) => None,
            };
            self.cache
                .nearest_seed(kind, key.2, workload, target_rank, profile)
        });
        let built = registry::build(kind, workload, options, seed.as_ref().map(|(s, _)| s))?;
        // The solver may reject a seed (e.g. ill-conditioned factors) and
        // run cold anyway: only a compile that started warm is one.
        let warm_started = built
            .decomposition
            .as_ref()
            .is_some_and(|d| d.stats().warm_started);
        let (outcome, warm_start) = match seed {
            Some((_, provenance)) if warm_started => (CacheOutcome::WarmStart, Some(provenance)),
            _ => (CacheOutcome::Miss, None),
        };
        if let (Some(decomposition), Some(profile)) = (&built.decomposition, profile) {
            self.cache
                .persist(&key, workload, &profile, decomposition, flavor);
            self.cache
                .admit_seed(&key, workload, profile, Arc::clone(decomposition));
        }
        let rank = built.decomposition.as_ref().map(|d| d.rank());
        let solve = built.decomposition.as_ref().map(|d| d.stats());
        let cached = self.admit(key, flavor, workload, rank, solve, built.mechanism);
        Ok(self.finish(key, flavor, outcome, t0, cached, warm_start))
    }

    /// Builds the cache entry for a freshly compiled (or disk-loaded)
    /// strategy, evaluating its expected error once — at the reference
    /// budget matching the compile's flavor — so later memory hits are
    /// pure map lookups.
    fn admit(
        &self,
        key: cache::CacheKey,
        flavor: NoiseFlavor,
        workload: &Workload,
        strategy_rank: Option<usize>,
        solve: Option<&DecompositionStats>,
        mechanism: Arc<dyn Mechanism + Send + Sync>,
    ) -> CachedStrategy {
        let cached = CachedStrategy {
            expected_avg_error: mechanism
                .expected_average_error_budget(self.reference_budget(flavor), None),
            workload_op: Arc::clone(workload.op()),
            strategy_rank,
            alm_iterations: solve.map(|s| s.outer_iterations),
            solved_cols: solve.map(|s| s.solved_cols),
            nesterov_iterations: solve.map(|s| s.nesterov_iterations),
            mechanism,
        };
        self.cache.insert(key, cached.clone());
        cached
    }

    /// Drops every strategy resident in the memory cache (counters and
    /// the disk spill layer are untouched). Long sweeps over many distinct
    /// workloads — where no future compile will ever hit — call this to
    /// keep the cache from retaining every strategy they ever built.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// [`Engine::compile`] with the engine's default options.
    pub fn compile_default(
        &self,
        workload: &Workload,
        kind: MechanismKind,
    ) -> Result<CompiledMechanism, CoreError> {
        self.compile(workload, kind, &self.defaults)
    }

    /// Compiles every kind in `panel` and returns the one with the lowest
    /// closed-form expected error at the engine's reference ε — the argmin
    /// the paper's figures take by eye.
    ///
    /// Selection reads only public quantities (workload, options, ε), so
    /// it consumes no privacy budget. Kinds that fail to compile are
    /// skipped as long as at least one succeeds; all candidates stay in
    /// the strategy cache afterwards.
    pub fn compile_best(
        &self,
        workload: &Workload,
        panel: &[MechanismKind],
        options: &CompileOptions,
    ) -> Result<CompiledMechanism, CoreError> {
        let mut best: Option<CompiledMechanism> = None;
        let mut last_err: Option<CoreError> = None;
        for &kind in panel {
            match self.compile(workload, kind, options) {
                Ok(candidate) => {
                    let better = best.as_ref().is_none_or(|b| {
                        candidate.meta.expected_avg_error < b.meta.expected_avg_error
                    });
                    if better {
                        best = Some(candidate);
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        best.ok_or_else(|| {
            last_err.unwrap_or_else(|| {
                CoreError::InvalidArgument("compile_best needs a non-empty panel".into())
            })
        })
    }

    /// [`Engine::compile_best`] over [`MechanismKind::STANDARD_PANEL`]
    /// with the engine's default options.
    pub fn compile_best_default(
        &self,
        workload: &Workload,
    ) -> Result<CompiledMechanism, CoreError> {
        self.compile_best(workload, &MechanismKind::STANDARD_PANEL, &self.defaults)
    }

    /// The one exit of every compile path: counts the outcome and
    /// assembles the [`CompileMeta`] provenance.
    fn finish(
        &self,
        (fingerprint, kind, _): cache::CacheKey,
        flavor: NoiseFlavor,
        cache: CacheOutcome,
        t0: Instant,
        cached: CachedStrategy,
        warm_start: Option<WarmStartProvenance>,
    ) -> CompiledMechanism {
        self.cache.record(cache);
        CompiledMechanism {
            meta: CompileMeta {
                kind,
                flavor,
                label: kind.label_for(flavor),
                fingerprint,
                cache,
                compile_seconds: t0.elapsed().as_secs_f64(),
                strategy_rank: cached.strategy_rank,
                alm_iterations: cached.alm_iterations,
                solved_cols: cached.solved_cols,
                nesterov_iterations: cached.nesterov_iterations,
                warm_start,
                expected_avg_error: cached.expected_avg_error,
                reference_eps: self.reference_eps,
                reference_delta: match flavor {
                    NoiseFlavor::PureDp => 0.0,
                    NoiseFlavor::ApproxDp => self.reference_delta,
                },
                degraded: false,
            },
            mechanism: cached.mechanism,
        }
    }

    /// [`Engine::compile`] under a cooperative wall-clock budget: the
    /// iterative solvers poll a thread-local deadline token
    /// ([`lrm_opt::deadline`]) once per iteration and the compile is
    /// abandoned with [`CoreError::DeadlineExceeded`] when it expires.
    ///
    /// The deadline is an execution constraint, not part of the strategy
    /// identity — it never enters the cache key, and an abandoned
    /// compile caches nothing. Cache and store hits return well within
    /// any realistic budget; only cold/warm ALM runs can be cut off.
    /// Callers (the serving runtime) are expected to fall back to a
    /// non-iterative kind such as [`MechanismKind::Laplace`] at the same
    /// ε; the next compile of the same workload starts over.
    pub fn compile_with_deadline(
        &self,
        workload: &Workload,
        kind: MechanismKind,
        options: &CompileOptions,
        budget: std::time::Duration,
    ) -> Result<CompiledMechanism, CoreError> {
        lrm_opt::deadline::with_deadline(lrm_opt::deadline::Deadline::after(budget), || {
            self.compile(workload, kind, options)
        })
    }
}

// Thread-sharing contract: `lrm-server` worker pools compile through one
// shared `&Engine` and answer through shared `CompiledMechanism`s across
// threads. Every strategy is held as `Arc<dyn Mechanism + Send + Sync>`
// and the cache serializes behind its own locks, so these bounds hold
// structurally — this assertion turns any regression (e.g. an interior
// non-`Sync` cell added to the cache) into a compile error here instead
// of a trait-bound error in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<EngineBuilder>();
    assert_send_sync::<CompiledMechanism>();
    assert_send_sync::<CompileMeta>();
    const fn assert_send<T: Send>() {}
    // A `Session` is single-owner (answering takes `&mut self`) but may
    // move to a worker thread.
    assert_send::<Session>();
};

/// Warm-start provenance: where a [`CacheOutcome::WarmStart`] compile's
/// seed came from. All quantities here are public (derived from
/// workloads, never from data).
#[derive(Debug, Clone)]
pub struct WarmStartProvenance {
    /// Raw fingerprint of the workload whose decomposition seeded this
    /// compile.
    pub seed_fingerprint: u64,
    /// L1 distance between the two coarse column profiles (0 = identical).
    pub profile_distance: f64,
}

/// Structured metadata attached to every [`Engine::compile`] result.
#[derive(Debug, Clone)]
pub struct CompileMeta {
    /// The registry entry that was compiled.
    pub kind: MechanismKind,
    /// The noise model the strategy is calibrated for.
    pub flavor: NoiseFlavor,
    /// Figure-legend label of the kind under its flavor (`"LRM"` pure,
    /// `"LRM-G"` approximate, …).
    pub label: &'static str,
    /// Content hash of the workload this strategy answers.
    pub fingerprint: Fingerprint,
    /// Where the compile was served from.
    pub cache: CacheOutcome,
    /// Wall-clock seconds this compile call took (≈0 on a memory hit).
    pub compile_seconds: f64,
    /// Decomposition rank `r` for decomposition-backed kinds.
    pub strategy_rank: Option<usize>,
    /// Outer ALM iterations the compile ran (`None` for non-iterative
    /// kinds and for strategies reloaded from the store).
    pub alm_iterations: Option<usize>,
    /// Columns the ALM solved over — the distinct columns of the workload
    /// (`None` whenever [`CompileMeta::alm_iterations`] is).
    pub solved_cols: Option<usize>,
    /// Nesterov (Algorithm 2) iterations the compile ran, summed over
    /// every L-step (`None` whenever [`CompileMeta::alm_iterations`] is).
    /// Like the outer count it depends on the workload alone.
    pub nesterov_iterations: Option<usize>,
    /// Present iff the compile was seeded by a similar cached strategy.
    pub warm_start: Option<WarmStartProvenance>,
    /// Closed-form expected **average** squared error at
    /// [`CompileMeta::reference_eps`] (paired with
    /// [`CompileMeta::reference_delta`] for approximate compiles;
    /// data-independent terms only).
    pub expected_avg_error: f64,
    /// The reference ε the expected error is quoted at.
    pub reference_eps: Epsilon,
    /// The reference δ the expected error is quoted at — `0` for pure
    /// compiles, the engine's configured reference δ for approximate ones.
    pub reference_delta: f64,
    /// Whether this strategy is a degraded-mode stand-in: the requested
    /// kind blew its compile deadline and a guaranteed-fast fallback
    /// answered instead — same ε, correct privacy accounting, higher
    /// error. Set by [`CompiledMechanism::mark_degraded`].
    pub degraded: bool,
}

/// A compiled strategy plus its [`CompileMeta`].
///
/// Implements [`Mechanism`] by delegation, so it can be measured or
/// answered directly; [`CompiledMechanism::session`] opens a
/// budget-tracked [`Session`] over it.
#[derive(Clone)]
pub struct CompiledMechanism {
    mechanism: Arc<dyn Mechanism + Send + Sync>,
    meta: CompileMeta,
}

impl CompiledMechanism {
    /// The compile metadata.
    pub fn meta(&self) -> &CompileMeta {
        &self.meta
    }

    /// Opens a budget-tracked [`Session`] holding `total` as its overall
    /// ε guarantee.
    pub fn session(&self, total: Epsilon) -> Session {
        Session::open(self, total)
    }

    /// Opens a budget-tracked [`Session`] holding `total` as its overall
    /// (ε, δ) guarantee — the entry point for approximate-DP strategies,
    /// whose releases need a δ to exist at all.
    pub fn session_budget(&self, total: Budget) -> Session {
        Session::open_budget(self, total)
    }

    /// Marks this strategy as a degraded-mode stand-in for a kind whose
    /// compile blew its deadline (see [`CompileMeta::degraded`]). Only
    /// the metadata changes; privacy accounting is untouched.
    pub fn mark_degraded(mut self) -> Self {
        self.meta.degraded = true;
        self
    }

    pub(crate) fn shared_mechanism(&self) -> Arc<dyn Mechanism + Send + Sync> {
        Arc::clone(&self.mechanism)
    }
}

impl Mechanism for CompiledMechanism {
    fn name(&self) -> &'static str {
        self.meta.label
    }

    fn num_queries(&self) -> usize {
        self.mechanism.num_queries()
    }

    fn domain_size(&self) -> usize {
        self.mechanism.domain_size()
    }

    fn answer(
        &self,
        x: &[f64],
        eps: Epsilon,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, CoreError> {
        self.mechanism.answer(x, eps, rng)
    }

    fn expected_error(&self, eps: Epsilon, x: Option<&[f64]>) -> f64 {
        self.mechanism.expected_error(eps, x)
    }

    // The budget/top-up methods must delegate explicitly: the trait
    // defaults would route them through `CompiledMechanism::answer`,
    // which a Gaussian inner mechanism rejects.
    fn answer_budget(
        &self,
        x: &[f64],
        budget: Budget,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, CoreError> {
        self.mechanism.answer_budget(x, budget, rng)
    }

    fn answer_with_topup(
        &self,
        x: &[f64],
        base: Budget,
        target: Budget,
        base_rng: &mut dyn RngCore,
        topup_rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>, CoreError> {
        self.mechanism
            .answer_with_topup(x, base, target, base_rng, topup_rng)
    }

    fn expected_error_budget(&self, budget: Budget, x: Option<&[f64]>) -> f64 {
        self.mechanism.expected_error_budget(budget, x)
    }
}

impl std::fmt::Debug for CompiledMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledMechanism")
            .field("meta", &self.meta)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrm_dp::rng::derive_rng;
    use lrm_workload::generators::{WRange, WRelated, WorkloadGenerator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn workload() -> Workload {
        WRange
            .generate(8, 16, &mut StdRng::seed_from_u64(11))
            .unwrap()
    }

    #[test]
    fn second_compile_is_a_memory_hit() {
        let engine = Engine::builder().build();
        let w = workload();
        let first = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
        assert_eq!(first.meta().cache, CacheOutcome::Miss);

        let second = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
        assert_eq!(second.meta().cache, CacheOutcome::MemoryHit);
        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.memory_hits), (1, 1));

        // Same strategy object, not a recompile.
        assert!(Arc::ptr_eq(&first.mechanism, &second.mechanism));
    }

    #[test]
    fn expired_deadline_abandons_iterative_compiles_only() {
        let engine = Engine::builder().build();
        let w = workload();

        // A zero budget is expired before the first ALM outer iteration.
        let err = engine
            .compile_with_deadline(
                &w,
                MechanismKind::Lrm,
                engine.default_options(),
                std::time::Duration::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, CoreError::DeadlineExceeded);
        // An abandoned compile caches nothing.
        assert_eq!(engine.cache_stats().entries, 0);

        // Non-iterative kinds never poll the deadline.
        let fallback = engine
            .compile_with_deadline(
                &w,
                MechanismKind::Laplace,
                engine.default_options(),
                std::time::Duration::ZERO,
            )
            .unwrap()
            .mark_degraded();
        assert!(fallback.meta().degraded);
        assert_eq!(fallback.meta().label, "LM");

        // A generous budget compiles normally, unmarked.
        let full = engine
            .compile_with_deadline(
                &w,
                MechanismKind::Lrm,
                engine.default_options(),
                std::time::Duration::from_secs(600),
            )
            .unwrap();
        assert!(!full.meta().degraded);
        // The deadline is not part of the cache identity: a plain
        // compile afterwards is a memory hit.
        let again = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
        assert_eq!(again.meta().cache, CacheOutcome::MemoryHit);
    }

    #[test]
    fn clear_cache_drops_entries_but_keeps_counters() {
        let engine = Engine::builder().build();
        let w = workload();
        engine.compile_default(&w, MechanismKind::Laplace).unwrap();
        assert_eq!(engine.cache_stats().entries, 1);

        engine.clear_cache();
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 1);

        // A post-clear compile of the same workload recompiles.
        let again = engine.compile_default(&w, MechanismKind::Laplace).unwrap();
        assert_eq!(again.meta().cache, CacheOutcome::Miss);
    }

    #[test]
    fn different_options_are_different_cache_entries() {
        let engine = Engine::builder().build();
        let w = workload();
        engine.compile_default(&w, MechanismKind::Lrm).unwrap();

        let mut opts = CompileOptions::default();
        opts.decomposition.gamma = 0.5;
        let other = engine.compile(&w, MechanismKind::Lrm, &opts).unwrap();
        // A different digest is a different cache entry, and seeds never
        // cross digests: the second full solve runs cold.
        assert_eq!(other.meta().cache, CacheOutcome::Miss);
        assert!(other.meta().warm_start.is_none());
        assert_eq!(engine.cache_stats().entries, 2);

        // Repeats of both option sets are exact memory hits.
        let again = engine.compile(&w, MechanismKind::Lrm, &opts).unwrap();
        assert_eq!(again.meta().cache, CacheOutcome::MemoryHit);
    }

    #[test]
    fn flavors_are_separate_cache_entries_and_labels() {
        let engine = Engine::builder().build();
        let w = workload();
        let pure = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
        assert_eq!(pure.meta().flavor, NoiseFlavor::PureDp);
        assert_eq!(pure.meta().label, "LRM");
        assert_eq!(pure.meta().reference_delta, 0.0);

        let opts = CompileOptions::with_flavor(NoiseFlavor::ApproxDp);
        let approx = engine.compile(&w, MechanismKind::Lrm, &opts).unwrap();
        // The pure decomposition does not even seed it: each flavor has
        // its own options digest.
        assert_eq!(approx.meta().cache, CacheOutcome::Miss);
        assert_eq!(approx.meta().flavor, NoiseFlavor::ApproxDp);
        assert_eq!(approx.meta().label, "LRM-G");
        assert!(approx.meta().reference_delta > 0.0);
        assert!(approx.meta().expected_avg_error.is_finite());
        assert_eq!(engine.cache_stats().entries, 2);
        assert!(!Arc::ptr_eq(&pure.mechanism, &approx.mechanism));

        // The pure strategy is NEVER served for an approximate request:
        // a repeat approximate compile hits its own entry…
        let again = engine.compile(&w, MechanismKind::Lrm, &opts).unwrap();
        assert_eq!(again.meta().cache, CacheOutcome::MemoryHit);
        assert!(Arc::ptr_eq(&approx.mechanism, &again.mechanism));
        // …and the compiled artifacts enforce their own calibration.
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        assert!(approx.answer(&x, eps(1.0), &mut derive_rng(0, 0)).is_err());
        let b = Budget::approx(eps(1.0), 1e-6).unwrap();
        assert!(approx.answer_budget(&x, b, &mut derive_rng(0, 0)).is_ok());
    }

    #[test]
    fn approx_compile_of_unsupported_kind_is_a_typed_error() {
        let engine = Engine::builder().build();
        let w = workload();
        let opts = CompileOptions::with_flavor(NoiseFlavor::ApproxDp);
        let err = engine
            .compile(&w, MechanismKind::Wavelet, &opts)
            .unwrap_err();
        assert!(err.to_string().contains("no approximate-DP"), "{err}");
        // Nothing was cached for the failed compile.
        assert_eq!(engine.cache_stats().entries, 0);
    }

    #[test]
    fn pure_store_dir_never_serves_an_approx_compile() {
        let dir = std::env::temp_dir().join(format!("lrm_engine_xflavor_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = panel(64, 15);

        // A PR-7-style engine writes a pure entry.
        let engine = Engine::builder().spill_dir(&dir).build();
        engine.compile_default(&w, MechanismKind::Lrm).unwrap();
        drop(engine);

        // A fresh engine asked for the approximate flavor of the SAME
        // workload: the stored pure entry must not disk-hit (different
        // digest ⇒ different path; and load_exact would reject the flavor
        // anyway), so the L2 solve runs cold.
        let engine2 = Engine::builder().spill_dir(&dir).build();
        let opts = CompileOptions::with_flavor(NoiseFlavor::ApproxDp);
        let approx = engine2.compile(&w, MechanismKind::Lrm, &opts).unwrap();
        assert_eq!(approx.meta().cache, CacheOutcome::Miss);
        assert_eq!(engine2.cache_stats().disk_hits, 0);

        // The pure entry still disk-hits for pure requests.
        let pure = engine2.compile_default(&w, MechanismKind::Lrm).unwrap();
        assert_eq!(pure.meta().cache, CacheOutcome::DiskHit);

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn disk_spill_survives_an_engine_restart() {
        let dir = std::env::temp_dir().join(format!("lrm_engine_spill_{}", std::process::id()));
        let w = workload();

        let engine = Engine::builder().spill_dir(&dir).build();
        engine.compile_default(&w, MechanismKind::Lrm).unwrap();

        // A fresh engine (cold memory cache) over the same spill dir.
        let engine2 = Engine::builder().spill_dir(&dir).build();
        let reloaded = engine2.compile_default(&w, MechanismKind::Lrm).unwrap();
        assert_eq!(reloaded.meta().cache, CacheOutcome::DiskHit);
        assert_eq!(engine2.cache_stats().disk_hits, 1);

        // And the reloaded strategy answers identically.
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let direct = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
        let a = direct.answer(&x, eps(1.0), &mut derive_rng(5, 6)).unwrap();
        let b = reloaded
            .answer(&x, eps(1.0), &mut derive_rng(5, 6))
            .unwrap();
        assert_eq!(a, b);

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compile_best_prefers_lrm_on_low_rank_workloads() {
        let engine = Engine::builder().reference_epsilon(eps(0.1)).build();
        let w = WRelated { base_queries: 3 }
            .generate(24, 48, &mut StdRng::seed_from_u64(2))
            .unwrap();
        let best = engine.compile_best_default(&w).unwrap();
        assert_eq!(best.meta().kind, MechanismKind::Lrm);

        // Never worse than the Laplace baseline (it is in the panel).
        let lm = engine.compile_default(&w, MechanismKind::Laplace).unwrap();
        assert!(best.meta().expected_avg_error <= lm.meta().expected_avg_error);
    }

    #[test]
    fn compile_best_tolerates_failing_candidates() {
        let engine = Engine::builder().build();
        let w = workload();
        // An impossible LRM config (zero iterations) fails; the panel
        // still yields the best of the remaining kinds.
        let mut opts = CompileOptions::default();
        opts.decomposition.max_outer_iters = 0;
        let best = engine
            .compile_best(&w, &[MechanismKind::Lrm, MechanismKind::Laplace], &opts)
            .unwrap();
        assert_eq!(best.meta().kind, MechanismKind::Laplace);

        // All candidates failing surfaces the error.
        assert!(engine
            .compile_best(&w, &[MechanismKind::Lrm], &opts)
            .is_err());
        assert!(engine.compile_best(&w, &[], &opts).is_err());
    }

    /// A dashboard-style range panel: `cuts` equal ranges, four quarter
    /// rollups, and the grand total over `n` bins. Panels with nearby cut
    /// counts are the similarity index's motivating near-duplicates.
    fn panel(n: usize, cuts: usize) -> Workload {
        let mut iv = Vec::with_capacity(cuts + 5);
        for c in 0..cuts {
            iv.push((c * n / cuts, (c + 1) * n / cuts - 1));
        }
        for q in 0..4 {
            iv.push((q * n / 4, (q + 1) * n / 4 - 1));
        }
        iv.push((0, n - 1));
        Workload::from_intervals(n, iv).unwrap()
    }

    #[test]
    fn similar_workload_warm_starts_but_is_never_served() {
        let engine = Engine::builder().build();
        let wa = panel(64, 15);
        let wb = panel(64, 16);
        let first = engine.compile_default(&wa, MechanismKind::Lrm).unwrap();
        assert_eq!(first.meta().cache, CacheOutcome::Miss);
        assert!(first.meta().alm_iterations.is_some());

        let second = engine.compile_default(&wb, MechanismKind::Lrm).unwrap();
        assert_eq!(second.meta().cache, CacheOutcome::WarmStart);
        let prov = second.meta().warm_start.as_ref().expect("provenance");
        assert_eq!(prov.seed_fingerprint, wa.fingerprint().as_u64());
        assert!(prov.profile_distance < 0.5);

        // Seeding only: the warm compile produced a *new* strategy for
        // wb's own queries, not the cached strategy for wa.
        assert!(!Arc::ptr_eq(&first.mechanism, &second.mechanism));
        assert_eq!(second.num_queries(), wb.num_queries());

        let stats = engine.cache_stats();
        assert_eq!((stats.misses, stats.warm_hits), (1, 1));

        // A repeat of wb is an exact memory hit, not another warm start.
        let third = engine.compile_default(&wb, MechanismKind::Lrm).unwrap();
        assert_eq!(third.meta().cache, CacheOutcome::MemoryHit);
    }

    #[test]
    fn dissimilar_workload_compiles_cold() {
        let engine = Engine::builder().build();
        // Same class and n, but all the mass in opposite halves: profile
        // distance far above the similarity threshold.
        let left = Workload::from_intervals(32, vec![(0, 3), (4, 7), (8, 11), (12, 15)]).unwrap();
        let right =
            Workload::from_intervals(32, vec![(16, 19), (20, 23), (24, 27), (28, 31)]).unwrap();
        engine.compile_default(&left, MechanismKind::Lrm).unwrap();
        let second = engine.compile_default(&right, MechanismKind::Lrm).unwrap();
        assert_eq!(second.meta().cache, CacheOutcome::Miss);
        assert!(second.meta().warm_start.is_none());
        assert_eq!(engine.cache_stats().warm_hits, 0);
    }

    #[test]
    fn restarted_engine_warms_from_the_store() {
        let dir = std::env::temp_dir().join(format!("lrm_engine_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wa = panel(64, 15);
        let wb = panel(64, 16);

        let engine = Engine::builder().spill_dir(&dir).build();
        engine.compile_default(&wa, MechanismKind::Lrm).unwrap();
        drop(engine);

        // A fresh process reloads wa with zero recompiles…
        let engine2 = Engine::builder().spill_dir(&dir).build();
        let reloaded = engine2.compile_default(&wa, MechanismKind::Lrm).unwrap();
        assert_eq!(reloaded.meta().cache, CacheOutcome::DiskHit);
        assert_eq!(engine2.cache_stats().misses, 0);

        // …and the reloaded decomposition seeds wb's near-duplicate.
        let warmed = engine2.compile_default(&wb, MechanismKind::Lrm).unwrap();
        assert_eq!(warmed.meta().cache, CacheOutcome::WarmStart);
        assert_eq!(
            warmed.meta().warm_start.as_ref().unwrap().seed_fingerprint,
            wa.fingerprint().as_u64()
        );

        // A restarted engine that has not hit wa holds no seed for wb.
        let engine3 = Engine::builder().spill_dir(&dir).build();
        let wc = panel(64, 17);
        let cold = engine3.compile_default(&wc, MechanismKind::Lrm).unwrap();
        assert_eq!(cold.meta().cache, CacheOutcome::Miss);

        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_refused_seed_compiles_as_a_miss() {
        // A dense workload with no repeated columns (k = n), and a
        // neighbour with the same column profile.
        let w = WRelated { base_queries: 4 }
            .generate(12, 16, &mut StdRng::seed_from_u64(12))
            .unwrap();
        let dense = w.matrix();
        let rows: Vec<&[f64]> = (0..dense.rows()).rev().map(|i| dense.row(i)).collect();
        let neighbour = Workload::from_rows(&rows).unwrap();

        // The only seed is w's decomposition with every row of L but the
        // first shrunk 10⁹×: its refit costs more than Lemma 3, so the
        // solver refuses it.
        let engine = Engine::builder().build();
        let good = crate::decomposition::WorkloadDecomposition::compute(
            &w,
            &engine.default_options().decomposition,
        )
        .unwrap();
        let mut weak = good.l().clone();
        for i in 1..weak.rows() {
            let row: Vec<f64> = weak.row(i).iter().map(|v| v * 1e-9).collect();
            weak.set_row(i, &row);
        }
        let residual = crate::decomposition::residual_of(w.op().as_ref(), good.b(), &weak);
        let dead = crate::decomposition::WorkloadDecomposition::from_parts_with_norm(
            good.b().clone(),
            weak,
            residual,
            lrm_dp::SensitivityNorm::L1,
        );
        let key = (
            neighbour.fingerprint(),
            MechanismKind::Lrm,
            engine.default_options().digest(MechanismKind::Lrm),
        );
        let profile = coarse_column_profile(neighbour.op().as_ref(), PROFILE_BUCKETS);
        engine
            .cache
            .admit_seed(&key, &neighbour, profile.clone(), Arc::new(dead));
        let (_, provenance) = engine
            .cache
            .nearest_seed(MechanismKind::Lrm, key.2, &w, None, &profile)
            .expect("the near-dead decomposition is w's nearest seed");
        assert_eq!(
            provenance.seed_fingerprint,
            neighbour.fingerprint().as_u64()
        );

        let before = engine.cache_stats();
        let compiled = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
        assert_eq!(compiled.meta().cache, CacheOutcome::Miss);
        assert!(compiled.meta().warm_start.is_none());
        let after = engine.cache_stats();
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.warm_hits, before.warm_hits);
    }

    #[test]
    fn version_mismatched_store_entries_are_recompiled() {
        // Two kinds of damage to every stored entry: a corrupted version
        // word, and a file torn to half its length.
        let damages: [fn(&mut Vec<u8>); 2] = [|b| b[4] = 0xEE, |b| b.truncate(b.len() / 2)];
        for (case, damage) in damages.into_iter().enumerate() {
            let dir =
                std::env::temp_dir().join(format!("lrm_engine_vmm_{}_{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let w = panel(64, 15);

            let engine = Engine::builder().spill_dir(&dir).build();
            engine.compile_default(&w, MechanismKind::Lrm).unwrap();
            drop(engine);

            for entry in std::fs::read_dir(&dir).unwrap().flatten() {
                let path = entry.path();
                let mut bytes = std::fs::read(&path).unwrap();
                damage(&mut bytes);
                std::fs::write(&path, &bytes).unwrap();
            }

            let engine2 = Engine::builder().spill_dir(&dir).build();
            let again = engine2.compile_default(&w, MechanismKind::Lrm).unwrap();
            assert_eq!(again.meta().cache, CacheOutcome::Miss, "damage {case}");
            assert_eq!(engine2.cache_stats().store_loads, 0, "damage {case}");

            // The recompile overwrote the bad entry: a third engine reloads.
            drop(engine2);
            let engine3 = Engine::builder().spill_dir(&dir).build();
            let reloaded = engine3.compile_default(&w, MechanismKind::Lrm).unwrap();
            assert_eq!(
                reloaded.meta().cache,
                CacheOutcome::DiskHit,
                "damage {case}"
            );

            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn budget_sessions_compose_delta_and_refuse_overspend() {
        let engine = Engine::builder().build();
        let w = workload();
        let opts = CompileOptions::with_flavor(NoiseFlavor::ApproxDp);
        let compiled = engine.compile(&w, MechanismKind::Lrm, &opts).unwrap();
        let total = Budget::approx(eps(1.0), 2e-6).unwrap();
        let mut session = compiled.session_budget(total);
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();

        let per_release = Budget::approx(eps(0.5), 1e-6).unwrap();
        let first = session
            .answer_budget(&x, per_release, &mut derive_rng(1, 0))
            .unwrap();
        assert_eq!(first.delta_spent, 1e-6);
        assert!((first.delta_remaining - 1e-6).abs() < 1e-18);
        assert!((first.eps_remaining - 0.5).abs() < 1e-12);
        assert!(first.expected_avg_error.is_finite());

        session
            .answer_budget(&x, per_release, &mut derive_rng(1, 1))
            .unwrap();
        // ε and δ are both exhausted now; a third release is refused and
        // the ledger is untouched by the refusal.
        let before = session.ledger().delta_spent();
        assert!(session
            .answer_budget(&x, per_release, &mut derive_rng(1, 2))
            .is_err());
        assert_eq!(session.ledger().delta_spent(), before);

        // A pure session over the Gaussian strategy can't release at all:
        // answer() is rejected by the mechanism before any debit.
        let mut pure_session = compiled.session(eps(1.0));
        assert!(pure_session
            .answer(&x, eps(0.5), &mut derive_rng(1, 3))
            .is_err());
        assert_eq!(pure_session.ledger().spent(), 0.0);
    }

    #[test]
    fn meta_reports_rank_and_reference_error() {
        let engine = Engine::builder().build();
        let w = workload();
        let lrm = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
        assert!(lrm.meta().strategy_rank.is_some());
        assert!(lrm.meta().expected_avg_error > 0.0);
        assert_eq!(lrm.meta().label, "LRM");

        let wm = engine.compile_default(&w, MechanismKind::Wavelet).unwrap();
        assert!(wm.meta().strategy_rank.is_none());
    }

    /// A grid-snapped batch shaped like the serving benchmark's: `panels`
    /// dashboards of 8 rows over 64 buckets, every endpoint on a 16-cell
    /// grid, each panel a prefix histogram one time in four and
    /// otherwise a set of ranges.
    fn grid_panel_batch(rng: &mut StdRng, panels: usize) -> Workload {
        let (n, cuts, rows) = (64, 16, 8);
        let step = n / cuts;
        let mut intervals = Vec::new();
        for _ in 0..panels {
            let prefixes = rng.gen_range(0..4) == 3;
            for _ in 0..rows {
                intervals.push(if prefixes {
                    (0, rng.gen_range(1..=cuts) * step - 1)
                } else {
                    let lo = rng.gen_range(0..cuts);
                    let hi = rng.gen_range(lo + 1..=cuts);
                    (lo * step, hi * step - 1)
                });
            }
        }
        Workload::from_intervals(n, intervals).unwrap()
    }

    /// The default inner budget (10 Nesterov iterations per L-step)
    /// against the paper's 40, paired batch by batch over 30 serving-shaped
    /// batches, each arm through one engine so warm starts happen as in
    /// serving. One workload alone swings several percent either way with
    /// the budget; the median ratio over many does not.
    #[test]
    fn default_nesterov_budget_keeps_the_error_at_a_third_of_the_work() {
        use crate::decomposition::DecompositionConfig;
        let paper = CompileOptions::with_decomposition(DecompositionConfig {
            nesterov: lrm_opt::NesterovConfig {
                max_iters: 40,
                ..lrm_opt::NesterovConfig::default()
            },
            ..DecompositionConfig::default()
        });
        let arms = [CompileOptions::default(), paper];
        let engines = [Engine::builder().build(), Engine::builder().build()];
        let mut rng = StdRng::seed_from_u64(17);
        let mut ratios = Vec::new();
        let mut inner = [0usize; 2];
        for _ in 0..30 {
            let panels = rng.gen_range(2..=4);
            let w = grid_panel_batch(&mut rng, panels);
            let mut errors = [0.0; 2];
            for (arm, (engine, options)) in engines.iter().zip(&arms).enumerate() {
                let kind = MechanismKind::Lrm;
                let compiled = engine.compile(&w, kind, options).unwrap();
                let key = (w.fingerprint(), kind, options.digest(kind));
                let d = engine.cache.resident_decomposition(&key).unwrap();
                let gamma = options.decomposition.gamma;
                assert!(d.stats().residual <= gamma, "τ = {}", d.stats().residual);
                assert!(d.sensitivity() <= 1.0 + 1e-9, "Δ = {}", d.sensitivity());
                inner[arm] += compiled.meta().nesterov_iterations.unwrap();
                errors[arm] = compiled.meta().expected_avg_error;
            }
            ratios.push(errors[0] / errors[1]);
        }
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        assert!(median <= 1.03, "median error ratio {median}: {ratios:?}");
        assert!(3 * inner[0] <= inner[1], "Nesterov iterations {inner:?}");
    }
}
