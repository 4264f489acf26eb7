//! The mechanism registry: one enum naming every strategy the engine can
//! compile, with a single dispatch point replacing the per-type `compile`
//! constructors at the API surface.

use crate::baselines::{
    GaussianNoiseOnData, HierarchicalMechanism, MatrixMechanism, MatrixMechanismConfig,
    NoiseOnData, NoiseOnResults, WaveletMechanism,
};
use crate::decomposition::{DecompositionConfig, WorkloadDecomposition};
use crate::error::CoreError;
use crate::extensions::CompensatedLowRankMechanism;
use crate::lrm::LowRankMechanism;
use crate::mechanism::Mechanism;
use lrm_dp::SensitivityNorm;
use lrm_workload::Workload;
use std::fmt;
use std::sync::Arc;

/// The noise model a strategy is calibrated for.
///
/// The flavor decides the sensitivity norm the decomposition constrains
/// (`Δ₁` vs `Δ₂`), the noise distribution of every release (Laplace vs
/// Gaussian), and the privacy guarantee a session debits (pure ε vs
/// (ε, δ)). It is part of the strategy-cache key and the on-disk store
/// header: an L1-optimized strategy is **never** served for an L2 request
/// or vice versa — the calibrations do not transfer, only the warm-start
/// seeds do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NoiseFlavor {
    /// Pure ε-DP: Laplace noise against L1 sensitivity.
    #[default]
    PureDp,
    /// Approximate (ε, δ)-DP: Gaussian noise against L2 sensitivity,
    /// calibrated by the analytic Gaussian mechanism.
    ApproxDp,
}

impl NoiseFlavor {
    /// The sensitivity norm this flavor's decomposition constrains.
    pub fn norm(self) -> SensitivityNorm {
        match self {
            NoiseFlavor::PureDp => SensitivityNorm::L1,
            NoiseFlavor::ApproxDp => SensitivityNorm::L2,
        }
    }

    /// Short lowercase token for digests, filenames, and metrics labels.
    pub fn token(self) -> &'static str {
        match self {
            NoiseFlavor::PureDp => "pure",
            NoiseFlavor::ApproxDp => "approx",
        }
    }

    /// Stable one-byte tag for the strategy-store file format (v2+).
    pub(crate) fn store_tag(self) -> u8 {
        match self {
            NoiseFlavor::PureDp => 0,
            NoiseFlavor::ApproxDp => 1,
        }
    }

    /// Inverse of [`NoiseFlavor::store_tag`].
    pub(crate) fn from_store_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(NoiseFlavor::PureDp),
            1 => Some(NoiseFlavor::ApproxDp),
            _ => None,
        }
    }
}

impl fmt::Display for NoiseFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Every mechanism the [`Engine`](super::Engine) can compile.
///
/// The registry is the runtime counterpart of the paper's evaluation
/// legend: one name per strategy, compiled through one dispatch
/// ([`Engine::compile`](super::Engine::compile)) instead of per-type
/// constructors.
///
/// Two variants share an implementation: in this codebase the paper's "LM"
/// baseline is noise-on-data (Eq. 4), so [`MechanismKind::Laplace`] (the
/// figure-legend name) and [`MechanismKind::Nod`] (the equation name)
/// compile the same mechanism under different labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// The Low-Rank Mechanism (Eq. 6) with the configured decomposition.
    Lrm,
    /// LRM under the relaxed program (Formula 8) with the larger
    /// [`CompileOptions::relaxed_gamma`] tolerance — faster to compile,
    /// with a data-dependent structural residual.
    LrmRelaxed,
    /// The classic Laplace baseline the figures plot as "LM".
    Laplace,
    /// Noise on data (Eq. 4) — identical to [`MechanismKind::Laplace`],
    /// labelled by its equation name.
    Nod,
    /// Noise on results (Eq. 5).
    Nor,
    /// The Matrix Mechanism (Appendix B). `O(n³)` per solver iteration —
    /// keep the domain small.
    MatrixMechanism,
    /// The Wavelet Mechanism (Privelet, ref \[28\]).
    Wavelet,
    /// The Hierarchical Mechanism (Hay et al., ref \[15\]).
    Hierarchical,
    /// Residual-compensated LRM (the paper's §7 future-work direction):
    /// spends part of ε answering the decomposition residual, removing the
    /// relaxed program's structural bias.
    DataAware,
}

impl MechanismKind {
    /// Every registered kind, in legend order.
    pub const ALL: [MechanismKind; 9] = [
        MechanismKind::Lrm,
        MechanismKind::LrmRelaxed,
        MechanismKind::Laplace,
        MechanismKind::Nod,
        MechanismKind::Nor,
        MechanismKind::MatrixMechanism,
        MechanismKind::Wavelet,
        MechanismKind::Hierarchical,
        MechanismKind::DataAware,
    ];

    /// The candidate panel [`Engine::compile_best`](super::Engine::compile_best)
    /// defaults to: every mechanism that is cheap enough to compile at any
    /// domain size (the Matrix Mechanism's `O(n³)` solver is excluded, as
    /// in the paper's Figs. 7–9).
    pub const STANDARD_PANEL: [MechanismKind; 5] = [
        MechanismKind::Laplace,
        MechanismKind::Nor,
        MechanismKind::Wavelet,
        MechanismKind::Hierarchical,
        MechanismKind::Lrm,
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            MechanismKind::Lrm => "LRM",
            MechanismKind::LrmRelaxed => "LRM-γ",
            MechanismKind::Laplace => "LM",
            MechanismKind::Nod => "NOD",
            MechanismKind::Nor => "NOR",
            MechanismKind::MatrixMechanism => "MM",
            MechanismKind::Wavelet => "WM",
            MechanismKind::Hierarchical => "HM",
            MechanismKind::DataAware => "LRM+",
        }
    }

    /// Whether compiling this kind runs the (expensive, cacheable-to-disk)
    /// workload decomposition of Algorithm 1.
    pub fn is_decomposition_backed(&self) -> bool {
        matches!(
            self,
            MechanismKind::Lrm | MechanismKind::LrmRelaxed | MechanismKind::DataAware
        )
    }

    /// Whether this kind has an approximate-DP (Gaussian) calibration.
    ///
    /// The decomposition-backed LRM kinds re-run Algorithm 1 under the L2
    /// constraint; the noise-on-data kinds swap Laplace count noise for
    /// calibrated Gaussian count noise. The remaining baselines publish
    /// `T·η` for strategy matrices whose published error analysis is
    /// Laplace-specific, so they stay pure-only.
    pub fn supports_approx(&self) -> bool {
        matches!(
            self,
            MechanismKind::Lrm
                | MechanismKind::LrmRelaxed
                | MechanismKind::Laplace
                | MechanismKind::Nod
        )
    }

    /// Display label for a kind compiled under `flavor`. Pure labels match
    /// the paper's figure legends; approximate labels append a Gaussian
    /// marker so dashboards can tell the calibrations apart.
    pub fn label_for(&self, flavor: NoiseFlavor) -> &'static str {
        match (self, flavor) {
            (MechanismKind::Lrm, NoiseFlavor::ApproxDp) => "LRM-G",
            (MechanismKind::LrmRelaxed, NoiseFlavor::ApproxDp) => "LRM-γG",
            (MechanismKind::Laplace, NoiseFlavor::ApproxDp) => "GM",
            (MechanismKind::Nod, NoiseFlavor::ApproxDp) => "GNOD",
            _ => self.label(),
        }
    }

    /// Stable one-byte tag for the strategy-store file format. Values are
    /// part of the on-disk contract: never reuse a tag for a different
    /// kind.
    pub(crate) fn store_tag(self) -> u8 {
        match self {
            MechanismKind::Lrm => 1,
            MechanismKind::LrmRelaxed => 2,
            MechanismKind::Laplace => 3,
            MechanismKind::Nod => 4,
            MechanismKind::Nor => 5,
            MechanismKind::MatrixMechanism => 6,
            MechanismKind::Wavelet => 7,
            MechanismKind::Hierarchical => 8,
            MechanismKind::DataAware => 9,
        }
    }

    /// Inverse of [`MechanismKind::store_tag`].
    pub(crate) fn from_store_tag(tag: u8) -> Option<Self> {
        MechanismKind::ALL
            .into_iter()
            .find(|k| k.store_tag() == tag)
    }
}

impl fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-compile knobs consulted by [`Engine::compile`](super::Engine::compile).
///
/// Only the fields a kind actually reads take part in its cache key, so
/// e.g. a Wavelet strategy is reused regardless of the LRM solver budgets.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Algorithm 1 parameters for the decomposition-backed kinds.
    pub decomposition: DecompositionConfig,
    /// The γ tolerance [`MechanismKind::LrmRelaxed`] overrides
    /// `decomposition.gamma` with (the paper's Fig. 2 shows accuracy flat
    /// up to γ ≈ 10 while compile time drops).
    pub relaxed_gamma: f64,
    /// Appendix-B solver parameters for [`MechanismKind::MatrixMechanism`].
    pub matrix_mechanism: MatrixMechanismConfig,
    /// The noise model to calibrate for. Part of the cache key: pure and
    /// approximate strategies for the same workload never alias.
    pub flavor: NoiseFlavor,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            decomposition: DecompositionConfig::default(),
            relaxed_gamma: 1.0,
            matrix_mechanism: MatrixMechanismConfig::default(),
            flavor: NoiseFlavor::PureDp,
        }
    }
}

impl CompileOptions {
    /// Shorthand: default options with the given decomposition config.
    pub fn with_decomposition(decomposition: DecompositionConfig) -> Self {
        Self {
            decomposition,
            ..Self::default()
        }
    }

    /// Shorthand: default options under the given noise flavor.
    pub fn with_flavor(flavor: NoiseFlavor) -> Self {
        Self {
            flavor,
            ..Self::default()
        }
    }

    /// FNV-1a digest of the fields `kind` reads, for the strategy-cache
    /// key. Hashes the `Debug` rendering — exhaustive over fields by
    /// construction, and the cache only ever compares digests for
    /// equality.
    ///
    /// The flavor contributes a `"|approx"` suffix **only** when it is
    /// [`NoiseFlavor::ApproxDp`]: pure digests stay bit-identical to what
    /// earlier releases wrote, so every pre-flavor `.lrms` store file keeps
    /// its name and keeps hitting.
    ///
    /// Strategy-store file names embed this digest, and it hashes the
    /// `Debug` rendering of [`DecompositionConfig`]: changing any default,
    /// or renaming a field, renames every store file, so a store directory
    /// written before the change is never hit again by default-option
    /// compiles. `default_digests_are_pinned` pins the default digests of
    /// both flavors; a change that moves them must update that test on
    /// purpose and say so in the changelog.
    pub(crate) fn digest(&self, kind: MechanismKind) -> u64 {
        let mut relevant = match kind {
            MechanismKind::Lrm => format!("lrm|{:?}", self.decomposition),
            MechanismKind::LrmRelaxed => {
                format!("lrmr|{:?}|γ={}", self.decomposition, self.relaxed_gamma)
            }
            MechanismKind::DataAware => format!("da|{:?}", self.decomposition),
            MechanismKind::MatrixMechanism => format!("mm|{:?}", self.matrix_mechanism),
            // Parameter-free compiles: any options produce the same strategy.
            MechanismKind::Laplace
            | MechanismKind::Nod
            | MechanismKind::Nor
            | MechanismKind::Wavelet
            | MechanismKind::Hierarchical => String::new(),
        };
        if self.flavor == NoiseFlavor::ApproxDp {
            relevant.push_str("|approx");
        }
        lrm_workload::workload::fnv1a_bytes(lrm_workload::workload::FNV_OFFSET, relevant.as_bytes())
    }

    /// The decomposition config a kind actually compiles with.
    pub(crate) fn decomposition_for(&self, kind: MechanismKind) -> DecompositionConfig {
        match kind {
            MechanismKind::LrmRelaxed => DecompositionConfig {
                gamma: self.relaxed_gamma,
                ..self.decomposition.clone()
            },
            _ => self.decomposition.clone(),
        }
    }
}

/// A freshly built strategy plus, for decomposition-backed kinds, the
/// factors worth spilling to disk and seeding warm starts from.
pub(crate) struct Built {
    pub mechanism: Arc<dyn Mechanism + Send + Sync>,
    pub decomposition: Option<Arc<WorkloadDecomposition>>,
}

/// Typed rejection for kinds with no Gaussian calibration.
pub(crate) fn check_flavor_supported(
    kind: MechanismKind,
    flavor: NoiseFlavor,
) -> Result<(), CoreError> {
    if flavor == NoiseFlavor::ApproxDp && !kind.supports_approx() {
        return Err(CoreError::InvalidArgument(format!(
            "{kind} has no approximate-DP (Gaussian) calibration; \
             supported kinds: LRM, LRM-γ, LM, NOD"
        )));
    }
    Ok(())
}

/// Compiles `kind` (no cache involvement). A decomposition-backed kind
/// starts Algorithm 1 from `seed` when one is given, instead of the
/// Lemma 3 cold initializer; the convergence contract is the same either
/// way — only the starting point differs — so the result is a
/// full-fledged strategy, never a shortcut. Other kinds ignore `seed`.
pub(crate) fn build(
    kind: MechanismKind,
    workload: &Workload,
    options: &CompileOptions,
    seed: Option<&lrm_opt::WarmStart>,
) -> Result<Built, CoreError> {
    check_flavor_supported(kind, options.flavor)?;
    let mechanism: Arc<dyn Mechanism + Send + Sync> = match kind {
        MechanismKind::Lrm | MechanismKind::LrmRelaxed | MechanismKind::DataAware => {
            let dec = WorkloadDecomposition::compute_with_init_flavored(
                workload,
                &options.decomposition_for(kind),
                options.flavor.norm(),
                seed,
            )?;
            return Ok(Built {
                mechanism: rebuild_from_decomposition(kind, dec.clone(), workload),
                decomposition: Some(Arc::new(dec)),
            });
        }
        MechanismKind::Laplace | MechanismKind::Nod => match options.flavor {
            NoiseFlavor::PureDp => Arc::new(NoiseOnData::compile(workload)),
            NoiseFlavor::ApproxDp => Arc::new(GaussianNoiseOnData::compile(workload)),
        },
        MechanismKind::Nor => Arc::new(NoiseOnResults::compile(workload)),
        MechanismKind::MatrixMechanism => Arc::new(MatrixMechanism::compile(
            workload,
            &options.matrix_mechanism,
        )?),
        MechanismKind::Wavelet => Arc::new(WaveletMechanism::compile(workload)),
        MechanismKind::Hierarchical => Arc::new(HierarchicalMechanism::compile(workload)),
    };
    Ok(Built {
        mechanism,
        decomposition: None,
    })
}

/// Rebuilds a decomposition-backed mechanism from factors loaded off disk.
pub(crate) fn rebuild_from_decomposition(
    kind: MechanismKind,
    decomposition: WorkloadDecomposition,
    workload: &Workload,
) -> Arc<dyn Mechanism + Send + Sync> {
    let (m, n) = (workload.num_queries(), workload.domain_size());
    match kind {
        MechanismKind::DataAware => Arc::new(CompensatedLowRankMechanism::from_decomposition(
            decomposition,
            m,
            n,
        )),
        _ => Arc::new(LowRankMechanism::from_decomposition(decomposition, m, n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrm_workload::generators::{WRange, WorkloadGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn labels_are_unique_except_the_documented_lm_alias() {
        let labels: Vec<&str> = MechanismKind::ALL.iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "labels must be distinct");
        assert_eq!(MechanismKind::Laplace.label(), "LM");
        assert_eq!(MechanismKind::Nod.label(), "NOD");
    }

    #[test]
    fn digest_separates_kinds_by_what_they_read() {
        let base = CompileOptions::default();
        let mut tweaked = CompileOptions::default();
        tweaked.decomposition.gamma = 0.5;
        // LRM cares about the decomposition config…
        assert_ne!(
            base.digest(MechanismKind::Lrm),
            tweaked.digest(MechanismKind::Lrm)
        );
        // …Wavelet does not.
        assert_eq!(
            base.digest(MechanismKind::Wavelet),
            tweaked.digest(MechanismKind::Wavelet)
        );
        // Relaxed γ only affects the relaxed kind.
        let relaxed = CompileOptions {
            relaxed_gamma: 5.0,
            ..CompileOptions::default()
        };
        assert_ne!(
            base.digest(MechanismKind::LrmRelaxed),
            relaxed.digest(MechanismKind::LrmRelaxed)
        );
        assert_eq!(
            base.digest(MechanismKind::Lrm),
            relaxed.digest(MechanismKind::Lrm)
        );
    }

    #[test]
    fn flavor_separates_digests_only_for_approx() {
        let pure = CompileOptions::default();
        let approx = CompileOptions::with_flavor(NoiseFlavor::ApproxDp);
        for kind in MechanismKind::ALL {
            if kind.supports_approx() {
                assert_ne!(pure.digest(kind), approx.digest(kind), "{kind}");
            }
        }
        // Pure digests are what PR-7 stores were keyed by — unchanged.
        assert_eq!(
            pure.digest(MechanismKind::Lrm),
            CompileOptions::default().digest(MechanismKind::Lrm)
        );
    }

    /// Store file names embed these values in hex (see `digest`): a
    /// change here orphans every strategy store written before it.
    #[test]
    fn default_digests_are_pinned() {
        let digest = |flavor| CompileOptions::with_flavor(flavor).digest(MechanismKind::Lrm);
        assert_eq!(digest(NoiseFlavor::PureDp), 0x1b0a_bc93_1a3b_925e);
        assert_eq!(digest(NoiseFlavor::ApproxDp), 0xaa06_1cd9_5167_0a9a);
    }

    #[test]
    fn approx_labels_and_support_matrix() {
        assert_eq!(MechanismKind::Lrm.label_for(NoiseFlavor::ApproxDp), "LRM-G");
        assert_eq!(
            MechanismKind::LrmRelaxed.label_for(NoiseFlavor::ApproxDp),
            "LRM-γG"
        );
        assert_eq!(
            MechanismKind::Laplace.label_for(NoiseFlavor::ApproxDp),
            "GM"
        );
        assert_eq!(MechanismKind::Nod.label_for(NoiseFlavor::ApproxDp), "GNOD");
        for kind in MechanismKind::ALL {
            assert_eq!(kind.label_for(NoiseFlavor::PureDp), kind.label(), "{kind}");
        }
        assert!(!MechanismKind::Wavelet.supports_approx());
        assert!(!MechanismKind::DataAware.supports_approx());
    }

    #[test]
    fn approx_kinds_build_gaussian_mechanisms() {
        let w = WRange
            .generate(6, 8, &mut StdRng::seed_from_u64(2))
            .unwrap();
        let opts = CompileOptions::with_flavor(NoiseFlavor::ApproxDp);
        let budget = lrm_dp::Budget::approx(lrm_dp::Epsilon::new(1.0).unwrap(), 1e-6).unwrap();
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        for kind in [
            MechanismKind::Lrm,
            MechanismKind::LrmRelaxed,
            MechanismKind::Laplace,
            MechanismKind::Nod,
        ] {
            let built = build(kind, &w, &opts, None).unwrap();
            let mut rng = lrm_dp::rng::derive_rng(8, 9);
            // Pure release rejected, budgeted release works.
            assert!(built
                .mechanism
                .answer(&x, lrm_dp::Epsilon::new(1.0).unwrap(), &mut rng)
                .is_err());
            let y = built.mechanism.answer_budget(&x, budget, &mut rng).unwrap();
            assert_eq!(y.len(), 6, "{kind}");
            let err = built.mechanism.expected_error_budget(budget, Some(&x));
            assert!(err.is_finite() && err > 0.0, "{kind}: {err}");
        }
        // Unsupported kinds are a typed error, not a silent pure fallback.
        assert!(build(MechanismKind::Wavelet, &w, &opts, None).is_err());
        assert!(build(MechanismKind::DataAware, &w, &opts, None).is_err());
    }

    #[test]
    fn every_kind_builds_and_answers() {
        let w = WRange
            .generate(6, 8, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let opts = CompileOptions::default();
        let eps = lrm_dp::Epsilon::new(1.0).unwrap();
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        for kind in MechanismKind::ALL {
            let built = build(kind, &w, &opts, None).unwrap();
            assert_eq!(
                built.decomposition.is_some(),
                kind.is_decomposition_backed(),
                "{kind}"
            );
            let mut rng = lrm_dp::rng::derive_rng(3, 4);
            let y = built.mechanism.answer(&x, eps, &mut rng).unwrap();
            assert_eq!(y.len(), 6, "{kind}");
            assert!(
                built.mechanism.expected_error(eps, Some(&x)) > 0.0,
                "{kind}"
            );
        }
    }
}
