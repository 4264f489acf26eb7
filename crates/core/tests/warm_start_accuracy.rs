//! Warm-start accuracy on the L1 panels a grid-snapped server compiles: a
//! chain of 20 fixed-seed random batches, each seeded by the
//! decomposition of the batch before it, must reach the noise scale
//! `Φ·Δ²` of cold compiles of the same workloads (mean within 5%), and
//! every seeded compile must actually start warm. (L2 compiles are solved
//! from the dual and take no seed.)
//!
//! Iteration counts alone cannot tell a warm start that resumes the
//! optimization from one that stops at its first feasible iterate; this
//! test measures the quantity the released error is proportional to.

use lrm_core::decomposition::{DecompositionConfig, WorkloadDecomposition};
use lrm_dp::SensitivityNorm;
use lrm_opt::WarmStart;
use lrm_workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batches per chain.
const CHAIN: usize = 20;

/// `rows` range or prefix rows over `n` buckets with every endpoint on a
/// grid of `cuts` cells: a prefix panel one time in four, like the
/// dashboards the server batches.
fn grid_batch(rng: &mut StdRng, n: usize, cuts: usize, rows: usize) -> Workload {
    let step = n / cuts;
    let intervals = (0..rows)
        .map(|_| {
            if rng.gen_range(0..4) == 3 {
                (0, rng.gen_range(1..=cuts) * step - 1)
            } else {
                let lo = rng.gen_range(0..cuts);
                let hi = rng.gen_range(lo + 1..=cuts);
                (lo * step, hi * step - 1)
            }
        })
        .collect();
    Workload::from_intervals(n, intervals).unwrap()
}

/// The noise scale the expected error is proportional to.
fn noise_scale(d: &WorkloadDecomposition) -> f64 {
    d.scale() * d.sensitivity().powi(2)
}

/// Mean `Φ·Δ²` of the warm and of the cold compiles over one chain (the
/// first batch has no seed and is left out of both), and how many of the
/// seeded compiles actually started warm.
fn chain(n: usize, cuts: usize, rows: usize, seed: u64) -> (f64, f64, usize) {
    let norm = SensitivityNorm::L1;
    let cfg = DecompositionConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut previous: Option<WorkloadDecomposition> = None;
    let (mut warm_sum, mut cold_sum, mut warm_started) = (0.0, 0.0, 0);
    for _ in 0..CHAIN {
        let w = grid_batch(&mut rng, n, cuts, rows);
        let cold = WorkloadDecomposition::compute_flavored(&w, &cfg, norm).unwrap();
        let Some(prev) = previous.take() else {
            previous = Some(cold);
            continue;
        };
        let seed = WarmStart::new(prev.b().clone(), prev.l().clone());
        let warm =
            WorkloadDecomposition::compute_with_init_flavored(&w, &cfg, norm, Some(&seed)).unwrap();
        assert!(warm.sensitivity() <= 1.0 + 1e-9);
        assert_eq!(warm.stats().converged, cold.stats().converged);
        warm_started += usize::from(warm.stats().warm_started);
        warm_sum += noise_scale(&warm);
        cold_sum += noise_scale(&cold);
        previous = Some(warm);
    }
    let k = (CHAIN - 1) as f64;
    (warm_sum / k, cold_sum / k, warm_started)
}

fn assert_warm_matches_cold(n: usize, cuts: usize, rows: usize) {
    let (warm, cold, warm_started) = chain(n, cuts, rows, 0x5eed);
    println!(
        "n={n} cuts={cuts} rows={rows}: warm {warm:.4} cold {cold:.4} ratio {:.4}, {warm_started}/{} warm",
        warm / cold,
        CHAIN - 1
    );
    assert_eq!(
        warm_started,
        CHAIN - 1,
        "every seeded compile must start warm"
    );
    assert!(
        warm <= 1.05 * cold,
        "warm mean Φ·Δ² {warm} exceeds 1.05 × cold mean {cold}"
    );
}

#[test]
fn warm_chain_keeps_cold_quality_on_l1_panels() {
    assert_warm_matches_cold(64, 16, 64);
}
