//! Integration tests of the engine surface through the `lrm` facade:
//! budget-tracked sessions, sequential-composition accounting, the
//! compiled-strategy cache, and `compile_best`.

use lrm::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn range_workload(m: usize, n: usize, seed: u64) -> Workload {
    WRange
        .generate(m, n, &mut StdRng::seed_from_u64(seed))
        .unwrap()
}

#[test]
fn session_exhausts_with_a_typed_error() {
    let engine = Engine::builder().build();
    let w = range_workload(6, 12, 1);
    let compiled = engine.compile_default(&w, MechanismKind::Laplace).unwrap();
    let mut session = compiled.session(eps(1.0));
    let data = vec![5.0; 12];
    let mut rng = StdRng::seed_from_u64(9);

    session.answer(&data, eps(0.7), &mut rng).unwrap();
    let err = session.answer(&data, eps(0.7), &mut rng).unwrap_err();
    match err {
        EngineError::Budget(BudgetError::Exhausted {
            requested,
            remaining,
        }) => {
            assert_eq!(requested, 0.7);
            assert!((remaining - 0.3).abs() < 1e-12);
        }
        other => panic!("expected budget exhaustion, got {other:?}"),
    }
    // The refused release did not touch the ledger…
    assert!((session.remaining() - 0.3).abs() < 1e-12);
    assert_eq!(session.ledger().debits(), 1);
    // …and a fitting release still succeeds.
    let release = session.answer(&data, eps(0.3), &mut rng).unwrap();
    assert!(session.is_exhausted());
    assert!(release.eps_remaining < 1e-12);
}

#[test]
fn sequential_composition_accounting() {
    // Two answers at ε/2 leave the ledger exactly where one answer at ε
    // does.
    let engine = Engine::builder().build();
    let w = range_workload(4, 8, 2);
    let compiled = engine.compile_default(&w, MechanismKind::Wavelet).unwrap();
    let data = vec![1.0; 8];
    let mut rng = StdRng::seed_from_u64(3);

    let mut split = compiled.session(eps(1.0));
    let half = eps(1.0).split(2).unwrap();
    split.answer(&data, half, &mut rng).unwrap();
    split.answer(&data, half, &mut rng).unwrap();

    let mut whole = compiled.session(eps(1.0));
    whole.answer(&data, eps(1.0), &mut rng).unwrap();

    assert_eq!(split.ledger().spent(), whole.ledger().spent());
    assert_eq!(split.ledger().remaining(), whole.ledger().remaining());
    assert!(split.is_exhausted() && whole.is_exhausted());
    // Both refuse any further spend.
    assert!(split.answer(&data, half, &mut rng).is_err());
    assert!(whole.answer(&data, half, &mut rng).is_err());
}

#[test]
fn batch_answers_carry_their_accounting() {
    let engine = Engine::builder().build();
    let w = range_workload(5, 10, 3);
    let compiled = engine.compile_default(&w, MechanismKind::Lrm).unwrap();
    let mut session = compiled.session(eps(2.0));
    let data: Vec<f64> = (0..10).map(|i| i as f64).collect();
    let mut rng = StdRng::seed_from_u64(4);

    let release = session.answer(&data, eps(0.5), &mut rng).unwrap();
    assert_eq!(release.answers.len(), 5);
    assert_eq!(release.eps_spent.value(), 0.5);
    assert!((release.eps_remaining - 1.5).abs() < 1e-12);
    assert_eq!(release.mechanism, "LRM");
    assert!(release.expected_avg_error > 0.0);
    // The quoted expected error is the mechanism's data-independent
    // closed form.
    let direct = compiled.expected_average_error(eps(0.5), None);
    assert_eq!(release.expected_avg_error, direct);
}

#[test]
fn released_error_bounds_do_not_depend_on_the_data() {
    // A rank-1 strategy cannot represent a 6-query range workload
    // exactly, so ‖(W − BL)x‖² grows with the data. What a release
    // quotes must not: two databases, one strategy, one bound.
    let engine = Engine::builder().build();
    let w = range_workload(6, 12, 1);
    let opts = CompileOptions::with_decomposition(DecompositionConfig {
        target_rank: TargetRank::Exact(1),
        ..DecompositionConfig::default()
    });
    let compiled = engine.compile(&w, MechanismKind::Lrm, &opts).unwrap();
    let small = vec![1.0; 12];
    let large = vec![1000.0; 12];
    assert!(
        compiled.expected_average_error(eps(0.5), Some(&large))
            > compiled.expected_average_error(eps(0.5), Some(&small)),
        "the strategy must be inexact for this test to bite"
    );

    let mut rng = StdRng::seed_from_u64(11);
    let mut session = compiled.session(eps(2.0));
    let first = session.answer(&small, eps(0.5), &mut rng).unwrap();
    let second = session.answer(&large, eps(0.5), &mut rng).unwrap();
    assert_eq!(first.expected_avg_error, second.expected_avg_error);
    assert_eq!(
        first.expected_avg_error,
        compiled.expected_average_error(eps(0.5), None)
    );
}

#[test]
fn cache_hits_by_fingerprint_equality() {
    let engine = Engine::builder().build();
    // Two structurally identical workloads (equal fingerprints) and one
    // different workload.
    let w1 = range_workload(8, 16, 5);
    let w2 = range_workload(8, 16, 5);
    let other = range_workload(8, 16, 6);
    assert_eq!(w1.fingerprint(), w2.fingerprint());
    assert_ne!(w1.fingerprint(), other.fingerprint());

    let first = engine.compile_default(&w1, MechanismKind::Lrm).unwrap();
    assert_eq!(first.meta().cache, CacheOutcome::Miss);

    // Same content through a *different* Workload value: still a hit, and
    // the hit performs no decomposition work (the hit counter moves, the
    // miss counter does not).
    let hit = engine.compile_default(&w2, MechanismKind::Lrm).unwrap();
    assert_eq!(hit.meta().cache, CacheOutcome::MemoryHit);
    let stats = engine.cache_stats();
    assert_eq!((stats.misses, stats.memory_hits), (1, 1));

    // Different content: never *served* from the cache. The similarity
    // index may seed the solver from the cached neighbor (WarmStart),
    // but the strategy search still runs in full — what is ruled out is
    // a memory hit.
    let miss = engine.compile_default(&other, MechanismKind::Lrm).unwrap();
    assert!(matches!(
        miss.meta().cache,
        CacheOutcome::Miss | CacheOutcome::WarmStart
    ));
    let stats = engine.cache_stats();
    assert_eq!(stats.misses + stats.warm_hits, 2);
    assert_eq!(stats.memory_hits, 1);

    // Cached strategies answer identically to the original compile.
    let x: Vec<f64> = (0..16).map(|i| (i * 3) as f64).collect();
    let mut r1 = StdRng::seed_from_u64(7);
    let mut r2 = StdRng::seed_from_u64(7);
    let a = first.answer(&x, eps(1.0), &mut r1).unwrap();
    let b = hit.answer(&x, eps(1.0), &mut r2).unwrap();
    assert_eq!(a, b);
}

#[test]
fn compile_best_never_worse_than_laplace() {
    let engine = Engine::builder().reference_epsilon(eps(0.1)).build();
    for (m, n, seed) in [(6, 8, 10), (12, 32, 11), (16, 64, 12)] {
        let w = range_workload(m, n, seed);
        let best = engine.compile_best_default(&w).unwrap();
        let lm = engine.compile_default(&w, MechanismKind::Laplace).unwrap();
        assert!(
            best.meta().expected_avg_error <= lm.meta().expected_avg_error + 1e-12,
            "compile_best ({}) worse than Laplace on {m}x{n}",
            best.meta().label
        );
    }
}

// The argmin the paper's figures take by eye: LRM wherever the workload
// has low rank, WM on large range workloads, LM on small dense ones.
fn assert_compile_best_picks(w: &Workload, panel: &[MechanismKind], winner: MechanismKind) {
    let engine = Engine::builder().reference_epsilon(eps(0.1)).build();
    let best = engine
        .compile_best(w, panel, &CompileOptions::default())
        .unwrap();
    assert_eq!(best.meta().kind, winner);
}

#[test]
fn compile_best_picks_lrm_on_low_rank() {
    use MechanismKind::{Laplace, Lrm, Wavelet};
    let w = WRelated { base_queries: 3 }
        .generate(24, 48, &mut StdRng::seed_from_u64(1))
        .unwrap();
    assert_compile_best_picks(&w, &[Laplace, Wavelet, Lrm], Lrm);
}

#[test]
fn compile_best_picks_wm_on_large_range_workload_without_lrm() {
    use MechanismKind::{Laplace, Wavelet};
    let w = range_workload(16, 512, 2);
    assert_compile_best_picks(&w, &[Laplace, Wavelet], Wavelet);
}

#[test]
fn compile_best_picks_lm_on_small_dense_workload_without_lrm() {
    use MechanismKind::{Laplace, Wavelet};
    let w = WDiscrete::default()
        .generate(16, 24, &mut StdRng::seed_from_u64(3))
        .unwrap();
    assert_compile_best_picks(&w, &[Laplace, Wavelet], Laplace);
}

#[test]
fn compile_best_error_is_the_panel_minimum() {
    use MechanismKind::{Laplace, Lrm, Wavelet};
    let engine = Engine::builder().reference_epsilon(eps(0.1)).build();
    let w = range_workload(8, 16, 4);
    let opts = CompileOptions::default();
    let panel = [Laplace, Wavelet, Lrm];
    let min = panel
        .iter()
        .map(|&kind| {
            engine
                .compile(&w, kind, &opts)
                .unwrap()
                .meta()
                .expected_avg_error
        })
        .fold(f64::INFINITY, f64::min);
    let best = engine.compile_best(&w, &panel, &opts).unwrap();
    assert!((best.meta().expected_avg_error - min).abs() <= 1e-9 * min);
}

#[test]
fn engine_error_exposes_sources() {
    use std::error::Error as _;
    let engine = Engine::builder().build();
    let w = range_workload(4, 8, 13);
    let compiled = engine.compile_default(&w, MechanismKind::Laplace).unwrap();
    let mut session = compiled.session(eps(0.1));
    let mut rng = StdRng::seed_from_u64(1);

    // Budget failure chains to BudgetError.
    let budget_err = session.answer(&[0.0; 8], eps(1.0), &mut rng).unwrap_err();
    assert!(budget_err.source().is_some());
    assert!(budget_err.to_string().contains("exhausted"));

    // Core failure (wrong domain) chains to CoreError.
    let core_err = session.answer(&[0.0; 7], eps(0.05), &mut rng).unwrap_err();
    match &core_err {
        EngineError::Core(CoreError::DomainMismatch { expected, got }) => {
            assert_eq!((*expected, *got), (8, 7));
        }
        other => panic!("expected domain mismatch, got {other:?}"),
    }
    // A failed release must not debit the ledger.
    assert!((session.remaining() - 0.1).abs() < 1e-12);
}
