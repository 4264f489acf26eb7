//! Batch assembly: merging compatible prepared specs into one structured
//! workload.
//!
//! This is the paper's premise turned into scheduling policy: queries
//! answered *together* through one low-rank strategy beat queries answered
//! alone, so concurrently-arriving compatible specs are concatenated into
//! one combined workload that shares a single compiled strategy and **one
//! noise draw per strategy column** — `r` Laplace samples for the whole
//! batch instead of `Σ rᵢ` across its members. Compatibility is exact:
//! same schema and same structural class (so the merge stays one uniform
//! `IntervalsOp`/CSR operator, never densified). What the budget
//! contributes to the key depends on the noise model:
//!
//! * **Pure ε-DP (Laplace).** The per-release ε is part of the key: the
//!   single Laplace draw is scale-exact, so members at even slightly
//!   different ε cannot share it.
//! * **Approximate (ε, δ)-DP (Gaussian).** Only the δ-class is keyed.
//!   Gaussian noise is closed under addition, so one base draw calibrated
//!   at the *weakest* (largest-ε) member serves every member: stricter
//!   members add an independent residual top-up of variance
//!   `σ_member² − σ_base²` on the same data pass. Mixing δ values would
//!   break that algebra — the analytic calibration is a joint function of
//!   (ε, δ) — so δ stays in the key while ε drops out.
//!
//! Each member's answer is the contiguous slice of the combined batch
//! answer its rows occupy — releasing a slice is post-processing of one
//! DP release at that member's own budget (exactly, for topped-up
//! Gaussian slices; strictly conservatively, for shared Laplace slices).

use crate::spec::{PreparedRows, PreparedSpec, SpecClass};
use lrm_dp::Budget;
use lrm_linalg::operator::CsrOp;
use lrm_workload::{Workload, WorkloadError};
use std::collections::HashSet;
use std::ops::Range;

/// What makes two submissions coalescible. Budget components enter via
/// their IEEE-754 bits: budgets are `Copy` floats and exact equality is
/// the right notion — releases at even slightly different ε (Laplace) or
/// δ (Gaussian) need differently-calibrated noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BatchKey {
    pub schema_fingerprint: u64,
    pub class: SpecClass,
    /// ε bits for pure (or ε-fragmented Gaussian) batches; `0` when
    /// cross-ε coalescing erases ε from the key.
    pub eps_bits: u64,
    /// δ bits — `0f64.to_bits()` (= 0) for pure budgets, so pure keys are
    /// unchanged from the Laplace-only servers.
    pub delta_bits: u64,
}

impl BatchKey {
    /// Builds the key for one submission. `coalesce_across_eps` only
    /// affects approximate budgets: when set, ε is erased from the key so
    /// a δ-class shares batches across ε; when clear (the ε-fragmented
    /// baseline), Gaussian batches key on (ε, δ) exactly like pure ones.
    pub fn of(spec: &PreparedSpec, budget: Budget, coalesce_across_eps: bool) -> Self {
        let keyed_on_eps = budget.is_pure() || !coalesce_across_eps;
        Self {
            schema_fingerprint: spec.schema_fingerprint(),
            class: spec.class(),
            eps_bits: if keyed_on_eps {
                budget.eps().value().to_bits()
            } else {
                0
            },
            delta_bits: budget.delta().to_bits(),
        }
    }
}

/// Running upper-bound estimate of the combined rank of an open batch,
/// used by the scheduler's rank-growth close.
///
/// Interval rows are differences of prefix indicators, so the combined
/// row space is spanned by the prefix vectors at the distinct boundary
/// points `{lo, hi+1}` the batch has seen — the size of that set (less
/// the point 0, whose prefix vector is zero) bounds the combined rank.
/// CSR batches are bounded by their number of *distinct* rows instead
/// (duplicate rows add nothing), tracked by row hash. Either way, a
/// member that contributes no new element cannot raise the rank of the
/// combined workload: the batch's shared structure is saturated. Hash
/// collisions on the sparse side can only under-estimate, which closes a
/// batch early — never a correctness issue, members are answered
/// identically either way.
///
/// The same bounds price the compile. The decomposition solves over the
/// distinct columns of the workload and the row space of its rows, both
/// of which the rank bound `ρ` also bounds for these row families, at
/// inner dimension `r ∝ ρ`; an ALM step costs `O(r²·k)`, so a compile
/// costs `ρ³` plus a fixed amount of work (see [`compile_cost`]). The
/// tracker keeps the sum of its members' own costs, which is what
/// compiling each member alone would cost, and [`RankTracker::pays`]
/// compares the batch against it.
#[derive(Debug, Default)]
pub(crate) struct RankTracker {
    elements: HashSet<u64>,
    /// Whether an interval row starts at 0 (see above).
    origin: bool,
    rows: usize,
    solo_cost: f64,
}

impl RankTracker {
    /// Folds one member's rows into the estimate; returns whether the
    /// estimated combined rank grew.
    pub fn admit(&mut self, spec: &PreparedSpec) -> bool {
        let mut own = HashSet::new();
        let mut origin = false;
        match spec.rows() {
            PreparedRows::Intervals(rows) => {
                for &(lo, hi) in rows {
                    own.insert(lo as u64);
                    own.insert(hi as u64 + 1);
                    origin |= lo == 0;
                }
            }
            PreparedRows::Sparse(rows) => {
                own.extend(rows.iter().map(|row| hash_sparse_row(row)));
            }
        }
        let rows = spec.num_queries();
        self.solo_cost += compile_cost((own.len() - usize::from(origin)).min(rows));
        self.rows += rows;
        self.origin |= origin;
        let before = self.elements.len();
        self.elements.extend(own);
        self.elements.len() > before
    }

    /// The current rank upper bound.
    #[cfg(test)]
    pub fn estimate(&self) -> usize {
        self.elements.len()
    }

    /// Whether compiling the batch together is estimated to cost no more
    /// than compiling each of its members alone. Data-independent: it
    /// reads the members' query structure, never the data.
    pub fn pays(&self) -> bool {
        let rank = (self.elements.len() - usize::from(self.origin)).min(self.rows);
        compile_cost(rank) <= self.solo_cost
    }
}

/// The compile cost, up to a constant factor, of a workload of rank bound
/// `rho` (see [`RankTracker`]): `ρ³` for the ALM plus
/// [`FIXED_COMPILE_COST`].
fn compile_cost(rho: usize) -> f64 {
    (rho as f64).powi(3) + FIXED_COMPILE_COST
}

/// The work every compile does whatever its rank, in units of `ρ³`: the
/// intercept of LRM compile time against `ρ³`, fitted over interval
/// panels of 1–48 queries at n = 64 and 256 under the fixed-work solver
/// configuration the `lrm-eval` serving harnesses compile with (about
/// 1 ms against 1 µs per unit). It makes a batch of small members pay
/// sooner than `ρ³` alone would say.
const FIXED_COMPILE_COST: f64 = 1000.0;

/// FNV-1a over a sparse row's `(cell, weight)` entries.
fn hash_sparse_row(row: &[(usize, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for &(cell, weight) in row {
        fold(cell as u64);
        fold(weight.to_bits());
    }
    h
}

/// Concatenates the members' rows (in submission order) into one
/// structured workload, returning it with each member's row span. Takes
/// references: the members' rows are copied exactly once, into the
/// workload — no intermediate clone on the worker hot path.
pub(crate) fn combine(
    domain_size: usize,
    specs: &[&PreparedSpec],
) -> Result<(Workload, Vec<Range<usize>>), WorkloadError> {
    debug_assert!(!specs.is_empty());
    let mut spans = Vec::with_capacity(specs.len());
    let mut offset = 0;
    for spec in specs {
        let len = spec.num_queries();
        spans.push(offset..offset + len);
        offset += len;
    }

    let workload = match specs[0].class() {
        SpecClass::Intervals => {
            let mut intervals = Vec::with_capacity(offset);
            for spec in specs {
                match spec.rows() {
                    PreparedRows::Intervals(rows) => intervals.extend_from_slice(rows),
                    PreparedRows::Sparse(_) => unreachable!("batch key fixes the class"),
                }
            }
            Workload::from_intervals(domain_size, intervals)?
        }
        SpecClass::Sparse => {
            let mut rows = Vec::with_capacity(offset);
            for spec in specs {
                match spec.rows() {
                    PreparedRows::Sparse(entries) => rows.extend_from_slice(entries),
                    PreparedRows::Intervals(_) => unreachable!("batch key fixes the class"),
                }
            }
            Workload::from_csr(CsrOp::from_row_entries(rows.len(), domain_size, &rows))?
        }
    };
    Ok((workload, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QuerySpec;
    use lrm_dp::Epsilon;
    use lrm_workload::{Attribute, Schema, WorkloadStructure};

    fn schema() -> Schema {
        Schema::single(Attribute::new("v", 0.0, 64.0, 64).unwrap())
    }

    fn prepared(spec: QuerySpec) -> PreparedSpec {
        spec.compile(&schema()).unwrap()
    }

    #[test]
    fn batch_key_separates_class_eps_and_schema() {
        let s = schema();
        let a = QuerySpec::Total.compile(&s).unwrap();
        let eps1 = Budget::pure(Epsilon::new(0.5).unwrap());
        let eps2 = Budget::pure(Epsilon::new(0.25).unwrap());
        assert_eq!(BatchKey::of(&a, eps1, true), BatchKey::of(&a, eps1, true));
        assert_ne!(BatchKey::of(&a, eps1, true), BatchKey::of(&a, eps2, true));

        let other_schema = Schema::single(Attribute::new("w", 0.0, 64.0, 64).unwrap());
        let b = QuerySpec::Total.compile(&other_schema).unwrap();
        assert_ne!(BatchKey::of(&a, eps1, true), BatchKey::of(&b, eps1, true));

        let two_d = Schema::product(vec![
            Attribute::new("x", 0.0, 1.0, 4).unwrap(),
            Attribute::new("y", 0.0, 1.0, 4).unwrap(),
        ])
        .unwrap();
        let sparse = QuerySpec::Marginal { attr: 1 }.compile(&two_d).unwrap();
        let contiguous = QuerySpec::Marginal { attr: 0 }.compile(&two_d).unwrap();
        assert_ne!(
            BatchKey::of(&sparse, eps1, true),
            BatchKey::of(&contiguous, eps1, true),
            "different structural classes must not share a batch"
        );
    }

    #[test]
    fn gaussian_keys_share_a_delta_class_across_eps() {
        let s = schema();
        let a = QuerySpec::Total.compile(&s).unwrap();
        let strict = Budget::approx(Epsilon::new(0.25).unwrap(), 1e-6).unwrap();
        let loose = Budget::approx(Epsilon::new(0.5).unwrap(), 1e-6).unwrap();
        let other_delta = Budget::approx(Epsilon::new(0.25).unwrap(), 1e-7).unwrap();

        // Cross-ε coalescing: same δ-class shares a key across ε...
        assert_eq!(
            BatchKey::of(&a, strict, true),
            BatchKey::of(&a, loose, true)
        );
        // ...but δ itself still separates batches,
        assert_ne!(
            BatchKey::of(&a, strict, true),
            BatchKey::of(&a, other_delta, true)
        );
        // ...and pure budgets never share a Gaussian δ-class.
        let pure = Budget::pure(Epsilon::new(0.25).unwrap());
        assert_ne!(BatchKey::of(&a, strict, true), BatchKey::of(&a, pure, true));

        // ε-fragmented mode restores ε to the Gaussian key.
        assert_ne!(
            BatchKey::of(&a, strict, false),
            BatchKey::of(&a, loose, false)
        );
        assert_eq!(
            BatchKey::of(&a, strict, false),
            BatchKey::of(&a, strict, false),
            "the fragmented key is still deterministic per (ε, δ)"
        );
    }

    #[test]
    fn combine_concatenates_in_order() {
        let a = prepared(QuerySpec::Ranges {
            attr: 0,
            ranges: vec![(0.0, 32.0), (32.0, 64.0)],
        });
        let b = prepared(QuerySpec::Prefixes {
            attr: 0,
            thresholds: vec![16.0, 48.0, 64.0],
        });
        let (w, spans) = combine(64, &[&a, &b]).unwrap();
        assert_eq!(w.structure(), WorkloadStructure::Intervals);
        assert_eq!(w.num_queries(), 5);
        assert_eq!(spans, vec![0..2, 2..5]);

        // The combined answers are exactly the members' answers, stacked.
        let x: Vec<f64> = (0..64).map(|i| (i % 7) as f64).collect();
        let combined = w.answer(&x).unwrap();
        let wa = a.to_workload().unwrap().answer(&x).unwrap();
        let wb = b.to_workload().unwrap().answer(&x).unwrap();
        assert_eq!(&combined[spans[0].clone()], &wa[..]);
        assert_eq!(&combined[spans[1].clone()], &wb[..]);
    }

    #[test]
    fn rank_tracker_saturates_on_shared_boundaries() {
        let mut tracker = RankTracker::default();
        let a = prepared(QuerySpec::Ranges {
            attr: 0,
            ranges: vec![(0.0, 16.0), (16.0, 32.0)],
        });
        assert!(tracker.admit(&a), "first member always grows the estimate");
        assert_eq!(tracker.estimate(), 3); // boundary points {0, 16, 32}

        // Prefixes over the same grid re-use those boundaries exactly.
        let b = prepared(QuerySpec::Prefixes {
            attr: 0,
            thresholds: vec![16.0, 32.0],
        });
        assert!(!tracker.admit(&b), "no new boundary points, no rank growth");
        assert_eq!(tracker.estimate(), 3);

        // A member off the grid grows the estimate again.
        let c = prepared(QuerySpec::Ranges {
            attr: 0,
            ranges: vec![(8.0, 24.0)],
        });
        assert!(tracker.admit(&c));
        assert_eq!(tracker.estimate(), 5); // + {8, 24}
    }

    #[test]
    fn a_batch_pays_once_it_costs_no_more_than_its_members_alone() {
        // Boundaries {0, 4, …, 28, 64}: rank 8 (the prefix at 0 is the
        // zero row), and {0, 36, …, 60, 64}: rank 8 again.
        let low = || {
            let mut ranges: Vec<(f64, f64)> = (0..7)
                .map(|i| (4.0 * i as f64, 4.0 * (i + 1) as f64))
                .collect();
            ranges.push((28.0, 64.0));
            prepared(QuerySpec::Ranges { attr: 0, ranges })
        };
        let high = || {
            let mut ranges = vec![(0.0, 36.0)];
            ranges.extend((9..16).map(|i| (4.0 * i as f64, 4.0 * (i + 1) as f64)));
            prepared(QuerySpec::Ranges { attr: 0, ranges })
        };
        let mut tracker = RankTracker::default();
        tracker.admit(&low());
        assert!(
            tracker.pays(),
            "a lone member costs exactly its solo compile"
        );
        assert!(!tracker.admit(&low()));
        assert!(tracker.pays(), "a duplicate adds rows, not rank");

        // Together the two grids have rank 15: 15³ + c exceeds
        // 2·(8³ + c), so compiling them apart is cheaper...
        let mut tracker = RankTracker::default();
        tracker.admit(&low());
        assert!(tracker.admit(&high()));
        assert_eq!(tracker.estimate(), 16);
        assert!(!tracker.pays());
        // ...until a third member inside their boundaries shares the
        // compile: 15³ + c ≤ 3·(8³ + c).
        assert!(!tracker.admit(&low()));
        assert!(tracker.pays());
    }

    #[test]
    fn rank_tracker_counts_distinct_sparse_rows() {
        let two_d = Schema::product(vec![
            Attribute::new("x", 0.0, 1.0, 4).unwrap(),
            Attribute::new("y", 0.0, 1.0, 3).unwrap(),
        ])
        .unwrap();
        let marginal = QuerySpec::Marginal { attr: 1 }.compile(&two_d).unwrap();
        let mut tracker = RankTracker::default();
        assert!(tracker.admit(&marginal));
        assert_eq!(tracker.estimate(), 3); // three distinct strided rows

        // The identical spec again: pure duplicates, zero growth.
        assert!(!tracker.admit(&marginal));
        assert_eq!(tracker.estimate(), 3);

        // A different inner-attribute slice is a new row.
        let slice = QuerySpec::Ranges {
            attr: 1,
            ranges: vec![(0.0, 0.7)],
        }
        .compile(&two_d)
        .unwrap();
        assert!(tracker.admit(&slice));
        assert_eq!(tracker.estimate(), 4);
    }

    #[test]
    fn combine_sparse_rows() {
        let two_d = Schema::product(vec![
            Attribute::new("x", 0.0, 1.0, 4).unwrap(),
            Attribute::new("y", 0.0, 1.0, 3).unwrap(),
        ])
        .unwrap();
        let a = QuerySpec::Marginal { attr: 1 }.compile(&two_d).unwrap();
        let b = QuerySpec::Ranges {
            attr: 1,
            ranges: vec![(0.0, 0.5)],
        }
        .compile(&two_d)
        .unwrap();
        let (w, spans) = combine(12, &[&a, &b]).unwrap();
        assert_eq!(w.structure(), WorkloadStructure::Sparse);
        assert_eq!(w.num_queries(), 4);
        assert_eq!(spans, vec![0..3, 3..4]);
    }
}
