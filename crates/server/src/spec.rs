//! The query front door: declarative predicates over a [`Schema`],
//! compiled to structured workload rows.
//!
//! A [`QuerySpec`] describes *what* a client wants counted — value ranges,
//! prefix histograms, a full marginal — without ever naming buckets or
//! matrices. [`QuerySpec::compile`] translates it against the server's
//! schema into a [`PreparedSpec`]: either implicit interval rows (ranges
//! over the outer attribute, prefixes, totals, outer marginals — `O(1)`
//! per row) or CSR rows (anything strided over the inner attribute). The
//! dense `m×n` matrix is never materialized at any point of the request
//! lifecycle; the coalescer concatenates prepared rows from many specs
//! into one structured [`Workload`].

use lrm_linalg::operator::CsrOp;
use lrm_workload::{Schema, Workload, WorkloadError};
use std::fmt;

/// A declarative batch-query request over the serving schema.
///
/// Every variant names an attribute by index into the schema (specs over
/// a single-attribute schema use `attr = 0`).
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// Count queries for each value interval `[from, to)` over one
    /// attribute.
    Ranges {
        /// Attribute index in the schema.
        attr: usize,
        /// Value intervals, one query per `(from, to)` pair.
        ranges: Vec<(f64, f64)>,
    },
    /// A prefix histogram: one count of "values below `t`" per threshold.
    Prefixes {
        /// Attribute index in the schema.
        attr: usize,
        /// Prefix thresholds, one query each.
        thresholds: Vec<f64>,
    },
    /// The full marginal of one attribute: one count per bucket, summed
    /// over every other attribute.
    Marginal {
        /// Attribute index in the schema.
        attr: usize,
    },
    /// The grand total over the whole domain.
    Total,
}

impl QuerySpec {
    /// Validates the spec against `schema` and translates it into
    /// structured workload rows.
    pub fn compile(&self, schema: &Schema) -> Result<PreparedSpec, SpecError> {
        let rows = match self {
            QuerySpec::Total => PreparedRows::Intervals(vec![(0, schema.domain_size() - 1)]),
            QuerySpec::Ranges { attr, ranges } => {
                if ranges.is_empty() {
                    return Err(SpecError::Empty);
                }
                let attribute = schema.attribute(*attr).ok_or(SpecError::UnknownAttribute {
                    attr: *attr,
                    arity: schema.arity(),
                })?;
                let buckets: Vec<(usize, usize)> = ranges
                    .iter()
                    .map(|&(from, to)| {
                        attribute
                            .bucket_range(from, to)
                            .map_err(|reason| SpecError::InvalidPredicate { reason })
                    })
                    .collect::<Result<_, _>>()?;
                translate_bucket_rows(schema, *attr, &buckets)
            }
            QuerySpec::Prefixes { attr, thresholds } => {
                if thresholds.is_empty() {
                    return Err(SpecError::Empty);
                }
                let attribute = schema.attribute(*attr).ok_or(SpecError::UnknownAttribute {
                    attr: *attr,
                    arity: schema.arity(),
                })?;
                let buckets: Vec<(usize, usize)> = thresholds
                    .iter()
                    .map(|&t| {
                        attribute
                            .bucket_prefix(t)
                            .map_err(|reason| SpecError::InvalidPredicate { reason })
                    })
                    .collect::<Result<_, _>>()?;
                translate_bucket_rows(schema, *attr, &buckets)
            }
            QuerySpec::Marginal { attr } => {
                let attribute = schema.attribute(*attr).ok_or(SpecError::UnknownAttribute {
                    attr: *attr,
                    arity: schema.arity(),
                })?;
                let buckets: Vec<(usize, usize)> =
                    (0..attribute.domain_size()).map(|b| (b, b)).collect();
                translate_bucket_rows(schema, *attr, &buckets)
            }
        };
        Ok(PreparedSpec {
            domain_size: schema.domain_size(),
            schema_fingerprint: schema.fingerprint(),
            rows,
        })
    }
}

/// Turns inclusive *bucket* intervals over attribute `attr` into flattened
/// cell rows. Over the outer attribute (or a 1-attribute schema) a bucket
/// interval covers a contiguous cell block — an implicit interval row;
/// over the inner attribute it covers a strided cell set — a CSR row.
fn translate_bucket_rows(schema: &Schema, attr: usize, buckets: &[(usize, usize)]) -> PreparedRows {
    let stride = schema.inner_stride();
    if attr == 0 {
        PreparedRows::Intervals(
            buckets
                .iter()
                .map(|&(lo, hi)| (lo * stride, (hi + 1) * stride - 1))
                .collect(),
        )
    } else {
        // Inner attribute: bucket b selects cells { i·stride + b } for
        // every outer bucket i — one sparse row per interval.
        let outer = schema.domain_size() / stride;
        PreparedRows::Sparse(
            buckets
                .iter()
                .map(|&(lo, hi)| {
                    let mut entries = Vec::with_capacity(outer * (hi - lo + 1));
                    for i in 0..outer {
                        for b in lo..=hi {
                            entries.push((i * stride + b, 1.0));
                        }
                    }
                    entries
                })
                .collect(),
        )
    }
}

/// The structured rows a spec compiled to.
#[derive(Debug, Clone, PartialEq)]
pub enum PreparedRows {
    /// Implicit inclusive cell intervals (one per query) — `O(1)` storage
    /// per row, merged into an `IntervalsOp` workload.
    Intervals(Vec<(usize, usize)>),
    /// Explicit sparse rows `(cell, weight)` — merged into a CSR workload.
    Sparse(Vec<Vec<(usize, f64)>>),
}

/// Which coalescing compatibility class a spec belongs to: only specs of
/// the same class (and ε, and schema) share a combined workload, so the
/// merge result keeps one uniform structured representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecClass {
    /// Implicit-interval rows.
    Intervals,
    /// CSR rows.
    Sparse,
}

impl fmt::Display for SpecClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecClass::Intervals => write!(f, "intervals"),
            SpecClass::Sparse => write!(f, "sparse"),
        }
    }
}

/// A spec validated and translated against one schema: what the scheduler
/// coalesces and the workers answer.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedSpec {
    domain_size: usize,
    schema_fingerprint: u64,
    rows: PreparedRows,
}

impl PreparedSpec {
    /// Number of queries (rows) this spec contributes to a batch.
    pub fn num_queries(&self) -> usize {
        match &self.rows {
            PreparedRows::Intervals(v) => v.len(),
            PreparedRows::Sparse(v) => v.len(),
        }
    }

    /// The flattened domain size the rows are defined over.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// Fingerprint of the schema this spec was compiled against.
    pub fn schema_fingerprint(&self) -> u64 {
        self.schema_fingerprint
    }

    /// The coalescing compatibility class.
    pub fn class(&self) -> SpecClass {
        match &self.rows {
            PreparedRows::Intervals(_) => SpecClass::Intervals,
            PreparedRows::Sparse(_) => SpecClass::Sparse,
        }
    }

    /// The translated rows.
    pub fn rows(&self) -> &PreparedRows {
        &self.rows
    }

    /// This spec alone as a structured [`Workload`] — what the
    /// single-query fallthrough answers, and what tests / the load
    /// harness use to compute exact answers.
    pub fn to_workload(&self) -> Result<Workload, WorkloadError> {
        match &self.rows {
            PreparedRows::Intervals(v) => Workload::from_intervals(self.domain_size, v.clone()),
            PreparedRows::Sparse(v) => {
                Workload::from_csr(CsrOp::from_row_entries(v.len(), self.domain_size, v))
            }
        }
    }
}

/// FNV-1a over a prepared spec's domain and rows: the key of the
/// server's panic-quarantine set. Two specs with identical rows over the
/// same domain are one shape however they were phrased.
pub(crate) fn shape_hash(spec: &PreparedSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    fold(spec.domain_size() as u64);
    match spec.rows() {
        PreparedRows::Intervals(rows) => {
            fold(0);
            for &(lo, hi) in rows {
                fold(lo as u64);
                fold(hi as u64);
            }
        }
        PreparedRows::Sparse(rows) => {
            fold(1);
            for row in rows {
                fold(row.len() as u64);
                for &(cell, weight) in row {
                    fold(cell as u64);
                    fold(weight.to_bits());
                }
            }
        }
    }
    h
}

/// Typed spec-translation failure (an admission error: the request never
/// reaches the scheduler).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec contains no predicates.
    Empty,
    /// The spec names an attribute the schema does not have.
    UnknownAttribute {
        /// The attribute index the spec asked for.
        attr: usize,
        /// The schema's arity.
        arity: usize,
    },
    /// A predicate failed value-level validation (empty interval, NaN…).
    InvalidPredicate {
        /// The attribute-level reason.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "query spec contains no predicates"),
            SpecError::UnknownAttribute { attr, arity } => write!(
                f,
                "spec names attribute {attr} but the schema has {arity} attribute(s)"
            ),
            SpecError::InvalidPredicate { reason } => write!(f, "invalid predicate: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use lrm_workload::{Attribute, WorkloadStructure};

    fn schema_1d() -> Schema {
        Schema::single(Attribute::new("age", 0.0, 120.0, 24).unwrap())
    }

    fn schema_2d() -> Schema {
        Schema::product(vec![
            Attribute::new("age", 0.0, 120.0, 4).unwrap(),
            Attribute::new("income", 0.0, 100.0, 3).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn ranges_over_1d_become_intervals() {
        let spec = QuerySpec::Ranges {
            attr: 0,
            ranges: vec![(0.0, 60.0), (60.0, 120.0)],
        };
        let p = spec.compile(&schema_1d()).unwrap();
        assert_eq!(p.class(), SpecClass::Intervals);
        assert_eq!(p.num_queries(), 2);
        assert_eq!(p.rows(), &PreparedRows::Intervals(vec![(0, 11), (12, 23)]));
        let w = p.to_workload().unwrap();
        assert_eq!(w.structure(), WorkloadStructure::Intervals);
        assert_eq!(w.num_queries(), 2);
        assert_eq!(w.domain_size(), 24);
    }

    #[test]
    fn prefixes_and_total() {
        let p = QuerySpec::Prefixes {
            attr: 0,
            thresholds: vec![30.0, 60.0, 120.0],
        }
        .compile(&schema_1d())
        .unwrap();
        assert_eq!(
            p.rows(),
            &PreparedRows::Intervals(vec![(0, 5), (0, 11), (0, 23)])
        );

        let t = QuerySpec::Total.compile(&schema_1d()).unwrap();
        assert_eq!(t.rows(), &PreparedRows::Intervals(vec![(0, 23)]));
    }

    #[test]
    fn outer_queries_stay_contiguous_inner_go_sparse() {
        let s = schema_2d(); // 4 × 3 cells, stride 3
        let outer = QuerySpec::Marginal { attr: 0 }.compile(&s).unwrap();
        assert_eq!(outer.class(), SpecClass::Intervals);
        assert_eq!(
            outer.rows(),
            &PreparedRows::Intervals(vec![(0, 2), (3, 5), (6, 8), (9, 11)])
        );

        let inner = QuerySpec::Marginal { attr: 1 }.compile(&s).unwrap();
        assert_eq!(inner.class(), SpecClass::Sparse);
        match inner.rows() {
            PreparedRows::Sparse(rows) => {
                assert_eq!(rows.len(), 3);
                // Bucket 1 of the inner attribute: cells 1, 4, 7, 10.
                let cells: Vec<usize> = rows[1].iter().map(|&(c, _)| c).collect();
                assert_eq!(cells, vec![1, 4, 7, 10]);
            }
            other => panic!("expected sparse rows, got {other:?}"),
        }
        // The two marginals answer consistently: both sum the same grid.
        let x: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let total: f64 = x.iter().sum();
        for p in [&outer, &inner] {
            let sums = p.to_workload().unwrap().answer(&x).unwrap();
            assert_eq!(sums.iter().sum::<f64>(), total);
        }

        // A range over the inner attribute is sparse too. [0, 50) over
        // the 3-bucket income attribute (≈33.3-wide buckets) touches
        // buckets 0 and 1 — the strided cells of both.
        let r = QuerySpec::Ranges {
            attr: 1,
            ranges: vec![(0.0, 50.0)],
        }
        .compile(&s)
        .unwrap();
        assert_eq!(r.class(), SpecClass::Sparse);
        match r.rows() {
            PreparedRows::Sparse(rows) => {
                let cells: Vec<usize> = rows[0].iter().map(|&(c, _)| c).collect();
                assert_eq!(cells, vec![0, 1, 3, 4, 6, 7, 9, 10]);
            }
            other => panic!("expected sparse rows, got {other:?}"),
        }
    }

    #[test]
    fn spec_errors_are_typed() {
        let s = schema_1d();
        assert_eq!(
            QuerySpec::Ranges {
                attr: 0,
                ranges: vec![]
            }
            .compile(&s),
            Err(SpecError::Empty)
        );
        assert_eq!(
            QuerySpec::Marginal { attr: 3 }.compile(&s),
            Err(SpecError::UnknownAttribute { attr: 3, arity: 1 })
        );
        assert!(matches!(
            QuerySpec::Ranges {
                attr: 0,
                ranges: vec![(5.0, 5.0)]
            }
            .compile(&s),
            Err(SpecError::InvalidPredicate { .. })
        ));
    }

    #[test]
    fn schema_fingerprint_travels_with_the_spec() {
        let p = QuerySpec::Total.compile(&schema_1d()).unwrap();
        assert_eq!(p.schema_fingerprint(), schema_1d().fingerprint());
        assert_ne!(p.schema_fingerprint(), schema_2d().fingerprint());
        assert_eq!(p.domain_size(), 24);
    }
}
