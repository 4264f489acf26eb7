//! The three traffic mixes: what each virtual client asks for, at which
//! budget, against which private histogram. Everything is derived from
//! the workload seed, so one seed always yields the same inputs.

use lrm_dp::rng::derive_rng;
use lrm_dp::{Budget, Epsilon};
use lrm_server::QuerySpec;
use lrm_workload::{Attribute, Schema};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Seed of the inputs that are the same for every workload seed: the
/// panel library, and the sample the isolated layer timings run on.
const FIXED_SEED: u64 = 20120827;

/// A named traffic mix (the `--workload` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Fresh random 8-query panels: the strategy cache is only written.
    GridPanels,
    /// Zipf(1) draws from a 24-panel library: the strategy cache is read.
    PanelRefresh,
    /// Thousands of one-query (ε, δ) requests in flight on durable ledgers.
    C10kGaussian,
}

/// The shape of one mix: domain, grid, request size, population, budget.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Histogram buckets `n` (unit width, values `0..n`).
    pub buckets: usize,
    /// Boundary cuts every predicate snaps to.
    pub cuts: usize,
    /// Queries per request.
    pub spec_queries: usize,
    /// Tenants; virtual client `c` belongs to tenant `c mod tenants`.
    pub tenants: usize,
    /// Closed-loop virtual clients, each keeping one request in flight.
    pub clients: usize,
    /// Per-release ε levels, assigned round-robin.
    pub eps_levels: &'static [f64],
    /// Per-release δ; 0 runs the pure ε-DP (Laplace) pipeline.
    pub delta: f64,
    /// Size of the fixed panel library requests draw from, if any.
    pub library: Option<usize>,
    /// The latency percentile `tail_ms` reports: the highest of p99/p95
    /// that keeps at least ten samples beyond it at this mix's volume.
    pub tail_quantile: f64,
}

impl Mix {
    /// Every mix, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Mix; 3] = [Mix::GridPanels, Mix::PanelRefresh, Mix::C10kGaussian];

    /// The workload name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Mix::GridPanels => "grid-panels",
            Mix::PanelRefresh => "panel-refresh",
            Mix::C10kGaussian => "c10k-gaussian",
        }
    }

    /// Looks a mix up by name.
    pub fn parse(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The mix's fixed shape.
    pub fn shape(self) -> Shape {
        let panels = Shape {
            buckets: 64,
            cuts: 16,
            spec_queries: 8,
            tenants: 8,
            clients: 64,
            eps_levels: &[0.5],
            delta: 0.0,
            library: None,
            tail_quantile: 0.95,
        };
        match self {
            Mix::GridPanels => panels,
            Mix::PanelRefresh => Shape {
                library: Some(24),
                ..panels
            },
            Mix::C10kGaussian => Shape {
                buckets: 16,
                cuts: 8,
                spec_queries: 1,
                tenants: 8,
                clients: 2_048,
                eps_levels: &[0.05, 0.1, 0.2, 0.4],
                delta: 1e-7,
                library: None,
                tail_quantile: 0.99,
            },
        }
    }
}

impl Shape {
    /// Whether releases are (ε, δ)-DP through the Gaussian calibration.
    pub fn is_gaussian(&self) -> bool {
        self.delta > 0.0
    }

    /// Every tenant's registered grant. Sized far above what any run can
    /// spend (≤ 10⁵ releases per tenant at the largest ε and δ), so no
    /// request is refused by design.
    pub fn tenant_budget(&self) -> Budget {
        let eps = Epsilon::new(1e5).expect("positive total");
        if self.is_gaussian() {
            Budget::approx(eps, 0.5).expect("δ total in (0, 1)")
        } else {
            Budget::pure(eps)
        }
    }

    /// The ε level of a virtual client's `sent`-th request.
    fn level(&self, client: usize, sent: u64) -> usize {
        (client as u64 + sent) as usize % self.eps_levels.len()
    }

    /// The release budget at ε level `level`.
    pub fn release_budget(&self, level: usize) -> Budget {
        let eps = Epsilon::new(self.eps_levels[level]).expect("positive level");
        if self.is_gaussian() {
            Budget::approx(eps, self.delta).expect("δ in (0, 1)")
        } else {
            Budget::pure(eps)
        }
    }

    /// A random panel snapped to the boundary grid: a prefix histogram
    /// one time in four, otherwise a set of ranges.
    fn random_panel(&self, rng: &mut StdRng) -> QuerySpec {
        let step = self.buckets / self.cuts;
        let boundary = |k: usize| (k * step) as f64;
        if rng.gen_range(0..4) == 3 {
            QuerySpec::Prefixes {
                attr: 0,
                thresholds: (0..self.spec_queries)
                    .map(|_| boundary(rng.gen_range(1..=self.cuts)))
                    .collect(),
            }
        } else {
            QuerySpec::Ranges {
                attr: 0,
                ranges: (0..self.spec_queries)
                    .map(|_| {
                        let lo = rng.gen_range(0..self.cuts);
                        let hi = rng.gen_range(lo + 1..=self.cuts);
                        (boundary(lo), boundary(hi))
                    })
                    .collect(),
            }
        }
    }
}

/// The generated inputs of one run: schema, private data, panel library.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The mix these inputs belong to.
    pub shape: Shape,
    /// One attribute with unit-width buckets.
    pub schema: Schema,
    /// The private histogram.
    pub data: Vec<f64>,
    seed: u64,
    library: Vec<QuerySpec>,
    /// Cumulative Zipf(1) weights over `library`.
    popularity: Vec<f64>,
}

/// One request a virtual client sends, with the truth to check it by.
#[derive(Debug, Clone)]
pub struct Request {
    /// Tenant index.
    pub tenant: usize,
    /// The spec submitted.
    pub spec: QuerySpec,
    /// Index of the release's ε level in the mix's `eps_levels`.
    pub level: usize,
    /// The release budget asked for.
    pub budget: Budget,
    /// Exact (noise-free) answers.
    pub exact: Vec<f64>,
    /// Identity of the spec's row set (equal rows, equal key).
    pub shape_key: u64,
}

impl Inputs {
    /// Generates a mix's inputs from `seed`.
    pub fn new(mix: Mix, seed: u64) -> Inputs {
        let shape = mix.shape();
        assert!(
            shape.buckets.is_multiple_of(shape.cuts),
            "grid must divide the domain"
        );
        let schema = Schema::single(
            Attribute::new("value", 0.0, shape.buckets as f64, shape.buckets)
                .expect("valid attribute"),
        );
        let mut data_rng = derive_rng(seed, 0xda7a);
        let data = (0..shape.buckets)
            .map(|_| data_rng.gen_range(0..1000) as f64)
            .collect();
        // The library is the product's fixed set of panels: the same for
        // every seed, so only the traffic over it varies with the seed.
        let mut library_rng = derive_rng(FIXED_SEED, 0x11b);
        let library: Vec<QuerySpec> = (0..shape.library.unwrap_or(0))
            .map(|_| shape.random_panel(&mut library_rng))
            .collect();
        let mut total = 0.0;
        let popularity = (0..library.len())
            .map(|k| {
                total += 1.0 / (k + 1) as f64;
                total
            })
            .collect();
        Inputs {
            shape,
            schema,
            data,
            seed,
            library,
            popularity,
        }
    }

    /// The request stream of virtual client `client`.
    pub fn client(&self, client: usize) -> ClientStream {
        ClientStream {
            client,
            sent: 0,
            rng: derive_rng(self.seed, 0xc11e_0000_0000 + client as u64),
        }
    }

    /// A spec exactly as a virtual client would draw it.
    fn draw_spec(&self, rng: &mut StdRng) -> QuerySpec {
        match self.popularity.last() {
            Some(&total) => {
                let u = rng.gen::<f64>() * total;
                let k = self.popularity.partition_point(|&c| c <= u);
                self.library[k.min(self.library.len() - 1)].clone()
            }
            None => self.shape.random_panel(rng),
        }
    }

    /// Builds the request for `spec`: budget, exact answers, shape key.
    fn request(&self, client: usize, sent: u64, spec: QuerySpec) -> Request {
        let prepared = spec
            .compile(&self.schema)
            .expect("generated specs are valid");
        let exact = prepared
            .to_workload()
            .expect("generated specs are non-empty")
            .answer(&self.data)
            .expect("domain matches");
        let mut h = DefaultHasher::new();
        format!("{:?}", prepared.rows()).hash(&mut h);
        let level = self.shape.level(client, sent);
        Request {
            tenant: client % self.shape.tenants,
            spec,
            level,
            budget: self.shape.release_budget(level),
            exact,
            shape_key: h.finish(),
        }
    }

    /// A sample of specs from this mix's generator, the same for every
    /// workload seed (for the isolated layer timings).
    pub fn sample_specs(&self, count: usize, stream: u64) -> Vec<QuerySpec> {
        let mut rng = derive_rng(FIXED_SEED, stream);
        (0..count).map(|_| self.draw_spec(&mut rng)).collect()
    }
}

/// One virtual client's deterministic request sequence.
#[derive(Debug)]
pub struct ClientStream {
    client: usize,
    sent: u64,
    rng: StdRng,
}

impl ClientStream {
    /// The client's next request.
    pub fn next(&mut self, inputs: &Inputs) -> Request {
        let spec = inputs.draw_spec(&mut self.rng);
        let request = inputs.request(self.client, self.sent, spec);
        self.sent += 1;
        request
    }
}
