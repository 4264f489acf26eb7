#![warn(missing_docs)]
//! `lrm-server` — a concurrent batch-serving runtime for the Low-Rank
//! Mechanism.
//!
//! The paper's whole premise is that batch queries answered *together*
//! through one low-rank strategy beat queries answered alone; this crate
//! is that premise as a runtime. Concurrent clients submit declarative
//! [`QuerySpec`]s; one **coalescing scheduler** thread collects
//! compatible specs arriving within a bounded window into one combined
//! structured workload (never densified), a **worker pool** claims the
//! closed batches from one FIFO flush queue and answers each through the
//! shared compiled-strategy [`Engine`](lrm_core::engine::Engine) cache
//! with one noise draw per strategy column, and **per-tenant budget
//! ledgers** (one [`lrm_dp::DurableLedger`] per tenant, lock-free at
//! admission) run a two-phase debit around every release — over-spends
//! are typed refusals, never silent, and with a
//! [state directory](server::ServerBuilder::state_dir) the ledger
//! journals every debit, so the accounting survives crashes and
//! restarts. Worker panics are contained
//! (the offending shape is quarantined, the pool never empties), compile
//! overruns degrade to a guaranteed-fast fallback at the same budget,
//! and a bounded queue sheds load synchronously (see the
//! [server module docs](server) for the failure model).
//!
//! Servers run in one of two noise models, fixed by
//! [`CompileOptions::flavor`](lrm_core::engine::CompileOptions): pure
//! ε-DP (Laplace, the default) or approximate (ε, δ)-DP (Gaussian, via
//! [`Client::submit_budget`]). Gaussian servers additionally coalesce
//! submissions at *different* ε into one batch within a δ-class — one
//! shared base draw plus per-member residual top-ups, each member
//! settled at its own budget (see [`coalesce`]).
//!
//! Completions are delivered through blocking [`Ticket`]s or through an
//! evented [`TicketSet`] completion queue that lets one client thread
//! drive tens of thousands of in-flight submissions (see [`tickets`]).
//!
//! Built on `std::thread::scope` + `mpsc` channels (like the SpMM kernels
//! in `lrm-linalg`): no async runtime.
//!
//! ```
//! use lrm_core::engine::MechanismKind;
//! use lrm_dp::Epsilon;
//! use lrm_server::{QuerySpec, Server};
//! use lrm_workload::{Attribute, Schema};
//!
//! // A 24-bucket age histogram as the private database.
//! let schema = Schema::single(Attribute::new("age", 0.0, 120.0, 24).unwrap());
//! let data: Vec<f64> = (0..24).map(|i| 100.0 + (i as f64) * 3.0).collect();
//!
//! let server = Server::builder(schema, data)
//!     .mechanism(MechanismKind::Lrm)
//!     .max_batch(4)
//!     .build()
//!     .unwrap();
//! server.register_tenant("acme", Epsilon::new(1.0).unwrap());
//!
//! let eps = Epsilon::new(0.5).unwrap();
//! let (outcome, report) = server.serve(|client| {
//!     let spec = QuerySpec::Ranges { attr: 0, ranges: vec![(0.0, 60.0), (60.0, 120.0)] };
//!     let ticket = client.submit("acme", &spec, eps).unwrap();
//!     ticket.wait()
//! });
//! let release = outcome.unwrap();
//! assert_eq!(release.answers.len(), 2);
//! assert!((release.eps_remaining - 0.5).abs() < 1e-12);
//! assert_eq!(report.metrics.answered, 1);
//! ```

pub mod coalesce;
pub mod exposition;
pub mod metrics;
pub mod server;
pub mod spec;
pub mod tenants;
pub mod tickets;

pub use metrics::MetricsSnapshot;
pub use server::{Client, Release, Server, ServerBuilder, ServerError, ServerReport, Ticket};
pub use spec::{PreparedRows, PreparedSpec, QuerySpec, SpecClass, SpecError};
pub use tenants::{AdmissionError, TenantSpend};
pub use tickets::{Completion, TicketSet};

// Cross-thread sharing audit: the scheduler, every worker, and every
// client thread borrow these concurrently, so their thread-safety is a
// compile-time contract here — a regression (say, a non-Sync cache cell
// inside the engine) fails this crate's build, not a customer's.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<lrm_core::engine::Engine>();
    assert_send_sync::<lrm_core::engine::CompiledMechanism>();
    assert_send_sync::<lrm_workload::Workload>();
    assert_send_sync::<lrm_workload::Schema>();
    assert_send_sync::<lrm_dp::DurableLedger>();
    assert_send_sync::<Release>();
    assert_send_sync::<ServerError>();
    // Several driver threads may share one completion queue.
    assert_send_sync::<TicketSet>();
    const fn assert_send<T: Send>() {}
    // Sessions and tickets move across threads but are single-owner.
    assert_send::<lrm_core::engine::Session>();
    assert_send::<Ticket>();
};
