//! End-to-end coalescing correctness (ISSUE 5 satellite).
//!
//! * A coalesced batch answer for tenant A is **bit-identical** to the
//!   slice of the combined batch answer it was cut from — verified by
//!   reconstructing the combined workload and the batch's noise stream
//!   outside the server and comparing exactly.
//! * Single-query fallthrough matches `Session::answer` bit-for-bit.
//! * Budget misbehavior is impossible: admission and settlement both
//!   refuse with typed errors, and the whole pipeline never densifies a
//!   structured workload.
//!
//! Determinism notes: batches are deterministic here because either
//! `max_batch` closes them (count-triggered, no timing) or every
//! submission lands in one open batch that shutdown flushes; settlement
//! runs in submission order within a batch.

use lrm_core::engine::{Engine, MechanismKind};
use lrm_core::mechanism::Mechanism;
use lrm_dp::rng::derive_rng;
use lrm_dp::{Budget, BudgetError, Epsilon};
use lrm_linalg::operator::densification_count;
use lrm_server::{AdmissionError, QuerySpec, Server, ServerError};
use lrm_workload::{Attribute, Schema, Workload};

const SEED: u64 = 0x5e12_11e5;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

/// 32 unit-width buckets over [0, 32): value intervals with integer
/// endpoints map to the bucket interval `(a, b-1)` exactly.
fn schema() -> Schema {
    Schema::single(Attribute::new("v", 0.0, 32.0, 32).unwrap())
}

fn data() -> Vec<f64> {
    (0..32).map(|i| ((i * 13) % 97) as f64).collect()
}

fn server(max_batch: usize) -> Server {
    Server::builder(schema(), data())
        .mechanism(MechanismKind::Lrm)
        .max_batch(max_batch)
        .coalesce_window(std::time::Duration::from_secs(60))
        .workers(2)
        .seed(SEED)
        .build()
        .unwrap()
}

#[test]
fn coalesced_slices_are_bit_identical_to_the_combined_batch_answer() {
    let densify_before = densification_count();
    let server = server(100);
    server.register_tenant("a", eps(4.0));
    server.register_tenant("b", eps(4.0));

    let spec_a = QuerySpec::Ranges {
        attr: 0,
        ranges: vec![(0.0, 16.0), (8.0, 24.0)],
    };
    let spec_b = QuerySpec::Prefixes {
        attr: 0,
        thresholds: vec![4.0, 32.0],
    };
    let half = eps(0.5);

    // Submit both without waiting: they join the same open batch, which
    // the shutdown flush closes as one two-request batch (index 0).
    let (tickets, report) = server.serve(|client| {
        let ta = client.submit("a", &spec_a, half).unwrap();
        let tb = client.submit("b", &spec_b, half).unwrap();
        vec![ta, tb]
    });
    let mut releases = Vec::new();
    for t in tickets {
        releases.push(t.wait().unwrap());
    }
    assert_eq!(report.metrics.coalesced_batches, 1);
    assert_eq!(report.metrics.batches, 1);
    assert!(releases.iter().all(|r| r.coalesced() && r.batch_size == 2));
    assert_eq!(releases[0].batch_index, 0);

    // Reconstruct the combined release entirely outside the server: the
    // same concatenated workload, compiled by a fresh engine with the
    // same (default) options, answered with the batch's noise stream.
    let combined = Workload::from_intervals(
        32,
        vec![(0, 15), (8, 23), (0, 3), (0, 31)], // spec_a rows, then spec_b rows
    )
    .unwrap();
    let engine = Engine::default();
    let compiled = engine
        .compile_default(&combined, MechanismKind::Lrm)
        .unwrap();
    let batch_answers = compiled
        .answer(&data(), half, &mut derive_rng(SEED, 0))
        .unwrap();

    assert_eq!(releases[0].answers, batch_answers[0..2].to_vec());
    assert_eq!(releases[1].answers, batch_answers[2..4].to_vec());
    assert_eq!(releases[0].mechanism, "LRM");
    assert!((releases[0].eps_remaining - 3.5).abs() < 1e-12);

    // The whole pipeline (spec → coalesce → compile → answer) stayed
    // structured: zero densifications.
    assert_eq!(densification_count() - densify_before, 0);
}

#[test]
fn single_query_fallthrough_matches_session_answer() {
    let server = server(1); // max_batch = 1: every request falls through
    server.register_tenant("solo", eps(1.0));
    let spec = QuerySpec::Ranges {
        attr: 0,
        ranges: vec![(0.0, 8.0), (8.0, 32.0), (0.0, 32.0)],
    };
    let half = eps(0.5);

    let (outcome, report) =
        server.serve(|client| client.submit("solo", &spec, half).unwrap().wait());
    let release = outcome.unwrap();
    assert_eq!(report.metrics.single_batches, 1);
    assert_eq!(report.metrics.coalesced_batches, 0);
    assert!(!release.coalesced());

    // The same request through the library Session API, with the same
    // strategy and the same noise stream, answers bit-identically.
    let alone = Workload::from_intervals(32, vec![(0, 7), (8, 31), (0, 31)]).unwrap();
    let engine = Engine::default();
    let compiled = engine.compile_default(&alone, MechanismKind::Lrm).unwrap();
    let mut session = compiled.session(eps(1.0));
    let batch = session
        .answer(&data(), half, &mut derive_rng(SEED, 0))
        .unwrap();

    assert_eq!(release.answers, batch.answers);
    assert_eq!(release.eps_remaining, session.remaining());
    // Both report the data-independent noise bound (x = None), never
    // the structural residual, a statistic of the private data.
    assert_eq!(
        release.expected_avg_error,
        compiled.expected_average_error(half, None)
    );
    assert_eq!(release.expected_avg_error, batch.expected_avg_error);
}

#[test]
fn settlement_refuses_the_second_debit_of_an_over_committed_batch() {
    // Both requests pass the advisory admission check (each alone fits),
    // land in one batch, and the batch answers — but only the first
    // settlement debit fits. The second slice is withheld with the same
    // typed budget error the sequential ledger gives.
    let server = server(2);
    server.register_tenant("tight", eps(0.5));
    let spec = QuerySpec::Total;
    let half = eps(0.5);

    let (tickets, report) = server.serve(|client| {
        let t1 = client.submit("tight", &spec, half).unwrap();
        let t2 = client.submit("tight", &spec, half).unwrap();
        vec![t1, t2]
    });
    let mut outcomes = tickets.into_iter().map(|t| t.wait());
    let first = outcomes.next().unwrap().unwrap();
    assert!((first.eps_remaining - 0.0).abs() < 1e-12);
    match outcomes.next().unwrap() {
        Err(ServerError::Admission(AdmissionError::Budget(BudgetError::Exhausted {
            requested,
            ..
        }))) => assert_eq!(requested, 0.5),
        other => panic!("expected a typed settlement refusal, got {other:?}"),
    }
    assert_eq!(report.metrics.answered, 1);
    assert_eq!(report.metrics.rejected_settlement, 1);
    // The tenant's ledger granted exactly one release.
    assert_eq!(report.tenants.len(), 1);
    assert_eq!(report.tenants[0].releases, 1);
    assert!((report.tenants[0].spent - 0.5).abs() < 1e-12);
}

#[test]
fn admission_rejects_exhausted_tenants_and_unknown_tenants() {
    let server = server(1);
    server.register_tenant("a", eps(0.5));
    let spec = QuerySpec::Total;

    let (results, report) = server.serve(|client| {
        // Unknown tenant: synchronous, typed.
        let unknown = client.submit("ghost", &spec, eps(0.1)).err().unwrap();
        // Spend the whole budget, then get refused at admission.
        let ok = client.submit("a", &spec, eps(0.5)).unwrap().wait();
        let refused = client.submit("a", &spec, eps(0.5)).unwrap().wait();
        (unknown, ok, refused)
    });
    let (unknown, ok, refused) = results;
    assert!(matches!(
        unknown,
        ServerError::Admission(AdmissionError::UnknownTenant { tenant }) if tenant == "ghost"
    ));
    assert!(ok.is_ok());
    assert!(matches!(
        refused,
        Err(ServerError::Admission(AdmissionError::Budget(_)))
    ));
    assert_eq!(report.metrics.rejected_admission, 1);
    assert_eq!(report.metrics.answered, 1);

    // Spec errors are synchronous and typed too.
    let (spec_err, _) = server.serve(|client| {
        client
            .submit("a", &QuerySpec::Marginal { attr: 9 }, eps(0.1))
            .err()
            .unwrap()
    });
    assert!(matches!(spec_err, ServerError::Spec(_)));
}

#[test]
fn incompatible_specs_do_not_share_a_batch() {
    // Same arrival window, but different ε: the scheduler must keep them
    // in separate batches (a single noise draw cannot serve two scales).
    let server = server(4);
    server.register_tenant("a", eps(4.0));
    let spec = QuerySpec::Total;

    let (tickets, report) = server.serve(|client| {
        vec![
            client.submit("a", &spec, eps(0.5)).unwrap(),
            client.submit("a", &spec, eps(0.25)).unwrap(),
            client.submit("a", &spec, eps(0.5)).unwrap(),
        ]
    });
    let releases: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(report.metrics.batches, 2);
    assert_eq!(report.metrics.coalesced_batches, 1); // the two ε = 0.5
    assert_eq!(report.metrics.single_batches, 1); // the lone ε = 0.25
    assert_eq!(releases[0].batch_size, 2);
    assert_eq!(releases[1].batch_size, 1);
    assert_eq!(releases[2].batch_size, 2);
}

#[test]
fn sparse_class_specs_coalesce_through_csr() {
    let schema = Schema::product(vec![
        Attribute::new("x", 0.0, 8.0, 8).unwrap(),
        Attribute::new("y", 0.0, 4.0, 4).unwrap(),
    ])
    .unwrap();
    let n = schema.domain_size();
    let data: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let server = Server::builder(schema, data)
        .max_batch(2)
        .coalesce_window(std::time::Duration::from_secs(60))
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(2.0));

    // Both specs stride the inner attribute → both are CSR-class.
    let m1 = QuerySpec::Marginal { attr: 1 };
    let m2 = QuerySpec::Ranges {
        attr: 1,
        ranges: vec![(0.0, 2.0)],
    };
    let (tickets, report) = server.serve(|client| {
        vec![
            client.submit("a", &m1, eps(0.5)).unwrap(),
            client.submit("a", &m2, eps(0.5)).unwrap(),
        ]
    });
    let releases: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_eq!(report.metrics.coalesced_batches, 1);
    assert_eq!(releases[0].answers.len(), 4);
    assert_eq!(releases[1].answers.len(), 1);
}

#[test]
fn repeated_workloads_hit_the_strategy_cache() {
    let server = server(1);
    server.register_tenant("a", eps(8.0));
    let spec = QuerySpec::Prefixes {
        attr: 0,
        thresholds: vec![8.0, 16.0, 24.0, 32.0],
    };
    let (_, report) = server.serve(|client| {
        for _ in 0..4 {
            client.submit("a", &spec, eps(0.5)).unwrap().wait().unwrap();
        }
    });
    assert_eq!(report.cache.misses, 1);
    assert_eq!(report.cache.memory_hits, 3);
    assert_eq!(report.metrics.answered, 4);
    // Distinct noise per batch even on cache hits: the four releases
    // come from four different derived streams.
    let (tickets, _) = server.serve(|client| {
        vec![
            client.submit("a", &spec, eps(0.5)).unwrap(),
            client.submit("a", &spec, eps(0.5)).unwrap(),
        ]
    });
    let r: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    assert_ne!(r[0].answers, r[1].answers);
}

#[test]
fn noise_streams_never_repeat_across_serve_runs() {
    // The batch counter is server-lifetime, not per-serve: tenant
    // ledgers span serve() calls, so a repeated batch index would
    // re-release the same Laplace draws for freshly-debited ε. Two runs
    // of the same single request must get different indices — and hence
    // different noise despite the identical workload and cached strategy.
    let server = server(1);
    server.register_tenant("a", eps(4.0));
    let spec = QuerySpec::Ranges {
        attr: 0,
        ranges: vec![(0.0, 16.0), (16.0, 32.0)],
    };
    let (first, _) = server.serve(|client| client.submit("a", &spec, eps(0.5)).unwrap().wait());
    let (second, _) = server.serve(|client| client.submit("a", &spec, eps(0.5)).unwrap().wait());
    let (first, second) = (first.unwrap(), second.unwrap());
    assert_eq!(first.batch_index, 0);
    assert_eq!(second.batch_index, 1);
    assert_ne!(first.answers, second.answers);
}

#[test]
fn concurrent_clients_all_get_answers() {
    // Multi-threaded smoke: several client threads hammer the runtime;
    // every submission resolves (answered or typed-rejected), the queue
    // drains, and per-tenant grants never exceed the registered totals.
    let server = Server::builder(schema(), data())
        .max_batch(4)
        .coalesce_window(std::time::Duration::from_millis(5))
        .workers(3)
        .seed(SEED)
        .build()
        .unwrap();
    for t in 0..3 {
        server.register_tenant(&format!("t{t}"), eps(2.0));
    }
    let request = eps(0.25);

    let (granted, report) = server.serve(|client| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|t| {
                    let client = client.clone();
                    s.spawn(move || {
                        let tenant = format!("t{t}");
                        let spec = QuerySpec::Ranges {
                            attr: 0,
                            ranges: vec![(0.0, 16.0), (16.0, 32.0)],
                        };
                        let mut granted = 0.0;
                        for _ in 0..12 {
                            let ticket = client.submit(&tenant, &spec, request).unwrap();
                            match ticket.wait() {
                                Ok(r) => granted += r.eps_spent.value(),
                                Err(ServerError::Admission(_)) => {}
                                Err(e) => panic!("unexpected serving error: {e}"),
                            }
                        }
                        granted
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<f64>>()
        })
    });

    // 12 requests × ε/4 against a budget of 2: exactly 8 grants each.
    for g in &granted {
        assert!(*g <= 2.0 + 1e-9, "tenant granted {g} > total 2.0");
        assert!((g - 2.0).abs() < 1e-9);
    }
    assert_eq!(report.metrics.submitted, 36);
    assert_eq!(
        report.metrics.answered
            + report.metrics.rejected_admission
            + report.metrics.rejected_settlement,
        36
    );
    assert_eq!(report.metrics.answered, 24);
}

#[test]
fn pinned_seed_servers_release_bit_identical_answers() {
    // Two servers under the same pinned seed must release the same
    // answer bits at the same batch indices: the batch index (the
    // noise-stream label) comes from the server-lifetime counter, and
    // batch formation here is count-closed, so nothing depends on timing.
    // Two sequential phases at different ε (different batch keys) keep
    // the index assignment deterministic.
    let run = || -> Vec<lrm_server::Release> {
        let server = Server::builder(schema(), data())
            .mechanism(MechanismKind::Lrm)
            .max_batch(2) // count-closed: no timing in batch formation
            .coalesce_window(std::time::Duration::from_secs(60))
            .workers(3)
            .seed(SEED)
            .build()
            .unwrap();
        server.register_tenant("a", eps(4.0));
        server.register_tenant("b", eps(4.0));
        let spec_a = QuerySpec::Ranges {
            attr: 0,
            ranges: vec![(0.0, 16.0), (8.0, 24.0)],
        };
        let spec_b = QuerySpec::Prefixes {
            attr: 0,
            thresholds: vec![4.0, 32.0],
        };
        let (mut releases, report) = server.serve(|client| {
            // Phase 1 (batch 0): one ε=0.5 batch, both members, via the
            // evented TicketSet path.
            let set = lrm_server::TicketSet::new();
            let half = Budget::pure(eps(0.5));
            let ta = client.submit_budget_into("a", &spec_a, half, &set).unwrap();
            let tb = client.submit_budget_into("b", &spec_b, half, &set).unwrap();
            let mut phase1: Vec<(u64, lrm_server::Release)> = Vec::new();
            while let Some((token, outcome)) = set.wait_any() {
                phase1.push((token, outcome.unwrap()));
            }
            phase1.sort_by_key(|(token, _)| *token);
            assert_eq!(phase1.len(), 2);
            assert_eq!((phase1[0].0, phase1[1].0), (ta, tb));
            // Phase 2 (batch 1): a different ε — a different batch key —
            // via the blocking path.
            let ra = client.submit("a", &spec_a, eps(0.25)).unwrap();
            let rb = client.submit("b", &spec_b, eps(0.25)).unwrap();
            let mut out: Vec<lrm_server::Release> = phase1.into_iter().map(|(_, r)| r).collect();
            out.push(ra.wait().unwrap());
            out.push(rb.wait().unwrap());
            out
        });
        assert_eq!(report.metrics.answered, 4);
        assert_eq!(report.metrics.batches, 2);
        // Both phases' indices are deterministic: phase 1 completed
        // before phase 2 submitted.
        releases.sort_by_key(|r| (r.batch_index, r.answers.len()));
        assert_eq!(releases[0].batch_index, 0);
        assert_eq!(releases[3].batch_index, 1);
        releases
    };

    let first = run();
    let second = run();
    for (x, y) in first.iter().zip(&second) {
        assert_eq!(x.answers, y.answers, "a released answer bit changed");
        assert_eq!(x.batch_index, y.batch_index);
        assert_eq!(x.batch_size, y.batch_size);
        assert_eq!(x.eps_remaining, y.eps_remaining);
    }
}
