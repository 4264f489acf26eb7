//! Fault containment: worker supervision + quarantine, compile-deadline
//! degraded mode, bounded admission, bounded waits, and durable-ledger
//! restart resumes (ISSUE 7).
//!
//! Failpoint-driven tests share the process-global registry of
//! `lrm-testing`, so every test here serializes on one mutex and resets
//! the registry on entry.

use lrm_dp::Epsilon;
use lrm_server::{QuerySpec, Server, ServerError};
use lrm_testing::{arm, reset, FailAction, FireRule};
use lrm_workload::{Attribute, Schema};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

const SEED: u64 = 0xfa17_70e5;

fn eps(v: f64) -> Epsilon {
    Epsilon::new(v).unwrap()
}

fn schema(n: usize) -> Schema {
    Schema::single(Attribute::new("v", 0.0, n as f64, n).unwrap())
}

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 7) % 53) as f64).collect()
}

/// Serializes failpoint tests (the registry is process-global) and
/// quiets the default panic printout for injected panics — they are the
/// expected behavior under test, not noise worth a backtrace.
fn serialized() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("failpoint") {
                default(info);
            }
        }));
    });
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    guard
}

#[test]
fn worker_panic_quarantines_the_shape_and_the_pool_survives() {
    let _guard = serialized();
    arm(
        "server::worker::panic",
        FailAction::Panic,
        FireRule::Once { at: 1 },
    );

    let server = Server::builder(schema(32), data(32))
        .max_batch(1)
        .coalesce_window(Duration::ZERO)
        .workers(2)
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(4.0));
    let crashing = QuerySpec::Ranges {
        attr: 0,
        ranges: vec![(0.0, 16.0), (16.0, 32.0)],
    };

    let (outcomes, report) = server.serve(|client| {
        // First submission hits the armed panic: contained, quarantined.
        let first = client.submit("a", &crashing, eps(0.5)).unwrap().wait();
        // Same shape again: refused at admission, no worker touched.
        let again = client.submit("a", &crashing, eps(0.5)).unwrap().wait();
        // A different shape still answers — the pool never went empty.
        let other = client
            .submit("a", &QuerySpec::Total, eps(0.5))
            .unwrap()
            .wait();
        (first, again, other)
    });

    let (first, again, other) = outcomes;
    let shape = match first {
        Err(ServerError::Quarantined { shape }) => shape,
        other => panic!("expected a quarantine failure, got {other:?}"),
    };
    assert_eq!(again, Err(ServerError::Quarantined { shape }));
    assert!(
        other.is_ok(),
        "pool died after a contained panic: {other:?}"
    );
    assert_eq!(report.metrics.worker_respawns, 1);
    assert_eq!(report.metrics.quarantined_shapes, 1);
    assert_eq!(report.metrics.failed, 2);
    assert_eq!(report.metrics.answered, 1);
    // The panicked member's budget: its intent was never begun (the
    // panic fired before reservation), so only the answered release and
    // nothing else is spent.
    assert!((report.tenants[0].spent - 0.5).abs() < 1e-12);
}

#[test]
fn the_last_worker_never_retires_whatever_the_panic_budget_says() {
    let _guard = serialized();
    // Every batch panics: a one-worker pool with a panic budget of 1
    // would retire its only slot after the first job — unless the floor
    // holds. It must keep answering (failing) every subsequent batch.
    arm("server::worker::panic", FailAction::Panic, FireRule::Always);

    let server = Server::builder(schema(16), data(16))
        .max_batch(1)
        .coalesce_window(Duration::ZERO)
        .workers(1)
        .worker_panic_budget(1)
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(4.0));

    let (outcomes, report) = server.serve(|client| {
        // Three shapes with distinct prepared rows, so none is caught by
        // the quarantine of an earlier one — each must reach a worker.
        let specs = [
            QuerySpec::Total,
            QuerySpec::Ranges {
                attr: 0,
                ranges: vec![(0.0, 8.0)],
            },
            QuerySpec::Ranges {
                attr: 0,
                ranges: vec![(4.0, 12.0)],
            },
        ];
        specs
            .iter()
            .map(|s| client.submit("a", s, eps(0.5)).unwrap().wait())
            .collect::<Vec<_>>()
    });

    // Every ticket resolved (none hung on a dead pool), every batch was
    // picked up by the surviving worker, and nothing was spent.
    assert_eq!(outcomes.len(), 3);
    for outcome in outcomes {
        assert!(matches!(outcome, Err(ServerError::Quarantined { .. })));
    }
    assert_eq!(report.metrics.worker_respawns, 3);
    assert_eq!(report.tenants[0].spent, 0.0);
}

#[test]
fn compile_deadline_overrun_degrades_to_laplace_at_the_same_eps() {
    let _guard = serialized();
    // Stall every ALM outer iteration long enough to blow the deadline.
    arm(
        "core::alm::stall",
        FailAction::SleepMs(100),
        FireRule::Always,
    );

    let server = Server::builder(schema(32), data(32))
        .max_batch(1)
        .coalesce_window(Duration::ZERO)
        .workers(1)
        .compile_deadline(Duration::from_millis(30))
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(2.0));

    let (outcome, report) = server.serve(|client| {
        client
            .submit(
                "a",
                &QuerySpec::Ranges {
                    attr: 0,
                    ranges: vec![(0.0, 16.0), (8.0, 24.0), (16.0, 32.0)],
                },
                eps(0.5),
            )
            .unwrap()
            .wait()
    });

    let release = outcome.unwrap();
    assert!(release.degraded, "expected the degraded-mode fallback");
    assert_eq!(release.mechanism, "LM");
    assert_eq!(release.answers.len(), 3);
    // Same ε as requested — degradation trades error, never privacy.
    assert_eq!(release.eps_spent, eps(0.5));
    assert!((release.eps_remaining - 1.5).abs() < 1e-12);
    assert_eq!(report.metrics.degraded_releases, 1);
}

#[test]
fn bounded_admission_sheds_synchronously_at_the_cap() {
    let _guard = serialized();
    let server = Server::builder(schema(16), data(16))
        .max_batch(8)
        .coalesce_window(Duration::from_secs(30))
        .workers(1)
        .max_queue_depth(1)
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(4.0));

    let (outcomes, report) = server.serve(|client| {
        // First fills the only queue slot (it sits in the 30 s window);
        // the second is shed synchronously.
        let first = client.submit("a", &QuerySpec::Total, eps(0.5)).unwrap();
        let shed = client.submit("a", &QuerySpec::Total, eps(0.5));
        (first, shed)
    });
    let (first, shed) = outcomes;
    match shed {
        Err(ServerError::Overloaded { retry_after }) => {
            assert!(retry_after > Duration::ZERO);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // The admitted request still answered at shutdown.
    assert!(first.wait().is_ok());
    assert_eq!(report.metrics.shed, 1);
    assert_eq!(report.metrics.submitted, 1);
    assert_eq!(report.metrics.answered, 1);
}

#[test]
fn wait_timeout_distinguishes_in_flight_from_resolved() {
    let _guard = serialized();
    let server = Server::builder(schema(16), data(16))
        .max_batch(8)
        .coalesce_window(Duration::from_secs(30))
        .workers(1)
        .seed(SEED)
        .build()
        .unwrap();
    server.register_tenant("a", eps(1.0));

    let (ticket, _report) = server.serve(|client| {
        let ticket = client.submit("a", &QuerySpec::Total, eps(0.5)).unwrap();
        // Parked in the long coalescing window: a bounded wait returns
        // None (still in flight) instead of blocking 30 s.
        assert!(ticket.wait_timeout(Duration::from_millis(50)).is_none());
        ticket
        // Dropping the client flushes the window at shutdown.
    });
    match ticket.wait_timeout(Duration::from_secs(10)) {
        Some(Ok(release)) => assert_eq!(release.answers.len(), 1),
        other => panic!("expected the flushed release, got {other:?}"),
    }
}

#[test]
fn durable_ledgers_and_noise_epochs_survive_a_restart() {
    let _guard = serialized();
    let dir = std::env::temp_dir().join(format!("lrm_faults_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let build = || {
        Server::builder(schema(16), data(16))
            .max_batch(1)
            .coalesce_window(Duration::ZERO)
            .workers(1)
            .seed(SEED) // pinned: the epoch file is what keeps streams apart
            .state_dir(&dir)
            .build()
            .unwrap()
    };

    // First "process": spend 0.4 of 1.0.
    let first_index;
    {
        let server = build();
        let resume = server.try_register_tenant("acme", eps(1.0)).unwrap();
        assert!(!resume.resumed);
        let (outcome, _) = server.serve(|client| {
            client
                .submit("acme", &QuerySpec::Total, eps(0.4))
                .unwrap()
                .wait()
        });
        let release = outcome.unwrap();
        first_index = release.batch_index;
        assert_eq!(first_index >> 32, 1, "first durable run is epoch 1");
    }

    // Restart over the same directory: the spend is remembered, the
    // batch indices (noise-stream labels) come from a fresh epoch.
    let server = build();
    let resume = server.try_register_tenant("acme", eps(1.0)).unwrap();
    assert!(resume.resumed);
    assert!(!resume.corrupted);
    assert!((resume.spent - 0.4).abs() < 1e-12);
    let (outcomes, report) = server.serve(|client| {
        let ok = client
            .submit("acme", &QuerySpec::Total, eps(0.4))
            .unwrap()
            .wait();
        // 0.8 spent across two processes: a third 0.4 must be refused.
        let refused = client
            .submit("acme", &QuerySpec::Total, eps(0.4))
            .unwrap()
            .wait();
        (ok, refused)
    });
    let (ok, refused) = outcomes;
    let release = ok.unwrap();
    assert_eq!(release.batch_index >> 32, 2, "restart claimed epoch 2");
    assert_ne!(release.batch_index, first_index);
    assert!((release.eps_remaining - 0.2).abs() < 1e-12);
    assert!(matches!(refused, Err(ServerError::Admission(_))));
    assert_eq!(report.metrics.ledger_replays, 1);
    assert!((report.tenants[0].spent - 0.8).abs() < 1e-12);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_between_noise_and_settlement_replays_as_spent() {
    let _guard = serialized();
    let dir = std::env::temp_dir().join(format!("lrm_faults_settle_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The worker draws noise, then "crashes" before settling. The
    // durable intent must make the restart charge the tenant anyway —
    // the noise existed, so the conservative resolution is spent.
    arm(
        "server::settle::crash",
        FailAction::Panic,
        FireRule::Once { at: 1 },
    );
    {
        let server = Server::builder(schema(16), data(16))
            .max_batch(1)
            .coalesce_window(Duration::ZERO)
            .workers(1)
            .seed(SEED)
            .state_dir(&dir)
            .build()
            .unwrap();
        server.register_tenant("acme", eps(1.0));
        let (outcome, report) = server.serve(|client| {
            client
                .submit("acme", &QuerySpec::Total, eps(0.6))
                .unwrap()
                .wait()
        });
        // The member itself failed (supervisor quarantined it) …
        assert!(matches!(outcome, Err(ServerError::Quarantined { .. })));
        // … and its ε is reserved, not refunded: settled spend is still
        // zero in this process, but nothing of the 0.6 is grantable.
        assert_eq!(report.tenants[0].spent, 0.0);
        assert_eq!(report.metrics.worker_respawns, 1);
    }

    let server = Server::builder(schema(16), data(16))
        .workers(1)
        .seed(SEED)
        .state_dir(&dir)
        .build()
        .unwrap();
    let resume = server.try_register_tenant("acme", eps(1.0)).unwrap();
    assert!(resume.resumed);
    // The unsettled intent replayed as spent: over-charge, never under.
    assert!((resume.recovered_pending - 0.6).abs() < 1e-12);
    assert!((resume.spent - 0.6).abs() < 1e-12);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_settle_crash_on_a_gaussian_server_replays_both_budget_columns() {
    let _guard = serialized();
    let dir = std::env::temp_dir().join(format!("lrm_faults_delta_crash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Same crash window as the pure test — after the Gaussian draw,
    // before settlement — but the intent now reserves (ε, δ). The
    // restart must fold BOTH columns into the spend: an unsettled δ
    // reservation that silently evaporated would let the tenant exceed
    // its δ across process lifetimes.
    arm(
        "server::settle::crash",
        FailAction::Panic,
        FireRule::Once { at: 1 },
    );
    let build = || {
        Server::builder(schema(16), data(16))
            .mechanism(lrm_core::engine::MechanismKind::Laplace)
            .compile_options(lrm_core::engine::CompileOptions::with_flavor(
                lrm_core::engine::NoiseFlavor::ApproxDp,
            ))
            .max_batch(1)
            .coalesce_window(Duration::ZERO)
            .workers(1)
            .seed(SEED)
            .state_dir(&dir)
            .build()
            .unwrap()
    };
    let total = lrm_dp::Budget::approx(eps(1.0), 1e-5).unwrap();
    let request = lrm_dp::Budget::approx(eps(0.6), 4e-6).unwrap();
    {
        let server = build();
        server.register_tenant_budget("acme", total);
        let (outcome, report) = server.serve(|client| {
            client
                .submit_budget("acme", &QuerySpec::Total, request)
                .unwrap()
                .wait()
        });
        assert!(matches!(outcome, Err(ServerError::Quarantined { .. })));
        assert_eq!(report.tenants[0].spent, 0.0);
        assert_eq!(report.tenants[0].delta_spent, 0.0);
    }

    let server = build();
    let resume = server.try_register_tenant_budget("acme", total).unwrap();
    assert!(resume.resumed);
    assert!(!resume.corrupted);
    assert!((resume.recovered_pending - 0.6).abs() < 1e-12);
    assert!((resume.spent - 0.6).abs() < 1e-12);
    assert!((resume.recovered_pending_delta - 4e-6).abs() < 1e-18);
    assert!((resume.delta_spent - 4e-6).abs() < 1e-18);

    // The replayed δ binds admission on its own: 6e-6 of δ headroom
    // cannot cover a 7e-6 release even though its ε = 0.3 would fit …
    let too_much_delta = lrm_dp::Budget::approx(eps(0.3), 7e-6).unwrap();
    let (refused, _) = server.serve(|client| {
        client
            .submit_budget("acme", &QuerySpec::Total, too_much_delta)
            .unwrap()
            .wait()
    });
    assert!(matches!(refused, Err(ServerError::Admission(_))));
    // … while a release inside both remainders is still granted.
    let fits = lrm_dp::Budget::approx(eps(0.4), 5e-6).unwrap();
    let (granted, report) = server.serve(|client| {
        client
            .submit_budget("acme", &QuerySpec::Total, fits)
            .unwrap()
            .wait()
    });
    let release = granted.unwrap();
    assert!((release.eps_remaining - 0.0).abs() < 1e-12);
    assert!((release.delta_remaining - 1e-6).abs() < 1e-15);
    assert!((report.tenants[0].delta_spent - 9e-6).abs() < 1e-15);

    let _ = std::fs::remove_dir_all(&dir);
}
