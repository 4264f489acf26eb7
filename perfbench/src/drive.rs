//! Deployment and load generation: builds the server as deployed and
//! drives it with closed-loop virtual clients multiplexed on two threads.

use crate::host::{self, StealTimeline};
use crate::mix::{Inputs, Request};
use lrm_core::engine::{CompileOptions, Engine, NoiseFlavor};
use lrm_linalg::operator::densification_count;
use lrm_server::{Client, Server, ServerReport, TicketSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::{Duration, Instant};

/// How often the watchdog reads the machine's steal counter.
const STEAL_INTERVAL: Duration = Duration::from_millis(50);

/// Turns of the loop after which a serve's peak RSS is read: the
/// release that completes `RSS_TURNS × clients` releases reads it. The
/// strategy cache keeps every compiled strategy, so RSS grows with the
/// releases served; reading it at a fixed count keeps a faster host, or
/// a faster commit, from reading as a bigger one.
pub const RSS_TURNS: usize = 2;

/// Driver threads; virtual clients are dealt round-robin across them.
pub const DRIVER_THREADS: usize = 2;

/// Worker threads of the server (one per core of the reference box).
pub const WORKERS: usize = 2;

/// Builds a server over `inputs` with builder defaults, changing only the
/// deployment settings: a fresh state directory (durable ledgers and the
/// noise epoch), an engine strategy store under it, two workers, a pinned
/// seed. Registers every tenant. Returns the server and the wall seconds
/// the build and registration took.
pub fn deploy(inputs: &Inputs, seed: u64, state_dir: &Path) -> Result<(Server, f64), String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let shape = &inputs.shape;
    let options = if shape.is_gaussian() {
        CompileOptions::with_flavor(NoiseFlavor::ApproxDp)
    } else {
        CompileOptions::default()
    };
    let (schema, data) = (inputs.schema.clone(), inputs.data.clone());
    let budget = shape.tenant_budget();
    let started = Instant::now();
    let server = Server::builder(schema, data)
        .engine(
            Engine::builder()
                .spill_dir(state_dir.join("strategies"))
                .build(),
        )
        .compile_options(options)
        .workers(WORKERS)
        .seed(seed)
        .state_dir(state_dir)
        .build()
        .map_err(|e| format!("server build: {e}"))?;
    for t in 0..shape.tenants {
        server
            .try_register_tenant_budget(&tenant_name(t), budget)
            .map_err(|e| format!("tenant registration: {e}"))?;
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// The name tenant `t` is registered under.
pub fn tenant_name(t: usize) -> String {
    format!("tenant{t:02}")
}

/// What one tenant's clients were granted, as they saw it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Grants {
    /// Σ ε over the tenant's releases.
    pub eps: f64,
    /// Σ δ over the tenant's releases.
    pub delta: f64,
    /// Releases.
    pub releases: u64,
}

/// What the clients observed, folded over every driver thread.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests submitted (including ones refused synchronously).
    pub attempted: u64,
    /// Requests answered with a release.
    pub granted: u64,
    /// When every granted request but each client's first was sent and
    /// when it completed, wall seconds since the serve started.
    pub timed: Vec<(f64, f64)>,
    /// Total time spent inside the submit call, in ns.
    pub submit_ns: u64,
    /// Queries released.
    pub queries: u64,
    /// Σ over released queries of (released − exact)² ÷ the release's
    /// expected average error.
    pub normalized_sq_err: f64,
    /// Per ε level: the expected average error of the release, once for
    /// every query it released.
    pub expected_err: Vec<Vec<f64>>,
    /// Per tenant.
    pub grants: Vec<Grants>,
    /// Releases whose answer count differed from the spec's query count.
    pub wrong_answer_counts: u64,
    /// Completions delivered for a token already completed.
    pub duplicate_completions: u64,
    /// Shape key of every submitted request.
    pub shape_keys: Vec<u64>,
    /// Σ queries over submitted requests.
    pub rows_submitted: u64,
}

impl Tally {
    fn new(tenants: usize, levels: usize) -> Tally {
        Tally {
            grants: vec![Grants::default(); tenants],
            expected_err: vec![Vec::new(); levels],
            ..Tally::default()
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.granted += other.granted;
        self.timed.extend(other.timed);
        self.submit_ns += other.submit_ns;
        self.queries += other.queries;
        self.normalized_sq_err += other.normalized_sq_err;
        for (a, b) in self.expected_err.iter_mut().zip(other.expected_err) {
            a.extend(b);
        }
        for (a, b) in self.grants.iter_mut().zip(other.grants) {
            a.eps += b.eps;
            a.delta += b.delta;
            a.releases += b.releases;
        }
        self.wrong_answer_counts += other.wrong_answer_counts;
        self.duplicate_completions += other.duplicate_completions;
        self.shape_keys.extend(other.shape_keys);
        self.rows_submitted += other.rows_submitted;
    }

    /// Requests that ended without a release.
    pub fn failed(&self) -> u64 {
        self.attempted - self.granted
    }
}

/// One measured serve: the clients' tally plus the server's own report.
#[derive(Debug)]
pub struct Run {
    /// What the clients observed.
    pub tally: Tally,
    /// The server's report for the serve.
    pub report: ServerReport,
    /// Wall seconds from the first submit until the last completion.
    pub wall_s: f64,
    /// Of `wall_s`, the time the hypervisor stole from the machine, per
    /// CPU, as it accrued over the serve (see [`host`]).
    pub steal: StealTimeline,
    /// The process's CPU time over the serve, as a share of what the
    /// machine's CPUs could give in [`Run::busy_s`].
    pub cpu_share: f64,
    /// Operator densifications during the serve (must stay 0).
    pub densifications: u64,
    /// Peak RSS, MiB, when the serve had granted [`RSS_TURNS`] releases
    /// per client; `None` if it granted fewer.
    pub rss_mib: Option<f64>,
}

impl Run {
    /// The serve's wall time with the stolen time taken out: what it
    /// would have taken had the hypervisor left the machine alone.
    pub fn busy_s(&self) -> f64 {
        self.wall_s - self.steal.total_s()
    }

    /// Granted releases per second of [`Run::busy_s`].
    pub fn throughput_rps(&self) -> f64 {
        self.tally.granted as f64 / self.busy_s()
    }

    /// The share of the serve's wall time the hypervisor stole.
    pub fn steal_share(&self) -> f64 {
        self.steal.total_s() / self.wall_s
    }

    /// Client-observed latencies, ms, each less the time stolen per CPU
    /// while it ran.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.tally
            .timed
            .iter()
            .map(|&(sent, done)| {
                let wall = done - sent;
                (wall - self.steal.between(sent, done)).max(0.01 * wall) * 1e3
            })
            .collect()
    }
}

/// Live counts a stuck serve is reported with.
#[derive(Debug, Default)]
struct Progress {
    attempted: AtomicU64,
    granted: AtomicU64,
    in_flight: AtomicU64,
    rss_mib: OnceLock<f64>,
}

/// Drives `server` for about `seconds` of wall time, drain included:
/// every virtual client keeps one request in flight and sends its next
/// one when its release arrives, until the requests in flight would take
/// the run past `seconds` to complete.
///
/// A watchdog thread reads the steal counter every [`STEAL_INTERVAL`]
/// while the serve runs. A serve that has not drained `2 × seconds + 30` s
/// after it started has lost tickets: the watchdog reports the run failed
/// (see [`abandon`](crate::abandon)) instead of waiting for them forever.
pub fn drive(server: &Server, inputs: &Inputs, seconds: f64) -> Result<Run, String> {
    let densified_before = densification_count();
    let progress = Progress::default();
    let deadline = Duration::from_secs_f64(2.0 * seconds + 30.0);
    let (done, finished) = mpsc::channel::<()>();
    let host_before = host::Sample::now()?;
    let started = Instant::now();
    let (tallies, report, steal) = std::thread::scope(|s| {
        let progress = &progress;
        let watchdog = s.spawn(move || {
            let mut steal = StealTimeline::default();
            while let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(STEAL_INTERVAL) {
                let at = started.elapsed();
                if at > deadline {
                    let attempted = progress.attempted.load(Ordering::Relaxed);
                    crate::abandon(
                        attempted,
                        attempted - progress.granted.load(Ordering::Relaxed),
                        &format!(
                            "{} tickets unresolved {} s after the serve started",
                            progress.in_flight.load(Ordering::Relaxed),
                            deadline.as_secs()
                        ),
                    );
                }
                let now = host::Sample::now()?;
                steal.push(at.as_secs_f64(), host_before.steal_per_cpu_s(&now));
            }
            Ok::<_, String>(steal)
        });
        let served = server.serve(|client| {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..DRIVER_THREADS)
                    .map(|d| {
                        s.spawn(move || {
                            drive_clients(client, inputs, d, started, seconds, progress)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("driver thread"))
                    .collect::<Vec<Tally>>()
            })
        });
        let _ = done.send(());
        let steal = watchdog.join().expect("watchdog thread");
        (served.0, served.1, steal)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let host_after = host::Sample::now()?;
    let mut steal = steal?;
    steal.push(
        wall_s,
        host_before.steal_per_cpu_s(&host_after).min(wall_s * 0.99),
    );
    let busy_s = wall_s - steal.total_s();
    let shape = &inputs.shape;
    let mut tally = Tally::new(shape.tenants, shape.eps_levels.len());
    for t in tallies {
        tally.absorb(t);
    }
    Ok(Run {
        tally,
        report,
        wall_s,
        steal,
        cpu_share: host_before.cpu_share(&host_after, busy_s),
        densifications: densification_count() - densified_before,
        rss_mib: progress.rss_mib.get().copied(),
    })
}

/// A request sent: who sent it, when, and — until it completes — what it
/// must answer.
struct Pending {
    client: usize,
    started: Instant,
    /// Whether its latency is a sample: every client's first request is
    /// sent at once at the start, so those measure the ramp-up, not the
    /// loop, and a run's share of them would move with its length.
    timed: bool,
    request: Option<Request>,
}

/// One driver thread: the virtual clients `driver`, `driver + T`, … on
/// one [`TicketSet`]. Set tokens are handed out in submission order from
/// 0, so a token indexes the driver's submission log.
///
/// A client sends again while the run, projected to its end, stays
/// within `seconds`: once every client has completed a request, the
/// projection adds the time the requests still in flight take at the
/// rate this driver has completed them so far.
fn drive_clients(
    client: &Client<'_>,
    inputs: &Inputs,
    driver: usize,
    started: Instant,
    seconds: f64,
    progress: &Progress,
) -> Tally {
    let shape = &inputs.shape;
    let mut streams: Vec<_> = (driver..shape.clients)
        .step_by(DRIVER_THREADS)
        .map(|c| inputs.client(c))
        .collect();
    let set = TicketSet::new();
    let clients = streams.len();
    let mut tally = Tally::new(shape.tenants, shape.eps_levels.len());
    let mut log: Vec<Pending> = Vec::new();
    let mut submit = |local: usize, timed: bool, tally: &mut Tally, log: &mut Vec<Pending>| {
        let request = streams[local].next(inputs);
        tally.attempted += 1;
        tally.rows_submitted += request.exact.len() as u64;
        tally.shape_keys.push(request.shape_key);
        let tenant = tenant_name(request.tenant);
        progress.attempted.fetch_add(1, Ordering::Relaxed);
        let sent = Instant::now();
        let submitted = client.submit_budget_into(&tenant, &request.spec, request.budget, &set);
        tally.submit_ns += sent.elapsed().as_nanos() as u64;
        // A synchronous refusal ends that client's loop: it is counted as
        // failed and never enters the set.
        if let Ok(token) = submitted {
            debug_assert_eq!(token, log.len() as u64, "tokens are sequential");
            progress.in_flight.fetch_add(1, Ordering::Relaxed);
            log.push(Pending {
                client: local,
                started: sent,
                timed,
                request: Some(request),
            });
        }
    };
    for local in 0..clients {
        submit(local, false, &mut tally, &mut log);
    }
    let mut completed = 0usize;
    while let Some((token, outcome)) = set.wait_any() {
        let now = Instant::now();
        completed += 1;
        progress.in_flight.fetch_sub(1, Ordering::Relaxed);
        let pending = &mut log[token as usize];
        let Some(request) = pending.request.take() else {
            tally.duplicate_completions += 1;
            continue;
        };
        let local = pending.client;
        if let Ok(release) = outcome {
            tally.granted += 1;
            let granted = progress.granted.fetch_add(1, Ordering::Relaxed) + 1;
            if granted == (RSS_TURNS * shape.clients) as u64 {
                if let Ok(mib) = crate::peak_rss_mib() {
                    let _ = progress.rss_mib.set(mib);
                }
            }
            if pending.timed {
                tally.timed.push((
                    pending.started.duration_since(started).as_secs_f64(),
                    now.duration_since(started).as_secs_f64(),
                ));
            }
            let grants = &mut tally.grants[request.tenant];
            grants.eps += release.eps_spent.value();
            grants.delta += release.delta_spent;
            grants.releases += 1;
            if release.answers.len() != request.exact.len() {
                tally.wrong_answer_counts += 1;
            } else {
                let n = release.answers.len();
                tally.queries += n as u64;
                tally.expected_err[request.level]
                    .extend(std::iter::repeat_n(release.expected_avg_error, n));
                tally.normalized_sq_err += release
                    .answers
                    .iter()
                    .zip(&request.exact)
                    .map(|(a, e)| (a - e) * (a - e))
                    .sum::<f64>()
                    / release.expected_avg_error;
            }
        }
        let elapsed = now.duration_since(started).as_secs_f64();
        let drain = if completed >= clients {
            set.in_flight() as f64 * elapsed / completed as f64
        } else {
            0.0
        };
        if elapsed + drain < seconds {
            submit(local, true, &mut tally, &mut log);
        }
    }
    tally
}
