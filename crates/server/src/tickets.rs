//! Completion-driven ticket delivery.
//!
//! The original front end gave every submission its own mpsc channel and a
//! blocking [`Ticket`](crate::Ticket): one client thread per in-flight
//! request. That shape caps concurrency at the OS thread budget long before
//! the scheduler or the workers saturate. This module adds the evented
//! alternative: a [`TicketSet`] is a shared completion queue that any number
//! of submissions can be routed into, so **one** client thread can drive
//! tens of thousands of in-flight requests — submit until the window is
//! full, then harvest completions with [`TicketSet::poll`] /
//! [`TicketSet::wait_any`] and top the window back up.
//!
//! Both delivery styles funnel through one internal type, `Responder`:
//! the worker calls `Responder::send` exactly once per submission. A
//! responder that is dropped unfired — a scheduler or worker tearing down
//! with the submission still queued — delivers `Err(ServerError::Shutdown)`
//! from its `Drop` impl, so no ticket or set entry is ever silently lost:
//! the drop guard is what lets `TicketSet::wait_any` promise it never
//! hangs on a crashed runtime.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::server::{Release, ServerError};

/// The outcome delivered for one submission.
pub type Completion = Result<Release, ServerError>;

/// How a finished submission finds its way back to the caller. Exactly one
/// `send` happens per submission; the `Drop` guard converts an unfired
/// responder into `Err(Shutdown)` so teardown can never strand a waiter.
pub(crate) struct Responder {
    kind: Option<ResponderKind>,
}

enum ResponderKind {
    /// Legacy blocking path: the per-submission channel behind a
    /// [`crate::Ticket`].
    Channel(Sender<Completion>),
    /// Evented path: push `(token, outcome)` onto the owning
    /// [`TicketSet`]'s completion queue.
    Set { shared: Arc<SetShared>, token: u64 },
}

impl Responder {
    pub fn channel(tx: Sender<Completion>) -> Self {
        Responder {
            kind: Some(ResponderKind::Channel(tx)),
        }
    }

    /// Deliver the outcome. Consumes the responder; the drop guard is
    /// disarmed by taking `kind` out first.
    pub fn send(mut self, outcome: Completion) {
        if let Some(kind) = self.kind.take() {
            kind.deliver(outcome);
        }
    }

    /// Disarm without delivering anything. Used on the synchronous-error
    /// path in `Client::dispatch`: the caller gets the error as a return
    /// value, so routing a second copy through the completion path would
    /// double-report. For a set responder this also releases the in-flight
    /// slot that registration took.
    pub fn defuse(mut self) {
        if let Some(ResponderKind::Set { shared, token: _ }) = self.kind.take() {
            let mut state = shared.lock();
            state.outstanding -= 1;
            shared.cv.notify_all();
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(kind) = self.kind.take() {
            kind.deliver(Err(ServerError::Shutdown));
        }
    }
}

impl ResponderKind {
    fn deliver(self, outcome: Completion) {
        match self {
            ResponderKind::Channel(tx) => {
                // The waiter may have dropped its Ticket; nothing to do.
                let _ = tx.send(outcome);
            }
            ResponderKind::Set { shared, token } => {
                let mut state = shared.lock();
                state.ready.push_back((token, outcome));
                state.outstanding -= 1;
                drop(state);
                shared.cv.notify_one();
            }
        }
    }
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.kind {
            Some(ResponderKind::Channel(_)) => "Channel",
            Some(ResponderKind::Set { .. }) => "Set",
            None => "Fired",
        };
        f.debug_struct("Responder").field("kind", &kind).finish()
    }
}

struct SetShared {
    state: Mutex<SetState>,
    cv: Condvar,
}

struct SetState {
    /// Completions delivered but not yet harvested by `poll`/`wait_any`.
    ready: VecDeque<(u64, Completion)>,
    /// Submissions registered but not yet delivered.
    outstanding: usize,
}

impl SetShared {
    fn lock(&self) -> MutexGuard<'_, SetState> {
        // A poisoned completion queue only means some panicking thread held
        // the lock mid-push; the queue itself (counter + VecDeque) is
        // always structurally valid, so keep serving waiters.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A completion queue for driving many in-flight submissions from few
/// threads.
///
/// Submit with [`Client::submit_budget_into`](crate::Client::submit_budget_into),
/// which returns a `u64` token; harvest with [`poll`](TicketSet::poll)
/// (non-blocking) or [`wait_any`](TicketSet::wait_any) (blocks until a
/// completion is ready, returns `None` once the set is fully drained).
/// Tokens are handed out in submission order starting from 0, so a driver
/// can index per-request bookkeeping by token.
///
/// The set is `Send + Sync`: several driver threads may share one set and
/// harvest concurrently — each completion is delivered to exactly one
/// caller. [`in_flight`](TicketSet::in_flight) counts submissions not yet
/// harvested (queued in the server *or* sitting ready), which is the
/// windowing quantity a driver compares against its target depth.
pub struct TicketSet {
    shared: Arc<SetShared>,
    next_token: AtomicU64,
}

impl Default for TicketSet {
    fn default() -> Self {
        Self::new()
    }
}

impl TicketSet {
    /// An empty completion queue, ready to receive submissions via
    /// [`Client::submit_budget_into`](crate::Client::submit_budget_into).
    pub fn new() -> Self {
        TicketSet {
            shared: Arc::new(SetShared {
                state: Mutex::new(SetState {
                    ready: VecDeque::new(),
                    outstanding: 0,
                }),
                cv: Condvar::new(),
            }),
            next_token: AtomicU64::new(0),
        }
    }

    /// Reserve a token and build the responder that will complete it.
    /// Called by `Client` on the submit path.
    pub(crate) fn register(&self) -> (u64, Responder) {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.shared.lock().outstanding += 1;
        let responder = Responder {
            kind: Some(ResponderKind::Set {
                shared: Arc::clone(&self.shared),
                token,
            }),
        };
        (token, responder)
    }

    /// Non-blocking harvest: the oldest unclaimed completion, or `None` if
    /// nothing is ready right now (there may still be submissions in
    /// flight — check [`in_flight`](TicketSet::in_flight)).
    pub fn poll(&self) -> Option<(u64, Completion)> {
        self.shared.lock().ready.pop_front()
    }

    /// Blocking harvest: waits until a completion is ready and returns it.
    /// Returns `None` only when the set is drained — nothing ready and
    /// nothing in flight — so a driver loop is simply
    /// `while let Some((token, outcome)) = set.wait_any() { … }`.
    pub fn wait_any(&self) -> Option<(u64, Completion)> {
        let mut state = self.shared.lock();
        loop {
            if let Some(done) = state.ready.pop_front() {
                return Some(done);
            }
            if state.outstanding == 0 {
                return None;
            }
            state = self
                .shared
                .cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Submissions not yet harvested: still queued or compiling in the
    /// server, plus completions sitting ready. This is the depth an
    /// evented driver windows on.
    pub fn in_flight(&self) -> usize {
        let state = self.shared.lock();
        state.outstanding + state.ready.len()
    }

    /// True when every registered submission has been harvested.
    pub fn is_drained(&self) -> bool {
        self.in_flight() == 0
    }
}

impl std::fmt::Debug for TicketSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("TicketSet")
            .field("ready", &state.ready.len())
            .field("outstanding", &state.outstanding)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn set_delivers_in_completion_order_and_drains() {
        let set = TicketSet::new();
        let (t0, r0) = set.register();
        let (t1, r1) = set.register();
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(set.in_flight(), 2);
        assert!(set.poll().is_none(), "nothing completed yet");

        // Complete out of submission order: delivery order wins.
        r1.send(Err(ServerError::Shutdown));
        r0.send(Err(ServerError::Shutdown));

        let (first, _) = set.wait_any().expect("one ready");
        let (second, _) = set.wait_any().expect("two ready");
        assert_eq!((first, second), (1, 0));
        assert!(set.wait_any().is_none(), "drained set returns None");
        assert!(set.is_drained());
    }

    #[test]
    fn dropped_responder_surfaces_shutdown() {
        let set = TicketSet::new();
        let (token, responder) = set.register();
        drop(responder);
        match set.wait_any() {
            Some((t, Err(ServerError::Shutdown))) => assert_eq!(t, token),
            other => panic!("expected shutdown completion, got {other:?}"),
        }

        let (tx, rx) = mpsc::channel();
        drop(Responder::channel(tx));
        assert!(matches!(rx.recv(), Ok(Err(ServerError::Shutdown))));
    }

    #[test]
    fn defused_responder_releases_the_slot_silently() {
        let set = TicketSet::new();
        let (_token, responder) = set.register();
        responder.defuse();
        assert!(set.is_drained());
        assert!(set.wait_any().is_none(), "no phantom completion");
    }

    #[test]
    fn wait_any_blocks_until_a_cross_thread_completion() {
        let set = Arc::new(TicketSet::new());
        let (_token, responder) = set.register();
        let waiter = {
            let set = Arc::clone(&set);
            std::thread::spawn(move || set.wait_any())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        responder.send(Err(ServerError::Shutdown));
        let got = waiter.join().expect("waiter thread");
        assert!(matches!(got, Some((0, Err(ServerError::Shutdown)))));
    }
}
