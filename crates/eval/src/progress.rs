//! Progress reporting for the evaluation binaries, routed through the
//! observability layer.
//!
//! Every serving-stack binary (`load_sim`, `warm_start`, `chaos`,
//! `scaling_sweep`) calls [`init_tracing`] first thing in
//! `main`: when `LRM_TRACE=<path>` is set, a [`lrm_obs::JsonLines`]
//! subscriber writes the full request-lifecycle trace — plus the
//! binary's own `progress` events — to that file, so one env var turns
//! any benchmark run into a trace capture. Without it, nothing is
//! installed and the serving stack keeps its one-relaxed-load disabled
//! fast path.
//!
//! [`info`] is a progress note: an obs `progress` event while a
//! subscriber is live (so it lands in the trace, ordered against the
//! spans it narrates), stderr otherwise. [`fail`] is a refusal or a
//! failed check: always on stderr — [`crate::report::Verdict::finish`]
//! prints each failed check as `FAIL: <check>` through it — and
//! mirrored into the trace when one is being written.

use std::fs::File;
use std::sync::Arc;

/// Installs a JSON-lines subscriber writing to `$LRM_TRACE` when that
/// variable names a creatable path. Returns whether tracing is on.
pub fn init_tracing(bin: &'static str) -> bool {
    let Ok(path) = std::env::var("LRM_TRACE") else {
        return false;
    };
    if path.is_empty() {
        return false;
    }
    match File::create(&path) {
        Ok(file) => {
            // The subscriber registry is a static that is never dropped,
            // so a BufWriter here would lose its tail at process exit —
            // write each record straight to the file instead (JsonLines
            // emits one write_all per line).
            lrm_obs::install(Arc::new(lrm_obs::JsonLines::new(file)));
            lrm_obs::event!("progress", bin = bin, msg = format!("tracing to {path}"));
            true
        }
        Err(e) => {
            eprintln!("{bin}: cannot create LRM_TRACE={path}: {e}");
            false
        }
    }
}

/// A progress note: into the trace when a subscriber is installed,
/// stderr otherwise. Usually invoked through [`crate::info!`].
pub fn info(bin: &'static str, message: String) {
    if lrm_obs::enabled() {
        lrm_obs::event!("progress", bin = bin, msg = message);
    } else {
        eprintln!("{message}");
    }
}

/// A failed check or hard error: always stderr (the message is the
/// CI-facing diagnostic), mirrored into the trace when one is live.
/// Usually invoked through [`crate::fail!`].
pub fn fail(bin: &'static str, message: String) {
    eprintln!("{message}");
    lrm_obs::event!("progress", bin = bin, level = "fail", msg = message);
}

/// `eprintln!`-compatible progress note routed through
/// [`progress::info`](info): format arguments, then trace-or-stderr.
#[macro_export]
macro_rules! info {
    ($bin:expr, $($arg:tt)*) => {{
        #[allow(clippy::useless_format)]
        let msg = ::std::format!($($arg)*);
        $crate::progress::info($bin, msg);
    }};
}

/// `eprintln!`-compatible failure report routed through
/// [`progress::fail`](fail): format arguments, print to stderr, mirror
/// into the trace.
#[macro_export]
macro_rules! fail {
    ($bin:expr, $($arg:tt)*) => {{
        #[allow(clippy::useless_format)]
        let msg = ::std::format!($($arg)*);
        $crate::progress::fail($bin, msg);
    }};
}
