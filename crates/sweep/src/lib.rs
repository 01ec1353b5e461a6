//! # parcomm-sweep — deterministic parallel experiment engine
//!
//! Every result this workspace produces — the paper's Fig. 2–11
//! reproductions, the ablation grids, `parcomm-testkit` seed sweeps, and
//! the faultsim chaos campaigns — is a grid of fully independent
//! deterministic simulations. This crate fans those cells out across
//! cores **without sacrificing bit-for-bit reproducibility**, using only
//! first-party code (no rayon/crossbeam — the workspace is hermetic):
//!
//! - an internal work-stealing thread pool over `Mutex<VecDeque>`
//!   deques; one panicking cell fails that cell, not the campaign.
//! - [`SweepSpec`]: a campaign as an ordered grid of keyed cells, each an
//!   independent closure. [`SweepSpec::run`] aggregates by cell index in
//!   insertion order, so output is **byte-identical regardless of thread
//!   count or completion order** (each cell is itself a deterministic
//!   simulation — `(program, seed)` fixes its result, and nothing is
//!   shared between cells).
//! - [`JsonlSink`]: a streaming JSON-lines result sink, flushed per cell,
//!   with resume — [`SweepSpec::run_with_sink`] re-runs only the cells a
//!   killed campaign had not yet completed.
//!
//! Thread count selection is shared by every binary via [`threads`]:
//! `--threads N` flag, then `PARCOMM_THREADS`, then available
//! parallelism. The command-line helpers it uses ([`arg_flag`],
//! [`arg_value`], [`arg_or_env`]) are the workspace's one argument parser.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod pool;
pub mod sink;
pub mod spec;

pub use sink::{CellValue, JsonlSink};
pub use spec::{CellError, SweepResults, SweepSpec};

/// True when `flag` appears on the command line.
pub fn arg_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Value of `flag` on the command line, given as `flag value` or
/// `flag=value`; the first occurrence wins.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

/// [`arg_value`] for `flag`, else the environment variable `var`.
pub fn arg_or_env(flag: &str, var: &str) -> Option<String> {
    arg_value(flag).or_else(|| std::env::var(var).ok())
}

/// Worker-thread count for a sweep-running binary: the `--threads N` (or
/// `--threads=N`) command-line flag if present, else the
/// `PARCOMM_THREADS` environment variable, else
/// [`std::thread::available_parallelism`]. Always at least 1.
pub fn threads() -> usize {
    let parse = |v: String| v.parse::<usize>().ok();
    let explicit = arg_value("--threads").and_then(parse);
    match explicit.or_else(|| std::env::var("PARCOMM_THREADS").ok().and_then(parse)) {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}
