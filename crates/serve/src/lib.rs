//! Fault-tolerant concurrent tuning service.
//!
//! `varitune-serve` turns the end-to-end flow of `varitune-core` into a
//! long-lived daemon: a `std::net::TcpListener` speaking a 4-byte
//! length-prefixed JSON protocol (the [`varitune_trace::json`] subset —
//! objects, arrays, strings, unsigned integers) for tune / STA / signoff /
//! optimize jobs. No runtime dependencies beyond the workspace: the server
//! is plain threads, mutexes and condvars.
//!
//! Fault domains, from the outside in:
//!
//! * **Connection** — each accepted socket gets a thread; malformed frames
//!   (truncated or oversized length prefixes, invalid UTF-8, mid-frame
//!   disconnects) poison at most that one connection, never the process.
//! * **Queue** — admission is bounded ([`ServeConfig::queue_depth`]); at
//!   capacity the server *sheds* with an `overloaded` error carrying
//!   `retry_after_ms`, and the bundled [`client`] backs off with
//!   seeded-deterministic exponential jitter.
//! * **Job** — every worker runs each job under
//!   [`std::panic::catch_unwind`] with a scoped per-job trace recorder
//!   ([`varitune_trace::capture`]) and a cooperative
//!   [`varitune_variation::CancelToken`] deadline. A panicking job yields a
//!   structured `panic` error; the worker survives. A deadline fires at
//!   flow checkpoints and yields a `deadline` error.
//! * **Cache** — content-hash-keyed single-flight caches ([`cache`],
//!   [`registry`]) memoize screened libraries, prepared flows and baseline
//!   runs as owned `Arc`s, evicting the least recently used entry at each
//!   layer's capacity. Strict-screening failures are remembered as
//!   *negative* entries, structurally separate from positive ones, so a
//!   quarantined library can never poison the positive cache.
//!
//! Responses are deterministic functions of (library content hash, seed,
//! job parameters): they carry no timestamps, cache state or scheduling
//! artifacts, so a rerun — at any worker count — produces byte-identical
//! payloads.

// Panics must not be reachable from request input in this crate; every
// non-test `unwrap`/`expect` needs an `#[allow]` with an invariant note.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod hash;
pub mod protocol;
pub mod registry;
pub mod server;

pub use cache::{CacheStats, Outcome, SfCache};
pub use client::{Client, RetryPolicy};
pub use hash::{fnv1a64, xxh64};
pub use protocol::{
    read_frame, write_frame, ErrorCode, FrameError, JobError, JobKind, Request, MAX_FRAME,
};
pub use registry::{LibEntry, Registry};
pub use server::{DrainReport, ServeConfig, Server, StatsSnapshot};
