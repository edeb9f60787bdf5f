//! # Network service tier
//!
//! Turns any [`QualityBackend`](api::QualityBackend) into a many-client
//! TCP service, in two layers:
//!
//! * [`ConcurrentEngine`] — the concurrency layer. One writer thread
//!   owns the backend and applies mutating requests in arrival order
//!   through the serial [`api::wire::dispatch`]; after each coalesced
//!   batch it captures an immutable [`EpochState`] (ready-made detect /
//!   audit / report / len / capabilities answers) and publishes it by
//!   swapping the `Arc` in a shared `Mutex<Arc<EpochState>>`. Readers
//!   ([`EngineHandle`], cloneable and uncapped) serve every read-only
//!   request from the latest epoch: the mutex is held only for an
//!   `Arc::clone`, so a read never waits on capture, apply or the WAL.
//!   Publishing happens once per write batch and both critical sections
//!   are a refcount bump, so lock-free reclamation would buy nothing
//!   measurable (an A/B on the served read path was within noise).
//!   Writes ride a bounded queue with per-request reply channels;
//!   replies follow the covering publish, so each client reads its own
//!   writes.
//! * [`NetServer`] / [`Client`] — the transport layer. `std::net` only
//!   (no async runtime): a nonblocking accept loop feeds a worker pool;
//!   each connection speaks newline-delimited [`api::dispatch_line`]
//!   framing with pipelining, explicit backpressure errors, idle
//!   timeouts, and oversize resynchronization. [`NetServer::shutdown`]
//!   stops accepting, drains the writer queue, and hands the backend
//!   back with every accepted write applied.
//!
//! The split between read-only and mutating requests lives on the
//! protocol itself — [`api::Request::is_read_only`] — so the engine,
//! the transport, and the telemetry agree on it by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod server;

pub use client::Client;
pub use engine::{ConcurrentEngine, EngineConfig, EngineHandle, EpochState};
pub use server::{NetConfig, NetServer};
