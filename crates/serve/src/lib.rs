//! `paradigm-serve`: a concurrent scheduling service over the PARADIGM
//! compile pipeline.
//!
//! The pipeline solve (convex allocation → PSA schedule) is pure and
//! deterministic: one `(MDG, machine, processor count, policy)` request
//! always produces the same allocation, schedule, and predicted Φ. That
//! makes it an ideal memoization target, and this crate builds the
//! serving layer around that observation:
//!
//! * [`cache`] — a sharded, LRU-bounded, content-addressed result cache
//!   keyed by the canonical structural fingerprint
//!   ([`paradigm_core::solve_fingerprint`]), with **single-flight**
//!   deduplication: concurrent identical requests collapse into one
//!   solve.
//! * [`service`] — a worker thread pool draining a bounded job queue
//!   with backpressure and per-request queueing deadlines;
//!   [`Service::submit`] is the synchronous in-process API.
//! * [`protocol`] — the line-delimited JSON request/response protocol
//!   (ops `solve`, `stats`, `ping`, `shutdown`, plus `admm_block` on
//!   worker nodes), built on the hand-rolled [`json`] reader/writer —
//!   the crate stays std-only.
//! * [`worker`] — the distributed-ADMM worker role: wire codecs for
//!   consensus-ADMM block subproblems and [`TcpBlockBackend`], the
//!   coordinator-side backend that fans x-updates out to
//!   `paradigm serve --worker` nodes.
//! * [`server`] — the `std::net::TcpListener` front end with graceful
//!   (SIGINT-safe on unix) drain.
//! * [`metrics`] — request/hit/miss/dedup counters and a log₂ latency
//!   histogram, served live via the `stats` op and dumped on shutdown.
//!
//! The resilience layer (this crate's failure model is spelled out in
//! DESIGN.md §9):
//!
//! * [`chaos`] — seeded, deterministic fault injection ([`FaultPlan`]):
//!   worker panics, slow solves, queue stalls, dropped connections,
//!   truncated frames.
//! * [`breaker`] — a sliding-window failure-rate circuit breaker
//!   guarding the primary solve path.
//! * [`client`] — a protocol client with exponential-backoff retry for
//!   retryable failures (shed requests, transport faults).

pub mod audit;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod client;
pub use paradigm_mdg::json;
pub mod metrics;
pub mod protocol;
#[cfg(test)]
mod race_proptests;
pub mod race_suites;
pub mod server;
pub mod service;
pub mod worker;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::{Outcome, ShardedCache, SHARDS};
pub use chaos::{Chaos, FaultPlan};
pub use client::{Client, ClientError, RetryPolicy};
pub use json::{parse as parse_json, Json, JsonError};
pub use metrics::{Metrics, MetricsSnapshot, HIST_BUCKETS};
pub use protocol::{handle_line, parse_request, Request};
pub use server::{Server, ServerConfig};
pub use service::{AdmmFleetSpec, ServeConfig, ServeError, Service, SolveResponse};
pub use worker::{FleetConfig, FleetError, TcpBlockBackend};
