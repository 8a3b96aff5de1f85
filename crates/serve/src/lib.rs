//! # websyn-serve
//!
//! The sharded serving front end for the websyn matcher — the layer
//! between [`websyn_core::EntityMatcher`] and the outside world. The
//! paper's fuzzy segmenter is meant to sit on a live web-query path;
//! this crate puts it there, over HTTP/1.1:
//!
//! - [`Engine`] — a live dictionary ([`websyn_core::DictHandle`])
//!   behind a [`ShardedCache`] of pre-rendered results ([`Rendered`]:
//!   spans + the serialized response). Dictionary updates arrive as
//!   deltas ([`Engine::apply_delta`], wired to
//!   `POST /admin/dict/delta`) and are served immediately — no
//!   restart, no base recompile, and the result cache invalidates
//!   selectively against the delta's footprint instead of flushing
//!   wholesale. Wholesale artifact swaps go through
//!   [`DictHandle::replace_base`] on [`Engine::dict`]. Built with
//!   [`Engine::builder_with_dict`] (or [`Engine::builder`] from a bare
//!   matcher).
//! - [`Server`] — a TCP front end with pipelining, in-order responses,
//!   result-cache hits answered on the connection thread, misses
//!   resolved one at a time by a worker pool, bounded queueing with
//!   explicit backpressure, and graceful shutdown. Tuned
//!   with [`ServerConfig::builder`].
//! - [`http`] — the std-only HTTP/1.1 wire format: request framing
//!   ([`HttpProtocol`], a [`Protocol`] handing out per-connection
//!   [`RequestParser`]s that yield [`Request`]s), response rendering
//!   and error/backpressure mapping ([`Reject`]), plus the minimal
//!   client ([`http::read_response`]) the router and tests use.
//! - [`Cluster`] / [`Router`] — multi-process serving: a worker fleet
//!   of independent engines behind a hash-partitioning HTTP router
//!   ([`router`]), supervised with health probes, backoff restarts and
//!   zero-downtime rolling rebuilds ([`cluster`]). The router fans
//!   dictionary deltas out to the whole fleet, and
//!   [`Cluster::rolling_restart_with_dict`] rolls every worker onto a
//!   new dictionary artifact with zero downtime.
//! - [`metrics`] — the observability layer (built on [`websyn_obs`]):
//!   per-stage pipeline histograms ([`ServeMetrics`]), the bounded
//!   slow-query trace ([`SlowEntry`], `GET /debug/slow`), per-class
//!   reject counters, and the Prometheus text exposition behind
//!   `GET /metrics` — which also surfaces the matcher's internal
//!   telemetry ([`websyn_core::matcher_telemetry`]) and the distance
//!   kernel dispatch split ([`websyn_text::kernel_dispatch_stats`]).
//!
//! ## A complete round trip
//!
//! ```
//! use std::io::{Read, Write};
//! use std::net::TcpStream;
//! use std::sync::Arc;
//! use websyn_common::EntityId;
//! use websyn_core::{EntityMatcher, FuzzyConfig};
//! use websyn_serve::{Engine, Server, ServerConfig};
//!
//! let matcher = EntityMatcher::from_pairs(vec![("indy 4", EntityId::new(7))])
//!     .with_fuzzy(FuzzyConfig::default());
//! let engine = Arc::new(Engine::builder(Arc::new(matcher)).build());
//! let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut conn = TcpStream::connect(server.addr()).unwrap();
//! write!(
//!     conn,
//!     "GET /match?q=Indy+4+near+San+Fran HTTP/1.1\r\nConnection: close\r\n\r\n"
//! )
//! .unwrap();
//! let mut response = String::new();
//! conn.read_to_string(&mut response).unwrap();
//! assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
//! assert!(response.ends_with(
//!     r#"{"spans":[{"start":0,"end":2,"entity":7,"distance":0,"surface":"indy 4"}]}"#
//! ));
//! server.shutdown();
//! ```

// The wire format is a public module: its grammar (and serializers)
// are part of the crate's contract with clients. So are the cluster
// modules — any binary that links this crate can host worker
// processes and drive fleets through them.
pub mod cluster;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod router;

// Machinery modules stay private; their deliberate surface is the
// curated re-export list below.
mod cache;
mod engine;
mod queue;
mod server;

pub use cache::{CacheStats, ShardedCache};
pub use cluster::{run_worker_if_flagged, Cluster, ClusterConfig, WORKER_SENTINEL};
pub use engine::{Engine, EngineBuilder, EngineConfig, Probe, Rendered, StageTiming};
pub use http::HttpProtocol;
pub use metrics::{ServeMetrics, SlowEntry};
pub use protocol::{Protocol, Reject, Request, RequestParser};
pub use router::{Ring, Router, RouterConfig};
pub use server::{Server, ServerConfig, ServerConfigBuilder, ServerHandle};
// The dictionary-lifecycle vocabulary Engine speaks, re-exported so
// serving code needs no separate websyn_core import for it.
pub use websyn_core::{DictDelta, DictHandle, DictStats, Stamp};
