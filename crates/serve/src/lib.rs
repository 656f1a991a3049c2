//! # kfuse-serve — planning as a service (`kfused`)
//!
//! A kernel-fusion plan is expensive to search for and cheap to reuse:
//! the persistent plan cache of `kfuse-search` already amortizes search
//! across *processes*. This crate amortizes it across *clients* — a
//! long-running daemon that accepts fusion requests as JSONL (one JSON
//! request per line) over a Unix domain socket or stdin, canonicalizes
//! each program to its order-insensitive fingerprint, and dispatches to
//! a pool of worker solvers sharing the persistent [`PlanCache`]:
//!
//! * **exact hit** — the fingerprint matches a cached plan; it is
//!   re-verified and served with zero search. The daemon keeps the
//!   planning context of such a program, keyed by its exact bytes, so a
//!   byte-identical repeat is not parsed or prepared again — only
//!   re-verified;
//! * **anything else** — a cold solve under the request's `budget_ms`
//!   deadline, the same one an uncached daemon runs, whose result lands
//!   in the cache for everyone.
//!
//! The queue is **bounded**: when it is full, new requests get an
//! immediate structured `queue_full` rejection with a `retry_after_ms`
//! hint (429-style backpressure) instead of unbounded buffering.
//! Shutdown is a **graceful drain**: in-flight and queued requests
//! finish, caches are flushed (the JSONL tail newline-terminated), and
//! only then do workers stop. With `--workers 1` the daemon is
//! bit-for-bit reproducible: responses carry no wall-clock fields and a
//! single worker processes FIFO, so the same request stream yields the
//! same byte stream.
//!
//! The wire protocol — request/response schemas, the error-code table,
//! backpressure and drain semantics, and a worked session you can drive
//! with `nc` or Python — is documented in `SERVING.md` at the repository
//! root. The architecture rationale is DESIGN.md §17.
//!
//! ## In-process use
//!
//! The daemon embeds: [`Daemon::start`] spawns the worker pool and
//! [`Daemon::client`] yields a [`LocalClient`] whose requests take the
//! same admission path as socket clients.
//!
//! ```
//! use kfuse_serve::{Daemon, ServeConfig};
//!
//! let daemon = Daemon::start(ServeConfig::default());
//! let client = daemon.client();
//! let pong = client.request(r#"{"id":"p1","op":"ping"}"#);
//! assert!(pong.contains(r#""ok":true"#));
//! let reply = client.request(r#"{"id":"s1","op":"solve","example":"quickstart"}"#);
//! assert!(reply.contains(r#""outcome":"uncached""#));
//! daemon.shutdown();
//! ```
//!
//! [`PlanCache`]: kfuse_search::PlanCache

#![warn(missing_docs)]

mod memo;
pub mod protocol;
mod server;

pub use memo::CONTEXT_MEMO_BYTES;
pub use protocol::{ErrorCode, Request, PROTOCOL_VERSION};
pub use server::{serve_stdin, Daemon, LocalClient, ServeConfig, MAX_LINE_BYTES};

#[cfg(unix)]
pub use server::serve_unix;
