//! `vpd-serve` — a concurrent analysis service in front of the
//! vertical-power-delivery engines.
//!
//! Every engine in this workspace (loss breakdowns, current sharing,
//! droop, Monte-Carlo, fault sweeps, impedance profiles) was made cheap
//! to *re-run* by compiled plans and warm-started solvers; this crate
//! adds the layer that amortizes those plans **across requests**, the
//! way an inference server fronts compiled model artifacts:
//!
//! * [`proto`] — a line-delimited JSON request/response schema with
//!   ids, deadlines, protocol versioning, and typed error codes, all
//!   driven by one declarative per-kind field-spec table (no serde;
//!   parsing is `vpd_report::Json::parse`).
//! * [`cache`] — the scenario cache: per-worker LRU shards of compiled
//!   solver state with steal-on-miss, checked out for use so no lock
//!   spans a solve. [`ScenarioKey::from_work`] is the one place a
//!   request maps to its cache identity.
//! * [`pool`] — a bounded-queue worker pool with typed backpressure
//!   and two shutdown flavors (finish everything vs. drain).
//! * [`engine`] — the dispatcher mapping requests onto engines over
//!   the cache.
//! * [`server`] — stdio and **multiplexed** TCP transports (one
//!   event-loop thread over nonblocking sockets, so idle connections
//!   cost buffers, not threads), deadline-aware admission control, and
//!   the `vpd call` client.
//!
//! # Determinism contract
//!
//! A request's `result` is bitwise-identical whether it hit the cache
//! or compiled cold, with one worker or many, and matches the one-shot
//! `vpd --format json` invocation byte for byte. Cache hits change the
//! `cached` metadata flag and the latency — never the result.
//!
//! ```
//! use std::io::Cursor;
//! use vpd_serve::{serve_lines, Ended, ServeConfig};
//!
//! let input = "{\"id\":1,\"kind\":\"sharing\",\"params\":{\"modules\":12}}\n";
//! let (out, ended) =
//!     serve_lines(Cursor::new(input), Vec::new(), &ServeConfig::default()).unwrap();
//! assert_eq!(ended, Ended::Eof);
//! let text = String::from_utf8(out).unwrap();
//! assert!(text.contains("\"ok\":true"));
//! assert!(text.contains("\"version\":2"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod pool;
pub mod proto;
pub mod server;

pub use cache::{CacheStats, ScenarioCache, ScenarioKey};
pub use engine::{
    Dispatcher, FAULT_TRANSIENT_DT_NS, FAULT_TRANSIENT_SIM_US, FAULT_TRANSIENT_WINDOW_US,
};
pub use pool::{SubmitError, WorkerPool};
pub use proto::{
    kind_catalog, ErrorCode, Request, RequestError, Response, ResponseBody, Work, PROTOCOL_VERSION,
};
pub use server::{call, serve_lines, Ended, ServeConfig, Server};
