//! # pebblyn-service — scheduling as a service
//!
//! A long-running daemon that answers
//! [`ScheduleRequest`](pebblyn_core::ScheduleRequest)s over a
//! hand-rolled wire protocol, fronted by a canonicalizing schedule
//! cache.  The pipeline for one request:
//!
//! ```text
//! frame -> decode -> identity lookup ──hit──────────────────────> frame
//!            |               |
//!        bad-request       miss
//!                            v
//!                  canonicalize -> cache lookup ──hit──> transport -> frame
//!                                       |
//!                                     miss
//!                                       v
//!                             schedulers::api::execute -> insert -> frame
//! ```
//!
//! * [`canon`] — isomorphism-invariant hashing (WL color refinement) and
//!   budget-bounded canonical labeling, so clients that build the same
//!   dataflow in different node orders share cache entries,
//! * [`cache`] — the sharded two-level store: an identity index (the
//!   graph's own labels, no transport — the fast path for resubmitted
//!   graphs) in front of a canonical index whose schedules are kept in
//!   canonical labels and transported back through each requester's
//!   labeling,
//! * [`wire`] — length-prefixed little-endian frames (no serde),
//! * [`service`] — the typed request handler shared by every transport,
//! * [`server`] — bounded-queue worker pool (load shedding as the
//!   backpressure policy) plus stdio and unix-socket serving loops.
//!
//! The daemon solves through the *same* registry executor as the CLI and
//! the sweep engine, and replay validation happens inside the executor
//! before any answer is cached or returned.  An identity hit returns the
//! bytes a fresh solve would; a canonical hit returns a valid schedule of
//! an isomorphic graph, whose cost and moves can differ from a cold solve
//! of the requester's labels.
//!
//! ```
//! use pebblyn_core::ScheduleRequest;
//! use pebblyn_graphs::{WeightScheme, Workload};
//! use pebblyn_service::{GraphSpec, Outcome, Request, Service};
//!
//! let svc = Service::with_default_config();
//! let ask = ScheduleRequest::new(
//!     GraphSpec::Workload {
//!         workload: Workload::Dwt { n: 16, d: 2 },
//!         scheme: WeightScheme::Equal(16),
//!     },
//!     256,
//!     "dwt-opt",
//! );
//! let cold = svc.handle(Request { id: 1, ask: ask.clone(), no_cache: false });
//! let warm = svc.handle(Request { id: 2, ask, no_cache: false });
//! let (Outcome::Ok { cache_hit: false, .. }, Outcome::Ok { cache_hit: true, .. }) =
//!     (cold.outcome, warm.outcome)
//! else {
//!     panic!("second identical request must hit the cache")
//! };
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod canon;
pub mod server;
pub mod service;
pub mod wire;

pub use cache::{CacheHit, CacheStats, ScheduleCache};
pub use canon::{
    canonical_form, canonical_form_with_budget, identity_form, CanonicalForm, IdentityForm,
};
pub use server::{serve_stream, serve_unix, Server, ServerConfig};
pub use service::{GraphSpec, Outcome, RejectKind, Request, Response, Service, ServiceConfig};
