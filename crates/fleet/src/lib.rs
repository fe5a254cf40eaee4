//! # temu-fleet — a content-key-sharding router over `temu-serve`
//!
//! Turns N independent `temu-serve` processes into one fleet behind a
//! single address: `temu-router` speaks the exact `temu-serve` wire
//! protocol to *unmodified* clients and routes every submission to a
//! member chosen by **rendezvous-hashing the sweep's content key** —
//! so an identical resubmission, from any client, lands on the member
//! that already holds the cached result and completes without executing
//! a single scenario.
//!
//! ```text
//!                      ┌──────────────┐
//!   temu-client ──────▶│  temu-router │── rendezvous(content_key) ──┐
//!   (unmodified)       │  (stateless  │                             ▼
//!                      │   routes +   │──▶ member A (temu-serve, store)
//!                      │   health)    │──▶ member B (temu-serve, store)
//!                      └──────────────┘──▶ member C (temu-serve, store)
//! ```
//!
//! # Why whole-sweep sharding (not per-point)
//!
//! The sweep [`SweepSpec::content_key`](temu_framework::SweepSpec) folds
//! the content keys of every expanded grid point — name and thread count
//! excluded — so two specs with the same physics shard identically. The
//! router shards the *whole sweep* by that one key rather than splitting
//! points across members because the submission is the protocol's unit
//! of retry and idempotency: the client resubmits a sweep, not points,
//! and the resubmission must reach the one member whose store already
//! has the results. Whole-sweep sharding also keeps `watch` a
//! single-source event stream (one member, one ordered progress stream,
//! reusing the server's deadline-lifted streaming) instead of a merge of
//! partial streams, and keeps the router stateless enough to restart
//! freely. The cost — one sweep never spans members — is the right
//! trade for a cache-first fleet; point-level spreading is already
//! provided *inside* each member by the campaign's worker threads.
//!
//! Failover is safe for the same reason sharding works: members memoize
//! results by content key, so replaying a submission on the next member
//! in rendezvous order re-executes only what the dead member never
//! synced. See [`router`] for the exact failover semantics and
//! [`member`] for the hashing.
//!
//! The two bins: `temu-router` (this crate) and `temu-member` — the
//! latter is byte-for-byte the `temu-serve` CLI
//! ([`temu_serve::cli::serve_main`]) under a name this crate's
//! integration tests can locate via `CARGO_BIN_EXE_temu-member`.

pub mod member;
pub mod router;

pub use member::{MemberHealth, MemberTable};
pub use router::{Router, RouterConfig, RouterHandle, DEFAULT_ROUTER_ADDR};
