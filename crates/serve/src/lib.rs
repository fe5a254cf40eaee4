//! # temu-serve — the caching emulation job server
//!
//! Turns the workspace's experiment engine
//! ([`Scenario`](temu_framework::Scenario) →
//! [`Campaign`](temu_framework::Campaign) →
//! [`Sweep`](temu_framework::Sweep)) into shared, network-reachable
//! infrastructure: a `std`-only TCP server speaking newline-delimited
//! JSON, executing submitted [`SweepSpec`](temu_framework::SweepSpec)s on
//! a bounded job queue against one process-wide
//! [`ResultCache`](temu_framework::ResultCache), and streaming per-point
//! progress back to the submitter.
//!
//! Every client of the cache — a script resubmitting an overlapping
//! design-space grid, a second connection watching a long job, a restart
//! reloading the on-disk store — sees the same content-keyed results: a
//! scenario configuration is only ever emulated once per store.
//!
//! ```no_run
//! use temu_serve::{Client, ServeConfig, Server};
//! use temu_framework::SweepSpec;
//!
//! let handle = Server::spawn(ServeConfig {
//!     addr: String::from("127.0.0.1:0"),
//!     ..ServeConfig::default()
//! }).unwrap();
//! let mut client = Client::connect(&handle.addr().to_string()).unwrap();
//! let spec = SweepSpec::named("smoke").unwrap();
//! let outcome = client.submit(&spec, true, |event| println!("{event}")).unwrap();
//! assert!(outcome.done.unwrap().ok);
//! handle.shutdown();
//! ```
//!
//! The two bins wrap exactly this: `temu-serve` hosts [`Server::run`];
//! `temu-client` drives [`Client`] (submit a spec file or named preset,
//! pretty-print the streamed progress, exit nonzero on failed points).
//! See [`protocol`] for the wire format.

//! # Fault tolerance
//!
//! The server is crash-safe: job transitions are journaled
//! ([`journal`]) and replayed on restart, every executed point is flushed
//! to the result store as soon as it is banked — and, with
//! `--window-checkpoint N`, each running point's serialized run state is
//! appended to the same journal every N sampling windows, so a `SIGKILL`
//! mid-point resumes from the last window boundary instead of re-running
//! the point. The journal compacts itself when the server opens it, to
//! the records of the jobs still in flight. Accepted
//! connections carry socket deadlines ([`IO_TIMEOUT`]) and bounded frames
//! ([`protocol::read_frame`]), the client retries transient failures with
//! exponential backoff ([`RetryPolicy`]), and a [`fault`]-injection
//! harness (`TEMU_FAULT`) drives the chaos tests that prove all of it.

pub mod cli;
pub mod client;
pub mod fault;
pub mod journal;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, DoneSummary, RetryPolicy, Submission};
pub use fault::FaultPlan;
pub use journal::{Journal, JournalReplay, RecoveredJob};
pub use protocol::{
    coded_error_line, error_line, prepare_stream, read_frame, spec_from_document, write_frame,
    ProtocolError, Request, ServerHandle, ADDR_ENV, DEFAULT_ADDR, IO_TIMEOUT, MAX_FRAME_LEN,
};
pub use server::{ServeConfig, Server, DEFAULT_HISTORY_LIMIT};
