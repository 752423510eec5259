//! # `mpipu-serve` — sweep-as-a-service over the batched backend
//!
//! A long-running JSONL-over-TCP daemon that accepts design-point and
//! sweep queries from many concurrent clients and streams progress plus
//! incremental Pareto updates back as JSON lines. One request per line
//! in, a stream of event lines out, always terminated by a `done` line
//! — the sweep progress events reuse the exact wire form of the suite's
//! `--events` stream ([`mpipu_bench::sweep_wire`]), so a `suite
//! --events` log and a serve response are the same dialect.
//!
//! The stack, bottom-up:
//!
//! * [`request`] — the typed request schema: a strict parser
//!   ([`request::Request::parse`]) and a canonical emitter, related by
//!   `parse(emit(r)) == r`, both through the crate's one field codec.
//! * [`fair`] — fair-share chunk scheduling: one [`fair::FairShare`]
//!   pool rations the engine's chunk evaluations evenly across every
//!   sweep currently running, so a large request cannot starve small
//!   ones.
//! * [`service`] — the [`service::Service`] layer between the request
//!   schema and [`mpipu_explore::SweepEngine`]: one process-wide
//!   memoized batched-analytic backend shared by every request,
//!   admission control (bounded in-flight sweeps), per-request budgets
//!   (max points, wall-clock deadline), and cooperative cancellation.
//! * [`server`] — the transport: a hand-rolled non-blocking listener
//!   and a poll/queue worker pool (no async runtime), with cancellation
//!   wired to client disconnects and a graceful drain on shutdown.
//! * [`client`] / [`presets`] — a line-oriented client and canned
//!   requests, shared by the `sweepctl` CLI, the examples, and the
//!   end-to-end tests.
//!
//! Run the daemon with `cargo run --release -p mpipu-serve --bin serve`
//! and poke it with the `sweepctl` binary (`eval`, `sweep`, `verify`,
//! `bench`, …); see the README's "Run the server" section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod codec;
pub mod fair;
pub mod journal;
pub mod presets;
pub mod request;
pub mod server;
pub mod service;
pub mod shard;
pub mod wire;

pub use client::{Client, Response};
pub use journal::{JournalHeader, JournalWriter, UnitRecord};
pub use request::{Request, SweepReq, WireError};
pub use server::{Server, ServerConfig};
pub use service::{Limits, Service};
pub use shard::{run_sharded, worker_main, ShardConfig};
