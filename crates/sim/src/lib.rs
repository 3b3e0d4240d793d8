//! # smartsock-sim
//!
//! Deterministic discrete-event simulation (DES) engine underlying the
//! `smartsock` reproduction of *A Smart TCP Socket for Distributed
//! Computing* (Shao Tao, ICPP 2005).
//!
//! The paper's evaluation ran on eleven physical Linux machines across six
//! network segments. This crate provides the substitute substrate: a
//! single-threaded, seedable event scheduler with nanosecond-resolution
//! virtual time. Every daemon of the paper's system (server probes,
//! monitors, transmitter/receiver, the wizard, client applications) runs as
//! a set of scheduled events against this clock, which makes every
//! experiment in the benchmark harness exactly reproducible from a `u64`
//! seed.
//!
//! ## Design
//!
//! * [`SimTime`] / [`SimDuration`] — integer nanosecond timestamps. Integer
//!   time avoids floating-point drift in long simulations and gives a total
//!   order for the event queue.
//! * [`Scheduler`] — a binary-heap event queue. Events are boxed `FnOnce`
//!   closures receiving `&mut Scheduler`, so handlers can schedule follow-up
//!   events. Ties in time break on a monotone sequence number, making runs
//!   deterministic regardless of heap internals.
//! * [`Scheduler::telemetry`] — the deterministic observability sink
//!   (spans, events, counters, gauges, histograms) from
//!   `smartsock-telemetry`, clock-synced to virtual time. The harness uses
//!   it to account bytes/messages per component (Table 5.2 of the paper)
//!   and to export JSONL traces.
//! * [`rng`] — helpers for deriving independent, stable RNG streams from a
//!   single experiment seed.
//!
//! `Telemetry` counters (shared through `Scheduler::telemetry`) are the
//! single source of truth for every count an experiment reports.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod rng;
pub mod scheduler;
pub mod time;

pub use scheduler::{EventId, Scheduler};
pub use smartsock_telemetry::{SpanId, Telemetry};
pub use time::{SimDuration, SimTime};
