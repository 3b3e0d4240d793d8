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
//! * [`Scheduler`] — an event queue, one ordered map keyed by time and then
//!   a monotone sequence number, so ties run FIFO and runs are
//!   deterministic. Events are boxed `FnOnce` closures receiving
//!   `&mut Scheduler`, so handlers can schedule follow-up events;
//!   cancelling one removes it from the queue.
//! * [`Scheduler::telemetry`] — the deterministic observability sink
//!   (spans, events, counters, gauges, histograms) from
//!   `smartsock-telemetry`, clock-synced to virtual time. The harness uses
//!   it to account bytes/messages per component (Table 5.2 of the paper)
//!   and to export JSONL traces.
//! * [`rng`] — the workspace's one generator, `SimRng` (SplitMix64), and
//!   the derivation of independent, stable streams from a single
//!   experiment seed.
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
