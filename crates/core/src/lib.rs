//! # smartsock
//!
//! The Smart TCP socket client library — the paper's primary contribution —
//! plus the deployment builder that assembles the whole system (probes,
//! monitors, transmitter/receiver, wizard) onto a simulated testbed.
//!
//! ## The idea (paper §1)
//!
//! Conventional sockets force distributed applications to name their
//! servers (`connect("sagit", ...)`) and to open each socket separately.
//! The Smart socket library inverts this: the application states *what
//! kind of servers* it needs —
//!
//! ```text
//! host_cpu_free >= 0.9
//! host_memory_free > 100*1024*1024
//! monitor_network_delay < 20
//! ```
//!
//! — asks for `n` of them, and receives back a group of connected sockets
//! to the best currently-available machines (Fig 1.2/1.3). Server health,
//! load and path quality come from the probe/monitor/wizard pipeline, not
//! from static configuration.
//!
//! ## Crate map
//!
//! * [`client`] — [`SmartClient`]: build a request, send it to the wizard,
//!   match the reply by sequence number, connect to the returned servers
//!   (§3.6.2), with timeout/retry and shortfall policy.
//! * [`baseline`] — the evaluation's comparison selector: uniform random
//!   (the paper's "Random" column).
//! * [`deploy`] — [`Testbed`]: one call wires the Fig 5.1 network, the
//!   Table 5.1 machines and every daemon of Fig 3.1, in centralized or
//!   distributed mode.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod baseline;
pub mod client;
pub mod deploy;
pub mod group;

pub use baseline::RandomSelector;
pub use client::{ClientError, RequestSpec, SmartClient, SmartSock};
pub use deploy::{Testbed, TestbedBuilder};
pub use group::{RepairGuard, RepairOutcome, SockGroup};

// Re-export the system's building blocks so downstream users need only
// this facade crate.
pub use smartsock_faults as faults;
pub use smartsock_hostsim as hostsim;
pub use smartsock_lang as lang;
pub use smartsock_monitor as monitor;
pub use smartsock_net as net;
pub use smartsock_probe as probe;
pub use smartsock_proto as proto;
pub use smartsock_sim as sim;
pub use smartsock_wire as wire;
pub use smartsock_wizard as wizard;
