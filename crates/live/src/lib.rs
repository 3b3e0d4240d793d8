//! # smartsock-live
//!
//! The real-socket backend of the smartsock control plane: one protocol
//! stack, two engines.
//!
//! Everything protocol-shaped — wire formats, the monitor+wizard demux
//! and matching core, probe counter differentiation, the client state
//! machine — lives in backend-agnostic crates (`smartsock-proto`,
//! `smartsock-wizard::{engine, client}`, `smartsock-probe::engine`) behind the
//! [`Transport`](smartsock_proto::Transport) seam. The simulator drives
//! those engines from a virtual-time scheduler; this crate drives the
//! *same* engines from OS threads over real UDP on localhost:
//!
//! * [`LiveWizard`] — the combined monitor+wizard daemon thread
//!   (§4.3's co-hosted deployment), ingesting §3.2.1 ASCII reports and
//!   answering user requests on one socket, with the same telemetry
//!   names the simulated daemons emit;
//! * [`LiveProbe`] — the server probe, sampling a real `/proc` (or a
//!   fixture root) through the same parsers and differentiation engine;
//! * [`LiveSock`] — the §3.6.2 client: the engine the simulated client
//!   drives, typestate-shaped so protocol misuse is a compile error;
//! * [`FaultShim`] — a deterministic datagram-loss relay, the live twin
//!   of `smartsock-faults`' loss injection, for retry testing;
//! * [`Clock`] — wall or manual time, so time-dependent scenarios run
//!   under test control.
//!
//! The interop conformance suite (`tests/interop.rs` at the workspace
//! root) holds the two backends to byte-identical frames and identical
//! protocol-visible outcomes.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod client;
pub mod clock;
pub mod probe;
pub mod shim;
pub mod transport;
pub mod wizard;

pub use client::{live_request, query_stats, send_live_report, LiveSock, RequestError};
pub use clock::{Clock, ManualHandle};
pub use probe::{sample_proc, LiveProbe};
pub use shim::{FaultShim, ShimPolicy};
pub use transport::{endpoint_of, sockaddr_of, UdpTransport};
pub use wizard::{LiveWizard, WizardStats};
