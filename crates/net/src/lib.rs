//! # smartsock-net
//!
//! Packet-level network simulator standing in for the paper's physical
//! testbed (Fig 5.1: six 100 Mbps Ethernet segments joined by gateways,
//! plus WAN paths to Japan and the USA used in §3.3's measurements).
//!
//! The simulator reproduces the network phenomena the thesis's bandwidth
//! measurement study depends on:
//!
//! * the four delay components of Equation (3.3) — processing,
//!   transmission, propagation and queueing delay — per link;
//! * **IP fragmentation** at the source MTU, with store-and-forward
//!   per-fragment relaying (fragments pipeline across hops, whole packets
//!   do not);
//! * the **NIC initialization stage** (`Speed_init` of Formula 3.6): the
//!   first frame of every datagram pays `min(S, MTU)/speed_init`, which
//!   creates the RTT-vs-packet-size knee at the MTU observed in
//!   Figs 3.3–3.6 — absent on loopback, shadowed on high-jitter WAN paths;
//! * **ICMP port-unreachable** echoes generated after reassembly, the
//!   mechanism of the one-way UDP stream method (§3.3.2);
//! * **cross traffic** as a tunable utilisation fraction plus per-fragment
//!   queueing jitter (more fragments ⇒ more exposure, the paper's rationale
//!   for matching fragment counts between the two probe sizes);
//! * an **`rshaper` substitute**: re-rating a host's access link in both
//!   directions (§5.3.2);
//! * a **max–min fair fluid model for TCP bulk transfers**, used by the
//!   massd downloader and the matrix-multiplication data distribution —
//!   concurrent flows share bottleneck links exactly fairly, which is the
//!   idealised behaviour the paper's throughput comparisons assume.
//!
//! All state lives behind a cheaply clonable [`Network`] handle; events on
//! the [`smartsock_sim::Scheduler`] drive every transfer.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod builder;
pub mod flow;
pub mod packet;
pub mod state;
pub mod types;

pub use builder::NetworkBuilder;
pub use flow::FlowStats;
pub use packet::{Payload, StreamMessage, UdpDatagram};
pub use state::Network;
pub use types::{HostParams, LinkId, LinkParams, NodeId};
