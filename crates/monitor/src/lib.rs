//! # smartsock-monitor
//!
//! The three monitor daemons of the Smart TCP socket library (paper §3.2.2,
//! §3.3, §3.4) plus the status databases they maintain.
//!
//! * [`SystemMonitor`] — receives ASCII status reports from server probes
//!   on UDP port 1111, upserts them into the system status database
//!   (`sysdb`), time-stamps every record and expires servers that miss
//!   three consecutive reporting intervals (§3.2.2, §4.1).
//! * [`NetworkMonitor`] — one per server group; probes its peer monitors
//!   **sequentially** (§3.3.3: "Multiple probes should not run
//!   simultaneously") with the one-way UDP stream method of §3.3.2, and
//!   records `(delay, bandwidth)` pairs per neighbouring group in `netdb`
//!   (Table 3.4).
//! * [`secmon::load`] — §3.4's deliberately open security component:
//!   loads host clearance levels from a dummy security log into `secdb`,
//!   once, since nothing changes the log.
//!
//! The databases stand in for the paper's System-V shared-memory segments
//! (Tables 4.2/4.3). A simulated monitor machine's daemons share one
//! [`StatusDbs`] through an `Rc<RefCell<_>>` — the simulator's idiom for
//! co-hosted state, one thread, so no semaphore discipline is needed — and
//! the transmitter (crate `smartsock-wire`) snapshots it for shipping to
//! the wizard machine.
#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

pub mod db;
pub mod estimator;
pub mod health;
pub mod ingest;
pub mod iperf;
pub mod netmon;
pub mod pathload;
pub mod pipechar;
pub mod secmon;
pub mod sysmon;

pub use db::{
    report_var, subnet_of, NetDb, SecDb, Shard, ShardSummary, StatusDbs, SubnetKey, SysDb,
    TimedReport, VarRanges, REPORT_VARS,
};
pub use estimator::{bandwidth_mbps_from_pair, BwEstimate, ProbePairSpec};
pub use health::{HealthTable, StateKind, Transition};
pub use ingest::{ingest_ascii, IngestError};
pub use netmon::NetworkMonitor;
pub use sysmon::SystemMonitor;
