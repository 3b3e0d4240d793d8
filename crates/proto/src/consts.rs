//! Deployment constants fixed by the paper.
//!
//! Table 4.2 assigns the service ports of every daemon; the simulation
//! keeps them verbatim to address simulated sockets. (Table 4.3's
//! System-V IPC keys have no counterpart: each machine's status databases
//! are one owned value, DESIGN.md §1.)

/// Ports used by monitors and wizard (paper Table 4.2).
pub mod ports {
    /// System monitor — receives probe reports (UDP).
    pub const MON_SYS: u16 = 1111;
    /// Network monitor — peer probing service (UDP).
    pub const MON_NET: u16 = 1112;
    /// Security monitor service port.
    pub const MON_SEC: u16 = 1113;
    /// Transmitter passive-mode listening port (distributed mode, TCP).
    pub const TRANSMITTER: u16 = 1110;
    /// Receiver listening port on the wizard machine (TCP).
    pub const RECEIVER: u16 = 1121;
    /// Wizard port (UDP): user requests, and probe reports, client outcome
    /// reports and `smartsockd stats` polls (DESIGN.md §13).
    pub const WIZARD: u16 = 1120;
    /// Port on which computation/file servers accept application
    /// connections (the paper's "service port" of §3.6.2 step 4; not pinned
    /// by the thesis, chosen here).
    pub const SERVICE: u16 = 1200;
    /// Closed port targeted by RTT/bandwidth probes so the destination
    /// kernel answers with ICMP port-unreachable (§3.3.2).
    pub const UDP_PROBE_CLOSED: u16 = 33434;
}

/// Timing defaults from §3.2, §4.1 and §5.2.
pub mod timing {
    /// Default probe reporting interval in seconds (§5.2 uses 2 s; §4.1
    /// mentions 10 s; §3.2.2 says "normally 5 to 10 seconds"). Experiments
    /// override per scenario; this default matches the resource-usage
    /// measurements of Table 5.2.
    pub const PROBE_INTERVAL_SECS: u64 = 2;
    /// A server is declared failed after this many consecutive missed
    /// reports (§4.1).
    pub const FAILURE_INTERVALS: u32 = 3;
    /// Default network-monitor probing period in seconds (§5.2: "one probe
    /// is done after every two seconds").
    pub const NETPROBE_INTERVAL_SECS: u64 = 2;
    /// Default transmitter push period in seconds (centralized mode, §5.2).
    pub const TRANSMIT_INTERVAL_SECS: u64 = 2;
}

/// Message-size facts asserted by the paper, used as test oracles.
pub mod sizes {
    /// "The server status report message is less than 200 bytes long"
    /// (§3.2.1); §5.2 measures "around 190 bytes".
    pub const MAX_STATUS_REPORT_BYTES: usize = 200;
    /// "Each probe message will be parsed into a server status structure,
    /// which is 204 bytes long" (§5.2). Our packed binary record keeps this
    /// exact size.
    pub const BINARY_STATUS_RECORD_BYTES: usize = 204;
    /// Default sizes of the two one-way-UDP-stream probe packets (§5.2:
    /// "the current probing packet size is 1600 and 2900 bytes").
    pub const PROBE_SMALL_BYTES: u32 = 1600;
    pub const PROBE_LARGE_BYTES: u32 = 2900;
}

/// Header overheads of the simulated stack, used when converting payload
/// sizes to on-wire bytes.
pub mod overhead {
    /// IPv4 header without options.
    pub const IP_HEADER: u32 = 20;
    /// UDP header.
    pub const UDP_HEADER: u32 = 8;
    /// ICMP header (type/code/checksum/rest).
    pub const ICMP_HEADER: u32 = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_assignment_matches_table_4_2() {
        assert_eq!(ports::MON_SYS, 1111);
        assert_eq!(ports::MON_NET, 1112);
        assert_eq!(ports::MON_SEC, 1113);
        assert_eq!(ports::TRANSMITTER, 1110);
        assert_eq!(ports::RECEIVER, 1121);
        assert_eq!(ports::WIZARD, 1120);
    }

    #[test]
    fn all_daemon_ports_are_distinct() {
        let ps = [
            ports::MON_SYS,
            ports::MON_NET,
            ports::MON_SEC,
            ports::TRANSMITTER,
            ports::RECEIVER,
            ports::WIZARD,
            ports::SERVICE,
        ];
        for (i, a) in ps.iter().enumerate() {
            for b in &ps[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
