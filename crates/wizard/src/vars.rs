//! The wizard's per-server variable view: binds the 22 server-side
//! variables (Appendix B.1), `host_security_level` and the `monitor_*`
//! network metrics onto one candidate's records.

use smartsock_lang::{ServerVar, VarProvider};
use smartsock_monitor::db::report_var;
use smartsock_proto::{NetPathRecord, ServerStatusReport};

/// One candidate server's variables, as the requirement language sees them.
pub struct ServerVars<'a> {
    pub report: &'a ServerStatusReport,
    /// Clearance from `secdb`, if the security monitor knows this host.
    pub security_level: Option<i32>,
    /// Path metrics from the client's group monitor to this server's
    /// group monitor, if the groups differ.
    pub net_record: Option<NetPathRecord>,
    /// True when client and server share a group — the paper's assumption
    /// is that LAN bandwidth/delay are "sufficient for most applications",
    /// so local candidates see ideal metrics.
    pub same_group: bool,
}

/// Idealised metrics for same-group candidates.
const LOCAL_BW_MBPS: f64 = 1000.0;
const LOCAL_DELAY_MS: f64 = 0.1;

impl VarProvider for ServerVars<'_> {
    #[inline]
    fn lookup(&self, var: ServerVar) -> Option<f64> {
        let r = self.report;
        // What the report itself carries: the shard summaries' table,
        // which the language's index addresses directly.
        if let Some(v) = report_var(r, var.index()) {
            return Some(v);
        }
        let name = var.name();
        Some(match name {
            "host_security_level" => f64::from(self.security_level?),
            _ if name.starts_with("host_service_") => {
                let class = name.strip_prefix("host_service_")?;
                let mask = smartsock_proto::ServiceMask::by_name(class)?;
                if r.services.contains(mask) {
                    1.0
                } else {
                    0.0
                }
            }
            "monitor_network_bw" => {
                if self.same_group {
                    LOCAL_BW_MBPS
                } else {
                    self.net_record?.bw_mbps
                }
            }
            "monitor_network_delay" => {
                if self.same_group {
                    LOCAL_DELAY_MS
                } else {
                    self.net_record?.delay_ms
                }
            }
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_proto::Ip;

    fn view(report: &ServerStatusReport) -> ServerVars<'_> {
        ServerVars { report, security_level: Some(4), net_record: None, same_group: true }
    }

    /// Resolve `name` as the compiler does, then ask the provider.
    fn lookup(v: &ServerVars<'_>, name: &str) -> Option<f64> {
        v.lookup(ServerVar::from_name(name).unwrap_or_else(|| panic!("{name} is not server-side")))
    }

    #[test]
    fn every_documented_server_var_resolves() {
        let mut r = ServerStatusReport::empty("h", Ip::new(10, 0, 0, 1));
        r.load1 = 0.5;
        r.mem_free = 1 << 30;
        let v = view(&r);
        for name in smartsock_lang::SERVER_VARS {
            assert!(lookup(&v, name).is_some(), "unresolved server var {name}");
        }
        assert_eq!(lookup(&v, "host_system_load1"), Some(0.5));
        assert_eq!(lookup(&v, "host_memory_free"), Some((1u64 << 30) as f64));
    }

    #[test]
    fn monitor_vars_resolve_locally_and_remotely() {
        let r = ServerStatusReport::empty("h", Ip::new(10, 0, 0, 1));
        let local = view(&r);
        assert_eq!(lookup(&local, "monitor_network_bw"), Some(1000.0));
        assert_eq!(lookup(&local, "monitor_network_delay"), Some(0.1));

        let remote = ServerVars {
            report: &r,
            security_level: None,
            net_record: Some(NetPathRecord {
                from_monitor: Ip::new(10, 0, 0, 100),
                to_monitor: Ip::new(10, 0, 1, 100),
                delay_ms: 7.5,
                bw_mbps: 6.72,
                timestamp_ns: 0,
            }),
            same_group: false,
        };
        assert_eq!(lookup(&remote, "monitor_network_bw"), Some(6.72));
        assert_eq!(lookup(&remote, "monitor_network_delay"), Some(7.5));

        let unknown =
            ServerVars { report: &r, security_level: None, net_record: None, same_group: false };
        assert_eq!(lookup(&unknown, "monitor_network_bw"), None);
        assert_eq!(lookup(&unknown, "host_security_level"), None);
    }

    #[test]
    fn unknown_names_return_none() {
        let r = ServerStatusReport::empty("h", Ip::new(10, 0, 0, 1));
        // Names the provider used to refuse are now refused a binding: the
        // compiler makes them temps, and the provider is never asked.
        assert_eq!(ServerVar::from_name("host_gpu_count"), None);
        assert_eq!(ServerVar::from_name("host_service_quantum"), None);
        let req = smartsock_lang::compile("host_service_quantum = 1\nhost_service_quantum > 0\n");
        assert!(smartsock_lang::Evaluator::evaluate(&req.unwrap(), &view(&r)).qualified);
    }

    #[test]
    fn the_report_variable_table_is_appendix_b1_bound_field_by_field() {
        use smartsock_monitor::db::REPORT_VARS;
        // Names: the language's Appendix B.1 list, in its order, minus the
        // one no status report carries (`host_service_*` and `monitor_*`
        // are separate lists there, and stay bound above).
        let from_lang: Vec<&str> = smartsock_lang::SERVER_VARS
            .into_iter()
            .filter(|n| *n != "host_security_level")
            .collect();
        let names: Vec<&str> = REPORT_VARS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, from_lang);
        // Indices: the compiler's index for a server variable addresses
        // this table exactly when the variable is one the report carries.
        for (i, name) in smartsock_lang::SERVER_VARS.into_iter().enumerate() {
            assert_eq!(ServerVar::from_name(name).unwrap().index(), i);
            assert_eq!(REPORT_VARS.get(i).map(|(n, _)| *n), (i < 21).then_some(name), "{name}");
        }

        // Bindings: 21 distinct values, so a swapped extractor shows; the
        // provider serves each name bit for bit what the shard summaries
        // widen with.
        let mut r = ServerStatusReport::empty("h", Ip::new(10, 0, 0, 1));
        r.load1 = 0.51;
        r.load5 = 0.42;
        r.load15 = 0.33;
        r.cpu_user = 0.21;
        r.cpu_nice = 0.01;
        r.cpu_system = 0.08;
        r.cpu_idle = 0.70;
        r.bogomips = 3394.76;
        r.mem_total = 256 << 20;
        r.mem_used = 100 << 20;
        r.mem_free = 156 << 20;
        r.mem_buffers = 9 << 20;
        r.mem_cached = 31 << 20;
        r.disk_allreq = 123;
        r.disk_rreq = 45;
        r.disk_rblocks = 678;
        r.disk_wreq = 9;
        r.disk_wblocks = 1011;
        r.net_rbytes_ps = 1213.0;
        r.net_tbytes_ps = 1415.0;
        let want = [
            0.51,
            0.42,
            0.33,
            0.21,
            0.01,
            0.08,
            0.70,
            r.cpu_free(),
            3394.76,
            (256u64 << 20) as f64,
            (100u64 << 20) as f64,
            (156u64 << 20) as f64,
            (9u64 << 20) as f64,
            (31u64 << 20) as f64,
            123.0,
            45.0,
            678.0,
            9.0,
            1011.0,
            1213.0,
            1415.0,
        ];
        let v = view(&r);
        for ((name, get), want) in REPORT_VARS.iter().zip(want) {
            assert_eq!(get(&r), want, "{name} reads the wrong field");
            assert_eq!(lookup(&v, name), Some(want), "provider disagrees on {name}");
        }
    }

    #[test]
    fn service_flags_resolve_from_the_mask() {
        use smartsock_proto::ServiceMask;
        let mut r = ServerStatusReport::empty("h", Ip::new(10, 0, 0, 1));
        r.services = ServiceMask::FILE;
        let v = view(&r);
        assert_eq!(lookup(&v, "host_service_file"), Some(1.0));
        assert_eq!(lookup(&v, "host_service_compute"), Some(0.0));
    }
}
