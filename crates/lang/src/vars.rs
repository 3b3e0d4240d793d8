//! Predefined variables, constants and math builtins (paper Appendix B).
//!
//! * **Server-side variables** (B.1) are filled from the status databases
//!   when a server is examined; the thesis counts "in total 22 server-side
//!   variables", which we enumerate below (22 `host_*` entries), plus the
//!   two `monitor_*` network-metric variables the massd experiments use
//!   (Tables 5.7–5.9).
//! * **User-side variables** (B.2) are the ten preferred/denied host slots.
//! * **Constants** (B.3) follow `hoc`: `PI`, `E`, `GAMMA`, `DEG`, `PHI`.
//! * **Math functions** (B.4): "built-in functions such as exp, sin, cos
//!   and log10" — we provide the full `hoc` set.

/// The 22 server-side variables of Appendix B.1, in documentation order.
pub const SERVER_VARS: [&str; 22] = [
    "host_system_load1",
    "host_system_load5",
    "host_system_load15",
    "host_cpu_user",
    "host_cpu_nice",
    "host_cpu_system",
    "host_cpu_idle",
    "host_cpu_free",
    "host_cpu_bogomips",
    "host_memory_total",
    "host_memory_used",
    "host_memory_free",
    "host_memory_buffers",
    "host_memory_cached",
    "host_disk_allreq",
    "host_disk_rreq",
    "host_disk_rblocks",
    "host_disk_wreq",
    "host_disk_wblocks",
    "host_network_rbytesps",
    "host_network_tbytesps",
    "host_security_level",
];

/// Service-class flags (§6 extension): 1.0 when the host advertises the
/// class, 0.0 otherwise.
pub const SERVICE_VARS: [&str; 4] =
    ["host_service_compute", "host_service_file", "host_service_render", "host_service_database"];

/// Network-metric variables resolved from the network monitor's records
/// (`netdb`): available bandwidth in Mbps and delay in milliseconds of the
/// path from the client's group to the candidate server's group.
pub const MONITOR_VARS: [&str; 2] = ["monitor_network_bw", "monitor_network_delay"];

/// The 10 user-side variables of Appendix B.2.
pub const USER_VARS: [&str; 10] = [
    "user_preferred_host1",
    "user_preferred_host2",
    "user_preferred_host3",
    "user_preferred_host4",
    "user_preferred_host5",
    "user_denied_host1",
    "user_denied_host2",
    "user_denied_host3",
    "user_denied_host4",
    "user_denied_host5",
];

/// `SERVER_VARS ++ SERVICE_VARS ++ MONITOR_VARS`: every server-side name.
fn server_side() -> impl Iterator<Item = &'static str> {
    SERVER_VARS.iter().chain(&SERVICE_VARS).chain(&MONITOR_VARS).copied()
}

/// A server-side variable resolved at compile time to its index in
/// `server_side()`, which is what a [`crate::VarProvider`] is asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerVar(u8);

impl ServerVar {
    pub fn from_name(name: &str) -> Option<ServerVar> {
        let i = server_side().position(|n| n == name)?;
        u8::try_from(i).ok().map(ServerVar)
    }

    pub fn name(self) -> &'static str {
        server_side().nth(self.index()).unwrap_or_default()
    }

    /// Position in the binding order; below 21 it is also the variable's
    /// position in the status report's Appendix B.1 table.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// True if `name` is one of the server-side (or monitor) variables whose
/// value the wizard supplies from status reports.
pub fn is_server_var(name: &str) -> bool {
    ServerVar::from_name(name).is_some()
}

/// True if `name` is a user-side host-list variable; assignments to these
/// populate the preferred/denied lists instead of the numeric environment.
pub fn is_user_host_var(name: &str) -> bool {
    USER_VARS.contains(&name)
}

/// Whether a `user_*_host` variable denotes the preferred list (`true`) or
/// the denied list (`false`). `None` for other names.
pub fn user_host_polarity(name: &str) -> Option<bool> {
    if !is_user_host_var(name) {
        return None;
    }
    Some(name.starts_with("user_preferred"))
}

/// Named constants (Appendix B.3, following `hoc`).
pub fn constant(name: &str) -> Option<f64> {
    Some(match name {
        "PI" => std::f64::consts::PI,
        "E" => std::f64::consts::E,
        "GAMMA" => 0.577_215_664_901_532_9, // Euler–Mascheroni
        "DEG" => 57.295_779_513_082_32,     // degrees per radian
        "PHI" => 1.618_033_988_749_895,     // golden ratio
        _ => return None,
    })
}

pub type Builtin = fn(f64) -> f64;

/// One-argument math builtins (Appendix B.4, following `hoc`); a compiled
/// program refers to an entry by position.
///
/// `log` is the natural logarithm; `int` truncates toward zero.
pub(crate) const BUILTINS: [(&str, Builtin); 9] = [
    ("sin", f64::sin),
    ("cos", f64::cos),
    ("atan", f64::atan),
    ("exp", f64::exp),
    ("log", f64::ln),
    ("log10", f64::log10),
    ("sqrt", f64::sqrt),
    ("abs", f64::abs),
    ("int", f64::trunc),
];

/// The builtin called `name`, if there is one.
pub fn builtin_fn(name: &str) -> Option<Builtin> {
    BUILTINS.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exactly_22_server_vars_as_the_thesis_counts() {
        assert_eq!(SERVER_VARS.len(), 22);
        // No duplicates.
        let mut sorted = SERVER_VARS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 22);
    }

    #[test]
    fn exactly_10_user_vars() {
        assert_eq!(USER_VARS.len(), 10);
        assert!(USER_VARS.iter().all(|v| is_user_host_var(v)));
    }

    #[test]
    fn polarity_detection() {
        assert_eq!(user_host_polarity("user_preferred_host3"), Some(true));
        assert_eq!(user_host_polarity("user_denied_host5"), Some(false));
        assert_eq!(user_host_polarity("host_cpu_free"), None);
    }

    #[test]
    fn service_vars_are_server_side() {
        for v in SERVICE_VARS {
            assert!(is_server_var(v));
            assert!(!is_user_host_var(v));
        }
    }

    #[test]
    fn server_var_bindings_round_trip_in_binding_order() {
        let all: Vec<&str> =
            SERVER_VARS.iter().chain(&SERVICE_VARS).chain(&MONITOR_VARS).copied().collect();
        assert_eq!(all.len(), 28);
        for (i, name) in all.into_iter().enumerate() {
            let var = ServerVar::from_name(name).expect(name);
            assert_eq!((var.index(), var.name()), (i, name));
        }
        let others = ["PI", "host_service_quantum", "host_gpu_count", "monitor_network", ""];
        for name in USER_VARS.into_iter().chain(others) {
            assert_eq!(ServerVar::from_name(name), None, "{name:?} is not server-side");
        }
    }

    #[test]
    fn classification_is_disjoint() {
        for v in SERVER_VARS {
            assert!(!is_user_host_var(v));
        }
        for v in USER_VARS {
            assert!(!is_server_var(v));
        }
    }

    #[test]
    fn builtins_from_the_paper_are_present() {
        // §3.6.2: "built-in functions such as exp, sin, cos and log10".
        for f in ["exp", "sin", "cos", "log10", "sqrt", "abs", "int", "log", "atan"] {
            assert!(builtin_fn(f).is_some(), "missing builtin {f}");
        }
        assert!(builtin_fn("frobnicate").is_none());
        assert_eq!(builtin_fn("log10").unwrap()(1000.0), 3.0);
        assert_eq!(builtin_fn("int").unwrap()(-2.7), -2.0);
    }

    #[test]
    fn constants_resolve() {
        assert_eq!(constant("PI"), Some(std::f64::consts::PI));
        assert_eq!(constant("E"), Some(std::f64::consts::E));
        assert_eq!(constant("nope"), None);
    }
}
