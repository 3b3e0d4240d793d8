//! Process-level readings from `/proc/self`: CPU time and resident set.

/// `USER_HZ`: the unit of the utime/stime fields of `/proc/self/stat`.
/// 100 on every Linux configuration this benchmark runs on; there is no
/// `sysconf` without libc, so it is a constant here.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed by the whole process (all
/// threads) so far. `None` where `/proc` is unreadable.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// CPU seconds consumed since an earlier `cpu_seconds()` reading.
pub fn cpu_seconds_since(earlier: Option<f64>) -> Option<f64> {
    Some(cpu_seconds()? - earlier?)
}

/// Resident set size in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_self_is_readable_here() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(rss_mb().is_some_and(|m| m > 0.0));
    }
}
