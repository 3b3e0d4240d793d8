//! The security monitor (paper §3.4).
//!
//! Deliberately a thin, pluggable component: "the security monitor reads
//! the security records from a dummy security log". The log format is one
//! `<host> <ip> <level>` line per server.

use std::cell::RefCell;
use std::rc::Rc;

use smartsock_proto::{ProtoError, SecurityRecord};
use smartsock_sim::{Scheduler, SimDuration};

use crate::db::StatusDbs;

/// The security monitor daemon.
#[derive(Clone)]
pub struct SecurityMonitor {
    /// The monitor machine's databases; this daemon writes `sec`.
    dbs: Rc<RefCell<StatusDbs>>,
    log_text: String,
    rescan_interval: SimDuration,
}

impl SecurityMonitor {
    /// Create a monitor over a dummy security log (§3.4.1).
    pub fn new(dbs: Rc<RefCell<StatusDbs>>, log_text: impl Into<String>) -> SecurityMonitor {
        SecurityMonitor {
            dbs,
            log_text: log_text.into(),
            rescan_interval: SimDuration::from_secs(30),
        }
    }

    /// Parse the log and load `secdb`, then keep rescanning periodically
    /// (the log may be rotated by an external agent).
    pub fn start(&self, s: &mut Scheduler) -> Result<(), ProtoError> {
        self.scan()?;
        let mon = self.clone();
        s.schedule_in(self.rescan_interval, move |s| mon.tick(s));
        Ok(())
    }

    fn tick(&self, s: &mut Scheduler) {
        if self.scan().is_err() {
            s.telemetry.counter_incr("secmon-bad-scans");
        }
        let mon = self.clone();
        s.schedule_in(self.rescan_interval, move |s| mon.tick(s));
    }

    fn scan(&self) -> Result<(), ProtoError> {
        let records = SecurityRecord::parse_log(&self.log_text)?;
        let mut dbs = self.dbs.borrow_mut();
        for r in records {
            dbs.sec.upsert(r);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_proto::Ip;

    #[test]
    fn log_is_loaded_into_secdb_on_start() {
        let dbs: Rc<RefCell<StatusDbs>> = Rc::default();
        let log = "# dummy security log\nhelene 192.168.3.10 5\nmimas 192.168.1.11 2\n";
        let mon = SecurityMonitor::new(Rc::clone(&dbs), log);
        let mut s = Scheduler::new();
        mon.start(&mut s).unwrap();
        let dbs = dbs.borrow();
        assert_eq!(dbs.sec.level_of(Ip::new(192, 168, 3, 10)), Some(5));
        assert_eq!(dbs.sec.level_of(Ip::new(192, 168, 1, 11)), Some(2));
        assert_eq!(dbs.sec.len(), 2);
    }

    #[test]
    fn malformed_logs_error_at_start() {
        let mon = SecurityMonitor::new(Rc::default(), "helene not-an-ip 5\n");
        let mut s = Scheduler::new();
        assert!(mon.start(&mut s).is_err());
    }
}
