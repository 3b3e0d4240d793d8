//! The security monitor (paper §3.4).
//!
//! Deliberately a thin, pluggable component: "the security monitor reads
//! the security records from a dummy security log". The log format is one
//! `<host> <ip> <level>` line per server. Nothing else writes a monitor
//! machine's `secdb` and the log never changes, so it is loaded once.

use smartsock_proto::{ProtoError, SecurityRecord};

use crate::db::SecDb;

/// Parse a dummy security log (§3.4.1) into `secdb`; a malformed log loads
/// nothing.
pub fn load(secdb: &mut SecDb, log: &str) -> Result<(), ProtoError> {
    for r in SecurityRecord::parse_log(log)? {
        secdb.upsert(r);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsock_proto::Ip;

    #[test]
    fn log_is_loaded_into_secdb() {
        let mut secdb = SecDb::default();
        let log = "# dummy security log\nhelene 192.168.3.10 5\nmimas 192.168.1.11 2\n";
        load(&mut secdb, log).unwrap();
        assert_eq!(secdb.level_of(Ip::new(192, 168, 3, 10)), Some(5));
        assert_eq!(secdb.level_of(Ip::new(192, 168, 1, 11)), Some(2));
        assert_eq!(secdb.len(), 2);
    }

    #[test]
    fn a_malformed_log_is_an_error_and_loads_nothing() {
        let mut secdb = SecDb::default();
        assert!(load(&mut secdb, "mimas 192.168.1.11 2\nhelene not-an-ip 5\n").is_err());
        assert!(secdb.is_empty());
    }
}
