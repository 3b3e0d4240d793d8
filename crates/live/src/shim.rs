//! A socket-level fault shim: a UDP relay between client and wizard that
//! drops a configured number of datagrams in each direction.
//!
//! This is the live counterpart of `smartsock-faults`' datagram-loss
//! semantics (`FaultKind::Loss`): the interop suite parks the shim
//! between a [`LiveSock`](crate::client::LiveSock) and a
//! [`LiveWizard`](crate::wizard::LiveWizard) to prove the client's
//! retransmit loop recovers over real sockets, deterministically —
//! "drop the first N" instead of coin flips.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use crate::wizard::{wake, MAX_DATAGRAM};

/// Deterministic loss budgets, counted per direction from shim start (the
/// default passes everything through).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShimPolicy {
    /// Drop the first N client→wizard datagrams (requests).
    pub drop_requests: u32,
    /// Drop the first N wizard→client datagrams (replies).
    pub drop_replies: u32,
}

/// What the relay thread and its [`FaultShim`] handle both see.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    forwarded: AtomicU64,
    dropped: AtomicU64,
    requests: Mutex<Vec<Vec<u8>>>,
}

/// A relay for one client at a time: datagrams from anyone but the wizard
/// are forwarded to the wizard, and the sender becomes the reply target.
pub struct FaultShim {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl FaultShim {
    /// Bind an ephemeral loopback port relaying toward `wizard`.
    pub fn spawn(wizard: SocketAddr, policy: ShimPolicy) -> io::Result<FaultShim> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        let addr = sock.local_addr()?;
        let shared = Arc::new(Shared::default());
        let theirs = Arc::clone(&shared);
        let handle = std::thread::spawn(move || relay(sock, wizard, policy, &theirs));
        Ok(FaultShim { addr, shared, handle: Some(handle) })
    }

    /// The address clients should treat as the wizard.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Datagrams passed through, both directions.
    pub fn forwarded(&self) -> u64 {
        self.shared.forwarded.load(Ordering::SeqCst)
    }

    /// Datagrams eaten by the loss budgets.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::SeqCst)
    }

    /// Every client→wizard datagram seen so far, dropped ones included, in
    /// arrival order — what the client put on the wire.
    pub fn requests(&self) -> Vec<Vec<u8>> {
        self.shared.requests.lock().expect("shim thread panicked holding the frame log").clone()
    }

    /// Stop the relay promptly.
    pub fn shutdown(mut self) -> io::Result<()> {
        let joined = self.stop().expect("invariant: only shutdown or drop stops the relay");
        joined.map_err(|_| io::Error::other("shim thread panicked"))?
    }

    /// Stop and join the relay thread; `None` once it was.
    fn stop(&mut self) -> Option<thread::Result<io::Result<()>>> {
        self.shared.stop.store(true, Ordering::SeqCst);
        let handle = self.handle.take()?;
        wake(self.addr);
        Some(handle.join())
    }
}

impl Drop for FaultShim {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn relay(
    sock: UdpSocket,
    wizard: SocketAddr,
    policy: ShimPolicy,
    shared: &Shared,
) -> io::Result<()> {
    let mut buf = vec![0u8; MAX_DATAGRAM];
    let mut client: Option<SocketAddr> = None;
    let mut requests_to_drop = policy.drop_requests;
    let mut replies_to_drop = policy.drop_replies;
    loop {
        let (n, from) = match sock.recv_from(&mut buf) {
            Ok(x) => x,
            Err(e) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                return Err(e);
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let Some(payload) = buf.get(..n) else { continue };
        if payload.is_empty() {
            continue;
        }
        if from == wizard {
            if replies_to_drop > 0 {
                replies_to_drop -= 1;
                shared.dropped.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            if let Some(client) = client {
                // Counted before it is sent: whoever has the datagram in
                // hand already finds it in `forwarded()`.
                shared.forwarded.fetch_add(1, Ordering::SeqCst);
                sock.send_to(payload, client)?;
            }
        } else {
            client = Some(from);
            let log = shared.requests.lock();
            log.expect("a reader panicked holding the frame log").push(payload.to_vec());
            if requests_to_drop > 0 {
                requests_to_drop -= 1;
                shared.dropped.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            shared.forwarded.fetch_add(1, Ordering::SeqCst);
            sock.send_to(payload, wizard)?;
        }
    }
}
