//! The OS-socket implementation of the backend-neutral [`Transport`]
//! seam, plus the address bridge between protocol endpoints and real
//! socket addresses.
//!
//! Protocol [`Endpoint`]s are plain `(ip, port)` pairs, and the live
//! backend runs over IPv4 (the 2005 testbed knew nothing else), so the
//! mapping is a bijection: no directory, no translation table.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};

use smartsock_proto::{Endpoint, Ip, Transport, TransportError};

use crate::clock::Clock;

/// The protocol endpoint a real datagram arrived from (IPv4 only).
pub fn endpoint_of(addr: SocketAddr) -> Option<Endpoint> {
    match addr {
        SocketAddr::V4(v4) => {
            let [a, b, c, d] = v4.ip().octets();
            Some(Endpoint::new(Ip::new(a, b, c, d), v4.port()))
        }
        SocketAddr::V6(_) => None,
    }
}

/// The real socket address a protocol endpoint designates.
pub fn sockaddr_of(ep: Endpoint) -> SocketAddr {
    let [a, b, c, d] = ep.ip.octets();
    SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::new(a, b, c, d), ep.port))
}

/// Borrow of a bound socket plus the deployment clock for the duration of
/// one engine call — the live twin of `smartsock_net::SimTransport`.
pub struct UdpTransport<'a> {
    sock: &'a UdpSocket,
    clock: &'a Clock,
    /// The OS error behind a failed send (engines see a `TransportError`).
    pub refused: Option<std::io::Error>,
}

impl<'a> UdpTransport<'a> {
    pub fn new(sock: &'a UdpSocket, clock: &'a Clock) -> UdpTransport<'a> {
        UdpTransport { sock, clock, refused: None }
    }
}

impl Transport for UdpTransport<'_> {
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn send(
        &mut self,
        _from: Endpoint,
        to: Endpoint,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        // The kernel stamps the source address from the bound socket;
        // `_from` is the engine's protocol-level identity, which the wire
        // format never carries.
        match self.sock.send_to(payload, sockaddr_of(to)) {
            Ok(_) => Ok(()),
            Err(e) => {
                let refused = TransportError(format!("udp send to {to}: {e}"));
                self.refused = Some(e);
                Err(refused)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_sockaddr_bijection_on_loopback() {
        let ep = Endpoint::new(Ip::new(127, 0, 0, 1), 41999);
        assert_eq!(endpoint_of(sockaddr_of(ep)), Some(ep));
        let addr: SocketAddr = "10.1.2.3:1120".parse().unwrap();
        assert_eq!(sockaddr_of(endpoint_of(addr).unwrap()), addr);
    }

    #[test]
    fn udp_transport_sends_real_datagrams() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let clock = Clock::wall();
        let mut t = UdpTransport::new(&tx, &clock);
        let dst = endpoint_of(rx.local_addr().unwrap()).unwrap();
        t.send(Endpoint::new(Ip::new(127, 0, 0, 1), 1120), dst, b"ping").unwrap();
        let mut buf = [0u8; 16];
        let (n, _) = rx.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }
}
