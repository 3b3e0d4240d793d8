//! The client protocol's phases, as types.
//!
//! "Session Types for the Transport Layer" motivates encoding a socket's
//! protocol phase in its *type* so that out-of-order operations cannot be
//! written at all. The client side of the paper's §3.6.2 handshake has a
//! strict phase order:
//!
//! ```text
//! bind ──▶ Registered ──request──▶ Requested ──reply──▶ Connected
//! ```
//!
//! These are the markers only. The socket that carries them, every
//! transition consuming it, is `smartsock_live::LiveSock<S>` (its docs
//! hold the `compile_fail` proofs); which reply ends `Requested`, and how,
//! is the client engine's business (`smartsock_wizard::client`).

/// A local endpoint is bound; ready to issue a request.
pub struct Registered;

/// A request is in flight.
pub struct Requested;

/// A matching reply with a usable server list arrived.
pub struct Connected;
