//! Routed messages through an application-level relay (paper §3.3,
//! Figure 3): every node opens one outbound connection to a relay on a
//! public gateway; the relay forwards frames to their final recipient.
//!
//! The relay connection carries two things, multiplexed — the relay never
//! inspects inner payloads:
//!
//! * **service requests/responses** — the brokering channel for connection
//!   establishment (paper Fig. 7: "the data link uses TCP splicing with
//!   brokering through the service link"),
//! * **routed link streams** — last-resort data links ([`RoutedStream`],
//!   a byte stream tunneled frame-by-frame through the relay).
//!
//! Every frame crosses the relay host — the bottleneck Table 1 warns about
//! and bench E9 measures — so a frame is one write and one stated read at
//! every hop and its payload travels as `Bytes` from the read it arrived in
//! to the write it leaves by (DESIGN.md §5b, §10).

mod client;
mod server;
mod stream;

pub use client::{RelayClient, RelayDelegate, SvcReply};
pub use server::{spawn_relay, spawn_relay_mesh, RelayConfig};
pub use stream::RoutedStream;
#[cfg(test)]
pub(crate) use {client::HELLO_SWEEPS, client::REDIAL, server::PEER_DIAL};

/// Maximum payload per routed DATA frame.
pub const ROUTED_CHUNK: usize = 8 * 1024;
