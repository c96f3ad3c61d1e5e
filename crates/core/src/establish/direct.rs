//! The two connectors that need no brokering, client/server (paper §3.1)
//! and TCP proxy (§3.3), as one: a connection per stream to the receive
//! port's listener, direct or through a SOCKS proxy, each made by the
//! bootstrap factory's one dial under the node's NAT gate. Their responder
//! half is the listener: [`accept`] reads what [`send_preamble`] wrote.

use gridsim_tcp::TcpStream;
use std::io;
use std::sync::Arc;

use super::{BootstrapSocketFactory, BrokeredSocketFactory, Target};
use crate::drivers::{RawLink, StackSpec};
use crate::node::NodeCtx;
use crate::port::{ReceivePortInner, PENDING_STREAMS_DEADLINE};
use crate::wire::{link_frame, Preamble, Put, ResumeMeta, Wire};

/// Client/server, or TCP proxy when `PROXIED`: through the target's site
/// proxy to reach inward, or through our own for a strictly firewalled
/// initiator.
pub(super) fn connect<const PROXIED: bool>(
    f: &BrokeredSocketFactory,
    target: &Target,
    spec: &StackSpec,
    channel: u64,
    resume: Option<&ResumeMeta>,
) -> io::Result<Vec<RawLink>> {
    let unavailable = |why| io::Error::new(io::ErrorKind::AddrNotAvailable, why);
    let listener = target
        .rec
        .listener
        .ok_or_else(|| unavailable("port has no listener"))?;
    let proxy = if target.profile.accepts_inbound() {
        f.profile.socks_proxy
    } else {
        target.profile.socks_proxy
    };
    let no_proxy = || unavailable("no SOCKS proxy available");
    let via = PROXIED.then(|| proxy.ok_or_else(no_proxy)).transpose()?;
    let dial = BootstrapSocketFactory::new(f.host.clone(), via).under(Arc::clone(&f.gate));
    (0..spec.streams())
        .map(|idx| {
            let s = gridsim_net::ctx::block_on(dial.connect(listener))?;
            send_preamble(&s, channel, idx, spec.streams(), resume)?;
            Ok(RawLink::Tcp(s))
        })
        .collect()
}

/// Write stream `idx` of `total`'s preamble on a fresh TCP link.
pub(super) fn send_preamble(
    s: &TcpStream,
    channel: u64,
    idx: u16,
    total: u16,
    resume: Option<&ResumeMeta>,
) -> io::Result<()> {
    s.set_nodelay(true)?;
    let resume = resume.cloned();
    let pre = Preamble {
        channel,
        idx,
        total,
        resume,
    };
    pre.encode().send(&mut s.clone())
}

/// The other end of [`send_preamble`], for a connection accepted by a
/// receive port's listener or spliced towards it: read the preamble and
/// register the link with the port. A preamble that has not arrived whole
/// by the port's [`PENDING_STREAMS_DEADLINE`] is an error, and the
/// connection is dropped — closed as a partial assembly's streams are.
pub(crate) async fn accept(
    ctx: &NodeCtx,
    port: &Arc<ReceivePortInner>,
    stream: TcpStream,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let link = RawLink::Tcp(stream);
    let pre = link_frame(&link, PENDING_STREAMS_DEADLINE, "stream preamble").await?;
    port.add_link(ctx, Preamble::decode(&pre)?, link).await
}
