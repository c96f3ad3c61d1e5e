//! Routed messages (paper §3.3): one stream through the relay, opened over
//! the node's service link, and its acceptor half.

use std::io;

use super::{BrokeredSocketFactory, Target};
use crate::drivers::{RawLink, StackSpec};
use crate::node::NodeCtx;
use crate::relay::RoutedStream;
use crate::wire::{read_frame, Preamble, Put, ResumeMeta};

/// One stream whatever the spec asks: the relay carries a routed link's
/// only connection. The channel (and whether resume fields follow) rides
/// the relay's OPEN; the resume fields are the stream's first frame.
pub(super) fn routed(
    f: &BrokeredSocketFactory,
    target: &Target,
    _spec: &StackSpec,
    channel: u64,
    resume: Option<&ResumeMeta>,
) -> io::Result<Vec<RawLink>> {
    let pre = Preamble {
        channel,
        idx: 0,
        total: 1,
        resume: resume.cloned(),
    };
    let (owner, port) = (target.rec.owner, &target.rec.name);
    let stream = f
        .service_link()?
        .open_stream(owner, port, pre.routed_channel())?;
    if let Some(meta) = resume {
        meta.encode().send(&mut stream.clone())?;
    }
    Ok(vec![RawLink::Routed(stream)])
}

/// The acceptor's half, for `RelayDelegate::on_open`: admit a routed link
/// to one of our receive ports. Reading the resume fields and assembling
/// the stack block, so they run in a task; the opener hears of a failure
/// there through a late refusal.
pub(crate) fn on_open(
    ctx: NodeCtx,
    port_name: &str,
    channel: u64,
    stream: RoutedStream,
) -> Result<(), String> {
    let port =
        (ctx.resolve)(port_name).ok_or_else(|| format!("unknown receive port '{port_name}'"))?;
    gridsim_net::ctx::handle().spawn_daemon("routed-open", move || {
        let link = RawLink::Routed(stream.clone());
        let opened = Preamble::decode_routed(channel, || read_frame(&mut stream.clone()))
            .and_then(|pre| port.add_link(&ctx, pre, link));
        if let Err(e) = opened {
            stream.refuse(&e.to_string());
        }
    });
    Ok(())
}
