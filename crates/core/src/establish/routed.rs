//! Routed messages (paper §3.3): one stream through the relay, opened over
//! the node's service link, and its acceptor half.

use std::io;

use super::{BrokeredSocketFactory, Target};
use crate::drivers::{RawLink, StackSpec};
use crate::node::NodeCtx;
use crate::port::PENDING_STREAMS_DEADLINE;
use crate::relay::RoutedStream;
use crate::wire::{link_frame, Preamble, Put, ResumeMeta};

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
/// the stack wait, so they are awaited in a task; the opener hears of a
/// failure there — resume fields that have not arrived by the port's
/// [`PENDING_STREAMS_DEADLINE`] among them — through a late refusal.
pub(crate) fn on_open(
    ctx: NodeCtx,
    port_name: &str,
    channel: u64,
    stream: RoutedStream,
) -> Result<(), String> {
    let port =
        (ctx.resolve)(port_name).ok_or_else(|| format!("unknown receive port '{port_name}'"))?;
    gridsim_net::ctx::handle().spawn_async("routed-open", async move {
        let link = RawLink::Routed(stream.clone());
        let opened = async move {
            let first_frame = link_frame(&link, PENDING_STREAMS_DEADLINE, "resume fields");
            let pre = Preamble::decode_routed(channel, first_frame).await?;
            port.add_link(&ctx, pre, link).await
        };
        if let Err(e) = opened.await {
            stream.refuse(&e.to_string()).await;
        }
        // The last handle's FIN, awaited here rather than sent by its drop.
        stream.fin_if_last().await;
    });
    Ok(())
}
