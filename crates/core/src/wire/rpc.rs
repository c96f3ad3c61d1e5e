//! The request/reply layer's two messages (DESIGN.md §13). Each is one
//! ordinary message on a receive port — the message's end is the
//! payload's — read whole before it is acted on.

use bytes::Bytes;
use std::io;

use super::{wire, FrameReader, FrameWriter, Put, Wire};

/// A call: `[str reply_to][varint id][payload]`. `reply_to` names the
/// caller's private response port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcRequest {
    pub reply_to: String,
    pub id: u64,
    pub payload: Bytes,
}

wire!(<> RpcRequest, |w, v| w.str(&v.reply_to).u64(v.id).tail(&v.payload), |r| {
    let (reply_to, id) = (r.str()?, r.u64()?);
    Ok(RpcRequest { reply_to, id, payload: r.tail() })
});

/// The answer to call `id`: `[varint id][payload]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcReply {
    pub id: u64,
    pub payload: Bytes,
}

wire!(<> RpcReply, |w, v| w.u64(v.id).tail(&v.payload), |r| {
    let id = r.u64()?;
    Ok(RpcReply { id, payload: r.tail() })
});
