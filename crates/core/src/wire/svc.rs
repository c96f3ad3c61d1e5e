//! The node's service messages (paper Fig. 7, DESIGN.md §7a, §13), carried
//! as SVC_REQ bodies over the relay and answered in a SVC_RSP.

use gridsim_net::SockAddr;
use std::io;

use super::{bad, protocol, FrameReader, FrameWriter, Put, Wire};

protocol! {
    /// One service message to a node; the reply's body type is in each
    /// comment. A splice `channel`'s high bits are its initiator's grid id.
    pub enum SvcMsg {
        /// Brokered splicing, step 1: predict the public endpoints of your
        /// next `streams` connects towards us for the receive port `port`.
        /// `Reply<Vec<SockAddr>>`, the predicted endpoints.
        SpliceReq = 1 { channel: u64, port: String, streams: u64 },
        /// Step 3: connect to these, our own predicted endpoints. `Reply<()>`.
        SpliceGo = 2 { channel: u64, endpoints: Vec<SockAddr> },
        /// The initiator gave up between REQ and GO. `Reply<()>`.
        SpliceAbort = 3 { channel: u64 },
        /// Receiver-driven cumulative ack: `delivered` messages of `channel`
        /// arrived. `Reply<()>`.
        Cack = 4 { channel: u64, delivered: u64 },
    }
}
