//! TCP segments as simulated packet payloads.

use bytes::Bytes;
use gridsim_net::Payload;
use std::any::Any;
use std::fmt;

/// Simulated TCP header size in bytes.
pub const TCP_HEADER_LEN: u32 = 20;

/// TCP flags (only the ones the simulator uses).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
}

impl Flags {
    pub const SYN: Flags = Flags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    pub const ACK: Flags = Flags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    pub const SYN_ACK: Flags = Flags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    pub const FIN_ACK: Flags = Flags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
    };
    pub const RST: Flags = Flags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
    };
}

impl fmt::Debug for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.ack {
            parts.push("ACK");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        write!(f, "[{}]", parts.join("+"))
    }
}

/// A TCP segment. Sequence numbers are 64-bit and absolute — the simulator
/// does not model 32-bit wraparound (documented simplification; connections
/// in the experiments move far less than 2^32 bytes per direction... and
/// even if they did, u64 gives headroom beyond any realistic run).
#[derive(Clone, Default)]
pub struct Segment {
    pub flags: Flags,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u64,
    /// Acknowledgement number (next expected byte), valid when `flags.ack`.
    pub ack: u64,
    /// Advertised receive window in bytes.
    pub wnd: u32,
    pub data: Bytes,
}

impl Segment {
    /// Sequence space consumed by this segment (SYN and FIN count as one).
    pub fn seq_len(&self) -> u64 {
        self.data.len() as u64 + u64::from(self.flags.syn) + u64::from(self.flags.fin)
    }

    /// Sequence number just past this segment.
    pub fn seq_end(&self) -> u64 {
        self.seq + self.seq_len()
    }
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} seq={} ack={} wnd={} len={}",
            self.flags,
            self.seq,
            self.ack,
            self.wnd,
            self.data.len()
        )
    }
}

impl Payload for Segment {
    fn wire_len(&self) -> u32 {
        TCP_HEADER_LEN + self.data.len() as u32
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let syn = Segment {
            flags: Flags::SYN,
            seq: 100,
            ack: 0,
            wnd: 0,
            data: Bytes::new(),
        };
        assert_eq!(syn.seq_len(), 1);
        assert_eq!(syn.seq_end(), 101);
        let data = Segment {
            flags: Flags::ACK,
            seq: 101,
            ack: 7,
            wnd: 1,
            data: Bytes::from_static(b"hello"),
        };
        assert_eq!(data.seq_len(), 5);
        let fin = Segment {
            flags: Flags::FIN_ACK,
            seq: 106,
            ack: 7,
            wnd: 1,
            data: Bytes::from_static(b"x"),
        };
        assert_eq!(fin.seq_len(), 2);
    }

    #[test]
    fn wire_len_is_header_plus_data() {
        let s = Segment {
            flags: Flags::ACK,
            seq: 0,
            ack: 0,
            wnd: 0,
            data: Bytes::from(vec![0u8; 1460]),
        };
        assert_eq!(s.wire_len(), 1480);
    }

    #[test]
    fn debug_format_lists_flags() {
        let s = Segment {
            flags: Flags::SYN_ACK,
            seq: 1,
            ack: 2,
            wnd: 3,
            data: Bytes::new(),
        };
        assert!(format!("{s:?}").contains("SYN+ACK"));
    }
}
