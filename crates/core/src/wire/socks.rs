//! SOCKS5's messages (RFC 1928): the CONNECT subset, IPv4 targets, no
//! authentication (DESIGN.md §13). SOCKS is a byte stream, not frames:
//! each message is read in two parts, a head of fixed length and the rest
//! the head announces ([`SocksMsg`]), its version and address type checked
//! on the head, so a reader never reads past the message.

use gridsim_net::{Ip, SockAddr};
use std::cmp::Ordering;
use std::io;

use super::bad;

const VER: u8 = 5;
const ATYP_V4: u8 = 1;
const NONE_TAKEN: u8 = 0xff;
pub const METHOD_NONE: u8 = 0;
pub const CMD_CONNECT: u8 = 1;
pub const REP_OK: u8 = 0;
pub const REP_FAIL: u8 = 1;
pub const REP_REFUSED: u8 = 5;
pub const REP_NO_CMD: u8 = 7;

/// A SOCKS message: [`HEAD`](Self::HEAD) bytes, then as many as
/// [`rest`](Self::rest) makes of them.
pub trait SocksMsg: Sized {
    const HEAD: usize;
    fn encode(&self) -> Vec<u8>;
    /// How many bytes follow `head`: `InvalidData` for another version or
    /// address type.
    fn rest(head: &[u8]) -> io::Result<usize>;
    /// The message in `bytes`, head and rest, both checked.
    fn parse(bytes: &[u8]) -> Self;

    /// The message that is all of `bytes`: a short one is `UnexpectedEof`,
    /// bytes past its end `InvalidData` (they are the next message's).
    fn decode(bytes: &[u8]) -> io::Result<Self> {
        let short = || io::ErrorKind::UnexpectedEof.into();
        let head = bytes.get(..Self::HEAD).ok_or_else(short)?;
        match bytes.len().cmp(&(Self::HEAD + Self::rest(head)?)) {
            Ordering::Less => Err(short()),
            Ordering::Greater => Err(bad("bytes past a SOCKS message")),
            Ordering::Equal => Ok(Self::parse(bytes)),
        }
    }
}

/// `head`, SOCKS5's version first, and with `v4` the IPv4 address type
/// fourth.
fn check(head: &[u8], v4: bool) -> io::Result<&[u8]> {
    match (head[0], v4 && head[3] != ATYP_V4) {
        (VER, false) => Ok(head),
        (VER, true) => Err(bad("SOCKS address not IPv4")),
        _ => Err(bad("not SOCKS5")),
    }
}

/// The client's greeting, the methods it offers: `[VER][n][method]*`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Greeting(pub Vec<u8>);

impl SocksMsg for Greeting {
    const HEAD: usize = 2;
    fn encode(&self) -> Vec<u8> {
        [&[VER, self.0.len() as u8], &self.0[..]].concat()
    }
    fn rest(head: &[u8]) -> io::Result<usize> {
        check(head, false).map(|h| h[1] as usize)
    }
    fn parse(b: &[u8]) -> Greeting {
        Greeting(b[2..].to_vec())
    }
}

/// The proxy's pick, `None` for none of those offered: `[VER][method]`,
/// 0xff for none.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Choice(pub Option<u8>);

impl SocksMsg for Choice {
    const HEAD: usize = 2;
    fn encode(&self) -> Vec<u8> {
        vec![VER, self.0.unwrap_or(NONE_TAKEN)]
    }
    fn rest(head: &[u8]) -> io::Result<usize> {
        check(head, false).map(|_| 0)
    }
    fn parse(b: &[u8]) -> Choice {
        Choice(Some(b[1]).filter(|&m| m != NONE_TAKEN))
    }
}

/// The client's request: `[VER][cmd][0][ATYP_V4][ip][port]`, big-endian.
/// Another address type is refused unread: its length is unknown here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocksRequest {
    pub cmd: u8,
    pub target: SockAddr,
}

impl SocksMsg for SocksRequest {
    const HEAD: usize = 4;
    fn encode(&self) -> Vec<u8> {
        let SockAddr { ip, port } = self.target;
        let head = [VER, self.cmd, 0, ATYP_V4];
        [&head[..], &ip.0.to_be_bytes(), &port.to_be_bytes()].concat()
    }
    fn rest(head: &[u8]) -> io::Result<usize> {
        check(head, true).map(|_| 6)
    }
    fn parse(b: &[u8]) -> SocksRequest {
        let ip = Ip(u32::from_be_bytes([b[4], b[5], b[6], b[7]]));
        let target = SockAddr::new(ip, u16::from_be_bytes([b[8], b[9]]));
        SocksRequest { cmd: b[1], target }
    }
}

/// The proxy's answer: `[VER][rep][0][ATYP_V4][ip][port]`, the bound
/// address all zero — it means nothing for CONNECT here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocksReply(pub u8);

impl SocksMsg for SocksReply {
    const HEAD: usize = 10;
    fn encode(&self) -> Vec<u8> {
        vec![VER, self.0, 0, ATYP_V4, 0, 0, 0, 0, 0, 0]
    }
    fn rest(head: &[u8]) -> io::Result<usize> {
        check(head, true).map(|_| 0)
    }
    fn parse(b: &[u8]) -> SocksReply {
        SocksReply(b[1])
    }
}
