//! SOCKS5's messages (RFC 1928): the CONNECT subset, IPv4 targets, no
//! authentication (DESIGN.md §13). SOCKS is a byte stream, not frames:
//! each message is read whole, its version and address type checked,
//! before the side that reads it acts.

use gridsim_net::{Ip, SockAddr};
use std::io::{self, Read};

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

/// `N` bytes off `r`, the first SOCKS5's version when `ver`.
fn take<const N: usize>(r: &mut impl Read, ver: bool) -> io::Result<[u8; N]> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    match ver && b[0] != VER {
        true => Err(bad("not SOCKS5")),
        false => Ok(b),
    }
}

/// The client's greeting, the methods it offers: `[VER][n][method]*`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Greeting(pub Vec<u8>);

impl Greeting {
    pub fn encode(&self) -> Vec<u8> {
        [&[VER, self.0.len() as u8], &self.0[..]].concat()
    }
    pub fn read(r: &mut impl Read) -> io::Result<Greeting> {
        let [_, n] = take(r, true)?;
        let mut methods = vec![0u8; n as usize];
        r.read_exact(&mut methods).map(|()| Greeting(methods))
    }
}

/// The proxy's pick, `None` for none of those offered: `[VER][method]`,
/// 0xff for none.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Choice(pub Option<u8>);

impl Choice {
    pub fn encode(&self) -> [u8; 2] {
        [VER, self.0.unwrap_or(NONE_TAKEN)]
    }
    pub fn read(r: &mut impl Read) -> io::Result<Choice> {
        let [_, m] = take(r, true)?;
        Ok(Choice(Some(m).filter(|&m| m != NONE_TAKEN)))
    }
}

/// The client's request: `[VER][cmd][0][ATYP_V4][ip][port]`, big-endian.
/// Another address type is refused unread: its length is unknown here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocksRequest {
    pub cmd: u8,
    pub target: SockAddr,
}

impl SocksRequest {
    pub fn encode(&self) -> Vec<u8> {
        let SockAddr { ip, port } = self.target;
        let head = [VER, self.cmd, 0, ATYP_V4];
        [&head[..], &ip.0.to_be_bytes(), &port.to_be_bytes()].concat()
    }
    pub fn read(r: &mut impl Read) -> io::Result<SocksRequest> {
        let [_, cmd, _, atyp] = take(r, true)?;
        let [a, b, c, d, p, q] = v4(atyp).and_then(|()| take(r, false))?;
        let ip = Ip(u32::from_be_bytes([a, b, c, d]));
        let target = SockAddr::new(ip, u16::from_be_bytes([p, q]));
        Ok(SocksRequest { cmd, target })
    }
}

/// The proxy's answer: `[VER][rep][0][ATYP_V4][ip][port]`, the bound
/// address all zero — it means nothing for CONNECT here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocksReply(pub u8);

impl SocksReply {
    pub fn encode(&self) -> [u8; 10] {
        [VER, self.0, 0, ATYP_V4, 0, 0, 0, 0, 0, 0]
    }
    pub fn read(r: &mut impl Read) -> io::Result<SocksReply> {
        let [_, rep, _, atyp, ..] = take::<10>(r, true)?;
        v4(atyp).map(|()| SocksReply(rep))
    }
}

fn v4(atyp: u8) -> io::Result<()> {
    (atyp == ATYP_V4)
        .then_some(())
        .ok_or_else(|| bad("SOCKS address not IPv4"))
}
