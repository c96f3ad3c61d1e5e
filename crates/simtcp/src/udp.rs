//! Minimal UDP over the simulator: unreliable datagrams, used by tests and
//! by NAT-behaviour probing.

use gridsim_net::{ctx, proto, Ip, Net, NodeId, Packet, Payload, SockAddr, Waker, World};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Arc;

/// Simulated UDP header size.
pub const UDP_HEADER_LEN: u32 = 8;

/// A UDP datagram payload.
#[derive(Debug, Clone)]
pub struct Datagram(pub Vec<u8>);

impl Payload for Datagram {
    fn wire_len(&self) -> u32 {
        UDP_HEADER_LEN + self.0.len() as u32
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

struct SockState {
    queue: VecDeque<(SockAddr, Vec<u8>)>,
    wakers: Vec<Waker>,
}

/// Per-host UDP state.
pub struct UdpHost {
    sockets: HashMap<u16, SockState>,
}

impl UdpHost {
    fn new() -> UdpHost {
        UdpHost {
            sockets: HashMap::new(),
        }
    }

    /// Install the UDP dispatcher on a world (idempotent).
    pub fn register_dispatch(w: &mut World) {
        if w.proto_registered(proto::UDP) {
            return;
        }
        w.register_proto(
            proto::UDP,
            Arc::new(|w: &mut World, node: NodeId, pkt: Packet| {
                with_udp(w, node, |h, _| {
                    if let Some(d) = pkt.payload_as::<Datagram>() {
                        if let Some(s) = h.sockets.get_mut(&pkt.dst.port) {
                            s.queue.push_back((pkt.src, d.0.clone()));
                            for wk in s.wakers.drain(..) {
                                wk.wake();
                            }
                        }
                        // No socket: silently dropped, as UDP does.
                    }
                });
            }),
        );
    }
}

fn with_udp<R>(w: &mut World, node: NodeId, f: impl FnOnce(&mut UdpHost, &mut World) -> R) -> R {
    let mut boxed = match w.take_proto_state(node, proto::UDP) {
        Some(b) => b.downcast::<UdpHost>().expect("udp state type"),
        None => Box::new(UdpHost::new()),
    };
    let r = f(&mut boxed, w);
    w.put_proto_state(node, proto::UDP, boxed);
    r
}

/// A bound UDP socket.
pub struct UdpSocket {
    net: Net,
    node: NodeId,
    addr: SockAddr,
}

impl UdpSocket {
    pub(crate) fn bind(net: &Net, node: NodeId, ip: Ip, port: u16) -> io::Result<UdpSocket> {
        let ok = net.with(|w| {
            with_udp(w, node, |h, _| {
                if let std::collections::hash_map::Entry::Vacant(e) = h.sockets.entry(port) {
                    e.insert(SockState {
                        queue: VecDeque::new(),
                        wakers: Vec::new(),
                    });
                    true
                } else {
                    false
                }
            })
        });
        if !ok {
            return Err(io::ErrorKind::AddrInUse.into());
        }
        Ok(UdpSocket {
            net: net.clone(),
            node,
            addr: SockAddr::new(ip, port),
        })
    }

    pub fn local_addr(&self) -> SockAddr {
        self.addr
    }

    /// Send one datagram.
    pub fn send_to(&self, data: &[u8], dst: SockAddr) -> io::Result<()> {
        let node = self.node;
        let src = self.addr;
        self.net.with(|w| {
            w.send_from(
                node,
                Packet::new(src, dst, proto::UDP, Box::new(Datagram(data.to_vec()))),
            );
        });
        Ok(())
    }

    /// Receive one datagram, blocking in simulated time.
    pub fn recv_from(&self) -> io::Result<(SockAddr, Vec<u8>)> {
        loop {
            let port = self.addr.port;
            let got = self.net.with(|w| {
                with_udp(w, self.node, |h, _| {
                    let s = h.sockets.get_mut(&port).expect("bound socket state");
                    if let Some(x) = s.queue.pop_front() {
                        Some(x)
                    } else {
                        s.wakers.push(ctx::waker());
                        None
                    }
                })
            });
            match got {
                Some(x) => return Ok(x),
                None => ctx::park("udp recv"),
            }
        }
    }
}

impl Drop for UdpSocket {
    fn drop(&mut self) {
        let port = self.addr.port;
        self.net.with(|w| {
            with_udp(w, self.node, |h, _| {
                h.sockets.remove(&port);
            })
        });
    }
}
