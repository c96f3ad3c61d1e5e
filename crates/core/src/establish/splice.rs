//! TCP splicing (paper §3.2, Fig. 7), both halves: a simultaneous open
//! brokered in three service messages over the relay (DESIGN.md §5a), and
//! the NAT port prediction it rests on (§6).
//!
//! 1. `SPLICE_REQ {channel, port, streams}` — the responder predicts its
//!    public endpoints (holding its NAT gate if NATted) and replies.
//! 2. The initiator predicts its own endpoints and **emits its SYNs
//!    before releasing its NAT gate** — the predict→SYN window is
//!    therefore race-free on this side.
//! 3. `SPLICE_GO {channel, initiator endpoints}` — the responder connects
//!    (and releases its gate).

use gridsim_net::nat::next_sequential_port;
use gridsim_net::{ctx, SockAddr, Timer};
use gridsim_tcp::{ConnectOpts, TcpConfig, TcpStream};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::direct::{accept, send_preamble};
use super::factory::GateHold;
use super::{BrokeredSocketFactory, Target};
use crate::drivers::{RawLink, StackSpec};
use crate::nameservice::{GridId, PortRecord};
use crate::node::NodeCtx;
use crate::port::ReceivePortInner;
use crate::profile::NatClass;
use crate::wire::{ResumeMeta, SvcMsg};

/// First local port used for spliced connections (distinct from the
/// ephemeral range 10000+, data listeners 20000+, NAT mappings 40000+).
const SPLICE_PORT_BASE: u16 = 31_000;

/// NAT port prediction races with any concurrent outbound traffic on the
/// same site (each connection consumes mappings); like real NAT-traversal
/// systems, a splice is tried `ATTEMPTS` times before the walk moves on.
/// Before attempt `n + 1` it waits `n × STAGGER`, plus one `STAGGER_SLOT`
/// per step of the channel's slot (`channel % STAGGER_SLOTS`), so splices
/// from one site spread out.
const ATTEMPTS: u32 = 3;
const STAGGER: Duration = Duration::from_millis(200);
const STAGGER_SLOT: Duration = Duration::from_millis(50);
const STAGGER_SLOTS: u64 = 7;

/// Service-request deadline used during recovery, where the peer may have
/// died mid-request. Fault-free establishment passes no deadline (and thus
/// schedules no timer events).
const RECOVER_SVC_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a responder holding its NAT gate waits for the initiator's
/// `SPLICE_GO` before dropping the negotiation, so a dead initiator or a
/// lost GO cannot park every later dial under the gate. The GO follows the
/// REQ's reply by the initiator's own gate wait, one name-service probe
/// and its SYNs: round trips, not seconds.
const SPLICE_GO_DEADLINE: Duration = Duration::from_secs(10);

/// A peer's endpoint list that is not one per stream.
const MISMATCH: &str = "endpoint count mismatch";

/// A node's splicing state: its local splice ports and the negotiations it
/// answers.
#[derive(Default)]
pub(crate) struct Splices {
    /// Ports handed out so far, counted from [`SPLICE_PORT_BASE`].
    ports_used: AtomicU64,
    /// Responder-side negotiations awaiting the initiator's GO, by channel.
    pending: Arc<Mutex<HashMap<u64, PendingSplice>>>,
}

struct PendingSplice {
    port: Arc<ReceivePortInner>,
    /// One per stream of the port's spec.
    my_ports: Vec<u16>,
    /// The NAT gate, held from REQ until the negotiation is dropped: on
    /// GO, ABORT, a duplicate REQ or [`SPLICE_GO_DEADLINE`].
    _gate: Option<GateHold>,
    /// Drops the negotiation, and the gate with it, at [`SPLICE_GO_DEADLINE`].
    _deadline: Option<Timer>,
}

impl Splices {
    fn alloc_ports(&self, n: u16) -> Vec<u16> {
        let next = || self.ports_used.fetch_add(1, Ordering::Relaxed) as u16;
        (0..n)
            .map(|_| SPLICE_PORT_BASE.wrapping_add(next()))
            .collect()
    }
}

pub(super) fn splicing(
    f: &BrokeredSocketFactory,
    target: &Target,
    spec: &StackSpec,
    channel: u64,
    resume: Option<&ResumeMeta>,
) -> io::Result<Vec<RawLink>> {
    let mut attempt = 1;
    loop {
        match initiate(f, &target.rec, spec, channel, resume) {
            Err(_) if attempt < ATTEMPTS => {
                let slot = (channel % STAGGER_SLOTS) as u32;
                ctx::sleep(STAGGER * attempt + STAGGER_SLOT * slot);
                attempt += 1;
            }
            done => return done,
        }
    }
}

/// One splice, the initiator's side of the three messages.
fn initiate(
    f: &BrokeredSocketFactory,
    rec: &PortRecord,
    spec: &StackSpec,
    channel: u64,
    resume: Option<&ResumeMeta>,
) -> io::Result<Vec<RawLink>> {
    let relay = f.service_link()?;
    let total = spec.streams();
    // During recovery the responder may have died mid-negotiation;
    // bound the brokering round-trips so the tree can fall through.
    let svc_timeout = resume.map(|_| RECOVER_SVC_TIMEOUT);
    // 1. Request: responder allocates + predicts.
    let (port, streams) = (rec.name.clone(), total as u64);
    let req = SvcMsg::SpliceReq {
        channel,
        port,
        streams,
    };
    let peer_eps: Vec<SockAddr> = ctx::block_on(relay.service_call(rec.owner, &req, svc_timeout))?;
    if peer_eps.len() != total as usize {
        return Err(io::Error::new(io::ErrorKind::InvalidData, MISMATCH));
    }
    // 2. Predict and emit SYNs under the NAT gate.
    let launched = {
        let _gate = ctx::block_on(f.gate.hold());
        let my_ports = f.splices.alloc_ports(total);
        ctx::block_on(predict_endpoints(f, &my_ports)).and_then(|my_eps| {
            let syns = my_ports.iter().zip(&peer_eps);
            let streams = syns.map(|(&lp, &ep)| connect_from(f, lp, ep));
            Ok((streams.collect::<io::Result<Vec<_>>>()?, my_eps))
        })
    };
    let (streams, endpoints) = launched.inspect_err(|_| {
        // Tell the responder to abandon the negotiation (it may be
        // holding its NAT gate).
        let abort = SvcMsg::SpliceAbort { channel };
        let _ = ctx::block_on(relay.service_call::<_, ()>(rec.owner, &abort, None));
    })?;
    // 3. GO: the responder connects towards us.
    let go = SvcMsg::SpliceGo { channel, endpoints };
    ctx::block_on(relay.service_call::<_, ()>(rec.owner, &go, svc_timeout))?;
    // Wait for establishment, then send the stream preambles.
    let preamble = |(idx, stream): (usize, TcpStream)| {
        stream.wait_established()?;
        send_preamble(&stream, channel, idx as u16, total, resume)?;
        Ok(RawLink::Tcp(stream))
    };
    streams.into_iter().enumerate().map(preamble).collect()
}

/// Emit a SYN from local port `lp` towards `ep`. Retries are bounded, so a
/// failed prediction falls through to a retry or the next method in a few
/// seconds.
fn connect_from(f: &BrokeredSocketFactory, lp: u16, ep: SockAddr) -> io::Result<TcpStream> {
    let cfg = Some(TcpConfig {
        syn_retries: 2,
        ..f.host.tcp_config()
    });
    let local_port = Some(lp);
    f.host.connect_start(ep, ConnectOpts { local_port, cfg })
}

/// Compute the public endpoints peers must dial for our upcoming
/// connects from local `ports` (paper §6's NAT port prediction).
async fn predict_endpoints(f: &BrokeredSocketFactory, ports: &[u16]) -> io::Result<Vec<SockAddr>> {
    match f.profile.nat {
        None => Ok(ports
            .iter()
            .map(|&p| SockAddr::new(f.host.ip(), p))
            .collect()),
        // One probe per port: the cone mapping persists for any
        // destination.
        Some(NatClass::Cone) => {
            let mut eps = Vec::with_capacity(ports.len());
            for &p in ports {
                eps.push(f.ns.probe_observed(Some(p), false).await?);
            }
            Ok(eps)
        }
        // One probe from an ephemeral port reveals the allocation counter;
        // our next `n` outbound connections (in order) will take the
        // following ports.
        Some(NatClass::SymmetricPredictable) => {
            let observed = f.ns.probe_observed(None, false).await?;
            Ok(sequential_after(observed, ports.len()))
        }
        Some(NatClass::SymmetricRandom) => {
            let why = "unpredictable NAT: splicing not possible";
            Err(io::Error::new(io::ErrorKind::Unsupported, why))
        }
    }
}

/// The `n` mappings a sequential NAT allocates after `observed`, by its own
/// successor rule.
fn sequential_after(observed: SockAddr, n: usize) -> Vec<SockAddr> {
    std::iter::successors(Some(observed.port), |&p| Some(next_sequential_port(p)))
        .skip(1)
        .take(n)
        .map(|p| SockAddr::new(observed.ip, p))
        .collect()
}

// ------------------------------------------------------ responder side

/// `SPLICE_REQ`: allocate ports, predict endpoints (awaiting the NAT gate,
/// held until GO, ABORT or the deadline), reply with the predictions. The
/// stream count must be the named port's own, so a peer cannot make us
/// allocate (and probe for) more.
pub(crate) async fn on_request(
    f: &BrokeredSocketFactory,
    ctx: &NodeCtx,
    from: GridId,
    channel: u64,
    port: &str,
    asked: u64,
) -> io::Result<Vec<SockAddr>> {
    let channel = own_channel(from, channel)?;
    let unknown = || io::Error::new(io::ErrorKind::NotFound, "unknown receive port");
    let port = (ctx.resolve)(port).ok_or_else(unknown)?;
    let total = port.spec.streams();
    if asked != total as u64 {
        let why = "not the port's stream count";
        return Err(io::Error::new(io::ErrorKind::InvalidData, why));
    }
    if !f.profile.splice_capable() {
        let why = "this side cannot splice";
        return Err(io::Error::new(io::ErrorKind::Unsupported, why));
    }
    // A duplicate REQ for the same channel is a retry whose response
    // was lost to a relay failover: drop the stale negotiation (and
    // its gate hold) instead of deadlocking on a second acquire.
    f.splices.pending.lock().remove(&channel);
    let gate = f.gate.hold().await;
    let my_ports = f.splices.alloc_ports(total);
    let my_endpoints = predict_endpoints(f, &my_ports).await?;
    let _deadline = gate.as_ref().map(|_| {
        let (pending, sched) = (Arc::downgrade(&f.splices.pending), &ctx.sched);
        sched.timer(sched.now() + SPLICE_GO_DEADLINE, move || {
            if let Some(pending) = pending.upgrade() {
                pending.lock().remove(&channel);
            }
        })
    });
    let negotiation = PendingSplice {
        port,
        my_ports,
        _gate: gate,
        _deadline,
    };
    f.splices.pending.lock().insert(channel, negotiation);
    Ok(my_endpoints)
}

/// `SPLICE_GO`: emit our SYNs towards the initiator's endpoints (mappings
/// land on the predicted ports because the gate was held since REQ), then
/// drop the negotiation and with it the gate.
pub(crate) fn on_go(
    f: &BrokeredSocketFactory,
    ctx: &NodeCtx,
    from: GridId,
    channel: u64,
    eps: &[SockAddr],
) -> io::Result<()> {
    let channel = own_channel(from, channel)?;
    let none = || io::Error::new(io::ErrorKind::NotFound, "no pending splice");
    let pending = f.splices.pending.lock().remove(&channel).ok_or_else(none)?;
    if eps.len() != pending.my_ports.len() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, MISMATCH));
    }
    for (i, (&lp, &ep)) in pending.my_ports.iter().zip(eps).enumerate() {
        let stream = connect_from(f, lp, ep)?;
        let (ctx2, port) = (ctx.clone(), Arc::clone(&pending.port));
        ctx.sched
            .spawn_async(format!("splice-accept-{i}"), async move {
                // Once established, the same as an accepted connection.
                if ctx::wait_io(|| stream.poll_established()).await.is_ok() {
                    let _ = accept(&ctx2, &port, stream).await;
                }
            });
    }
    Ok(())
}

/// `SPLICE_ABORT`: drop the pending negotiation and free the gate.
pub(crate) fn on_abort(f: &BrokeredSocketFactory, from: GridId, channel: u64) -> io::Result<()> {
    let channel = own_channel(from, channel)?;
    f.splices.pending.lock().remove(&channel);
    Ok(())
}

/// The channel of a splice message from `from`, refused unless `from`
/// allocated it: its high bits are the initiator's grid id (see
/// `GridNode::alloc_channel`).
fn own_channel(from: GridId, channel: u64) -> io::Result<u64> {
    let theirs = || io::Error::new(io::ErrorKind::PermissionDenied, "not the sender's channel");
    Some(channel).filter(|c| c >> 24 == from).ok_or_else(theirs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsim_net::nat::NAT_PORT_BASE;
    use gridsim_net::Ip;

    /// Past the top of the port space the prediction wraps to the NAT's
    /// base, as the NAT's allocator does
    /// (`nat::tests::sequential_allocation_wraps_by_the_successor_rule`),
    /// instead of overflowing.
    #[test]
    fn prediction_at_the_top_of_the_port_range_wraps_like_the_nat() {
        let ip = Ip::new(131, 1, 1, 1);
        let ports: Vec<u16> = sequential_after(SockAddr::new(ip, u16::MAX - 1), 3)
            .iter()
            .map(|ep| ep.port)
            .collect();
        assert_eq!(ports, [u16::MAX, NAT_PORT_BASE, NAT_PORT_BASE + 1]);
    }
}
