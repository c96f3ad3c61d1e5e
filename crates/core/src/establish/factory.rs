//! Socket factories (paper §5.2, Fig. 8): "when a networking driver needs
//! to establish a connection, it delegates this to a socket factory which
//! builds the connection using the decision tree".
//!
//! Two factories exist, exactly as in NetIbis:
//!
//! * [`BootstrapSocketFactory`] — builds connections *without* any
//!   pre-existing link: plain client/server TCP, optionally through a
//!   SOCKS proxy. Its dial is a node's only one: name-service and relay
//!   connections, and the streams of the client/server and proxy
//!   connectors. (A relay dials its mesh peers, and the name server a
//!   CONNECT_BACK, with `SimHost::connect_start`, awaited.)
//! * [`BrokeredSocketFactory`] — one per node, what its Figure-4
//!   connectors share ([`EstablishMethod::connector`]): the NAT gate, the
//!   splice ports and negotiations, and the service link to the relay that
//!   splicing is brokered over and routed streams ride.
//!
//! [`EstablishMethod::connector`]: super::EstablishMethod::connector

use gridsim_net::{ctx, SimMutex, SimMutexGuard, SockAddr};
use gridsim_tcp::{ConnectOpts, SimHost, TcpStream};
use std::future::Future;
use std::io;
use std::sync::Arc;

pub(crate) use super::splice::Splices;
use crate::link::{dial, Backoff};
use crate::nameservice::NsClient;
use crate::profile::{ConnectivityProfile, NatClass};
use crate::relay::RelayClient;
use crate::socks::socks_connect;

/// Nine dials, 50 ms after each transient local failure (`AddrInUse`: the
/// ephemeral port space is momentarily exhausted during a connection
/// storm). Ports recycle as in-flight connects finish, so a short backoff
/// and retry degrades gracefully where the node used to fall over.
pub(crate) const DIAL_RETRY: Backoff = Backoff::ms(9, 50, 50);

/// Await `dial` with a bounded retry on [`io::ErrorKind::AddrInUse`]. Every
/// other error — and exhaustion that outlives the budget — propagates.
async fn retry_addr_in_use<T, F>(mut dial: impl FnMut() -> F) -> io::Result<T>
where
    F: Future<Output = io::Result<T>>,
{
    let mut last = Err(io::ErrorKind::AddrInUse.into());
    for delay in DIAL_RETRY.delays() {
        last = dial().await;
        if !matches!(&last, Err(e) if e.kind() == io::ErrorKind::AddrInUse) {
            break;
        }
        ctx::delay(delay).await;
    }
    last
}

/// Serializes a node's NAT-mapping-creating operations so that splicing
/// port predictions hold: a symmetric NAT allocates one external port per
/// outbound flow, so any connection opened between "predict" and "SYN"
/// would shift the counter. A FIFO gate whose hold is a value, so a splice
/// negotiation can keep it across separate service-handler invocations.
///
/// Only a gate built with `serializes` set ever parks anyone: a cone NAT
/// maps per internal endpoint, so concurrent flows cannot shift each
/// other's mappings, and gating them would serialize a connection storm
/// for nothing.
pub(crate) struct NatGate(Option<SimMutex<()>>);

/// A held [`NatGate`]; dropping it releases the gate to the next waiter.
pub(crate) type GateHold = SimMutexGuard<()>;

impl NatGate {
    pub(crate) fn new(serializes: bool) -> NatGate {
        NatGate(serializes.then(|| SimMutex::new(())))
    }

    /// The gate of a node with this profile. Only symmetric NATs allocate
    /// one external port per *flow*, so only they make port predictions
    /// order-sensitive. A cone NAT maps per internal endpoint: concurrent
    /// flows cannot shift each other's mappings, so walks to unrelated
    /// peers run concurrently (single-flight stays per-LinkKey).
    pub(crate) fn for_profile(profile: &ConnectivityProfile) -> Arc<NatGate> {
        let symmetric = matches!(
            profile.nat,
            Some(NatClass::SymmetricPredictable | NatClass::SymmetricRandom)
        );
        Arc::new(NatGate::new(symmetric))
    }

    /// Take the gate, waiting in FIFO order under `nat gate`, if this gate
    /// serializes.
    pub(crate) async fn hold(&self) -> Option<GateHold> {
        let gate = self.0.as_ref()?;
        Some(ctx::wait("nat gate", || gate.poll_lock()).await)
    }
}

/// Builds bootstrap connections: direct TCP when the site allows outbound,
/// through the configured SOCKS proxy otherwise.
#[derive(Clone)]
pub struct BootstrapSocketFactory {
    host: SimHost,
    via_proxy: Option<SockAddr>,
    /// Taken by each dial attempt; a gate that never serializes unless
    /// the factory dials for a symmetric-NAT node.
    gate: Arc<NatGate>,
}

impl BootstrapSocketFactory {
    pub fn new(host: SimHost, via_proxy: Option<SockAddr>) -> BootstrapSocketFactory {
        let gate = Arc::new(NatGate::new(false));
        BootstrapSocketFactory {
            host,
            via_proxy,
            gate,
        }
    }

    /// This factory, its dials creating NAT flows under `gate`.
    pub(crate) fn under(self, gate: Arc<NatGate>) -> BootstrapSocketFactory {
        BootstrapSocketFactory { gate, ..self }
    }

    /// The one dial: open a connection to `addr`, direct or through the
    /// proxy, holding the gate. A storm of concurrent dials can
    /// transiently exhaust the ephemeral port space; that surfaces as
    /// `AddrInUse` and is retried after a short backoff, outside the gate,
    /// so a symmetric-NAT node never sleeps while holding it.
    pub async fn connect(&self, addr: SockAddr) -> io::Result<TcpStream> {
        retry_addr_in_use(|| async {
            let _hold = self.gate.hold().await;
            match self.via_proxy {
                Some(proxy) => socks_connect(&self.host, proxy, addr).await,
                None => dial(&self.host, addr, ConnectOpts::default()).await,
            }
        })
        .await
    }
}

/// What a node's connectors share. The node holds one and reaches the
/// methods only through its Figure-4 walk and its relay delegate.
pub(crate) struct BrokeredSocketFactory {
    pub host: SimHost,
    pub profile: ConnectivityProfile,
    /// The node's bootstrap link; NAT-prediction probes go through it.
    pub ns: NsClient,
    /// The node's service link: splicing is brokered over it, routed
    /// streams ride it.
    pub relay: Option<RelayClient>,
    /// Serializes NAT-mapping-creating operations on this node; shared
    /// with the name-service client, whose link dial creates a flow.
    pub gate: Arc<NatGate>,
    pub splices: Splices,
}

impl BrokeredSocketFactory {
    pub(super) fn service_link(&self) -> io::Result<&RelayClient> {
        let why = "no relay configured (needed for brokering/routing)";
        let none = || io::Error::new(io::ErrorKind::AddrNotAvailable, why);
        self.relay.as_ref().ok_or_else(none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Choice, Greeting, SocksMsg, SocksReply, SocksRequest, CMD_CONNECT};
    use crate::wire::{METHOD_NONE, REP_OK};
    use gridsim_net::{topology, LinkParams, Sim, SimTime, TraceKind};
    use gridsim_tcp::Segment;
    use parking_lot::Mutex;
    use std::io::{Read, Write};
    use std::time::Duration;

    /// How the dial runs.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Form {
        /// Awaited in an async task.
        Polled,
        /// Under `ctx::block_on`, in a task that parks.
        Blocking,
        /// The dial as a blocking body, written out: the gate's park loop,
        /// `SimHost::connect`, the SOCKS messages by `Write` and `Read`.
        Written,
    }

    fn written_dial(f: &BootstrapSocketFactory, addr: SockAddr) -> io::Result<TcpStream> {
        let gate = f.gate.0.as_ref();
        let _hold = gate.map(|g| ctx::park_until("nat gate", || g.poll_lock()));
        let s = f.host.connect(f.via_proxy.expect("a proxy"))?;
        (&s).write_all(&Greeting(vec![METHOD_NONE]).encode())?;
        let mut choice = [0; 2];
        (&s).read_exact(&mut choice)?;
        assert_eq!(Choice::decode(&choice)?, Choice(Some(METHOD_NONE)));
        let cmd = CMD_CONNECT;
        (&s).write_all(&SocksRequest { cmd, target: addr }.encode())?;
        let mut reply = [0; 10];
        (&s).read_exact(&mut reply)?;
        assert_eq!(SocksReply::decode(&reply)?, SocksReply(REP_OK));
        Ok(s)
    }

    /// A dial through a SOCKS proxy on a public host, from a host whose
    /// serializing NAT gate another task holds for the first 5 ms, to a
    /// listener on a second site, in `form`: every TCP segment the world
    /// sent — instant, ends, flags, numbers, payload — every park of the
    /// run, and the instant the dial returned.
    fn gated_proxied_dial(form: Form) -> (Vec<String>, Vec<(String, i64)>, SimTime) {
        let sim = Sim::new(3);
        let net = sim.net();
        let wan = LinkParams::mbps(8.0, Duration::from_millis(5));
        let (a, b, p, p_ip) = net.with(|w| {
            let open = |name| topology::SiteSpec::open(name, 1, wan);
            let mut grid = topology::Grid::build(w, &[open("a"), open("b")]);
            let (p, ip) = grid.add_public_host(w, "proxy");
            (grid.sites[0].hosts[0], grid.sites[1].hosts[0], p, ip)
        });
        let (ha, hb, hp) = (
            SimHost::new(&net, a),
            SimHost::new(&net, b),
            SimHost::new(&net, p),
        );
        let target = SockAddr::new(hb.ip(), 7000);
        sim.spawn("servers", move || {
            crate::socks::spawn_proxy(&hp, 1080).unwrap();
            let listener = hb.listen(7000).unwrap();
            ctx::handle().spawn_async("accept", async move {
                let _kept = crate::link::next_conn(&listener).await;
                ctx::delay(Duration::from_secs(1)).await;
            });
        });
        sim.run();
        let sent = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&sent);
        net.with(|w| {
            w.set_tracer(Box::new(move |t, kind, pkt| {
                let seg = pkt.payload.as_any().downcast_ref::<Segment>();
                if let Some(s) = seg.filter(|_| kind == TraceKind::Sent) {
                    let (src, dst, f, n) = (pkt.src, pkt.dst, s.flags, s.data.len());
                    let seg = format!("{t:?} {src}>{dst} {f:?} {} {} {} {n}", s.seq, s.ack, s.wnd);
                    log.lock().push(seg);
                }
            }))
        });
        let gate = Arc::new(NatGate::new(true));
        let proxy = SockAddr::new(p_ip, 1080);
        let f = BootstrapSocketFactory::new(ha, Some(proxy)).under(Arc::clone(&gate));
        sim.spawn("holder", move || {
            let _hold = ctx::block_on(gate.hold());
            ctx::sleep(Duration::from_millis(5));
        });
        let done = Arc::new(Mutex::new(None));
        let d = Arc::clone(&done);
        let note = move |s: io::Result<TcpStream>| *d.lock() = s.ok().map(|_| ctx::now());
        let h = sim.scheduler().handle();
        match form {
            Form::Polled => {
                h.spawn_async("dial", async move { note(f.connect(target).await) });
            }
            Form::Blocking => {
                h.spawn("dial", move || note(ctx::block_on(f.connect(target))));
            }
            Form::Written => {
                h.spawn("dial", move || note(written_dial(&f, target)));
            }
        }
        sim.run();
        let parks = h.metrics().into_iter().filter(|(m, _)| m.0 == "task/parks");
        let parks = parks.map(|(m, n)| (m.2.to_string(), n)).collect();
        let at = done.lock().expect("the dial went through");
        let sent = sent.lock().clone();
        (sent, parks, at)
    }

    /// The dial through the proxy and the NAT gate, awaited, sends the
    /// packets the blocking dial sends when it sends them, waits on the
    /// gate until the holder lets go, parks where it parked, and returns
    /// when it returned — whether it is polled in an async task, run under
    /// `ctx::block_on`, or written out as the blocking body it replaced.
    #[test]
    fn the_awaited_dial_through_a_proxy_and_the_gate_sends_what_the_blocking_one_sent() {
        let written = gated_proxied_dial(Form::Written);
        assert!(written.0.len() > 10, "{} segments", written.0.len());
        assert!(written.2.as_nanos() > 5_000_000, "the dial beat the gate");
        let nat_gate = written.1.iter().find(|(why, _)| why == "nat gate");
        assert_eq!(nat_gate.map(|p| p.1), Some(1), "{:?}", written.1);
        for form in [Form::Polled, Form::Blocking] {
            let (sent, parks, at) = gated_proxied_dial(form);
            assert!(sent == written.0, "{form:?}: the segments differ");
            assert_eq!((parks, at), (written.1.clone(), written.2), "{form:?}");
        }
    }
}
