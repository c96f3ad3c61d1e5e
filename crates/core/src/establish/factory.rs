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

use gridsim_net::{SockAddr, Waker};
use gridsim_tcp::{SimHost, TcpStream};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::task::Poll;

pub(crate) use super::splice::Splices;
use crate::link::Backoff;
use crate::nameservice::NsClient;
use crate::profile::{ConnectivityProfile, NatClass};
use crate::relay::RelayClient;
use crate::socks::socks_connect;

/// Nine dials, 50 ms after each transient local failure (`AddrInUse`: the
/// ephemeral port space is momentarily exhausted during a connection
/// storm). Ports recycle as in-flight connects finish, so a short backoff
/// and retry degrades gracefully where the node used to fall over.
pub(crate) const DIAL_RETRY: Backoff = Backoff::ms(9, 50, 50);

/// Run `dial` with a bounded retry on [`io::ErrorKind::AddrInUse`]. Every
/// other error — and exhaustion that outlives the budget — propagates.
fn retry_addr_in_use<T>(mut dial: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut last = None;
    for delay in DIAL_RETRY.delays() {
        match dial() {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                last = Some(e);
                gridsim_net::ctx::sleep(delay);
            }
            r => return r,
        }
    }
    Err(last.expect("retry loop ran at least once"))
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
pub(crate) struct NatGate {
    serializes: bool,
    state: Mutex<(bool, VecDeque<Waker>)>,
}

/// A held [`NatGate`]; dropping it releases the gate to the next waiter.
pub(crate) struct GateHold(Arc<NatGate>);

impl Drop for GateHold {
    fn drop(&mut self) {
        let mut st = self.0.state.lock();
        st.0 = false;
        if let Some(w) = st.1.pop_front() {
            w.wake();
        }
    }
}

impl NatGate {
    pub(crate) fn new(serializes: bool) -> NatGate {
        NatGate {
            serializes,
            state: Mutex::default(),
        }
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

    /// Take the gate, waiting in FIFO order, if this gate serializes.
    pub(crate) fn hold(self: &Arc<Self>) -> Option<GateHold> {
        if !self.serializes {
            return None;
        }
        Some(gridsim_net::ctx::park_until("nat gate", || {
            let mut st = self.state.lock();
            if !st.0 {
                st.0 = true;
                return Poll::Ready(GateHold(Arc::clone(self)));
            }
            st.1.push_back(gridsim_net::ctx::waker());
            Poll::Pending
        }))
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
    pub fn connect(&self, addr: SockAddr) -> io::Result<TcpStream> {
        retry_addr_in_use(|| {
            let _hold = self.gate.hold();
            match self.via_proxy {
                Some(proxy) => socks_connect(&self.host, proxy, addr),
                None => self.host.connect(addr),
            }
        })
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
