//! Socket factories (paper §5.2, Fig. 8): "when a networking driver needs
//! to establish a connection, it delegates this to a socket factory which
//! builds the connection using the decision tree".
//!
//! Two factories exist, exactly as in NetIbis:
//!
//! * [`BootstrapSocketFactory`] — builds connections *without* any
//!   pre-existing link: plain client/server TCP, optionally through the
//!   site's SOCKS proxy (for strict sites). Used for name-service and
//!   relay connections.
//! * The **brokered** factory is the method-fallback loop in
//!   [`crate::node::GridNode`]: it negotiates over service links (splicing
//!   endpoints, NAT predictions) and therefore lives with the node runtime
//!   that owns those links.

use gridsim_net::{SockAddr, Waker};
use gridsim_tcp::{SimHost, TcpStream};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use crate::socks::socks_connect;

/// Retry budget for transient local dial failures (`AddrInUse`: the
/// ephemeral port space is momentarily exhausted during a connection
/// storm). Ports recycle as in-flight connects finish, so a short backoff
/// and retry degrades gracefully where the node used to fall over.
const DIAL_RETRIES: u32 = 8;
const DIAL_BACKOFF: Duration = Duration::from_millis(50);

/// Run `dial` with a bounded retry on [`io::ErrorKind::AddrInUse`]. Every
/// other error — and exhaustion that outlives the budget — propagates.
pub(crate) fn retry_addr_in_use<T>(mut dial: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut last = None;
    for _ in 0..=DIAL_RETRIES {
        match dial() {
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                last = Some(e);
                gridsim_net::ctx::sleep(DIAL_BACKOFF);
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

    /// Take the gate, waiting in FIFO order, if this gate serializes.
    pub(crate) fn hold(self: &Arc<Self>) -> Option<GateHold> {
        if !self.serializes {
            return None;
        }
        loop {
            {
                let mut st = self.state.lock();
                if !st.0 {
                    st.0 = true;
                    return Some(GateHold(Arc::clone(self)));
                }
                st.1.push_back(gridsim_net::ctx::waker());
            }
            gridsim_net::ctx::park("nat gate");
        }
    }

    /// Run `f` holding the gate, if this gate serializes.
    pub(crate) fn run<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        let _hold = self.hold();
        f()
    }
}

/// Builds bootstrap connections: direct TCP when the site allows outbound,
/// through the configured SOCKS proxy otherwise.
#[derive(Clone)]
pub struct BootstrapSocketFactory {
    host: SimHost,
    via_proxy: Option<SockAddr>,
}

impl BootstrapSocketFactory {
    pub fn new(host: SimHost, via_proxy: Option<SockAddr>) -> BootstrapSocketFactory {
        BootstrapSocketFactory { host, via_proxy }
    }

    /// The host this factory dials from.
    pub fn host(&self) -> &SimHost {
        &self.host
    }

    /// Does this factory tunnel through a proxy?
    pub fn proxied(&self) -> bool {
        self.via_proxy.is_some()
    }

    /// Open a bootstrap connection to a public service. A storm of
    /// concurrent dials can transiently exhaust the ephemeral port space;
    /// that surfaces as `AddrInUse` and is retried after a short backoff.
    pub fn connect(&self, addr: SockAddr) -> io::Result<TcpStream> {
        retry_addr_in_use(|| self.dial(addr))
    }

    /// One connection attempt, no retry.
    pub(crate) fn dial(&self, addr: SockAddr) -> io::Result<TcpStream> {
        match self.via_proxy {
            Some(proxy) => socks_connect(&self.host, proxy, addr),
            None => self.host.connect(addr),
        }
    }
}
