//! # netgrid — integrated wide-area communication for grids
//!
//! A Rust reproduction of the system presented in *"Wide-Area Communication
//! for Grids: An Integrated Solution to Connectivity, Performance and
//! Security Problems"* (Denis, Aumage, Hofman, Verstoep, Kielmann, Bal —
//! HPDC 2004): the NetIbis runtime, rebuilt over a deterministic network
//! simulator.
//!
//! The paper's two orthogonal concerns map onto two module groups:
//!
//! **Connection establishment** ([`establish`], [`nameservice`], [`relay`],
//! [`socks`], [`node`]): standard client/server TCP, TCP splicing
//! (simultaneous SYN, brokered over relay service links, with NAT port
//! prediction), SOCKS5 proxies, and routed messages through an
//! application-level relay — selected by the Figure-4 decision tree from
//! each node's [`profile::ConnectivityProfile`], with runtime fallback.
//!
//! **Link utilization** ([`drivers`], [`cpu`], [`port`]): block aggregation
//! with explicit flush (TCP_Block), parallel TCP streams, gridzip
//! compression, and GTLS encryption — freely composable filter drivers over
//! any established link, configured by a [`drivers::StackSpec`].
//!
//! ## Quickstart
//!
//! A complete run (see `examples/` at the workspace root for larger ones):
//!
//! ```
//! use gridsim_net::{topology, LinkParams, Sim, SockAddr};
//! use gridsim_tcp::SimHost;
//! use netgrid::*;
//! use std::time::Duration;
//!
//! // A simulated internet: two firewalled sites + public services host.
//! let sim = Sim::new(1);
//! let net = sim.net();
//! let wan = LinkParams::mbps(2.0, Duration::from_millis(8));
//! let (srv, a, b) = net.with(|w| {
//!     let mut grid = gridsim_net::topology::Grid::build(w, &[
//!         topology::SiteSpec::firewalled("x", 1, wan),
//!         topology::SiteSpec::firewalled("y", 1, wan),
//!     ]);
//!     let (srv, _) = grid.add_public_host(w, "services");
//!     (srv, grid.sites[0].hosts[0], grid.sites[1].hosts[0])
//! });
//! let hsrv = SimHost::new(&net, srv);
//! let env = GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), 563))
//!     .with_relay(SockAddr::new(hsrv.ip(), 600));
//! sim.spawn("services", move || {
//!     spawn_name_service(&hsrv, 563).unwrap();
//!     spawn_relay(&hsrv, 600).unwrap();
//! });
//! sim.run();
//!
//! let (ha, hb) = (SimHost::new(&net, a), SimHost::new(&net, b));
//! let env2 = env.clone();
//! sim.spawn("receiver", move || {
//!     let node = GridNode::join(&env2, hb, "y0", ConnectivityProfile::firewalled()).unwrap();
//!     let rp = node.create_receive_port("results", StackSpec::plain()).unwrap();
//!     assert_eq!(rp.receive().unwrap().as_slice(), b"hello grid");
//! });
//! sim.spawn("sender", move || {
//!     gridsim_net::ctx::sleep(Duration::from_millis(100));
//!     let node = GridNode::join(&env, ha, "x0", ConnectivityProfile::firewalled()).unwrap();
//!     let mut sp = node.create_send_port();
//!     // The decision tree picks TCP splicing: both sites are firewalled.
//!     assert_eq!(sp.connect("results").unwrap(), EstablishMethod::Splicing);
//!     sp.send(b"hello grid").unwrap();
//!     sp.close().unwrap();
//! });
//! sim.run();
//! ```

pub mod cpu;
pub mod drivers;
pub mod establish;
pub(crate) mod link;
pub mod nameservice;
pub mod node;
pub mod pool;
pub mod port;
pub mod profile;
pub mod relay;
pub(crate) mod resume;
pub mod rpc;
pub(crate) mod session;
pub mod socks;
pub mod tune;
pub mod wire;

pub use cpu::{CpuModel, CpuRates, HostCpu};
pub use drivers::{PathParams, RawLink, StackSpec};
pub use establish::{choose_methods, EstablishMethod, LinkPurpose};
pub use nameservice::{spawn_name_service, GridId, NsClient};
pub use node::{GridEnv, GridNode};
pub use pool::{BlockBuf, BlockPool, PoolStats};
pub use port::{ReadMessage, ReceivePort, SendPort, WriteMessage};
pub use profile::{ConnectivityProfile, FirewallClass, NatClass};
pub use relay::{
    spawn_relay, spawn_relay_mesh, RelayClient, RelayConfig, RelayDelegate, RoutedStream, SvcReply,
};
pub use resume::ResendOverflow;
pub use rpc::RpcClient;
pub use socks::{socks_connect, spawn_proxy};
pub use tune::{PathControlConfig, PathController, PathStats};
