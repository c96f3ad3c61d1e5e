//! The simulated deployments the workloads and the isolated layer
//! benchmarks run on. Traffic crosses simulated links only.

use std::time::Duration;

use gridsim_net::{topology, LinkParams, NatKind, Sim, SockAddr};
use gridsim_tcp::{SimHost, TcpConfig};
use netgrid::{
    spawn_name_service, spawn_proxy, spawn_relay, ConnectivityProfile, CpuRates, EstablishMethod,
    GridEnv, NatClass,
};

pub const NS_PORT: u16 = 563;
pub const RELAY_PORT: u16 = 600;
pub const SOCKS_PORT: u16 = 1080;

/// An emulated wide-area path between two sites.
#[derive(Clone, Copy, Debug)]
pub struct Wan {
    /// Bottleneck capacity in bytes per second.
    pub capacity: f64,
    pub rtt: Duration,
    /// Per-packet loss probability on the bottleneck uplink.
    pub loss: f64,
    /// Bottleneck queue in bytes.
    pub queue: u32,
}

/// 1 GB/s, 2 ms, clean: the path costs nothing, so host time is the
/// stack's own. (Simulated goodput is then set by the sites' 100 Mbit/s
/// LANs, `topology::lan_params`.)
pub const CLEAN_FAST: Wan = Wan {
    capacity: 1e9,
    rtt: Duration::from_millis(2),
    loss: 0.0,
    queue: 8 << 20,
};

/// Fig. 9's path: 1.6 MB/s, 30 ms, lossy (EXPERIMENTS.md calibration).
pub const AMSTERDAM_RENNES: Wan = Wan {
    capacity: 1.6e6,
    rtt: Duration::from_millis(30),
    loss: 0.004,
    queue: 320 * 1024,
};

/// Fig. 10's path: 9 MB/s, 43 ms, low loss; the 64 KiB window binds.
pub const DELFT_SOPHIA: Wan = Wan {
    capacity: 9e6,
    rtt: Duration::from_millis(43),
    loss: 0.0003,
    queue: 640 * 1024,
};

/// How both sites of a two-site world meet the internet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SiteKind {
    Open,
    Firewalled,
    /// Site A behind a random-port symmetric NAT, site B behind a stateful
    /// firewall: neither splicing nor a proxy can work, so the Fig. 4 walk
    /// ends at `Routed`.
    RandomNatToFirewalled,
}

impl SiteKind {
    /// Connectivity profiles of (site A, site B).
    pub fn profiles(self) -> (ConnectivityProfile, ConnectivityProfile) {
        match self {
            SiteKind::Open => (ConnectivityProfile::open(), ConnectivityProfile::open()),
            SiteKind::Firewalled => (
                ConnectivityProfile::firewalled(),
                ConnectivityProfile::firewalled(),
            ),
            SiteKind::RandomNatToFirewalled => (
                ConnectivityProfile::natted(NatClass::SymmetricRandom),
                ConnectivityProfile::firewalled(),
            ),
        }
    }

    /// The method a connect from site A to site B must end with.
    pub fn expected_method(self) -> EstablishMethod {
        match self {
            SiteKind::Open => EstablishMethod::ClientServer,
            SiteKind::Firewalled => EstablishMethod::Splicing,
            SiteKind::RandomNatToFirewalled => EstablishMethod::Routed,
        }
    }
}

/// Two one-host sites and a public services host (name service + relay,
/// already running when this returns). The bottleneck sits on site A's
/// uplink; the delay is split over both uplinks.
pub struct TwoSites {
    pub env: GridEnv,
    pub a: SimHost,
    pub b: SimHost,
}

pub fn two_sites(sim: &Sim, wan: Wan, kind: SiteKind, window: u32, rates: CpuRates) -> TwoSites {
    let net = sim.net();
    let quarter = wan.rtt / 4;
    let bottleneck = LinkParams::new(wan.capacity, quarter)
        .with_loss(wan.loss)
        .with_queue(wan.queue);
    let fat = LinkParams::new(1e9, quarter).with_queue(8 << 20);
    let site = |name: &str, uplink| match kind {
        SiteKind::Open => topology::SiteSpec::open(name, 1, uplink),
        SiteKind::Firewalled => topology::SiteSpec::firewalled(name, 1, uplink),
        SiteKind::RandomNatToFirewalled if name == "site-a" => {
            topology::SiteSpec::natted(name, 1, NatKind::SymmetricRandom, uplink)
        }
        SiteKind::RandomNatToFirewalled => topology::SiteSpec::firewalled(name, 1, uplink),
    };
    let (srv, a, b) = net.with(|w| {
        let mut grid = topology::Grid::build(w, &[site("site-a", bottleneck), site("site-b", fat)]);
        let (srv, _) = grid.add_public_host(w, "services");
        (srv, grid.sites[0].hosts[0], grid.sites[1].hosts[0])
    });
    let srv = SimHost::new(&net, srv);
    let a = SimHost::new(&net, a);
    let b = SimHost::new(&net, b);
    let cfg = TcpConfig {
        send_buf: window,
        recv_buf: window,
        ..TcpConfig::default()
    };
    a.set_tcp_config(cfg);
    b.set_tcp_config(cfg);
    let env = GridEnv::new(net, SockAddr::new(srv.ip(), NS_PORT))
        .with_relay(SockAddr::new(srv.ip(), RELAY_PORT))
        .with_rates(rates);
    sim.spawn("services", move || {
        spawn_name_service(&srv, NS_PORT).expect("name service starts");
        spawn_relay(&srv, RELAY_PORT).expect("relay starts");
    });
    sim.run();
    TwoSites { env, a, b }
}

/// The E7 four-site deployment (EXPERIMENTS.md §E7): two stateful
/// firewalls, a sequential symmetric NAT, and a random symmetric NAT whose
/// gateway runs a SOCKS proxy; 2 MB/s · 8 ms uplinks; name service and
/// relay on a public host, already running when this returns.
pub struct Mesh {
    pub env: GridEnv,
    pub hosts: Vec<SimHost>,
    pub profiles: Vec<ConnectivityProfile>,
}

pub const MESH_SITES: [&str; 4] = ["amsterdam", "rennes", "berlin", "poznan"];

/// The establishment method E7 records for `from` → `to`.
pub fn e7_method(from: usize, to: usize) -> EstablishMethod {
    const POZNAN: usize = 3;
    if from == POZNAN {
        EstablishMethod::Routed
    } else if to == POZNAN {
        EstablishMethod::Proxy
    } else {
        EstablishMethod::Splicing
    }
}

pub fn e7_mesh(sim: &Sim) -> Mesh {
    let net = sim.net();
    let wan = LinkParams::mbps(2.0, Duration::from_millis(8));
    let specs = [
        topology::SiteSpec::firewalled(MESH_SITES[0], 1, wan),
        topology::SiteSpec::firewalled(MESH_SITES[1], 1, wan),
        topology::SiteSpec::natted(MESH_SITES[2], 1, NatKind::SymmetricSequential, wan),
        topology::SiteSpec::natted(MESH_SITES[3], 1, NatKind::SymmetricRandom, wan),
    ];
    let (srv, hosts, proxy_gw, proxy_ip) = net.with(|w| {
        let mut grid = topology::Grid::build(w, &specs);
        let (srv, _) = grid.add_public_host(w, "services");
        let hosts: Vec<_> = grid.sites.iter().map(|s| s.hosts[0]).collect();
        (
            srv,
            hosts,
            grid.sites[3].gateway,
            grid.sites[3].gateway_public_ip,
        )
    });
    let profiles = vec![
        ConnectivityProfile::firewalled(),
        ConnectivityProfile::firewalled(),
        ConnectivityProfile::natted(NatClass::SymmetricPredictable),
        ConnectivityProfile::natted(NatClass::SymmetricRandom)
            .with_proxy(SockAddr::new(proxy_ip, SOCKS_PORT)),
    ];
    let srv = SimHost::new(&net, srv);
    let gw = SimHost::new(&net, proxy_gw);
    let env = GridEnv::new(net.clone(), SockAddr::new(srv.ip(), NS_PORT))
        .with_relay(SockAddr::new(srv.ip(), RELAY_PORT));
    sim.spawn("services", move || {
        spawn_name_service(&srv, NS_PORT).expect("name service starts");
        spawn_relay(&srv, RELAY_PORT).expect("relay starts");
        spawn_proxy(&gw, SOCKS_PORT).expect("site proxy starts");
    });
    sim.run();
    Mesh {
        env,
        hosts: hosts.into_iter().map(|h| SimHost::new(&net, h)).collect(),
        profiles,
    }
}
