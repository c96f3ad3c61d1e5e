//! Shared measurement harness for the HPDC 2004 reproduction benchmarks.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` built on these helpers; see `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.

use gridsim_net::{topology, LinkParams, NatKind, NodeId, Sim, SockAddr};
use gridsim_tcp::{SimHost, TcpConfig};
use netgrid::{
    spawn_name_service, spawn_proxy, spawn_relay_mesh, ConnectivityProfile, CpuRates,
    EstablishMethod, GridEnv, GridNode, NatClass, PathControlConfig, RelayConfig, StackSpec,
};
use parking_lot::Mutex;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

pub const NS_PORT: u16 = 563;
pub const RELAY_PORT: u16 = 600;
pub const SOCKS_PORT: u16 = 1080;

/// Wire-trace digests for the golden-snapshot CI gate.
///
/// When `NETGRID_TRACE=<path>` is set, every simulation built through
/// [`grid_world`] (or any binary that calls [`trace::install`] on its own
/// `Sim`) records a digest of *every packet event* the world sees: a
/// rolling FNV-1a hash over `(time_ns, kind, src, dst, proto, wire_len)`
/// plus per-disposition counters. [`trace::flush`] writes one line per
/// simulation run and a combined footer to the path. Any wire-level
/// divergence — an extra packet, a shifted timestamp, a different drop —
/// changes the digest, so a byte-diff against `tests/golden/*.trace` is an
/// exact "traces are byte-identical" check at a fraction of the storage.
///
/// Recording is a pure observation: the tracer draws no randomness and
/// schedules no events, so enabling it cannot perturb the simulation.
pub mod trace {
    use gridsim_net::{Packet, Sim, SimTime, TraceKind};
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[derive(Default)]
    struct RunAcc {
        events: u64,
        sent: u64,
        forwarded: u64,
        delivered: u64,
        dropped: u64,
        hash: u64,
        last_ns: u64,
    }

    struct Sink {
        path: String,
        lines: Vec<String>,
        current: Option<Arc<Mutex<RunAcc>>>,
        combined: u64,
    }

    static SINK: Mutex<Option<Sink>> = Mutex::new(None);

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    fn fnv_u64(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    fn kind_code(k: TraceKind) -> u64 {
        match k {
            TraceKind::Sent => 0,
            TraceKind::Forwarded => 1,
            TraceKind::Delivered => 2,
            TraceKind::DropNoRoute => 3,
            TraceKind::DropFirewall => 4,
            TraceKind::DropNat => 5,
            TraceKind::DropLoss => 6,
            TraceKind::DropQueue => 7,
            TraceKind::DropNotLocal => 8,
            TraceKind::DropNoHandler => 9,
            TraceKind::DropLinkDown => 10,
        }
    }

    fn seal(sink: &mut Sink) {
        if let Some(acc) = sink.current.take() {
            let a = acc.lock();
            let run = sink.lines.len();
            sink.lines.push(format!(
                "run={} events={} sent={} fwd={} delivered={} drops={} last_ns={} hash={:016x}\n",
                run, a.events, a.sent, a.forwarded, a.delivered, a.dropped, a.last_ns, a.hash
            ));
            sink.combined = fnv_u64(sink.combined, a.hash);
        }
    }

    /// Attach a digest tracer to this simulation's world. No-op unless
    /// `NETGRID_TRACE` is set. Call once per `Sim`, before it runs traffic;
    /// each call seals the previous run into its own digest line.
    pub fn install(sim: &Sim) {
        let Ok(path) = std::env::var("NETGRID_TRACE") else {
            return;
        };
        let acc = {
            let mut g = SINK.lock();
            let sink = g.get_or_insert_with(|| Sink {
                path,
                lines: Vec::new(),
                current: None,
                combined: FNV_OFFSET,
            });
            seal(sink);
            let acc = Arc::new(Mutex::new(RunAcc {
                hash: FNV_OFFSET,
                ..RunAcc::default()
            }));
            sink.current = Some(Arc::clone(&acc));
            acc
        };
        sim.net().with(move |w| {
            w.set_tracer(Box::new(
                move |t: SimTime, kind: TraceKind, pkt: &Packet| {
                    let mut a = acc.lock();
                    a.events += 1;
                    a.last_ns = t.as_nanos();
                    match kind {
                        TraceKind::Sent => a.sent += 1,
                        TraceKind::Forwarded => a.forwarded += 1,
                        TraceKind::Delivered => a.delivered += 1,
                        _ => a.dropped += 1,
                    }
                    let mut h = a.hash;
                    h = fnv_u64(h, t.as_nanos());
                    h = fnv_u64(h, kind_code(kind));
                    h = fnv_u64(h, (pkt.src.ip.0 as u64) << 16 | pkt.src.port as u64);
                    h = fnv_u64(h, (pkt.dst.ip.0 as u64) << 16 | pkt.dst.port as u64);
                    h = fnv_u64(h, pkt.proto as u64);
                    h = fnv_u64(h, pkt.wire_len() as u64);
                    a.hash = h;
                },
            ));
        });
    }

    /// Seal the last run and write the digest file. Call at the end of
    /// `main` in every traced binary. No-op unless `NETGRID_TRACE` is set.
    pub fn flush() {
        let mut g = SINK.lock();
        let Some(sink) = g.as_mut() else { return };
        seal(sink);
        let mut out = String::new();
        for l in &sink.lines {
            out.push_str(l);
        }
        out.push_str(&format!(
            "total runs={} hash={:016x}\n",
            sink.lines.len(),
            sink.combined
        ));
        std::fs::write(&sink.path, out).expect("write NETGRID_TRACE file");
    }
}

/// An emulated WAN path between two sites.
#[derive(Clone, Debug)]
pub struct Wan {
    pub name: &'static str,
    /// Path capacity in bytes per second.
    pub capacity: f64,
    /// Round-trip time (split across the two site uplinks).
    pub rtt: Duration,
    /// Per-packet loss probability on the bottleneck uplink.
    pub loss: f64,
    /// Bottleneck queue in bytes.
    pub queue: u32,
}

impl Wan {
    /// The same path with no random loss: for runs that measure something
    /// other than loss recovery.
    pub fn lossless(mut self) -> Wan {
        self.loss = 0.0;
        self
    }
}

/// The Amsterdam—Rennes link of Fig. 9: "capacity 1.6 MB/s, typical latency
/// 30 ms". Loss calibrated so plain TCP lands near the paper's 56% of
/// capacity.
pub fn amsterdam_rennes() -> Wan {
    Wan {
        name: "Amsterdam-Rennes",
        capacity: 1.6e6,
        rtt: Duration::from_millis(30),
        loss: 0.004,
        // Room for several 64 KiB windows: era backbone routers buffered
        // well beyond one flow's window (see DESIGN.md §5 ablations).
        queue: 320 * 1024,
    }
}

/// The Delft—Sophia link of Fig. 10: "capacity 9 MB/s, typical latency
/// 43 ms". Low loss; the 64 KiB OS window is the binding constraint.
pub fn delft_sophia() -> Wan {
    Wan {
        name: "Delft-Sophia",
        capacity: 9e6,
        rtt: Duration::from_millis(43),
        loss: 0.0003,
        queue: 640 * 1024,
    }
}

/// Result of one bandwidth point.
#[derive(Clone, Debug)]
pub struct BwPoint {
    /// Application-level goodput in bytes/sec.
    pub bandwidth: f64,
    /// Segments the sending host's data connections (every TCP connection
    /// but its name-service link) had emitted, and bytes their data paths
    /// had copied, when the receiver took the last message.
    /// Simulation-determined, so identical on every machine.
    pub segs_sent: u64,
    pub bytes_copied: u64,
}

/// Options for a bandwidth run.
#[derive(Clone)]
pub struct BwRun {
    pub wan: Wan,
    pub spec: StackSpec,
    pub msg_size: usize,
    pub total_bytes: usize,
    pub seed: u64,
    pub rates: CpuRates,
    /// OS socket buffer limit (the paper-era 64 KiB default).
    pub window: u32,
    /// Payload redundancy for the synthetic workload (compressibility).
    pub redundancy: f64,
    /// Run the live path controller on the link (`GridEnv::path_control`).
    pub path_control: Option<PathControlConfig>,
}

impl BwRun {
    pub fn new(wan: Wan, spec: StackSpec, msg_size: usize) -> BwRun {
        BwRun {
            wan,
            spec,
            msg_size,
            total_bytes: 6 << 20,
            seed: 42,
            rates: CpuRates::default(),
            window: 64 * 1024,
            redundancy: gridzip::synth::GRID_REDUNDANCY,
            path_control: None,
        }
    }
}

/// What runs on the public backbone beside the name service.
#[derive(Default)]
pub struct Services {
    /// `None`: one relay on the name service's host. `Some((n, uplink))`:
    /// `n` meshed relays, each on a public host of its own behind `uplink`.
    pub relay_hosts: Option<(usize, LinkParams)>,
    /// Shard-queue depth of every relay, when not the default.
    pub queue_frames: Option<usize>,
    /// Index of a site whose gateway runs a SOCKS proxy on [`SOCKS_PORT`].
    pub proxy_site: Option<usize>,
}

/// A grid of sites with its public services up and listening.
pub struct GridWorld {
    /// Name service and relay list (in relay order) for nodes to join with.
    pub env: GridEnv,
    /// The built sites, in spec order.
    pub sites: Vec<topology::BuiltSite>,
    /// Node and service address of every relay.
    pub relays: Vec<(NodeId, SockAddr)>,
}

impl GridWorld {
    /// Host `i` of site `site`.
    pub fn host(&self, site: usize, i: usize) -> SimHost {
        SimHost::new(&self.env.net, self.sites[site].hosts[i])
    }
}

/// Build `specs` around a backbone carrying a name service, the relays and
/// the proxy `services` asks for, and run `sim` until they all listen.
pub fn grid_world(sim: &Sim, specs: &[topology::SiteSpec], services: Services) -> GridWorld {
    trace::install(sim);
    let net = sim.net();
    let (srv, relay_nodes, sites) = net.with(|w| {
        let mut grid = topology::Grid::build(w, specs);
        let (srv, _) = grid.add_public_host(w, "services");
        let relay_nodes: Vec<NodeId> = match services.relay_hosts {
            None => vec![srv],
            Some((n, uplink)) => (0..n)
                .map(|i| grid.add_public_host_with(w, &format!("relay{i}"), uplink).0)
                .collect(),
        };
        (srv, relay_nodes, grid.sites)
    });
    let hsrv = SimHost::new(&net, srv);
    let relay_hosts: Vec<SimHost> = relay_nodes.iter().map(|&n| SimHost::new(&net, n)).collect();
    let relay_addrs: Vec<SockAddr> = relay_hosts
        .iter()
        .map(|h| SockAddr::new(h.ip(), RELAY_PORT))
        .collect();
    let env =
        GridEnv::new(net.clone(), SockAddr::new(hsrv.ip(), NS_PORT)).with_relays(&relay_addrs);
    let proxy_host = services
        .proxy_site
        .map(|s| SimHost::new(&net, sites[s].gateway));
    let peers = relay_addrs.clone();
    sim.spawn("services", move || {
        spawn_name_service(&hsrv, NS_PORT).unwrap();
        for (i, host) in relay_hosts.iter().enumerate() {
            let mut cfg = RelayConfig {
                mesh_id: i as u64 + 1,
                peers: peers.iter().copied().filter(|&a| a != peers[i]).collect(),
                ..RelayConfig::default()
            };
            cfg.queue_frames = services.queue_frames.unwrap_or(cfg.queue_frames);
            spawn_relay_mesh(host, RELAY_PORT, cfg).unwrap();
        }
        if let Some(gw) = proxy_host {
            spawn_proxy(&gw, SOCKS_PORT).unwrap();
        }
    });
    sim.run();
    GridWorld {
        env,
        sites,
        relays: relay_nodes.into_iter().zip(relay_addrs).collect(),
    }
}

/// Build the standard two-site measurement world: sender site A, receiver
/// site B, services on the public backbone. The bottleneck (capacity,
/// loss, queue) sits on the sender uplink; delay is split across both.
pub fn measurement_world(sim: &Sim, wan: &Wan, window: u32) -> (GridEnv, SimHost, SimHost) {
    let half_delay = wan.rtt / 4; // one-way = rtt/2, split over two uplinks
    let bottleneck = LinkParams::new(wan.capacity, half_delay)
        .with_loss(wan.loss)
        .with_queue(wan.queue);
    let fat = LinkParams::new(1e9, half_delay).with_queue(8 << 20);
    let specs = [
        topology::SiteSpec::open("send-site", 1, bottleneck),
        topology::SiteSpec::open("recv-site", 1, fat),
    ];
    let world = grid_world(sim, &specs, Services::default());
    let (ha, hb) = (world.host(0, 0), world.host(1, 0));
    let cfg = TcpConfig {
        send_buf: window,
        recv_buf: window,
        ..TcpConfig::default()
    };
    ha.set_tcp_config(cfg);
    hb.set_tcp_config(cfg);
    (world.env, ha, hb)
}

/// Measure application goodput for one (wan, stack, message size) point.
/// Returns bytes/sec of simulated time, from the sender's first message to
/// the receiver's last.
pub fn measure_bandwidth(run: &BwRun) -> BwPoint {
    let sim = Sim::new(run.seed);
    let (env, ha, hb) = measurement_world(&sim, &run.wan, run.window);
    let mut env = env.with_rates(run.rates);
    env.path_control = run.path_control;
    let n_msgs = (run.total_bytes / run.msg_size).max(4);
    let payload = gridzip::synth::grid_payload(run.msg_size, run.redundancy, run.seed);

    let t0 = Arc::new(Mutex::new(None::<gridsim_net::SimTime>));
    let t_end = Arc::new(Mutex::new(None::<gridsim_net::SimTime>));

    let tcp_totals = Arc::new(Mutex::new((0u64, 0u64)));

    let env_b = env.clone();
    let te = Arc::clone(&t_end);
    let spec = run.spec.clone();
    let ns_addr = env.ns_addr;
    let (sender_host, totals) = (ha.clone(), Arc::clone(&tcp_totals));
    sim.spawn("receiver", move || {
        let node = GridNode::join(&env_b, hb, "recv", ConnectivityProfile::open()).unwrap();
        let rp = node.create_receive_port("bw", spec).unwrap();
        for _ in 0..n_msgs {
            let m = rp.receive().unwrap();
            assert!(!m.is_empty());
        }
        *te.lock() = Some(gridsim_net::ctx::now());
        // The sender's connections are still open here (it closes after
        // its last send returns); once closed the stack reaps them. Its
        // name-service link is not the data path: left out.
        *totals.lock() = sender_host.net().with(|w| {
            gridsim_tcp::stack::with_host(w, sender_host.node(), |host, _| {
                host.conns
                    .values()
                    .filter(|tcb| tcb.remote != ns_addr)
                    .fold((0, 0), |(segs, copied), tcb| {
                        (segs + tcb.stats.segs_sent, copied + tcb.stats.bytes_copied)
                    })
            })
        });
    });
    let env_a = env.clone();
    let ts = Arc::clone(&t0);
    sim.spawn("sender", move || {
        gridsim_net::ctx::sleep(Duration::from_millis(100));
        let node = GridNode::join(&env_a, ha, "send", ConnectivityProfile::open()).unwrap();
        let mut sp = node.create_send_port();
        sp.connect("bw").unwrap();
        *ts.lock() = Some(gridsim_net::ctx::now());
        for _ in 0..n_msgs {
            sp.send(&payload).unwrap();
        }
        sp.close().unwrap();
    });
    sim.run();
    let start = t0.lock().expect("sender started");
    let end = t_end.lock().expect("receiver finished");
    let secs = end.since(start).as_secs_f64();
    let bytes = n_msgs * run.msg_size;
    let (segs_sent, bytes_copied) = *tcp_totals.lock();
    BwPoint {
        bandwidth: bytes as f64 / secs,
        segs_sent,
        bytes_copied,
    }
}

/// E10 (§2/§3.4): one establishment method's world — two one-host sites,
/// the receiver's profile and the method the Fig-4 walk must settle on.
pub struct E10Scenario {
    pub name: &'static str,
    sites: [topology::SiteSpec; 2],
    sender_profile: ConnectivityProfile,
    receiver_profile: ConnectivityProfile,
    proxy_on_receiver_gw: bool,
    pub expect: EstablishMethod,
}

/// One-way delay of every E10 site uplink.
const E10_UPLINK: Duration = Duration::from_millis(5);
/// A host's round trip to the public backbone (name service, relay): the
/// unit E10 counts establishment in. Site to site is two of them.
pub const E10_RTT: Duration = E10_UPLINK.saturating_mul(2);

/// E10's five worlds, in the order `multisite establishment` prints them.
pub fn e10_scenarios() -> [E10Scenario; 5] {
    use topology::SiteSpec;
    let wan = LinkParams::mbps(4.0, E10_UPLINK);
    let open = || SiteSpec::open("a", 1, wan);
    let firewalled = |name| SiteSpec::firewalled(name, 1, wan);
    let random_nat = || SiteSpec::natted("a", 1, NatKind::SymmetricRandom, wan);
    [
        E10Scenario {
            name: "client/server (no brokering)",
            sites: [open(), SiteSpec::open("b", 1, wan)],
            sender_profile: ConnectivityProfile::open(),
            receiver_profile: ConnectivityProfile::open(),
            proxy_on_receiver_gw: false,
            expect: EstablishMethod::ClientServer,
        },
        E10Scenario {
            name: "TCP splicing (brokered via relay)",
            sites: [firewalled("a"), firewalled("b")],
            sender_profile: ConnectivityProfile::firewalled(),
            receiver_profile: ConnectivityProfile::firewalled(),
            proxy_on_receiver_gw: false,
            expect: EstablishMethod::Splicing,
        },
        E10Scenario {
            name: "splicing + NAT port prediction",
            sites: [
                SiteSpec::natted("a", 1, NatKind::SymmetricSequential, wan),
                firewalled("b"),
            ],
            sender_profile: ConnectivityProfile::natted(NatClass::SymmetricPredictable),
            receiver_profile: ConnectivityProfile::firewalled(),
            proxy_on_receiver_gw: false,
            expect: EstablishMethod::Splicing,
        },
        E10Scenario {
            name: "SOCKS proxy",
            sites: [random_nat(), firewalled("b")],
            sender_profile: ConnectivityProfile::natted(NatClass::SymmetricRandom),
            receiver_profile: ConnectivityProfile::firewalled(),
            proxy_on_receiver_gw: true,
            expect: EstablishMethod::Proxy,
        },
        E10Scenario {
            name: "routed messages",
            sites: [random_nat(), firewalled("b")],
            sender_profile: ConnectivityProfile::natted(NatClass::SymmetricRandom),
            receiver_profile: ConnectivityProfile::firewalled(),
            proxy_on_receiver_gw: false,
            expect: EstablishMethod::Routed,
        },
    ]
}

/// How long `SendPort::connect` took in `sc`'s world (sim time), and the
/// method it settled on.
pub fn connect_delay(sc: &E10Scenario) -> (Duration, EstablishMethod) {
    let sim = Sim::new(31);
    let services = Services {
        proxy_site: sc.proxy_on_receiver_gw.then_some(1),
        ..Services::default()
    };
    let world = grid_world(&sim, &sc.sites, services);
    let mut receiver_profile = sc.receiver_profile.clone();
    if sc.proxy_on_receiver_gw {
        let proxy = SockAddr::new(world.sites[1].gateway_public_ip, SOCKS_PORT);
        receiver_profile = receiver_profile.with_proxy(proxy);
    }
    let out: Arc<Mutex<Option<(gridsim_net::SimTime, gridsim_net::SimTime, EstablishMethod)>>> =
        Arc::new(Mutex::new(None));
    {
        let env = world.env.clone();
        let host = world.host(1, 0);
        sim.spawn("recv", move || {
            let node = GridNode::join(&env, host, "recv", receiver_profile).unwrap();
            let rp = node
                .create_receive_port("delay", StackSpec::plain())
                .unwrap();
            let _ = rp.receive();
        });
    }
    {
        let env = world.env.clone();
        let host = world.host(0, 0);
        let profile = sc.sender_profile.clone();
        let out = Arc::clone(&out);
        sim.spawn("send", move || {
            gridsim_net::ctx::sleep(Duration::from_millis(200));
            let node = GridNode::join(&env, host, "send", profile).unwrap();
            let mut sp = node.create_send_port();
            let t0 = gridsim_net::ctx::now();
            let m = sp.connect("delay").unwrap();
            let t1 = gridsim_net::ctx::now();
            sp.send(b"done").unwrap();
            let _ = sp.close();
            *out.lock() = Some((t0, t1, m));
        });
    }
    sim.run();
    let (t0, t1, m) = out.lock().take().expect("connected");
    (t1.since(t0), m)
}

/// Pretty-print helpers shared by the figure binaries.
pub fn print_header(title: &str, wan: &Wan) {
    println!("================================================================");
    println!("{title}");
    println!(
        "WAN: {} — capacity {:.1} MB/s, RTT {} ms, loss {:.2}%  (OS window 64 KiB)",
        wan.name,
        wan.capacity / 1e6,
        wan.rtt.as_millis(),
        wan.loss * 100.0
    );
    println!("================================================================");
}

pub fn fmt_mb(bps: f64) -> String {
    format!("{:5.2}", bps / 1e6)
}

/// A bench bin's command line: an optional subcommand, then `--flag` and
/// `--flag value` arguments in any order.
pub struct Cli(Vec<String>);

/// A subcommand's name and entry point.
pub type Subcommand = (&'static str, fn(&Cli));

impl Cli {
    pub fn from_env() -> Cli {
        Cli(std::env::args().skip(1).collect())
    }

    pub fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The argument after `flag`, parsed; one that does not parse ends the
    /// run naming the flag.
    pub fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let v = self.0.get(self.0.iter().position(|a| a == flag)? + 1)?;
        match v.parse() {
            Ok(t) => Some(t),
            Err(_) => {
                eprintln!("{flag}: cannot parse {v:?}");
                std::process::exit(2);
            }
        }
    }

    pub fn quick(&self) -> bool {
        self.flag("--quick")
    }

    /// Where a suite writes its rows: `--out`, else `default` in the cwd.
    pub fn out(&self, default: &str) -> String {
        self.value("--out").unwrap_or_else(|| default.into())
    }

    /// Run the subcommand the first argument names; anything else prints
    /// the names and exits 2.
    pub fn dispatch(&self, bin: &str, subcommands: &[Subcommand]) {
        let named = self.0.first().map(String::as_str);
        match subcommands.iter().find(|(name, _)| named == Some(name)) {
            Some((_, run)) => run(self),
            None => {
                let names: Vec<&str> = subcommands.iter().map(|(name, _)| *name).collect();
                eprintln!("usage: {bin} <{}> [flags]", names.join("|"));
                std::process::exit(2);
            }
        }
    }
}

/// One row of a `BENCH_*.json` file, columns in writing order.
#[derive(Default)]
pub struct JsonRow(Vec<String>);

impl JsonRow {
    /// A numeric column; floats come formatted to the column's precision
    /// (`format_args!("{:.1}", ms)`), which is part of the file format.
    pub fn num(mut self, name: &str, value: impl Display) -> JsonRow {
        self.0.push(format!("\"{name}\": {value}"));
        self
    }

    pub fn text(mut self, name: &str, value: &str) -> JsonRow {
        let value = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.0.push(format!("\"{name}\": \"{value}\""));
        self
    }
}

/// Write `rows` to `path` as the flat array of flat objects `check_bench`
/// reads, one row per line, and return the text written.
pub fn write_json(path: &str, rows: &[JsonRow]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| format!("  {{{}}}", r.0.join(", ")))
        .collect();
    let json = format!("[\n{}\n]\n", lines.join(",\n"));
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
    json
}
