//! **E1/E2 — Table 1 and Figure 4**: the establishment-method property
//! matrix and the decision tree.
//!
//! Prints Table 1 exactly as the paper states it (the properties are also
//! asserted in `netgrid::establish` unit tests), then exercises the
//! Figure-4 decision tree across representative connectivity-profile pairs
//! showing which method the runtime would attempt first.
//!
//! Usage: `table1_matrix [--decision]` (the flag prints only the tree demo)

use gridsim_net::{Ip, SockAddr};
use netgrid::establish::decision::LinkPurpose;
use netgrid::{choose_methods, ConnectivityProfile, EstablishMethod, NatClass};

fn yes_no(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn print_table1() {
    println!("Table 1: Connection establishment methods summary");
    println!("{}", "=".repeat(78));
    let methods = EstablishMethod::PRECEDENCE;
    print!("{:<18}", "");
    for m in methods {
        print!("{:>16}", m.name());
    }
    println!();
    println!("{}", "-".repeat(82));
    type Cell = Box<dyn Fn(EstablishMethod) -> String>;
    let rows: Vec<(&str, Cell)> = vec![
        (
            "Crosses firewalls",
            Box::new(|m: EstablishMethod| yes_no(m.properties().crosses_firewalls).into()),
        ),
        (
            "NAT support",
            Box::new(|m: EstablishMethod| m.properties().nat_support.to_string()),
        ),
        (
            "For bootstrap",
            Box::new(|m: EstablishMethod| yes_no(m.properties().for_bootstrap).into()),
        ),
        (
            "Native TCP",
            Box::new(|m: EstablishMethod| yes_no(m.properties().native_tcp).into()),
        ),
        (
            "Relayed",
            Box::new(|m: EstablishMethod| yes_no(m.properties().relayed).into()),
        ),
        (
            "Needs brokering",
            Box::new(|m: EstablishMethod| yes_no(m.properties().needs_brokering).into()),
        ),
    ];
    for (label, f) in rows {
        print!("{label:<18}");
        for m in methods {
            print!("{:>16}", f(m));
        }
        println!();
    }
    println!();
}

fn print_decision_tree() {
    println!("Figure 4: decision-tree outcomes per connectivity scenario");
    println!("{}", "=".repeat(78));
    let proxy = SockAddr::new(Ip::new(131, 9, 0, 1), 1080);
    let profiles: Vec<(&str, ConnectivityProfile)> = vec![
        ("open", ConnectivityProfile::open()),
        ("firewalled", ConnectivityProfile::firewalled()),
        (
            "fw+proxy",
            ConnectivityProfile::firewalled().with_proxy(proxy),
        ),
        ("cone NAT", ConnectivityProfile::natted(NatClass::Cone)),
        (
            "sym NAT (pred.)",
            ConnectivityProfile::natted(NatClass::SymmetricPredictable),
        ),
        (
            "sym NAT (random)",
            ConnectivityProfile::natted(NatClass::SymmetricRandom),
        ),
    ];
    for purpose in [LinkPurpose::Data, LinkPurpose::Bootstrap] {
        println!("\n--- link purpose: {purpose:?} ---");
        print!("{:<18}", "from \\ to");
        for (name, _) in &profiles {
            print!("{name:>17}");
        }
        println!();
        for (from_name, from) in &profiles {
            print!("{from_name:<18}");
            for (_, to) in &profiles {
                let methods = choose_methods(from, to, purpose);
                let first = methods.first().map(|m| short(m)).unwrap_or("-");
                print!("{first:>17}");
            }
            println!();
        }
    }
    println!();
    println!("(cell = first method attempted; runtime falls back down the Fig. 4 ordering)");
}

fn short(m: &EstablishMethod) -> &'static str {
    match m {
        EstablishMethod::ClientServer => "client/server",
        EstablishMethod::Splicing => "splicing",
        EstablishMethod::Proxy => "proxy",
        EstablishMethod::Routed => "routed",
    }
}

fn main() {
    if !netgrid_bench::Cli::from_env().flag("--decision") {
        print_table1();
    }
    print_decision_tree();
}
