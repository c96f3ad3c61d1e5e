//! E10's establishment budget, in round trips: `SendPort::connect` on each
//! of the five Fig-4 methods costs the round trips DESIGN.md §9 numbers for
//! it, and no more. The unit is a host's round trip to the public backbone
//! (`E10_RTT`, 10 ms); site to site is two of them. The simulation decides
//! every delay, so the only slack is what a LAN hop, the backbone and
//! serialization add: less than half a round trip.

use netgrid_bench::{connect_delay, e10_scenarios, E10_RTT};

/// Round trips of each E10 method's sequence, in `e10_scenarios()` order
/// (DESIGN.md §9).
const BUDGET: [(&str, u32); 5] = [
    // lookup; SYN, SYN-ACK across both uplinks.
    ("client/server (no brokering)", 3),
    // lookup; SPLICE_REQ and its reply via the relay; SPLICE_GO and its
    // reply, the responder's SYN landing with it; SYN-ACK, ACK.
    ("TCP splicing (brokered via relay)", 7),
    // as splicing, plus the prediction probe's handshake and OBSERVED.
    ("splicing + NAT port prediction", 9),
    // lookup; handshake with the peer site's proxy; SOCKS greeting;
    // CONNECT and its reply.
    ("SOCKS proxy", 7),
    // lookup; OPEN through the relay and its OPEN_OK.
    ("routed messages", 3),
];

#[test]
fn each_method_costs_its_round_trips_and_brokering_costs_more() {
    let mut brokered = Vec::new();
    let mut direct = Vec::new();
    for (sc, (name, n)) in e10_scenarios().iter().zip(BUDGET) {
        assert_eq!(sc.name, name);
        let (delay, method) = connect_delay(sc);
        assert_eq!(method, sc.expect, "{name} settled on {method}");
        let rtts = delay.as_secs_f64() / E10_RTT.as_secs_f64();
        let n = f64::from(n);
        assert!(
            (n..n + 0.5).contains(&rtts),
            "{name}: {delay:?} is {rtts:.2} round trips, budget {n}"
        );
        if method.properties().needs_brokering {
            brokered.push((name, delay));
        } else {
            direct.push((name, delay));
        }
    }
    // §3.4: "methods without brokering are preferable over the ones
    // requiring it": every brokered method is dearer than every other.
    for (b, bd) in &brokered {
        for (d, dd) in &direct {
            assert!(
                bd > dd,
                "brokered {b} ({bd:?}) not dearer than {d} ({dd:?})"
            );
        }
    }
}
