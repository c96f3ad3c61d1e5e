//! Property-based tests of the netgrid wire formats and driver stacks.

use netgrid::wire::{read_frame, FrameReader, FrameWriter};
use netgrid::StackSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Frame field sequences round-trip for arbitrary values.
    #[test]
    fn frame_fields_roundtrip(
        a in any::<u8>(),
        b in any::<u64>(),
        s in "\\PC{0,64}",
        raw in proptest::collection::vec(any::<u8>(), 0..256),
        ip in any::<u32>(),
        port in any::<u16>(),
    ) {
        let addr = gridsim_net::SockAddr::new(gridsim_net::Ip(ip), port);
        let mut wire = Vec::new();
        FrameWriter::new()
            .u8(a)
            .u64(b)
            .str(&s)
            .bytes(&raw)
            .addr(addr)
            .opt_addr(Some(addr))
            .opt_addr(None)
            .send(&mut wire)
            .unwrap();
        let frame = read_frame(&mut std::io::Cursor::new(wire)).unwrap();
        let mut r = FrameReader::new(&frame);
        prop_assert_eq!(r.u8().unwrap(), a);
        prop_assert_eq!(r.u64().unwrap(), b);
        prop_assert_eq!(r.str().unwrap(), s);
        prop_assert_eq!(r.bytes().unwrap(), &raw[..]);
        prop_assert_eq!(r.addr().unwrap(), addr);
        prop_assert_eq!(r.opt_addr().unwrap(), Some(addr));
        prop_assert_eq!(r.opt_addr().unwrap(), None);
        prop_assert!(r.is_empty());
    }

    /// Decoding truncated frames never panics.
    #[test]
    fn frame_decode_is_total(garbage in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut r = FrameReader::new(&garbage);
        let _ = r.u8();
        let _ = r.u64();
        let _ = r.str();
        let _ = r.addr();
        let _ = r.opt_addr();
    }

    /// StackSpec encoding round-trips for every valid configuration.
    #[test]
    fn stack_spec_roundtrip(
        streams in 1u16..64,
        block in 1u32..1_000_000,
        level in proptest::option::of(1..=gridzip::MAX_LEVEL),
        secure in any::<bool>(),
        reserved in 1u8..=255,
    ) {
        let mut spec = StackSpec::plain().with_streams(streams).with_block_size(block);
        if let Some(l) = level {
            spec = spec.with_compression(l);
        }
        if secure {
            spec = spec.with_security();
        }
        let mut bytes = spec.encode();
        prop_assert_eq!(StackSpec::decode(&bytes).unwrap(), spec);
        // The trailing byte is reserved: anything but 0 is refused.
        *bytes.last_mut().unwrap() = reserved;
        let err = StackSpec::decode(&bytes).unwrap_err();
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Profile encoding round-trips (all field combinations).
    #[test]
    fn profile_roundtrip(
        fw in 0u8..3,
        nat in 0u8..4,
        private in any::<bool>(),
        proxy in proptest::option::of((any::<u32>(), any::<u16>())),
    ) {
        use netgrid::{ConnectivityProfile, FirewallClass, NatClass};
        let p = ConnectivityProfile {
            firewall: match fw {
                0 => FirewallClass::None,
                1 => FirewallClass::Stateful,
                _ => FirewallClass::Strict,
            },
            nat: match nat {
                0 => None,
                1 => Some(NatClass::Cone),
                2 => Some(NatClass::SymmetricPredictable),
                _ => Some(NatClass::SymmetricRandom),
            },
            private_addr: private,
            socks_proxy: proxy
                .map(|(ip, port)| gridsim_net::SockAddr::new(gridsim_net::Ip(ip), port)),
        };
        let bytes = p.encode(FrameWriter::new()).into_bytes();
        let mut r = FrameReader::new(&bytes);
        prop_assert_eq!(ConnectivityProfile::decode(&mut r).unwrap(), p);
    }

    /// The decision tree always returns at least one method, and routed
    /// messages appear whenever the first choice needs fallback insurance.
    #[test]
    fn decision_tree_total(
        fw_a in 0u8..3, nat_a in 0u8..4, fw_b in 0u8..3, nat_b in 0u8..4,
        bootstrap in any::<bool>(),
    ) {
        use netgrid::{choose_methods, ConnectivityProfile, FirewallClass, LinkPurpose, NatClass};
        let mk = |fw: u8, nat: u8| ConnectivityProfile {
            firewall: match fw {
                0 => FirewallClass::None,
                1 => FirewallClass::Stateful,
                _ => FirewallClass::Strict,
            },
            nat: match nat {
                0 => None,
                1 => Some(NatClass::Cone),
                2 => Some(NatClass::SymmetricPredictable),
                _ => Some(NatClass::SymmetricRandom),
            },
            private_addr: nat != 0,
            socks_proxy: None,
        };
        let purpose = if bootstrap { LinkPurpose::Bootstrap } else { LinkPurpose::Data };
        let methods = choose_methods(&mk(fw_a, nat_a), &mk(fw_b, nat_b), purpose);
        prop_assert!(!methods.is_empty());
        // Precedence must respect the paper's ordering.
        let rank = |m: &netgrid::EstablishMethod| {
            netgrid::EstablishMethod::PRECEDENCE.iter().position(|x| x == m).unwrap()
        };
        for w in methods.windows(2) {
            prop_assert!(rank(&w[0]) < rank(&w[1]), "method order violates precedence");
        }
    }
}
