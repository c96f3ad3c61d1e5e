//! Property-based tests of the netgrid wire formats and driver stacks.

use netgrid::drivers::BlockReader;
use netgrid::nameservice::{NodeRecord, PortRecord};
use netgrid::wire::{
    read_frame, Frame, FrameReader, FrameWriter, Preamble, ReconfigAck, ResumeMeta, ResumeReply,
    MAX_MESSAGE,
};
use netgrid::{ConnectivityProfile, FirewallClass, NatClass, PathParams, StackSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io;

/// One peer-facing encoding — a piece of the data-link protocol
/// (`wire.rs`) or a name-service record — as bytes out and bytes in, so
/// one harness drives every decoder.
trait Codec: Sized + PartialEq + std::fmt::Debug {
    /// May a strict prefix of an encoding decode? Only where the encoding
    /// ends in an optional field.
    const OPTIONAL_TAIL: bool = false;
    fn enc(&self) -> Vec<u8>;
    fn dec(bytes: &[u8]) -> io::Result<Self>;
}

/// Decoding `bytes` ends in a value or a typed error. (That it does not
/// panic, and reserves nothing for a count it has not checked, is the
/// test finishing.)
fn total<T: Codec>(bytes: &[u8]) -> Result<Option<T>, TestCaseError> {
    match T::dec(bytes) {
        Ok(x) => Ok(Some(x)),
        Err(e) => {
            let kind = e.kind();
            prop_assert!(
                matches!(
                    kind,
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::InvalidData
                ),
                "{bytes:?} decodes to an untyped error: {e}"
            );
            Ok(None)
        }
    }
}

/// `decode(encode(x)) == x`; every strict prefix of the encoding is a typed
/// error; the encoding with one byte damaged (`flip` picks the byte and the
/// bits) and `garbage` on its own are a value or a typed error.
fn holds<T: Codec>(x: &T, flip: (usize, u8), garbage: &[u8]) -> Result<(), TestCaseError> {
    let mut bytes = x.enc();
    let back = total::<T>(&bytes)?;
    prop_assert_eq!(back.as_ref(), Some(x));
    for cut in 0..bytes.len() {
        let short = total::<T>(&bytes[..cut])?;
        prop_assert!(
            short.is_none() || T::OPTIONAL_TAIL,
            "{cut} of {} bytes of {x:?} decode to {short:?}",
            bytes.len()
        );
    }
    if !bytes.is_empty() {
        let at = flip.0 % bytes.len();
        bytes[at] ^= flip.1;
        total::<T>(&bytes)?;
    }
    total::<T>(garbage)?;
    Ok(())
}

impl Codec for Preamble {
    fn enc(&self) -> Vec<u8> {
        self.frame().into_bytes()
    }
    fn dec(bytes: &[u8]) -> io::Result<Self> {
        Preamble::decode(bytes)
    }
}

/// A resume reply is uncounted: both ends know how many channels the
/// preamble listed. Here, always four.
impl Codec for ResumeReply {
    fn enc(&self) -> Vec<u8> {
        self.frame().into_bytes()
    }
    fn dec(bytes: &[u8]) -> io::Result<Self> {
        ResumeReply::decode(bytes, 4)
    }
}

impl Codec for ReconfigAck {
    fn enc(&self) -> Vec<u8> {
        self.frame().into_bytes()
    }
    fn dec(bytes: &[u8]) -> io::Result<Self> {
        ReconfigAck::decode(bytes)
    }
}

impl Codec for PathParams {
    fn enc(&self) -> Vec<u8> {
        let fields = self.wire_fields();
        fields
            .iter()
            .fold(FrameWriter::new(), |fw, &f| fw.u64(f))
            .into_bytes()
    }
    fn dec(bytes: &[u8]) -> io::Result<Self> {
        let mut r = FrameReader::new(bytes);
        PathParams::from_wire_fields([r.u64()?, r.u64()?, r.u64()?])
    }
}

/// Frames are read off the receiver stack's cursor, with one byte of
/// read-ahead here so every field is its own read.
impl Codec for Frame {
    fn enc(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write(&mut bytes).unwrap();
        bytes
    }
    fn dec(bytes: &[u8]) -> io::Result<Self> {
        Frame::read(&mut BlockReader::new(bytes, 1))
    }
}

impl Codec for PortRecord {
    fn enc(&self) -> Vec<u8> {
        self.put(&self.name, FrameWriter::new()).into_bytes()
    }
    fn dec(bytes: &[u8]) -> io::Result<Self> {
        PortRecord::get(&mut FrameReader::new(bytes))
    }
}

/// The id is the asker's (a lookup) or the registry's to assign; here 7.
impl Codec for NodeRecord {
    /// A record cut before its relay list is one without.
    const OPTIONAL_TAIL: bool = true;
    fn enc(&self) -> Vec<u8> {
        NodeRecord::put(FrameWriter::new(), &self.name, &self.profile, &self.relays).into_bytes()
    }
    fn dec(bytes: &[u8]) -> io::Result<Self> {
        NodeRecord::get(7, &mut FrameReader::new(bytes))
    }
}

fn profile_of(fw: u8, nat: u8, private: bool, proxy: Option<(u32, u16)>) -> ConnectivityProfile {
    ConnectivityProfile {
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
        socks_proxy: proxy.map(|(ip, port)| gridsim_net::SockAddr::new(gridsim_net::Ip(ip), port)),
    }
}

fn path_of((stripes, block_size, level): (u16, u32, Option<u8>)) -> PathParams {
    PathParams {
        stripes,
        block_size,
        compression_level: level,
    }
}

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
        let p = profile_of(fw, nat, private, proxy);
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
        use netgrid::{choose_methods, LinkPurpose};
        let mk = |fw: u8, nat: u8| profile_of(fw, nat, nat != 0, None);
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

    /// The stream preamble, on a TCP stream and split over a relay OPEN
    /// and the routed stream's first frame.
    #[test]
    fn preamble_codec_holds(
        channel in 0u64..1 << 63,
        slot in (1u16..=u16::MAX, any::<u16>()),
        resume in proptest::option::of((
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), "\\PC{0,24}"), 0..6),
        )),
        flip in (any::<usize>(), any::<u8>()),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let pre = Preamble {
            channel,
            idx: slot.1 % slot.0,
            total: slot.0,
            resume: resume.map(|(gen, extras)| ResumeMeta { gen, extras }),
        };
        holds(&pre, flip, &garbage)?;
        let routed = Preamble { idx: 0, total: 1, ..pre };
        let first_frame = || Ok(routed.resume_frame().expect("asked for only then").into_bytes());
        let back = Preamble::decode_routed(routed.routed_channel(), first_frame).unwrap();
        prop_assert_eq!(back, routed);
    }

    /// The four frames a data link carries behind its preamble.
    #[test]
    fn frame_codec_holds(
        msg in (any::<u64>(), 0..=MAX_MESSAGE),
        open in proptest::collection::vec((any::<u64>(), "\\PC{0,40}"), 0..8),
        reconfig in (
            any::<u64>(),
            (1u16..=u16::MAX, 1u32..=MAX_MESSAGE as u32, proptest::option::of(1..=gridzip::MAX_LEVEL)),
        ),
        flip in (any::<usize>(), any::<u8>()),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let (channel, len) = (msg.0, msg.1 as usize);
        let (epoch, params) = (reconfig.0, path_of(reconfig.1));
        holds(&Frame::Msg { channel, len }, flip, &garbage)?;
        holds(&Frame::Open(open), flip, &garbage)?;
        holds(&Frame::Close { channel }, flip, &garbage)?;
        holds(&Frame::Reconfig { epoch, params }, flip, &garbage)?;
    }

    /// What the receiver writes back on stream 0, and the three fields a
    /// stack spec and a RECONFIG share.
    #[test]
    fn reply_and_path_codecs_hold(
        watermarks in proptest::array::uniform4(any::<u64>()),
        ack in (any::<u64>(), proptest::collection::vec((any::<u64>(), any::<u64>()), 0..8)),
        path in (1u16..=u16::MAX, 1u32..=MAX_MESSAGE as u32, proptest::option::of(1..=gridzip::MAX_LEVEL)),
        flip in (any::<usize>(), any::<u8>()),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        holds(&ResumeReply(watermarks.to_vec()), flip, &garbage)?;
        let (epoch, delivered) = ack;
        holds(&ReconfigAck { epoch, delivered }, flip, &garbage)?;
        holds(&path_of(path), flip, &garbage)?;
    }

    /// Name-service records, as a registration carries them and as a
    /// lookup returns them.
    #[test]
    fn ns_record_codecs_hold(
        port in (any::<u64>(), "\\PC{0,32}", proptest::option::of((any::<u32>(), any::<u16>()))),
        stack in proptest::collection::vec(any::<u8>(), 0..16),
        node in ("\\PC{0,32}", 0u8..3, 0u8..4, any::<bool>()),
        relays in proptest::collection::vec((any::<u32>(), any::<u16>()), 0..4),
        flip in (any::<usize>(), any::<u8>()),
    ) {
        let addr = |(ip, port)| gridsim_net::SockAddr::new(gridsim_net::Ip(ip), port);
        let (owner, name, listener) = port;
        let listener = listener.map(addr);
        holds(&PortRecord { owner, name, listener, stack: stack.clone() }, flip, &stack)?;
        let (name, fw, nat, private) = node;
        let record = NodeRecord {
            id: 7,
            name,
            profile: profile_of(fw, nat, private, None),
            relays: relays.into_iter().map(addr).collect(),
        };
        holds(&record, flip, &stack)?;
    }
}

/// Counts a peer declares and does not back with bytes: each ends in a
/// typed error, and none is believed far enough to reserve memory for (the
/// first would be an allocation of 2^64 bytes).
#[test]
fn declared_counts_are_not_believed() {
    let varints = |fields: &[u64]| {
        let fw = fields.iter().fold(FrameWriter::new(), |fw, &f| fw.u64(f));
        fw.into_bytes()
    };
    let flagged = (1 << 63) | 7;
    let kind = |e: io::Error| e.kind();
    let invalid = io::ErrorKind::InvalidData;
    let eof = io::ErrorKind::UnexpectedEof;
    let ack = ReconfigAck::dec(&varints(&[1, u64::MAX]));
    assert_eq!(ack.map_err(kind), Err(invalid));
    // At the limit the count is taken, and the entries then fail to arrive;
    // one past it the count itself is refused.
    let resume = |n| Preamble::dec(&varints(&[flagged, 0, 1, 1, n])).map_err(kind);
    assert_eq!(
        (resume(1 << 16), resume((1 << 16) + 1)),
        (Err(invalid), Err(invalid))
    );
    let open = |n| Frame::dec(&varints(&[1, n])).map_err(kind);
    assert_eq!((open(4096), open(4097)), (Err(eof), Err(invalid)));
    let name = |len| Frame::dec(&varints(&[1, 1, 9, len])).map_err(kind);
    assert_eq!((name(4096), name(4097)), (Err(eof), Err(invalid)));
    let msg = |len| Frame::dec(&varints(&[0, 9, len]));
    assert_eq!(
        msg(MAX_MESSAGE).unwrap(),
        Frame::Msg {
            channel: 9,
            len: MAX_MESSAGE as usize
        }
    );
    assert_eq!(msg(MAX_MESSAGE + 1).map_err(kind), Err(invalid));
}

/// An IP is 32 bits: a wider varint is refused, not truncated to another
/// host — alone, in a name-service record and in an address list (splice
/// endpoints, relay lists) alike. The port beside it always was checked.
#[test]
fn wide_addresses_are_refused() {
    let kind = |e: io::Error| e.kind();
    let invalid = io::ErrorKind::InvalidData;
    for ip in [1 << 32, (1 << 32) | 0x0a00_0001, u64::MAX] {
        let addr = FrameWriter::new().u64(ip).u64(80).into_bytes();
        assert_eq!(FrameReader::new(&addr).addr().map_err(kind), Err(invalid));
        let list = FrameWriter::new().u64(1).u64(ip).u64(80).into_bytes();
        assert_eq!(FrameReader::new(&list).addrs().map_err(kind), Err(invalid));
        let record = FrameWriter::new().u64(7).str("port").u8(1).u64(ip).u64(80);
        let record = record.bytes(b"").into_bytes();
        assert_eq!(PortRecord::dec(&record).map_err(kind), Err(invalid));
    }
}
