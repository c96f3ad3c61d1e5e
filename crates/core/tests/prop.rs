//! Property-based tests of the netgrid wire formats and driver stacks.

use bytes::Bytes;
use gridsim_net::{Ip, SockAddr};
use netgrid::drivers::{BlockRead, BlockReader};
use netgrid::wire::{Choice, Greeting, SocksMsg, SocksReply, SocksRequest};
use netgrid::wire::{Envelope, NodeRecord, NsRequest, PortRecord, RelayMsg, Reply, SvcMsg};
use netgrid::wire::{Frame, FrameReader, FrameWriter, Preamble, ReconfigAck, MAX_FRAME};
use netgrid::wire::{Put, ResumeMeta, ResumeReply, RpcReply, RpcRequest, Wire, MAX_MESSAGE};
use netgrid::{ConnectivityProfile, FirewallClass, NatClass, PathParams, StackSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io;

/// One peer-facing encoding — a data-link frame, a control-protocol
/// message (`wire/`), a record or a reply — as bytes out and bytes in, so
/// one harness drives every decoder.
trait Codec: Sized + PartialEq + std::fmt::Debug {
    /// May a strict prefix of this value's encoding decode? Only where the
    /// encoding ends in an optional tail, or in a payload that runs to the
    /// end of its message.
    fn optional_tail(&self) -> bool {
        false
    }
    fn enc(&self) -> Vec<u8>;
    fn dec(bytes: &[u8]) -> io::Result<Self>;
}

/// [`Codec`] for types with a [`Wire`] form, each with the values whose
/// prefixes may decode.
macro_rules! wire_codec {
    ($($t:ty $(=> |$x:ident| $tail:expr)?),* $(,)?) => {$(
        impl Codec for $t {
            $(fn optional_tail(&self) -> bool {
                let $x = self;
                $tail
            })?
            fn enc(&self) -> Vec<u8> {
                self.encode().into_bytes()
            }
            fn dec(bytes: &[u8]) -> io::Result<Self> {
                <$t>::decode(&Bytes::copy_from_slice(bytes))
            }
        }
    )*};
}

wire_codec!(
    Preamble,
    ReconfigAck,
    PortRecord,
    ConnectivityProfile,
    SvcMsg,
    Envelope,
    Reply<u64>,
    Reply<()>,
    Reply<bool>,
    Reply<SockAddr>,
    Reply<Vec<String>>,
    Reply<Vec<SockAddr>>,
    Reply<(PortRecord, ConnectivityProfile)>,
    // A record cut before its relay list is one without.
    NodeRecord => |n| !n.relays.is_empty(),
    Reply<NodeRecord> => |r| r.as_ref().is_ok_and(|n| !n.relays.is_empty()),
    NsRequest => |q| matches!(q, NsRequest::Register { node } if !node.relays.is_empty()),
    // A NOPEER may leave its echo out.
    RelayMsg => |m| matches!(m, RelayMsg::Nopeer { echo: Some(_), .. }),
    // The payload is the rest of the message.
    RpcRequest => |r| !r.payload.is_empty(),
    RpcReply => |r| !r.payload.is_empty(),
);

/// [`Codec`] for SOCKS's messages, read off a stream: bytes behind the
/// message are the next one's, so its decoder refuses them.
macro_rules! socks_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn enc(&self) -> Vec<u8> {
                self.encode().to_vec()
            }
            fn dec(bytes: &[u8]) -> io::Result<Self> {
                <$t as SocksMsg>::decode(bytes)
            }
        }
    )*};
}

socks_codec!(Greeting, Choice, SocksRequest, SocksReply);

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

/// The output of a future that is ready at its first poll: a decode whose
/// input is in hand.
fn ready<T>(fut: impl std::future::Future<Output = T>) -> T {
    let cx = &mut std::task::Context::from_waker(std::task::Waker::noop());
    match std::pin::pin!(fut).poll(cx) {
        std::task::Poll::Ready(out) => out,
        std::task::Poll::Pending => panic!("a decode with its input in hand waits"),
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
            short.is_none() || x.optional_tail(),
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
            .opt_addr(Some(addr))
            .opt_addr(None)
            .send(&mut wire)
            .unwrap();
        let frame = BlockReader::new(&wire[..], 1).frame(MAX_FRAME).unwrap();
        let mut r = FrameReader::new(&frame);
        prop_assert_eq!(r.u8().unwrap(), a);
        prop_assert_eq!(r.u64().unwrap(), b);
        prop_assert_eq!(r.str().unwrap(), s);
        prop_assert_eq!(r.bytes().unwrap(), &raw[..]);
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

    /// Profile encoding holds (all field combinations).
    #[test]
    fn profile_roundtrip(
        fw in 0u8..3,
        nat in 0u8..4,
        private in any::<bool>(),
        proxy in proptest::option::of((any::<u32>(), any::<u16>())),
        flip in (any::<usize>(), any::<u8>()),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        holds(&profile_of(fw, nat, private, proxy), flip, &garbage)?;
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
        let meta = routed.resume.as_ref();
        let first_frame = async { Ok(meta.expect("awaited only then").encode().into_bytes().into()) };
        let back = ready(Preamble::decode_routed(routed.routed_channel(), first_frame)).unwrap();
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
            name,
            profile: profile_of(fw, nat, private, None),
            relays: relays.into_iter().map(addr).collect(),
        };
        holds(&record, flip, &stack)?;
    }

    /// The name service's requests, and a reply of each body type a
    /// request names, refusals included.
    #[test]
    fn ns_request_and_reply_codecs_hold(
        text in "\\PC{0,24}",
        id in any::<u64>(),
        target in (any::<u32>(), any::<u16>()),
        names in proptest::collection::vec("\\PC{0,8}", 0..4),
        relays in proptest::collection::vec((any::<u32>(), any::<u16>()), 0..3),
        flip in (any::<usize>(), any::<u8>()),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let addr = |(ip, port)| SockAddr::new(Ip(ip), port);
        let target = addr(target);
        let node = NodeRecord {
            name: text.clone(),
            profile: ConnectivityProfile::open(),
            relays: relays.into_iter().map(addr).collect(),
        };
        let listener = Some(target);
        let port = PortRecord { owner: id, name: text.clone(), listener, stack: vec![1] };
        for req in [
            NsRequest::Register { node: node.clone() },
            NsRequest::RegisterPort { port: port.clone() },
            NsRequest::LookupPort { name: text.clone() },
            NsRequest::LookupNode { id },
            NsRequest::Observed,
            NsRequest::ListPorts,
            NsRequest::UnregisterPort { name: text.clone() },
            NsRequest::ConnectBack { target },
        ] {
            holds(&req, flip, &garbage)?;
        }
        holds(&Reply::Ok(id), flip, &garbage)?;
        holds(&Reply::Ok(()), flip, &garbage)?;
        holds(&Reply::<()>::Err(text.clone()), flip, &garbage)?;
        holds(&Reply::Ok(id % 2 == 0), flip, &garbage)?;
        holds(&Reply::Ok(target), flip, &garbage)?;
        holds(&Reply::Ok(names), flip, &garbage)?;
        holds(&Reply::Ok((port, ConnectivityProfile::firewalled())), flip, &garbage)?;
        holds(&Reply::<(PortRecord, ConnectivityProfile)>::Err(text.clone()), flip, &garbage)?;
        holds(&Reply::Ok(node), flip, &garbage)?;
        holds(&Reply::<NodeRecord>::Err(text.clone()), flip, &garbage)?;
        holds(&Reply::<Vec<String>>::Err(text), flip, &garbage)?;
    }

    /// What a relay connection carries, and the envelopes inside it.
    #[test]
    fn relay_codecs_hold(
        ids in (any::<u64>(), any::<u64>(), any::<u64>()),
        dir in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        text in "\\PC{0,24}",
        flip in (any::<usize>(), any::<u8>()),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let ((a, b, c), inner) = (ids, Bytes::from(payload));
        for msg in [
            RelayMsg::Hello { id: a },
            RelayMsg::Send { to: a, inner: inner.clone() },
            RelayMsg::Recv { from: a, inner: inner.clone() },
            RelayMsg::Nopeer { to: a, echo: None },
            RelayMsg::Nopeer { to: a, echo: Some(inner.clone()) },
            RelayMsg::Busy { peer: a },
            RelayMsg::Ready { peer: a },
            RelayMsg::PeerHello { mesh_id: a },
            RelayMsg::RouteAdd { node: a, epoch: b },
            RelayMsg::RouteDel { node: a, epoch: b },
            RelayMsg::RouteQuery { node: a },
            RelayMsg::RouteRsp { node: a, found: dir, epoch: b },
            RelayMsg::Fwd { from: a, to: b, inner: inner.clone() },
            RelayMsg::FwdFail { from: a, to: b, inner: inner.clone() },
        ] {
            holds(&msg, flip, &garbage)?;
        }
        for env in [
            Envelope::SvcReq { id: a, body: inner.clone() },
            Envelope::SvcRsp { id: a, reply: Ok(inner.clone()) },
            Envelope::SvcRsp { id: a, reply: Err(text.clone()) },
            Envelope::Open { sid: a, port: text.clone(), channel: b },
            Envelope::OpenOk { sid: a },
            Envelope::OpenErr { sid: a, why: text.clone() },
            Envelope::Data { dir, sid: a, payload: inner.clone() },
            Envelope::Fin { dir, sid: a },
            Envelope::Sync { dir, sid: a, n: c },
            Envelope::SyncOk { dir, sid: a, n: c },
        ] {
            holds(&env, flip, &garbage)?;
        }
    }

    /// The node's service messages and their replies.
    #[test]
    fn service_codecs_hold(
        ids in (any::<u64>(), any::<u64>()),
        text in "\\PC{0,24}",
        endpoints in proptest::collection::vec((any::<u32>(), any::<u16>()), 0..4),
        flip in (any::<usize>(), any::<u8>()),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let (channel, n) = ids;
        let addr = |(ip, port)| SockAddr::new(Ip(ip), port);
        let endpoints: Vec<_> = endpoints.into_iter().map(addr).collect();
        for msg in [
            SvcMsg::SpliceReq { channel, port: text.clone(), streams: n },
            SvcMsg::SpliceGo { channel, endpoints: endpoints.clone() },
            SvcMsg::SpliceAbort { channel },
            SvcMsg::Cack { channel, delivered: n },
        ] {
            holds(&msg, flip, &garbage)?;
        }
        holds(&Reply::Ok(endpoints), flip, &garbage)?;
        holds(&Reply::<Vec<SockAddr>>::Err(text), flip, &garbage)?;
    }

    /// The request/reply layer's messages and SOCKS5's.
    #[test]
    fn rpc_and_socks_codecs_hold(
        id in any::<u64>(),
        reply_to in "\\PC{0,24}",
        payload in proptest::collection::vec(any::<u8>(), 0..32),
        methods in proptest::collection::vec(any::<u8>(), 0..8),
        byte in any::<u8>(),
        target in (any::<u32>(), any::<u16>()),
        flip in (any::<usize>(), any::<u8>()),
        garbage in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let payload = Bytes::from(payload);
        let request = RpcRequest { reply_to, id, payload: payload.clone() };
        holds(&request, flip, &garbage)?;
        holds(&RpcReply { id, payload }, flip, &garbage)?;
        holds(&Greeting(methods), flip, &garbage)?;
        holds(&Choice(Some(byte).filter(|&b| b != 0xff)), flip, &garbage)?;
        let target = SockAddr::new(Ip(target.0), target.1);
        holds(&SocksRequest { cmd: byte, target }, flip, &garbage)?;
        holds(&SocksReply(byte), flip, &garbage)?;
    }
}

/// A flag byte is 0 or 1: the bytes that once read "anything but 1 is
/// false" — a route answer's `found`, a service reply's `ok`, a stream
/// envelope's `dir` and a reply's flag — refuse a 2.
#[test]
fn flag_bytes_are_zero_or_one() {
    let frame = |fields: &[u64]| {
        let fw = fields.iter().fold(FrameWriter::new(), |fw, &f| fw.u64(f));
        Bytes::from(fw.into_bytes())
    };
    fn refused<T>(r: io::Result<T>) -> bool {
        r.is_err_and(|e| e.kind() == io::ErrorKind::InvalidData)
    }
    assert!(
        refused(RelayMsg::decode(&frame(&[11, 7, 2, 9]))),
        "ROUTE_RSP found"
    );
    assert!(
        refused(<Envelope>::decode(&frame(&[2, 7, 2, 0]))),
        "SVC_RSP ok"
    );
    assert!(refused(<Envelope>::decode(&frame(&[7, 2, 5]))), "FIN dir");
    assert!(refused(Reply::<()>::decode(&frame(&[2]))), "reply flag");
    for (flag, found) in [(0, false), (1, true)] {
        let rsp = RelayMsg::decode(&frame(&[11, 7, flag, 9])).unwrap();
        let want = RelayMsg::RouteRsp {
            node: 7,
            found,
            epoch: 9,
        };
        assert_eq!(rsp, want);
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

/// A resume preamble names each channel once. Its anchor among the extras,
/// or an extra listed twice, would have one pump take the channel on twice
/// and never let go of its record: refused on a TCP stream and on a routed
/// one alike, while the same list without the repeat decodes.
#[test]
fn a_resume_naming_a_channel_twice_is_refused() {
    let kind = |e: io::Error| e.kind();
    for (ids, twice) in [(&[9, 8][..], false), (&[9, 7], true), (&[9, 8, 9], true)] {
        let extras = ids.iter().map(|&ch| (ch, "port".to_string())).collect();
        let resume = Some(ResumeMeta { gen: 1, extras });
        let pre = Preamble {
            channel: 7,
            idx: 0,
            total: 1,
            resume,
        };
        let meta = pre.resume.as_ref().unwrap().encode().into_bytes();
        let routed = ready(Preamble::decode_routed(pre.routed_channel(), async {
            Ok(meta.into())
        }));
        let want = if twice {
            Err(io::ErrorKind::InvalidData)
        } else {
            Ok(pre.clone())
        };
        assert_eq!(Preamble::dec(&pre.enc()).map_err(kind), want, "{ids:?}");
        assert_eq!(routed.map_err(kind), want, "routed {ids:?}");
    }
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
        assert_eq!(SockAddr::decode(&addr.into()).map_err(kind), Err(invalid));
        let list = Bytes::from(FrameWriter::new().u64(1).u64(ip).u64(80).into_bytes());
        assert_eq!(Vec::<SockAddr>::decode(&list).map_err(kind), Err(invalid));
        let record = FrameWriter::new().u64(7).str("port").u8(1).u64(ip).u64(80);
        let record = record.bytes(b"").into_bytes();
        assert_eq!(PortRecord::dec(&record).map_err(kind), Err(invalid));
    }
}

/// A polled source of fragments, as a routed stream hands them out: only
/// those that have arrived, each chunk call cut to its cap, and a
/// would-block past them. Counts the bytes it has handed out.
#[derive(Clone, Default)]
struct Arrivals(std::sync::Arc<std::sync::Mutex<Feed>>);

#[derive(Default)]
struct Feed {
    fragments: std::collections::VecDeque<Bytes>,
    arrived: usize,
    taken: usize,
}

impl io::Read for Arrivals {
    fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
        unreachable!("read as chunks")
    }
}

impl BlockRead for Arrivals {
    fn poll_read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        let feed = &mut *self.0.lock().unwrap();
        let mut got = 0;
        while got < min {
            if feed.arrived == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let Some(front) = feed.fragments.front_mut() else {
                break;
            };
            let cap = (min - got).max(max);
            let chunk = if front.len() > cap {
                front.split_to(cap)
            } else {
                feed.arrived -= 1;
                feed.fragments.pop_front().expect("front")
            };
            (got, feed.taken) = (got + chunk.len(), feed.taken + chunk.len());
            out.push(chunk);
        }
        Ok(got)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one `[varint len][payload]` decoder, `BlockReader::frame`, with
    /// read-ahead 1 over arbitrary fragments, restarted at every
    /// would-block with one more fragment arrived: it returns the payload
    /// and leaves the next byte in the source, and a length over its limit
    /// is `InvalidData` before a byte of payload is pulled for it.
    #[test]
    fn the_frame_decoder_restarts_and_takes_only_its_frame(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        cuts in proptest::collection::vec(1usize..80, 1..24),
        limit in 0usize..800,
    ) {
        let mut wire = Vec::new();
        gridzip::varint::put(&mut wire, payload.len() as u64);
        let header = wire.len();
        wire.extend_from_slice(&payload);
        wire.push(0xa5); // the next frame's first byte
        let (mut rest, source) = (Bytes::from(wire), Arrivals::default());
        for n in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let fragment = rest.split_to((*n).min(rest.len()));
            source.0.lock().unwrap().fragments.push_back(fragment);
        }
        let mut cur = BlockReader::new(source.clone(), 1);
        let got = loop {
            match cur.frame(limit) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    source.0.lock().unwrap().arrived += 1
                }
                got => break got,
            }
        };
        let taken = source.0.lock().unwrap().taken;
        if payload.len() <= limit {
            prop_assert_eq!(&got.unwrap()[..], &payload[..]);
            prop_assert_eq!(taken, header + payload.len());
        } else {
            prop_assert_eq!(got.unwrap_err().kind(), io::ErrorKind::InvalidData);
            prop_assert_eq!(taken, header);
        }
    }
}
