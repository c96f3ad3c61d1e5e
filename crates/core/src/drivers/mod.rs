//! Driver stacks: the paper's link utilization methods (§4), composed
//! exactly as NetIbis composes filtering drivers over networking drivers
//! (Fig. 6).
//!
//! Layering, top (application) to bottom (wire), mirroring the paper's
//! "compression over secured parallel streams":
//!
//! ```text
//! message framing (ports)           — SendPort/ReceivePort, port.rs
//!   └ compression filter            — gridzip blocks + CPU cost   (§4.3)
//!       └ parallel-stream driver    — round-robin block striping  (§4.2)
//!       │     └ GTLS per stream     — encryption filter           (§4.4)
//!       │           └ TCP_Block     — user-space aggregation +
//!       │                             TCP_NODELAY                 (§4.1)
//!       └ (streams = 1: plain TCP_Block, optionally under GTLS)
//! ```
//!
//! Whether (and how hard) to compress, how many streams and which block
//! size are [`PathParams`]: fixed by the [`StackSpec`] at establishment,
//! retuned live by `tune::PathController` through a RECONFIG stack swap.
//! There is no in-driver policy.
//!
//! Establishment and utilization stay orthogonal: the stack builders accept
//! any [`RawLink`] — native TCP from any establishment method, or a routed
//! relay stream.

pub mod blockio;
pub mod stripe;

use bytes::Bytes;
use gridcrypt::{SecureConfig, SecureStream};
use gridsim_net::SockAddr;
use gridsim_tcp::TcpStream;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Read, Write};

use crate::cpu::HostCpu;
use crate::pool::BlockPool;
use crate::relay::RoutedStream;
use crate::wire::{FrameReader, FrameWriter};

pub use blockio::{
    copy_read_chunks, BlockRead, BlockReader, BlockWrite, BlockWriter, CpuRead, CpuWrite,
};
pub use stripe::{StripeQuiesce, StripeReader, StripeTerminator, StripeWriter};

/// A raw, established link: either a native TCP socket (client/server,
/// spliced, or proxied — Table 1's "native TCP" rows) or a relay-routed
/// stream.
#[derive(Clone)]
pub enum RawLink {
    Tcp(TcpStream),
    Routed(RoutedStream),
}

impl RawLink {
    /// Human-readable description of the peer.
    pub fn peer_desc(&self) -> String {
        match self {
            RawLink::Tcp(s) => format!("tcp:{}", s.peer_addr()),
            RawLink::Routed(s) => format!("routed:node-{}", s.peer()),
        }
    }

    /// The remote address, for native TCP links.
    pub fn peer_addr(&self) -> Option<SockAddr> {
        match self {
            RawLink::Tcp(s) => Some(s.peer_addr()),
            RawLink::Routed(_) => None,
        }
    }

    /// Signal end-of-stream to the peer.
    pub fn shutdown_write(&self) -> io::Result<()> {
        match self {
            RawLink::Tcp(s) => s.shutdown_write(),
            RawLink::Routed(s) => s.shutdown_write(),
        }
    }

    /// Has the transport detected a failure on this link? Costs nothing on
    /// the wire — it reads error state the transport already recorded (RTO
    /// abort, reset, closed relay stream). The session layer probes every
    /// link of a shared stack with this before committing a write.
    pub fn is_healthy(&self) -> bool {
        match self {
            RawLink::Tcp(s) => s.health().is_none(),
            RawLink::Routed(s) => !s.is_closed(),
        }
    }

    /// Block until the bytes written to this link are confirmed received —
    /// by the peer host's TCP on a native link, by the peer's relay pump
    /// (an in-band barrier) on a routed one, where TCP only reaches as far
    /// as the relay — then report whether the link survived. Graceful close
    /// runs this so buffered writes cannot silently die with the link.
    pub fn drain(&self) -> io::Result<()> {
        match self {
            RawLink::Tcp(s) => s.drain(),
            RawLink::Routed(s) => s.drain(),
        }
    }

    /// Did the peer close its sending side cleanly (EOF rather than abort)?
    /// The receive pump uses this to decide whether a channel ended or
    /// merely flapped.
    pub fn closed_cleanly(&self) -> bool {
        match self {
            RawLink::Tcp(s) => s.health().is_none(),
            RawLink::Routed(s) => s.fin_received(),
        }
    }

    /// Transport counters for the path controller's telemetry sample.
    /// Relay-routed links have no TCP state of their own; they report
    /// `None` and the sample falls back to session-level counters.
    pub fn conn_stats(&self) -> Option<gridsim_tcp::ConnStats> {
        match self {
            RawLink::Tcp(s) => s.stats().ok(),
            RawLink::Routed(_) => None,
        }
    }

    /// Unacknowledged bytes sitting in the transport's send buffer.
    pub fn tx_backlog(&self) -> usize {
        match self {
            RawLink::Tcp(s) => s.tx_backlog().unwrap_or(0),
            RawLink::Routed(_) => 0,
        }
    }
}

impl Read for RawLink {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            RawLink::Tcp(s) => s.read_some(buf),
            RawLink::Routed(s) => s.read(buf),
        }
    }
}

impl Write for RawLink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            RawLink::Tcp(s) => s.write_some(buf),
            RawLink::Routed(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// Native TCP is the zero-copy floor of the stack: blocks are handed to the
// simulated TCP send queue as refcounted slices and read back out as views
// of received segments. A routed stream cuts a block into DATA frames and
// hands received chunks on by ownership (DESIGN.md §5b).
impl BlockWrite for TcpStream {
    fn write_block(&mut self, block: Bytes) -> io::Result<()> {
        TcpStream::write_block(self, block)
    }
}

impl BlockWrite for RawLink {
    fn write_block(&mut self, block: Bytes) -> io::Result<()> {
        match self {
            RawLink::Tcp(s) => s.write_block(block),
            RawLink::Routed(s) => s.write_block(block),
        }
    }
}

impl BlockRead for RawLink {
    fn read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        match self {
            // Demand-aware drain: the socket parks once and is serviced at
            // event time until `min` bytes (or EOF) accumulated.
            RawLink::Tcp(s) => s.read_chunks_min(min, max, out),
            RawLink::Routed(s) => s.read_chunks_min(min, max, out),
        }
    }
}

/// The runtime-tunable half of a [`StackSpec`]: the knobs a live
/// `RECONFIG` exchange may change mid-connection. Everything else on the
/// spec (security) is fixed at establishment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathParams {
    /// Number of parallel TCP streams (1 = plain).
    pub stripes: u16,
    /// Aggregation block size for TCP_Block and the striping unit.
    pub block_size: u32,
    /// Compression filter with this gridzip level (`None` = no compressor).
    pub compression_level: Option<u8>,
}

impl Default for PathParams {
    fn default() -> Self {
        PathParams {
            stripes: 1,
            block_size: 32 * 1024,
            compression_level: None,
        }
    }
}

impl PathParams {
    /// Are these parameters usable for a stack over `avail` raw links?
    /// The level must be one gridzip has: `Compressor` clamps what it is
    /// given, so one outside the ladder would assemble the same stack as a
    /// valid one under a different spec — and the encoded spec is the link
    /// key. Every parameter set a peer supplies is checked against this.
    pub fn valid_for(&self, avail: usize) -> bool {
        self.stripes >= 1
            && (self.stripes as usize) <= avail
            && self.block_size > 0
            && self
                .compression_level
                .is_none_or(|l| (1..=gridzip::MAX_LEVEL).contains(&l))
    }

    /// Short description, e.g. `"4x64KiB+z1"`.
    pub fn describe(&self) -> String {
        let mut s = format!("{}x{}B", self.stripes, self.block_size);
        if let Some(l) = self.compression_level {
            s.push_str(&format!("+z{l}"));
        }
        s
    }
}

/// Configuration of a driver stack — what NetIbis reads from its
/// configuration file / runtime properties. The receive port declares it;
/// senders learn it from the name service, so both endpoints always
/// assemble matching stacks (the paper's "driver assembly consistency").
///
/// The tunable knobs (stripe count, block size, compression level) live in
/// the embedded [`PathParams`]; `secure` is an establishment-time property
/// a live reconfiguration never changes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StackSpec {
    /// Tunable path parameters (stripes, block size, compression level).
    pub path: PathParams,
    /// GTLS encryption filter on every stream.
    pub secure: bool,
}

impl StackSpec {
    pub fn plain() -> StackSpec {
        StackSpec::default()
    }

    /// Number of parallel TCP streams (1 = plain).
    pub fn streams(&self) -> u16 {
        self.path.stripes
    }

    /// Aggregation block size for TCP_Block and the striping unit.
    pub fn block_size(&self) -> u32 {
        self.path.block_size
    }

    /// Compression filter level, if any.
    pub fn compress(&self) -> Option<u8> {
        self.path.compression_level
    }

    pub fn with_streams(mut self, n: u16) -> Self {
        assert!(n >= 1, "at least one stream");
        self.path.stripes = n;
        self
    }

    pub fn with_compression(mut self, level: u8) -> Self {
        self.path.compression_level = Some(level.clamp(1, gridzip::MAX_LEVEL));
        self
    }

    pub fn with_security(mut self) -> Self {
        self.secure = true;
        self
    }

    pub fn with_block_size(mut self, bytes: u32) -> Self {
        assert!(bytes > 0);
        self.path.block_size = bytes;
        self
    }

    /// The spec that results from applying live `params` to this
    /// establishment spec: tunables swap, `secure` persists.
    pub fn with_path(&self, params: PathParams) -> StackSpec {
        StackSpec {
            path: params,
            ..self.clone()
        }
    }

    /// Short description, e.g. `"4 streams + zlib(1) + gtls"`.
    pub fn describe(&self) -> String {
        let mut parts = vec![if self.streams() == 1 {
            "plain TCP".to_string()
        } else {
            format!("{} streams", self.streams())
        }];
        if let Some(l) = self.compress() {
            parts.push(format!("compression(level {l})"));
        }
        if self.secure {
            parts.push("gtls".to_string());
        }
        parts.join(" + ")
    }

    pub fn encode(&self) -> Vec<u8> {
        let [stripes, block_size, level] = self.path.wire_fields();
        FrameWriter::new()
            .u64(stripes)
            .u64(block_size)
            .u64(level)
            .u8(self.secure as u8)
            .u8(0) // reserved, see `decode`
            .into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> io::Result<StackSpec> {
        let mut r = FrameReader::new(bytes);
        let path = PathParams::from_wire_fields([r.u64()?, r.u64()?, r.u64()?])?;
        let secure = r.u8()? != 0;
        // Once the in-driver adaptive-compression flag; still written (as
        // 0) so name-service records keep their bytes. A peer that sets it
        // asks for a driver this stack cannot assemble.
        if r.u8()? != 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad stack spec"));
        }
        Ok(StackSpec { path, secure })
    }
}

/// Security material for GTLS stacks.
#[derive(Clone)]
pub struct SecurityContext {
    pub config: SecureConfig,
    /// Deterministic seed for handshake randomness (a simulation stand-in
    /// for OS entropy).
    pub seed: u64,
}

/// One assembled, per-stream wire: TCP/routed, possibly under GTLS.
enum WireStream {
    Plain(RawLink),
    Secure(Box<SecureStream<RawLink>>),
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Plain(s) => s.read(buf),
            WireStream::Secure(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Plain(s) => s.write(buf),
            WireStream::Secure(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Plain(s) => s.flush(),
            WireStream::Secure(s) => s.flush(),
        }
    }
}

// Plain wires pass blocks straight through; GTLS recodes every byte, so it
// keeps the copying defaults (records are built from the plaintext anyway).
impl BlockWrite for WireStream {
    fn write_block(&mut self, block: Bytes) -> io::Result<()> {
        match self {
            WireStream::Plain(s) => s.write_block(block),
            WireStream::Secure(s) => s.write_all(&block),
        }
    }
}

impl BlockRead for WireStream {
    fn read_chunks_min(
        &mut self,
        min: usize,
        max: usize,
        out: &mut Vec<Bytes>,
    ) -> io::Result<usize> {
        match self {
            WireStream::Plain(s) => s.read_chunks_min(min, max, out),
            WireStream::Secure(s) => copy_read_chunks(s, min, max, out),
        }
    }
}

/// The assembled sender side of a connection. The `BlockWrite` vtable lets
/// whole pooled blocks travel the stack without per-layer copies; plain
/// `Write` remains available for small control writes.
pub type SenderStack = Box<dyn BlockWrite + Send>;
/// The assembled receiver side of a connection.
pub type ReceiverStack = Box<dyn BlockRead + Send>;

/// One stream's GTLS handshake. Stream index `i` salts the handshake RNG
/// so parallel handshakes stay deterministic per stream regardless of
/// completion order.
fn secure_handshake(
    link: RawLink,
    i: usize,
    config: &SecureConfig,
    seed: u64,
    cpu: &HostCpu,
    is_initiator: bool,
) -> io::Result<WireStream> {
    // Handshake cost: two X25519 ops + hashes, ≈ a few ms of 2004
    // CPU; charged as 64 KiB of crypto work.
    cpu.consume(64 * 1024, cpu.rates.crypt);
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 32 | is_initiator as u64);
    let s = if is_initiator {
        SecureStream::client(link, config, &mut rng)?
    } else {
        SecureStream::server(link, config, &mut rng)?
    };
    Ok(WireStream::Secure(Box::new(s)))
}

fn secure_wires(
    links: Vec<RawLink>,
    spec: &StackSpec,
    cpu: &HostCpu,
    sec: Option<&SecurityContext>,
    is_initiator: bool,
) -> io::Result<Vec<WireStream>> {
    if !spec.secure {
        return Ok(links.into_iter().map(WireStream::Plain).collect());
    }
    let sc = sec.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "stack requires a security context",
        )
    })?;
    if links.len() <= 1 {
        return links
            .into_iter()
            .enumerate()
            .map(|(i, link)| secure_handshake(link, i, &sc.config, sc.seed, cpu, is_initiator))
            .collect();
    }
    // Multi-stream: pipeline the handshakes instead of serializing them.
    // Each stream's handshake is an independent RTT + crypto exchange on
    // its own socket, so they overlap; link setup pays ~one handshake of
    // latency instead of `streams` of them. Collected in stream order, so
    // the assembled stack is identical to the sequential build.
    let sched = gridsim_net::ctx::handle();
    let handles: Vec<_> = links
        .into_iter()
        .enumerate()
        .map(|(i, link)| {
            let config = sc.config.clone();
            let seed = sc.seed;
            let cpu = cpu.clone();
            sched.spawn(format!("gtls-hs-{i}"), move || {
                secure_handshake(link, i, &config, seed, &cpu, is_initiator)
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join()).collect()
}

/// Assemble the sender stack over established raw links.
/// `links.len()` must equal `spec.streams()`.
///
/// Also returns the [`BlockPool`] the stack's aggregation/striping layers
/// draw their staging buffers from, so callers can surface pool hit/miss
/// counters alongside link stats, and the striped layer's
/// segment-terminator handle (None for single-stream stacks). The session
/// layer uses it during a live reconfiguration to end the stripe segment
/// in-band, so the receiver's pump tasks exit before the stack swap.
pub fn build_sender(
    links: Vec<RawLink>,
    spec: &StackSpec,
    cpu: HostCpu,
    sec: Option<&SecurityContext>,
) -> io::Result<(SenderStack, BlockPool, Option<stripe::StripeTerminator>)> {
    assert_eq!(
        links.len(),
        spec.streams() as usize,
        "link count must match spec.streams()"
    );
    let block = spec.block_size() as usize;
    let pool = BlockPool::new(block);
    let mut wires = secure_wires(links, spec, &cpu, sec, true)?;
    // Per-stream crypto cost wrapper.
    let crypt_rate = cpu.rates.crypt;
    let mut term = None;
    let base: Box<dyn BlockWrite + Send> = if wires.len() == 1 {
        let w = wires.pop().unwrap();
        let w: Box<dyn BlockWrite + Send> = if spec.secure {
            Box::new(CpuWrite::new(w, cpu.clone(), crypt_rate))
        } else {
            Box::new(w)
        };
        // TCP_Block: user-space aggregation with explicit flush (§4.1).
        Box::new(BlockWriter::new(w, pool.clone()))
    } else {
        let wires: Vec<Box<dyn BlockWrite + Send>> = wires
            .into_iter()
            .map(|w| -> Box<dyn BlockWrite + Send> {
                if spec.secure {
                    Box::new(CpuWrite::new(w, cpu.clone(), crypt_rate))
                } else {
                    Box::new(w)
                }
            })
            .collect();
        let sw = StripeWriter::with_pool(
            wires,
            pool.clone(),
            cpu.clone(),
            cpu.rates.copy,
            &gridsim_net::ctx::handle(),
        );
        term = Some(sw.terminator());
        Box::new(sw)
    };
    let stack: SenderStack = match spec.compress() {
        Some(level) => {
            let rate = cpu.rates.compress_at_level(level);
            let cw = gridzip::CompressWriter::with_block_size(base, level, block);
            Box::new(CpuWrite::new(cw, cpu, rate))
        }
        None => base,
    };
    Ok((stack, pool, term))
}

/// Assemble the receiver stack over accepted raw links (same order as the
/// sender's streams).
///
/// Also returns the striped layer's quiesce handle (None for single-stream
/// stacks). The pump holds it so a live reconfiguration can wait for the
/// retired stack's reader tasks to exit before a replacement stack reads
/// the same sockets.
pub fn build_receiver(
    links: Vec<RawLink>,
    spec: &StackSpec,
    cpu: HostCpu,
    sec: Option<&SecurityContext>,
    sched: &gridsim_net::SchedHandle,
) -> io::Result<(ReceiverStack, Option<stripe::StripeQuiesce>)> {
    assert_eq!(
        links.len(),
        spec.streams() as usize,
        "link count must match spec.streams()"
    );
    let block = spec.block_size() as usize;
    let mut wires = secure_wires(links, spec, &cpu, sec, false)?;
    let crypt_rate = cpu.rates.crypt;
    let mut quiesce = None;
    let base: Box<dyn BlockRead + Send> = if wires.len() == 1 {
        let w = wires.pop().unwrap();
        let w: Box<dyn BlockRead + Send> = if spec.secure {
            Box::new(CpuRead::new(w, cpu.clone(), crypt_rate))
        } else {
            Box::new(w)
        };
        Box::new(BlockReader::new(w, block))
    } else {
        let wires: Vec<Box<dyn BlockRead + Send>> = wires
            .into_iter()
            .map(|w| -> Box<dyn BlockRead + Send> {
                if spec.secure {
                    Box::new(CpuRead::new(w, cpu.clone(), crypt_rate))
                } else {
                    Box::new(w)
                }
            })
            .collect();
        let sr = StripeReader::new(wires, sched);
        quiesce = Some(sr.quiesce());
        Box::new(sr)
    };
    let stack: ReceiverStack = match spec.compress() {
        Some(_) => {
            let rate = cpu.rates.decompress;
            let cr = CpuRead::new(ReadAdapter(base), cpu, rate);
            Box::new(gridzip::DecompressReader::new(cr))
        }
        None => base,
    };
    Ok((stack, quiesce))
}

/// Newtype so the boxed stack itself implements `Read` by value.
struct ReadAdapter(Box<dyn BlockRead + Send>);

impl Read for ReadAdapter {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_encode_decode_roundtrip() {
        let specs = [
            StackSpec::plain(),
            StackSpec::plain().with_streams(8),
            StackSpec::plain().with_compression(1),
            StackSpec::plain()
                .with_streams(4)
                .with_compression(gridzip::MAX_LEVEL)
                .with_security(),
            StackSpec::plain().with_block_size(4096),
        ];
        for s in specs {
            assert_eq!(StackSpec::decode(&s.encode()).unwrap(), s);
        }
    }

    #[test]
    fn spec_describe_is_informative() {
        let s = StackSpec::plain()
            .with_streams(4)
            .with_compression(1)
            .with_security();
        let d = s.describe();
        assert!(
            d.contains("4 streams") && d.contains("level 1") && d.contains("gtls"),
            "{d}"
        );
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(StackSpec::decode(&[]).is_err());
        // Counts are range-checked as sent: `as u16` / `as u32` took 65 537
        // streams for one and a 4 GiB + 4 KiB block for 4 KiB — and the
        // link key is the *encoded* spec, so two records made one stack.
        let with_path = |streams: u64, block: u64| {
            let fw = FrameWriter::new().u64(streams).u64(block);
            StackSpec::decode(&fw.u8(0).u8(0).u8(0).into_bytes())
        };
        assert_eq!(with_path(4, 4096).unwrap().streams(), 4);
        for (streams, block) in [(0, 1024), (65_537, 1024), (1, 0), (1, (1 << 32) + 4096)] {
            let err = with_path(streams, block).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{streams} x {block}"
            );
        }
        // The compression byte is `level + 1`: the ladder's top decodes,
        // one past it and level 0 do not (`Compressor` would clamp both to
        // a valid level's stack under a different link key).
        let with_level_byte = |b: u8| {
            let mut bytes = StackSpec::plain().with_compression(1).encode();
            let at = bytes.len() - 3;
            assert_eq!(bytes[at], 2, "the level byte");
            bytes[at] = b;
            StackSpec::decode(&bytes)
        };
        let top = with_level_byte(gridzip::MAX_LEVEL + 1).unwrap();
        assert_eq!(top.compress(), Some(gridzip::MAX_LEVEL));
        for b in [1, gridzip::MAX_LEVEL + 2, u8::MAX] {
            let err = with_level_byte(b).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "level byte {b}");
        }
    }
}
