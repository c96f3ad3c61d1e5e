//! GTLS: a TLS-like secure channel over any `Read + Write` byte stream.
//!
//! This is the "SSL/TLS driver" the paper plans in §5.2, built from the
//! crate's own primitives:
//!
//! * **Handshake**: X25519 ephemeral Diffie-Hellman with mutual
//!   authentication through a pre-shared key (the virtual-organization
//!   secret — grids of the paper's era authenticated sites through shared
//!   community credentials; certificates are out of scope and orthogonal to
//!   the transport design being reproduced).
//! * **Key schedule**: HKDF-SHA256 over the DH shared secret, salted by the
//!   PSK and bound to the handshake transcript.
//! * **Record layer**: ChaCha20-Poly1305 AEAD, per-direction keys and
//!   sequence-number nonces, 16 KiB records, explicit `close_notify`.
//!
//! ```text
//! record      := type(u8) length(u16 BE) body
//! type 1      := handshake (plaintext during negotiation)
//! type 2      := application data: ciphertext || tag(16)
//! type 3      := close_notify (encrypted, empty plaintext)
//!
//! ClientHello := 0x01 random(32) x25519_public(32)
//! ServerHello := 0x02 random(32) x25519_public(32) server_auth(32)
//! Finished    := 0x03 client_auth(32)
//! ```
//!
//! `server_auth = HMAC(K_auth, "gtls server" || transcript)` proves PSK
//! knowledge and binds the DH exchange; `client_auth` does the same in the
//! other direction (it also covers `server_auth`).
//!
//! The handshake is state kept in the [`SecureStream`] from
//! [`start`](SecureStream::start) on, each flight read through the same
//! resumable record reader as the records, so a stream that must not park
//! runs it by polling ([`poll_handshake`](SecureStream::poll_handshake)).
//! Its states, each left when the flight it waits for is in:
//!
//! ```text
//! client: start, ClientHello written -> Hello --ServerHello,
//!         Finished written--> Open
//! server: start -> Hello --ClientHello, ServerHello written--> Finished
//!         --Finished--> Open
//! ```
//!
//! An error from the stream below, a would-block included, keeps the state
//! and the partial record, as it does in a record read; a flight that is in
//! but refused, or whose answer cannot be written, leaves the handshake
//! `Failed`. Records move only once it is `Open`: a read before then goes
//! on with the handshake, a write is `NotConnected`.

use rand::Rng;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

use crate::aead::{self, AEAD_TAG_LEN};
use crate::hkdf;
use crate::hmac::{ct_eq, hmac_sha256};
use crate::sha256::sha256;
use crate::x25519;

/// Maximum plaintext bytes per record.
pub const MAX_RECORD: usize = 16 * 1024;

const TYPE_HANDSHAKE: u8 = 1;
const TYPE_DATA: u8 = 2;
const TYPE_CLOSE: u8 = 3;

const MSG_CLIENT_HELLO: u8 = 1;
const MSG_SERVER_HELLO: u8 = 2;
const MSG_FINISHED: u8 = 3;

/// Security configuration: the virtual organization's shared secret.
#[derive(Clone)]
pub struct SecureConfig {
    pub psk: Vec<u8>,
}

impl SecureConfig {
    pub fn new(psk: impl Into<Vec<u8>>) -> SecureConfig {
        SecureConfig { psk: psk.into() }
    }
}

/// Which end of the handshake a stream plays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Client,
    Server,
}

#[derive(Default)]
struct DirectionKeys {
    key: [u8; 32],
    iv: [u8; 12],
    seq: u64,
}

impl DirectionKeys {
    /// Keys for one direction: the first 44 bytes HKDF expands from `prk`
    /// under `label` and the transcript hash `th`.
    fn derive(prk: &[u8; 32], label: &[u8], th: &[u8; 32]) -> DirectionKeys {
        let mut okm = [0u8; 44];
        hkdf::expand(prk, &[label, th].concat(), &mut okm);
        let key = std::array::from_fn(|i| okm[i]);
        let iv = std::array::from_fn(|i| okm[32 + i]);
        DirectionKeys { key, iv, seq: 0 }
    }

    /// The next record's nonce; a direction that has used every sequence
    /// number carries no more records.
    fn nonce(&mut self) -> io::Result<[u8; 12]> {
        let mut n = self.iv;
        for (b, s) in n[4..].iter_mut().zip(self.seq.to_be_bytes()) {
            *b ^= s;
        }
        self.seq = (self.seq.checked_add(1))
            .ok_or_else(|| io::Error::other("gtls record sequence exhausted"))?;
        Ok(n)
    }
}

/// Where a handshake stands: the flight it waits for, and what this end
/// kept to answer it.
enum Handshake {
    /// Waiting for the peer's hello.
    Hello(Hello),
    /// A server that sent its hello, waiting for the Finished that carries
    /// this authenticator.
    Finished([u8; 32]),
    Open,
    Failed,
}

/// What an end keeps until the peer's hello: its secret key, its own hello
/// (a server's still without its authenticator) and the PSK.
struct Hello {
    role: Role,
    sk: [u8; 32],
    hello: Vec<u8>,
    psk: Vec<u8>,
}

/// An authenticated, encrypted byte stream.
pub struct SecureStream<S> {
    inner: S,
    hs: Handshake,
    send: DirectionKeys,
    recv: DirectionKeys,
    read_buf: Vec<u8>,
    read_pos: usize,
    incoming: Record,
    /// Records sealed and not yet all written, oldest first.
    outgoing: VecDeque<Record>,
    peer_closed: bool,
    close_sent: bool,
}

fn hs_error(msg: &'static str) -> io::Error {
    io::Error::new(
        io::ErrorKind::PermissionDenied,
        format!("gtls handshake: {msg}"),
    )
}

/// A record on its way in or out: its header, then its body, each moved
/// whole — filled in place as the stream below delivers, or written as it
/// takes them. An error from below — `WouldBlock` from a stream that must
/// not park included — leaves what has moved, and the next call goes on
/// with the same inner call the failed one made.
#[derive(Default)]
struct Record {
    hdr: [u8; 3],
    /// The body, sized once the header is in.
    body: Vec<u8>,
    in_body: bool,
    /// Bytes of the part in hand (header, then body) moved so far.
    got: usize,
}

impl Record {
    /// A record to write.
    fn out(rtype: u8, body: Vec<u8>) -> Record {
        assert!(body.len() <= u16::MAX as usize);
        let [hi, lo] = (body.len() as u16).to_be_bytes();
        let mut out = Record::default();
        (out.hdr, out.body) = ([rtype, hi, lo], body);
        out
    }

    /// The next record, each read asking for the rest of the part in hand:
    /// the calls `read_exact` makes, resumed where an error stopped them.
    fn read<S: Read>(&mut self, s: &mut S) -> io::Result<(u8, Vec<u8>)> {
        if !self.in_body {
            fill(s, &mut self.hdr, &mut self.got)?;
            let len = u16::from_be_bytes([self.hdr[1], self.hdr[2]]);
            (self.body, self.in_body, self.got) = (vec![0u8; len.into()], true, 0);
        }
        fill(s, &mut self.body, &mut self.got)?;
        (self.in_body, self.got) = (false, 0);
        Ok((self.hdr[0], std::mem::take(&mut self.body)))
    }

    /// The rest of this record, each write asking for the rest of the part
    /// in hand: the calls `write_all` makes, resumed where an error stopped
    /// them.
    fn write<S: Write>(&mut self, s: &mut S) -> io::Result<()> {
        if !self.in_body {
            drain(s, &self.hdr, &mut self.got)?;
            (self.in_body, self.got) = (true, 0);
        }
        drain(s, &self.body, &mut self.got)
    }
}

/// `read_exact` that keeps its place in `got`: a source that ends first is
/// `UnexpectedEof`, and any other error leaves `got` as far as it came.
fn fill<S: Read>(s: &mut S, buf: &mut [u8], got: &mut usize) -> io::Result<()> {
    while *got < buf.len() {
        match s.read(&mut buf[*got..])? {
            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
            n => *got += n,
        }
    }
    Ok(())
}

/// `write_all` that keeps its place in `sent`: any error leaves `sent` as
/// far as it came.
fn drain<S: Write>(s: &mut S, buf: &[u8], sent: &mut usize) -> io::Result<()> {
    while *sent < buf.len() {
        match s.write(&buf[*sent..])? {
            0 => return Err(io::ErrorKind::WriteZero.into()),
            n => *sent += n,
        }
    }
    Ok(())
}

fn auth_tag(k_auth: &[u8; 32], label: &[u8], transcript: &[u8]) -> [u8; 32] {
    let mut msg = Vec::with_capacity(label.len() + transcript.len());
    msg.extend_from_slice(label);
    msg.extend_from_slice(transcript);
    hmac_sha256(k_auth, &msg)
}

impl<S: Read + Write> SecureStream<S> {
    /// Run the client side of the handshake over a stream that does not
    /// would-block.
    pub fn client(inner: S, cfg: &SecureConfig, rng: &mut impl Rng) -> io::Result<Self> {
        let mut s = Self::start(inner, cfg, rng, Role::Client)?;
        s.poll_handshake().map(|()| s)
    }

    /// Run the server side of the handshake over a stream that does not
    /// would-block.
    pub fn server(inner: S, cfg: &SecureConfig, rng: &mut impl Rng) -> io::Result<Self> {
        let mut s = Self::start(inner, cfg, rng, Role::Server)?;
        s.poll_handshake().map(|()| s)
    }

    /// Begin the handshake as `role`: this end's keypair and random drawn
    /// from `rng`, and a client's hello written, or kept where the stream
    /// would block. [`poll_handshake`](Self::poll_handshake) goes on from there.
    pub fn start(inner: S, cfg: &SecureConfig, rng: &mut impl Rng, role: Role) -> io::Result<Self> {
        let (sk, pk) = x25519::keypair(rng);
        let mut random = [0u8; 32];
        rng.fill(&mut random[..]);
        let msg = match role {
            Role::Client => MSG_CLIENT_HELLO,
            Role::Server => MSG_SERVER_HELLO,
        };
        let hello = [&[msg][..], &random, &pk].concat();
        let outgoing = (role == Role::Client).then(|| Record::out(TYPE_HANDSHAKE, hello.clone()));
        let psk = cfg.psk.clone();
        let mut s = SecureStream {
            inner,
            hs: Handshake::Hello(Hello {
                role,
                sk,
                hello,
                psk,
            }),
            send: DirectionKeys::default(),
            recv: DirectionKeys::default(),
            read_buf: Vec::new(),
            read_pos: 0,
            incoming: Record::default(),
            outgoing: outgoing.into_iter().collect(),
            peer_closed: false,
            close_sent: false,
        };
        match s.send_pending() {
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => Err(e),
            _ => Ok(s),
        }
    }

    /// Go on with the handshake: finish this end's last flight, read the
    /// flight it waits for, and write the next one once it is in. `Ok` once
    /// the session is open; a `WouldBlock` from the stream keeps its place,
    /// and asked again it resumes there.
    pub fn poll_handshake(&mut self) -> io::Result<()> {
        loop {
            self.send_pending()?;
            match self.hs {
                Handshake::Open => return Ok(()),
                Handshake::Failed => return Err(hs_error("refused earlier")),
                _ => {}
            }
            let (rtype, msg) = self.incoming.read(&mut self.inner)?;
            self.hs = match std::mem::replace(&mut self.hs, Handshake::Failed) {
                Handshake::Hello(hello) => self.answer_hello(hello, rtype, &msg)?,
                Handshake::Finished(expect) => {
                    if rtype != TYPE_HANDSHAKE || msg.len() != 33 || msg[0] != MSG_FINISHED {
                        return Err(hs_error("malformed Finished"));
                    }
                    if !ct_eq(&expect, &msg[1..]) {
                        return Err(hs_error("client authentication failed (wrong PSK?)"));
                    }
                    Handshake::Open
                }
                open_or_failed => open_or_failed,
            };
        }
    }

    /// The peer's hello, `peer`, has arrived: derive the session's keys, a
    /// client checks the server's authenticator, and each end writes its
    /// answer — a client its Finished, a server its authenticated hello.
    fn answer_hello(&mut self, own: Hello, rtype: u8, peer: &[u8]) -> io::Result<Handshake> {
        let (msg, len, malformed) = match own.role {
            Role::Client => (MSG_SERVER_HELLO, 97, "malformed ServerHello"),
            Role::Server => (MSG_CLIENT_HELLO, 65, "malformed ClientHello"),
        };
        if rtype != TYPE_HANDSHAKE || peer.len() != len || peer[0] != msg {
            return Err(hs_error(malformed));
        }
        let peer_pk = peer[33..65].try_into().map_err(|_| hs_error(malformed))?;
        let shared = x25519::x25519(&own.sk, peer_pk);
        // Reject the all-zero shared secret (contributory behaviour, RFC
        // 7748 §6).
        if shared.iter().all(|&b| b == 0) {
            return Err(hs_error("low-order peer public key"));
        }
        let (ch, sh) = match own.role {
            Role::Client => (&own.hello[..], peer),
            Role::Server => (peer, &own.hello[..]),
        };
        let mut transcript = [ch, &sh[..65]].concat();
        let th = sha256(&transcript);
        let prk = hkdf::extract(&own.psk, &shared);
        let mut k_auth = [0u8; 32];
        hkdf::expand(&prk, b"gtls auth", &mut k_auth);
        let c2s = DirectionKeys::derive(&prk, b"gtls c2s", &th);
        let s2c = DirectionKeys::derive(&prk, b"gtls s2c", &th);
        let server_auth = auth_tag(&k_auth, b"gtls server", &transcript);
        transcript.extend_from_slice(&server_auth);
        let client_auth = auth_tag(&k_auth, b"gtls client", &transcript);
        let next = match own.role {
            Role::Client => {
                if !ct_eq(&server_auth, &peer[65..]) {
                    return Err(hs_error("server authentication failed (wrong PSK?)"));
                }
                let fin = [&[MSG_FINISHED][..], &client_auth].concat();
                self.outgoing.push_back(Record::out(TYPE_HANDSHAKE, fin));
                (self.send, self.recv) = (c2s, s2c);
                Handshake::Open
            }
            Role::Server => {
                let sh = [&own.hello[..], &server_auth].concat();
                self.outgoing.push_back(Record::out(TYPE_HANDSHAKE, sh));
                (self.send, self.recv) = (s2c, c2s);
                Handshake::Finished(client_auth)
            }
        };
        Ok(next)
    }

    /// Write the records sealed and not yet written, a handshake flight and
    /// a close each flushed after it.
    fn send_pending(&mut self) -> io::Result<()> {
        while let Some(out) = self.outgoing.front_mut() {
            out.write(&mut self.inner)?;
            if out.hdr[0] != TYPE_DATA {
                self.inner.flush()?;
            }
            self.outgoing.pop_front();
        }
        Ok(())
    }

    /// Seal `plaintext` as the next record to go out.
    fn seal(&mut self, rtype: u8, plaintext: &[u8]) -> io::Result<()> {
        if !matches!(self.hs, Handshake::Open) {
            return Err(io::ErrorKind::NotConnected.into());
        }
        // One allocation for ciphertext and tag.
        let sealed_len = plaintext.len() + AEAD_TAG_LEN;
        let mut body = Vec::with_capacity(sealed_len);
        body.extend_from_slice(plaintext);
        let len = sealed_len as u16;
        let aad = [rtype, (len >> 8) as u8, len as u8];
        let nonce = self.send.nonce()?;
        let tag = aead::seal_in_place(&self.send.key, &nonce, &aad, &mut body);
        body.extend_from_slice(&tag);
        self.outgoing.push_back(Record::out(rtype, body));
        Ok(())
    }

    /// Decrypt the next record; fills `read_buf` for data records. A
    /// `WouldBlock` from below keeps the record's partial bytes.
    fn pump(&mut self) -> io::Result<()> {
        let (rtype, mut body) = self.incoming.read(&mut self.inner)?;
        if rtype != TYPE_DATA && rtype != TYPE_CLOSE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected record type",
            ));
        }
        let Some(&tag) = body.last_chunk::<AEAD_TAG_LEN>() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "record too short",
            ));
        };
        let len = body.len() as u16;
        let aad = [rtype, (len >> 8) as u8, len as u8];
        body.truncate(body.len() - AEAD_TAG_LEN);
        let nonce = self.recv.nonce()?;
        aead::open_in_place(&self.recv.key, &nonce, &aad, &mut body, &tag)?;
        if rtype == TYPE_CLOSE {
            self.peer_closed = true;
        } else {
            self.read_buf = body;
            self.read_pos = 0;
        }
        Ok(())
    }

    /// Send the close_notify record; the peer sees clean EOF.
    pub fn close(&mut self) -> io::Result<()> {
        if !self.close_sent {
            self.close_sent = true;
            self.seal(TYPE_CLOSE, &[])?;
        }
        self.send_pending()
    }

    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

/// A read before the handshake is over goes on with the handshake first.
impl<S: Read + Write> Read for SecureStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.read_pos == self.read_buf.len() {
            if self.peer_closed {
                return Ok(0);
            }
            self.poll_handshake()?;
            self.pump()?;
        }
        let n = buf.len().min(self.read_buf.len() - self.read_pos);
        buf[..n].copy_from_slice(&self.read_buf[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

/// A write seals `buf` as one record per 16 KiB and writes them in order,
/// taking all of `buf` or failing. A `WouldBlock` from below keeps the
/// records not yet written, and asked again with the same bytes the write
/// goes on with them: records on their way out are the write in hand's.
impl<S: Read + Write> Write for SecureStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.close_sent {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        if self.outgoing.is_empty() {
            for record in buf.chunks(MAX_RECORD) {
                self.seal(TYPE_DATA, record)?;
            }
        }
        self.send_pending().map(|()| buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::{Arc, Mutex};

    /// An in-memory full-duplex blocking pipe for testing without a
    /// network. Dropping one end closes its outgoing direction, so the peer
    /// sees EOF instead of blocking forever.
    struct Shared {
        q: VecDeque<u8>,
        closed: bool,
        /// FNV-1a over every byte ever written to this direction.
        wire_digest: u64,
    }

    type Chan = Arc<(Mutex<Shared>, std::sync::Condvar)>;

    struct Pipe {
        tx: Chan,
        rx: Chan,
    }

    fn chan() -> Chan {
        Arc::new((
            Mutex::new(Shared {
                q: VecDeque::new(),
                closed: false,
                wire_digest: 0xcbf29ce484222325,
            }),
            std::sync::Condvar::new(),
        ))
    }

    fn pipe_pair() -> (Pipe, Pipe) {
        let a = chan();
        let b = chan();
        (
            Pipe {
                tx: a.clone(),
                rx: b.clone(),
            },
            Pipe { tx: b, rx: a },
        )
    }

    impl Drop for Pipe {
        fn drop(&mut self) {
            let (m, cv) = &*self.tx;
            m.lock().unwrap().closed = true;
            cv.notify_all();
        }
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let (m, cv) = &*self.rx;
            let mut sh = m.lock().unwrap();
            while sh.q.is_empty() && !sh.closed {
                sh = cv.wait(sh).unwrap();
            }
            if sh.q.is_empty() {
                return Ok(0); // peer dropped its end
            }
            let n = buf.len().min(sh.q.len());
            for (i, b) in sh.q.drain(..n).enumerate() {
                buf[i] = b;
            }
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let (m, cv) = &*self.tx;
            let mut sh = m.lock().unwrap();
            sh.q.extend(buf.iter());
            for &b in buf {
                sh.wire_digest = (sh.wire_digest ^ b as u64).wrapping_mul(0x100000001b3);
            }
            cv.notify_all();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Drive both handshake halves concurrently on two threads.
    fn handshake_pair(
        psk_client: &[u8],
        psk_server: &[u8],
    ) -> (
        io::Result<SecureStream<Pipe>>,
        io::Result<SecureStream<Pipe>>,
    ) {
        let (pc, ps) = pipe_pair();
        let cfg_c = SecureConfig::new(psk_client);
        let cfg_s = SecureConfig::new(psk_server);
        let server = std::thread::spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(2);
            SecureStream::server(ps, &cfg_s, &mut rng)
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let client = SecureStream::client(pc, &cfg_c, &mut rng);
        let server = server.join().unwrap();
        (client, server)
    }

    #[test]
    fn handshake_and_data_roundtrip() {
        let (client, server) = handshake_pair(b"vo-secret", b"vo-secret");
        let mut client = client.unwrap();
        let mut server = server.unwrap();
        client.write_all(b"over the wire, encrypted").unwrap();
        let mut buf = [0u8; 24];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"over the wire, encrypted");
        // And the other direction.
        server.write_all(b"reply").unwrap();
        let mut buf = [0u8; 5];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"reply");
    }

    #[test]
    fn wrong_psk_fails_both_sides() {
        let (client, server) = handshake_pair(b"correct", b"wrong");
        assert!(client.is_err(), "client must reject server with wrong PSK");
        // The server fails too: either it never gets a valid Finished or
        // the pipe EOFs.
        assert!(server.is_err());
    }

    /// Records wait for an open session: a write before the handshake is
    /// over is refused, and a handshake that refused a flight stays
    /// refused rather than reading on.
    #[test]
    fn records_wait_for_an_open_handshake() {
        let (pc, mut ps) = pipe_pair();
        let rng = &mut rand::rngs::StdRng::seed_from_u64(1);
        let mut client =
            SecureStream::start(pc, &SecureConfig::new("k"), rng, Role::Client).unwrap();
        let early = client.write(b"early").unwrap_err();
        assert_eq!(early.kind(), io::ErrorKind::NotConnected);
        ps.write_all(&[TYPE_HANDSHAKE, 0, 1, MSG_FINISHED]).unwrap();
        drop(ps); // a read past the refused flight would see EOF
        for _ in 0..2 {
            let refused = client.poll_handshake().unwrap_err();
            assert_eq!(refused.kind(), io::ErrorKind::PermissionDenied);
        }
    }

    #[test]
    fn ciphertext_on_wire_differs_from_plaintext() {
        let (client, server) = handshake_pair(b"k", b"k");
        let mut client = client.unwrap();
        let server = server.unwrap();
        client.write_all(b"THE-SECRET-PAYLOAD").unwrap();
        let wire: Vec<u8> = server
            .get_ref()
            .rx
            .0
            .lock()
            .unwrap()
            .q
            .iter()
            .copied()
            .collect();
        let hay = wire
            .windows(b"THE-SECRET-PAYLOAD".len())
            .any(|w| w == b"THE-SECRET-PAYLOAD");
        assert!(!hay, "plaintext leaked onto the wire");
    }

    #[test]
    fn close_notify_gives_clean_eof() {
        let (client, server) = handshake_pair(b"k", b"k");
        let mut client = client.unwrap();
        let mut server = server.unwrap();
        client.write_all(b"bye").unwrap();
        client.close().unwrap();
        let mut buf = Vec::new();
        let mut tmp = [0u8; 8];
        loop {
            match server.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&tmp[..n]),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(buf, b"bye");
    }

    /// Hostile bytes on the record layer after genuine records: each case
    /// ends in a typed error from `read`, or a clean EOF for bytes after
    /// CLOSE, and delivers nothing but the genuine records.
    #[test]
    fn corrupted_record_is_rejected() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        fn xor(record: &[u8], at: usize, x: u8) -> Vec<u8> {
            let mut r = record.to_vec();
            r[at] ^= x;
            r
        }
        type Wire = fn(&[u8], &[u8], &[u8]) -> Vec<u8>;
        let cases: [(&str, Wire, Result<(), io::ErrorKind>); 7] = [
            (
                "truncated header",
                |r1, r2, _| [r1, &r2[..2]].concat(),
                Err(UnexpectedEof),
            ),
            (
                "truncated body",
                |r1, r2, _| [r1, &r2[..10]].concat(),
                Err(UnexpectedEof),
            ),
            (
                "length inflated past the body",
                |r1, r2, _| [r1, &xor(r2, 1, 1)].concat(),
                Err(UnexpectedEof),
            ),
            (
                "flipped tag byte",
                |r1, r2, _| [r1, &xor(r2, r2.len() - 1, 0xff)].concat(),
                Err(InvalidData),
            ),
            (
                "replayed earlier record",
                |r1, _, _| [r1, r1].concat(),
                Err(InvalidData),
            ),
            (
                "handshake record after the handshake",
                |r1, r2, _| [r1, &xor(r2, 0, TYPE_DATA ^ TYPE_HANDSHAKE)].concat(),
                Err(InvalidData),
            ),
            (
                "bytes after CLOSE",
                |r1, r2, close| [r1, r2, close, r1].concat(),
                Ok(()),
            ),
        ];
        for (name, wire, end) in cases {
            let (client, server) = handshake_pair(b"k", b"k");
            let (mut client, mut server) = (client.unwrap(), server.unwrap());
            client.write_all(b"first").unwrap();
            client.write_all(b"second").unwrap();
            client.close().unwrap();
            drop(client); // the server reads EOF after what is queued
            {
                let mut sh = server.get_ref().rx.0.lock().unwrap();
                let sent: Vec<u8> = sh.q.drain(..).collect();
                let (r1, rest) = sent.split_at(3 + 5 + aead::AEAD_TAG_LEN);
                let (r2, close) = rest.split_at(3 + 6 + aead::AEAD_TAG_LEN);
                sh.q.extend(wire(r1, r2, close));
            }
            let (mut got, mut buf) = (Vec::new(), [0u8; 64]);
            let outcome = loop {
                match server.read(&mut buf) {
                    Ok(0) => break Ok(()),
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) => break Err(e.kind()),
                }
            };
            assert_eq!(outcome, end, "{name}");
            let genuine: &[u8] = if end.is_ok() {
                b"firstsecond"
            } else {
                b"first"
            };
            assert_eq!(got, genuine, "{name}: only the genuine records");
        }
    }

    #[test]
    fn large_transfer_spans_many_records() {
        let (client, server) = handshake_pair(b"k", b"k");
        let mut client = client.unwrap();
        let mut server = server.unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        client.write_all(&data).unwrap();
        client.close().unwrap();
        let mut got = Vec::new();
        let mut tmp = [0u8; 4096];
        loop {
            match server.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&tmp[..n]),
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, data);
        // The wire itself, handshake included (its randomness is seeded):
        // pinned before the 16-block ChaCha20 pass existed, so a record
        // that decrypts but moved a ciphertext or tag byte still fails.
        let sent = |s: &SecureStream<Pipe>| s.get_ref().tx.0.lock().unwrap().wire_digest;
        assert_eq!(
            sent(&client),
            0xB668_2B69_F6A7_E979,
            "client -> server bytes"
        );
        assert_eq!(
            sent(&server),
            0x8103_1F19_4E30_BFB7,
            "server -> client bytes"
        );
    }
}
