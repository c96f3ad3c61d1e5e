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

use rand::Rng;
use std::io::{self, Read, Write};

use crate::aead;
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

struct DirectionKeys {
    key: [u8; 32],
    iv: [u8; 12],
    seq: u64,
}

impl DirectionKeys {
    fn nonce(&mut self) -> [u8; 12] {
        let mut n = self.iv;
        let seq = self.seq.to_be_bytes();
        for i in 0..8 {
            n[4 + i] ^= seq[i];
        }
        self.seq = self.seq.checked_add(1).expect("record sequence overflow");
        n
    }
}

/// An authenticated, encrypted byte stream.
pub struct SecureStream<S> {
    inner: S,
    send: DirectionKeys,
    recv: DirectionKeys,
    read_buf: Vec<u8>,
    read_pos: usize,
    incoming: Incoming,
    peer_closed: bool,
    close_sent: bool,
}

fn hs_error(msg: &'static str) -> io::Error {
    io::Error::new(
        io::ErrorKind::PermissionDenied,
        format!("gtls handshake: {msg}"),
    )
}

fn write_record<S: Write>(s: &mut S, rtype: u8, body: &[u8]) -> io::Result<()> {
    assert!(body.len() <= u16::MAX as usize);
    let mut hdr = [0u8; 3];
    hdr[0] = rtype;
    hdr[1..3].copy_from_slice(&(body.len() as u16).to_be_bytes());
    s.write_all(&hdr)?;
    s.write_all(body)
}

/// A record on its way in: its header, then its body, each filled in place
/// as the stream below delivers. An error from below — `WouldBlock` from a
/// stream that must not park included — leaves what arrived, and the next
/// read goes on with the same call the failed one made.
#[derive(Default)]
struct Incoming {
    hdr: [u8; 3],
    /// The body, sized once the header is in.
    body: Option<Vec<u8>>,
    /// Bytes of the part in hand (header, then body) read so far.
    got: usize,
}

impl Incoming {
    /// The next record, each read asking for the rest of the part in hand:
    /// the calls `read_exact` makes, resumed where an error stopped them.
    fn read<S: Read>(&mut self, s: &mut S) -> io::Result<(u8, Vec<u8>)> {
        if self.body.is_none() {
            fill(s, &mut self.hdr, &mut self.got)?;
            let len = u16::from_be_bytes([self.hdr[1], self.hdr[2]]);
            (self.body, self.got) = (Some(vec![0u8; len.into()]), 0);
        }
        fill(s, self.body.as_mut().expect("sized"), &mut self.got)?;
        self.got = 0;
        Ok((self.hdr[0], self.body.take().expect("sized")))
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

struct Schedule {
    k_auth: [u8; 32],
    c2s: ([u8; 32], [u8; 12]),
    s2c: ([u8; 32], [u8; 12]),
}

fn key_schedule(psk: &[u8], shared: &[u8; 32], transcript_hash: &[u8; 32]) -> Schedule {
    let prk = hkdf::extract(psk, shared);
    let mut k_auth = [0u8; 32];
    hkdf::expand(&prk, b"gtls auth", &mut k_auth);
    let mut info = Vec::with_capacity(48);
    info.extend_from_slice(b"gtls c2s");
    info.extend_from_slice(transcript_hash);
    let mut c2s = [0u8; 44];
    hkdf::expand(&prk, &info, &mut c2s);
    let mut info = Vec::with_capacity(48);
    info.extend_from_slice(b"gtls s2c");
    info.extend_from_slice(transcript_hash);
    let mut s2c = [0u8; 44];
    hkdf::expand(&prk, &info, &mut s2c);
    let split = |raw: &[u8; 44]| -> ([u8; 32], [u8; 12]) {
        (raw[..32].try_into().unwrap(), raw[32..].try_into().unwrap())
    };
    Schedule {
        k_auth,
        c2s: split(&c2s),
        s2c: split(&s2c),
    }
}

fn auth_tag(k_auth: &[u8; 32], label: &[u8], transcript: &[u8]) -> [u8; 32] {
    let mut msg = Vec::with_capacity(label.len() + transcript.len());
    msg.extend_from_slice(label);
    msg.extend_from_slice(transcript);
    hmac_sha256(k_auth, &msg)
}

/// Reject the all-zero shared secret (contributory behaviour, RFC 7748 §6).
fn check_shared(shared: &[u8; 32]) -> io::Result<()> {
    if shared.iter().all(|&b| b == 0) {
        return Err(hs_error("low-order peer public key"));
    }
    Ok(())
}

impl<S: Read + Write> SecureStream<S> {
    /// Run the client side of the handshake.
    pub fn client(mut inner: S, cfg: &SecureConfig, rng: &mut impl Rng) -> io::Result<Self> {
        let (sk, pk) = x25519::keypair(rng);
        let mut random = [0u8; 32];
        rng.fill(&mut random[..]);

        let mut ch = Vec::with_capacity(65);
        ch.push(MSG_CLIENT_HELLO);
        ch.extend_from_slice(&random);
        ch.extend_from_slice(&pk);
        write_record(&mut inner, TYPE_HANDSHAKE, &ch)?;
        inner.flush()?;

        let (rtype, sh) = Incoming::default().read(&mut inner)?;
        if rtype != TYPE_HANDSHAKE || sh.len() != 1 + 32 + 32 + 32 || sh[0] != MSG_SERVER_HELLO {
            return Err(hs_error("malformed ServerHello"));
        }
        let server_pk: [u8; 32] = sh[33..65].try_into().unwrap();
        let server_auth: [u8; 32] = sh[65..97].try_into().unwrap();
        let sh_core = &sh[..65];

        let shared = x25519::x25519(&sk, &server_pk);
        check_shared(&shared)?;
        let mut transcript = Vec::with_capacity(ch.len() + sh_core.len());
        transcript.extend_from_slice(&ch);
        transcript.extend_from_slice(sh_core);
        let th = sha256(&transcript);
        let sched = key_schedule(&cfg.psk, &shared, &th);

        let expect = auth_tag(&sched.k_auth, b"gtls server", &transcript);
        if !ct_eq(&expect, &server_auth) {
            return Err(hs_error("server authentication failed (wrong PSK?)"));
        }

        transcript.extend_from_slice(&server_auth);
        let client_auth = auth_tag(&sched.k_auth, b"gtls client", &transcript);
        let mut fin = Vec::with_capacity(33);
        fin.push(MSG_FINISHED);
        fin.extend_from_slice(&client_auth);
        write_record(&mut inner, TYPE_HANDSHAKE, &fin)?;
        inner.flush()?;

        Ok(SecureStream {
            inner,
            send: DirectionKeys {
                key: sched.c2s.0,
                iv: sched.c2s.1,
                seq: 0,
            },
            recv: DirectionKeys {
                key: sched.s2c.0,
                iv: sched.s2c.1,
                seq: 0,
            },
            read_buf: Vec::new(),
            read_pos: 0,
            incoming: Incoming::default(),
            peer_closed: false,
            close_sent: false,
        })
    }

    /// Run the server side of the handshake.
    pub fn server(mut inner: S, cfg: &SecureConfig, rng: &mut impl Rng) -> io::Result<Self> {
        let (rtype, ch) = Incoming::default().read(&mut inner)?;
        if rtype != TYPE_HANDSHAKE || ch.len() != 65 || ch[0] != MSG_CLIENT_HELLO {
            return Err(hs_error("malformed ClientHello"));
        }
        let client_pk: [u8; 32] = ch[33..65].try_into().unwrap();

        let (sk, pk) = x25519::keypair(rng);
        let mut random = [0u8; 32];
        rng.fill(&mut random[..]);
        let shared = x25519::x25519(&sk, &client_pk);
        check_shared(&shared)?;

        let mut sh_core = Vec::with_capacity(65);
        sh_core.push(MSG_SERVER_HELLO);
        sh_core.extend_from_slice(&random);
        sh_core.extend_from_slice(&pk);

        let mut transcript = Vec::with_capacity(ch.len() + sh_core.len());
        transcript.extend_from_slice(&ch);
        transcript.extend_from_slice(&sh_core);
        let th = sha256(&transcript);
        let sched = key_schedule(&cfg.psk, &shared, &th);

        let server_auth = auth_tag(&sched.k_auth, b"gtls server", &transcript);
        let mut sh = sh_core;
        sh.extend_from_slice(&server_auth);
        write_record(&mut inner, TYPE_HANDSHAKE, &sh)?;
        inner.flush()?;

        let (rtype, fin) = Incoming::default().read(&mut inner)?;
        if rtype != TYPE_HANDSHAKE || fin.len() != 33 || fin[0] != MSG_FINISHED {
            return Err(hs_error("malformed Finished"));
        }
        transcript.extend_from_slice(&server_auth);
        let expect = auth_tag(&sched.k_auth, b"gtls client", &transcript);
        if !ct_eq(&expect, &fin[1..33]) {
            return Err(hs_error("client authentication failed (wrong PSK?)"));
        }

        Ok(SecureStream {
            inner,
            send: DirectionKeys {
                key: sched.s2c.0,
                iv: sched.s2c.1,
                seq: 0,
            },
            recv: DirectionKeys {
                key: sched.c2s.0,
                iv: sched.c2s.1,
                seq: 0,
            },
            read_buf: Vec::new(),
            read_pos: 0,
            incoming: Incoming::default(),
            peer_closed: false,
            close_sent: false,
        })
    }

    fn send_record(&mut self, rtype: u8, plaintext: &[u8]) -> io::Result<()> {
        // One allocation for ciphertext and tag.
        let sealed_len = plaintext.len() + aead::AEAD_TAG_LEN;
        let mut body = Vec::with_capacity(sealed_len);
        body.extend_from_slice(plaintext);
        let len = sealed_len as u16;
        let aad = [rtype, (len >> 8) as u8, len as u8];
        let nonce = self.send.nonce();
        let tag = aead::seal_in_place(&self.send.key, &nonce, &aad, &mut body);
        body.extend_from_slice(&tag);
        write_record(&mut self.inner, rtype, &body)
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
        if body.len() < aead::AEAD_TAG_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "record too short",
            ));
        }
        let len = body.len() as u16;
        let aad = [rtype, (len >> 8) as u8, len as u8];
        let tag_off = body.len() - aead::AEAD_TAG_LEN;
        let tag: [u8; 16] = body[tag_off..].try_into().unwrap();
        body.truncate(tag_off);
        let nonce = self.recv.nonce();
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
            self.send_record(TYPE_CLOSE, &[])?;
            self.inner.flush()?;
        }
        Ok(())
    }

    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// The same session over `f(inner)`: a transport read one way during
    /// the handshake and another after it (blocking, then polled).
    pub fn map_inner<T>(self, f: impl FnOnce(S) -> T) -> SecureStream<T> {
        SecureStream {
            inner: f(self.inner),
            send: self.send,
            recv: self.recv,
            read_buf: self.read_buf,
            read_pos: self.read_pos,
            incoming: self.incoming,
            peer_closed: self.peer_closed,
            close_sent: self.close_sent,
        }
    }
}

impl<S: Read + Write> Read for SecureStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.read_pos == self.read_buf.len() {
            if self.peer_closed {
                return Ok(0);
            }
            self.pump()?;
        }
        let n = buf.len().min(self.read_buf.len() - self.read_pos);
        buf[..n].copy_from_slice(&self.read_buf[self.read_pos..self.read_pos + n]);
        self.read_pos += n;
        Ok(n)
    }
}

impl<S: Read + Write> Write for SecureStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.close_sent {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        for chunk in buf.chunks(MAX_RECORD) {
            self.send_record(TYPE_DATA, chunk)?;
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::VecDeque;
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
