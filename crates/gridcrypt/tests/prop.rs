//! Property-based tests of the crypto substrate.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// AEAD round-trip for arbitrary payloads and AAD.
    #[test]
    fn aead_roundtrip(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::array::uniform12(any::<u8>()),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let mut buf = payload.clone();
        let tag = gridcrypt::seal_in_place(&key, &nonce, &aad, &mut buf);
        if !payload.is_empty() {
            prop_assert_ne!(&buf, &payload, "ciphertext must differ");
        }
        gridcrypt::open_in_place(&key, &nonce, &aad, &mut buf, &tag).unwrap();
        prop_assert_eq!(buf, payload);
    }

    /// Any single bit flip in the ciphertext or tag is detected.
    #[test]
    fn aead_detects_any_bitflip(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip_bit in 0usize..1000,
    ) {
        let key = [9u8; 32];
        let nonce = [4u8; 12];
        let mut buf = payload.clone();
        let tag = gridcrypt::seal_in_place(&key, &nonce, b"a", &mut buf);
        let mut wire = buf.clone();
        wire.extend_from_slice(&tag);
        let bit = flip_bit % (wire.len() * 8);
        wire[bit / 8] ^= 1 << (bit % 8);
        let (ct, tg) = wire.split_at(wire.len() - 16);
        let mut ct = ct.to_vec();
        let tg: [u8; 16] = tg.try_into().unwrap();
        prop_assert!(gridcrypt::open_in_place(&key, &nonce, b"a", &mut ct, &tg).is_err());
    }

    /// Incremental SHA-256 equals one-shot for any split.
    #[test]
    fn sha256_incremental(
        data in proptest::collection::vec(any::<u8>(), 0..4000),
        splits in proptest::collection::vec(1usize..500, 0..8),
    ) {
        let want = gridcrypt::sha256::sha256(&data);
        let mut h = gridcrypt::sha256::Sha256::new();
        let mut rest: &[u8] = &data;
        for s in splits {
            let n = s.min(rest.len());
            h.update(&rest[..n]);
            rest = &rest[n..];
        }
        h.update(rest);
        prop_assert_eq!(h.finalize(), want);
    }

    /// Diffie-Hellman agreement for arbitrary secrets.
    #[test]
    fn x25519_agreement(
        sk_a in proptest::array::uniform32(any::<u8>()),
        sk_b in proptest::array::uniform32(any::<u8>()),
    ) {
        let pk_a = gridcrypt::x25519::public_key(&sk_a);
        let pk_b = gridcrypt::x25519::public_key(&sk_b);
        prop_assert_eq!(
            gridcrypt::x25519::x25519(&sk_a, &pk_b),
            gridcrypt::x25519::x25519(&sk_b, &pk_a)
        );
    }

    /// HKDF is deterministic and length-exact.
    #[test]
    fn hkdf_expand_lengths(
        ikm in proptest::collection::vec(any::<u8>(), 0..64),
        len in 1usize..512,
    ) {
        let prk = gridcrypt::hkdf::extract(b"salt", &ikm);
        let mut a = vec![0u8; len];
        let mut b = vec![0u8; len];
        gridcrypt::hkdf::expand(&prk, b"info", &mut a);
        gridcrypt::hkdf::expand(&prk, b"info", &mut b);
        prop_assert_eq!(&a, &b);
        // A prefix relationship: shorter outputs are prefixes of longer ones.
        let mut c = vec![0u8; len / 2];
        gridcrypt::hkdf::expand(&prk, b"info", &mut c);
        prop_assert_eq!(&a[..len / 2], &c[..]);
    }

    /// HMAC differs when either key or message changes.
    #[test]
    fn hmac_sensitivity(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 1..256),
    ) {
        let base = gridcrypt::hmac::hmac_sha256(&key, &msg);
        let mut key2 = key.clone();
        key2[0] ^= 1;
        prop_assert_ne!(gridcrypt::hmac::hmac_sha256(&key2, &msg), base);
        let mut msg2 = msg.clone();
        msg2[0] ^= 1;
        prop_assert_ne!(gridcrypt::hmac::hmac_sha256(&key, &msg2), base);
    }
}

/// The 26-bit-limb Poly1305 the library used before its 64-bit, four-block
/// form: the oracle the library's tags are checked against.
#[allow(clippy::needless_range_loop)]
mod one_block {
    /// Incremental Poly1305, one block and one carry at a time.
    pub struct Poly1305 {
        r: [u32; 5],
        h: [u32; 5],
        s: [u32; 4],
        buf: [u8; 16],
        buf_len: usize,
    }

    impl Poly1305 {
        pub fn new(key: &[u8; 32]) -> Poly1305 {
            // Clamp r per the spec.
            let t0 = u32::from_le_bytes(key[0..4].try_into().unwrap());
            let t1 = u32::from_le_bytes(key[4..8].try_into().unwrap());
            let t2 = u32::from_le_bytes(key[8..12].try_into().unwrap());
            let t3 = u32::from_le_bytes(key[12..16].try_into().unwrap());
            let r = [
                t0 & 0x3ffffff,
                ((t0 >> 26) | (t1 << 6)) & 0x3ffff03,
                ((t1 >> 20) | (t2 << 12)) & 0x3ffc0ff,
                ((t2 >> 14) | (t3 << 18)) & 0x3f03fff,
                (t3 >> 8) & 0x00fffff,
            ];
            let s = [
                u32::from_le_bytes(key[16..20].try_into().unwrap()),
                u32::from_le_bytes(key[20..24].try_into().unwrap()),
                u32::from_le_bytes(key[24..28].try_into().unwrap()),
                u32::from_le_bytes(key[28..32].try_into().unwrap()),
            ];
            Poly1305 {
                r,
                h: [0; 5],
                s,
                buf: [0; 16],
                buf_len: 0,
            }
        }

        fn process_block(&mut self, block: &[u8; 16], partial: bool) {
            let hibit: u32 = if partial { 0 } else { 1 << 24 };
            let t0 = u32::from_le_bytes(block[0..4].try_into().unwrap());
            let t1 = u32::from_le_bytes(block[4..8].try_into().unwrap());
            let t2 = u32::from_le_bytes(block[8..12].try_into().unwrap());
            let t3 = u32::from_le_bytes(block[12..16].try_into().unwrap());
            self.h[0] += t0 & 0x3ffffff;
            self.h[1] += ((t0 >> 26) | (t1 << 6)) & 0x3ffffff;
            self.h[2] += ((t1 >> 20) | (t2 << 12)) & 0x3ffffff;
            self.h[3] += ((t2 >> 14) | (t3 << 18)) & 0x3ffffff;
            self.h[4] += (t3 >> 8) | hibit;

            // h *= r (mod 2^130 - 5)
            let [r0, r1, r2, r3, r4] = self.r.map(u64::from);
            let (s1, s2, s3, s4) = (r1 * 5, r2 * 5, r3 * 5, r4 * 5);
            let [h0, h1, h2, h3, h4] = self.h.map(u64::from);
            let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
            let d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
            let d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
            let d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
            let d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

            // Carry propagation.
            let mut c: u64;
            let mut d0 = d0;
            let mut d1 = d1;
            let mut d2 = d2;
            let mut d3 = d3;
            let mut d4 = d4;
            c = d0 >> 26;
            d0 &= 0x3ffffff;
            d1 += c;
            c = d1 >> 26;
            d1 &= 0x3ffffff;
            d2 += c;
            c = d2 >> 26;
            d2 &= 0x3ffffff;
            d3 += c;
            c = d3 >> 26;
            d3 &= 0x3ffffff;
            d4 += c;
            c = d4 >> 26;
            d4 &= 0x3ffffff;
            d0 += c * 5;
            c = d0 >> 26;
            d0 &= 0x3ffffff;
            d1 += c;
            self.h = [d0 as u32, d1 as u32, d2 as u32, d3 as u32, d4 as u32];
        }

        pub fn update(&mut self, mut data: &[u8]) {
            if self.buf_len > 0 {
                let take = data.len().min(16 - self.buf_len);
                self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
                self.buf_len += take;
                data = &data[take..];
                if self.buf_len == 16 {
                    let block = self.buf;
                    self.process_block(&block, false);
                    self.buf_len = 0;
                }
            }
            while data.len() >= 16 {
                let block: [u8; 16] = data[..16].try_into().unwrap();
                self.process_block(&block, false);
                data = &data[16..];
            }
            if !data.is_empty() {
                self.buf[..data.len()].copy_from_slice(data);
                self.buf_len = data.len();
            }
        }

        pub fn finalize(mut self) -> [u8; 16] {
            if self.buf_len > 0 {
                let mut block = [0u8; 16];
                block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
                block[self.buf_len] = 1; // the padding 1-bit for a partial block
                self.process_block(&block, true);
            }
            // Full carry and reduction mod 2^130 - 5.
            let mut h = self.h.map(u64::from);
            let mut c: u64;
            c = h[1] >> 26;
            h[1] &= 0x3ffffff;
            h[2] += c;
            c = h[2] >> 26;
            h[2] &= 0x3ffffff;
            h[3] += c;
            c = h[3] >> 26;
            h[3] &= 0x3ffffff;
            h[4] += c;
            c = h[4] >> 26;
            h[4] &= 0x3ffffff;
            h[0] += c * 5;
            c = h[0] >> 26;
            h[0] &= 0x3ffffff;
            h[1] += c;

            // Compute h + -p and select.
            let mut g = [0u64; 5];
            g[0] = h[0] + 5;
            c = g[0] >> 26;
            g[0] &= 0x3ffffff;
            g[1] = h[1] + c;
            c = g[1] >> 26;
            g[1] &= 0x3ffffff;
            g[2] = h[2] + c;
            c = g[2] >> 26;
            g[2] &= 0x3ffffff;
            g[3] = h[3] + c;
            c = g[3] >> 26;
            g[3] &= 0x3ffffff;
            g[4] = h[4].wrapping_add(c).wrapping_sub(1 << 26);

            // If g[4] did not underflow, h >= p: take g.
            let mask = (g[4] >> 63).wrapping_sub(1); // all-ones if no underflow
            for i in 0..5 {
                h[i] = (h[i] & !mask) | (g[i] & mask);
            }

            // Serialize h as 128 bits and add s (mod 2^128).
            let h0 = (h[0] | (h[1] << 26)) as u32;
            let h1 = ((h[1] >> 6) | (h[2] << 20)) as u32;
            let h2 = ((h[2] >> 12) | (h[3] << 14)) as u32;
            let h3 = ((h[3] >> 18) | (h[4] << 8)) as u32;
            let mut acc: u64;
            let mut out = [0u8; 16];
            acc = u64::from(h0) + u64::from(self.s[0]);
            out[0..4].copy_from_slice(&(acc as u32).to_le_bytes());
            acc = u64::from(h1) + u64::from(self.s[1]) + (acc >> 32);
            out[4..8].copy_from_slice(&(acc as u32).to_le_bytes());
            acc = u64::from(h2) + u64::from(self.s[2]) + (acc >> 32);
            out[8..12].copy_from_slice(&(acc as u32).to_le_bytes());
            acc = u64::from(h3) + u64::from(self.s[3]) + (acc >> 32);
            out[12..16].copy_from_slice(&(acc as u32).to_le_bytes());
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The library's Poly1305 tags every message as the one-block oracle
    /// does, however the message is split across `update` calls.
    #[test]
    fn poly1305_matches_the_one_block_oracle(
        key in proptest::array::uniform32(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 0..1200),
        splits in proptest::collection::vec(0usize..300, 0..6),
        saturated in any::<bool>(),
    ) {
        // All-ones keys and data drive every limb to its bound.
        let (key, data) = if saturated {
            ([0xff; 32], vec![0xff; data.len()])
        } else {
            (key, data)
        };
        let mut want = one_block::Poly1305::new(&key);
        want.update(&data);
        let mut got = gridcrypt::poly1305::Poly1305::new(&key);
        let mut rest: &[u8] = &data;
        for s in splits {
            let (head, tail) = rest.split_at(s.min(rest.len()));
            got.update(head);
            rest = tail;
        }
        got.update(rest);
        prop_assert_eq!(got.finalize(), want.finalize());
    }
}

/// Each thread's largest allocation: no allocation on the way through
/// hostile bytes may exceed the bound their format sets.
mod largest {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local!(static LARGEST: Cell<usize> = const { Cell::new(0) });

    /// Notes each thread's largest allocation in `LARGEST`.
    struct LargestAlloc;

    // SAFETY: every call goes to `System` with the caller's arguments
    // unchanged; the high-water mark is a statistic and guards nothing.
    unsafe impl GlobalAlloc for LargestAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = LARGEST.try_with(|m| m.set(m.get().max(new_size)));
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: LargestAlloc = LargestAlloc;

    /// `f`'s result, and the largest allocation it made.
    pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|m| m.set(0));
        let out = f();
        (out, LARGEST.with(Cell::get))
    }
}

/// A source that serves its input, from byte `from` on one byte per read,
/// logging those reads' lengths; with `stalls`, each of them comes after a
/// `WouldBlock`, as from a socket that must not park, and must be asked
/// for again with the same length. Before `from` it serves what it is
/// asked for. What is written to it is dropped.
pub struct Trickle {
    input: Vec<u8>,
    at: usize,
    from: usize,
    stalls: bool,
    stalled: Option<usize>,
    pub reads: Vec<usize>,
}

impl Trickle {
    pub fn new(input: &[u8], from: usize, stalls: bool) -> Trickle {
        let (at, stalled, reads) = (0, None, Vec::new());
        let input = input.to_vec();
        Trickle {
            input,
            at,
            from,
            stalls,
            stalled,
            reads,
        }
    }
}

impl std::io::Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.input.len() - self.at;
        let n = if self.at < self.from {
            buf.len().min(self.from - self.at)
        } else {
            if let Some(len) = self.stalled.take() {
                assert_eq!(buf.len(), len, "asked again for another length");
            } else if self.stalls {
                self.stalled = Some(buf.len());
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.reads.push(buf.len());
            buf.len().min(1)
        };
        let n = n.min(left);
        buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

impl std::io::Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// GTLS's handshake fed hostile bytes. Each end reads what an in-memory
/// duplex holds, then EOF, and keeps what it writes. A valid exchange is
/// replayed from fixed seeds; cut short, with bytes flipped, or replaced by
/// arbitrary bytes, each end's input must end the handshake in a typed
/// `io::Error` — never a panic, never a session — and no allocation on the
/// way may exceed one record, whose length field is 16 bits.
mod hostile_handshake {
    use super::largest;
    use gridcrypt::{SecureConfig, SecureStream};
    use rand::{rngs::StdRng, SeedableRng};
    use std::io::{self, Read, Write};

    /// One record: a 3-byte header and at most `u16::MAX` body bytes.
    pub const RECORD: usize = 64 * 1024;

    /// One end of an in-memory duplex.
    #[derive(Default)]
    pub struct Duplex {
        pub input: io::Cursor<Vec<u8>>,
        pub output: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[derive(Clone, Copy, Debug)]
    pub enum End {
        Client,
        Server,
    }

    /// Run `end`'s handshake over `input` from its fixed seed: what it
    /// wrote, whether it made a session, and its largest allocation.
    fn handshake(end: End, input: &[u8]) -> (Vec<u8>, io::Result<()>, usize) {
        let cfg = SecureConfig::new("vo-secret");
        let mut duplex = Duplex {
            input: io::Cursor::new(input.to_vec()),
            output: Vec::new(),
        };
        let (made, largest) = largest::measure(|| match end {
            End::Client => {
                let rng = &mut StdRng::seed_from_u64(1);
                SecureStream::client(&mut duplex, &cfg, rng).map(drop)
            }
            End::Server => {
                let rng = &mut StdRng::seed_from_u64(2);
                SecureStream::server(&mut duplex, &cfg, rng).map(drop)
            }
        });
        (duplex.output, made, largest)
    }

    /// The valid inputs: the server's hello for the client, the client's
    /// hello and Finished for the server. Each end is run until its input
    /// runs out and handed what the other wrote.
    pub fn valid() -> (Vec<u8>, Vec<u8>) {
        let (hello, ..) = handshake(End::Client, &[]);
        let (server_hello, ..) = handshake(End::Server, &hello);
        let (client_flight, made, _) = handshake(End::Client, &server_hello);
        made.expect("the client accepts the replayed server hello");
        let (_, made, _) = handshake(End::Server, &client_flight);
        made.expect("the server accepts the replayed client flight");
        (server_hello, client_flight)
    }

    /// `end` refuses `input` as a handshake must: a typed error — the input
    /// ran out, or the handshake was refused — and no allocation over a
    /// record.
    pub fn refuses(end: End, input: &[u8]) -> Result<(), String> {
        let (_, made, largest) = handshake(end, input);
        match made {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::PermissionDenied
                ) => {}
            other => return Err(format!("{end:?} on {input:02x?}: {other:?}")),
        }
        if largest > RECORD {
            return Err(format!("{end:?} allocated {largest} B on {input:02x?}"));
        }
        Ok(())
    }

    #[test]
    fn every_truncation_of_a_valid_flight_is_refused() {
        let (server_hello, client_flight) = valid();
        for (end, input) in [(End::Client, server_hello), (End::Server, client_flight)] {
            for cut in 0..input.len() {
                refuses(end, &input[..cut]).unwrap();
            }
        }
    }

    /// Every byte of a valid flight, its low bit, its high bit or all of it
    /// flipped, is refused by the end that reads it: each field is checked
    /// or bound into the transcript the other end's authenticator covers.
    #[test]
    fn every_flipped_byte_of_a_valid_flight_is_refused() {
        let (server_hello, client_flight) = valid();
        for (end, input) in [(End::Client, server_hello), (End::Server, client_flight)] {
            for at in 0..input.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut flipped = input.clone();
                    flipped[at] ^= mask;
                    refuses(end, &flipped).unwrap();
                }
            }
        }
    }

    #[test]
    fn a_record_that_declares_the_most_it_can_allocates_one_record() {
        for end in [End::Client, End::Server] {
            refuses(end, &[1, 0xff, 0xff, 2, 0]).unwrap();
            let (_, _, largest) = handshake(end, &[1, 0xff, 0xff]);
            assert!(largest >= usize::from(u16::MAX), "{end:?}: {largest} B");
        }
    }
}

/// GTLS records after the handshake, read from a source that serves one
/// byte per read and, in the polled case, would block before each: the
/// record read resumes where it stopped, so the session delivers what it
/// delivers over a source that never blocks, from the same reads; and
/// hostile records end in a typed error with no allocation past a record.
mod records {
    use super::hostile_handshake::{valid, Duplex, RECORD};
    use super::{largest, Trickle};
    use gridcrypt::{SecureConfig, SecureStream};
    use rand::{rngs::StdRng, SeedableRng};
    use std::io::{self, Read, Write};

    const DATA: [&[u8]; 2] = [b"first", b"and the second record"];

    /// What the server of the replayed handshake reads when its client
    /// sent `DATA` and closed: the client's flight, then its records; and
    /// where the records start.
    fn client_stream() -> (Vec<u8>, usize) {
        let (server_hello, _) = valid();
        let mut duplex = Duplex {
            input: io::Cursor::new(server_hello),
            output: Vec::new(),
        };
        let cfg = SecureConfig::new("vo-secret");
        let rng = &mut StdRng::seed_from_u64(1);
        let mut client = SecureStream::client(&mut duplex, &cfg, rng).unwrap();
        let flight = client.get_ref().output.len();
        DATA.iter().for_each(|d| client.write_all(d).unwrap());
        client.close().unwrap();
        drop(client);
        (duplex.output, flight)
    }

    /// The server's session over `input`, read until it ends: what it
    /// delivered, the lengths the records were read with, how it ended,
    /// and the largest allocation reading them took.
    fn serve(
        input: &[u8],
        flight: usize,
        stalls: bool,
    ) -> (Vec<u8>, Vec<usize>, io::Result<()>, usize) {
        let cfg = SecureConfig::new("vo-secret");
        let source = Trickle::new(input, flight, stalls);
        let rng = &mut StdRng::seed_from_u64(2);
        let mut s = SecureStream::server(source, &cfg, rng).expect("the replayed flight");
        let ((got, end), largest) = largest::measure(|| {
            let (mut got, mut buf) = (Vec::new(), [0u8; 64]);
            let end = loop {
                match s.read(&mut buf) {
                    Ok(0) => break Ok(()),
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => break Err(e),
                }
            };
            (got, end)
        });
        (got, std::mem::take(&mut s.get_mut().reads), end, largest)
    }

    #[test]
    fn a_record_resumes_where_its_source_would_block() {
        let (input, flight) = client_stream();
        let (got, reads, end, _) = serve(&input, flight, false);
        end.unwrap();
        assert_eq!(got, DATA.concat());
        let (stalled, stalled_reads, end, _) = serve(&input, flight, true);
        end.unwrap();
        assert_eq!(stalled, got);
        assert_eq!(stalled_reads, reads);
    }

    /// `input`, its records fed one byte per poll, ends in `InvalidData` or
    /// `UnexpectedEof`, with no allocation over a record.
    fn refused(input: &[u8], flight: usize, what: &str) -> usize {
        let (_, _, end, largest) = serve(input, flight, true);
        let kind = end.expect_err(what).kind();
        assert!(
            matches!(
                kind,
                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
            ),
            "{what}: {kind:?}"
        );
        assert!(largest <= RECORD, "{what}: allocated {largest} B");
        largest
    }

    #[test]
    fn every_truncated_or_flipped_record_is_refused() {
        let (input, flight) = client_stream();
        for cut in flight..input.len() {
            refused(&input[..cut], flight, &format!("cut at {cut}"));
        }
        for at in flight..input.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = input.clone();
                flipped[at] ^= mask;
                refused(&flipped, flight, &format!("byte {at} ^ {mask:#x}"));
            }
        }
    }

    /// A record that declares the most a length field can hold costs one
    /// record's buffer, sized after its header, and ends at the EOF.
    #[test]
    fn a_record_that_declares_the_most_it_can_allocates_one_record() {
        let (mut input, flight) = client_stream();
        input[flight + 1..flight + 3].copy_from_slice(&[0xff, 0xff]);
        let largest = refused(&input, flight, "length 0xffff");
        assert!(largest >= usize::from(u16::MAX), "{largest} B");
    }
}

/// gridzip's framing rides under GTLS in a compressed secure stack, and is
/// checked here beside it with the same allocation counter: a framed
/// stream fed one byte per poll, each after a would-block, cut short, with
/// bytes flipped or with its declared lengths inflated, ends in a typed
/// error or a clean end (a flipped payload byte is data to the framing) —
/// never a panic — and no allocation exceeds what `DecompressReader` bounds
/// a block's declared lengths by, each checked before it is allocated.
mod frames {
    use super::{largest, Trickle};
    use gridzip::{synth, varint, CompressWriter, DecompressReader};
    use std::io::{self, Read, Write};

    /// `DecompressReader`'s bound on a block's decoded size, and on its
    /// payload (with the stored fallback's slack).
    const MAX_BLOCK: usize = 16 << 20;
    const MAX_PAYLOAD: usize = MAX_BLOCK + MAX_BLOCK / 8 + 64;

    /// A framed stream of LZSS and stored blocks, and its bytes.
    fn framed() -> (Vec<u8>, Vec<u8>) {
        let data = [&synth::grid_payload(700, 0.6, 3)[..], &[0x5a; 1][..]].concat();
        let mut noise = 0x9e37_79b9u32;
        let noise: Vec<u8> = (0..200)
            .map(|_| {
                noise = noise.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (noise >> 24) as u8
            })
            .collect();
        let data = [data, noise].concat();
        let mut w = CompressWriter::with_block_size(Vec::new(), 1, 256);
        w.write_all(&data).unwrap();
        (w.finish().unwrap(), data)
    }

    /// Decode `input`, one byte per poll: what it delivered or how it
    /// failed, and the largest allocation on the way.
    fn decode(input: &[u8]) -> (io::Result<Vec<u8>>, usize) {
        let mut r = DecompressReader::new(Trickle::new(input, 0, true));
        largest::measure(|| {
            let (mut got, mut buf) = (Vec::new(), [0u8; 512]);
            loop {
                match r.read(&mut buf) {
                    Ok(0) => return Ok(got),
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
        })
    }

    /// `input` ends in `InvalidData` or `UnexpectedEof` — or, where
    /// `clean` allows it, a clean end — within the block bound.
    fn ends_typed(input: &[u8], clean: impl Fn(&[u8]) -> bool, what: &str) -> usize {
        let (end, largest) = decode(input);
        match end {
            Ok(got) => assert!(clean(&got), "{what}: a clean end"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "{what}: {e:?}"
            ),
        }
        assert!(largest <= MAX_PAYLOAD, "{what}: allocated {largest} B");
        largest
    }

    #[test]
    fn every_truncated_or_flipped_frame_ends_typed() {
        let (framed, data) = framed();
        assert_eq!(decode(&framed).0.unwrap(), data);
        // A cut at a block boundary is a shorter stream.
        for cut in 0..framed.len() {
            ends_typed(
                &framed[..cut],
                |got| data.starts_with(got),
                &format!("cut at {cut}"),
            );
        }
        for at in 0..framed.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut flipped = framed.clone();
                flipped[at] ^= mask;
                ends_typed(&flipped, |_| true, &format!("byte {at} ^ {mask:#x}"));
            }
        }
    }

    /// One block's header with the given lengths, then `payload`.
    fn block(flag: u8, orig_len: u64, payload_len: u64, payload: &[u8]) -> Vec<u8> {
        let mut b = vec![flag];
        varint::put(&mut b, orig_len);
        varint::put(&mut b, payload_len);
        [b, payload.to_vec()].concat()
    }

    #[test]
    fn inflated_lengths_are_refused_before_they_are_allocated() {
        let small = 64 * 1024;
        let over = [
            block(0, MAX_BLOCK as u64 + 1, 3, b"abc"),
            block(1, u64::MAX, 3, b"abc"),
            block(0, 3, MAX_PAYLOAD as u64 + 1, b"abc"),
            block(1, 3, u64::MAX, b"abc"),
            [&[0u8][..], &[0xff; 9], &[0x7f]].concat(),
        ];
        for input in over {
            let what = format!("{:02x?}", &input[..input.len().min(12)]);
            let (end, largest) = decode(&input);
            assert_eq!(
                end.unwrap_err().kind(),
                io::ErrorKind::InvalidData,
                "{what}"
            );
            assert!(largest < small, "{what}: allocated {largest} B");
        }
        // At the bound a payload is allocated, then the stream ends in it.
        let largest = ends_typed(
            &block(0, 3, MAX_PAYLOAD as u64, b"abc"),
            |_| false,
            "at the bound",
        );
        assert!(largest >= MAX_PAYLOAD, "{largest} B");
        ends_typed(
            &block(1, MAX_BLOCK as u64, 3, &[0x20, b'h', b'i']),
            |_| false,
            "orig_len",
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes, alone or as the body of a handshake record of each
    /// message type, are refused by either end.
    #[test]
    fn arbitrary_handshake_bytes_are_refused(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        msg in 0u8..4,
        server in any::<bool>(),
    ) {
        use hostile_handshake::{refuses, End};
        let end = if server { End::Server } else { End::Client };
        let input = match msg {
            0 => bytes,
            _ => [&[1, 0, bytes.len() as u8 + 1, msg][..], &bytes].concat(),
        };
        let refused = refuses(end, &input);
        prop_assert!(refused.is_ok(), "{:?}", refused);
    }
}
