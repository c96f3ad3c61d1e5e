//! LEB128-style unsigned varints, shared by the gridzip framing and the
//! netgrid wire protocols.

use std::io::{self, Read};

/// Append `v` to `out` as a varint (7 bits per byte, LSB first).
pub fn put(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Encode `v` into the front of `buf` (which must hold at least 10 bytes);
/// returns the encoded length. The allocation-free form of [`put`] for
/// per-frame headers built on the stack.
pub fn put_slice(buf: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = b;
            return n + 1;
        }
        buf[n] = b | 0x80;
        n += 1;
    }
}

/// Decode a varint from the front of `buf`; returns (value, bytes consumed).
pub fn get(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &b) in buf.iter().enumerate().take(10) {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Read a varint from an `io::Read`.
pub fn read_from<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    for i in 0..10 {
        let mut b = [0u8];
        r.read_exact(&mut b)?;
        v |= u64::from(b[0] & 0x7f) << (7 * i);
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        "varint too long",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put(&mut buf, v);
            let (got, used) = get(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
            let mut arr = [0u8; 10];
            let n = put_slice(&mut arr, v);
            assert_eq!(&arr[..n], &buf[..], "put_slice matches put for {v}");
        }
    }

    #[test]
    fn io_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 300, 1 << 40] {
            put(&mut buf, v);
        }
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_from(&mut cur).unwrap(), 0);
        assert_eq!(read_from(&mut cur).unwrap(), 300);
        assert_eq!(read_from(&mut cur).unwrap(), 1 << 40);
    }

    #[test]
    fn truncated_is_none() {
        let mut buf = Vec::new();
        put(&mut buf, u64::MAX);
        assert!(get(&buf[..buf.len() - 1]).is_none());
        assert!(get(&[]).is_none());
    }
}
