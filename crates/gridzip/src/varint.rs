//! LEB128-style unsigned varints, shared by the gridzip framing and the
//! netgrid wire protocols.

use std::io;

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

/// The one varint decoder, over any byte source: 7 bits per byte, LSB
/// first, at most ten bytes, the tenth carrying bit 63 alone. An encoding
/// of more than 64 bits is `InvalidData` — truncating it would decode a
/// different number — and an error from `next` ends the decode as it is.
pub fn decode(mut next: impl FnMut() -> io::Result<u8>) -> io::Result<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = next()?;
        if shift == 63 && b > 1 {
            break;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        "varint overflows u64",
    ))
}

/// Decode a varint from the front of `buf`; returns (value, bytes consumed),
/// or `None` if `buf` ends inside it or it overflows.
pub fn get(buf: &[u8]) -> Option<(u64, usize)> {
    let mut used = 0;
    let v = decode(|| {
        let b = *buf.get(used).ok_or(io::ErrorKind::UnexpectedEof)?;
        used += 1;
        Ok(b)
    });
    Some((v.ok()?, used))
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
    fn truncated_is_none() {
        let mut buf = Vec::new();
        put(&mut buf, u64::MAX);
        assert!(get(&buf[..buf.len() - 1]).is_none());
        assert!(get(&[]).is_none());
    }
}
