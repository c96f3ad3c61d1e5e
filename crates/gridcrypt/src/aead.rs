//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).

use crate::chacha20::{self, NONCE_LEN};
use crate::hmac::ct_eq;
use crate::poly1305::{Poly1305, TAG_LEN};

pub use crate::chacha20::KEY_LEN;
pub use crate::poly1305::TAG_LEN as AEAD_TAG_LEN;

fn compute_tag(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; TAG_LEN] {
    // Poly1305 key = first 32 bytes of keystream block 0.
    let block0 = chacha20::block(key, nonce, 0);
    let poly_key: [u8; 32] = std::array::from_fn(|i| block0[i]);
    let mut mac = Poly1305::new(&poly_key);
    mac.update(aad);
    mac.update(&[0u8; 16][..(16 - aad.len() % 16) % 16]);
    mac.update(ciphertext);
    mac.update(&[0u8; 16][..(16 - ciphertext.len() % 16) % 16]);
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

/// Encrypt `plaintext` in place (the buffer becomes ciphertext) and return
/// the authentication tag.
pub fn seal_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    data: &mut [u8],
) -> [u8; TAG_LEN] {
    chacha20::xor_in_place(key, nonce, 1, data);
    compute_tag(key, nonce, aad, data)
}

/// Verify the tag and decrypt `data` in place. On failure the buffer is left
/// as the (useless) ciphertext and an error is returned.
pub fn open_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    data: &mut [u8],
    tag: &[u8; TAG_LEN],
) -> Result<(), AeadError> {
    let expect = compute_tag(key, nonce, aad, data);
    if !ct_eq(&expect, tag) {
        return Err(AeadError);
    }
    chacha20::xor_in_place(key, nonce, 1, data);
    Ok(())
}

/// Authentication failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AeadError {}

impl From<AeadError> for std::io::Error {
    fn from(e: AeadError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        let tag = seal_in_place(&key, &nonce, &aad, &mut data);
        assert_eq!(
            data,
            unhex(
                "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
                 3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
                 92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
                 3ff4def08e4b7a9de576d26586cec64b6116"
            )
        );
        assert_eq!(tag.to_vec(), unhex("1ae10b594f09e26a7e902ecbd0600691"));
        // And decrypt back.
        open_in_place(&key, &nonce, &aad, &mut data, &tag).unwrap();
        assert!(data.starts_with(b"Ladies and Gentlemen"));
    }

    #[test]
    fn tamper_detection() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut data = b"secret payload".to_vec();
        let tag = seal_in_place(&key, &nonce, b"hdr", &mut data);
        // Flip ciphertext bit.
        let mut bad = data.clone();
        bad[0] ^= 1;
        assert!(open_in_place(&key, &nonce, b"hdr", &mut bad, &tag).is_err());
        // Wrong AAD.
        let mut bad = data.clone();
        assert!(open_in_place(&key, &nonce, b"hdx", &mut bad, &tag).is_err());
        // Wrong nonce.
        let mut bad = data.clone();
        assert!(open_in_place(&key, &[3u8; 12], b"hdr", &mut bad, &tag).is_err());
        // Correct everything.
        open_in_place(&key, &nonce, b"hdr", &mut data, &tag).unwrap();
        assert_eq!(data, b"secret payload");
    }

    #[test]
    fn empty_plaintext_and_aad() {
        let key = [0u8; 32];
        let nonce = [0u8; 12];
        let mut data = Vec::new();
        let tag = seal_in_place(&key, &nonce, &[], &mut data);
        open_in_place(&key, &nonce, &[], &mut data, &tag).unwrap();
    }
}
