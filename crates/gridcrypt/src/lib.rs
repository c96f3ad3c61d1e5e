//! # gridcrypt — from-scratch crypto substrate and the GTLS secure channel
//!
//! Stands in for SSL/TLS in the NetIbis (HPDC 2004) reproduction: the paper
//! names TLS as the mechanism for "authentication of communication partners
//! and privacy based on encryption" (§1, §4.4) and plans an SSL filtering
//! driver (§5.2). Since the offline build cannot use rustls/ring, this
//! crate implements the required primitives directly, each verified against
//! its RFC test vectors:
//!
//! * [`sha256`]: SHA-256 (FIPS 180-4),
//! * [`hmac`]: HMAC-SHA256 (RFC 2104 / 4231) + constant-time comparison,
//! * [`hkdf`]: HKDF-SHA256 (RFC 5869),
//! * [`chacha20`] / [`poly1305`] / [`aead`]: ChaCha20-Poly1305 (RFC 8439),
//! * [`x25519`]: X25519 Diffie-Hellman (RFC 7748),
//! * [`gtls`]: a TLS-like handshake (ephemeral X25519 + PSK mutual
//!   authentication) and AEAD record layer over any `Read + Write` stream.
//!
//! ## Example
//!
//! ```
//! use gridcrypt::{sha256::sha256, hmac::hmac_sha256};
//! let d = sha256(b"abc");
//! assert_eq!(d[0], 0xba);
//! let m = hmac_sha256(b"key", b"msg");
//! assert_eq!(m.len(), 32);
//! ```

#![forbid(unsafe_code)]

pub mod aead;
pub mod chacha20;
pub mod gtls;
pub mod hkdf;
pub mod hmac;
pub mod poly1305;
pub mod sha256;
pub mod x25519;

pub use aead::{open_in_place, seal_in_place, AeadError};
pub use gtls::{Role, SecureConfig, SecureStream, MAX_RECORD};
pub use hmac::ct_eq;
