//! # gridzip — LZSS compression with tunable effort levels
//!
//! The compression substrate for the NetIbis (HPDC 2004) reproduction,
//! standing in for zlib: the paper's compression driver uses "zlib
//! compression level-1" (§4.3) and reports that higher levels cost far more
//! CPU than they gain. gridzip exposes the same trade-off: levels
//! 1–[`MAX_LEVEL`] control hash-chain search depth and lazy matching. There
//! is no entropy stage: a block is LZSS tokens or stored bytes.
//!
//! * [`Compressor`] / [`decompress`]: independent block (de)compression,
//! * [`CompressWriter`] / [`DecompressReader`]: block-framed streaming over
//!   any `std::io` byte stream (with a stored fallback that bounds expansion
//!   on incompressible data),
//! * [`synth`]: workload generation with tunable compressibility, calibrated
//!   to the paper's ≈2:1 application data,
//! * [`varint`]: the LEB128 helper shared with the netgrid wire protocol.
//!
//! ## Example
//!
//! ```
//! use gridzip::{Compressor, decompress};
//!
//! let data = b"to be or not to be, that is the question; to be or not to be".repeat(20);
//! let mut c = Compressor::new(1);
//! let mut packed = Vec::new();
//! c.compress(&data, &mut packed);
//! assert!(packed.len() < data.len() / 2);
//! assert_eq!(decompress(&packed, data.len()).unwrap(), data);
//! ```

#![forbid(unsafe_code)]

mod lzss;
mod stream;
pub mod synth;
pub mod varint;

pub use lzss::{decompress, Compressor, CorruptBlock, MAX_LEVEL};
pub use stream::{CompressWriter, DecompressReader};
