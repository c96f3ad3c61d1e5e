//! gridzip alone: level-1 compression and decompression of the
//! `wan_integrated` payload in the stack's 32 KiB blocks.

use gridzip::{decompress, Compressor};

use super::{cpu_ns, Metrics};
use crate::check::{Content, Payloads};

const BLOCK: usize = 32 * 1024;
const MSG: usize = 256 * 1024;
/// Passes over the 2 MiB payload set (16 MiB each way).
const PASSES: usize = 8;

pub fn run(seed: u64) -> Metrics {
    let data = Payloads::new(seed, MSG, Content::Grid).concat_bodies();
    let mut c = Compressor::new(1);
    let mut packed: Vec<Vec<u8>> = Vec::new();
    let (zip_ns, _) = cpu_ns(|| {
        for _ in 0..PASSES {
            packed.clear();
            for block in data.chunks(BLOCK) {
                let mut out = Vec::with_capacity(BLOCK);
                c.compress(block, &mut out);
                packed.push(out);
            }
        }
    });
    let (unzip_ns, intact) = cpu_ns(|| {
        let mut intact = true;
        for _ in 0..PASSES {
            for (block, z) in data.chunks(BLOCK).zip(&packed) {
                let plain = decompress(z, block.len()).expect("own output decompresses");
                intact &= plain == block;
            }
        }
        intact
    });
    assert!(intact, "decompress(compress(x)) == x");
    let total = (PASSES * data.len()) as f64;
    let packed_len: usize = packed.iter().map(Vec::len).sum();
    vec![
        ("gridzip.compress_ns_per_byte", zip_ns as f64 / total),
        ("gridzip.decompress_ns_per_byte", unzip_ns as f64 / total),
        ("gridzip.ratio", data.len() as f64 / packed_len as f64),
    ]
}
