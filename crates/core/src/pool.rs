//! Reference-counted block buffer pool for the zero-copy data path.
//!
//! Every layer of the send stack (port framing, compression, striping,
//! aggregation) produces payload blocks. Before the pool each layer
//! allocated a fresh `Vec<u8>` per block and the simulated TCP copied it
//! again into its send queue. The pool closes that loop: a layer checks a
//! [`BlockBuf`] out, fills it, and [`BlockBuf::freeze`]s it into a
//! [`Bytes`] handle that every downstream layer shares by refcount. When
//! the last handle drops — typically after simtcp has ACK-released the
//! block — the backing storage returns to the pool for the next block.
//!
//! Invariants (exercised by `tests/pool_roundtrip.rs`):
//! * a buffer is never handed out twice while any `Bytes` view of it is
//!   alive — recycling happens only from the owner's `Drop`, which the
//!   refcount runs after the last view dies;
//! * pooling never changes bytes on the wire: a recycled buffer is
//!   cleared before reuse and `freeze` exposes exactly the written prefix.

use bytes::Bytes;
use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many spare buffers a pool retains. Deep enough for one window of
/// in-flight blocks per connection; beyond that, freeing is cheaper than
/// hoarding.
const DEFAULT_MAX_FREE: usize = 64;

struct PoolInner {
    free: Mutex<Vec<Vec<u8>>>,
    /// Nominal block size; checkouts are pre-reserved to this.
    block: usize,
    max_free: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Shared pool of reusable block-sized buffers. Cloning is a refcount
/// bump; all clones draw from and recycle into the same free list.
#[derive(Clone)]
pub struct BlockPool {
    inner: Arc<PoolInner>,
}

/// Counters for observability (`pool_hits` / `pool_misses` on link stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts served from the free list.
    pub hits: u64,
    /// Checkouts that had to allocate.
    pub misses: u64,
}

impl BlockPool {
    pub fn new(block: usize) -> BlockPool {
        BlockPool::with_max_free(block, DEFAULT_MAX_FREE)
    }

    pub fn with_max_free(block: usize, max_free: usize) -> BlockPool {
        BlockPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(Vec::new()),
                block,
                max_free,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Nominal block size buffers are reserved to.
    pub fn block_size(&self) -> usize {
        self.inner.block
    }

    /// Check a cleared buffer out of the pool (or allocate on miss).
    pub fn checkout(&self) -> BlockBuf {
        let recycled = self.inner.free.lock().pop();
        let vec = match recycled {
            Some(v) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(self.inner.block)
            }
        };
        debug_assert!(vec.is_empty(), "recycled buffer must be cleared");
        BlockBuf {
            vec: Some(vec),
            pool: self.clone(),
        }
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }

    /// Buffers currently idle on the free list.
    pub fn free_len(&self) -> usize {
        self.inner.free.lock().len()
    }

    fn recycle(&self, mut vec: Vec<u8>) {
        vec.clear();
        let mut free = self.inner.free.lock();
        if free.len() < self.inner.max_free {
            free.push(vec);
        }
    }
}

/// A checked-out, writable block buffer. Deref-cheap to `Vec<u8>` so the
/// filling code reads like it did before pooling. Returns its storage to
/// the pool when dropped unfrozen, or — after [`freeze`](BlockBuf::freeze)
/// — when the last `Bytes` view dies.
pub struct BlockBuf {
    // Option only so Drop, freeze() and into_vec() can move the Vec out.
    vec: Option<Vec<u8>>,
    pool: BlockPool,
}

impl BlockBuf {
    /// Freeze into an immutable, refcounted view. Zero-copy: the `Bytes`
    /// wraps this buffer's storage directly and the pool recovers it via
    /// the owner's drop once the last clone/slice is gone.
    pub fn freeze(mut self) -> Bytes {
        let vec = self.vec.take().expect("buf invariant");
        if vec.is_empty() {
            // Bytes::from_owner would pin an empty Vec until the view
            // drops; hand the storage straight back instead.
            self.pool.recycle(vec);
            return Bytes::new();
        }
        Bytes::from_owner(Recycled {
            vec,
            pool: self.pool.clone(),
        })
    }

    /// Take the storage out for good: it does not go back to the pool.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.vec.take().expect("buf invariant")
    }
}

impl Deref for BlockBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        self.vec.as_ref().expect("buf invariant")
    }
}

impl DerefMut for BlockBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.vec.as_mut().expect("buf invariant")
    }
}

impl Drop for BlockBuf {
    fn drop(&mut self) {
        if let Some(vec) = self.vec.take() {
            self.pool.recycle(vec);
        }
    }
}

/// Owner handed to `Bytes::from_owner`; dropping it (last view gone)
/// returns the storage to its pool.
struct Recycled {
    vec: Vec<u8>,
    pool: BlockPool,
}

impl AsRef<[u8]> for Recycled {
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl Drop for Recycled {
    fn drop(&mut self) {
        self.pool.recycle(std::mem::take(&mut self.vec));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_fill_freeze_recycle() {
        let pool = BlockPool::new(64);
        let mut buf = pool.checkout();
        buf.extend_from_slice(b"block payload");
        let bytes = buf.freeze();
        assert_eq!(&bytes[..], b"block payload");
        assert_eq!(pool.free_len(), 0, "storage pinned while view alive");
        drop(bytes);
        assert_eq!(pool.free_len(), 1, "storage recycled after last view");
        assert_eq!(pool.stats(), PoolStats { hits: 0, misses: 1 });
        let b2 = pool.checkout();
        assert!(b2.is_empty(), "recycled buffer is cleared");
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1 });
    }

    #[test]
    fn slices_pin_storage_until_all_dropped() {
        let pool = BlockPool::new(16);
        let mut buf = pool.checkout();
        buf.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let whole = buf.freeze();
        let head = whole.slice(..4);
        let tail = whole.slice(4..);
        drop(whole);
        drop(head);
        assert_eq!(pool.free_len(), 0, "tail slice still pins storage");
        assert_eq!(&tail[..], &[5, 6, 7, 8]);
        drop(tail);
        assert_eq!(pool.free_len(), 1);
    }

    #[test]
    fn unfrozen_drop_recycles() {
        let pool = BlockPool::new(16);
        let mut buf = pool.checkout();
        buf.push(9);
        drop(buf);
        assert_eq!(pool.free_len(), 1);
    }

    #[test]
    fn empty_freeze_recycles_immediately() {
        let pool = BlockPool::new(16);
        let b = pool.checkout().freeze();
        assert!(b.is_empty());
        assert_eq!(pool.free_len(), 1);
    }

    #[test]
    fn free_list_bounded() {
        let pool = BlockPool::with_max_free(8, 2);
        let bufs: Vec<_> = (0..4).map(|_| pool.checkout()).collect();
        drop(bufs);
        assert_eq!(pool.free_len(), 2, "excess buffers are freed, not hoarded");
    }
}
