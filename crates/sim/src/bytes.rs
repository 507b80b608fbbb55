//! Refcounted payload slices — the zero-copy byte fabric.
//!
//! The simulator is *functional*: RDMA PUTs move real bytes. The naive
//! representation (one `Vec<u8>` per ≤4 KB packet fragment) makes every
//! TX read-out, fault injection and RX hand-off a byte copy, which
//! dominates the wall-clock of large bandwidth sweeps. [`PayloadSlice`]
//! replaces it: an `Arc`-backed buffer plus a byte range, so
//!
//! * fragmentation is a refcount bump + range narrowing,
//! * CRC and RX delivery read the borrowed slice in place,
//! * mutation (fault injection, writes to a shared memory page) is
//!   copy-on-write of only the aliased bytes.
//!
//! The module keeps a per-thread [`copied_bytes`] counter so tests can
//! assert that a clean datapath really performs zero payload copies. It
//! counts the slow paths only — copy-on-write and gather fall-backs —
//! not the copies the model simulates on purpose (a `cudaMemcpy` is a
//! modelled DMA copy and is priced in simulated time instead). A
//! simulation runs on one thread, so the counter sees all of its copies
//! and none of a concurrently running test's.

use std::cell::Cell;
use std::ops::Deref;
use std::sync::Arc;

thread_local! {
    /// Bytes copied by copy-on-write and gather fall-backs on this thread.
    static COPIED_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Record `n` payload bytes copied on a slow path: copy-on-write or a
/// gather fall-back. Public so memory models outside this crate can
/// account their own; modelled DMA copies are not recorded.
pub fn note_copy(n: u64) {
    COPIED_BYTES.with(|c| c.set(c.get() + n));
}

/// Total payload bytes copied on slow paths by the calling thread since
/// it started. Monotone; compare before/after a region to measure its
/// copy traffic.
pub fn copied_bytes() -> u64 {
    COPIED_BYTES.with(Cell::get)
}

/// An immutable, cheaply clonable view of a byte range inside a shared
/// buffer. Cloning and narrowing never copy; [`PayloadSlice::make_mut`]
/// copies only when the bytes are actually shared.
#[derive(Clone)]
pub struct PayloadSlice {
    buf: Arc<[u8]>,
    start: usize,
    len: usize,
}

impl PayloadSlice {
    /// The empty slice (no backing allocation).
    pub fn empty() -> Self {
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        let buf = EMPTY.get_or_init(|| Arc::from(&[][..])).clone();
        PayloadSlice {
            buf,
            start: 0,
            len: 0,
        }
    }

    /// Build from a vector. `Vec<u8>` → `Arc<[u8]>` reallocates, so this
    /// copies the bytes once; cheap for small or one-off payloads only.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        PayloadSlice {
            buf: v.into(),
            start: 0,
            len,
        }
    }

    /// Share an existing buffer (refcount bump).
    pub fn from_arc(buf: Arc<[u8]>) -> Self {
        let len = buf.len();
        PayloadSlice { buf, start: 0, len }
    }

    /// A sub-range of this slice, relative to its start. Zero-copy.
    ///
    /// Panics when `offset + len` exceeds the slice.
    pub fn narrow(&self, offset: usize, len: usize) -> Self {
        assert!(
            offset + len <= self.len,
            "narrow({offset}, {len}) out of range for slice of {}",
            self.len
        );
        PayloadSlice {
            buf: self.buf.clone(),
            start: self.start + offset,
            len,
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when this slice is the sole owner of its backing buffer and
    /// views all of it (mutation would be free).
    pub fn is_unique(&self) -> bool {
        self.start == 0 && self.len == self.buf.len() && Arc::strong_count(&self.buf) == 1
    }

    /// Mutable access, copy-on-write: when the backing buffer is shared
    /// (or only partially viewed), the viewed range — and nothing more —
    /// is copied into a fresh buffer first.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if !self.is_unique() {
            note_copy(self.len as u64);
            let owned: Arc<[u8]> = Arc::from(self.as_slice());
            self.buf = owned;
            self.start = 0;
        }
        // self.start == 0 and len == buf.len() now hold.
        Arc::get_mut(&mut self.buf).expect("sole owner after copy-on-write")
    }
}

impl Deref for PayloadSlice {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for PayloadSlice {
    fn from(v: Vec<u8>) -> Self {
        PayloadSlice::from_vec(v)
    }
}

impl PartialEq for PayloadSlice {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadSlice {}

impl std::fmt::Debug for PayloadSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PayloadSlice({} B", self.len)?;
        if !self.is_unique() {
            write!(f, ", shared")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_is_zero_copy() {
        let base = copied_bytes();
        let p = PayloadSlice::from_vec((0..=255u8).cycle().take(8192).collect());
        let a = p.narrow(0, 4096);
        let b = p.narrow(4096, 4096);
        assert_eq!(a.len(), 4096);
        assert_eq!(b.as_slice()[0], (4096 % 256) as u8);
        assert_eq!(copied_bytes(), base, "no bytes copied by narrowing");
    }

    #[test]
    fn make_mut_copies_only_when_shared() {
        let mut sole = PayloadSlice::from_vec(vec![1u8; 64]);
        let base = copied_bytes();
        sole.make_mut()[0] = 9;
        assert_eq!(copied_bytes(), base, "unique slice mutates in place");

        let whole = PayloadSlice::from_vec(vec![2u8; 64]);
        let mut shared = whole.clone();
        shared.make_mut()[0] = 9;
        assert_eq!(copied_bytes(), base + 64, "shared slice copied 64 B");
        assert_eq!(whole.as_slice()[0], 2, "original untouched");
        assert_eq!(shared.as_slice()[0], 9);
    }

    #[test]
    fn make_mut_on_narrow_copies_only_the_view() {
        let whole = PayloadSlice::from_vec(vec![7u8; 4096]);
        let mut frag = whole.narrow(1024, 16);
        let base = copied_bytes();
        frag.make_mut()[15] ^= 0x10;
        assert_eq!(copied_bytes(), base + 16, "only the fragment copied");
        assert_eq!(frag.len(), 16);
        assert_eq!(whole.as_slice()[1024 + 15], 7);
    }

    #[test]
    fn empty_and_eq() {
        let e = PayloadSlice::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let a = PayloadSlice::from_vec(vec![1, 2, 3]);
        let b = PayloadSlice::from_vec(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.narrow(1, 2), b.narrow(1, 2));
        assert_ne!(a, e);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn narrow_out_of_range_panics() {
        PayloadSlice::from_vec(vec![0; 8]).narrow(4, 8);
    }

    #[test]
    fn deref_works() {
        let p = PayloadSlice::from_vec(vec![5u8; 10]);
        assert_eq!(p[3], 5);
        assert_eq!(p.iter().copied().sum::<u8>(), 50);
    }
}
