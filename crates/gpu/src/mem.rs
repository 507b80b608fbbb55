//! Page-backed memory with a first-fit allocator.
//!
//! Used for both host memory (4 KB pages) and GPU device memory (64 KB
//! pages). Backing pages materialize on first write, so simulating a 6 GB
//! Tesla costs nothing until data is written; a page never written reads
//! from one shared zero page, so reads never materialize anything.
//!
//! Pages are `Arc`-backed so the packet datapath can borrow them
//! zero-copy: [`Memory::read_payload`] hands out a [`PayloadSlice`] that
//! shares the page, and writes copy-on-write any page still aliased by an
//! in-flight payload. Otherwise bytes move once: [`Memory::copy_from`]
//! moves page slice to page slice, and a page created by a whole-page
//! write is built straight from those bytes.

use crate::GPU_PAGE_SIZE;
use apenet_sim::bytes::{self, PayloadSlice};
use std::collections::BTreeMap;
use std::fmt;
use std::iter;
use std::sync::{Arc, OnceLock};

/// Errors from allocation and access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Not enough contiguous free space.
    OutOfMemory,
    /// Access outside the memory's address range.
    OutOfRange,
    /// Freeing an address that was never allocated.
    BadFree,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory => write!(f, "out of memory"),
            MemError::OutOfRange => write!(f, "address out of range"),
            MemError::BadFree => write!(f, "free of unallocated address"),
        }
    }
}

impl std::error::Error for MemError {}

/// The all-zero page every never-written page reads from: one process-wide
/// [`GPU_PAGE_SIZE`] buffer, narrowed for smaller pages.
fn zero_page() -> &'static Arc<[u8]> {
    static ZERO: OnceLock<Arc<[u8]>> = OnceLock::new();
    ZERO.get_or_init(|| iter::repeat_n(0, GPU_PAGE_SIZE as usize).collect())
}

/// Mutable access to a buffer this thread has just allocated.
fn sole<T: ?Sized>(arc: &mut Arc<T>) -> &mut T {
    Arc::get_mut(arc).expect("freshly allocated buffer has one owner")
}

/// A page-backed memory region living at a fixed base address of the
/// 64-bit unified virtual address (UVA) space.
pub struct Memory {
    base: u64,
    capacity: u64,
    page_size: u64,
    pages: Vec<Option<Arc<[u8]>>>,
    /// Free ranges as offset → length, coalesced.
    free: BTreeMap<u64, u64>,
    /// Allocations as offset → length.
    allocs: BTreeMap<u64, u64>,
}

impl Memory {
    /// Create a memory of `capacity` bytes at UVA `base`, with the given
    /// page size (capacity must be page-aligned).
    pub fn new(base: u64, capacity: u64, page_size: u64) -> Self {
        assert!(
            page_size.is_power_of_two() && page_size <= GPU_PAGE_SIZE,
            "page size must be a power of two no larger than the zero page"
        );
        assert_eq!(capacity % page_size, 0, "capacity must be page aligned");
        let mut free = BTreeMap::new();
        free.insert(0, capacity);
        Memory {
            base,
            capacity,
            page_size,
            // The page table itself grows on first touch: a 6 GB device
            // memory has ~100k page slots, and zero-initializing them per
            // Memory was measurable in harnesses that build nodes per
            // benchmark repetition.
            pages: Vec::new(),
            free,
            allocs: BTreeMap::new(),
        }
    }

    /// Base UVA address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// True when `addr..addr+len` lies inside this memory.
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.saturating_add(len) <= self.base + self.capacity
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocs.values().sum()
    }

    /// Allocate `len` bytes aligned to the page size; returns a UVA address.
    pub fn alloc(&mut self, len: u64) -> Result<u64, MemError> {
        if len == 0 {
            return Err(MemError::OutOfMemory);
        }
        let want = len.next_multiple_of(self.page_size);
        // First fit.
        let slot = self
            .free
            .iter()
            .find(|(_, &flen)| flen >= want)
            .map(|(&off, &flen)| (off, flen));
        let Some((off, flen)) = slot else {
            return Err(MemError::OutOfMemory);
        };
        self.free.remove(&off);
        if flen > want {
            self.free.insert(off + want, flen - want);
        }
        self.allocs.insert(off, want);
        Ok(self.base + off)
    }

    /// Free an allocation made by [`Memory::alloc`].
    pub fn free(&mut self, addr: u64) -> Result<(), MemError> {
        if addr < self.base {
            return Err(MemError::BadFree);
        }
        let off = addr - self.base;
        let Some(len) = self.allocs.remove(&off) else {
            return Err(MemError::BadFree);
        };
        // Insert and coalesce with neighbours.
        let mut start = off;
        let mut end = off + len;
        if let Some((&poff, &plen)) = self.free.range(..off).next_back() {
            if poff + plen == off {
                self.free.remove(&poff);
                start = poff;
            }
        }
        if let Some(&nlen) = self.free.get(&end) {
            self.free.remove(&end);
            end += nlen;
        }
        self.free.insert(start, end - start);
        Ok(())
    }

    /// Visit `addr..addr+len` as page-bounded slices, in address order.
    /// A page that was never written reads from the shared zero page, so
    /// reading allocates and stores nothing.
    pub fn for_each_chunk(
        &self,
        addr: u64,
        len: u64,
        mut f: impl FnMut(&[u8]),
    ) -> Result<(), MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfRange);
        }
        let mut off = addr - self.base;
        let end = off + len;
        while off < end {
            let in_page = (off % self.page_size) as usize;
            let n = (self.page_size - in_page as u64).min(end - off) as usize;
            f(&self.page(off)[in_page..in_page + n]);
            off += n as u64;
        }
        Ok(())
    }

    /// The page covering offset `off`: its backing store, or the shared
    /// zero page when it was never written.
    fn page(&self, off: u64) -> &Arc<[u8]> {
        let idx = (off / self.page_size) as usize;
        self.pages
            .get(idx)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| zero_page())
    }

    /// Store `data` at offset `off`, which must leave it inside one page.
    ///
    /// A new page is built in one pass: straight from `data` when it
    /// covers the whole page, else zero-filled inside its own allocation.
    /// A page still aliased by an in-flight [`PayloadSlice`] is replaced
    /// outright by a whole-page write and copied on write otherwise.
    fn write_in_page(&mut self, off: u64, data: &[u8]) {
        let ps = self.page_size as usize;
        let idx = (off / self.page_size) as usize;
        let start = (off % self.page_size) as usize;
        let at = start..start + data.len();
        if self.pages.len() <= idx {
            self.pages.resize(idx + 1, None);
        }
        let whole = data.len() == ps;
        match &mut self.pages[idx] {
            slot @ None if whole => *slot = Some(Arc::from(data)),
            slot @ None => {
                let mut page: Arc<[u8]> = iter::repeat_n(0, ps).collect();
                sole(&mut page)[at].copy_from_slice(data);
                *slot = Some(page);
            }
            Some(page) => match Arc::get_mut(page) {
                Some(bytes) => bytes[at].copy_from_slice(data),
                None if whole => *page = Arc::from(data),
                None => {
                    bytes::note_copy(ps as u64);
                    let mut copy: Arc<[u8]> = Arc::from(&page[..]);
                    sole(&mut copy)[at].copy_from_slice(data);
                    *page = copy;
                }
            },
        }
    }

    /// Store `data` at offset `off`, page by page (range already checked).
    fn write_at(&mut self, mut off: u64, mut data: &[u8]) {
        while !data.is_empty() {
            let room = (self.page_size - off % self.page_size) as usize;
            let (head, rest) = data.split_at(room.min(data.len()));
            self.write_in_page(off, head);
            off += head.len() as u64;
            data = rest;
        }
    }

    /// Write `data` at UVA `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        if !self.contains(addr, data.len() as u64) {
            return Err(MemError::OutOfRange);
        }
        self.write_at(addr - self.base, data);
        Ok(())
    }

    /// Copy `len` bytes from `src_addr` in `src` to `dst_addr` in this
    /// memory, page slice to page slice — one pass over the bytes, for
    /// any mix of page sizes.
    pub fn copy_from(
        &mut self,
        dst_addr: u64,
        src: &Memory,
        src_addr: u64,
        len: u64,
    ) -> Result<(), MemError> {
        if !self.contains(dst_addr, len) || !src.contains(src_addr, len) {
            return Err(MemError::OutOfRange);
        }
        let mut off = dst_addr - self.base;
        src.for_each_chunk(src_addr, len, |chunk| {
            self.write_at(off, chunk);
            off += chunk.len() as u64;
        })
    }

    /// Read into `out` from UVA `addr`.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<(), MemError> {
        let mut at = 0;
        self.for_each_chunk(addr, out.len() as u64, |chunk| {
            out[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        })
    }

    /// Read `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        let mut v = Vec::with_capacity(len as usize);
        self.for_each_chunk(addr, len, |chunk| v.extend_from_slice(chunk))?;
        Ok(v)
    }

    /// Read `len` bytes as a refcounted [`PayloadSlice`].
    ///
    /// When the range lies within a single page — always true for the
    /// card's ≤ 4 KB packet fragments, because allocations are
    /// page-aligned — this shares the page (or the zero page) and copies
    /// nothing. A range crossing pages falls back to a gather copy into
    /// the payload's own allocation (accounted via [`bytes::note_copy`]).
    pub fn read_payload(&self, addr: u64, len: u64) -> Result<PayloadSlice, MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfRange);
        }
        if len == 0 {
            return Ok(PayloadSlice::empty());
        }
        let off = addr - self.base;
        let in_page = off % self.page_size;
        if in_page + len <= self.page_size {
            let page = self.page(off).clone();
            return Ok(PayloadSlice::from_arc(page).narrow(in_page as usize, len as usize));
        }
        bytes::note_copy(len);
        let mut buf: Arc<[u8]> = iter::repeat_n(0, len as usize).collect();
        self.read(addr, sole(&mut buf))?;
        Ok(PayloadSlice::from_arc(buf))
    }

    /// The page-aligned physical page addresses covering `addr..addr+len`
    /// — what a V2P table resolves a registered buffer into. The model's
    /// "physical" address of a page is simply its device-local offset.
    pub fn page_span(&self, addr: u64, len: u64) -> Result<Vec<u64>, MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfRange);
        }
        let first = (addr - self.base) / self.page_size;
        let last = (addr - self.base + len.max(1) - 1) / self.page_size;
        Ok((first..=last).map(|p| p * self.page_size).collect())
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Memory(base={:#x}, cap={}MiB, page={}KiB, alloc={}KiB)",
            self.base,
            self.capacity >> 20,
            self.page_size >> 10,
            self.allocated() >> 10
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(0x7000_0000_0000, 1 << 20, 64 * 1024)
    }

    #[test]
    fn alloc_is_page_aligned_and_in_range() {
        let mut m = mem();
        let a = m.alloc(100).unwrap();
        assert_eq!(a % m.page_size(), 0);
        assert!(m.contains(a, 100));
        assert_eq!(m.allocated(), 64 * 1024, "rounded to page");
    }

    #[test]
    fn alloc_free_coalesce_reuse() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        let b = m.alloc(64 * 1024).unwrap();
        let c = m.alloc(64 * 1024).unwrap();
        assert_ne!(a, b);
        m.free(b).unwrap();
        m.free(a).unwrap();
        // a+b coalesced: a 128 KiB alloc fits at the start again.
        let d = m.alloc(128 * 1024).unwrap();
        assert_eq!(d, a);
        m.free(c).unwrap();
        m.free(d).unwrap();
        assert_eq!(m.allocated(), 0);
        // Whole capacity available again.
        let e = m.alloc(1 << 20).unwrap();
        assert_eq!(e, m.base());
    }

    #[test]
    fn oom_and_bad_free() {
        let mut m = mem();
        assert_eq!(m.alloc(2 << 20), Err(MemError::OutOfMemory));
        assert_eq!(m.alloc(0), Err(MemError::OutOfMemory));
        assert_eq!(m.free(m.base() + 64 * 1024), Err(MemError::BadFree));
        assert_eq!(m.free(0), Err(MemError::BadFree));
    }

    #[test]
    fn write_read_roundtrip_cross_page() {
        let mut m = mem();
        let a = m.alloc(256 * 1024).unwrap();
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        // Start mid-page to cross several page boundaries.
        m.write(a + 1000, &data).unwrap();
        let back = m.read_vec(a + 1000, data.len() as u64).unwrap();
        assert_eq!(back, data);
        // Untouched bytes read back zero.
        assert_eq!(m.read_vec(a, 1000).unwrap(), vec![0u8; 1000]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = mem();
        let end = m.base() + m.capacity();
        assert_eq!(m.write(end - 4, &[0u8; 8]), Err(MemError::OutOfRange));
        let mut buf = [0u8; 8];
        assert_eq!(m.read(end, &mut buf), Err(MemError::OutOfRange));
    }

    #[test]
    fn read_payload_single_page_is_zero_copy() {
        let mut m = mem();
        let a = m.alloc(128 * 1024).unwrap();
        m.write(a, &vec![0xAB; 64 * 1024]).unwrap();
        let before = bytes::copied_bytes();
        let p = m.read_payload(a + 4096, 4096).unwrap();
        assert_eq!(
            bytes::copied_bytes(),
            before,
            "single-page read shares the page"
        );
        assert_eq!(p.len(), 4096);
        assert!(p.iter().all(|&b| b == 0xAB));
        // Crossing a page boundary gathers (and accounts the copy).
        let q = m.read_payload(a + 64 * 1024 - 8, 16).unwrap();
        assert_eq!(q.len(), 16);
        assert!(bytes::copied_bytes() > before);
    }

    #[test]
    fn write_to_shared_page_copies_on_write() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        m.write(a, &[1, 2, 3, 4]).unwrap();
        let p = m.read_payload(a, 4).unwrap();
        // Writing while `p` aliases the page must not change what p sees.
        m.write(a, &[9, 9, 9, 9]).unwrap();
        assert_eq!(p.as_slice(), &[1, 2, 3, 4], "in-flight payload is stable");
        assert_eq!(m.read_vec(a, 4).unwrap(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn untouched_pages_read_zero_and_materialize_nothing() {
        let mut m = mem();
        let a = m.alloc(256 * 1024).unwrap();
        assert_eq!(m.read_vec(a + 100, 200_000).unwrap(), vec![0u8; 200_000]);
        let mut out = [1u8; 64];
        m.read(a + 64 * 1024 - 32, &mut out).unwrap();
        assert_eq!(out, [0u8; 64]);
        let p = m.read_payload(a + 10, 4096).unwrap();
        assert!(p.iter().all(|&b| b == 0));
        let q = m.read_payload(a + 64 * 1024 - 8, 16).unwrap();
        assert_eq!(q.as_slice(), &[0u8; 16]);
        assert!(m.pages.is_empty(), "reads store no pages");
        // Host-sized pages read a narrowed view of the same zero page.
        let mut h = Memory::new(0x1000_0000, 1 << 20, 4096);
        let b = h.alloc(3 * 4096).unwrap();
        assert_eq!(h.read_vec(b + 7, 9000).unwrap(), vec![0u8; 9000]);
        assert_eq!(h.read_payload(b + 4000, 96).unwrap().len(), 96);
        assert!(h.pages.is_empty());
    }

    #[test]
    fn copy_from_matches_bytewise_reference() {
        const CAP: u64 = 1 << 20;
        apenet_sim::check::check("copy_from_matches_bytewise_reference", |g| {
            let sizes = [4096, 64 * 1024];
            let mut src = Memory::new(0x1000_0000, CAP, *g.pick(&sizes));
            let mut dst = Memory::new(0x2000_0000, CAP, *g.pick(&sizes));
            // Partly written memories: untouched pages, partial pages and
            // whole pages all occur on both sides.
            for m in [&mut src, &mut dst] {
                for _ in 0..g.usize(0, 4) {
                    let at = g.u64(0, CAP);
                    let data = g.bytes(0, (CAP - at).min(200_000) as usize);
                    m.write(m.base() + at, &data).unwrap();
                }
            }
            let len = g.u64(0, 300_000);
            let src_off = g.u64(0, CAP - len + 1);
            let dst_off = g.u64(0, CAP - len + 1);
            let src_bytes = src.read_vec(src.base(), CAP).unwrap();
            let mut want = dst.read_vec(dst.base(), CAP).unwrap();
            for i in 0..len as usize {
                want[dst_off as usize + i] = src_bytes[src_off as usize + i];
            }
            // An in-flight payload aliasing the destination stays intact.
            let held_at = dst.base() + g.u64(0, CAP / 4096) * 4096;
            let held = dst.read_payload(held_at, 4096).unwrap();
            let held_bytes = held.to_vec();
            dst.copy_from(dst.base() + dst_off, &src, src.base() + src_off, len)
                .unwrap();
            assert_eq!(dst.read_vec(dst.base(), CAP).unwrap(), want);
            assert_eq!(held.as_slice(), &held_bytes[..]);
            assert_eq!(src.read_vec(src.base(), CAP).unwrap(), src_bytes);
        });
    }

    #[test]
    fn copy_from_rejects_out_of_range() {
        let mut dst = mem();
        let src = Memory::new(0x1000_0000, 1 << 20, 4096);
        let end = dst.base() + dst.capacity();
        assert_eq!(
            dst.copy_from(end - 4, &src, src.base(), 8),
            Err(MemError::OutOfRange)
        );
        assert_eq!(
            dst.copy_from(dst.base(), &src, src.base() + (1 << 20) - 4, 8),
            Err(MemError::OutOfRange)
        );
    }

    #[test]
    fn whole_page_write_over_existing_page_takes_effect() {
        let mut m = mem();
        let a = m.alloc(128 * 1024).unwrap();
        // Created by a partial write, then overwritten whole.
        m.write(a + 5, &[1, 2, 3]).unwrap();
        m.write(a, &vec![0xCD; 64 * 1024]).unwrap();
        assert_eq!(m.read_vec(a, 64 * 1024).unwrap(), vec![0xCD; 64 * 1024]);
        // Created whole, then overwritten whole.
        let b = a + 64 * 1024;
        m.write(b, &vec![0x11; 64 * 1024]).unwrap();
        m.write(b, &vec![0x22; 64 * 1024]).unwrap();
        assert_eq!(m.read_vec(b, 64 * 1024).unwrap(), vec![0x22; 64 * 1024]);
    }

    #[test]
    fn whole_page_write_over_aliased_page_replaces_it() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        m.write(a, &vec![1u8; 64 * 1024]).unwrap();
        let p = m.read_payload(a + 100, 4000).unwrap();
        let before = bytes::copied_bytes();
        m.write(a, &vec![2u8; 64 * 1024]).unwrap();
        assert_eq!(bytes::copied_bytes(), before, "replaced, not copied");
        assert!(p.iter().all(|&b| b == 1), "in-flight payload is stable");
        assert_eq!(m.read_vec(a, 64 * 1024).unwrap(), vec![2u8; 64 * 1024]);
    }

    #[test]
    fn reading_an_aliased_page_copies_nothing() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        m.write(a, &[5u8; 4096]).unwrap();
        let p = m.read_payload(a, 4096).unwrap();
        let before = bytes::copied_bytes();
        assert_eq!(m.read_vec(a, 4096).unwrap(), vec![5u8; 4096]);
        let mut out = [0u8; 16];
        m.read(a + 8, &mut out).unwrap();
        assert_eq!(out, [5u8; 16]);
        assert_eq!(bytes::copied_bytes(), before);
        assert_eq!(p.len(), 4096);
    }

    #[test]
    fn page_span_covers_range() {
        let m = mem();
        let base = m.base();
        let span = m.page_span(base + 10, 64 * 1024).unwrap();
        assert_eq!(span, vec![0, 64 * 1024]);
        let span = m.page_span(base, 64 * 1024).unwrap();
        assert_eq!(span, vec![0]);
        let span = m.page_span(base + 130_000, 1).unwrap();
        assert_eq!(span, vec![64 * 1024]);
    }
}
