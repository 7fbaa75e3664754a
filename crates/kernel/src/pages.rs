//! Simulated paged virtual address space.
//!
//! The CRIU baselines (§2.3, §7) checkpoint the notebook *process image* at
//! memory-page granularity. To compare against them honestly we give the
//! simulated kernel a virtual address space: every heap object occupies a
//! byte extent, extents are carved out of 4 KiB pages by a bump allocator,
//! and in-place mutations dirty the pages they overlap. Because allocation is
//! strictly sequential in time, interleaved construction of two lists
//! fragments both across shared pages — exactly the effect Fig 4 uses to
//! motivate co-variable granularity over page granularity.
//!
//! No page set is kept as objects come and go. The live pages are by
//! definition the union of the live extents' pages, so the heap collects
//! them from its slots when asked ([`crate::Heap::live_pages`]). Allocation
//! is a bump, so everything allocated since the last
//! [`crate::Heap::clear_dirty_pages`] is one address range, from the cursor
//! at that clear (the *watermark*) to the cursor now; only in-place writes
//! to extents that start below the watermark record their pages. A session
//! that never clears dirty state pays O(1) page bookkeeping per allocation,
//! write and relocation; only the CRIU baselines ask for page sets, and
//! they pay for them when they ask.

use std::collections::BTreeSet;

/// Size of one simulated memory page in bytes (matches x86-64 small pages).
pub const PAGE_SIZE: u64 = 4096;

/// A contiguous byte extent in the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Start address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Extent {
    /// Page numbers overlapped by this extent (a zero-length extent still
    /// occupies the page its address falls on).
    pub fn pages(&self) -> impl Iterator<Item = u64> {
        let first = self.addr / PAGE_SIZE;
        let last = (self.addr + self.len.max(1) - 1) / PAGE_SIZE;
        first..=last
    }
}

/// Monotone bump allocator over the simulated address space, with dirty-page
/// tracking.
///
/// Addresses are never reused, so an address observed in a VarGraph uniquely
/// identifies one allocation for the whole session (CPython can reuse `id()`s
/// after GC; the paper's update detection is conservative about that, and our
/// monotone choice simply removes the non-determinism from experiments).
///
/// A page is dirty when it overlaps `[watermark, next)`, the extents
/// allocated since the last clear (relocations included), or was recorded
/// by [`Self::touch`]. Whether a dirty page is still live is the heap's
/// question ([`crate::Heap::dirty_pages`]).
#[derive(Debug)]
pub(crate) struct PageAllocator {
    /// The bump cursor: where the next extent starts.
    next: u64,
    /// The cursor at the last [`Self::clear_dirty`] (initially the first
    /// page).
    watermark: u64,
    /// Pages of in-place writes, since the last clear, to extents that
    /// start below the watermark.
    written: BTreeSet<u64>,
}

impl PageAllocator {
    /// New allocator with an empty address space. The first allocation is
    /// placed above the null page.
    pub(crate) fn new() -> Self {
        PageAllocator {
            next: PAGE_SIZE,
            watermark: PAGE_SIZE,
            written: BTreeSet::new(),
        }
    }

    /// Allocate `len` bytes (at least one) at the cursor. The extent is
    /// dirty until the next clear: freshly written memory is dirty w.r.t.
    /// any prior snapshot.
    #[inline]
    pub(crate) fn alloc(&mut self, len: u64) -> Extent {
        let ext = Extent {
            addr: self.next,
            len: len.max(1),
        };
        self.next += ext.len;
        ext
    }

    /// Record an in-place write to `ext`. An extent at or above the
    /// watermark was allocated since the last clear and is dirty already.
    #[inline]
    pub(crate) fn touch(&mut self, ext: Extent) {
        if ext.addr < self.watermark {
            self.written.extend(ext.pages());
        }
    }

    /// Whether page `p` was allocated on or written since the last clear.
    /// With nothing allocated since, the watermark's page is not dirty
    /// unless a write recorded it.
    pub(crate) fn is_dirty(&self, p: u64) -> bool {
        let allocated = self.next > self.watermark
            && (self.watermark / PAGE_SIZE..=(self.next - 1) / PAGE_SIZE).contains(&p);
        allocated || self.written.contains(&p)
    }

    /// Forget dirty state (called after taking a snapshot).
    pub(crate) fn clear_dirty(&mut self) {
        self.watermark = self.next;
        self.written.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_map_to_pages() {
        let e = Extent { addr: 4000, len: 200 };
        let pages: Vec<u64> = e.pages().collect();
        assert_eq!(pages, vec![0, 1]); // straddles the 4096 boundary
    }

    #[test]
    fn zero_length_extent_occupies_its_page() {
        let e = Extent { addr: 8192, len: 0 };
        assert_eq!(e.pages().collect::<Vec<_>>(), vec![2]);
    }
}
