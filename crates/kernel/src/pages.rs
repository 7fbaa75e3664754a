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
    /// First and last page number overlapped by this extent (a zero-length
    /// extent still occupies the page its address falls on).
    fn page_range(&self) -> (u64, u64) {
        let first = self.addr / PAGE_SIZE;
        let last = if self.len == 0 {
            first
        } else {
            (self.addr + self.len - 1) / PAGE_SIZE
        };
        (first, last)
    }

    /// Page numbers overlapped by this extent.
    pub fn pages(&self) -> impl Iterator<Item = u64> {
        let (first, last) = self.page_range();
        first..=last
    }

    /// Whether this extent overlaps any page that `other` also overlaps
    /// (two integer compares — no page iteration).
    pub fn shares_pages_with(&self, other: &Extent) -> bool {
        let (a_first, a_last) = self.page_range();
        let (b_first, b_last) = other.page_range();
        a_first <= b_last && b_first <= a_last
    }
}

/// Monotone bump allocator over the simulated address space, with dirty-page
/// tracking.
///
/// Addresses are never reused, so an address observed in a VarGraph uniquely
/// identifies one allocation for the whole session (CPython can reuse `id()`s
/// after GC; the paper's update detection is conservative about that, and our
/// monotone choice simply removes the non-determinism from experiments).
#[derive(Debug, Default)]
pub struct PageAllocator {
    next: u64,
    dirty: BTreeSet<u64>,
    /// Pages that currently back at least one live allocation.
    live: BTreeSet<u64>,
    /// Highest page known to be in *both* sets, if any — the bump cursor's
    /// current page. Small sequential allocations land on the same page
    /// over and over; caching it turns the common-case alloc into two
    /// integer compares instead of two `BTreeSet` inserts. Invalidated by
    /// anything that removes from either set.
    marked: Option<u64>,
}

impl PageAllocator {
    /// New allocator with an empty address space. The first allocation is
    /// placed above the null page.
    pub fn new() -> Self {
        PageAllocator {
            next: PAGE_SIZE,
            dirty: BTreeSet::new(),
            live: BTreeSet::new(),
            marked: None,
        }
    }

    /// Allocate `len` bytes. The new extent's pages are marked live and
    /// dirty (freshly written memory is dirty w.r.t. any prior snapshot).
    #[inline]
    pub fn alloc(&mut self, len: u64) -> Extent {
        let ext = Extent {
            addr: self.next,
            len: len.max(1),
        };
        self.next += len.max(1);
        let first = ext.addr / PAGE_SIZE;
        let last = (ext.addr + ext.len - 1) / PAGE_SIZE;
        if self.marked == Some(first) && first == last {
            // Still on the bump cursor's page, already live + dirty.
            return ext;
        }
        for p in first..=last {
            self.live.insert(p);
            self.dirty.insert(p);
        }
        self.marked = Some(last);
        ext
    }

    /// Release an extent's pages from the live set (pages still shared with
    /// other live extents are kept live by re-registration; see
    /// [`Self::mark_live`]).
    pub fn free(&mut self, ext: Extent) {
        for p in ext.pages() {
            self.live.remove(&p);
        }
        self.marked = None;
    }

    /// Re-assert that an extent's pages are live. The heap calls this for all
    /// surviving objects after a garbage-collection sweep so that pages
    /// shared between a freed extent and a live one remain in the image.
    pub fn mark_live(&mut self, ext: Extent) {
        for p in ext.pages() {
            self.live.insert(p);
        }
    }

    /// Mark every page of an extent dirty (an in-place mutation wrote to it).
    pub fn touch(&mut self, ext: Extent) {
        for p in ext.pages() {
            self.dirty.insert(p);
        }
    }

    /// Pages dirtied since the last [`Self::clear_dirty`], restricted to
    /// live pages. This is what an incremental OS-level snapshot copies.
    pub fn dirty_pages(&self) -> Vec<u64> {
        self.dirty.intersection(&self.live).copied().collect()
    }

    /// All live pages — what a full OS-level snapshot copies.
    pub fn live_pages(&self) -> Vec<u64> {
        self.live.iter().copied().collect()
    }

    /// Forget dirty state (called after taking a snapshot).
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
        self.marked = None;
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

    #[test]
    fn alloc_is_monotone_and_dirties() {
        let mut a = PageAllocator::new();
        let e1 = a.alloc(100);
        let e2 = a.alloc(100);
        assert!(e2.addr > e1.addr);
        assert!(!a.dirty_pages().is_empty());
        a.clear_dirty();
        assert!(a.dirty_pages().is_empty());
        a.touch(e1);
        assert_eq!(a.dirty_pages().len(), 1);
    }

    #[test]
    fn interleaved_allocation_fragments_across_pages() {
        // Two "lists" built by alternating small allocations end up sharing
        // pages — touching all elements of one list dirties pages that also
        // hold the other list's elements (the Fig 4 motivating effect).
        let mut a = PageAllocator::new();
        let mut list1 = Vec::new();
        let mut list2 = Vec::new();
        for _ in 0..200 {
            list1.push(a.alloc(60));
            list2.push(a.alloc(60));
        }
        a.clear_dirty();
        for e in &list1 {
            a.touch(*e);
        }
        let dirty: BTreeSet<u64> = a.dirty_pages().into_iter().collect();
        // Almost every page of list2 is also dirty because of interleaving.
        let list2_pages: BTreeSet<u64> = list2.iter().flat_map(|e| e.pages()).collect();
        let overlap = dirty.intersection(&list2_pages).count();
        assert!(overlap as f64 > 0.8 * list2_pages.len() as f64);
    }

    #[test]
    fn free_removes_pages_from_live_set() {
        let mut a = PageAllocator::new();
        let e = a.alloc(PAGE_SIZE * 2);
        let live_before = a.live_pages().len();
        a.free(e);
        assert!(a.live_pages().len() < live_before);
    }

    #[test]
    fn dirty_restricted_to_live() {
        let mut a = PageAllocator::new();
        let e = a.alloc(PAGE_SIZE * 4); // occupies whole pages exclusively
        a.clear_dirty();
        a.touch(e);
        a.free(e);
        assert!(a.dirty_pages().is_empty());
    }
}
