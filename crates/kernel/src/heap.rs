//! The simulated object heap.
//!
//! All notebook state lives here. Objects are allocated into slots (slot
//! indices are never reused, so an [`ObjId`] stays unambiguous for a whole
//! session even across garbage collections) and are backed by extents in the
//! paged address space. Every in-place mutation goes through
//! [`Heap::modify`], which dirties the touched pages (and relocates an
//! object that outgrew its extent) — giving both the OS-level baselines
//! (dirty pages) and Kishu's delta detector (addresses, structure)
//! something faithful to observe.
//!
//! A slot is an object's [`ObjKind`] and its extent, 48 bytes on 64-bit
//! targets. The table keeps one per object ever allocated, so a cell that
//! allocates 300,000 objects before its after-cell sweep holds 14.4 MB of
//! slots; boxing `ObjKind`'s three fat variants is what keeps a slot at 48.

use std::collections::HashSet;

use crate::object::{ObjId, ObjKind};
use crate::pages::{Extent, PageAllocator};

/// One live object: its kind and where it lives in the address space.
#[derive(Debug)]
struct Slot {
    kind: ObjKind,
    extent: Extent,
}

/// Set `id`'s bit in a slot-indexed mark bitmap; whether it was clear.
#[inline]
fn mark(bits: &mut [u64], id: ObjId) -> bool {
    let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
    let fresh = bits[word] & bit == 0;
    bits[word] |= bit;
    fresh
}

/// What one [`Heap::collect_garbage`] sweep freed and kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sweep {
    /// Objects collected.
    pub objects: usize,
    /// Shallow bytes of the collected objects.
    pub bytes: u64,
    /// Shallow bytes of the objects that survived.
    pub live_bytes: u64,
}

/// Aggregate heap statistics (drives Table 2-style workload summaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// Number of live objects.
    pub live_objects: usize,
    /// Sum of live objects' shallow sizes in bytes.
    pub live_bytes: u64,
    /// Total objects ever allocated.
    pub total_allocated: u64,
}

/// The heap of a simulated notebook kernel process.
#[derive(Debug)]
pub struct Heap {
    slots: Vec<Option<Slot>>,
    allocator: PageAllocator,
    total_allocated: u64,
    allocated_bytes: u64,
    next_token: u64,
}

impl Default for Heap {
    fn default() -> Self {
        Self::new()
    }
}

impl Heap {
    /// Fresh, empty heap (a just-started kernel).
    pub fn new() -> Self {
        Heap {
            slots: Vec::new(),
            allocator: PageAllocator::new(),
            total_allocated: 0,
            allocated_bytes: 0,
            next_token: 1,
        }
    }

    /// Allocate a new object. Returns its handle; its simulated address is
    /// assigned by the page allocator and never changes unless the object's
    /// backing buffer outgrows its extent (mirroring CPython reallocating a
    /// list's element array).
    #[inline]
    pub fn alloc(&mut self, kind: ObjKind) -> ObjId {
        // Allocators round requests up to size classes; the slack lets
        // small containers grow a little in place (as CPython lists do)
        // instead of relocating on the first append.
        let size = kind.shallow_size() as u64;
        let extent = self.allocator.alloc(size + (size / 8).clamp(8, 512));
        self.total_allocated += 1;
        self.allocated_bytes += size;
        self.slots.push(Some(Slot { kind, extent }));
        ObjId((self.slots.len() - 1) as u32)
    }

    /// Objects ever allocated, without the slot scan [`Self::stats`] does.
    pub fn total_allocated(&self) -> u64 {
        self.total_allocated
    }

    /// Shallow bytes ever allocated, each object counted at its
    /// allocation (later growth is mutation, not allocation).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Fresh token for generator identity.
    pub fn fresh_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    #[inline]
    fn slot(&self, id: ObjId) -> &Slot {
        self.slots[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("use of collected object {id}"))
    }

    /// Whether the handle refers to a live (non-collected) object.
    pub fn is_live(&self, id: ObjId) -> bool {
        self.slots
            .get(id.index())
            .map(|s| s.is_some())
            .unwrap_or(false)
    }

    /// Read an object's kind. Panics on a collected handle (a caller bug:
    /// the interpreter and Kishu only retain handles rooted in the
    /// namespace).
    #[inline]
    pub fn kind(&self, id: ObjId) -> &ObjKind {
        &self.slot(id).kind
    }

    /// The object's simulated memory address (CPython `id()` analogue).
    #[inline]
    pub fn addr(&self, id: ObjId) -> u64 {
        self.slot(id).extent.addr
    }

    /// Reference edges out of `id` (empty for leaves and opaque objects).
    pub fn children(&self, id: ObjId) -> Vec<ObjId> {
        self.slot(id).kind.children()
    }

    /// Mutate an object in place. Dirties the pages backing it, and
    /// reallocates the backing extent if the object outgrew it (which
    /// changes the object's address — observable by VarGraph comparison,
    /// as the growth is a genuine update).
    pub fn modify<R>(&mut self, id: ObjId, f: impl FnOnce(&mut ObjKind) -> R) -> R {
        let slot = self.slots[id.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("mutation of collected object {id}"));
        let out = f(&mut slot.kind);
        let needed = slot.kind.shallow_size() as u64;
        if needed > slot.extent.len {
            let old = slot.extent;
            // Double to amortize repeated growth, as CPython's list does.
            let new_ext = self.allocator.alloc(needed.saturating_mul(2));
            self.allocator.free(old);
            let slot = self.slots[id.index()].as_mut().expect("slot just accessed");
            slot.extent = new_ext;
            // Freeing `old` removed exactly its pages from the live set, so
            // only extents sharing those pages can have lost liveness.
            self.remark_pages_overlapping(old);
        } else {
            let ext = slot.extent;
            self.allocator.touch(ext);
        }
        out
    }

    /// Replace an object's kind wholesale (used by checkout when restoring a
    /// co-variable's objects in place). Same dirty/realloc semantics as
    /// [`Self::modify`].
    pub fn replace(&mut self, id: ObjId, kind: ObjKind) {
        self.modify(id, |k| *k = kind);
    }

    /// All objects reachable from `root` by following reference edges,
    /// including `root` itself, in BFS order. Does not descend into opaque
    /// objects (they have no edges).
    pub fn reachable_from(&self, root: ObjId) -> Vec<ObjId> {
        let mut seen: HashSet<ObjId> = HashSet::new();
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        seen.insert(root);
        queue.push_back(root);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for child in self.children(id) {
                if seen.insert(child) {
                    queue.push_back(child);
                }
            }
        }
        order
    }

    /// All objects reachable from *any* of `roots`, each visited once, in
    /// BFS order from the roots jointly. One traversal with a shared seen
    /// set — callers checking a property over a whole root set (e.g. the
    /// checkpoint blocklist scan) must use this rather than unioning
    /// per-root [`Self::reachable_from`] calls, which revisits every shared
    /// substructure once per root that reaches it.
    pub fn reachable_from_all(&self, roots: &[ObjId]) -> Vec<ObjId> {
        let mut seen: HashSet<ObjId> = HashSet::new();
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for &root in roots {
            if seen.insert(root) {
                queue.push_back(root);
            }
        }
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for child in self.children(id) {
                if seen.insert(child) {
                    queue.push_back(child);
                }
            }
        }
        order
    }

    /// Sum of shallow sizes of everything reachable from the given roots
    /// (shared objects counted once). One joint traversal via
    /// [`Self::reachable_from_all`] — never a per-root walk, which would
    /// revisit shared substructure once per root reaching it.
    pub fn deep_size(&self, roots: impl IntoIterator<Item = ObjId>) -> u64 {
        let roots: Vec<ObjId> = roots.into_iter().collect();
        self.reachable_from_all(&roots)
            .into_iter()
            .map(|id| self.kind(id).shallow_size() as u64)
            .sum()
    }

    /// Mark-and-sweep garbage collection from the given roots. Slot indices
    /// of collected objects are *not* reused, so stale `ObjId`s can never
    /// silently alias a new object.
    ///
    /// Marks into one bit per slot, then rebuilds the live-page set once
    /// from the survivors: that set is always the union of the live
    /// extents' pages, so nothing is lost by not unmarking each freed
    /// extent first.
    pub fn collect_garbage(&mut self, roots: impl IntoIterator<Item = ObjId>) -> Sweep {
        let mut marked = vec![0u64; self.slots.len().div_ceil(64)];
        let mut stack: Vec<ObjId> = Vec::new();
        for r in roots {
            if mark(&mut marked, r) {
                stack.push(r);
            }
        }
        while let Some(id) = stack.pop() {
            for child in self.children(id) {
                if mark(&mut marked, child) {
                    stack.push(child);
                }
            }
        }
        let mut sweep = Sweep::default();
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Some(s) = slot else { continue };
            let size = s.kind.shallow_size() as u64;
            if marked[idx / 64] & (1 << (idx % 64)) != 0 {
                sweep.live_bytes += size;
            } else {
                sweep.objects += 1;
                sweep.bytes += size;
                *slot = None;
            }
        }
        if sweep.objects > 0 {
            self.allocator
                .rebuild_live(self.slots.iter().flatten().map(|s| s.extent));
        }
        sweep
    }

    fn remark_pages_overlapping(&mut self, freed: Extent) {
        // A single freed extent (the growth path in [`Self::modify`]) only
        // removed *its* pages from the live set; re-marking is bounded by
        // the extents overlapping those pages instead of re-inserting every
        // page of every live object on each growth.
        let extents: Vec<Extent> = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.extent)
            .filter(|e| e.shares_pages_with(&freed))
            .collect();
        for e in extents {
            self.allocator.mark_live(e);
        }
    }

    /// The sweep [`Self::collect_garbage`] replaced, kept as its test
    /// oracle: a hash-set mark, then every freed extent unmarked and every
    /// survivor re-marked.
    #[cfg(test)]
    fn collect_garbage_reference(&mut self, roots: impl IntoIterator<Item = ObjId>) -> usize {
        let mut live: HashSet<ObjId> = HashSet::new();
        let mut queue: Vec<ObjId> = Vec::new();
        for r in roots {
            if live.insert(r) {
                queue.push(r);
            }
        }
        while let Some(id) = queue.pop() {
            for child in self.children(id) {
                if live.insert(child) {
                    queue.push(child);
                }
            }
        }
        let mut collected = 0;
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if let Some(s) = slot {
                if !live.contains(&ObjId(idx as u32)) {
                    self.allocator.free(s.extent);
                    *slot = None;
                    collected += 1;
                }
            }
        }
        if collected > 0 {
            self.remark_live_pages();
        }
        collected
    }

    #[cfg(test)]
    fn remark_live_pages(&mut self) {
        let extents: Vec<Extent> = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.extent)
            .collect();
        for e in extents {
            self.allocator.mark_live(e);
        }
    }

    /// Pages dirtied since the last [`Self::clear_dirty_pages`]. Consumed by
    /// the CRIU-Incremental baseline.
    pub fn dirty_pages(&self) -> Vec<u64> {
        self.allocator.dirty_pages()
    }

    /// All pages backing live objects. Consumed by the full-snapshot CRIU
    /// baseline.
    pub fn live_pages(&self) -> Vec<u64> {
        self.allocator.live_pages()
    }

    /// Reset dirty-page tracking (after a snapshot is taken).
    pub fn clear_dirty_pages(&mut self) {
        self.allocator.clear_dirty();
    }

    /// Objects whose extent overlaps any of the given pages — what an
    /// OS-level incremental snapshot implicitly copies.
    pub fn objects_on_pages(&self, pages: &[u64]) -> Vec<ObjId> {
        let page_set: HashSet<u64> = pages.iter().copied().collect();
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let s = slot.as_ref()?;
                s.extent
                    .pages()
                    .any(|p| page_set.contains(&p))
                    .then_some(ObjId(idx as u32))
            })
            .collect()
    }

    /// Iterator over all live object handles.
    pub fn live_objects(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, s)| s.as_ref().map(|_| ObjId(idx as u32)))
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> HeapStats {
        let mut live_objects = 0;
        let mut live_bytes = 0;
        for s in self.slots.iter().flatten() {
            live_objects += 1;
            live_bytes += s.kind.shallow_size() as u64;
        }
        HeapStats {
            live_objects,
            live_bytes,
            total_allocated: self.total_allocated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list_of_ints(heap: &mut Heap, values: &[i64]) -> ObjId {
        let items: Vec<ObjId> = values.iter().map(|v| heap.alloc(ObjKind::Int(*v))).collect();
        heap.alloc(ObjKind::List(items))
    }

    /// A slot is 48 bytes: a 32-byte `ObjKind` and a 16-byte extent, with
    /// `None` held in the kind's spare tag values.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn slots_are_48_bytes() {
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 48);
    }

    #[test]
    fn alloc_and_read_roundtrip() {
        let mut heap = Heap::new();
        let id = heap.alloc(ObjKind::Int(42));
        assert_eq!(heap.kind(id), &ObjKind::Int(42));
        assert!(heap.is_live(id));
    }

    #[test]
    fn addresses_are_distinct_and_stable() {
        let mut heap = Heap::new();
        let a = heap.alloc(ObjKind::Int(1));
        let b = heap.alloc(ObjKind::Int(1));
        assert_ne!(heap.addr(a), heap.addr(b));
        let before = heap.addr(a);
        heap.modify(a, |k| *k = ObjKind::Int(2));
        assert_eq!(heap.addr(a), before); // in-place update keeps the address
    }

    #[test]
    fn growth_reallocates_address() {
        let mut heap = Heap::new();
        let ls = heap.alloc(ObjKind::List(Vec::new()));
        let before = heap.addr(ls);
        let elems: Vec<ObjId> = (0..128).map(|i| heap.alloc(ObjKind::Int(i))).collect();
        heap.modify(ls, |k| {
            if let ObjKind::List(items) = k {
                items.extend(elems);
            }
        });
        assert_ne!(heap.addr(ls), before); // outgrew the extent
    }

    #[test]
    fn modify_dirties_pages() {
        let mut heap = Heap::new();
        let arr = heap.alloc(ObjKind::NdArray(vec![0.0; 10]));
        heap.clear_dirty_pages();
        assert!(heap.dirty_pages().is_empty());
        heap.modify(arr, |k| {
            if let ObjKind::NdArray(v) = k {
                v[3] = 1.0;
            }
        });
        assert!(!heap.dirty_pages().is_empty());
    }

    #[test]
    fn reachability_follows_references_and_dedups() {
        let mut heap = Heap::new();
        let shared = heap.alloc(ObjKind::Str("b".into()));
        let ls = heap.alloc(ObjKind::List(vec![shared, shared]));
        let reach = heap.reachable_from(ls);
        assert_eq!(reach.len(), 2); // list + shared string once
        assert!(reach.contains(&shared));
    }

    #[test]
    fn union_reachability_visits_shared_structure_once() {
        let mut heap = Heap::new();
        let shared = heap.alloc(ObjKind::Str("s".into()));
        let a = heap.alloc(ObjKind::List(vec![shared]));
        let b = heap.alloc(ObjKind::List(vec![shared]));
        let union = heap.reachable_from_all(&[a, b, a]);
        assert_eq!(union.len(), 3, "a, b, and shared exactly once each");
        // Same membership as unioning the per-root traversals.
        let mut per_root: Vec<ObjId> = heap
            .reachable_from(a)
            .into_iter()
            .chain(heap.reachable_from(b))
            .collect();
        per_root.sort_unstable();
        per_root.dedup();
        let mut got = union.clone();
        got.sort_unstable();
        assert_eq!(got, per_root);
        assert!(heap.reachable_from_all(&[]).is_empty());
    }

    #[test]
    fn reachability_handles_cycles() {
        let mut heap = Heap::new();
        let inner = heap.alloc(ObjKind::List(Vec::new()));
        let outer = heap.alloc(ObjKind::List(vec![inner]));
        heap.modify(inner, |k| {
            if let ObjKind::List(items) = k {
                items.push(outer);
            }
        });
        let reach = heap.reachable_from(outer);
        assert_eq!(reach.len(), 2);
    }

    #[test]
    fn gc_collects_unreachable_and_preserves_roots() {
        let mut heap = Heap::new();
        let keep = list_of_ints(&mut heap, &[1, 2, 3]);
        let drop_me = list_of_ints(&mut heap, &[4, 5, 6]);
        let sweep = heap.collect_garbage([keep]);
        assert_eq!(sweep.objects, 4); // dropped list + its 3 ints
        assert_eq!(sweep.bytes, 56 + 8 * 3 + 3 * 28);
        assert_eq!(sweep.live_bytes, heap.stats().live_bytes);
        assert!(heap.is_live(keep));
        assert!(!heap.is_live(drop_me));
        // Roots' children survived.
        for c in heap.children(keep) {
            assert!(heap.is_live(c));
        }
    }

    #[test]
    #[should_panic(expected = "use of collected object")]
    fn dead_handle_panics() {
        let mut heap = Heap::new();
        let dead = heap.alloc(ObjKind::Int(9));
        heap.collect_garbage(std::iter::empty());
        let _ = heap.kind(dead);
    }

    #[test]
    fn allocation_counters_are_kept_without_a_scan() {
        let mut heap = Heap::new();
        let a = list_of_ints(&mut heap, &[1, 2]);
        heap.alloc(ObjKind::NdArray(vec![0.0; 100]));
        assert_eq!(heap.total_allocated(), 4);
        assert_eq!(heap.allocated_bytes(), 56 + 8 * 2 + 2 * 28 + 112 + 8 * 100);
        heap.collect_garbage([a]);
        // Sweeps and growth leave both counters alone.
        heap.modify(a, |k| *k = ObjKind::List(vec![a; 64]));
        assert_eq!(heap.total_allocated(), heap.stats().total_allocated);
        assert_eq!(heap.allocated_bytes(), 56 + 8 * 2 + 2 * 28 + 112 + 8 * 100);
    }

    #[test]
    fn stats_track_live_state() {
        let mut heap = Heap::new();
        let a = list_of_ints(&mut heap, &[1, 2]);
        let before = heap.stats();
        assert_eq!(before.live_objects, 3);
        heap.collect_garbage([a]);
        assert_eq!(heap.stats().live_objects, 3);
        heap.collect_garbage(std::iter::empty());
        assert_eq!(heap.stats().live_objects, 0);
        assert_eq!(heap.stats().total_allocated, 3);
    }

    #[test]
    fn deep_size_counts_shared_once() {
        let mut heap = Heap::new();
        let shared = heap.alloc(ObjKind::NdArray(vec![0.0; 100]));
        let l1 = heap.alloc(ObjKind::List(vec![shared]));
        let l2 = heap.alloc(ObjKind::List(vec![shared]));
        let both = heap.deep_size([l1, l2]);
        let one = heap.deep_size([l1]);
        assert!(both < 2 * one);
    }

    #[test]
    fn objects_on_pages_finds_overlapping() {
        let mut heap = Heap::new();
        let big = heap.alloc(ObjKind::NdArray(vec![0.0; 2048])); // ~16 KiB, several pages
        let pages = heap.live_pages();
        let objs = heap.objects_on_pages(&pages);
        assert!(objs.contains(&big));
    }

    /// Regression for the per-root quadratic `deep_size`: with N roots all
    /// reaching one big shared structure, the old per-root
    /// `reachable_from` loop traversed the structure N times; the joint
    /// traversal visits it once. The semantics check pins counted-once
    /// behavior exactly; the work bound separates O(roots + structure)
    /// from O(roots x structure) with a wide noise margin (the quadratic
    /// shape is ~512x slower, the bound allows 64x).
    #[test]
    fn deep_size_is_one_joint_traversal_over_shared_substructure() {
        let mut heap = Heap::new();
        let ints: Vec<ObjId> = (0..16_000).map(|i| heap.alloc(ObjKind::Int(i))).collect();
        let shared = heap.alloc(ObjKind::List(ints));
        let roots: Vec<ObjId> =
            (0..512).map(|_| heap.alloc(ObjKind::List(vec![shared]))).collect();
        let one = heap.deep_size([roots[0]]);
        let all = heap.deep_size(roots.iter().copied());
        let wrapper = heap.kind(roots[0]).shallow_size() as u64;
        assert_eq!(all, one + 511 * wrapper, "shared structure must count once");
        let t0 = std::time::Instant::now();
        let _ = heap.deep_size([roots[0]]);
        let t_one = t0.elapsed();
        let t1 = std::time::Instant::now();
        let _ = heap.deep_size(roots.iter().copied());
        let t_all = t1.elapsed();
        assert!(
            t_all < t_one * 64 + std::time::Duration::from_millis(50),
            "deep_size over 512 roots re-walked the shared structure per root: \
             one root {t_one:?}, all roots {t_all:?}"
        );
    }

    /// First-principles oracle for the allocator's live-page set: the union
    /// of every live slot's extent pages. `alloc` marks, growth unmarks the
    /// old extent and re-marks its neighbours, a sweep rebuilds the set
    /// from the survivors — so this equality is the invariant every path
    /// must preserve.
    pub(super) fn oracle_live_pages(heap: &Heap) -> Vec<u64> {
        let mut set = std::collections::BTreeSet::new();
        for s in heap.slots.iter().flatten() {
            for p in s.extent.pages() {
                set.insert(p);
            }
        }
        set.into_iter().collect()
    }

    #[test]
    fn growth_remark_keeps_shared_pages_live() {
        let mut heap = Heap::new();
        // Small neighbors share the growing list's first page; growth must
        // not lose their liveness, and must drop pages nothing overlaps.
        let list = heap.alloc(ObjKind::List(Vec::new()));
        let neighbor = heap.alloc(ObjKind::Int(7));
        let elems: Vec<ObjId> = (0..256).map(|i| heap.alloc(ObjKind::Int(i))).collect();
        heap.modify(list, |k| {
            if let ObjKind::List(items) = k {
                items.extend(elems);
            }
        });
        assert_eq!(heap.live_pages(), oracle_live_pages(&heap));
        assert!(heap.objects_on_pages(&heap.live_pages()).contains(&neighbor));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use kishu_testkit::prelude::*;

    /// Differential fuzz for the incremental growth re-mark: replay a tape
    /// of alloc / grow / touch / collect operations and, after every step,
    /// require the allocator's live-page set to equal the first-principles
    /// union over live extents (what the full rescan computes from
    /// scratch) *and* to be a fixed point of the full-rescan oracle.
    fn replay_and_check(tape: &[u8]) -> Result<(), TestCaseError> {
        let mut heap = Heap::new();
        let mut objs: Vec<ObjId> = Vec::new();
        for &b in tape {
            match b {
                0..=99 => {
                    objs.push(heap.alloc(ObjKind::Int(b as i64)));
                }
                100..=149 => {
                    let n = ((b as usize) % 8 + 1) * 600; // multi-page array
                    objs.push(heap.alloc(ObjKind::NdArray(vec![0.0; n])));
                }
                150..=209 => {
                    // Grow an array far enough to outgrow its extent and
                    // exercise the incremental re-mark.
                    if let Some(&id) = objs.get(b as usize % objs.len().max(1)) {
                        heap.modify(id, |k| {
                            if let ObjKind::NdArray(v) = k {
                                let extra = v.len().max(64);
                                v.extend(std::iter::repeat_n(1.0, extra));
                            }
                        });
                    }
                }
                210..=229 => {
                    // Collect with a pseudo-random subset of roots; the
                    // full rescan after a sweep must agree too.
                    let keep: Vec<ObjId> = objs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !(i + b as usize).is_multiple_of(3))
                        .map(|(_, &id)| id)
                        .collect();
                    heap.collect_garbage(keep.iter().copied());
                    objs.retain(|&id| heap.is_live(id));
                }
                _ => {
                    // In-place mutation: dirties pages, no growth.
                    if let Some(&id) = objs.get(b as usize % objs.len().max(1)) {
                        heap.modify(id, |k| {
                            if let ObjKind::NdArray(v) = k {
                                if let Some(x) = v.first_mut() {
                                    *x += 1.0;
                                }
                            }
                        });
                    }
                }
            }
            let got = heap.live_pages();
            let want = super::tests::oracle_live_pages(&heap);
            prop_assert_eq!(&got, &want, "live pages diverged from the union oracle");
            heap.remark_live_pages();
            prop_assert_eq!(
                heap.live_pages(),
                want,
                "incremental re-mark is not a fixed point of the full rescan"
            );
        }
        Ok(())
    }

    /// Differential against the replaced sweep: replay one tape of
    /// allocations (leaves, multi-page arrays, lists over earlier objects),
    /// growth, in-place writes, edge additions, dirty-page resets and
    /// collections on two heaps, one swept by [`Heap::collect_garbage`] and
    /// one by [`Heap::collect_garbage_reference`]. After every step they
    /// must agree on the collected count, `stats()`, `live_pages()` and
    /// `dirty_pages()`, and the sweep's byte counts must match the stats.
    fn replay_against_reference(tape: &[u8]) -> Result<(), TestCaseError> {
        let (mut new, mut old) = (Heap::new(), Heap::new());
        let mut objs: Vec<ObjId> = Vec::new();
        for (step, pair) in tape.chunks(2).enumerate() {
            let (op, arg) = (pair[0], *pair.get(1).unwrap_or(&0) as usize);
            let pick = |objs: &[ObjId]| objs.get(arg % objs.len().max(1)).copied();
            let heaps = [&mut new, &mut old];
            match op % 8 {
                0 | 1 => {
                    let a = new.alloc(ObjKind::Int(arg as i64));
                    prop_assert_eq!(a, old.alloc(ObjKind::Int(arg as i64)));
                    objs.push(a);
                }
                2 => {
                    let n = (arg % 8 + 1) * 600;
                    let a = new.alloc(ObjKind::NdArray(vec![0.0; n]));
                    prop_assert_eq!(a, old.alloc(ObjKind::NdArray(vec![0.0; n])));
                    objs.push(a);
                }
                3 => {
                    let items: Vec<ObjId> = objs.iter().rev().take(arg % 5).copied().collect();
                    let a = new.alloc(ObjKind::List(items.clone()));
                    prop_assert_eq!(a, old.alloc(ObjKind::List(items)));
                    objs.push(a);
                }
                4 => {
                    // Edges from a list to the newest object, or an array
                    // grown past its extent.
                    let (Some(from), Some(to)) = (pick(&objs), objs.last().copied()) else {
                        continue;
                    };
                    for h in heaps {
                        h.modify(from, |k| match k {
                            ObjKind::List(items) => items.extend(std::iter::repeat_n(to, 4)),
                            ObjKind::NdArray(v) => v.extend(std::iter::repeat_n(1.0, 512)),
                            _ => {}
                        });
                    }
                }
                5 => {
                    let Some(id) = pick(&objs) else { continue };
                    for h in heaps {
                        h.modify(id, |k| {
                            if let ObjKind::NdArray(v) = k {
                                v[0] += 1.0;
                            }
                        });
                    }
                }
                6 => heaps.into_iter().for_each(Heap::clear_dirty_pages),
                _ => {
                    let roots: Vec<ObjId> = objs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| (i + arg) % 3 != 0)
                        .map(|(_, &id)| id)
                        .collect();
                    let before = new.stats();
                    let sweep = new.collect_garbage(roots.iter().copied());
                    let collected = old.collect_garbage_reference(roots.iter().copied());
                    prop_assert_eq!(sweep.objects, collected, "collected count at step {}", step);
                    let after = new.stats();
                    prop_assert_eq!(sweep.live_bytes, after.live_bytes);
                    prop_assert_eq!(sweep.bytes, before.live_bytes - after.live_bytes);
                    objs.retain(|&id| new.is_live(id));
                }
            }
            prop_assert_eq!(new.stats(), old.stats(), "stats at step {}", step);
            prop_assert_eq!(new.live_pages(), old.live_pages(), "live pages at step {}", step);
            prop_assert_eq!(new.dirty_pages(), old.dirty_pages(), "dirty pages at step {}", step);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sweep_matches_reference(tape in prop::collection::vec(any::<u8>(), 2usize..600)) {
            replay_against_reference(&tape)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn page_liveness_matches_full_rescan_oracle(
            tape in prop::collection::vec(any::<u8>(), 1usize..120)
        ) {
            replay_and_check(&tape)?;
        }
    }
}
