//! CRIU and CRIU-Incremental: OS-level memory snapshotting (§2.3, §7.1).
//!
//! * `CriuFull` dumps every live page of the simulated process on each
//!   checkpoint; restore reads one image and rebuilds the kernel process.
//! * `CriuIncremental` dumps only pages dirtied since the previous
//!   checkpoint; restore must read the **entire chain** (base + overlays)
//!   and piece the process image together — the reason it is the slowest
//!   restorer in Fig 15 despite cheap checkpoints.
//!
//! Both account checkpoint size at *page* granularity (images are padded to
//! whole pages), reproducing the fragmentation blow-up of Fig 4: touching
//! one interleaved list drags every co-located object into the delta. Both
//! fail when the state holds off-process objects (Spark/Ray/GPU — Table 4),
//! and both must kill and replace the kernel process to restore.

use std::sync::Arc;
use std::time::Instant;

use kishu_kernel::{ObjId, ObjKind, PAGE_SIZE};
use kishu_libsim::Registry;
use kishu_minipy::Interp;
use kishu_storage::{BlobId, CheckpointStore};

use crate::memimage::{decode_chain, encode_image};
use crate::{CkptStats, MethodError, RestoreStats};

/// Reject states CRIU cannot dump: any live object of an off-process class.
fn check_supported(interp: &Interp, registry: &Registry) -> Result<(), MethodError> {
    for id in interp.heap.live_objects() {
        if let ObjKind::External(ext) = interp.heap.kind(id) {
            if let Some(spec) = registry.get(ext.class) {
                if spec.behavior.off_process {
                    return Err(MethodError::Unsupported(spec.name.to_string()));
                }
            }
        }
    }
    Ok(())
}

fn bindings_of(interp: &Interp) -> Vec<(String, ObjId)> {
    interp
        .globals
        .bindings()
        .map(|(n, o)| (n.to_string(), o))
        .collect()
}

/// Build a fresh kernel process from a decoded image chain.
fn revive(
    registry: &Arc<Registry>,
    blobs: &[Vec<u8>],
) -> Result<Interp, MethodError> {
    // An OS-level restore cannot reuse the live kernel: the process is
    // killed and a new one started before the image is mapped back in
    // (§2.3). Charge the restart.
    kishu_kernel::simcost::charge(kishu_kernel::simcost::KERNEL_RESTART);
    let mut interp = Interp::new();
    kishu_libsim::install(&mut interp, registry.clone());
    let bindings = decode_chain(blobs, &mut interp.heap)?;
    for (name, obj) in bindings {
        interp.globals.set_untracked(&name, obj);
    }
    Ok(interp)
}

/// Full OS-level snapshots.
pub struct CriuFull {
    store: Box<dyn CheckpointStore>,
    registry: Arc<Registry>,
    versions: Vec<BlobId>,
}

impl CriuFull {
    /// New snapshotter writing into `store`.
    pub fn new(store: Box<dyn CheckpointStore>, registry: Arc<Registry>) -> Self {
        CriuFull {
            store,
            registry,
            versions: Vec::new(),
        }
    }

    /// Number of snapshots taken.
    pub fn versions(&self) -> usize {
        self.versions.len()
    }

    /// Storage accounting.
    pub fn stats(&self) -> kishu_storage::StoreStats {
        self.store.stats()
    }

    /// Snapshot the whole process image.
    pub fn checkpoint(&mut self, interp: &mut Interp) -> Result<CkptStats, MethodError> {
        let start = Instant::now();
        check_supported(interp, &self.registry)?;
        let bindings = bindings_of(interp);
        let objs: Vec<ObjId> = interp.heap.live_objects().collect();
        let mut image = encode_image(&interp.heap, &bindings, &objs, true);
        let page_bytes = interp.heap.live_pages().len() as u64 * PAGE_SIZE;
        if (image.len() as u64) < page_bytes {
            image.resize(page_bytes as usize, 0);
        }
        let id = self
            .store
            .put(&image)
            .map_err(|e| MethodError::Io(e.to_string()))?;
        self.versions.push(id);
        interp.heap.clear_dirty_pages();
        Ok(CkptStats {
            bytes: image.len() as u64,
            time: start.elapsed(),
        })
    }

    /// Restore version `v`: read the image, kill the kernel, rebuild.
    pub fn restore(&self, v: usize) -> Result<(Interp, RestoreStats), MethodError> {
        let start = Instant::now();
        let blob_id = *self
            .versions
            .get(v)
            .ok_or(MethodError::UnknownVersion(v))?;
        let blob = self
            .store
            .get(blob_id)
            .map_err(|e| MethodError::Io(e.to_string()))?;
        let bytes_read = blob.len() as u64;
        let interp = revive(&self.registry, &[blob])?;
        Ok((
            interp,
            RestoreStats {
                bytes_read,
                time: start.elapsed(),
                killed_kernel: true,
            },
        ))
    }
}

/// Incremental (dirty-page) OS-level snapshots.
pub struct CriuIncremental {
    store: Box<dyn CheckpointStore>,
    registry: Arc<Registry>,
    versions: Vec<BlobId>,
}

impl CriuIncremental {
    /// New snapshotter writing into `store`.
    pub fn new(store: Box<dyn CheckpointStore>, registry: Arc<Registry>) -> Self {
        CriuIncremental {
            store,
            registry,
            versions: Vec::new(),
        }
    }

    /// Number of snapshots taken.
    pub fn versions(&self) -> usize {
        self.versions.len()
    }

    /// Storage accounting.
    pub fn stats(&self) -> kishu_storage::StoreStats {
        self.store.stats()
    }

    /// Snapshot: full image the first time, then only objects on pages
    /// dirtied since the previous snapshot.
    pub fn checkpoint(&mut self, interp: &mut Interp) -> Result<CkptStats, MethodError> {
        let start = Instant::now();
        check_supported(interp, &self.registry)?;
        let bindings = bindings_of(interp);
        let (objs, page_count, full): (Vec<ObjId>, usize, bool) = if self.versions.is_empty() {
            let pages = interp.heap.live_pages();
            (interp.heap.live_objects().collect(), pages.len(), true)
        } else {
            let dirty = interp.heap.dirty_pages();
            (interp.heap.objects_on_pages(&dirty), dirty.len(), false)
        };
        let mut image = encode_image(&interp.heap, &bindings, &objs, full);
        let page_bytes = page_count as u64 * PAGE_SIZE;
        if (image.len() as u64) < page_bytes {
            image.resize(page_bytes as usize, 0);
        }
        let id = self
            .store
            .put(&image)
            .map_err(|e| MethodError::Io(e.to_string()))?;
        self.versions.push(id);
        interp.heap.clear_dirty_pages();
        Ok(CkptStats {
            bytes: image.len() as u64,
            time: start.elapsed(),
        })
    }

    /// Restore version `v`: read and merge the full chain `0..=v`.
    pub fn restore(&self, v: usize) -> Result<(Interp, RestoreStats), MethodError> {
        let start = Instant::now();
        if v >= self.versions.len() {
            return Err(MethodError::UnknownVersion(v));
        }
        let mut blobs = Vec::with_capacity(v + 1);
        let mut bytes_read = 0u64;
        for id in &self.versions[..=v] {
            let blob = self
                .store
                .get(*id)
                .map_err(|e| MethodError::Io(e.to_string()))?;
            bytes_read += blob.len() as u64;
            blobs.push(blob);
        }
        let interp = revive(&self.registry, &blobs)?;
        Ok((
            interp,
            RestoreStats {
                bytes_read,
                time: start.elapsed(),
                killed_kernel: true,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu_storage::MemoryStore;

    fn kernel() -> (Interp, Arc<Registry>) {
        let mut interp = Interp::new();
        let registry = Arc::new(Registry::standard());
        kishu_libsim::install(&mut interp, registry.clone());
        (interp, registry)
    }

    fn run(i: &mut Interp, src: &str) {
        let out = i.run_cell(src).expect("parses");
        assert!(out.error.is_none(), "{:?}", out.error);
    }

    fn eval(i: &mut Interp, expr: &str) -> String {
        let out = i.run_cell(&format!("{expr}\n")).expect("parses");
        assert!(out.error.is_none(), "{:?}", out.error);
        out.value_repr.unwrap_or_default()
    }

    #[test]
    fn full_snapshot_roundtrip() {
        let (mut i, reg) = kernel();
        let mut criu = CriuFull::new(Box::new(MemoryStore::new()), reg);
        run(&mut i, "df = read_csv('d', 100, 3, 1)\nx = [1, 2]\n");
        criu.checkpoint(&mut i).expect("ckpt 0");
        run(&mut i, "x.append(3)\n");
        criu.checkpoint(&mut i).expect("ckpt 1");
        let (mut restored, stats) = criu.restore(0).expect("restore");
        assert!(stats.killed_kernel);
        assert_eq!(eval(&mut restored, "len(x)"), "2");
        let (mut restored, _) = criu.restore(1).expect("restore");
        assert_eq!(eval(&mut restored, "len(x)"), "3");
    }

    #[test]
    fn incremental_chain_roundtrip() {
        let (mut i, reg) = kernel();
        let mut criu = CriuIncremental::new(Box::new(MemoryStore::new()), reg);
        run(&mut i, "base = read_csv('d', 5000, 4, 1)\nls = [1]\n");
        let c0 = criu.checkpoint(&mut i).expect("base");
        run(&mut i, "ls.append(2)\n");
        let c1 = criu.checkpoint(&mut i).expect("overlay");
        assert!(
            c1.bytes < c0.bytes / 2,
            "overlay ({}) must be much smaller than base ({})",
            c1.bytes,
            c0.bytes
        );
        let (mut restored, stats) = criu.restore(1).expect("restore");
        assert_eq!(
            stats.bytes_read,
            c0.bytes + c1.bytes,
            "restore reads the whole chain"
        );
        assert_eq!(eval(&mut restored, "len(ls)"), "2");
        assert_eq!(eval(&mut restored, "len(base.columns)"), "4");
    }

    #[test]
    fn incremental_is_coarser_than_the_logical_delta() {
        // The Fig 4 effect: two lists built by interleaved appends have
        // their *elements* fragmented across shared pages. Mutating every
        // element of `sad` dirties pages that also hold `happy`'s elements,
        // so the page-granular snapshot drags untouched data along.
        let (mut i, reg) = kernel();
        let mut criu = CriuIncremental::new(Box::new(MemoryStore::new()), reg);
        run(
            &mut i,
            "sad = []\nhappy = []\nfor k in range(300):\n    sad.append([k])\n    happy.append([k])\n",
        );
        criu.checkpoint(&mut i).expect("base");
        run(&mut i, "for e in sad:\n    e.append(0)\n");
        // Inspect the dirty-page object set before the overlay clears it.
        let dirty = i.heap.dirty_pages();
        let dragged = i.heap.objects_on_pages(&dirty);
        let happy = i.globals.peek("happy").expect("bound");
        let happy_elems: Vec<ObjId> = i.heap.children(happy);
        let dragged_happy = happy_elems.iter().filter(|e| dragged.contains(e)).count();
        assert!(
            dragged_happy * 2 > happy_elems.len(),
            "page granularity dragged only {dragged_happy}/{} untouched happy elements",
            happy_elems.len()
        );
        // And the overlay is accordingly larger than the one-co-variable
        // logical delta Kishu would write.
        let c1 = criu.checkpoint(&mut i).expect("overlay");
        let sad = i.globals.peek("sad").expect("bound");
        let sad_bytes = i.heap.deep_size([sad]);
        assert!(
            c1.bytes as f64 > 1.2 * sad_bytes as f64,
            "page-granular delta {} should exceed the one-list delta {}",
            c1.bytes,
            sad_bytes
        );
    }

    #[test]
    fn off_process_state_is_unsupported() {
        let (mut i, reg) = kernel();
        run(&mut i, "t = lib_obj('torch.Tensor', 128, 1)\n");
        let mut full = CriuFull::new(Box::new(MemoryStore::new()), reg.clone());
        assert!(matches!(
            full.checkpoint(&mut i),
            Err(MethodError::Unsupported(name)) if name == "torch.Tensor"
        ));
        let mut inc = CriuIncremental::new(Box::new(MemoryStore::new()), reg);
        assert!(matches!(
            inc.checkpoint(&mut i),
            Err(MethodError::Unsupported(_))
        ));
    }

    #[test]
    fn generators_are_fine_for_criu() {
        // The one thing OS-level dumps handle that pickling cannot.
        let (mut i, reg) = kernel();
        let mut criu = CriuFull::new(Box::new(MemoryStore::new()), reg);
        run(&mut i, "g = make_generator()\n");
        criu.checkpoint(&mut i).expect("generators dump fine");
        let (restored, _) = criu.restore(0).expect("restore");
        assert!(restored.globals.contains("g"));
    }

    #[test]
    fn unknown_version_is_an_error() {
        let (_, reg) = kernel();
        let criu = CriuFull::new(Box::new(MemoryStore::new()), reg);
        assert!(matches!(criu.restore(0), Err(MethodError::UnknownVersion(0))));
    }
}
