//! [`TimedStore`]: a [`CheckpointStore`] decorator that counts and times
//! every call into the storage layer, for the traced run's `store.*`
//! metrics. It forwards every method unchanged, so the store it wraps
//! behaves exactly as it would bare (the transparency test in `runner`
//! checks the bytes on disk).

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::time::Instant;

use kishu_storage::{
    BlobId, CheckpointStore, ChunkConfig, ChunkStats, IntegrityReport, PutReceipt, StoreStats,
};

/// Counters a [`TimedStore`] accumulates; shared with the benchmark, which
/// keeps reading them after the session has taken ownership of the store.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreTimes {
    pub put_count: u64,
    pub put_bytes: u64,
    pub put_ns: u64,
    pub get_count: u64,
    pub get_bytes: u64,
    pub get_ns: u64,
    pub barrier_count: u64,
    pub barrier_ns: u64,
}

pub type SharedTimes = Rc<RefCell<StoreTimes>>;

pub struct TimedStore<S> {
    inner: S,
    times: SharedTimes,
}

impl<S: CheckpointStore> TimedStore<S> {
    pub fn new(inner: S, times: SharedTimes) -> Self {
        TimedStore { inner, times }
    }

    fn record_put(&self, start: Instant, bytes: usize) {
        let mut t = self.times.borrow_mut();
        t.put_count += 1;
        t.put_bytes += bytes as u64;
        t.put_ns += start.elapsed().as_nanos() as u64;
    }
}

impl<S: CheckpointStore> CheckpointStore for TimedStore<S> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId> {
        let start = Instant::now();
        let out = self.inner.put(bytes);
        self.record_put(start, bytes.len());
        out
    }

    fn put_with_receipt(&mut self, bytes: &[u8]) -> io::Result<PutReceipt> {
        let start = Instant::now();
        let out = self.inner.put_with_receipt(bytes);
        self.record_put(start, bytes.len());
        out
    }

    fn get(&self, id: BlobId) -> io::Result<Vec<u8>> {
        let start = Instant::now();
        let out = self.inner.get(id);
        let mut t = self.times.borrow_mut();
        t.get_count += 1;
        t.get_bytes += out.as_ref().map_or(0, |b| b.len() as u64);
        t.get_ns += start.elapsed().as_nanos() as u64;
        out
    }

    fn blob_count(&self) -> u64 {
        self.inner.blob_count()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    fn flush_barrier(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let out = self.inner.flush_barrier();
        let mut t = self.times.borrow_mut();
        t.barrier_count += 1;
        t.barrier_ns += start.elapsed().as_nanos() as u64;
        out
    }

    fn chunk_stats(&self) -> Option<ChunkStats> {
        self.inner.chunk_stats()
    }

    fn chunk_config(&self) -> Option<ChunkConfig> {
        self.inner.chunk_config()
    }

    fn attach_trace(&mut self, trace: &kishu_trace::Trace) {
        self.inner.attach_trace(trace)
    }

    fn integrity_sweep(&self) -> IntegrityReport {
        self.inner.integrity_sweep()
    }
}
