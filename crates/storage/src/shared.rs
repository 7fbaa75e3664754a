//! Multi-tenant shared checkpoint store.
//!
//! The paper's demo checkpoints one notebook session into one store. When
//! several sessions load the same datasets and train the same models,
//! cross-session redundancy is the dominant storage win; [`SharedStore`]
//! is that deployment shape:
//!
//! * **Store-wide dedup** — every sealed payload is content-addressed
//!   ([`crate::dedup::content_key`]); identical bytes written by *any*
//!   tenant land in the store once and are refcounted. Dedup here is
//!   load-bearing (unlike the advisory per-session [`crate::BlobIndex`]):
//!   a repeat write increments a refcount instead of appending.
//! * **One payload log behind one lock** — every payload goes to one
//!   ordered log. The log, its dedup index and refcounts, the tenants and
//!   the generation sit behind a single mutex that each public method
//!   takes once. Callers drive their tenants on one thread, so there is
//!   no contention to spread. A tenant's blob ids come from its own dense
//!   counter, so the per-session serial-oracle invariant holds.
//! * **Per-tenant views** — [`SharedStore::tenant`] returns a
//!   [`TenantHandle`] implementing [`CheckpointStore`] with *dense,
//!   private blob ids*: tenant blob `k` is its `k`-th successful `put`,
//!   exactly as on a private store. Gets resolve through the tenant's
//!   mapping to payload-log indices. Stats are logical (mirroring
//!   [`crate::MemoryStore`]'s accounting), so a session cannot observe its
//!   neighbors through sizes either. The shared store is
//!   **observationally private**: every read, id, size, and error a
//!   tenant sees is byte-identical to running alone — the property
//!   `tests/multi_tenant.rs` proves differentially. Each handle carries
//!   its own trace, so a tenant's `shared.*` spans land in its session's
//!   trace.
//! * **Chunk dedup under the id layer** — the payload log runs the
//!   storage-engine-v2 representation (content-defined chunking +
//!   per-chunk compression, [`crate::chunk`]), so two tenants' *distinct*
//!   blobs that share most of their bytes (the same dataframe, one cell's
//!   edit apart) share chunks physically, store-wide. Aggregate counters:
//!   [`SharedStore::chunk_stats`].
//! * **GC** — see [`crate::gc`]: a stop-the-world mark-and-sweep pass over
//!   caller-supplied live sets that compacts the payload log into a new
//!   generation and commits via an atomic manifest rename,
//!   crash-consistent with [`SharedStore::open`].
//!
//! ## File layout
//!
//! A file-backed store is a directory:
//!
//! ```text
//! MANIFEST.json            {"schema":"kishu-shared-v2","generation":G,"tenants":[…]}
//! payload.g<G>.log         payload log (FileStore framing), generation G
//! tenant-<hex>.g<G>.log    mapping log: tenant blob k = k-th record
//! ```
//!
//! Mapping records are `[1, idx: u32, len: u64]` (all LE) for a live
//! mapping or `[0]` for a tombstone (a blob GC reclaimed; the id stays
//! allocated so tenant ids remain dense forever). Everything outside the
//! manifest is append-only between GCs; `open` rebuilds the dedup index
//! and refcounts by scanning, so no index file can go stale. `open`
//! rejects a manifest it cannot read in full, any other schema included,
//! with `InvalidData` before it touches a file.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use kishu_testkit::hash::xxh64;
use kishu_testkit::json::Json;
use kishu_trace::Trace;

use crate::chunk::ChunkConfig;
use crate::dedup::{content_key, ContentKey};
use crate::file_store::FileStore;
use crate::{BlobId, CheckpointStore, MemoryStore, StoreStats};

/// Schema tag of `MANIFEST.json`.
pub const SHARED_SCHEMA: &str = "kishu-shared-v2";

/// Where a tenant blob lives: `(payload-log index, payload length)`.
pub(crate) type Mapping = (u32, u64);

/// Per-tenant operator counters: physical truth (dedup hits include
/// cross-tenant sharing), so they live *below* the dense-id layer and are
/// exposed only through [`SharedStore::tenant_metrics`] — never through a
/// [`TenantHandle`], which must stay observationally identical to a
/// private store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantOpStats {
    /// Puts issued through this tenant's view.
    pub puts: u64,
    /// Logical bytes those puts carried.
    pub put_bytes: u64,
    /// Puts that deduplicated against an existing physical payload
    /// (intra- *or* cross-tenant — the signal a tenant itself never sees).
    pub dedup_hits: u64,
    /// Gets issued through this tenant's view.
    pub gets: u64,
    /// Syncs issued through this tenant's view.
    pub syncs: u64,
}

/// One tenant's view state: its dense id → payload mapping.
#[derive(Default)]
pub(crate) struct TenantState {
    /// Tenant blob `k` ↦ its mapping, or `None` once reclaimed (ids stay
    /// dense forever; a reclaimed id reads as `NotFound`).
    pub(crate) blobs: Vec<Option<Mapping>>,
    /// Cumulative payload bytes over live mappings (what a private
    /// [`MemoryStore`] would report after the same puts).
    pub(crate) payload_bytes: u64,
    /// Durable mapping log (file backend only).
    pub(crate) log: Option<FileStore>,
    /// Operator-only traffic counters (in-memory, not persisted).
    pub(crate) ops: TenantOpStats,
}

/// Everything the store holds, behind its one lock.
pub(crate) struct State {
    /// The store directory; `None` for the in-memory backend.
    pub(crate) dir: Option<PathBuf>,
    /// The payload log.
    pub(crate) payloads: Box<dyn CheckpointStore>,
    /// Content key → payload index. Load-bearing (a hit suppresses a
    /// write), safe because the key pairs a 64-bit hash with the exact
    /// length.
    pub(crate) dedup: HashMap<ContentKey, u32>,
    /// Live references per payload, across all tenants. Only GC ever
    /// decreases these (by recomputation, so they structurally cannot go
    /// negative).
    pub(crate) refs: Vec<u64>,
    /// Length per payload.
    pub(crate) lens: Vec<u64>,
    pub(crate) tenants: BTreeMap<String, TenantState>,
    pub(crate) generation: u64,
    /// The operator trace: GC phases and the payload log's own spans.
    pub(crate) trace: Trace,
    /// GC crash-test hook: remaining byte budget for generation writes.
    /// `None` = unlimited. See [`SharedStore::set_crash_after_bytes`].
    pub(crate) crash_after: Option<u64>,
}

impl State {
    /// A tenant-less state over an empty payload log.
    fn new(dir: Option<PathBuf>, payloads: Box<dyn CheckpointStore>, generation: u64) -> Self {
        State {
            dir,
            payloads,
            dedup: HashMap::new(),
            refs: Vec::new(),
            lens: Vec::new(),
            tenants: BTreeMap::new(),
            generation,
            trace: Trace::disabled(),
            crash_after: None,
        }
    }

    fn tenant(&mut self, name: &str) -> &mut TenantState {
        self.tenants.get_mut(name).expect("tenant registered by SharedStore::tenant")
    }
}

/// Take the store's one lock.
pub(crate) fn lock(state: &Mutex<State>) -> MutexGuard<'_, State> {
    state.lock().expect("shared store lock")
}

/// The dedup index and lengths of a payload log holding `payloads` in
/// order. An unreadable payload (`None`) keeps its slot, since indices are
/// positional, but never takes a dedup hit. The first copy of repeated
/// bytes wins, matching `put`.
pub(crate) fn payload_index<B: AsRef<[u8]>>(
    payloads: impl IntoIterator<Item = Option<B>>,
) -> (HashMap<ContentKey, u32>, Vec<u64>) {
    let mut dedup = HashMap::new();
    let mut lens = Vec::new();
    for (idx, bytes) in payloads.into_iter().enumerate() {
        lens.push(bytes.map_or(0, |b| {
            dedup.entry(content_key(b.as_ref())).or_insert(idx as u32);
            b.as_ref().len() as u64
        }));
    }
    (dedup, lens)
}

/// A multi-tenant, store-wide-deduplicating checkpoint store. Cheap to
/// clone (a handle); see the module docs for the architecture.
#[derive(Clone)]
pub struct SharedStore {
    pub(crate) state: Arc<Mutex<State>>,
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.state);
        f.debug_struct("SharedStore")
            .field("tenants", &st.tenants.len())
            .field("generation", &st.generation)
            .finish()
    }
}

pub(crate) fn payload_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("payload.g{generation}.log"))
}

pub(crate) fn tenant_path(dir: &Path, name: &str, generation: u64) -> PathBuf {
    dir.join(format!("tenant-{:016x}.g{generation}.log", xxh64(name.as_bytes(), 0)))
}

pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST.json")
}

/// Whether `name` is one of the store's generation-suffixed logs.
fn is_generational(name: &str) -> bool {
    (name.starts_with("payload.") || name.starts_with("tenant-"))
        && name.ends_with(".log")
        && name.contains(".g")
}

/// Serialize one mapping-log record.
pub(crate) fn encode_mapping(m: Option<Mapping>) -> Vec<u8> {
    match m {
        Some((idx, len)) => [&[1][..], &idx.to_le_bytes(), &len.to_le_bytes()].concat(),
        None => vec![0],
    }
}

/// Parse one mapping-log record; `None` if malformed (treated as a
/// tombstone by recovery — degraded, never wrong bytes).
fn decode_mapping(b: &[u8]) -> Option<Mapping> {
    let [1, rest @ ..] = b else { return None };
    let (idx, len) = rest.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*idx), u64::from_le_bytes(len.try_into().ok()?)))
}

/// Render the manifest JSON for the given state.
pub(crate) fn manifest_json(generation: u64, tenants: &[&str]) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(SHARED_SCHEMA.to_string())),
        ("generation", Json::Int(generation as i64)),
        (
            "tenants",
            Json::Array(tenants.iter().map(|t| Json::Str(t.to_string())).collect()),
        ),
    ])
}

/// Parse `MANIFEST.json` into its generation and tenant names. Anything
/// short of a complete manifest of this schema is `InvalidData`: a guessed
/// generation would have `open` delete the real one as stale, and a
/// guessed tenant list would have `tenant` truncate a real mapping log.
fn read_manifest(dir: &Path) -> io::Result<(u64, Vec<String>)> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {what}"));
    let j = Json::parse(&std::fs::read_to_string(manifest_path(dir))?)
        .map_err(|e| bad(format!("{e:?}")))?;
    if j.get("schema").and_then(Json::as_str) != Some(SHARED_SCHEMA) {
        return Err(bad("unknown schema".into()));
    }
    let generation = j
        .get("generation")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("generation is not a non-negative integer".into()))?;
    let names = j
        .get("tenants")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("no tenant list".into()))?
        .iter()
        .map(|t| t.as_str().map(str::to_string).ok_or_else(|| bad(format!("tenant {t:?}"))))
        .collect::<io::Result<_>>()?;
    Ok((generation, names))
}

/// Durably replace `MANIFEST.json`: write a temp file, sync it, rename it
/// over the manifest. The rename is the commit point — a crash on either
/// side leaves a complete manifest naming a complete generation.
pub(crate) fn commit_manifest(dir: &Path, json: &Json) -> io::Result<()> {
    let tmp = dir.join("MANIFEST.tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(json.dump().as_bytes())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, manifest_path(dir))
}

/// Remove generation-suffixed files in `dir` not belonging to `keep_gen`
/// (plus any stranded `MANIFEST.tmp`). Best-effort hygiene after GC and on
/// open; never touches files outside the store's naming scheme.
pub(crate) fn remove_stale_generations(dir: &Path, keep_gen: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let keep = format!(".g{keep_gen}.log");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name == "MANIFEST.tmp" || (is_generational(name) && !name.ends_with(&keep)) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

impl SharedStore {
    // `State` holds `Box<dyn CheckpointStore>` (the trait is not
    // `Send`-bounded), so the store stays on one thread; the `Arc` is what
    // lets its tenant handles share it.
    #[allow(clippy::arc_with_non_send_sync)]
    fn from_state(state: State) -> Self {
        SharedStore { state: Arc::new(Mutex::new(state)) }
    }

    /// Fresh in-memory shared store with the default chunking.
    pub fn in_memory() -> Self {
        Self::in_memory_with(ChunkConfig::default())
    }

    /// Fresh in-memory shared store with an explicit payload-log chunk
    /// configuration.
    pub fn in_memory_with(cfg: ChunkConfig) -> Self {
        Self::from_state(State::new(None, Box::new(MemoryStore::with_config(cfg)), 0))
    }

    /// Create a fresh file-backed store in `dir` (wiping any store files
    /// already there) at generation 0, with the default chunking.
    pub fn create(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::create_with(dir, ChunkConfig::default())
    }

    /// Create a fresh file-backed store with an explicit payload-log chunk
    /// configuration. GC compaction preserves the configuration when it
    /// rewrites a generation.
    pub fn create_with(dir: impl AsRef<Path>, cfg: ChunkConfig) -> io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        // Wipe every file of the store's naming scheme, any generation.
        for entry in std::fs::read_dir(dir)?.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if is_generational(name) || name == "MANIFEST.json" || name == "MANIFEST.tmp" {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let payloads = FileStore::create_with(payload_path(dir, 0), cfg, true)?;
        commit_manifest(dir, &manifest_json(0, &[]))?;
        Ok(Self::from_state(State::new(Some(dir.to_path_buf()), Box::new(payloads), 0)))
    }

    /// Open an existing file-backed store, recovering from whatever a crash
    /// left behind: the manifest names the committed generation; the
    /// payload and mapping logs recover their torn tails via
    /// [`FileStore::open`]; the dedup index and refcounts are rebuilt by
    /// scanning; files from uncommitted generations are swept away. Future
    /// payload writes use the default chunking.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(dir, ChunkConfig::default())
    }

    /// [`SharedStore::open`] with an explicit payload-log chunk
    /// configuration for future writes (GC compaction preserves it).
    pub fn open_with(dir: impl AsRef<Path>, cfg: ChunkConfig) -> io::Result<Self> {
        let dir = dir.as_ref();
        let (generation, names) = read_manifest(dir)?;
        remove_stale_generations(dir, generation);

        let path = payload_path(dir, generation);
        let payloads = if path.exists() {
            FileStore::open_with(&path, cfg, true)?
        } else {
            FileStore::create_with(&path, cfg, true)?
        };
        let mut st = State::new(Some(dir.to_path_buf()), Box::new(payloads), generation);
        (st.dedup, st.lens) =
            payload_index((0..st.payloads.blob_count()).map(|i| st.payloads.get(i).ok()));
        st.refs = vec![0; st.lens.len()];

        for name in names {
            let path = tenant_path(dir, &name, generation);
            let log = if path.exists() { FileStore::open(&path)? } else { FileStore::create(&path)? };
            let mut t = TenantState::default();
            for rec in 0..log.blob_count() {
                // A mapping may outrun its payload if the payload log lost
                // a tail the mapping log kept: degrade to a tombstone.
                let m = decode_mapping(&log.get(rec)?)
                    .filter(|&(idx, _)| (idx as usize) < st.refs.len());
                if let Some((idx, len)) = m {
                    st.refs[idx as usize] += 1;
                    t.payload_bytes += len;
                }
                t.blobs.push(m);
            }
            t.log = Some(log);
            st.tenants.insert(name, t);
        }
        Ok(Self::from_state(st))
    }

    /// The tenant view named `name`, registering it (durably, for a
    /// file-backed store) on first use. Tenant blob ids are dense and
    /// private to the view; see the module docs for the privacy contract.
    /// The view starts on the store's operator trace; a session moves it
    /// to its own with [`CheckpointStore::attach_trace`].
    pub fn tenant(&self, name: &str) -> io::Result<TenantHandle> {
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        if !st.tenants.contains_key(name) {
            let log = st
                .dir
                .as_ref()
                .map(|dir| FileStore::create(tenant_path(dir, name, st.generation)))
                .transpose()?;
            st.tenants.insert(name.to_string(), TenantState { log, ..TenantState::default() });
            if let Some(dir) = &st.dir {
                let names: Vec<&str> = st.tenants.keys().map(String::as_str).collect();
                commit_manifest(dir, &manifest_json(st.generation, &names))?;
            }
        }
        Ok(TenantHandle {
            state: Arc::clone(&self.state),
            name: name.to_string(),
            trace: st.trace.clone(),
        })
    }

    /// Current GC generation (0 until the first collection commits).
    pub fn generation(&self) -> u64 {
        lock(&self.state).generation
    }

    /// Registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        lock(&self.state).tenants.keys().cloned().collect()
    }

    /// True storage accounting of the payload log — what the shared
    /// deployment actually costs, as opposed to the logical view each
    /// [`TenantHandle::stats`] reports.
    pub fn stats(&self) -> StoreStats {
        lock(&self.state).payloads.stats()
    }

    /// Chunk-level accounting of the payload log; `None` when it has no
    /// chunk layer. Like [`SharedStore::stats`], this is the operator's
    /// view — tenant handles never expose chunk counters (their
    /// [`CheckpointStore::chunk_stats`] stays `None`), because physical
    /// chunk sharing is exactly the cross-tenant signal the privacy
    /// contract forbids leaking.
    pub fn chunk_stats(&self) -> Option<crate::ChunkStats> {
        lock(&self.state).payloads.chunk_stats()
    }

    /// Sum of every tenant's logical payload bytes (what N private stores
    /// would have stored).
    pub fn logical_payload_bytes(&self) -> u64 {
        lock(&self.state).tenants.values().map(|t| t.payload_bytes).sum()
    }

    /// Store-wide dedup ratio: logical bytes over physical payload bytes
    /// (≥ 1.0; 1.0 means no cross- or intra-tenant redundancy was found).
    pub fn dedup_ratio(&self) -> f64 {
        let physical = self.stats().payload_bytes;
        if physical == 0 {
            return 1.0;
        }
        self.logical_payload_bytes() as f64 / physical as f64
    }

    /// Per-tenant operator traffic counters, keyed by tenant name. The
    /// operator-side complement of [`SharedStore::stats`]: dedup hits
    /// here count *physical* sharing (including cross-tenant), which no
    /// [`TenantHandle`] surface may reveal — reading these requires the
    /// store handle itself, below the id layer. In-memory accounting
    /// (resets on `open`).
    pub fn tenant_metrics(&self) -> BTreeMap<String, TenantOpStats> {
        lock(&self.state).tenants.iter().map(|(k, t)| (k.clone(), t.ops)).collect()
    }

    /// Attach the operator trace: GC phases and the payload log's own
    /// spans go to it, as do tenant views registered after this call until
    /// they attach their own. Purely observational, like every trace in
    /// this codebase.
    pub fn attach_trace(&self, trace: &Trace) {
        let mut st = lock(&self.state);
        st.trace = trace.clone();
        st.payloads.attach_trace(trace);
    }

    /// Crash-test hook for GC: the next collection may write at most
    /// `budget` bytes of new-generation files before "the machine dies" —
    /// the file in flight is truncated at the exact budget byte and the
    /// collection aborts with `ErrorKind::Interrupted`, leaving the
    /// committed generation untouched. File backend only. `None` disables.
    pub fn set_crash_after_bytes(&self, budget: Option<u64>) {
        lock(&self.state).crash_after = budget;
    }

    /// Sync the payload log and every mapping log to the durable medium.
    pub fn sync_all(&self) -> io::Result<()> {
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        st.payloads.sync()?;
        for log in st.tenants.values_mut().filter_map(|t| t.log.as_mut()) {
            log.sync()?;
        }
        Ok(())
    }

    /// Structural invariant check, for tests: every mapping points at a
    /// real payload of the recorded length; stored refcounts equal (strict)
    /// or dominate (non-strict, for runs where injected faults may have
    /// leaked a count in the safe direction) the references actually
    /// reachable from tenant mappings; dedup entries are in range. Returns
    /// a description of the first violation.
    pub fn check_invariants(&self, strict: bool) -> Result<(), String> {
        let st = lock(&self.state);
        let n = st.refs.len();
        if n as u64 != st.payloads.blob_count() || st.lens.len() != n {
            return Err(format!(
                "{n} refcounts and {} lengths for {} payloads",
                st.lens.len(),
                st.payloads.blob_count()
            ));
        }
        let mut reachable = vec![0u64; n];
        for (name, t) in &st.tenants {
            for (id, m) in t.blobs.iter().enumerate() {
                let Some((idx, len)) = *m else { continue };
                let idx = idx as usize;
                if idx >= n {
                    return Err(format!("{name}/{id}: idx {idx} out of range"));
                }
                reachable[idx] += 1;
                if st.lens[idx] != len {
                    return Err(format!(
                        "{name}/{id}: recorded len {len} != stored len {}",
                        st.lens[idx]
                    ));
                }
            }
        }
        for (idx, (&stored, &actual)) in st.refs.iter().zip(&reachable).enumerate() {
            if strict && stored != actual {
                return Err(format!("blob {idx}: refcount {stored} != {actual}"));
            }
            if stored < actual {
                return Err(format!(
                    "blob {idx}: refcount {stored} below live references {actual}"
                ));
            }
        }
        if let Some(key) = st.dedup.iter().find(|(_, &idx)| idx as usize >= n).map(|(k, _)| k) {
            return Err(format!("dedup entry {key:?} out of range"));
        }
        Ok(())
    }
}

/// One tenant's [`CheckpointStore`] view over a [`SharedStore`]. Dense
/// private blob ids; observationally identical to a private store.
#[derive(Clone)]
pub struct TenantHandle {
    state: Arc<Mutex<State>>,
    name: String,
    trace: Trace,
}

impl TenantHandle {
    /// The tenant name this view is registered under.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for TenantHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantHandle").field("name", &self.name).finish()
    }
}

impl CheckpointStore for TenantHandle {
    fn put(&mut self, bytes: &[u8]) -> io::Result<BlobId> {
        let key = content_key(bytes);
        let len = bytes.len() as u64;
        let mut sp = self.trace.span("shared.put");
        sp.arg("bytes", bytes.len());
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        let (idx, fresh) = match st.dedup.get(&key) {
            Some(&idx) => (idx, false),
            None => {
                let idx = st.payloads.put(bytes)? as u32;
                st.dedup.insert(key, idx);
                st.refs.push(0);
                st.lens.push(len);
                debug_assert_eq!(st.refs.len() - 1, idx as usize);
                (idx, true)
            }
        };
        sp.arg("dedup_hit", !fresh);
        let t = st.tenant(&self.name);
        if let Some(log) = &mut t.log {
            // On failure the mapping never existed: the tenant id is not
            // allocated and the reference is not taken (a fresh payload
            // stays at refcount 0 — dead weight the next GC reclaims,
            // never a correctness issue).
            log.put(&encode_mapping(Some((idx, len))))?;
        }
        t.blobs.push(Some((idx, len)));
        t.payload_bytes += len;
        t.ops.puts += 1;
        t.ops.put_bytes += len;
        t.ops.dedup_hits += u64::from(!fresh);
        let id = (t.blobs.len() - 1) as BlobId;
        st.refs[idx as usize] += 1;
        Ok(id)
    }

    fn get(&self, id: BlobId) -> io::Result<Vec<u8>> {
        // Error shape matches MemoryStore so a tenant cannot tell the
        // difference between its view and a private store.
        let not_found = || io::Error::new(io::ErrorKind::NotFound, format!("no blob {id}"));
        let mut st = lock(&self.state);
        let t = st.tenant(&self.name);
        // Counted before the lookup resolves: operator traffic accounting
        // includes misses.
        t.ops.gets += 1;
        let (idx, _) = t.blobs.get(id as usize).copied().flatten().ok_or_else(not_found)?;
        let mut sp = self.trace.span("shared.get");
        sp.arg("blob", id);
        st.payloads.get(idx as u64)
    }

    fn blob_count(&self) -> u64 {
        lock(&self.state).tenant(&self.name).blobs.len() as u64
    }

    fn stats(&self) -> StoreStats {
        // Logical accounting, mirroring MemoryStore: a tenant must not be
        // able to observe its neighbors (or the dedup they induce) through
        // sizes. True physical usage lives on SharedStore::stats.
        let mut st = lock(&self.state);
        let t = st.tenant(&self.name);
        StoreStats {
            blobs: t.blobs.len() as u64,
            payload_bytes: t.payload_bytes,
            physical_bytes: t.payload_bytes,
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let _sp = self.trace.span("shared.sync");
        let mut st = lock(&self.state);
        st.payloads.sync()?;
        let t = st.tenant(&self.name);
        t.ops.syncs += 1;
        if let Some(log) = &mut t.log {
            log.sync()?;
        }
        Ok(())
    }

    fn flush_barrier(&mut self) -> io::Result<()> {
        // Group-commit barrier: drain the payload log's pending buffer and
        // the tenant's mapping log so a reopened store sees everything put
        // so far. No fault draw and no per-put work — purely an ordering
        // point, matching the trait contract.
        let mut st = lock(&self.state);
        st.payloads.flush_barrier()?;
        if let Some(log) = &mut st.tenant(&self.name).log {
            log.flush_barrier()?;
        }
        Ok(())
    }

    // Note: `put_with_receipt` and `chunk_stats` deliberately keep their
    // opaque trait defaults. A truthful receipt ("your put deduped against
    // an existing chunk") or chunk counters would tell a tenant what its
    // neighbors have stored — the exact side channel the observational-
    // privacy contract closes. Physical truth is an operator view:
    // [`SharedStore::stats`] / [`SharedStore::chunk_stats`].

    fn attach_trace(&mut self, trace: &Trace) {
        self.trace = trace.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kishu-shared-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn live(sets: &[(&str, &[u64])]) -> BTreeMap<String, BTreeSet<BlobId>> {
        sets.iter().map(|(n, ids)| (n.to_string(), ids.iter().copied().collect())).collect()
    }

    /// Every file in `dir`, by name.
    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .expect("read dir")
            .flatten()
            .map(|e| {
                let bytes = std::fs::read(e.path()).expect("read");
                (e.file_name().to_string_lossy().into_owned(), bytes)
            })
            .collect()
    }

    #[test]
    fn tenant_ids_are_dense_and_private() {
        let store = SharedStore::in_memory();
        let mut a = store.tenant("alice").expect("tenant");
        let mut b = store.tenant("bob").expect("tenant");
        assert_eq!(a.put(b"shared bytes").expect("put"), 0);
        assert_eq!(b.put(b"shared bytes").expect("put"), 0, "b's ids start at 0 too");
        assert_eq!(a.put(b"alice only").expect("put"), 1);
        assert_eq!(a.get(0).expect("get"), b"shared bytes");
        assert_eq!(b.get(0).expect("get"), b"shared bytes");
        assert_eq!(a.get(1).expect("get"), b"alice only");
        let err = b.get(1).expect_err("b has one blob");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert_eq!(format!("{err}"), "no blob 1", "error shape matches MemoryStore");
    }

    #[test]
    fn tenant_metrics_count_traffic_below_the_id_layer() {
        let store = SharedStore::in_memory();
        let mut a = store.tenant("alice").expect("tenant");
        let mut b = store.tenant("bob").expect("tenant");
        a.put(b"shared payload").expect("put");
        b.put(b"shared payload").expect("put"); // cross-tenant dedup hit
        b.put(b"bob only").expect("put");
        let _ = a.get(0).expect("get");
        let _ = b.get(99).expect_err("miss still counted");
        b.sync().expect("sync");
        let m = store.tenant_metrics();
        let alice = m["alice"];
        let bob = m["bob"];
        assert_eq!((alice.puts, alice.dedup_hits, alice.gets), (1, 0, 1));
        assert_eq!((bob.puts, bob.dedup_hits, bob.gets, bob.syncs), (2, 1, 1, 1));
        assert_eq!(alice.put_bytes, b"shared payload".len() as u64);
        // The privacy boundary: bob's *own* surface never reveals the
        // dedup hit the operator view just counted.
        assert_eq!(b.stats().payload_bytes, (b"shared payload".len() + b"bob only".len()) as u64);
        assert_eq!(b.chunk_stats(), None);
    }

    #[test]
    fn cross_tenant_dedup_stores_identical_bytes_once() {
        let store = SharedStore::in_memory();
        let mut a = store.tenant("alice").expect("tenant");
        let mut b = store.tenant("bob").expect("tenant");
        let payload = vec![42u8; 10_000];
        a.put(&payload).expect("put");
        b.put(&payload).expect("put");
        b.put(&payload).expect("repeat within tenant");
        let physical = store.stats();
        assert_eq!(physical.blobs, 1, "one physical copy");
        assert_eq!(physical.payload_bytes, 10_000);
        assert_eq!(store.logical_payload_bytes(), 30_000);
        assert!((store.dedup_ratio() - 3.0).abs() < 1e-9);
        // Logical views are oblivious.
        assert_eq!(a.stats().payload_bytes, 10_000);
        assert_eq!(b.stats().payload_bytes, 20_000);
        assert_eq!(b.stats().physical_bytes, 20_000);
        store.check_invariants(true).expect("invariants");
    }

    #[test]
    fn file_backed_store_reopens_with_views_intact() {
        let dir = temp_dir("reopen");
        {
            let store = SharedStore::create(&dir).expect("create");
            let mut a = store.tenant("alice").expect("tenant");
            let mut b = store.tenant("bob").expect("tenant");
            a.put(b"common").expect("put");
            a.put(b"alice's own").expect("put");
            b.put(b"common").expect("put");
            store.sync_all().expect("sync");
        }
        let store = SharedStore::open(&dir).expect("open");
        assert_eq!(store.tenant_names(), vec!["alice".to_string(), "bob".to_string()]);
        let a = store.tenant("alice").expect("tenant");
        let b = store.tenant("bob").expect("tenant");
        assert_eq!(a.blob_count(), 2);
        assert_eq!(a.get(0).expect("get"), b"common");
        assert_eq!(a.get(1).expect("get"), b"alice's own");
        assert_eq!(b.blob_count(), 1);
        assert_eq!(b.get(0).expect("get"), b"common");
        assert_eq!(store.stats().blobs, 2, "dedup survives reopen");
        store.check_invariants(true).expect("invariants after reopen");
        // Dedup index was rebuilt: a repeat write still dedups.
        let mut b = b;
        b.put(b"common").expect("put");
        assert_eq!(store.stats().blobs, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_mapping_tail_degrades_to_missing_blob() {
        let dir = temp_dir("torn-map");
        let tenant_log = {
            let store = SharedStore::create(&dir).expect("create");
            let mut a = store.tenant("alice").expect("tenant");
            a.put(b"first").expect("put");
            a.put(b"second").expect("put");
            store.sync_all().expect("sync");
            tenant_path(&dir, "alice", 0)
        };
        // Tear the tail of the mapping log mid-record.
        let len = std::fs::metadata(&tenant_log).expect("meta").len();
        let f = std::fs::OpenOptions::new().write(true).open(&tenant_log).expect("open");
        f.set_len(len - 5).expect("truncate");
        drop(f);
        let store = SharedStore::open(&dir).expect("recover");
        let a = store.tenant("alice").expect("tenant");
        assert_eq!(a.blob_count(), 1, "torn mapping record truncated away");
        assert_eq!(a.get(0).expect("get"), b"first");
        store.check_invariants(true).expect("invariants");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A manifest `open` cannot read in full must fail closed: a guessed
    /// generation would sweep the real one away as stale, and a guessed
    /// tenant list would let `tenant` truncate a real mapping log.
    #[test]
    fn damaged_manifests_fail_closed_and_touch_no_file() {
        let dir = temp_dir("damaged");
        {
            let store = SharedStore::create(&dir).expect("create");
            let mut a = store.tenant("ana").expect("tenant");
            a.put(b"one").expect("put");
            a.put(b"two").expect("put");
            store.collect(&live(&[("ana", &[1])])).expect("gc");
            a.put(b"three").expect("put");
            store.sync_all().expect("sync");
        }
        let good = std::fs::read(manifest_path(&dir)).expect("manifest");
        for (what, manifest) in [
            ("no generation", r#"{"schema":"kishu-shared-v2","tenants":["ana"]}"#),
            ("string generation", r#"{"schema":"kishu-shared-v2","generation":"1","tenants":["ana"]}"#),
            ("negative generation", r#"{"schema":"kishu-shared-v2","generation":-1,"tenants":["ana"]}"#),
            ("non-string tenant", r#"{"schema":"kishu-shared-v2","generation":1,"tenants":[7]}"#),
            ("no tenant list", r#"{"schema":"kishu-shared-v2","generation":1}"#),
            ("v1 schema", r#"{"schema":"kishu-shared-v1","generation":1,"tenants":["ana"]}"#),
        ] {
            std::fs::write(manifest_path(&dir), manifest).expect("damage manifest");
            let before = files(&dir);
            let err = SharedStore::open(&dir).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(files(&dir) == before, "{what}: open touched a file");
        }
        std::fs::write(manifest_path(&dir), good).expect("restore manifest");
        let store = SharedStore::open(&dir).expect("intact store opens");
        let a = store.tenant("ana").expect("tenant");
        assert_eq!(a.get(1).expect("get"), b"two");
        assert_eq!(a.get(2).expect("get"), b"three");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The v2 on-disk layout, pinned: a change to any of these bytes is a
    /// format change and must be deliberate.
    #[test]
    fn golden_bytes_pin_the_v2_layout() {
        const TENANT_ANA_G1: &str = "tenant-8a7be289dd941a38.g1.log";
        const TENANT_BEN_G1: &str = "tenant-8efe69e808b3da5d.g1.log";
        let dir = temp_dir("golden");
        let store = SharedStore::create(&dir).expect("create");
        let mut ana = store.tenant("ana").expect("tenant");
        let mut ben = store.tenant("ben").expect("tenant");
        ana.put(b"dropped").expect("put");
        ana.put(b"shared").expect("put");
        ben.put(b"shared").expect("put");
        ben.put(b"ben's own").expect("put");
        store.collect(&live(&[("ana", &[1]), ("ben", &[0, 1])])).expect("gc");
        assert_eq!(
            std::fs::read_to_string(manifest_path(&dir)).expect("manifest"),
            r#"{"schema":"kishu-shared-v2","generation":1,"tenants":["ana","ben"]}"#
        );
        let names: Vec<String> = files(&dir).into_keys().collect();
        assert_eq!(names, ["MANIFEST.json", "payload.g1.log", TENANT_ANA_G1, TENANT_BEN_G1]);
        // ana's blob 0 was reclaimed (a tombstone); its blob 1 and ben's
        // blob 0 share payload 0, and ben's blob 1 is payload 1.
        let ana_log = FileStore::open(dir.join(TENANT_ANA_G1)).expect("ana log");
        assert_eq!(ana_log.get(0).expect("tombstone"), [0]);
        assert_eq!(ana_log.get(1).expect("mapping"), [1, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0]);
        let ben_log = FileStore::open(dir.join(TENANT_BEN_G1)).expect("ben log");
        assert_eq!(ben_log.get(1).expect("mapping"), [1, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_chunk_stats_aggregate_cross_tenant_chunk_dedup() {
        let store = SharedStore::in_memory();
        let mut a = store.tenant("alice").expect("tenant");
        let mut b = store.tenant("bob").expect("tenant");
        let big: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8 ^ (i / 997) as u8).collect();
        a.put(&big).expect("put");
        // Bob writes a small mutation of Alice's payload: different content
        // key (so blob-level dedup misses) but nearly all chunks shared.
        let mut edited = big.clone();
        edited[75_000] ^= 0x5A;
        b.put(&edited).expect("put");
        // Tenant views stay opaque — chunk counters would leak neighbors.
        assert_eq!(a.chunk_stats(), None);
        assert_eq!(b.chunk_stats(), None);
        let cs = store.chunk_stats().expect("pinned config chunks");
        assert!(cs.chunk_refs > cs.chunks, "cross-tenant chunk dedup fired: {cs:?}");
        assert!(
            store.stats().physical_bytes < (big.len() + edited.len()) as u64 / 2,
            "two near-identical blobs must cost well under their logical sum"
        );
        store.check_invariants(true).expect("invariants");
    }

    #[test]
    fn tenant_flush_barrier_makes_puts_reopenable() {
        let dir = temp_dir("barrier");
        {
            let store = SharedStore::create(&dir).expect("create");
            let mut a = store.tenant("alice").expect("tenant");
            a.put(b"barrier me").expect("put");
            a.flush_barrier().expect("barrier");
            // No sync_all: the barrier alone must order the bytes into the
            // logs (durability modulo the OS, which tests can't force here).
        }
        let store = SharedStore::open(&dir).expect("open");
        let a = store.tenant("alice").expect("tenant");
        assert_eq!(a.blob_count(), 1);
        assert_eq!(a.get(0).expect("get"), b"barrier me");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapping_records_roundtrip() {
        let m = Some((0x0102_0304, 0x1122_3344_5566_7788));
        assert_eq!(decode_mapping(&encode_mapping(m)), m);
        assert_eq!(encode_mapping(None), vec![0]);
        assert_eq!(decode_mapping(&[0]), None);
        assert_eq!(decode_mapping(b"garbage!!"), None);
        assert_eq!(decode_mapping(&encode_mapping(m)[..12]), None, "short record");
    }
}
