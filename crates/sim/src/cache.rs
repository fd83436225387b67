//! A content-addressed result cache for deterministic simulations.
//!
//! The executor ([`crate::exec`]) makes every sweep unit a pure function
//! of its configuration and derived seed: identical `(config, seed)` is
//! provably the identical result, so memoizing a unit's serialized
//! report is *sound* — the cache can never change what an experiment
//! would have computed, only how fast it answers (DESIGN.md §2c).
//!
//! The key is a [`CacheKey`]: the SHA-256 of the unit's **canonical**
//! JSON encoding — object keys recursively sorted, compact form — with
//! the producing schema version mixed in. Canonicalization makes the
//! hash independent of field declaration order; the schema version makes
//! every format bump an automatic whole-cache miss (stale entries are
//! simply never addressed again, no migration or flush needed).
//!
//! A [`Cache`] layers three stores:
//!
//! 1. an in-memory map (LRU-bounded) for hits within one process, which
//!    is also what coalesces *cross-figure* duplicates in a full regen;
//! 2. an on-disk store of append-only segment logs (below) for warm
//!    re-runs;
//! 3. an in-flight set with condvar hand-off, so concurrent requests for
//!    the same key run the computation once and share the result.
//!
//! # The disk store
//!
//! The store is one flat directory of segment files named
//! `<stamp>-<pid>.seg`: `<stamp>` is the creation time in nanoseconds
//! as 16 hex digits, strictly increasing within a process, so names
//! sort oldest first. Each `Cache` appends only to segments it created
//! itself (`create_new`, i.e. `O_EXCL`), and rolls to a new one every
//! `SEGMENT_RECORDS` records. A record is written with one
//! `write_all`: a 64-byte header, then the value's compact JSON.
//!
//! | bytes    | field                                              |
//! |----------|----------------------------------------------------|
//! | `0..8`   | magic `BZCACHE1` (the record format version)       |
//! | `8..40`  | the key                                            |
//! | `40..48` | `compute_ms`, little-endian `f64` bits             |
//! | `48..56` | payload length, little-endian `u64`                |
//! | `56..64` | `checksum` of bytes `8..56` and the payload        |
//!
//! A cache's first disk access indexes the store: it reads every
//! segment's headers, oldest segment first, skipping the payloads, and a
//! later record of a key replaces an earlier one. A segment's scan stops
//! at its first bad header or at a record running past the end of the
//! file. Such a torn tail can only come from a crashed writer, because a
//! segment has one writer; the scan never truncates or rewrites a file
//! another process may still be appending to. A disk hit reads one
//! record at its indexed offset and checks its key, length and checksum
//! before parsing the payload. Any mismatch, and any corrupted or
//! truncated record, is a logged miss — never an error, never a wrong
//! result: the unit is recomputed and its replacement appended to this
//! cache's own segment, which sorts after every segment the index was
//! built from, so it wins when the store is reopened. Other files and
//! directories in the store are ignored.
//!
//! Past `DISK_CAPACITY` records the oldest whole segments are
//! unlinked while the rest still hold at least the capacity. A process
//! sees the records written before its first disk access; records other
//! processes write later are not in its index, so their units are
//! recomputed rather than read.

use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::json::Json;

/// In-memory entries kept before least-recently-used eviction.
const MEM_CAPACITY: usize = 4096;
/// On-disk records kept before the oldest segments are pruned.
const DISK_CAPACITY: usize = 16384;
/// Records a segment takes before its writer rolls to a new one; also
/// the granularity of pruning.
const SEGMENT_RECORDS: usize = 256;
/// Record magic; the trailing digit is the record format version.
const MAGIC: [u8; 8] = *b"BZCACHE1";
/// Bytes in a record header.
const HEADER_LEN: usize = 64;
/// File extension of a segment.
const SEGMENT_EXT: &str = "seg";

/// A 256-bit content address: the SHA-256 of a unit's canonical JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// The raw digest bytes.
    pub fn bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The 64-character lowercase hex form.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            let _ = fmt::Write::write_fmt(&mut s, format_args!("{b:02x}"));
        }
        s
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Serializes `v` canonically: object keys recursively sorted
/// (byte-wise), compact printing. Two structurally-equal values whose
/// fields were built in different orders canonicalize to the same bytes.
pub fn canonical(v: &Json) -> String {
    let mut out = String::new();
    v.write_canonical(&mut out);
    out
}

/// The content address of `unit` under cache-schema version `schema`.
///
/// The schema version is hashed *into* the key (as a prefix line), so a
/// bump re-addresses the entire store: entries written by an older
/// schema can never be returned, without any migration logic.
pub fn key_of(unit: &Json, schema: u32) -> CacheKey {
    let mut h = Sha256::new();
    h.update(format!("blitzcoin-cache-v{schema}\n").as_bytes());
    h.update(canonical(unit).as_bytes());
    CacheKey(h.finish())
}

/// How a [`Cache`] answers lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Serve hits from memory and disk; store misses. The default.
    #[default]
    On,
    /// Bypass entirely: every fetch computes, nothing is stored or read.
    Off,
    /// Recompute every key once this process (ignoring prior disk
    /// entries) and overwrite the store; repeats within the process hit
    /// the freshly recomputed value.
    Refresh,
}

impl CacheMode {
    /// Parses `on`/`off`/`refresh` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "on" => Some(CacheMode::On),
            "off" => Some(CacheMode::Off),
            "refresh" => Some(CacheMode::Refresh),
            _ => None,
        }
    }

    /// The mode named by the `BLITZCOIN_CACHE` environment variable, if
    /// set and valid.
    pub fn from_env() -> Option<CacheMode> {
        std::env::var("BLITZCOIN_CACHE")
            .ok()
            .and_then(|v| CacheMode::parse(&v))
    }
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheMode::On => "on",
            CacheMode::Off => "off",
            CacheMode::Refresh => "refresh",
        })
    }
}

/// A snapshot of a cache's hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that had to compute (includes mode `Off` bypasses).
    pub misses: u64,
    /// Total original compute time the hits avoided, in milliseconds.
    pub saved_ms: f64,
}

impl CacheStats {
    /// `self - earlier`, for per-experiment deltas around a run.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            saved_ms: self.saved_ms - earlier.saved_ms,
        }
    }
}

/// One memoized value with its bookkeeping.
#[derive(Debug, Clone)]
struct Slot {
    value: Arc<Json>,
    /// Wall time the original computation took (ms); what a hit "saves".
    compute_ms: f64,
    /// LRU clock at last touch.
    tick: u64,
}

#[derive(Debug, Default)]
struct State {
    map: HashMap<CacheKey, Slot>,
    /// Keys currently being computed by some thread.
    inflight: std::collections::HashSet<CacheKey>,
    /// Monotonic LRU clock.
    tick: u64,
}

/// The answer to [`Cache::fetch`].
#[derive(Debug)]
pub enum Fetch<'a> {
    /// The value is memoized; `.1` is the original compute time (ms).
    /// The value is shared, not cloned — a hit on a megabyte-scale
    /// report costs an `Arc` bump, not a deep tree copy.
    Hit(Arc<Json>, f64),
    /// The caller owns the computation: run it, then call
    /// [`ComputeGuard::complete`]. Dropping the guard without completing
    /// releases the key so another thread can claim it.
    Miss(ComputeGuard<'a>),
    /// Mode is [`CacheMode::Off`]: compute, nothing is stored.
    Bypass,
}

/// Ownership of an in-flight computation for one key (see [`Fetch::Miss`]).
#[derive(Debug)]
pub struct ComputeGuard<'a> {
    cache: &'a Cache,
    key: CacheKey,
    done: bool,
}

impl ComputeGuard<'_> {
    /// Publishes the computed value (memory + disk) and wakes every
    /// thread waiting on this key.
    pub fn complete(self, value: Json, compute_ms: f64) {
        self.complete_shared(Arc::new(value), compute_ms);
    }

    /// [`ComputeGuard::complete`] for a value the caller also keeps a
    /// reference to (avoids re-encoding or cloning it).
    pub fn complete_shared(mut self, value: Arc<Json>, compute_ms: f64) {
        self.done = true;
        self.cache.insert(self.key, value, compute_ms);
    }
}

impl Drop for ComputeGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            // Owner bailed (panic unwound into the guard, or the caller
            // gave up): release the claim and wake the waiters so one of
            // them can take over instead of deadlocking.
            let mut st = self.cache.state.lock().expect("cache poisoned");
            st.inflight.remove(&self.key);
            drop(st);
            self.cache.resolved.notify_all();
        }
    }
}

/// A content-addressed result store: in-memory LRU over an optional
/// on-disk directory, with in-flight coalescing. See the module docs.
#[derive(Debug)]
pub struct Cache {
    mode: CacheMode,
    store: Option<Mutex<Store>>,
    state: Mutex<State>,
    resolved: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Saved compute time accumulated in microseconds (atomics hold
    /// integers; µs granularity keeps the sum exact enough).
    saved_us: AtomicU64,
}

impl Cache {
    /// A cache in `mode`, persisting under `dir` when given (`None` is
    /// memory-only — still coalesces and serves in-process hits).
    pub fn new(dir: Option<PathBuf>, mode: CacheMode) -> Self {
        Cache {
            mode,
            store: dir.map(|dir| Mutex::new(Store::new(dir))),
            state: Mutex::new(State::default()),
            resolved: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            saved_us: AtomicU64::new(0),
        }
    }

    /// A memory-only cache with mode [`CacheMode::On`].
    pub fn in_memory() -> Self {
        Cache::new(None, CacheMode::On)
    }

    /// The cache's mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            saved_ms: self.saved_us.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }

    /// Looks up `key`, claiming the computation on a miss.
    ///
    /// Exactly one caller receives [`Fetch::Miss`] per unresolved key;
    /// concurrent callers for the same key block until the owner
    /// completes (then get a [`Fetch::Hit`]) or gives up (then one of
    /// them inherits the miss). Mode `Off` always returns
    /// [`Fetch::Bypass`]; mode `Refresh` ignores prior disk entries.
    pub fn fetch(&self, key: CacheKey) -> Fetch<'_> {
        if self.mode == CacheMode::Off {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Fetch::Bypass;
        }
        let mut st = self.state.lock().expect("cache poisoned");
        loop {
            if st.map.contains_key(&key) {
                st.tick += 1;
                let tick = st.tick;
                let slot = st.map.get_mut(&key).expect("slot vanished");
                slot.tick = tick;
                let (value, ms) = (slot.value.clone(), slot.compute_ms);
                drop(st);
                self.record_hit(ms);
                return Fetch::Hit(value, ms);
            }
            if !st.inflight.contains(&key) {
                // No memoized value and nobody computing: claim the key,
                // then try disk (On only) outside the lock — a
                // megabyte-scale parse must not stall every other
                // thread's lookups. Waiters block on the in-flight claim
                // exactly as they would for a computation.
                st.inflight.insert(key);
                drop(st);
                if self.mode == CacheMode::On {
                    if let Some((value, ms)) = self.load_disk(&key) {
                        let value = Arc::new(value);
                        self.publish(key, value.clone(), ms);
                        self.record_hit(ms);
                        return Fetch::Hit(value, ms);
                    }
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Fetch::Miss(ComputeGuard {
                    cache: self,
                    key,
                    done: false,
                });
            }
            st = self.resolved.wait(st).expect("cache poisoned");
        }
    }

    /// Convenience wrapper: fetch, computing with `f` (timed) on a miss.
    /// Returns the (shared) value and whether it was a hit.
    pub fn get_or_compute(&self, key: CacheKey, f: impl FnOnce() -> Json) -> (Arc<Json>, bool) {
        match self.fetch(key) {
            Fetch::Hit(v, _) => (v, true),
            Fetch::Miss(guard) => {
                let t0 = std::time::Instant::now();
                let v = Arc::new(f());
                guard.complete_shared(v.clone(), t0.elapsed().as_secs_f64() * 1e3);
                (v, false)
            }
            Fetch::Bypass => (Arc::new(f()), false),
        }
    }

    fn record_hit(&self, saved_ms: f64) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        let us = (saved_ms * 1e3).max(0.0) as u64;
        self.saved_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Appends a computed value to the disk store, then publishes it.
    fn insert(&self, key: CacheKey, value: Arc<Json>, compute_ms: f64) {
        if let Some(store) = &self.store {
            // Encode outside the lock; only the append is serialized.
            let record = encode_record(&key, compute_ms, value.to_string().as_bytes());
            store.lock().expect("cache poisoned").append(key, &record);
        }
        self.publish(key, value, compute_ms);
    }

    /// Puts a value into the memory map and releases its in-flight claim.
    fn publish(&self, key: CacheKey, value: Arc<Json>, compute_ms: f64) {
        let mut st = self.state.lock().expect("cache poisoned");
        st.tick += 1;
        let tick = st.tick;
        st.map.insert(
            key,
            Slot {
                value,
                compute_ms,
                tick,
            },
        );
        Self::evict_mem(&mut st);
        st.inflight.remove(&key);
        drop(st);
        self.resolved.notify_all();
    }

    /// Evicts least-recently-used slots beyond [`MEM_CAPACITY`].
    fn evict_mem(st: &mut State) {
        while st.map.len() > MEM_CAPACITY {
            if let Some((&victim, _)) = st.map.iter().min_by_key(|(_, s)| s.tick) {
                st.map.remove(&victim);
            } else {
                break;
            }
        }
    }

    /// Reads and checks the indexed record of `key`; any failure is a
    /// logged miss, whose recomputed value then replaces the record.
    fn load_disk(&self, key: &CacheKey) -> Option<(Json, f64)> {
        let store = self.store.as_ref()?;
        let (path, loc) = store.lock().expect("cache poisoned").locate(key)?;
        match read_record(&path, loc).and_then(|record| decode_record(&record, key)) {
            Ok(hit) => Some(hit),
            Err(why) => {
                eprintln!(
                    "blitzcoin-cache: discarding bad entry {} at byte {} ({why}); treating as a miss",
                    path.display(),
                    loc.offset
                );
                None
            }
        }
    }
}

/// Where the newest indexed record of a key lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    /// [`Segment::id`] of the segment holding it.
    seg: u32,
    /// Byte offset of the record's header.
    offset: u64,
    /// Header plus payload bytes.
    len: u64,
}

/// A segment file the index refers to.
#[derive(Debug)]
struct Segment {
    /// Ascends with the name, so with age.
    id: u32,
    path: PathBuf,
    /// Records in the file (superseded ones included).
    records: usize,
}

/// The segment a cache appends to.
#[derive(Debug)]
struct Writer {
    seg: u32,
    file: File,
    /// Bytes written so far: the next record's offset.
    len: u64,
}

/// The on-disk half of a [`Cache`]: the segment directory, its header
/// index, and this cache's own writer segment (see the module docs).
#[derive(Debug)]
struct Store {
    dir: PathBuf,
    /// Whether the first disk access has indexed the store yet.
    scanned: bool,
    index: HashMap<CacheKey, Loc>,
    /// Indexed segments, then the writer's, oldest first.
    segments: Vec<Segment>,
    next_id: u32,
    writer: Option<Writer>,
}

impl Store {
    fn new(dir: PathBuf) -> Store {
        Store {
            dir,
            scanned: false,
            index: HashMap::new(),
            segments: Vec::new(),
            next_id: 0,
            writer: None,
        }
    }

    /// Indexes the store on first use: every segment's headers, oldest
    /// segment first, so a later record of a key replaces an earlier one.
    fn scan_once(&mut self) {
        if self.scanned {
            return;
        }
        self.scanned = true;
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|entry| entry.path())
            .filter(|path| is_segment_name(path))
            .collect();
        paths.sort();
        for path in paths {
            self.scan_segment(path);
        }
    }

    /// Indexes one segment's records up to its first bad header or torn
    /// record. Only headers are read: a payload is skipped by seeking
    /// past it, so no more than one read buffer is ever held.
    fn scan_segment(&mut self, path: PathBuf) {
        let Ok(file) = File::open(&path) else {
            return;
        };
        let Ok(end) = file.metadata().map(|m| m.len()) else {
            return;
        };
        let mut reader = BufReader::new(file);
        let id = self.next_id;
        let (mut offset, mut records) = (0u64, 0usize);
        let mut head = [0u8; HEADER_LEN];
        while end - offset >= HEADER_LEN as u64 && reader.read_exact(&mut head).is_ok() {
            let Some(header) = Header::parse(&head) else {
                break;
            };
            if header.len > end - offset - HEADER_LEN as u64
                || reader.seek_relative(header.len as i64).is_err()
            {
                break;
            }
            let len = HEADER_LEN as u64 + header.len;
            self.index.insert(
                header.key,
                Loc {
                    seg: id,
                    offset,
                    len,
                },
            );
            offset += len;
            records += 1;
        }
        if records > 0 {
            self.next_id += 1;
            self.segments.push(Segment { id, path, records });
        }
    }

    /// The segment path and location of `key`'s newest indexed record.
    fn locate(&mut self, key: &CacheKey) -> Option<(PathBuf, Loc)> {
        self.scan_once();
        let loc = *self.index.get(key)?;
        let at = self
            .segments
            .binary_search_by_key(&loc.seg, |s| s.id)
            .expect("indexed segment is known");
        Some((self.segments[at].path.clone(), loc))
    }

    /// Records across the known segments, superseded ones included.
    fn records(&self) -> usize {
        self.segments.iter().map(|s| s.records).sum()
    }

    /// Appends one encoded record for `key` to this cache's segment,
    /// rolling to a new segment when it is full, then prunes. A store
    /// that cannot be written degrades to memory-only.
    fn append(&mut self, key: CacheKey, record: &[u8]) {
        self.scan_once();
        let full = self
            .segments
            .last()
            .is_some_and(|s| s.records >= SEGMENT_RECORDS);
        if self.writer.is_none() || full {
            self.writer = self.create_segment();
        }
        let Some(w) = self.writer.as_mut() else {
            return;
        };
        if w.file.write_all(record).is_err() {
            // A partial write leaves a torn tail that hides every later
            // record of the segment from a scan: start a new one.
            self.writer = None;
            return;
        }
        let loc = Loc {
            seg: w.seg,
            offset: w.len,
            len: record.len() as u64,
        };
        w.len += loc.len;
        self.segments
            .last_mut()
            .expect("the writer's segment is the newest")
            .records += 1;
        self.index.insert(key, loc);
        self.prune(DISK_CAPACITY);
    }

    /// Creates a new segment for this cache to append to.
    fn create_segment(&mut self) -> Option<Writer> {
        std::fs::create_dir_all(&self.dir).ok()?;
        let name = format!(
            "{:016x}-{:08x}.{SEGMENT_EXT}",
            next_stamp(),
            std::process::id()
        );
        let path = self.dir.join(name);
        let file = File::options()
            .write(true)
            .create_new(true)
            .open(&path)
            .ok()?;
        let id = self.next_id;
        self.next_id += 1;
        self.segments.push(Segment {
            id,
            path,
            records: 0,
        });
        Some(Writer {
            seg: id,
            file,
            len: 0,
        })
    }

    /// Unlinks whole segments, oldest first, while the rest still hold
    /// at least `capacity` records. The segment this cache appends to is
    /// never removed. Best-effort: a segment that cannot be removed stops
    /// the pass, and one another process already removed counts as gone.
    fn prune(&mut self, capacity: usize) {
        self.scan_once();
        let writing = self.writer.as_ref().map(|w| w.seg);
        let mut left = self.records();
        let mut gone = 0;
        while let Some(oldest) = self.segments.get(gone) {
            if Some(oldest.id) == writing || left - oldest.records < capacity {
                break;
            }
            match std::fs::remove_file(&oldest.path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => break,
            }
            left -= oldest.records;
            gone += 1;
        }
        if gone > 0 {
            self.segments.drain(..gone);
            let first = self.segments.first().map_or(self.next_id, |s| s.id);
            self.index.retain(|_, loc| loc.seg >= first);
        }
    }
}

/// Whether `path` names a segment: `<16 hex>-<8 hex>.seg`.
fn is_segment_name(path: &Path) -> bool {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let Some(stem) = name
        .strip_suffix(SEGMENT_EXT)
        .and_then(|s| s.strip_suffix('.'))
    else {
        return false;
    };
    let hex = |s: &str| s.bytes().all(|b| b.is_ascii_hexdigit());
    matches!(stem.split_once('-'), Some((stamp, pid))
        if stamp.len() == 16 && pid.len() == 8 && hex(stamp) && hex(pid))
}

/// A segment's creation stamp: nanoseconds since the Unix epoch, made
/// strictly increasing within the process so that two segments it
/// creates never share a name and always sort in creation order.
fn next_stamp() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let prev = LAST
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| {
            Some(now.max(last + 1))
        })
        .expect("the update always succeeds");
    now.max(prev + 1)
}

/// A record header (see the module docs for the layout).
struct Header {
    key: CacheKey,
    compute_ms: f64,
    /// Payload bytes.
    len: u64,
    checksum: u64,
}

impl Header {
    /// `None` unless the header starts with [`MAGIC`].
    fn parse(b: &[u8; HEADER_LEN]) -> Option<Header> {
        let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        (b[..8] == MAGIC).then(|| Header {
            key: CacheKey(b[8..40].try_into().expect("32 bytes")),
            compute_ms: f64::from_bits(word(40)),
            len: word(48),
            checksum: word(56),
        })
    }
}

/// One record, header then payload, ready for a single `write_all`.
fn encode_record(key: &CacheKey, compute_ms: f64, payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(HEADER_LEN + payload.len());
    record.extend_from_slice(&MAGIC);
    record.extend_from_slice(&key.0);
    record.extend_from_slice(&compute_ms.to_bits().to_le_bytes());
    record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = checksum(&record[8..], payload);
    record.extend_from_slice(&sum.to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// Reads the `loc.len` bytes of a record at `loc.offset` of `path`.
fn read_record(path: &Path, loc: Loc) -> Result<Vec<u8>, String> {
    let mut file = File::open(path).map_err(|e| e.to_string())?;
    file.seek(SeekFrom::Start(loc.offset))
        .map_err(|e| e.to_string())?;
    let len = usize::try_from(loc.len).map_err(|e| e.to_string())?;
    let mut record = vec![0; len];
    file.read_exact(&mut record).map_err(|e| e.to_string())?;
    Ok(record)
}

/// Checks a record read back for `key` and parses its payload, returning
/// the value and its `compute_ms`.
fn decode_record(record: &[u8], key: &CacheKey) -> Result<(Json, f64), String> {
    let (head, payload) = record.split_at(HEADER_LEN);
    let header = Header::parse(head.try_into().expect("header length")).ok_or("bad magic")?;
    if header.key != *key {
        return Err(format!("key mismatch (`{}`)", header.key));
    }
    if header.len != payload.len() as u64 {
        return Err("length mismatch".to_string());
    }
    if checksum(&head[8..56], payload) != header.checksum {
        return Err("checksum mismatch".to_string());
    }
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let value = Json::parse(text).map_err(|e| e.to_string())?;
    Ok((value, header.compute_ms))
}

/// The record checksum over the header fields (`fields`, a whole number
/// of 8-byte words) and the payload: a multiply-rotate hash of 8-byte
/// little-endian words, the last one zero-padded, seeded with the length
/// and finished with MurmurHash3's 64-bit mixer. Every step is a
/// bijection of the running state for a fixed word and of the word for a
/// fixed state, so a record that differs from the written one in a
/// single word always fails the check.
fn checksum(fields: &[u8], payload: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    debug_assert_eq!(fields.len() % 8, 0);
    let mut h = (fields.len() + payload.len()) as u64 ^ K;
    let mut step = |word: &[u8]| {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(K).rotate_left(29);
    };
    fields
        .chunks(8)
        .chain(payload.chunks(8))
        .for_each(&mut step);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// SHA-256 (FIPS 180-4), hand-rolled so the workspace stays
/// dependency-free. Streaming interface: [`Sha256::update`] then
/// [`Sha256::finish`].
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Unprocessed tail of the input (< 64 bytes).
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    len: u64,
}

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher (FIPS 180-4 initial state).
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return; // input fit in the partial buffer; rest is empty
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress(block.try_into().expect("64-byte block"));
            rest = tail;
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Pads, finalizes, and returns the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finish()
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_fips_vectors() {
        // FIPS 180-4 / NIST CAVS known-answer vectors.
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A million 'a's, streamed in uneven chunks.
        let mut h = Sha256::new();
        let chunk = [b'a'; 997];
        let mut fed = 0usize;
        while fed < 1_000_000 {
            let take = chunk.len().min(1_000_000 - fed);
            h.update(&chunk[..take]);
            fed += take;
        }
        assert_eq!(
            hex(&h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn canonical_sorts_keys_recursively() {
        let a = Json::parse(r#"{"b": {"y": 1, "x": 2}, "a": [{"q": 1, "p": 2}]}"#).unwrap();
        let b = Json::parse(r#"{"a": [{"p": 2, "q": 1}], "b": {"x": 2, "y": 1}}"#).unwrap();
        assert_eq!(canonical(&a), canonical(&b));
        assert_eq!(canonical(&a), r#"{"a":[{"p":2,"q":1}],"b":{"x":2,"y":1}}"#);
        assert_eq!(key_of(&a, 1), key_of(&b, 1));
    }

    #[test]
    fn schema_version_changes_key() {
        let v = Json::parse(r#"{"seed": 7}"#).unwrap();
        assert_ne!(key_of(&v, 1), key_of(&v, 2));
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(CacheMode::parse("on"), Some(CacheMode::On));
        assert_eq!(CacheMode::parse(" OFF "), Some(CacheMode::Off));
        assert_eq!(CacheMode::parse("Refresh"), Some(CacheMode::Refresh));
        assert_eq!(CacheMode::parse("auto"), None);
    }

    #[test]
    fn memory_cache_hits_and_stats() {
        let cache = Cache::in_memory();
        let key = key_of(&Json::Num(1.0), 1);
        let (v, hit) = cache.get_or_compute(key, || Json::Str("computed".into()));
        assert!(!hit);
        assert_eq!(*v, Json::Str("computed".into()));
        let (v2, hit2) = cache.get_or_compute(key, || panic!("must not recompute"));
        assert!(hit2);
        assert_eq!(v2, v);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn off_mode_bypasses() {
        let cache = Cache::new(None, CacheMode::Off);
        let key = key_of(&Json::Num(2.0), 1);
        let mut calls = 0;
        for _ in 0..3 {
            let (_, hit) = cache.get_or_compute(key, || {
                calls += 1;
                Json::Null
            });
            assert!(!hit);
        }
        assert_eq!(calls, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn refresh_recomputes_once_then_hits_in_process() {
        let dir = std::env::temp_dir().join(format!("bc-cache-refresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of(&Json::Str("stale".into()), 1);
        Cache::new(Some(dir.clone()), CacheMode::On).get_or_compute(key, || Json::Num(1.0));

        let refresh = Cache::new(Some(dir.clone()), CacheMode::Refresh);
        let (v, hit) = refresh.get_or_compute(key, || Json::Num(2.0));
        assert!(!hit, "refresh must ignore the stale disk entry");
        assert_eq!(*v, Json::Num(2.0));
        let (v2, hit2) = refresh.get_or_compute(key, || panic!("second fetch hits"));
        assert!(hit2);
        assert_eq!(*v2, Json::Num(2.0));

        // The overwrite is durable: a fresh On cache sees the new value.
        let on = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v3, hit3) = on.get_or_compute(key, || panic!("overwritten entry hits"));
        assert!(hit3);
        assert_eq!(*v3, Json::Num(2.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inflight_coalescing_computes_once() {
        let cache = Cache::in_memory();
        let key = key_of(&Json::Str("shared".into()), 1);
        let computed = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (v, _) = cache.get_or_compute(key, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters really block.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Json::Num(7.0)
                    });
                    assert_eq!(*v, Json::Num(7.0));
                });
            }
        });
        assert_eq!(
            computed.load(Ordering::SeqCst),
            1,
            "exactly one computation"
        );
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn dropped_guard_hands_off_to_waiter() {
        let cache = Cache::in_memory();
        let key = key_of(&Json::Str("abandoned".into()), 1);
        let Fetch::Miss(guard) = cache.fetch(key) else {
            panic!("first fetch must miss");
        };
        drop(guard); // owner gives up without completing
        let (v, hit) = cache.get_or_compute(key, || Json::Num(9.0));
        assert!(!hit, "abandoned claim must be reclaimable");
        assert_eq!(*v, Json::Num(9.0));
    }

    /// An empty store directory unique to this test process.
    fn store_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bc-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The segment files under `dir`, oldest first.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| is_segment_name(p) && p.is_file())
            .collect();
        paths.sort();
        paths
    }

    fn store(cache: &Cache) -> std::sync::MutexGuard<'_, Store> {
        cache.store.as_ref().expect("disk-backed").lock().unwrap()
    }

    fn num_key(i: usize) -> CacheKey {
        key_of(&Json::Num(i as f64), 1)
    }

    #[test]
    fn disk_round_trip_and_corruption_is_a_miss() {
        let dir = store_dir("round-trip");
        let key = key_of(&Json::Str("unit".into()), 1);

        let warm = Cache::new(Some(dir.clone()), CacheMode::On);
        warm.get_or_compute(key, || Json::Num(42.0));

        // A second cache over the same dir hits from disk.
        let reread = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = reread.get_or_compute(key, || panic!("disk should hit"));
        assert!(hit);
        assert_eq!(*v, Json::Num(42.0));

        // Truncate the record: the next cold cache must recompute, not
        // error, and its replacement is what the store serves next.
        let [segment] = &segment_files(&dir)[..] else {
            panic!("one writer, one segment");
        };
        let len = std::fs::metadata(segment).unwrap().len();
        File::options()
            .write(true)
            .open(segment)
            .unwrap()
            .set_len(len - 1)
            .unwrap();
        let cold = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = cold.get_or_compute(key, || Json::Num(43.0));
        assert!(!hit);
        assert_eq!(*v, Json::Num(43.0));
        let (v, hit) = Cache::new(Some(dir.clone()), CacheMode::On)
            .get_or_compute(key, || panic!("the replacement hits"));
        assert!(hit);
        assert_eq!(*v, Json::Num(43.0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_cache_hits_every_entry() {
        let dir = store_dir("second");
        let n = 2 * SEGMENT_RECORDS + 3;
        let writer = Cache::new(Some(dir.clone()), CacheMode::On);
        for i in 0..n {
            writer.get_or_compute(num_key(i), || Json::Num(i as f64));
        }
        assert_eq!(
            store(&writer).records(),
            n,
            "{n} inserts far below capacity"
        );
        assert_eq!(
            segment_files(&dir).len(),
            3,
            "rolled every {SEGMENT_RECORDS}"
        );

        let reader = Cache::new(Some(dir.clone()), CacheMode::On);
        for i in 0..n {
            let (v, hit) = reader.get_or_compute(num_key(i), || panic!("entry {i} must hit"));
            assert!(hit);
            assert_eq!(*v, Json::Num(i as f64));
        }
        assert_eq!(store(&reader).records(), n);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_byte_is_a_miss_and_its_replacement_wins() {
        let dir = store_dir("flip");
        let (bad, good) = (num_key(1), num_key(2));
        let writer = Cache::new(Some(dir.clone()), CacheMode::On);
        writer.get_or_compute(bad, || Json::Num(1234.0));
        writer.get_or_compute(good, || Json::Num(5.0));

        // "1234" becomes "7234": still valid JSON, so only the checksum
        // can tell.
        let [segment] = &segment_files(&dir)[..] else {
            panic!("one writer, one segment");
        };
        let mut bytes = std::fs::read(segment).unwrap();
        assert_eq!(&bytes[HEADER_LEN..HEADER_LEN + 4], b"1234");
        bytes[HEADER_LEN] = b'7';
        std::fs::write(segment, &bytes).unwrap();

        let reader = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = reader.get_or_compute(bad, || Json::Num(1234.0));
        assert!(!hit, "a record failing its checksum is a miss");
        assert_eq!(*v, Json::Num(1234.0));
        let (_, hit) = reader.get_or_compute(good, || panic!("the intact record hits"));
        assert!(hit);
        assert_eq!(
            std::fs::read(segment).unwrap(),
            bytes,
            "a reader never rewrites a segment"
        );

        let reopened = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = reopened.get_or_compute(bad, || panic!("the replacement must win"));
        assert!(hit);
        assert_eq!(*v, Json::Num(1234.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_last_record_is_a_miss_and_earlier_records_hit() {
        let dir = store_dir("torn");
        let writer = Cache::new(Some(dir.clone()), CacheMode::On);
        for i in 0..3 {
            writer.get_or_compute(num_key(i), || Json::Num(i as f64));
        }
        let last = store(&writer).index[&num_key(2)];
        drop(writer);
        let [segment] = &segment_files(&dir)[..] else {
            panic!("one writer, one segment");
        };
        // Cut inside the last payload, then inside the last header.
        for cut in [last.offset + last.len - 1, last.offset + 10] {
            File::options()
                .write(true)
                .open(segment)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let reader = Cache::new(Some(dir.clone()), CacheMode::On);
            for i in 0..2 {
                let (v, hit) = reader.get_or_compute(num_key(i), || panic!("{i} must hit"));
                assert!(hit);
                assert_eq!(*v, Json::Num(i as f64));
            }
            assert!(matches!(reader.fetch(num_key(2)), Fetch::Miss(_)));
            assert_eq!(
                std::fs::metadata(segment).unwrap().len(),
                cut,
                "a scan never truncates a segment"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_segment_files_and_legacy_shards_are_ignored() {
        let dir = store_dir("foreign");
        let key = key_of(&Json::Str("foreign".into()), 1);
        let hex = key.hex();
        // A store from before segment logs: one file per entry.
        std::fs::create_dir_all(dir.join(&hex[..2])).unwrap();
        let legacy = dir.join(&hex[..2]).join(format!("{hex}.json"));
        std::fs::write(
            &legacy,
            format!("{{\"key\": \"{hex}\", \"compute_ms\": 1, \"value\": 666}}"),
        )
        .unwrap();
        // A well-formed record under a name that is not a segment's.
        let record = encode_record(&key, 1.0, b"666");
        std::fs::write(dir.join("notes.seg"), &record).unwrap();
        std::fs::write(dir.join("0123456789abcdef-0000abcd.log"), &record).unwrap();
        // Segment-named garbage, and a segment-named directory.
        std::fs::write(dir.join("0123456789abcdef-0000abcd.seg"), b"not a record").unwrap();
        std::fs::create_dir_all(dir.join("0123456789abcdee-0000abcd.seg")).unwrap();

        let cache = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = cache.get_or_compute(key, || Json::Num(7.0));
        assert!(!hit, "only segment records are read");
        assert_eq!(*v, Json::Num(7.0));
        assert_eq!(store(&cache).records(), 1, "nothing but the new record");
        assert!(legacy.exists() && dir.join("notes.seg").exists());

        let (v, hit) = Cache::new(Some(dir.clone()), CacheMode::On)
            .get_or_compute(key, || panic!("the new record hits"));
        assert!(hit);
        assert_eq!(*v, Json::Num(7.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_leave_a_complete_store() {
        let dir = store_dir("concurrent");
        // Keys 0..150 from one writer, 100..250 from the other: the
        // overlap is written twice, identically. Both writers have
        // created their segments before either appends the rest.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for from in [0, 100] {
                let (dir, start) = (dir.clone(), &start);
                s.spawn(move || {
                    let cache = Cache::new(Some(dir), CacheMode::On);
                    cache.get_or_compute(num_key(from), || Json::Num(from as f64));
                    start.wait();
                    for i in from + 1..from + 150 {
                        cache.get_or_compute(num_key(i), || Json::Num(i as f64));
                    }
                });
            }
        });
        assert_eq!(segment_files(&dir).len(), 2, "one segment per writer");
        let reader = Cache::new(Some(dir.clone()), CacheMode::On);
        for i in 0..250 {
            let (v, hit) = reader.get_or_compute(num_key(i), || panic!("entry {i} must hit"));
            assert!(hit);
            assert_eq!(*v, Json::Num(i as f64));
        }
        assert_eq!(store(&reader).records(), 300);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_newest_entries_up_to_capacity() {
        let dir = store_dir("prune");
        // Five writers of two entries each: five segments, oldest first.
        for seg in 0..5 {
            let cache = Cache::new(Some(dir.clone()), CacheMode::On);
            for i in 2 * seg..2 * seg + 2 {
                cache.get_or_compute(num_key(i), || Json::Num(i as f64));
            }
        }
        assert_eq!(segment_files(&dir).len(), 5);

        let pruner = Cache::new(Some(dir.clone()), CacheMode::On);
        store(&pruner).prune(20);
        assert_eq!(
            segment_files(&dir).len(),
            5,
            "under capacity: nothing removed"
        );
        // Whole segments go, and never below the capacity: 6 records
        // hold 5, and removing another segment would leave 4.
        store(&pruner).prune(5);
        assert_eq!(segment_files(&dir).len(), 3);
        store(&pruner).prune(4);
        assert_eq!(segment_files(&dir).len(), 2);
        assert_eq!(store(&pruner).records(), 4);
        for i in 0..10 {
            let (_, hit) = pruner.get_or_compute(num_key(i), || Json::Num(i as f64));
            assert_eq!(hit, i >= 6, "entry {i} of 10 after pruning to 4");
        }
        // The pruner's own segment (the newest, holding entries 0..6
        // again) survives any capacity.
        store(&pruner).prune(0);
        let files = segment_files(&dir);
        assert_eq!(files.len(), 1);
        assert_eq!(store(&pruner).segments[0].path, files[0]);

        let missing = Cache::new(Some(dir.join("missing")), CacheMode::On);
        store(&missing).prune(4);
        assert_eq!(store(&missing).records(), 0);
        assert!(!dir.join("missing").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_catches_every_single_byte_change() {
        let key = num_key(3);
        let record = encode_record(&key, 2.5, b"[1,2,3]");
        assert!(decode_record(&record, &key).is_ok());
        for at in 0..record.len() {
            let mut bad = record.clone();
            bad[at] ^= 0x20;
            assert!(decode_record(&bad, &key).is_err(), "byte {at}");
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = Cache::in_memory();
        let keys: Vec<CacheKey> = (0..MEM_CAPACITY as u64 + 8)
            .map(|i| key_of(&Json::Num(i as f64), 1))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            cache.get_or_compute(k, || Json::Num(i as f64));
        }
        // The first keys inserted are the least recently used: gone.
        let (_, hit) = cache.get_or_compute(keys[0], || Json::Null);
        assert!(!hit);
        // The last key is still resident.
        let (_, hit) = cache.get_or_compute(keys[keys.len() - 1], || panic!("resident"));
        assert!(hit);
    }
}
