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
//! 2. an on-disk store (`<dir>/<2-hex shard>/<64-hex key>.json`, atomic
//!    tmp-file + rename writes, mtime-pruned) for warm re-runs;
//! 3. an in-flight set with condvar hand-off, so concurrent requests for
//!    the same key run the computation once and share the result.
//!
//! Any corrupted, truncated, or mismatched disk entry is a logged miss —
//! never an error, never a wrong result: the entry is unlinked and the
//! unit recomputed.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::json::Json;

/// In-memory entries kept before least-recently-used eviction.
const MEM_CAPACITY: usize = 4096;
/// On-disk entries kept before oldest-mtime pruning.
const DISK_CAPACITY: usize = 16384;
/// Once the store's estimated size exceeds [`DISK_CAPACITY`], pruning
/// walks it at most every this many inserts (a walk `stat`s every
/// entry, so it is amortized rather than paid per write).
const PRUNE_EVERY: u64 = 64;

/// A 256-bit content address: the SHA-256 of a unit's canonical JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// The raw digest bytes.
    pub fn bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The 64-character lowercase hex form (also the on-disk file stem).
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
    /// Estimated disk entries: the last walk's count plus the inserts
    /// made since it started.
    disk_entries: usize,
    /// Inserts since the last disk walk started.
    inserts_since_walk: u64,
    /// Disk walks so far (0: the store has not been counted yet).
    disk_walks: u64,
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
    dir: Option<PathBuf>,
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
            dir,
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
                        self.admit(key, value.clone(), ms);
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

    /// Publishes a disk-loaded value into the memory map and releases
    /// the in-flight claim (no write-back, no prune accounting — the
    /// entry is already on disk).
    fn admit(&self, key: CacheKey, value: Arc<Json>, compute_ms: f64) {
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

    fn insert(&self, key: CacheKey, value: Arc<Json>, compute_ms: f64) {
        if self.mode != CacheMode::Off {
            self.store_disk(&key, &value, compute_ms);
        }
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
        // Walk the store once to count it, then only when the count
        // could exceed the capacity (DESIGN.md §2c).
        st.disk_entries += 1;
        st.inserts_since_walk += 1;
        let walk = self.dir.is_some()
            && (st.disk_walks == 0
                || (st.disk_entries > DISK_CAPACITY && st.inserts_since_walk >= PRUNE_EVERY));
        if walk {
            st.disk_entries = 0;
            st.inserts_since_walk = 0;
            st.disk_walks += 1;
        }
        drop(st);
        self.resolved.notify_all();
        if let (true, Some(dir)) = (walk, self.dir.as_ref()) {
            let left = prune_dir(dir, DISK_CAPACITY);
            // Inserts that landed during the walk were counted from zero
            // and may also be in `left`: an overestimate, which only
            // brings the next walk forward.
            self.state.lock().expect("cache poisoned").disk_entries += left;
        }
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

    /// `<dir>/<2-hex shard>/<64-hex key>.json`.
    fn entry_path(dir: &Path, key: &CacheKey) -> PathBuf {
        let hex = key.hex();
        dir.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Reads and validates a disk entry; any failure is a logged miss
    /// (the entry is unlinked so it is not re-parsed every run).
    fn load_disk(&self, key: &CacheKey) -> Option<(Json, f64)> {
        let dir = self.dir.as_ref()?;
        let path = Self::entry_path(dir, key);
        let text = std::fs::read_to_string(&path).ok()?;
        match Self::decode_entry(&text, key) {
            Ok(hit) => Some(hit),
            Err(why) => {
                eprintln!(
                    "blitzcoin-cache: discarding bad entry {} ({why}); treating as a miss",
                    path.display()
                );
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn decode_entry(text: &str, key: &CacheKey) -> Result<(Json, f64), String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let stored_key = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or("missing `key`")?;
        if stored_key != key.hex() {
            return Err(format!("key mismatch (`{stored_key}`)"));
        }
        let compute_ms = doc
            .get("compute_ms")
            .and_then(Json::as_f64)
            .ok_or("missing `compute_ms`")?;
        // Move the value out of the envelope rather than cloning it: a
        // megabyte-scale report would otherwise be deep-copied on every
        // disk hit.
        let Json::Obj(pairs) = doc else {
            return Err("entry is not an object".to_string());
        };
        let value = pairs
            .into_iter()
            .find(|(k, _)| k == "value")
            .map(|(_, v)| v)
            .ok_or("missing `value`")?;
        Ok((value, compute_ms))
    }

    /// Writes the entry atomically: unique tmp file in the shard
    /// directory, then rename. A concurrent reader sees either the old
    /// complete entry or the new complete entry, never a torn write.
    fn store_disk(&self, key: &CacheKey, value: &Json, compute_ms: f64) {
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let path = Self::entry_path(dir, key);
        let shard = path.parent().expect("entry path has a shard dir");
        if std::fs::create_dir_all(shard).is_err() {
            return; // read-only store: degrade to memory-only
        }
        // Assemble the envelope textually so the value is serialized in
        // place instead of deep-cloned into a temporary document.
        let body = value.to_string();
        let mut doc = String::with_capacity(body.len() + 128);
        doc.push_str("{\"key\": \"");
        doc.push_str(&key.hex());
        doc.push_str("\", \"compute_ms\": ");
        doc.push_str(&Json::Num(compute_ms).to_string());
        doc.push_str(", \"value\": ");
        doc.push_str(&body);
        doc.push('}');
        let tmp = shard.join(format!(".tmp-{}-{}", key.hex(), std::process::id()));
        if std::fs::write(&tmp, doc).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

/// Removes the oldest-mtime entries of the store under `dir` beyond
/// `capacity` and returns how many entries it left.
///
/// Best-effort: unreadable shards or entries are skipped, and a failed
/// removal is counted as left. Other processes sharing the store are
/// not coordinated with — each counts only its own writes between its
/// walks, so a store fed by several processes can overshoot `capacity`
/// until one of them walks it again.
fn prune_dir(dir: &Path, capacity: usize) -> usize {
    let mut entries: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
    let Ok(shards) = std::fs::read_dir(dir) else {
        return 0;
    };
    for shard in shards.flatten() {
        let Ok(files) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for f in files.flatten() {
            if f.path().extension().is_some_and(|e| e == "json") {
                if let Ok(meta) = f.metadata() {
                    let at = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                    entries.push((at, f.path()));
                }
            }
        }
    }
    if entries.len() <= capacity {
        return entries.len();
    }
    entries.sort();
    let excess = entries.len() - capacity;
    let removed = entries[..excess]
        .iter()
        .filter(|(_, path)| std::fs::remove_file(path).is_ok())
        .count();
    entries.len() - removed
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
    fn disk_round_trip_and_corruption_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("bc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = key_of(&Json::Str("unit".into()), 1);

        let warm = Cache::new(Some(dir.clone()), CacheMode::On);
        warm.get_or_compute(key, || Json::Num(42.0));

        // A second cache over the same dir hits from disk.
        let reread = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = reread.get_or_compute(key, || panic!("disk should hit"));
        assert!(hit);
        assert_eq!(*v, Json::Num(42.0));

        // Truncate the entry: the next cold cache must recompute, not error.
        let path = Cache::entry_path(&dir, &key);
        std::fs::write(&path, "{\"key\": \"trunc").unwrap();
        let cold = Cache::new(Some(dir.clone()), CacheMode::On);
        let (v, hit) = cold.get_or_compute(key, || Json::Num(43.0));
        assert!(!hit);
        assert_eq!(*v, Json::Num(43.0));
        assert!(!path.exists() || Json::parse(&std::fs::read_to_string(&path).unwrap()).is_ok());

        let _ = std::fs::remove_dir_all(&dir);
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

    #[test]
    fn store_below_capacity_is_walked_once() {
        let dir = std::env::temp_dir().join(format!("bc-cache-walks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::new(Some(dir.clone()), CacheMode::On);
        let n = PRUNE_EVERY * 4 + 3;
        for i in 0..n {
            cache.get_or_compute(key_of(&Json::Num(i as f64), 1), || Json::Num(i as f64));
        }
        let st = cache.state.lock().unwrap();
        assert_eq!(st.disk_walks, 1, "{n} inserts far below capacity");
        assert_eq!(st.disk_entries, n as usize);
        drop(st);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_newest_entries_up_to_capacity() {
        let dir = std::env::temp_dir().join(format!("bc-cache-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::new(Some(dir.clone()), CacheMode::On);
        let keys: Vec<CacheKey> = (0..10u64)
            .map(|i| key_of(&Json::Num(i as f64), 1))
            .collect();
        let epoch = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        for (i, &k) in keys.iter().enumerate() {
            cache.get_or_compute(k, || Json::Num(i as f64));
            // Distinct, increasing mtimes: key i is the i-th oldest.
            let f = std::fs::File::options()
                .write(true)
                .open(Cache::entry_path(&dir, &k))
                .unwrap();
            f.set_modified(epoch + std::time::Duration::from_secs(i as u64))
                .unwrap();
        }
        assert_eq!(prune_dir(&dir, 20), 10, "under capacity: nothing removed");
        assert_eq!(prune_dir(&dir, 4), 4);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(
                Cache::entry_path(&dir, k).exists(),
                i >= 6,
                "entry {i} of 10 after pruning to 4"
            );
        }
        assert_eq!(prune_dir(&dir.join("missing"), 4), 0);
        let _ = std::fs::remove_dir_all(&dir);
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
