//! Deterministic timestamped event queue.
//!
//! The full-SoC simulation in `blitzcoin-soc` advances by popping the
//! earliest scheduled event. Determinism matters: the paper's evaluation
//! (and ours) averages Monte-Carlo sweeps over seeds, so a given seed must
//! always produce the same run. Events scheduled at the same timestamp are
//! therefore delivered in FIFO order of scheduling, never in heap order.
//!
//! Entries carry `(time, seq)` packed into one `u128` key — lexical
//! order on the pair and integer order on the packed key are the same
//! order, so every comparison is a single integer compare instead of two
//! chained `cmp`s. This is the hottest comparison in the whole simulator,
//! which is why it gets the packed representation.
//!
//! # Front slot
//!
//! Beside the binary heap sits a one-entry *front slot*: it holds the
//! last event scheduled ahead of everything pending, until that event is
//! popped or displaced. Invariant: when the slot is occupied, its key is
//! ≤ every key in the heap. `schedule` puts a new entry in the slot
//! only when its key is smaller than both the slot's and the heap
//! minimum's, pushing any displaced slot entry into the heap; `pop` takes
//! the slot first and falls back to the heap. The common engine pattern
//! — pop an event, schedule its successor ahead of everything else
//! pending (a TokenSmart token hopping ring stop to ring stop) — then
//! never sifts the heap at all. Keys are compared after
//! [`TieBreak`] encoding, so the pop order is exactly the heap-only
//! order in every mode. `clear` and `reset` empty the slot with the
//! heap: the engine recycles queues across runs, and a settled run stops
//! with events still pending, so a stale slot entry would otherwise leak
//! into the next run as its first pop.
//!
//! # Tie-break fuzzing
//!
//! FIFO order at equal timestamps is *one* legal ordering out of many:
//! real concurrent hardware exhibits every interleaving of same-cycle
//! events, and nothing downstream may depend on which one the simulator
//! happens to pick. [`TieBreak`] makes the choice explicit — [`Fifo`]
//! (the default, bit-identical to the historical behaviour), [`Lifo`],
//! and [`Permuted`] (a keyed bijection of the sequence bits that
//! deterministically shuffles only same-timestamp batches). The mode is
//! applied when the key is *packed*, so the hot path stays a single
//! `u128` comparison in every mode, and the sequence number decodes back
//! exactly on pop. The [`crate::interleave`] harness runs a simulation
//! across many `Permuted` seeds and asserts its invariants hold under
//! every ordering.
//!
//! [`Fifo`]: TieBreak::Fifo
//! [`Lifo`]: TieBreak::Lifo
//! [`Permuted`]: TieBreak::Permuted

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::rng::{inv_splitmix64, splitmix64};
use crate::time::SimTime;

/// How an [`EventQueue`] orders events that carry the same timestamp.
///
/// All modes pop in strict time order and deliver the same `(time,
/// payload)` multiset; they differ only in the order *within* a
/// same-timestamp batch. Every mode is deterministic — `Permuted(seed)`
/// with a fixed seed always produces the same shuffle — so any run
/// remains exactly reproducible from `(root seed, tie-break)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Scheduling order (the historical default).
    #[default]
    Fifo,
    /// Reverse scheduling order: the *latest*-scheduled event of a batch
    /// pops first.
    Lifo,
    /// A keyed pseudo-random shuffle of each same-timestamp batch: the
    /// low key bits are `splitmix64(seq ^ seed)`, a bijection, so
    /// distinct events never collide and the true sequence number is
    /// recovered on pop.
    Permuted(u64),
}

impl TieBreak {
    /// Maps a sequence number to the low 64 bits of the heap key. Every
    /// arm is a bijection on `u64`, so key order among equal timestamps
    /// is a permutation of FIFO order and nothing else changes.
    #[inline]
    fn encode(self, seq: u64) -> u64 {
        match self {
            TieBreak::Fifo => seq,
            TieBreak::Lifo => !seq,
            TieBreak::Permuted(k) => splitmix64(seq ^ k),
        }
    }

    /// Inverse of [`TieBreak::encode`]: recovers the scheduling sequence
    /// number from the low key bits.
    #[inline]
    fn decode(self, low: u64) -> u64 {
        match self {
            TieBreak::Fifo => low,
            TieBreak::Lifo => !low,
            TieBreak::Permuted(k) => inv_splitmix64(low) ^ k,
        }
    }

    /// The permutation seed, for `Permuted` modes.
    #[must_use]
    pub fn seed(self) -> Option<u64> {
        match self {
            TieBreak::Permuted(k) => Some(k),
            _ => None,
        }
    }

    /// Parses the CLI spelling: `fifo`, `lifo`, or `permuted:SEED`
    /// (seed in decimal or `0x` hex).
    #[must_use]
    pub fn parse(s: &str) -> Option<TieBreak> {
        match s {
            "fifo" => Some(TieBreak::Fifo),
            "lifo" => Some(TieBreak::Lifo),
            _ => {
                let seed = s.strip_prefix("permuted:")?;
                let k = match seed.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok()?,
                    None => seed.parse().ok()?,
                };
                Some(TieBreak::Permuted(k))
            }
        }
    }
}

impl fmt::Display for TieBreak {
    /// Renders in the same spelling [`TieBreak::parse`] accepts, so a
    /// replay line pastes straight back into `--tie-break`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TieBreak::Fifo => f.write_str("fifo"),
            TieBreak::Lifo => f.write_str("lifo"),
            TieBreak::Permuted(k) => write!(f, "permuted:{k:#x}"),
        }
    }
}

impl crate::json::ToJson for TieBreak {
    /// Serializes in the CLI spelling (`"fifo"`, `"permuted:0x2a"`), the
    /// same string [`TieBreak::parse`] reads back.
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::Str(self.to_string())
    }
}

impl crate::json::FromJson for TieBreak {
    fn from_json(v: &crate::json::Json) -> Result<Self, crate::json::JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| crate::json::JsonError::new("expected tie-break string"))?;
        TieBreak::parse(s)
            .ok_or_else(|| crate::json::JsonError::new(format!("bad tie-break `{s}`")))
    }
}

/// An event that has been scheduled on an [`EventQueue`].
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// The time at which the event fires.
    pub time: SimTime,
    /// Monotonic sequence number; breaks ties among equal timestamps.
    pub seq: u64,
    /// The caller-supplied payload.
    pub payload: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    // Reversed so that a max-heap pops the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A heap entry: `(time, seq)` packed into one integer key. `time` in the
/// high 64 bits and `seq` in the low 64 gives exactly the lexicographic
/// `(time, seq)` order when comparing keys as plain `u128`s.
#[derive(Debug, Clone)]
struct HeapEntry<E> {
    key: u128,
    payload: E,
}

fn pack(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_ps()) << 64) | u128::from(seq)
}

impl<E> HeapEntry<E> {
    fn time(&self) -> SimTime {
        SimTime::from_ps((self.key >> 64) as u64)
    }

    /// The low 64 key bits: the *encoded* sequence number — equal to the
    /// scheduling sequence only under [`TieBreak::Fifo`]; other modes
    /// decode it on pop.
    fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    // Reversed so that BinaryHeap (a max-heap) pops the smallest key,
    // i.e. the earliest (time, seq).
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// # Example
///
/// ```
/// use blitzcoin_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(10), 'b');
/// q.schedule(SimTime::from_ns(5), 'a');
/// assert_eq!(q.peek_time(), Some(SimTime::from_ns(5)));
/// assert_eq!(q.pop().unwrap().payload, 'a');
/// assert_eq!(q.pop().unwrap().payload, 'b');
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The earliest pending entry when it was scheduled ahead of every
    /// other; its key is ≤ every key in `heap`. See the module docs.
    front: Option<HeapEntry<E>>,
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    scheduled_total: u64,
    tie: TieBreak,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with FIFO tie-breaking.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` events before the heap
    /// reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            scheduled_total: 0,
            tie: TieBreak::Fifo,
        }
    }

    /// The active same-timestamp ordering policy.
    pub fn tie_break(&self) -> TieBreak {
        self.tie
    }

    /// Sets the same-timestamp ordering policy.
    ///
    /// Only legal while the queue is empty: pending keys were packed
    /// under the old policy and would decode to the wrong sequence
    /// numbers (and the wrong order) under a new one.
    ///
    /// # Panics
    /// Panics if events are pending.
    pub fn set_tie_break(&mut self, tie: TieBreak) {
        assert!(
            self.is_empty(),
            "tie-break policy can only change while the queue is empty"
        );
        self.tie = tie;
    }

    /// Schedules `payload` to fire at absolute time `time`.
    ///
    /// Events scheduled at the same time pop in the order the active
    /// [`TieBreak`] dictates (scheduling order under the FIFO default).
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        // The sequence counter must never wrap: a wrapped seq would
        // collide with (or sort before) a live event's key. 2^64 - 1
        // schedules is ~97,000 years of the engine's measured 6M
        // events/s, so this is a debug-only tripwire, not a real bound;
        // `reset()` between trials keeps long-lived queues far from it.
        debug_assert!(
            self.next_seq != u64::MAX,
            "EventQueue sequence counter overflow; reset() between runs"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let entry = HeapEntry {
            key: pack(time, self.tie.encode(seq)),
            payload,
        };
        // An occupied slot is already ≤ the heap minimum, so beating it
        // is enough; an empty slot must be won against the heap itself.
        let ahead = match &self.front {
            Some(front) => entry.key < front.key,
            None => self.heap.peek().is_none_or(|min| entry.key < min.key),
        };
        if !ahead {
            self.heap.push(entry);
        } else if let Some(displaced) = self.front.replace(entry) {
            self.heap.push(displaced);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let tie = self.tie;
        self.front
            .take()
            .or_else(|| self.heap.pop())
            .map(|e| ScheduledEvent {
                time: e.time(),
                seq: tie.decode(e.seq()),
                payload: e.payload,
            })
    }

    /// The firing time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front
            .as_ref()
            .or_else(|| self.heap.peek())
            .map(HeapEntry::time)
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Total number of events ever scheduled (pending or already popped).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Discards all pending events without resetting the sequence counter:
    /// `scheduled_total` keeps counting and later schedules draw strictly
    /// larger sequence numbers, as if the discarded events had fired.
    /// Callers that reuse a queue across logically independent runs want
    /// [`EventQueue::reset`] instead — after `clear()` the very same
    /// schedule stream yields different `seq` values, which changes the
    /// pop order under any non-FIFO [`TieBreak`].
    pub fn clear(&mut self) {
        self.front = None;
        self.heap.clear();
    }

    /// Returns the queue to its freshly-constructed state — no pending
    /// events, sequence and scheduled counters at zero — while keeping the
    /// heap's allocation *and* the tie-break policy. A queue reset and
    /// reused across trials behaves bit-identically to a new one
    /// constructed with the same policy, without re-growing the heap each
    /// trial. Contrast with [`EventQueue::clear`], which preserves the
    /// counters.
    pub fn reset(&mut self) {
        self.front = None;
        self.heap.clear();
        self.next_seq = 0;
        self.scheduled_total = 0;
    }

    /// Room for events before the heap reallocates.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 3);
        q.schedule(SimTime::from_ns(10), 1);
        q.schedule(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn fifo_at_equal_time() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        let expected: Vec<i32> = (0..100).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(5), "a");
        q.schedule(SimTime::from_ns(1), "b");
        assert_eq!(q.pop().unwrap().payload, "b");
        q.schedule(SimTime::from_ns(2), "c");
        q.schedule(SimTime::from_ns(5), "d"); // same time as "a", scheduled later
        assert_eq!(q.pop().unwrap().payload, "c");
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "d");
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(3), 9);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(3)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn packed_key_round_trips_time_and_seq() {
        // the packed representation must hand back exact time/seq pairs,
        // including extreme timestamps
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ps(u64::MAX), 'z');
        q.schedule(SimTime::ZERO, 'a');
        let first = q.pop().unwrap();
        assert_eq!(first.time, SimTime::ZERO);
        assert_eq!(first.seq, 1);
        assert_eq!(first.payload, 'a');
        let last = q.pop().unwrap();
        assert_eq!(last.time, SimTime::from_ps(u64::MAX));
        assert_eq!(last.seq, 0);
    }

    #[test]
    fn packed_order_matches_lexicographic_pair_order() {
        // exhaustive cross-check on a grid of (time, seq) pairs: the
        // single-integer key must order exactly like (time, then seq)
        let times = [0u64, 1, 1250, u64::MAX / 2, u64::MAX];
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            for j in 0..3u64 {
                q.schedule(SimTime::from_ps(t), (i, j));
                expected.push((t, q.scheduled_total() - 1));
            }
        }
        expected.sort_unstable();
        let popped: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ps(), e.seq))).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn lifo_reverses_same_time_batches_only() {
        let mut q = EventQueue::new();
        q.set_tie_break(TieBreak::Lifo);
        q.schedule(SimTime::from_ns(2), 20);
        q.schedule(SimTime::from_ns(1), 10);
        q.schedule(SimTime::from_ns(1), 11);
        q.schedule(SimTime::from_ns(1), 12);
        q.schedule(SimTime::from_ns(2), 21);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        // time order is untouched; each equal-time batch pops newest-first
        assert_eq!(order, [12, 11, 10, 21, 20]);
    }

    #[test]
    fn permuted_shuffles_batches_and_recovers_seq() {
        let mut q = EventQueue::new();
        q.set_tie_break(TieBreak::Permuted(0xFEED));
        for i in 0..64 {
            q.schedule(SimTime::from_ns(7), i);
        }
        let popped: Vec<(u64, i64)> =
            std::iter::from_fn(|| q.pop().map(|e| (e.seq, e.payload))).collect();
        // every event decodes its true scheduling seq (== payload here)
        for &(seq, payload) in &popped {
            assert_eq!(seq, payload as u64);
        }
        // same multiset, different order than FIFO
        let order: Vec<i64> = popped.iter().map(|&(_, p)| p).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<i64>>());
        assert_ne!(order, sorted, "64 events should not shuffle to identity");
    }

    #[test]
    fn permuted_seeds_differ_but_replay_exactly() {
        let run = |tie: TieBreak| -> Vec<i64> {
            let mut q = EventQueue::new();
            q.set_tie_break(tie);
            for i in 0..32 {
                q.schedule(SimTime::ZERO, i);
            }
            std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect()
        };
        let a = run(TieBreak::Permuted(1));
        let b = run(TieBreak::Permuted(2));
        assert_eq!(a, run(TieBreak::Permuted(1)), "same seed, same order");
        assert_ne!(a, b, "distinct seeds should order a 32-batch differently");
    }

    #[test]
    fn tie_break_parse_display_round_trips() {
        for tie in [
            TieBreak::Fifo,
            TieBreak::Lifo,
            TieBreak::Permuted(0),
            TieBreak::Permuted(0xDEAD_BEEF),
        ] {
            assert_eq!(TieBreak::parse(&tie.to_string()), Some(tie));
        }
        assert_eq!(TieBreak::parse("permuted:42"), Some(TieBreak::Permuted(42)));
        assert_eq!(TieBreak::parse("permuted:"), None);
        assert_eq!(TieBreak::parse("nonsense"), None);
    }

    #[test]
    #[should_panic(expected = "tie-break policy can only change")]
    fn tie_break_change_requires_empty_queue() {
        let mut q = EventQueue::new();
        // the only pending event sits in the front slot, not the heap
        q.schedule(SimTime::ZERO, ());
        q.set_tie_break(TieBreak::Lifo);
    }

    #[test]
    fn reset_keeps_tie_break_policy() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.set_tie_break(TieBreak::Permuted(9));
        q.schedule(SimTime::ZERO, 0);
        let _ = q.pop();
        q.reset();
        assert_eq!(q.tie_break(), TieBreak::Permuted(9));
    }

    #[test]
    fn reset_reuses_capacity_and_replays_identically() {
        let run = |q: &mut EventQueue<u64>| -> Vec<(u64, u64, u64)> {
            for i in 0..512u64 {
                q.schedule(SimTime::from_ns(i * 7 % 64), i);
            }
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ps(), e.seq, e.payload))).collect()
        };
        let mut fresh = EventQueue::new();
        let want = run(&mut fresh);
        let mut reused = EventQueue::new();
        let _ = run(&mut reused);
        let cap = reused.capacity();
        assert!(cap >= 512);
        reused.reset();
        assert!(reused.is_empty());
        assert_eq!(reused.scheduled_total(), 0);
        assert_eq!(reused.capacity(), cap, "reset must keep the allocation");
        assert_eq!(run(&mut reused), want, "a reset queue must replay exactly");
    }
}
