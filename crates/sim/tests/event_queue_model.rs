//! `EventQueue` against a sort-based reference model.
//!
//! The queue keeps a one-entry front slot beside its heap, so an event
//! can live in either place. These properties drive random interleavings
//! of every public operation under each tie-break mode and check every
//! observation — each pop's `(time, seq, payload)`, `peek_time`, `len`,
//! `is_empty`, `scheduled_total` — against a plain vector that pops its
//! minimum by `(time, tie-break key of seq)`.

use blitzcoin_sim::check::forall_seeded;
use blitzcoin_sim::rng::{splitmix64, SimRng};
use blitzcoin_sim::{ensure, EventQueue, SimTime, TieBreak};

/// The reference: pending `(time_ps, seq, payload)` in no particular
/// order, and the sequence counter the queue should be at.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, u32)>,
    next_seq: u64,
    scheduled_total: u64,
}

/// Same-timestamp order key of `seq` under `tie`, written out from the
/// documented semantics rather than shared with the queue.
fn tie_key(tie: TieBreak, seq: u64) -> u64 {
    match tie {
        TieBreak::Fifo => seq,
        TieBreak::Lifo => u64::MAX - seq,
        TieBreak::Permuted(k) => splitmix64(seq ^ k),
    }
}

impl Model {
    fn schedule(&mut self, time: u64, payload: u32) {
        self.pending.push((time, self.next_seq, payload));
        self.next_seq += 1;
        self.scheduled_total += 1;
    }

    fn pop(&mut self, tie: TieBreak) -> Option<(u64, u64, u32)> {
        let (at, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, seq, _))| (t, tie_key(tie, seq)))?;
        Some(self.pending.swap_remove(at))
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.iter().map(|&(t, _, _)| t).min()
    }
}

fn tie_of(rng: &mut SimRng) -> TieBreak {
    match rng.range_u64(0..3) {
        0 => TieBreak::Fifo,
        1 => TieBreak::Lifo,
        _ => TieBreak::Permuted(rng.next_u64()),
    }
}

/// Compares every non-mutating observation of `q` with the model.
fn observe(q: &EventQueue<u32>, m: &Model, step: usize) -> Result<(), String> {
    let peek = q.peek_time().map(SimTime::as_ps);
    ensure!(
        peek == m.peek_time(),
        "step {step}: peek_time {peek:?}, model {:?}",
        m.peek_time()
    );
    ensure!(
        q.len() == m.pending.len(),
        "step {step}: len {}, model {}",
        q.len(),
        m.pending.len()
    );
    ensure!(
        q.is_empty() == m.pending.is_empty(),
        "step {step}: is_empty"
    );
    ensure!(
        q.scheduled_total() == m.scheduled_total,
        "step {step}: scheduled_total {}, model {}",
        q.scheduled_total(),
        m.scheduled_total
    );
    Ok(())
}

#[test]
fn random_interleavings_match_the_sort_based_reference() {
    forall_seeded("event-queue-model", 0x510_7F00, 0..400, |rng| {
        let mut tie = tie_of(rng);
        let mut q = EventQueue::new();
        q.set_tie_break(tie);
        let mut m = Model::default();
        // The time the last pop fired at: the engine schedules at or
        // just after it, which is when the front slot is contested.
        let mut now = 0u64;
        let steps = 1 + rng.range_usize(0..300);
        for step in 0..steps {
            match rng.range_u64(0..100) {
                0..=49 => {
                    let time = match rng.range_u64(0..10) {
                        // ties with the last pop, so with a slot entry
                        // scheduled just before
                        0..=2 => now,
                        // just after it: takes or displaces the slot
                        3..=5 => now + rng.range_u64(1..4),
                        // ties exactly with the earliest pending event
                        6 => m.peek_time().unwrap_or(now),
                        // far future: stays in the heap behind the slot
                        7 | 8 => now + 1000 + rng.range_u64(0..8),
                        // before the last pop: the queue allows it
                        _ => now.saturating_sub(rng.range_u64(0..3)),
                    };
                    let payload = rng.next_u32();
                    q.schedule(SimTime::from_ps(time), payload);
                    m.schedule(time, payload);
                }
                50..=89 => {
                    let got = q.pop().map(|e| (e.time.as_ps(), e.seq, e.payload));
                    let want = m.pop(tie);
                    ensure!(
                        got == want,
                        "step {step} under {tie}: popped {got:?}, model {want:?}"
                    );
                    if let Some((t, _, _)) = got {
                        now = t;
                    }
                }
                90..=93 => {
                    q.clear();
                    m.pending.clear();
                }
                94..=97 => {
                    q.reset();
                    m = Model::default();
                    now = 0;
                }
                _ => {
                    // drain, then switch mode: legal only while empty
                    while let Some(want) = m.pop(tie) {
                        let got = q.pop().map(|e| (e.time.as_ps(), e.seq, e.payload));
                        ensure!(got == Some(want), "step {step} drain: {got:?} vs {want:?}");
                    }
                    ensure!(q.pop().is_none(), "step {step}: queue outlived the model");
                    tie = tie_of(rng);
                    q.set_tie_break(tie);
                }
            }
            observe(&q, &m, step)?;
        }
        Ok(())
    });
}

#[test]
fn successor_chains_ahead_of_far_events_match_the_reference() {
    // The token-ring pattern: a few far-future events pending, then a
    // long chain of pop-one, schedule-its-successor steps, the successor
    // landing ahead of the far events (and sometimes level with them).
    forall_seeded("event-queue-successor", 0x2_1A6, 0..100, |rng| {
        let tie = tie_of(rng);
        let mut q = EventQueue::new();
        q.set_tie_break(tie);
        let mut m = Model::default();
        let horizon = 50 + rng.range_u64(0..50);
        for i in 0..rng.range_u64(0..6) {
            let t = horizon + rng.range_u64(0..3);
            q.schedule(SimTime::from_ps(t), i as u32);
            m.schedule(t, i as u32);
        }
        q.schedule(SimTime::ZERO, 100);
        m.schedule(0, 100);
        for step in 0..200 {
            let got = q.pop().map(|e| (e.time.as_ps(), e.seq, e.payload));
            let want = m.pop(tie);
            ensure!(got == want, "step {step} under {tie}: {got:?} vs {want:?}");
            let Some((t, _, payload)) = got else { break };
            let next = t + rng.range_u64(0..3);
            q.schedule(SimTime::from_ps(next), payload + 1);
            m.schedule(next, payload + 1);
            observe(&q, &m, step)?;
        }
        Ok(())
    });
}

#[test]
fn clear_and_reset_empty_a_queue_holding_only_the_slot() {
    for tie in [TieBreak::Fifo, TieBreak::Lifo, TieBreak::Permuted(0xAB)] {
        // One event on an empty queue is the slot's only occupant.
        let mut q = EventQueue::new();
        q.set_tie_break(tie);
        q.schedule(SimTime::from_ns(4), 1u32);
        q.clear();
        assert!(q.is_empty(), "{tie}: clear leaves the slot");
        assert_eq!((q.len(), q.peek_time()), (0, None), "{tie}");
        assert!(q.pop().is_none(), "{tie}");
        assert_eq!(q.scheduled_total(), 1, "clear keeps the counters");

        // A reset queue must replay exactly like a new one: a stale slot
        // entry would pop first here, ahead of the replayed run.
        let run = |q: &mut EventQueue<u32>| -> Vec<(u64, u64, u32)> {
            q.schedule(SimTime::from_ns(9), 7);
            q.schedule(SimTime::from_ns(9), 8);
            q.schedule(SimTime::from_ns(2), 9);
            std::iter::from_fn(|| q.pop().map(|e| (e.time.as_ps(), e.seq, e.payload))).collect()
        };
        let mut fresh = EventQueue::new();
        fresh.set_tie_break(tie);
        let want = run(&mut fresh);
        q.schedule(SimTime::ZERO, 99);
        q.reset();
        assert!(q.is_empty(), "{tie}: reset leaves the slot");
        assert_eq!((q.len(), q.peek_time()), (0, None), "{tie}");
        assert_eq!(q.scheduled_total(), 0);
        assert_eq!(run(&mut q), want, "{tie}: reset queue must replay exactly");
    }
}
