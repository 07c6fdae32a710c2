//! A deterministic pending-event queue.
//!
//! Events at equal times are delivered in scheduling order (FIFO by a
//! monotone sequence number), which makes every simulation reproducible and
//! lets us model the paper's zero-delay automaton steps: a chain of events
//! scheduled "now" executes in a well-defined order without time passing.
//!
//! ## Calendar layout
//!
//! [`EventQueue`] is a calendar queue (Brown, CACM 1988) over integer
//! ticks. Nearly every event the MAC runtime schedules — deliveries, acks,
//! progress checks, protocol round timers — is due within `F_ack` ticks of
//! now, so the queue has three parts:
//!
//! * the **slot table**: one entry per pending event holding its payload,
//!   its `(time, seq)` key, its generation stamp and its bucket links;
//! * a **ring** of [`RING_TICKS`] one-tick buckets covering
//!   `[now, now + RING_TICKS)`, where `now` is the time of the last
//!   popped event. Each bucket is a FIFO doubly linked list threaded
//!   through the slot table, and a 256-bit occupancy bitmap finds the next
//!   non-empty tick in at most five word tests, so scheduling into the
//!   ring and popping from it are O(1);
//! * a **far heap** (`BinaryHeap` of `(time, seq, slot, generation)`
//!   keys) for events due at or beyond `now + RING_TICKS` (fault plans,
//!   `inject_at`, long timers). Whenever the clock advances, the far events
//!   that now fall inside the ring move into their buckets in
//!   `(time, seq)` order.
//!
//! Sequence numbers only grow, so appending to a bucket keeps it in
//! `(time, seq)` order.
//!
//! ## Cancellation: slot-generation ids
//!
//! An [`EventId`] is a `(slot, generation)` pair. Cancelling or delivering
//! an event bumps its slot's generation, which invalidates the id, and
//! recycles the slot for the next `schedule` — no hash-set tombstones, no
//! per-event hashing on the hot path. A ring event is cancelled
//! **eagerly**: it is unlinked from its bucket in O(1) and its payload
//! dropped. A far-heap event drops its payload too, but its key is
//! cancelled **lazily**: the stale key is skipped (and reclaimed) when it
//! surfaces, and the far heap is compacted in place whenever cancelled
//! keys outnumber live ones. Queue memory therefore stays proportional to
//! the number of *live* events even across millions of schedule/cancel
//! cycles.

use crate::time::{Duration, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Handle to a scheduled event, usable with [`EventQueue::cancel`].
///
/// Internally a `(slot, generation)` pair: the slot is recycled after the
/// event is delivered or cancelled, and the generation stamp keeps stale
/// handles from ever matching a recycled slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    generation: u32,
}

/// A far-heap key. The payload waits in the slot table, so heap sifts
/// move 24 bytes whatever the event type.
#[derive(Clone, Copy, PartialEq, Eq)]
struct FarKey {
    at: Time,
    seq: u64,
    slot: u32,
    generation: u32,
}

impl PartialOrd for FarKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first. Sequence
        // numbers are unique.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Minimum far-heap size before compaction is considered (avoids churn on
/// tiny heaps where the stale keys are cheaper than a rebuild).
const COMPACT_MIN: usize = 64;

/// Width of the [`EventQueue`] calendar ring, in ticks: an event due less
/// than `RING_TICKS` after the clock goes into a one-tick bucket, a
/// later one into the far heap. With `F_ack ≤ 255`, as in most
/// configurations the experiments and benchmarks run, every delivery, ack
/// and progress check lands in the ring; the sweeps to larger `F_ack`
/// send their acks and late deliveries through the far heap. The
/// occupancy bitmap is four words.
pub const RING_TICKS: u64 = 256;

const RING: usize = RING_TICKS as usize;

/// Words in the ring's occupancy bitmap.
const BITMAP_WORDS: usize = RING / 64;

/// Link sentinel: no slot.
const NIL: u32 = u32::MAX;

/// `Slot::prev` of a slot that is not linked into the ring: a live
/// event's key waits in the far heap, or the slot is free.
const DETACHED: u32 = u32::MAX - 1;

/// Ring bucket of an instant.
#[inline]
fn bucket_of(at: Time) -> usize {
    (at.ticks() % RING_TICKS) as usize
}

/// One slot of the table every pending event owns.
struct Slot<E> {
    generation: u32,
    /// Neighbours in the bucket's list ([`NIL`] at either end), or
    /// [`DETACHED`] in `prev` when the slot is not in the ring.
    prev: u32,
    next: u32,
    seq: u64,
    at: Time,
    /// The payload while the event is pending (ring or far heap).
    event: Option<E>,
}

/// A time-ordered queue of simulation events with stable FIFO tie-breaking
/// and O(1) slot-generation cancellation (see the module docs).
///
/// # Examples
///
/// ```
/// use amac_sim::{Duration, EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_ticks(5), "later");
/// q.schedule(Time::from_ticks(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.ticks(), e), (1, "sooner"));
/// assert_eq!(q.now(), Time::from_ticks(1));
/// ```
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    /// Recycled slot indices available for the next `schedule`.
    free: Vec<u32>,
    /// Per ring bucket: `(head, tail)` slots of its list.
    buckets: Box<[(u32, u32); RING]>,
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: [u64; BITMAP_WORDS],
    /// Events linked into the ring.
    ring_len: usize,
    /// Keys of the events due at or beyond `now + RING_TICKS`.
    far: BinaryHeap<FarKey>,
    /// Cancelled far-heap keys not yet reclaimed.
    stale: usize,
    next_seq: u64,
    /// The time of the last popped event, and the start of the ring:
    /// every live event due before `now + RING_TICKS` is linked into a
    /// bucket.
    now: Time,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: Box::new([(NIL, NIL); RING]),
            occupied: [0; BITMAP_WORDS],
            ring_len: 0,
            far: BinaryHeap::new(),
            stale: 0,
            next_seq: 0,
            now: Time::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the last popped event
    /// (or [`Time::ZERO`] initially). Monotonically non-decreasing.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `event` at absolute time `at`: into its ring bucket, or
    /// into the far heap.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (`at < self.now()`); scheduling *at*
    /// the current instant is allowed and models a zero-delay step.
    pub fn schedule(&mut self, at: Time, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule at {at:?}, current time is {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                // Retired slots were unlinked first, or never linked.
                debug_assert_eq!(self.slots[slot as usize].prev, DETACHED);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s < DETACHED)
                    .expect("more than u32::MAX - 2 concurrently scheduled events");
                self.slots.push(Slot {
                    generation: 0,
                    prev: DETACHED,
                    next: NIL,
                    seq: 0,
                    at: Time::ZERO,
                    event: None,
                });
                slot
            }
        };
        let s = &mut self.slots[slot as usize];
        s.event = Some(event);
        let generation = s.generation;
        if at.ticks() - self.now.ticks() < RING_TICKS {
            self.link(slot, at, seq);
        } else {
            self.far.push(FarKey {
                at,
                seq,
                slot,
                generation,
            });
        }
        EventId { slot, generation }
    }

    /// Appends `slot` to the bucket of `at`. Sequence numbers only grow,
    /// so the bucket stays in sequence order.
    fn link(&mut self, slot: u32, at: Time, seq: u64) {
        let b = bucket_of(at);
        let tail = self.buckets[b].1;
        debug_assert!(
            tail == NIL || self.slots[tail as usize].seq < seq,
            "bucket {b} already holds a later sequence number"
        );
        let s = &mut self.slots[slot as usize];
        s.prev = tail;
        s.next = NIL;
        s.seq = seq;
        s.at = at;
        if tail == NIL {
            self.buckets[b].0 = slot;
        } else {
            self.slots[tail as usize].next = slot;
        }
        self.buckets[b].1 = slot;
        self.occupied[b / 64] |= 1 << (b % 64);
        self.ring_len += 1;
    }

    /// Unlinks a ring slot from its bucket and takes its event.
    fn unlink(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        let (prev, next, b) = (s.prev, s.next, bucket_of(s.at));
        s.prev = DETACHED;
        let event = s.event.take().expect("a ring slot holds its event");
        if prev == NIL {
            self.buckets[b].0 = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.buckets[b].1 = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        if prev == NIL && next == NIL {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.ring_len -= 1;
        event
    }

    /// The first non-empty bucket in ring order from the clock's bucket:
    /// the bucket of the earliest ring event.
    fn next_bucket(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        let start = bucket_of(self.now);
        let (word, bit) = (start / 64, start % 64);
        let ahead = self.occupied[word] & (u64::MAX << bit);
        if ahead != 0 {
            return Some(word * 64 + ahead.trailing_zeros() as usize);
        }
        for step in 1..=BITMAP_WORDS {
            let w = (word + step) % BITMAP_WORDS;
            let bits = if step == BITMAP_WORDS {
                // Back at the clock's word: the buckets behind it, which
                // hold the ring's last ticks.
                self.occupied[w] & !(u64::MAX << bit)
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        debug_assert!(false, "ring_len > 0 but the bitmap is empty");
        None
    }

    /// The far heap's earliest live key, reclaiming cancelled ones on the
    /// way.
    fn far_head(&mut self) -> Option<FarKey> {
        while let Some(&key) = self.far.peek() {
            if self.slots[key.slot as usize].generation == key.generation {
                return Some(key);
            }
            self.far.pop();
            self.stale = self.stale.saturating_sub(1);
        }
        None
    }

    /// Moves the clock, and with it the ring, forward to `now` and links
    /// the far events now inside the ring into their buckets, in
    /// `(time, seq)` order. Those buckets are empty beforehand: the ring
    /// held nothing past the old `now + RING_TICKS`.
    fn advance_clock(&mut self, now: Time) {
        self.now = now;
        while let Some(&key) = self.far.peek() {
            if key.at.ticks() - now.ticks() >= RING_TICKS {
                break;
            }
            self.far.pop();
            if self.slots[key.slot as usize].generation == key.generation {
                self.link(key.slot, key.at, key.seq);
            } else {
                self.stale = self.stale.saturating_sub(1);
            }
        }
    }

    /// Takes the earliest live event if it is due no later than
    /// `through`, advancing the clock to its time. Returns its
    /// `(time, slot, event)`; the slot is left allocated, with its
    /// generation, for the caller to retire.
    fn take_next(&mut self, through: Time) -> Option<(Time, u32, E)> {
        let Some(b) = self.next_bucket() else {
            // Empty ring: the far heap's head is next. Take it straight
            // from the heap and jump the clock to it, which pulls the rest
            // of the new ring's span in.
            let key = self.far_head()?;
            if key.at > through {
                return None;
            }
            self.far.pop();
            self.advance_clock(key.at);
            let event = self.slots[key.slot as usize]
                .event
                .take()
                .expect("a live far key's slot holds its event");
            return Some((key.at, key.slot, event));
        };
        let slot = self.buckets[b].0;
        let at = self.slots[slot as usize].at;
        if at > through {
            return None;
        }
        if at > self.now {
            self.advance_clock(at);
        }
        let event = self.unlink(slot);
        Some((at, slot, event))
    }

    /// Schedules `event` after a relative delay from now.
    pub fn schedule_after(&mut self, delay: Duration, event: E) -> EventId {
        self.schedule(self.now + delay, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event had
    /// not yet been delivered or cancelled; cancelling an already-delivered
    /// (or unknown, or already-cancelled) id is a no-op returning `false`.
    /// `O(1)`: the payload is dropped at once, and a ring event is also
    /// unlinked; a far-heap key is reclaimed when it reaches the front, or
    /// by compaction when stale keys ever outnumber live ones (amortized
    /// O(1)).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let live = self
            .slots
            .get(id.slot as usize)
            .is_some_and(|s| s.generation == id.generation);
        if !live {
            return false;
        }
        if self.slots[id.slot as usize].prev == DETACHED {
            self.slots[id.slot as usize].event = None;
            self.retire(id.slot);
            self.stale += 1;
            self.maybe_compact();
        } else {
            drop(self.unlink(id.slot));
            self.retire(id.slot);
        }
        true
    }

    /// Bumps a slot's generation (invalidating every outstanding id and
    /// key stamped with it) and recycles it.
    fn retire(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
    }

    /// Rebuilds the far heap without its stale keys once they outnumber
    /// the live ones. Amortized O(1) per cancel: a rebuild costing
    /// O(heap) only runs after at least heap/2 cancellations.
    fn maybe_compact(&mut self) {
        if self.far.len() < COMPACT_MIN || self.stale * 2 < self.far.len() {
            return;
        }
        let slots = &self.slots;
        self.far
            .retain(|key| slots[key.slot as usize].generation == key.generation);
        self.stale = 0;
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Ties are broken by scheduling order.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_through(Time::MAX)
    }

    /// Removes and returns the earliest pending event if it is due no
    /// later than `horizon` (inclusive), advancing the clock to its
    /// timestamp. Returns `None` if the queue is empty or its next event
    /// lies beyond `horizon` ([`is_empty`](EventQueue::is_empty) tells the
    /// two apart). One head lookup per event, where
    /// [`peek_time`](EventQueue::peek_time) followed by
    /// [`pop`](EventQueue::pop) takes two.
    pub fn pop_through(&mut self, horizon: Time) -> Option<(Time, E)> {
        let (at, slot, event) = self.take_next(horizon)?;
        self.retire(slot);
        Some((at, event))
    }

    /// Timestamp of the next pending event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        if let Some(b) = self.next_bucket() {
            return Some(self.slots[self.buckets[b].0 as usize].at);
        }
        self.far_head().map(|key| key.at)
    }

    /// Returns `true` if no deliverable events remain.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Number of queued entries, **including** not-yet-reclaimed far-heap
    /// cancellations (an upper bound on deliverable events).
    pub fn pending_upper_bound(&self) -> usize {
        self.ring_len + self.far.len()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.pending_upper_bound())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(3), 'c');
        q.schedule(Time::from_ticks(1), 'a');
        q.schedule(Time::from_ticks(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(Time::from_ticks(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_ticks(7));
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(10), "first");
        q.pop();
        q.schedule_after(Duration::from_ticks(5), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_ticks(15));
    }

    #[test]
    #[should_panic(expected = "cannot schedule at")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(10), ());
        q.pop();
        q.schedule(Time::from_ticks(9), ());
    }

    #[test]
    fn zero_delay_scheduling_allowed() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(4), 1);
        q.pop();
        q.schedule(q.now(), 2); // same instant
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.ticks(), e), (4, 2));
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(1), 'a');
        q.schedule(Time::from_ticks(2), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 'b');
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId {
            slot: 99,
            generation: 0
        }));
    }

    #[test]
    fn cancel_of_delivered_event_is_false_and_leaves_no_tombstone() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(1), 'a');
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 'a');
        // Cancelling an already-delivered event must report false ...
        assert!(!q.cancel(a), "event was already delivered");
        // ... and must not poison later scheduling/delivery.
        q.schedule(Time::from_ticks(2), 'b');
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
        assert!(q.is_empty());
        assert_eq!(q.pending_upper_bound(), 0);
    }

    #[test]
    fn cancel_after_flush_via_peek_is_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(1), 'a');
        q.cancel(a);
        // peek_time reclaims the cancelled entry from the heap; cancelling
        // again afterwards must still be a no-op returning false.
        assert_eq!(q.peek_time(), None);
        assert!(!q.cancel(a));
        assert_eq!(q.pending_upper_bound(), 0, "heap slot reclaimed");
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(1), 'a');
        q.schedule(Time::from_ticks(2), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Time::from_ticks(2)));
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_after_draining() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(1), ());
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn recycled_slot_does_not_resurrect_old_ids() {
        let mut q = EventQueue::new();
        let a = q.schedule(Time::from_ticks(5), 'a');
        assert!(q.cancel(a));
        // The slot is recycled with a bumped generation: the new event is
        // distinct and the old id stays dead.
        let b = q.schedule(Time::from_ticks(6), 'b');
        assert!(!q.cancel(a), "stale id must not cancel the recycled slot");
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
        assert!(!q.cancel(b));
    }

    /// The regression the slot-generation rewrite exists for: a workload
    /// that schedules and cancels far-future events millions of times must
    /// not accumulate memory — neither id-tracking state nor heap entries
    /// for long-cancelled events.
    #[test]
    fn memory_stays_bounded_across_a_million_schedule_cancel_cycles() {
        let mut q = EventQueue::new();
        // A long-lived anchor so the queue is never empty.
        q.schedule(Time::from_ticks(1 << 40), 0u64);
        for i in 0..1_000_000u64 {
            // Far-future event, cancelled before ever becoming due — under
            // the old lazy-tombstone scheme each left a heap entry behind
            // until its (distant) timestamp surfaced.
            let id = q.schedule(Time::from_ticks((1 << 30) + i), i);
            assert!(q.cancel(id));
            assert!(
                q.pending_upper_bound() <= COMPACT_MIN.max(4),
                "heap grew to {} entries after {} cycles",
                q.pending_upper_bound(),
                i + 1
            );
        }
        // Slot bookkeeping is recycled, not grown per cycle.
        assert!(q.slots.len() <= COMPACT_MIN.max(4));
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        assert!(q.is_empty());
    }

    /// The same regression for events due inside the ring: each cancel
    /// unlinks its event at once, so nothing accumulates at all.
    #[test]
    fn memory_stays_bounded_across_a_million_ring_schedule_cancel_cycles() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(1 << 40), 0u64);
        for i in 0..1_000_000u64 {
            let id = q.schedule(q.now() + Duration::from_ticks(5), i);
            assert!(q.cancel(id));
            assert_eq!(q.pending_upper_bound(), 1, "after {} cycles", i + 1);
        }
        assert_eq!(q.slots.len(), 2, "the anchor's slot and one recycled one");
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        assert!(q.is_empty());
    }

    /// Buckets are reused modulo the ring width: events behind the clock's
    /// bucket belong to the ring's last ticks, and one due exactly
    /// `RING_TICKS` after the clock waits in the far heap.
    #[test]
    fn ring_wraps_around_its_buckets() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(250), 0u32);
        assert_eq!(q.pop(), Some((Time::from_ticks(250), 0)));
        q.schedule(Time::from_ticks(250 + RING_TICKS - 1), 1); // bucket 249
        q.schedule(Time::from_ticks(260), 2); // bucket 4
        q.schedule(Time::from_ticks(250 + RING_TICKS), 3); // far heap
        q.schedule(Time::from_ticks(251), 4);
        assert_eq!(q.far.len(), 1);
        let order: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.ticks(), e))).collect();
        assert_eq!(order, vec![(251, 4), (260, 2), (505, 1), (506, 3)]);

        // A far event that the clock's advance brings to the ring's last
        // tick must precede a later-scheduled event at the same tick.
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(300), 'x');
        q.schedule(Time::from_ticks(45), 'a');
        assert_eq!(q.pop(), Some((Time::from_ticks(45), 'a')));
        q.schedule(Time::from_ticks(300), 'y');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['x', 'y']);

        // Many laps: a chain that keeps two events a ring width apart.
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO, 0u64);
        let mut seen = Vec::new();
        while let Some((t, i)) = q.pop() {
            seen.push(t.ticks());
            if i < 40 {
                q.schedule(t + Duration::from_ticks(RING_TICKS - 1), i + 1);
                q.schedule(t + Duration::from_ticks(RING_TICKS + 1), 1000 + i);
            }
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted, "pops stay in time order across laps");
        assert_eq!(seen.len(), 81);
    }

    /// With the ring empty, the next pop jumps the clock straight to the far
    /// heap's head; `pop_through` short of it leaves everything in place.
    #[test]
    fn time_jump_over_an_empty_ring() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ticks(5), 'a');
        assert_eq!(q.pop(), Some((Time::from_ticks(5), 'a')));
        let far = 1_000_000;
        q.schedule(Time::from_ticks(far + 300), 'd');
        q.schedule(Time::from_ticks(far), 'b');
        q.schedule(Time::from_ticks(far + 10), 'c');
        assert_eq!(q.pop_through(Time::from_ticks(far - 1)), None);
        assert!(!q.is_empty());
        assert_eq!(q.now(), Time::from_ticks(5));
        assert_eq!(q.peek_time(), Some(Time::from_ticks(far)));
        assert_eq!(
            q.pop_through(Time::from_ticks(far)),
            Some((Time::from_ticks(far), 'b'))
        );
        // The jump pulled `c` into the ring; `d` is still a ring width off.
        assert_eq!(q.far.len(), 1);
        q.schedule(q.now() + Duration::TICK, 'e');
        let order: Vec<(u64, char)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.ticks(), e))).collect();
        assert_eq!(
            order,
            vec![(far + 1, 'e'), (far + 10, 'c'), (far + 300, 'd')]
        );
    }

    mod oracle {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The calendar queue against a `BTreeMap` keyed by
            /// `(time, seq)`: random schedules (delays straddling the ring
            /// width, with occasional jumps far past it), cancels of live,
            /// delivered and cancelled ids, pops, peeks and bounded pops
            /// must agree step by step.
            #[test]
            fn calendar_queue_matches_a_sorted_map(
                ops in proptest::collection::vec((0u64..100, 0u64..u64::MAX), 1..800),
            ) {
                let mut q = EventQueue::new();
                let mut oracle: BTreeMap<(Time, u64), u64> = BTreeMap::new();
                let mut ids: Vec<(EventId, (Time, u64))> = Vec::new();
                let mut next_seq = 0u64;
                for (kind, arg) in ops {
                    match kind {
                        0..=44 => {
                            let delay = match kind {
                                0..=29 => arg % (3 * RING_TICKS + 1),
                                // Right around the ring's edge.
                                30..=39 => RING_TICKS - 2 + arg % 4,
                                _ => 50 * RING_TICKS + arg % (1 << 20),
                            };
                            let at = q.now() + Duration::from_ticks(delay);
                            let id = q.schedule(at, next_seq);
                            oracle.insert((at, next_seq), next_seq);
                            ids.push((id, (at, next_seq)));
                            next_seq += 1;
                        }
                        45..=64 => {
                            if !ids.is_empty() {
                                let (id, key) = ids[(arg % ids.len() as u64) as usize];
                                let expect = oracle.remove(&key).is_some();
                                prop_assert_eq!(q.cancel(id), expect);
                            }
                        }
                        65..=79 => {
                            let expect = oracle.pop_first().map(|((at, _), e)| (at, e));
                            prop_assert_eq!(q.pop(), expect);
                        }
                        80..=89 => {
                            let expect = oracle.keys().next().map(|&(at, _)| at);
                            prop_assert_eq!(q.peek_time(), expect);
                        }
                        _ => {
                            let horizon = q.now() + Duration::from_ticks(arg % (2 * RING_TICKS));
                            let due = oracle.keys().next().is_some_and(|&(at, _)| at <= horizon);
                            let expect = if due {
                                oracle.pop_first().map(|((at, _), e)| (at, e))
                            } else {
                                None
                            };
                            prop_assert_eq!(q.pop_through(horizon), expect);
                            prop_assert_eq!(q.is_empty(), oracle.is_empty());
                        }
                    }
                    prop_assert!(q.pending_upper_bound() >= oracle.len());
                }
                let drained: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop()).collect();
                let expect: Vec<(Time, u64)> =
                    oracle.into_iter().map(|((at, _), e)| (at, e)).collect();
                prop_assert_eq!(drained, expect);
            }
        }
    }

    #[test]
    fn compaction_preserves_order_and_liveness() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        let mut drop_ids = Vec::new();
        for i in 0..200u64 {
            let id = q.schedule(Time::from_ticks(1000 - i), i);
            if i % 2 == 0 {
                keep.push(i);
            } else {
                drop_ids.push(id);
            }
        }
        for id in drop_ids {
            assert!(q.cancel(id));
        }
        assert!(
            q.pending_upper_bound() < 200,
            "compaction must have reclaimed cancelled entries"
        );
        let mut order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let mut expected = keep;
        expected.sort_by_key(|&i| 1000 - i);
        assert_eq!(order.len(), expected.len());
        order.sort_by_key(|&i| 1000 - i);
        order.reverse();
        expected.reverse();
        assert_eq!(order, expected);
    }
}
