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
//!   `[base, base + RING_TICKS)`, where `base` is the time of the last
//!   popped event. Each bucket is a FIFO doubly linked list threaded
//!   through the slot table, and a 256-bit occupancy bitmap finds the next
//!   non-empty tick in at most five word tests, so scheduling into the
//!   ring and popping from it are O(1);
//! * a **far heap** (`BinaryHeap` of `(time, seq, slot, generation)`
//!   keys) for events due at or beyond `base + RING_TICKS` (fault plans,
//!   `inject_at`, long timers). Whenever `base` advances, the far events
//!   that now fall inside the ring move into their buckets in
//!   `(time, seq)` order.
//!
//! Inside a bucket, FIFO order is `(time, seq)` order because sequence
//! numbers only grow. The one exception is the sharded queue's barrier
//! merge, which can push an event with an older sequence number into a
//! bucket that already holds newer ones; [`EventQueue::push_entry`]
//! inserts it by walking back from the bucket's tail.
//!
//! ## Cancellation: slot-generation ids
//!
//! An [`EventId`] is a `(slot, generation)` pair. Cancelling or delivering
//! an event bumps its slot's generation, which invalidates the id, and
//! recycles the slot for the next `schedule` — no hash-set tombstones, no
//! per-event hashing on the hot path. A ring event is cancelled
//! **eagerly**: it is unlinked from its bucket in O(1) and its payload
//! dropped. A far-heap event drops its payload too, but its key is
//! cancelled **lazily**, as is an event the threaded sharded drain has
//! already extracted: the stale key or entry is skipped (and reclaimed)
//! when it surfaces, and the far heap is compacted in place whenever
//! cancelled keys outnumber live ones. Queue memory therefore stays
//! proportional to the number of *live* events even across millions of
//! schedule/cancel cycles.

use crate::time::{Duration, Time};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

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

/// A fully keyed event the sharded queue holds outside its shards' event
/// queues: in an extracted run or in the overlay heap.
struct Entry<E> {
    at: Time,
    seq: u64,
    slot: u32,
    generation: u32,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
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
        // Earliest-first, as for `Entry`; sequence numbers are unique.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Minimum far-heap size before compaction is considered (avoids churn on
/// tiny heaps where the stale keys are cheaper than a rebuild).
const COMPACT_MIN: usize = 64;

/// Width of the [`EventQueue`] calendar ring, in ticks: an event due less
/// than `RING_TICKS` after the ring base goes into a one-tick bucket, a
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

/// `Slot::prev` of a slot that is not linked into the ring: its event
/// waits in the far heap, was handed out to the sharded queue, or is not
/// queued yet.
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
    /// The payload while the event is queued here (ring or far heap).
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
    /// Start of the ring: every live event due before
    /// `base + RING_TICKS` is linked into a bucket. Never later than the
    /// earliest pending event.
    base: Time,
    /// Events linked into the ring.
    ring_len: usize,
    /// Keys of the events due at or beyond `base + RING_TICKS`.
    far: BinaryHeap<FarKey>,
    /// Lazily cancelled entries not yet reclaimed: far-heap keys, plus
    /// events the sharded queue holds outside this queue.
    stale: usize,
    next_seq: u64,
    now: Time,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            buckets: Box::new([(NIL, NIL); RING]),
            occupied: [0; BITMAP_WORDS],
            base: Time::ZERO,
            ring_len: 0,
            far: BinaryHeap::new(),
            stale: 0,
            next_seq: 0,
            now: Time::ZERO,
            popped: 0,
        }
    }

    /// The current simulated time: the timestamp of the last popped event
    /// (or [`Time::ZERO`] initially). Monotonically non-decreasing.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute time `at`.
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
        let id = self.alloc_slot();
        self.push_entry(at, seq, id, event);
        id
    }

    /// Reserves a slot (stamped with its current generation) without
    /// queueing anything — the caller owns delivering the event later via
    /// [`push_entry`](EventQueue::push_entry). Used by the sharded queue's
    /// outboxes, where the id must exist (for cancellation) before the
    /// event is merged into the queue at the next barrier.
    fn alloc_slot(&mut self) -> EventId {
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
        EventId {
            slot,
            generation: self.slots[slot as usize].generation,
        }
    }

    /// Whether `id` still names a pending (or reserved) event.
    fn is_live(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|s| s.generation == id.generation)
    }

    /// Queues a fully specified event for a slot reserved with
    /// [`alloc_slot`](EventQueue::alloc_slot): into its ring bucket, or
    /// into the far heap. The `(at, seq)` pair is the caller's: the
    /// sharded queue assigns sequence numbers from a single shared counter
    /// so the merged order equals the sequential one, and its barrier
    /// merge may hand over an older `seq` than the bucket already holds.
    fn push_entry(&mut self, at: Time, seq: u64, id: EventId, event: E) {
        debug_assert!(at >= self.base, "{at:?} precedes the ring base");
        self.slots[id.slot as usize].event = Some(event);
        if at.ticks() - self.base.ticks() < RING_TICKS {
            self.link(id.slot, at, seq);
        } else {
            self.far.push(FarKey {
                at,
                seq,
                slot: id.slot,
                generation: id.generation,
            });
        }
    }

    /// Links `slot` into the bucket of `at`, after the last entry with a
    /// smaller sequence number: an append, unless an older sequence number
    /// arrives late, which walks back from the tail.
    fn link(&mut self, slot: u32, at: Time, seq: u64) {
        let b = bucket_of(at);
        let (head, tail) = self.buckets[b];
        let mut after = tail;
        while after != NIL && self.slots[after as usize].seq > seq {
            after = self.slots[after as usize].prev;
        }
        let before = if after == NIL {
            head
        } else {
            self.slots[after as usize].next
        };
        let s = &mut self.slots[slot as usize];
        s.prev = after;
        s.next = before;
        s.seq = seq;
        s.at = at;
        if after == NIL {
            self.buckets[b].0 = slot;
        } else {
            self.slots[after as usize].next = slot;
        }
        if before == NIL {
            self.buckets[b].1 = slot;
        } else {
            self.slots[before as usize].prev = slot;
        }
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

    /// The first non-empty bucket in ring order from the base's bucket:
    /// the bucket of the earliest ring event.
    fn next_bucket(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        let start = bucket_of(self.base);
        let (word, bit) = (start / 64, start % 64);
        let ahead = self.occupied[word] & (u64::MAX << bit);
        if ahead != 0 {
            return Some(word * 64 + ahead.trailing_zeros() as usize);
        }
        for step in 1..=BITMAP_WORDS {
            let w = (word + step) % BITMAP_WORDS;
            let bits = if step == BITMAP_WORDS {
                // Back at the base's word: the buckets behind it, which
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

    /// Moves the ring base forward to `base` and links the far events now
    /// inside the ring into their buckets, in `(time, seq)` order. Those
    /// buckets are empty beforehand: the ring held nothing past the old
    /// `base + RING_TICKS`.
    fn advance_base(&mut self, base: Time) {
        self.base = base;
        while let Some(&key) = self.far.peek() {
            if key.at.ticks() - base.ticks() >= RING_TICKS {
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
    /// `through`, advancing the ring base to its time. Returns its
    /// `(time, seq, slot, event)`; the slot is left allocated, with its
    /// generation, for the caller to retire.
    fn take_next(&mut self, through: Time) -> Option<(Time, u64, u32, E)> {
        let Some(b) = self.next_bucket() else {
            // Empty ring: the far heap's head is next. Take it straight
            // from the heap and jump the base to it, which pulls the rest
            // of the new ring's span in.
            let key = self.far_head()?;
            if key.at > through {
                return None;
            }
            self.far.pop();
            self.advance_base(key.at);
            let event = self.slots[key.slot as usize]
                .event
                .take()
                .expect("a live far key's slot holds its event");
            return Some((key.at, key.seq, key.slot, event));
        };
        let slot = self.buckets[b].0;
        let (at, seq) = {
            let s = &self.slots[slot as usize];
            (s.at, s.seq)
        };
        if at > through {
            return None;
        }
        if at > self.base {
            self.advance_base(at);
        }
        let event = self.unlink(slot);
        Some((at, seq, slot, event))
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
        if !self.is_live(id) {
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
        let (at, _, slot, event) = self.take_next(horizon)?;
        self.retire(slot);
        self.now = at;
        self.popped += 1;
        Some((at, event))
    }

    /// Timestamp of the next pending event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.peek_key().map(|(at, _)| at)
    }

    /// `(time, sequence)` key of the next pending event without removing
    /// it — the total order the sharded queue's K-way merge selects on.
    fn peek_key(&mut self) -> Option<(Time, u64)> {
        if let Some(b) = self.next_bucket() {
            let s = &self.slots[self.buckets[b].0 as usize];
            return Some((s.at, s.seq));
        }
        self.far_head().map(|key| (key.at, key.seq))
    }

    /// Drains every event with `at < end` into `out`, in `(time, seq)`
    /// order, **without** retiring slot generations — the threaded
    /// sharded drain extracts a window's events on a worker thread and
    /// defers retirement to the coordinator's canonical consume, so
    /// post-extraction cancels still observe a live id (and take the lazy
    /// path). Stale far-heap keys met on the way are reclaimed.
    fn extract_window(&mut self, end: Time, out: &mut VecDeque<Entry<E>>) {
        let Some(last) = end.ticks().checked_sub(1) else {
            return;
        };
        while let Some((at, seq, slot, event)) = self.take_next(Time::from_ticks(last)) {
            out.push_back(Entry {
                at,
                seq,
                slot,
                generation: self.slots[slot as usize].generation,
                event,
            });
        }
    }

    /// Merges a barrier inbox into the queue: live entries are pushed with
    /// their original `(at, seq)` key, cancelled-while-buffered entries are
    /// dropped and the stale counter rebalanced (their cancel counted a
    /// lazy entry that was never pushed).
    fn integrate_inbox(&mut self, inbox: &mut Vec<Inboxed<E>>) {
        // Canonical per-destination batch order (determinism rule 5): the
        // pop order is independent of push order, but the batch order
        // stays the documented `(tick, seq)` one, which also makes every
        // bucket insertion an append.
        inbox.sort_unstable_by_key(|i| (i.at, i.seq));
        for i in inbox.drain(..) {
            if self.is_live(i.id) {
                self.push_entry(i.at, i.seq, i.id, i.event);
            } else {
                self.stale = self.stale.saturating_sub(1);
            }
        }
    }

    /// Returns `true` if no deliverable events remain.
    pub fn is_empty(&mut self) -> bool {
        self.peek_key().is_none()
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
            .field("delivered", &self.popped)
            .finish()
    }
}

/// Shard index bits in a sharded [`EventId`]'s slot word: the top
/// [`SHARD_BITS`] identify the shard, the low bits the slot within it.
const SHARD_BITS: u32 = 8;
const SHARD_SHIFT: u32 = 32 - SHARD_BITS;
const LOCAL_SLOT_MASK: u32 = (1 << SHARD_SHIFT) - 1;

/// Maximum shard count a [`ShardedEventQueue`] supports (the shard index
/// must fit in the top `SHARD_BITS` bits of an [`EventId`] slot).
pub const MAX_SHARDS: usize = 1 << SHARD_BITS;

/// One cross-shard event parked until the next window barrier: it already
/// owns its global sequence number and a reserved slot in the destination
/// shard (so cancellation works while parked), but it only enters the
/// destination queue at the barrier.
struct Outboxed<E> {
    dest: u32,
    at: Time,
    seq: u64,
    id: EventId,
    event: E,
}

/// One event buffered for a *future* window under the threaded drain: it
/// owns its global sequence number and a reserved slot on the destination
/// shard (so cancellation works while buffered), and a worker thread
/// integrates it into the destination queue at the next barrier.
struct Inboxed<E> {
    at: Time,
    seq: u64,
    /// Local (unpacked) id on the destination shard.
    id: EventId,
    event: E,
}

/// Window-width policy for the threaded sharded drain.
///
/// Under the threaded drain the delivered event stream is provably
/// independent of the window width — the coordinator always consumes the
/// global `(time, seq)` minimum — so the width is a pure performance knob:
/// wider windows amortize barrier (thread-spawn and rendezvous) overhead,
/// narrower windows bound the extracted-run working set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WindowTuning {
    /// Keep the conservative `min(F_prog, F_ack)` width on every window —
    /// barrier placement (and hence [`ShardStats`]) matches the fused
    /// single-core coordinator exactly.
    #[default]
    Fixed,
    /// Retune the width at every barrier from the measured
    /// [`lookahead_misses`](ShardStats::lookahead_misses) and
    /// [`barrier_slack_ticks`](ShardStats::barrier_slack_ticks): widen
    /// (up to 8x the base) while cross-shard misses stay rare, narrow back
    /// toward the base when per-shard slack balloons. Deterministic — the
    /// inputs are simulated-time quantities, never wall clock.
    Adaptive,
}

/// Widest adaptive window, as a multiple of the base conservative width.
const MAX_WINDOW_FACTOR: u64 = 8;

/// Wall-clock self-profile of one barrier worker under the threaded drain
/// (nondeterministic side channel, like the rest of [`ShardProfile`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerLane {
    /// Nanoseconds doing useful work inside barrier scopes (inbox
    /// integration, stale purging, window extraction).
    pub busy_nanos: u64,
    /// Nanoseconds blocked on the in-scope rendezvous waiting for the
    /// slowest worker of the barrier.
    pub barrier_wait_nanos: u64,
    /// Nanoseconds between barrier scopes — the coordinator's serial
    /// canonical consume phase, during which no worker exists.
    pub idle_nanos: u64,
}

/// Per-worker signature of one barrier scope: `(busy, rendezvous-wait)`
/// nanoseconds, zero when profiling is off.
type WorkerScopeNanos = (u64, u64);

/// Everything a barrier crossing needs, bundled so the scoped-thread
/// driver can be stored as a plain fn pointer (see
/// [`ThreadedState::drive`]).
struct BarrierJob<'a, E> {
    shards: &'a mut [EventQueue<E>],
    inboxes: &'a mut [Vec<Inboxed<E>>],
    runs: &'a mut [VecDeque<Entry<E>>],
    threads: usize,
    width: Duration,
    profiling: bool,
}

/// State of the thread-per-shard drain mode, present only after
/// [`ShardedEventQueue::enable_threaded_drain`].
struct ThreadedState<E> {
    /// Worker threads per barrier (clamped to the shard count).
    threads: usize,
    /// Per-shard sorted runs of the current window, extracted from the
    /// shard queues by the barrier workers and consumed front-to-back by the
    /// coordinator's global `(time, seq)` argmin.
    runs: Vec<VecDeque<Entry<E>>>,
    /// Events scheduled *inside* the current window (same- or cross-shard
    /// zero-lookahead spawns): the shard queues are already extracted, so
    /// these merge through a coordinator-local overlay heap. Entries pack
    /// the destination shard into the slot word like public ids.
    overlay: BinaryHeap<Entry<E>>,
    /// Per shard: overlay entries destined for it (pending accounting).
    overlay_per_shard: Vec<usize>,
    /// Per destination shard: events buffered for future windows,
    /// integrated into the shard queues by the barrier workers.
    inboxes: Vec<Vec<Inboxed<E>>>,
    /// Total entries across all inboxes (cheap emptiness/compaction test).
    inbox_len: usize,
    /// Successful cancels since the inboxes/overlay were last compacted —
    /// the same stale-versus-live policy as the far heaps, so schedule/cancel
    /// churn of buffered events cannot grow memory between barriers.
    buffered_cancels: usize,
    /// Current window width (equals `base_width` under
    /// [`WindowTuning::Fixed`]).
    width: Duration,
    /// The conservative `min(F_prog, F_ack)` base width.
    base_width: Duration,
    tuning: WindowTuning,
    /// Snapshots at the previous barrier, for the adaptive retune.
    popped_at_barrier: u64,
    misses_at_barrier: u64,
    /// The scoped-thread barrier driver, monomorphized under `E: Send` at
    /// [`enable_threaded_drain`](ShardedEventQueue::enable_threaded_drain)
    /// and stored as a plain fn pointer so the unbounded `pop`/`peek`
    /// paths can invoke it. Returns the next window start (the earliest
    /// live event anywhere), or `None` when nothing deliverable remains.
    drive: DriveFn<E>,
    /// Wall-clock instant the last barrier scope ended (worker idle
    /// accounting; profiling only).
    last_scope_end: Option<std::time::Instant>,
}

/// Signature of the monomorphized scoped-thread barrier driver stored in
/// [`ThreadedState::drive`]: runs one window barrier and returns the next
/// window start plus the per-worker wall-clock lanes of the scope.
type DriveFn<E> = for<'a> fn(BarrierJob<'a, E>) -> (Option<Time>, Vec<WorkerScopeNanos>);

/// Source of the next threaded-consume candidate.
#[derive(Clone, Copy)]
enum RunSrc {
    Run(usize),
    Overlay,
}

/// Synchronization statistics of a [`ShardedEventQueue`], all in simulated
/// ticks and event counts — fully deterministic, byte-identical across
/// machines (no wall clock).
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Conservative lookahead window width, in ticks.
    pub window_ticks: u64,
    /// Window barriers crossed (outbox flushes).
    pub barriers: u64,
    /// Cross-shard events scheduled at or beyond the next barrier —
    /// batched in an outbox and merged at the barrier in canonical
    /// `(tick, shard, sequence)` order.
    pub outboxed: u64,
    /// Cross-shard events scheduled *inside* the current window — the
    /// conservative lookahead `min(F_prog, F_ack)` cannot defer these, so
    /// the fused coordinator routes them immediately. In a thread-per-shard
    /// deployment each one is a synchronization point; the counter
    /// quantifies how conservative the windowing is for a workload.
    pub lookahead_misses: u64,
    /// Per shard: peak pending events (queued entries plus parked outbox
    /// entries destined for the shard).
    pub peak_pending: Vec<usize>,
    /// Per shard: accumulated idle ticks at window barriers — for each
    /// barrier, how long before the window's end the shard ran out of its
    /// own events (the simulated-time analogue of barrier-wait).
    pub barrier_slack_ticks: Vec<u64>,
}

impl ShardStats {
    /// Largest per-shard peak pending count.
    pub fn max_peak_pending(&self) -> usize {
        self.peak_pending.iter().copied().max().unwrap_or(0)
    }

    /// Total barrier-slack ticks summed over all shards.
    pub fn total_slack_ticks(&self) -> u64 {
        self.barrier_slack_ticks.iter().sum()
    }

    /// Folds another run's statistics into this one — used by the bench
    /// engine to aggregate per-trial stats across a sweep. Counters sum,
    /// peaks take the elementwise maximum, and the configuration fields
    /// (`shards`, `window_ticks`) take the maximum so a default-initialised
    /// accumulator is the identity. Commutative and associative, so the
    /// fold result is independent of trial scheduling.
    pub fn merge(&mut self, other: &ShardStats) {
        self.shards = self.shards.max(other.shards);
        self.window_ticks = self.window_ticks.max(other.window_ticks);
        self.barriers += other.barriers;
        self.outboxed += other.outboxed;
        self.lookahead_misses += other.lookahead_misses;
        if self.peak_pending.len() < other.peak_pending.len() {
            self.peak_pending.resize(other.peak_pending.len(), 0);
        }
        for (mine, theirs) in self.peak_pending.iter_mut().zip(&other.peak_pending) {
            *mine = (*mine).max(*theirs);
        }
        if self.barrier_slack_ticks.len() < other.barrier_slack_ticks.len() {
            self.barrier_slack_ticks
                .resize(other.barrier_slack_ticks.len(), 0);
        }
        for (mine, theirs) in self
            .barrier_slack_ticks
            .iter_mut()
            .zip(&other.barrier_slack_ticks)
        {
            *mine += *theirs;
        }
    }
}

/// Wall-clock self-profiling of a [`ShardedEventQueue`], captured only
/// when [`enable_profiling`](ShardedEventQueue::enable_profiling) was
/// called.
///
/// **Nondeterministic side channel.** Everything here is measured with
/// [`std::time::Instant`] and varies run to run and machine to machine —
/// it must never feed back into execution or into any deterministic
/// output surface (the metrics layer emits it under a clearly-labelled
/// `"nondeterministic"` member; see `docs/OBSERVABILITY.md`).
#[derive(Clone, Debug, Default)]
pub struct ShardProfile {
    /// Wall-clock nanoseconds spent *between* pops inside windows — the
    /// caller's event-processing time, the phase a thread-per-shard
    /// deployment would parallelise.
    pub drain_nanos: u64,
    /// Wall-clock nanoseconds spent in barrier slack accounting.
    pub barrier_nanos: u64,
    /// Wall-clock nanoseconds spent sorting and flushing the cross-shard
    /// outbox at barriers (the K-way merge phase).
    pub merge_nanos: u64,
    /// Per shard: drain nanoseconds attributed to events popped from the
    /// shard. `busy_nanos[s] / drain_nanos` is the shard's busy fraction.
    pub busy_nanos: Vec<u64>,
    /// Per barrier worker under the threaded drain: busy / rendezvous-wait
    /// / between-scope idle nanoseconds. Empty on the fused (single-core)
    /// coordinator.
    pub workers: Vec<WorkerLane>,
    /// Decimated [`ShardStats`] time series sampled at window barriers
    /// (at most [`ShardProfile::MAX_SAMPLES`] entries; the sampling
    /// stride doubles when full).
    pub samples: Vec<ShardSample>,
}

impl ShardProfile {
    /// Upper bound on the length of [`samples`](ShardProfile::samples).
    pub const MAX_SAMPLES: usize = 64;

    /// Total profiled wall-clock nanoseconds across all three phases.
    pub fn total_nanos(&self) -> u64 {
        self.drain_nanos + self.barrier_nanos + self.merge_nanos
    }
}

/// One sample of the sharded queue's state, taken at a window barrier.
/// The sampled values are simulated-time quantities (deterministic); the
/// *existence* of the sample rides in the profiling side channel.
#[derive(Clone, Copy, Debug)]
pub struct ShardSample {
    /// Simulated tick of the barrier (the closing window's end).
    pub at_ticks: u64,
    /// Barriers crossed so far, this one included.
    pub barriers: u64,
    /// Pending events across all shards just after the outbox flush.
    pub pending: usize,
    /// Cross-shard events outboxed so far.
    pub outboxed: u64,
}

/// Internal wall-clock profiling state, boxed so the default
/// (profiling off) costs one pointer and one branch per pop.
struct ProfileState {
    profile: ShardProfile,
    /// Instant the last pop returned, plus the popped event's shard: the
    /// gap to the next pop is the caller's processing time for that
    /// shard's event.
    last: Option<(std::time::Instant, usize)>,
    /// Current sampling stride in barriers (doubles when full).
    stride: u64,
}

/// A sharded pending-event queue that reproduces the sequential
/// [`EventQueue`]'s total order **exactly**, for every schedule/cancel
/// pattern and every shard count.
///
/// Structure: one inner [`EventQueue`] per shard, but a **single shared
/// sequence counter** — every `schedule` call draws the same sequence
/// number it would have drawn from one global queue, so the `(time, seq)`
/// key of every event is identical to the sequential execution's.
/// [`pop`](ShardedEventQueue::pop) is a K-way merge: the argmin over the
/// shard heads by `(time, seq)`. Byte-identical event order versus the
/// sequential queue is therefore a property *by construction*, not a
/// property of the workload — the differential suite
/// (`tests/shard_equivalence.rs`) checks it end to end anyway.
///
/// ## Conservative time windows
///
/// Shards advance through windows of a fixed lookahead `L` (the MAC
/// layer passes `min(F_prog, F_ack)`): within the window `[w, w+L)` every
/// popped event has time `< w+L`, and a cross-shard event scheduled at or
/// beyond `w+L` is **not** inserted into the destination queue immediately
/// — it is parked in an outbox and merged at the barrier, batched with
/// everything else that crossed shards this window, in canonical
/// `(tick, destination shard, sequence)` order. Parking is order-safe
/// precisely because of the window invariant: nothing with time `≥ w+L`
/// can be popped before the barrier, so deferring the insertion is
/// unobservable. Cross-shard events *inside* the window (zero-delay
/// chains, deliveries faster than the lookahead) are routed immediately
/// and counted as [`lookahead_misses`](ShardStats::lookahead_misses).
///
/// # Examples
///
/// ```
/// use amac_sim::{Duration, ShardedEventQueue, Time};
///
/// let mut q = ShardedEventQueue::new(2, Duration::from_ticks(4));
/// q.schedule(0, Time::from_ticks(2), "left");
/// q.schedule(1, Time::from_ticks(1), "right");
/// assert_eq!(q.pop(), Some((Time::from_ticks(1), "right")));
/// assert_eq!(q.pop(), Some((Time::from_ticks(2), "left")));
/// ```
pub struct ShardedEventQueue<E> {
    shards: Vec<EventQueue<E>>,
    outbox: Vec<Outboxed<E>>,
    /// Outbox entries per destination shard (for peak-pending tracking).
    outboxed_per_shard: Vec<usize>,
    window: Duration,
    window_start: Time,
    window_end: Time,
    now: Time,
    next_seq: u64,
    popped: u64,
    /// Shard of the most recently popped event: the *source* shard of any
    /// schedule call made while processing it.
    current_shard: Option<usize>,
    /// Per shard: time of its last popped event (for barrier slack).
    last_pop: Vec<Time>,
    /// Successful cancels since the outbox was last compacted — an upper
    /// bound on the cancelled entries parked there, driving the same
    /// stale-versus-live compaction policy as the far heaps.
    outbox_cancels: usize,
    stats: ShardStats,
    /// Wall-clock self-profiling, opt-in (see [`ShardProfile`]).
    profiling: Option<Box<ProfileState>>,
    /// Thread-per-shard drain mode, opt-in (see
    /// [`enable_threaded_drain`](ShardedEventQueue::enable_threaded_drain)).
    threaded: Option<Box<ThreadedState<E>>>,
}

impl<E> ShardedEventQueue<E> {
    /// Creates an empty `k`-shard queue with conservative lookahead
    /// `window`, clock at [`Time::ZERO`].
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ MAX_SHARDS` and `window ≥ 1` tick.
    pub fn new(k: usize, window: Duration) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&k),
            "shard count {k} outside 1..={MAX_SHARDS}"
        );
        assert!(
            window.ticks() >= 1,
            "conservative window must be at least one tick"
        );
        ShardedEventQueue {
            shards: (0..k).map(|_| EventQueue::new()).collect(),
            outbox: Vec::new(),
            outboxed_per_shard: vec![0; k],
            window,
            window_start: Time::ZERO,
            window_end: Time::ZERO + window,
            now: Time::ZERO,
            next_seq: 0,
            popped: 0,
            current_shard: None,
            last_pop: vec![Time::ZERO; k],
            outbox_cancels: 0,
            profiling: None,
            threaded: None,
            stats: ShardStats {
                shards: k,
                window_ticks: window.ticks(),
                peak_pending: vec![0; k],
                barrier_slack_ticks: vec![0; k],
                ..ShardStats::default()
            },
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// A snapshot of the synchronization statistics.
    pub fn stats(&self) -> ShardStats {
        self.stats.clone()
    }

    /// Turns on wall-clock self-profiling (phase breakdown, per-shard
    /// busy time, a decimated [`ShardStats`] timeline). Off by default:
    /// the deterministic execution pays nothing for the instrumentation.
    pub fn enable_profiling(&mut self) {
        if self.profiling.is_none() {
            self.profiling = Some(Box::new(ProfileState {
                profile: ShardProfile {
                    busy_nanos: vec![0; self.shards.len()],
                    ..ShardProfile::default()
                },
                last: None,
                stride: 1,
            }));
        }
    }

    /// A snapshot of the wall-clock self-profile, or `None` when
    /// [`enable_profiling`](ShardedEventQueue::enable_profiling) was
    /// never called.
    pub fn profile(&self) -> Option<ShardProfile> {
        self.profiling.as_ref().map(|p| p.profile.clone())
    }

    /// Schedules `event` on `shard` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at < now()`, `shard` is out of range, or the shard
    /// exceeds its 2²⁴-slot capacity of concurrently scheduled events.
    pub fn schedule(&mut self, shard: usize, at: Time, event: E) -> EventId {
        assert!(shard < self.shards.len(), "shard {shard} out of range");
        assert!(
            at >= self.now,
            "cannot schedule at {at:?}, current time is {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let local = self.shards[shard].alloc_slot();
        assert!(
            local.slot <= LOCAL_SLOT_MASK,
            "shard {shard} exceeded its concurrent-event capacity"
        );
        let cross = self.current_shard.is_some_and(|src| src != shard);
        let pending = if let Some(ts) = &mut self.threaded {
            // Threaded drain: the shard queues were extracted up to `window_end`,
            // so in-window events merge through the coordinator's overlay
            // and future events are buffered for worker-side integration
            // at the next barrier. The counters keep the fused semantics:
            // `outboxed`/`lookahead_misses` count *cross-shard* traffic.
            if at >= self.window_end {
                ts.inboxes[shard].push(Inboxed {
                    at,
                    seq,
                    id: local,
                    event,
                });
                ts.inbox_len += 1;
                if cross {
                    self.stats.outboxed += 1;
                }
            } else {
                if cross {
                    self.stats.lookahead_misses += 1;
                }
                ts.overlay.push(Entry {
                    at,
                    seq,
                    slot: ((shard as u32) << SHARD_SHIFT) | local.slot,
                    generation: local.generation,
                    event,
                });
                ts.overlay_per_shard[shard] += 1;
            }
            self.shards[shard].pending_upper_bound()
                + ts.inboxes[shard].len()
                + ts.runs[shard].len()
                + ts.overlay_per_shard[shard]
        } else {
            if cross && at >= self.window_end {
                // Order-safe to park: nothing at or beyond the barrier can
                // be popped before the outbox is flushed there.
                self.outbox.push(Outboxed {
                    dest: shard as u32,
                    at,
                    seq,
                    id: local,
                    event,
                });
                self.outboxed_per_shard[shard] += 1;
                self.stats.outboxed += 1;
            } else {
                if cross {
                    self.stats.lookahead_misses += 1;
                }
                self.shards[shard].push_entry(at, seq, local, event);
            }
            self.shards[shard].pending_upper_bound() + self.outboxed_per_shard[shard]
        };
        if pending > self.stats.peak_pending[shard] {
            self.stats.peak_pending[shard] = pending;
        }
        EventId {
            slot: ((shard as u32) << SHARD_SHIFT) | local.slot,
            generation: local.generation,
        }
    }

    /// Schedules `event` on `shard` after a relative delay from now.
    pub fn schedule_after(&mut self, shard: usize, delay: Duration, event: E) -> EventId {
        self.schedule(shard, self.now + delay, event)
    }

    /// Cancels a previously scheduled event (parked or queue-resident).
    /// Same semantics as [`EventQueue::cancel`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        let shard = (id.slot >> SHARD_SHIFT) as usize;
        if shard >= self.shards.len() {
            return false;
        }
        let cancelled = self.shards[shard].cancel(EventId {
            slot: id.slot & LOCAL_SLOT_MASK,
            generation: id.generation,
        });
        if cancelled {
            // The cancel may have hit a parked outbox entry; compact the
            // outbox once cancels could account for half of it (amortized
            // O(1) per cancel, same policy as the far-heap compaction), so
            // schedule/cancel churn of parked events cannot grow memory.
            self.outbox_cancels += 1;
            if self.outbox.len() >= COMPACT_MIN && self.outbox_cancels * 2 >= self.outbox.len() {
                self.compact_outbox();
            }
            if let Some(ts) = &mut self.threaded {
                // Same policy for the threaded drain's between-barrier
                // buffers (inboxes and overlay).
                ts.buffered_cancels += 1;
                let buffered = ts.inbox_len + ts.overlay.len();
                if buffered >= COMPACT_MIN && ts.buffered_cancels * 2 >= buffered {
                    self.compact_buffers();
                }
            }
        }
        cancelled
    }

    /// Drops threaded-drain buffer entries (inbox and overlay) whose slot
    /// generation no longer matches, rebalancing the per-shard stale
    /// counters exactly like [`compact_outbox`](Self::compact_outbox).
    fn compact_buffers(&mut self) {
        let ts = self.threaded.as_mut().expect("threaded drain enabled");
        let ThreadedState {
            inboxes,
            overlay,
            overlay_per_shard,
            inbox_len,
            buffered_cancels,
            ..
        } = &mut **ts;
        let shards = &mut self.shards;
        for (shard, inbox) in inboxes.iter_mut().enumerate() {
            let q = &mut shards[shard];
            inbox.retain(|i| {
                let live = q.is_live(i.id);
                if !live {
                    *inbox_len -= 1;
                    q.stale = q.stale.saturating_sub(1);
                }
                live
            });
        }
        overlay.retain(|e| {
            let shard = (e.slot >> SHARD_SHIFT) as usize;
            let live = shards[shard].is_live(EventId {
                slot: e.slot & LOCAL_SLOT_MASK,
                generation: e.generation,
            });
            if !live {
                overlay_per_shard[shard] -= 1;
                shards[shard].stale = shards[shard].stale.saturating_sub(1);
            }
            live
        });
        *buffered_cancels = 0;
    }

    /// Drops outbox entries whose slot generation no longer matches (they
    /// were cancelled while parked), rebalancing the per-shard stale
    /// counters exactly like the barrier flush does.
    fn compact_outbox(&mut self) {
        let mut kept = Vec::with_capacity(self.outbox.len());
        for o in std::mem::take(&mut self.outbox) {
            let dest = o.dest as usize;
            if self.shards[dest].is_live(o.id) {
                kept.push(o);
            } else {
                self.outboxed_per_shard[dest] -= 1;
                self.shards[dest].stale = self.shards[dest].stale.saturating_sub(1);
            }
        }
        self.outbox = kept;
        self.outbox_cancels = 0;
    }

    /// Removes and returns the earliest pending event across all shards,
    /// advancing the clock. The total order is exactly the sequential
    /// queue's `(time, sequence)` order.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if let Some(p) = &mut self.profiling {
            // The gap since the previous pop returned is the caller's
            // processing time for that pop's event — the drain phase,
            // attributed to the previously popped shard.
            if let Some((then, prev_shard)) = p.last.take() {
                let gap = u64::try_from(then.elapsed().as_nanos()).unwrap_or(u64::MAX);
                p.profile.drain_nanos += gap;
                p.profile.busy_nanos[prev_shard] += gap;
            }
        }
        let popped = if self.threaded.is_some() {
            self.pop_threaded()
        } else {
            self.pop_fused()
        };
        if popped.is_some() {
            if let Some(p) = &mut self.profiling {
                let shard = self.current_shard.expect("a pop just succeeded");
                p.last = Some((std::time::Instant::now(), shard));
            }
        }
        popped
    }

    /// The fused (single-core) coordinator's pop: K-way argmin over the
    /// shard heads via [`settle`](Self::settle).
    fn pop_fused(&mut self) -> Option<(Time, E)> {
        let shard = self.settle()?;
        let (at, event) = self.shards[shard]
            .pop()
            .expect("settle returned a shard with a live head");
        self.now = at;
        self.popped += 1;
        self.current_shard = Some(shard);
        self.last_pop[shard] = at;
        Some((at, event))
    }

    /// Removes and returns the earliest pending event if it is due no
    /// later than `horizon` (inclusive). Same semantics as
    /// [`EventQueue::pop_through`].
    pub fn pop_through(&mut self, horizon: Time) -> Option<(Time, E)> {
        match self.peek_time() {
            Some(at) if at <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Timestamp of the next pending event without removing it.
    pub fn peek_time(&mut self) -> Option<Time> {
        if self.threaded.is_some() {
            self.peek_threaded()
        } else {
            self.settle()
                .and_then(|s| self.shards[s].peek_key())
                .map(|(at, _)| at)
        }
    }

    /// Returns `true` if no deliverable events remain anywhere.
    pub fn is_empty(&mut self) -> bool {
        self.peek_time().is_none()
    }

    /// Pending entries across all shards, outboxes, and (under the
    /// threaded drain) the between-barrier buffers — extracted runs, the
    /// overlay heap, and the future-window inboxes — **including**
    /// not-yet-reclaimed cancellations (an upper bound on deliverable
    /// events).
    pub fn pending_upper_bound(&self) -> usize {
        let buffered = self.threaded.as_ref().map_or(0, |ts| {
            ts.inbox_len + ts.overlay.len() + ts.runs.iter().map(VecDeque::len).sum::<usize>()
        });
        self.shards
            .iter()
            .map(EventQueue::pending_upper_bound)
            .sum::<usize>()
            + self.outbox.len()
            + buffered
    }

    /// Selects the shard holding the globally earliest live event,
    /// advancing windows (flushing outboxes) as needed. Returns `None`
    /// only when every shard queue and the outbox are exhausted.
    fn settle(&mut self) -> Option<usize> {
        loop {
            let mut best: Option<(Time, u64, usize)> = None;
            for s in 0..self.shards.len() {
                if let Some((at, seq)) = self.shards[s].peek_key() {
                    if best.map_or(true, |(bt, bs, _)| (at, seq) < (bt, bs)) {
                        best = Some((at, seq, s));
                    }
                }
            }
            match best {
                Some((at, _, s)) if at < self.window_end => return Some(s),
                None if self.outbox.is_empty() => return None,
                _ => self.advance_window(best.map(|(at, _, _)| at)),
            }
        }
    }

    /// Crosses the window barrier: accounts per-shard slack, flushes the
    /// outbox in canonical `(tick, destination shard, sequence)` order,
    /// and opens the next window at the earliest remaining event.
    fn advance_window(&mut self, next_queued: Option<Time>) {
        let barrier_start = self.profiling.is_some().then(std::time::Instant::now);
        let barrier_tick = self.window_end.ticks();
        self.stats.barriers += 1;
        for s in 0..self.shards.len() {
            let busy_until = self.last_pop[s].max(self.window_start);
            self.stats.barrier_slack_ticks[s] +=
                self.window_end.saturating_since(busy_until).ticks();
        }
        // Canonical cross-shard merge order (determinism rule 5). The sort
        // key is total — sequence numbers are unique — so the batch order
        // is independent of outbox insertion order. Heap insertion order
        // does not affect pop order (the queues order by `(time, seq)`), but
        // the canonical batch order is part of the documented contract and
        // keeps any future batched side effects deterministic.
        let merge_start = self.profiling.is_some().then(std::time::Instant::now);
        self.outbox.sort_by_key(|o| (o.at, o.dest, o.seq));
        let mut earliest_flushed: Option<Time> = None;
        for o in std::mem::take(&mut self.outbox) {
            let dest = o.dest as usize;
            self.outboxed_per_shard[dest] -= 1;
            if self.shards[dest].is_live(o.id) {
                if earliest_flushed.map_or(true, |t| o.at < t) {
                    earliest_flushed = Some(o.at);
                }
                self.shards[dest].push_entry(o.at, o.seq, o.id, o.event);
            } else {
                // Cancelled while parked: the cancel bumped the slot
                // generation and counted a stale entry that was never
                // pushed — rebalance the destination's stale counter.
                self.shards[dest].stale = self.shards[dest].stale.saturating_sub(1);
            }
        }
        // The next window starts at the earliest remaining event; when
        // nothing remains the window still moves forward so the loop in
        // `settle` terminates.
        let next = match (next_queued, earliest_flushed) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        };
        self.window_start = next.unwrap_or(self.window_end);
        self.window_end = self.window_start + self.window;
        if let (Some(bs), Some(ms)) = (barrier_start, merge_start) {
            let end = std::time::Instant::now();
            let p = self
                .profiling
                .as_mut()
                .expect("timers are armed only while profiling");
            p.profile.barrier_nanos +=
                u64::try_from(ms.duration_since(bs).as_nanos()).unwrap_or(u64::MAX);
            p.profile.merge_nanos +=
                u64::try_from(end.duration_since(ms).as_nanos()).unwrap_or(u64::MAX);
            self.record_barrier_sample(barrier_tick);
        }
    }

    /// Appends a decimated [`ShardSample`] to the profiling timeline: keep
    /// at most `MAX_SAMPLES` entries by doubling the barrier stride and
    /// dropping every other kept sample whenever the buffer fills. No-op
    /// when profiling is off.
    fn record_barrier_sample(&mut self, barrier_tick: u64) {
        if self.profiling.is_none() {
            return;
        }
        let pending = self.pending_upper_bound();
        let barriers = self.stats.barriers;
        let outboxed = self.stats.outboxed;
        let p = self.profiling.as_mut().expect("checked above");
        if barriers % p.stride == 0 {
            if p.profile.samples.len() == ShardProfile::MAX_SAMPLES {
                let mut keep = 0;
                p.profile.samples.retain(|_| {
                    keep += 1;
                    keep % 2 == 1
                });
                p.stride *= 2;
            }
            if barriers % p.stride == 0 {
                p.profile.samples.push(ShardSample {
                    at_ticks: barrier_tick,
                    barriers,
                    pending,
                    outboxed,
                });
            }
        }
    }

    /// Globally earliest unconsumed `(time, seq)` candidate of the current
    /// threaded window: the argmin over the K run heads and the overlay.
    fn threaded_best(&self) -> Option<(Time, u64, RunSrc)> {
        let ts = self.threaded.as_ref().expect("threaded drain enabled");
        let mut best: Option<(Time, u64, RunSrc)> = None;
        for (s, run) in ts.runs.iter().enumerate() {
            if let Some(e) = run.front() {
                if best.map_or(true, |(bt, bs, _)| (e.at, e.seq) < (bt, bs)) {
                    best = Some((e.at, e.seq, RunSrc::Run(s)));
                }
            }
        }
        if let Some(e) = ts.overlay.peek() {
            if best.map_or(true, |(bt, bs, _)| (e.at, e.seq) < (bt, bs)) {
                best = Some((e.at, e.seq, RunSrc::Overlay));
            }
        }
        best
    }

    /// Removes the candidate `src` points at, returning its destination
    /// shard and the entry with a *local* (unpacked) slot.
    fn take_candidate(&mut self, src: RunSrc) -> (usize, Entry<E>) {
        let ts = self.threaded.as_mut().expect("threaded drain enabled");
        match src {
            RunSrc::Run(s) => (s, ts.runs[s].pop_front().expect("candidate head exists")),
            RunSrc::Overlay => {
                let mut e = ts.overlay.pop().expect("candidate head exists");
                let shard = (e.slot >> SHARD_SHIFT) as usize;
                ts.overlay_per_shard[shard] -= 1;
                e.slot &= LOCAL_SLOT_MASK;
                (shard, e)
            }
        }
    }

    /// The threaded drain's pop: serial canonical consume of the merged
    /// runs and overlay. Slot generations are retired *here*, not at
    /// extraction, so cancels issued after a worker extracted the window
    /// still observe (and invalidate) the pending event.
    fn pop_threaded(&mut self) -> Option<(Time, E)> {
        loop {
            let Some((_, _, src)) = self.threaded_best() else {
                if !self.threaded_advance() {
                    return None;
                }
                continue;
            };
            let (shard, entry) = self.take_candidate(src);
            let q = &mut self.shards[shard];
            if !q.is_live(EventId {
                slot: entry.slot,
                generation: entry.generation,
            }) {
                // Cancelled after extraction/buffering: rebalance the
                // stale count its cancel charged to the shard queue.
                q.stale = q.stale.saturating_sub(1);
                continue;
            }
            q.retire(entry.slot);
            self.now = entry.at;
            self.popped += 1;
            self.current_shard = Some(shard);
            self.last_pop[shard] = entry.at;
            return Some((entry.at, entry.event));
        }
    }

    /// The threaded drain's peek: like [`pop_threaded`](Self::pop_threaded)
    /// but leaves the (live) head in place, reclaiming stale heads on the
    /// way so the reported time always belongs to a deliverable event.
    fn peek_threaded(&mut self) -> Option<Time> {
        loop {
            let Some((at, _, src)) = self.threaded_best() else {
                if !self.threaded_advance() {
                    return None;
                }
                continue;
            };
            let live = {
                let ts = self.threaded.as_ref().expect("threaded drain enabled");
                let (shard, slot, generation) = match src {
                    RunSrc::Run(s) => {
                        let e = ts.runs[s].front().expect("candidate head exists");
                        (s, e.slot, e.generation)
                    }
                    RunSrc::Overlay => {
                        let e = ts.overlay.peek().expect("candidate head exists");
                        (
                            (e.slot >> SHARD_SHIFT) as usize,
                            e.slot & LOCAL_SLOT_MASK,
                            e.generation,
                        )
                    }
                };
                self.shards[shard].is_live(EventId { slot, generation })
            };
            if live {
                return Some(at);
            }
            let (shard, _stale_entry) = self.take_candidate(src);
            let q = &mut self.shards[shard];
            q.stale = q.stale.saturating_sub(1);
        }
    }

    /// Retunes the window width at a barrier under
    /// [`WindowTuning::Adaptive`]: widen while cross-shard lookahead
    /// misses stay rare, narrow back toward the conservative base when
    /// the shards idled through most of the closing window. Deterministic
    /// — every input is a simulated-time quantity.
    fn retune_window(&mut self) {
        let k = self.shards.len() as u64;
        let ts = self.threaded.as_mut().expect("threaded drain enabled");
        if ts.tuning != WindowTuning::Adaptive {
            return;
        }
        let events = self.popped - ts.popped_at_barrier;
        let misses = self.stats.lookahead_misses - ts.misses_at_barrier;
        let mut slack = 0u64;
        for &last in &self.last_pop {
            let busy_until = last.max(self.window_start);
            slack += self.window_end.saturating_since(busy_until).ticks();
        }
        let base = ts.base_width.ticks();
        let width = ts.width.ticks();
        let next = if slack * 2 > width * k && width > base {
            // Shards idled through most of the window: narrow back.
            (width / 2).max(base)
        } else if events > 0 && misses * 16 <= events {
            // Cross-shard misses are rare: widen to amortize barriers.
            (width * 2).min(base * MAX_WINDOW_FACTOR)
        } else {
            width
        };
        ts.width = Duration::from_ticks(next);
    }

    /// Crosses a threaded-drain window barrier: per-shard slack and
    /// barrier accounting (mirroring the fused
    /// [`advance_window`](Self::advance_window) exactly under
    /// [`WindowTuning::Fixed`]), then the scoped-thread integrate/extract
    /// phases via the stored driver. Returns `false` when nothing
    /// deliverable remains anywhere.
    fn threaded_advance(&mut self) -> bool {
        let has_queued = self.shards.iter().any(|q| q.pending_upper_bound() > 0);
        let had_inbox = self
            .threaded
            .as_ref()
            .expect("threaded drain enabled")
            .inbox_len
            > 0;
        if !has_queued && !had_inbox {
            return false;
        }
        self.retune_window();
        let profiling = self.profiling.is_some();
        let scope_begin = profiling.then(std::time::Instant::now);
        let (next_start, worker_nanos) = {
            let ts = self.threaded.as_mut().expect("threaded drain enabled");
            let ThreadedState {
                inboxes,
                runs,
                threads,
                width,
                drive,
                ..
            } = &mut **ts;
            drive(BarrierJob {
                shards: &mut self.shards,
                inboxes,
                runs,
                threads: *threads,
                width: *width,
                profiling,
            })
        };
        let scope_end = profiling.then(std::time::Instant::now);
        let barrier_tick = self.window_end.ticks();
        // A barrier is *counted* (stats and slack) exactly when the fused
        // coordinator would have crossed one: a live event at or beyond
        // the window end (`next_start`), or buffered events to flush. The
        // remaining case — only cancelled far-heap entries left — is the
        // fused settle's silent lazy reclamation, not a barrier.
        let counted = next_start.is_some() || had_inbox;
        if counted {
            self.stats.barriers += 1;
            for s in 0..self.shards.len() {
                let busy_until = self.last_pop[s].max(self.window_start);
                self.stats.barrier_slack_ticks[s] +=
                    self.window_end.saturating_since(busy_until).ticks();
            }
        }
        {
            let ts = self.threaded.as_mut().expect("threaded drain enabled");
            // The workers drained every inbox (live entries into the
            // shard queues, cancelled ones dropped).
            ts.inbox_len = 0;
            ts.buffered_cancels = 0;
            ts.popped_at_barrier = self.popped;
            ts.misses_at_barrier = self.stats.lookahead_misses;
            match next_start {
                Some(start) => {
                    self.window_start = start;
                    self.window_end = start.checked_add(ts.width).unwrap_or(Time::MAX);
                }
                None if counted => {
                    // Everything flushed was cancelled: the window still
                    // moves forward, exactly like the fused coordinator's.
                    self.window_start = self.window_end;
                    self.window_end = self.window_start.checked_add(ts.width).unwrap_or(Time::MAX);
                }
                None => {}
            }
        }
        if let (Some(begin), Some(end)) = (scope_begin, scope_end) {
            let scope_nanos = u64::try_from(end.duration_since(begin).as_nanos()).unwrap_or(0);
            let idle_gap = self
                .threaded
                .as_ref()
                .expect("threaded drain enabled")
                .last_scope_end
                .map(|t| u64::try_from(begin.duration_since(t).as_nanos()).unwrap_or(0))
                .unwrap_or(0);
            let p = self.profiling.as_mut().expect("profiling is on");
            p.profile.merge_nanos += scope_nanos;
            if p.profile.workers.len() < worker_nanos.len() {
                p.profile
                    .workers
                    .resize(worker_nanos.len(), WorkerLane::default());
            }
            for (lane, (busy, wait)) in p.profile.workers.iter_mut().zip(&worker_nanos) {
                lane.busy_nanos += busy;
                lane.barrier_wait_nanos += wait;
                lane.idle_nanos += idle_gap;
            }
            self.threaded
                .as_mut()
                .expect("threaded drain enabled")
                .last_scope_end = Some(end);
            if counted {
                self.record_barrier_sample(barrier_tick);
            }
        }
        next_start.is_some()
    }

    /// Worker-thread count of the threaded drain (0 on the fused drain).
    pub fn drain_threads(&self) -> usize {
        self.threaded.as_ref().map_or(0, |ts| ts.threads)
    }
}

impl<E: Send> ShardedEventQueue<E> {
    /// Switches the queue to the **thread-per-shard drain**: at every
    /// window barrier, up to `threads` scoped workers (clamped to the
    /// shard count) integrate the buffered future-window events into
    /// their shards' queues, agree on the next window via an in-scope
    /// rendezvous, and extract the window's events into per-shard sorted
    /// runs — in parallel. The coordinator then consumes the runs (plus
    /// an overlay of in-window spawns) serially in global `(time, seq)`
    /// order, so the delivered event stream is **byte-identical** to the
    /// fused drain and to the sequential [`EventQueue`] by construction,
    /// for every `(shards, threads, tuning)` combination.
    ///
    /// `threads == 1` runs the identical two-phase barrier inline without
    /// spawning, which makes the thread count unobservable in every
    /// deterministic output.
    ///
    /// # Panics
    ///
    /// Panics if events were already delivered — the mode switch is
    /// allowed only before the first `pop` (already-scheduled events are
    /// migrated).
    pub fn enable_threaded_drain(&mut self, threads: usize, tuning: WindowTuning) {
        assert!(
            self.popped == 0 && self.now == Time::ZERO && self.outbox.is_empty(),
            "threaded drain must be enabled before the first pop"
        );
        if self.threaded.is_some() {
            return;
        }
        let k = self.shards.len();
        let mut ts = Box::new(ThreadedState {
            threads: threads.clamp(1, k),
            runs: (0..k).map(|_| VecDeque::new()).collect(),
            overlay: BinaryHeap::new(),
            overlay_per_shard: vec![0; k],
            inboxes: (0..k).map(|_| Vec::new()).collect(),
            inbox_len: 0,
            buffered_cancels: 0,
            width: self.window,
            base_width: self.window,
            tuning,
            popped_at_barrier: 0,
            misses_at_barrier: 0,
            drive: drive_barrier::<E>,
            last_scope_end: None,
        });
        // Migrate events scheduled before the mode switch: in-window queue
        // entries move to the overlay (the first window consumes them
        // without an extra barrier, exactly like the fused coordinator),
        // later ones stay queue-resident for the first barrier to extract.
        for shard in 0..k {
            let mut run = VecDeque::new();
            self.shards[shard].extract_window(self.window_end, &mut run);
            for mut e in run {
                e.slot |= (shard as u32) << SHARD_SHIFT;
                ts.overlay_per_shard[shard] += 1;
                ts.overlay.push(e);
            }
        }
        self.threaded = Some(ts);
    }
}

/// The scoped-thread window barrier (see
/// [`ShardedEventQueue::enable_threaded_drain`]). Phase one: each worker
/// integrates its shards' inboxes and publishes its earliest live head
/// into a shared atomic minimum. In-scope rendezvous. Phase two: every
/// worker derives the same next window `[start, start + width)` from the
/// atomic and extracts it from its shards' queues into sorted runs.
///
/// Monomorphized under `E: Send` (scoped workers take `&mut` shard state
/// across threads) and stored as a plain fn pointer in
/// [`ThreadedState::drive`], so the unbounded `pop`/`peek` paths can
/// invoke it without infecting the whole queue API with the bound.
fn drive_barrier<E: Send>(job: BarrierJob<'_, E>) -> (Option<Time>, Vec<WorkerScopeNanos>) {
    struct Unit<'a, E> {
        q: &'a mut EventQueue<E>,
        inbox: &'a mut Vec<Inboxed<E>>,
        run: &'a mut VecDeque<Entry<E>>,
    }
    fn integrate_and_head<E>(u: &mut Unit<'_, E>, min_head: &AtomicU64) {
        u.q.integrate_inbox(u.inbox);
        if let Some((at, _)) = u.q.peek_key() {
            min_head.fetch_min(at.ticks(), AtomicOrdering::Relaxed);
        }
    }
    fn window_end(start: u64, width: Duration) -> Time {
        Time::from_ticks(start)
            .checked_add(width)
            .unwrap_or(Time::MAX)
    }
    let k = job.shards.len();
    let workers = job.threads.clamp(1, k);
    let width = job.width;
    let profiling = job.profiling;
    let min_head = AtomicU64::new(u64::MAX);
    let mut units: Vec<Unit<'_, E>> = job
        .shards
        .iter_mut()
        .zip(job.inboxes.iter_mut())
        .zip(job.runs.iter_mut())
        .map(|((q, inbox), run)| Unit { q, inbox, run })
        .collect();
    let lanes = if workers == 1 {
        // Inline fast path: the same two phases, no spawn or rendezvous —
        // `--shard-threads 1` exercises the full threaded architecture
        // with zero threading overhead (and zero observable difference).
        let t0 = profiling.then(std::time::Instant::now);
        for u in &mut units {
            integrate_and_head(u, &min_head);
        }
        let start = min_head.load(AtomicOrdering::Relaxed);
        if start != u64::MAX {
            let end = window_end(start, width);
            for u in &mut units {
                u.q.extract_window(end, u.run);
            }
        }
        let busy = t0
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        vec![(busy, 0u64)]
    } else {
        let chunk = k.div_ceil(workers);
        let spawned = k.div_ceil(chunk);
        let rendezvous = std::sync::Barrier::new(spawned);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(spawned);
            for chunk_units in units.chunks_mut(chunk) {
                let min_head = &min_head;
                let rendezvous = &rendezvous;
                handles.push(scope.spawn(move || {
                    let t0 = profiling.then(std::time::Instant::now);
                    for u in chunk_units.iter_mut() {
                        integrate_and_head(u, min_head);
                    }
                    let busy_integrate = t0.map(|t| t.elapsed()).unwrap_or_default();
                    let w0 = profiling.then(std::time::Instant::now);
                    // The rendezvous both publishes every head into the
                    // atomic minimum (happens-before) and blocks phase
                    // two until the minimum is complete.
                    rendezvous.wait();
                    let wait = w0.map(|t| t.elapsed()).unwrap_or_default();
                    let t1 = profiling.then(std::time::Instant::now);
                    let start = min_head.load(AtomicOrdering::Relaxed);
                    if start != u64::MAX {
                        let end = window_end(start, width);
                        for u in chunk_units.iter_mut() {
                            u.q.extract_window(end, u.run);
                        }
                    }
                    let busy = busy_integrate + t1.map(|t| t.elapsed()).unwrap_or_default();
                    (
                        u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX),
                        u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
                    )
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("barrier worker panicked"))
                .collect()
        })
    };
    let start = min_head.load(AtomicOrdering::Relaxed);
    ((start != u64::MAX).then(|| Time::from_ticks(start)), lanes)
}

impl<E> fmt::Debug for ShardedEventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEventQueue")
            .field("shards", &self.shards.len())
            .field("now", &self.now)
            .field("pending", &self.pending_upper_bound())
            .field("delivered", &self.popped)
            .field("barriers", &self.stats.barriers)
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
        assert_eq!(q.delivered(), 1);
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
        assert_eq!(q.delivered(), 2);
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

    /// The sharded barrier merge hands a bucket an event whose sequence
    /// number is older than entries already there: it must still pop in
    /// sequence order, at the head and in the middle of the bucket.
    #[test]
    fn late_push_of_an_older_sequence_number_pops_in_sequence_order() {
        let mut q = EventQueue::new();
        let at = Time::from_ticks(10);
        let reserve = |q: &mut EventQueue<char>| {
            let seq = q.next_seq;
            q.next_seq += 1;
            (q.alloc_slot(), seq)
        };
        let (a, a_seq) = reserve(&mut q);
        q.schedule(at, 'b');
        let (c, c_seq) = reserve(&mut q);
        q.schedule(at, 'd');
        q.push_entry(at, c_seq, c, 'c');
        q.push_entry(at, a_seq, a, 'a');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);

        // A late entry that is cancelled before its turn leaves its
        // neighbours linked.
        let (x, x_seq) = reserve(&mut q);
        q.schedule(at, 'y');
        q.push_entry(at, x_seq, x, 'x');
        q.schedule(at, 'z');
        assert!(q.cancel(x));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['y', 'z']);
    }

    /// Buckets are reused modulo the ring width: events behind the base's
    /// bucket belong to the ring's last ticks, and one due exactly
    /// `RING_TICKS` after the base waits in the far heap.
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

        // A far event that the base's advance brings to the ring's last
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

    /// With the ring empty, the next pop jumps the base straight to the far
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
    fn sharded_pop_order_matches_example() {
        let mut q = ShardedEventQueue::new(3, Duration::from_ticks(2));
        q.schedule(0, Time::from_ticks(5), 'c');
        q.schedule(2, Time::from_ticks(1), 'a');
        q.schedule(1, Time::from_ticks(5), 'b'); // same tick as 'c': FIFO by seq
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'c', 'b']);
        assert_eq!(q.now(), Time::from_ticks(5));
        assert_eq!(q.delivered(), 3);
    }

    #[test]
    fn sharded_cancel_works_while_parked_in_outbox() {
        let mut q = ShardedEventQueue::new(2, Duration::from_ticks(2));
        q.schedule(0, Time::from_ticks(1), 0u32);
        q.pop(); // current shard = 0, window now anchored
                 // Cross-shard, beyond the window: parked in the outbox.
        let parked = q.schedule(1, Time::from_ticks(100), 7u32);
        assert!(q.cancel(parked), "parked events must be cancellable");
        assert!(!q.cancel(parked), "double cancel reports false");
        q.schedule(0, Time::from_ticks(200), 9u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![9], "cancelled outbox entry must never surface");
    }

    #[test]
    fn sharded_cancelled_slot_is_not_resurrected_after_flush() {
        let mut q = ShardedEventQueue::new(2, Duration::from_ticks(2));
        q.schedule(0, Time::from_ticks(1), 0u32);
        q.pop();
        let parked = q.schedule(1, Time::from_ticks(50), 1u32);
        assert!(q.cancel(parked));
        // Recycle the same destination slot with a live event.
        let live = q.schedule(1, Time::from_ticks(60), 2u32);
        assert!(
            !q.cancel(parked),
            "stale id must not cancel the recycled slot"
        );
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2]);
        assert!(!q.cancel(live), "already delivered");
    }

    /// The load-bearing property, checked differentially: an adversarial
    /// schedule/cancel/pop interleaving produces the **identical** event
    /// stream from the sharded queue (any K) and the sequential queue —
    /// same events, same timestamps, same tie-break order.
    #[test]
    fn sharded_order_is_identical_to_sequential_under_random_workloads() {
        use crate::rng::SimRng;
        for &k in &[1usize, 2, 3, 5, 8] {
            for seed in 0..6u64 {
                let mut rng = SimRng::seed(0x5EED_0000 + seed);
                let mut single = EventQueue::new();
                let mut sharded = ShardedEventQueue::new(k, Duration::from_ticks(3));
                // Outstanding ids, tracked pairwise so the same logical
                // event is cancelled in both queues.
                let mut live: Vec<(EventId, EventId)> = Vec::new();
                let mut payload = 0u64;
                let mut single_stream = Vec::new();
                let mut sharded_stream = Vec::new();
                for _ in 0..2000 {
                    match rng.below(10) {
                        // Schedule: same (time, payload) into both; the
                        // shard is a function of the payload, like the
                        // runtime's node-based routing.
                        0..=4 => {
                            let at = sharded.now() + Duration::from_ticks(rng.below(9));
                            let shard = (payload % k as u64) as usize;
                            let a = single.schedule(at.max(single.now()), payload);
                            let b = sharded.schedule(shard, at, payload);
                            live.push((a, b));
                            payload += 1;
                        }
                        5..=6 => {
                            if !live.is_empty() {
                                let i = (rng.below(live.len() as u64)) as usize;
                                let (a, b) = live.swap_remove(i);
                                assert_eq!(single.cancel(a), sharded.cancel(b));
                            }
                        }
                        _ => {
                            single_stream.extend(single.pop());
                            sharded_stream.extend(sharded.pop());
                        }
                    }
                }
                single_stream.extend(std::iter::from_fn(|| single.pop()));
                sharded_stream.extend(std::iter::from_fn(|| sharded.pop()));
                assert_eq!(
                    single_stream, sharded_stream,
                    "k={k} seed={seed}: sharded order diverged from sequential"
                );
            }
        }
    }

    /// Satellite regression: slot-generation state stays bounded *per
    /// shard* across a million cross-shard schedule/cancel cycles — the
    /// outbox parking path must recycle destination slots exactly like the
    /// direct path does.
    #[test]
    fn sharded_memory_stays_bounded_across_a_million_cross_shard_cycles() {
        let mut q = ShardedEventQueue::new(4, Duration::from_ticks(4));
        // Anchor events so pops keep shard 0 "current" and the queue is
        // never empty.
        for i in 0..4u64 {
            q.schedule(0, Time::from_ticks(i), i);
        }
        q.pop(); // current shard = 0
        for i in 0..1_000_000u64 {
            // Far-future cross-shard event: parked in the outbox, then
            // cancelled before any barrier flushes it.
            let id = q.schedule(1 + (i % 3) as usize, Time::from_ticks((1 << 30) + i), i);
            assert!(q.cancel(id));
            assert!(
                q.pending_upper_bound() <= COMPACT_MIN + 8,
                "pending grew to {} entries after {} cycles",
                q.pending_upper_bound(),
                i + 1
            );
        }
        for s in &q.shards {
            assert!(
                s.slots.len() <= COMPACT_MIN.max(8),
                "slot table grew to {} entries",
                s.slots.len()
            );
        }
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn sharded_stats_count_barriers_and_cross_shard_traffic() {
        let mut q = ShardedEventQueue::new(2, Duration::from_ticks(2));
        q.schedule(0, Time::ZERO, 0u32);
        q.pop();
        q.schedule(1, Time::from_ticks(10), 1u32); // cross, beyond window: outboxed
        q.schedule(1, Time::from_ticks(1), 2u32); // cross, inside window: miss
        q.schedule(0, Time::from_ticks(1), 3u32); // same shard
        while q.pop().is_some() {}
        let stats = q.stats();
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.window_ticks, 2);
        assert_eq!(stats.outboxed, 1);
        assert_eq!(stats.lookahead_misses, 1);
        assert!(stats.barriers >= 1, "reaching t=10 must cross a barrier");
        assert!(stats.max_peak_pending() >= 2);
        assert!(
            stats.total_slack_ticks() > 0,
            "shard 1 idles before its barrier"
        );
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn sharded_rejects_zero_shards() {
        let _ = ShardedEventQueue::<u32>::new(0, Duration::TICK);
    }

    #[test]
    fn shard_stats_merge_is_commutative_with_identity() {
        let a = ShardStats {
            shards: 2,
            window_ticks: 4,
            barriers: 3,
            outboxed: 5,
            lookahead_misses: 1,
            peak_pending: vec![7, 2],
            barrier_slack_ticks: vec![10, 20],
        };
        let b = ShardStats {
            shards: 2,
            window_ticks: 4,
            barriers: 1,
            outboxed: 2,
            lookahead_misses: 4,
            peak_pending: vec![3, 9],
            barrier_slack_ticks: vec![1, 2],
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(format!("{ab:?}"), format!("{ba:?}"));
        assert_eq!(ab.barriers, 4);
        assert_eq!(ab.peak_pending, vec![7, 9]);
        assert_eq!(ab.barrier_slack_ticks, vec![11, 22]);
        // Default-initialised accumulator is the identity.
        let mut acc = ShardStats::default();
        acc.merge(&a);
        assert_eq!(format!("{acc:?}"), format!("{a:?}"));
    }

    #[test]
    fn profiling_is_opt_in_and_does_not_perturb_order() {
        let run = |profile: bool| {
            let mut q = ShardedEventQueue::new(2, Duration::from_ticks(2));
            if profile {
                q.enable_profiling();
            }
            q.schedule(0, Time::ZERO, 0u32);
            q.schedule(1, Time::from_ticks(3), 1u32);
            q.schedule(0, Time::from_ticks(5), 2u32);
            let mut order = Vec::new();
            while let Some((at, e)) = q.pop() {
                order.push((at.ticks(), e));
            }
            (order, q.profile(), q.stats())
        };
        let (plain_order, plain_profile, plain_stats) = run(false);
        let (prof_order, prof_profile, prof_stats) = run(true);
        assert!(plain_profile.is_none(), "profiling is opt-in");
        assert_eq!(plain_order, prof_order);
        assert_eq!(plain_stats.barriers, prof_stats.barriers);
        let profile = prof_profile.expect("profiling was enabled");
        assert_eq!(profile.busy_nanos.len(), 2);
        assert!(
            !profile.samples.is_empty(),
            "barriers were crossed, so the timeline has samples"
        );
        assert!(profile.samples.len() <= ShardProfile::MAX_SAMPLES);
        let last = profile.samples.last().unwrap();
        assert_eq!(last.barriers, prof_stats.barriers);
    }

    #[test]
    fn profile_timeline_stays_bounded_under_many_barriers() {
        let mut q = ShardedEventQueue::new(2, Duration::TICK);
        q.enable_profiling();
        // One event per tick, alternating shards: every tick is a barrier.
        for i in 0..1000u64 {
            q.schedule((i % 2) as usize, Time::from_ticks(i), i);
        }
        while q.pop().is_some() {}
        let profile = q.profile().unwrap();
        assert!(q.stats().barriers > ShardProfile::MAX_SAMPLES as u64);
        assert!(profile.samples.len() <= ShardProfile::MAX_SAMPLES);
        assert!(profile.samples.len() > ShardProfile::MAX_SAMPLES / 4);
        // Samples are in barrier order and cover the run's tail.
        for pair in profile.samples.windows(2) {
            assert!(pair[0].barriers < pair[1].barriers);
            assert!(pair[0].at_ticks <= pair[1].at_ticks);
        }
    }

    /// Drives an adversarial schedule/cancel/pop workload through a queue
    /// built by `make`, returning the delivered stream.
    fn random_workload<Q: WorkloadQueue>(seed: u64, q: &mut Q) -> Vec<(Time, u64)> {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed(0x7EED_0000 + seed);
        let mut live: Vec<Q::Id> = Vec::new();
        let mut payload = 0u64;
        let mut stream = Vec::new();
        for _ in 0..2500 {
            match rng.below(10) {
                0..=4 => {
                    let delay = Duration::from_ticks(rng.below(9));
                    live.push(q.schedule_at(delay, payload));
                    payload += 1;
                }
                5..=6 => {
                    if !live.is_empty() {
                        let i = (rng.below(live.len() as u64)) as usize;
                        let id = live.swap_remove(i);
                        q.cancel_id(id);
                    }
                }
                _ => stream.extend(q.pop_one()),
            }
        }
        while let Some(e) = q.pop_one() {
            stream.push(e);
        }
        stream
    }

    /// Uniform driver interface over the sequential and sharded queues so
    /// the same workload hits both.
    trait WorkloadQueue {
        type Id: Copy;
        fn schedule_at(&mut self, delay: Duration, payload: u64) -> Self::Id;
        fn cancel_id(&mut self, id: Self::Id) -> bool;
        fn pop_one(&mut self) -> Option<(Time, u64)>;
    }

    impl WorkloadQueue for EventQueue<u64> {
        type Id = EventId;
        fn schedule_at(&mut self, delay: Duration, payload: u64) -> EventId {
            self.schedule(self.now() + delay, payload)
        }
        fn cancel_id(&mut self, id: EventId) -> bool {
            self.cancel(id)
        }
        fn pop_one(&mut self) -> Option<(Time, u64)> {
            self.pop()
        }
    }

    impl WorkloadQueue for ShardedEventQueue<u64> {
        type Id = EventId;
        fn schedule_at(&mut self, delay: Duration, payload: u64) -> EventId {
            let shard = (payload % self.num_shards() as u64) as usize;
            self.schedule(shard, self.now() + delay, payload)
        }
        fn cancel_id(&mut self, id: EventId) -> bool {
            self.cancel(id)
        }
        fn pop_one(&mut self) -> Option<(Time, u64)> {
            self.pop()
        }
    }

    /// The tentpole property at the queue level: the threaded drain's
    /// delivered stream is identical to the sequential queue's for every
    /// `(shards, threads)` pair, under adversarial schedule/cancel/pop
    /// interleavings.
    #[test]
    fn threaded_order_is_identical_to_sequential_across_threads_and_shards() {
        for &k in &[1usize, 2, 4, 7] {
            for &t in &[1usize, 2, 4] {
                for seed in 0..4u64 {
                    let mut single = EventQueue::new();
                    let expect = random_workload(seed, &mut single);
                    let mut sharded = ShardedEventQueue::new(k, Duration::from_ticks(3));
                    sharded.enable_threaded_drain(t, WindowTuning::Fixed);
                    let got = random_workload(seed, &mut sharded);
                    assert_eq!(
                        expect, got,
                        "k={k} t={t} seed={seed}: threaded order diverged from sequential"
                    );
                }
            }
        }
    }

    /// Under `WindowTuning::Fixed` the threaded drain's barrier placement
    /// mirrors the fused coordinator's, so the deterministic ShardStats
    /// (barriers, outboxed, lookahead misses, slack) must match exactly.
    #[test]
    fn threaded_stats_match_fused_under_fixed_tuning() {
        for &k in &[2usize, 4] {
            for seed in 0..4u64 {
                let mut fused = ShardedEventQueue::new(k, Duration::from_ticks(3));
                let expect_stream = random_workload(seed, &mut fused);
                let mut threaded = ShardedEventQueue::new(k, Duration::from_ticks(3));
                threaded.enable_threaded_drain(2, WindowTuning::Fixed);
                let got_stream = random_workload(seed, &mut threaded);
                assert_eq!(expect_stream, got_stream);
                let (f, t) = (fused.stats(), threaded.stats());
                assert_eq!(f.barriers, t.barriers, "k={k} seed={seed}: barriers");
                assert_eq!(f.outboxed, t.outboxed, "k={k} seed={seed}: outboxed");
                assert_eq!(
                    f.lookahead_misses, t.lookahead_misses,
                    "k={k} seed={seed}: misses"
                );
                assert_eq!(
                    f.barrier_slack_ticks, t.barrier_slack_ticks,
                    "k={k} seed={seed}: slack"
                );
            }
        }
    }

    /// The adaptive window retune moves barriers around but can never
    /// change the delivered stream: the coordinator always consumes the
    /// global `(time, seq)` minimum, which is window-independent.
    #[test]
    fn adaptive_window_tuning_preserves_the_event_stream() {
        for seed in 0..4u64 {
            let mut fixed = ShardedEventQueue::new(4, Duration::from_ticks(3));
            fixed.enable_threaded_drain(2, WindowTuning::Fixed);
            let expect = random_workload(seed, &mut fixed);
            let mut adaptive = ShardedEventQueue::new(4, Duration::from_ticks(3));
            adaptive.enable_threaded_drain(2, WindowTuning::Adaptive);
            let got = random_workload(seed, &mut adaptive);
            assert_eq!(
                expect, got,
                "seed={seed}: adaptive retune changed the order"
            );
            assert!(
                adaptive.stats().barriers <= fixed.stats().barriers,
                "seed={seed}: widening windows must not add barriers"
            );
        }
    }

    /// Satellite regression: `pending_upper_bound` must count events
    /// buffered between barriers — the fused outbox AND every threaded
    /// between-barrier structure (inboxes, extracted runs, overlay).
    #[test]
    fn pending_upper_bound_counts_between_barrier_buffers() {
        // Fused: a parked cross-shard outbox entry is counted.
        let mut fused = ShardedEventQueue::new(2, Duration::from_ticks(2));
        fused.schedule(0, Time::ZERO, 0u32);
        fused.pop();
        fused.schedule(1, Time::from_ticks(50), 1u32); // outboxed
        assert_eq!(fused.pending_upper_bound(), 1, "fused outbox counted");

        // Threaded: inbox-buffered, extracted-run, and overlay events are
        // all counted.
        let mut q = ShardedEventQueue::new(2, Duration::from_ticks(4));
        q.enable_threaded_drain(2, WindowTuning::Fixed);
        q.schedule(0, Time::ZERO, 0u32); // overlay (in first window)
        q.schedule(1, Time::from_ticks(1), 1u32); // overlay
        assert_eq!(q.pending_upper_bound(), 2, "overlay entries counted");
        q.pop();
        q.schedule(0, Time::from_ticks(20), 2u32); // inbox (future window)
        q.schedule(1, Time::from_ticks(21), 3u32); // inbox
        assert_eq!(
            q.pending_upper_bound(),
            3,
            "inbox entries counted between barriers"
        );
        q.pop(); // drains overlay; next pop crosses a barrier
        q.pop(); // t=20: barrier extracted both inbox events into runs
        assert_eq!(
            q.pending_upper_bound(),
            1,
            "run-resident events counted after the barrier"
        );
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert_eq!(q.pending_upper_bound(), 0);
        assert!(q.pop().is_none());
    }

    /// The threaded analogue of the outbox-churn regression: cancelled
    /// inbox entries must not accumulate between barriers.
    #[test]
    fn threaded_memory_stays_bounded_across_a_million_buffered_cycles() {
        let mut q = ShardedEventQueue::new(4, Duration::from_ticks(4));
        q.enable_threaded_drain(2, WindowTuning::Fixed);
        for i in 0..4u64 {
            q.schedule(0, Time::from_ticks(i), i);
        }
        q.pop(); // current shard = 0
        for i in 0..1_000_000u64 {
            let id = q.schedule(1 + (i % 3) as usize, Time::from_ticks((1 << 30) + i), i);
            assert!(q.cancel(id));
            assert!(
                q.pending_upper_bound() <= COMPACT_MIN + 8,
                "pending grew to {} entries after {} cycles",
                q.pending_upper_bound(),
                i + 1
            );
        }
        for s in &q.shards {
            assert!(
                s.slots.len() <= COMPACT_MIN.max(8),
                "slot table grew to {} entries",
                s.slots.len()
            );
        }
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    /// Worker-lane profiling is opt-in, threaded-only, and does not
    /// perturb the delivered order or deterministic stats.
    #[test]
    fn threaded_profiling_reports_worker_lanes_without_perturbing_order() {
        let run = |profile: bool| {
            let mut q = ShardedEventQueue::new(4, Duration::from_ticks(2));
            q.enable_threaded_drain(2, WindowTuning::Fixed);
            if profile {
                q.enable_profiling();
            }
            for i in 0..64u64 {
                q.schedule((i % 4) as usize, Time::from_ticks(i / 2), i);
            }
            let mut order = Vec::new();
            while let Some((at, e)) = q.pop() {
                order.push((at.ticks(), e));
            }
            (order, q.profile(), q.stats())
        };
        let (plain_order, plain_profile, plain_stats) = run(false);
        let (prof_order, prof_profile, prof_stats) = run(true);
        assert!(plain_profile.is_none());
        assert_eq!(plain_order, prof_order);
        assert_eq!(plain_stats.barriers, prof_stats.barriers);
        let profile = prof_profile.expect("profiling was enabled");
        assert_eq!(
            profile.workers.len(),
            2,
            "one lane per barrier worker thread"
        );
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
