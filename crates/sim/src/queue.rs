//! Stable-ordered discrete-event queues.
//!
//! Two implementations share one contract — events pop in `(at, seq)`
//! order, i.e. by timestamp with FIFO tie-breaking by insertion:
//!
//! * [`EventQueue`] (alias [`CalendarQueue`]): the production queue, a
//!   hierarchical calendar. Near-future events hash into fixed-width
//!   picosecond buckets on a timing wheel and are drained
//!   FIFO-within-bucket; far-future events overflow into a sorted
//!   spill heap and migrate onto the wheel as the horizon advances.
//!   Scheduling into the wheel is O(1); popping is amortized O(1) for
//!   the dense near-`now` event populations a router simulation
//!   produces.
//! * [`OracleQueue`]: the original `BinaryHeap` implementation, kept
//!   as the reference for differential testing (see
//!   `crates/sim/tests/differential.rs` and DESIGN.md §6). Every
//!   ordering property of `EventQueue` is checked lock-step against
//!   this oracle.
//!
//! Timestamps must stay below `u64::MAX - 2^22` picoseconds (about 200
//! days of simulated time) so bucket arithmetic cannot overflow; the
//! simulation's runs are in the millisecond range.

use core::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;

/// A pending event: ordering key is `(time, seq)` so that events scheduled
/// earlier at the same timestamp are dispatched first (stable order).
#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Log2 of the calendar bucket width in picoseconds. 4096 ps is below
/// one MicroEngine cycle (5000 ps), so events issued on consecutive ME
/// cycles never share a bucket and a same-timestamp burst drains FIFO
/// out of a single bucket.
const BUCKET_SHIFT: u32 = 12;

/// Calendar bucket width in picoseconds.
const BUCKET_WIDTH: Time = 1 << BUCKET_SHIFT;

/// Wheel slots. The wheel covers `NUM_BUCKETS * BUCKET_WIDTH` (~2.1 us)
/// of future time — enough for every memory, DMA, and compute latency
/// in the chip model. Longer-range events (frame interarrivals,
/// slow-path retries, idle parks) spill into the overflow heap.
const NUM_BUCKETS: usize = 512;
const BUCKET_MASK: u64 = NUM_BUCKETS as u64 - 1;

/// Words of the wheel's occupancy bitmap (one bit per slot).
const OCC_WORDS: usize = NUM_BUCKETS / 64;

/// A deterministic discrete-event queue over event type `E`, backed by
/// a hierarchical calendar (timing wheel + overflow spill).
///
/// The queue tracks the current simulation time: popping an event advances
/// the clock to that event's timestamp. Scheduling an event in the past is
/// a logic error and panics in debug builds; in release builds the event is
/// clamped to "now" to keep the clock monotone.
///
/// Every `schedule` and `pop` moves one `(at, seq, E)` entry, so keep
/// `E` small: box the payload of a rare fat variant rather than let it
/// set the size of every entry (DESIGN.md §5).
///
/// # Examples
///
/// ```
/// use npr_sim::EventQueue;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(10, "b");
/// q.schedule(5, "a");
/// q.schedule(10, "c"); // Same time as "b": dispatched after it.
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// assert_eq!(q.now(), 10);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Drain region: every pending event with `at < active_end`, in
    /// *descending* `(at, seq)` order so the next event pops off the
    /// back. Non-empty whenever the queue is non-empty.
    active: Vec<Entry<E>>,
    /// Exclusive upper time bound of `active` — the end of the bucket
    /// the cursor sits on.
    active_end: Time,
    /// Wheel slot owning the bucket `[active_end - BUCKET_WIDTH,
    /// active_end)`; always drained (its events live in `active`).
    cursor: usize,
    /// The timing wheel: slot `(at >> BUCKET_SHIFT) & BUCKET_MASK`
    /// holds events of one bucket, in insertion (seq) order.
    wheel: Vec<Vec<Entry<E>>>,
    /// Bit `s` is set iff `wheel[s]` is non-empty. The cursor's bit is
    /// always clear.
    occupied: [u64; OCC_WORDS],
    /// Spill level: events at or beyond the wheel horizon, sorted.
    /// Every spill event is later than every wheel event.
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    len: usize,
    seq: u64,
    now: Time,
}

/// The calendar implementation under its structural name (the
/// differential tests compare `CalendarQueue` against [`OracleQueue`]).
pub type CalendarQueue<E> = EventQueue<E>;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            active: Vec::new(),
            active_end: BUCKET_WIDTH,
            cursor: 0,
            wheel: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; OCC_WORDS],
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
            now: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive upper time bound of the wheel; later events spill.
    #[inline]
    fn wheel_end(&self) -> Time {
        self.active_end
            .saturating_add((NUM_BUCKETS as Time - 1) * BUCKET_WIDTH)
    }

    /// Appends `e` to its wheel slot and marks the slot occupied.
    #[inline]
    fn push_wheel(&mut self, e: Entry<E>) {
        let slot = ((e.at >> BUCKET_SHIFT) & BUCKET_MASK) as usize;
        self.wheel[slot].push(e);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Schedules `ev` at absolute time `at` (clamped to `now` if earlier).
    pub fn schedule(&mut self, at: Time, ev: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let at = at.max(self.now);
        let seq = self.take_seq();
        let entry = Entry { at, seq, ev };
        if at < self.active_end {
            // Lands in the drain region: keep it sorted (descending).
            // The new entry carries the largest seq ever issued, so it
            // pops after every existing entry at the same or an earlier
            // timestamp — FIFO tie-break preserved by construction.
            let idx = self.active.partition_point(|e| e.at > at);
            self.active.insert(idx, entry);
        } else if at < self.wheel_end() {
            self.push_wheel(entry);
        } else {
            self.overflow.push(Reverse(entry));
        }
        self.len += 1;
        if self.active.is_empty() {
            // First event after the queue ran dry went past the cursor
            // bucket: advance to it so `peek_time` stays O(1).
            self.refill();
        }
    }

    /// Schedules `ev` at `now() + delay`.
    pub fn schedule_in(&mut self, delay: Time, ev: E) {
        self.schedule(self.now + delay, ev);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.active.pop()?;
        self.now = e.at;
        self.len -= 1;
        if self.active.is_empty() && self.len > 0 {
            self.refill();
        }
        Some((e.at, e.ev))
    }

    /// Pops the next event only if its timestamp is at or before `t`.
    ///
    /// This is the atomic form of the `peek_time`-then-`pop` pattern:
    /// callers bounding a run by a deadline must use it so an event
    /// beyond the deadline is neither consumed nor allowed to advance
    /// the clock.
    ///
    /// # Examples
    ///
    /// ```
    /// use npr_sim::EventQueue;
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule(10, "early");
    /// q.schedule(90, "late");
    /// assert_eq!(q.pop_if_at_or_before(50), Some((10, "early")));
    /// assert_eq!(q.pop_if_at_or_before(50), None); // "late" stays queued.
    /// assert_eq!(q.now(), 10);
    /// assert_eq!(q.len(), 1);
    /// ```
    pub fn pop_if_at_or_before(&mut self, t: Time) -> Option<(Time, E)> {
        if self.peek_time()? > t {
            return None;
        }
        self.pop()
    }

    /// Peeks at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.active.last().map(|e| e.at)
    }

    /// The `(at, seq)` ordering key of the next event.
    ///
    /// With [`EventQueue::take_seq`] and [`EventQueue::advance_to`]
    /// this lets a caller keep some events in a list of its own and
    /// still dispatch everything in the one `(at, seq)` order: number
    /// each private event with `take_seq` where `schedule` would have
    /// numbered it, pop whichever head has the smaller key, and report
    /// private pops back through `advance_to`.
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        self.active.last().map(|e| (e.at, e.seq))
    }

    /// Draws the sequence number the next `schedule` would have used.
    pub fn take_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Advances the clock to `t`, the timestamp of an event the caller
    /// popped from a list of its own (see [`EventQueue::peek_key`]).
    pub fn advance_to(&mut self, t: Time) {
        debug_assert!(t >= self.now, "clock moved backwards");
        debug_assert!(
            self.peek_time().is_none_or(|head| head >= t),
            "clock advanced past a pending event"
        );
        self.now = self.now.max(t);
    }

    /// The first occupied wheel slot after the cursor, in rotation
    /// order, or `None` when the wheel is dry.
    fn next_occupied(&self) -> Option<usize> {
        let start = (self.cursor + 1) & (NUM_BUCKETS - 1);
        let (w0, b0) = (start / 64, start % 64);
        let rest = self.occupied[w0] & (!0 << b0);
        if rest != 0 {
            return Some(w0 * 64 + rest.trailing_zeros() as usize);
        }
        // The last step revisits `w0` whole: its bits at or above `b0`
        // are clear, so a hit there is a slot that wrapped around.
        (1..=OCC_WORDS).find_map(|i| {
            let w = (w0 + i) % OCC_WORDS;
            let word = self.occupied[w];
            (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
        })
    }

    /// Advances the cursor to the next occupied bucket and takes it as
    /// `active`. Caller guarantees `active` is empty; leaves it
    /// non-empty whenever the queue holds events.
    ///
    /// The cursor goes there in one jump. That is sound because spill
    /// events sit at or beyond the horizon the wheel had *before* the
    /// jump, later than every event on the wheel: none can belong in a
    /// bucket the jump skips or lands on, so migrating them once,
    /// against the new horizon, puts each where slot-by-slot rotation
    /// would have.
    fn refill(&mut self) {
        debug_assert!(self.active.is_empty());
        match self.next_occupied() {
            Some(slot) => {
                // Every wheel event is within one rotation of the
                // cursor by construction.
                let ahead = (slot as u64).wrapping_sub(self.cursor as u64) & BUCKET_MASK;
                self.cursor = slot;
                self.active_end += ahead * BUCKET_WIDTH;
            }
            None => {
                // The wheel is dry: go to the bucket of the earliest
                // spill event.
                let Some(Reverse(head)) = self.overflow.peek() else {
                    return;
                };
                let bucket = head.at >> BUCKET_SHIFT;
                self.cursor = (bucket & BUCKET_MASK) as usize;
                self.active_end = (bucket + 1) << BUCKET_SHIFT;
            }
        }
        self.migrate_overflow();
        self.take_cursor_bucket();
        debug_assert!(!self.active.is_empty());
    }

    /// Moves every spill event now inside the wheel horizon onto the
    /// wheel, preserving the overflow invariant `at >= wheel_end()`.
    fn migrate_overflow(&mut self) {
        let wheel_end = self.wheel_end();
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.at >= wheel_end {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked entry");
            self.push_wheel(e);
        }
    }

    /// Swaps the cursor's bucket with the (empty) `active` and orders
    /// it for popping off the back. The slot inherits `active`'s spent
    /// allocation, so buffers circulate instead of being copied.
    fn take_cursor_bucket(&mut self) {
        let cursor = self.cursor;
        core::mem::swap(&mut self.active, &mut self.wheel[cursor]);
        self.occupied[cursor / 64] &= !(1 << (cursor % 64));
        if self.active.len() > 1 {
            // Keys are unique (seq is), so an unstable sort is
            // deterministic; within one timestamp seq order == FIFO order.
            self.active.sort_unstable_by_key(|e| Reverse((e.at, e.seq)));
        }
    }
}

/// The reference discrete-event queue: a plain `BinaryHeap` ordered by
/// `(at, seq)`.
///
/// This is the original `EventQueue` implementation, kept verbatim as
/// the differential-testing oracle: its ordering behavior is trivially
/// auditable, so [`EventQueue`] is required (by the property suite in
/// `crates/sim/tests/differential.rs` and by the lock-step check in the
/// `simbench` binary) to reproduce its pop sequence exactly on any
/// interleaving of operations.
///
/// # Examples
///
/// ```
/// use npr_sim::OracleQueue;
///
/// let mut q: OracleQueue<&str> = OracleQueue::new();
/// q.schedule(10, "b");
/// q.schedule(5, "a");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")));
/// ```
#[derive(Debug)]
pub struct OracleQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Time,
}

impl<E> Default for OracleQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> OracleQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `ev` at absolute time `at` (clamped to `now` if earlier).
    pub fn schedule(&mut self, at: Time, ev: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, ev }));
    }

    /// Schedules `ev` at `now() + delay`.
    pub fn schedule_in(&mut self, delay: Time, ev: E) {
        self.schedule(self.now + delay, ev);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.ev))
    }

    /// Pops the next event only if its timestamp is at or before `t`
    /// (see [`EventQueue::pop_if_at_or_before`]).
    pub fn pop_if_at_or_before(&mut self, t: Time) -> Option<(Time, E)> {
        if self.peek_time()? > t {
            return None;
        }
        self.pop()
    }

    /// Peeks at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(20, 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn ties_are_fifo_across_bucket_refill() {
        // Ties landing on the wheel (beyond the first bucket) must
        // still drain in insertion order after the bucket sort.
        let at = 7 * BUCKET_WIDTH + 13;
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule(at, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop(), Some((at, i)));
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(100, "x");
        q.pop();
        q.schedule_in(5, "y");
        assert_eq!(q.pop(), Some((105, "y")));
    }

    #[test]
    fn clock_is_monotone() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        // Past events are clamped to now in release builds.
        #[cfg(not(debug_assertions))]
        {
            q.schedule(3, ());
            assert_eq!(q.pop(), Some((10, ())));
        }
        assert_eq!(q.now(), 10);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, 0);
        q.schedule(2, 1);
        assert_eq!(q.len(), 2);
        q.pop();
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(7, ());
        q.schedule(3, ());
        assert_eq!(q.peek_time(), Some(3));
        q.pop();
        assert_eq!(q.peek_time(), Some(7));
    }

    #[test]
    fn interleaved_schedule_and_pop_is_stable() {
        // Scheduling from within dispatch (the common pattern) keeps
        // deterministic order.
        let mut q = EventQueue::new();
        q.schedule(0, 0u32);
        let mut seen = Vec::new();
        while let Some((t, v)) = q.pop() {
            seen.push(v);
            if v < 5 {
                q.schedule(t + 1, v + 1);
                q.schedule(t + 1, v + 100);
            }
        }
        assert_eq!(seen[0], 0);
        assert_eq!(seen[1], 1);
        assert_eq!(seen[2], 100);
    }

    #[test]
    fn far_future_events_spill_and_return() {
        // Events beyond the wheel horizon take the overflow path and
        // come back in order as the horizon advances.
        let horizon = NUM_BUCKETS as Time * BUCKET_WIDTH;
        let mut q = EventQueue::new();
        q.schedule(3 * horizon, "far");
        q.schedule(10, "near");
        q.schedule(7 * horizon, "farther");
        q.schedule(horizon + 1, "mid");
        assert_eq!(q.pop(), Some((10, "near")));
        assert_eq!(q.pop(), Some((horizon + 1, "mid")));
        assert_eq!(q.pop(), Some((3 * horizon, "far")));
        assert_eq!(q.pop(), Some((7 * horizon, "farther")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sparse_wheel_jumps_instead_of_rotating() {
        // Two events a simulated second apart (many thousand
        // rotations): the dry-wheel jump must land exactly.
        let mut q = EventQueue::new();
        q.schedule(5, 0);
        q.schedule(1_000_000_000_000, 1);
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((1_000_000_000_000, 1)));
        assert_eq!(q.now(), 1_000_000_000_000);
    }

    #[test]
    fn schedule_at_now_lands_before_later_active_events() {
        // After a refill jump, scheduling at `now` (earlier than the
        // events already drained into the active region is impossible,
        // but earlier than wheel events is not) must still pop first.
        let mut q = EventQueue::new();
        q.schedule(10, "a");
        assert_eq!(q.pop(), Some((10, "a")));
        q.schedule(5_000_000, "late");
        q.schedule(11, "soon"); // Earlier than "late", after a refill.
        assert_eq!(q.pop(), Some((11, "soon")));
        assert_eq!(q.pop(), Some((5_000_000, "late")));
    }

    #[test]
    fn pop_if_at_or_before_is_atomic() {
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop_if_at_or_before(15), Some((10, 1)));
        // The deadline-crossing event is neither consumed nor does it
        // advance the clock.
        assert_eq!(q.pop_if_at_or_before(15), None);
        assert_eq!(q.now(), 10);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_if_at_or_before(20), Some((20, 2)));
    }

    #[test]
    fn a_private_list_merged_by_key_pops_in_oracle_order() {
        // Every third event is kept out of the queue, numbered with
        // `take_seq`; popping the smaller `(at, seq)` head reproduces
        // the order of an oracle that was given all of them.
        let mut rng = crate::rng::XorShift64::new(0x5EED);
        let mut q = EventQueue::new();
        let mut private: Vec<(Time, u64, u64)> = Vec::new();
        let mut ora = OracleQueue::new();
        for i in 0..3_000u64 {
            if rng.below(3) < 2 {
                let at = q.now() + rng.below(4) * 3_000 + rng.below(2) * 3_000_000;
                ora.schedule(at, i);
                if i % 3 == 0 {
                    private.push((at, q.take_seq(), i));
                } else {
                    q.schedule(at, i);
                }
                continue;
            }
            let head = private.iter().copied().min();
            let got = match (head, q.peek_key()) {
                (Some((at, seq, i)), qk) if qk.is_none_or(|k| (at, seq) < k) => {
                    private.retain(|&e| e != (at, seq, i));
                    q.advance_to(at);
                    Some((at, i))
                }
                _ => q.pop(),
            };
            assert_eq!(got, ora.pop());
            assert_eq!(q.now(), ora.now());
        }
    }

    #[test]
    fn oracle_pop_if_at_or_before_is_atomic() {
        let mut q = OracleQueue::new();
        q.schedule(10, 1);
        q.schedule(20, 2);
        assert_eq!(q.pop_if_at_or_before(15), Some((10, 1)));
        assert_eq!(q.pop_if_at_or_before(15), None);
        assert_eq!(q.now(), 10);
        assert_eq!(q.pop_if_at_or_before(20), Some((20, 2)));
    }

    #[test]
    fn oracle_pops_in_time_order_with_fifo_ties() {
        let mut q = OracleQueue::new();
        q.schedule(30, 3);
        q.schedule(10, 1);
        q.schedule(10, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn calendar_matches_oracle_on_a_mixed_stream() {
        // A quick in-module differential check; the exhaustive version
        // lives in tests/differential.rs.
        let mut rng = crate::rng::XorShift64::new(0xC0FFEE);
        let mut cal = EventQueue::new();
        let mut ora = OracleQueue::new();
        for i in 0..5_000u64 {
            match rng.below(4) {
                0..=1 => {
                    let delay = match rng.below(3) {
                        0 => rng.below(200),                  // Intra-bucket.
                        1 => rng.below(100) * BUCKET_WIDTH,   // Across slots.
                        _ => rng.below(20) * 1_000_000,       // Spill level.
                    };
                    let at = cal.now() + delay;
                    cal.schedule(at, i);
                    ora.schedule(at, i);
                }
                2 => {
                    assert_eq!(cal.pop(), ora.pop());
                }
                _ => {
                    assert_eq!(cal.peek_time(), ora.peek_time());
                    assert_eq!(cal.len(), ora.len());
                }
            }
        }
        loop {
            let (a, b) = (cal.pop(), ora.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.now(), ora.now());
    }
}
