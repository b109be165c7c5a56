//! FIFO server resource.
//!
//! Memory controllers, the IX-bus DMA state machine, and the PCI bus are
//! all modeled as FIFO servers: each job occupies the server for a
//! deterministic *occupancy* (the reciprocal of bandwidth), and the
//! requester observes `queueing delay + access latency`. Occupancy may be
//! smaller than latency, which models pipelined controllers: a DRAM read
//! takes 52 cycles to return but the next transfer can start as soon as
//! the data bus is free.

use crate::time::Time;

/// A deterministic FIFO server.
///
/// # Examples
///
/// ```
/// use npr_sim::Server;
///
/// let mut bus = Server::new("pci");
/// // Two back-to-back jobs: 10 ps occupancy, 25 ps total latency each.
/// let d0 = bus.admit(0, 10, 25);
/// let d1 = bus.admit(0, 10, 25);
/// assert_eq!(d0, 25); // Starts immediately.
/// assert_eq!(d1, 35); // Queued 10 ps behind the first job.
/// ```
#[derive(Debug, Clone)]
pub struct Server {
    name: &'static str,
    free_at: Time,
    busy_ps: Time,
    jobs: u64,
    queued_ps: Time,
}

impl Server {
    /// Creates an idle server. `name` is used in statistics output only.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            free_at: 0,
            busy_ps: 0,
            jobs: 0,
            queued_ps: 0,
        }
    }

    /// Admits a job arriving at `now` that occupies the server for
    /// `occupancy` and completes `latency` after it starts service.
    /// Returns the absolute completion time.
    ///
    /// `latency` should be at least `occupancy` for non-pipelined
    /// resources; for pipelined ones it may exceed it (completion happens
    /// after the server has moved on).
    pub fn admit(&mut self, now: Time, occupancy: Time, latency: Time) -> Time {
        let start = now.max(self.free_at);
        self.queued_ps += start - now;
        self.free_at = start + occupancy;
        self.busy_ps += occupancy;
        self.jobs += 1;
        start + latency
    }

    /// Admits `n` identical jobs arriving together at `now` and returns
    /// the completion time of the *last* one.
    ///
    /// Completion times of a FIFO batch are nondecreasing, so a caller
    /// that would have scheduled one wakeup per job can schedule a
    /// single wakeup at the returned time instead. Per-job statistics
    /// (`jobs`, `busy_ps`, `queued_ps`) accumulate exactly as if
    /// [`Server::admit`] had been called `n` times.
    ///
    /// # Examples
    ///
    /// ```
    /// use npr_sim::Server;
    ///
    /// let mut dram = Server::new("dram");
    /// assert_eq!(dram.admit_batch(0, 8, 52, 3), 68);
    /// assert_eq!(dram.jobs(), 3);
    /// ```
    pub fn admit_batch(&mut self, now: Time, occupancy: Time, latency: Time, n: u32) -> Time {
        let mut done = now;
        for _ in 0..n {
            done = self.admit(now, occupancy, latency);
        }
        done
    }

    /// The earliest time a new job could start service.
    #[inline]
    pub fn free_at(&self) -> Time {
        self.free_at
    }

    /// Total time the server has been occupied.
    pub fn busy_ps(&self) -> Time {
        self.busy_ps
    }

    /// Total queueing delay imposed on jobs so far.
    pub fn queued_ps(&self) -> Time {
        self.queued_ps
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Server name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Batches wakeup events that share a timestamp.
///
/// Polling components (the StrongARM slow path, the Pentium dispatcher)
/// are woken by many producers, and several completions frequently land
/// on the same picosecond — each used to schedule its own wakeup event
/// even though the poll handler drains all available work on its first
/// run and the duplicates dispatch as no-ops. A `Wakeup` remembers the
/// one wakeup currently scheduled and suppresses exact same-timestamp
/// duplicates, shrinking the event population without changing any
/// observable schedule:
///
/// * Duplicate suppression only happens while the armed wakeup is still
///   queued, and a queued event at time `t` always has a smaller seq
///   than the producer requesting at `t` (the producer is executing, so
///   it already popped) — the armed wakeup therefore runs *after* the
///   producer and sees its work.
/// * Dedup is best effort: a request at a different timestamp re-arms
///   and may leave a stale queued wakeup behind, which dispatches as
///   the same idempotent no-op it was before this type existed.
///
/// # Examples
///
/// ```
/// use npr_sim::Wakeup;
///
/// let mut w = Wakeup::new();
/// assert!(w.request(100));  // Caller schedules the event at t=100.
/// assert!(!w.request(100)); // Coalesced: a t=100 wakeup is queued.
/// assert!(w.request(250));  // Different time: schedule again.
/// w.fire(250);              // The t=250 event dispatched.
/// assert!(w.request(250));  // No longer queued, so schedule anew.
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Wakeup {
    armed: Option<Time>,
}

impl Wakeup {
    /// A coalescer with no wakeup armed.
    pub const fn new() -> Self {
        Self { armed: None }
    }

    /// Requests a wakeup at `t`. Returns `true` if the caller must
    /// schedule the event, `false` if an identical wakeup is already
    /// queued.
    pub fn request(&mut self, t: Time) -> bool {
        if self.armed == Some(t) {
            return false;
        }
        self.armed = Some(t);
        true
    }

    /// Records that the wakeup event stamped `t` has dispatched. Call
    /// this first thing in the wakeup handler.
    pub fn fire(&mut self, t: Time) {
        if self.armed == Some(t) {
            self.armed = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = Server::new("t");
        assert_eq!(s.admit(100, 10, 30), 130);
        assert_eq!(s.free_at(), 110);
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = Server::new("t");
        s.admit(0, 50, 50);
        let done = s.admit(10, 50, 50);
        // Second job starts at 50, completes at 100.
        assert_eq!(done, 100);
        assert_eq!(s.queued_ps(), 40);
    }

    #[test]
    fn pipelined_latency_exceeds_occupancy() {
        let mut s = Server::new("dram");
        // Occupancy 8, latency 52: back-to-back reads pipeline.
        let d0 = s.admit(0, 8, 52);
        let d1 = s.admit(0, 8, 52);
        let d2 = s.admit(0, 8, 52);
        assert_eq!((d0, d1, d2), (52, 60, 68));
    }

    #[test]
    fn idle_gap_does_not_accumulate() {
        let mut s = Server::new("t");
        s.admit(0, 10, 10);
        let done = s.admit(1000, 10, 10);
        assert_eq!(done, 1010);
        assert_eq!(s.queued_ps(), 0);
        assert_eq!(s.busy_ps(), 20);
        assert_eq!(s.jobs(), 2);
    }

    #[test]
    fn admit_batch_equals_repeated_admit() {
        let mut batched = Server::new("b");
        let mut serial = Server::new("s");
        let last = batched.admit_batch(100, 8, 52, 4);
        let mut serial_last = 0;
        for _ in 0..4 {
            serial_last = serial.admit(100, 8, 52);
        }
        assert_eq!(last, serial_last);
        assert_eq!(batched.free_at(), serial.free_at());
        assert_eq!(batched.jobs(), serial.jobs());
        assert_eq!(batched.busy_ps(), serial.busy_ps());
        assert_eq!(batched.queued_ps(), serial.queued_ps());
    }

    #[test]
    fn admit_batch_of_zero_completes_at_now() {
        let mut s = Server::new("t");
        assert_eq!(s.admit_batch(70, 8, 52, 0), 70);
        assert_eq!(s.jobs(), 0);
    }

    #[test]
    fn wakeup_coalesces_same_timestamp_only() {
        let mut w = Wakeup::new();
        assert!(w.request(10));
        assert!(!w.request(10)); // Exact duplicate suppressed.
        assert!(w.request(20)); // New timestamp re-arms.
        assert!(!w.request(20));
        w.fire(20);
        assert!(w.request(20)); // After dispatch, schedule anew.
    }

    #[test]
    fn wakeup_fire_ignores_stale_timestamps() {
        let mut w = Wakeup::new();
        assert!(w.request(10));
        assert!(w.request(30)); // Re-armed; the t=10 event is now stale.
        w.fire(10); // Stale dispatch must not disarm the t=30 wakeup.
        assert!(!w.request(30));
        w.fire(30);
        assert!(w.request(30));
    }
}
