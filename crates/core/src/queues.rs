//! SRAM packet queues and queueing disciplines.
//!
//! "queues are contiguous circular arrays of 32-bit entries in SRAM.
//! Head and tail pointers are simply indexes into the array, and they
//! are stored in Scratch memory." (paper, section 3.4)
//!
//! This module holds the *data* side of the queues (the timing side —
//! mutexes, scratch reads, SRAM writes — is charged by the context
//! programs per the [`crate::costs`] model). Each queue is a bounded
//! descriptor ring with drop accounting, plus the readiness bit-array
//! used by the O.3 discipline.

/// Input-side queue-access discipline (Table 1, I rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputDiscipline {
    /// I.1: statically private queues per input context; no
    /// synchronization, readiness advertised with a bit-set write.
    PrivatePerCtx,
    /// I.2 / I.3: shared queues protected by a hardware mutex (whether
    /// contention occurs is a property of the traffic, not the config).
    ProtectedShared,
}

/// Output-side servicing discipline (Table 1, O rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputDiscipline {
    /// O.1: one queue per port, transmissions batched so the head
    /// pointer is re-read only when the batch empties.
    SingleBatched,
    /// O.2: one queue per port, head pointer re-read every iteration.
    SingleUnbatched,
    /// O.3: multiple queues per port behind a readiness bit-array.
    MultiIndirect,
}

/// One bounded descriptor queue. An entry is a bare descriptor unless
/// the queue carries a tag beside it (the StrongARM staging queues hold
/// `(descriptor, forwarder)` pairs).
#[derive(Debug, Clone)]
pub struct PacketQueue<T = u32> {
    entries: std::collections::VecDeque<T>,
    cap: usize,
    enqueued: u64,
    dequeued: u64,
    drops: u64,
}

impl<T> PacketQueue<T> {
    /// Creates a queue holding up to `cap` descriptors.
    pub fn new(cap: usize) -> Self {
        Self {
            entries: std::collections::VecDeque::with_capacity(cap.min(4096)),
            cap,
            enqueued: 0,
            dequeued: 0,
            drops: 0,
        }
    }

    /// Enqueues an entry; returns `false` (and counts a drop) when the
    /// ring is full.
    pub fn enqueue(&mut self, entry: T) -> bool {
        if self.entries.len() >= self.cap {
            self.drops += 1;
            return false;
        }
        self.entries.push_back(entry);
        self.enqueued += 1;
        true
    }

    /// Dequeues the oldest entry.
    pub fn dequeue(&mut self) -> Option<T> {
        let d = self.entries.pop_front()?;
        self.dequeued += 1;
        Some(d)
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The queued entries, oldest first, for in-place retagging.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut()
    }

    /// Descriptors accepted so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Descriptors consumed so far.
    pub fn dequeued(&self) -> u64 {
        self.dequeued
    }

    /// Descriptors rejected because the ring was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

/// The queue plane: all queues, their port/priority mapping, and the
/// readiness bit-array of section 3.4.3.
#[derive(Debug)]
pub struct QueuePlane {
    queues: Vec<PacketQueue>,
    /// `port_base[p]..port_base[p] + queues_per_port` index this port's
    /// queues, in descending priority order.
    queues_per_port: usize,
    ready_bits: Vec<u64>,
}

impl QueuePlane {
    /// Creates `ports x queues_per_port` queues of capacity `cap`.
    pub fn new(ports: usize, queues_per_port: usize, cap: usize) -> Self {
        Self {
            queues: (0..ports * queues_per_port)
                .map(|_| PacketQueue::new(cap))
                .collect(),
            queues_per_port,
            ready_bits: vec![0; ports],
        }
    }

    /// Queue index for `(port, priority)`.
    pub fn qid(&self, port: usize, prio: usize) -> usize {
        debug_assert!(prio < self.queues_per_port);
        port * self.queues_per_port + prio
    }

    /// Queues per port.
    pub fn queues_per_port(&self) -> usize {
        self.queues_per_port
    }

    /// Total queue count.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// True when no queues exist.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Enqueues into `qid`, maintaining the readiness bit.
    pub fn enqueue(&mut self, qid: usize, desc: u32) -> bool {
        let ok = self.queues[qid].enqueue(desc);
        if ok {
            let port = qid / self.queues_per_port;
            self.ready_bits[port] |= 1 << (qid % self.queues_per_port);
        }
        ok
    }

    /// Dequeues from `qid`, clearing the readiness bit when it empties.
    pub fn dequeue(&mut self, qid: usize) -> Option<u32> {
        let d = self.queues[qid].dequeue();
        if self.queues[qid].is_empty() {
            let port = qid / self.queues_per_port;
            self.ready_bits[port] &= !(1 << (qid % self.queues_per_port));
        }
        d
    }

    /// Highest-priority ready queue for `port` via the bit-array
    /// (the O.3 `select_queue`): one scratch read instead of N.
    pub fn select_ready(&self, port: usize) -> Option<usize> {
        let bits = self.ready_bits[port];
        if bits == 0 {
            return None;
        }
        Some(self.qid(port, bits.trailing_zeros() as usize))
    }

    /// Direct access for reports.
    pub fn queue(&self, qid: usize) -> &PacketQueue {
        &self.queues[qid]
    }

    /// Total drops across all queues.
    pub fn total_drops(&self) -> u64 {
        self.queues.iter().map(|q| q.drops()).sum()
    }

    /// Total enqueues across all queues.
    pub fn total_enqueued(&self) -> u64 {
        self.queues.iter().map(|q| q.enqueued()).sum()
    }

    /// Descriptors currently queued across all queues (conservation
    /// checker's in-flight term).
    pub fn total_queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = PacketQueue::new(8);
        for d in 0..5 {
            assert!(q.enqueue(d));
        }
        for d in 0..5 {
            assert_eq!(q.dequeue(), Some(d));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn full_queue_drops_and_counts() {
        let mut q = PacketQueue::new(2);
        assert!(q.enqueue(1));
        assert!(q.enqueue(2));
        assert!(!q.enqueue(3));
        assert_eq!(q.drops(), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn plane_qid_mapping() {
        let p = QueuePlane::new(8, 4, 64);
        assert_eq!(p.qid(0, 0), 0);
        assert_eq!(p.qid(1, 0), 4);
        assert_eq!(p.qid(7, 3), 31);
        assert_eq!(p.len(), 32);
    }

    #[test]
    fn readiness_bits_follow_occupancy() {
        let mut p = QueuePlane::new(2, 4, 8);
        assert_eq!(p.select_ready(0), None);
        p.enqueue(p.qid(0, 2), 42);
        assert_eq!(p.select_ready(0), Some(p.qid(0, 2)));
        // Higher priority (lower index) wins.
        p.enqueue(p.qid(0, 1), 43);
        assert_eq!(p.select_ready(0), Some(p.qid(0, 1)));
        let q = p.select_ready(0).unwrap();
        assert_eq!(p.dequeue(q), Some(43));
        assert_eq!(p.select_ready(0), Some(p.qid(0, 2)));
        let q = p.select_ready(0).unwrap();
        p.dequeue(q);
        assert_eq!(p.select_ready(0), None);
    }

    #[test]
    fn ports_have_independent_bits() {
        let mut p = QueuePlane::new(2, 2, 8);
        p.enqueue(p.qid(1, 0), 9);
        assert_eq!(p.select_ready(0), None);
        assert_eq!(p.select_ready(1), Some(p.qid(1, 0)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use npr_check::prelude::*;

    proptest! {
        /// The readiness bit-array always agrees with actual queue
        /// occupancy, under any interleaving of operations — the O.3
        /// indirection must never lie to the output scheduler.
        #[test]
        fn ready_bits_track_occupancy(
            ops in npr_check::collection::vec((0usize..4, 0usize..4, any::<bool>()), 1..300),
        ) {
            let mut p = QueuePlane::new(4, 4, 8);
            for (port, prio, enq) in ops {
                let qid = p.qid(port, prio);
                if enq {
                    p.enqueue(qid, (port * 4 + prio) as u32);
                } else {
                    p.dequeue(qid);
                }
                // Invariant: select_ready(port) returns the highest-
                // priority non-empty queue, or None when all empty.
                for pt in 0..4 {
                    let expect = (0..4)
                        .map(|pr| p.qid(pt, pr))
                        .find(|&q| !p.queue(q).is_empty());
                    prop_assert_eq!(p.select_ready(pt), expect);
                }
            }
        }

        /// Conservation: enqueued = dequeued + drops + still-queued.
        #[test]
        fn queue_accounting_conserves(
            ops in npr_check::collection::vec(any::<bool>(), 1..200),
        ) {
            let mut q = PacketQueue::new(5);
            let mut attempted = 0u64;
            for enq in ops {
                if enq {
                    attempted += 1;
                    q.enqueue(attempted as u32);
                } else {
                    q.dequeue();
                }
                prop_assert!(q.len() <= 5);
            }
            prop_assert_eq!(q.enqueued() + q.drops(), attempted);
            prop_assert_eq!(q.enqueued(), q.dequeued() + q.len() as u64);
        }
    }
}
