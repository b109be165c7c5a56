//! The paper's circular DRAM packet-buffer allocator.
//!
//! "16MB of DRAM are divided into 8192 buffers of 2KB each ... These
//! buffers are then consumed by input processing contexts in a circular
//! fashion as packets arrive. ... Any given packet buffer remains valid
//! for only one pass though the circular buffer list. ... If a packet is
//! not transmitted by the output process before its buffer is reused, the
//! packet is effectively lost." (paper, section 3.2.3)
//!
//! We model this faithfully: allocation returns a handle carrying a *lap
//! number*; reads validate the lap and report stale handles, which the
//! harness counts as the paper's "effectively lost" packets.

/// Default number of buffers (8192 x 2 KB = 16 MB).
pub const DEFAULT_BUFFER_COUNT: usize = 8192;

/// Default buffer size: 2 KB, "large enough to accommodate a maximally
/// sized (1518 octet frame) Ethernet packet".
pub const DEFAULT_BUFFER_SIZE: usize = 2048;

/// A handle to an allocated buffer: index plus the lap it was allocated
/// on. Stale handles (overtaken by a full lap of the ring) fail reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferHandle {
    index: u32,
    lap: u32,
}

impl BufferHandle {
    /// The buffer index (its "DRAM address" in descriptor form).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Packs the handle into the 32-bit SRAM queue-entry format used by
    /// the paper's queues (index in the low 13 bits, lap above).
    pub fn to_descriptor(self) -> u32 {
        (self.lap << 13) | self.index
    }

    /// Unpacks a descriptor produced by [`BufferHandle::to_descriptor`].
    pub fn from_descriptor(d: u32) -> Self {
        Self {
            index: d & 0x1fff,
            lap: d >> 13,
        }
    }
}

/// The circular buffer pool.
///
/// # Examples
///
/// ```
/// use npr_packet::BufferPool;
///
/// let mut pool = BufferPool::new(4, 64);
/// let h = pool.alloc();
/// pool.write(h, &[1, 2, 3]).unwrap();
/// assert_eq!(pool.read(h).unwrap()[..3], [1, 2, 3]);
/// // Four more allocations lap the ring; the handle is now stale.
/// for _ in 0..4 { pool.alloc(); }
/// assert!(pool.read(h).is_none());
/// ```
#[derive(Debug)]
pub struct BufferPool {
    bufs: Vec<Vec<u8>>,
    laps: Vec<u32>,
    lens: Vec<usize>,
    next: usize,
    current_lap: u32,
    allocations: u64,
    stale_reads: u64,
}

impl BufferPool {
    /// Creates a pool of `count` buffers of `size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or exceeds `2^13` (the descriptor format's
    /// index width).
    pub fn new(count: usize, size: usize) -> Self {
        assert!(count > 0 && count <= 1 << 13, "buffer count out of range");
        Self {
            bufs: vec![vec![0u8; size]; count],
            laps: vec![u32::MAX; count],
            lens: vec![0; count],
            next: 0,
            current_lap: 0,
            allocations: 0,
            stale_reads: 0,
        }
    }

    /// Creates the paper's configuration: 8192 buffers of 2 KB.
    pub fn paper_default() -> Self {
        Self::new(DEFAULT_BUFFER_COUNT, DEFAULT_BUFFER_SIZE)
    }

    /// Number of buffers in the ring.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// Always false (the ring always has buffers; they just get reused).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Allocates the next buffer in circular order. Never fails — older
    /// contents are silently overwritten, exactly as on the hardware.
    pub fn alloc(&mut self) -> BufferHandle {
        let index = self.next;
        self.next = (self.next + 1) % self.bufs.len();
        if self.next == 0 {
            self.current_lap = self.current_lap.wrapping_add(1) & 0x7ffff;
        }
        let lap = if self.next == 0 {
            // This allocation was the last of the previous lap.
            self.current_lap.wrapping_sub(1) & 0x7ffff
        } else {
            self.current_lap
        };
        self.laps[index] = lap;
        self.lens[index] = 0;
        self.allocations += 1;
        BufferHandle {
            index: index as u32,
            lap,
        }
    }

    /// Writes `data` into the buffer if the handle is still current.
    /// Returns `None` if the handle is stale or `data` exceeds the
    /// buffer size.
    pub fn write(&mut self, h: BufferHandle, data: &[u8]) -> Option<()> {
        let i = h.index as usize;
        if self.laps.get(i) != Some(&h.lap) || data.len() > self.bufs[i].len() {
            return None;
        }
        self.bufs[i][..data.len()].copy_from_slice(data);
        self.lens[i] = self.lens[i].max(data.len());
        Some(())
    }

    /// Appends at `offset` (MP-by-MP filling, as input contexts do).
    pub fn write_at(&mut self, h: BufferHandle, offset: usize, data: &[u8]) -> Option<()> {
        let i = h.index as usize;
        if self.laps.get(i) != Some(&h.lap) || offset + data.len() > self.bufs[i].len() {
            return None;
        }
        self.bufs[i][offset..offset + data.len()].copy_from_slice(data);
        self.lens[i] = self.lens[i].max(offset + data.len());
        Some(())
    }

    /// Reads the buffer contents if the handle is still current; records
    /// a stale read otherwise (the paper's "packet effectively lost").
    pub fn read(&mut self, h: BufferHandle) -> Option<&[u8]> {
        let i = h.index as usize;
        if self.laps.get(i) != Some(&h.lap) {
            self.stale_reads += 1;
            return None;
        }
        Some(&self.bufs[i][..self.lens[i]])
    }

    /// Valid data length for a (current) handle.
    pub fn data_len(&self, h: BufferHandle) -> Option<usize> {
        let i = h.index as usize;
        (self.laps.get(i) == Some(&h.lap)).then(|| self.lens[i])
    }

    /// Total allocations served.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Reads that found an overwritten buffer.
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npr_check::prelude::*;

    #[test]
    fn alloc_cycles_through_indices() {
        let mut p = BufferPool::new(3, 16);
        let idx: Vec<u32> = (0..7).map(|_| p.alloc().index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(p.allocations(), 7);
    }

    #[test]
    fn write_then_read_within_one_lap() {
        let mut p = BufferPool::new(8, 32);
        let h = p.alloc();
        p.write(h, b"hello").unwrap();
        assert_eq!(p.read(h).unwrap(), b"hello");
        assert_eq!(p.data_len(h), Some(5));
    }

    #[test]
    fn handle_goes_stale_after_full_lap() {
        let mut p = BufferPool::new(4, 16);
        let h = p.alloc();
        p.write(h, b"x").unwrap();
        for _ in 0..3 {
            p.alloc();
        }
        // Still valid: the ring has not reached index 0 again.
        assert!(p.read(h).is_some());
        p.alloc(); // Reuses index 0 on the next lap.
        assert!(p.read(h).is_none());
        assert_eq!(p.stale_reads(), 1);
        assert!(p.write(h, b"y").is_none());
    }

    #[test]
    fn write_at_assembles_mps() {
        let mut p = BufferPool::new(2, 128);
        let h = p.alloc();
        p.write_at(h, 0, &[1u8; 64]).unwrap();
        p.write_at(h, 64, &[2u8; 30]).unwrap();
        let d = p.read(h).unwrap();
        assert_eq!(d.len(), 94);
        assert_eq!(d[63], 1);
        assert_eq!(d[64], 2);
    }

    #[test]
    fn oversized_write_fails() {
        let mut p = BufferPool::new(2, 8);
        let h = p.alloc();
        assert!(p.write(h, &[0u8; 9]).is_none());
        assert!(p.write_at(h, 4, &[0u8; 5]).is_none());
    }

    #[test]
    fn descriptor_round_trip() {
        let mut p = BufferPool::new(16, 8);
        for _ in 0..40 {
            let h = p.alloc();
            assert_eq!(BufferHandle::from_descriptor(h.to_descriptor()), h);
        }
    }

    #[test]
    fn paper_default_dimensions() {
        let p = BufferPool::paper_default();
        assert_eq!(p.len(), 8192);
    }

    proptest! {
        #[test]
        fn lap_invariant(ops in npr_check::collection::vec(0u8..4, 1..200)) {
            // A handle is readable iff fewer than `len` allocations have
            // happened since it was issued.
            let mut p = BufferPool::new(8, 16);
            let mut live: Vec<(BufferHandle, u64)> = Vec::new();
            for op in ops {
                match op {
                    0..=2 => {
                        let h = p.alloc();
                        live.push((h, p.allocations()));
                    }
                    _ => {
                        let allocs = p.allocations();
                        for &(h, born) in &live {
                            let fresh = allocs - born < 8;
                            prop_assert_eq!(p.read(h).is_some(), fresh);
                        }
                    }
                }
            }
        }
    }
}
