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

use crate::mp::MP_SIZE;

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
/// The modelled layout is `count` slots of `size` bytes, and `size`
/// still refuses an oversize write; but the host stores a slot only
/// once a write lands in it, and then at one of two sizes: one MP
/// while every packet it has held fits in one, else the whole `size`
/// bytes. A read sees exactly what the fixed layout would (bytes a
/// slot never held read as zero, bytes an earlier lap left read back),
/// so only the footprint ([`BufferPool::bytes`]) differs.
///
/// Two sizes, not the largest frame each slot has held: under mixed
/// frame sizes, which slots have held a large frame depends on how the
/// traffic's size pattern lines up with the ring, and the exact
/// footprint swings with it (by 40% between seeds of one IMIX
/// workload). Whether a slot has ever held a multi-MP frame saturates
/// within a few laps of any such traffic, so the footprint is steady:
/// `count` MPs under minimum-size frames, about `count * size` under a
/// mix.
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
    /// Each slot's stored bytes: none, one MP, or `size`.
    bufs: Vec<Vec<u8>>,
    /// The modelled slot size: no write may reach past it.
    size: usize,
    laps: Vec<u32>,
    lens: Vec<usize>,
    next: usize,
    current_lap: u32,
    allocations: u64,
    stale_reads: u64,
}

impl BufferPool {
    /// Creates a pool of `count` buffers of `size` bytes each. No
    /// payload is allocated until a write lands.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or exceeds `2^13` (the descriptor format's
    /// index width).
    pub fn new(count: usize, size: usize) -> Self {
        assert!(count > 0 && count <= 1 << 13, "buffer count out of range");
        Self {
            bufs: vec![Vec::new(); count],
            size,
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

    /// Writes `data` as the whole packet if the handle is still
    /// current: the packet's length becomes `data.len()`, shorter or
    /// longer than before. Returns `None` if the handle is stale or
    /// `data` exceeds the buffer size.
    pub fn write(&mut self, h: BufferHandle, data: &[u8]) -> Option<()> {
        self.write_at(h, 0, data)?;
        self.lens[h.index as usize] = data.len();
        Some(())
    }

    /// Writes at `offset` (MP-by-MP filling, as input contexts do); the
    /// packet's length grows to cover it.
    pub fn write_at(&mut self, h: BufferHandle, offset: usize, data: &[u8]) -> Option<()> {
        let i = h.index as usize;
        let end = offset + data.len();
        if self.laps.get(i) != Some(&h.lap) || end > self.size {
            return None;
        }
        let slot = &mut self.bufs[i];
        if end > slot.len() {
            grow(slot, end, self.size);
        }
        slot[offset..end].copy_from_slice(data);
        self.lens[i] = self.lens[i].max(end);
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

    /// Payload bytes the slots hold on the host: one MP per slot that
    /// has held only single-MP packets, `size` per slot that has held
    /// more (the modelled layout is `len() * size` bytes).
    pub fn bytes(&self) -> usize {
        self.bufs.iter().map(Vec::len).sum()
    }
}

/// Zero-extends `slot` so it holds `end` bytes: to one MP if `end`
/// fits in one, else to the whole `size`. Runs at most twice per slot,
/// out of line, so the write path stays one copy.
#[cold]
#[inline(never)]
fn grow(slot: &mut Vec<u8>, end: usize, size: usize) {
    let to = if end <= MP_SIZE {
        MP_SIZE.min(size)
    } else {
        size
    };
    slot.reserve_exact(to - slot.len());
    slot.resize(to, 0);
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
    fn whole_packet_write_sets_the_length() {
        let mut p = BufferPool::new(2, 64);
        let h = p.alloc();
        p.write(h, &[7u8; 40]).unwrap();
        // A forwarder replaces the packet with a shorter one.
        p.write(h, &[9u8; 10]).unwrap();
        assert_eq!(p.read(h).unwrap(), &[9u8; 10]);
        // MP-by-MP writes only ever extend it.
        p.write_at(h, 20, &[1u8; 4]).unwrap();
        p.write_at(h, 0, &[2u8; 2]).unwrap();
        assert_eq!(p.data_len(h), Some(24));
    }

    #[test]
    fn slots_hold_one_mp_or_a_whole_buffer() {
        let mut p = BufferPool::new(4, 2048);
        assert_eq!(p.bytes(), 0);
        let small = p.alloc();
        p.write(small, &[8u8; 60]).unwrap();
        assert_eq!(p.bytes(), MP_SIZE);
        let h = p.alloc();
        p.write_at(h, 64, &[5u8; 10]).unwrap();
        // The gap below the write reads as zero, like unwritten DRAM.
        let d = p.read(h).unwrap();
        assert_eq!(d.len(), 74);
        assert!(d[..64].iter().all(|&b| b == 0));
        assert_eq!(p.bytes(), MP_SIZE + 2048);
        // A shorter packet on a later lap reuses the slot without growth,
        // and bytes from the earlier lap still read back.
        for _ in 0..4 {
            p.alloc();
        }
        let h = BufferHandle { index: 1, lap: 1 };
        p.write_at(h, 0, &[3u8; 60]).unwrap();
        p.write_at(h, 68, &[4u8; 2]).unwrap();
        let d = p.read(h).unwrap();
        assert_eq!(d.len(), 70);
        assert_eq!(d[56..70], [3, 3, 3, 3, 0, 0, 0, 0, 5, 5, 5, 5, 4, 4]);
        assert_eq!(p.bytes(), MP_SIZE + 2048);
        // A slot that held one MP grows to the whole buffer once.
        let h = BufferHandle { index: 0, lap: 1 };
        p.write(h, &[0u8; 65]).unwrap();
        assert_eq!(p.bytes(), 2 * 2048);
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

    /// The reference model: the paper's fixed layout, every slot
    /// `size` zeroed bytes from the start. [`BufferPool`] must be
    /// indistinguishable from it through every public read.
    struct FixedPool {
        bufs: Vec<Vec<u8>>,
        laps: Vec<u32>,
        lens: Vec<usize>,
        next: usize,
        allocations: u64,
        stale_reads: u64,
    }

    impl FixedPool {
        fn new(count: usize, size: usize) -> Self {
            Self {
                bufs: vec![vec![0u8; size]; count],
                laps: vec![u32::MAX; count],
                lens: vec![0; count],
                next: 0,
                allocations: 0,
                stale_reads: 0,
            }
        }

        /// Handles must equal the pool's, so the model numbers laps
        /// as the pool does (`allocations / count`).
        fn alloc(&mut self) -> BufferHandle {
            let index = self.next;
            let lap = (self.allocations / self.bufs.len() as u64) as u32 & 0x7ffff;
            self.next = (index + 1) % self.bufs.len();
            self.laps[index] = lap;
            self.lens[index] = 0;
            self.allocations += 1;
            BufferHandle {
                index: index as u32,
                lap,
            }
        }

        fn current(&self, h: BufferHandle) -> Option<usize> {
            let i = h.index as usize;
            (self.laps.get(i) == Some(&h.lap)).then_some(i)
        }

        fn write_at(&mut self, h: BufferHandle, offset: usize, data: &[u8]) -> Option<()> {
            let i = self.current(h)?;
            let end = offset + data.len();
            self.bufs[i].get_mut(offset..end)?.copy_from_slice(data);
            self.lens[i] = self.lens[i].max(end);
            Some(())
        }

        fn write(&mut self, h: BufferHandle, data: &[u8]) -> Option<()> {
            let i = self.current(h)?;
            self.bufs[i].get_mut(..data.len())?.copy_from_slice(data);
            self.lens[i] = data.len();
            Some(())
        }

        fn read(&mut self, h: BufferHandle) -> Option<&[u8]> {
            let Some(i) = self.current(h) else {
                self.stale_reads += 1;
                return None;
            };
            Some(&self.bufs[i][..self.lens[i]])
        }

        fn data_len(&self, h: BufferHandle) -> Option<usize> {
            self.current(h).map(|i| self.lens[i])
        }
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

        #[test]
        fn matches_the_fixed_layout(
            ops in npr_check::collection::vec(
                (0u8..5, 0u16..512, 0u16..36, 0u16..2100),
                1..300,
            )
        ) {
            // Both pools see the same alloc / whole-packet write /
            // out-of-order MP write / read / forged-handle read
            // sequence, over several laps of a 4-slot ring, with writes
            // that overrun the 2 KiB slot and handles gone stale.
            const SIZE: usize = 2048;
            let mut grown = BufferPool::new(4, SIZE);
            let mut fixed = FixedPool::new(4, SIZE);
            let mut issued: Vec<BufferHandle> = Vec::new();
            for (step, &(kind, pick, mp, len)) in ops.iter().enumerate() {
                let fill: Vec<u8> = (0..usize::from(len))
                    .map(|j| (step * 31 + j) as u8 | 1)
                    .collect();
                let h = match issued.len() {
                    0 => None,
                    n => Some(issued[usize::from(pick) % n]),
                };
                match (kind, h) {
                    (0, _) | (_, None) => {
                        let h = grown.alloc();
                        prop_assert_eq!(h, fixed.alloc());
                        issued.push(h);
                    }
                    (1, Some(h)) => {
                        prop_assert_eq!(grown.write(h, &fill), fixed.write(h, &fill));
                    }
                    (2, Some(h)) => {
                        let (off, data) = (usize::from(mp) * 64, &fill[..fill.len().min(64)]);
                        prop_assert_eq!(
                            grown.write_at(h, off, data),
                            fixed.write_at(h, off, data)
                        );
                    }
                    (3, Some(h)) => {
                        let got = grown.read(h).map(<[u8]>::to_vec);
                        prop_assert_eq!(got, fixed.read(h).map(<[u8]>::to_vec));
                    }
                    (_, Some(_)) => {
                        let forged = BufferHandle::from_descriptor(u32::from(pick) << 4 | u32::from(mp));
                        let got = grown.read(forged).map(<[u8]>::to_vec);
                        prop_assert_eq!(got, fixed.read(forged).map(<[u8]>::to_vec));
                    }
                }
                if let Some(h) = h {
                    prop_assert_eq!(grown.data_len(h), fixed.data_len(h));
                }
                prop_assert_eq!(grown.stale_reads(), fixed.stale_reads);
                prop_assert_eq!(grown.allocations(), fixed.allocations);
                prop_assert!(grown
                    .bufs
                    .iter()
                    .all(|b| [0, MP_SIZE, SIZE].contains(&b.len())));
            }
        }
    }
}
