//! The PCI bus and I2O queue pairs (paper, section 3.7).
//!
//! "We move packets between the IXP1200 and the Pentium over the PCI
//! bus. Our implementation uses the IXP1200's DMA engine, plus queue
//! management hardware registers supporting the Intelligent I/O (I2O)
//! standard. ... One queue contains pointers to empty buffers in Pentium
//! memory, and the other contains pointers to full buffers."
//!
//! The bus is a 32-bit 33 MHz shared server (132 MB/s peak) with a
//! per-transaction arbitration/setup overhead. At 1500-byte packets the
//! bus, not the StrongARM, becomes the bottleneck — reproducing Table
//! 4's 43.6 Kpps row.

use npr_sim::{FaultClass, FaultPlan, Server, Time, PS_PER_SEC};

/// PCI payload bandwidth: 32 bit x 33 MHz = 132 MB/s.
pub const PCI_BYTES_PER_SEC: u64 = 132_000_000;

/// Per-transaction overhead (arbitration, address phase, DMA setup).
pub const PCI_TXN_OVERHEAD_PS: Time = 300_000; // 300 ns.

/// Master back-off before retrying an aborted transaction.
pub const PCI_RETRY_BACKOFF_PS: Time = 1_000_000; // 1 us.

/// Retries before the bridge escalates to a locked transaction that
/// cannot be aborted (bounds the wasted bus time per packet and keeps
/// the path lossless even at a 100% injected error rate). Each
/// abandonment counts once in `Report::pci_retry_exhausted`.
pub const PCI_MAX_RETRIES: u32 = 4;

/// Pentium-side I2O packet buffers on a router's bus.
pub const PE_BUFFERS: usize = 64;

/// The internal routing header prepended to packets crossing the bus
/// ("an 8-byte internal routing header that informs the Pentium of (1)
/// the classification decision ... and (2) how to retrieve the rest of
/// the message (lazily)").
pub const ROUTING_HEADER_BYTES: usize = 8;

/// The shared PCI bus plus I2O buffer accounting.
#[derive(Debug)]
pub struct Pci {
    bus: Server,
    /// Free Pentium-side packet buffers (the I2O free queue depth).
    free_buffers: usize,
    capacity: usize,
    bytes_moved: u64,
    transfers: u64,
    errors: u64,
    retries: u64,
    exhausted: u64,
}

impl Pci {
    /// Creates a bus with `buffers` I2O packet buffers.
    pub fn new(buffers: usize) -> Self {
        Self {
            bus: Server::new("pci"),
            free_buffers: buffers,
            capacity: buffers,
            bytes_moved: 0,
            transfers: 0,
            errors: 0,
            retries: 0,
            exhausted: 0,
        }
    }

    /// Bus occupancy of one transaction of `bytes`.
    fn occupancy_ps(bytes: usize) -> Time {
        PCI_TXN_OVERHEAD_PS + bytes as u64 * 8 * PS_PER_SEC / (PCI_BYTES_PER_SEC * 8)
    }

    /// Admits a DMA of `bytes` at `now`; returns its completion time.
    /// The bus is shared between both directions.
    pub fn transfer(&mut self, now: Time, bytes: usize) -> Time {
        self.bytes_moved += bytes as u64;
        self.transfers += 1;
        let occ = Self::occupancy_ps(bytes);
        self.bus.admit(now, occ, occ)
    }

    /// [`Pci::transfer`] under the fault plane: each attempt may be
    /// aborted (`FaultClass::PciError`), in which case the doomed
    /// transaction still occupies the bus for its full slot, the master
    /// backs off, and the DMA is retried. After [`PCI_MAX_RETRIES`] attempts
    /// the transaction abandons the retry path — counted exactly once
    /// in `exhausted` — and the bridge escalates to a locked
    /// transaction, so the transfer always completes: errors waste bus
    /// time, they never lose packets.
    pub fn transfer_faulty(
        &mut self,
        now: Time,
        bytes: usize,
        faults: Option<&mut FaultPlan>,
    ) -> Time {
        let Some(f) = faults else {
            return self.transfer(now, bytes);
        };
        let mut at = now;
        let mut attempts = 0u32;
        while attempts < PCI_MAX_RETRIES && f.roll(FaultClass::PciError) {
            self.errors += 1;
            let occ = Self::occupancy_ps(bytes);
            at = self.bus.admit(at, occ, occ) + PCI_RETRY_BACKOFF_PS;
            attempts += 1;
        }
        if attempts == PCI_MAX_RETRIES {
            self.exhausted += 1;
        }
        self.retries += u64::from(attempts);
        self.transfer(at, bytes)
    }

    /// Aborted transactions observed.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Retried DMAs (sum of retry attempts).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Transactions that exhausted their retry budget and were
    /// abandoned to the locked-transaction path (once per transaction).
    pub fn exhausted(&self) -> u64 {
        self.exhausted
    }

    /// Tries to claim a free Pentium-side buffer (the SA's pull from the
    /// free queue). Returns `false` when none are available.
    pub fn claim_buffer(&mut self) -> bool {
        if self.free_buffers == 0 {
            return false;
        }
        self.free_buffers -= 1;
        true
    }

    /// Returns a buffer to the free queue (write-back complete or packet
    /// consumed).
    pub fn release_buffer(&mut self) {
        debug_assert!(self.free_buffers < self.capacity, "double release");
        self.free_buffers = (self.free_buffers + 1).min(self.capacity);
    }

    /// Free-buffer count.
    pub fn free_buffers(&self) -> usize {
        self.free_buffers
    }

    /// Total bytes DMAed.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total time the bus has been occupied.
    pub(crate) fn busy_ps(&self) -> Time {
        self.bus.busy_ps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_overhead_and_bytes() {
        let mut p = Pci::new(4);
        // 1320 bytes at 132 MB/s = 10 us + 0.3 us overhead.
        let t = p.transfer(0, 1320);
        assert_eq!(t, 10_300_000);
    }

    #[test]
    fn bus_is_shared_fifo() {
        let mut p = Pci::new(4);
        let t0 = p.transfer(0, 1320);
        let t1 = p.transfer(0, 1320);
        assert_eq!(t1 - t0, t0);
    }

    #[test]
    fn buffer_accounting() {
        let mut p = Pci::new(2);
        assert!(p.claim_buffer());
        assert!(p.claim_buffer());
        assert!(!p.claim_buffer());
        p.release_buffer();
        assert!(p.claim_buffer());
        assert_eq!(p.free_buffers(), 0);
    }

    #[test]
    fn faultless_faulty_transfer_matches_plain() {
        let mut a = Pci::new(4);
        let mut b = Pci::new(4);
        // No plan attached: identical timing and no error accounting.
        assert_eq!(a.transfer_faulty(0, 1320, None), b.transfer(0, 1320));
        assert_eq!(a.errors(), 0);
        // Plan attached but class disabled: still identical (and the
        // plan's streams are untouched).
        let mut plan = FaultPlan::new(5);
        assert_eq!(
            a.transfer_faulty(0, 1320, Some(&mut plan)),
            b.transfer(0, 1320)
        );
        assert_eq!(a.retries(), 0);
    }

    #[test]
    fn aborted_transactions_retry_and_complete() {
        let mut p = Pci::new(4);
        let mut plan = FaultPlan::new(9).with_rate(FaultClass::PciError, npr_sim::fault::PPM);
        // 100% error rate: exactly PCI_MAX_RETRIES aborts, then the
        // locked transaction goes through.
        let done = p.transfer_faulty(0, 1320, Some(&mut plan));
        assert_eq!(p.errors(), u64::from(PCI_MAX_RETRIES));
        assert_eq!(p.retries(), u64::from(PCI_MAX_RETRIES));
        assert_eq!(p.transfers(), 1);
        // 5 bus slots of 10.3 us plus 4 backoffs of 1 us.
        assert_eq!(done, 5 * 10_300_000 + 4 * 1_000_000);
    }

    #[test]
    fn exhaustion_counts_once_per_abandoned_transaction() {
        // At a 100% error rate every transfer burns its whole retry
        // budget and is abandoned to the locked path: the exhaustion
        // counter must advance by exactly one per transaction.
        let mut p = Pci::new(4);
        let mut plan = FaultPlan::new(11).with_rate(FaultClass::PciError, npr_sim::fault::PPM);
        for n in 1..=5u64 {
            let _ = p.transfer_faulty(0, 64, Some(&mut plan));
            assert_eq!(p.exhausted(), n, "once per transaction");
        }
        assert_eq!(p.errors(), 5 * u64::from(PCI_MAX_RETRIES));
    }

    #[test]
    fn surviving_retry_paths_are_not_counted_exhausted() {
        // A transaction whose retry succeeds before the cap never
        // touches the exhaustion counter.
        let mut p = Pci::new(4);
        let mut plan = FaultPlan::new(13).with_rate(FaultClass::PciError, 100_000);
        for _ in 0..64 {
            let _ = p.transfer_faulty(0, 64, Some(&mut plan));
        }
        assert!(p.errors() > 0, "the 10% rate must abort something");
        // Seed 13 at 10%: no run of 4 consecutive aborts in 64 tries.
        assert_eq!(p.exhausted(), 0);
    }

    #[test]
    fn full_size_packets_cap_near_44kpps() {
        // Table 4's 1500-byte row: two crossings of 1508 bytes per
        // packet saturate the bus around 43-44 Kpps.
        let mut p = Pci::new(64);
        let n = 1000;
        let mut done = 0;
        for _ in 0..n {
            let _ = p.transfer(0, 1508);
            done = p.transfer(0, 1508);
        }
        let kpps = n as f64 / (done as f64 / 1e12) / 1e3;
        assert!((40.0..48.0).contains(&kpps), "got {kpps} Kpps");
    }
}
