//! Memory controllers: DRAM, SRAM, and on-chip Scratch.
//!
//! Each controller is a pipelined FIFO server: a request observes
//! `queueing + fixed latency` (Table 3 of the paper) while occupying the
//! data path only for its transfer time (the datasheet bandwidth). This
//! reproduces both latency hiding (other contexts run during the 52-cycle
//! DRAM read) and bandwidth saturation (the early DRAM-direct design's
//! 2.69 Mpps wall, paper section 3.5.2).

use npr_sim::{cycles_to_ps, Server, Time, PS_PER_SEC};

/// Which memory a reference targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// 32 MB off-chip DRAM (packet buffers).
    Dram,
    /// 2 MB off-chip SRAM (queues, routing state, flow state).
    Sram,
    /// 4 KB on-chip scratch (queue head/tail pointers).
    Scratch,
}

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rw {
    /// Read access.
    Read,
    /// Write access.
    Write,
}

/// One memory controller.
#[derive(Debug, Clone)]
pub struct MemCtl {
    read_lat_ps: Time,
    write_lat_ps: Time,
    ps_per_byte: Time,
    server: Server,
    reads: u64,
    writes: u64,
    bytes: u64,
    stall_until: Time,
    stall_extra_ps: Time,
    stalled_accesses: u64,
}

impl MemCtl {
    /// Creates a controller with latencies in MicroEngine cycles and a
    /// data path of `bps` bits per second.
    pub fn new(name: &'static str, read_cycles: u64, write_cycles: u64, bps: u64) -> Self {
        Self {
            read_lat_ps: cycles_to_ps(read_cycles),
            write_lat_ps: cycles_to_ps(write_cycles),
            ps_per_byte: 8 * PS_PER_SEC / bps,
            server: Server::new(name),
            reads: 0,
            writes: 0,
            bytes: 0,
            stall_until: 0,
            stall_extra_ps: 0,
            stalled_accesses: 0,
        }
    }

    /// Opens a stall episode: until `now + dur_ps`, every access pays
    /// `extra_ps` additional latency (a refresh storm / arbitration
    /// pathology injected by the fault plane). Overlapping episodes
    /// extend the window and take the larger penalty.
    pub fn inject_stall(&mut self, now: Time, dur_ps: Time, extra_ps: Time) {
        self.stall_until = self.stall_until.max(now + dur_ps);
        self.stall_extra_ps = self.stall_extra_ps.max(extra_ps);
    }

    /// True while a stall episode is open.
    pub fn stalled(&self, now: Time) -> bool {
        now < self.stall_until
    }

    /// Accesses that paid a stall penalty.
    pub fn stalled_accesses(&self) -> u64 {
        self.stalled_accesses
    }

    /// Admits an access of `bytes` at time `now`; returns the absolute
    /// completion time seen by the issuing context.
    pub fn access(&mut self, now: Time, rw: Rw, bytes: usize) -> Time {
        let occ = bytes as u64 * self.ps_per_byte;
        let lat = match rw {
            Rw::Read => {
                self.reads += 1;
                self.read_lat_ps
            }
            Rw::Write => {
                self.writes += 1;
                self.write_lat_ps
            }
        };
        self.bytes += bytes as u64;
        let lat = if now < self.stall_until {
            self.stalled_accesses += 1;
            lat + self.stall_extra_ps
        } else {
            self.stall_extra_ps = 0;
            lat
        };
        // Latency includes the transfer; it dominates occupancy for the
        // common transfer sizes, so completion = start + latency.
        self.server.admit(now, occ, lat.max(occ))
    }

    /// Admits `n` same-sized accesses issued together at `now`; returns
    /// the completion time of the last one.
    ///
    /// FIFO completion times are nondecreasing, so a context waiting on
    /// the whole batch (e.g. a paired descriptor + header fetch) can
    /// block on this single time instead of scheduling one wakeup per
    /// access. Statistics accumulate exactly as `n` calls to
    /// [`MemCtl::access`] would.
    pub fn access_batch(&mut self, now: Time, rw: Rw, bytes: usize, n: u32) -> Time {
        let mut done = now;
        for _ in 0..n {
            done = self.access(now, rw, bytes);
        }
        done
    }

    /// Uncontended read latency in picoseconds (Table 3 reproduction).
    pub fn read_latency_ps(&self) -> Time {
        self.read_lat_ps
    }

    /// Reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Busy time of the data path (for utilization reports).
    pub fn busy_ps(&self) -> Time {
        self.server.busy_ps()
    }

    /// Cumulative queueing delay imposed on requests.
    pub fn queued_ps(&self) -> Time {
        self.server.queued_ps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::*;

    fn dram() -> MemCtl {
        MemCtl::new("dram", DRAM_READ_CYCLES, DRAM_WRITE_CYCLES, DRAM_BPS)
    }

    #[test]
    fn uncontended_read_sees_table3_latency() {
        let mut m = dram();
        // 52 cycles = 260 ns for a 32-byte read.
        assert_eq!(m.access(0, Rw::Read, 32), 260_000);
    }

    #[test]
    fn writes_use_write_latency() {
        let mut m = dram();
        // 40 cycles = 200 ns.
        assert_eq!(m.access(0, Rw::Write, 32), 200_000);
    }

    #[test]
    fn pipelining_caps_at_datapath_bandwidth() {
        // Back-to-back 32-byte reads space out at 32 B / 6.4 Gbps = 40 ns.
        let mut m = dram();
        let d0 = m.access(0, Rw::Read, 32);
        let d1 = m.access(0, Rw::Read, 32);
        let d2 = m.access(0, Rw::Read, 32);
        assert_eq!(d1 - d0, 40_000);
        assert_eq!(d2 - d1, 40_000);
    }

    #[test]
    fn sustained_bandwidth_is_6_4_gbps() {
        let mut m = dram();
        let n = 1000u64;
        let mut done = 0;
        for _ in 0..n {
            done = m.access(0, Rw::Read, 32);
        }
        // After the pipeline fills, n transfers of 32 B take ~n * 40 ns.
        let gbps = (n * 32 * 8) as f64 / (done as f64 / 1e12) / 1e9;
        assert!(gbps > 6.0 && gbps <= 6.5, "got {gbps} Gbps");
    }

    #[test]
    fn counters_track_accesses() {
        let mut m = dram();
        m.access(0, Rw::Read, 32);
        m.access(0, Rw::Write, 8);
        assert_eq!((m.reads(), m.writes(), m.bytes()), (1, 1, 40));
    }

    #[test]
    fn access_batch_matches_serial_accesses() {
        let mut batched = dram();
        let mut serial = dram();
        let last = batched.access_batch(500, Rw::Read, 32, 3);
        let mut serial_last = 0;
        for _ in 0..3 {
            serial_last = serial.access(500, Rw::Read, 32);
        }
        assert_eq!(last, serial_last);
        assert_eq!(batched.reads(), serial.reads());
        assert_eq!(batched.bytes(), serial.bytes());
        assert_eq!(batched.busy_ps(), serial.busy_ps());
        assert_eq!(batched.queued_ps(), serial.queued_ps());
    }

    #[test]
    fn stall_episode_adds_latency_then_clears() {
        let mut m = dram();
        m.inject_stall(0, 1_000_000, 500_000);
        // Inside the window: penalty applies.
        assert_eq!(m.access(0, Rw::Read, 32), 760_000);
        assert!(m.stalled(500_000));
        assert_eq!(m.stalled_accesses(), 1);
        // After the window: back to Table 3 (queueing from the stalled
        // access has drained by then).
        let base = m.read_latency_ps();
        assert_eq!(m.access(2_000_000, Rw::Read, 32), 2_000_000 + base);
        assert_eq!(m.stalled_accesses(), 1);
    }

    #[test]
    fn scratch_is_fastest() {
        let mut s = MemCtl::new(
            "scratch",
            SCRATCH_READ_CYCLES,
            SCRATCH_WRITE_CYCLES,
            SCRATCH_BPS,
        );
        assert_eq!(s.access(0, Rw::Read, 4), 80_000); // 16 cycles.
        let mut sr = MemCtl::new("sram", SRAM_READ_CYCLES, SRAM_WRITE_CYCLES, SRAM_BPS);
        assert_eq!(sr.access(0, Rw::Read, 4), 110_000); // 22 cycles.
    }
}
