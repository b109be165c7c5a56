//! The IXP1200 as the paper measured it: every hardware figure the
//! model uses is a constant here, each with its provenance in the paper
//! (section / table) or the IXP1200 datasheet. [`ChipConfig`] keeps only
//! what a caller varies.

use npr_sim::{cycles_to_ps, Time, PS_PER_SEC};

/// Number of MicroEngines on the IXP1200.
pub const NUM_MICROENGINES: usize = 6;

/// Hardware contexts per MicroEngine.
pub const CTX_PER_ME: usize = 4;

/// Total hardware contexts.
pub const NUM_CTX: usize = NUM_MICROENGINES * CTX_PER_ME;

/// Input FIFO slots (paper, section 3.1: "16 of each").
pub const IN_FIFO_SLOTS: usize = 16;

/// Output FIFO slots.
pub const OUT_FIFO_SLOTS: usize = 16;

/// Port configuration of the evaluation board:
/// 8 x 100 Mbps + 2 x 1 Gbps Ethernet (paper, section 2.2).
pub const NUM_PORTS: usize = 10;

/// Per-port link rates in bits per second (section 2.2).
pub const PORT_RATES_BPS: [u64; NUM_PORTS] = {
    let mut r = [100_000_000; NUM_PORTS];
    r[8] = 1_000_000_000;
    r[9] = 1_000_000_000;
    r
};

/// Per-port receive buffer capacity in MPs; overflow drops the MP (and
/// thus the frame), as on the real MACs.
pub const PORT_RX_BUF_MPS: usize = 16;

/// Wire overhead per frame in bytes (preamble 8 + IFG 12 + FCS 4),
/// which makes a 60-byte frame occupy 84 byte-times: the 148.8 Kpps
/// theoretical maximum of the paper's section 3.5.1.
pub const WIRE_OVERHEAD_BYTES: usize = 24;

// ---- Memory system (paper, Table 3 + section 2.2 bandwidths) ----

/// DRAM read latency in cycles for the common 32-byte transfer.
pub const DRAM_READ_CYCLES: u64 = 52;
/// DRAM write latency in cycles (32-byte transfer).
pub const DRAM_WRITE_CYCLES: u64 = 40;
/// DRAM datapath: 64-bit x 100 MHz = 6.4 Gbps peak.
pub const DRAM_BPS: u64 = 6_400_000_000;
/// SRAM read latency in cycles (4-byte transfer).
pub const SRAM_READ_CYCLES: u64 = 22;
/// SRAM write latency in cycles.
pub const SRAM_WRITE_CYCLES: u64 = 22;
/// SRAM datapath: 32-bit x 100 MHz = 3.2 Gbps peak.
pub const SRAM_BPS: u64 = 3_200_000_000;
/// Scratch read latency in cycles (4-byte transfer).
pub const SCRATCH_READ_CYCLES: u64 = 16;
/// Scratch write latency in cycles.
pub const SCRATCH_WRITE_CYCLES: u64 = 20;
/// Scratch is on-chip; its datapath is one word per cycle.
pub const SCRATCH_BPS: u64 = 6_400_000_000;

// ---- IX bus / DMA (paper, sections 2.2 and 3.2) ----

/// IX bus peak: 64-bit x 66 MHz ~ 4 Gbps (paper, section 2.2).
pub const IX_BUS_BPS: u64 = 4_000_000_000;
/// Fixed cycles of DMA data-path occupancy per receive transfer beyond
/// the byte time (bus turnaround).
pub const DMA_SETUP_CYCLES: u64 = 2;
/// Command-acceptance latency of the shared DMA state machine on the
/// receive side: extra completion latency seen by the issuing context
/// (held under the input token) that does NOT occupy the data path.
/// This is what makes the serialized input section ~53 cycles and caps
/// input-side scaling near 3.7 Mpps (Figure 7).
pub const DMA_RX_CMD_CYCLES: u64 = 10;
/// DMA setup on the transmit side. Output FIFO slots are strictly
/// ordered and consumed circularly by the DMA machine, so per-slot
/// activation is much cheaper than the receive side's port polling;
/// this keeps the output stage scaling near-linearly to 24 contexts
/// (Figure 7) up to the IX-bus ceiling.
pub const DMA_TX_SETUP_CYCLES: u64 = 1;

// ---- Contexts / signalling ----

/// Context-swap dead time on a MicroEngine (deferred branch shadow).
pub const CTX_SWAP_CYCLES: u64 = 1;
/// One-cycle, on-chip inter-thread signal: token pass latency (paper,
/// section 3.2.2: "takes a single cycle").
pub const TOKEN_PASS_CYCLES: u64 = 1;
/// Hardware-mutex grant latency when uncontended (a CAM/SRAM region
/// access, section 3.4.2).
pub const MUTEX_GRANT_CYCLES: u64 = 26;
/// Additional handoff latency when a mutex passes to a queued waiter.
pub const MUTEX_HANDOFF_CYCLES: u64 = 40;

/// Picoseconds to move `bytes` over the IX bus.
pub const fn ix_bus_ps(bytes: usize) -> Time {
    bytes as u64 * 8 * PS_PER_SEC / IX_BUS_BPS
}

/// Total DMA occupancy for one receive transfer of `bytes`.
pub const fn dma_occupancy_ps(bytes: usize) -> Time {
    cycles_to_ps(DMA_SETUP_CYCLES) + ix_bus_ps(bytes)
}

/// Total DMA occupancy for one transmit transfer of `bytes`.
pub const fn dma_tx_occupancy_ps(bytes: usize) -> Time {
    cycles_to_ps(DMA_TX_SETUP_CYCLES) + ix_bus_ps(bytes)
}

/// Picoseconds for `bytes` to cross the wire on `port` (including
/// per-frame overhead when `with_overhead`).
pub const fn wire_ps(port: usize, bytes: usize, with_overhead: bool) -> Time {
    let total = bytes
        + if with_overhead {
            WIRE_OVERHEAD_BYTES
        } else {
            0
        };
    total as u64 * 8 * PS_PER_SEC / PORT_RATES_BPS[port]
}

/// What a caller varies about the chip; every other figure is a
/// constant above.
#[derive(Debug, Clone)]
pub struct ChipConfig {
    /// The benchmark's `mem_access` kernel builds its DRAM controller
    /// from these three; nothing in the workspace reads them, and
    /// `Default` fills them from [`DRAM_READ_CYCLES`], [`DRAM_WRITE_CYCLES`]
    /// and [`DRAM_BPS`]. They go when that kernel is next revised
    /// (ROADMAP item 1(h)).
    pub dram_read_cycles: u64,
    /// See `dram_read_cycles`.
    pub dram_write_cycles: u64,
    /// See `dram_read_cycles`.
    pub dram_bps: u64,
    /// "Infinitely fast network ports": input contexts always find an MP
    /// (a clone of the port's template), output discards at zero cost.
    /// This is the paper's FIFO-to-FIFO measurement mode.
    pub ideal_ports: bool,
    /// Replace the blocking hardware mutexes with test-and-set spin
    /// locks built from ordinary SRAM accesses — the strategy the paper
    /// rejected: "our experiments with this strategy reveal
    /// performance-crippling memory contention when many contexts
    /// attempt to acquire the lock at the same time" (section 3.4.2).
    /// Kept as an ablation.
    pub spinlock_mutexes: bool,
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self {
            dram_read_cycles: DRAM_READ_CYCLES,
            dram_write_cycles: DRAM_WRITE_CYCLES,
            dram_bps: DRAM_BPS,
            ideal_ports: false,
            spinlock_mutexes: false,
        }
    }
}

impl ChipConfig {
    /// The paper's FIFO-to-FIFO measurement configuration (section 3.5.1):
    /// port interaction removed, every input iteration finds an MP.
    pub fn ideal() -> Self {
        Self {
            ideal_ports: true,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_shape() {
        assert_eq!(NUM_CTX, 24);
        assert_eq!(PORT_RATES_BPS.iter().sum::<u64>(), 2_800_000_000);
    }

    #[test]
    fn the_benchmark_dram_fields_are_the_dram_the_chip_runs() {
        // The frozen `mem_access` kernel times a controller built from
        // these fields; `Ixp::new` builds its own from the constants.
        let c = ChipConfig::default();
        let fields = (c.dram_read_cycles, c.dram_write_cycles, c.dram_bps);
        assert_eq!(fields, (DRAM_READ_CYCLES, DRAM_WRITE_CYCLES, DRAM_BPS));
        assert_eq!(ChipConfig::ideal().dram_bps, DRAM_BPS);
    }

    #[test]
    fn min_frame_wire_time_matches_ieee_rate() {
        // 60-byte frame + 24 overhead = 84 bytes = 6.72 us at 100 Mbps,
        // i.e. the 148.8 Kpps theoretical max of section 3.5.1.
        let t = wire_ps(0, 60, true);
        assert_eq!(t, 6_720_000);
        let pps = PS_PER_SEC as f64 / t as f64;
        assert!((pps - 148_809.5).abs() < 1.0);
    }

    #[test]
    fn ix_bus_moves_64b_in_128ns() {
        assert_eq!(ix_bus_ps(64), 128_000);
    }

    #[test]
    fn dma_occupancy_includes_setup() {
        assert_eq!(
            dma_occupancy_ps(64),
            cycles_to_ps(DMA_SETUP_CYCLES) + 128_000
        );
    }

    #[test]
    fn gig_ports_are_10x_faster() {
        assert_eq!(wire_ps(8, 60, true) * 10, wire_ps(0, 60, true));
    }
}
