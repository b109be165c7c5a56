//! Router configuration and the named experiment setups.

use npr_ixp::ChipConfig;

use crate::queues::{InputDiscipline, OutputDiscipline};
use crate::world::RunMode;

/// Template traffic used in ideal-port (FIFO-to-FIFO) experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficTemplate {
    /// Each port's template packet is routed to a distinct output port
    /// (no two packets contend for a queue — Table 1's "no contention").
    UniformSpread,
    /// Every template is routed to the same output queue (Table 1's
    /// "max. contention", row I.3).
    AllToOne,
    /// No templates: real traffic sources drive the ports.
    Sources,
}

/// Full router configuration: one field per thing some caller in the
/// repository actually varies; each comment ends with who varies it.
/// Values that never vary are constants next to their reader
/// (`costs.rs`, `health.rs`, `sa.rs`, `pci.rs`, `qm.rs`, `aqm.rs`).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The chip's two measurement switches (every IXP1200 figure is a
    /// constant in `npr_ixp::params`). Varied by: `line_rate()` (real
    /// ports vs. ideal), the `spinlock_mutexes` ablation.
    pub chip: ChipConfig,
    /// Run mode. Varied by: the `table1_*` / `fig7_*` constructors.
    pub mode: RunMode,
    /// Number of input contexts (packed onto MicroEngines 0..). Varied
    /// by: `fig7_input`, the ME-split ablation, `npr-fabric` members.
    pub input_ctxs: usize,
    /// Number of output contexts (packed after the input contexts in
    /// system mode, or onto MicroEngines 0.. when `input_ctxs == 0`).
    /// Varied by: `fig7_output`, the ME-split ablation, `npr-fabric`
    /// members, the congestion tests (`qos`, `wfq`, `robustness`).
    pub output_ctxs: usize,
    /// Ports carrying traffic. Varied by: `npr-fabric` members (8 +
    /// fabric ports).
    pub ports_in_use: usize,
    /// Input queue-access discipline. Varied by: `table1_input`.
    pub in_discipline: InputDiscipline,
    /// Output servicing discipline. Varied by: `table1_output`, the
    /// `qos`/`wfq` tests and the `wfq_shares` example.
    pub out_discipline: OutputDiscipline,
    /// Queues per output port (1, or 16 for O.3-style setups). Varied
    /// by: `table1_input`/`table1_output`, the `qos`/`wfq` tests.
    pub queues_per_port: usize,
    /// Queue capacity in descriptors. Varied by: the lap-lifetime
    /// ablation, the `qos`/`wfq`/`robustness`/`accounting` tests.
    pub queue_cap: usize,
    /// Packet-buffer count (8192 on the board; smaller pools make the
    /// lap-lifetime experiments fast). Varied by: the lap-lifetime
    /// ablation, the `hierarchy`/`accounting` tests.
    pub pool_bufs: usize,
    /// Template traffic shape. Varied by: `table1_input`, `line_rate`,
    /// the lap-lifetime ablation.
    pub traffic: TrafficTemplate,
    /// Divert this permille of packets to the Pentium (0 = off). Varied
    /// by: the fabric and backend differential suites, the soaks.
    pub divert_pe_permille: u32,
    /// Divert this permille of packets to the StrongARM (0 = off).
    /// Varied by: `strongarm_null`, the `services_mixed` benchmark
    /// workload, the fabric suites.
    pub divert_sa_permille: u32,
    /// StrongARM synthetic feed for Table 4: the frame length it
    /// manufactures and moves whole across PCI
    /// (`sa::SYNTH_BRIDGE_LAZY`). Varied by: `pentium_path`.
    pub sa_synth_feed: Option<usize>,
    /// StrongARM interrupt mode (vs. polling). Varied by: the
    /// `robustness` experiment (section 3.6's interrupt row).
    pub sa_interrupts: bool,
    /// Per-packet delay loops on the Pentium (spare-cycle probing).
    /// Varied by: the `robustness` experiment (Table 4's spare cycles).
    pub pe_delay_loop: u64,
    /// How a route update invalidates the fast-path cache. The default
    /// `FullFlush` is the paper's recompute-then-swap discipline — and
    /// the one the pinned golden schedule digest was recorded under;
    /// `Targeted` invalidates only the covered slots so churn storms
    /// keep their hit rate. Varied by: the `route` experiment, the
    /// `route_churn` benchmark workload.
    pub route_invalidation: npr_route::Invalidation,
    /// Preload this many synthetic BGP-like prefixes (0 = none) from
    /// `npr_route::gen` before traffic starts. Varied by: the `route`
    /// experiment, the `route_churn` benchmark workload.
    pub synthetic_routes: usize,
    /// Seed for the synthetic table generator. Varied by: the
    /// `route_churn` benchmark workload (derived from `--seed`).
    pub synthetic_route_seed: u64,
    /// Order token rings so consecutive members sit on different
    /// MicroEngines (the paper's section 3.2.2 layout). Varied by: the
    /// ring-interleave ablation.
    pub interleave_rings: bool,
    /// Transmit batch size for the O.1 discipline (descriptors drained
    /// per head-pointer read). Varied by: the batch-size ablation.
    pub out_batch: usize,
    /// Route-cache slots. Varied by: the cache-size ablation.
    pub route_cache_slots: usize,
    /// Execution tier for installed ME bytecode. `Compiled` (default)
    /// lowers each forwarder at admission time into npr-vrp's
    /// direct-threaded chain; `Interp` keeps the reference interpreter.
    /// The tiers are bit-identical in simulated behavior (gated by the
    /// backend differential suite), so this knob only moves host
    /// wall-clock. Programs that fail verification — e.g. ISTORE
    /// bit-rot injected by tests — always fall back to the interpreter,
    /// which is what surfaces their traps. Varied by: the `backend`
    /// experiment, the backend differential suite.
    pub vrp_backend: npr_vrp::VrpBackend,
    /// Per-flow queue manager (`npr_core::qm`): flow queues per output
    /// port, rounded up to a power of two and clamped by the memory
    /// budget. `0` (the digest-recorded default) disables the manager
    /// entirely — every packet takes the paper's `QueuePlane` rings and
    /// the golden digest is untouched. Varied by: `per_flow_qos`.
    pub qm_flows_per_port: usize,
    /// Per-flow queue depth cap, in packets. Varied by: the `qos`
    /// experiment, the `fabric_qos` benchmark workload.
    pub qm_flow_cap: usize,
    /// Hard memory budget for the whole qm plane (all ports). The
    /// constructor halves the flow count until the worst case fits
    /// (DESIGN.md §16 has the math). Varied by: the `qos` experiment,
    /// the `fabric_qos` benchmark workload.
    pub qm_mem_budget_bytes: usize,
    /// AQM discipline of every port's flow plane. Varied by:
    /// `per_flow_qos` (the `qos` experiment and the qm chaos soak run
    /// all three).
    pub qm_aqm: crate::aqm::AqmKind,
    /// Seed for RED's per-port early-drop coin streams. Varied by: the
    /// `fabric_qos` benchmark workload (derived from `--seed`).
    pub qm_seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            chip: ChipConfig::ideal(),
            mode: RunMode::System,
            input_ctxs: 16,
            output_ctxs: 8,
            ports_in_use: 8,
            in_discipline: InputDiscipline::ProtectedShared,
            out_discipline: OutputDiscipline::SingleBatched,
            queues_per_port: 1,
            queue_cap: 256,
            pool_bufs: 8192,
            traffic: TrafficTemplate::UniformSpread,
            divert_pe_permille: 0,
            divert_sa_permille: 0,
            sa_synth_feed: None,
            sa_interrupts: false,
            pe_delay_loop: 0,
            route_invalidation: npr_route::Invalidation::FullFlush,
            synthetic_routes: 0,
            synthetic_route_seed: 0xB6_9A_11_05,
            interleave_rings: true,
            out_batch: 16,
            route_cache_slots: 4096,
            vrp_backend: npr_vrp::VrpBackend::Compiled,
            qm_flows_per_port: 0,
            qm_flow_cap: 32,
            qm_mem_budget_bytes: 2 * 1024 * 1024,
            qm_aqm: crate::aqm::AqmKind::DropTail,
            qm_seed: 0x51_0A7_BA7,
        }
    }
}

impl RouterConfig {
    /// Table 1, input rows: 4 MicroEngines (16 contexts) of input
    /// processing only, ideal ports.
    pub fn table1_input(d: InputDiscipline, contended: bool) -> Self {
        Self {
            mode: RunMode::InputOnly,
            input_ctxs: 16,
            output_ctxs: 0,
            in_discipline: d,
            queues_per_port: match d {
                InputDiscipline::PrivatePerCtx => 16,
                InputDiscipline::ProtectedShared => 1,
            },
            traffic: if contended {
                TrafficTemplate::AllToOne
            } else {
                TrafficTemplate::UniformSpread
            },
            ..Self::default()
        }
    }

    /// Table 1, output rows: 2 MicroEngines (8 contexts) of output
    /// processing only.
    pub fn table1_output(d: OutputDiscipline) -> Self {
        Self {
            mode: RunMode::OutputOnly,
            input_ctxs: 0,
            output_ctxs: 8,
            out_discipline: d,
            queues_per_port: if d == OutputDiscipline::MultiIndirect {
                16
            } else {
                1
            },
            ..Self::default()
        }
    }

    /// The headline I.2 + O.1 system: 4 input MEs + 2 output MEs.
    pub fn table1_system() -> Self {
        Self::default()
    }

    /// Figure 7: input-only scaling with `n` contexts on the minimum
    /// number of MicroEngines.
    pub fn fig7_input(n: usize) -> Self {
        Self {
            mode: RunMode::InputOnly,
            input_ctxs: n,
            output_ctxs: 0,
            ..Self::default()
        }
    }

    /// Figure 7: output-only scaling with `n` contexts.
    pub fn fig7_output(n: usize) -> Self {
        Self {
            mode: RunMode::OutputOnly,
            input_ctxs: 0,
            output_ctxs: n,
            ..Self::default()
        }
    }

    /// Section 3.5.1: real 8 x 100 Mbps ports at line rate.
    pub fn line_rate() -> Self {
        Self {
            chip: ChipConfig::default(),
            traffic: TrafficTemplate::Sources,
            ..Self::default()
        }
    }

    /// Line-rate sources with the per-flow queue manager engaged on every
    /// port under discipline `aqm`: 256 flow queues per port, per-flow cap
    /// 32. The QoS/isolation scenario the `qos` experiment and the qm test
    /// suite build on.
    pub fn per_flow_qos(aqm: crate::aqm::AqmKind) -> Self {
        Self {
            qm_flows_per_port: 256,
            qm_aqm: aqm,
            ..Self::line_rate()
        }
    }

    /// Section 3.6: every packet diverted to the StrongARM null
    /// forwarder (path B).
    pub fn strongarm_null() -> Self {
        Self {
            divert_sa_permille: 1000,
            ..Self::default()
        }
    }

    /// Table 4: StrongARM feeds synthetic packets of `frame_len` to the
    /// Pentium as fast as possible.
    pub fn pentium_path(frame_len: usize) -> Self {
        Self {
            mode: RunMode::System,
            input_ctxs: 0,
            output_ctxs: 8,
            sa_synth_feed: Some(frame_len),
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_4_2_split() {
        let c = RouterConfig::default();
        assert_eq!(c.input_ctxs, 16);
        assert_eq!(c.output_ctxs, 8);
        assert!(c.chip.ideal_ports);
    }

    #[test]
    fn private_input_gets_per_ctx_queues() {
        let c = RouterConfig::table1_input(InputDiscipline::PrivatePerCtx, false);
        assert_eq!(c.queues_per_port, 16);
        let c = RouterConfig::table1_input(InputDiscipline::ProtectedShared, true);
        assert_eq!(c.traffic, TrafficTemplate::AllToOne);
    }

    #[test]
    fn fig7_uses_requested_contexts() {
        assert_eq!(RouterConfig::fig7_input(12).input_ctxs, 12);
        assert_eq!(RouterConfig::fig7_output(20).output_ctxs, 20);
    }

    #[test]
    fn line_rate_uses_real_ports() {
        let c = RouterConfig::line_rate();
        assert!(!c.chip.ideal_ports);
        assert_eq!(c.traffic, TrafficTemplate::Sources);
    }
}
