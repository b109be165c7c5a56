//! Figures 7, 9, and 10.

use npr_core::{Router, RouterConfig};
use npr_forwarders::{pad_program, PadKind};
use npr_sim::Time;

/// Figure 7: independent input/output scaling over context counts.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Context counts swept.
    pub contexts: Vec<usize>,
    /// Input-only Mpps per point.
    pub input_mpps: Vec<f64>,
    /// Output-only Mpps per point.
    pub output_mpps: Vec<f64>,
}

/// Runs the Figure 7 sweep. The paper uses the minimum number of
/// MicroEngines per point (hence its "dent"); context ids here are
/// packed the same way.
pub fn fig7(points: &[usize], warmup: Time, window: Time) -> Fig7Result {
    let mut input_mpps = Vec::new();
    let mut output_mpps = Vec::new();
    for &n in points {
        let mut r = Router::new(RouterConfig::fig7_input(n));
        input_mpps.push(r.measure(warmup, window).forward_mpps);
        let mut r = Router::new(RouterConfig::fig7_output(n));
        output_mpps.push(r.measure(warmup, window).forward_mpps);
    }
    Fig7Result {
        contexts: points.to_vec(),
        input_mpps,
        output_mpps,
    }
}

/// One Figure 9 series: forwarding rate vs. VRP code blocks.
#[derive(Debug, Clone)]
pub struct Fig9Series {
    /// Block shape.
    pub kind: PadKind,
    /// Block counts swept.
    pub blocks: Vec<u32>,
    /// Mpps at each count.
    pub mpps: Vec<f64>,
}

/// Runs a Figure 9 series on the full I.2 + O.1 system: synthetic VRP
/// blocks injected directly into `protocol_processing`.
pub fn fig9(kind: PadKind, blocks: &[u32], warmup: Time, window: Time) -> Fig9Series {
    let mpps = blocks
        .iter()
        .map(|&n| {
            let mut r = Router::new(RouterConfig::table1_system());
            r.set_vrp_pad(pad_program(kind, n));
            r.measure(warmup, window).forward_mpps
        })
        .collect();
    Fig9Series {
        kind,
        blocks: blocks.to_vec(),
        mpps,
    }
}

/// One Figure 10 point: forwarding-time breakdown under maximal output
/// port contention.
#[derive(Debug, Clone)]
pub struct Fig10Point {
    /// Combo blocks applied.
    pub blocks: u32,
    /// Total forwarding time per packet, ns (1 / contended rate).
    pub total_ns: f64,
    /// The no-contention portion, ns (1 / uncontended rate at the same
    /// block count).
    pub base_ns: f64,
    /// Contention overhead, ns (the figure's shaded region).
    pub overhead_ns: f64,
    /// Contended rate, Mpps.
    pub mpps: f64,
}

/// Runs the Figure 10 sweep: the input process with all traffic bound
/// for one protected queue, versus the uncontended input process, at
/// increasing VRP load.
pub fn fig10(blocks: &[u32], warmup: Time, window: Time) -> Vec<Fig10Point> {
    blocks
        .iter()
        .map(|&n| {
            let run = |contended: bool| {
                let mut r = Router::new(RouterConfig::table1_input(
                    npr_core::InputDiscipline::ProtectedShared,
                    contended,
                ));
                r.set_vrp_pad(pad_program(PadKind::Combo, n));
                r.measure(warmup, window).forward_mpps
            };
            let contended = run(true);
            let base = run(false);
            let total_ns = 1e3 / contended;
            let base_ns = 1e3 / base;
            Fig10Point {
                blocks: n,
                total_ns,
                base_ns,
                overhead_ns: (total_ns - base_ns).max(0.0),
                mpps: contended,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use npr_core::ms;

    #[test]
    fn fig7_input_knees_output_scales() {
        let r = fig7(&[4, 16, 24], ms(1), ms(1));
        // Input: large gain 4 -> 16, small gain 16 -> 24 (the knee).
        let g1 = r.input_mpps[1] / r.input_mpps[0];
        let g2 = r.input_mpps[2] / r.input_mpps[1];
        assert!(g1 > 2.5, "gain to 16 ctx {g1}");
        assert!(g2 < 1.3, "gain past the knee {g2}");
        // Output keeps scaling past 16.
        let o2 = r.output_mpps[2] / r.output_mpps[1];
        assert!(o2 > 1.05, "output gain {o2}");
    }

    #[test]
    fn fig9_rate_declines_with_blocks() {
        let s = fig9(PadKind::Combo, &[0, 32], ms(1), ms(1));
        assert!(s.mpps[0] > 3.0);
        // Paper: ~1 Mpps at 32 combo blocks.
        assert!((0.8..1.35).contains(&s.mpps[1]), "{}", s.mpps[1]);
    }

    #[test]
    fn fig10_overhead_shrinks_with_vrp_load() {
        let pts = fig10(&[0, 48], ms(1), ms(1));
        let frac0 = pts[0].overhead_ns / pts[0].total_ns;
        let frac1 = pts[1].overhead_ns / pts[1].total_ns;
        assert!(frac0 > 0.35, "at 0 blocks overhead is large: {frac0}");
        assert!(frac1 < frac0 / 2.0, "overhead must shrink: {frac1}");
    }

    /// Figure 10's one pinned deviation: the paper shows the mutex
    /// overhead fully absorbed at 64 VRP blocks (~0 ns) while the model
    /// retains a ~200 ns residue. Root cause (measured, see
    /// EXPERIMENTS.md "Figure 10"): sixteen deterministic contexts run
    /// identical code and phase-lock into a convoy at the protected
    /// queue's single mutex, so the enqueue critical sections serialize
    /// with zero overlap. Real hardware decorrelates arrivals (posted
    /// stores, MAC/DRAM timing jitter) and lets other contexts' VRP
    /// work absorb the wait. This test pins both the residue band and
    /// the mechanism so a regression in either direction is loud.
    #[test]
    fn fig10_residue_at_64_blocks_is_pinned_as_a_convoy() {
        let pts = fig10(&[64], ms(1), ms(1));
        let residue = pts[0].overhead_ns;
        // Clearly not absorbed, yet well under the 0-block ~300 ns.
        assert!(
            (140.0..300.0).contains(&residue),
            "64-block residue left its pinned band: {residue:.0} ns (if a \
             scheduling change legitimately moved it, re-pin alongside the \
             EXPERIMENTS.md analysis)"
        );

        // Mechanism, part 1 — the convoy: contexts wait microseconds
        // at the queue mutex (an entire population rotation) even
        // though one critical section is a few hundred nanoseconds.
        let mut r = Router::new(RouterConfig::table1_input(
            npr_core::InputDiscipline::ProtectedShared,
            true,
        ));
        r.set_vrp_pad(pad_program(PadKind::Combo, 64));
        let rep = r.measure(ms(1), ms(1));
        // Mean wait per acquisition over the window, ME cycles -> ns.
        let wait_ns_per_pkt = rep.mutex_wait_cycles * npr_sim::cycles_to_ps(1) as f64 / 1e3;
        assert!(
            wait_ns_per_pkt > 2_000.0,
            "convoy signature gone: mutex wait {wait_ns_per_pkt:.0} ns/pkt"
        );

        // Mechanism, part 2 — NOT memory-controller congestion: the
        // SRAM queue adds only a few ns per access, so the residue
        // cannot come from the memory system under the mutex.
        let sram_accesses = (r.ixp.sram.reads() + r.ixp.sram.writes()).max(1);
        let sram_q_ns = r.ixp.sram.queued_ps() as f64 / 1e3 / sram_accesses as f64;
        assert!(
            sram_q_ns < 30.0,
            "SRAM queueing grew to {sram_q_ns:.1} ns/access — the pinned \
             convoy analysis may no longer hold"
        );
    }
}
