//! Simulated-clock counters read from public state after a run, and the
//! metrics derived from them. A [`Counts`] is exact for a seed: the
//! traced and untraced runs must produce equal ones.

use npr_core::Router;
use npr_sim::{LogHistogram, Time, PS_PER_SEC};

use crate::workload::{Sut, PS_PER_US};
use crate::Metrics;

/// Additive raw counters over every member router of the system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Simulated time the counters cover, ps.
    pub horizon: Time,
    pub members: u64,
    // Offered and delivered, seen from outside.
    pub offered: u64,
    pub delivered_tx: u64,
    pub delivered_bytes: u64,
    pub pe_consumed: u64,
    // Drop ledgers, by waterfall stage.
    pub drop_port_rx: u64,
    pub drop_vrp: u64,
    pub drop_no_route: u64,
    pub drop_queue: u64,
    pub drop_escalation: u64,
    pub drop_lap: u64,
    pub drop_fabric: u64,
    /// Sum of the members' ledger deficits (packets inside a hardware
    /// context mid-run; zero once drained).
    pub deficit: i64,
    pub in_flight: u64,
    // npr-ixp.
    pub reg_cycles: u64,
    pub dram_busy: Time,
    pub dram_queued: Time,
    pub dram_accesses: u64,
    pub sram_busy: Time,
    pub sram_queued: Time,
    pub sram_accesses: u64,
    pub scratch_busy: Time,
    pub scratch_accesses: u64,
    pub dma_busy: Time,
    pub dma_queued: Time,
    pub dma_jobs: u64,
    pub mutex_wait_cycles: f64,
    pub rx_frames_all: u64,
    // npr-core.
    pub input_pkts: u64,
    pub input_mps: u64,
    pub input_reg_cycles: u64,
    pub output_mps: u64,
    pub output_reg_cycles: u64,
    pub sa_busy: Time,
    pub sa_done: u64,
    pub pe_busy: Time,
    pub pe_done: u64,
    pub pci_util: f64,
    pub ctl_ops: u64,
    pub ctl_latency_sum: Time,
    pub health_epochs: u64,
    pub health_warnings: u64,
    pub qm_enqueued: u64,
    pub qm_early: u64,
    pub qm_cap: u64,
    pub qm_sojourn: u64,
    pub qm_queued: u64,
    pub qm_sojourn_p50: Time,
    pub qm_sojourn_p99: Time,
    pub me_programs: u64,
    // npr-route.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub trie_levels: f64,
    pub trie_bytes: u64,
    pub class_tuples: u64,
    // npr-fabric.
    pub switched: u64,
    pub link_drops: u64,
    // Arrival-to-wire latency over every member (per hop in a fabric).
    pub latency_samples: u64,
    pub latency_sum: Time,
    pub latency_max: Time,
    pub latency_p50: Time,
    pub latency_p99: Time,
    pub latency_p999: Time,
}

impl Counts {
    /// Frames lost to any drop ledger.
    pub fn lost(&self) -> u64 {
        self.drop_port_rx
            + self.drop_vrp
            + self.drop_no_route
            + self.drop_queue
            + self.drop_escalation
            + self.drop_lap
            + self.drop_fabric
    }

    /// Frames that reached their destination: the wire of an external
    /// port, or the control forwarder they were addressed to.
    pub fn delivered(&self) -> u64 {
        self.delivered_tx + self.pe_consumed
    }
}

/// The public counters a traced slice carries, read directly (a full
/// [`collect`] rebuilds histograms and is too slow to run per slice).
/// Frames offered come first.
pub fn sample(sut: &Sut) -> [(&'static str, u64); 6] {
    let mut s = [
        ("offered", 0),
        ("cache_hits", 0),
        ("cache_misses", 0),
        ("qm_queued", 0),
        ("port_rx_drops", 0),
        ("tx_pkts", 0),
    ];
    for r in sut.routers() {
        let ports = &r.ixp.hw.ports;
        s[0].1 += offered(r);
        let (hits, misses) = r.world.table.cache_stats();
        s[1].1 += hits;
        s[2].1 += misses;
        s[3].1 += r.world.qm.as_ref().map_or(0, |q| q.total_queued() as u64);
        s[4].1 += ports.iter().map(|p| p.rx_frames_dropped).sum::<u64>();
        s[5].1 += ports[..8].iter().map(|p| p.tx_frames).sum::<u64>();
    }
    s
}

/// Reads every counter at the system's current time.
pub fn collect(sut: &Sut, horizon: Time) -> Counts {
    let routers = sut.routers();
    let mut c = Counts {
        horizon,
        members: routers.len() as u64,
        ..Counts::default()
    };
    for r in &routers {
        add_router(&mut c, r);
    }
    let n = routers.len() as f64;
    c.mutex_wait_cycles /= n;
    c.pci_util /= n;
    c.trie_levels /= n;
    if let Some(f) = sut.fabric() {
        c.switched = f.switched();
        c.link_drops = f.link_drops();
        c.drop_fabric = f.switch_drops() + f.link_drops() + f.fenced_drops() + f.assembly_drops();
    }
    let hists: Vec<&LogHistogram> = routers
        .iter()
        .map(|r| &r.world.counters.latency_hist)
        .collect();
    let [p50, p99, p999] = merged_percentiles(&hists, [50.0, 99.0, 99.9]);
    c.latency_p50 = p50;
    c.latency_p99 = p99;
    c.latency_p999 = p999;
    let sojourn: Vec<&LogHistogram> = routers
        .iter()
        .filter_map(|r| r.world.qm.as_ref().map(|q| q.sojourn_hist()))
        .collect();
    if !sojourn.is_empty() {
        let [p50, p99, _] = merged_percentiles(&sojourn, [50.0, 99.0, 99.9]);
        c.qm_sojourn_p50 = p50;
        c.qm_sojourn_p99 = p99;
    }
    c
}

/// Frames offered to `r` from outside: arrivals at its external ports,
/// or, on ideal ports (which clone a template on demand), the frames the
/// input process took.
fn offered(r: &Router) -> u64 {
    if r.cfg.chip.ideal_ports {
        r.world.counters.input_pkts.total()
    } else {
        r.ixp.hw.ports[..8]
            .iter()
            .map(|p| p.rx_frames + p.rx_frames_dropped)
            .sum()
    }
}

fn add_router(c: &mut Counts, r: &Router) {
    let w = &r.world;
    let k = &w.counters;
    let ports = &r.ixp.hw.ports;
    let external = &ports[..8];
    c.offered += offered(r);
    c.delivered_tx += external.iter().map(|p| p.tx_frames).sum::<u64>();
    c.delivered_bytes += external.iter().map(|p| p.tx_bytes).sum::<u64>();
    c.pe_consumed += k.pe_consumed.total();
    c.drop_port_rx += ports.iter().map(|p| p.rx_frames_dropped).sum::<u64>();
    c.rx_frames_all += ports
        .iter()
        .map(|p| p.rx_frames + p.rx_frames_dropped)
        .sum::<u64>();
    c.drop_vrp += k.vrp_drops.total() + k.validation_drops.total();
    c.drop_no_route += k.no_route_drops.total();
    let ledger = r.conservation();
    c.drop_queue += ledger.queue_drops;
    c.drop_escalation += ledger.escalation_drops + ledger.sa_fwdr_drops + ledger.pe_drops;
    c.drop_lap += ledger.lap_losses + k.input_lap_drops.total() + ledger.truncated_drops;
    c.deficit += ledger.deficit();
    c.in_flight += ledger.in_flight;

    c.reg_cycles += r.ixp.reg_cycles();
    c.dram_busy += r.ixp.dram.busy_ps();
    c.dram_queued += r.ixp.dram.queued_ps();
    c.dram_accesses += r.ixp.dram.reads() + r.ixp.dram.writes();
    c.sram_busy += r.ixp.sram.busy_ps();
    c.sram_queued += r.ixp.sram.queued_ps();
    c.sram_accesses += r.ixp.sram.reads() + r.ixp.sram.writes();
    c.scratch_busy += r.ixp.scratch.busy_ps();
    c.scratch_accesses += r.ixp.scratch.reads() + r.ixp.scratch.writes();
    c.dma_busy += r.ixp.dma.busy_ps();
    c.dma_queued += r.ixp.dma.queued_ps();
    c.dma_jobs += r.ixp.dma.jobs() + r.ixp.dma_tx.jobs();

    let rep = r.report();
    c.mutex_wait_cycles += rep.mutex_wait_cycles;
    c.pci_util += rep.pci_util;
    c.input_pkts += k.input_pkts.total();
    c.input_mps += k.input_mps.total();
    c.input_reg_cycles += k.input_reg_cycles.total();
    c.output_mps += k.output_mps.total();
    c.output_reg_cycles += k.output_reg_cycles.total();
    c.sa_busy += r.sa.busy_ps;
    c.sa_done += r.sa.done;
    c.pe_busy += r.pe.busy_ps;
    c.pe_done += r.pe.done;
    let ctl = r.ctl_stats();
    c.ctl_ops += ctl.completed;
    c.ctl_latency_sum += ctl.latency_sum_ps;
    c.health_epochs += r.health.stats.epochs;
    c.health_warnings += r.health.stats.warnings;
    if let Some(qm) = &w.qm {
        c.qm_enqueued += qm.total_enqueued();
        c.qm_early += qm.early_drops();
        c.qm_cap += qm.cap_drops();
        c.qm_sojourn += qm.sojourn_drops();
        c.qm_queued += qm.total_queued() as u64;
    }
    c.me_programs += w.me_forwarders.len() as u64;

    let (hits, misses) = w.table.cache_stats();
    c.cache_hits += hits;
    c.cache_misses += misses;
    c.trie_levels += w.table.mean_lookup_levels();
    c.trie_bytes += w.table.trie_stats().bytes as u64;
    c.class_tuples += u64::from(w.classifier.rule_cost().sram);

    c.latency_samples += k.latency_samples.total();
    c.latency_sum += k.latency_sum_ps.total();
    c.latency_max = c.latency_max.max(k.latency_max_ps);
}

/// Percentiles of the union of several log histograms, to bucket
/// resolution. `LogHistogram` exposes only `percentile`, so each
/// histogram's occupied buckets are first recovered by walking ranks.
pub fn merged_percentiles(hists: &[&LogHistogram], ps: [f64; 3]) -> [Time; 3] {
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    for h in hists {
        let n = h.count();
        // Rank r is the sample `percentile` targets for any p with
        // ceil(n * p / 100) == r; aim at the middle of that interval.
        let at = |rank: u64| h.percentile((rank as f64 - 0.5) / n as f64 * 100.0);
        let mut rank = 1;
        while rank <= n {
            let v = at(rank);
            let (mut lo, mut hi) = (rank, n);
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if at(mid) == v {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            buckets.push((v, lo - rank + 1));
            rank = lo + 1;
        }
    }
    buckets.sort_unstable();
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    ps.map(|p| {
        let target = ((total as f64 * p / 100.0).ceil() as u64).max(1);
        let mut seen = 0;
        for &(v, n) in &buckets {
            seen += n;
            if seen >= target {
                return v;
            }
        }
        0
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn us(ps: Time) -> f64 {
    ps as f64 / PS_PER_US as f64
}

/// Simulated-clock end-to-end metrics. `at_h` is the snapshot at the
/// horizon (rates, latency); `fin` is the final ledger (after the drain
/// where the workload can be drained).
pub fn end_to_end(at_h: &Counts, fin: &Counts, m: &mut Metrics) {
    let secs = at_h.horizon as f64 / PS_PER_SEC as f64;
    m.set("sim_forward_mpps", at_h.delivered_tx as f64 / secs / 1e6);
    // Frame bytes less the 14-byte Ethernet header: the IP datagrams.
    let payload = at_h.delivered_bytes - 14 * at_h.delivered_tx;
    m.set("sim_goodput_mbps", payload as f64 * 8.0 / secs / 1e6);
    m.set("sim_latency_p50", us(at_h.latency_p50));
    m.set("sim_latency_p99", us(at_h.latency_p99));
    m.set("sim_latency_p999", us(at_h.latency_p999));
    m.set(
        "sim_delivered_frac",
        1.0 - ratio(fin.lost() as f64, fin.offered as f64),
    );
}

/// Simulated-clock per-layer metrics, from public counters alone.
pub fn per_layer(at_h: &Counts, fin: &Counts, updates: u64, frames: u64, m: &mut Metrics) {
    let c = at_h;
    let span = (c.horizon * c.members) as f64;
    let secs = c.horizon as f64 / PS_PER_SEC as f64;
    let pkts = c.input_pkts as f64;
    m.set("ixp.reg_cycles_per_pkt", ratio(c.reg_cycles as f64, pkts));
    m.set("ixp.dram.util", c.dram_busy as f64 / span);
    m.set(
        "ixp.dram.wait_ns_per_access",
        ratio(c.dram_queued as f64 / 1e3, c.dram_accesses as f64),
    );
    m.set(
        "ixp.dram.accesses_per_pkt",
        ratio(c.dram_accesses as f64, pkts),
    );
    m.set("ixp.sram.util", c.sram_busy as f64 / span);
    m.set(
        "ixp.sram.wait_ns_per_access",
        ratio(c.sram_queued as f64 / 1e3, c.sram_accesses as f64),
    );
    m.set(
        "ixp.sram.accesses_per_pkt",
        ratio(c.sram_accesses as f64, pkts),
    );
    m.set("ixp.scratch.util", c.scratch_busy as f64 / span);
    m.set("ixp.dma.util", c.dma_busy as f64 / span);
    m.set(
        "ixp.dma.wait_ns_per_job",
        ratio(c.dma_queued as f64 / 1e3, c.dma_jobs as f64),
    );
    m.set("ixp.mutex.wait_cycles", c.mutex_wait_cycles);
    m.set(
        "ixp.port.rx_drop_frac",
        ratio(c.drop_port_rx as f64, c.rx_frames_all as f64),
    );

    m.set(
        "core.input.reg_per_mp",
        ratio(c.input_reg_cycles as f64, c.input_mps as f64),
    );
    m.set(
        "core.output.reg_per_mp",
        ratio(c.output_reg_cycles as f64, c.output_mps as f64),
    );
    m.set("core.input.mps_per_pkt", ratio(c.input_mps as f64, pkts));
    m.set("core.sa.share", c.sa_busy as f64 / span);
    m.set("core.sa.kpps", c.sa_done as f64 / secs / 1e3);
    m.set("core.pe.share", c.pe_busy as f64 / span);
    m.set("core.pe.kpps", c.pe_done as f64 / secs / 1e3);
    m.set("core.pci.util", c.pci_util);
    m.set("core.control.ops", c.ctl_ops as f64);
    m.set(
        "core.control.latency_avg_us",
        ratio(us(c.ctl_latency_sum), c.ctl_ops as f64),
    );
    m.set("core.health.epochs", c.health_epochs as f64);
    m.set("core.health.warnings", c.health_warnings as f64);
    let qm_arrivals = (c.qm_enqueued + c.qm_early + c.qm_cap) as f64;
    m.set("core.qm.enqueued", c.qm_enqueued as f64);
    m.set(
        "core.qm.early_drop_frac",
        ratio(c.qm_early as f64, qm_arrivals),
    );
    m.set("core.qm.cap_drop_frac", ratio(c.qm_cap as f64, qm_arrivals));
    m.set(
        "core.qm.sojourn_drop_frac",
        ratio(c.qm_sojourn as f64, qm_arrivals),
    );
    m.set("core.qm.sojourn_p50_us", us(c.qm_sojourn_p50));
    m.set("core.qm.sojourn_p99_us", us(c.qm_sojourn_p99));

    let lookups = c.cache_hits + c.cache_misses;
    m.set("route.cache.lookups", lookups as f64);
    m.set(
        "route.cache.hit_ratio",
        ratio(c.cache_hits as f64, lookups as f64),
    );
    m.set("route.trie.mean_levels", c.trie_levels);
    m.set("route.trie.bytes", c.trie_bytes as f64);
    m.set("route.table.updates", updates as f64);
    m.set(
        "route.classify.tuples",
        c.class_tuples as f64 / c.members as f64,
    );

    // Every input MP runs every installed MicroEngine program.
    m.set(
        "vrp.execs",
        (c.input_mps * c.me_programs / c.members) as f64,
    );
    m.set("traffic.frames", frames as f64);

    m.set(
        "fabric.switched_frac",
        ratio(c.switched as f64, c.offered as f64),
    );
    m.set(
        "fabric.link.drop_frac",
        ratio(c.link_drops as f64, (c.switched + c.link_drops) as f64),
    );

    let offered = fin.offered as f64;
    m.set("sim.loss_frac", ratio(fin.lost() as f64, offered));
    m.set(
        "drops.port_rx_frac",
        ratio(fin.drop_port_rx as f64, offered),
    );
    m.set("drops.vrp_frac", ratio(fin.drop_vrp as f64, offered));
    m.set(
        "drops.no_route_frac",
        ratio(fin.drop_no_route as f64, offered),
    );
    m.set("drops.queue_frac", ratio(fin.drop_queue as f64, offered));
    m.set(
        "drops.escalation_frac",
        ratio(fin.drop_escalation as f64, offered),
    );
    m.set("drops.lap_frac", ratio(fin.drop_lap as f64, offered));
    m.set("drops.fabric_frac", ratio(fin.drop_fabric as f64, offered));

    m.set("sim.latency.samples", c.latency_samples as f64);
    m.set(
        "sim.latency.mean_us",
        ratio(us(c.latency_sum), c.latency_samples as f64),
    );
    m.set("sim.latency.max_us", us(c.latency_max));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(seed: u64, n: u64) -> LogHistogram {
        let mut h = LogHistogram::new();
        let mut x = seed | 1;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(1_000_000 + (x >> 33) % 900_000_000);
        }
        h
    }

    #[test]
    fn one_histogram_merges_to_its_own_percentiles() {
        let h = filled(7, 50_000);
        let got = merged_percentiles(&[&h], [50.0, 99.0, 99.9]);
        assert_eq!(got, [50.0, 99.0, 99.9].map(|p| h.percentile(p)));
    }

    #[test]
    fn merged_percentiles_are_those_of_the_union() {
        let (a, b) = (filled(1, 30_000), filled(2, 10_000));
        let mut union = filled(1, 30_000);
        let mut x = 2u64 | 1;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            union.record(1_000_000 + (x >> 33) % 900_000_000);
        }
        let got = merged_percentiles(&[&a, &b], [50.0, 99.0, 99.9]);
        // Bucket lower bounds agree; the union clamps to its own max.
        for (g, p) in got.iter().zip([50.0, 99.0, 99.9]) {
            assert_eq!(*g, union.percentile(p), "p{p}");
        }
    }
}
