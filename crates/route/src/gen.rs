//! Deterministic synthetic BGP-like table generator.
//!
//! Real default-free-zone tables are dominated by /24s, with a fat /16
//! band and a long tail of shorter aggregates; the generator draws
//! prefix lengths from a per-mille weight table shaped like a 2020s-era
//! IPv4 RIB and addresses uniformly from unicast space (first octet 1-223,
//! 127 excluded). Everything is seeded through `npr_check`'s xorshift64*,
//! so a `(prefixes, seed)` pair names one exact table on every platform —
//! benchmarks and the 1M-prefix smoke test reproduce bit-for-bit.
//!
//! Bands saturate honestly: there are only ~57 K possible /16s, so at
//! 1M prefixes the /16 share caps at its space and the rejected draws
//! fall through to roomier lengths (exactly what a real RIB does).

use npr_check::CheckRng;
use npr_packet::MacAddr;

use crate::table::{NextHop, Route};
use crate::trie::mask;

/// Shape of a synthetic table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSpec {
    /// Number of distinct prefixes to generate.
    pub prefixes: usize,
    /// Generator seed (xorshift64*).
    pub seed: u64,
    /// Output ports next hops are spread across.
    pub ports: u8,
    /// Distinct neighbors per port (each with its own MAC): exercises
    /// the next-hop arena beyond one-neighbor-per-port.
    pub neighbors_per_port: u8,
}

impl TableSpec {
    /// A BGP-like table of `prefixes` entries over 8 ports, 4 neighbors
    /// each.
    pub fn internet(prefixes: usize, seed: u64) -> Self {
        Self {
            prefixes,
            seed,
            ports: 8,
            neighbors_per_port: 4,
        }
    }
}

/// Per-mille weight of each prefix length, shaped like a real IPv4 RIB
/// (/24 plurality, fat /16 band, thin short-aggregate tail).
const PLEN_WEIGHTS: [(u8, u16); 16] = [
    (8, 1),
    (10, 1),
    (11, 2),
    (12, 4),
    (13, 6),
    (14, 10),
    (15, 12),
    (16, 110),
    (17, 25),
    (18, 40),
    (19, 60),
    (20, 55),
    (21, 50),
    (22, 80),
    (23, 90),
    (24, 454),
];

/// The longest length [`PLEN_WEIGHTS`] may draw: [`Drawn`] keeps 2^plen
/// bits per length, so /24 costs 2 MiB and a /32 would cost 512 MiB.
const MAX_PLEN: u8 = 24;

const _: () = {
    let mut i = 0;
    while i < PLEN_WEIGHTS.len() {
        assert!(
            PLEN_WEIGHTS[i].0 <= MAX_PLEN,
            "a drawable length exceeds MAX_PLEN"
        );
        i += 1;
    }
};

/// Which `(addr, plen)` pairs have been drawn: one bit per possible
/// prefix, a zeroed bitmap per drawable length (about 4 MiB in all, and
/// pages no draw touches are never faulted in).
struct Drawn(Vec<Vec<u64>>);

impl Drawn {
    fn new() -> Self {
        let mut by_plen = vec![Vec::new(); usize::from(MAX_PLEN) + 1];
        for &(plen, _) in &PLEN_WEIGHTS {
            by_plen[usize::from(plen)] = vec![0; (1usize << plen).div_ceil(64)];
        }
        Self(by_plen)
    }

    /// Marks the masked prefix `addr/plen` drawn; `false` if it already was.
    fn insert(&mut self, addr: u32, plen: u8) -> bool {
        let i = (u64::from(addr) >> (32 - plen)) as usize;
        let word = &mut self.0[usize::from(plen)][i / 64];
        let bit = 1u64 << (i % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

fn draw_plen(rng: &mut CheckRng) -> u8 {
    let mut roll = rng.below(1000) as u16;
    for &(plen, w) in &PLEN_WEIGHTS {
        if roll < w {
            return plen;
        }
        roll -= w;
    }
    24
}

fn draw_addr(rng: &mut CheckRng) -> u32 {
    loop {
        let a = rng.next_u32();
        let octet = a >> 24;
        if octet != 0 && octet != 127 && octet < 224 {
            return a;
        }
    }
}

/// The neighbor set a spec implies: `ports * neighbors_per_port` next
/// hops, each with a distinct MAC (several per port — the aliasing case
/// the route cache must keep straight).
pub fn neighbors(spec: &TableSpec) -> Vec<NextHop> {
    let mut out = Vec::new();
    for port in 0..spec.ports {
        for n in 0..spec.neighbors_per_port.max(1) {
            out.push(NextHop {
                port,
                mac: MacAddr([0x02, 0x42, port, n, 0, 0]),
            });
        }
    }
    out
}

/// Generates the table: `spec.prefixes` distinct `(addr, plen)` pairs
/// with next hops drawn uniformly from [`neighbors`].
pub fn synth_table(spec: &TableSpec) -> Vec<Route> {
    let nbrs = neighbors(spec);
    let mut rng = CheckRng::new(spec.seed);
    let mut seen = Drawn::new();
    let mut out = Vec::with_capacity(spec.prefixes);
    while out.len() < spec.prefixes {
        let plen = draw_plen(&mut rng);
        let addr = mask(draw_addr(&mut rng), plen);
        if !seen.insert(addr, plen) {
            continue; // Band collision: redraw (length and address).
        }
        let next_hop = nbrs[rng.below(nbrs.len() as u64) as usize];
        out.push(Route {
            addr,
            plen,
            next_hop,
        });
    }
    out
}

/// Samples `n` destination addresses covered by the table: pick a route
/// uniformly, then randomize its host bits. Feed these to a traffic
/// source (ranked, for Zipf) so offered load actually exercises the
/// generated prefixes.
pub fn sample_dsts(table: &[Route], n: usize, seed: u64) -> Vec<u32> {
    assert!(!table.is_empty(), "empty table");
    let mut rng = CheckRng::new(npr_check::rng::mix(seed));
    (0..n)
        .map(|_| {
            let r = table[rng.below(table.len() as u64) as usize];
            let host = !mask(u32::MAX, r.plen);
            r.addr | (rng.next_u32() & host)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = TableSpec::internet(10_000, 7);
        assert_eq!(synth_table(&spec), synth_table(&spec));
        let other = TableSpec::internet(10_000, 8);
        assert_ne!(synth_table(&spec), synth_table(&other));
    }

    /// `(prefixes, seed)` names one exact table: an order-sensitive
    /// 64-bit fold over every `(addr, plen, next_hop)`. The `seen` bitmap
    /// only answers "drawn before?", so its representation is free to
    /// change and may not move a single route.
    #[test]
    fn synth_table_is_pinned() {
        let fold = synth_table(&TableSpec::internet(10_000, 7))
            .iter()
            .fold(0u64, |h, r| {
                let m = r.next_hop.mac.0;
                let nh = m
                    .iter()
                    .fold(u64::from(r.next_hop.port), |a, &b| (a << 8) | u64::from(b));
                npr_check::rng::mix(h ^ (u64::from(r.addr) << 8 | u64::from(r.plen)))
                    ^ npr_check::rng::mix(nh)
            });
        assert_eq!(
            fold, 0x18b2_e466_9696_2bee,
            "synthetic table moved: {fold:#018x}"
        );
    }

    #[test]
    fn prefixes_are_distinct_and_masked() {
        let t = synth_table(&TableSpec::internet(20_000, 1));
        assert_eq!(t.len(), 20_000);
        let mut seen = HashSet::new();
        for r in &t {
            assert!(seen.insert((r.addr, r.plen)));
            assert_eq!(r.addr, mask(r.addr, r.plen), "host bits set");
            let octet = r.addr >> 24;
            assert!((1..224).contains(&octet) && octet != 127, "octet {octet}");
        }
    }

    #[test]
    fn plen_distribution_is_rib_shaped() {
        let t = synth_table(&TableSpec::internet(50_000, 42));
        let mut by_plen = [0usize; 33];
        for r in &t {
            by_plen[r.plen as usize] += 1;
        }
        let frac = |p: usize| by_plen[p] as f64 / t.len() as f64;
        assert!(frac(24) > 0.40, "/24 share {}", frac(24));
        assert!(frac(16) > 0.08, "/16 share {}", frac(16));
        assert_eq!(by_plen[25..].iter().sum::<usize>(), 0);
        assert!(by_plen[..8].iter().sum::<usize>() == 0);
    }

    #[test]
    fn next_hops_span_ports_and_neighbors() {
        let spec = TableSpec::internet(5_000, 3);
        let t = synth_table(&spec);
        let nbrs = neighbors(&spec);
        assert_eq!(nbrs.len(), 32);
        let used: HashSet<_> = t.iter().map(|r| r.next_hop).collect();
        assert_eq!(used.len(), nbrs.len(), "all neighbors drawn at 5k routes");
        assert!(t.iter().all(|r| r.next_hop.port < spec.ports));
    }

    #[test]
    fn sampled_dsts_are_covered() {
        let t = synth_table(&TableSpec::internet(1_000, 5));
        let dsts = sample_dsts(&t, 500, 9);
        assert_eq!(dsts, sample_dsts(&t, 500, 9));
        let mut trie = crate::PrefixTrie::ipv4_default();
        for r in &t {
            trie.insert(r.addr, r.plen, 1);
        }
        for d in dsts {
            assert_eq!(trie.lookup(d).0, Some(1), "dst {d:#x} uncovered");
        }
    }
}
