//! The extensible classifier and flow table (paper, sections 2.1 / 4.5).
//!
//! "A new forwarder is installed by specifying a demultiplexing key that
//! the classifier is to match and binding that key to the forwarder and
//! some output port." Keys are `(src_addr, src_port, dst_addr, dst_port)`
//! 4-tuples or the special value `ALL`. Per-flow forwarders logically run
//! in parallel (at most one matches a packet); general forwarders run in
//! series on every packet, with minimal IP (`IP--`) always last.
//!
//! The MicroEngine implementation "hashes the IP and TCP headers
//! separately. The two hashed values are combined to index into a table
//! that contains metadata for the flow"; we reproduce that structure.

use std::collections::HashMap;

use npr_ixp::HashUnit;
use npr_packet::{EtherType, EthernetFrame, Ipv4Header, Ipv4Proto, MplsLabel};
use npr_route::classify::{ClassRule, ClassifyCost, ClassifyError, PktKey5, TupleSpace};
use npr_vrp::VrpBudget;

/// A 4-tuple flow key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src: u32,
    /// Destination IPv4 address.
    pub dst: u32,
    /// Source transport port.
    pub sport: u16,
    /// Destination transport port.
    pub dport: u16,
}

impl FlowKey {
    /// The key of a packet whose headers were parsed from `head`, its
    /// first MP: the IPv4 4-tuple (TCP and UDP carry `(sport, dport)` in
    /// their first four bytes; other protocols, or ports past the end of
    /// `head`, key as 0), else the top MPLS label in both addresses.
    pub(crate) fn of(head: &[u8], ip: Option<Ipv4Header>, mpls_label: Option<u32>) -> FlowKey {
        let (src, dst, ports) = match (ip, mpls_label) {
            (Some(ip), _) => {
                let off = 14 + usize::from(ip.header_len);
                let l4 = matches!(ip.proto, Ipv4Proto::Tcp | Ipv4Proto::Udp);
                (ip.src, ip.dst, head.get(off..off + 4).filter(|_| l4))
            }
            (None, label) => (label.unwrap_or(0), label.unwrap_or(0), None),
        };
        let port = |i: usize| ports.map_or(0, |b| u16::from_be_bytes([b[i], b[i + 1]]));
        FlowKey {
            src,
            dst,
            sport: port(0),
            dport: port(2),
        }
    }

    /// The key of the packet in `frame`, read from its first MP as the
    /// input loop reads it, so a packet keys the same on the fast path
    /// and after a slow-plane detour. A frame that does not parse keys
    /// as all zeros.
    pub(crate) fn read(frame: &[u8]) -> FlowKey {
        let head = &frame[..frame.len().min(64)];
        let Ok(eth) = EthernetFrame::parse(head) else {
            return FlowKey::default();
        };
        let payload = eth.payload();
        let (ip, label) = match eth.ethertype() {
            EtherType::Ipv4 => (Ipv4Header::parse(payload).ok(), None),
            EtherType::Mpls => (None, MplsLabel::parse(payload).ok().map(|l| l.label)),
            _ => (None, None),
        };
        FlowKey::of(head, ip, label)
    }
}

/// A demultiplexing key: a specific flow or all packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// Applies to every packet ("general forwarder").
    All,
    /// Applies to one end-to-end flow ("per-flow forwarder").
    Flow(FlowKey),
}

/// Which processor a forwarder runs on (the `where` install argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WhereRun {
    /// MicroEngine (VRP bytecode in the ISTORE).
    Me,
    /// StrongARM (jump-table function).
    Sa,
    /// Pentium (jump-table function).
    Pe,
}

/// Metadata for one installed forwarder, as the classifier sees it.
#[derive(Debug, Clone, Copy)]
pub struct FlowEntry {
    /// Forwarder id (the `fid` handle of the install interface).
    pub fid: u32,
    /// Where the forwarder runs.
    pub where_run: WhereRun,
    /// Index into the per-processor forwarder table (ISTORE offset for
    /// ME, jump-table index for SA/PE).
    pub fwdr_index: u32,
    /// Index of the flow's SRAM state block.
    pub state_idx: u32,
    /// Optional output-port binding from the install call.
    pub out_port: Option<u8>,
}

/// The classifier's flow table, plus the tuple-space 5-tuple rule layer
/// (`npr_route::classify`). With zero rules installed the rule layer is
/// never consulted and costs nothing — the pre-rules fast path (and its
/// pinned schedule digest) is unchanged.
#[derive(Debug, Default)]
pub struct Classifier {
    flows: HashMap<FlowKey, FlowEntry>,
    general: Vec<FlowEntry>,
    rules: TupleSpace,
}

impl Classifier {
    /// Creates an empty classifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a per-flow forwarder.
    pub fn bind_flow(&mut self, key: FlowKey, entry: FlowEntry) {
        self.flows.insert(key, entry);
    }

    /// Appends a general forwarder (applied to all packets, in order).
    pub fn bind_general(&mut self, entry: FlowEntry) {
        self.general.push(entry);
    }

    /// Removes the forwarder with id `fid`; returns `true` if found.
    pub fn unbind(&mut self, fid: u32) -> bool {
        let n = self.flows.len() + self.general.len();
        self.flows.retain(|_, e| e.fid != fid);
        self.general.retain(|e| e.fid != fid);
        self.flows.len() + self.general.len() != n
    }

    /// Classifies a packet by its flow key, using (and charging) the
    /// hardware hash unit: the dual-hash table probe of section 4.5.
    /// Returns the matching per-flow forwarder, if any (at most one;
    /// the paper limits per-flow forwarders per packet to one); the
    /// general forwarders run on every packet, in the order of
    /// [`Classifier::general_entries`].
    pub fn classify(&self, key: &FlowKey, hash: &mut HashUnit) -> Option<FlowEntry> {
        // The real table is indexed by the combined hash; the HashMap
        // probe stands in for the bucket walk. The hash cost is charged
        // to the hash unit either way.
        let _ = hash.hash_flow(key.src, key.dst, key.sport, key.dport);
        self.flows.get(key).copied()
    }

    /// Number of bound per-flow forwarders.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of bound general forwarders.
    pub fn general_count(&self) -> usize {
        self.general.len()
    }

    /// General forwarder `i`, in installation order (IP-- last): the
    /// input loop walks them in place, by index.
    pub(crate) fn general(&self, i: usize) -> FlowEntry {
        self.general[i]
    }

    /// Iterates over general entries, in installation order (admission
    /// control sums their budgets, since they run serially).
    pub fn general_entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.general.iter()
    }

    /// Iterates over per-flow entries (admission control takes the max,
    /// since only one runs per packet).
    pub fn flow_entries(&self) -> impl Iterator<Item = &FlowEntry> {
        self.flows.values()
    }

    /// Installs a tuple-space 5-tuple rule, verified against the same
    /// worst-case budget forwarders are admitted under.
    pub fn bind_rule(&mut self, rule: ClassRule, budget: &VrpBudget) -> Result<(), ClassifyError> {
        self.rules.insert(rule, budget)
    }

    /// Removes the rule with `id`; returns `true` if it existed.
    pub fn unbind_rule(&mut self, id: u32) -> bool {
        self.rules.remove(id)
    }

    /// Number of installed 5-tuple rules.
    pub fn rule_count(&self) -> usize {
        self.rules.rule_count()
    }

    /// Worst-case per-packet cost of the rule layer (what the fast path
    /// charges when any rule is installed).
    pub fn rule_cost(&self) -> ClassifyCost {
        self.rules.cost()
    }

    /// Matches a packet's 5-tuple against the rule layer, charging the
    /// dual hardware hash (the tuple probes fold the two hashed headers
    /// in registers, so the hash count is flat in the tuple count).
    pub fn match_rule(&self, key: &PktKey5, hash: &mut HashUnit) -> Option<&ClassRule> {
        let _ = hash.hash_flow(key.src, key.dst, key.sport, key.dport);
        self.rules.classify(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u16) -> FlowKey {
        FlowKey {
            src: 0x0a000001,
            dst: 0x0a000002,
            sport: n,
            dport: 80,
        }
    }

    fn entry(fid: u32) -> FlowEntry {
        FlowEntry {
            fid,
            where_run: WhereRun::Me,
            fwdr_index: fid,
            state_idx: fid,
            out_port: None,
        }
    }

    #[test]
    fn flow_match_is_exact() {
        let mut c = Classifier::new();
        c.bind_flow(key(1), entry(10));
        let mut h = HashUnit::default();
        assert_eq!(c.classify(&key(1), &mut h).unwrap().fid, 10);
        assert!(c.classify(&key(2), &mut h).is_none());
    }

    #[test]
    fn general_forwarders_keep_order() {
        let mut c = Classifier::new();
        c.bind_general(entry(1));
        c.bind_general(entry(2));
        c.bind_general(entry(3));
        let fids: Vec<u32> = c.general_entries().map(|e| e.fid).collect();
        assert_eq!(fids, vec![1, 2, 3]);
        let by_index: Vec<u32> = (0..c.general_count()).map(|i| c.general(i).fid).collect();
        assert_eq!(by_index, fids);
    }

    #[test]
    fn classification_charges_two_hashes() {
        let c = Classifier::new();
        let mut h = HashUnit::default();
        c.classify(&key(0), &mut h);
        assert_eq!(h.uses(), 2);
    }

    #[test]
    fn unbind_removes_everywhere() {
        let mut c = Classifier::new();
        c.bind_flow(key(1), entry(10));
        c.bind_general(entry(11));
        assert!(c.unbind(10));
        assert!(c.unbind(11));
        assert!(!c.unbind(12));
        assert_eq!(c.flow_count() + c.general_count(), 0);
    }
}
