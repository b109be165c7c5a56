//! Stride proportional-share scheduling.
//!
//! "we run a proportional share scheduler on the Pentium, where deciding
//! what share to allocate to each flow is a policy issue. For example,
//! we allocate sufficient cycles to the OSPF control protocol to ensure
//! that it is able to update the routing table at an acceptable rate"
//! (paper, section 4.1; the mechanism is from Qie et al., reference 19).
//!
//! Stride scheduling: each flow holds `tickets`; its `stride` is
//! `STRIDE1 / tickets`; the scheduler always serves the ready flow with
//! the minimum `pass`, then advances that flow's pass by its stride.
//! The Pentium's flows are its installed forwarders, and the share is
//! taken where their packets claim I2O buffers (`sa::PeStaging`).

/// Global stride constant.
const STRIDE1: u64 = 1 << 20;

#[derive(Debug, Clone, Copy)]
struct Flow {
    tickets: u64,
    pass: u64,
}

/// A stride scheduler over a dynamic set of flows.
///
/// # Examples
///
/// ```
/// use npr_core::sched::Stride;
///
/// let mut s = Stride::new();
/// let a = s.add_flow(3); // 3x the share of b.
/// let b = s.add_flow(1);
/// let mut served = [0u32; 2];
/// for _ in 0..400 {
///     let f = s.pick(|_| true).unwrap();
///     served[f] += 1;
/// }
/// assert_eq!(served[a] / served[b], 3);
/// ```
#[derive(Debug, Default)]
pub struct Stride {
    flows: Vec<Flow>,
    global_pass: u64,
}

impl Stride {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a flow with `tickets` (must be non-zero); returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `tickets` is zero.
    pub fn add_flow(&mut self, tickets: u64) -> usize {
        assert!(tickets > 0, "zero tickets");
        // New flows join at the current virtual time so they cannot
        // starve existing flows by accumulating negative lag.
        self.flows.push(Flow {
            tickets,
            pass: self.global_pass,
        });
        self.flows.len() - 1
    }

    /// The ready flow (per `ready`) with minimum pass, without charging
    /// it. Returns `None` if no flow is ready.
    pub fn peek(&self, ready: impl Fn(usize) -> bool) -> Option<usize> {
        self.flows
            .iter()
            .enumerate()
            .filter(|&(i, _)| ready(i))
            .min_by_key(|&(_, f)| f.pass)
            .map(|(i, _)| i)
    }

    /// Charges `flow` one stride: it has been served once.
    pub fn charge(&mut self, flow: usize) {
        let f = &mut self.flows[flow];
        f.pass += STRIDE1 / f.tickets;
        self.global_pass = self.global_pass.max(f.pass);
    }

    /// Picks the ready flow (per `ready`) with minimum pass, advancing
    /// its pass. Returns `None` if no flow is ready.
    pub fn pick(&mut self, ready: impl Fn(usize) -> bool) -> Option<usize> {
        let idx = self.peek(ready)?;
        self.charge(idx);
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_service() {
        let mut s = Stride::new();
        let flows = [s.add_flow(1), s.add_flow(2), s.add_flow(4)];
        let mut count = [0u32; 3];
        for _ in 0..700 {
            count[s.pick(|_| true).unwrap()] += 1;
        }
        assert!((count[flows[1]] as f64 / count[flows[0]] as f64 - 2.0).abs() < 0.05);
        assert!((count[flows[2]] as f64 / count[flows[0]] as f64 - 4.0).abs() < 0.05);
    }

    #[test]
    fn unready_flows_are_skipped() {
        let mut s = Stride::new();
        let a = s.add_flow(100);
        let b = s.add_flow(1);
        // `a` never ready: `b` gets everything.
        for _ in 0..10 {
            assert_eq!(s.pick(|i| i != a), Some(b));
        }
        assert_eq!(s.pick(|_| false), None);
    }

    #[test]
    fn late_joiner_does_not_monopolize() {
        let mut s = Stride::new();
        let a = s.add_flow(1);
        for _ in 0..1000 {
            s.pick(|_| true);
        }
        let b = s.add_flow(1);
        let mut count = [0u32; 2];
        for _ in 0..100 {
            count[s.pick(|_| true).unwrap()] += 1;
        }
        // b joined at the current virtual time: near-equal service.
        assert!(count[a] >= 40 && count[b] >= 40, "{count:?}");
    }
}
