//! Deterministic seeded fault injection.
//!
//! The paper's central claim is *robustness*: the router keeps
//! forwarding near the hardware limit no matter what is thrown at it
//! (section 4.7). This module makes "what is thrown at it" a
//! first-class, reproducible simulation input. A [`FaultPlan`] owns one
//! independent xorshift stream per [`FaultClass`]; consumers at each
//! injection point (memory controllers, the DMA engine, token rings,
//! MAC ports, the PCI bus) ask the plan whether the event they are
//! about to process is faulted, and by how much.
//!
//! Two properties are load-bearing:
//!
//! * **Fault-free runs are bit-identical to runs without a plan.** A
//!   class whose rate is zero draws *nothing* from its stream, so
//!   attaching a plan with all rates zero (or no plan at all) perturbs
//!   neither the schedule nor any RNG state. The golden determinism
//!   digest stays green.
//! * **Same seed, same faults.** Each class draws from its own stream
//!   (seeded `seed ^ class constant`), so enabling one class never
//!   shifts the fault schedule of another, and a fixed seed reproduces
//!   identical fault schedules — and therefore identical degradation
//!   numbers — across runs.

use crate::rng::XorShift64;
use crate::time::Time;

/// One part-per-million: the unit all fault rates are expressed in.
pub const PPM: u32 = 1_000_000;

/// The injectable fault classes, one per hardware failure mode the
/// model exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Memory-controller stall episode: a controller access triggers a
    /// stall window during which every access pays extra latency
    /// (refresh storms, arbitration livelock on the real part).
    MemStall,
    /// DMA slowdown: one receive/transmit transfer occupies the shared
    /// DMA data path for a multiple of its nominal time.
    DmaSlow,
    /// A token pass is lost; the ring recovers after a timeout.
    TokenDrop,
    /// A token pass is duplicated (spurious signal); the ring must
    /// absorb the duplicate without double-granting.
    TokenDuplicate,
    /// A MAC port flaps: the link goes down for a window and every MP
    /// arriving meanwhile is dropped (and counted) at the port.
    PortFlap,
    /// An arriving MP's position tag is corrupted, exercising the
    /// orphan/assembly drop paths downstream.
    MpCorrupt,
    /// A PCI transaction fails and is retried after a backoff, wasting
    /// bus time but losing no packets.
    PciError,
    /// The StrongARM wedges inside a job: the job it just started hangs
    /// for a drawn window (a stuck kernel path on the real part) and
    /// the core makes no progress until the watchdog resets it.
    SaWedge,
}

/// All classes, in a fixed order (indexing order of the per-class
/// state arrays).
pub const FAULT_CLASSES: [FaultClass; 8] = [
    FaultClass::MemStall,
    FaultClass::DmaSlow,
    FaultClass::TokenDrop,
    FaultClass::TokenDuplicate,
    FaultClass::PortFlap,
    FaultClass::MpCorrupt,
    FaultClass::PciError,
    FaultClass::SaWedge,
];

impl FaultClass {
    fn index(self) -> usize {
        match self {
            FaultClass::MemStall => 0,
            FaultClass::DmaSlow => 1,
            FaultClass::TokenDrop => 2,
            FaultClass::TokenDuplicate => 3,
            FaultClass::PortFlap => 4,
            FaultClass::MpCorrupt => 5,
            FaultClass::PciError => 6,
            FaultClass::SaWedge => 7,
        }
    }

    /// Stream-splitting constant: large odd values so `seed ^ c` never
    /// collides across classes for any seed.
    fn stream_salt(self) -> u64 {
        [
            0x9E37_79B9_7F4A_7C15,
            0xC2B2_AE3D_27D4_EB4F,
            0x1656_67B1_9E37_79F9,
            0x2545_F491_4F6C_DD1D,
            0x8536_55F7_1F8B_9B1B,
            0x5851_F42D_4C95_7F2D,
            0x6A09_E667_F3BC_C909,
            0xBB67_AE85_84CA_A73B,
        ][self.index()]
    }
}

/// A deterministic fault schedule: per-class rates and independent
/// random streams.
///
/// # Examples
///
/// ```
/// use npr_sim::{FaultClass, FaultPlan};
///
/// let mut plan = FaultPlan::new(7).with_rate(FaultClass::TokenDrop, 10_000);
/// let fired: u32 = (0..1000).map(|_| u32::from(plan.roll(FaultClass::TokenDrop))).sum();
/// assert!(fired > 0 && fired < 100); // ~1% rate.
/// // Disabled classes never fire and never draw from their stream.
/// assert!(!plan.roll(FaultClass::PciError));
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    rates_ppm: [u32; FAULT_CLASSES.len()],
    streams: [XorShift64; FAULT_CLASSES.len()],
    injected: [u64; FAULT_CLASSES.len()],
}

impl FaultPlan {
    /// Creates a plan with every class disabled.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rates_ppm: [0; FAULT_CLASSES.len()],
            streams: std::array::from_fn(|i| {
                XorShift64::new(seed ^ FAULT_CLASSES[i].stream_salt())
            }),
            injected: [0; FAULT_CLASSES.len()],
        }
    }

    /// The seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets `class`'s fault probability in parts per million (builder
    /// style). Rates above 1e6 saturate to "always".
    pub fn with_rate(mut self, class: FaultClass, ppm: u32) -> Self {
        self.set_rate(class, ppm);
        self
    }

    /// Sets `class`'s fault probability in parts per million.
    pub fn set_rate(&mut self, class: FaultClass, ppm: u32) {
        self.rates_ppm[class.index()] = ppm.min(PPM);
    }

    /// Current rate for `class`.
    pub fn rate(&self, class: FaultClass) -> u32 {
        self.rates_ppm[class.index()]
    }

    /// Decides whether the event being processed is faulted. A disabled
    /// class returns `false` without touching its stream, so fault-free
    /// runs draw zero random values.
    pub fn roll(&mut self, class: FaultClass) -> bool {
        let i = class.index();
        let rate = self.rates_ppm[i];
        if rate == 0 {
            return false;
        }
        let hit = self.streams[i].below(u64::from(PPM)) < u64::from(rate);
        if hit {
            self.injected[i] += 1;
        }
        hit
    }

    /// Draws a fault magnitude in `0..bound` from `class`'s stream
    /// (call only after a successful [`FaultPlan::roll`], so disabled
    /// classes stay draw-free).
    pub fn draw_below(&mut self, class: FaultClass, bound: u64) -> u64 {
        debug_assert!(self.rates_ppm[class.index()] > 0);
        self.streams[class.index()].below(bound.max(1))
    }

    /// Draws a fault duration in `min..min + spread` picoseconds.
    pub fn draw_window(&mut self, class: FaultClass, min: Time, spread: Time) -> Time {
        min + self.draw_below(class, spread.max(1))
    }

    /// Faults injected so far for `class`.
    pub fn injected(&self, class: FaultClass) -> u64 {
        self.injected[class.index()]
    }

    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_class_never_fires_and_never_draws() {
        let mut a = FaultPlan::new(42).with_rate(FaultClass::MemStall, 500_000);
        let mut b = FaultPlan::new(42).with_rate(FaultClass::MemStall, 500_000);
        // Interleave disabled-class rolls into `a` only: the MemStall
        // stream must be unaffected (streams are independent and
        // disabled classes draw nothing).
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for _ in 0..256 {
            assert!(!a.roll(FaultClass::PciError));
            assert!(!a.roll(FaultClass::TokenDrop));
            seq_a.push(a.roll(FaultClass::MemStall));
            seq_b.push(b.roll(FaultClass::MemStall));
        }
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.injected(FaultClass::PciError), 0);
    }

    #[test]
    fn same_seed_reproduces_schedule() {
        let mk = || {
            FaultPlan::new(0xFEED)
                .with_rate(FaultClass::TokenDrop, 30_000)
                .with_rate(FaultClass::DmaSlow, 70_000)
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..4096 {
            let class = if i % 2 == 0 {
                FaultClass::TokenDrop
            } else {
                FaultClass::DmaSlow
            };
            let (ra, rb) = (a.roll(class), b.roll(class));
            assert_eq!(ra, rb, "roll {i} diverged");
            if ra {
                assert_eq!(a.draw_below(class, 1000), b.draw_below(class, 1000));
            }
        }
        assert_eq!(a.total_injected(), b.total_injected());
        assert!(a.total_injected() > 0);
    }

    #[test]
    fn classes_draw_from_independent_streams() {
        // Enabling a second class must not change the first class's
        // schedule.
        let mut solo = FaultPlan::new(7).with_rate(FaultClass::PortFlap, 100_000);
        let mut duo = FaultPlan::new(7)
            .with_rate(FaultClass::PortFlap, 100_000)
            .with_rate(FaultClass::MpCorrupt, 900_000);
        for _ in 0..1024 {
            duo.roll(FaultClass::MpCorrupt);
            assert_eq!(solo.roll(FaultClass::PortFlap), duo.roll(FaultClass::PortFlap));
        }
    }

    #[test]
    fn rate_is_respected_statistically() {
        let mut p = FaultPlan::new(99).with_rate(FaultClass::PciError, 250_000);
        let n = 20_000u32;
        let hits: u32 = (0..n).map(|_| u32::from(p.roll(FaultClass::PciError))).sum();
        let frac = f64::from(hits) / f64::from(n);
        assert!((frac - 0.25).abs() < 0.02, "observed {frac}");
        assert_eq!(u64::from(hits), p.injected(FaultClass::PciError));
    }

    #[test]
    fn saturated_rate_always_fires() {
        let mut p = FaultPlan::new(1).with_rate(FaultClass::MemStall, 2 * PPM);
        assert_eq!(p.rate(FaultClass::MemStall), PPM);
        for _ in 0..64 {
            assert!(p.roll(FaultClass::MemStall));
        }
    }

    #[test]
    fn draw_window_stays_in_range() {
        let mut p = FaultPlan::new(3).with_rate(FaultClass::PortFlap, PPM);
        for _ in 0..256 {
            assert!(p.roll(FaultClass::PortFlap));
            let w = p.draw_window(FaultClass::PortFlap, 500, 1_000);
            assert!((500..1_500).contains(&w), "window {w}");
        }
    }
}
