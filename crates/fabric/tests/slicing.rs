//! Slicing invariance: `Fabric::run_lockstep` cut anywhere must equal
//! the uncut run (DESIGN.md §13).
//!
//! Every call to `run_lockstep(t, _)` ends in a delivery barrier at
//! `t`, so cutting a run puts barriers off the 2 us epoch grid. The
//! simulated outcome may not depend on that: where a run is observed
//! is the observer's choice, not part of the model. The oracle is the
//! uncut single-threaded run; against it this suite holds, on every
//! topology, with the queue manager off and under CoDel, fault-free
//! and under the compound fault corpus, through a link failure and
//! restore mid-run, at threads 1/2/4/8:
//!
//! * cuts at seeded random picosecond instants, with a `Fabric::mark()`
//!   at some of them (marking is an observation too),
//! * a cut at every pending event timestamp (`next_event_time()`), the
//!   finest slicing there is,
//!
//! comparing `fingerprint()`, `report()` and `conservation()`. Every
//! run marks once at the link restore, so the compared report covers
//! the same window however many earlier marks a slicing took.
//!
//! `scripts/verify.sh` fails if tier-1's run of this suite executes
//! zero tests, like the other fabric gates.

use npr_check::prelude::*;
use npr_check::CheckRng;
use npr_core::{us, AqmKind, RouterConfig};
use npr_fabric::{Fabric, FabricConfig, Topology};
use npr_sim::fault::FAULT_CLASSES;
use npr_sim::{FaultClass, FaultPlan, Time};
use npr_traffic::{CbrSource, FrameSpec};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const MEMBERS: usize = 4;
const HORIZON: Time = us(1_200);
const CASES: u32 = 2;
/// Random cuts per segment (before the failure, while the link is
/// down, after the restore).
const CUTS: u64 = 24;
/// Timestamps the threaded runs step one at a time: each fine slice is
/// one `run_lockstep` call, and each call spawns its own workers (the
/// one-thread oracle spawns none and steps them all).
const PAR_STEPS: u64 = 3_000;

/// What a scenario is, apart from how it is sliced.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    topology: Topology,
    codel: bool,
    /// Arm the compound fault corpus on every member: token drops and
    /// engine freezes leave whole members idle for longer than an
    /// epoch, which fault-free traffic never does.
    faults: bool,
    seed: u64,
}

impl Scenario {
    /// A busy fabric: every member sends min-sized frames to its
    /// successor, multi-MP frames two members on (a transit hop on the
    /// ring) and mid-sized ones to its predecessor, so every inbox is
    /// fed by several members and uplinks carry frames of many MPs.
    fn build(&self) -> Fabric {
        let mut rng = CheckRng::new(self.seed);
        let base = if self.codel {
            RouterConfig::per_flow_qos(AqmKind::Codel)
        } else {
            RouterConfig::line_rate()
        };
        let cfg = match self.topology {
            Topology::SingleSwitch => FabricConfig::single_switch(MEMBERS, base),
            Topology::Ring => FabricConfig::ring(MEMBERS, base),
            Topology::SpineLeaf { .. } => FabricConfig::spine_leaf(MEMBERS, base),
        };
        let mut f = Fabric::new(cfg);
        for k in 0..MEMBERS {
            if self.faults {
                let mut plan = FaultPlan::new(self.seed ^ (k as u64) << 13);
                for &class in &FAULT_CLASSES {
                    plan.set_rate(
                        class,
                        match class {
                            FaultClass::PciError => 400_000,
                            FaultClass::SaWedge => 30_000,
                            _ => 5_000,
                        },
                    );
                }
                f.member_mut(k).set_fault_plan(Some(plan));
            }
            for (port, hop) in [(0usize, 1usize), (1, 2), (2, 3)] {
                let len = match port {
                    0 => 60,
                    1 => 200 + rng.below(1_000) as usize,
                    _ => 64 + rng.below(200) as usize,
                };
                let net = ((k + hop) % MEMBERS * 8 + port) as u8;
                f.member_mut(k).attach_source(
                    port,
                    Box::new(CbrSource::new(
                        100_000_000,
                        0.5 + rng.below(45) as f64 / 100.0,
                        FrameSpec {
                            len,
                            dst: u32::from_be_bytes([10, net, 0, 1]),
                            ..Default::default()
                        },
                        u64::MAX,
                    )),
                );
            }
        }
        f
    }

    /// The instants every slicing shares: one directed link fails at
    /// the first and is restored at the second.
    fn link_outage(&self) -> (Time, Time, usize, usize) {
        let mut rng = CheckRng::new(self.seed ^ 0xFA11);
        let fail = HORIZON / 4 + rng.below(HORIZON / 4);
        let restore = fail + HORIZON / 8 + rng.below(HORIZON / 4);
        let member = rng.below(MEMBERS as u64) as usize;
        let ports = self.topology.fabric_ports(MEMBERS).len();
        (fail, restore, member, rng.below(ports as u64) as usize)
    }

    /// Runs the scenario, advancing each of its three segments with
    /// `advance(fabric, segment_end)`.
    fn run(&self, mut advance: impl FnMut(&mut Fabric, Time)) -> Observed {
        let (fail, restore, member, ix) = self.link_outage();
        let mut f = self.build();
        advance(&mut f, fail);
        f.fail_link(member, ix);
        advance(&mut f, restore);
        f.restore_link(member, ix);
        f.mark();
        advance(&mut f, HORIZON);
        Observed {
            fingerprint: f.fingerprint(),
            report: format!("{:?}", f.report()),
            conservation: format!("{:?}", f.conservation()),
            switched: f.switched(),
        }
    }
}

struct Observed {
    fingerprint: u64,
    report: String,
    conservation: String,
    switched: u64,
}

impl Observed {
    /// The first observable on which `self` departs from `oracle`,
    /// with the text around the departure (a whole report is pages).
    fn departs_from(&self, oracle: &Observed) -> Option<String> {
        for (name, got, want) in [
            ("conservation", &self.conservation, &oracle.conservation),
            ("report", &self.report, &oracle.report),
        ] {
            if got != want {
                let at = got
                    .bytes()
                    .zip(want.bytes())
                    .take_while(|(a, b)| a == b)
                    .count();
                let around = |s: &str| s[at.saturating_sub(60)..s.len().min(at + 40)].to_owned();
                return Some(format!("{name}: ...{} != ...{}", around(got), around(want)));
            }
        }
        (self.fingerprint != oracle.fingerprint).then(|| {
            format!(
                "fingerprint {:#x} != {:#x}",
                self.fingerprint, oracle.fingerprint
            )
        })
    }
}

/// `f`'s earliest pending event. Members are started by the first
/// `run_lockstep`; before that they look idle.
fn next_event_time(f: &Fabric) -> Option<Time> {
    f.members().filter_map(|r| r.next_event_time()).min()
}

/// Advances to `until` with a barrier at each of the next `steps`
/// event timestamps.
fn step_each_timestamp(f: &mut Fabric, until: Time, threads: usize, steps: &mut u64) {
    f.run_lockstep(f.now(), threads);
    while *steps > 0 {
        let Some(t) = next_event_time(f).filter(|&t| t <= until) else {
            break;
        };
        f.run_lockstep(t, threads);
        *steps -= 1;
    }
    f.run_lockstep(until, threads);
}

fn check(topology: Topology, seed: u64) -> Result<(), String> {
    for (codel, faults) in [(false, false), (true, false), (false, true), (true, true)] {
        let sc = Scenario {
            topology,
            codel,
            faults,
            seed,
        };
        let oracle = sc.run(|f, t| {
            f.run_lockstep(t, 1);
        });
        prop_assert!(oracle.switched > 0, "{sc:?} never crossed the fabric");
        for threads in THREADS {
            if threads > 1 {
                let uncut = sc.run(|f, t| {
                    f.run_lockstep(t, threads);
                });
                prop_assert_eq!(
                    uncut.departs_from(&oracle),
                    None,
                    "{sc:?} uncut, threads={threads}"
                );
            }

            let mut rng = CheckRng::new(seed ^ threads as u64);
            let restore = sc.link_outage().1;
            let random = sc.run(|f, t| {
                let from = f.now();
                let mut cuts: Vec<Time> = (0..CUTS).map(|_| from + rng.below(t - from)).collect();
                cuts.sort_unstable();
                for cut in cuts {
                    f.run_lockstep(cut, threads);
                    // Marks before the shared one at `restore` must
                    // leave no trace in anything compared below.
                    if cut < restore && rng.bool() {
                        f.mark();
                    }
                }
                f.run_lockstep(t, threads);
            });
            prop_assert_eq!(
                random.departs_from(&oracle),
                None,
                "{sc:?} random cuts, threads={threads}"
            );

            // Each segment gets its own share of single steps, so the
            // stepped stretches straddle the failure and the restore.
            let per_segment = if threads == 1 {
                u64::MAX
            } else {
                PAR_STEPS / 3
            };
            let stepped = sc.run(|f, t| {
                let mut steps = per_segment;
                step_each_timestamp(f, t, threads, &mut steps);
            });
            prop_assert_eq!(
                stepped.departs_from(&oracle),
                None,
                "{sc:?} every timestamp, threads={threads}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn single_switch_is_slicing_invariant(seed: u64) {
        check(Topology::SingleSwitch, seed)?;
    }

    #[test]
    fn ring_is_slicing_invariant(seed: u64) {
        check(Topology::Ring, seed)?;
    }

    #[test]
    fn spine_leaf_is_slicing_invariant(seed: u64) {
        check(Topology::SpineLeaf { spines: 2 }, seed)?;
    }
}
