//! The extensibility interface (paper, section 4.5) and admission
//! control (section 4.6):
//!
//! ```text
//! fid = install(key, fwdr, size, where)
//! remove(fid)
//! data = getdata(fid)
//! setdata(fid, data)
//! ```
//!
//! Admission rules:
//!
//! * **ME**: the forwarder's verified worst-case cost must fit the
//!   remaining VRP budget. General forwarders run serially, so their
//!   budgets *sum*; per-flow forwarders logically run in parallel, so
//!   only the most expensive one counts. The classifier's own cost (56
//!   instructions + 20 B SRAM) is charged as soon as any extension
//!   exists. The code must also fit the free ISTORE slots.
//! * **SA**: rejected when the StrongARM's capacity is reserved for
//!   bridging (the paper's deployed policy), otherwise admitted.
//! * **PE**: `expected_pps x cycles` must fit within the Pentium's
//!   cycle budget, and the aggregate packet rate must stay below the
//!   maximum the path can sustain (Table 4's 534 Kpps).

use npr_vrp::{verify, VerifyError, VrpBudget, VrpProgram};

use crate::classify::{FlowEntry, Key, WhereRun};
use crate::pe::PeForwarder;
use crate::world::RouterWorld;

/// Forwarder id returned by `install`.
pub type Fid = u32;

/// Cost the classifier itself charges once any extension is installed
/// ("this classification process requires 56 instructions and accesses
/// 20 bytes of SRAM; this code is counted against the VRP budget"): the
/// same dual-hash front end the tuple-space classifier starts from.
pub const CLASSIFIER_CYCLES: u32 = npr_route::classify::BASE_CYCLES;

/// SRAM transfers (4 B) the extensible classifier performs.
pub const CLASSIFIER_SRAM_TRANSFERS: u32 = 5;

/// Maximum packet rate the Pentium path sustains (Table 4).
pub const PE_MAX_PPS: u64 = 534_000;

/// Installation request: the `fwdr` + `where` arguments.
pub enum InstallRequest {
    /// MicroEngine bytecode.
    Me {
        /// The program (verified at admission).
        prog: VrpProgram,
    },
    /// StrongARM function.
    Sa {
        /// Report name.
        name: String,
        /// Cycles per packet at 200 MHz.
        cycles: u64,
        /// The packet transformation; `false` drops. The bytes may be
        /// replaced wholesale (e.g. by an ICMP reply).
        f: crate::sa::SaPacketFn,
    },
    /// Pentium function.
    Pe {
        /// Report name.
        name: String,
        /// Cycles per packet at 733 MHz.
        cycles: u64,
        /// Proportional-share tickets: under contention for the bus,
        /// packets cross to the Pentium in proportion to them. Zero is
        /// admitted as 1.
        tickets: u64,
        /// Declared packet rate (admission input).
        expected_pps: u64,
        /// The transformation.
        f: crate::pe::PePacketFn,
    },
}

/// Why an installation was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// The VRP verifier rejected the program or its budget.
    Vrp(VerifyError),
    /// Not enough ISTORE slots.
    IStore(npr_ixp::istore::IStoreError),
    /// StrongARM capacity is reserved for Pentium bridging.
    SaReserved,
    /// Pentium cycle budget exceeded.
    PeCycles {
        /// Cycles/s requested in aggregate.
        requested: u64,
        /// Cycles/s available.
        available: u64,
    },
    /// Pentium packet-rate budget exceeded.
    PeRate {
        /// Aggregate declared pps.
        requested: u64,
    },
    /// Unknown fid (remove/getdata/setdata).
    NoSuchFid,
    /// `setdata` payload larger than the forwarder's flow state.
    StateSize {
        /// Bytes offered.
        given: usize,
        /// Bytes of flow state allocated at install time.
        capacity: usize,
    },
}

impl core::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdmitError::Vrp(e) => write!(f, "VRP verification failed: {e}"),
            AdmitError::IStore(e) => write!(f, "ISTORE: {e}"),
            AdmitError::SaReserved => write!(f, "StrongARM reserved for bridging"),
            AdmitError::PeCycles {
                requested,
                available,
            } => write!(f, "Pentium cycles: need {requested}/s, have {available}/s"),
            AdmitError::PeRate { requested } => {
                write!(f, "Pentium rate: {requested} pps exceeds {PE_MAX_PPS}")
            }
            AdmitError::NoSuchFid => write!(f, "no such forwarder"),
            AdmitError::StateSize { given, capacity } => {
                write!(f, "setdata: {given} bytes exceed the {capacity}-byte state")
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// One installed forwarder's bookkeeping.
pub struct InstallRecord {
    /// The demultiplexing key.
    pub key: Key,
    /// Where it runs.
    pub where_run: WhereRun,
    /// Index in the per-processor table.
    pub fwdr_index: u32,
    /// Flow-state index.
    pub state_idx: u32,
    /// ISTORE allocation (ME only).
    pub istore_id: Option<u32>,
}

/// Computes the VRP budget currently consumed by installed ME
/// forwarders (and the classifier), per the serial/parallel rule.
pub fn me_budget_used(world: &RouterWorld) -> (u32, u32) {
    let mut cycles = 0u32;
    let mut sram = 0u32;
    let any = world.classifier.general_count() + world.classifier.flow_count() > 0;
    if any {
        cycles += CLASSIFIER_CYCLES;
        sram += CLASSIFIER_SRAM_TRANSFERS;
    }
    for e in world.classifier.general_entries() {
        if e.where_run == WhereRun::Me {
            let c = &world.me_forwarders[e.fwdr_index as usize].cost;
            cycles += c.worst_cycles;
            sram += c.sram_reads + c.sram_writes;
        }
    }
    let mut max_flow = (0u32, 0u32);
    for e in world.classifier.flow_entries() {
        if e.where_run == WhereRun::Me {
            let c = &world.me_forwarders[e.fwdr_index as usize].cost;
            if c.worst_cycles > max_flow.0 {
                max_flow = (c.worst_cycles, c.sram_reads + c.sram_writes);
            }
        }
    }
    (cycles + max_flow.0, sram + max_flow.1)
}

/// Admission check for an ME install against `total` budget. Returns
/// the verified cost.
pub fn admit_me(
    world: &RouterWorld,
    prog: &VrpProgram,
    key: &Key,
    total: &VrpBudget,
    istore_free: usize,
) -> Result<npr_vrp::VrpCost, AdmitError> {
    let (used_cycles, used_sram) = me_budget_used(world);
    // A first extension also brings the classifier online.
    let (used_cycles, used_sram) =
        if world.classifier.general_count() + world.classifier.flow_count() == 0 {
            (
                used_cycles + CLASSIFIER_CYCLES,
                used_sram + CLASSIFIER_SRAM_TRANSFERS,
            )
        } else {
            (used_cycles, used_sram)
        };
    // Per-flow forwarders only consume budget beyond the current max;
    // conservatively admit against the full remaining budget (the
    // verifier will recompute the true max on classification).
    let remaining = VrpBudget {
        cycles: total.cycles.saturating_sub(used_cycles),
        sram_transfers: total.sram_transfers.saturating_sub(used_sram),
        hashes: total.hashes,
        istore_slots: istore_free,
    };
    let budget = match key {
        Key::All => remaining,
        // Per-flow: admitted if it fits the whole per-flow budget.
        Key::Flow(_) => VrpBudget {
            istore_slots: istore_free,
            ..remaining
        },
    };
    verify(prog, &budget).map_err(AdmitError::Vrp)
}

/// Builds the classifier entry for a new installation.
pub fn flow_entry(
    fid: Fid,
    where_run: WhereRun,
    fwdr_index: u32,
    state_idx: u32,
    out_port: Option<u8>,
) -> FlowEntry {
    FlowEntry {
        fid,
        where_run,
        fwdr_index,
        state_idx,
        out_port,
    }
}

/// PE admission: aggregate cycle and packet-rate budgets.
pub fn admit_pe(
    existing: &[PeForwarder],
    cycles: u64,
    expected_pps: u64,
) -> Result<(), AdmitError> {
    let agg_cycles: u64 = existing
        .iter()
        .map(|f| f.cycles.saturating_add(872) * f.expected_pps)
        .sum::<u64>()
        + (cycles + 872) * expected_pps;
    let capacity = npr_sim::PENTIUM_HZ;
    if agg_cycles > capacity {
        return Err(AdmitError::PeCycles {
            requested: agg_cycles,
            available: capacity,
        });
    }
    let agg_pps: u64 = existing.iter().map(|f| f.expected_pps).sum::<u64>() + expected_pps;
    if agg_pps > PE_MAX_PPS {
        return Err(AdmitError::PeRate { requested: agg_pps });
    }
    Ok(())
}

/// SA admission under the reserve-for-bridging policy.
pub fn admit_sa(reserved_for_pe: bool) -> Result<(), AdmitError> {
    if reserved_for_pe {
        Err(AdmitError::SaReserved)
    } else {
        Ok(())
    }
}

// `SaForwarder` is consumed by `Router::install`; re-export for callers.
pub use crate::sa::SaForwarder as SaInstall;
