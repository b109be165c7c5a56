//! `npr-ixp`: a cycle-level model of the Intel IXP1200 network processor.
//!
//! The paper's performance results are determined by a small set of
//! hardware mechanisms, all of which are first-class objects here:
//!
//! * six **MicroEngines**, each multiplexing four hardware contexts over
//!   one instruction-issue slot — contexts block on memory references and
//!   their latency is hidden by peers ([`machine`]);
//! * three **memory controllers** (DRAM / SRAM / Scratch) with the
//!   measured latencies of the paper's Table 3 and the datasheet
//!   bandwidths ([`mem`]);
//! * a single, *non-hardware-serialized* **DMA state machine** moving
//!   64-byte MAC-packets between MAC ports and the on-chip FIFOs over the
//!   IX bus — the resource whose serialized access caps input-side
//!   scaling (paper, Figure 7);
//! * the on-chip, single-cycle **inter-thread signalling** used to build
//!   token-passing mutual exclusion (paper, section 3.2.2);
//! * blocking **hardware mutexes** over special SRAM regions (paper,
//!   section 3.4.2);
//! * 16-slot input/output **FIFO register files** and ten **MAC ports**
//!   (8 x 100 Mbps + 2 x 1 Gbps) with wire-rate MP segmentation;
//! * the per-MicroEngine **instruction store** with the slot accounting
//!   the admission controller budgets against (paper, section 4.5).
//!
//! The machine executes *programs* supplied by `npr-core` (the input and
//! output loops of the paper's Figures 5 and 6): a program is a state
//! machine that returns the next [`Op`] each time it is resumed.

pub mod hash;
pub mod istore;
pub mod machine;
pub mod mem;
pub mod params;
pub mod port;

pub use hash::{hash48, hash64, HashUnit};
pub use istore::IStore;
pub use machine::{
    CtxId, CtxProgram, Env, HwData, Ixp, IxpEv, MeId, MutexId, Op, RingId, Sched, SpinStats,
};
pub use mem::{MemCtl, MemKind, Rw};
pub use params::ChipConfig;
pub use port::{PortId, TrafficSource};
