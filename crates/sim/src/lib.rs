//! `npr-sim`: a small deterministic discrete-event simulation engine.
//!
//! This crate provides the timing substrate for the IXP1200 router model:
//! a picosecond-resolution clock, a stable-ordered event queue, a FIFO
//! "server" resource used to model memory controllers and buses, and a
//! deterministic xorshift RNG for workload generation.
//!
//! The engine is deliberately minimal: components schedule plain event
//! values of a user-chosen type `E` and the owner of the [`EventQueue`]
//! dispatches them. Ties in time are broken by insertion order, so a run
//! is a pure function of its inputs.
//!
//! [`EventQueue`] is a hierarchical calendar queue; the original binary
//! heap survives as [`OracleQueue`], the reference implementation the
//! calendar is differentially tested against (DESIGN.md §6).
//!
//! [`delivery`] adds conservative parallel execution over [`Shard`]s:
//! [`run_threads`] is its one epoch loop, and its one-thread run is the
//! lock-step oracle every threaded run must match bit-for-bit
//! (DESIGN.md §13).

pub mod delivery;
pub mod fault;
pub mod queue;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use delivery::{auto_threads, run_threads, scatter, EngineStats, Outbox, Shard};
pub use fault::{FaultClass, FaultPlan};
pub use queue::{CalendarQueue, EventQueue, OracleQueue};
pub use rng::XorShift64;
pub use server::{Server, Wakeup};
pub use stats::{Counter, LogHistogram};
pub use time::{
    cycles_to_ps, ps_to_cycles, Time, ME_HZ, PENTIUM_HZ, PS_PER_ME_CYCLE, PS_PER_PENTIUM_CYCLE,
    PS_PER_SEC,
};
