//! `npr-core`: the extensible software router — the paper's primary
//! contribution.
//!
//! The router is a three-level processor hierarchy:
//!
//! * **MicroEngines** run the fixed router infrastructure (RI): the
//!   input loop ([`input`]) and output loop ([`output`]) of the paper's
//!   Figures 5/6, over SRAM packet queues ([`queues`]) with the six
//!   queueing disciplines of Table 1 — plus injected VRP forwarders
//!   within a verified budget.
//! * The **StrongARM** ([`sa`]) runs a minimal OS: a bridge that feeds
//!   the Pentium over I2O queue pairs ([`pci`]), a route-cache miss
//!   handler, and a small set of local forwarders.
//! * The **Pentium** ([`pe`]) runs the control plane: installed control
//!   forwarders, shared in proportion to their tickets by a stride
//!   scheduler ([`sched`]) at the StrongARM's bridge.
//!
//! Extensibility is provided by the `install / remove / getdata /
//! setdata` interface ([`install`]) guarded by admission control, and
//! the whole assembly is driven by [`router::Router`], which owns the
//! shared event loop.
//!
//! # Quick start
//!
//! ```
//! use npr_core::{Router, RouterConfig};
//!
//! // The paper's headline configuration: 4 input MEs, 2 output MEs,
//! // ideal ports (FIFO-to-FIFO measurement mode).
//! let mut r = Router::new(RouterConfig::table1_system());
//! let report = r.measure(npr_core::ms(1), npr_core::ms(4));
//! assert!(report.forward_mpps > 2.0);
//! ```

pub mod aqm;
pub mod classify;
pub mod config;
pub mod control;
pub mod costs;
pub mod health;
pub mod input;
pub mod install;
pub mod output;
pub mod pci;
pub mod pe;
pub mod plane;
pub mod qm;
pub mod qm_sched;
pub mod queues;
pub mod report;
pub mod router;
pub mod sa;
pub mod sched;
pub mod trace;
pub mod wfq;
pub mod world;

pub use aqm::AqmKind;
pub use classify::{Classifier, FlowKey, Key, WhereRun};
pub use config::{RouterConfig, TrafficTemplate};
pub use control::InstalledEntry;
pub use costs::{InputCosts, OutputCosts, INPUT_MEM_OPS, OUTPUT_MEM_OPS};
pub use health::{HealthMonitor, HealthStats};
pub use install::{AdmitError, Fid, InstallRequest};
pub use pe::PeAction;
pub use plane::{Bus, Chip, ControlOp, ControlVerb, CtlStats, PlaneEvent, EVENT_KINDS};
pub use qm::QmPlane;
pub use qm_sched::WheelSched;
pub use queues::{InputDiscipline, OutputDiscipline, PacketQueue, QueuePlane};
pub use report::{Conservation, Report};
pub use router::{ms, us, Router};
pub use trace::{TraceEvent, TraceStep, Tracer};
pub use wfq::{WfqMapper, WfqState};
pub use world::{Escalation, RouterWorld, RunMode};
