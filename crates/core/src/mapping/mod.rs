//! Fine-grained worker dedication (§IV): simulated annealing over the
//! logical-worker → GPU mapping.
//!
//! The mapping type itself lives in `pipette-sim` (both the simulator and
//! the estimator consume it); this module contributes the search — the
//! three SA moves (*migration*, *swap*, *reverse*) and the annealer with
//! the paper's temperature schedule (α = 0.999).

mod annealer;
mod arena;
mod moves;
mod objective;
mod search;
mod tempering;

pub use annealer::{AnnealStats, Annealer, AnnealerConfig, NoOpObserver, SaMoveRecord, SaObserver};
pub use arena::{DpMemo, MemoStats, TouchedSet, UndoLog};
pub use moves::{Move, MoveKind};
pub use objective::{FnObjective, IncrementalObjective, Objective};
pub use tempering::{
    exchange_accepts, ParallelTemperingAnnealer, PtExchangeRecord, TemperingSchedule,
    TemperingStats,
};
