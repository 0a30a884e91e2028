//! Experiment harness for the Pipette reproduction.
//!
//! One module per table/figure of the paper's evaluation (§VII). Each
//! module exposes a `run(...)` returning structured results and a
//! `print(...)` that renders the same rows/series the paper reports,
//! side by side with the paper's published numbers where applicable.
//!
//! Binaries in `src/bin/` (one per experiment) drive these; most accept
//! `--quick` for a reduced budget. `perf_baseline` times the
//! configurator's kernels and phases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod fig3;
pub mod fig5a;
pub mod fig5b;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod util;
