//! Library backing the `pipette` command-line tool.
//!
//! The CLI reads a [`JobSpec`] (JSON), runs Algorithm 1, verifies the
//! recommendation on the simulated cluster, and prints a report — or, with
//! `--compare`, a full baseline shoot-out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod serve_cmd;
pub mod spec;
pub mod trace_cmd;

// `pipette_obs::json` is also reachable as `pipette_cli::jsonscan` for
// callers that import the JSON reader from the CLI crate.
pub use pipette_obs::json as jsonscan;
pub use pipette_obs::json::render_value;
pub use report::{
    cli_report_json, drill_report_json, render_drill, render_explain, render_metrics, run_compare,
    run_configure, run_configure_traced, run_drill_traced, CliReport, DrillReport,
};
pub use serve_cmd::{run_drill_serve, PipetteHandler, ServeJob};
pub use spec::{parse_fault_plan_strict, ClusterSpec, JobSpec, ModelSpec, SpecError};
pub use trace_cmd::{trace_check, trace_diff, trace_flame, trace_summarize, TraceCmdOutput};
