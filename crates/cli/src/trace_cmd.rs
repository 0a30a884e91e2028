//! The `pipette trace` analytics subcommands.
//!
//! Everything here operates offline on JSONL trace files written with
//! `--trace-out` (or by the perf baseline): no cluster, no search, just
//! deterministic text reports over the span stream.
//!
//! - `summarize` — stream totals, per-name span rollups, hot spans,
//!   per-kind event counts.
//! - `flame` — the span forest with bars proportional to enclosed
//!   events.
//! - `diff` — structural comparison of two traces; exits nonzero on
//!   drift, so two identical-seed runs gate bit-reproducibility.
//! - `check` — evaluates a committed budget manifest
//!   (`trace_budgets.json`) against a trace; exits nonzero on any
//!   violated ceiling, which is the CI perf gate.

use pipette_obs::analysis::{
    diff_jsonl, render_budget_report, render_diff, render_flame, render_summary,
    span_tree_from_jsonl, BudgetManifest, ParsedTrace,
};
use pipette_obs::json::JsonValue;
use pipette_obs::EventTag;
use std::error::Error;
use std::fmt::Write as _;

/// What a `trace` subcommand produced: the report text plus whether the
/// invocation should exit nonzero (drift found, budget violated).
#[derive(Debug, Clone)]
pub struct TraceCmdOutput {
    /// The rendered report, ready to print.
    pub text: String,
    /// `false` when the command found drift or a budget violation.
    pub ok: bool,
}

fn read(path: &str) -> Result<String, Box<dyn Error>> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}").into())
}

/// `trace summarize <trace.jsonl> [--top N]`.
///
/// # Errors
///
/// I/O, JSON, or span-balance errors from the trace file.
pub fn trace_summarize(path: &str, top: usize) -> Result<TraceCmdOutput, Box<dyn Error>> {
    let parsed = ParsedTrace::from_jsonl(&read(path)?)?;
    let mut rendered = render_summary(&parsed.span_tree()?, top);
    rendered.push_str(&render_counters(&parsed));
    Ok(TraceCmdOutput {
        text: rendered,
        ok: true,
    })
}

/// Renders the trace's `counter` events as a `name = value` section —
/// how serve-loop accounting (`serve_degraded_requests`,
/// `serve_breaker_trips`, …) surfaces in `trace summarize`. Counters are
/// sorted by name; empty when the trace carries none.
fn render_counters(trace: &ParsedTrace) -> String {
    let mut counters: Vec<(String, u64)> = Vec::new();
    let counter = EventTag::Counter.name();
    for event in trace.events().iter().filter(|e| e.kind == counter) {
        if let (Some(JsonValue::String(name)), Some(JsonValue::Number(value))) =
            (event.field("name"), event.field("value"))
        {
            counters.push((name.clone(), *value as u64));
        }
    }
    if counters.is_empty() {
        return String::new();
    }
    counters.sort();
    let width = counters.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let mut out = String::from("\ncounters:\n");
    for (name, value) in &counters {
        let _ = writeln!(out, "  {name:<width$} = {value}");
    }
    out
}

/// `trace flame <trace.jsonl>`.
///
/// # Errors
///
/// I/O, JSON, or span-balance errors from the trace file.
pub fn trace_flame(path: &str) -> Result<TraceCmdOutput, Box<dyn Error>> {
    let tree = span_tree_from_jsonl(&read(path)?)?;
    Ok(TraceCmdOutput {
        text: render_flame(&tree),
        ok: true,
    })
}

/// `trace diff <a.jsonl> <b.jsonl>`: `ok` is false when the stripped
/// streams differ anywhere.
///
/// # Errors
///
/// I/O, JSON, or span-balance errors from either trace file.
pub fn trace_diff(left: &str, right: &str) -> Result<TraceCmdOutput, Box<dyn Error>> {
    let diff = diff_jsonl(&read(left)?, &read(right)?)?;
    Ok(TraceCmdOutput {
        text: render_diff(&diff),
        ok: !diff.has_drift(),
    })
}

/// `trace check <trace.jsonl> --budgets <manifest.json>`: `ok` is false
/// when any ceiling is violated.
///
/// # Errors
///
/// I/O, JSON, span-balance, or manifest-format errors.
pub fn trace_check(path: &str, budgets: &str) -> Result<TraceCmdOutput, Box<dyn Error>> {
    let manifest_text = std::fs::read_to_string(budgets)
        .map_err(|e| format!("cannot read budget manifest {budgets}: {e}"))?;
    let manifest = BudgetManifest::parse(&manifest_text)?;
    let tree = span_tree_from_jsonl(&read(path)?)?;
    let report = manifest.check(&tree);
    Ok(TraceCmdOutput {
        text: render_budget_report(&report),
        ok: report.ok(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipette_obs::{CostUnit, EventKind, Trace, TraceConfig};

    fn write_sample(dir: &std::path::Path, name: &str, iterations: usize) -> String {
        let mut t = Trace::new(TraceConfig::default());
        t.push(EventKind::RunStart {
            schema: 1,
            seed: 7,
            gpus: 8,
            global_batch: 32,
        });
        let span = t.open_span("mem_train");
        for i in 0..iterations {
            t.push(EventKind::MemLoss {
                iteration: i,
                loss: 1.0 / (i + 1) as f64,
            });
        }
        t.close_span(span, CostUnit::Iterations, iterations as u64);
        let path = dir.join(name);
        t.write_jsonl(&path).expect("writable tempdir");
        path.display().to_string()
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pipette-trace-cmd-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    #[test]
    fn summarize_and_flame_render() {
        let dir = tempdir("summarize");
        let path = write_sample(&dir, "a.jsonl", 4);
        let summary = trace_summarize(&path, 5).expect("valid trace");
        assert!(summary.ok);
        assert!(summary.text.contains("mem_train"));
        let flame = trace_flame(&path).expect("valid trace");
        assert!(flame.ok);
        assert!(flame.text.contains("mem_train"));
    }

    #[test]
    fn summarize_surfaces_counters() {
        let dir = tempdir("counters");
        let mut t = Trace::new(TraceConfig::default());
        let span = t.open_span("serve");
        t.push(EventKind::Counter {
            name: "serve_degraded_requests".to_string(),
            value: 3,
        });
        t.push(EventKind::Counter {
            name: "serve_breaker_trips".to_string(),
            value: 1,
        });
        t.close_span(span, CostUnit::Requests, 5);
        let path = dir.join("serve.jsonl");
        t.write_jsonl(&path).expect("writable tempdir");
        let summary = trace_summarize(&path.display().to_string(), 5).expect("valid trace");
        assert!(summary.text.contains("counters:"), "{}", summary.text);
        assert!(
            summary.text.contains("serve_degraded_requests = 3"),
            "{}",
            summary.text
        );
        assert!(
            summary.text.contains("serve_breaker_trips"),
            "{}",
            summary.text
        );
        // A trace without counter events keeps the old shape.
        let plain = write_sample(&dir, "plain.jsonl", 2);
        let plain_summary = trace_summarize(&plain, 5).expect("valid trace");
        assert!(!plain_summary.text.contains("counters:"));
    }

    #[test]
    fn diff_flags_drift_and_clears_identical() {
        let dir = tempdir("diff");
        let a = write_sample(&dir, "a.jsonl", 4);
        let b = write_sample(&dir, "b.jsonl", 4);
        let c = write_sample(&dir, "c.jsonl", 6);
        let same = trace_diff(&a, &b).expect("valid traces");
        assert!(same.ok, "identical traces must report zero drift");
        assert!(same.text.contains("zero drift"));
        let drift = trace_diff(&a, &c).expect("valid traces");
        assert!(!drift.ok);
        assert!(drift.text.contains("drift detected"));
    }

    #[test]
    fn check_passes_and_fails_by_manifest() {
        let dir = tempdir("check");
        let trace = write_sample(&dir, "a.jsonl", 4);
        let loose = dir.join("loose.json");
        std::fs::write(
            &loose,
            r#"{"schema":"pipette-trace-budgets/v1","spans":[{"span":"mem_train","max_cost":100,"require":true}]}"#,
        )
        .expect("writable tempdir");
        let tight = dir.join("tight.json");
        std::fs::write(
            &tight,
            r#"{"schema":"pipette-trace-budgets/v1","spans":[{"span":"mem_train","max_cost":1}]}"#,
        )
        .expect("writable tempdir");
        let pass = trace_check(&trace, &loose.display().to_string()).expect("valid");
        assert!(pass.ok);
        assert!(pass.text.contains("PASS"));
        let fail = trace_check(&trace, &tight.display().to_string()).expect("valid");
        assert!(!fail.ok);
        assert!(fail.text.contains("FAIL"));
    }
}
