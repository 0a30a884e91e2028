//! Trace-analytics integration tests: the offline toolkit (`parse`,
//! `diff`, `check`) against real configurator traces, and the committed
//! `trace_budgets.json` against the perf-baseline reference job — the
//! same gate CI runs, so a budget regression fails here first.

use pipette::configurator::{Pipette, PipetteOptions};
use pipette_cluster::presets;
use pipette_model::GptConfig;
use pipette_obs::analysis::{
    diff_jsonl, first_divergence, render_diff, span_tree_from_jsonl, BudgetManifest, ParsedTrace,
};
use pipette_obs::json::JsonValue;
use pipette_obs::{Trace, TraceConfig};

/// The perf-baseline reference job: fixed shape, identical to
/// `perf_baseline`'s `BENCH_trace.jsonl` producer, so the committed
/// budget manifest is exercised against the exact trace CI gates on.
fn reference_run() -> Trace {
    reference_run_on(pipette::parallel::default_threads())
}

/// [`reference_run`] on `threads` worker threads.
fn reference_run_on(threads: usize) -> Trace {
    let cluster = presets::mid_range(2).build(5);
    let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
    let mut options = PipetteOptions::fast_test();
    options.seed = 21;
    options.threads = threads;
    let mut trace = Trace::new(TraceConfig::default());
    Pipette::new(&cluster, &gpt, 64, options)
        .run_traced(&mut trace)
        .expect("feasible space");
    trace
}

/// The committed `BENCH_trace.jsonl` is the reference job's trace, byte
/// for byte, at any thread count. Any change that moves one SA draw, one
/// estimate or one event fails here; the CI perf job rewrites the file
/// before it checks the budgets, so it cannot see such drift.
#[test]
fn reference_run_renders_the_committed_trace() {
    let committed = include_str!("../BENCH_trace.jsonl");
    for threads in [1, 2, 8] {
        let rendered = reference_run_on(threads).to_jsonl();
        if let Some(d) = first_divergence(committed, &rendered) {
            panic!("threads = {threads}: the reference trace drifted from BENCH_trace.jsonl\n{d}");
        }
        assert_eq!(rendered, committed, "threads = {threads}");
    }
}

#[test]
fn identical_seed_runs_diff_to_zero_drift() {
    let a = reference_run().to_jsonl();
    let b = reference_run().to_jsonl();
    let diff = diff_jsonl(&a, &b).expect("both traces parse");
    assert!(
        !diff.has_drift(),
        "identical-seed runs drifted:\n{}",
        render_diff(&diff)
    );
    assert!(render_diff(&diff).contains("zero drift"));
    // The structural deltas agree side for side too.
    for delta in &diff.spans {
        assert!(!delta.changed(), "span '{}' changed", delta.name);
    }
    for delta in &diff.kinds {
        assert_eq!(delta.count.0, delta.count.1, "kind '{}'", delta.kind);
    }
}

#[test]
fn canonical_jsonl_round_trips_through_the_analyzer() {
    let trace = reference_run();
    let jsonl = trace.to_jsonl();
    let parsed = ParsedTrace::from_jsonl(&jsonl).expect("canonical output parses");
    assert_eq!(parsed.events().len(), trace.len());
    // seq fields are line indices; every line has a kind the writer knows.
    for event in parsed.events() {
        assert_eq!(
            event.field("seq").and_then(JsonValue::as_u64),
            Some(event.line as u64)
        );
    }
    // The reparsed span tree matches the in-memory one.
    let from_text = parsed.span_tree().expect("balanced");
    let from_mem = pipette_obs::SpanTree::from_trace(&trace).expect("balanced");
    assert_eq!(from_mem.nodes(), from_text.nodes());
    assert_eq!(from_mem.kind_counts(), from_text.kind_counts());
}

#[test]
fn committed_budget_manifest_passes_on_the_reference_trace() {
    // The same evaluation CI runs: perf_baseline's reference trace
    // against the repo's committed ceilings.
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../trace_budgets.json");
    let manifest_text =
        std::fs::read_to_string(manifest_path).expect("trace_budgets.json is committed");
    let manifest = BudgetManifest::parse(&manifest_text).expect("manifest is well-formed");
    let tree = span_tree_from_jsonl(&reference_run().to_jsonl()).expect("balanced");
    let report = manifest.check(&tree);
    assert!(
        report.ok(),
        "committed budgets violated: {:?}",
        report
            .violations()
            .iter()
            .map(|v| format!("{}: {} > {}", v.label, v.actual, v.limit))
            .collect::<Vec<_>>()
    );
    // The manifest is not vacuous: it pins every phase span and checks
    // both cost and count ceilings. The `serve` entry is ceiling-only
    // (pipette-serve traces carry it; batch traces must still pass).
    assert!(report.checks.len() >= 20, "manifest too thin");
    assert!(manifest
        .spans
        .iter()
        .filter(|s| s.span != "serve")
        .all(|s| s.require));
    assert!(manifest
        .spans
        .iter()
        .any(|s| s.span == "serve" && !s.require));
}

#[test]
fn tightened_manifest_trips_on_the_reference_trace() {
    // The negative control CI also runs: a ceiling below the reference
    // cost must be reported as a violation.
    let manifest = BudgetManifest::parse(
        r#"{"schema":"pipette-trace-budgets/v1","spans":[{"span":"anneal","max_cost":1}]}"#,
    )
    .expect("valid manifest");
    let tree = span_tree_from_jsonl(&reference_run().to_jsonl()).expect("balanced");
    let report = manifest.check(&tree);
    assert!(!report.ok(), "a 1-eval anneal ceiling must trip");
}
