//! End-to-end tests driving the compiled `pipette-cli` binary.

use pipette_cli::jsonscan::{self, JsonValue};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pipette-cli"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = bin().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn example_spec_is_valid_json() {
    let out = bin().arg("example-spec").output().expect("binary runs");
    assert!(out.status.success());
    let spec = pipette_cli::JobSpec::parse_strict(&String::from_utf8_lossy(&out.stdout))
        .expect("printed spec must parse");
    assert_eq!(spec.global_batch, 256);
}

#[test]
fn configure_runs_end_to_end_from_a_file() {
    let dir = std::env::temp_dir().join("pipette_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("job.json");
    std::fs::write(
        &path,
        r#"{
            "cluster": {"preset": "mid-range", "nodes": 2, "seed": 3},
            "model": {"layers": 8, "hidden": 1024, "heads": 16},
            "global_batch": 64,
            "max_micro": 2,
            "sa_iterations": 800,
            "memory_training_iterations": 1200
        }"#,
    )
    .unwrap();
    let out = bin()
        .args(["configure", path.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = jsonscan::parse(&String::from_utf8_lossy(&out.stdout)).expect("json report");
    let ways = |key| report.get(key).and_then(JsonValue::as_u64).expect(key);
    assert_eq!(ways("pp") * ways("tp") * ways("dp"), 16);
}

#[test]
fn import_mpigraph_produces_a_loadable_cluster() {
    let dir = std::env::temp_dir().join("pipette_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("table.txt");
    std::fs::write(&path, "0 9500 11000\n9600 0 10000\n11100 9900 0\n").unwrap();
    let out = bin()
        .args(["import-mpigraph", path.to_str().unwrap(), "8"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cluster =
        pipette_cluster::Cluster::from_json(&String::from_utf8_lossy(&out.stdout)).expect("json");
    assert_eq!(cluster.topology().num_nodes(), 3);
    assert_eq!(cluster.topology().gpus_per_node(), 8);
}

#[test]
fn import_mpigraph_rejects_zero_gpus_per_node() {
    let dir = std::env::temp_dir().join("pipette_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zero_gpu_table.txt");
    std::fs::write(&path, "0 9500\n9600 0\n").unwrap();
    let out = bin()
        .args(["import-mpigraph", path.to_str().unwrap(), "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "a typed error, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: invalid gpus_per_node"),
        "stderr: {stderr}"
    );
}

#[test]
fn explain_with_trace_out_writes_parseable_jsonl() {
    let dir = std::env::temp_dir().join("pipette_cli_test_explain");
    std::fs::create_dir_all(&dir).unwrap();
    let job = dir.join("job.json");
    std::fs::write(
        &job,
        r#"{
            "cluster": {"preset": "mid-range", "nodes": 2, "seed": 3},
            "model": {"layers": 8, "hidden": 1024, "heads": 16},
            "global_batch": 64,
            "max_micro": 2,
            "sa_iterations": 800,
            "memory_training_iterations": 1200
        }"#,
    )
    .unwrap();
    let trace_path = dir.join("trace.jsonl");
    let out = bin()
        .args([
            "explain",
            job.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("latency breakdown"), "{stdout}");
    assert!(stdout.contains("recommendation:"), "{stdout}");

    // Every line must parse as a JSON object carrying at least the seq
    // and kind envelope fields (extra payload fields are ignored here).
    let jsonl = std::fs::read_to_string(&trace_path).expect("trace written");
    let mut kinds = std::collections::BTreeSet::new();
    for (i, line) in jsonl.lines().enumerate() {
        let v = jsonscan::parse(line).expect("each line is JSON");
        let seq = v.get("seq").and_then(JsonValue::as_u64);
        assert_eq!(seq, Some(i as u64), "seq is the line index");
        let kind = v.get("kind").and_then(JsonValue::as_str).expect("kind");
        kinds.insert(kind.to_owned());
    }
    for kind in [
        "run_start",
        "mem_train",
        "latency_estimate",
        "recommendation",
    ] {
        assert!(kinds.contains(kind), "missing {kind} in {kinds:?}");
    }
}

#[test]
fn trace_out_without_a_path_is_an_error() {
    let out = bin()
        .args(["configure", "job.json", "--trace-out"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace-out"));
}

#[test]
fn drill_replays_a_fault_plan_end_to_end() {
    let dir = std::env::temp_dir().join("pipette_cli_test_drill");
    std::fs::create_dir_all(&dir).unwrap();
    let job = dir.join("job.json");
    std::fs::write(
        &job,
        r#"{
            "cluster": {"preset": "mid-range", "nodes": 3, "seed": 3},
            "model": {"layers": 8, "hidden": 1024, "heads": 16},
            "global_batch": 64,
            "max_micro": 2,
            "sa_iterations": 800,
            "memory_training_iterations": 1200
        }"#,
    )
    .unwrap();
    let plan = dir.join("faults.json");
    std::fs::write(
        &plan,
        r#"{
            "seed": 5,
            "failed_nodes": [2],
            "corrupt_pairs": [ { "from_gpu": 0, "to_gpu": 8, "kind": "nan" } ]
        }"#,
    )
    .unwrap();
    let trace_path = dir.join("trace.jsonl");
    let out = bin()
        .args([
            "drill",
            job.to_str().unwrap(),
            "--faults",
            plan.to_str().unwrap(),
            "--json",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = jsonscan::parse(&String::from_utf8_lossy(&out.stdout)).expect("json");
    let uint = |doc: &JsonValue, key| doc.get(key).and_then(JsonValue::as_u64).expect(key);
    assert_eq!(uint(&report, "healthy_gpus"), 24);
    assert_eq!(uint(&report, "surviving_gpus"), 16);
    let excluded = report.get("excluded_gpus").and_then(JsonValue::as_array);
    assert_eq!(excluded.map(<[JsonValue]>::len), Some(8));
    assert!(
        uint(&report, "profiler_retries") >= 1,
        "the corrupt pair retries"
    );
    let rec = report.get("recommendation").expect("recommendation");
    assert_eq!(uint(rec, "pp") * uint(rec, "tp") * uint(rec, "dp"), 16);

    let jsonl = std::fs::read_to_string(&trace_path).expect("trace written");
    for kind in [
        "fault_plan",
        "gpu_excluded",
        "profiler_retry",
        "reconfiguration",
    ] {
        assert!(
            jsonl.contains(&format!("\"kind\":\"{kind}\"")),
            "missing {kind} event in trace"
        );
    }
}

#[test]
fn trace_subcommands_summarize_diff_and_check_a_real_run() {
    let dir = std::env::temp_dir().join("pipette_cli_test_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let job = dir.join("job.json");
    std::fs::write(
        &job,
        r#"{
            "cluster": {"preset": "mid-range", "nodes": 2, "seed": 3},
            "model": {"layers": 8, "hidden": 1024, "heads": 16},
            "global_batch": 64,
            "max_micro": 2,
            "sa_iterations": 800,
            "memory_training_iterations": 1200
        }"#,
    )
    .unwrap();
    // Two identical-seed runs.
    let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    for path in [&a, &b] {
        let out = bin()
            .args([
                "configure",
                job.to_str().unwrap(),
                "--trace-out",
                path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // summarize: span rollups over a real trace.
    let out = bin()
        .args(["trace", "summarize", a.to_str().unwrap(), "--top", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["spans:", "mem_train", "estimates", "anneal", "hot spans"] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }

    // flame: indented span forest.
    let out = bin()
        .args(["trace", "flame", a.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let flame = String::from_utf8_lossy(&out.stdout);
    assert!(flame.contains("sa_chain"), "{flame}");

    // diff of identical-seed runs: zero drift, exit 0.
    let out = bin()
        .args(["trace", "diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "identical-seed traces must not drift: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("zero drift"));

    // diff against a genuinely different run: drift, exit 1.
    let other_job = dir.join("job2.json");
    std::fs::write(
        &other_job,
        r#"{
            "cluster": {"preset": "mid-range", "nodes": 2, "seed": 3},
            "model": {"layers": 8, "hidden": 1024, "heads": 16},
            "global_batch": 64,
            "max_micro": 2,
            "sa_iterations": 900,
            "memory_training_iterations": 1200
        }"#,
    )
    .unwrap();
    let c = dir.join("c.jsonl");
    let out = bin()
        .args([
            "configure",
            other_job.to_str().unwrap(),
            "--trace-out",
            c.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bin()
        .args(["trace", "diff", a.to_str().unwrap(), c.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success(), "drift must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stdout).contains("drift detected"));

    // check: a loose manifest passes (exit 0), a tight one fails (exit 1).
    let loose = dir.join("loose.json");
    std::fs::write(
        &loose,
        r#"{"schema":"pipette-trace-budgets/v1","spans":[{"span":"anneal","unit":"evals","max_count":1,"require":true}]}"#,
    )
    .unwrap();
    let out = bin()
        .args([
            "trace",
            "check",
            a.to_str().unwrap(),
            "--budgets",
            loose.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "loose budgets must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
    let tight = dir.join("tight.json");
    std::fs::write(
        &tight,
        r#"{"schema":"pipette-trace-budgets/v1","spans":[{"span":"anneal","max_cost":1}]}"#,
    )
    .unwrap();
    let out = bin()
        .args([
            "trace",
            "check",
            a.to_str().unwrap(),
            "--budgets",
            tight.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "violated budget must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stdout).contains("FAIL"));
}

#[test]
fn trace_check_without_budgets_is_rejected() {
    let out = bin()
        .args(["trace", "check", "whatever.jsonl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budgets"));
}

#[test]
fn explain_prints_the_metrics_section() {
    let dir = std::env::temp_dir().join("pipette_cli_test_metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let job = dir.join("job.json");
    std::fs::write(
        &job,
        r#"{
            "cluster": {"preset": "mid-range", "nodes": 2, "seed": 3},
            "model": {"layers": 8, "hidden": 1024, "heads": 16},
            "global_batch": 64,
            "max_micro": 2,
            "sa_iterations": 800,
            "memory_training_iterations": 1200
        }"#,
    )
    .unwrap();
    let out = bin()
        .args(["explain", job.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "run metrics (from the telemetry trace):",
        "candidates_examined",
        "sa_evaluations",
        "candidate_estimate_seconds",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
}

#[test]
fn drill_without_faults_is_rejected() {
    let out = bin().args(["drill", "job.json"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--faults"));
}

#[test]
fn unknown_spec_fields_fail_with_an_actionable_message() {
    let dir = std::env::temp_dir().join("pipette_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("typo.json");
    std::fs::write(
        &path,
        r#"{
            "cluster": {"preset": "mid-range", "nodes": 2},
            "model": {"preset": "gpt-1.1b"},
            "global_bacth": 64
        }"#,
    )
    .unwrap();
    let out = bin()
        .args(["configure", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("global_bacth"), "{stderr}");
    assert!(
        stderr.contains("global_batch"),
        "must suggest valid fields: {stderr}"
    );
}

#[test]
fn example_fault_plan_round_trips_through_the_strict_parser() {
    let out = bin()
        .args(["example-spec", "--faults"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let plan = pipette_cli::parse_fault_plan_strict(&text).expect("example plan is valid");
    assert_eq!(plan.failed_gpus, vec![20]);
    assert_eq!(plan.corrupt_pairs.len(), 1);
}

/// The starter drill exercises every fault it prints: a failed GPU
/// cordons its whole node, so a degraded link or corrupt pair on that
/// node would be imputed unmeasured instead of measured.
#[test]
fn example_fault_plan_cordons_no_node_its_other_faults_touch() {
    let text = |args: &[&str]| {
        let out = bin().args(args).output().expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let spec = pipette_cli::JobSpec::parse_strict(&text(&["example-spec"])).expect("spec");
    let gpus_per_node = spec
        .build_cluster()
        .expect("example cluster")
        .topology()
        .gpus_per_node();
    let plan = pipette_cli::parse_fault_plan_strict(&text(&["example-spec", "--faults"]))
        .expect("example plan is valid");
    let cordoned: Vec<usize> = plan
        .failed_gpus
        .iter()
        .map(|gpu| gpu / gpus_per_node)
        .chain(plan.failed_nodes.iter().copied())
        .collect();
    let touched: Vec<usize> = plan
        .degraded_links
        .iter()
        .flat_map(|l| [l.from_node, l.to_node])
        .chain(
            plan.corrupt_pairs
                .iter()
                .flat_map(|p| [p.from_gpu / gpus_per_node, p.to_gpu / gpus_per_node]),
        )
        .collect();
    assert!(!cordoned.is_empty() && !touched.is_empty());
    for node in &cordoned {
        assert!(
            !touched.contains(node),
            "node {node} is cordoned and also carries a degraded link or corrupt pair"
        );
    }
}

#[test]
fn malformed_spec_fails_cleanly() {
    let dir = std::env::temp_dir().join("pipette_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, "{ not json").unwrap();
    let out = bin()
        .args(["configure", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}
