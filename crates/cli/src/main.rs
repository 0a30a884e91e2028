//! `pipette-cli` — configure LLM training from the command line.
//!
//! ```sh
//! pipette-cli configure job.json        # human-readable recommendation
//! pipette-cli configure job.json --json # machine-readable report
//! pipette-cli compare job.json          # shoot-out vs AMP/Varuna/Megatron-LM
//! pipette-cli example-spec              # print a starter job.json
//! ```

use pipette_cli::{
    cli_report_json, drill_report_json, parse_fault_plan_strict, render_drill, render_explain,
    render_metrics, run_compare, run_configure_traced, run_drill_serve, run_drill_traced,
    trace_check, trace_diff, trace_flame, trace_summarize, JobSpec, PipetteHandler, TraceCmdOutput,
};
use pipette_cluster::FaultPlan;
use pipette_obs::json::{self, JsonValue};
use pipette_obs::{Trace, TraceConfig};
use pipette_serve::{run_pipe, run_unix, ServerConfig};
use std::process::ExitCode;

const EXAMPLE_SPEC: &str = r#"{
  "cluster": { "preset": "mid-range", "nodes": 8, "seed": 42 },
  "model":   { "preset": "gpt-1.1b" },
  "global_batch": 256,
  "max_micro": 8,
  "worker_dedication": true,
  "sa_iterations": 30000,
  "seed": 7,
  "replicas": 4,
  "exchange_interval": 512
}"#;

fn usage() -> ExitCode {
    eprintln!("usage: pipette-cli <configure|compare> <job.json> [--json] [--trace-out <path>]");
    eprintln!("       pipette-cli explain <job.json> [--trace-out <path>]");
    eprintln!(
        "       pipette-cli drill <job.json> --faults <plan.json> [--json] [--trace-out <path>]"
    );
    eprintln!("       pipette-cli drill <job.json> --faults <plan.json> --serve");
    eprintln!(
        "       pipette-cli serve [--socket <path>] [--workers <n>] [--queue-limit <n>] \
         [--retry-after <units>] [--cache-dir <dir>] [--trace-out <path>]"
    );
    eprintln!("       pipette-cli trace summarize <trace.jsonl> [--top <n>]");
    eprintln!("       pipette-cli trace flame <trace.jsonl>");
    eprintln!("       pipette-cli trace diff <a.jsonl> <b.jsonl>");
    eprintln!("       pipette-cli trace check <trace.jsonl> --budgets <manifest.json>");
    eprintln!("       pipette-cli import-mpigraph <table.txt> <gpus-per-node>");
    eprintln!("       pipette-cli example-spec [--faults]");
    eprintln!();
    eprintln!("  --trace-out writes a deterministic JSONL telemetry trace of the run");
    eprintln!("  drill replays a fault plan: robust profiling, node exclusion, reconfiguration");
    eprintln!("  drill --serve replays the plan's drift timeline against a live serve loop");
    eprintln!("  serve answers newline-delimited JSON requests on stdin/stdout (or a unix socket)");
    eprintln!("  trace diff exits 1 on drift; trace check exits 1 on a violated budget");
    ExitCode::from(2)
}

const EXAMPLE_FAULT_PLAN: &str = r#"{
  "seed": 1,
  "degraded_links": [ { "from_node": 0, "to_node": 1, "factor": 0.25 } ],
  "straggler_gpus": [ { "gpu": 3, "slowdown": 2.0 } ],
  "failed_gpus": [ 20 ],
  "failed_nodes": [],
  "corrupt_pairs": [ { "from_gpu": 0, "to_gpu": 8, "kind": "nan" } ],
  "measurement_failure_rate": 0.05,
  "sample_loss_rate": 0.0
}"#;

/// Extracts the value of `--<name> <value>` from the argument list.
fn value_arg(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{name} needs a file path")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "example-spec" => {
            if args.iter().any(|a| a == "--faults") {
                println!("{EXAMPLE_FAULT_PLAN}");
            } else {
                println!("{EXAMPLE_SPEC}");
            }
            ExitCode::SUCCESS
        }
        "import-mpigraph" => {
            let (Some(path), Some(gpn)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let Ok(gpus_per_node) = gpn.parse::<usize>() else {
                return usage();
            };
            match import_mpigraph(path, gpus_per_node) {
                Ok(json) => {
                    println!("{json}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "trace" => trace_command(&args[1..]),
        "serve" => serve_command(&args[1..]),
        "configure" | "compare" | "explain" | "drill" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let json_output = args.iter().any(|a| a == "--json");
            let (trace_out, faults_path) = match (
                value_arg(&args, "--trace-out"),
                value_arg(&args, "--faults"),
            ) {
                (Ok(t), Ok(f)) => (t, f),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            if command == "drill" && faults_path.is_none() {
                eprintln!("error: drill needs --faults <plan.json>");
                return usage();
            }
            let spec: JobSpec = match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| JobSpec::parse_strict(&text).map_err(|e| e.to_string()))
            {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("error: cannot read job spec {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let faults = match faults_path.as_deref().map(read_fault_plan).transpose() {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // `configure --faults plan.json` is a synonym for `drill`:
            // a configuration run that degrades gracefully under faults.
            let serve_replay = args.iter().any(|a| a == "--serve");
            let result = match (command.as_str(), &faults) {
                ("configure", None) => configure(&spec, json_output, trace_out.as_deref()),
                ("configure" | "drill", Some(plan)) => {
                    if serve_replay {
                        drill_serve(path, faults_path.as_deref().unwrap_or_default())
                    } else {
                        drill(&spec, plan, json_output, trace_out.as_deref())
                    }
                }
                ("explain", _) => explain(&spec, trace_out.as_deref()),
                _ => compare(&spec, json_output),
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

/// Dispatches the `trace <summarize|flame|diff|check>` analytics family.
/// Reports that find drift or a violated budget exit with failure so CI
/// can gate on them directly.
fn trace_command(args: &[String]) -> ExitCode {
    let Some(verb) = args.first() else {
        return usage();
    };
    let result: Result<TraceCmdOutput, _> = match (verb.as_str(), args.get(1), args.get(2)) {
        ("summarize", Some(path), _) => {
            let top = match value_arg(args, "--top") {
                Ok(None) => 5,
                Ok(Some(n)) => match n.parse::<usize>() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("error: --top needs a non-negative integer");
                        return usage();
                    }
                },
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            trace_summarize(path, top)
        }
        ("flame", Some(path), _) => trace_flame(path),
        ("diff", Some(left), Some(right)) => trace_diff(left, right),
        ("check", Some(path), _) => match value_arg(args, "--budgets") {
            Ok(Some(budgets)) => trace_check(path, &budgets),
            Ok(None) => {
                eprintln!("error: trace check needs --budgets <manifest.json>");
                return usage();
            }
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        },
        _ => return usage(),
    };
    match result {
        Ok(output) => {
            print!("{}", output.text);
            if output.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads and strictly parses a fault plan file.
fn read_fault_plan(path: &str) -> Result<FaultPlan, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fault plan {path}: {e}"))
        .and_then(|text| {
            parse_fault_plan_strict(&text).map_err(|e| format!("fault plan {path}: {e}"))
        })
}

/// Parses an mpiGraph bandwidth table into a cluster JSON (mid-range
/// nominal link specs, V100 hardware) printed to stdout.
fn import_mpigraph(path: &str, gpus_per_node: usize) -> Result<String, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let preset = pipette_cluster::presets::mid_range(2);
    let matrix = pipette_cluster::parse_mpigraph(&text, gpus_per_node, preset.intra, preset.inter)?;
    let cluster =
        pipette_cluster::Cluster::new("imported", preset.gpu.clone(), matrix, preset.profiler);
    Ok(cluster.to_json())
}

/// Runs the spec, optionally writing the telemetry trace to `trace_out`,
/// and returns both views of the outcome.
fn run_with_optional_trace(
    spec: &JobSpec,
    trace_out: Option<&str>,
) -> Result<(pipette_cli::CliReport, pipette::Recommendation), Box<dyn std::error::Error>> {
    match trace_out {
        None => run_configure_traced(spec, None),
        Some(path) => {
            let mut trace = Trace::new(TraceConfig::default());
            let result = run_configure_traced(spec, Some(&mut trace));
            // Write whatever was recorded even when configuration fails —
            // the trace is most useful for diagnosing exactly that.
            trace.write_jsonl(std::path::Path::new(path))?;
            result
        }
    }
}

fn explain(spec: &JobSpec, trace_out: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    // Explain always records a trace: the metrics section reads the
    // run's counter/histogram events back out of it.
    let mut trace = Trace::new(TraceConfig::default());
    let result = run_configure_traced(spec, Some(&mut trace));
    if let Some(path) = trace_out {
        trace.write_jsonl(std::path::Path::new(path))?;
    }
    let (report, rec) = result?;
    print!("{}", render_explain(&report, &rec, 5));
    print!("{}", render_metrics(&trace));
    Ok(())
}

fn configure(
    spec: &JobSpec,
    json: bool,
    trace_out: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let (report, _) = run_with_optional_trace(spec, trace_out)?;
    if json {
        // The document serve answers with, laid out for people.
        let doc = json::parse(&cli_report_json(&report))?;
        println!("{}", json::render_pretty(&doc));
        return Ok(());
    }
    println!(
        "recommended configuration : (pp={}, tp={}, dp={})",
        report.pp, report.tp, report.dp
    );
    println!(
        "microbatch                : {} ({} microbatches/iteration)",
        report.micro_batch, report.n_microbatches
    );
    println!(
        "estimated iteration time  : {:.3} s",
        report.estimated_seconds
    );
    println!(
        "measured iteration time   : {:.3} s (simulated verification)",
        report.measured_seconds
    );
    println!(
        "peak GPU memory           : {:.1} GiB",
        report.peak_memory_gib
    );
    println!(
        "search                    : {} candidates, {} rejected by the memory estimator",
        report.examined, report.memory_rejected
    );
    Ok(())
}

fn drill(
    spec: &JobSpec,
    plan: &FaultPlan,
    json: bool,
    trace_out: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let run = |trace: Option<&mut Trace>| run_drill_traced(spec, plan, trace);
    let (report, outcome) = match trace_out {
        None => run(None)?,
        Some(path) => {
            let mut trace = Trace::new(TraceConfig::default());
            let result = run(Some(&mut trace));
            trace.write_jsonl(std::path::Path::new(path))?;
            result?
        }
    };
    if json {
        // One byte-stable line: CI and downstream tooling parse it.
        println!("{}", drill_report_json(&report));
    } else {
        print!("{}", render_drill(&report, &outcome));
    }
    Ok(())
}

/// `drill --serve`: replay the fault plan's drift timeline against a
/// live in-process server and print one response line per day.
fn drill_serve(spec_path: &str, faults_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let spec_text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("cannot read job spec {spec_path}: {e}"))?;
    let fault_text = std::fs::read_to_string(faults_path)
        .map_err(|e| format!("cannot read fault plan {faults_path}: {e}"))?;
    let (lines, summary) = run_drill_serve(&spec_text, &fault_text)?;
    for line in &lines {
        println!("{line}");
    }
    eprintln!(
        "drill --serve: {} requests, {} degraded, {} breaker trips, shutdown={}",
        summary.admitted, summary.degraded_requests, summary.breaker_trips, summary.shutdown
    );
    Ok(())
}

/// Parses `--<name> <n>` as a number, with a default.
fn numeric_arg(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match value_arg(args, name)? {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("{name} needs a non-negative integer, got {v:?}")),
    }
}

/// `pipette serve`: the hardened configurator daemon. Pipe mode (the
/// default) answers newline-delimited JSON requests on stdin/stdout;
/// `--socket` serves connections on a unix socket instead. Responses go
/// to stdout; operational chatter (cache sweep, drain summaries) goes to
/// stderr so the response stream stays machine-readable.
fn serve_command(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<_, String> {
        let socket = value_arg(args, "--socket")?;
        let cache_dir = value_arg(args, "--cache-dir")?;
        let trace_out = value_arg(args, "--trace-out")?;
        let workers = numeric_arg(args, "--workers", 2)?;
        let queue_limit = numeric_arg(args, "--queue-limit", 64)?;
        let retry_after = numeric_arg(args, "--retry-after", 4096)?;
        if socket.is_some() && trace_out.is_some() {
            return Err("--trace-out is pipe-mode only (one trace per stream)".to_string());
        }
        Ok((
            socket,
            cache_dir,
            trace_out,
            workers,
            queue_limit,
            retry_after,
        ))
    })();
    let (socket, cache_dir, trace_out, workers, queue_limit, retry_after) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let handler = match cache_dir {
        Some(dir) => {
            let (handler, sweep) = PipetteHandler::with_cache_dir(&dir);
            eprintln!(
                "serve: cache sweep of {dir}: {} scanned, {} quarantined",
                sweep.scanned, sweep.quarantined
            );
            handler
        }
        None => PipetteHandler::new(),
    };
    let config = ServerConfig {
        workers: workers as usize,
        queue_limit: queue_limit as usize,
        retry_after_units: retry_after,
        ..ServerConfig::default()
    };
    let drained = |summary: &pipette_serve::ServeSummary| {
        eprintln!(
            "serve: drained {} requests ({} completed, {} shed, {} errors, {} degraded, {} breaker trips, shutdown={})",
            summary.admitted,
            summary.completed,
            summary.shed,
            summary.errors,
            summary.degraded_requests,
            summary.breaker_trips,
            summary.shutdown
        );
    };
    let result = match socket {
        Some(path) => run_unix(&handler, config, std::path::Path::new(&path)).map(|summaries| {
            for summary in &summaries {
                drained(summary);
            }
        }),
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            run_pipe(&handler, config, stdin.lock(), &mut stdout).and_then(|summary| {
                drained(&summary);
                if let Some(path) = trace_out {
                    summary.trace.write_jsonl(std::path::Path::new(&path))?;
                }
                Ok(())
            })
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(spec: &JobSpec, json: bool) -> Result<(), Box<dyn std::error::Error>> {
    let rows = run_compare(spec)?;
    if json {
        let doc: JsonValue = rows
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("method", r.method.as_str().into()),
                    ("config", r.config.as_str().into()),
                    ("seconds", r.seconds.into()),
                    ("launches", r.launches.into()),
                ])
            })
            .collect();
        println!("{}", json::render_pretty(&doc));
        return Ok(());
    }
    println!(
        "{:<14} {:>28} {:>12} {:>9}",
        "method", "config", "iter time", "launches"
    );
    for r in &rows {
        println!(
            "{:<14} {:>28} {:>10.3} s {:>9}",
            r.method, r.config, r.seconds, r.launches
        );
    }
    Ok(())
}
