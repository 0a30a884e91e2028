//! End-to-end tests of the `pipette serve` loop with the real
//! configurator handler: byte-determinism at any worker count, deadline
//! expiry with best-so-far results, deterministic load-shedding, and the
//! circuit breaker's trip/degrade/recover cycle.

use pipette_cli::{cli_report_json, run_configure, run_drill_serve, JobSpec, PipetteHandler};
use pipette_obs::json::{self as jsonscan, JsonValue};
use pipette_serve::{
    run_pipe, BreakerConfig, ExecContext, ParseOutcome, RequestHandler, ServerConfig,
};

/// A deliberately small job so each configure request stays fast.
const JOB: &str = r#"{"cluster":{"preset":"mid-range","nodes":1,"seed":5},"model":{"layers":6,"hidden":512,"heads":8},"global_batch":32,"max_micro":2,"worker_dedication":true,"sa_iterations":300,"memory_training_iterations":150,"seed":3}"#;

fn configure_line(id: &str, extra: &str) -> String {
    format!("{{\"id\":\"{id}\",\"op\":\"configure\",\"job\":{JOB}{extra}}}")
}

fn run_server(input: &str, config: ServerConfig) -> (Vec<String>, pipette_serve::ServeSummary) {
    let handler = PipetteHandler::new();
    let mut out: Vec<u8> = Vec::new();
    let summary = run_pipe(&handler, config, input.as_bytes(), &mut out).expect("serve loop runs");
    let lines = String::from_utf8(out)
        .expect("responses are UTF-8")
        .lines()
        .map(str::to_owned)
        .collect();
    (lines, summary)
}

fn get<'a>(doc: &'a JsonValue, key: &str) -> &'a JsonValue {
    doc.get(key)
        .unwrap_or_else(|| panic!("response missing {key:?}: {doc:?}"))
}

fn number(doc: &JsonValue, key: &str) -> f64 {
    match get(doc, key) {
        JsonValue::Number(n) => *n,
        other => panic!("{key} is not a number: {other:?}"),
    }
}

#[test]
fn identical_requests_are_byte_identical_at_any_worker_count() {
    let line = configure_line("req", ",\"trace\":true");
    let input = format!("{line}\n{line}\n{line}\n{{\"op\":\"shutdown\"}}\n");

    let mut streams = Vec::new();
    for workers in [1, 2, 8] {
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let (lines, summary) = run_server(&input, config);
        assert_eq!(lines.len(), 3, "three responses at workers={workers}");
        assert_eq!(summary.admitted, 3);
        assert_eq!(summary.completed, 3);
        assert!(summary.shutdown, "shutdown drains cleanly");
        streams.push(lines);
    }
    assert_eq!(
        streams[0], streams[1],
        "workers=1 and workers=2 streams differ"
    );
    assert_eq!(
        streams[0], streams[2],
        "workers=1 and workers=8 streams differ"
    );

    // The N responses are byte-identical to *each other* once the
    // per-request sequence number is masked (it is the only field that
    // distinguishes identical requests).
    let masked: Vec<String> = streams[0]
        .iter()
        .enumerate()
        .map(|(i, l)| l.replacen(&format!("\"seq\":{i},"), "\"seq\":N,", 1))
        .collect();
    assert_eq!(masked[0], masked[1]);
    assert_eq!(masked[0], masked[2]);

    // ... and identical to a one-shot execution of the same request
    // through the handler directly (no server loop at all).
    let handler = PipetteHandler::new();
    let ParseOutcome::Job { job, .. } = handler.parse(&line) else {
        panic!("request line must parse as a job");
    };
    let one_shot = handler.execute(
        job,
        &ExecContext {
            seq: 0,
            degraded: false,
        },
    );
    assert_eq!(one_shot.response, streams[0][0]);
    assert_eq!(one_shot.outcome, "ok");

    // Every response embeds a balanced per-request trace with the same
    // spans a one-shot `--trace-out` run records.
    let doc = jsonscan::parse(&streams[0][0]).expect("response is valid JSON");
    let JsonValue::Array(trace_lines) = get(&doc, "trace") else {
        panic!("trace must be an array of JSONL lines");
    };
    let jsonl: Vec<String> = trace_lines
        .iter()
        .map(|l| match l {
            JsonValue::String(s) => s.clone(),
            other => panic!("trace line is not a string: {other:?}"),
        })
        .collect();
    let joined = jsonl.join("\n");
    let tree = pipette_obs::analysis::span_tree_from_jsonl(&joined)
        .expect("embedded trace parses as a balanced span tree");
    for span in [
        "profile",
        "mem_train",
        "mem_screen",
        "estimates",
        "finalize",
    ] {
        assert!(
            tree.rollups().iter().any(|r| r.name == span),
            "per-request trace missing span {span:?} in:\n{joined}"
        );
    }
    // The estimator arrived pretrained from the shared cache, so the
    // trace says so — this is what makes the first and the N-th request
    // byte-identical.
    assert!(
        joined.contains("\"cached\":true"),
        "mem_train must record the pre-trained estimator"
    );
}

#[test]
fn shared_clusters_and_profiles_answer_like_a_fresh_handler() {
    // Two clusters that differ only in their cluster seed (one spelled
    // with a preset alias) x two run seeds, interleaved and repeated, so
    // requests reuse each other's stored cluster and profiles in every
    // order.
    const MID_RANGE: &str = r#""preset":"mid-range","nodes":1,"seed":5"#;
    let clusters = [MID_RANGE, r#""preset":"mid_range","nodes":1,"seed":6"#];
    let job = |k: usize| {
        let seed = 3 + k / 2;
        JOB.replacen(MID_RANGE, clusters[k % 2], 1).replacen(
            r#""seed":3}"#,
            &format!(r#""seed":{seed}}}"#),
            1,
        )
    };
    let mut lines = Vec::new();
    for (round, order) in [[0, 1, 2, 3], [3, 1, 0, 2], [2, 0, 3, 1]]
        .iter()
        .enumerate()
    {
        let trace = if round == 1 { r#","trace":true"# } else { "" };
        for &k in order {
            lines.push(format!(
                r#"{{"id":"r{k}","op":"configure","job":{}{trace}}}"#,
                job(k)
            ));
        }
    }
    let input = format!("{}\n{{\"op\":\"shutdown\"}}\n", lines.join("\n"));

    let fresh: Vec<String> = lines
        .iter()
        .enumerate()
        .map(|(seq, line)| {
            let handler = PipetteHandler::new();
            let ParseOutcome::Job { job, .. } = handler.parse(line) else {
                panic!("request line must parse as a job: {line}");
            };
            let ctx = ExecContext {
                seq: seq as u64,
                degraded: false,
            };
            let executed = handler.execute(job, &ctx);
            assert_eq!(executed.outcome, "ok", "{}", executed.response);
            executed.response
        })
        .collect();
    for workers in [1, 4] {
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let (served, summary) = run_server(&input, config);
        assert_eq!(summary.completed, lines.len() as u64);
        assert_eq!(served, fresh, "workers={workers}");
    }
}

#[test]
fn deadline_truncates_to_best_so_far_and_expires_typed() {
    // First learn the candidate-space size from an unbounded run...
    let free = configure_line("free", "");
    let input = format!("{free}\n{{\"op\":\"shutdown\"}}\n");
    let (lines, _) = run_server(&input, ServerConfig::default());
    let doc = jsonscan::parse(&lines[0]).expect("valid JSON");
    assert_eq!(get(&doc, "status"), &JsonValue::String("ok".into()));
    let result = get(&doc, "result");
    let examined = number(result, "examined") as u64;
    let rejected = number(result, "memory_rejected") as u64;
    let accepted = examined - rejected;
    assert!(examined > 0 && accepted > 0);

    // ... then grant a budget that survives screening and estimation but
    // covers only half of the first SA pass: the run must finish with a
    // best-so-far recommendation and `truncated = true`.
    let budget = examined + accepted + 150;
    let truncating = configure_line("tight", &format!(",\"deadline_units\":{budget}"));
    let input = format!("{truncating}\n{{\"op\":\"shutdown\"}}\n");
    let (lines, _) = run_server(&input, ServerConfig::default());
    let doc = jsonscan::parse(&lines[0]).expect("valid JSON");
    assert_eq!(
        get(&doc, "status"),
        &JsonValue::String("deadline".into()),
        "truncated run reports a deadline status: {}",
        lines[0]
    );
    let result = get(&doc, "result");
    assert!(
        matches!(result, JsonValue::Object(_)),
        "truncated run still carries a best-so-far result"
    );
    assert!(number(result, "pp") >= 1.0);
    let deadline = get(&doc, "deadline");
    assert_eq!(number(deadline, "budget_units") as u64, budget);
    assert_eq!(get(&deadline.clone(), "truncated"), &JsonValue::Bool(true));
    assert!(number(deadline, "spent_units") <= budget as f64);

    // A budget too small to even finish screening is the one hard case:
    // a typed deadline response with a null result, never a panic.
    let hopeless = configure_line("none", ",\"deadline_units\":1");
    let input = format!("{hopeless}\n{{\"op\":\"shutdown\"}}\n");
    let (lines, summary) = run_server(&input, ServerConfig::default());
    let doc = jsonscan::parse(&lines[0]).expect("valid JSON");
    assert_eq!(get(&doc, "status"), &JsonValue::String("deadline".into()));
    assert_eq!(get(&doc, "result"), &JsonValue::Null);
    assert_eq!(
        get(&doc, "deadline").get("truncated"),
        Some(&JsonValue::Bool(true))
    );
    assert_eq!(summary.completed, 1, "expiry still commits a response");
}

#[test]
fn overload_sheds_deterministically_with_typed_rejections() {
    // Low-level API: admit a burst before any worker runs, so the queue
    // depth at each admission is exact.
    let handler = PipetteHandler::new();
    let config = ServerConfig {
        workers: 1,
        queue_limit: 1,
        ..ServerConfig::default()
    };
    let server = pipette_serve::Server::new(config);
    for id in ["a", "b", "c"] {
        assert!(server.admit(&handler, &configure_line(id, "")));
    }
    server.finish_input();
    server.worker_loop(&handler);
    let mut out: Vec<u8> = Vec::new();
    server.commit_loop(&mut out).expect("commit to a Vec");
    let summary = server.into_summary();
    let text = String::from_utf8(out).expect("UTF-8 responses");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    // Request 0 ran; 1 and 2 arrived at a full queue and got the typed
    // rejection, byte-for-byte.
    assert!(lines[0].contains("\"id\":\"a\"") && lines[0].contains("\"status\":\"ok\""));
    assert_eq!(
        lines[1],
        "{\"seq\":1,\"status\":\"overloaded\",\"queue_len\":1,\"limit\":1,\"retry_after_units\":4096}"
    );
    assert_eq!(
        lines[2],
        "{\"seq\":2,\"status\":\"overloaded\",\"queue_len\":1,\"limit\":1,\"retry_after_units\":4096}"
    );
    assert_eq!(summary.shed, 2);
    assert_eq!(summary.completed, 3);
}

#[test]
fn breaker_trips_serves_degraded_and_recovers() {
    // sample_loss_rate 1.0 destroys the profiling corpus: the drill is
    // forced onto the analytic memory model, which the handler reports
    // as an estimator failure.
    let faults = r#"{"seed":1,"sample_loss_rate":1.0}"#;
    let trip = format!("{{\"id\":\"trip\",\"op\":\"drill\",\"job\":{JOB},\"faults\":{faults}}}");
    let input = format!(
        "{trip}\n{}\n{}\n{}\n{{\"op\":\"shutdown\"}}\n",
        configure_line("deg", ""),
        configure_line("probe", ""),
        configure_line("ok", "")
    );
    let config = ServerConfig {
        workers: 1,
        breaker: BreakerConfig {
            failure_threshold: 1,
            cooldown_requests: 1,
            halfopen_successes: 1,
        },
        ..ServerConfig::default()
    };
    let (lines, summary) = run_server(&input, config);
    assert_eq!(lines.len(), 4);

    let trip_doc = jsonscan::parse(&lines[0]).expect("valid JSON");
    assert_eq!(get(&trip_doc, "status"), &JsonValue::String("ok".into()));
    assert_eq!(
        get(&trip_doc, "result").get("analytic_memory_fallback"),
        Some(&JsonValue::Bool(true)),
        "total sample loss must force the analytic fallback"
    );

    // The failure tripped the breaker: the next request is served in
    // degraded (analytic) mode without touching the estimator...
    let deg = jsonscan::parse(&lines[1]).expect("valid JSON");
    assert_eq!(get(&deg, "degraded"), &JsonValue::Bool(true));
    assert_eq!(get(&deg, "status"), &JsonValue::String("ok".into()));
    assert!(
        matches!(get(&deg, "result"), JsonValue::Object(_)),
        "degraded mode still answers with a real recommendation"
    );

    // ... which exhausts the cooldown; the half-open probe runs the full
    // path, succeeds, and closes the breaker again.
    let probe = jsonscan::parse(&lines[2]).expect("valid JSON");
    assert_eq!(get(&probe, "degraded"), &JsonValue::Bool(false));
    let ok = jsonscan::parse(&lines[3]).expect("valid JSON");
    assert_eq!(get(&ok, "degraded"), &JsonValue::Bool(false));
    assert_eq!(get(&ok, "status"), &JsonValue::String("ok".into()));

    assert_eq!(summary.breaker_trips, 1);
    assert_eq!(summary.degraded_requests, 1);

    // A degraded response and a healthy one really differ (analytic
    // screening is more conservative than the learned estimator — at
    // minimum the responses must not be byte-identical).
    assert_ne!(
        lines[1].replacen("\"id\":\"deg\",\"seq\":1,", "", 1),
        lines[3].replacen("\"id\":\"ok\",\"seq\":3,", "", 1)
    );
}

#[test]
fn drill_serve_replays_the_drift_timeline() {
    let faults = r#"{"seed":2,"drift":{"day":1,"daily_sigma":0.05},"sample_loss_rate":1.0}"#;
    let (lines, summary) = run_drill_serve(JOB, faults).expect("replay runs");
    assert_eq!(lines.len(), 2, "one response per drift day 0..=1");
    for (day, line) in lines.iter().enumerate() {
        let doc = jsonscan::parse(line).expect("valid JSON");
        assert_eq!(
            get(&doc, "id"),
            &JsonValue::String(format!("day-{day}")),
            "responses commit in timeline order"
        );
        assert_eq!(get(&doc, "op"), &JsonValue::String("drill".into()));
        assert_eq!(get(&doc, "status"), &JsonValue::String("ok".into()));
    }
    assert_eq!(summary.admitted, 2);
    assert!(summary.shutdown);
    // Day 0 and day 1 see different drifted bandwidth matrices, so their
    // reports may differ — but both days' fault handling is identical,
    // and with total sample loss both fall back to analytic screening.
    let day0 = jsonscan::parse(&lines[0]).expect("valid JSON");
    assert_eq!(
        get(&day0, "result").get("analytic_memory_fallback"),
        Some(&JsonValue::Bool(true))
    );
}

#[test]
fn deeply_nested_request_gets_a_typed_error_and_the_stream_continues() {
    // 100,000 levels would overflow the stack of a parser without a depth
    // limit and abort the daemon before it wrote a response.
    let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
    let input = format!(
        "{deep}\n{}\n{{\"op\":\"shutdown\"}}\n",
        configure_line("after", "")
    );
    let (lines, summary) = run_server(&input, ServerConfig::default());
    assert_eq!(lines.len(), 2);
    let err = jsonscan::parse(&lines[0]).expect("valid JSON");
    assert_eq!(get(&err, "status"), &JsonValue::String("error".into()));
    let JsonValue::String(message) = get(&err, "message") else {
        panic!("error message is a string: {}", lines[0]);
    };
    assert!(
        message.starts_with("invalid JSON: nesting too deep"),
        "{message}"
    );
    let ok = jsonscan::parse(&lines[1]).expect("valid JSON");
    assert_eq!(get(&ok, "id"), &JsonValue::String("after".into()));
    assert_eq!(get(&ok, "status"), &JsonValue::String("ok".into()));
    assert!(summary.shutdown);
}

#[test]
fn escaped_surrogate_pairs_decode_and_lone_surrogates_are_errors() {
    // Python's `json.dumps` spells the id "run-😀" with an escaped
    // UTF-16 surrogate pair; the response echoes the decoded character.
    let input = format!(
        "{}\n{}\n{{\"op\":\"shutdown\"}}\n",
        configure_line("run-\\ud83d\\ude00", ""),
        configure_line("lone-\\ud800", "")
    );
    let (lines, _) = run_server(&input, ServerConfig::default());
    assert_eq!(lines.len(), 2);
    assert!(
        lines[0].starts_with("{\"id\":\"run-😀\",\"seq\":0,\"status\":\"ok\""),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].starts_with("{\"seq\":1,\"status\":\"error\",\"message\":\"invalid JSON: invalid \\\\u escape at byte"),
        "{}",
        lines[1]
    );
}

#[test]
fn serve_and_the_one_shot_cli_agree_at_the_edge_of_exact_integers() {
    let with_cluster_seed = |seed: &str| JOB.replacen("\"seed\":5", &format!("\"seed\":{seed}"), 1);
    let serve_one = |job: &str| {
        let input = format!("{{\"op\":\"configure\",\"job\":{job}}}\n{{\"op\":\"shutdown\"}}\n");
        let (lines, _) = run_server(&input, ServerConfig::default());
        assert_eq!(lines.len(), 1);
        jsonscan::parse(&lines[0]).expect("valid JSON")
    };

    // 2^53 is exact in an f64: both paths run the same job.
    let exact = with_cluster_seed("9007199254740992");
    let spec = JobSpec::parse_strict(&exact).expect("2^53 is a valid seed");
    assert_eq!(spec.cluster.seed, 1 << 53);
    let one_shot = cli_report_json(&run_configure(&spec).expect("feasible job"));
    let served = serve_one(&exact);
    assert_eq!(get(&served, "status"), &JsonValue::String("ok".into()));
    assert_eq!(jsonscan::render_value(get(&served, "result")), one_shot);

    // 2^53 + 1 is not: both paths reject it with one message naming the
    // field, instead of running the job for seed 2^53.
    let above = with_cluster_seed("9007199254740993");
    let err = JobSpec::parse_strict(&above).expect_err("2^53 + 1 is rejected");
    assert!(err.to_string().contains("cluster.seed"), "{err}");
    let served = serve_one(&above);
    assert_eq!(get(&served, "status"), &JsonValue::String("error".into()));
    assert_eq!(
        get(&served, "message"),
        &JsonValue::String(format!("job: {err}"))
    );
}
