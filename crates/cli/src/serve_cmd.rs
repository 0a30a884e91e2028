//! The `pipette serve` request handler: plugs the full configurator into
//! the hardened `pipette-serve` loop.
//!
//! One [`PipetteHandler`] multiplexes every request over two shared,
//! amortized resources:
//!
//! - a [`TrainedEstimatorCache`]: estimators are pre-trained *outside*
//!   the per-request run (keyed by training-input fingerprint) and
//!   attached pretrained, so the first and the thousandth identical
//!   request produce byte-identical responses — neither charges
//!   training against its deadline budget, and both record
//!   `mem_train … cached=true`;
//! - a cluster store, keyed exactly by what building a cluster depends
//!   on (canonical preset, node count, cluster seed): each distinct
//!   cluster is realized once and shared as an `Arc<Cluster>`, and its
//!   `gpus·(gpus−1)`-pair profiling sweep runs once per run seed and is
//!   shared as an `Arc<ProfiledBandwidth>` attached via `with_profiled`
//!   — no request rebuilds a cluster or copies a profile. A synthetic
//!   `profile` span (with the full pair cost) keeps each per-request
//!   trace shaped like a one-shot run's.
//!
//! Degradation: when the serve loop's circuit breaker is open, requests
//! arrive with `ctx.degraded = true` and `configure` ops are forced onto
//! the analytic memory model (`with_analytic_memory`) — no estimator
//! work at all. `drill` ops carry their own fault-driven fallback; their
//! `analytic_memory_fallback` outcome is what feeds the breaker.
//!
//! Every response is one line of deterministic JSON (fixed field order,
//! shortest-round-trip floats): identical request lines yield
//! byte-identical responses at any worker count.

use crate::report::{self, cli_report_json, drill_report_json, CliReport};
use crate::spec::{parse_document, ClusterKey, JobSpec, SpecError};
use pipette::memory::{SweepReport, TrainedEstimatorCache};
use pipette::{ConfigureError, DeadlineReport, Pipette};
use pipette_cluster::{Cluster, FaultPlan, ProfiledBandwidth, ProfilingCost};
use pipette_obs::json::{self, push_json_string, render_value, JsonValue, Obj};
use pipette_obs::{CostUnit, Trace, TraceConfig};
use pipette_serve::{
    run_pipe, Control, ExecContext, Execution, ParseOutcome, RequestHandler, ServeSummary,
    ServerConfig,
};
use pipette_sim::ClusterRun;
use std::collections::BTreeMap;
use std::error::Error;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Which operation a request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Configure,
    Drill,
}

/// A parsed serve request, ready for a worker thread.
#[derive(Debug)]
pub struct ServeJob {
    id: Option<String>,
    kind: OpKind,
    spec: JobSpec,
    faults: Option<FaultPlan>,
    deadline_units: Option<u64>,
    want_trace: bool,
}

/// One realized cluster and its profiles.
struct StoredCluster {
    cluster: Arc<Cluster>,
    /// Keyed by run seed, which seeds the profiler's noise.
    profiles: BTreeMap<u64, (Arc<ProfiledBandwidth>, ProfilingCost)>,
}

/// Every cluster the handler has realized, under one lock. Building and
/// profiling are pure functions of the key and run seed, so each runs
/// outside the lock and racing workers keep whichever insert lands
/// first: all of them then share that one instance.
#[derive(Default)]
struct ClusterStore(Mutex<BTreeMap<ClusterKey, StoredCluster>>);

impl ClusterStore {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<ClusterKey, StoredCluster>> {
        // A panicking worker cannot half-write the map (inserts are
        // single calls), so recovery is sound (rule D2).
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The job's cluster under its exact key, built on first use.
    fn cluster(&self, spec: &JobSpec) -> Result<(ClusterKey, Arc<Cluster>), SpecError> {
        let key = spec.cluster_key()?;
        if let Some(stored) = self.lock().get(&key) {
            return Ok((key, Arc::clone(&stored.cluster)));
        }
        let built = Arc::new(spec.build_cluster()?);
        let mut clusters = self.lock();
        let stored = clusters.entry(key).or_insert_with(|| StoredCluster {
            cluster: built,
            profiles: BTreeMap::new(),
        });
        Ok((key, Arc::clone(&stored.cluster)))
    }

    /// The profile at `seed` of `cluster`, which [`Self::cluster`]
    /// stored under `key`, measured on first use.
    fn profile(
        &self,
        key: ClusterKey,
        cluster: &Cluster,
        seed: u64,
    ) -> (Arc<ProfiledBandwidth>, ProfilingCost) {
        let found = self
            .lock()
            .get(&key)
            .and_then(|stored| stored.profiles.get(&seed).cloned());
        if let Some(found) = found {
            return found;
        }
        let (profiled, cost) = cluster.profiler().profile(cluster.bandwidth(), seed);
        let measured = (Arc::new(profiled), cost);
        match self.lock().get_mut(&key) {
            Some(stored) => stored.profiles.entry(seed).or_insert(measured).clone(),
            None => measured,
        }
    }
}

/// The configurator-backed [`RequestHandler`].
pub struct PipetteHandler {
    cache: TrainedEstimatorCache,
    clusters: ClusterStore,
}

impl PipetteHandler {
    /// A handler with a purely in-memory estimator cache.
    pub fn new() -> Self {
        Self {
            cache: TrainedEstimatorCache::in_memory(),
            clusters: ClusterStore::default(),
        }
    }

    /// A handler persisting trained estimators under `dir`. Startup is
    /// crash-only: the directory is swept eagerly — defective entries
    /// quarantined — before the first request is admitted.
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> (Self, SweepReport) {
        let cache = TrainedEstimatorCache::with_dir(dir);
        let sweep = cache.sweep();
        (
            Self {
                cache,
                clusters: ClusterStore::default(),
            },
            sweep,
        )
    }

    /// Lookup counters of the shared estimator cache.
    pub fn cache_counters(&self) -> pipette::memory::CacheCounters {
        self.cache.counters()
    }

    fn run_configure(&self, job: &ServeJob, ctx: &ExecContext) -> Execution {
        let (key, cluster) = match self.clusters.cluster(&job.spec) {
            Ok(found) => found,
            Err(e) => return exec_error(job, ctx, &format!("cluster: {e}")),
        };
        let gpt = match job.spec.build_model() {
            Ok(m) => m,
            Err(e) => return exec_error(job, ctx, &format!("model: {e}")),
        };
        let (profiled, cost) = self.clusters.profile(key, &cluster, job.spec.seed);
        let mut trace = Trace::new(TraceConfig::default());
        // The shared sweep already paid the gpus·(gpus−1) pair cost once;
        // a synthetic span keeps this request's trace shaped (and
        // budgeted) like a one-shot run that profiled inline.
        let gpus = cluster.topology().num_gpus() as u64;
        let pairs = gpus * gpus.saturating_sub(1);
        let span = trace.open_span("profile");
        trace.close_span(span, CostUnit::Pairs, pairs);

        let options = report::options_for(&job.spec);
        let memory_config = options.memory;
        let threads = options.threads;
        let mut pipette = Pipette::new(&cluster, &gpt, job.spec.global_batch, options)
            .with_profiled(profiled, cost);
        if ctx.degraded {
            pipette = pipette.with_analytic_memory();
        } else {
            let (sample_spec, truth) = pipette.profiling_spec();
            let estimator =
                self.cache
                    .get_or_train(&sample_spec, &gpt, &memory_config, &truth, threads);
            pipette = pipette.with_memory_estimator(estimator);
        }
        if let Some(budget) = job.deadline_units {
            pipette = pipette.with_deadline_units(budget);
        }
        match pipette.run_traced(&mut trace) {
            Ok(rec) => {
                let runner = ClusterRun::new(&cluster, &gpt);
                let measured = match runner.execute(rec.config, &rec.mapping, rec.plan) {
                    Ok(m) => m,
                    Err(e) => return exec_error(job, ctx, &format!("verification: {e}")),
                };
                let result = CliReport::new(&rec, &measured);
                let truncated = rec.deadline.as_ref().is_some_and(|d| d.truncated);
                let status = if truncated { "deadline" } else { "ok" };
                let response = respond(
                    job,
                    ctx,
                    status,
                    Some(&cli_report_json(&result)),
                    rec.deadline.as_ref(),
                    None,
                    Some(&trace),
                );
                Execution {
                    response,
                    outcome: status.to_string(),
                    estimator_failure: false,
                    degraded: ctx.degraded,
                }
            }
            Err(ConfigureError::DeadlineExpired {
                budget_units,
                spent_units,
            }) => {
                let deadline = DeadlineReport {
                    budget_units,
                    spent_units,
                    truncated: true,
                };
                let response = respond(job, ctx, "deadline", None, Some(&deadline), None, None);
                Execution {
                    response,
                    outcome: "deadline".to_string(),
                    estimator_failure: false,
                    degraded: ctx.degraded,
                }
            }
            Err(e) => exec_error(job, ctx, &format!("configure: {e}")),
        }
    }

    fn run_drill(&self, job: &ServeJob, ctx: &ExecContext) -> Execution {
        let Some(plan) = job.faults.as_ref() else {
            return exec_error(job, ctx, "drill request lost its fault plan");
        };
        let mut trace = Trace::new(TraceConfig::default());
        match report::run_drill_traced(&job.spec, plan, Some(&mut trace)) {
            Ok((drill, _outcome)) => {
                let estimator_failure = drill.analytic_memory_fallback;
                let response = respond(
                    job,
                    ctx,
                    "ok",
                    Some(&drill_report_json(&drill)),
                    None,
                    None,
                    Some(&trace),
                );
                Execution {
                    response,
                    outcome: "ok".to_string(),
                    estimator_failure,
                    degraded: ctx.degraded,
                }
            }
            Err(e) => exec_error(job, ctx, &format!("drill: {e}")),
        }
    }
}

impl Default for PipetteHandler {
    fn default() -> Self {
        Self::new()
    }
}

/// Renders one response line with the fixed serve field order:
/// `id? seq status op degraded result deadline? message? trace?`.
#[allow(clippy::too_many_arguments)]
fn respond(
    job: &ServeJob,
    ctx: &ExecContext,
    status: &str,
    result: Option<&str>,
    deadline: Option<&DeadlineReport>,
    message: Option<&str>,
    trace: Option<&Trace>,
) -> String {
    let op = match job.kind {
        OpKind::Configure => "configure",
        OpKind::Drill => "drill",
    };
    let mut out = String::new();
    let mut o = Obj::open(&mut out);
    if let Some(id) = &job.id {
        o.string("id", id);
    }
    o.uint("seq", ctx.seq);
    o.string("status", status);
    o.string("op", op);
    o.boolean("degraded", ctx.degraded);
    match result {
        Some(r) => o.raw("result", r),
        None => o.raw("result", "null"),
    }
    if let Some(d) = deadline {
        let mut dj = String::new();
        let mut dobj = Obj::open(&mut dj);
        dobj.uint("budget_units", d.budget_units);
        dobj.uint("spent_units", d.spent_units);
        dobj.boolean("truncated", d.truncated);
        dobj.close();
        o.raw("deadline", &dj);
    }
    if let Some(m) = message {
        o.string("message", m);
    }
    if let Some(t) = trace.filter(|_| job.want_trace) {
        let mut arr = String::from("[");
        for (i, line) in t.to_jsonl_stripped().lines().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            push_json_string(&mut arr, line);
        }
        arr.push(']');
        o.raw("trace", &arr);
    }
    o.close();
    out
}

fn exec_error(job: &ServeJob, ctx: &ExecContext, message: &str) -> Execution {
    Execution {
        response: respond(job, ctx, "error", None, None, Some(message), None),
        outcome: "error".to_string(),
        estimator_failure: false,
        degraded: ctx.degraded,
    }
}

const ENVELOPE_FIELDS: [&str; 6] = ["id", "op", "job", "faults", "deadline_units", "trace"];

impl RequestHandler for PipetteHandler {
    type Job = ServeJob;

    fn parse(&self, line: &str) -> ParseOutcome<ServeJob> {
        let doc = match json::parse(line) {
            Ok(d) => d,
            Err(e) => return ParseOutcome::Error(format!("invalid JSON: {e}")),
        };
        if !matches!(doc, JsonValue::Object(_)) {
            return ParseOutcome::Error(format!(
                "request must be a JSON object, got {}",
                doc.type_name()
            ));
        }
        if let Some(key) = json::first_unknown_key(&doc, &ENVELOPE_FIELDS) {
            return ParseOutcome::Error(format!(
                "unknown field {key:?} (allowed: {})",
                ENVELOPE_FIELDS.join(", ")
            ));
        }
        let op = match doc.get("op") {
            Some(JsonValue::String(s)) => s.clone(),
            Some(v) => {
                return ParseOutcome::Error(format!(
                    "\"op\" must be a string, got {}",
                    v.type_name()
                ))
            }
            None => return ParseOutcome::Error("missing required field \"op\"".to_string()),
        };
        if op == "shutdown" {
            return ParseOutcome::Control(Control::Shutdown);
        }
        let kind = match op.as_str() {
            "configure" => OpKind::Configure,
            "drill" => OpKind::Drill,
            other => {
                return ParseOutcome::Error(format!(
                    "unknown op {other:?} (expected \"configure\", \"drill\", or \"shutdown\")"
                ))
            }
        };
        let id = match doc.get("id") {
            None => None,
            Some(JsonValue::String(s)) => Some(s.clone()),
            Some(v) => {
                return ParseOutcome::Error(format!(
                    "\"id\" must be a string, got {}",
                    v.type_name()
                ))
            }
        };
        let Some(job_doc) = doc.get("job") else {
            return ParseOutcome::Error(format!("op {op:?} requires a \"job\" spec"));
        };
        let spec = match JobSpec::from_json(job_doc) {
            Ok(s) => s,
            Err(e) => return ParseOutcome::Error(format!("job: {e}")),
        };
        let faults = match (kind, doc.get("faults")) {
            (OpKind::Drill, Some(f)) => match FaultPlan::from_json(f).map_err(SpecError::from) {
                Ok(p) => Some(p),
                Err(e) => return ParseOutcome::Error(format!("faults: {e}")),
            },
            (OpKind::Drill, None) => {
                return ParseOutcome::Error("op \"drill\" requires a \"faults\" plan".to_string())
            }
            (OpKind::Configure, Some(_)) => {
                return ParseOutcome::Error(
                    "op \"configure\" takes no \"faults\" (use op \"drill\")".to_string(),
                )
            }
            (OpKind::Configure, None) => None,
        };
        let deadline_units = match doc.get("deadline_units") {
            None => None,
            Some(JsonValue::Number(n)) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            Some(_) => {
                return ParseOutcome::Error(
                    "\"deadline_units\" must be a non-negative integer".to_string(),
                )
            }
        };
        let want_trace = match doc.get("trace") {
            None => false,
            Some(JsonValue::Bool(b)) => *b,
            Some(v) => {
                return ParseOutcome::Error(format!(
                    "\"trace\" must be a boolean, got {}",
                    v.type_name()
                ))
            }
        };
        ParseOutcome::Job {
            op,
            job: ServeJob {
                id,
                kind,
                spec,
                faults,
                deadline_units,
                want_trace,
            },
        }
    }

    fn execute(&self, job: ServeJob, ctx: &ExecContext) -> Execution {
        match job.kind {
            OpKind::Configure => self.run_configure(&job, ctx),
            OpKind::Drill => self.run_drill(&job, ctx),
        }
    }

    fn overloaded_response(
        &self,
        seq: u64,
        queue_len: u64,
        limit: u64,
        retry_after_units: u64,
    ) -> String {
        let mut out = String::new();
        let mut o = Obj::open(&mut out);
        o.uint("seq", seq);
        o.string("status", "overloaded");
        o.uint("queue_len", queue_len);
        o.uint("limit", limit);
        o.uint("retry_after_units", retry_after_units);
        o.close();
        out
    }

    fn error_response(&self, seq: u64, message: &str) -> String {
        let mut out = String::new();
        let mut o = Obj::open(&mut out);
        o.uint("seq", seq);
        o.string("status", "error");
        o.string("message", message);
        o.close();
        out
    }
}

/// Copies a parsed fault plan document with `drift.day` set to `day`,
/// leaving everything else byte-identical when re-rendered.
fn with_drift_day(doc: &JsonValue, day: usize) -> JsonValue {
    let mut doc = doc.clone();
    if let JsonValue::Object(members) = &mut doc {
        for (_, drift) in members.iter_mut().filter(|(k, _)| k == "drift") {
            if let JsonValue::Object(fields) = drift {
                for (_, value) in fields.iter_mut().filter(|(k, _)| k == "day") {
                    *value = JsonValue::Number(day as f64);
                }
            }
        }
    }
    doc
}

/// `pipette drill --serve`: replays the fault plan's drift timeline
/// against a live in-process server — one `drill` request per day from 0
/// through `drift.day` (a single request when the plan has no drift
/// episode), then a clean shutdown. Returns the raw response lines plus
/// the server's drain summary; `degraded` in the summary counts the
/// requests the circuit breaker forced into analytic mode.
///
/// # Errors
///
/// Spec or fault-plan validation errors, or an I/O failure inside the
/// serve loop.
pub fn run_drill_serve(
    spec_text: &str,
    fault_text: &str,
) -> Result<(Vec<String>, ServeSummary), Box<dyn Error>> {
    // Validate up front so a bad file is one clean error, not a typed
    // per-request failure for every day of the timeline.
    let job_doc = parse_document(spec_text)?;
    JobSpec::from_json(&job_doc)?;
    let fault_doc = parse_document(fault_text)?;
    let plan = FaultPlan::from_json(&fault_doc).map_err(SpecError::from)?;
    let job_json = render_value(&job_doc);

    let days = plan.drift.as_ref().map_or(0, |d| d.day);
    let mut input = String::new();
    for day in 0..=days {
        let faults_json = if plan.drift.is_some() {
            render_value(&with_drift_day(&fault_doc, day))
        } else {
            render_value(&fault_doc)
        };
        let mut line = String::new();
        let mut o = Obj::open(&mut line);
        o.string("id", &format!("day-{day}"));
        o.string("op", "drill");
        o.raw("job", &job_json);
        o.raw("faults", &faults_json);
        o.close();
        input.push_str(&line);
        input.push('\n');
    }
    input.push_str("{\"op\":\"shutdown\"}\n");

    let handler = PipetteHandler::new();
    // One worker: the replay is a timeline, not a load test, and a
    // single worker makes the breaker's request-counted transitions
    // exact along it.
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let mut out: Vec<u8> = Vec::new();
    let summary = run_pipe(&handler, config, input.as_bytes(), &mut out)?;
    let lines = String::from_utf8(out)
        .map_err(|e| format!("server emitted non-UTF-8 output: {e}"))?
        .lines()
        .map(str::to_owned)
        .collect();
    Ok((lines, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    const JOB: &str = r#"{"cluster": {"preset": "mid-range", "nodes": 2, "seed": 3},
        "model": {"layers": 8, "hidden": 1024, "heads": 16},
        "global_batch": 64, "max_micro": 2, "sa_iterations": 400,
        "memory_training_iterations": 200}"#;

    fn envelope(op: &str, extra: &str) -> String {
        let job = render_value(&json::parse(JOB).unwrap());
        format!("{{\"op\":\"{op}\",\"job\":{job}{extra}}}")
    }

    #[test]
    fn parse_accepts_the_envelope_and_rejects_typos() {
        let handler = PipetteHandler::new();
        match handler.parse(&envelope(
            "configure",
            ",\"deadline_units\":5000,\"trace\":true",
        )) {
            ParseOutcome::Job { op, job } => {
                assert_eq!(op, "configure");
                assert_eq!(job.deadline_units, Some(5000));
                assert!(job.want_trace);
                assert!(job.id.is_none());
            }
            other => panic!("expected job, got {other:?}"),
        }
        assert!(matches!(
            handler.parse("{\"op\":\"shutdown\"}"),
            ParseOutcome::Control(Control::Shutdown)
        ));
        for (bad, needle) in [
            ("{\"op\":\"configure\"}", "requires a \"job\""),
            ("{\"op\":\"resolve\"}", "unknown op"),
            ("{\"ops\":\"configure\"}", "unknown field"),
            ("not json", "invalid JSON"),
            ("[1]", "must be a JSON object"),
        ] {
            match handler.parse(bad) {
                ParseOutcome::Error(msg) => {
                    assert!(msg.contains(needle), "{bad}: {msg}");
                }
                other => panic!("expected error for {bad}, got {other:?}"),
            }
        }
        // A drill without faults, and a configure with them, are typed
        // errors — not silently reinterpreted.
        assert!(matches!(
            handler.parse(&envelope("drill", "")),
            ParseOutcome::Error(m) if m.contains("requires a \"faults\"")
        ));
        assert!(matches!(
            handler.parse(&envelope("configure", ",\"faults\":{\"seed\":1}")),
            ParseOutcome::Error(m) if m.contains("takes no \"faults\"")
        ));
    }

    #[test]
    fn profile_key_separates_clusters_and_seeds() {
        let handler = PipetteHandler::new();
        let ctx = ExecContext {
            seq: 0,
            degraded: false,
        };
        // One cluster under two aliases, asked with two run seeds.
        for (preset, seed) in [("high-end", 1), ("high_end", 2)] {
            let line = envelope("configure", "").replace("mid-range", preset);
            let ParseOutcome::Job { mut job, .. } = handler.parse(&line) else {
                panic!("{line} must parse");
            };
            job.spec.seed = seed;
            assert_eq!(job.spec.cluster_key().unwrap(), ("high-end", 2, 3));
            let executed = handler.execute(job, &ctx);
            assert_eq!(executed.outcome, "ok", "{}", executed.response);
        }
        let spec = |preset: &str, nodes: usize, cluster_seed: u64| {
            let mut spec = JobSpec::parse_strict(JOB).unwrap();
            spec.cluster.preset = preset.to_owned();
            spec.cluster.nodes = nodes;
            spec.cluster.seed = cluster_seed;
            spec
        };
        {
            let clusters = handler.clusters.lock();
            assert_eq!(clusters.len(), 1, "aliases share one entry");
            let stored = &clusters[&("high-end", 2, 3)];
            assert_eq!(stored.profiles.keys().copied().collect::<Vec<_>>(), [1, 2]);
            let (first, second) = (&stored.profiles[&1].0, &stored.profiles[&2].0);
            assert!(
                !Arc::ptr_eq(first, second),
                "each run seed has its own profile"
            );
            assert_ne!(
                first.matrix(),
                second.matrix(),
                "run seeds draw different noise"
            );
        }
        let (key, shared) = handler.clusters.cluster(&spec("highend", 2, 3)).unwrap();
        let (_, again) = handler.clusters.cluster(&spec("high-end", 2, 3)).unwrap();
        assert_eq!(key, ("high-end", 2, 3));
        assert!(Arc::ptr_eq(&shared, &again), "one Arc<Cluster> per key");
        let profile = handler.clusters.profile(key, &shared, 2);
        assert!(Arc::ptr_eq(
            &profile.0,
            &handler.clusters.lock()[&key].profiles[&2].0
        ));
        // Another cluster seed, node count or preset is another cluster.
        for (other, expected) in [
            (spec("high-end", 2, 4), ("high-end", 2, 4)),
            (spec("high-end", 3, 3), ("high-end", 3, 3)),
            (spec("mid-range", 2, 3), ("mid-range", 2, 3)),
        ] {
            let (key, cluster) = handler.clusters.cluster(&other).unwrap();
            assert_eq!(key, expected);
            assert!(!Arc::ptr_eq(&cluster, &shared));
        }
        assert_eq!(handler.clusters.lock().len(), 4);
        // An unknown preset is a typed error and stores nothing.
        assert_eq!(
            handler.clusters.cluster(&spec("quantum", 2, 3)).err(),
            Some(SpecError::UnknownCluster("quantum".to_owned()))
        );
        assert_eq!(handler.clusters.lock().len(), 4);
    }

    #[test]
    fn with_drift_day_rewrites_only_the_day() {
        let doc = json::parse(
            r#"{"seed": 9, "drift": {"day": 7, "daily_sigma": 0.05}, "sample_loss_rate": 0.5}"#,
        )
        .unwrap();
        let rewritten = with_drift_day(&doc, 3);
        assert_eq!(
            render_value(&rewritten),
            r#"{"seed":9,"drift":{"day":3,"daily_sigma":0.05},"sample_loss_rate":0.5}"#
        );
        // Day 7 stays byte-identical when rewritten to itself.
        assert_eq!(render_value(&with_drift_day(&doc, 7)), render_value(&doc));
    }
}
