//! `confbench`: end-to-end and per-layer benchmark of the Pipette
//! configurator.
//!
//! ```text
//! cargo run --release --manifest-path confbench/Cargo.toml -- \
//!     --workload <cold_configure|warm_serve|quick_estimate> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process runs one workload. It sets up (several times, reporting
//! the median), drives the configurator the way users do for about
//! `--seconds` seconds, checks every answer, and prints one JSON result
//! line last. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the same requests once untraced and once traced, then times each
//! layer's public functions on the workload's inputs and reports the
//! per-layer metrics.
//!
//! The process first pins itself to one CPU (see
//! [`stats::pin_to_one_cpu`]), so the configurator runs every layer on
//! one thread and the figures do not follow what else the host runs.
//! Latency quantiles are Harrell-Davis estimates
//! ([`stats::hd_quantile`]).

mod gen;
mod probe;
mod serve;
mod stats;

use gen::{cycle_order, Input, Workload};
use pipette::configurator::{Pipette, Recommendation};
use pipette::memory::TrainedEstimatorCache;
use pipette_cli::jsonscan::{self, JsonValue};
use pipette_cli::{cli_report_json, run_configure, CliReport, JobSpec, PipetteHandler};
use pipette_serve::{ExecContext, ParseOutcome, RequestHandler};
use probe::{ms, EstimatorSource, Layers, PHASES};
use serve::{closed_loop, result_fields, LoopRun, Stamped};
use stats::{hd_quantile, mean, median, ratio, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), with units, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("rec_iter_s", "s"),
    ("est_err_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("cluster.build_ms", "ms"),
    ("cluster.profile_ms", "ms"),
    ("sim.corpus_ms", "ms"),
    ("sim.execute_ms", "ms"),
    ("memory.train_ms", "ms"),
    ("memory.train_iters_per_s", "1/s"),
    ("memory.train_iters_per_request", "count"),
    ("memory.predictions_per_s", "1/s"),
    ("memory.cache_hit_ratio", "ratio"),
    ("memory.cache_lookup_ms", "ms"),
    ("latency.estimates_per_s", "1/s"),
    ("mapping.anneal_ms", "ms"),
    ("mapping.evals_per_s", "1/s"),
    ("mapping.evals_per_request", "count"),
    ("mapping.threads", "count"),
    ("mapping.accept_ratio", "ratio"),
    ("mapping.improvement", "ratio"),
    ("tempering.exchange_accept_ratio", "ratio"),
    ("configurator.phase_share.profile", "ratio"),
    ("configurator.phase_share.mem_train", "ratio"),
    ("configurator.phase_share.mem_screen", "ratio"),
    ("configurator.phase_share.estimates", "ratio"),
    ("configurator.phase_share.anneal", "ratio"),
    ("configurator.phase_share.finalize", "ratio"),
    ("configurator.unaccounted_share", "ratio"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p90", "ms"),
    ("serve.commit_wait_ms_p50", "ms"),
    ("serve.parse_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.requests", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("configurator.traced_calls", "count"),
];

/// Requests in flight in the serve workloads (closed loop).
const OUTSTANDING: usize = 2;
/// Setups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const GIB: f64 = (1u64 << 30) as f64;

const USAGE: &str =
    "usage: confbench --workload <cold_configure|warm_serve|quick_estimate> --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s >= 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Everything one run prints.
#[derive(Debug, Default)]
pub struct Report {
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Metrics,
}

/// One answer, reduced to what the checks and quality metrics need.
struct Answer {
    /// The bytes that must repeat for a repeated input.
    fields: String,
    measured_s: f64,
    estimated_s: f64,
    peak_gib: f64,
}

impl Answer {
    fn from_report(report: &CliReport) -> Self {
        Answer {
            fields: cli_report_json(report),
            measured_s: report.measured_seconds,
            estimated_s: report.estimated_seconds,
            peak_gib: report.peak_memory_gib,
        }
    }

    fn from_response(response: &str) -> Result<Self, String> {
        let doc = jsonscan::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
        match doc.get("status") {
            Some(JsonValue::String(s)) if s == "ok" => {}
            _ => return Err(format!("not ok: {response:.200}")),
        }
        let result = doc.get("result").ok_or("response without result")?;
        let num = |key: &str| match result.get(key) {
            Some(JsonValue::Number(n)) => Ok(*n),
            _ => Err(format!("result lacks {key}")),
        };
        Ok(Answer {
            fields: result_fields(response),
            measured_s: num("measured_seconds")?,
            estimated_s: num("estimated_seconds")?,
            peak_gib: num("peak_memory_gib")?,
        })
    }
}

/// The correctness checks: status ok, simulated peak memory within the
/// GPU (Fig. 5b), identical answers to identical inputs.
struct Answers {
    capacity_gib: Vec<f64>,
    first: Vec<Option<Answer>>,
    attempted: u64,
    failed: u64,
    digest: u64,
    errors: Vec<String>,
}

impl Answers {
    fn new(capacity_gib: Vec<f64>) -> Self {
        Answers {
            first: capacity_gib.iter().map(|_| None).collect(),
            capacity_gib,
            attempted: 0,
            failed: 0,
            digest: stats::FNV_BASIS,
            errors: Vec::new(),
        }
    }

    fn check(&mut self, input: usize, answer: Result<Answer, String>) -> bool {
        self.attempted += 1;
        let problem = match answer {
            Err(e) => Some(e),
            Ok(a) => {
                stats::fnv1a(&mut self.digest, &(input as u64).to_le_bytes());
                stats::fnv1a(&mut self.digest, a.fields.as_bytes());
                if a.peak_gib > self.capacity_gib[input] {
                    Some(format!(
                        "input {input}: peak {} GiB exceeds {} GiB",
                        a.peak_gib, self.capacity_gib[input]
                    ))
                } else {
                    match &self.first[input] {
                        Some(f) if f.fields != a.fields => Some(format!(
                            "input {input}: answer differs from an identical earlier input"
                        )),
                        Some(_) => None,
                        None => {
                            self.first[input] = Some(a);
                            None
                        }
                    }
                }
            }
        };
        match problem {
            Some(e) => {
                self.failed += 1;
                if self.errors.len() < 3 {
                    self.errors.push(e);
                }
                false
            }
            None => true,
        }
    }

    /// Adds another check's attempts and failures to this one's.
    fn count(&mut self, other: &Answers) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors.iter().take(3).cloned());
    }

    /// Mean simulated iteration time and mean |estimate − simulated| /
    /// simulated (%) of the first answer to each distinct input.
    fn quality(&self) -> (f64, f64) {
        let answers: Vec<&Answer> = self.first.iter().flatten().collect();
        let iter: Vec<f64> = answers.iter().map(|a| a.measured_s).collect();
        let err: Vec<f64> = answers
            .iter()
            .map(|a| 100.0 * (a.estimated_s - a.measured_s).abs() / a.measured_s)
            .collect();
        (mean(&iter), mean(&err))
    }
}

/// A per-run scratch directory under the working directory, removed on
/// drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(".confbench_tmp").join(format!("run-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent when other runs still use it.
        let _ = std::fs::remove_dir(".confbench_tmp");
    }
}

fn parse_specs(inputs: &[Input]) -> Result<Vec<JobSpec>, String> {
    inputs
        .iter()
        .map(|i| JobSpec::parse_strict(&i.job).map_err(|e| format!("generated spec: {e}")))
        .collect()
}

/// GPU memory of each input's cluster, GiB.
fn capacities(specs: &[JobSpec]) -> Result<Vec<f64>, String> {
    specs
        .iter()
        .map(|s| {
            s.build_cluster()
                .map(|c| c.gpu().memory_bytes as f64 / GIB)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Times `setup` at least `reps` times and until `seconds` have passed;
/// returns the last result and every time. Sub-millisecond set-ups need
/// the time floor: their median over a short window follows the host's
/// momentary speed.
fn timed_setups<T>(
    reps: usize,
    seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let begin = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let out = setup()?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= reps && begin.elapsed().as_secs_f64() >= seconds {
            return Ok((out, times));
        }
    }
}

/// Latencies, wall time and OK count of one timed phase.
#[derive(Default)]
struct Timed {
    latency_ms: Vec<f64>,
    wall_s: f64,
    ok: u64,
}

impl Timed {
    fn extend(&mut self, other: Timed) {
        self.latency_ms.extend(other.latency_ms);
        self.wall_s += other.wall_s;
        self.ok += other.ok;
    }
}

fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    timed: &Timed,
    answers: &Answers,
    specs: &[JobSpec],
) -> Result<(), String> {
    let (rec_iter_s, rec_err_pct) = answers.quality();
    let mut errors = Vec::new();
    for spec in specs {
        errors.extend(probe::estimate_errors(spec)?);
    }
    let est_err_pct = mean(&errors);
    let m = &mut report.metrics;
    m.put("setup_s", median(setup_s), "s");
    m.put("latency_p50_ms", hd_quantile(&timed.latency_ms, 0.5), "ms");
    m.put("latency_p90_ms", hd_quantile(&timed.latency_ms, 0.9), "ms");
    m.put(
        "throughput_rps",
        ratio(timed.ok as f64, timed.wall_s),
        "1/s",
    );
    m.put("rec_iter_s", rec_iter_s, "s");
    m.put("est_err_pct", est_err_pct, "%");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    report.notes.push(format!(
        "samples: timed={} setup_reps={} wall_s={:.3} estimated_candidates={}",
        timed.latency_ms.len(),
        setup_s.len(),
        timed.wall_s,
        errors.len()
    ));
    report.notes.push(format!(
        "quality: recommendations' mean estimate error {rec_err_pct:.4}%"
    ));
    Ok(())
}

/// Queue wait, service and commit wait of the stamped serve phase.
#[derive(Default)]
struct ServeSplit {
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    commit_ms: Vec<f64>,
    parse_us: Vec<f64>,
    response_bytes: Vec<f64>,
}

impl ServeSplit {
    /// Joins a stamped loop's execute stamps to the client's stamps by
    /// sequence number.
    fn add<H>(&mut self, stamped: &Stamped<'_, H>, run: &LoopRun) {
        for stamp in stamped.exec.lock().expect("exec stamps").iter() {
            let Some(s) = usize::try_from(stamp.seq)
                .ok()
                .and_then(|i| run.sent.get(i))
            else {
                continue;
            };
            self.queue_ms
                .push(ms(stamp.start.saturating_duration_since(s.admitted)));
            self.service_ms
                .push(ms(stamp.end.duration_since(stamp.start)));
            self.commit_ms
                .push(ms(s.received.saturating_duration_since(stamp.end)));
        }
        let parse = stamped.parse.lock().expect("parse stamps");
        self.parse_us
            .extend(parse.iter().map(|d| d.as_secs_f64() * 1e6));
        self.response_bytes
            .extend(run.sent.iter().map(|s| s.bytes as f64));
    }
}

fn per_layer(
    report: &mut Report,
    layers: &Layers,
    cache_hit_ratio: f64,
    train_iters_per_request: f64,
    split: &ServeSplit,
    overhead: f64,
) {
    let anneal_s: f64 = layers.anneal_ms.iter().sum::<f64>() / 1e3;
    let phases: f64 = layers.phase_ms.iter().sum();
    let unaccounted = 1.0 - ratio(phases, layers.traced_ms);
    let m = &mut report.metrics;
    m.put("cluster.build_ms", mean(&layers.build_ms), "ms");
    m.put("cluster.profile_ms", mean(&layers.profile_ms), "ms");
    m.put("sim.corpus_ms", mean(&layers.corpus_ms), "ms");
    m.put("sim.execute_ms", mean(&layers.execute_ms), "ms");
    m.put("memory.train_ms", mean(&layers.train_ms), "ms");
    m.put(
        "memory.train_iters_per_s",
        ratio(
            layers.train_iters,
            layers.train_ms.iter().sum::<f64>() / 1e3,
        ),
        "1/s",
    );
    m.put(
        "memory.train_iters_per_request",
        train_iters_per_request,
        "count",
    );
    m.put(
        "memory.predictions_per_s",
        ratio(layers.predictions.0, layers.predictions.1),
        "1/s",
    );
    m.put("memory.cache_hit_ratio", cache_hit_ratio, "ratio");
    m.put(
        "memory.cache_lookup_ms",
        mean(&layers.cache_lookup_ms),
        "ms",
    );
    m.put(
        "latency.estimates_per_s",
        ratio(layers.estimates.0, layers.estimates.1),
        "1/s",
    );
    m.put("mapping.anneal_ms", mean(&layers.anneal_ms), "ms");
    m.put("mapping.evals_per_s", ratio(layers.evals, anneal_s), "1/s");
    m.put(
        "mapping.evals_per_request",
        ratio(layers.program_evals as f64, layers.traced_calls as f64),
        "count",
    );
    m.put("mapping.threads", stats::cores() as f64, "count");
    m.put(
        "mapping.accept_ratio",
        ratio(layers.accepted, layers.evals),
        "ratio",
    );
    m.put("mapping.improvement", mean(&layers.improvements), "ratio");
    m.put(
        "tempering.exchange_accept_ratio",
        ratio(layers.exchanges.1, layers.exchanges.0),
        "ratio",
    );
    for (i, name) in [
        "configurator.phase_share.profile",
        "configurator.phase_share.mem_train",
        "configurator.phase_share.mem_screen",
        "configurator.phase_share.estimates",
        "configurator.phase_share.anneal",
        "configurator.phase_share.finalize",
    ]
    .into_iter()
    .enumerate()
    {
        m.put(name, ratio(layers.phase_ms[i], layers.traced_ms), "ratio");
    }
    m.put("configurator.unaccounted_share", unaccounted, "ratio");
    m.put(
        "serve.queue_wait_ms_p50",
        hd_quantile(&split.queue_ms, 0.5),
        "ms",
    );
    m.put(
        "serve.queue_wait_ms_p90",
        hd_quantile(&split.queue_ms, 0.9),
        "ms",
    );
    m.put(
        "serve.service_ms_p50",
        hd_quantile(&split.service_ms, 0.5),
        "ms",
    );
    m.put(
        "serve.service_ms_p90",
        hd_quantile(&split.service_ms, 0.9),
        "ms",
    );
    m.put(
        "serve.commit_wait_ms_p50",
        hd_quantile(&split.commit_ms, 0.5),
        "ms",
    );
    m.put("serve.parse_us", mean(&split.parse_us), "us");
    m.put("serve.response_bytes", mean(&split.response_bytes), "bytes");
    m.put("serve.requests", split.service_ms.len() as f64, "count");
    m.put("obs.trace_overhead_frac", overhead, "ratio");
    m.put(
        "configurator.traced_calls",
        layers.traced_calls as f64,
        "count",
    );

    report.notes.push(format!(
        "phases: calls={} traced_ms={:.3} unaccounted_share={unaccounted:.4} ({}) outside spans: before={:.2} between={:.2} after={:.2}",
        layers.traced_calls,
        layers.traced_ms,
        PHASES
            .iter()
            .zip(layers.phase_ms)
            .map(|(p, v)| format!("{p}={v:.1}"))
            .collect::<Vec<_>>()
            .join(" "),
        layers.gaps_ms[0],
        layers.gaps_ms[1],
        layers.gaps_ms[2],
    ));
    report
        .notes
        .push(format!("probes: requests={}", layers.requests));
    if layers.traced_ms - phases > layers.allowance_ms || layers.traced_calls == 0 {
        report.correct = false;
        report.notes.push(format!(
            "error: traced configure calls spent {:.3} ms outside every phase span (allowed {:.3} ms)",
            layers.traced_ms - phases,
            layers.allowance_ms
        ));
    }
    report.notes.push(format!(
        "check: SA evaluations per traced configure = {}, anneal share of its wall time = {:.3}",
        ratio(layers.program_evals as f64, layers.traced_calls as f64),
        ratio(layers.phase_ms[4], layers.traced_ms)
    ));
}

fn overhead(report: &mut Report, untraced: &Timed, traced: &Timed) -> f64 {
    let (base, with) = (median(&untraced.latency_ms), median(&traced.latency_ms));
    report.notes.push(format!(
        "overhead: median latency untraced {base:.3} ms ({} requests), traced {with:.3} ms ({} requests)",
        untraced.latency_ms.len(),
        traced.latency_ms.len()
    ));
    ratio(with - base, base)
}

// ---------------------------------------------------------------- cold

/// The `CliReport` of a recommendation, as `run_configure` builds it.
fn cli_report(rec: &Recommendation, measured: &pipette_sim::Measured) -> CliReport {
    CliReport {
        pp: rec.config.pp,
        tp: rec.config.tp,
        dp: rec.config.dp,
        micro_batch: rec.plan.micro_batch,
        n_microbatches: rec.plan.n_microbatches,
        estimated_seconds: rec.estimated_seconds,
        measured_seconds: measured.iteration_seconds,
        peak_memory_gib: measured.peak_memory_bytes as f64 / GIB,
        examined: rec.examined,
        memory_rejected: rec.memory_rejected,
        mapping: rec.mapping.as_slice().iter().map(|g| g.0).collect(),
        replicas: rec.tempering.map_or(1, |t| t.replicas),
        estimator_cache: rec.cache_counters,
    }
}

/// `run_configure` split at its layer boundaries: cluster build, the
/// traced configurator with wall-clock spans, and the verification run.
fn traced_configure(spec: &JobSpec, layers: &mut Layers) -> Result<CliReport, String> {
    let cluster = probe::build_cluster(spec, layers)?;
    let gpt = spec.build_model().map_err(|e| e.to_string())?;
    let dir = spec
        .estimator_cache_dir
        .as_ref()
        .ok_or("cold job without a cache dir")?;
    let cache = TrainedEstimatorCache::with_dir(dir);
    let pipette = Pipette::new(&cluster, &gpt, spec.global_batch, probe::options_for(spec))
        .with_estimator_cache(&cache);
    let rec = probe::traced_run(&pipette, cluster.topology().num_gpus(), layers)?;
    let measured = probe::execute(&cluster, &gpt, &rec, layers)?;
    Ok(cli_report(&rec, &measured))
}

/// Cache traffic and training work of the cold jobs.
#[derive(Default)]
struct ColdCounters {
    hits: u64,
    lookups: u64,
    train_iters: u64,
}

/// One cold job in a fresh estimator cache directory: `run_configure`,
/// or with `layers` its traced, layer-by-layer equivalent.
fn cold_job(
    spec: &JobSpec,
    input: usize,
    scratch: &Path,
    layers: Option<&mut Layers>,
    answers: &mut Answers,
    counters: &mut ColdCounters,
    timed: &mut Timed,
) {
    let dir = scratch.join(format!("job-{}-{input}", answers.attempted));
    let mut spec = spec.clone();
    spec.estimator_cache_dir = Some(dir.to_string_lossy().into_owned());
    let begin = Instant::now();
    let result = match layers {
        None => run_configure(&spec).map_err(|e| e.to_string()),
        Some(layers) => traced_configure(&spec, layers),
    };
    timed.latency_ms.push(ms(begin.elapsed()));
    if let Ok(report) = &result {
        if let Some(c) = report.estimator_cache {
            counters.hits += c.hits;
            counters.lookups += c.hits + c.misses;
            counters.train_iters += c.misses * spec.memory_training_iterations as u64;
        }
    }
    if answers.check(input, result.map(|r| Answer::from_report(&r))) {
        timed.ok += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the cold jobs in cycles until `seconds` have passed and the
/// current cycle is done. With `layers`, every job runs twice back to
/// back, untraced then traced, so the pair differs only in tracing.
/// Returns the untraced and the traced timings.
fn cold_loop(
    specs: &[JobSpec],
    seconds: f64,
    scratch: &Path,
    mut layers: Option<&mut Layers>,
    answers: &mut Answers,
    counters: &mut ColdCounters,
) -> (Timed, Timed) {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Timed::default(), Timed::default());
    let order = cycle_order(specs.len());
    loop {
        for &input in &order {
            let spec = &specs[input];
            cold_job(spec, input, scratch, None, answers, counters, &mut untraced);
            if let Some(layers) = layers.as_deref_mut() {
                cold_job(
                    spec,
                    input,
                    scratch,
                    Some(layers),
                    answers,
                    counters,
                    &mut traced,
                );
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    untraced.wall_s = start.elapsed().as_secs_f64();
    (untraced, traced)
}

fn cold_configure(args: &Args, report: &mut Report) -> Result<Answers, String> {
    let inputs = gen::inputs(Workload::ColdConfigure, args.seed);
    let scratch = Scratch::new()?;
    // Set-up is what a one-shot user pays before the first job: reading
    // and validating the specs and realizing clusters and models.
    let (reps, seconds) = if args.trace { (1, 0.0) } else { (20, 1.0) };
    let (specs, setup_s) = timed_setups(reps, seconds, || {
        let specs = parse_specs(&inputs)?;
        for spec in &specs {
            spec.build_cluster().map_err(|e| e.to_string())?;
            spec.build_model().map_err(|e| e.to_string())?;
        }
        Ok(specs)
    })?;
    let mut answers = Answers::new(capacities(&specs)?);
    let mut counters = ColdCounters::default();
    if !args.trace {
        let (timed, _) = cold_loop(
            &specs,
            args.seconds,
            &scratch.0,
            None,
            &mut answers,
            &mut counters,
        );
        end_to_end(report, &setup_s, &timed, &answers, &specs)?;
        return Ok(answers);
    }
    let mut layers = Layers::default();
    let (untraced, traced) = cold_loop(
        &specs,
        args.seconds / 2.0,
        &scratch.0,
        Some(&mut layers),
        &mut answers,
        &mut counters,
    );
    let mut known = BTreeMap::new();
    for (i, spec) in specs.iter().enumerate() {
        let dir = scratch.0.join(format!("probe-{i}"));
        probe::probe_request(spec, EstimatorSource::Cold(&dir), &mut known, &mut layers)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The serve layer on this workload's jobs: one cycle through a
    // handler warmed with every job, so the serve metrics describe the
    // same inputs as the rest.
    let lines: Vec<String> = inputs
        .iter()
        .map(|i| format!(r#"{{"op":"configure","job":{}}}"#, i.job))
        .collect();
    let handler = serve_setup(&lines)?;
    let mut served = Answers::new(capacities(&specs)?);
    let mut split = ServeSplit::default();
    stamped_loop(&handler, &lines, 0.0, &mut served, &mut split)?;
    answers.count(&served);
    let trace_overhead = overhead(report, &untraced, &traced);
    report.notes.push(format!(
        "check: training share of mean job latency = {:.3}",
        ratio(mean(&layers.train_ms), mean(&untraced.latency_ms))
    ));
    per_layer(
        report,
        &layers,
        ratio(counters.hits as f64, counters.lookups as f64),
        ratio(
            counters.train_iters as f64,
            (untraced.latency_ms.len() + traced.latency_ms.len()) as f64,
        ),
        &split,
        trace_overhead,
    );
    Ok(answers)
}

// --------------------------------------------------------------- serve

/// A fresh handler, warmed with one request per distinct line: every
/// estimator fingerprint is trained and every bandwidth profile
/// measured before the timed requests.
fn serve_setup(lines: &[String]) -> Result<PipetteHandler, String> {
    let handler = PipetteHandler::new();
    for (seq, line) in lines.iter().enumerate() {
        let ParseOutcome::Job { job, .. } = handler.parse(line) else {
            return Err(format!("warm-up line {seq} did not parse"));
        };
        let ctx = ExecContext {
            seq: seq as u64,
            degraded: false,
        };
        let execution = handler.execute(job, &ctx);
        if execution.outcome != "ok" {
            return Err(format!("warm-up line {seq}: {}", execution.response));
        }
    }
    Ok(handler)
}

/// [`checked_loop`] through the stamping wrapper, adding each request's
/// queue wait, service and commit wait to `split`.
fn stamped_loop(
    handler: &PipetteHandler,
    lines: &[String],
    seconds: f64,
    answers: &mut Answers,
    split: &mut ServeSplit,
) -> Result<Timed, String> {
    let stamped = Stamped::new(handler);
    let (timed, run) = checked_loop(&stamped, lines, seconds, answers)?;
    split.add(&stamped, &run);
    Ok(timed)
}

/// One closed-loop phase whose answers are checked as they arrive.
fn checked_loop<H: RequestHandler>(
    handler: &H,
    lines: &[String],
    seconds: f64,
    answers: &mut Answers,
) -> Result<(Timed, LoopRun), String> {
    let mut ok = 0;
    let run = closed_loop(
        handler,
        lines,
        seconds,
        OUTSTANDING,
        &mut |input, response| {
            if answers.check(input, Answer::from_response(response)) {
                ok += 1;
            }
        },
    )
    .map_err(|e| format!("serve loop: {e}"))?;
    let timed = Timed {
        latency_ms: run
            .sent
            .iter()
            .map(|s| ms(s.received.duration_since(s.submitted)))
            .collect(),
        wall_s: run.wall.as_secs_f64(),
        ok,
    };
    Ok((timed, run))
}

fn serve_workload(args: &Args, report: &mut Report) -> Result<Answers, String> {
    let inputs = gen::inputs(args.workload, args.seed);
    let specs = parse_specs(&inputs)?;
    let lines: Vec<String> = inputs.into_iter().map(|i| i.line).collect();
    let mut answers = Answers::new(capacities(&specs)?);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let (handler, setup_s) = timed_setups(reps, 0.0, || serve_setup(&lines))?;
    if !args.trace {
        let (timed, _) = checked_loop(&handler, &lines, args.seconds, &mut answers)?;
        end_to_end(report, &setup_s, &timed, &answers, &specs)?;
        return Ok(answers);
    }
    // Untraced and traced rounds alternate, so drift over the run
    // does not read as tracing overhead.
    let quarter = args.seconds / 4.0;
    let (mut untraced, mut traced) = (Timed::default(), Timed::default());
    let mut split = ServeSplit::default();
    let before = handler.cache_counters();
    for _ in 0..2 {
        untraced.extend(checked_loop(&handler, &lines, quarter, &mut answers)?.0);
        traced.extend(stamped_loop(
            &handler,
            &lines,
            quarter,
            &mut answers,
            &mut split,
        )?);
    }
    let after = handler.cache_counters();

    let cache = TrainedEstimatorCache::in_memory();
    let mut layers = Layers::default();
    let mut known = BTreeMap::new();
    for spec in &specs {
        let p = probe::probe_request(spec, EstimatorSource::Warm(&cache), &mut known, &mut layers)?;
        let (profiled, cost) = p.profiled;
        let pipette = Pipette::new(
            &p.cluster,
            &p.gpt,
            spec.global_batch,
            probe::options_for(spec),
        )
        .with_profiled(profiled, cost)
        .with_memory_estimator(p.estimator);
        let rec = probe::traced_run(&pipette, p.cluster.topology().num_gpus(), &mut layers)?;
        probe::execute(&p.cluster, &p.gpt, &rec, &mut layers)?;
    }
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let train_iters =
        (after.misses - before.misses) as f64 * specs[0].memory_training_iterations as f64;
    let requests = (untraced.latency_ms.len() + traced.latency_ms.len()) as f64;
    let trace_overhead = overhead(report, &untraced, &traced);
    per_layer(
        report,
        &layers,
        ratio((after.hits - before.hits) as f64, lookups as f64),
        ratio(train_iters, requests),
        &split,
        trace_overhead,
    );
    Ok(answers)
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    report.notes.push(stats::host_line());
    report.notes.push(format!(
        "inputs: workload={} seed={} seconds={} trace={} loop=closed outstanding={} workers=1",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        match args.workload {
            Workload::ColdConfigure => 1,
            _ => OUTSTANDING,
        }
    ));
    let ticks_before = stats::cpu_ticks();
    let answers = match args.workload {
        Workload::ColdConfigure => cold_configure(args, &mut report)?,
        Workload::WarmServe | Workload::QuickEstimate => serve_workload(args, &mut report)?,
    };
    let ticks_after = stats::cpu_ticks();
    // Time the hypervisor gave this machine's CPUs to others: a run that
    // reads slow for no reason of its own shows it here.
    report.notes.push(format!(
        "host: cpu steal during the run {:.2}%",
        100.0
            * ratio(
                ticks_after.1.saturating_sub(ticks_before.1) as f64,
                ticks_after.0.saturating_sub(ticks_before.0) as f64
            )
    ));
    report.attempted = answers.attempted;
    report.failed = answers.failed;
    report
        .notes
        .push(format!("digest: {:016x}", answers.digest));
    report.notes.push(format!(
        "failed_frac: {} ({} of {})",
        ratio(answers.failed as f64, answers.attempted as f64),
        answers.failed,
        answers.attempted
    ));
    for e in &answers.errors {
        report.notes.push(format!("error: {e}"));
    }
    if answers.failed > 0 || answers.attempted == 0 {
        report.correct = false;
    }
    for (name, value, unit) in &report.metrics.0 {
        report.notes.push(format!("metric {name} = {value} {unit}"));
        if !value.is_finite() {
            report.correct = false;
        }
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let emitted: Vec<(&str, &str)> = report.metrics.0.iter().map(|(n, _, u)| (*n, *u)).collect();
    if emitted != expected {
        report.correct = false;
        report
            .notes
            .push("error: emitted metrics differ from the declared list".to_string());
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("confbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every thread inherits the pin.
    let pinned = match stats::pin_to_one_cpu() {
        Ok(cpu) => format!("pinned: cpu {cpu}, configurator threads {}", stats::cores()),
        Err(e) => format!("pinned: no ({e}), configurator threads {}", stats::cores()),
    };
    match run(&args) {
        Ok(report) => {
            println!("{pinned}");
            for note in &report.notes {
                println!("{note}");
            }
            println!(
                "{}",
                stats::result_json(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("confbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    fn manifest() -> JsonValue {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        jsonscan::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn manifest_list(doc: &JsonValue, key: &str, fields: [&str; 2]) -> Vec<(String, String)> {
        let Some(JsonValue::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        let text = |item: &JsonValue, field: &str| match item.get(field) {
            Some(JsonValue::String(s)) => s.clone(),
            _ => panic!("{key} entry lacks {field}"),
        };
        items
            .iter()
            .map(|item| (text(item, fields[0]), text(item, fields[1])))
            .collect()
    }

    #[test]
    fn manifest_declares_what_the_benchmark_emits() {
        let doc = manifest();
        assert_eq!(
            manifest_list(&doc, "end_to_end", ["name", "unit"]),
            owned(&END_TO_END)
        );
        assert_eq!(
            manifest_list(&doc, "per_layer", ["name", "unit"]),
            owned(&PER_LAYER)
        );
        let names: Vec<String> = manifest_list(&doc, "workloads", ["name", "why"])
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn short_runs_emit_every_metric_with_its_unit() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 5,
                    seconds: 0.0,
                    trace,
                };
                let report = run(&args).expect("short run");
                assert!(report.correct, "{}: {:?}", workload.name(), report.notes);
                assert_eq!(report.failed, 0);
                assert!(report.attempted >= 1);
                let emitted: Vec<(String, String)> = report
                    .metrics
                    .0
                    .iter()
                    .map(|(n, _, u)| (n.to_string(), u.to_string()))
                    .collect();
                let expected = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                assert_eq!(
                    emitted,
                    owned(expected),
                    "{} trace={trace}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload warm_serve --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(ok.workload, Workload::WarmServe);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        for bad in [
            "--workload warm_serve --seed 3 --seconds 10",
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload warm_serve --seed x --seconds 10 --trace 0",
            "--workload warm_serve --seed 3 --seconds 10 --trace 2",
            "--workload warm_serve --seed 3 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
