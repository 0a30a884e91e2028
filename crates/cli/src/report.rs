//! Running a job spec and rendering the outcome.

use crate::spec::JobSpec;
use pipette::baselines::{first_runnable, AmpConfigurator, MegatronTuner};
use pipette::configurator::{Pipette, PipetteOptions, Recommendation};
use pipette::degraded::{run_under_faults, DegradedOutcome};
use pipette::mapping::AnnealerConfig;
use pipette::memory::CacheCounters;
use pipette_cluster::FaultPlan;
use pipette_obs::json::Obj;
use pipette_obs::{EventKind, Trace};
use pipette_sim::{ClusterRun, Measured};
use std::error::Error;
use std::fmt::Write as _;

/// Machine-readable result of a `configure` run (also printed as JSON with
/// `--json`).
#[derive(Debug, Clone)]
pub struct CliReport {
    /// Chosen pipeline ways.
    pub pp: usize,
    /// Chosen tensor ways.
    pub tp: usize,
    /// Chosen data ways.
    pub dp: usize,
    /// Chosen microbatch size.
    pub micro_batch: u64,
    /// Microbatches per iteration per replica.
    pub n_microbatches: u64,
    /// Estimated iteration seconds.
    pub estimated_seconds: f64,
    /// Measured (simulated) iteration seconds.
    pub measured_seconds: f64,
    /// Peak memory of the worst GPU, GiB.
    pub peak_memory_gib: f64,
    /// Candidates examined / rejected by the memory estimator.
    pub examined: usize,
    /// Rejected candidate count.
    pub memory_rejected: usize,
    /// Worker→GPU assignment (worker linear index → GPU id).
    pub mapping: Vec<usize>,
    /// Parallel-tempering replicas the SA passes ran with (1 = classic
    /// single chain).
    pub replicas: usize,
    /// Trained-estimator cache traffic (absent when no cache directory
    /// was configured).
    pub estimator_cache: Option<CacheCounters>,
}

impl CliReport {
    /// The report of a recommendation and its verification run.
    pub(crate) fn new(rec: &Recommendation, measured: &Measured) -> Self {
        Self {
            pp: rec.config.pp,
            tp: rec.config.tp,
            dp: rec.config.dp,
            micro_batch: rec.plan.micro_batch,
            n_microbatches: rec.plan.n_microbatches,
            estimated_seconds: rec.estimated_seconds,
            measured_seconds: measured.iteration_seconds,
            peak_memory_gib: measured.peak_memory_bytes as f64 / (1u64 << 30) as f64,
            examined: rec.examined,
            memory_rejected: rec.memory_rejected,
            mapping: rec.mapping.as_slice().iter().map(|g| g.0).collect(),
            replicas: rec.tempering.map_or(1, |t| t.replicas),
            estimator_cache: rec.cache_counters,
        }
    }
}

pub(crate) fn options_for(spec: &JobSpec) -> PipetteOptions {
    let mut memory = pipette::memory::MemoryEstimatorConfig::default();
    memory.train.iterations = spec.memory_training_iterations;
    PipetteOptions {
        max_micro: spec.max_micro,
        use_worker_dedication: spec.worker_dedication,
        annealer: AnnealerConfig {
            iterations: spec.sa_iterations,
            ..AnnealerConfig::default()
        },
        memory,
        seed: spec.seed,
        replicas: spec.replicas,
        exchange_interval: spec.exchange_interval,
        ..PipetteOptions::default()
    }
}

/// Runs Algorithm 1 for the spec and verifies the answer on the simulated
/// cluster.
///
/// # Errors
///
/// Propagates spec, configuration, and simulation errors.
pub fn run_configure(spec: &JobSpec) -> Result<CliReport, Box<dyn Error>> {
    run_configure_traced(spec, None).map(|(report, _)| report)
}

/// [`run_configure`], optionally recording a structured telemetry trace,
/// and returning the full [`Recommendation`] for explanation rendering.
///
/// # Errors
///
/// Propagates spec, configuration, and simulation errors.
pub fn run_configure_traced(
    spec: &JobSpec,
    trace: Option<&mut Trace>,
) -> Result<(CliReport, Recommendation), Box<dyn Error>> {
    let cluster = spec.build_cluster()?;
    let gpt = spec.build_model()?;
    let cache = spec
        .estimator_cache_dir
        .as_ref()
        .map(pipette::memory::TrainedEstimatorCache::with_dir);
    let mut pipette = Pipette::new(&cluster, &gpt, spec.global_batch, options_for(spec));
    if let Some(cache) = &cache {
        pipette = pipette.with_estimator_cache(cache);
    }
    let rec = match trace {
        Some(trace) => pipette.run_traced(trace)?,
        None => pipette.run()?,
    };
    let runner = ClusterRun::new(&cluster, &gpt);
    let measured = runner.execute(rec.config, &rec.mapping, rec.plan)?;
    Ok((CliReport::new(&rec, &measured), rec))
}

/// Machine-readable result of a `drill` run: the degraded
/// recommendation plus the robustness accounting.
#[derive(Debug, Clone)]
pub struct DrillReport {
    /// The recommendation for the surviving subcluster (verified on it).
    pub recommendation: CliReport,
    /// GPUs the healthy cluster had.
    pub healthy_gpus: usize,
    /// GPUs that survived the fault plan.
    pub surviving_gpus: usize,
    /// GPU indices taken out of service.
    pub excluded_gpus: Vec<usize>,
    /// Retry attempts the robust profiler spent.
    pub profiler_retries: usize,
    /// Pairs whose bandwidth had to be imputed from topology priors.
    pub imputed_pairs: usize,
    /// Profiler samples discarded as NaN/zero/implausible.
    pub corrupt_samples: usize,
    /// Whether memory screening fell back to the analytic model.
    pub analytic_memory_fallback: bool,
    /// `degraded_seconds / healthy_seconds` when GPUs were lost.
    pub slowdown_factor: Option<f64>,
    /// Requests answered in breaker-degraded (analytic-memory) mode.
    /// Zero for one-shot drills; populated by `pipette drill --serve`
    /// replays, where the server's circuit breaker may force analytic
    /// responses mid-timeline.
    pub degraded_requests: u64,
}

/// Renders a [`CliReport`] as one deterministic JSON object — the
/// `result` payload of serve responses and the `recommendation` member
/// of the drill report.
pub fn cli_report_json(rec: &CliReport) -> String {
    let mut rec_json = String::new();
    let mut o = Obj::open(&mut rec_json);
    o.uint("pp", rec.pp as u64);
    o.uint("tp", rec.tp as u64);
    o.uint("dp", rec.dp as u64);
    o.uint("micro_batch", rec.micro_batch);
    o.uint("n_microbatches", rec.n_microbatches);
    o.float("estimated_seconds", rec.estimated_seconds);
    o.float("measured_seconds", rec.measured_seconds);
    o.float("peak_memory_gib", rec.peak_memory_gib);
    o.uint("examined", rec.examined as u64);
    o.uint("memory_rejected", rec.memory_rejected as u64);
    o.raw("mapping", &uint_array(&rec.mapping));
    o.uint("replicas", rec.replicas as u64);
    match &rec.estimator_cache {
        Some(c) => {
            let mut cache = String::new();
            let mut co = Obj::open(&mut cache);
            co.uint("hits", c.hits);
            co.uint("misses", c.misses);
            co.uint("corrupt", c.corrupt);
            co.close();
            o.raw("estimator_cache", &cache);
        }
        None => o.raw("estimator_cache", "null"),
    }
    o.close();
    rec_json
}

/// Renders a [`DrillReport`] as one deterministic JSON line — the
/// machine-readable `pipette drill --json` output CI parses.
pub fn drill_report_json(report: &DrillReport) -> String {
    let mut out = String::new();
    let mut o = Obj::open(&mut out);
    o.raw("recommendation", &cli_report_json(&report.recommendation));
    o.uint("healthy_gpus", report.healthy_gpus as u64);
    o.uint("surviving_gpus", report.surviving_gpus as u64);
    o.raw("excluded_gpus", &uint_array(&report.excluded_gpus));
    o.uint("profiler_retries", report.profiler_retries as u64);
    o.uint("imputed_pairs", report.imputed_pairs as u64);
    o.uint("corrupt_samples", report.corrupt_samples as u64);
    o.boolean("analytic_memory_fallback", report.analytic_memory_fallback);
    match report.slowdown_factor {
        Some(f) => o.float("slowdown_factor", f),
        None => o.raw("slowdown_factor", "null"),
    }
    o.uint("degraded_requests", report.degraded_requests);
    o.close();
    out
}

/// `[a,b,…]` with no whitespace.
fn uint_array(items: &[usize]) -> String {
    let mut out = String::from("[");
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Runs the spec's job under a fault plan: robust profiling, exclusion
/// of failed nodes, reconfiguration on the survivors, analytic fallback
/// if estimator training degenerates — then verifies the degraded
/// recommendation on the surviving subcluster.
///
/// # Errors
///
/// Propagates spec, fault-plan, configuration, and simulation errors.
pub fn run_drill_traced(
    spec: &JobSpec,
    plan: &FaultPlan,
    trace: Option<&mut Trace>,
) -> Result<(DrillReport, DegradedOutcome), Box<dyn Error>> {
    let cluster = spec.build_cluster()?;
    let gpt = spec.build_model()?;
    let outcome = run_under_faults(
        &cluster,
        &gpt,
        spec.global_batch,
        options_for(spec),
        plan,
        trace,
    )?;
    let rec = &outcome.recommendation;
    let runner = ClusterRun::new(&outcome.survivor, &gpt);
    let measured = runner.execute(rec.config, &rec.mapping, rec.plan)?;
    let report = DrillReport {
        recommendation: CliReport::new(rec, &measured),
        healthy_gpus: cluster.topology().num_gpus(),
        surviving_gpus: outcome.survivor.topology().num_gpus(),
        excluded_gpus: outcome.excluded_gpus.iter().map(|g| g.0).collect(),
        profiler_retries: outcome.report.retries,
        imputed_pairs: outcome.report.imputed,
        corrupt_samples: outcome.report.corrupt_samples,
        analytic_memory_fallback: outcome.used_analytic_fallback,
        slowdown_factor: outcome.reconfiguration.as_ref().map(|r| r.slowdown_factor),
        degraded_requests: 0,
    };
    Ok((report, outcome))
}

/// Renders the human-readable `drill` transcript.
pub fn render_drill(report: &DrillReport, outcome: &DegradedOutcome) -> String {
    let mut out = String::new();
    let rec = &report.recommendation;
    let _ = writeln!(out, "fault drill on {}", outcome.survivor.name());
    let _ = writeln!(
        out,
        "  gpus              : {} healthy, {} surviving ({} excluded)",
        report.healthy_gpus,
        report.surviving_gpus,
        report.excluded_gpus.len()
    );
    let _ = writeln!(
        out,
        "  robust profiling  : {} retries, {} pairs imputed, {} corrupt samples discarded",
        report.profiler_retries, report.imputed_pairs, report.corrupt_samples
    );
    let _ = writeln!(
        out,
        "  memory estimator  : {}",
        if report.analytic_memory_fallback {
            "analytic fallback (training corpus degenerate)"
        } else {
            "learned MLP (training healthy)"
        }
    );
    let _ = writeln!(
        out,
        "degraded recommendation: (pp={}, tp={}, dp={}) micro={}",
        rec.pp, rec.tp, rec.dp, rec.micro_batch
    );
    let _ = writeln!(
        out,
        "  estimated {:.3} s / measured {:.3} s on the survivors",
        rec.estimated_seconds, rec.measured_seconds
    );
    if let Some(reconf) = &outcome.reconfiguration {
        let h = &reconf.healthy;
        let _ = writeln!(
            out,
            "reconfiguration: healthy (pp={}, tp={}, dp={}) micro={} @ {:.3} s -> {:.2}x slower",
            h.config.pp,
            h.config.tp,
            h.config.dp,
            h.plan.micro_batch,
            h.estimated_seconds,
            reconf.slowdown_factor
        );
    } else {
        let _ = writeln!(out, "reconfiguration: none needed (no GPUs lost)");
    }
    out
}

/// Renders the `explain` report: where the estimated iteration time goes
/// (Eqs. 3–6), which link straggles, how much memory headroom remains,
/// how the annealer converged, and the closest runner-up configurations.
pub fn render_explain(report: &CliReport, rec: &Recommendation, top_k: usize) -> String {
    let mut out = String::new();
    let terms = &rec.breakdown.terms;
    let total = rec.estimated_seconds;
    let pct = |x: f64| if total > 0.0 { 100.0 * x / total } else { 0.0 };
    let _ = writeln!(
        out,
        "recommendation: (pp={}, tp={}, dp={}) micro={} ({} microbatches)",
        report.pp, report.tp, report.dp, report.micro_batch, report.n_microbatches
    );
    let _ = writeln!(out, "estimated iteration time: {total:.3} s\n");

    let _ = writeln!(out, "latency breakdown (critical replica, Eqs. 3-6):");
    let _ = writeln!(
        out,
        "  pipeline bubble   {:>9.3} s  ({:>4.1}%)",
        terms.t_bubble,
        pct(terms.t_bubble)
    );
    let _ = writeln!(
        out,
        "  straggler stages  {:>9.3} s  ({:>4.1}%)  worst: stage {}",
        terms.t_straggler,
        pct(terms.t_straggler),
        terms.straggler_stage
    );
    let _ = writeln!(
        out,
        "  hidden critical   {:>9.3} s  ({:>4.1}%)",
        terms.t_hidden,
        pct(terms.t_hidden)
    );
    let _ = writeln!(
        out,
        "  exposed dp grads  {:>9.3} s  ({:>4.1}%)",
        terms.t_dp,
        pct(terms.t_dp)
    );
    let _ = writeln!(
        out,
        "  optimizer step    {:>9.3} s  ({:>4.1}%)",
        terms.t_optimizer,
        pct(terms.t_optimizer)
    );
    match &rec.breakdown.slow_link {
        Some(link) => {
            let _ = writeln!(
                out,
                "  slowest pp link   GPU {} -> GPU {} (stage {} boundary, {:.1} ms roundtrip)",
                link.from.0,
                link.to.0,
                link.stage,
                link.seconds * 1e3
            );
        }
        None => {
            let _ = writeln!(out, "  slowest pp link   n/a (no pipeline communication)");
        }
    }

    let m = &rec.memory;
    let gib = |b: u64| b as f64 / (1u64 << 30) as f64;
    let _ = writeln!(out, "\nmemory (worst stage, estimator):");
    let _ = writeln!(
        out,
        "  predicted {:.2} GiB of {:.2} GiB ({:.0}% headroom, soft margin {:.0}%)",
        gib(m.predicted_bytes),
        gib(m.limit_bytes),
        100.0 * m.headroom_fraction(),
        100.0 * m.soft_margin
    );
    let _ = writeln!(
        out,
        "  screening: {} candidates examined, {} rejected as OOM risks",
        report.examined, report.memory_rejected
    );
    if let Some(c) = &report.estimator_cache {
        let _ = writeln!(
            out,
            "  estimator cache: {} hits, {} misses, {} corrupt",
            c.hits, c.misses, c.corrupt
        );
    }

    match &rec.anneal_stats {
        Some(sa) => {
            let _ = writeln!(out, "\nworker dedication (simulated annealing):");
            let _ = writeln!(
                out,
                "  {} evaluations, {} accepted, {} improvements",
                sa.evaluations, sa.accepted, sa.improvements
            );
            let _ = writeln!(
                out,
                "  cost {:.3} s -> {:.3} s ({:.2}% better than the identity mapping)",
                sa.initial_cost,
                sa.best_cost,
                100.0 * sa.improvement()
            );
            if let Some(t) = &rec.tempering {
                let _ = writeln!(
                    out,
                    "  tempering: {} replicas, exchange every {} iterations, {}/{} exchanges accepted",
                    t.replicas, t.exchange_interval, t.exchanges_accepted, t.exchanges_attempted
                );
            }
        }
        None => {
            let _ = writeln!(out, "\nworker dedication: disabled (identity mapping)");
        }
    }

    if !rec.alternatives.is_empty() {
        let _ = writeln!(out, "\nrunner-up configurations:");
        for (i, alt) in rec.alternatives.iter().take(top_k).enumerate() {
            let _ = writeln!(
                out,
                "  #{} (pp={}, tp={}, dp={}) micro={}  {:.3} s  (+{:.1}%)",
                i + 2,
                alt.config.pp,
                alt.config.tp,
                alt.config.dp,
                alt.plan.micro_batch,
                alt.estimated_seconds,
                pct(alt.estimated_seconds - total)
            );
        }
    }
    out
}

/// Renders the metrics section of the `explain` report from the trace's
/// `counter` / `histogram` events: the run's own accounting (candidates
/// examined, SA evaluations, per-candidate estimate latency) as the
/// configurator recorded it, not re-derived. Empty when the trace
/// carries no metrics events.
pub fn render_metrics(trace: &Trace) -> String {
    let mut out = String::new();
    let counters: Vec<(&str, u64)> = trace
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Counter { name, value } => Some((name.as_str(), *value)),
            _ => None,
        })
        .collect();
    let histograms: Vec<(&str, u64, f64, f64, f64)> = trace
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Histogram {
                name,
                count,
                sum,
                min,
                max,
                ..
            } => Some((name.as_str(), *count, *sum, *min, *max)),
            _ => None,
        })
        .collect();
    if counters.is_empty() && histograms.is_empty() {
        return out;
    }
    let _ = writeln!(out, "\nrun metrics (from the telemetry trace):");
    let width = counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(histograms.iter().map(|(n, ..)| n.len()))
        .max()
        .unwrap_or(0);
    for (name, value) in &counters {
        let _ = writeln!(out, "  {name:<width$}  {value}");
    }
    for (name, count, sum, min, max) in &histograms {
        let mean = if *count > 0 { sum / *count as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "  {name:<width$}  n={count} mean={mean:.6} min={min:.6} max={max:.6}"
        );
    }
    out
}

/// One row of the `--compare` table.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Method name.
    pub method: String,
    /// Chosen configuration, rendered.
    pub config: String,
    /// Measured iteration seconds (infinite if nothing ran).
    pub seconds: f64,
    /// Cluster launches spent.
    pub launches: usize,
}

/// Runs Pipette plus the three baselines on the spec's job.
///
/// # Errors
///
/// Propagates spec errors; methods that find nothing runnable produce
/// rows with infinite seconds rather than failing the run.
pub fn run_compare(spec: &JobSpec) -> Result<Vec<CompareRow>, Box<dyn Error>> {
    let cluster = spec.build_cluster()?;
    let gpt = spec.build_model()?;
    let runner = ClusterRun::new(&cluster, &gpt);
    let mut rows = Vec::new();

    if let Some(t) = MegatronTuner::new(&cluster, &gpt, spec.global_batch)
        .with_max_micro(spec.max_micro)
        .tune(&runner)
    {
        rows.push(CompareRow {
            method: "megatron-lm".into(),
            config: format!("{} micro={}", t.config, t.plan.micro_batch),
            seconds: t.measured.iteration_seconds,
            launches: t.trials,
        });
    }

    // Varuna is AMP's ranking over the pipeline-only (tp = 1)
    // configurations, walked with recomputation on.
    let amp =
        AmpConfigurator::new(&cluster, &gpt, spec.global_batch).with_max_micro(spec.max_micro);
    let vr_runner = ClusterRun::new(&cluster, &gpt).with_recompute(true);
    let vr = amp.rank_where(|cfg| cfg.tp == 1);
    if let Some(hit) = first_runnable(&vr, &vr_runner) {
        rows.push(CompareRow {
            method: "varuna".into(),
            config: format!(
                "{} micro={}",
                hit.candidate.config, hit.candidate.plan.micro_batch
            ),
            seconds: hit.measured.iteration_seconds,
            launches: hit.attempts,
        });
    }

    if let Some(hit) = first_runnable(&amp.rank(), &runner) {
        rows.push(CompareRow {
            method: "amp".into(),
            config: format!(
                "{} micro={}",
                hit.candidate.config, hit.candidate.plan.micro_batch
            ),
            seconds: hit.measured.iteration_seconds,
            launches: hit.attempts,
        });
    }

    let report = run_configure(spec)?;
    rows.push(CompareRow {
        method: "pipette".into(),
        config: format!(
            "(pp={}, tp={}, dp={}) micro={}",
            report.pp, report.tp, report.dp, report.micro_batch
        ),
        seconds: report.measured_seconds,
        launches: 1,
    });
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ClusterSpec, ModelSpec};
    use pipette_obs::EventTag;

    fn small_spec() -> JobSpec {
        JobSpec {
            cluster: ClusterSpec {
                preset: "mid-range".into(),
                nodes: 2,
                seed: 3,
            },
            model: ModelSpec::Custom {
                layers: 8,
                hidden: 1024,
                heads: 16,
                seq_len: 2048,
                vocab: 51200,
            },
            global_batch: 64,
            max_micro: 4,
            worker_dedication: true,
            sa_iterations: 1_500,
            seed: 1,
            replicas: 1,
            exchange_interval: 512,
            memory_training_iterations: 1_500,
            estimator_cache_dir: None,
        }
    }

    #[test]
    fn configure_produces_a_runnable_report() {
        let report = run_configure(&small_spec()).expect("feasible job");
        assert_eq!(report.pp * report.tp * report.dp, 16);
        assert!(report.measured_seconds > 0.0);
        assert!(report.peak_memory_gib < 16.0);
        assert_eq!(report.mapping.len(), 16);
    }

    #[test]
    fn compare_includes_all_four_methods() {
        let rows = run_compare(&small_spec()).expect("feasible job");
        let names: Vec<&str> = rows.iter().map(|r| r.method.as_str()).collect();
        assert!(names.contains(&"pipette"));
        assert!(names.contains(&"megatron-lm"));
        assert!(names.contains(&"amp"));
        assert!(names.contains(&"varuna"));
        let pipette = rows.iter().find(|r| r.method == "pipette").unwrap();
        let amp = rows.iter().find(|r| r.method == "amp").unwrap();
        assert!(pipette.seconds <= amp.seconds * 1.03);
    }

    #[test]
    fn explain_report_names_every_section() {
        let mut trace = Trace::new(pipette_obs::TraceConfig::default());
        let (report, rec) =
            run_configure_traced(&small_spec(), Some(&mut trace)).expect("feasible job");
        let text = render_explain(&report, &rec, 5);
        for needle in [
            "recommendation:",
            "latency breakdown",
            "pipeline bubble",
            "straggler stages",
            "hidden critical",
            "optimizer step",
            "memory (worst stage",
            "worker dedication",
            "runner-up configurations:",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // The traced run recorded the recommendation it explains.
        assert_eq!(trace.count_tag(EventTag::RunStart), 1);
        assert_eq!(trace.count_tag(EventTag::Recommendation), 1);
        assert!(trace.count_tag(EventTag::LatencyEstimate) > 0);
    }

    #[test]
    fn tempered_configure_surfaces_replica_count() {
        let single = run_configure(&small_spec()).expect("feasible job");
        assert_eq!(single.replicas, 1, "single chain reports 1");
        let mut spec = small_spec();
        spec.replicas = 2;
        spec.exchange_interval = 256;
        let report = run_configure(&spec).expect("feasible job");
        assert_eq!(report.replicas, 2);
        assert_eq!(report.pp * report.tp * report.dp, 16);
        // Tempering may find a different mapping but never a worse one
        // than the identity-mapping estimate it started from.
        assert!(report.estimated_seconds > 0.0);
    }

    #[test]
    fn report_serializes_to_json() {
        let report = run_configure(&small_spec()).expect("feasible job");
        let json = cli_report_json(&report);
        assert!(json.contains("\"pp\""));
        let back = pipette_obs::json::parse(&json).unwrap();
        assert_eq!(
            back.get("pp")
                .and_then(pipette_obs::json::JsonValue::as_u64),
            Some(report.pp as u64)
        );
    }

    #[test]
    fn drill_report_renders_every_ci_field() {
        let report = DrillReport {
            recommendation: CliReport {
                pp: 2,
                tp: 2,
                dp: 3,
                micro_batch: 4,
                n_microbatches: 8,
                estimated_seconds: 1.25,
                measured_seconds: 1.5,
                peak_memory_gib: 10.0,
                examined: 30,
                memory_rejected: 5,
                mapping: vec![0, 2, 1],
                replicas: 1,
                estimator_cache: None,
            },
            healthy_gpus: 16,
            surviving_gpus: 12,
            excluded_gpus: vec![3, 7, 11, 15],
            profiler_retries: 2,
            imputed_pairs: 4,
            corrupt_samples: 9,
            analytic_memory_fallback: true,
            slowdown_factor: Some(1.4),
            degraded_requests: 0,
        };
        let json = drill_report_json(&report);
        for needle in [
            r#""recommendation":{"pp":2,"tp":2,"dp":3"#,
            r#""mapping":[0,2,1]"#,
            r#""estimator_cache":null"#,
            r#""healthy_gpus":16"#,
            r#""surviving_gpus":12"#,
            r#""excluded_gpus":[3,7,11,15]"#,
            r#""analytic_memory_fallback":true"#,
            r#""slowdown_factor":1.4"#,
            r#""degraded_requests":0"#,
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // The writer's output parses back under the strict scanner.
        assert!(pipette_obs::json::parse(&json).is_ok());
    }

    /// A drill measures its recommendation on the survivors as the fault
    /// episode leaves them, so the measured time tracks the estimate made
    /// from their profile: within 5 % under a degraded link at ×0.5,
    /// ×0.05 and ×0.01, a 4× straggler, and five days of drift. Measured
    /// on the healthy cluster instead, these read 10.4, 5.9, 74, 9.0 and
    /// 6.5 % off.
    #[test]
    fn drill_measures_the_faults_it_estimates() {
        let spec = JobSpec::parse_strict(
            r#"{
                "cluster": { "preset": "mid-range", "nodes": 2, "seed": 3 },
                "model": { "layers": 8, "hidden": 1024, "heads": 16 },
                "global_batch": 64,
                "max_micro": 2,
                "sa_iterations": 800,
                "memory_training_iterations": 1200,
                "seed": 1
            }"#,
        )
        .expect("spec");
        let link = |factor: f64| {
            format!(
                r#"{{"degraded_links": [{{"from_node": 0, "to_node": 1, "factor": {factor}}}]}}"#
            )
        };
        let plans = [
            link(0.5),
            link(0.05),
            link(0.01),
            r#"{"straggler_gpus": [{"gpu": 3, "slowdown": 4.0}]}"#.to_string(),
            r#"{"seed": 2, "drift": {"day": 5, "daily_sigma": 0.2}}"#.to_string(),
        ];
        for text in &plans {
            let plan = crate::spec::parse_fault_plan_strict(text).expect("plan");
            let (report, _) = run_drill_traced(&spec, &plan, None).expect("drill");
            let rec = &report.recommendation;
            let error = (rec.measured_seconds - rec.estimated_seconds).abs() / rec.measured_seconds;
            assert!(
                error < 0.05,
                "{text}: measured {} s against an estimate of {} s",
                rec.measured_seconds,
                rec.estimated_seconds
            );
        }
    }
}
