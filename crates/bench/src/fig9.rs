//! Fig. 9 — micro/minibatch-size sensitivity.
//!
//! Two sweeps on the default clusters, comparing Pipette (PPT-LF) against
//! AMP when the batch shape is pinned:
//!
//! * microbatch ∈ {1, 2, 4, 8} with the minibatch fixed at 256;
//! * minibatch ∈ {64 … 1024} with the microbatch fixed at 8.
//!
//! The paper reports a stable 1.14–1.44× speedup across all settings.

use crate::context::ClusterKind;
use crate::fig6::execute_recommendation;
use crate::util;
use pipette::baselines::{first_runnable, AmpConfigurator};
use pipette::configurator::{Pipette, PipetteOptions};
use pipette::mapping::AnnealerConfig;
use pipette_sim::ClusterRun;

/// One sensitivity point.
#[derive(Debug, Clone)]
pub struct SensitivityPoint {
    /// The pinned value (micro- or minibatch size).
    pub pinned: u64,
    /// AMP's measured iteration time (seconds; INFINITY if nothing ran).
    pub amp_seconds: f64,
    /// Pipette's measured iteration time.
    pub pipette_seconds: f64,
}

impl SensitivityPoint {
    /// Speedup of Pipette over AMP.
    pub fn speedup(&self) -> f64 {
        self.amp_seconds / self.pipette_seconds
    }
}

/// Result of one sweep.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Cluster label.
    pub cluster: String,
    /// Which quantity the sweep pins ("microbatch" / "minibatch").
    pub sweep: String,
    /// Sweep points.
    pub points: Vec<SensitivityPoint>,
}

fn run_pinned(
    kind: ClusterKind,
    nodes: usize,
    global_batch: u64,
    micro: u64,
    sa_iterations: usize,
    seed: u64,
) -> (f64, f64) {
    let cluster = kind.cluster(nodes);
    let gpt = kind.model_for_gpus(cluster.topology().num_gpus());
    let runner = ClusterRun::new(&cluster, &gpt);

    // AMP with the microbatch capped at `micro` (both tools sweep the
    // same cap: "recent works use microbatch sizes from 1 to 8").
    let ranked: Vec<_> = AmpConfigurator::new(&cluster, &gpt, global_batch)
        .with_max_micro(micro)
        .rank();
    let amp_seconds = first_runnable(&ranked, &runner)
        .map(|h| h.measured.iteration_seconds)
        .unwrap_or(f64::INFINITY);

    // Pipette under the same cap.
    let mut memory = pipette::memory::MemoryEstimatorConfig::default();
    memory.train.iterations = 3_000;
    let opts = PipetteOptions {
        max_micro: micro,
        annealer: AnnealerConfig {
            iterations: sa_iterations,
            ..AnnealerConfig::default()
        },
        seed,
        memory,
        ..PipetteOptions::default()
    };
    let rec = Pipette::new(&cluster, &gpt, global_batch, opts).run();
    let pipette_seconds = execute_recommendation("PPT-LF", rec, &runner).iteration_seconds;
    (amp_seconds, pipette_seconds)
}

/// Microbatch sweep at fixed minibatch (paper: minibatch 256).
pub fn run_micro_sweep(
    kind: ClusterKind,
    nodes: usize,
    micros: &[u64],
    sa_iterations: usize,
    seed: u64,
) -> Fig9Result {
    // Paper fixes the minibatch at 256 for the microbatch sensitivity.
    let global_batch = 256;
    let points = micros
        .iter()
        .map(|&m| {
            let (amp, ppt) = run_pinned(kind, nodes, global_batch, m, sa_iterations, seed);
            SensitivityPoint {
                pinned: m,
                amp_seconds: amp,
                pipette_seconds: ppt,
            }
        })
        .collect();
    Fig9Result {
        cluster: kind.label().to_owned(),
        sweep: "microbatch".into(),
        points,
    }
}

/// Minibatch sweep at fixed microbatch (paper: microbatch 8).
pub fn run_mini_sweep(
    kind: ClusterKind,
    nodes: usize,
    minis: &[u64],
    sa_iterations: usize,
    seed: u64,
) -> Fig9Result {
    let points = minis
        .iter()
        .map(|&global| {
            let (amp, ppt) = run_pinned(kind, nodes, global, 8, sa_iterations, seed);
            SensitivityPoint {
                pinned: global,
                amp_seconds: amp,
                pipette_seconds: ppt,
            }
        })
        .collect();
    Fig9Result {
        cluster: kind.label().to_owned(),
        sweep: "minibatch".into(),
        points,
    }
}

/// Prints a sweep.
pub fn print(r: &Fig9Result) {
    println!(
        "Fig. 9 — {} sensitivity ({} cluster); paper: stable 1.14-1.44x over AMP",
        r.sweep, r.cluster
    );
    util::rule(70);
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        r.sweep.as_str(),
        "AMP",
        "Pipette",
        "speedup"
    );
    for p in &r.points {
        println!(
            "{:<12} {:>12} {:>12} {:>9.2}x",
            p.pinned,
            util::secs(p.amp_seconds),
            util::secs(p.pipette_seconds),
            p.speedup()
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_sensitivity_never_loses() {
        let r = run_micro_sweep(ClusterKind::MidRange, 4, &[1, 2], 3_000, 3);
        for p in &r.points {
            assert!(
                p.pipette_seconds.is_finite(),
                "Pipette must run at micro={}",
                p.pinned
            );
            assert!(
                p.speedup() > 0.97,
                "Pipette should match or beat AMP at micro={}: {:.3}",
                p.pinned,
                p.speedup()
            );
        }
    }
}
