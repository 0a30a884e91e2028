//! Fig. 5a — latency-estimation accuracy of Pipette vs AMP.
//!
//! The paper reports 5.87 % MAPE for Pipette's latency estimator against
//! real iteration times, vs 23.18 % for AMP's Eq. 1 model. We sample every
//! runnable configuration of the target cluster, estimate with both
//! models, and compare against the ground-truth simulator.

use crate::context::ClusterKind;
use crate::util;
use pipette::latency::{AmpLatencyModel, Eq1Flavor, PipetteLatencyModel};
use pipette_model::{candidate_space, ParallelConfig};
use pipette_sim::{ClusterRun, ComputeProfiler, IterationSim, Mapping};

/// One estimated configuration.
#[derive(Debug, Clone, Copy)]
pub struct EstimatePoint {
    /// The configuration.
    pub config: ParallelConfig,
    /// Microbatch size.
    pub micro_batch: u64,
    /// Ground-truth iteration time (seconds).
    pub truth: f64,
    /// Pipette's estimate.
    pub pipette: f64,
    /// AMP's (Eq. 1) estimate.
    pub amp: f64,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct Fig5aResult {
    /// Cluster label.
    pub cluster: String,
    /// Sampled points (runnable configurations only).
    pub points: Vec<EstimatePoint>,
}

impl Fig5aResult {
    /// Pipette estimator MAPE.
    pub fn pipette_mape(&self) -> f64 {
        let (p, t): (Vec<f64>, Vec<f64>) = self.points.iter().map(|x| (x.pipette, x.truth)).unzip();
        util::mape(&p, &t)
    }

    /// AMP model MAPE.
    pub fn amp_mape(&self) -> f64 {
        let (p, t): (Vec<f64>, Vec<f64>) = self.points.iter().map(|x| (x.amp, x.truth)).unzip();
        util::mape(&p, &t)
    }
}

/// Evaluates both estimators over every runnable configuration of the
/// cluster at `global_batch`.
pub fn run(kind: ClusterKind, nodes: usize, global_batch: u64, seed: u64) -> Fig5aResult {
    let cluster = kind.cluster(nodes);
    let gpt = kind.model_for_gpus(cluster.topology().num_gpus());
    let runner = ClusterRun::new(&cluster, &gpt);
    let gpu = cluster.gpu().clone();
    let (profiled, _) = cluster.profiler().profile(cluster.bandwidth(), seed);
    let ppt_model = PipetteLatencyModel::new(&profiled, &gpt);
    // Fig. 5a measures Eq. 1 exactly as the paper writes it (scalar C).
    let amp_model =
        AmpLatencyModel::from_specs_of(cluster.bandwidth(), &gpt).with_flavor(Eq1Flavor::Scalar);
    let profiler = ComputeProfiler::default();
    let topo = cluster.topology();

    let mut points = Vec::new();
    let space = candidate_space(
        topo.num_gpus(),
        topo.gpus_per_node(),
        gpt.n_layers,
        global_batch,
        8,
    );
    for (cfg, plans) in space {
        for plan in plans {
            if runner.peak_memory(cfg, plan).peak_bytes > cluster.gpu().memory_bytes {
                continue;
            }
            let mapping = Mapping::identity(cfg, *topo);
            let truth = IterationSim::new(cluster.bandwidth(), &gpu, &gpt)
                .simulate(cfg, &mapping, plan)
                .total_seconds;
            let compute = profiler.profile(cluster.bandwidth(), &gpu, &gpt, cfg, plan, seed ^ 0x5a);
            let pipette = ppt_model.estimate(cfg, &mapping, plan, &compute);
            let amp = amp_model.estimate(cfg, plan, &compute);
            points.push(EstimatePoint {
                config: cfg,
                micro_batch: plan.micro_batch,
                truth,
                pipette,
                amp,
            });
        }
    }
    Fig5aResult {
        cluster: kind.label().to_owned(),
        points,
    }
}

/// Prints the MAPE comparison and the worst offenders.
pub fn print(r: &Fig5aResult) {
    println!(
        "Fig. 5a — latency estimation accuracy ({} cluster, {} runnable configs)",
        r.cluster,
        r.points.len()
    );
    util::rule(78);
    println!("{:<22} {:>12} {:>12}", "estimator", "measured", "paper");
    println!(
        "{:<22} {:>11.2}% {:>12}",
        "AMP (Eq. 1)",
        r.amp_mape() * 100.0,
        "23.18%"
    );
    println!(
        "{:<22} {:>11.2}% {:>12}",
        "Pipette (Eqs. 3-6)",
        r.pipette_mape() * 100.0,
        "5.87%"
    );
    util::rule(78);
    let mut worst: Vec<&EstimatePoint> = r.points.iter().collect();
    worst.sort_by(|a, b| {
        let ea = (a.amp - a.truth).abs() / a.truth;
        let eb = (b.amp - b.truth).abs() / b.truth;
        eb.total_cmp(&ea)
    });
    println!("worst AMP mis-estimates:");
    for p in worst.iter().take(4) {
        println!(
            "  {} micro={}: truth {:.3}s  amp {:.3}s ({:+.1}%)  pipette {:.3}s ({:+.1}%)",
            p.config,
            p.micro_batch,
            p.truth,
            p.amp,
            (p.amp / p.truth - 1.0) * 100.0,
            p.pipette,
            (p.pipette / p.truth - 1.0) * 100.0,
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipette_is_far_more_accurate_than_amp() {
        let r = run(ClusterKind::MidRange, 8, 256, 3);
        assert!(r.points.len() >= 6, "need a population: {}", r.points.len());
        let (ppt, amp) = (r.pipette_mape(), r.amp_mape());
        assert!(ppt < 0.10, "Pipette MAPE too high: {ppt:.3}");
        assert!(
            amp > 2.0 * ppt,
            "AMP {amp:.3} should be much worse than Pipette {ppt:.3}"
        );
    }
}
