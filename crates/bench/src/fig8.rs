//! Fig. 8 — cluster/model-size scalability.
//!
//! Weak-scaling sweep: 32→128 GPUs with the model grown alongside
//! (following Megatron-LM practice). The paper reports Pipette keeps a
//! 1.02–1.17× speedup over AMP even on smaller clusters where
//! heterogeneity has fewer links to express itself.

use crate::context::ClusterKind;
use crate::fig6::{self, Fig6Options};
use crate::util;

/// One weak-scaling point.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// GPUs used.
    pub n_gpus: usize,
    /// Model size (billions).
    pub model_billions: f64,
    /// AMP's measured iteration time.
    pub amp_seconds: f64,
    /// Pipette's (PPT-LF) measured iteration time.
    pub pipette_seconds: f64,
}

impl ScalePoint {
    /// Speedup of Pipette over AMP.
    pub fn speedup(&self) -> f64 {
        self.amp_seconds / self.pipette_seconds
    }
}

/// The sweep result for one cluster.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// Cluster label.
    pub cluster: String,
    /// One point per GPU count.
    pub points: Vec<ScalePoint>,
}

/// Runs the weak-scaling sweep over `gpu_counts` (the paper uses
/// 32/64/96/128; 96 is skipped when the node count is not divisible).
pub fn run(
    kind: ClusterKind,
    gpu_counts: &[usize],
    global_batch: u64,
    opts: &Fig6Options,
) -> Fig8Result {
    let mut points = Vec::new();
    for &g in gpu_counts {
        debug_assert!(g % 8 == 0, "GPU counts must be whole nodes");
        let nodes = g / 8;
        let r = fig6::run(kind, nodes, global_batch, opts);
        let model = kind.model_for_gpus(g);
        points.push(ScalePoint {
            n_gpus: g,
            model_billions: model.size_billions(),
            amp_seconds: r.seconds_of("AMP"),
            pipette_seconds: r.seconds_of("PPT-LF"),
        });
    }
    Fig8Result {
        cluster: kind.label().to_owned(),
        points,
    }
}

/// Prints the sweep with the paper's reference band.
pub fn print(r: &Fig8Result) {
    println!(
        "Fig. 8 — weak-scaling speedup of Pipette over AMP ({} cluster)",
        r.cluster
    );
    util::rule(78);
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>10} {:>14}",
        "GPUs", "model", "AMP", "Pipette", "speedup", "paper band"
    );
    for p in &r.points {
        println!(
            "{:<8} {:>8.1}B {:>12} {:>12} {:>9.2}x {:>14}",
            p.n_gpus,
            p.model_billions,
            util::secs(p.amp_seconds),
            util::secs(p.pipette_seconds),
            p.speedup(),
            "1.02-1.17x"
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_holds_across_scales() {
        let r = run(ClusterKind::MidRange, &[32, 64], 256, &Fig6Options::quick());
        assert_eq!(r.points.len(), 2);
        for p in &r.points {
            assert!(
                p.speedup() > 0.97,
                "Pipette should not lose at {} GPUs: {:.3}",
                p.n_gpus,
                p.speedup()
            );
            assert!(p.pipette_seconds.is_finite());
        }
    }
}
