//! Fig. 3 — 40-day continuous profile of inter-node communication latency.
//!
//! The paper plots, for each ordered pair of 8 nodes of the high-end
//! cluster, the latency of the inter-stage message over 40 days of
//! mpiGraph profiling: the pairs are clearly separated (heterogeneity) and
//! wander over time (drift). We regenerate the same series from the
//! temporal-drift model.

use crate::context::ClusterKind;
use crate::util;
use pipette_cluster::{NodeId, TemporalDrift};

/// Latency trace of one ordered node pair.
#[derive(Debug, Clone)]
pub struct PairTrace {
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Per-day transfer latency of the reference message, milliseconds.
    pub latency_ms: Vec<f64>,
}

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Days profiled.
    pub days: usize,
    /// Message size used for the latency conversion (bytes).
    pub message_bytes: u64,
    /// One trace per ordered node pair.
    pub traces: Vec<PairTrace>,
}

impl Fig3Result {
    /// Ratio between the slowest and fastest pair's mean latency — the
    /// heterogeneity headline (clearly > 1 on real clusters).
    pub fn spread(&self) -> f64 {
        let means: Vec<f64> = self
            .traces
            .iter()
            .map(|t| t.latency_ms.iter().sum::<f64>() / t.latency_ms.len() as f64)
            .collect();
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = means.iter().cloned().fold(0.0, f64::max);
        max / min
    }

    /// Mean day-to-day relative change, averaged over pairs — the temporal
    /// drift headline.
    pub fn mean_daily_drift(&self) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for t in &self.traces {
            for w in t.latency_ms.windows(2) {
                sum += (w[1] / w[0] - 1.0).abs();
                count += 1;
            }
        }
        sum / count.max(1) as f64
    }
}

/// Runs the 40-day profile on `nodes` nodes of the chosen cluster
/// (the paper uses 8 nodes of the high-end environment).
pub fn run(kind: ClusterKind, nodes: usize, days: usize, seed: u64) -> Fig3Result {
    let cluster = kind.cluster(nodes);
    // The inter-stage message of the cluster's default model at micro = 1.
    let gpt = kind.default_model();
    let message_bytes = pipette_model::messages::pp_message_bytes(&gpt, 1);
    let series = TemporalDrift::default().series(cluster.bandwidth(), days, seed);
    let mut traces = Vec::new();
    for i in 0..nodes {
        for j in 0..nodes {
            if i == j {
                continue;
            }
            let latency_ms: Vec<f64> = series
                .iter()
                .map(|m| {
                    let bw = m.node_pair(NodeId(i), NodeId(j));
                    (message_bytes as f64 / (bw * pipette_cluster::GIB)) * 1e3
                })
                .collect();
            traces.push(PairTrace {
                from: i,
                to: j,
                latency_ms,
            });
        }
    }
    Fig3Result {
        days,
        message_bytes,
        traces,
    }
}

/// Prints summary statistics plus a text rendering of a few traces.
pub fn print(r: &Fig3Result) {
    println!(
        "Fig. 3 — inter-stage communication latency over {} days ({} node pairs, {} KiB message)",
        r.days,
        r.traces.len(),
        r.message_bytes / 1024
    );
    util::rule(80);
    println!(
        "pair spread (slowest/fastest mean): {:.2}x   mean daily drift: {:.1} %",
        r.spread(),
        r.mean_daily_drift() * 100.0
    );
    println!("paper: pairs exhibit clearly different latencies despite equal specs");
    util::rule(80);
    // Render the fastest, median, and slowest pairs as sparkline-ish rows.
    let mut order: Vec<usize> = (0..r.traces.len()).collect();
    order.sort_by(|&a, &b| {
        let ma: f64 = r.traces[a].latency_ms.iter().sum();
        let mb: f64 = r.traces[b].latency_ms.iter().sum();
        ma.total_cmp(&mb)
    });
    let picks = [order[0], order[order.len() / 2], order[order.len() - 1]];
    for idx in picks {
        let t = &r.traces[idx];
        let max = t.latency_ms.iter().cloned().fold(0.0, f64::max);
        let bars: String = t
            .latency_ms
            .iter()
            .map(|&v| char::from_digit(((v / max * 8.0) as u32).clamp(1, 9), 10).unwrap_or('?'))
            .collect();
        let mean = t.latency_ms.iter().sum::<f64>() / t.latency_ms.len() as f64;
        println!(
            "node{:>2} -> node{:<2} mean {mean:>6.2} ms  [{bars}]",
            t.from, t.to
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_day_profile_shows_heterogeneity_and_drift() {
        let r = run(ClusterKind::HighEnd, 8, 40, 11);
        assert_eq!(r.traces.len(), 56);
        assert!(r.traces.iter().all(|t| t.latency_ms.len() == 40));
        // The paper's core observations.
        assert!(
            r.spread() > 1.5,
            "pairs should differ: spread {}",
            r.spread()
        );
        let drift = r.mean_daily_drift();
        assert!(
            drift > 0.005 && drift < 0.2,
            "drift should be visible but bounded: {drift}"
        );
    }

    #[test]
    fn deterministic() {
        let a = run(ClusterKind::HighEnd, 4, 10, 3);
        let b = run(ClusterKind::HighEnd, 4, 10, 3);
        assert_eq!(a.traces.len(), b.traces.len());
        assert_eq!(a.traces[5].latency_ms, b.traces[5].latency_ms);
    }
}
