//! Table I — the experimental environments.
//!
//! Prints the two synthetic clusters side by side with the paper's
//! hardware table, so a reader can check what the substitution preserves.

use crate::context::ClusterKind;
use crate::util;

/// One cluster's specification row.
#[derive(Debug, Clone)]
pub struct ClusterSpecRow {
    /// Cluster label.
    pub cluster: String,
    /// GPU name.
    pub gpu: String,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Node count.
    pub nodes: usize,
    /// Nominal inter-node bandwidth (GiB/s).
    pub inter_gib_s: f64,
    /// Nominal intra-node bandwidth (GiB/s).
    pub intra_gib_s: f64,
    /// GPU memory (GiB).
    pub gpu_memory_gib: f64,
    /// Mean attained inter-node bandwidth (GiB/s) — the synthetic
    /// cluster's realized heterogeneity.
    pub attained_inter_gib_s: f64,
}

/// Builds the specification rows for both clusters.
pub fn run(nodes: usize) -> Vec<ClusterSpecRow> {
    ClusterKind::both()
        .iter()
        .map(|kind| {
            let c = kind.cluster(nodes);
            let bw = c.bandwidth();
            ClusterSpecRow {
                cluster: kind.label().to_owned(),
                gpu: c.gpu().name.clone(),
                gpus_per_node: c.topology().gpus_per_node(),
                nodes: c.topology().num_nodes(),
                inter_gib_s: bw.inter_spec().bandwidth_gib_s,
                intra_gib_s: bw.intra_spec().bandwidth_gib_s,
                gpu_memory_gib: c.gpu().memory_gib(),
                attained_inter_gib_s: bw.mean_inter_node(),
            }
        })
        .collect()
}

/// Prints Table I.
pub fn print(rows: &[ClusterSpecRow]) {
    println!("Table I — experimental environments (synthetic stand-ins for the paper's clusters)");
    util::rule(100);
    println!(
        "{:<12} {:>6} {:>8} {:>8} {:>14} {:>14} {:>16} {:>10}",
        "cluster",
        "GPU",
        "nodes",
        "GPUs",
        "inter nominal",
        "inter attained",
        "intra nominal",
        "GPU mem"
    );
    for r in rows {
        println!(
            "{:<12} {:>6} {:>8} {:>8} {:>10.1} GiB/s {:>10.1} GiB/s {:>12.1} GiB/s {:>7.0} GiB",
            r.cluster,
            r.gpu,
            r.nodes,
            r.nodes * r.gpus_per_node,
            r.inter_gib_s,
            r.attained_inter_gib_s,
            r.intra_gib_s,
            r.gpu_memory_gib
        );
    }
    println!("paper: mid-range = 16x8 V100, IB-EDR 100 Gb/s, NVLink 300 GB/s;");
    println!("       high-end  = 16x8 A100, IB-HDR 200 Gb/s, NVSwitch 600 GB/s");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_specs() {
        let rows = run(16);
        assert_eq!(rows.len(), 2);
        let mid = &rows[0];
        assert_eq!(mid.gpu, "V100");
        assert_eq!(mid.nodes * mid.gpus_per_node, 128);
        assert!((mid.inter_gib_s - 11.64).abs() < 0.01);
        // Attained bandwidth is visibly below nominal (heterogeneity).
        assert!(mid.attained_inter_gib_s < 0.9 * mid.inter_gib_s);
        let high = &rows[1];
        assert_eq!(high.gpu, "A100");
        assert!(high.intra_gib_s > mid.intra_gib_s);
    }
}
