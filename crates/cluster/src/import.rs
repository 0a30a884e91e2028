//! Importing measured bandwidth matrices.
//!
//! Real deployments would feed Pipette the output of mpiGraph or
//! NCCL-tests instead of a synthetic heterogeneity model. This module
//! parses the mpiGraph result table — a whitespace/comma-separated matrix
//! of per-node-pair send bandwidths (MB/s, as mpiGraph reports) — and
//! expands it to a GPU-level [`BandwidthMatrix`].

use crate::bandwidth::BandwidthMatrix;
use crate::error::ClusterError;
use crate::link::LinkSpec;
use crate::topology::ClusterTopology;

/// Parses an mpiGraph-style send-bandwidth table.
///
/// Expected layout (header row/column optional, `-` or `0` on the
/// diagonal):
///
/// ```text
/// to:     node0   node1   node2
/// node0   -       9500    11800
/// node1   9400    -       10100
/// node2   11700   10000   -
/// ```
///
/// Values are MB/s per node pair. Every GPU pair across two nodes
/// inherits the node-pair bandwidth; intra-node pairs run at
/// `intra_spec`'s nominal speed.
///
/// # Errors
///
/// Returns [`ClusterError::MalformedMatrix`] when the table is ragged or
/// empty, when an off-diagonal cell does not parse or does not convert
/// to a finite positive GiB/s value (the error names the first such node
/// pair in row-major order and its table value), or when
/// `intra_spec`'s bandwidth is not finite and positive; and
/// [`ClusterError::InvalidParameter`] when `gpus_per_node` is zero.
pub fn parse_mpigraph(
    text: &str,
    gpus_per_node: usize,
    intra_spec: LinkSpec,
    inter_spec: LinkSpec,
) -> Result<BandwidthMatrix, ClusterError> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cells: Vec<&str> = line
            .split(|c: char| c.is_whitespace() || c == ',')
            .filter(|s| !s.is_empty())
            .collect();
        // Keep the numeric payload: "-" (diagonal) and parseable numbers.
        // Labels ("node3", "to:") are dropped; a line with no payload at
        // all is a header. A line that mixes unparseable tokens *between*
        // numbers is malformed.
        let first_numeric = cells
            .iter()
            .position(|c| *c == "-" || c.parse::<f64>().is_ok());
        let Some(first_numeric) = first_numeric else {
            continue;
        };
        let mut row = Vec::with_capacity(cells.len() - first_numeric);
        for cell in &cells[first_numeric..] {
            if *cell == "-" {
                row.push(0.0);
            } else {
                let v: f64 = cell.parse().map_err(|_| ClusterError::MalformedMatrix {
                    reason: format!("cannot parse bandwidth cell {cell:?}"),
                })?;
                row.push(v);
            }
        }
        rows.push(row);
    }
    let n = rows.len();
    if n == 0 {
        return Err(ClusterError::MalformedMatrix {
            reason: "empty table".into(),
        });
    }
    if rows.iter().any(|r| r.len() != n) {
        return Err(ClusterError::MalformedMatrix {
            reason: format!("table is not square ({n} rows)"),
        });
    }

    // Expand to GPUs: every pair across two nodes inherits the node
    // pair's cell, converted to GiB/s, and intra-node pairs run at the
    // nominal speed. The one link check then runs on the values the
    // matrix stores, so a cell that converts to infinity or to zero is
    // caught as surely as a bad cell.
    let topology = ClusterTopology::try_new(n, gpus_per_node)?;
    let gpus = n * gpus_per_node;
    const MB: f64 = 1e6;
    let mut data = Vec::with_capacity(gpus * gpus);
    for from in 0..gpus {
        let i = from / gpus_per_node;
        let row = &rows[i];
        data.extend((0..gpus).map(|to| {
            let j = to / gpus_per_node;
            if to == from {
                f64::INFINITY
            } else if j == i {
                intra_spec.bandwidth_gib_s
            } else {
                row[j] * MB / crate::link::GIB
            }
        }));
    }
    let matrix = BandwidthMatrix::with_data(topology, intra_spec, inter_spec, data)?;
    match matrix.first_invalid_link() {
        None => Ok(matrix),
        Some((from, to, value)) => {
            let (i, j) = (from / gpus_per_node, to / gpus_per_node);
            let reason = if i == j {
                format!("intra-node bandwidth is {value:?} GiB/s, must be finite and positive")
            } else {
                format!(
                    "bandwidth at ({i},{j}) is {:?} MB/s, not a finite positive GiB/s value",
                    rows[i][j]
                )
            };
            Err(ClusterError::MalformedMatrix { reason })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{GpuId, NodeId};

    fn specs() -> (LinkSpec, LinkSpec) {
        (LinkSpec::new(279.0, 3e-6), LinkSpec::new(11.64, 6e-6))
    }

    const SAMPLE: &str = "\
# mpiGraph send bandwidth (MB/s)
to:     node0   node1   node2
node0   -       9500    11800
node1   9400    -       10100
node2   11700   10000   -
";

    #[test]
    fn parses_labeled_table() {
        let (intra, inter) = specs();
        let m = parse_mpigraph(SAMPLE, 4, intra, inter).expect("valid table");
        assert_eq!(m.topology().num_nodes(), 3);
        assert_eq!(m.topology().gpus_per_node(), 4);
        // 9500 MB/s = 8.85 GiB/s.
        let v = m.node_pair(NodeId(0), NodeId(1));
        assert!((v - 9500.0 * 1e6 / (1024.0f64.powi(3))).abs() < 1e-9);
        // Asymmetric directions preserved.
        assert!(m.node_pair(NodeId(0), NodeId(1)) > m.node_pair(NodeId(1), NodeId(0)));
        // Intra-node pairs at nominal NVLink.
        assert_eq!(m.between(GpuId(0), GpuId(1)), intra.bandwidth_gib_s);
    }

    #[test]
    fn parses_bare_numeric_table() {
        let (intra, inter) = specs();
        let text = "0 1000\n1000 0\n";
        let m = parse_mpigraph(text, 8, intra, inter).expect("valid");
        assert_eq!(m.topology().num_nodes(), 2);
    }

    #[test]
    fn rejects_ragged_and_bad_cells() {
        let (intra, inter) = specs();
        assert!(parse_mpigraph("", 4, intra, inter).is_err());
        assert!(parse_mpigraph("0 100\n100 0 3\n", 4, intra, inter).is_err());
        assert!(parse_mpigraph("0 abc\n100 0\n", 4, intra, inter).is_err());
        assert!(parse_mpigraph("0 -5\n100 0\n", 4, intra, inter).is_err());
    }

    /// The error for a table whose (0,1) cell is `cell`.
    fn off_diagonal_error(cell: &str) -> String {
        let (intra, inter) = specs();
        let text = format!("0 {cell}\n100 0\n");
        match parse_mpigraph(&text, 4, intra, inter) {
            Err(e @ ClusterError::MalformedMatrix { .. }) => e.to_string(),
            other => panic!("cell {cell:?} must be a malformed matrix, got {other:?}"),
        }
    }

    #[test]
    fn rejects_nan_cells() {
        assert!(off_diagonal_error("nan").contains("(0,1) is NaN"));
    }

    #[test]
    fn rejects_infinite_cells() {
        assert!(off_diagonal_error("inf").contains("(0,1) is inf"));
        assert!(off_diagonal_error("-inf").contains("(0,1) is -inf"));
    }

    /// The error for `table` at `gpus_per_node`, which must be a
    /// malformed matrix.
    fn malformed(table: &str, gpus_per_node: usize, intra: LinkSpec) -> String {
        let (_, inter) = specs();
        match parse_mpigraph(table, gpus_per_node, intra, inter) {
            Err(e @ ClusterError::MalformedMatrix { .. }) => e.to_string(),
            other => panic!("{table:?} must be a malformed matrix, got {other:?}"),
        }
    }

    /// A cell that overflows to infinity or underflows to zero in GiB/s
    /// is as unusable as NaN, zero or a negative cell, on either side of
    /// the diagonal and at any node width: the error names the node pair
    /// and the cell as the table wrote it.
    #[test]
    fn rejects_cells_that_do_not_convert_to_a_usable_link() {
        let (intra, _) = specs();
        for cell in ["1e308", "5e-324", "nan", "0", "-1"] {
            let value: f64 = cell.parse().unwrap();
            let above = format!("- {cell} 100\n100 - 100\n100 100 -\n");
            let below = format!("- 100 100\n100 - 100\n100 {cell} -\n");
            for (table, pair) in [(above, "(0,1)"), (below, "(2,1)")] {
                for gpus_per_node in [1, 4] {
                    let err = malformed(&table, gpus_per_node, intra);
                    let expected = format!("bandwidth at {pair} is {value:?} MB/s");
                    assert!(err.contains(&expected), "{cell} at {pair}: {err}");
                }
            }
        }
    }

    /// The first bad node pair in row-major order is the one named, and a
    /// bad nominal intra-node speed is caught by the same scan.
    #[test]
    fn names_the_first_bad_pair_and_a_bad_intra_node_speed() {
        let (intra, _) = specs();
        let err = malformed("- 100 0\n-1 - 100\n100 100 -\n", 2, intra);
        assert!(err.contains("bandwidth at (0,2) is 0.0 MB/s"), "{err}");
        let nan_intra = LinkSpec {
            bandwidth_gib_s: f64::NAN,
            latency_s: 3e-6,
        };
        let err = malformed("0 100\n100 0\n", 2, nan_intra);
        assert!(err.contains("intra-node bandwidth is NaN GiB/s"), "{err}");
        // One GPU per node has no intra-node link to check.
        let (_, inter) = specs();
        assert!(parse_mpigraph("0 100\n100 0\n", 1, nan_intra, inter).is_ok());
    }

    #[test]
    fn rejects_zero_gpus_per_node() {
        let (intra, inter) = specs();
        match parse_mpigraph(SAMPLE, 0, intra, inter) {
            Err(ClusterError::InvalidParameter { name, .. }) => assert_eq!(name, "gpus_per_node"),
            other => panic!("0 GPUs per node must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn imported_matrix_drives_the_stack() {
        // End-to-end: an imported matrix is a first-class BandwidthMatrix.
        let (intra, inter) = specs();
        let m = parse_mpigraph(SAMPLE, 4, intra, inter).unwrap();
        assert!(m.mean_inter_node() > 8.0);
        let t = m.truncated(2);
        assert_eq!(t.topology().num_nodes(), 2);
    }
}
