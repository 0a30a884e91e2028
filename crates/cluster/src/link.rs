//! Interconnect link classes and their nominal (document-specified) specs.

use std::fmt;

/// The fabric a pair of GPUs communicates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Same GPU — no transfer needed.
    Loopback,
    /// GPUs on the same node (NVLink / NVSwitch).
    IntraNode,
    /// GPUs on different nodes (InfiniBand).
    InterNode,
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkClass::Loopback => "loopback",
            LinkClass::IntraNode => "intra-node",
            LinkClass::InterNode => "inter-node",
        };
        f.write_str(s)
    }
}

/// Nominal link characteristics as printed on the datasheet.
///
/// The paper's point is precisely that these numbers are *not* what a real
/// cluster attains per link; [`crate::HeterogeneityModel`] perturbs them
/// into an attained-bandwidth matrix. Baselines such as AMP consume the
/// nominal values directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Peak point-to-point bandwidth in GiB/s.
    pub bandwidth_gib_s: f64,
    /// Per-message latency (the alpha term) in seconds.
    pub latency_s: f64,
}

impl LinkSpec {
    /// Creates a spec from bandwidth (GiB/s) and latency (seconds).
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not strictly positive or latency is negative.
    pub fn new(bandwidth_gib_s: f64, latency_s: f64) -> Self {
        // pipette-lint: allow(D2) -- documented `# Panics` contract for hand-authored link specs
        assert!(bandwidth_gib_s > 0.0, "bandwidth must be positive");
        assert!(latency_s >= 0.0, "latency must be non-negative");
        Self {
            bandwidth_gib_s,
            latency_s,
        }
    }

    /// Time in seconds to move `bytes` over this link at nominal speed.
    pub fn transfer_time_s(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.bandwidth_gib_s * GIB)
    }
}

/// One GiB in bytes, as `f64` for bandwidth arithmetic.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Converts a link-level bandwidth in Gb/s (network convention) to GiB/s.
pub fn gbps_to_gib_s(gbps: f64) -> f64 {
    gbps * 1e9 / 8.0 / GIB
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_alpha() {
        let spec = LinkSpec::new(1.0, 1e-6);
        let t = spec.transfer_time_s(GIB as u64);
        assert!((t - 1.000001).abs() < 1e-9);
    }

    #[test]
    fn gbps_conversion() {
        // 100 Gb/s InfiniBand EDR = 12.5 GB/s ~= 11.64 GiB/s.
        let g = gbps_to_gib_s(100.0);
        assert!((g - 11.6415).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        LinkSpec::new(0.0, 0.0);
    }

    #[test]
    fn link_class_display() {
        assert_eq!(LinkClass::IntraNode.to_string(), "intra-node");
        assert_eq!(LinkClass::InterNode.to_string(), "inter-node");
        assert_eq!(LinkClass::Loopback.to_string(), "loopback");
    }
}
