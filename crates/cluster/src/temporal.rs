//! Temporal drift of attained link bandwidths.
//!
//! Fig. 3 of the paper shows a 40-day continuous mpiGraph profile of a
//! commercial cluster: each node pair's latency wanders over time while the
//! pairs stay clearly separated. We model this as a mean-reverting
//! (Ornstein–Uhlenbeck-style) multiplicative random walk around the base
//! attained bandwidth of each directed node pair.

use crate::bandwidth::BandwidthMatrix;
use crate::error::ClusterError;
use crate::rand_util::normal;
use crate::topology::GpuId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Mean-reverting daily drift of the attained bandwidth matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalDrift {
    /// Standard deviation of the daily log-space innovation.
    pub daily_sigma: f64,
    /// Strength of mean reversion toward the base matrix, in `[0, 1]`.
    pub reversion: f64,
}

impl Default for TemporalDrift {
    fn default() -> Self {
        Self {
            daily_sigma: 0.03,
            reversion: 0.25,
        }
    }
}

impl TemporalDrift {
    /// Creates a drift model.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidParameter`] if `daily_sigma` is negative or
    /// non-finite, or `reversion` is outside `[0, 1]`.
    pub fn new(daily_sigma: f64, reversion: f64) -> Result<Self, ClusterError> {
        if !(daily_sigma.is_finite() && daily_sigma >= 0.0) {
            return Err(ClusterError::InvalidParameter {
                name: "daily_sigma".into(),
                reason: format!("{daily_sigma} must be finite and non-negative"),
            });
        }
        if !(reversion.is_finite() && (0.0..=1.0).contains(&reversion)) {
            return Err(ClusterError::InvalidParameter {
                name: "reversion".into(),
                reason: format!("{reversion} must be in [0, 1]"),
            });
        }
        Ok(Self {
            daily_sigma,
            reversion,
        })
    }

    /// Produces `days` consecutive daily snapshots of the matrix.
    ///
    /// Day 0 is the base matrix itself. Inter-node links drift at node-pair
    /// granularity; intra-node links are held stable (NVLink does not share
    /// a switched fabric with other tenants). Deterministic in `seed`.
    pub fn series(&self, base: &BandwidthMatrix, days: usize, seed: u64) -> Vec<BandwidthMatrix> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let topo = *base.topology();
        let nodes = topo.num_nodes();
        // Log-space deviation from base, per directed node pair.
        let mut dev = vec![0.0f64; nodes * nodes];
        let mut out = Vec::with_capacity(days);
        for day in 0..days {
            if day > 0 {
                for d in dev.iter_mut() {
                    let innovation = normal(&mut rng, 0.0, self.daily_sigma);
                    *d = *d * (1.0 - self.reversion) + innovation;
                }
            }
            let mut m = base.clone();
            for a in topo.gpus() {
                for b in topo.gpus() {
                    if a == b || topo.same_node(a, b) {
                        continue;
                    }
                    let (na, nb) = (topo.node_of(a).0, topo.node_of(b).0);
                    let factor = dev[na * nodes + nb].exp();
                    let bw = (base.between(a, b) * factor).min(base.inter_spec().bandwidth_gib_s);
                    m.set(GpuId(a.0), GpuId(b.0), bw.max(0.05));
                }
            }
            out.push(m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heterogeneity::HeterogeneityModel;
    use crate::link::LinkSpec;
    use crate::topology::{ClusterTopology, NodeId};

    fn base() -> BandwidthMatrix {
        HeterogeneityModel::realistic().generate(
            ClusterTopology::new(4, 4),
            LinkSpec::new(300.0, 2e-6),
            LinkSpec::new(11.64, 5e-6),
            11,
        )
    }

    #[test]
    fn day_zero_is_base() {
        let b = base();
        let series = TemporalDrift::default().series(&b, 3, 5);
        assert_eq!(series[0], b);
        assert_eq!(series.len(), 3);
    }

    #[test]
    fn drift_changes_inter_but_not_intra() {
        let b = base();
        let series = TemporalDrift::default().series(&b, 10, 5);
        let last = &series[9];
        // Intra-node links stable.
        assert_eq!(
            last.between(GpuId(0), GpuId(1)),
            b.between(GpuId(0), GpuId(1))
        );
        // Some inter-node link moved.
        let moved = (0..4).any(|i| {
            (0..4).any(|j| {
                i != j
                    && (last.node_pair(NodeId(i), NodeId(j)) - b.node_pair(NodeId(i), NodeId(j)))
                        .abs()
                        > 1e-6
            })
        });
        assert!(moved);
    }

    #[test]
    fn drift_is_bounded_by_nominal() {
        let b = base();
        let series = TemporalDrift::new(0.2, 0.05).unwrap().series(&b, 40, 9);
        for day in &series {
            for a in day.topology().gpus() {
                for c in day.topology().gpus() {
                    if a != c && !day.topology().same_node(a, c) {
                        let bw = day.between(a, c);
                        assert!(bw <= b.inter_spec().bandwidth_gib_s + 1e-9);
                        assert!(bw >= 0.05);
                    }
                }
            }
        }
    }

    #[test]
    fn series_is_deterministic() {
        let b = base();
        let s1 = TemporalDrift::default().series(&b, 5, 123);
        let s2 = TemporalDrift::default().series(&b, 5, 123);
        assert_eq!(s1, s2);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            TemporalDrift::new(0.1, 1.5),
            Err(ClusterError::InvalidParameter { .. })
        ));
        assert!(matches!(
            TemporalDrift::new(-0.1, 0.5),
            Err(ClusterError::InvalidParameter { .. })
        ));
        assert!(matches!(
            TemporalDrift::new(f64::NAN, 0.5),
            Err(ClusterError::InvalidParameter { .. })
        ));
        assert!(TemporalDrift::new(0.1, 0.5).is_ok());
    }
}
