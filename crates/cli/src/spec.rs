//! The JSON job specification the CLI consumes.
//!
//! ```json
//! {
//!   "cluster": { "preset": "mid-range", "nodes": 8, "seed": 42 },
//!   "model":   { "preset": "gpt-1.1b" },
//!   "global_batch": 256,
//!   "max_micro": 8,
//!   "worker_dedication": true,
//!   "sa_iterations": 30000,
//!   "seed": 7
//! }
//! ```
//!
//! `model` may instead spell out hyperparameters:
//! `{ "layers": 24, "hidden": 1920, "heads": 24, "seq_len": 2048,
//!    "vocab": 51200 }`.

use pipette_cluster::{presets, Cluster, FaultPlan};
use pipette_model::GptConfig;
use pipette_obs::json::{self, JsonValue};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which synthetic cluster to build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// `"mid-range"` (V100/EDR) or `"high-end"` (A100/HDR).
    pub preset: String,
    /// Number of 8-GPU nodes.
    pub nodes: usize,
    /// Seed realizing the heterogeneous bandwidth matrix.
    #[serde(default)]
    pub seed: u64,
}

/// The model to train: a named preset or explicit hyperparameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(untagged)]
pub enum ModelSpec {
    /// A named preset, e.g. `{"preset": "gpt-3.1b"}`.
    Preset {
        /// One of `gpt-1.1b`, `gpt-3.1b`, `gpt-8.1b`, `gpt-11.1b`.
        preset: String,
    },
    /// Explicit hyperparameters.
    Custom {
        /// Transformer layers.
        layers: usize,
        /// Hidden dimension.
        hidden: usize,
        /// Attention heads.
        heads: usize,
        /// Sequence length (default 2048).
        #[serde(default = "default_seq")]
        seq_len: usize,
        /// Vocabulary size (default 51200).
        #[serde(default = "default_vocab")]
        vocab: usize,
    },
}

fn default_seq() -> usize {
    2048
}

fn default_vocab() -> usize {
    51200
}

/// The full job specification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Cluster to configure for.
    pub cluster: ClusterSpec,
    /// Model to train.
    pub model: ModelSpec,
    /// Samples per optimizer step.
    pub global_batch: u64,
    /// Largest microbatch considered (default 8).
    #[serde(default = "default_micro")]
    pub max_micro: u64,
    /// Enable fine-grained worker dedication (default true).
    #[serde(default = "default_true")]
    pub worker_dedication: bool,
    /// Simulated-annealing iterations per candidate (default 30000).
    #[serde(default = "default_sa")]
    pub sa_iterations: usize,
    /// Search seed (default 0).
    #[serde(default)]
    pub seed: u64,
    /// Parallel-tempering replicas per SA pass (default 1 = classic
    /// single chain). More replicas search a temperature ladder with
    /// deterministic state exchange; results stay machine-independent
    /// because this is an explicit choice, never derived from core count.
    #[serde(default = "default_replicas")]
    pub replicas: usize,
    /// Iterations between tempering exchange rounds (default 512;
    /// ignored when `replicas` is 1).
    #[serde(default = "default_exchange_interval")]
    pub exchange_interval: usize,
    /// Memory-estimator training iterations (default 12000; lower for
    /// quick runs).
    #[serde(default = "default_mem_iterations")]
    pub memory_training_iterations: usize,
    /// Directory for the on-disk trained-estimator cache. When set,
    /// repeated `configure` runs with identical training inputs reload
    /// the estimator (bit-exact) instead of retraining.
    #[serde(default)]
    pub estimator_cache_dir: Option<String>,
}

fn default_mem_iterations() -> usize {
    12_000
}

fn default_micro() -> u64 {
    8
}

fn default_true() -> bool {
    true
}

fn default_sa() -> usize {
    30_000
}

fn default_replicas() -> usize {
    1
}

fn default_exchange_interval() -> usize {
    512
}

/// Errors turning a spec into concrete objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Unknown cluster preset name.
    UnknownCluster(String),
    /// Unknown model preset name.
    UnknownModel(String),
    /// A field the spec schema does not define (usually a typo).
    UnknownField {
        /// Where the field appeared, e.g. `"cluster"`.
        context: String,
        /// The offending key.
        field: String,
        /// The keys that are accepted there.
        allowed: &'static str,
    },
    /// A required field is absent.
    MissingField {
        /// Where the field was expected.
        context: String,
        /// The missing key.
        field: &'static str,
    },
    /// A field parsed but its value is outside the supported range.
    OutOfRange {
        /// The offending field.
        field: String,
        /// What the value must satisfy.
        reason: String,
    },
    /// The document is not valid JSON (or not an object).
    Malformed(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownCluster(name) => {
                write!(f, "unknown cluster preset {name:?} (try \"mid-range\" or \"high-end\")")
            }
            SpecError::UnknownModel(name) => write!(
                f,
                "unknown model preset {name:?} (try \"gpt-1.1b\", \"gpt-3.1b\", \"gpt-8.1b\", \"gpt-11.1b\")"
            ),
            SpecError::UnknownField {
                context,
                field,
                allowed,
            } => write!(
                f,
                "unknown field {field:?} in {context} (accepted fields: {allowed})"
            ),
            SpecError::MissingField { context, field } => {
                write!(f, "{context} is missing required field {field:?}")
            }
            SpecError::OutOfRange { field, reason } => {
                write!(f, "invalid {field}: {reason}")
            }
            SpecError::Malformed(reason) => write!(f, "malformed spec: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

const TOP_FIELDS: &str = "cluster, model, global_batch, max_micro, worker_dedication, \
     sa_iterations, seed, replicas, exchange_interval, memory_training_iterations, \
     estimator_cache_dir";
const CLUSTER_FIELDS: &str = "preset, nodes, seed";
const MODEL_FIELDS: &str = "preset — or layers, hidden, heads, seq_len, vocab";
const PLAN_FIELDS: &str = "seed, degraded_links, straggler_gpus, failed_gpus, failed_nodes, \
     corrupt_pairs, measurement_failure_rate, sample_loss_rate, drift";

/// Checks that every key of `value` (which must be an object) is in
/// `allowed`, and that every `required` key is present.
fn check_fields(
    value: &JsonValue,
    context: &str,
    allowed: &[&str],
    allowed_msg: &'static str,
    required: &[&'static str],
) -> Result<(), SpecError> {
    if !matches!(value, JsonValue::Object(_)) {
        return Err(SpecError::Malformed(format!(
            "{context} must be an object, got {}",
            value.type_name()
        )));
    }
    if let Some(key) = json::first_unknown_key(value, allowed) {
        return Err(SpecError::UnknownField {
            context: context.to_owned(),
            field: key.to_owned(),
            allowed: allowed_msg,
        });
    }
    for &field in required {
        if value.get(field).is_none() {
            return Err(SpecError::MissingField {
                context: context.to_owned(),
                field,
            });
        }
    }
    Ok(())
}

/// Walks the parsed shape of a job spec, rejecting unknown fields before
/// the (default-filling, unknown-tolerating) serde pass runs.
fn check_job_shape(doc: &JsonValue) -> Result<(), SpecError> {
    check_fields(
        doc,
        "job spec",
        &[
            "cluster",
            "model",
            "global_batch",
            "max_micro",
            "worker_dedication",
            "sa_iterations",
            "seed",
            "replicas",
            "exchange_interval",
            "memory_training_iterations",
            "estimator_cache_dir",
        ],
        TOP_FIELDS,
        &["cluster", "model", "global_batch"],
    )?;
    let Some(cluster) = doc.get("cluster") else {
        return Err(SpecError::MissingField {
            context: "spec".to_string(),
            field: "cluster",
        });
    };
    check_fields(
        cluster,
        "cluster",
        &["preset", "nodes", "seed"],
        CLUSTER_FIELDS,
        &["preset", "nodes"],
    )?;
    let Some(model) = doc.get("model") else {
        return Err(SpecError::MissingField {
            context: "spec".to_string(),
            field: "model",
        });
    };
    if model.get("preset").is_some() {
        check_fields(model, "model", &["preset"], MODEL_FIELDS, &["preset"])?;
    } else {
        check_fields(
            model,
            "model",
            &["layers", "hidden", "heads", "seq_len", "vocab"],
            MODEL_FIELDS,
            &["layers", "hidden", "heads"],
        )?;
    }
    Ok(())
}

impl JobSpec {
    /// Parses a job spec strictly: valid JSON only, no unknown fields
    /// anywhere, all required fields present, all values in range. The
    /// plain serde path stays lenient (defaults fill gaps, unknown keys
    /// are ignored) for programmatic use; the CLI goes through here so a
    /// typo like `"global_bacth"` fails with an actionable message
    /// instead of silently running with a default.
    ///
    /// # Errors
    ///
    /// [`SpecError::Malformed`], [`SpecError::UnknownField`],
    /// [`SpecError::MissingField`], or [`SpecError::OutOfRange`] naming
    /// the first problem.
    pub fn parse_strict(text: &str) -> Result<Self, SpecError> {
        let doc = json::parse(text).map_err(|e| SpecError::Malformed(e.to_string()))?;
        check_job_shape(&doc)?;
        let spec: JobSpec =
            serde_json::from_str(text).map_err(|e| SpecError::Malformed(e.to_string()))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Range-checks a spec's values (called by [`Self::parse_strict`];
    /// also usable on programmatically built specs).
    ///
    /// # Errors
    ///
    /// [`SpecError::OutOfRange`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let range_err = |field: &str, reason: String| {
            Err(SpecError::OutOfRange {
                field: field.to_owned(),
                reason,
            })
        };
        if !(1..=64).contains(&self.cluster.nodes) {
            return range_err(
                "cluster.nodes",
                format!("{} not in 1..=64", self.cluster.nodes),
            );
        }
        if self.global_batch == 0 {
            return range_err("global_batch", "must be at least 1".into());
        }
        if self.max_micro == 0 {
            return range_err("max_micro", "must be at least 1".into());
        }
        if self.sa_iterations == 0 {
            return range_err("sa_iterations", "must be at least 1".into());
        }
        if self.memory_training_iterations == 0 {
            return range_err("memory_training_iterations", "must be at least 1".into());
        }
        if !(1..=64).contains(&self.replicas) {
            return range_err(
                "replicas",
                format!(
                    "{} not in 1..=64 (1 = single chain; a few chains per core is the useful range)",
                    self.replicas
                ),
            );
        }
        if self.exchange_interval == 0 {
            return range_err(
                "exchange_interval",
                "must be at least 1 (iterations between tempering exchange rounds)".into(),
            );
        }
        if let ModelSpec::Custom {
            layers,
            hidden,
            heads,
            seq_len,
            vocab,
        } = &self.model
        {
            for (name, value) in [
                ("model.layers", *layers),
                ("model.hidden", *hidden),
                ("model.heads", *heads),
                ("model.seq_len", *seq_len),
                ("model.vocab", *vocab),
            ] {
                if value == 0 {
                    return range_err(name, "must be at least 1".into());
                }
            }
            if hidden % heads != 0 {
                return range_err(
                    "model.hidden",
                    format!("{hidden} not divisible by {heads} heads"),
                );
            }
        }
        Ok(())
    }

    /// Realizes the cluster.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownCluster`] for unrecognized preset names.
    pub fn build_cluster(&self) -> Result<Cluster, SpecError> {
        let preset = match self.cluster.preset.as_str() {
            "mid-range" | "mid_range" | "midrange" => presets::mid_range(self.cluster.nodes),
            "high-end" | "high_end" | "highend" => presets::high_end(self.cluster.nodes),
            other => return Err(SpecError::UnknownCluster(other.to_owned())),
        };
        Ok(preset.build(self.cluster.seed))
    }

    /// Realizes the model.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownModel`] for unrecognized preset names.
    pub fn build_model(&self) -> Result<GptConfig, SpecError> {
        match &self.model {
            ModelSpec::Preset { preset } => match preset.as_str() {
                "gpt-1.1b" => Ok(GptConfig::gpt_1_1b()),
                "gpt-3.1b" => Ok(GptConfig::gpt_3_1b()),
                "gpt-8.1b" => Ok(GptConfig::gpt_8_1b()),
                "gpt-11.1b" => Ok(GptConfig::gpt_11_1b()),
                other => Err(SpecError::UnknownModel(other.to_owned())),
            },
            ModelSpec::Custom {
                layers,
                hidden,
                heads,
                seq_len,
                vocab,
            } => Ok(GptConfig::new(*layers, *hidden, *heads, *seq_len, *vocab)),
        }
    }
}

/// Parses a [`FaultPlan`] strictly: no unknown fields at any level. The
/// plan's *semantic* validity (GPU indices in range, rates in `[0, 1]`)
/// is checked against the actual topology by `FaultPlan::validate` when
/// the drill runs.
///
/// # Errors
///
/// [`SpecError::Malformed`] or [`SpecError::UnknownField`].
pub fn parse_fault_plan_strict(text: &str) -> Result<FaultPlan, SpecError> {
    let doc = json::parse(text).map_err(|e| SpecError::Malformed(e.to_string()))?;
    check_fields(
        &doc,
        "fault plan",
        &[
            "seed",
            "degraded_links",
            "straggler_gpus",
            "failed_gpus",
            "failed_nodes",
            "corrupt_pairs",
            "measurement_failure_rate",
            "sample_loss_rate",
            "drift",
        ],
        PLAN_FIELDS,
        &[],
    )?;
    if let Some(drift) = doc.get("drift") {
        check_fields(
            drift,
            "drift",
            &["day", "daily_sigma", "reversion"],
            "day, daily_sigma, reversion",
            &["day"],
        )?;
    }
    let item_fields: [(&str, &[&'static str], &'static str); 3] = [
        (
            "degraded_links",
            &["from_node", "to_node", "factor"],
            "from_node, to_node, factor",
        ),
        ("straggler_gpus", &["gpu", "slowdown"], "gpu, slowdown"),
        (
            "corrupt_pairs",
            &["from_gpu", "to_gpu", "kind"],
            "from_gpu, to_gpu, kind",
        ),
    ];
    for (list, fields, msg) in item_fields {
        if let Some(JsonValue::Array(items)) = doc.get(list) {
            for (i, item) in items.iter().enumerate() {
                check_fields(item, &format!("{list}[{i}]"), fields, msg, fields)?;
            }
        }
    }
    serde_json::from_str(text).map_err(|e| SpecError::Malformed(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_spec() {
        let json = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4},
            "model": {"preset": "gpt-1.1b"},
            "global_batch": 256
        }"#;
        let spec: JobSpec = serde_json::from_str(json).unwrap();
        assert_eq!(spec.max_micro, 8);
        assert!(spec.worker_dedication);
        assert_eq!(spec.sa_iterations, 30_000);
        let cluster = spec.build_cluster().unwrap();
        assert_eq!(cluster.topology().num_gpus(), 32);
        let model = spec.build_model().unwrap();
        assert_eq!(model.n_layers, 24);
    }

    #[test]
    fn parses_custom_model() {
        let json = r#"{
            "cluster": {"preset": "high-end", "nodes": 2, "seed": 9},
            "model": {"layers": 12, "hidden": 768, "heads": 12},
            "global_batch": 64,
            "worker_dedication": false
        }"#;
        let spec: JobSpec = serde_json::from_str(json).unwrap();
        let model = spec.build_model().unwrap();
        assert_eq!(model.hidden, 768);
        assert_eq!(model.seq_len, 2048);
        assert!(!spec.worker_dedication);
    }

    #[test]
    fn unknown_presets_are_reported() {
        let json = r#"{
            "cluster": {"preset": "quantum", "nodes": 4},
            "model": {"preset": "gpt-9000b"},
            "global_batch": 256
        }"#;
        let spec: JobSpec = serde_json::from_str(json).unwrap();
        assert!(matches!(
            spec.build_cluster(),
            Err(SpecError::UnknownCluster(_))
        ));
        assert!(matches!(
            spec.build_model(),
            Err(SpecError::UnknownModel(_))
        ));
    }

    #[test]
    fn strict_parse_accepts_valid_specs() {
        let json = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4},
            "model": {"layers": 12, "hidden": 768, "heads": 12},
            "global_batch": 256,
            "seed": 3
        }"#;
        let spec = JobSpec::parse_strict(json).unwrap();
        assert_eq!(spec.global_batch, 256);
        assert_eq!(spec.max_micro, 8, "defaults still fill in");
    }

    #[test]
    fn strict_parse_rejects_unknown_fields() {
        let top = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4},
            "model": {"preset": "gpt-1.1b"},
            "global_batch": 256,
            "global_bacth": 512
        }"#;
        let err = JobSpec::parse_strict(top).unwrap_err();
        assert!(matches!(err, SpecError::UnknownField { .. }));
        assert!(err.to_string().contains("global_bacth"));
        assert!(err.to_string().contains("global_batch"));

        let nested = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4, "gpus": 8},
            "model": {"preset": "gpt-1.1b"},
            "global_batch": 256
        }"#;
        let err = JobSpec::parse_strict(nested).unwrap_err();
        assert!(err.to_string().contains("gpus") && err.to_string().contains("cluster"));

        let model = r#"{
            "cluster": {"preset": "mid-range", "nodes": 4},
            "model": {"preset": "gpt-1.1b", "layers": 24},
            "global_batch": 256
        }"#;
        assert!(JobSpec::parse_strict(model).is_err());
    }

    #[test]
    fn strict_parse_reports_missing_and_out_of_range_fields() {
        let missing = r#"{
            "cluster": {"preset": "mid-range"},
            "model": {"preset": "gpt-1.1b"},
            "global_batch": 256
        }"#;
        let err = JobSpec::parse_strict(missing).unwrap_err();
        assert!(matches!(
            err,
            SpecError::MissingField { field: "nodes", .. }
        ));

        for (json, needle) in [
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 0},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256}"#,
                "cluster.nodes",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 0}"#,
                "global_batch",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"layers": 12, "hidden": 770, "heads": 12},
                    "global_batch": 256}"#,
                "not divisible",
            ),
        ] {
            let err = JobSpec::parse_strict(json).unwrap_err();
            assert!(matches!(err, SpecError::OutOfRange { .. }), "{json}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn strict_parse_rejects_non_json() {
        assert!(matches!(
            JobSpec::parse_strict("{ not json").unwrap_err(),
            SpecError::Malformed(_)
        ));
        assert!(matches!(
            JobSpec::parse_strict("[1, 2]").unwrap_err(),
            SpecError::Malformed(_)
        ));
    }

    #[test]
    fn strict_parse_rejects_deep_nesting() {
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let err = JobSpec::parse_strict(&deep).unwrap_err();
        assert!(matches!(err, SpecError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("nesting too deep"), "{err}");
        let in_field = format!(
            r#"{{"cluster": {{"preset": "mid-range", "nodes": 4}},
                "model": {{"preset": "gpt-1.1b"}}, "global_batch": 256,
                "seed": {deep}}}"#
        );
        assert!(matches!(
            JobSpec::parse_strict(&in_field).unwrap_err(),
            SpecError::Malformed(_)
        ));
        assert!(matches!(
            parse_fault_plan_strict(&deep).unwrap_err(),
            SpecError::Malformed(_)
        ));
    }

    #[test]
    fn fault_plans_parse_strictly() {
        let plan = parse_fault_plan_strict(
            r#"{"seed": 9, "failed_nodes": [1],
                "straggler_gpus": [{"gpu": 2, "slowdown": 1.5}],
                "measurement_failure_rate": 0.1}"#,
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.failed_nodes, vec![1]);

        let err = parse_fault_plan_strict(r#"{"failed_node": [1]}"#).unwrap_err();
        assert!(err.to_string().contains("failed_node"));
        let err = parse_fault_plan_strict(r#"{"straggler_gpus": [{"gpu": 2, "slow": 1.5}]}"#)
            .unwrap_err();
        assert!(err.to_string().contains("slow"));
        assert!(parse_fault_plan_strict("{}").is_ok(), "zero-fault plan");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            cluster: ClusterSpec {
                preset: "mid-range".into(),
                nodes: 8,
                seed: 1,
            },
            model: ModelSpec::Preset {
                preset: "gpt-3.1b".into(),
            },
            global_batch: 512,
            max_micro: 4,
            worker_dedication: true,
            sa_iterations: 10_000,
            seed: 5,
            replicas: 4,
            exchange_interval: 256,
            memory_training_iterations: 12_000,
            estimator_cache_dir: None,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.global_batch, 512);
        assert_eq!(back.max_micro, 4);
        assert_eq!(back.replicas, 4);
        assert_eq!(back.exchange_interval, 256);
    }

    #[test]
    fn tempering_fields_parse_with_defaults_and_range_checks() {
        let defaulted = JobSpec::parse_strict(
            r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                "model": {"preset": "gpt-1.1b"}, "global_batch": 256}"#,
        )
        .unwrap();
        assert_eq!(defaulted.replicas, 1, "single chain is the default");
        assert_eq!(defaulted.exchange_interval, 512);

        let tempered = JobSpec::parse_strict(
            r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                "replicas": 4, "exchange_interval": 128}"#,
        )
        .unwrap();
        assert_eq!(tempered.replicas, 4);
        assert_eq!(tempered.exchange_interval, 128);

        for (json, needle) in [
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                    "replicas": 0}"#,
                "1..=64",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                    "replicas": 65}"#,
                "1..=64",
            ),
            (
                r#"{"cluster": {"preset": "mid-range", "nodes": 4},
                    "model": {"preset": "gpt-1.1b"}, "global_batch": 256,
                    "exchange_interval": 0}"#,
                "exchange_interval",
            ),
        ] {
            let err = JobSpec::parse_strict(json).unwrap_err();
            assert!(matches!(err, SpecError::OutOfRange { .. }), "{json}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
