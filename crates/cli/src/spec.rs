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

use pipette_cluster::{presets, Cluster, ClusterPreset, FaultPlan};
use pipette_model::GptConfig;
use pipette_obs::json::{self, DecodeError, Fields, JsonValue, Schema};
use std::fmt;

/// Which synthetic cluster to build.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// `"mid-range"` (V100/EDR) or `"high-end"` (A100/HDR).
    pub preset: String,
    /// Number of 8-GPU nodes.
    pub nodes: usize,
    /// Seed realizing the heterogeneous bandwidth matrix (default 0).
    pub seed: u64,
}

/// The model to train: a named preset or explicit hyperparameters.
#[derive(Debug, Clone)]
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
        seq_len: usize,
        /// Vocabulary size (default 51200).
        vocab: usize,
    },
}

/// The full job specification.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Cluster to configure for.
    pub cluster: ClusterSpec,
    /// Model to train.
    pub model: ModelSpec,
    /// Samples per optimizer step.
    pub global_batch: u64,
    /// Largest microbatch considered (default 8).
    pub max_micro: u64,
    /// Enable fine-grained worker dedication (default true).
    pub worker_dedication: bool,
    /// Simulated-annealing iterations per candidate (default 30000).
    pub sa_iterations: usize,
    /// Search seed (default 0).
    pub seed: u64,
    /// Parallel-tempering replicas per SA pass (default 1 = classic
    /// single chain). More replicas search a temperature ladder with
    /// deterministic state exchange; results stay machine-independent
    /// because this is an explicit choice, never derived from core count.
    pub replicas: usize,
    /// Iterations between tempering exchange rounds (default 512;
    /// ignored when `replicas` is 1).
    pub exchange_interval: usize,
    /// Memory-estimator training iterations (default 12000; lower for
    /// quick runs).
    pub memory_training_iterations: usize,
    /// Directory for the on-disk trained-estimator cache. When set,
    /// repeated `configure` runs with identical training inputs reload
    /// the estimator (bit-exact) instead of retraining.
    pub estimator_cache_dir: Option<String>,
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

impl From<DecodeError> for SpecError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Malformed(reason) => SpecError::Malformed(reason),
            DecodeError::UnknownField {
                context,
                field,
                allowed,
            } => SpecError::UnknownField {
                context,
                field,
                allowed,
            },
            DecodeError::MissingField { context, field } => {
                SpecError::MissingField { context, field }
            }
        }
    }
}

const MODEL_FIELDS: &str = "preset — or layers, hidden, heads, seq_len, vocab";

const JOB: Schema = Schema {
    keys: &[
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
    accepted: "cluster, model, global_batch, max_micro, worker_dedication, \
               sa_iterations, seed, replicas, exchange_interval, memory_training_iterations, \
               estimator_cache_dir",
    required: &["cluster", "model", "global_batch"],
};
const CLUSTER: Schema = Schema {
    keys: &["preset", "nodes", "seed"],
    accepted: "preset, nodes, seed",
    required: &["preset", "nodes"],
};
const MODEL_PRESET: Schema = Schema {
    keys: &["preset"],
    accepted: MODEL_FIELDS,
    required: &["preset"],
};
const MODEL_CUSTOM: Schema = Schema {
    keys: &["layers", "hidden", "heads", "seq_len", "vocab"],
    accepted: MODEL_FIELDS,
    required: &["layers", "hidden", "heads"],
};

/// Parses `text` as JSON, reporting a syntax error as
/// [`SpecError::Malformed`].
pub(crate) fn parse_document(text: &str) -> Result<JsonValue, SpecError> {
    json::parse(text).map_err(|e| SpecError::Malformed(e.to_string()))
}

impl JobSpec {
    /// Parses a job spec strictly: valid JSON only, then
    /// [`Self::from_json`]. The CLI and `pipette serve` both decode
    /// through [`Self::from_json`], so a typo like `"global_bacth"` fails
    /// with the same actionable message on either path instead of
    /// silently running with a default.
    ///
    /// # Errors
    ///
    /// [`SpecError::Malformed`], [`SpecError::UnknownField`],
    /// [`SpecError::MissingField`], or [`SpecError::OutOfRange`] naming
    /// the first problem.
    pub fn parse_strict(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&parse_document(text)?)
    }

    /// Decodes a job spec from parsed JSON in one strict pass — no
    /// unknown fields anywhere, all required fields present, every value
    /// of its field's type (an error names the field, e.g.
    /// `model.heads`), defaults for the rest — then [`Self::validate`]s
    /// it.
    ///
    /// # Errors
    ///
    /// As [`Self::parse_strict`], apart from JSON syntax errors.
    pub fn from_json(doc: &JsonValue) -> Result<Self, SpecError> {
        let job = Fields::root(doc, "job spec", &JOB)?;
        let cluster = job.required("cluster", |v, path| {
            Fields::at(v, path.to_owned(), &CLUSTER)
        })?;
        let model = job.required("model", |v, path| {
            let schema = if v.get("preset").is_some() {
                &MODEL_PRESET
            } else {
                &MODEL_CUSTOM
            };
            Fields::at(v, path.to_owned(), schema)
        })?;
        let model = match model.optional("preset", json::string)? {
            Some(preset) => ModelSpec::Preset {
                preset: preset.to_owned(),
            },
            None => ModelSpec::Custom {
                layers: model.required("layers", json::size)?,
                hidden: model.required("hidden", json::size)?,
                heads: model.required("heads", json::size)?,
                seq_len: model.optional("seq_len", json::size)?.unwrap_or(2048),
                vocab: model.optional("vocab", json::size)?.unwrap_or(51200),
            },
        };
        let spec = JobSpec {
            cluster: ClusterSpec {
                preset: cluster.required("preset", json::string)?.to_owned(),
                nodes: cluster.required("nodes", json::size)?,
                seed: cluster.optional("seed", json::uint)?.unwrap_or(0),
            },
            model,
            global_batch: job.required("global_batch", json::uint)?,
            max_micro: job.optional("max_micro", json::uint)?.unwrap_or(8),
            worker_dedication: job
                .optional("worker_dedication", json::boolean)?
                .unwrap_or(true),
            sa_iterations: job.optional("sa_iterations", json::size)?.unwrap_or(30_000),
            seed: job.optional("seed", json::uint)?.unwrap_or(0),
            replicas: job.optional("replicas", json::size)?.unwrap_or(1),
            exchange_interval: job
                .optional("exchange_interval", json::size)?
                .unwrap_or(512),
            memory_training_iterations: job
                .optional("memory_training_iterations", json::size)?
                .unwrap_or(12_000),
            estimator_cache_dir: match job.get("estimator_cache_dir") {
                None | Some(JsonValue::Null) => None,
                Some(dir) => Some(json::string(dir, "estimator_cache_dir")?.to_owned()),
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Range-checks a spec's values (called by [`Self::from_json`];
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
        let (_, preset) = cluster_preset(&self.cluster.preset)?;
        Ok(preset(self.cluster.nodes).build(self.cluster.seed))
    }

    /// Exactly what [`Self::build_cluster`] depends on: the preset's
    /// canonical name, the node count and the cluster seed. Aliases of
    /// one preset give equal keys.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownCluster`] for unrecognized preset names.
    pub(crate) fn cluster_key(&self) -> Result<ClusterKey, SpecError> {
        let (preset, _) = cluster_preset(&self.cluster.preset)?;
        Ok((preset, self.cluster.nodes, self.cluster.seed))
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

/// A realized cluster's identity: canonical preset name, node count,
/// cluster seed (see [`JobSpec::cluster_key`]).
pub(crate) type ClusterKey = (&'static str, usize, u64);

/// A cluster preset's constructor, taking the node count.
type PresetFn = fn(usize) -> ClusterPreset;

/// A cluster preset's canonical name and constructor, under any of the
/// names a spec may spell it with.
fn cluster_preset(name: &str) -> Result<(&'static str, PresetFn), SpecError> {
    match name {
        "mid-range" | "mid_range" | "midrange" => Ok(("mid-range", presets::mid_range)),
        "high-end" | "high_end" | "highend" => Ok(("high-end", presets::high_end)),
        other => Err(SpecError::UnknownCluster(other.to_owned())),
    }
}

/// Parses a [`FaultPlan`] strictly (see [`FaultPlan::from_json`]). The
/// plan's *semantic* validity (GPU indices in range, rates in `[0, 1]`)
/// is checked against the actual topology by `FaultPlan::validate` when
/// the drill runs.
///
/// # Errors
///
/// [`SpecError::Malformed`], [`SpecError::UnknownField`] or
/// [`SpecError::MissingField`].
pub fn parse_fault_plan_strict(text: &str) -> Result<FaultPlan, SpecError> {
    Ok(FaultPlan::from_json(&parse_document(text)?)?)
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
        let spec = JobSpec::parse_strict(json).unwrap();
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
        let spec = JobSpec::parse_strict(json).unwrap();
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
        let spec = JobSpec::parse_strict(json).unwrap();
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
        let json = r#"{"cluster": {"preset": "mid-range", "nodes": 8, "seed": 1},
            "model": {"preset": "gpt-3.1b"}, "global_batch": 512, "max_micro": 4,
            "worker_dedication": true, "sa_iterations": 10000, "seed": 5,
            "replicas": 4, "exchange_interval": 256,
            "memory_training_iterations": 12000, "estimator_cache_dir": null}"#;
        let back = JobSpec::parse_strict(json).unwrap();
        assert_eq!(format!("{back:?}"), format!("{spec:?}"));
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

    /// A job spec and a fault plan that set every field.
    const FULL_JOB: &str = r#"{"cluster": {"preset": "mid-range", "nodes": 2, "seed": 3},
        "model": {"layers": 8, "hidden": 1024, "heads": 16, "seq_len": 1024, "vocab": 32000},
        "global_batch": 64, "max_micro": 2, "worker_dedication": false,
        "sa_iterations": 400, "seed": 1, "replicas": 2, "exchange_interval": 128,
        "memory_training_iterations": 200, "estimator_cache_dir": "cache"}"#;
    const FULL_PLAN: &str = r#"{"seed": 9,
        "degraded_links": [{"from_node": 0, "to_node": 1, "factor": 0.25}],
        "straggler_gpus": [{"gpu": 3, "slowdown": 2.0}],
        "failed_gpus": [12], "failed_nodes": [1],
        "corrupt_pairs": [{"from_gpu": 0, "to_gpu": 8, "kind": "nan"}],
        "measurement_failure_rate": 0.05, "sample_loss_rate": 0.1,
        "drift": {"day": 4, "daily_sigma": 0.03, "reversion": 0.25}}"#;

    /// The value at a `a.b[0].c` path.
    fn at<'v>(doc: &'v mut JsonValue, path: &str) -> &'v mut JsonValue {
        path.split('.').fold(doc, |v, step| {
            let (key, index) = match step.split_once('[') {
                Some((key, rest)) => (key, rest.trim_end_matches(']').parse::<usize>().ok()),
                None => (step, None),
            };
            let JsonValue::Object(members) = v else {
                panic!("{path}: {key} is not in an object")
            };
            let (_, member) = members.iter_mut().find(|(k, _)| k == key).unwrap();
            match (index, member) {
                (Some(i), JsonValue::Array(items)) => &mut items[i],
                (_, member) => member,
            }
        })
    }

    /// Whether `err` reports a malformed value at `path`.
    fn names_field(err: &SpecError, path: &str) -> bool {
        let message = err.to_string();
        let rest = message.strip_prefix(&format!("malformed spec: {path}"));
        matches!(err, SpecError::Malformed(_))
            && rest.is_some_and(|r| r.starts_with(": expected") || r.starts_with(" must be"))
    }

    #[test]
    fn a_type_error_names_its_field() {
        let string = || JsonValue::String("4".into());
        let number = || JsonValue::Number(2.5);
        let job_fields = [
            ("cluster", number()),
            ("cluster.preset", number()),
            ("cluster.nodes", string()),
            ("cluster.seed", number()),
            ("model", string()),
            ("model.layers", number()),
            ("model.hidden", string()),
            ("model.heads", string()),
            ("model.seq_len", JsonValue::Bool(true)),
            ("model.vocab", JsonValue::Number(-1.0)),
            ("global_batch", number()),
            ("max_micro", string()),
            ("worker_dedication", string()),
            ("sa_iterations", JsonValue::Null),
            ("seed", number()),
            ("replicas", string()),
            ("exchange_interval", JsonValue::Array(Vec::new())),
            ("memory_training_iterations", number()),
            ("estimator_cache_dir", number()),
        ];
        for (path, wrong) in job_fields {
            let mut doc = json::parse(FULL_JOB).unwrap();
            *at(&mut doc, path) = wrong;
            let err = JobSpec::from_json(&doc).unwrap_err();
            assert!(names_field(&err, path), "{path}: {err}");
        }
        let model_preset = r#"{"cluster": {"preset": "mid-range", "nodes": 2},
            "model": {"preset": 7}, "global_batch": 64}"#;
        assert_eq!(
            JobSpec::parse_strict(model_preset).unwrap_err().to_string(),
            "malformed spec: model.preset: expected a string, found 7"
        );

        let plan_fields = [
            ("seed", number()),
            ("degraded_links", number()),
            ("degraded_links[0]", number()),
            ("degraded_links[0].from_node", string()),
            ("degraded_links[0].to_node", number()),
            ("degraded_links[0].factor", string()),
            ("straggler_gpus", string()),
            ("straggler_gpus[0].gpu", number()),
            ("straggler_gpus[0].slowdown", string()),
            ("failed_gpus", string()),
            ("failed_gpus[0]", number()),
            ("failed_nodes", JsonValue::Object(Vec::new())),
            ("failed_nodes[0]", JsonValue::Number(-1.0)),
            ("corrupt_pairs", number()),
            ("corrupt_pairs[0].from_gpu", string()),
            ("corrupt_pairs[0].to_gpu", number()),
            ("corrupt_pairs[0].kind", number()),
            ("measurement_failure_rate", string()),
            ("sample_loss_rate", JsonValue::Bool(false)),
            ("drift", JsonValue::Null),
            ("drift.day", number()),
            ("drift.daily_sigma", string()),
            ("drift.reversion", string()),
        ];
        for (path, wrong) in plan_fields {
            let mut doc = json::parse(FULL_PLAN).unwrap();
            *at(&mut doc, path) = wrong;
            let err = parse_fault_plan_strict(&json::render_value(&doc)).unwrap_err();
            assert!(names_field(&err, path), "{path}: {err}");
        }
    }

    #[test]
    fn integers_above_two_pow_53_are_rejected_by_name() {
        let spec = |seed: &str| {
            format!(
                r#"{{"cluster": {{"preset": "mid-range", "nodes": 1, "seed": {seed}}},
                    "model": {{"preset": "gpt-1.1b"}}, "global_batch": 8}}"#
            )
        };
        let ok = JobSpec::parse_strict(&spec("9007199254740992")).unwrap();
        assert_eq!(ok.cluster.seed, 1 << 53);
        let err = JobSpec::parse_strict(&spec("9007199254740993")).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed spec: cluster.seed: expected an integer in 0..=2^53, found number"
        );
    }

    /// splitmix64: a seeded, dependency-free stream for the mutator.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// The path of every value below the root of `doc`, in `at` syntax.
    fn paths(doc: &JsonValue, prefix: &str, out: &mut Vec<String>) {
        match doc {
            JsonValue::Object(members) => {
                for (key, value) in members {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    out.push(path.clone());
                    paths(value, &path, out);
                }
            }
            JsonValue::Array(items) => {
                for (i, item) in items.iter().enumerate() {
                    let path = format!("{prefix}[{i}]");
                    out.push(path.clone());
                    paths(item, &path, out);
                }
            }
            _ => {}
        }
    }

    /// `doc` with one value replaced, or one object member deleted.
    fn mutant(rng: &mut SplitMix, seed: &JsonValue, targets: &[String]) -> JsonValue {
        const REPLACEMENTS: [&str; 9] = [
            "-1",
            "0",
            "2.5",
            "9007199254740993",
            "\"x\"",
            "true",
            "null",
            "[]",
            "{}",
        ];
        let mut doc = seed.clone();
        let path = &targets[rng.below(targets.len())];
        let pick = rng.below(REPLACEMENTS.len() + 1);
        match REPLACEMENTS.get(pick) {
            Some(text) => *at(&mut doc, path) = json::parse(text).unwrap(),
            // Delete the member, or remove the array element.
            None => match path.rfind(['.', '[']) {
                Some(cut) if path.ends_with(']') => {
                    let index: usize = path[cut + 1..path.len() - 1].parse().unwrap();
                    if let JsonValue::Array(items) = at(&mut doc, &path[..cut]) {
                        items.remove(index);
                    }
                }
                cut => {
                    let key = &path[cut.map_or(0, |c| c + 1)..];
                    let owner = match cut {
                        Some(cut) => at(&mut doc, &path[..cut]),
                        None => &mut doc,
                    };
                    if let JsonValue::Object(members) = owner {
                        members.retain(|(k, _)| k != key);
                    }
                }
            },
        }
        doc
    }

    #[test]
    fn seeded_value_mutants_decode_or_fail_typed() {
        let job = json::parse(FULL_JOB).unwrap();
        let plan = json::parse(FULL_PLAN).unwrap();
        let (mut job_paths, mut plan_paths) = (Vec::new(), Vec::new());
        paths(&job, "", &mut job_paths);
        paths(&plan, "", &mut plan_paths);
        let topology = pipette_cluster::ClusterTopology::new(2, 8);
        let mut rng = SplitMix(0x5eed_5bec);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..2_000 {
            let doc = mutant(&mut rng, &job, &job_paths);
            let decoded = JobSpec::from_json(&doc);
            // The text path decodes the same document the same way.
            let reparsed = JobSpec::parse_strict(&json::render_value(&doc));
            assert_eq!(format!("{decoded:?}"), format!("{reparsed:?}"));
            match decoded {
                Ok(spec) => {
                    accepted += 1;
                    assert_eq!(spec.validate(), Ok(()), "{}", json::render_value(&doc));
                }
                Err(_) => rejected += 1,
            }

            let doc = mutant(&mut rng, &plan, &plan_paths);
            match FaultPlan::from_json(&doc) {
                Ok(plan) => {
                    accepted += 1;
                    // Range checks against a topology never panic either.
                    let _ = plan.validate(&topology);
                }
                Err(_) => rejected += 1,
            }
        }
        // Both outcomes are exercised.
        assert!(
            accepted > 300 && rejected > 1_500,
            "{accepted} / {rejected}"
        );
    }
}
