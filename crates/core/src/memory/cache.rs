//! Trained-estimator cache: skip the 12k–50k-iteration MLP training when
//! an identical estimator has already been produced.
//!
//! A trained [`MemoryEstimator`] is a pure function of what it was trained
//! on: the profiling sweep ([`SampleSpec`]), the ground-truth simulator
//! ([`MemorySim`], which carries the cluster's memory options and noise
//! seed), the target model ([`GptConfig`]), and the training protocol
//! ([`MemoryEstimatorConfig`], which contains the `TrainConfig`, soft
//! margin, and weight-init seed). The cache keys on a fingerprint of that
//! tuple ([`estimator_fingerprint`]), so two `configure()` calls that
//! would train byte-for-byte the same network share one entry, and
//! anything that changes the result (a different margin, seed, iteration
//! count, cluster, or model) misses.
//!
//! Entries live in memory and, when a directory is configured, on disk as
//! one checksummed PIPMEMIX snapshot per fingerprint,
//! `pipette-mem-estimator-<fp>.idx` (see [`index`]). The snapshot
//! stores every `f64` as its bits, so a reloaded estimator is
//! **bit-exact**: warm-cache recommendations are identical to cold ones
//! (see `tests/estimator_cache.rs`).

use crate::memory::dataset::{collect_samples_parallel, SampleSpec};
use crate::memory::estimator::{MemoryEstimator, MemoryEstimatorConfig};
use crate::memory::index::{self, Builder};
use pipette_mlp::TrainConfig;
use pipette_model::GptConfig;
use pipette_sim::{ActivationMode, MemorySim, PipelineSchedule, TrainingOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Leads the fingerprint's encoding; a new encoding gets a new tag, so
/// keys from different encodings never meet.
const FINGERPRINT_TAG: &[u8; 8] = b"PIPMEMF1";

/// 64-bit FNV-1a fingerprint of the training inputs. The four parts are
/// everything a trained estimator is a deterministic function of. They
/// are hashed in a hand-written canonical encoding — a format tag, then
/// every field as a little-endian 8-byte word, each list preceded by its
/// length — so equal inputs always share a key. Every part is
/// destructured in full: a field added to any of them does not compile
/// here until it is hashed too.
pub fn estimator_fingerprint(
    spec: &SampleSpec,
    gpt: &GptConfig,
    config: &MemoryEstimatorConfig,
    truth: &MemorySim,
) -> u64 {
    fn model(w: &mut Builder, gpt: &GptConfig) {
        let GptConfig {
            n_layers,
            hidden,
            n_heads,
            seq_len,
            vocab,
        } = *gpt;
        for v in [n_layers, hidden, n_heads, seq_len, vocab] {
            w.u64(v as u64);
        }
    }
    let SampleSpec {
        gpu_counts,
        gpus_per_node,
        models,
        global_batches,
        max_micro,
    } = spec;
    let MemoryEstimatorConfig {
        train:
            TrainConfig {
                iterations,
                learning_rate,
                batch_size,
                record_every,
                seed: train_seed,
            },
        hidden,
        depth,
        soft_margin,
        seed,
    } = *config;
    let TrainingOptions {
        schedule,
        activation,
        zero1,
        nic_contention,
    } = truth.options();

    let mut w = Builder::default();
    w.bytes.extend_from_slice(FINGERPRINT_TAG);
    w.u64(gpu_counts.len() as u64);
    for &n in gpu_counts {
        w.u64(n as u64);
    }
    w.u64(*gpus_per_node as u64);
    w.u64(models.len() as u64);
    for m in models {
        model(&mut w, m);
    }
    w.u64(global_batches.len() as u64);
    for &b in global_batches {
        w.u64(b);
    }
    w.u64(*max_micro);
    model(&mut w, gpt);
    for v in [iterations, batch_size, record_every, hidden, depth] {
        w.u64(v as u64);
    }
    w.f64(learning_rate);
    w.f64(soft_margin);
    w.u64(train_seed);
    w.u64(seed);
    let (schedule, chunks) = match schedule {
        PipelineSchedule::GPipe => (0, 0),
        PipelineSchedule::OneFOneB => (1, 0),
        PipelineSchedule::Interleaved { chunks } => (2, chunks),
    };
    let activation = match activation {
        ActivationMode::Full => 0,
        ActivationMode::Selective => 1,
        ActivationMode::FullRecompute => 2,
    };
    for v in [schedule, chunks, activation] {
        w.u64(v as u64);
    }
    w.u64(u64::from(zero1));
    w.u64(u64::from(nic_contention));
    w.u64(truth.seed());
    index::fnv1a(&w.bytes)
}

/// Snapshot of a cache's lookup counters, for reports and telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from memory or disk.
    pub hits: u64,
    /// Lookups that had to train (including corrupt-entry retrains).
    pub misses: u64,
    /// Disk entries that existed but failed to load and were quarantined
    /// (each such lookup is counted in `misses` too). Persistent growth
    /// means something is clobbering the cache directory.
    pub corrupt: u64,
}

/// What a crash-only startup [`sweep`](TrainedEstimatorCache::sweep) of
/// the cache directory found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// `.idx` entries examined.
    pub scanned: u64,
    /// Defective entries renamed to `.idx.corrupt`.
    pub quarantined: u64,
}

/// Numbers the temporary files of concurrent writers apart.
static TEMP_FILES: AtomicU64 = AtomicU64::new(0);

/// In-memory (and optionally on-disk) cache of trained memory estimators.
///
/// Thread-safe behind `&self`; hit/miss/corrupt counters let callers (and
/// the CI perf smoke job) assert that a warm `configure()` really skipped
/// training.
#[derive(Debug, Default)]
pub struct TrainedEstimatorCache {
    dir: Option<PathBuf>,
    // Ordered by fingerprint so any future iteration (debug dumps,
    // eviction) is deterministic by construction (rule D4).
    entries: Mutex<BTreeMap<u64, MemoryEstimator>>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl TrainedEstimatorCache {
    /// A purely in-memory cache (lives as long as the value).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A cache that also persists entries as `.idx` snapshots under
    /// `dir` (created on first write). A defective snapshot is
    /// quarantined and retrained.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Number of lookups answered from memory or disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to train.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of on-disk entries that existed but failed to load (each
    /// also counted as a miss and retrained).
    pub fn corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// All lookup counters in one snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits(),
            misses: self.misses(),
            corrupt: self.corrupt(),
        }
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        self.lock_entries().len()
    }

    /// Whether the in-memory map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Locks the entry map, recovering from poisoning: a panic in some
    /// other thread mid-training never half-writes the map (inserts are
    /// single calls), so the data is still sound and a typed-error-free
    /// recovery beats propagating a panic (rule D2).
    fn lock_entries(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, MemoryEstimator>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn index_path(&self, fp: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("pipette-mem-estimator-{fp:016x}.idx")))
    }

    /// Renames a defective snapshot to `<name>.idx.corrupt`, keeping its
    /// bytes inspectable and its slot free for the retrained entry;
    /// without the rename every run would re-read it and retrain again.
    fn quarantine(&self, path: &Path) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        let _ = std::fs::rename(path, path.with_extension("idx.corrupt"));
    }

    fn load_from_disk(&self, fp: u64) -> Option<MemoryEstimator> {
        let path = self.index_path(fp)?;
        // A missing file is a plain miss. Writers rename whole files into
        // place, so an existing file that does not load is defective.
        if !path.exists() {
            return None;
        }
        let loaded = index::read_index(&path, fp);
        if loaded.is_none() {
            self.quarantine(&path);
        }
        loaded
    }

    fn store_to_disk(&self, fp: u64, estimator: &MemoryEstimator) {
        let Some(path) = self.index_path(fp) else {
            return;
        };
        // Persistence is best-effort: a read-only disk must not break
        // configuration, only cost a retrain next process.
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        // Written under a name no other writer uses, then renamed into
        // place: a reader sees no file or a whole one, never a torn write.
        let temp = path.with_extension(format!(
            "idx.tmp-{}-{}",
            std::process::id(),
            TEMP_FILES.fetch_add(1, Ordering::Relaxed)
        ));
        if index::write_index(&temp, fp, estimator).is_err()
            || std::fs::rename(&temp, &path).is_err()
        {
            let _ = std::fs::remove_file(&temp);
        }
    }

    /// Crash-only startup sweep of the on-disk cache directory: every
    /// `pipette-mem-estimator-*.idx` entry is loaded eagerly, and a
    /// defective one is quarantined as `.idx.corrupt` *now* (instead of
    /// lazily at first lookup). After a sweep, every remaining entry is
    /// known-good. Entries are visited in path order, so the report is
    /// deterministic for a given directory state. A no-op (all zeros) for
    /// in-memory caches.
    pub fn sweep(&self) -> SweepReport {
        let mut report = SweepReport::default();
        let Some(dir) = &self.dir else {
            return report;
        };
        let Ok(entries) = std::fs::read_dir(dir) else {
            return report;
        };
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for path in paths {
            let Some(fp) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("pipette-mem-estimator-"))
                .and_then(|n| n.strip_suffix(".idx"))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            else {
                continue;
            };
            report.scanned += 1;
            if index::read_index(&path, fp).is_none() {
                self.quarantine(&path);
                report.quarantined += 1;
            }
        }
        report
    }

    /// Returns the cached estimator for these training inputs, or collects
    /// samples and trains one (recording it in memory and, if configured,
    /// on disk). `threads` drives both the profiling sweep and the MLP
    /// training; results are bit-identical at any thread count, so cached
    /// and fresh estimators are interchangeable.
    pub fn get_or_train(
        &self,
        spec: &SampleSpec,
        gpt: &GptConfig,
        config: &MemoryEstimatorConfig,
        truth: &MemorySim,
        threads: usize,
    ) -> MemoryEstimator {
        let fp = estimator_fingerprint(spec, gpt, config, truth);
        if let Some(found) = self.lock_entries().get(&fp) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found.clone();
        }
        if let Some(found) = self.load_from_disk(fp) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.lock_entries().insert(fp, found.clone());
            return found;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let samples = collect_samples_parallel(spec, truth, threads);
        let estimator = MemoryEstimator::train_with_threads(&samples, config, threads);
        self.store_to_disk(fp, &estimator);
        self.lock_entries().insert(fp, estimator.clone());
        estimator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::index::shape_mutants;

    fn tiny_inputs() -> (SampleSpec, GptConfig, MemoryEstimatorConfig, MemorySim) {
        let gpt = GptConfig::new(8, 1024, 16, 2048, 51200);
        let spec = SampleSpec {
            gpu_counts: vec![8],
            gpus_per_node: 8,
            models: vec![gpt],
            global_batches: vec![32],
            max_micro: 2,
        };
        let config = MemoryEstimatorConfig {
            train: TrainConfig {
                iterations: 150,
                learning_rate: 3e-3,
                batch_size: 32,
                record_every: 50,
                seed: 0,
            },
            hidden: 16,
            depth: 2,
            soft_margin: 0.08,
            seed: 1,
        };
        (spec, gpt, config, MemorySim::new(1))
    }

    /// The file names in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn fingerprint_separates_training_inputs() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let base = estimator_fingerprint(&spec, &gpt, &config, &truth);
        assert_eq!(base, estimator_fingerprint(&spec, &gpt, &config, &truth));
        let mut other = config;
        other.soft_margin = 0.2;
        assert_ne!(base, estimator_fingerprint(&spec, &gpt, &other, &truth));
        let mut other = config;
        other.train.iterations += 1;
        assert_ne!(base, estimator_fingerprint(&spec, &gpt, &other, &truth));
        let mut other_spec = spec.clone();
        other_spec.max_micro = 4;
        assert_ne!(
            base,
            estimator_fingerprint(&other_spec, &gpt, &config, &truth)
        );
        // The simulator's seed and options are training inputs too, and
        // list lengths keep `[8, 16] + []` apart from `[8] + [16]`.
        assert_ne!(
            base,
            estimator_fingerprint(&spec, &gpt, &config, &MemorySim::new(2))
        );
        let gpipe = truth.with_schedule(PipelineSchedule::GPipe);
        assert_ne!(base, estimator_fingerprint(&spec, &gpt, &config, &gpipe));
        let mut other_gpt = gpt;
        other_gpt.vocab += 1;
        assert_ne!(
            base,
            estimator_fingerprint(&spec, &other_gpt, &config, &truth)
        );
        let mut two = spec.clone();
        two.gpu_counts = vec![8, 16];
        two.global_batches = vec![];
        let mut split = spec.clone();
        split.gpu_counts = vec![8];
        split.global_batches = vec![16];
        assert_ne!(
            estimator_fingerprint(&two, &gpt, &config, &truth),
            estimator_fingerprint(&split, &gpt, &config, &truth)
        );
    }

    #[test]
    fn second_lookup_hits_and_matches_exactly() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let cache = TrainedEstimatorCache::in_memory();
        let first = cache.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(first, second);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_round_trip_is_bit_exact() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let dir = std::env::temp_dir().join("pipette-estimator-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let trained = {
            let cold = TrainedEstimatorCache::with_dir(&dir);
            cold.get_or_train(&spec, &gpt, &config, &truth, 1)
        };
        // A fresh cache (empty memory map) must find the file and return
        // the identical estimator.
        let warm = TrainedEstimatorCache::with_dir(&dir);
        let reloaded = warm.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
        assert_eq!(reloaded, trained);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Trains into a fresh cache under `dir_name`, replaces its `.idx` with
    /// `damage(intact bytes)`, and checks that the next cold lookup
    /// quarantines the damaged snapshot, retrains the identical estimator
    /// and heals the slot, so a third cache hits cleanly.
    fn assert_damaged_index_retrains(dir_name: &str, damage: impl Fn(&[u8]) -> Vec<u8>) {
        let (spec, gpt, config, truth) = tiny_inputs();
        let dir = std::env::temp_dir().join(dir_name);
        let _ = std::fs::remove_dir_all(&dir);
        let fp = estimator_fingerprint(&spec, &gpt, &config, &truth);
        let entry = dir.join(format!("pipette-mem-estimator-{fp:016x}.idx"));
        let trained =
            TrainedEstimatorCache::with_dir(&dir).get_or_train(&spec, &gpt, &config, &truth, 1);
        let damaged = damage(&std::fs::read(&entry).unwrap());
        std::fs::write(&entry, &damaged).unwrap();

        let cache = TrainedEstimatorCache::with_dir(&dir);
        let retrained = cache.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 0,
                misses: 1,
                corrupt: 1,
            }
        );
        assert_eq!(retrained, trained, "training is deterministic");
        // The defective bytes are quarantined, not overwritten: the slot
        // holds the retrained entry and the `.corrupt` file keeps the
        // original for inspection.
        assert_eq!(
            std::fs::read(entry.with_extension("idx.corrupt")).unwrap(),
            damaged,
            "quarantine file preserves the corrupt bytes"
        );
        assert_eq!(index::read_index(&entry, fp), Some(trained));
        // A third cache now hits the retrained entry cleanly.
        let warm = TrainedEstimatorCache::with_dir(&dir);
        let _ = warm.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!(
            warm.counters(),
            CacheCounters {
                hits: 1,
                misses: 0,
                corrupt: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_retrains() {
        assert_damaged_index_retrains("pipette-estimator-cache-corrupt", |_| {
            b"definitely not a snapshot".to_vec()
        });
    }

    /// A bit flip inside the payload keeps the header and length intact, so
    /// only the checksum catches it. The index is the only copy on disk:
    /// the lookup retrains rather than falling back to another entry, and
    /// the retrained snapshot heals the slot.
    #[test]
    fn corrupt_index_falls_back_to_json_and_heals() {
        assert_damaged_index_retrains("pipette-estimator-cache-idx-corrupt", |intact| {
            let mut bytes = intact.to_vec();
            let mid = bytes.len() - 8;
            bytes[mid] ^= 0x01;
            bytes
        });
    }

    /// A torn write leaves half a snapshot. It is quarantined and
    /// retrained like any other defect; no JSON entry exists to fall back
    /// to.
    #[test]
    fn truncated_index_falls_back_to_json() {
        assert_damaged_index_retrains("pipette-estimator-cache-idx-truncated", |intact| {
            intact[..intact.len() / 2].to_vec()
        });
    }

    /// Seeds of `index::shape_mutants::reshaped` that cover every kind of
    /// shape defect: the scaler width, a layer's rows, a layer's columns,
    /// and the layer count (first dropped, last dropped, one appended).
    const SHAPE_SEEDS: [u64; 6] = [0, 1, 3, 5, 11, 17];

    /// A snapshot with a valid checksum whose network cannot run is
    /// defective like any other: the lookup that meets it quarantines it
    /// and retrains.
    #[test]
    fn reshaped_index_retrains() {
        for seed in SHAPE_SEEDS {
            assert_damaged_index_retrains("pipette-estimator-cache-reshaped", |intact| {
                shape_mutants::reshaped(intact, seed).0
            });
        }
    }

    #[test]
    fn index_snapshot_alone_serves_a_warm_lookup() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let dir = std::env::temp_dir().join("pipette-estimator-cache-idx-only");
        let _ = std::fs::remove_dir_all(&dir);
        let trained = {
            let cold = TrainedEstimatorCache::with_dir(&dir);
            cold.get_or_train(&spec, &gpt, &config, &truth, 1)
        };
        // One format on disk: the snapshot, and nothing beside it.
        let fp = estimator_fingerprint(&spec, &gpt, &config, &truth);
        assert_eq!(
            listing(&dir),
            vec![format!("pipette-mem-estimator-{fp:016x}.idx")]
        );
        let warm = TrainedEstimatorCache::with_dir(&dir);
        let reloaded = warm.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
        assert_eq!(reloaded, trained);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_quarantines_defective_indexes_eagerly() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let dir = std::env::temp_dir().join("pipette-estimator-cache-sweep");
        let _ = std::fs::remove_dir_all(&dir);
        let trained = {
            let cold = TrainedEstimatorCache::with_dir(&dir);
            cold.get_or_train(&spec, &gpt, &config, &truth, 1)
        };
        let fp = estimator_fingerprint(&spec, &gpt, &config, &truth);
        let idx = dir.join(format!("pipette-mem-estimator-{fp:016x}.idx"));
        // Simulate damage: a second entry's snapshot got torn, and a third
        // entry's has a valid checksum over a network that cannot run. A
        // JSON entry from an older cache format is neither read nor
        // scanned.
        std::fs::write(
            dir.join("pipette-mem-estimator-00000000deadbeef.idx"),
            "torn",
        )
        .unwrap();
        let (mut reshaped, _) = shape_mutants::reshaped(&std::fs::read(&idx).unwrap(), 0);
        reshaped[16..24].copy_from_slice(&0xfeed_face_u64.to_le_bytes());
        std::fs::write(
            dir.join("pipette-mem-estimator-00000000feedface.idx"),
            reshaped,
        )
        .unwrap();
        std::fs::write(
            dir.join("pipette-mem-estimator-00000000deadbeef.json"),
            "{}",
        )
        .unwrap();
        let cache = TrainedEstimatorCache::with_dir(&dir);
        let report = cache.sweep();
        assert_eq!(
            report,
            SweepReport {
                scanned: 3,
                quarantined: 2,
            }
        );
        assert_eq!(cache.corrupt(), 2);
        // The torn entry is quarantined with its bytes intact...
        assert_eq!(
            std::fs::read_to_string(dir.join("pipette-mem-estimator-00000000deadbeef.idx.corrupt"))
                .unwrap(),
            "torn"
        );
        // ...and the good snapshot still round-trips its estimator.
        assert_eq!(index::read_index(&idx, fp), Some(trained));
        // A second sweep finds a fully healthy directory.
        assert_eq!(
            cache.sweep(),
            SweepReport {
                scanned: 1,
                quarantined: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_miss_is_not_corrupt() {
        let (spec, gpt, config, truth) = tiny_inputs();
        let dir = std::env::temp_dir().join("pipette-estimator-cache-plain-miss");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TrainedEstimatorCache::with_dir(&dir);
        let _ = cache.get_or_train(&spec, &gpt, &config, &truth, 1);
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 0,
                misses: 1,
                corrupt: 0,
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
