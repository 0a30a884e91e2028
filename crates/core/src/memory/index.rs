//! Binary snapshots of trained memory estimators: the one on-disk format
//! of the estimator cache (see [`super::cache`]).
//!
//! Each `.idx` file has a *fixed layout*, so readers (many concurrent
//! configurator workers, the `pipette serve` daemon) load an estimator
//! with no text parsing at all: the file is read once, the header is
//! validated, and every weight is copied out of the little-endian payload
//! through a bounds-checked cursor. Numbers survive bit-exactly by
//! construction — `f64::to_le_bytes` round-trips — so a reloaded estimator
//! predicts byte-identically to the one that was trained (test-covered in
//! `tests/estimator_cache.rs`).
//!
//! ## Layout (all little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"PIPMEMIX"
//!      8     4  format version (currently 1)
//!     12     4  reserved (zero)
//!     16     8  training-input fingerprint (must match the cache key)
//!     24     8  payload length in bytes
//!     32     8  FNV-1a checksum of the payload
//!     40     …  payload
//! ```
//!
//! Payload, a flat run of 8-byte little-endian words (`u64` or `f64`):
//! `y_mean, y_std, soft_margin`, `seq_len, vocab`, the train summary
//! (`samples, iterations, record_every, final_loss, curve_len, curve…`),
//! the scaler (`num_features, means…, stds…`), then the network
//! (`num_layers`, and per layer `rows, cols, relu, weights…, bias…`).
//!
//! ## Corruption policy
//!
//! `read_index` returns `None` — never an error, never a partial value —
//! on *any* defect: short file, bad magic, version or fingerprint
//! mismatch, checksum mismatch, truncated payload, counts that do not
//! fit the remaining bytes, or a network that cannot run: a scaler that
//! is not 10 wide, or layers whose shapes do not chain 10 → … → 1 with
//! every dimension positive. There is no other copy to fall back to: the
//! cache quarantines the file as `.idx.corrupt` and retrains, so a
//! defect costs one training run, never a wrong answer (or a panic at
//! the first prediction).

use crate::memory::estimator::MemoryEstimator;
use pipette_mlp::{Dense, Matrix, Mlp, StandardScaler};
use std::path::Path;

use crate::memory::estimator::TrainSummary;

const MAGIC: [u8; 8] = *b"PIPMEMIX";
const VERSION: u32 = 1;
const HEADER_LEN: usize = 40;
/// Eq. 7's feature count: the width of the scaler and of the network's
/// input.
const FEATURES: usize = 10;

/// 64-bit FNV-1a: the payload checksum, and the cache fingerprint's hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bounds-checked little-endian reader over the payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(chunk)
    }

    fn u64(&mut self) -> Option<u64> {
        let chunk = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        Some(u64::from_le_bytes(buf))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Reads `n` f64s. The length is validated against the remaining
    /// bytes *before* allocating, so a corrupt count cannot trigger a
    /// huge allocation.
    fn f64s(&mut self, n: usize) -> Option<Vec<f64>> {
        let byte_len = n.checked_mul(8)?;
        if self.bytes.len().saturating_sub(self.pos) < byte_len {
            return None;
        }
        let chunk = self.take(byte_len)?;
        Some(
            chunk
                .chunks_exact(8)
                .map(|c| {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(c);
                    f64::from_bits(u64::from_le_bytes(buf))
                })
                .collect(),
        )
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Little-endian writer of 8-byte words: builds the payload, and the
/// canonical encoding the cache fingerprint hashes.
#[derive(Default)]
pub(crate) struct Builder {
    pub(crate) bytes: Vec<u8>,
}

impl Builder {
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
    }
}

/// Serializes `estimator` into the fixed payload layout.
fn encode_payload(estimator: &MemoryEstimator) -> Vec<u8> {
    let (mlp, scaler, (y_mean, y_std, soft_margin), (seq_len, vocab), summary) =
        estimator.index_parts();
    let mut b = Builder::default();
    b.f64(y_mean);
    b.f64(y_std);
    b.f64(soft_margin);
    b.u64(seq_len as u64);
    b.u64(vocab as u64);
    b.u64(summary.samples as u64);
    b.u64(summary.iterations as u64);
    b.u64(summary.record_every as u64);
    b.f64(summary.final_loss);
    b.u64(summary.loss_curve.len() as u64);
    b.f64s(&summary.loss_curve);
    b.u64(scaler.num_features() as u64);
    b.f64s(scaler.means());
    b.f64s(scaler.stds());
    b.u64(mlp.layers().len() as u64);
    for layer in mlp.layers() {
        b.u64(layer.weights.rows() as u64);
        b.u64(layer.weights.cols() as u64);
        b.u64(u64::from(layer.relu));
        b.f64s(layer.weights.as_slice());
        b.f64s(&layer.bias);
    }
    b.bytes
}

/// Parses a payload back into an estimator; `None` on any truncation or
/// inconsistency, or when its network could not run on Eq. 7's features.
fn decode_payload(payload: &[u8]) -> Option<MemoryEstimator> {
    let mut c = Cursor::new(payload);
    let y_mean = c.f64()?;
    let y_std = c.f64()?;
    let soft_margin = c.f64()?;
    let seq_len = c.usize()?;
    let vocab = c.usize()?;
    let samples = c.usize()?;
    let iterations = c.usize()?;
    let record_every = c.usize()?;
    let final_loss = c.f64()?;
    let curve_len = c.usize()?;
    let loss_curve = c.f64s(curve_len)?;
    if c.usize()? != FEATURES {
        return None;
    }
    let means = c.f64s(FEATURES)?;
    let stds = c.f64s(FEATURES)?;
    let num_layers = c.usize()?;
    let mut layers = Vec::new();
    // Each layer must take the previous one's output (the features, for
    // the first); the last must give the one prediction. A positive
    // `width` and `rows == width` make every dimension positive.
    let mut width = FEATURES;
    for _ in 0..num_layers {
        let rows = c.usize()?;
        let cols = c.usize()?;
        if rows != width || cols == 0 {
            return None;
        }
        width = cols;
        let relu = match c.u64()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let n = rows.checked_mul(cols)?;
        let weights = c.f64s(n)?;
        let bias = c.f64s(cols)?;
        layers.push(Dense::from_parts(
            Matrix::from_vec(rows, cols, weights),
            bias,
            relu,
        ));
    }
    if width != 1 || !c.finished() {
        return None;
    }
    Some(MemoryEstimator::from_index_parts(
        Mlp::from_layers(layers),
        StandardScaler::from_parts(means, stds),
        (y_mean, y_std, soft_margin),
        (seq_len, vocab),
        TrainSummary {
            samples,
            iterations,
            record_every,
            final_loss,
            loss_curve,
        },
    ))
}

/// Writes the binary snapshot of `estimator` for cache key `fingerprint`
/// to `path`. The cache treats this as best-effort: an error only costs a
/// retrain in a later process, never correctness.
pub(crate) fn write_index(
    path: &Path,
    fingerprint: u64,
    estimator: &MemoryEstimator,
) -> std::io::Result<()> {
    let payload = encode_payload(estimator);
    let mut file = Vec::with_capacity(HEADER_LEN + payload.len());
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&VERSION.to_le_bytes());
    file.extend_from_slice(&0u32.to_le_bytes());
    file.extend_from_slice(&fingerprint.to_le_bytes());
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    file.extend_from_slice(&payload);
    std::fs::write(path, file)
}

/// Loads the snapshot at `path` if — and only if — it is intact and was
/// written for `fingerprint`. Any defect returns `None` (see the module
/// docs' corruption policy).
pub(crate) fn read_index(path: &Path, fingerprint: u64) -> Option<MemoryEstimator> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return None;
    }
    let mut header = Cursor::new(&bytes[8..HEADER_LEN]);
    let version = header.u64()? as u32; // version u32 + reserved u32 read together
    if version != VERSION {
        return None;
    }
    if header.u64()? != fingerprint {
        return None;
    }
    let payload_len = header.usize()?;
    let checksum = header.u64()?;
    let payload = bytes.get(HEADER_LEN..)?;
    if payload.len() != payload_len || fnv1a(payload) != checksum {
        return None;
    }
    decode_payload(payload)
}

/// Well-formed snapshots of the wrong shape, for the corruption tests:
/// every count matches the bytes that follow it and the checksum is
/// valid, so only `decode_payload`'s shape checks can reject them.
#[cfg(test)]
pub(crate) mod shape_mutants {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The parts of a payload a shape mutant rewrites: the leading fields
    /// before the scaler (kept as they are), the scaler width, and each
    /// layer's `(rows, cols)`.
    pub(crate) struct Shape {
        head: Vec<u8>,
        width: usize,
        layers: Vec<(usize, usize)>,
    }

    fn word(payload: &[u8], i: usize) -> usize {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&payload[8 * i..8 * i + 8]);
        u64::from_le_bytes(buf) as usize
    }

    /// The shape of the intact `.idx` file `file`.
    pub(crate) fn shape_of(file: &[u8]) -> Shape {
        let payload = &file[HEADER_LEN..];
        // Ten leading words, the last of them the loss curve's length,
        // then the curve.
        let scaler_at = 10 + word(payload, 9);
        let width = word(payload, scaler_at);
        let mut at = scaler_at + 1 + 2 * width;
        let mut layers = Vec::new();
        let num_layers = word(payload, at);
        at += 1;
        for _ in 0..num_layers {
            let (rows, cols) = (word(payload, at), word(payload, at + 1));
            layers.push((rows, cols));
            at += 3 + rows * cols + cols;
        }
        Shape {
            head: payload[..8 * scaler_at].to_vec(),
            width,
            layers,
        }
    }

    /// `shape` written back as a whole `.idx` file under `file`'s header
    /// fields, with filler statistics and weights.
    pub(crate) fn file_of(file: &[u8], shape: &Shape) -> Vec<u8> {
        let mut b = Builder::default();
        b.bytes.extend_from_slice(&shape.head);
        b.u64(shape.width as u64);
        b.f64s(&vec![0.0; shape.width]);
        b.f64s(&vec![1.0; shape.width]);
        b.u64(shape.layers.len() as u64);
        for &(rows, cols) in &shape.layers {
            b.u64(rows as u64);
            b.u64(cols as u64);
            b.u64(1);
            b.f64s(&vec![0.5; rows * cols]);
            b.f64s(&vec![0.0; cols]);
        }
        let mut out = file[..24].to_vec();
        out.extend_from_slice(&(b.bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&b.bytes).to_le_bytes());
        out.extend_from_slice(&b.bytes);
        out
    }

    /// The intact `.idx` file `file` with one seeded shape defect: a
    /// scaler that is not 10 wide, a layer whose rows or columns (zero
    /// included) break the 10 → … → 1 chain, or a first or last layer
    /// dropped, or a mismatched one appended. Returns the defective file
    /// and what was done to it.
    pub(crate) fn reshaped(file: &[u8], seed: u64) -> (Vec<u8>, String) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // A value in `0..=2v + 2` other than `v`.
        let mut other = |v: usize| loop {
            let x = rng.gen_range(0..=2 * v + 2);
            if x != v {
                break x;
            }
        };
        let mut shape = shape_of(file);
        let n = shape.layers.len();
        let what = match seed % 6 {
            0 => {
                shape.width = other(FEATURES);
                format!("scaler {} wide", shape.width)
            }
            1 | 2 => {
                let i = seed as usize / 6 % n;
                shape.layers[i].0 = other(shape.layers[i].0);
                format!("layer {i} with {} rows", shape.layers[i].0)
            }
            3 | 4 => {
                let i = seed as usize / 6 % n;
                shape.layers[i].1 = other(shape.layers[i].1);
                format!("layer {i} with {} columns", shape.layers[i].1)
            }
            _ => match seed / 6 % 3 {
                0 => {
                    shape.layers.remove(0);
                    "first layer dropped".to_string()
                }
                1 => {
                    shape.layers.pop();
                    "last layer dropped".to_string()
                }
                _ => {
                    let rows = other(1);
                    shape.layers.push((rows, 1));
                    format!("{rows}x1 layer appended")
                }
            },
        };
        (file_of(file, &shape), what)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::dataset::{collect_samples, SampleSpec};
    use crate::memory::estimator::MemoryEstimatorConfig;
    use pipette_mlp::TrainConfig;
    use pipette_model::GptConfig;
    use pipette_sim::MemorySim;

    fn tiny_estimator() -> MemoryEstimator {
        tiny_estimator_with_features().0
    }

    fn tiny_estimator_with_features() -> (MemoryEstimator, [f64; 10]) {
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
                iterations: 120,
                learning_rate: 3e-3,
                batch_size: 32,
                record_every: 40,
                seed: 0,
            },
            hidden: 12,
            depth: 2,
            soft_margin: 0.08,
            seed: 1,
        };
        let samples = collect_samples(&spec, &MemorySim::new(1));
        let features = samples[0].features;
        (MemoryEstimator::train(&samples, &config), features)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pipette-index-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_is_exactly_equal() {
        let (estimator, features) = tiny_estimator_with_features();
        let path = temp_path("round-trip.idx");
        write_index(&path, 0xdead_beef, &estimator).unwrap();
        let loaded = read_index(&path, 0xdead_beef).expect("intact snapshot loads");
        assert_eq!(loaded, estimator);
        // Byte-identical predictions, not merely close ones.
        assert_eq!(
            loaded.predict_bytes(&features),
            estimator.predict_bytes(&features)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let estimator = tiny_estimator();
        let path = temp_path("fingerprint.idx");
        write_index(&path, 1, &estimator).unwrap();
        assert!(read_index(&path, 2).is_none());
        assert!(read_index(&path, 1).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let estimator = tiny_estimator();
        let path = temp_path("truncate.idx");
        write_index(&path, 7, &estimator).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Every strictly shorter prefix must fail cleanly — header cuts,
        // payload cuts, and the empty file alike.
        for keep in [0, 1, 8, 16, HEADER_LEN - 1, HEADER_LEN, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            assert!(read_index(&path, 7).is_none(), "prefix of {keep} accepted");
        }
        std::fs::write(&path, &full).unwrap();
        assert!(read_index(&path, 7).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let estimator = tiny_estimator();
        let path = temp_path("bitflip.idx");
        write_index(&path, 9, &estimator).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index(&path, 9).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let estimator = tiny_estimator();
        let path = temp_path("trailing.idx");
        write_index(&path, 3, &estimator).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index(&path, 3).is_none(), "length check must catch");
        let _ = std::fs::remove_file(&path);
    }

    /// A snapshot whose network cannot run on Eq. 7's ten features reads
    /// as corrupt, whether its scaler width, a layer's rows or columns,
    /// or its layer count is wrong — never as an estimator that panics
    /// at its first prediction.
    #[test]
    fn shape_mutants_read_as_corrupt() {
        let estimator = tiny_estimator();
        let path = temp_path("shape.idx");
        write_index(&path, 4, &estimator).unwrap();
        let intact = std::fs::read(&path).unwrap();
        // The control: the mutants' writer reproduces a loadable file.
        let control = shape_mutants::file_of(&intact, &shape_mutants::shape_of(&intact));
        assert!(decode_payload(&control[HEADER_LEN..]).is_some());
        for seed in 0..48 {
            let (mutant, what) = shape_mutants::reshaped(&intact, seed);
            assert!(
                decode_payload(&mutant[HEADER_LEN..]).is_none(),
                "seed {seed}: {what} decoded"
            );
            std::fs::write(&path, &mutant).unwrap();
            assert!(read_index(&path, 4).is_none(), "seed {seed}: {what} read");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_a_clean_none() {
        assert!(read_index(Path::new("/nonexistent/p.idx"), 0).is_none());
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let estimator = tiny_estimator();
        let path = temp_path("magic.idx");
        write_index(&path, 5, &estimator).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let good = bytes.clone();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index(&path, 5).is_none());
        bytes = good;
        bytes[8] = 99; // version
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_index(&path, 5).is_none());
        let _ = std::fs::remove_file(&path);
    }
}
