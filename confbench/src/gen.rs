//! Seeded input generation. The configurator only ever sees the job
//! specs and request lines built here; everything is a pure function of
//! the workload and the `--seed`.

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential one-shot `configure` jobs, each training and writing
    /// its memory estimator into a fresh on-disk cache.
    ColdConfigure,
    /// The serve loop answering SA `configure` requests from a warm
    /// estimator cache.
    WarmServe,
    /// The serve loop answering PPT-L (no worker dedication) requests on
    /// large clusters.
    QuickEstimate,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ColdConfigure,
        Workload::WarmServe,
        Workload::QuickEstimate,
    ];

    /// Looks a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdConfigure => "cold_configure",
            Workload::WarmServe => "warm_serve",
            Workload::QuickEstimate => "quick_estimate",
        }
    }
}

/// splitmix64: small, seedable and stable across platforms.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted so that different streams drawn
    /// from one seed do not coincide.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One job shape; the run seed fills in the search seed.
struct Shape {
    preset: &'static str,
    nodes: usize,
    model: &'static str,
    global_batch: u64,
    worker_dedication: bool,
    sa_iterations: usize,
    replicas: usize,
    memory_training_iterations: usize,
    trace: bool,
}

const fn shape(
    preset: &'static str,
    nodes: usize,
    model: &'static str,
    global_batch: u64,
) -> Shape {
    Shape {
        preset,
        nodes,
        model,
        global_batch,
        worker_dedication: true,
        sa_iterations: 2_000,
        replicas: 1,
        memory_training_iterations: 500,
        trace: false,
    }
}

/// `cold_configure`: mid-range and high-end clusters of 2-8 nodes. A
/// short SA budget keeps annealing a small share; estimator training
/// dominates.
const COLD: [Shape; 4] = [
    shape("mid-range", 2, "gpt-1.1b", 128),
    shape("mid-range", 8, "gpt-1.1b", 256),
    shape("high-end", 4, "gpt-3.1b", 256),
    shape("high-end", 8, "gpt-3.1b", 512),
];

const fn sa(nodes: usize, sa_iterations: usize, replicas: usize, trace: bool) -> Shape {
    Shape {
        sa_iterations,
        replicas,
        memory_training_iterations: 400,
        trace,
        ..shape("mid-range", nodes, "gpt-1.1b", 256)
    }
}

/// `warm_serve`: SA requests on 2-32 mid-range nodes, single chain and
/// four-replica tempering, three SA budgets, a third asking for the
/// embedded trace. Two estimator fingerprints (2 nodes; 4 or more).
const WARM: [Shape; 9] = [
    sa(2, 4_000, 1, false),
    sa(4, 8_000, 1, true),
    sa(4, 8_000, 4, false),
    sa(8, 8_000, 1, false),
    sa(8, 2_000, 4, false),
    sa(16, 4_000, 1, true),
    sa(16, 4_000, 4, false),
    sa(32, 2_000, 1, false),
    sa(32, 2_000, 4, true),
];

const fn ppt_l(nodes: usize, model: &'static str) -> Shape {
    Shape {
        worker_dedication: false,
        memory_training_iterations: 400,
        ..shape("high-end", nodes, model, 512)
    }
}

/// `quick_estimate`: PPT-L requests on 32-64 high-end nodes.
const QUICK: [Shape; 6] = [
    ppt_l(32, "gpt-1.1b"),
    ppt_l(48, "gpt-1.1b"),
    ppt_l(64, "gpt-1.1b"),
    ppt_l(32, "gpt-3.1b"),
    ppt_l(48, "gpt-3.1b"),
    ppt_l(64, "gpt-3.1b"),
];

/// One distinct input of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// The job spec (the `job` member of a serve request).
    pub job: String,
    /// What the program is sent: the job spec itself for one-shot
    /// workloads, a request envelope for serve workloads.
    pub line: String,
}

fn job_json(s: &Shape, cluster_seed: u64, seed: u64) -> String {
    format!(
        concat!(
            r#"{{"cluster":{{"preset":"{}","nodes":{},"seed":{}}},"model":{{"preset":"{}"}},"#,
            r#""global_batch":{},"max_micro":8,"worker_dedication":{},"sa_iterations":{},"#,
            r#""seed":{},"replicas":{},"exchange_interval":512,"memory_training_iterations":{}}}"#
        ),
        s.preset,
        s.nodes,
        cluster_seed,
        s.model,
        s.global_batch,
        s.worker_dedication,
        s.sa_iterations,
        seed,
        s.replicas,
        s.memory_training_iterations
    )
}

/// The distinct inputs of one run: each shape of the workload with
/// `searches` search seeds drawn from `seed`. A shape's cluster is fixed
/// (its bandwidth seed is the shape's index), so runs with different
/// seeds ask the same clusters different questions and the work per
/// request stays comparable across seeds. A run sends the inputs in
/// cycles (see [`cycle_order`]), so every input repeats and identical
/// lines can be checked for identical answers.
pub fn inputs(workload: Workload, seed: u64) -> Vec<Input> {
    let (shapes, searches): (&[Shape], usize) = match workload {
        Workload::ColdConfigure => (&COLD, 2),
        Workload::WarmServe => (&WARM, 2),
        Workload::QuickEstimate => (&QUICK, 4),
    };
    let mut rng = Rng::new(seed, 0x1);
    let mut out = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        for _ in 0..searches {
            let search = rng.below(1 << 20);
            let job = job_json(shape, 1000 + i as u64, search);
            let line = match workload {
                Workload::ColdConfigure => job.clone(),
                Workload::WarmServe | Workload::QuickEstimate => {
                    let trace = if shape.trace { r#","trace":true"# } else { "" };
                    format!(r#"{{"id":"s{i}-{search}","op":"configure","job":{job}{trace}}}"#)
                }
            };
            out.push(Input { job, line });
        }
    }
    out
}

/// The order in which every cycle sends the `n` inputs: one fixed
/// Fisher-Yates shuffle, so a cycle holds each input exactly once. The
/// order does not depend on the run seed: with two requests in flight a
/// request's latency includes the rest of its predecessor's service, so
/// a seeded order would make the latency quantiles follow the seed's
/// pairings instead of the program.
pub fn cycle_order(n: usize) -> Vec<usize> {
    let mut rng = Rng::new(0, 0x2);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        for w in Workload::ALL {
            assert_eq!(inputs(w, 7), inputs(w, 7), "{}", w.name());
            assert_ne!(inputs(w, 7), inputs(w, 8), "{}", w.name());
        }
        assert_eq!(cycle_order(9), cycle_order(9));
        assert_ne!(cycle_order(9), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn every_input_is_a_valid_job_and_distinct() {
        for w in Workload::ALL {
            let all = inputs(w, 11);
            for (i, input) in all.iter().enumerate() {
                pipette_cli::JobSpec::parse_strict(&input.job).expect("generated spec parses");
                assert!(all[i + 1..].iter().all(|o| o.line != input.line));
            }
            let mut order = cycle_order(all.len());
            order.sort_unstable();
            assert_eq!(order, (0..all.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
