//! Summary statistics, host facts and the result record.

use std::fmt::Write as _;

/// The `q`-quantile of `values` by linear interpolation between the two
/// nearest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The Harrell-Davis estimate of the `q`-quantile (`0 < q < 1`) of
/// `values`; 0 for an empty slice.
///
/// It weights every order statistic by a Beta(q(n+1), (1-q)(n+1))
/// kernel instead of reading one or two of them. A workload whose inputs
/// differ in cost has a latency distribution with one mode per input;
/// a rank-based quantile sits on the boundary between two modes and
/// jumps with the extremes of either, while this one moves smoothly.
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return values.first().copied().unwrap_or(0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = beta_cdf((i + 1) as f64 / n as f64, a, b);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// ln Γ(x) for `x > 0` (Lanczos, g = 7, n = 9).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |s, (i, c)| s + c / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function I_x(a, b): the Beta(a, b)
/// CDF at `x`, by its continued fraction (modified Lentz).
fn beta_cdf(x: f64, a: f64, b: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    // The fraction converges fast only below the mean; use the symmetry
    // I_x(a, b) = 1 - I_{1-x}(b, a) above it.
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - beta_cdf(1.0 - x, b, a);
    }
    let front =
        (a * x.ln() + b * (1.0 - x).ln() - (ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))).exp() / a;
    const TINY: f64 = 1e-300;
    let (mut c, mut d) = (1.0, 1.0 - (a + b) * x / (a + 1.0));
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut f = d;
    for m in 1..10_000 {
        let m = m as f64;
        for numerator in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + numerator * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + numerator / c;
            if c.abs() < TINY {
                c = TINY;
            }
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-15 {
            break;
        }
    }
    front * f
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 64-bit FNV-1a, folded into `hash`.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for byte in bytes {
        *hash ^= u64::from(*byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Worker threads the configurator defaults to on this host.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host's CPU count, `nproc` (1 once pinned) and the CPU model, for
/// the result record.
pub fn host_line() -> String {
    let cpus = std::fs::read_to_string("/proc/stat")
        .map(|text| {
            text.lines()
                .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
                .count()
        })
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("host: cpus={cpus} nproc={} cpu={cpu:?}", cores())
}

/// The tick counters of one `/proc/stat` line (`cpu` for the host,
/// `cpuN` for one CPU); empty where the kernel does not report it.
fn stat_fields(name: &str) -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                let mut fields = l.split_whitespace();
                (fields.next() == Some(name))
                    .then(|| fields.filter_map(|f| f.parse().ok()).collect())
            })
        })
        .unwrap_or_default()
}

/// The host's CPU time counters (`/proc/stat`): total and stolen by the
/// hypervisor, in ticks; zeros where the kernel does not report them.
pub fn cpu_ticks() -> (u64, u64) {
    let fields = stat_fields("cpu");
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Parses a kernel CPU list such as `0-3,6`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pins this process, before it starts any thread, to the allowed CPU
/// that was idle longest over a short sample, and returns that CPU.
///
/// The configurator sizes its thread pools from the CPUs it may run on,
/// so a pinned process runs every layer on one thread. On a host whose
/// few CPUs other tenants share, a pool as wide as the host stalls
/// whenever one of its threads is descheduled, and its timings follow
/// the neighbours' load instead of the program.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(parse_cpu_list)
        .unwrap_or_default();
    let idle = |cpu: usize| -> u64 {
        let f = stat_fields(&format!("cpu{cpu}"));
        f.get(3).copied().unwrap_or(0) + f.get(4).copied().unwrap_or(0)
    };
    let before: Vec<u64> = allowed.iter().map(|&c| idle(c)).collect();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let cpu = allowed
        .iter()
        .zip(before)
        .max_by_key(|&(&c, b)| idle(c).saturating_sub(b))
        .map(|(&c, _)| c)
        .ok_or("no allowed CPU listed in /proc/self/status")?;
    let out = std::process::Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .output()
        .map_err(|e| format!("taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(cpu)
}

/// Peak resident memory of this process (`VmHWM`), MB; 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// with its unit. Values print with all their digits.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out =
        format!(r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{"#);
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#""{name}":{{"value":{value:?},"unit":"{unit}"}}"#);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&v), 2.5);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(ln_gamma(5.0), 24f64.ln()));
        assert!(close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln()));
        assert!(close(beta_cdf(0.3, 1.0, 3.0), 1.0 - 0.7f64.powi(3)));
        assert!(close(beta_cdf(0.3, 3.0, 1.0), 0.3f64.powi(3)));
        assert!(close(beta_cdf(0.8, 1.0, 3.0), 1.0 - 0.2f64.powi(3)));
        assert!(close(beta_cdf(0.5, 700.5, 700.5), 0.5));
        assert_eq!(
            (beta_cdf(0.0, 2.0, 2.0), beta_cdf(1.0, 2.0, 2.0)),
            (0.0, 1.0)
        );
    }

    #[test]
    fn harrell_davis_is_a_smooth_quantile() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(hd_quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0));
        assert!(close(hd_quantile(&[7.0; 40], 0.9), 7.0));
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
        assert_eq!(hd_quantile(&[2.5], 0.9), 2.5);
        // Two equal modes: the rank median sits on an extreme of one of
        // them; the Harrell-Davis median lies between them and moves
        // little when one extreme does.
        let mut two: Vec<f64> = (0..50).map(|i| 10.0 + i as f64 * 0.01).collect();
        two.extend((0..50).map(|i| 20.0 + i as f64 * 0.01));
        let before = hd_quantile(&two, 0.5);
        assert!(before > 12.0 && before < 18.0, "{before}");
        two[49] = 14.0;
        assert!((hd_quantile(&two, 0.5) - before).abs() < 0.5);
        assert!(hd_quantile(&two, 0.9) > 20.0);
    }

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(parse_cpu_list("0-3,6\n"), vec![0, 1, 2, 3, 6]);
        assert_eq!(parse_cpu_list("1"), vec![1]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }

    #[test]
    fn result_json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("a", 0.1 + 0.2, "ms");
        m.put("b", 3.0, "s");
        assert_eq!(
            result_json(true, 3, 0, &m),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"a":{"value":0.30000000000000004,"unit":"ms"},"b":{"value":3.0,"unit":"s"}}}"#
        );
    }
}
