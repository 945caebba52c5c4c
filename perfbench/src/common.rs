//! Corpus, seeds, latency statistics and process memory.

use std::time::Instant;

use sega_dcim::estimator::ALL_PRECISIONS;
use sega_dcim::moga::Nsga2Config;
use sega_dcim::UserSpec;

/// The `Wstore` values of the corpus: 4K, 64K and 1M weights.
pub const WSTORES: [u64; 3] = [4096, 65536, 1 << 20];

/// The 24-spec corpus: 8 precisions × 3 `Wstore` values.
pub fn corpus() -> Vec<UserSpec> {
    WSTORES
        .iter()
        .flat_map(|&w| ALL_PRECISIONS.iter().map(move |&p| (w, p)))
        .map(|(w, p)| UserSpec::new(w, p).expect("corpus specs are valid"))
        .collect()
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The default GA budget (population 100 × 120 generations) with `seed`.
pub fn job_config(seed: u64) -> Nsga2Config {
    Nsga2Config {
        seed,
        ..Default::default()
    }
}

/// Percentiles tried for the tail, highest last.
const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 99.0, 99.9];

/// Latency summary of one run, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Samples.
    pub count: usize,
    /// Median.
    pub p50_ms: f64,
    /// The highest ladder percentile with at least ten samples beyond it
    /// (the median when there are too few samples for any).
    pub tail_pct: f64,
    /// The latency at `tail_pct`.
    pub tail_ms: f64,
}

impl Latency {
    /// Summarizes latencies given in seconds.
    pub fn of(seconds: &[f64]) -> Latency {
        let mut ms: Vec<f64> = seconds.iter().map(|s| s * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        let n = ms.len();
        let tail_pct = TAIL_LADDER
            .iter()
            .copied()
            .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
            .unwrap_or(50.0);
        Latency {
            count: n,
            p50_ms: percentile(&ms, 50.0),
            tail_pct,
            tail_ms: percentile(&ms, tail_pct),
        }
    }

    /// Samples beyond the tail percentile.
    pub fn beyond(&self) -> usize {
        (self.count as f64 * (100.0 - self.tail_pct) / 100.0).floor() as usize
    }
}

/// A host-speed probe: a sort of pseudo-random 64-bit words. Neighbours
/// on a shared host slow it by up to 1.7× for seconds or minutes at a
/// time, and they slow an op by about the same factor when the probe's
/// working set sits in the same level of the memory hierarchy as the
/// op's; a register-only loop slows far less. The probe is benchmark
/// code, so a change to the program cannot move it.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Words sorted.
    words: usize,
    /// Seconds the sort takes on the reference host (a 2-vCPU Intel Xeon
    /// VM) when no neighbour disturbs it.
    reference_s: f64,
}

/// For ops whose working set stays in the core's own caches, as the
/// GA's does: 128 KiB.
pub const CACHE_PROBE: Probe = Probe {
    words: 16 << 10,
    reference_s: 260e-6,
};

/// For ops that stream hundreds of MB through the shared cache and
/// memory, as netlist generation and emission do: 8 MiB.
pub const MEMORY_PROBE: Probe = Probe {
    words: 1 << 20,
    reference_s: 23e-3,
};

impl Probe {
    /// Runs the probe; returns how many times slower than the reference
    /// host it ran.
    pub fn slowdown(&self) -> f64 {
        let mut rng = Rng::new(0x5EED, 0);
        let t0 = Instant::now();
        let mut words: Vec<u64> = (0..self.words).map(|_| rng.next()).collect();
        words.sort_unstable();
        std::hint::black_box(&words);
        t0.elapsed().as_secs_f64() / self.reference_s
    }
}

/// One op's wall time and the host's slowdown around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall time of the op, seconds.
    pub wall_s: f64,
    /// Mean [`Probe::slowdown`] of probes just before and just after the
    /// op, which met the same neighbours it did.
    pub slowdown: f64,
}

impl Timed {
    /// Runs `f` between two runs of `probe`; returns its value and timing.
    pub fn measure<T>(probe: Probe, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = probe.slowdown();
        let t0 = Instant::now();
        let value = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let slowdown = (before + probe.slowdown()) / 2.0;
        (value, Timed { wall_s, slowdown })
    }

    /// The wall time at the reference host's speed. Two runs of the same
    /// program then agree while neighbours slow the host by different
    /// amounts.
    pub fn at_reference_speed(&self) -> f64 {
        self.wall_s / self.slowdown
    }
}

/// Linear-interpolated percentile of sorted values.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Geometric mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident memory of process `pid` (`self` for this one), in MB,
/// from the kernel's `VmHWM` high-water mark.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let secs: Vec<f64> = (1..=400).map(|i| i as f64 / 1e3).collect();
        let l = Latency::of(&secs);
        assert_eq!(l.tail_pct, 90.0);
        assert_eq!(l.beyond(), 40);
        assert!((l.p50_ms - 200.5).abs() < 1e-9);
        assert_eq!(Latency::of(&secs[..100]).tail_pct, 90.0);
        let few = Latency::of(&secs[..12]);
        assert_eq!(few.tail_pct, 50.0);
    }

    #[test]
    fn timings_scale_by_the_slowdown_around_them() {
        let at = |wall_s, slowdown| Timed { wall_s, slowdown }.at_reference_speed();
        assert_eq!(at(1.0, 1.0), 1.0);
        assert_eq!(at(3.0, 1.5), 2.0);
        let (value, timed) = Timed::measure(CACHE_PROBE, || 7);
        assert_eq!(value, 7);
        assert!(timed.slowdown > 0.0 && timed.wall_s >= 0.0);
    }

    #[test]
    fn corpus_has_24_distinct_specs() {
        let c = corpus();
        assert_eq!(c.len(), 24);
        for (i, a) in c.iter().enumerate() {
            for b in &c[i + 1..] {
                assert!(a.wstore != b.wstore || a.precision != b.precision);
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9, 1);
                move |_| r.next()
            })
            .collect();
        let mut r = Rng::new(9, 1);
        assert_eq!(a, (0..4).map(|_| r.next()).collect::<Vec<_>>());
        assert_ne!(Rng::new(9, 2).next(), Rng::new(9, 1).next());
    }
}
