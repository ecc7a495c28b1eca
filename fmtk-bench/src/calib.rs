//! Host-speed scaling: a fixed piece of work, the kernel, timed all
//! through a run, so that a run's figures can be scaled to one speed.
//!
//! The benchmark runs on a few vCPUs of a shared host. The host switches
//! between a fast and a slow speed several times a second, and the share
//! of time it spends slow changes over minutes with what other tenants
//! run, so whole runs come out fast or slow by a quarter and more. A
//! median over a run cannot remove that. So the runner times the kernel
//! between requests, run the way the workload's requests run: as a child
//! process spawned and reaped like `fmtk` for the CLI workloads, and as
//! a call in-process for churn. Every time the run reports is multiplied
//! by the reference time over the kernel's time next to it (see
//! [`Samples::figures`]). The kernel never calls the toolbox, so a change
//! to the program moves the scaled figures by the same share as the
//! unscaled ones.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Typical wall times, in ms, of one kernel call in-process and of one
/// kernel process, on the host the benchmark was tuned on (a 2-vCPU
/// Xeon VM at 2.0 GHz). Scaled figures read as milliseconds on that
/// host at that speed.
pub const REFERENCE_MS: f64 = 12.0;
pub const REFERENCE_PROCESS_MS: f64 = 10.0;

/// `2^log2_n` hash-set inserts drawn from `4 * 2^log2_n` keys, as many
/// probes, then a sort: the mix of hashing, random memory access and
/// allocation that the toolbox's engines do. The hasher has fixed keys,
/// so every call with the same size does identical work.
pub fn kernel(log2_n: u32) -> u64 {
    let n = 1_usize << log2_n;
    let shift = 64 - (log2_n + 2);
    let mut set: HashSet<u64, BuildHasherDefault<DefaultHasher>> =
        HashSet::with_capacity_and_hasher(n / 4, Default::default());
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut step = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> shift
    };
    for _ in 0..n {
        set.insert(step());
    }
    let mut hits = 0;
    for _ in 0..n {
        hits += u64::from(set.contains(&step()));
    }
    let mut v: Vec<u64> = set.into_iter().collect();
    v.sort_unstable();
    hits + v[v.len() / 2]
}

/// Kernel size of a kernel process, and of a call in-process. Churn's
/// runtime holds more than a core's L2 and slows with the host's memory
/// more than with its cores, so its kernel sweeps a table of a few MiB.
pub const PROCESS_LOG2_N: u32 = 15;
pub const IN_PROCESS_LOG2_N: u32 = 17;

/// Wall time of one in-process kernel call, in ms.
pub fn sample_ms() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel(IN_PROCESS_LOG2_N));
    t.elapsed().as_secs_f64() * 1e3
}

/// The trimmed mean of the kernel times: the mean of the middle 80 %.
/// The host switches between a fast and a slow speed many times a
/// second, so the mean follows the share of time spent slow; trimming
/// drops the calls a preemption cut into.
pub fn typical_ms(kernel_ms: &[f64]) -> f64 {
    let mut v = kernel_ms.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 10;
    crate::measure::mean(&v[cut..v.len() - cut])
}

/// The argument that makes the benchmark's binary a kernel process.
pub const KERNEL_FLAG: &str = "--kernel";

/// The body of a kernel process: two kernel calls. The CLI workloads
/// time a whole kernel process, spawned and reaped the way `fmtk` is,
/// so the host's cost of starting and ending a process is in it too.
pub fn kernel_process() {
    for _ in 0..2 {
        std::hint::black_box(kernel(PROCESS_LOG2_N));
    }
}

/// What a run measured. Each sample remembers where it fell among the
/// kernel samples, so that it can be scaled by the host's speed next to
/// it.
#[derive(Debug, Clone)]
pub struct Samples {
    /// [`REFERENCE_MS`] or [`REFERENCE_PROCESS_MS`], whichever the
    /// kernel samples are.
    reference_ms: f64,
    /// Wall time of each kernel call or kernel process, ms.
    kernel_ms: Vec<f64>,
    /// Each sample with the number of kernel samples taken before it.
    setup_s: Vec<(f64, usize)>,
    walls_ms: Vec<(f64, usize)>,
    cpu_ms: Vec<(f64, usize)>,
}

/// A run's figures, scaled or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Figures {
    /// Set-up samples, s.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed request, ms.
    pub walls_ms: Vec<f64>,
    /// CPU time of the timed requests together, ms.
    pub cpu_ms: f64,
}

impl Samples {
    pub fn new(reference_ms: f64) -> Samples {
        Samples {
            reference_ms,
            kernel_ms: Vec::new(),
            setup_s: Vec::new(),
            walls_ms: Vec::new(),
            cpu_ms: Vec::new(),
        }
    }

    pub fn kernel(&mut self, ms: f64) {
        self.kernel_ms.push(ms);
    }

    pub fn setup(&mut self, s: f64) {
        self.setup_s.push((s, self.kernel_ms.len()));
    }

    pub fn request(&mut self, wall_ms: f64) {
        self.walls_ms.push((wall_ms, self.kernel_ms.len()));
    }

    pub fn cpu(&mut self, ms: f64) {
        self.cpu_ms.push((ms, self.kernel_ms.len()));
    }

    pub fn requests(&self) -> usize {
        self.walls_ms.len()
    }

    pub fn kernel_ms(&self) -> &[f64] {
        &self.kernel_ms
    }

    pub fn reference_ms(&self) -> f64 {
        self.reference_ms
    }

    /// The factor that takes a sample to the reference speed: the
    /// reference over the median of the kernel samples just before and
    /// just after it and the run's typical kernel time. The host changes
    /// speed several times a second, and a kernel sample next to a
    /// request is most likely to share its speed; the median keeps one
    /// kernel sample that a preemption cut into from skewing it.
    fn factor(&self, kernels_before: usize, typical: f64) -> f64 {
        let at = |i: Option<usize>| i.and_then(|i| self.kernel_ms.get(i)).copied();
        let before = at(kernels_before.checked_sub(1)).unwrap_or(typical);
        let after = at(Some(kernels_before)).unwrap_or(typical);
        self.reference_ms / crate::measure::median(&[before, after, typical])
    }

    /// The run's figures, each sample scaled to the reference speed when
    /// `scaled`.
    pub fn figures(&self, scaled: bool) -> Figures {
        let typical = typical_ms(&self.kernel_ms);
        let each = |xs: &[(f64, usize)]| -> Vec<f64> {
            xs.iter()
                .map(|&(x, k)| {
                    if scaled {
                        x * self.factor(k, typical)
                    } else {
                        x
                    }
                })
                .collect()
        };
        Figures {
            setup_s: each(&self.setup_s),
            walls_ms: each(&self.walls_ms),
            cpu_ms: each(&self.cpu_ms).iter().sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_call() {
        assert_eq!(kernel(PROCESS_LOG2_N), kernel(PROCESS_LOG2_N));
        assert_ne!(kernel(PROCESS_LOG2_N), kernel(IN_PROCESS_LOG2_N));
    }

    #[test]
    fn the_typical_time_drops_the_extremes() {
        let mut xs = vec![2.0; 18];
        xs.push(0.1);
        xs.push(90.0);
        assert_eq!(typical_ms(&xs), 2.0);
    }

    #[test]
    fn each_sample_is_scaled_by_the_kernel_next_to_it() {
        let mut run = Samples::new(10.0);
        // Kernel samples 20 ms, then 40 ms from the fourth on, and one
        // preempted sample.
        for i in 0..10 {
            run.setup(0.5);
            run.request(6.0);
            run.cpu(4.0);
            run.kernel(match i {
                0..=2 => 20.0,
                5 => 400.0,
                _ => 40.0,
            });
        }
        let raw = run.figures(false);
        assert_eq!(raw.walls_ms, vec![6.0; 10]);
        assert_eq!(raw.cpu_ms, 40.0);
        let scaled = run.figures(true);
        // Request i runs between kernel samples i - 1 and i. The typical
        // time, the mean without the lowest and the highest, is 35 ms.
        let t = 10.0 / 35.0;
        let want = [t, 0.5, 0.5, t, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25];
        let got: Vec<f64> = scaled.walls_ms.iter().map(|w| w / 6.0).collect();
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{got:?}");
        }
        assert!((scaled.setup_s[4] - 0.125).abs() < 1e-12);
    }
}
