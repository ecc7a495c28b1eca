//! Statistics over samples and CPU time from `/proc`.

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (`q` in `0..=1`); 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Samples p90 needs so that at least ten lie beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Clock ticks per second of the `/proc/<pid>/stat` times: `USER_HZ`,
/// which the Linux ABI fixes at 100 on x86 and ARM.
const CLOCK_TICKS: f64 = 100.0;

/// CPU times of this process from `/proc/self/stat`, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    /// This process: `utime + stime`.
    pub own_ms: f64,
    /// Its reaped children: `cutime + cstime`.
    pub children_ms: f64,
}

pub fn cpu_times() -> std::io::Result<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // Fields after the parenthesised command name, which may hold spaces;
    // utime, stime, cutime and cstime are fields 14 to 17 of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    if f.len() < 4 {
        return Err(std::io::Error::other("short /proc/self/stat"));
    }
    let ms = 1000.0 / CLOCK_TICKS;
    Ok(CpuTimes {
        own_ms: (f[0] + f[1]) * ms,
        children_ms: (f[2] + f[3]) * ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn cpu_times_advance() {
        let a = cpu_times().unwrap();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let b = cpu_times().unwrap();
        assert!(b.own_ms > a.own_ms, "{} !> {}", b.own_ms, a.own_ms);
    }
}
