//! Small helpers: a seeded RNG, order statistics, `/proc` readings and
//! deltas of the program's own telemetry counters.

use std::path::Path;

use semandaq::obs::MetricsReport;

/// SplitMix64: tiny, seedable, and the same stream on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nearest-rank quantile `q` of `xs` (sorted in place); 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank.min(xs.len()) - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// `fstype mountpoint` of the filesystem holding `dir` (longest mount
/// prefix in `/proc/mounts`).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt)
                .then(|| (mnt.len(), format!("{fstype} {mnt}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, s)| s)
}

/// Counter and histogram deltas between two `obs::snapshot()`s.
pub struct ObsDelta {
    before: MetricsReport,
    after: MetricsReport,
}

impl ObsDelta {
    pub fn new(before: MetricsReport, after: MetricsReport) -> ObsDelta {
        ObsDelta { before, after }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let get = |r: &MetricsReport| r.counter(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    /// Mean of histogram `name` over the window (Δsum / Δcount), 0 when
    /// nothing was recorded.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let get = |r: &MetricsReport| r.histogram(name).map_or((0, 0), |h| (h.sum, h.count));
        let (s0, c0) = get(&self.before);
        let (s1, c1) = get(&self.after);
        ratio(s1.saturating_sub(s0) as f64, c1.saturating_sub(c0) as f64)
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A number as JSON: non-finite values (a latency of a failed request)
/// print as the largest finite double.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}
