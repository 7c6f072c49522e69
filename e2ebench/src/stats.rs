//! Order statistics and process counters.

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest-percentile latency the sample supports: p99 with at least
/// 1 000 samples (ten beyond it), otherwise the maximum.
pub fn tail(values: &[f64]) -> f64 {
    if values.len() >= 1000 {
        percentile(values, 99.0)
    } else {
        percentile(values, 100.0)
    }
}

/// Process counters read from `/proc/self` (Linux).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub minflt: u64,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

impl ProcSample {
    pub fn now() -> ProcSample {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; minflt is field
        // 10, utime 14 and stime 15 of proc(5).
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<u64> = rest
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let field = |n: usize| fields.get(n - 3).copied().unwrap_or(0);
        ProcSample {
            minflt: field(10),
            utime_ticks: field(14),
            stime_ticks: field(15),
        }
    }

    /// `(minor faults, share of CPU time spent in the kernel)` since
    /// `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> (u64, f64) {
        let user = self.utime_ticks - earlier.utime_ticks;
        let sys = self.stime_ticks - earlier.stime_ticks;
        let share = if user + sys == 0 {
            0.0
        } else {
            sys as f64 / (user + sys) as f64
        };
        (self.minflt - earlier.minflt, share)
    }
}

/// Process high-water resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(tail(&v), 100.0, "under 1000 samples the tail is the max");
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&big), 990.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_counters_are_readable() {
        let a = ProcSample::now();
        let v: Vec<u8> = vec![1; 1 << 22];
        std::hint::black_box(&v);
        let b = ProcSample::now();
        assert!(b.minflt >= a.minflt);
        assert!(peak_rss_mb() > 0.0);
    }
}
