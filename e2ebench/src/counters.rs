//! Snapshots of the program's own telemetry registry, differenced over
//! a window of ops. All values here are virtual-time or counts, so they
//! repeat bit for bit across same-seed runs.

use securetf_tee::telemetry::{HistogramSnapshot, MetricValue, HISTOGRAM_BOUNDS_NS};
use securetf_tee::Telemetry;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, MetricValue>);

impl Counters {
    pub fn take(telemetry: &Telemetry) -> Counters {
        Counters(telemetry.metrics().into_iter().collect())
    }

    fn counter_sum(&self, matches: impl Fn(&str) -> bool) -> u64 {
        self.0
            .iter()
            .filter(|(name, _)| matches(name))
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Growth of counter `name` since `before`.
    pub fn delta(&self, before: &Counters, name: &str) -> u64 {
        self.counter_sum(|n| n == name) - before.counter_sum(|n| n == name)
    }

    /// Growth since `before` of every per-scope counter ending in
    /// `.{suffix}` (e.g. each enclave's `epc.faults`), summed.
    pub fn delta_scoped(&self, before: &Counters, suffix: &str) -> u64 {
        let dotted = format!(".{suffix}");
        let m = |n: &str| n.ends_with(&dotted);
        self.counter_sum(m) - before.counter_sum(m)
    }

    /// Peak of gauge `name` (0 when absent).
    pub fn gauge_peak(&self, name: &str) -> i64 {
        match self.0.get(name) {
            Some(MetricValue::Gauge { peak, .. }) => *peak,
            _ => 0,
        }
    }

    /// Observations histogram `name` gained since `before`.
    pub fn hist_delta(&self, before: &Counters, name: &str) -> HistogramSnapshot {
        let get = |c: &Counters| match c.0.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.clone()),
            _ => None,
        };
        match (get(self), get(before)) {
            (Some(mut now), Some(then)) => {
                for (b, t) in now.buckets.iter_mut().zip(then.buckets) {
                    *b -= t;
                }
                now.count -= then.count;
                now.sum_ns -= then.sum_ns;
                now
            }
            (Some(now), None) => now,
            (None, _) => HistogramSnapshot {
                buckets: Default::default(),
                count: 0,
                sum_ns: 0,
                max_ns: 0,
            },
        }
    }
}

/// Upper bucket bound holding the `p`-th percentile observation (the
/// overflow bucket reports the histogram's maximum).
pub fn hist_percentile_ns(h: &HistogramSnapshot, p: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * h.count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &n) in h.buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return HISTOGRAM_BOUNDS_NS.get(i).copied().unwrap_or(h.max_ns);
        }
    }
    h.max_ns
}
