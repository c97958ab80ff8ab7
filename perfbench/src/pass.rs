//! What one pass of a workload measures, and the helpers every
//! workload shares: device counter deltas and the open-loop replay of a
//! request stream on the modeled clock.

use crate::oracle::Oracle;
use crate::stats::quantile;
use gpu_sim::{Device, LifetimeStats};
use std::sync::Arc;

/// Latency limit of `sustained_ops_s`: modeled p99 at most 1 ms.
pub const LATENCY_LIMIT_S: f64 = 1e-3;

/// Everything one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Host seconds building devices and tables, generating inputs and
    /// preloading.
    pub setup_s: f64,
    /// Host seconds of input generation (part of `setup_s`).
    pub gen_s: f64,
    /// Host seconds of the timed phase.
    pub host_s: f64,
    /// Ops completed in the timed phase.
    pub ops: u64,
    /// Ops submitted.
    pub attempted: u64,
    /// Ops rejected or failed.
    pub failed: u64,
    /// End-to-end metrics on the modeled clock; bit-identical for a seed.
    pub modeled: Vec<(&'static str, f64)>,
    /// Per-layer counts and modeled seconds; bit-identical for a seed.
    pub layers: Vec<(&'static str, f64)>,
    /// Device work in the timed phase.
    pub gpu: GpuDelta,
    /// Every response replayed against the sequential map.
    pub oracle: Oracle,
}

/// Lifetime counters of every device, taken before the timed phase.
pub struct GpuSnapshot(Vec<LifetimeStats>);

impl GpuSnapshot {
    /// Snapshots `devices`.
    #[must_use]
    pub fn take(devices: &[Arc<Device>]) -> Self {
        Self(devices.iter().map(|d| d.lifetime_stats()).collect())
    }

    /// The device work since the snapshot.
    #[must_use]
    pub fn delta(&self, devices: &[Arc<Device>]) -> GpuDelta {
        let mut d = GpuDelta::default();
        for (dev, before) in devices.iter().zip(&self.0) {
            let now = dev.lifetime_stats();
            d.launches += now.launches - before.launches;
            d.transactions += now.counters.transactions - before.counters.transactions;
            d.cas_ops += now.counters.cas_ops - before.counters.cas_ops;
            d.cas_failed += now.counters.cas_failed - before.counters.cas_failed;
            d.group_steps += now.counters.group_steps - before.counters.group_steps;
            d.sim_s.push(now.sim_time - before.sim_time);
            let m = dev.mem();
            d.mem_bytes += ((m.capacity_words() - m.available_words()) * 8) as u64;
        }
        d
    }
}

/// Device work over a span of launches, summed over devices.
#[derive(Debug, Clone, Default)]
pub struct GpuDelta {
    /// Kernel launches.
    pub launches: u64,
    transactions: u64,
    cas_ops: u64,
    cas_failed: u64,
    group_steps: u64,
    /// Modeled seconds per device.
    sim_s: Vec<f64>,
    mem_bytes: u64,
}

impl GpuDelta {
    /// Adds the work of another span over the same device count (memory
    /// in use is the larger of the two).
    pub fn add(&mut self, o: &GpuDelta) {
        self.launches += o.launches;
        self.transactions += o.transactions;
        self.cas_ops += o.cas_ops;
        self.cas_failed += o.cas_failed;
        self.group_steps += o.group_steps;
        self.sim_s.resize(self.sim_s.len().max(o.sim_s.len()), 0.0);
        for (a, b) in self.sim_s.iter_mut().zip(&o.sim_s) {
            *a += b;
        }
        self.mem_bytes = self.mem_bytes.max(o.mem_bytes);
    }

    /// The `gpu.*` layer metrics per `ops` completed ops.
    #[must_use]
    pub fn metrics(&self, ops: u64) -> Vec<(&'static str, f64)> {
        let sim_s: f64 = self.sim_s.iter().sum();
        let mean = sim_s / self.sim_s.len().max(1) as f64;
        let max = self.sim_s.iter().copied().fold(0.0, f64::max);
        let per_op = |x: u64| x as f64 / ops.max(1) as f64;
        vec![
            ("gpu.launches", self.launches as f64),
            ("gpu.launches_per_op", per_op(self.launches)),
            ("gpu.sim_s", sim_s),
            ("gpu.transactions_per_op", per_op(self.transactions)),
            ("gpu.cas_ops", self.cas_ops as f64),
            ("gpu.cas_failed", self.cas_failed as f64),
            ("gpu.group_steps_per_op", per_op(self.group_steps)),
            ("gpu.imbalance", if mean > 0.0 { max / mean } else { 0.0 }),
            ("gpu.mem_bytes", self.mem_bytes as f64),
        ]
    }
}

/// Open-loop replay of a request stream on the modeled clock.
///
/// Request `i` carries `sizes[i]` ops and takes `service[i]` modeled
/// seconds. Ops arrive at `rate` per second, and a request is due when
/// its last op has arrived. The backend serves one request at a time in
/// order and has no clock of its own (its modeled cost does not depend
/// on when a request arrives), so a FIFO single-server recursion gives
/// exactly what replaying the stream at that rate would. Returns each
/// request's latency from its due time, and the backlog at the end
/// (last completion minus last due time).
#[must_use]
pub fn open_loop(sizes: &[u64], service: &[f64], rate: f64) -> (Vec<f64>, f64) {
    let mut arrived = 0u64;
    let mut free_at = 0.0f64;
    let mut due = 0.0f64;
    let mut lat = Vec::with_capacity(service.len());
    for (&n, &s) in sizes.iter().zip(service) {
        arrived += n;
        due = arrived as f64 / rate;
        free_at = free_at.max(due) + s;
        lat.push(free_at - due);
    }
    (lat, free_at - due)
}

/// The end-to-end modeled metrics of a closed-loop request stream:
/// request `i` carried `sizes[i]` ops and took `service[i]` modeled
/// seconds, one request after another.
#[must_use]
pub fn closed_loop_metrics(sizes: &[u64], service: &[f64]) -> Vec<(&'static str, f64)> {
    let ops: u64 = sizes.iter().sum();
    let modeled_ops_s = ops as f64 / service.iter().sum::<f64>();
    let (r100k, _) = open_loop(sizes, service, 1e5);
    let sus = sustained(modeled_ops_s / 100.0, modeled_ops_s * 2.0, 16, |rate| {
        let (lat, backlog) = open_loop(sizes, service, rate);
        (quantile(&lat, 0.99), meets_limit(&lat, backlog))
    });
    vec![
        ("modeled_ops_s", modeled_ops_s),
        ("p50_us", quantile(service, 0.5) * 1e6),
        ("p99_us", quantile(service, 0.99) * 1e6),
        ("p99_us.r100k", quantile(&r100k, 0.99) * 1e6),
        ("sustained_ops_s", sus),
    ]
}

/// Whether a replay meets the latency limit with no growing backlog.
#[must_use]
pub fn meets_limit(latencies: &[f64], backlog_end: f64) -> bool {
    quantile(latencies, 0.99) <= LATENCY_LIMIT_S && backlog_end <= LATENCY_LIMIT_S
}

/// The highest arrival rate at which `eval(rate)` meets the latency
/// limit, by log-scale bisection between a passing `lo` and a failing
/// `hi`. The last bracket is narrowed by interpolating the p99 excess
/// linearly in log-rate, so the result moves continuously with the
/// workload rather than snapping to the bisection grid. Returns `lo`
/// unchanged if it fails, and `hi` if it passes.
pub fn sustained(
    mut lo: f64,
    mut hi: f64,
    steps: u32,
    mut eval: impl FnMut(f64) -> (f64, bool),
) -> f64 {
    let (mut p_lo, ok_lo) = eval(lo);
    if !ok_lo {
        return lo;
    }
    let (mut p_hi, ok_hi) = eval(hi);
    if ok_hi {
        return hi;
    }
    for _ in 0..steps {
        let mid = (lo * hi).sqrt();
        let (p, ok) = eval(mid);
        if ok {
            lo = mid;
            p_lo = p;
        } else {
            hi = mid;
            p_hi = p;
        }
    }
    // p_lo ≤ limit < p_hi, unless the backlog test failed `hi`
    let frac = if p_hi > p_lo {
        ((LATENCY_LIMIT_S - p_lo) / (p_hi - p_lo)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (lo.ln() + frac * (hi.ln() - lo.ln())).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_queues_when_arrivals_outpace_service() {
        // 1 op per request, 1 s service, arrivals every 0.5 s: request i
        // finishes at i + 1.5 and was due at (i + 1) / 2
        let (lat, backlog) = open_loop(&[1, 1, 1], &[1.0, 1.0, 1.0], 2.0);
        assert_eq!(lat, vec![1.0, 1.5, 2.0]);
        assert_eq!(backlog, 2.0);
        let (lat, _) = open_loop(&[1, 1], &[0.1, 0.1], 1.0);
        assert!(lat.iter().all(|&l| (l - 0.1).abs() < 1e-12));
    }

    #[test]
    fn sustained_finds_the_knee() {
        // p99 grows with rate and crosses the limit at 1000
        let got = sustained(10.0, 1e5, 12, |r| {
            let p = r * 1e-6;
            (p, p <= LATENCY_LIMIT_S)
        });
        assert!((got - 1000.0).abs() / 1000.0 < 0.01, "{got}");
    }
}
