//! The wd-serve equivalence suite: coalesced serving is indistinguishable
//! from unbatched serving.
//!
//! The service's whole value proposition — batch aggressively for
//! throughput without changing a single answer — rests on the
//! [`warpdrive::MapService::execute`] planning contract plus the
//! determinism of admission on the host shadow model. These properties
//! drive the same seeded trace through `max_batch = 1` (the sequential
//! reference) and larger coalescing windows and demand byte-identical
//! responses *and* rejections, across backends, schedules, and transient
//! fault plans. Per-tenant Wing–Gong linearizability is checked with the
//! core history checker.

use gpu_sim::{Device, FaultPlan, Schedule};
use interconnect::Topology;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use warpdrive::{
    check_linearizable, Config, DistributedHashMap, GpuHashMap, MapService, Op, Response,
    ShardedHashMap,
};
use wd_serve::{generate, Completion, ServeConfig, ServeError, Server, TraceConfig};

/// Sweep-breadth multiplier (`WD_SWEEP_SCALE`, default 1) — mirrors
/// `wd_apps::sweep_scale`, re-read here because wd-serve sits below
/// wd-apps in the dependency graph. `PROPTEST_CASES` still overrides the
/// scaled default outright.
fn scaled_cases(baseline: u32) -> u32 {
    let scale = std::env::var("WD_SWEEP_SCALE")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1);
    baseline.saturating_mul(scale)
}

fn single_gpu(capacity: usize, cfg: Config) -> GpuHashMap {
    let dev = Arc::new(Device::with_words(0, capacity * 8 + (1 << 13)));
    GpuHashMap::new(dev, capacity, cfg).unwrap()
}

fn sharded(cfg: Config) -> ShardedHashMap {
    let dev = Arc::new(Device::with_words(0, 1 << 16));
    ShardedHashMap::new(dev, 1024, 4, cfg).unwrap()
}

fn quad_node(cfg: Config) -> DistributedHashMap {
    let devices: Vec<Arc<Device>> = (0..4)
        .map(|i| Arc::new(Device::with_words(i, 1 << 16)))
        .collect();
    DistributedHashMap::new(devices, 2048, cfg, Topology::p100_quad(4)).unwrap()
}

/// The observable outcome of a trace: per-op responses and typed
/// rejections, stripped of timing (latency legitimately differs between
/// batch sizes — answers may not).
type Observable = (Vec<(u64, Response)>, Vec<(usize, &'static str)>);

fn observable(completions: &[Completion], rejects: &[(usize, ServeError)]) -> Observable {
    (
        completions.iter().map(|c| (c.seq, c.response)).collect(),
        rejects.iter().map(|(i, e)| (*i, e.reason())).collect(),
    )
}

fn assert_equivalent<A: MapService, B: MapService>(
    reference: &mut Server<A>,
    coalesced: &mut Server<B>,
    trace_cfg: &TraceConfig,
    seed: u64,
) {
    let trace = generate(trace_cfg, seed);
    let ref_run = reference.run_trace(&trace);
    let coal_run = coalesced.run_trace(&trace);
    assert_eq!(
        observable(&ref_run.completions, &ref_run.rejects),
        observable(&coal_run.completions, &coal_run.rejects),
        "coalesced serving diverged from sequential (seed {seed})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(scaled_cases(12)))]

    /// Single-GPU backend: any batch size serves the same answers as
    /// no batching at all, for arbitrary seeds and kernel schedules.
    #[test]
    fn coalesced_equals_sequential_single_gpu(
        seed in any::<u64>(),
        max_batch in proptest::sample::select(vec![2usize, 7, 16, 64]),
        seq_schedule in any::<bool>(),
    ) {
        let schedule = if seq_schedule { Schedule::Sequential } else { Schedule::Seeded(seed) };
        let cfg = Config::default().with_schedule(schedule);
        let serve = ServeConfig::default().with_max_delay(f64::INFINITY);
        let mut reference = Server::new(single_gpu(4096, cfg), serve.clone().with_max_batch(1));
        let mut coalesced = Server::new(single_gpu(4096, cfg), serve.with_max_batch(max_batch));
        let trace_cfg = TraceConfig { ops: 300, key_space: 512, ..TraceConfig::default() };
        assert_equivalent(&mut reference, &mut coalesced, &trace_cfg, seed);
    }

    /// Sharded backend under a transient-fault plan: retried launches
    /// change timing, never answers.
    #[test]
    fn coalesced_equals_sequential_under_transient_faults(
        seed in 0u64..64,
        max_batch in proptest::sample::select(vec![4usize, 32]),
    ) {
        let cfg = Config::default()
            .with_fault(FaultPlan::default().with_launch_fail(0.2).with_seed(seed));
        let serve = ServeConfig::default().with_max_delay(f64::INFINITY);
        let mut reference = Server::new(sharded(cfg), serve.clone().with_max_batch(1));
        let mut coalesced = Server::new(sharded(cfg), serve.with_max_batch(max_batch));
        let trace_cfg = TraceConfig { ops: 200, key_space: 256, ..TraceConfig::default() };
        assert_equivalent(&mut reference, &mut coalesced, &trace_cfg, seed);
    }

    /// Admission rejections (quota + watermark) are part of the
    /// observable outcome and must also be batch-size-invariant.
    #[test]
    fn rejections_are_batch_size_invariant(
        seed in any::<u64>(),
        max_batch in proptest::sample::select(vec![3usize, 17]),
    ) {
        let serve = ServeConfig::default()
            .with_max_delay(f64::INFINITY)
            .with_tenant_quota(40)
            .with_occupancy_watermark(0.35);
        let mut reference = Server::new(
            single_gpu(256, Config::default()), serve.clone().with_max_batch(1));
        let mut coalesced = Server::new(
            single_gpu(256, Config::default()), serve.with_max_batch(max_batch));
        // put-heavy so quota and watermark both bite
        let trace_cfg = TraceConfig {
            ops: 400, key_space: 200, put_per_mille: 800, delete_per_mille: 100,
            ..TraceConfig::default()
        };
        let trace = generate(&trace_cfg, seed);
        let ref_run = reference.run_trace(&trace);
        let coal_run = coalesced.run_trace(&trace);
        prop_assert!(!ref_run.rejects.is_empty(), "workload must trigger rejections");
        prop_assert_eq!(
            observable(&ref_run.completions, &ref_run.rejects),
            observable(&coal_run.completions, &coal_run.rejects)
        );
    }

    /// Resize-on-watermark handoff: crossing the watermark grows the
    /// backend instead of shedding writes. The put-heavy trace is sized
    /// to cross 0.5 × 256 slots with certainty, so the run must record
    /// at least one grow, shed nothing on occupancy, stay byte-identical
    /// across batch sizes (admission is deterministic on the submission
    /// history, and the handoff is part of admission), and surface the
    /// resize counter in the metrics text.
    #[test]
    fn resize_handoff_keeps_equivalence_and_counts_resizes(
        seed in any::<u64>(),
        max_batch in proptest::sample::select(vec![2usize, 16, 64]),
    ) {
        let serve = ServeConfig::default()
            .with_max_delay(f64::INFINITY)
            .with_occupancy_watermark(0.5)
            .with_resize_on_watermark();
        let mut reference = Server::new(
            single_gpu(256, Config::default()), serve.clone().with_max_batch(1));
        let mut coalesced = Server::new(
            single_gpu(256, Config::default()), serve.with_max_batch(max_batch));
        let trace_cfg = TraceConfig {
            ops: 400, key_space: 300, put_per_mille: 800, delete_per_mille: 50,
            ..TraceConfig::default()
        };
        let trace = generate(&trace_cfg, seed);
        let ref_run = reference.run_trace(&trace);
        let coal_run = coalesced.run_trace(&trace);
        prop_assert_eq!(
            observable(&ref_run.completions, &ref_run.rejects),
            observable(&coal_run.completions, &coal_run.rejects)
        );
        prop_assert!(
            reference.telemetry().resizes >= 1,
            "trace must cross the watermark and hand off to a grow"
        );
        prop_assert_eq!(reference.telemetry().resizes, coalesced.telemetry().resizes);
        prop_assert!(
            ref_run.rejects.iter().all(|(_, e)| e.reason() != "saturated"),
            "handoff must absorb every watermark crossing"
        );
        prop_assert!(coalesced.backend().slot_capacity() >= 512);
        let wanted = format!("wd_serve_resizes_total {}", coalesced.telemetry().resizes);
        prop_assert!(coalesced.metrics_text().contains(&wanted));
    }

    /// Every tenant's completion history is Wing–Gong linearizable
    /// against the single-value map specification.
    #[test]
    fn per_tenant_histories_are_linearizable(
        seed in any::<u64>(),
        max_batch in proptest::sample::select(vec![1usize, 16, 128]),
    ) {
        let serve = ServeConfig::default().with_max_batch(max_batch);
        let mut srv = Server::new(single_gpu(4096, Config::default()), serve);
        let trace_cfg = TraceConfig {
            ops: 300, tenants: 3, key_space: 64, ..TraceConfig::default()
        };
        let run = srv.run_trace(&generate(&trace_cfg, seed));
        prop_assert!(run.rejects.is_empty());
        let mut by_tenant: BTreeMap<u8, Vec<_>> = BTreeMap::new();
        for c in &run.completions {
            by_tenant.entry(c.tenant).or_default().push(c.to_event());
        }
        prop_assert!(by_tenant.len() >= 2, "trace must exercise several tenants");
        for (tenant, events) in by_tenant {
            if let Err(v) = check_linearizable(&events) {
                return Err(TestCaseError::fail(format!(
                    "tenant {tenant} history not linearizable: {v:?}"
                )));
            }
        }
    }
}

/// The multi-GPU cascade serves the same answers coalesced or not, and
/// its cost reports reach the service telemetry (stages present).
#[test]
fn coalesced_equals_sequential_multi_gpu() {
    let serve = ServeConfig::default().with_max_delay(f64::INFINITY);
    let mut reference = Server::new(quad_node(Config::default()), serve.clone().with_max_batch(1));
    let mut coalesced = Server::new(quad_node(Config::default()), serve.with_max_batch(48));
    let trace_cfg = TraceConfig {
        ops: 400,
        key_space: 2048,
        ..TraceConfig::default()
    };
    assert_equivalent(&mut reference, &mut coalesced, &trace_cfg, 0xd15c0);
    assert!(
        !coalesced.telemetry().report.stages.is_empty(),
        "cascade stage timings must reach service telemetry"
    );
    assert!(coalesced.telemetry().flushes < reference.telemetry().flushes);
}

/// Transient faults surface in telemetry (backoff time, retries) while
/// answers stay correct — the degradation is graceful and observable.
#[test]
fn transient_faults_show_up_in_telemetry_not_answers() {
    // seed 0 fails shard 1's attempt 0 at the SHARD gate, so the trace
    // is guaranteed to exercise the retry/backoff path
    let cfg = Config::default().with_fault(FaultPlan::default().with_launch_fail(0.3).with_seed(0));
    let mut srv = Server::new(sharded(cfg), ServeConfig::default().with_max_batch(32));
    let healthy = Server::new(
        sharded(Config::default()),
        ServeConfig::default().with_max_batch(32),
    );
    let trace_cfg = TraceConfig {
        ops: 300,
        key_space: 256,
        ..TraceConfig::default()
    };
    let trace = generate(&trace_cfg, 4);
    let run = srv.run_trace(&trace);
    assert!(run.rejects.is_empty());
    let mut healthy_srv = healthy;
    let healthy_run = healthy_srv.run_trace(&trace);
    assert_eq!(
        observable(&run.completions, &run.rejects).0,
        observable(&healthy_run.completions, &healthy_run.rejects).0,
        "faulted answers must match healthy answers"
    );
    let t = srv.telemetry();
    assert!(
        t.report.backoff_time > 0.0,
        "retried launches must bill backoff"
    );
    assert!(t.report.time > healthy_srv.telemetry().report.time);
    assert!(srv.metrics_text().contains("wd_serve_backoff_seconds_total"));
}

/// Backpressure end to end: a saturating put storm gets typed
/// `Saturated` rejections, reads keep flowing, deletes free space, and
/// the freed space admits new puts.
#[test]
fn backpressure_is_typed_and_recovers() {
    let serve = ServeConfig::default()
        .with_max_batch(8)
        .with_occupancy_watermark(0.25);
    let mut srv = Server::new(single_gpu(256, Config::default()), serve);
    let mut saturated = 0;
    for i in 0..128u32 {
        match srv.submit_at(0, Op::Put { key: i, value: i }, 0.0).outcome {
            Ok(_) => {}
            Err(ServeError::Saturated { projected, watermark }) => {
                assert!(projected > watermark);
                saturated += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert_eq!(saturated, 64, "0.25 × 256 slots admits 64 new keys");
    assert!(srv.submit_at(0, Op::Get { key: 0 }, 0.0).outcome.is_ok());
    for i in 0..8u32 {
        assert!(srv.submit_at(0, Op::Delete { key: i }, 0.0).outcome.is_ok());
    }
    for i in 200..208u32 {
        assert!(
            srv.submit_at(0, Op::Put { key: i, value: 0 }, 0.0).outcome.is_ok(),
            "deletes must free admission budget"
        );
    }
    let m = srv.metrics_text();
    assert!(m.contains("wd_serve_tenant_rejects_total{tenant=\"0\",reason=\"saturated\"} 64"));
}

/// The acceptance scenario: one run, one multi-GPU backend, two tenants
/// with distinct workloads, full telemetry for both.
#[test]
fn telemetry_covers_two_tenants_in_one_run() {
    let mut srv = Server::new(
        quad_node(Config::default()),
        ServeConfig::default().with_max_batch(64),
    );
    let trace_cfg = TraceConfig {
        ops: 600,
        tenants: 2,
        key_space: 1024,
        ..TraceConfig::default()
    };
    let run = srv.run_trace(&generate(&trace_cfg, 77));
    assert!(run.rejects.is_empty());
    for tenant in [0u8, 1] {
        let st = srv.tenant(tenant).expect("tenant must have state");
        assert!(st.counters.completed > 0);
        assert!(st.latency.p50() > 0.0);
        assert!(st.latency.p99() >= st.latency.p50());
        let m = srv.metrics_text();
        assert!(m.contains(&format!(
            "wd_serve_tenant_latency_seconds{{tenant=\"{tenant}\",quantile=\"0.99\"}}"
        )));
        assert!(m.contains(&format!("wd_serve_tenant_live_keys{{tenant=\"{tenant}\"}}")));
    }
    assert!(srv.telemetry().latency.p99() >= srv.telemetry().latency.p50());
    assert!(srv.backend().occupancy() > 0.0);
}
