//! `serve`: an open-loop two-tenant trace replayed through `Server`
//! over a 4-GPU `DistributedHashMap`, timed on the modeled clock at
//! fixed arrival rates.

use crate::oracle::Oracle;
use crate::pass::{meets_limit, sustained, GpuDelta, GpuSnapshot, Pass};
use crate::span::{Level, Traced, Tracer};
use crate::stats::quantile;
use gpu_sim::Device;
use interconnect::Topology;
use std::sync::Arc;
use std::time::Instant;
use warpdrive::{Config, DistributedHashMap};
use wd_serve::{generate, Completion, ServeConfig, Server, TraceConfig, TraceEvent};

const GPUS: usize = 4;
const DEVICE_WORDS: usize = 1 << 16;
const SLOTS_PER_GPU: usize = 1 << 14;
const KEYS_PER_TENANT: u32 = 1 << 13;
/// Ops per replay.
const OPS: usize = 8_192;
/// Arrival rate of `p50_us`/`p99_us` (ops/s).
const RATE_LOW: f64 = 25_000.0;
/// Arrival rate of `p99_us.r100k` (ops/s).
const RATE_HIGH: f64 = 100_000.0;
/// Arrival rate far past capacity, at which throughput is capacity.
const RATE_SATURATE: f64 = 5e6;
/// Bisection steps of `sustained_ops_s`.
const STEPS: u32 = 8;

fn config() -> ServeConfig {
    ServeConfig::default()
        .with_max_batch(512)
        .with_max_delay(5e-5)
        .with_tenant_quota(u64::from(KEYS_PER_TENANT))
}

/// What one replay of the trace at one arrival rate measured.
#[derive(Default)]
struct Replay {
    /// Per completed op: flush end − scheduled arrival.
    latency: Vec<f64>,
    /// Per completed op: flush start − scheduled arrival.
    queue_wait: Vec<f64>,
    /// Per flush: its modeled cost.
    service: Vec<f64>,
    /// Largest admission clock − scheduled arrival.
    lateness_max: f64,
    /// Final clock − last scheduled arrival.
    backlog_end: f64,
    /// Final clock − first scheduled arrival.
    span: f64,
    completed: u64,
    failed: u64,
    flushes: u64,
    mean_batch: f64,
    delay_flushes: u64,
    size_flushes: u64,
    setup_s: f64,
    host_s: f64,
    gpu: GpuDelta,
    oracle: Oracle,
}

/// Replays `trace` through a fresh server and checks every response
/// against a fresh sequential map.
fn replay(trace: &[TraceEvent], tracer: &Tracer) -> Replay {
    let mut out = Replay::default();
    let setup = Instant::now();
    let devices: Vec<Arc<Device>> = (0..GPUS)
        .map(|i| Arc::new(Device::with_words(i, DEVICE_WORDS)))
        .collect();
    let node = DistributedHashMap::new(
        devices.clone(),
        SLOTS_PER_GPU,
        Config::default(),
        Topology::p100_quad(GPUS),
    )
    .expect("serve node fits its devices");
    let mut srv = Server::new(Traced::new(node, Level::Execute, tracer.clone()), config());
    out.setup_s = setup.elapsed().as_secs_f64();

    let before = GpuSnapshot::take(&devices);
    let mut due: Vec<f64> = Vec::with_capacity(trace.len());
    let mut done: Vec<Completion> = Vec::with_capacity(trace.len());
    let mut flush_errors = 0u64;
    let settle =
        |out: &mut Replay, completions: Vec<Completion>, start: f64, end: f64, due: &[f64]| {
            if completions.is_empty() {
                return Vec::new();
            }
            out.service.push(end - start);
            for c in &completions {
                let at = due[c.seq as usize];
                out.latency.push(end - at);
                out.queue_wait.push(start - at);
            }
            completions
        };
    let timed = Instant::now();
    let root = tracer.enter("pass", 0, 0.0);
    for (i, ev) in trace.iter().enumerate() {
        // the flush a submission triggers (at most one with max_batch > 1)
        // starts once the clock has caught up with the arrival
        let start = srv.clock().max(ev.at);
        out.lateness_max = out.lateness_max.max(start - ev.at);
        tracer.set_context(i as u64, start);
        let span = tracer.enter("submit_at", i as u64, start);
        let sub = srv.submit_at(ev.tenant, ev.op, ev.at);
        let end = srv.clock();
        tracer.exit(span, end);
        match sub.outcome {
            Ok(seq) => {
                assert_eq!(seq as usize, due.len(), "sequence numbers are dense");
                due.push(ev.at);
            }
            Err(wd_serve::ServeError::Backend(_)) => flush_errors += 1,
            Err(_) => out.failed += 1,
        }
        done.extend(settle(&mut out, sub.completions, start, end, &due));
    }
    let start = srv.clock();
    tracer.set_context(trace.len() as u64, start);
    let span = tracer.enter("drain", trace.len() as u64, start);
    let drained = srv.flush();
    let end = srv.clock();
    tracer.exit(span, end);
    match drained {
        Ok(c) => done.extend(settle(&mut out, c, start, end, &due)),
        Err(_) => flush_errors += 1,
    }
    tracer.exit(root, end);
    out.host_s = timed.elapsed().as_secs_f64();

    out.completed = done.len() as u64;
    out.failed += due.len() as u64 - out.completed;
    let first = trace.first().map_or(0.0, |e| e.at);
    let last = trace.last().map_or(0.0, |e| e.at);
    out.backlog_end = end - last;
    out.span = end - first;
    let t = srv.telemetry();
    out.flushes = t.flushes;
    out.mean_batch = t.mean_batch();
    out.delay_flushes = t.delay_flushes;
    out.size_flushes = t.size_flushes;
    out.gpu = before.delta(&devices);

    // rejected ops never reach the map: the sequential map sees only the
    // admitted ones, keyed by (tenant, local key), in submission order
    if flush_errors > 0 {
        out.oracle.fail(format!("{flush_errors} flush(es) failed"));
    }
    done.sort_by_key(|c| c.seq);
    for (want, c) in done.iter().enumerate() {
        if c.seq as usize != want {
            out.oracle
                .fail(format!("completion seq {} where {want} was due", c.seq));
            break;
        }
        out.oracle.check(c.tenant, c.op, c.response);
    }
    out
}

fn trace_at(seed: u64, rate: f64) -> Vec<TraceEvent> {
    generate(
        &TraceConfig {
            ops: OPS,
            tenants: 2,
            key_space: KEYS_PER_TENANT,
            put_per_mille: 500,
            delete_per_mille: 100,
            mean_gap: 1.0 / rate,
        },
        seed,
    )
}

/// Runs one pass: replays at 25 k ops/s, 100 k ops/s and a saturating
/// rate, then bisects for the sustained rate.
pub fn pass(seed: u64, tracer: &Tracer) -> Pass {
    let mut p = Pass::default();
    let gen = Instant::now();
    let low_trace = trace_at(seed, RATE_LOW);
    let high_trace = trace_at(seed, RATE_HIGH);
    let sat_trace = trace_at(seed, RATE_SATURATE);
    p.gen_s = gen.elapsed().as_secs_f64();
    p.setup_s = p.gen_s;

    let run = |trace: &[TraceEvent], p: &mut Pass| {
        let r = replay(trace, tracer);
        p.setup_s += r.setup_s;
        p.host_s += r.host_s;
        p.ops += r.completed;
        p.attempted += trace.len() as u64;
        p.failed += r.failed;
        p.gpu.add(&r.gpu);
        p.oracle.absorb(&r.oracle);
        r
    };
    let low = run(&low_trace, &mut p);
    let high = run(&high_trace, &mut p);
    let sat = run(&sat_trace, &mut p);
    let capacity = sat.completed as f64 / sat.span;
    let sus = sustained(capacity / 4.0, capacity * 2.0, STEPS, |rate| {
        let gen = Instant::now();
        let t = trace_at(seed, rate);
        let gen_s = gen.elapsed().as_secs_f64();
        p.gen_s += gen_s;
        p.setup_s += gen_s;
        let r = run(&t, &mut p);
        (
            quantile(&r.latency, 0.99),
            meets_limit(&r.latency, r.backlog_end),
        )
    });

    p.modeled = vec![
        ("modeled_ops_s", capacity),
        ("p50_us", quantile(&low.latency, 0.5) * 1e6),
        ("p99_us", quantile(&low.latency, 0.99) * 1e6),
        ("p99_us.r100k", quantile(&high.latency, 0.99) * 1e6),
        ("sustained_ops_s", sus),
    ];
    p.layers = vec![
        ("serve.flushes", low.flushes as f64),
        ("serve.mean_batch", low.mean_batch),
        ("serve.delay_flushes", low.delay_flushes as f64),
        ("serve.size_flushes", low.size_flushes as f64),
        ("serve.rejects", low.failed as f64),
        (
            "serve.queue_wait_p99_us",
            quantile(&low.queue_wait, 0.99) * 1e6,
        ),
        ("serve.service_p50_us", quantile(&low.service, 0.5) * 1e6),
        ("serve.lateness_max_us", low.lateness_max * 1e6),
        ("serve.backlog_end_us", low.backlog_end * 1e6),
        (
            "serve.r100k.queue_wait_p99_us",
            quantile(&high.queue_wait, 0.99) * 1e6,
        ),
        ("serve.r100k.lateness_max_us", high.lateness_max * 1e6),
        ("serve.r100k.backlog_end_us", high.backlog_end * 1e6),
    ];
    if let Some(b) = tracer.with(|r| r.counts.metrics()) {
        p.layers.extend(b);
    }
    p
}
