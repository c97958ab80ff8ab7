//! `ycsb`: one closed-loop client issuing YCSB-A (50 % read, 50 %
//! update, Zipf s = 0.99) over 2^16 preloaded records, in 256-op
//! requests through `CachedMap::execute` (4,096 entries, LRU) over one
//! `GpuHashMap`.

use crate::pass::{closed_loop_metrics, GpuSnapshot, Pass};
use crate::span::{Level, Traced, Tracer};
use gpu_sim::Device;
use std::sync::Arc;
use std::time::Instant;
use warpdrive::{lower_mixed, CachePolicy, CachedMap, Config, GpuHashMap, MapService};
use workloads::{Ycsb, YcsbMix};

const RECORDS: u64 = 1 << 16;
const SLOTS: usize = 1 << 17;
const CACHE_ENTRIES: usize = 4_096;
const ZIPF_S: f64 = 0.99;
const REQUEST_OPS: usize = 256;
const REQUESTS: usize = 2_048;

/// Runs one pass.
pub fn pass(seed: u64, tracer: &Tracer) -> Pass {
    let mut p = Pass::default();
    let setup = Instant::now();
    let device = Arc::new(Device::with_words(0, SLOTS * 2));
    let table = GpuHashMap::new(Arc::clone(&device), SLOTS, Config::default())
        .expect("ycsb table fits its device");
    let cached = CachedMap::new(
        Traced::new(table, Level::Batch, tracer.clone()),
        CACHE_ENTRIES,
        CachePolicy::Lru,
    );
    let mut map = Traced::new(cached, Level::Execute, tracer.clone());
    let gen = Instant::now();
    let ycsb = Ycsb::new(YcsbMix::A, ZIPF_S, RECORDS, seed);
    // rank → key is a permutation, so the preload batch has unique keys
    let records: Vec<(u32, u32)> = (1..=RECORDS)
        .map(|r| (ycsb.keys().key_for_rank_at(0, r), r as u32))
        .collect();
    let ops = lower_mixed(&ycsb.ops(REQUESTS * REQUEST_OPS));
    p.gen_s = gen.elapsed().as_secs_f64();
    map.inner_mut()
        .backend_mut()
        .inner_mut()
        .put_batch(&records)
        .expect("ycsb preload");
    for &(key, value) in &records {
        p.oracle.apply(0, warpdrive::Op::Put { key, value });
    }
    p.setup_s = setup.elapsed().as_secs_f64();

    let before = GpuSnapshot::take(std::slice::from_ref(&device));
    let mut sizes = Vec::with_capacity(REQUESTS);
    let mut service = Vec::with_capacity(REQUESTS);
    let mut answers = Vec::with_capacity(REQUESTS);
    let mut clock = 0.0f64;
    let timed = Instant::now();
    let root = tracer.enter("pass", 0, 0.0);
    for (i, req) in ops.chunks(REQUEST_OPS).enumerate() {
        let span = tracer.enter("request", i as u64, clock);
        tracer.set_context(i as u64, clock);
        let got = map.execute(req);
        p.attempted += req.len() as u64;
        match &got {
            Ok((_, report)) => {
                clock += report.time;
                sizes.push(req.len() as u64);
                service.push(report.time);
            }
            Err(_) => p.failed += req.len() as u64,
        }
        tracer.exit(span, clock);
        answers.push(got.map(|(r, _)| r));
    }
    tracer.exit(root, clock);
    p.host_s = timed.elapsed().as_secs_f64();
    p.ops = p.attempted - p.failed;

    for (i, (req, answer)) in ops.chunks(REQUEST_OPS).zip(answers).enumerate() {
        match answer {
            Ok(resp) if resp.len() == req.len() => {
                for (&op, r) in req.iter().zip(resp) {
                    p.oracle.check(0, op, r);
                }
            }
            Ok(resp) => p.oracle.fail(format!(
                "request {i}: {} responses for {} ops",
                resp.len(),
                req.len()
            )),
            Err(e) => p.oracle.fail(format!("request {i} failed: {e}")),
        }
    }

    p.modeled = closed_loop_metrics(&sizes, &service);
    p.gpu = before.delta(std::slice::from_ref(&device));
    // the preload bypassed the cache, so its counters cover the timed phase
    let c = map.inner().stats();
    p.layers.extend([
        ("cache.hit_rate", c.hit_rate()),
        ("cache.hits", c.hits as f64),
        ("cache.misses", c.misses as f64),
        ("cache.evictions", c.evictions as f64),
        ("cache.invalidations", c.invalidations as f64),
        ("cache.write_updates", c.write_updates as f64),
    ]);
    if let Some(b) = tracer.with(|r| r.counts.metrics()) {
        p.layers.extend(b);
    }
    p
}
