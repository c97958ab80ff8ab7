//! `bulk`: the paper's bulk-synchronous protocol on a 4-GPU
//! `DistributedHashMap`, in 65,536-pair batch calls with unique keys.
//!
//! Phases: fill to α = 0.90, get every stored key, get absent keys,
//! delete half of the stored keys.

use crate::pass::{closed_loop_metrics, GpuSnapshot, Pass};
use crate::span::{Level, Traced, Tracer};
use gpu_sim::Device;
use interconnect::Topology;
use std::sync::Arc;
use std::time::Instant;
use warpdrive::{Config, DistributedHashMap, MapService, Op, Response};
use workloads::UniqueKeys;

const GPUS: usize = 4;
const SLOTS_PER_GPU: usize = 1 << 18;
const DEVICE_WORDS: usize = 1 << 19;
const BATCH: usize = 65_536;
const LOAD: f64 = 0.90;
const ABSENT: usize = 1 << 18;

/// One batch call: its kind and the range of the generated pairs it
/// covers.
#[derive(Clone, Copy)]
enum Kind {
    Put,
    Get,
    Delete,
}

/// Runs one pass.
pub fn pass(seed: u64, tracer: &Tracer) -> Pass {
    let mut p = Pass::default();
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
    .expect("bulk node fits its devices");
    let mut map = Traced::new(node, Level::Batch, tracer.clone());
    let gen = Instant::now();
    let fill = (LOAD * map.slot_capacity() as f64) as usize;
    let pairs = UniqueKeys::new(seed).pairs(fill + ABSENT);
    let keys: Vec<u32> = pairs.iter().map(|kv| kv.0).collect();
    let batches = |kind: Kind, range: std::ops::Range<usize>| {
        range
            .clone()
            .step_by(BATCH)
            .map(move |s| (kind, s..(s + BATCH).min(range.end)))
    };
    let calls: Vec<(Kind, std::ops::Range<usize>)> = batches(Kind::Put, 0..fill)
        .chain(batches(Kind::Get, 0..fill))
        .chain(batches(Kind::Get, fill..fill + ABSENT))
        .chain(batches(Kind::Delete, 0..fill / 2))
        .collect();
    p.gen_s = gen.elapsed().as_secs_f64();
    p.setup_s = setup.elapsed().as_secs_f64();

    let before = GpuSnapshot::take(&devices);
    let mut sizes = Vec::with_capacity(calls.len());
    let mut service = Vec::with_capacity(calls.len());
    let mut answers: Vec<Result<Vec<Response>, String>> = Vec::with_capacity(calls.len());
    // puts answer only with a new-slot count: all keys are unique, so
    // every one of them must claim a slot
    let mut miscounts: Vec<String> = Vec::new();
    let mut clock = 0.0f64;
    let timed = Instant::now();
    let root = tracer.enter("pass", 0, 0.0);
    for (i, (kind, range)) in calls.iter().enumerate() {
        tracer.set_context(i as u64, clock);
        let n = range.len() as u64;
        let got = match kind {
            Kind::Put => map.put_batch(&pairs[range.clone()]).map(|r| {
                if r.new_slots != n {
                    miscounts.push(format!(
                        "put batch {i}: {} new slots for {n} unique keys",
                        r.new_slots
                    ));
                }
                (Vec::new(), r.report.time)
            }),
            Kind::Get => map.get_batch(&keys[range.clone()]).map(|r| {
                let v = r.values.into_iter().map(|value| Response::Get { value });
                (v.collect(), r.report.time)
            }),
            Kind::Delete => map.delete_batch(&keys[range.clone()]).map(|r| {
                let v = r.hits.into_iter().map(|hit| Response::Delete { hit });
                (v.collect(), r.report.time)
            }),
        };
        p.attempted += n;
        match got {
            Ok((resp, time)) => {
                clock += time;
                sizes.push(n);
                service.push(time);
                answers.push(Ok(resp));
            }
            Err(e) => {
                p.failed += n;
                answers.push(Err(format!("batch {i} failed: {e}")));
            }
        }
    }
    tracer.exit(root, clock);
    p.host_s = timed.elapsed().as_secs_f64();
    p.ops = p.attempted - p.failed;

    for what in miscounts {
        p.oracle.fail(what);
    }
    for ((kind, range), answer) in calls.into_iter().zip(answers) {
        let resp = match answer {
            Ok(r) => r,
            Err(what) => {
                p.oracle.fail(what);
                continue;
            }
        };
        match kind {
            Kind::Put => {
                for &(key, value) in &pairs[range] {
                    p.oracle.check(0, Op::Put { key, value }, Response::Put);
                }
            }
            Kind::Get => {
                for (&key, r) in keys[range].iter().zip(resp) {
                    p.oracle.check(0, Op::Get { key }, r);
                }
            }
            Kind::Delete => {
                for (&key, r) in keys[range].iter().zip(resp) {
                    p.oracle.check(0, Op::Delete { key }, r);
                }
            }
        }
    }
    if map.live_len() != p.oracle.len() {
        p.oracle.fail(format!(
            "table holds {} live keys, sequential map {}",
            map.live_len(),
            p.oracle.len()
        ));
    }

    p.modeled = closed_loop_metrics(&sizes, &service);
    p.gpu = before.delta(&devices);
    if let Some(b) = tracer.with(|r| r.counts.metrics()) {
        p.layers.extend(b);
    }
    p
}
