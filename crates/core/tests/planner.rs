//! Differential oracle for the `MapService::execute` planner: a planned
//! stream must be indistinguishable from executing its ops one at a
//! time — the same responses and the same final key→value map.
//!
//! Streams draw from at most 8 keys, so same-key chains (read-your-
//! writes, repeated puts, delete-then-get, blind deletes) are the common
//! case rather than the rare one. Each property runs on an in-memory
//! backend, on a `CachedMap` of capacity 2 under both replacement
//! policies, and on a real single-GPU `GpuHashMap`, with random streams
//! and lowered YCSB-F read-modify-write streams. A backend whose
//! `put_batch` fails pins the partial-failure rule: `execute` returns
//! `Err` and nothing else, and a cache in front of it keeps no entry for
//! a key the failed batch mentioned.
//!
//! Budgets scale with `WD_SWEEP_SCALE`; `PROPTEST_CASES` overrides them.

use gpu_sim::Device;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use warpdrive::{
    lower_mixed, CachePolicy, CachedMap, Config, DeleteResponse, GetResponse, GpuHashMap,
    MapService, Op, OpError, OpReport, PutResponse,
};
use workloads::{Ycsb, YcsbMix};

/// Sweep-breadth multiplier (`WD_SWEEP_SCALE`, default 1) — mirrors
/// `wd_apps::sweep_scale`, re-read here because wd-apps depends on this
/// crate.
fn scaled_cases(baseline: u32) -> u32 {
    let scale = std::env::var("WD_SWEEP_SCALE")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1);
    baseline.saturating_mul(scale)
}

/// In-memory reference backend. `fail_puts` makes every put batch fail
/// without applying anything; `failed_puts` records the keys such a
/// batch mentioned.
#[derive(Debug, Default)]
struct Model {
    map: BTreeMap<u32, u32>,
    fail_puts: bool,
    failed_puts: Vec<u32>,
}

impl MapService for Model {
    fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
        if self.fail_puts {
            self.failed_puts.extend(pairs.iter().map(|&(k, _)| k));
            return Err(OpError::ProbingExhausted {
                failed: pairs.len() as u64,
            });
        }
        let mut new_slots = 0;
        for &(k, v) in pairs {
            if self.map.insert(k, v).is_none() {
                new_slots += 1;
            }
        }
        Ok(PutResponse {
            new_slots,
            updates: pairs.len() as u64 - new_slots,
            reclaimed: 0,
            report: OpReport::default(),
        })
    }

    fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
        Ok(GetResponse {
            values: keys.iter().map(|k| self.map.get(k).copied()).collect(),
            report: OpReport::default(),
        })
    }

    fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
        let hits: Vec<bool> = keys.iter().map(|k| self.map.remove(k).is_some()).collect();
        let erased = hits.iter().filter(|&&h| h).count() as u64;
        Ok(DeleteResponse {
            hits,
            erased,
            report: OpReport::default(),
        })
    }

    fn live_len(&self) -> u64 {
        self.map.len() as u64
    }

    fn slot_capacity(&self) -> u64 {
        1 << 20
    }
}

fn single_gpu() -> GpuHashMap {
    let capacity = 256;
    let dev = Arc::new(Device::with_words(0, capacity * 8 + (1 << 13)));
    GpuHashMap::new(dev, capacity, Config::default()).unwrap()
}

/// A constructor of one fresh backend.
type Make = Box<dyn FnMut() -> Box<dyn MapService>>;

/// The backends every property runs on.
fn backends() -> Vec<(&'static str, Make)> {
    vec![
        ("model", Box::new(|| Box::new(Model::default()))),
        ("cached-lru", Box::new(|| Box::new(CachedMap::new(Model::default(), 2, CachePolicy::Lru)))),
        ("cached-lfu", Box::new(|| Box::new(CachedMap::new(Model::default(), 2, CachePolicy::Lfu)))),
        ("gpu", Box::new(|| Box::new(single_gpu()))),
    ]
}

/// Drives `chunks` of `ops` through `planned` (one `execute` per chunk)
/// and the same ops one `execute` per op through `sequential`, both
/// preloaded with `preload`, and demands equal responses and equal
/// final contents over `universe`.
fn assert_planned_equals_sequential(
    name: &str,
    make: &mut Make,
    preload: &[(u32, u32)],
    ops: &[Op],
    chunk: usize,
    universe: &[u32],
) {
    let mut planned = make();
    let mut sequential = make();
    if !preload.is_empty() {
        planned.put_batch(preload).unwrap();
        sequential.put_batch(preload).unwrap();
    }
    let mut got = Vec::with_capacity(ops.len());
    for c in ops.chunks(chunk.max(1)) {
        let (responses, report) = planned.execute(c).unwrap();
        assert_eq!(responses.len(), c.len(), "{name}: one response per op");
        assert_eq!(report.elements, c.len() as u64, "{name}: elements counts the ops answered");
        got.extend(responses);
    }
    let mut want = Vec::with_capacity(ops.len());
    for op in ops {
        want.extend(sequential.execute(std::slice::from_ref(op)).unwrap().0);
    }
    assert_eq!(got, want, "{name}: planned responses diverged from sequential on {ops:?}");
    assert_eq!(
        planned.get_batch(universe).unwrap().values,
        sequential.get_batch(universe).unwrap().values,
        "{name}: planned final contents diverged from sequential on {ops:?}"
    );
}

/// Decodes `(selector, key, value)` triples into an op stream over keys
/// `1..=8` (0 is never used, so a real table sees no reserved key).
fn decode(raw: &[(u8, u32, u32)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, key, value)| {
            let key = key % 8 + 1;
            match sel % 3 {
                0 => Op::Put { key, value },
                1 => Op::Get { key },
                _ => Op::Delete { key },
            }
        })
        .collect()
}

const UNIVERSE: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(scaled_cases(16)))]

    /// Random put/get/delete streams: planned ≡ one op at a time.
    #[test]
    fn random_streams_plan_like_sequential(
        raw in proptest::collection::vec((0u8..3, 0u32..8, 0u32..1000), 0..48),
        preload_mask in 0u32..256,
        chunk in 1usize..64,
    ) {
        let ops = decode(&raw);
        let preload: Vec<(u32, u32)> = UNIVERSE
            .iter()
            .filter(|&&k| preload_mask & (1 << (k - 1)) != 0)
            .map(|&k| (k, 5000 + k))
            .collect();
        for (name, make) in &mut backends() {
            assert_planned_equals_sequential(name, make, &preload, &ops, chunk, &UNIVERSE);
        }
    }

    /// Lowered YCSB-F streams (every RMW a get then a put of one key)
    /// over an 8-record universe: planned ≡ one op at a time.
    #[test]
    fn ycsb_f_streams_plan_like_sequential(
        seed in 0u64..1_000_000,
        len in 1usize..40,
        chunk in 1usize..80,
    ) {
        let gen = Ycsb::new(YcsbMix::F, 0.99, 8, seed);
        let universe: Vec<u32> = (1..=8).map(|r| gen.keys().key_for_rank_at(0, r)).collect();
        let preload: Vec<(u32, u32)> = universe.iter().zip(1..).map(|(&k, v)| (k, v)).collect();
        let ops = lower_mixed(&gen.ops(len));
        for (name, make) in &mut backends() {
            assert_planned_equals_sequential(name, make, &preload, &ops, chunk, &universe);
        }
    }
}

/// A failing put batch fails the whole `execute`: `Err`, no responses,
/// even though the get and delete batches before it succeeded.
#[test]
fn failed_put_batch_fails_the_whole_execute() {
    let mut m = Model::default();
    m.put_batch(&[(1, 10), (2, 20)]).unwrap();
    m.fail_puts = true;
    let ops = [
        Op::Put { key: 1, value: 11 },
        Op::Get { key: 1 }, // would be forwarded from the failed put
        Op::Get { key: 2 },
        Op::Delete { key: 2 },
    ];
    assert_eq!(
        m.execute(&ops).map(|(r, _)| r),
        Err(OpError::ProbingExhausted { failed: 1 })
    );
    assert_eq!(m.failed_puts, vec![1]);
    // the delete batch ran before the put failed: a subset of the final
    // writes landed
    assert_eq!(m.map.get(&2), None);
    assert_eq!(m.map.get(&1), Some(&10));
}

/// After a failed planned stream the cache holds no key the failed put
/// batch mentioned, and every remaining entry agrees with the backend.
#[test]
fn failed_put_batch_leaves_no_cached_key_of_the_batch() {
    for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
        let mut backend = Model::default();
        backend.put_batch(&[(1, 10), (2, 20), (3, 30)]).unwrap();
        let mut c = CachedMap::new(backend, 4, policy);
        c.get_batch(&[1, 2, 3]).unwrap(); // admit all three
        assert_eq!(c.cached_len(), 3);
        c.backend_mut().fail_puts = true;
        let ops = [
            Op::Get { key: 1 },
            Op::Put { key: 1, value: 11 },
            Op::Get { key: 1 },
            Op::Put { key: 2, value: 22 },
            Op::Get { key: 3 },
        ];
        assert!(c.execute(&ops).is_err(), "{}: the put batch failed", policy.label());
        let failed = c.backend().failed_puts.clone();
        assert_eq!(failed, vec![1, 2]);
        assert_eq!(c.cached_len(), 1, "{}: only key 3 may stay cached", policy.label());
        c.backend_mut().fail_puts = false;
        let hits_before = c.stats().hits;
        let through_cache = c.get_batch(&failed).unwrap().values;
        assert_eq!(
            c.stats().hits,
            hits_before,
            "{}: a failed batch key was still cached",
            policy.label()
        );
        let direct = c.backend_mut().get_batch(&UNIVERSE).unwrap().values;
        assert_eq!(through_cache, vec![direct[0], direct[1]]);
        assert_eq!(
            c.get_batch(&UNIVERSE).unwrap().values,
            direct,
            "{}: cache and backend disagree after the failure",
            policy.label()
        );
    }
}
