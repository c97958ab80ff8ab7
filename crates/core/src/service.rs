//! The unified request/response front door — one vocabulary for every
//! map backend.
//!
//! Historically each backend spoke its own dialect: `insert_pairs`
//! returned `Result<InsertOutcome, InsertError>`, `retrieve` a bare
//! `(Vec<Option<u32>>, KernelStats)` tuple, the host-sided cascades
//! `(_, CascadeReport)` tuples, and erase panicked on fault exhaustion.
//! This module defines the single vocabulary that replaces all of them:
//!
//! * [`Op`] / [`Response`] — one request/response pair for puts, gets and
//!   deletes, whatever the backend;
//! * [`OpReport`] — one cost report subsuming both [`KernelStats`]
//!   (single-GPU launches) and [`CascadeReport`] (multi-GPU cascades);
//! * [`OpError`] — one error type unifying [`InsertError`] and
//!   [`RetrieveError`], so fault-mode callers never hit a panic;
//! * [`MapService`] — the trait the wd-serve coalescer is generic over,
//!   implemented by [`crate::GpuHashMap`], [`crate::ShardedHashMap`] and
//!   [`crate::DistributedHashMap`].
//!
//! ## Planning contract
//!
//! [`MapService::execute`] turns a mixed op stream into at most three
//! bulk batches while staying *response-identical* to sequential
//! execution. Ops on distinct keys commute, so only same-key chains
//! need care, and those are resolved on the host in one pass over the
//! stream. Each key's state is either "pre-state unknown" or "known
//! value / known absent":
//!
//! * a get of a known key is answered from the host (read-your-writes);
//! * a put makes the value known, and the last put to a key wins;
//! * a delete answers `hit` from the known state and makes the key known
//!   absent;
//! * a get or delete of an unknown key waits for the backend's pre-state.
//!
//! The backend then sees one `get_batch` of the keys whose chain opens
//! with a get, one `delete_batch` of the keys whose final write is a
//! delete or that were deleted while unknown (its hits are those keys'
//! pre-state presence), and one `put_batch` of each remaining key's last
//! value, in that order. Every batch holds distinct keys in
//! first-occurrence order, so the batched kernels are per-key
//! independent (distinct keys probe disjoint logical slots; §IV-A lets
//! inserts and queries of different keys race freely) and no in-batch
//! duplicate ever reaches the kernel's CAS race. Every batch issued has
//! a kind the stream contains. `crates/core/tests/planner.rs` proves
//! planned ≡ one-op-at-a-time on responses and final contents; the
//! wd-serve equivalence suites prove it end to end across seeds ×
//! schedules × fault plans.
//!
//! On error no responses are returned, and any subset of the stream's
//! final writes may have been applied: there is no applied sequential
//! prefix, because the stream was never executed in order.

use crate::errors::{InsertError, RetrieveError};
use crate::stats::{CascadeReport, CascadeStage, DegradedStats, StageTiming};
use gpu_sim::{CounterSnapshot, KernelStats, OutOfMemory};
use interconnect::TransferError;
use std::collections::HashMap;

/// One small request against a map service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Store `value` under `key` (duplicate keys update in place).
    Put {
        /// Key to store under.
        key: u32,
        /// Value to store.
        value: u32,
    },
    /// Look up `key`.
    Get {
        /// Key to look up.
        key: u32,
    },
    /// Tombstone `key`.
    Delete {
        /// Key to tombstone.
        key: u32,
    },
}

impl Op {
    /// The key the op addresses.
    #[must_use]
    pub fn key(&self) -> u32 {
        match *self {
            Op::Put { key, .. } | Op::Get { key } | Op::Delete { key } => key,
        }
    }
}

/// The response to one [`Op`], in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Response {
    /// The put was applied.
    Put,
    /// Get result: the stored value, if the key was present.
    Get {
        /// `Some(value)` on a hit, `None` on a miss.
        value: Option<u32>,
    },
    /// Delete result: whether a live entry was tombstoned.
    Delete {
        /// `true` iff the key was present (and is now gone).
        hit: bool,
    },
}

/// One cost report for any operation on any backend.
///
/// Subsumes both per-launch [`KernelStats`] (single-GPU backends, where
/// `counters` is populated and `stages` is empty) and [`CascadeReport`]
/// (multi-GPU cascades, where `stages` carries the per-phase breakdown).
/// Reports merge additively, so a coalesced flush spanning several
/// batches accumulates into one report.
#[derive(Debug, Clone, Default)]
pub struct OpReport {
    /// Elements processed.
    pub elements: u64,
    /// Kernel launches attributed to the operation (0 when unknown, e.g.
    /// inside an opaque cascade).
    pub launches: u64,
    /// Total modeled time in seconds.
    pub time: f64,
    /// Portion of `time` spent in fault-retry exponential backoff
    /// (always ≤ `time`; zero on healthy runs).
    pub backoff_time: f64,
    /// Summed access-pattern counters, where the backend exposes them.
    pub counters: CounterSnapshot,
    /// Per-phase cascade breakdown, where the backend is a cascade.
    pub stages: Vec<StageTiming>,
}

impl OpReport {
    /// Wraps one kernel launch's stats as a report over `elements` ops.
    #[must_use]
    pub fn from_kernel(stats: &KernelStats, elements: u64) -> Self {
        Self {
            elements,
            launches: 1,
            time: stats.sim_time,
            backoff_time: 0.0,
            counters: stats.counters,
            stages: Vec::new(),
        }
    }

    /// Wraps a cascade's timing report.
    #[must_use]
    pub fn from_cascade(report: &CascadeReport) -> Self {
        Self {
            elements: report.elements,
            launches: 0,
            time: report.total_time(),
            backoff_time: report.time_of(CascadeStage::Backoff),
            counters: CounterSnapshot::default(),
            stages: report.stages.clone(),
        }
    }

    /// Accumulates another report (times add — operations on one service
    /// are serialized).
    pub fn merge(&mut self, other: &OpReport) {
        self.elements += other.elements;
        self.launches += other.launches;
        self.time += other.time;
        self.backoff_time += other.backoff_time;
        self.counters = self.counters.merged(other.counters);
        self.stages.extend(other.stages.iter().copied());
    }

    /// Operation rate over the report's modeled time.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        if self.time == 0.0 {
            0.0
        } else {
            self.elements as f64 / self.time
        }
    }

    /// Total modeled time extrapolated to `scale`× the element count.
    ///
    /// With a cascade breakdown the variable parts scale and the fixed
    /// launch overheads do not (the [`CascadeReport::modeled_time`]
    /// rule); without one the flat total scales linearly.
    #[must_use]
    pub fn modeled_time(&self, scale: f64) -> f64 {
        if self.stages.is_empty() {
            self.time * scale
        } else {
            self.stages.iter().map(|s| s.scaled_time(scale)).sum()
        }
    }

    /// Operation rate at modeled scale.
    #[must_use]
    pub fn modeled_ops_per_sec(&self, scale: f64) -> f64 {
        let t = self.modeled_time(scale);
        if t == 0.0 {
            0.0
        } else {
            self.elements as f64 * scale / t
        }
    }

    /// Accumulated time of one cascade phase kind (zero when the backend
    /// exposes no stage breakdown).
    #[must_use]
    pub fn time_of(&self, stage: CascadeStage) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.time)
            .sum()
    }
}

/// The unified error of the front-door API: every failure mode of every
/// backend, typed. No front-door path panics under an armed fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// One or more pairs exhausted the probing scheme — rebuild with a
    /// fresh hash function.
    ProbingExhausted {
        /// Number of pairs that could not be placed.
        failed: u64,
    },
    /// A scratch allocation for the operation failed.
    OutOfMemory(OutOfMemory),
    /// An interconnect transfer exhausted its retry budget with no
    /// failover avenue left.
    Transfer(TransferError),
    /// A GPU (or shard site) exhausted its launch retry budget with no
    /// survivor to take over.
    DeviceLost {
        /// The lost device's index.
        device: usize,
    },
    /// Re-homing a quarantined GPU's partition failed.
    Migration(InsertError),
    /// A cascade invariant broke (a WarpDrive bug, not an
    /// environmental failure). Typed so a serving process can fail the
    /// one op and keep serving instead of panicking.
    Internal {
        /// The violated invariant, verbatim.
        detail: &'static str,
    },
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::ProbingExhausted { failed } => {
                write!(f, "{failed} pair(s) exhausted the probing scheme")
            }
            OpError::OutOfMemory(e) => write!(f, "operation scratch allocation failed: {e}"),
            OpError::Transfer(e) => write!(f, "unrecoverable transfer failure: {e}"),
            OpError::DeviceLost { device } => {
                write!(f, "GPU {device} lost: launch retry budget exhausted, no failover target")
            }
            OpError::Migration(e) => write!(f, "partition migration failed: {e}"),
            OpError::Internal { detail } => write!(f, "internal invariant violated: {detail}"),
        }
    }
}

impl std::error::Error for OpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpError::Transfer(e) => Some(e),
            OpError::Migration(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InsertError> for OpError {
    fn from(e: InsertError) -> Self {
        match e {
            InsertError::ProbingExhausted { failed } => OpError::ProbingExhausted { failed },
            InsertError::OutOfMemory(o) => OpError::OutOfMemory(o),
            InsertError::Transfer(t) => OpError::Transfer(t),
            InsertError::DeviceLost { device } => OpError::DeviceLost { device },
            InsertError::Internal { detail } => OpError::Internal { detail },
        }
    }
}

impl From<RetrieveError> for OpError {
    fn from(e: RetrieveError) -> Self {
        match e {
            RetrieveError::Transfer(t) => OpError::Transfer(t),
            RetrieveError::DeviceLost { device } => OpError::DeviceLost { device },
            RetrieveError::Migration(i) => OpError::Migration(i),
        }
    }
}

impl From<OutOfMemory> for OpError {
    fn from(e: OutOfMemory) -> Self {
        OpError::OutOfMemory(e)
    }
}

impl From<crate::errors::BuildError> for OpError {
    fn from(e: crate::errors::BuildError) -> Self {
        match e {
            crate::errors::BuildError::OutOfMemory(o) => OpError::OutOfMemory(o),
            // a resize target inherits a positive capacity from the source
            // table, so this arm marks a bug, not an environmental failure
            crate::errors::BuildError::ZeroCapacity => OpError::Internal {
                detail: "zero-capacity table requested",
            },
        }
    }
}

/// Typed result of a bulk put.
#[derive(Debug, Clone)]
pub struct PutResponse {
    /// Pairs that claimed a previously vacant slot.
    pub new_slots: u64,
    /// Pairs that updated an already-present key in place.
    pub updates: u64,
    /// Claims that reclaimed a tombstoned slot (subset of `new_slots`).
    pub reclaimed: u64,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a bulk get, values in input order.
#[derive(Debug, Clone)]
pub struct GetResponse {
    /// `values[i]` answers `keys[i]`: `Some(v)` on a hit, `None` miss.
    pub values: Vec<Option<u32>>,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a multi-map get-all, value vectors in input order.
#[derive(Debug, Clone)]
pub struct GetAllResponse {
    /// `values[i]` holds every value stored under `keys[i]`.
    pub values: Vec<Vec<u32>>,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a bulk delete, hits in input order.
#[derive(Debug, Clone)]
pub struct DeleteResponse {
    /// `hits[i]` is `true` iff `keys[i]` was present (and is now gone).
    pub hits: Vec<bool>,
    /// Number of keys found and tombstoned (`hits` popcount).
    pub erased: u64,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a device-sided multi-GPU get: per-GPU result vectors
/// in the original per-GPU order.
#[derive(Debug, Clone)]
pub struct PerGpuGetResponse {
    /// `values[g][i]` answers `per_gpu_keys[g][i]`.
    pub values: Vec<Vec<Option<u32>>>,
    /// Cost report.
    pub report: OpReport,
}

/// Typed result of a device-sided multi-GPU delete: per-GPU hit vectors
/// in the original per-GPU order.
#[derive(Debug, Clone)]
pub struct PerGpuDeleteResponse {
    /// `hits[g][i]` is `true` iff `per_gpu_keys[g][i]` was tombstoned.
    pub hits: Vec<Vec<bool>>,
    /// Total keys found and tombstoned.
    pub erased: u64,
    /// Cost report.
    pub report: OpReport,
}

/// The backend abstraction the wd-serve coalescer is generic over: bulk
/// typed put/get/delete plus the occupancy and degradation signals
/// admission control needs.
///
/// Every method takes `&mut self` — a service owns its backend
/// exclusively, which *is* the §IV-A global barrier: no kernel of one
/// batch can race a kernel of another, so deletions need no further
/// synchronization. (The underlying maps still expose the finer-grained
/// `&self` insert/query APIs for toolchain embedding.)
pub trait MapService {
    /// Applies a batch of puts. Duplicate keys within one batch race
    /// (last writer wins on the kernel's event horizon) — callers that
    /// need sequential semantics go through [`MapService::execute`],
    /// which collapses each key to its last write.
    ///
    /// # Errors
    /// Any [`OpError`]; probing exhaustion is an error even though the
    /// non-colliding pairs were applied.
    fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError>;

    /// Looks up a batch of keys, results in input order.
    ///
    /// # Errors
    /// Fault-mode failures once every failover avenue is exhausted.
    fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError>;

    /// Tombstones a batch of keys, per-key hits in input order.
    ///
    /// # Errors
    /// Fault-mode failures once every failover avenue is exhausted.
    fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError>;

    /// Live (non-tombstone) entries.
    fn live_len(&self) -> u64;

    /// Total slots across the backend.
    fn slot_capacity(&self) -> u64;

    /// Load factor α = live entries / capacity.
    fn occupancy(&self) -> f64 {
        let cap = self.slot_capacity();
        if cap == 0 {
            0.0
        } else {
            self.live_len() as f64 / cap as f64
        }
    }

    /// Degraded-mode counters (all-zero for backends without a chaos
    /// layer).
    fn degraded(&self) -> DegradedStats {
        DegradedStats::default()
    }

    /// Slot occupancy split into live entries and tombstones. Backends
    /// without tombstone accounting report every occupied slot as live.
    fn occupancy_split(&self) -> crate::Occupancy {
        crate::Occupancy {
            live: self.live_len(),
            tombstones: 0,
            capacity: self.slot_capacity(),
        }
    }

    /// Resize state of the backend (always `Stable` for fixed-capacity
    /// backends).
    fn resize_state(&self) -> crate::ResizeState {
        crate::ResizeState::Stable
    }

    /// Asks the backend to start growing. Fixed-capacity backends return
    /// `Ok(false)` ("cannot comply — keep shedding"); resizable ones
    /// start (or continue) an incremental migration and return whether a
    /// new one was started.
    ///
    /// # Errors
    /// Allocation failure of the resize target.
    fn request_grow(&mut self) -> Result<bool, OpError> {
        Ok(false)
    }

    /// Asks the backend to start a same-capacity compaction (tombstone
    /// purge). Same contract as [`MapService::request_grow`].
    ///
    /// # Errors
    /// Allocation failure of the compaction target.
    fn request_compact(&mut self) -> Result<bool, OpError> {
        Ok(false)
    }

    /// Executes a mixed op stream, returning one response per op in
    /// submission order plus the merged cost report.
    ///
    /// Plans the stream on the host (see the module docs): same-key
    /// chains resolve against a per-key state, so the stream reaches the
    /// backend as at most one `get_batch`, one `delete_batch` and one
    /// `put_batch`, in that order, each over distinct keys in
    /// first-occurrence order. Responses are identical to executing the
    /// ops one at a time. The merged report's `elements` is `ops.len()`,
    /// the ops answered, whether the backend or the planner answered them.
    ///
    /// # Errors
    /// Propagates the first failing batch's [`OpError`]. No responses are
    /// returned, and any subset of the stream's final writes may have been
    /// applied.
    fn execute(&mut self, ops: &[Op]) -> Result<(Vec<Response>, OpReport), OpError> {
        let (mut keys, answers) = plan(ops);
        let mut report = OpReport::default();

        let gets: Vec<u32> = keys.iter().filter(|k| k.read).map(|k| k.key).collect();
        if !gets.is_empty() {
            let r = self.get_batch(&gets)?;
            report.merge(&r.report);
            for (k, value) in keys.iter_mut().filter(|k| k.read).zip(r.values) {
                k.pre_value = value;
            }
        }
        let deletes: Vec<u32> = keys.iter().filter(|k| k.deletes()).map(|k| k.key).collect();
        if !deletes.is_empty() {
            let r = self.delete_batch(&deletes)?;
            report.merge(&r.report);
            for (k, hit) in keys.iter_mut().filter(|k| k.deletes()).zip(r.hits) {
                k.pre_present = hit;
            }
        }
        let puts: Vec<(u32, u32)> = keys
            .iter()
            .filter_map(|k| match k.known {
                Some(Some(value)) => Some((k.key, value)),
                _ => None,
            })
            .collect();
        if !puts.is_empty() {
            let r = self.put_batch(&puts)?;
            report.merge(&r.report);
        }

        let responses = answers
            .into_iter()
            .map(|a| match a {
                Answer::Ready(r) => r,
                Answer::PreValue(i) => Response::Get {
                    value: keys[i].pre_value,
                },
                Answer::PrePresent(i) => Response::Delete {
                    hit: keys[i].pre_present,
                },
            })
            .collect();
        report.elements = ops.len() as u64;
        Ok((responses, report))
    }
}

/// Where one op's response comes from once the planned batches ran.
#[derive(Debug, Clone, Copy)]
enum Answer {
    /// Resolved on the host from the key's known state.
    Ready(Response),
    /// The backend pre-state value of the `i`-th planned key.
    PreValue(usize),
    /// The backend pre-state presence of the `i`-th planned key.
    PrePresent(usize),
}

/// Planning state of one distinct key of an op stream.
#[derive(Debug, Clone, Copy)]
struct KeyPlan {
    key: u32,
    /// `None` while the backend pre-state is unknown; `Some(value)` once a
    /// write of the stream fixed it (`Some(None)`: known absent). After
    /// the pass this is the key's final write: a put of the value or a
    /// delete.
    known: Option<Option<u32>>,
    /// The chain opens with a get: the key joins the get batch.
    read: bool,
    /// A delete hit the key while its pre-state was unknown.
    blind_delete: bool,
    /// Filled from the get batch.
    pre_value: Option<u32>,
    /// Filled from the delete batch.
    pre_present: bool,
}

impl KeyPlan {
    /// Whether the key joins the delete batch: its final write is a delete
    /// or a delete needs its pre-state presence.
    fn deletes(&self) -> bool {
        self.blind_delete || self.known == Some(None)
    }
}

/// One pass over `ops`: the distinct keys in first-occurrence order with
/// their planning state, plus where each op's response comes from.
fn plan(ops: &[Op]) -> (Vec<KeyPlan>, Vec<Answer>) {
    // the map only indexes `keys`; nothing iterates it
    let mut index: HashMap<u32, usize> = HashMap::with_capacity(ops.len());
    let mut keys: Vec<KeyPlan> = Vec::new();
    let mut answers = Vec::with_capacity(ops.len());
    for op in ops {
        let i = *index.entry(op.key()).or_insert_with(|| {
            keys.push(KeyPlan {
                key: op.key(),
                known: None,
                read: false,
                blind_delete: false,
                pre_value: None,
                pre_present: false,
            });
            keys.len() - 1
        });
        let k = &mut keys[i];
        answers.push(match (*op, k.known) {
            (Op::Get { .. }, Some(value)) => Answer::Ready(Response::Get { value }),
            (Op::Get { .. }, None) => {
                k.read = true;
                Answer::PreValue(i)
            }
            (Op::Put { value, .. }, _) => {
                k.known = Some(Some(value));
                Answer::Ready(Response::Put)
            }
            (Op::Delete { .. }, known) => {
                k.known = Some(None);
                match known {
                    Some(value) => Answer::Ready(Response::Delete {
                        hit: value.is_some(),
                    }),
                    None => {
                        k.blind_delete = true;
                        Answer::PrePresent(i)
                    }
                }
            }
        });
    }
    (keys, answers)
}

/// Lowers a YCSB-style mixed stream onto front-door [`Op`]s: reads
/// become gets, updates become puts, and each read-modify-write expands
/// into a get immediately followed by a put of the same key (the
/// dependent pair YCSB F models). The output is therefore up to twice as
/// long as the input; feed it to [`MapService::execute`], whose planner
/// answers each RMW's get from the pre-state and keeps only the key's
/// last put, response-identical to sequential execution.
#[must_use]
pub fn lower_mixed(ops: &[workloads::ycsb::MixedOp]) -> Vec<Op> {
    use workloads::ycsb::MixedOp;
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match *op {
            MixedOp::Read { key } => out.push(Op::Get { key }),
            MixedOp::Update { key, value } => out.push(Op::Put { key, value }),
            MixedOp::ReadModifyWrite { key, value } => {
                out.push(Op::Get { key });
                out.push(Op::Put { key, value });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn op_report_merges_additively() {
        let mut a = OpReport {
            elements: 10,
            launches: 1,
            time: 1.0,
            backoff_time: 0.25,
            counters: CounterSnapshot {
                transactions: 5,
                ..CounterSnapshot::default()
            },
            stages: vec![],
        };
        let b = OpReport {
            elements: 20,
            launches: 2,
            time: 2.0,
            backoff_time: 0.0,
            counters: CounterSnapshot {
                transactions: 7,
                ..CounterSnapshot::default()
            },
            stages: vec![],
        };
        a.merge(&b);
        assert_eq!(a.elements, 30);
        assert_eq!(a.launches, 3);
        assert!((a.time - 3.0).abs() < 1e-12);
        assert!((a.backoff_time - 0.25).abs() < 1e-12);
        assert_eq!(a.counters.transactions, 12);
        assert!((a.ops_per_sec() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn from_cascade_extracts_backoff() {
        let mut c = CascadeReport::new(100);
        c.push(CascadeStage::Insert, 1.0, 0);
        c.push(CascadeStage::Backoff, 0.5, 0);
        let r = OpReport::from_cascade(&c);
        assert_eq!(r.elements, 100);
        assert!((r.time - 1.5).abs() < 1e-12);
        assert!((r.backoff_time - 0.5).abs() < 1e-12);
        assert_eq!(r.stages.len(), 2);
    }

    #[test]
    fn op_error_conversions_cover_every_variant() {
        let e: OpError = InsertError::ProbingExhausted { failed: 3 }.into();
        assert!(matches!(e, OpError::ProbingExhausted { failed: 3 }));
        let t = TransferError {
            src: 0,
            dst: 1,
            attempts: 2,
        };
        let e: OpError = RetrieveError::Transfer(t).into();
        assert_eq!(e, OpError::Transfer(t));
        let e: OpError = RetrieveError::Migration(InsertError::DeviceLost { device: 1 }).into();
        assert!(matches!(e, OpError::Migration(_)));
        assert!(e.to_string().contains("migration"));
    }

    /// A trivial in-memory MapService used to pin down `execute`'s
    /// batch shape independent of the GPU backends.
    #[derive(Default)]
    struct ModelService {
        map: std::collections::HashMap<u32, u32>,
        batches: Vec<(char, Vec<u32>)>,
    }

    impl MapService for ModelService {
        fn put_batch(&mut self, pairs: &[(u32, u32)]) -> Result<PutResponse, OpError> {
            self.batches.push(('p', pairs.iter().map(|&(k, _)| k).collect()));
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
                report: OpReport {
                    elements: pairs.len() as u64,
                    ..OpReport::default()
                },
            })
        }

        fn get_batch(&mut self, keys: &[u32]) -> Result<GetResponse, OpError> {
            self.batches.push(('g', keys.to_vec()));
            Ok(GetResponse {
                values: keys.iter().map(|k| self.map.get(k).copied()).collect(),
                report: OpReport {
                    elements: keys.len() as u64,
                    ..OpReport::default()
                },
            })
        }

        fn delete_batch(&mut self, keys: &[u32]) -> Result<DeleteResponse, OpError> {
            self.batches.push(('d', keys.to_vec()));
            let hits: Vec<bool> = keys.iter().map(|k| self.map.remove(k).is_some()).collect();
            let erased = hits.iter().filter(|&&h| h).count() as u64;
            Ok(DeleteResponse {
                hits,
                erased,
                report: OpReport {
                    elements: keys.len() as u64,
                    ..OpReport::default()
                },
            })
        }

        fn live_len(&self) -> u64 {
            self.map.len() as u64
        }

        fn slot_capacity(&self) -> u64 {
            1 << 20
        }
    }

    /// The planner's shape: at most one batch per kind, in get → delete
    /// → put order, each over distinct keys.
    fn assert_planned_shape(batches: &[(char, Vec<u32>)]) {
        let kinds: String = batches.iter().map(|(c, _)| *c).collect();
        assert!(
            ["", "g", "d", "p", "gd", "gp", "dp", "gdp"].contains(&kinds.as_str()),
            "batch kinds {kinds:?} are not a subsequence of get, delete, put"
        );
        for (kind, keys) in batches {
            let distinct: HashSet<u32> = keys.iter().copied().collect();
            assert_eq!(distinct.len(), keys.len(), "{kind} batch repeats a key: {keys:?}");
        }
    }

    #[test]
    fn execute_coalesces_same_kind_runs() {
        let mut svc = ModelService::default();
        let ops = vec![
            Op::Put { key: 1, value: 10 },
            Op::Put { key: 2, value: 20 },
            Op::Get { key: 1 },
            Op::Get { key: 9 },
            Op::Delete { key: 1 },
            Op::Delete { key: 2 },
        ];
        let (resp, report) = svc.execute(&ops).unwrap();
        assert_planned_shape(&svc.batches);
        // key 1's get is forwarded from its put; keys 1 and 2 end deleted,
        // so their puts never reach the backend
        assert_eq!(svc.batches, vec![('g', vec![9]), ('d', vec![1, 2])]);
        assert_eq!(
            resp,
            vec![
                Response::Put,
                Response::Put,
                Response::Get { value: Some(10) },
                Response::Get { value: None },
                Response::Delete { hit: true },
                Response::Delete { hit: true },
            ]
        );
        assert_eq!(report.elements, 6);
    }

    #[test]
    fn execute_collapses_duplicate_puts_to_the_last_writer() {
        let mut svc = ModelService::default();
        let ops = vec![
            Op::Put { key: 7, value: 1 },
            Op::Put { key: 8, value: 2 },
            Op::Put { key: 7, value: 3 }, // same key: the last put wins
            Op::Get { key: 7 },
        ];
        let (resp, _) = svc.execute(&ops).unwrap();
        assert_planned_shape(&svc.batches);
        assert_eq!(svc.batches, vec![('p', vec![7, 8])]);
        // sequential semantics: the later put wins
        assert_eq!(resp[3], Response::Get { value: Some(3) });
        assert_eq!(svc.map.get(&7), Some(&3));
    }

    #[test]
    fn execute_keeps_duplicate_gets_in_one_batch() {
        let mut svc = ModelService::default();
        svc.map.insert(5, 50);
        let ops = vec![Op::Get { key: 5 }, Op::Get { key: 5 }, Op::Get { key: 5 }];
        let (resp, _) = svc.execute(&ops).unwrap();
        assert_planned_shape(&svc.batches);
        assert_eq!(svc.batches, vec![('g', vec![5])]);
        assert!(resp
            .iter()
            .all(|r| *r == Response::Get { value: Some(50) }));
    }

    #[test]
    fn execute_answers_repeat_deletes_from_the_known_state() {
        let mut svc = ModelService::default();
        svc.map.insert(3, 30);
        let ops = vec![Op::Delete { key: 3 }, Op::Delete { key: 3 }];
        let (resp, _) = svc.execute(&ops).unwrap();
        assert_planned_shape(&svc.batches);
        assert_eq!(svc.batches, vec![('d', vec![3])]);
        assert_eq!(
            resp,
            vec![Response::Delete { hit: true }, Response::Delete { hit: false }]
        );
    }

    #[test]
    fn execute_orders_batches_get_delete_put_in_first_occurrence_order() {
        let mut svc = ModelService::default();
        svc.map.insert(2, 20);
        let ops = vec![
            Op::Put { key: 4, value: 40 },
            Op::Get { key: 1 },
            Op::Delete { key: 2 },
            Op::Get { key: 3 },
            Op::Put { key: 2, value: 21 },
            Op::Delete { key: 1 },
            Op::Get { key: 2 },
        ];
        let (resp, report) = svc.execute(&ops).unwrap();
        assert_planned_shape(&svc.batches);
        assert_eq!(
            svc.batches,
            vec![('g', vec![1, 3]), ('d', vec![1, 2]), ('p', vec![4, 2])]
        );
        assert_eq!(
            resp,
            vec![
                Response::Put,
                Response::Get { value: None },
                Response::Delete { hit: true },
                Response::Get { value: None },
                Response::Put,
                Response::Delete { hit: false },
                Response::Get { value: Some(21) },
            ]
        );
        // every op answered counts, forwarded ones included
        assert_eq!(report.elements, ops.len() as u64);
    }

    #[test]
    fn lower_mixed_expands_rmw_into_get_then_put() {
        use workloads::ycsb::MixedOp;
        let mixed = vec![
            MixedOp::Read { key: 1 },
            MixedOp::ReadModifyWrite { key: 2, value: 9 },
            MixedOp::Update { key: 3, value: 4 },
        ];
        assert_eq!(
            lower_mixed(&mixed),
            vec![
                Op::Get { key: 1 },
                Op::Get { key: 2 },
                Op::Put { key: 2, value: 9 },
                Op::Put { key: 3, value: 4 },
            ]
        );
    }

    #[test]
    fn lowered_rmw_reads_the_pre_write_value() {
        use workloads::ycsb::MixedOp;
        let mut svc = ModelService::default();
        svc.map.insert(7, 70);
        let ops = lower_mixed(&[MixedOp::ReadModifyWrite { key: 7, value: 71 }]);
        let (resp, _) = svc.execute(&ops).unwrap();
        // the read half sees the old value; the modify half lands after
        assert_eq!(resp[0], Response::Get { value: Some(70) });
        assert_eq!(svc.map.get(&7), Some(&71));
    }

    #[test]
    fn execute_empty_stream_is_empty() {
        let mut svc = ModelService::default();
        let (resp, report) = svc.execute(&[]).unwrap();
        assert!(resp.is_empty());
        assert_eq!(report.elements, 0);
        assert!(svc.batches.is_empty());
    }
}
