//! Load-factor-triggered incremental resize with linearizable online
//! migration.
//!
//! WarpDrive's table is fixed-capacity — the paper sizes it up front and
//! Fig. 7 degrades sharply past load factor ~0.9. This module removes
//! that cliff: a [`ResizePolicy`] watermark on the *effective* load
//! (live **plus** tombstones — both lengthen probe chains) triggers an
//! incremental migration to a fresh table, interleaved with foreground
//! operations in fixed-size slot chunks.
//!
//! ## State machine
//!
//! ```text
//! Stable ──(effective load ≥ watermark)──► Migrating(cursor)
//!    ▲                                          │ chunk per foreground op
//!    └──────────(&mut finalize swap)◄───────────┘ cursor == capacity
//! ```
//!
//! * **Writes land in the new table.** A routed put first tombstones the
//!   key in the old table (so the key never lives in both) and then
//!   inserts into the new one.
//! * **Reads consult old-then-new.** The disjointness invariant — every
//!   key lives in exactly one table — makes the combine order
//!   irrelevant and keeps responses independent of how far the chunk
//!   cursor has advanced, which is what preserves wd-serve's
//!   batch-size-invariance during a resize.
//! * **Every migrated key is history-legal.** The chunk step records
//!   each moved key as an erase→insert pair
//!   ([`crate::HistoryRecorder::record_migration_pair`], the same shape
//!   the chaos `Router` uses for quarantine migration), so the
//!   Wing–Gong checker validates a resize like any other history.
//! * **Compaction** rebuilds at the *same* capacity with a fresh hash
//!   seed, reclaiming tombstone-heavy tables — fixing the "tombstones
//!   count toward load forever" accounting cliff.
//!
//! The table swap itself needs `&mut` (the table reference is a plain
//! field read by `&self` kernels), so a migration whose cursor reaches
//! the end *stays* in `Migrating` — harmlessly: the old table is fully
//! drained — until the next `&mut` entry point
//! ([`crate::GpuHashMap::maybe_finalize_resize`], which every
//! [`crate::MapService`] batch method calls first).
//!
//! The old table's VRAM is **not** reclaimed: [`gpu_sim`]'s device
//! memory is a bump allocator with no per-allocation free (faithful to
//! the scratch discipline real deployments use). Size devices for old +
//! new + scratch when arming a policy.

use crate::config::Layout;
use crate::delete::erase_kernel;
use crate::entry::{live_pair, pack, EMPTY, TOMBSTONE};
use crate::errors::{BuildError, InsertError};
use crate::insert::{insert_kernel, soa_key_of, InsertOutcome};
use crate::map::{GpuHashMap, TableRef};
use crate::probing::Prober;
use crate::retrieve::retrieve_kernel;
use crate::service::OpError;
use gpu_sim::{GroupSize, KernelStats, LaunchOptions};
use hashes::DoubleHash;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::Ordering::Relaxed;

/// When and how a map resizes itself. Armed via
/// [`crate::GpuHashMap::set_resize_policy`] (or the sharded wrapper's
/// equivalent); `None` (the default) keeps the paper's fixed-capacity
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResizePolicy {
    /// Effective-load watermark that triggers a resize:
    /// `(live + tombstones + incoming) / capacity ≥ watermark`.
    /// Tombstones count — they lengthen probe chains exactly like live
    /// entries until reclaimed.
    pub watermark: f64,
    /// Slots migrated per chunk step (rounded up to whole 32-slot spans
    /// by construction — the scan is span-granular).
    pub chunk: usize,
    /// Chunk steps interleaved before each foreground op while a
    /// migration is active.
    pub chunks_per_op: usize,
    /// Capacity multiplier for a grow (compaction always rebuilds at
    /// 1×).
    pub growth_factor: usize,
}

impl Default for ResizePolicy {
    fn default() -> Self {
        Self {
            watermark: 0.85,
            chunk: 256,
            chunks_per_op: 1,
            growth_factor: 2,
        }
    }
}

impl ResizePolicy {
    /// The default policy with the `WD_RESIZE_WATERMARK` (fraction) and
    /// `WD_RESIZE_CHUNK` (slots) environment overrides applied, so any
    /// harness can re-run under a different trigger point or chunk
    /// granularity without code changes.
    #[must_use]
    pub fn from_env() -> Self {
        let mut p = Self::default();
        if let Some(w) = std::env::var("WD_RESIZE_WATERMARK")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|w| (0.0..=1.0).contains(w))
        {
            p.watermark = w;
        }
        if let Some(c) = std::env::var("WD_RESIZE_CHUNK")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
        {
            p.chunk = c;
        }
        p
    }

    /// Sets the effective-load watermark.
    #[must_use]
    pub fn with_watermark(mut self, w: f64) -> Self {
        self.watermark = w;
        self
    }

    /// Sets the migration chunk size in slots.
    #[must_use]
    pub fn with_chunk(mut self, slots: usize) -> Self {
        self.chunk = slots.max(1);
        self
    }

    /// Sets how many chunk steps run before each foreground op.
    #[must_use]
    pub fn with_chunks_per_op(mut self, n: usize) -> Self {
        self.chunks_per_op = n.max(1);
        self
    }

    /// Sets the grow multiplier.
    #[must_use]
    pub fn with_growth_factor(mut self, f: usize) -> Self {
        self.growth_factor = f.max(2);
        self
    }
}

/// Why a migration is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResizeMode {
    /// Growing to `growth_factor ×` the capacity (watermark hit with
    /// mostly live entries).
    Grow,
    /// Rebuilding at the *same* capacity to purge tombstones (watermark
    /// hit with tombstones ≥ live entries).
    Compact,
}

/// Externally visible resize state of a map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeState {
    /// No migration active.
    Stable,
    /// An incremental migration is in flight (or fully scanned and
    /// awaiting its `&mut` finalize).
    Migrating {
        /// Why.
        mode: ResizeMode,
        /// Slots of the source table already migrated.
        cursor: usize,
        /// Source-table capacity (migration completes at
        /// `cursor == source_capacity`).
        source_capacity: usize,
        /// Target-table capacity.
        target_capacity: usize,
    },
}

/// An in-flight migration: the target table plus its own hash member and
/// counters. The source table and its counters stay on the owning map
/// until the finalize swap.
#[derive(Debug)]
pub(crate) struct Migration {
    pub(crate) table: TableRef,
    pub(crate) dh: DoubleHash,
    pub(crate) seed: u32,
    pub(crate) mode: ResizeMode,
    /// Source slots `[0, cursor)` have been migrated.
    pub(crate) cursor: usize,
    /// Live entries in the target table.
    pub(crate) occupied: u64,
    /// Tombstones in the target table (deletes during migration).
    pub(crate) tombstones: u64,
    /// Source-table snapshot taken at `begin` — populated **only** under
    /// the `broken_migrate_skips_tombstone_check` mutation double, whose
    /// chunk step replays this stale image instead of scanning the live
    /// table.
    stale: Option<Vec<u64>>,
}

/// Resize control block of a [`GpuHashMap`], behind a mutex because the
/// insert/retrieve fast paths take `&self`.
#[derive(Debug, Default)]
pub(crate) struct ResizeCtl {
    pub(crate) policy: Option<ResizePolicy>,
    pub(crate) migration: Option<Migration>,
    /// A growth allocation failed: stop re-trying on every insert and
    /// fall back to fixed-capacity behaviour.
    pub(crate) blocked: bool,
}

/// Accumulates kernel stats across the several launches of a routed op.
fn merge_stats(acc: &mut Option<KernelStats>, s: KernelStats) {
    *acc = Some(match acc.take() {
        Some(prev) => prev.merged(&s),
        None => s,
    });
}

/// Splits `pairs` into maximal duplicate-key-free segments, cutting
/// before each repeated key. The routed put records per-key
/// events manually, so a batch must not contain two writes of one key —
/// the kernels' race winner could contradict the recorded order.
fn dup_free_segments(pairs: &[(u32, u32)]) -> Vec<std::ops::Range<usize>> {
    let mut segs = Vec::new();
    let mut start = 0usize;
    let mut seen: HashSet<u32> = HashSet::new();
    for (i, &(k, _)) in pairs.iter().enumerate() {
        if seen.contains(&k) {
            segs.push(start..i);
            start = i;
            seen.clear();
        }
        seen.insert(k);
    }
    segs.push(start..pairs.len());
    segs
}

impl GpuHashMap {
    // ---- policy survey ---------------------------------------------------

    /// Arms (or disarms, with `None`) the incremental-resize policy.
    /// Disarming does not abandon an in-flight migration — it runs to
    /// completion; only new triggers stop firing.
    pub fn set_resize_policy(&mut self, policy: Option<ResizePolicy>) {
        let ctl = self.resize.get_mut();
        ctl.policy = policy;
        ctl.blocked = false;
    }

    /// The armed resize policy, if any.
    #[must_use]
    pub fn resize_policy(&self) -> Option<ResizePolicy> {
        self.resize.lock().policy
    }

    /// Current resize state.
    #[must_use]
    pub fn resize_state(&self) -> ResizeState {
        match &self.resize.lock().migration {
            None => ResizeState::Stable,
            Some(m) => ResizeState::Migrating {
                mode: m.mode,
                cursor: m.cursor,
                source_capacity: self.table.capacity,
                target_capacity: m.table.capacity,
            },
        }
    }

    /// The capacity foreground writes currently land in: the migration
    /// target's during a resize, the table's otherwise.
    #[must_use]
    pub fn effective_capacity(&self) -> usize {
        self.resize
            .lock()
            .migration
            .as_ref()
            .map_or(self.table.capacity, |m| m.table.capacity)
    }

    /// Slot occupancy split into live entries and tombstones (see
    /// [`crate::Occupancy`]). During a migration the capacity and
    /// tombstone count describe the table the map is migrating *into*
    /// (the old table's transient tombstones vanish at the swap), while
    /// `live` counts every key wherever it currently resides.
    #[must_use]
    pub fn occupancy_split(&self) -> crate::Occupancy {
        let ctl = self.resize.lock();
        match &ctl.migration {
            None => crate::Occupancy {
                live: self.occupied.load(Relaxed),
                tombstones: self.tombstones.load(Relaxed),
                capacity: self.table.capacity as u64,
            },
            Some(m) => crate::Occupancy {
                live: self.occupied.load(Relaxed) + m.occupied,
                tombstones: m.tombstones,
                capacity: m.table.capacity as u64,
            },
        }
    }

    // ---- explicit triggers ----------------------------------------------

    /// Starts an incremental grow if the map is stable; returns
    /// `Ok(false)` when a migration is already in flight (after
    /// finalizing a completed one).
    ///
    /// # Errors
    /// [`OpError::OutOfMemory`] when the target table does not fit the
    /// device's remaining VRAM.
    pub fn request_grow(&mut self) -> Result<bool, OpError> {
        self.request_resize(ResizeMode::Grow)
    }

    /// Starts an incremental same-capacity compaction (tombstone purge)
    /// if the map is stable; returns `Ok(false)` when a migration is
    /// already in flight.
    ///
    /// # Errors
    /// [`OpError::OutOfMemory`] when the target table does not fit.
    pub fn request_compact(&mut self) -> Result<bool, OpError> {
        self.request_resize(ResizeMode::Compact)
    }

    fn request_resize(&mut self, mode: ResizeMode) -> Result<bool, OpError> {
        self.maybe_finalize_resize();
        let mut ctl = self.resize.lock();
        if ctl.migration.is_some() {
            return Ok(false);
        }
        self.begin_locked(&mut ctl, mode)?;
        Ok(true)
    }

    /// Swaps a *fully scanned* migration in as the primary table.
    /// Returns whether a swap happened. Called automatically at every
    /// [`crate::MapService`] batch entry point; also public for callers
    /// driving the `&self` APIs directly.
    pub fn maybe_finalize_resize(&mut self) -> bool {
        let source_capacity = self.table.capacity;
        let ctl = self.resize.get_mut();
        let done = ctl
            .migration
            .as_ref()
            .is_some_and(|m| m.cursor >= source_capacity);
        if !done {
            return false;
        }
        let Some(m) = ctl.migration.take() else {
            return false;
        };
        self.table = m.table;
        self.dh = m.dh;
        self.cfg.seed = m.seed;
        *self.occupied.get_mut() = m.occupied;
        *self.tombstones.get_mut() = m.tombstones;
        true
    }

    /// Drives any in-flight migration to completion and finalizes it.
    /// Returns whether a migration was finished.
    ///
    /// # Errors
    /// Migration inserts can exhaust probing (compaction into a still
    /// adversarial hash member) and scratch can run out; the migration
    /// stays resumable after an error.
    pub fn finish_resize(&mut self) -> Result<bool, OpError> {
        self.drive_migration_to_end().map_err(OpError::from)
    }

    /// [`GpuHashMap::finish_resize`] with the narrower error type the
    /// maintenance paths (rebuild) need.
    pub(crate) fn drive_migration_to_end(&mut self) -> Result<bool, InsertError> {
        let mut finished = false;
        loop {
            if self.maybe_finalize_resize() {
                finished = true;
                continue;
            }
            let mut ctl = self.resize.lock();
            if ctl.migration.is_none() {
                return Ok(finished);
            }
            self.advance_locked(&mut ctl, usize::MAX)?;
            drop(ctl);
        }
    }

    // ---- trigger & routing (called from the map's host-side paths) -------

    /// Whether a migration is in flight (route-only check: reads and
    /// deletes never *start* a resize — neither raises effective load).
    pub(crate) fn resize_active(&self) -> bool {
        self.resize.lock().migration.is_some()
    }

    /// Locks the control block, fires the watermark trigger if armed,
    /// and reports whether ops must route through the migration paths.
    pub(crate) fn resize_engaged(&self, incoming: usize) -> bool {
        let mut ctl = self.resize.lock();
        if ctl.migration.is_some() {
            return true;
        }
        let Some(policy) = ctl.policy else {
            return false;
        };
        if ctl.blocked {
            return false;
        }
        let live = self.occupied.load(Relaxed);
        let tombs = self.tombstones.load(Relaxed);
        let projected = (live + tombs + incoming as u64) as f64 / self.table.capacity as f64;
        if projected < policy.watermark {
            return false;
        }
        let mode = if tombs >= live && tombs > 0 {
            ResizeMode::Compact
        } else {
            ResizeMode::Grow
        };
        match self.begin_locked(&mut ctl, mode) {
            Ok(()) => true,
            Err(_) => {
                // target table does not fit: fall back to fixed-capacity
                // behaviour instead of failing the foreground op, and
                // stop re-trying the allocation on every insert
                ctl.blocked = true;
                false
            }
        }
    }

    // ---- migration machinery ---------------------------------------------

    /// Allocates and installs the migration target.
    fn begin_locked(&self, ctl: &mut ResizeCtl, mode: ResizeMode) -> Result<(), BuildError> {
        let policy = ctl.policy.unwrap_or_default();
        let capacity = match mode {
            ResizeMode::Grow => self.table.capacity * policy.growth_factor.max(2),
            ResizeMode::Compact => self.table.capacity,
        };
        let words = match self.cfg.layout {
            Layout::Aos => capacity,
            Layout::Soa => 2 * capacity,
        };
        let data = self.dev.alloc(words)?;
        self.dev.mem().fill(data, EMPTY);
        let seed = self.cfg.seed.wrapping_add(1);
        let stale = self
            .cfg
            .broken_migrate_skips_tombstone_check
            .then(|| self.packed_table_words());
        ctl.migration = Some(Migration {
            table: TableRef {
                data,
                capacity,
                layout: self.cfg.layout,
                group_size: self.cfg.group_size,
            },
            dh: DoubleHash::from_seed(seed),
            seed,
            mode,
            cursor: 0,
            occupied: 0,
            tombstones: 0,
            stale,
        });
        Ok(())
    }

    /// The whole source table as packed AOS-style words (sentinels
    /// preserved) — the stale image the
    /// `broken_migrate_skips_tombstone_check` double replays.
    fn packed_table_words(&self) -> Vec<u64> {
        match self.cfg.layout {
            Layout::Aos => self.dev.mem().d2h(self.table.data),
            Layout::Soa => {
                let keys = self.dev.mem().d2h(self.table.soa_keys());
                let values = self.dev.mem().d2h(self.table.soa_values());
                keys.iter()
                    .zip(&values)
                    .map(|(&k, &v)| match soa_key_of(k) {
                        Some(key) => pack(key, v as u32),
                        None => k, // EMPTY or TOMBSTONE key word
                    })
                    .collect()
            }
        }
    }

    /// Launch options for kernels against an arbitrary table (the
    /// migration target bills its own working set).
    fn opts_for(&self, table: &TableRef) -> LaunchOptions {
        let ws = self
            .cfg
            .modeled_capacity_bytes
            .unwrap_or_else(|| table.data.bytes());
        self.cfg.apply_dispatch(
            LaunchOptions::default()
                .with_working_set(ws)
                .with_schedule(self.cfg.schedule),
        )
    }

    fn prober_for(&self, m: &Migration) -> Prober {
        Prober::new(m.dh, self.cfg.probing, m.table.capacity)
    }

    fn source_prober(&self) -> Prober {
        Prober::new(self.dh, self.cfg.probing, self.table.capacity)
    }

    /// Advances the migration by up to `chunks` chunk steps (stops at the
    /// end of the source table). Returns merged stats of the step
    /// launches, if any ran.
    ///
    /// Each step: scan the next chunk of source slots (billed as one
    /// streaming launch, like `rebuild_scan`), insert the live pairs
    /// into the target, *then* tombstone the source slots — a key is
    /// never in neither table at an op boundary — and record each move
    /// as an erase→insert history pair.
    fn advance_locked(
        &self,
        ctl: &mut ResizeCtl,
        chunks: usize,
    ) -> Result<Option<KernelStats>, InsertError> {
        let chunk_slots = ctl.policy.unwrap_or_default().chunk.max(1);
        let Some(m) = ctl.migration.as_mut() else {
            return Ok(None);
        };
        let mut acc: Option<KernelStats> = None;
        for _ in 0..chunks {
            if m.cursor >= self.table.capacity {
                break;
            }
            let len = chunk_slots.min(self.table.capacity - m.cursor);
            let cursor = m.cursor;

            // -- scan the chunk (host-side image; billed as a streaming
            //    launch over the spans, like rebuild_scan)
            let (mut key_words, values) = match self.cfg.layout {
                Layout::Aos => (self.dev.mem().d2h(self.table.data.sub(cursor, len)), None),
                Layout::Soa => (
                    self.dev.mem().d2h(self.table.soa_keys().sub(cursor, len)),
                    Some(self.dev.mem().d2h(self.table.soa_values().sub(cursor, len))),
                ),
            };
            let live_at = |i: usize, w: u64| -> Option<(u32, u32)> {
                match self.cfg.layout {
                    Layout::Aos => live_pair(w),
                    Layout::Soa => soa_key_of(w).map(|k| {
                        let v = values.as_ref().map_or(0, |vs| vs[i]);
                        (k, v as u32)
                    }),
                }
            };
            let moved: Vec<(usize, (u32, u32))> = key_words
                .iter()
                .enumerate()
                .filter_map(|(i, &w)| live_at(i, w).map(|kv| (i, kv)))
                .collect();
            // MUTATION DOUBLE (`broken_migrate_skips_tombstone_check`):
            // replay the begin-time snapshot of this chunk instead of the
            // live scan — a key deleted (or updated) since the migration
            // began is migrated back to life with its stale value.
            let inserted: Vec<(u32, u32)> = match &m.stale {
                Some(snapshot) => snapshot[cursor..cursor + len]
                    .iter()
                    .filter_map(|&w| live_pair(w))
                    .collect(),
                None => moved.iter().map(|&(_, kv)| kv).collect(),
            };
            let scan = self.dev.launch(
                "resize_scan",
                len.div_ceil(32),
                GroupSize::WARP,
                LaunchOptions::default(),
                |ctx| ctx.bill_stream_bytes(32 * 8),
            );
            merge_stats(&mut acc, scan);

            // -- insert into the target first (a key is never lost if the
            //    insert errors — the source slots are still intact)
            if !inserted.is_empty() {
                let words: Vec<u64> = inserted.iter().map(|&(k, v)| pack(k, v)).collect();
                let staging = self.dev.alloc_scratch(words.len())?;
                let input = staging.slice().sub(0, words.len());
                self.dev.mem().h2d(input, &words);
                let outcome = insert_kernel(
                    &self.dev,
                    &m.table,
                    input,
                    words.len(),
                    &self.prober_for(m),
                    self.cfg.p_max,
                    self.opts_for(&m.table),
                    self.cfg.mutations(),
                    None,
                );
                if outcome.failed > 0 {
                    merge_stats(&mut acc, outcome.stats);
                    return Err(InsertError::ProbingExhausted {
                        failed: outcome.failed,
                    });
                }
                m.occupied += outcome.new_slots;
                m.tombstones -= outcome.reclaimed.min(m.tombstones);
                merge_stats(&mut acc, outcome.stats);
            }

            // -- tombstone the moved source slots (EMPTY slots stay EMPTY
            //    so probe sequences on the source keep terminating early)
            if !moved.is_empty() {
                for &(i, _) in &moved {
                    key_words[i] = TOMBSTONE;
                }
                match self.cfg.layout {
                    Layout::Aos => {
                        self.dev
                            .mem()
                            .h2d(self.table.data.sub(cursor, len), &key_words);
                    }
                    Layout::Soa => {
                        self.dev
                            .mem()
                            .h2d(self.table.soa_keys().sub(cursor, len), &key_words);
                        if let Some(mut vs) = values {
                            for &(i, _) in &moved {
                                vs[i] = EMPTY;
                            }
                            self.dev.mem().h2d(self.table.soa_values().sub(cursor, len), &vs);
                        }
                    }
                }
                self.occupied.fetch_sub(moved.len() as u64, Relaxed);
                self.tombstones.fetch_add(moved.len() as u64, Relaxed);
            }

            // -- history: each migrated key is a legal erase→insert pair
            if let Some(rec) = self.recorder.as_deref() {
                for &(k, v) in &inserted {
                    rec.record_migration_pair(k, v, true);
                }
            }
            m.cursor += len;
        }
        Ok(acc)
    }

    // ---- routed foreground ops (active while Migrating) -------------------

    /// Put during migration: tombstone in the source, insert into the
    /// target, with per-key history recorded manually (the kernels run
    /// unrecorded — kernel-level events would claim a false erase/miss
    /// on whichever table doesn't hold the key).
    pub(crate) fn migrating_insert_pairs(
        &self,
        pairs: &[(u32, u32)],
    ) -> Result<InsertOutcome, InsertError> {
        let mut ctl = self.resize.lock();
        let chunks = ctl.policy.unwrap_or_default().chunks_per_op.max(1);
        let mut acc = self.advance_locked(&mut ctl, chunks)?;
        let Some(m) = ctl.migration.as_mut() else {
            // the advance finished the scan and a racing &mut path
            // finalized — fall through to the stable path
            drop(ctl);
            return self.insert_pairs(pairs);
        };

        let mut new_slots = 0u64;
        let mut updates = 0u64;
        let mut reclaimed = 0u64;
        for seg in dup_free_segments(pairs) {
            let seg_pairs = &pairs[seg];
            if seg_pairs.is_empty() {
                continue;
            }
            let n = seg_pairs.len();
            let key_queries: Vec<u64> = seg_pairs.iter().map(|&(k, _)| u64::from(k) << 32).collect();
            let packed: Vec<u64> = seg_pairs.iter().map(|&(k, v)| pack(k, v)).collect();

            // scratch: erase input (n) + retrieve in/out (2n) + insert (n)
            let staging = self.dev.alloc_scratch(4 * n)?;
            let erase_in = staging.slice().sub(0, n);
            let probe_in = staging.slice().sub(n, n);
            let probe_out = staging.slice().sub(2 * n, n);
            let insert_in = staging.slice().sub(3 * n, n);

            // 1. tombstone in the source (per-key hits tell us who was
            //    present there)
            self.dev.mem().h2d(erase_in, &key_queries);
            let erase = erase_kernel(
                &self.dev,
                &self.table,
                erase_in,
                n,
                &self.source_prober(),
                self.cfg.p_max,
                self.opts_for(&self.table),
                None,
            );
            self.occupied.fetch_sub(erase.erased, Relaxed);
            self.tombstones.fetch_add(erase.erased, Relaxed);

            // 2. unrecorded probe of the target: who is already there
            self.dev.mem().h2d(probe_in, &key_queries);
            let probe = retrieve_kernel(
                &self.dev,
                &m.table,
                probe_in,
                probe_out,
                n,
                &self.prober_for(m),
                self.cfg.p_max,
                self.opts_for(&m.table),
                self.cfg.mutations(),
                None,
            );
            let found_target: Vec<bool> = self
                .dev
                .mem()
                .d2h(probe_out)
                .into_iter()
                .map(|w| w != EMPTY)
                .collect();

            // 3. insert into the target
            self.dev.mem().h2d(insert_in, &packed);
            let outcome = insert_kernel(
                &self.dev,
                &m.table,
                insert_in,
                n,
                &self.prober_for(m),
                self.cfg.p_max,
                self.opts_for(&m.table),
                self.cfg.mutations(),
                None,
            );
            m.occupied += outcome.new_slots;
            m.tombstones -= outcome.reclaimed.min(m.tombstones);
            let failed = outcome.failed;
            merge_stats(&mut acc, erase.stats);
            merge_stats(&mut acc, probe.merged(&outcome.stats));
            if failed > 0 {
                return Err(InsertError::ProbingExhausted { failed });
            }

            // 4. per-key logical outcome: new iff present in neither table
            for (i, &(k, v)) in seg_pairs.iter().enumerate() {
                let new_slot = !erase.hits[i] && !found_target[i];
                if new_slot {
                    new_slots += 1;
                } else {
                    updates += 1;
                }
                if let Some(rec) = self.recorder.as_deref() {
                    let invoked = rec.invoke();
                    rec.complete(
                        k,
                        crate::OpKind::Insert { value: v },
                        crate::OpResponse::Inserted { new_slot },
                        invoked,
                    );
                }
            }
            reclaimed += outcome.reclaimed;
        }
        // empty batch against a fully-scanned migration: nothing launched
        let stats = match acc {
            Some(s) => s,
            None => self.dev.launch(
                "warpdrive_insert",
                0,
                self.table.group_size,
                LaunchOptions::default(),
                |_ctx| {},
            ),
        };
        Ok(InsertOutcome {
            stats,
            failed: 0,
            new_slots,
            updates,
            reclaimed,
        })
    }

    /// Get during migration: probe the source, then the target; the
    /// disjointness invariant means at most one hits.
    pub(crate) fn migrating_retrieve(
        &self,
        keys: &[u32],
    ) -> Result<(Vec<Option<u32>>, KernelStats), OpError> {
        let mut ctl = self.resize.lock();
        let chunks = ctl.policy.unwrap_or_default().chunks_per_op.max(1);
        let cursor_before = ctl.migration.as_ref().map_or(0, |m| m.cursor);
        let mut acc = self.advance_locked(&mut ctl, chunks).map_err(OpError::from)?;
        let Some(m) = ctl.migration.as_ref() else {
            drop(ctl);
            return self.retrieve_impl(keys);
        };

        let n = keys.len();
        let cell = n.max(1);
        let words: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 32).collect();
        let staging = self.dev.alloc_scratch(4 * cell)?;
        let src_in = staging.slice().sub(0, n);
        let src_out = staging.slice().sub(cell, n);
        let tgt_in = staging.slice().sub(2 * cell, n);
        let tgt_out = staging.slice().sub(3 * cell, n);

        self.dev.mem().h2d(src_in, &words);
        let s1 = retrieve_kernel(
            &self.dev,
            &self.table,
            src_in,
            src_out,
            n,
            &self.source_prober(),
            self.cfg.p_max,
            self.opts_for(&self.table),
            self.cfg.mutations(),
            None,
        );
        self.dev.mem().h2d(tgt_in, &words);
        let s2 = retrieve_kernel(
            &self.dev,
            &m.table,
            tgt_in,
            tgt_out,
            n,
            &self.prober_for(m),
            self.cfg.p_max,
            self.opts_for(&m.table),
            self.cfg.mutations(),
            None,
        );
        merge_stats(&mut acc, s1.merged(&s2));

        let src_res = self.dev.mem().d2h(src_out);
        let tgt_res = self.dev.mem().d2h(tgt_out);
        let migrated_window = cursor_before..m.cursor;
        let src_prober = self.source_prober();
        let values: Vec<Option<u32>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                // MUTATION DOUBLE (`broken_read_misses_migrating_window`):
                // a read whose home span lies in the chunk that just
                // moved races the movement — it sees the source already
                // cleared and the target not yet visible, reporting a
                // miss for a live key.
                if self.cfg.broken_read_misses_migrating_window
                    && migrated_window.contains(&(src_prober.span_base(k, 0) as usize))
                {
                    return None;
                }
                let hit = if src_res[i] != EMPTY {
                    src_res[i]
                } else {
                    tgt_res[i]
                };
                (hit != EMPTY).then(|| crate::entry::value_of(hit))
            })
            .collect();

        if let Some(rec) = self.recorder.as_deref() {
            for (i, &k) in keys.iter().enumerate() {
                let invoked = rec.invoke();
                let response = match values[i] {
                    Some(value) => crate::OpResponse::Found { value },
                    None => crate::OpResponse::NotFound,
                };
                rec.complete(k, crate::OpKind::Retrieve, response, invoked);
            }
        }
        let Some(stats) = acc else {
            return Err(OpError::Internal {
                detail: "migrating get produced no kernel launch",
            });
        };
        Ok((values, stats))
    }

    /// Delete during migration: erase from both tables; the key lives in
    /// at most one, so the per-key hit is the OR.
    pub(crate) fn migrating_erase(
        &self,
        keys: &[u32],
    ) -> Result<crate::delete::EraseOutcome, OpError> {
        let mut ctl = self.resize.lock();
        let chunks = ctl.policy.unwrap_or_default().chunks_per_op.max(1);
        let mut acc = self.advance_locked(&mut ctl, chunks).map_err(OpError::from)?;
        let Some(m) = ctl.migration.as_mut() else {
            drop(ctl);
            let words: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 32).collect();
            let staging = self.dev.alloc_scratch(words.len().max(1))?;
            let input = staging.slice().sub(0, words.len());
            self.dev.mem().h2d(input, &words);
            return Ok(self.erase_device_shared(input, words.len()));
        };

        let n = keys.len();
        let cell = n.max(1);
        let words: Vec<u64> = keys.iter().map(|&k| u64::from(k) << 32).collect();
        let staging = self.dev.alloc_scratch(2 * cell)?;
        let src_in = staging.slice().sub(0, n);
        let tgt_in = staging.slice().sub(cell, n);

        self.dev.mem().h2d(src_in, &words);
        let src = erase_kernel(
            &self.dev,
            &self.table,
            src_in,
            n,
            &self.source_prober(),
            self.cfg.p_max,
            self.opts_for(&self.table),
            None,
        );
        self.occupied.fetch_sub(src.erased, Relaxed);
        self.tombstones.fetch_add(src.erased, Relaxed);

        self.dev.mem().h2d(tgt_in, &words);
        let tgt = erase_kernel(
            &self.dev,
            &m.table,
            tgt_in,
            n,
            &self.prober_for(m),
            self.cfg.p_max,
            self.opts_for(&m.table),
            None,
        );
        m.occupied -= tgt.erased.min(m.occupied);
        m.tombstones += tgt.erased;
        merge_stats(&mut acc, src.stats.clone().merged(&tgt.stats));

        let hits: Vec<bool> = src
            .hits
            .iter()
            .zip(&tgt.hits)
            .map(|(&a, &b)| a || b)
            .collect();
        if let Some(rec) = self.recorder.as_deref() {
            for (i, &k) in keys.iter().enumerate() {
                let invoked = rec.invoke();
                rec.complete(
                    k,
                    crate::OpKind::Erase,
                    crate::OpResponse::Erased { hit: hits[i] },
                    invoked,
                );
            }
        }
        let Some(stats) = acc else {
            return Err(OpError::Internal {
                detail: "migrating delete produced no kernel launch",
            });
        };
        let erased = hits.iter().filter(|&&h| h).count() as u64;
        Ok(crate::delete::EraseOutcome {
            stats,
            erased,
            hits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use gpu_sim::Device;
    use std::sync::Arc;

    fn map(capacity: usize, cfg: Config) -> GpuHashMap {
        // room for source + 2× target + scratch
        let dev = Arc::new(Device::with_words(0, capacity * 16 + (1 << 12)));
        GpuHashMap::new(dev, capacity, cfg).unwrap()
    }

    #[test]
    fn policy_env_knobs_parse_and_clamp() {
        let p = ResizePolicy::default();
        assert!((p.watermark - 0.85).abs() < 1e-12);
        assert_eq!(p.chunk, 256);
        let p = p.with_watermark(0.5).with_chunk(0).with_growth_factor(1);
        assert!((p.watermark - 0.5).abs() < 1e-12);
        assert_eq!(p.chunk, 1);
        assert_eq!(p.growth_factor, 2);
    }

    #[test]
    fn dup_free_segments_split_before_each_duplicate() {
        let pairs = [(1, 0), (2, 0), (1, 1), (1, 2), (3, 0)];
        let segs = dup_free_segments(&pairs);
        assert_eq!(segs, vec![0..2, 2..3, 3..5]);
        assert_eq!(dup_free_segments(&[]), vec![0..0]);
    }

    #[test]
    fn watermark_triggers_grow_and_content_survives() {
        let mut m = map(256, Config::default());
        m.set_resize_policy(Some(ResizePolicy::default().with_chunk(64)));
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i + 1, i)).collect();
        // push straight through the 0.85 watermark of the 256-slot table
        for chunk in pairs.chunks(50) {
            m.insert_pairs(chunk).unwrap();
        }
        assert!(matches!(
            m.resize_state(),
            ResizeState::Migrating { mode: ResizeMode::Grow, .. } | ResizeState::Stable
        ));
        assert!(m.finish_resize().is_ok());
        assert!(m.maybe_finalize_resize() || m.resize_state() == ResizeState::Stable);
        assert_eq!(m.capacity(), 512);
        assert_eq!(m.len(), 400);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let res = m.try_retrieve(&keys).unwrap().values;
        for (i, p) in pairs.iter().enumerate() {
            assert_eq!(res[i], Some(p.1), "key {} lost in grow", p.0);
        }
    }

    #[test]
    fn reads_and_deletes_work_mid_migration() {
        let mut m = map(512, Config::default());
        let pairs: Vec<(u32, u32)> = (0..300u32).map(|i| (i + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        assert!(m.request_grow().unwrap());
        // mid-migration: nothing has moved yet beyond chunk steps driven
        // by these very ops
        let res = m.try_retrieve(&[1, 2, 300, 999]).unwrap().values;
        assert_eq!(res, vec![Some(0), Some(1), Some(299), None]);
        let del = m.try_erase(&[1, 999]).unwrap();
        assert_eq!(del.hits, vec![true, false]);
        assert_eq!(m.get(1), None);
        // writes land in the target; updates of unmigrated keys move them
        m.insert_pairs(&[(2, 77), (1000, 1)]).unwrap();
        assert_eq!(m.get(2), Some(77));
        assert_eq!(m.get(1000), Some(1));
        m.finish_resize().unwrap();
        assert_eq!(m.capacity(), 1024);
        assert_eq!(m.get(2), Some(77));
        assert_eq!(m.get(1), None);
        assert_eq!(m.len(), 300); // 300 - 1 deleted + 1 new
    }

    #[test]
    fn compaction_purges_tombstones_at_same_capacity() {
        let mut m = map(512, Config::default());
        let pairs: Vec<(u32, u32)> = (0..400u32).map(|i| (i + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap();
        m.try_erase(&(1..=300).collect::<Vec<u32>>()).unwrap();
        assert_eq!(m.tombstones(), 300);
        assert!(m.request_compact().unwrap());
        assert!(matches!(
            m.resize_state(),
            ResizeState::Migrating { mode: ResizeMode::Compact, .. }
        ));
        m.finish_resize().unwrap();
        assert_eq!(m.capacity(), 512, "compaction must not grow");
        assert_eq!(m.tombstones(), 0);
        assert_eq!(m.len(), 100);
        for k in 301..=400u32 {
            assert_eq!(m.get(k), Some(k - 1));
        }
        assert_eq!(m.get(5), None, "deleted key must stay dead");
    }

    #[test]
    fn migration_records_erase_insert_pairs() {
        let mut m = map(256, Config::default());
        let rec = Arc::new(crate::HistoryRecorder::new());
        m.set_recorder(Some(Arc::clone(&rec)));
        m.insert_pairs(&(0..50u32).map(|i| (i + 1, i)).collect::<Vec<_>>())
            .unwrap();
        m.request_grow().unwrap();
        m.finish_resize().unwrap();
        let events = rec.events();
        let erases = events
            .iter()
            .filter(|e| e.kind == crate::OpKind::Erase)
            .count();
        assert_eq!(erases, 50, "each migrated key records one erase");
        crate::check_linearizable(&events).expect("migration history must linearize");
    }

    #[test]
    fn occupancy_split_tracks_target_during_migration() {
        let mut m = map(256, Config::default());
        m.insert_pairs(&(0..100u32).map(|i| (i + 1, i)).collect::<Vec<_>>())
            .unwrap();
        let o = m.occupancy_split();
        assert_eq!((o.live, o.tombstones, o.capacity), (100, 0, 256));
        m.request_grow().unwrap();
        let o = m.occupancy_split();
        assert_eq!(o.live, 100);
        assert_eq!(o.capacity, 512);
        m.finish_resize().unwrap();
        let o = m.occupancy_split();
        assert_eq!((o.live, o.capacity), (100, 512));
    }

    #[test]
    fn request_grow_while_migrating_is_a_noop() {
        let mut m = map(256, Config::default());
        m.insert_pairs(&(0..100u32).map(|i| (i + 1, i)).collect::<Vec<_>>())
            .unwrap();
        assert!(m.request_grow().unwrap());
        assert!(!m.request_grow().unwrap(), "second request must coalesce");
        m.finish_resize().unwrap();
        assert_eq!(m.capacity(), 512);
    }

    #[test]
    fn oom_on_growth_blocks_trigger_but_keeps_serving() {
        // device fits the source table + scratch but not a 2× target
        let dev = Arc::new(Device::with_words(0, 700));
        let mut m = GpuHashMap::new(dev, 256, Config::default()).unwrap();
        m.set_resize_policy(Some(ResizePolicy::default().with_watermark(0.3)));
        let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i + 1, i)).collect();
        m.insert_pairs(&pairs).unwrap(); // trigger fires, alloc fails, op succeeds
        assert_eq!(m.resize_state(), ResizeState::Stable);
        assert_eq!(m.len(), 200);
        // explicit request surfaces the typed error
        assert!(matches!(m.request_grow(), Err(OpError::OutOfMemory(_))));
    }
}
