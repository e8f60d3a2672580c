//! Epoch-versioned copy-on-write model snapshots.
//!
//! The paper's offline-tuning loop (§3) retrains models while queries
//! keep arriving. Serving-side cost models are read-mostly with rare
//! bulk updates, so this module makes the *read path* completely
//! lock-free and pushes every mutation through a builder-style
//! transaction that clones, modifies, and atomically publishes a fresh
//! immutable [`ModelSnapshot`]:
//!
//! * [`ModelSnapshot`] — an immutable, `Arc`-shared, key-ordered list
//!   of `(SystemId, OperatorKind)` slots plus hybrid costing profiles,
//!   stamped with the [`Epoch`] that produced it and a
//!   [`SnapshotLineage`] (parent epoch + tuning stats) for provenance
//!   and rollback. A slot holds a `LogicalOpCosting` (which owns its
//!   fused inference form) and, beside it, the memo of the estimates
//!   that flow has served (`crate::service::cache`).
//! * `EpochStore` — the publication point: readers call
//!   `EpochStore::load` (an `arc-swap` pointer load, no locks) and
//!   writers run `EpochStore::transaction`, which serialises
//!   clone-modify-publish cycles on a commit mutex held entirely off
//!   the estimate hot path.
//! * [`TuningPipeline`] — the offline-tuning worker: drains execution
//!   logs, retrains every due model, and swaps the results in as one
//!   epoch bump.
//!
//! A pinned snapshot is a consistency domain: every estimate computed
//! against it reflects exactly one model version. A slot's memo is made
//! fresh whenever its flow is created or replaced and is shared exactly
//! where the flow's `Arc` is, so a memoized value can never be served
//! against a model state it was not computed from, and a publication
//! that leaves a model untouched leaves its memo warm.

use crate::estimator::OperatorKind;
use crate::hybrid::CostingProfile;
use crate::logical_op::flow::LogicalOpCosting;
use crate::logical_op::model::FitConfig;
use crate::logical_op::packed::PackedOpModel;
use crate::logical_op::tuning::TuneReport;
use crate::observability::ModelKey;
use crate::service::cache::LruCache;
use arc_swap::ArcSwap;
use catalog::SystemId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A monotonically increasing model-state version number.
///
/// Epoch 0 is the empty genesis snapshot; every published transaction
/// bumps the epoch by one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Epoch(u64);

// Written out: a derived `PartialOrd` calls the disallowed
// `partial_cmp`. The order is the one `derive` would give.
impl Ord for Epoch {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Epoch {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Epoch {
    /// The genesis epoch (empty snapshot).
    pub const ZERO: Epoch = Epoch(0);

    /// Wraps a raw epoch number (used when reloading persisted
    /// snapshots).
    pub(crate) fn new(raw: u64) -> Self {
        Epoch(raw)
    }

    /// The raw epoch number.
    pub fn get(self) -> u64 {
        self.0
    }

    /// The epoch following this one.
    fn next(self) -> Self {
        Epoch(self.0 + 1)
    }
}

impl std::fmt::Display for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Where a snapshot came from: its parent epoch plus a summary of the
/// mutation that produced it. Persisted alongside the snapshot so a
/// reloaded model state keeps its history.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotLineage {
    /// Epoch of the snapshot this one was derived from (`None` for the
    /// genesis snapshot).
    pub parent: Option<u64>,
    /// Short label of the transaction that published it
    /// (`"register"`, `"observe"`, `"tuning-pipeline"`, …).
    pub label: String,
    /// Log entries consumed by retraining in this transaction.
    pub entries_trained: usize,
    /// Models retrained in this transaction.
    pub models_retrained: usize,
    /// Held-out RMSE% reported by the last retrain in this transaction.
    pub rmse_pct_after: Option<f64>,
    /// When this snapshot is a rollback, the epoch whose content it
    /// restored.
    pub restores: Option<u64>,
}

impl SnapshotLineage {
    fn genesis() -> Self {
        SnapshotLineage {
            parent: None,
            label: "genesis".to_string(),
            entries_trained: 0,
            models_retrained: 0,
            rmse_pct_after: None,
            restores: None,
        }
    }
}

/// One registered model: its flow and the memo of the estimates that
/// flow has served.
#[derive(Debug, Clone)]
pub(crate) struct ModelSlot {
    pub(crate) key: ModelKey,
    pub(crate) flow: Arc<LogicalOpCosting>,
    /// Rank [`parking_lot::rank::SERVICE_CACHE`]: the only lock on the
    /// estimate read path.
    pub(crate) memo: Arc<Mutex<LruCache>>,
}

impl ModelSlot {
    fn new(key: ModelKey, flow: Arc<LogicalOpCosting>, memo_capacity: usize) -> Self {
        ModelSlot {
            key,
            flow,
            memo: fresh_memo(memo_capacity),
        }
    }
}

fn fresh_memo(capacity: usize) -> Arc<Mutex<LruCache>> {
    let memo = Mutex::new(LruCache::new(capacity));
    memo.set_rank(parking_lot::rank::SERVICE_CACHE);
    Arc::new(memo)
}

/// Where `(system, op)` sits in key-ordered `slots`: `Ok` at its slot,
/// `Err` where it would be inserted.
fn position(slots: &[ModelSlot], system: &SystemId, op: OperatorKind) -> Result<usize, usize> {
    slots.binary_search_by(|slot| (&slot.key.0, slot.key.1).cmp(&(system, op)))
}

/// Puts `slot` into key-ordered `slots`, replacing the slot of the same
/// key.
fn put(slots: &mut Vec<ModelSlot>, slot: ModelSlot) {
    match position(slots, &slot.key.0, slot.key.1) {
        Ok(i) => {
            if let Some(old) = slots.get_mut(i) {
                *old = slot;
            }
        }
        Err(i) => slots.insert(i, slot),
    }
}

/// An immutable, epoch-stamped view of every registered model.
///
/// Snapshots are shared via `Arc` and never mutated after publication;
/// holding one pins a consistent model state for as long as needed
/// (e.g. across a fan-out batch), regardless of concurrent retraining.
#[derive(Debug)]
pub struct ModelSnapshot {
    epoch: Epoch,
    lineage: SnapshotLineage,
    /// Sorted by key.
    models: Vec<ModelSlot>,
    profiles: BTreeMap<SystemId, Arc<CostingProfile>>,
}

impl ModelSnapshot {
    /// The empty epoch-0 snapshot.
    fn genesis() -> Self {
        ModelSnapshot {
            epoch: Epoch::ZERO,
            lineage: SnapshotLineage::genesis(),
            models: Vec::new(),
            profiles: BTreeMap::new(),
        }
    }

    /// Reassembles a snapshot from persisted parts (see
    /// [`crate::hybrid::persist`]). Its memos have capacity 0: a loaded
    /// snapshot memoizes nothing until a store publishes its content
    /// (`EpochStore::rollback_to`), with memos of the store's capacity.
    pub(crate) fn from_parts(
        epoch: Epoch,
        lineage: SnapshotLineage,
        models: Vec<(ModelKey, LogicalOpCosting)>,
        profiles: Vec<CostingProfile>,
    ) -> Self {
        let mut slots = Vec::with_capacity(models.len());
        for (key, flow) in models {
            put(&mut slots, ModelSlot::new(key, Arc::new(flow), 0));
        }
        ModelSnapshot {
            epoch,
            lineage,
            models: slots,
            profiles: profiles
                .into_iter()
                .map(|p| (p.system.clone(), Arc::new(p)))
                .collect(),
        }
    }

    /// The epoch that published this snapshot.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Provenance of this snapshot.
    pub fn lineage(&self) -> &SnapshotLineage {
        &self.lineage
    }

    /// The costing flow for one `(system, operator)` pair.
    pub fn model(&self, system: &SystemId, op: OperatorKind) -> Option<&Arc<LogicalOpCosting>> {
        self.slot(system, op).map(|slot| &slot.flow)
    }

    /// The slot of one `(system, operator)` pair: a binary search over
    /// borrowed keys, no allocation.
    pub(crate) fn slot(&self, system: &SystemId, op: OperatorKind) -> Option<&ModelSlot> {
        self.models.get(position(&self.models, system, op).ok()?)
    }

    /// The fused packed-inference form the model for `(system, operator)`
    /// owns (for benches that want the bare kernel).
    pub fn packed(&self, system: &SystemId, op: OperatorKind) -> Option<&PackedOpModel> {
        self.model(system, op).map(|flow| flow.model.packed())
    }

    /// All registered models, in key order.
    pub(crate) fn models(&self) -> impl Iterator<Item = &ModelSlot> {
        self.models.iter()
    }

    /// All attached costing profiles, ordered by system.
    pub(crate) fn profiles(&self) -> impl Iterator<Item = (&SystemId, &Arc<CostingProfile>)> {
        self.profiles.iter()
    }

    /// Registered model keys, in order.
    pub(crate) fn keys(&self) -> Vec<ModelKey> {
        self.models.iter().map(|slot| slot.key.clone()).collect()
    }
}

/// Mutable staging area of an in-flight transaction.
///
/// The builder starts as a cheap clone of the current snapshot (the
/// slots clone `Arc`s, not models); mutation helpers copy-on-write the
/// individual slots they touch and give each a fresh memo of the
/// store's capacity. Nothing is visible to readers until the
/// transaction publishes.
pub(crate) struct SnapshotBuilder {
    models: Vec<ModelSlot>,
    profiles: BTreeMap<SystemId, Arc<CostingProfile>>,
    lineage: SnapshotLineage,
    memo_capacity: usize,
}

impl SnapshotBuilder {
    fn from_snapshot(base: &ModelSnapshot, label: &str, memo_capacity: usize) -> Self {
        SnapshotBuilder {
            models: base.models.clone(),
            profiles: base.profiles.clone(),
            memo_capacity,
            lineage: SnapshotLineage {
                parent: Some(base.epoch.get()),
                label: label.to_string(),
                entries_trained: 0,
                models_retrained: 0,
                rmse_pct_after: None,
                restores: None,
            },
        }
    }

    fn build(self, epoch: Epoch) -> ModelSnapshot {
        ModelSnapshot {
            epoch,
            lineage: self.lineage,
            models: self.models,
            profiles: self.profiles,
        }
    }

    /// Inserts (or replaces) the model for `(system, op)`, with a fresh
    /// memo.
    pub(crate) fn insert_model(
        &mut self,
        system: SystemId,
        op: OperatorKind,
        flow: LogicalOpCosting,
    ) {
        let slot = ModelSlot::new((system, op), Arc::new(flow), self.memo_capacity);
        put(&mut self.models, slot);
    }

    /// Copy-on-write update of one staged model: the flow is cloned
    /// out of the shared snapshot (if still shared) — training data,
    /// log and the model's fused-inference arenas — mutated in place,
    /// and re-staged with a fresh memo. Returns `None` when the model
    /// is not registered.
    pub(crate) fn update_model<R>(
        &mut self,
        system: &SystemId,
        op: OperatorKind,
        f: impl FnOnce(&mut LogicalOpCosting) -> R,
    ) -> Option<R> {
        let i = position(&self.models, system, op).ok()?;
        let slot = self.models.get_mut(i)?;
        let out = f(Arc::make_mut(&mut slot.flow));
        slot.memo = fresh_memo(self.memo_capacity);
        Some(out)
    }

    /// Replaces the staged content wholesale with `snapshot`'s, each
    /// slot with a fresh memo, recording the restored epoch in the
    /// lineage (rollback).
    pub(crate) fn restore_from(&mut self, snapshot: &ModelSnapshot) {
        self.models = snapshot
            .models
            .iter()
            .map(|slot| {
                ModelSlot::new(slot.key.clone(), Arc::clone(&slot.flow), self.memo_capacity)
            })
            .collect();
        self.profiles = snapshot.profiles.clone();
        self.lineage.restores = Some(snapshot.epoch.get());
    }

    /// Accumulates tuning stats into the lineage of the snapshot being
    /// built (`rmse_pct_after` keeps the last reported value).
    pub(crate) fn note_training(&mut self, entries_used: usize, rmse_pct_after: f64) {
        self.lineage.entries_trained += entries_used;
        self.lineage.models_retrained += 1;
        if rmse_pct_after.is_finite() {
            self.lineage.rmse_pct_after = Some(rmse_pct_after);
        }
    }
}

/// The snapshot publication point: lock-free reads, serialised writes.
///
/// Readers call [`EpochStore::load`] — an atomic pointer load through
/// the `arc-swap` cell, never a lock. Writers take the `commit` mutex
/// (rank [`parking_lot::rank::EPOCH_COMMIT`]), stage changes on a
/// [`SnapshotBuilder`], and publish a new snapshot with the epoch
/// bumped by one. Retraining inside a transaction blocks other
/// *writers*, never readers.
pub(crate) struct EpochStore {
    cell: ArcSwap<ModelSnapshot>,
    commit: Mutex<()>,
    /// Capacity of every memo this store's transactions make.
    memo_capacity: usize,
}

impl EpochStore {
    /// A store holding the empty genesis snapshot (epoch 0) whose
    /// transactions give each new or replaced model a memo of
    /// `memo_capacity` estimates.
    pub(crate) fn new(memo_capacity: usize) -> Self {
        let store = EpochStore {
            cell: ArcSwap::new(Arc::new(ModelSnapshot::genesis())),
            commit: Mutex::new(()),
            memo_capacity,
        };
        store.commit.set_rank(parking_lot::rank::EPOCH_COMMIT);
        store.cell.set_rank(parking_lot::rank::EPOCH_RETIRED);
        store
    }

    /// Pins the current snapshot. Lock-free; the returned `Arc` stays
    /// valid (and immutable) for as long as it is held.
    pub(crate) fn load(&self) -> Arc<ModelSnapshot> {
        self.cell.load_full()
    }

    /// The current epoch.
    pub(crate) fn epoch(&self) -> Epoch {
        self.load().epoch
    }

    /// Runs a clone-modify-publish transaction: `f` stages changes on a
    /// builder seeded from the current snapshot, and the result is
    /// published as the next epoch. Returns `f`'s result and the
    /// published snapshot.
    pub(crate) fn transaction<R>(
        &self,
        label: &str,
        f: impl FnOnce(&mut SnapshotBuilder) -> R,
    ) -> (R, Arc<ModelSnapshot>) {
        match self.try_transaction::<R, std::convert::Infallible>(label, |tx| Ok(f(tx))) {
            Ok(pair) => pair,
            Err(never) => match never {},
        }
    }

    /// [`EpochStore::transaction`] for fallible staging: when `f`
    /// returns `Err` the transaction aborts and **nothing is
    /// published** — the current snapshot and epoch are unchanged.
    pub(crate) fn try_transaction<R, E>(
        &self,
        label: &str,
        f: impl FnOnce(&mut SnapshotBuilder) -> Result<R, E>,
    ) -> Result<(R, Arc<ModelSnapshot>), E> {
        let _commit = self.commit.lock();
        let current = self.cell.load_full();
        let mut tx = SnapshotBuilder::from_snapshot(&current, label, self.memo_capacity);
        let out = f(&mut tx)?;
        let next = Arc::new(tx.build(current.epoch.next()));
        self.cell.store(Arc::clone(&next));
        Ok((out, next))
    }

    /// Publishes a content-identical snapshot under a new epoch (used
    /// by publication tests and churn benchmarks; estimates must be
    /// bit-identical across a republish, and every memo stays warm).
    pub(crate) fn republish(&self, label: &str) -> Arc<ModelSnapshot> {
        self.transaction(label, |_| ()).1
    }

    /// Publishes a new epoch whose content is `snapshot`'s — rollback
    /// to (or restore of) a previously persisted model state. The
    /// lineage records both the current parent and the restored epoch.
    pub(crate) fn rollback_to(&self, snapshot: &ModelSnapshot) -> Arc<ModelSnapshot> {
        self.transaction("rollback", |tx| tx.restore_from(snapshot))
            .1
    }
}

impl std::fmt::Debug for EpochStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochStore")
            .field("epoch", &self.epoch())
            .finish_non_exhaustive()
    }
}

/// What one [`TuningPipeline`] pass did.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// Epoch published by the pass, `None` when no model was due (no
    /// epoch bump happens for an empty pass).
    pub epoch: Option<Epoch>,
    /// Per-model tuning reports, sorted by model key.
    pub reports: Vec<(ModelKey, TuneReport)>,
    /// Total log entries drained across all retrained models.
    pub entries_drained: usize,
}

/// The offline-tuning worker (§3 "periodically, this log is fed to the
/// neural network model"): drains execution logs, retrains every model
/// with enough pending observations, and publishes all results in one
/// epoch bump.
#[derive(Debug, Clone)]
pub struct TuningPipeline {
    config: FitConfig,
}

impl TuningPipeline {
    /// A pipeline retraining with `config`; any model with at least
    /// one pending log entry is due.
    pub fn new(config: FitConfig) -> Self {
        TuningPipeline { config }
    }

    /// Runs one pass over `store`: every due model is retrained inside
    /// a single transaction and the results are swapped in as one epoch
    /// bump. Readers keep serving the previous snapshot throughout.
    pub(crate) fn run_once(&self, store: &EpochStore) -> PipelineReport {
        // An idle pass aborts its transaction: publishing a
        // content-identical epoch would bump the epoch for nothing.
        let published = store.try_transaction("tuning-pipeline", |tx| {
            let due: Vec<ModelKey> = tx
                .models
                .iter()
                .filter(|slot| !slot.flow.log.is_empty())
                .map(|slot| slot.key.clone())
                .collect();
            if due.is_empty() {
                return Err(());
            }
            let mut reports: Vec<(ModelKey, TuneReport)> = Vec::new();
            for key in due {
                let Some(report) =
                    tx.update_model(&key.0, key.1, |flow| flow.offline_tune(&self.config))
                else {
                    continue;
                };
                tx.note_training(report.entries_used, report.rmse_pct_after);
                reports.push((key, report));
            }
            Ok(reports)
        });
        match published {
            Ok((reports, snapshot)) => PipelineReport {
                epoch: Some(snapshot.epoch()),
                entries_drained: reports.iter().map(|(_, r)| r.entries_used).sum(),
                reports,
            },
            Err(()) => PipelineReport {
                epoch: None,
                reports: Vec::new(),
                entries_drained: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical_op::model::LogicalOpModel;
    use neuro::Dataset;

    fn agg_flow() -> LogicalOpCosting {
        let mut inputs = vec![];
        let mut targets = vec![];
        for r in 1..=15 {
            for s in 1..=4 {
                let rows = r as f64 * 1e5;
                let size = s as f64 * 100.0;
                inputs.push(vec![rows, size]);
                targets.push(1.0 + 2e-6 * rows + 0.01 * size);
            }
        }
        let (model, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["rows", "size"],
            &Dataset::new(inputs, targets),
            &FitConfig::fast(),
        );
        LogicalOpCosting::new(model)
    }

    fn hive() -> SystemId {
        SystemId::new("hive-a")
    }

    fn memo(snapshot: &ModelSnapshot) -> &Arc<Mutex<LruCache>> {
        &snapshot
            .slot(&hive(), OperatorKind::Aggregation)
            .expect("registered")
            .memo
    }

    #[test]
    fn genesis_store_is_empty_at_epoch_zero() {
        let store = EpochStore::new(16);
        let snap = store.load();
        assert_eq!(snap.epoch(), Epoch::ZERO);
        assert!(snap.models.is_empty());
        assert_eq!(snap.lineage().parent, None);
        assert_eq!(snap.lineage().label, "genesis");
    }

    #[test]
    fn transactions_bump_the_epoch_and_record_lineage() {
        let store = EpochStore::new(16);
        let (_, snap) = store.transaction("register", |tx| {
            tx.insert_model(hive(), OperatorKind::Aggregation, agg_flow());
        });
        assert_eq!(snap.epoch(), Epoch::new(1));
        assert_eq!(snap.lineage().parent, Some(0));
        assert_eq!(snap.lineage().label, "register");
        assert_eq!(store.load().models.len(), 1);
    }

    #[test]
    fn aborted_transactions_publish_nothing() {
        let store = EpochStore::new(16);
        let result: Result<((), _), &str> = store.try_transaction("doomed", |tx| {
            tx.insert_model(hive(), OperatorKind::Aggregation, agg_flow());
            Err("abort")
        });
        assert_eq!(result.unwrap_err(), "abort");
        assert_eq!(store.epoch(), Epoch::ZERO);
        assert!(store.load().models.is_empty());
    }

    #[test]
    fn pinned_snapshots_survive_later_publications() {
        let store = EpochStore::new(16);
        store.transaction("register", |tx| {
            tx.insert_model(hive(), OperatorKind::Aggregation, agg_flow());
        });
        let pinned = store.load();
        store.transaction("remove", |tx| {
            assert_eq!(tx.models.len(), 1);
            tx.models.clear();
        });
        // The pinned snapshot still serves the removed model; the live
        // snapshot does not.
        assert!(pinned.model(&hive(), OperatorKind::Aggregation).is_some());
        assert!(store.load().models.is_empty());
        assert!(pinned.epoch() < store.epoch());
    }

    #[test]
    fn update_model_is_copy_on_write() {
        let store = EpochStore::new(16);
        store.transaction("register", |tx| {
            tx.insert_model(hive(), OperatorKind::Aggregation, agg_flow());
        });
        let before = store.load();
        let before_len = before
            .model(&hive(), OperatorKind::Aggregation)
            .map(|m| m.log.len());
        store.transaction("observe", |tx| {
            let touched = tx.update_model(&hive(), OperatorKind::Aggregation, |flow| {
                flow.observe_actual(&[5e5, 200.0], 2.0);
            });
            assert!(touched.is_some());
        });
        // The old snapshot's model is untouched; the new one logged it.
        assert_eq!(
            before
                .model(&hive(), OperatorKind::Aggregation)
                .map(|m| m.log.len()),
            before_len
        );
        assert_eq!(
            store
                .load()
                .model(&hive(), OperatorKind::Aggregation)
                .map(|m| m.log.len()),
            Some(1)
        );
    }

    #[test]
    fn snapshots_carry_packed_forms_for_every_model() {
        let store = EpochStore::new(16);
        store.transaction("register", |tx| {
            tx.insert_model(hive(), OperatorKind::Aggregation, agg_flow());
        });
        let snap = store.load();
        let flow = snap.model(&hive(), OperatorKind::Aggregation).unwrap();
        let packed = snap.packed(&hive(), OperatorKind::Aggregation).unwrap();
        let mut scratch = crate::logical_op::packed::PackedOpScratch::new();
        let x = [7e5, 250.0];
        assert_eq!(
            flow.model.predict_nn_reference(&x).to_bits(),
            packed.predict_one(&x, &mut scratch).to_bits()
        );
        // Removed models lose their packed form with them.
        store.transaction("remove", |tx| {
            tx.models.clear();
        });
        assert!(store
            .load()
            .packed(&hive(), OperatorKind::Aggregation)
            .is_none());
    }

    #[test]
    fn republish_reuses_packed_forms_and_cow_update_rederives_them() {
        let store = EpochStore::new(16);
        store.transaction("register", |tx| {
            tx.insert_model(hive(), OperatorKind::Aggregation, agg_flow());
        });
        let before = store.load();
        let republished = store.republish("republish");
        // Content-identical republish: the model, and with it the packed
        // form, is shared, not copied.
        assert!(std::ptr::eq(
            before.packed(&hive(), OperatorKind::Aggregation).unwrap(),
            republished
                .packed(&hive(), OperatorKind::Aggregation)
                .unwrap()
        ));
        // So is the memo beside it: a republish leaves it warm.
        assert!(Arc::ptr_eq(memo(&before), memo(&republished)));
        // A COW update copies the model: the new snapshot's packed form
        // is its own and stays bit-consistent with the reference chain,
        // and its memo is a fresh one.
        store.transaction("observe", |tx| {
            tx.update_model(&hive(), OperatorKind::Aggregation, |flow| {
                flow.observe_actual(&[5e5, 200.0], 2.0);
            });
        });
        let after = store.load();
        let flow = after.model(&hive(), OperatorKind::Aggregation).unwrap();
        let packed = after.packed(&hive(), OperatorKind::Aggregation).unwrap();
        assert!(!std::ptr::eq(
            packed,
            before.packed(&hive(), OperatorKind::Aggregation).unwrap()
        ));
        assert!(!Arc::ptr_eq(memo(&before), memo(&after)));
        let mut scratch = crate::logical_op::packed::PackedOpScratch::new();
        let x = [9e5, 150.0];
        assert_eq!(
            flow.model.predict_nn_reference(&x).to_bits(),
            packed.predict_one(&x, &mut scratch).to_bits()
        );
    }

    #[test]
    fn rollback_restores_content_under_a_new_epoch() {
        let store = EpochStore::new(16);
        store.transaction("register", |tx| {
            tx.insert_model(hive(), OperatorKind::Aggregation, agg_flow());
        });
        let good = store.load();
        store.transaction("remove", |tx| {
            tx.models.clear();
        });
        assert!(store.load().models.is_empty());
        let restored = store.rollback_to(&good);
        // New epoch, old content, lineage remembers both.
        assert!(restored.epoch() > good.epoch());
        assert_eq!(restored.models.len(), 1);
        assert_eq!(restored.lineage().restores, Some(good.epoch().get()));
        assert_eq!(restored.lineage().label, "rollback");
        // The restored flow is the pinned one; its memo is fresh.
        assert!(Arc::ptr_eq(
            good.model(&hive(), OperatorKind::Aggregation).unwrap(),
            restored.model(&hive(), OperatorKind::Aggregation).unwrap()
        ));
        assert!(!Arc::ptr_eq(memo(&good), memo(&restored)));
    }

    #[test]
    fn tuning_pipeline_retrains_due_models_in_one_epoch_bump() {
        let store = EpochStore::new(16);
        store.transaction("register", |tx| {
            let mut flow = agg_flow();
            let mut rows = 1.6e6;
            while rows <= 2.6e6 {
                flow.observe_actual(&[rows, 200.0], 1.0 + 2e-6 * rows + 2.0);
                rows += 1e5;
            }
            tx.insert_model(hive(), OperatorKind::Aggregation, flow);
            tx.insert_model(
                SystemId::new("presto-b"),
                OperatorKind::Aggregation,
                agg_flow(),
            );
        });
        let before = store.epoch();
        let pipeline = TuningPipeline::new(FitConfig::fast());
        let report = pipeline.run_once(&store);
        // Only the model with pending log entries was retrained, and
        // exactly one epoch was published for the whole pass.
        assert_eq!(report.reports.len(), 1);
        assert!(report.entries_drained > 0);
        assert_eq!(report.epoch, Some(store.epoch()));
        assert_eq!(store.epoch().get(), before.get() + 1);
        let snap = store.load();
        let tuned = snap
            .model(&hive(), OperatorKind::Aggregation)
            .expect("model");
        assert!(tuned.log.is_empty(), "tuning must drain the log");
        assert_eq!(snap.lineage().models_retrained, 1);
        assert!(snap.lineage().entries_trained > 0);
    }

    #[test]
    fn idle_pipeline_pass_reports_nothing_retrained() {
        let store = EpochStore::new(16);
        store.transaction("register", |tx| {
            tx.insert_model(hive(), OperatorKind::Aggregation, agg_flow());
        });
        let before = store.epoch();
        let pipeline = TuningPipeline::new(FitConfig::fast());
        let report = pipeline.run_once(&store);
        assert_eq!(report.epoch, None);
        assert!(report.reports.is_empty());
        assert_eq!(report.entries_drained, 0);
        assert_eq!(store.epoch(), before, "an idle pass publishes nothing");
    }
}
