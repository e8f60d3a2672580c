//! Costing-profile persistence.
//!
//! §2: the remote-system profile "is constructed during the registration
//! step, and can be modified afterwards as needed. We will use the
//! profile extensively to store all metadata information related to the
//! cost estimation module." Profiles therefore need a durable,
//! human-inspectable representation — JSON on disk — so a trained
//! ecosystem survives restarts without re-running multi-hour training
//! campaigns.
//!
//! Deserialisation ignores fields it does not know, so documents written
//! by earlier versions keep loading: a flow saved while it still carried
//! its table of pending remedy components reads back as the same model,
//! tuner and log.
//!
//! A model's packed inference form is never part of a document: it is
//! derived from the scalers and the network when the model is
//! deserialised ([`crate::logical_op::LogicalOpModel`]), so a loaded
//! profile or snapshot is ready to serve and files stay what they were
//! before models carried one.

use crate::epoch::{Epoch, ModelSnapshot, SnapshotLineage};
use crate::estimator::OperatorKind;
use crate::hybrid::profile::CostingProfile;
use crate::logical_op::flow::LogicalOpCosting;
use catalog::SystemId;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::Path;

/// Errors from profile persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(io::Error),
    /// (De)serialisation failure.
    Serde(serde_json::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Serde(e) => write!(f, "serialization error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Serde(e)
    }
}

/// Writes a profile as pretty-printed JSON. Parent directories are
/// created as needed; the write is atomic (temp file + rename) so a crash
/// cannot leave a torn profile behind.
pub fn save_profile(profile: &CostingProfile, path: &Path) -> Result<(), PersistError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(profile)?;
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, json)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a profile back.
pub fn load_profile(path: &Path) -> Result<CostingProfile, PersistError> {
    let json = fs::read_to_string(path)?;
    Ok(serde_json::from_str(&json)?)
}

/// Serialized form of one registered model in a snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SnapshotModelDto {
    system: SystemId,
    op: OperatorKind,
    flow: LogicalOpCosting,
}

/// Serialized form of an epoch-stamped [`ModelSnapshot`], carrying its
/// full lineage so a reloaded model state keeps its history (and can be
/// used as a rollback target). Maps are flattened to entry lists because
/// the snapshot keys are composite, not strings.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SnapshotDto {
    epoch: u64,
    #[serde(default)]
    parent: Option<u64>,
    label: String,
    #[serde(default)]
    entries_trained: usize,
    #[serde(default)]
    models_retrained: usize,
    #[serde(default)]
    rmse_pct_after: Option<f64>,
    #[serde(default)]
    restores: Option<u64>,
    models: Vec<SnapshotModelDto>,
}

impl SnapshotDto {
    fn from_snapshot(snapshot: &ModelSnapshot) -> Self {
        let lineage = snapshot.lineage();
        let models: Vec<SnapshotModelDto> = snapshot
            .models()
            .map(|slot| SnapshotModelDto {
                system: slot.key.0.clone(),
                op: slot.key.1,
                flow: LogicalOpCosting::clone(&slot.flow),
            })
            .collect();
        SnapshotDto {
            epoch: snapshot.epoch().get(),
            parent: lineage.parent,
            label: lineage.label.clone(),
            entries_trained: lineage.entries_trained,
            models_retrained: lineage.models_retrained,
            rmse_pct_after: lineage.rmse_pct_after,
            restores: lineage.restores,
            models,
        }
    }

    fn into_snapshot(self) -> ModelSnapshot {
        ModelSnapshot::from_parts(
            Epoch::new(self.epoch),
            SnapshotLineage {
                parent: self.parent,
                label: self.label,
                entries_trained: self.entries_trained,
                models_retrained: self.models_retrained,
                rmse_pct_after: self.rmse_pct_after,
                restores: self.restores,
            },
            self.models
                .into_iter()
                .map(|m| ((m.system, m.op), m.flow))
                .collect(),
        )
    }
}

/// Writes an epoch-stamped model snapshot (with lineage) as
/// pretty-printed JSON, atomically, creating parent directories as
/// needed. A snapshot saved here can later be reloaded and published as
/// a rollback target via
/// [`crate::service::EstimatorService::rollback_to`].
pub fn save_snapshot(snapshot: &ModelSnapshot, path: &Path) -> Result<(), PersistError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(&SnapshotDto::from_snapshot(snapshot))?;
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, json)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a persisted model snapshot back, preserving its epoch and
/// lineage.
pub fn load_snapshot(path: &Path) -> Result<ModelSnapshot, PersistError> {
    let json = fs::read_to_string(path)?;
    let dto: SnapshotDto = serde_json::from_str(&json)?;
    Ok(dto.into_snapshot())
}

#[cfg(test)]
#[expect(clippy::unreachable, reason = "test: a wrong variant fails the test")]
mod tests {
    use super::*;
    use crate::estimator::OperatorKind;
    use crate::hybrid::profile::{CostingApproach, LogicalOpSuite};
    use crate::logical_op::flow::LogicalOpCosting;
    use crate::logical_op::model::{FitConfig, LogicalOpModel};
    use crate::service::EstimatorService;
    use catalog::{SystemId, SystemKind};
    use neuro::Dataset;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("intellisphere-test-{}-{name}", std::process::id()))
    }

    fn sample_profile() -> CostingProfile {
        let mut inputs = vec![];
        let mut targets = vec![];
        for i in 0..40 {
            let rows = (i + 1) as f64 * 1e5;
            inputs.push(vec![rows, 100.0, rows / 5.0, 12.0]);
            targets.push(1.0 + rows * 1e-6);
        }
        let (model, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["rows", "size", "groups", "width"],
            &Dataset::new(inputs, targets),
            &FitConfig::fast(),
        );
        CostingProfile::new(
            SystemId::new("hive-persist"),
            SystemKind::Hive,
            CostingApproach::LogicalOp(LogicalOpSuite {
                join: None,
                aggregation: Some(LogicalOpCosting::new(model)),
            }),
        )
    }

    #[test]
    fn save_and_load_roundtrip_preserves_estimates() {
        let profile = sample_profile();
        let path = tmp_path("roundtrip.json");
        save_profile(&profile, &path).unwrap();
        let restored = load_profile(&path).unwrap();

        // Compare estimates through the logical model directly.
        let x = vec![2e6, 100.0, 4e5, 12.0];
        let (a, b) = match (&profile.approach, &restored.approach) {
            (CostingApproach::LogicalOp(s1), CostingApproach::LogicalOp(s2)) => (
                s1.aggregation.as_ref().unwrap().estimate(&x).secs,
                s2.aggregation.as_ref().unwrap().estimate(&x).secs,
            ),
            _ => unreachable!(),
        };
        assert_eq!(a, b);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn save_creates_parent_directories() {
        let profile = sample_profile();
        let dir = tmp_path("nested-dir");
        let path = dir.join("deep").join("profile.json");
        save_profile(&profile, &path).unwrap();
        assert!(path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_profile(Path::new("/nonexistent/profile.json")).unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }

    #[test]
    fn load_corrupt_file_is_serde_error() {
        let path = tmp_path("corrupt.json");
        fs::write(&path, "{not json").unwrap();
        let err = load_profile(&path).unwrap_err();
        assert!(matches!(err, PersistError::Serde(_)));
        fs::remove_file(&path).ok();
    }

    fn flow(slope: f64) -> LogicalOpCosting {
        let mut inputs = vec![];
        let mut targets = vec![];
        for i in 0..40 {
            let rows = (i + 1) as f64 * 1e5;
            inputs.push(vec![rows, 100.0]);
            targets.push(1.0 + rows * slope);
        }
        let (model, _) = LogicalOpModel::fit(
            OperatorKind::Aggregation,
            &["rows", "size"],
            &Dataset::new(inputs, targets),
            &FitConfig::fast(),
        );
        LogicalOpCosting::new(model)
    }

    #[test]
    fn snapshot_roundtrip_preserves_epoch_lineage_and_enables_rollback() {
        let svc = EstimatorService::default();
        let sys = SystemId::new("hive-a");
        svc.register(sys.clone(), flow(1e-6));
        let x = [5e5, 100.0];
        let good_est = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        let path = tmp_path("snapshot.json");
        save_snapshot(&svc.snapshot(), &path).unwrap();

        // The live state moves on.
        svc.register(sys.clone(), flow(6e-6));
        let drifted = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_ne!(good_est.secs, drifted.secs);

        // Reload: epoch and lineage survive the roundtrip.
        let restored = load_snapshot(&path).unwrap();
        assert_eq!(restored.epoch().get(), 1);
        assert_eq!(restored.lineage().label, "register");
        assert_eq!(restored.lineage().parent, Some(0));
        assert_eq!(restored.keys().len(), 1);

        // The reloaded snapshot is a valid rollback target.
        let published = svc.rollback_to(&restored);
        assert_eq!(published.lineage().restores, Some(1));
        let back = svc.estimate(&sys, OperatorKind::Aggregation, &x).unwrap();
        assert_eq!(back, good_est);
        fs::remove_file(&path).ok();
    }

    /// Snapshot documents once carried a `profiles` list; one written
    /// with it still loads and, published again, serves the estimates it
    /// was saved with.
    #[test]
    fn a_snapshot_with_a_profiles_list_still_loads_and_rolls_back() {
        let svc = EstimatorService::default();
        let sys = SystemId::new("hive-a");
        svc.register(sys.clone(), flow(1e-6));
        // In range, and out of range (the remedy path).
        let rows = [[5e5, 100.0], [5e7, 100.0]];
        let bits = |svc: &EstimatorService| -> Vec<u64> {
            rows.iter()
                .map(|x| {
                    let estimate = svc.estimate(&sys, OperatorKind::Aggregation, x);
                    estimate.unwrap().secs.to_bits()
                })
                .collect()
        };
        let saved_bits = bits(&svc);
        let path = tmp_path("snapshot-profiles.json");
        save_snapshot(&svc.snapshot(), &path).unwrap();
        let json = fs::read_to_string(&path).unwrap();
        let body = json.trim_end().strip_suffix('}').unwrap().trim_end();
        fs::write(&path, format!("{body},\n  \"profiles\": []\n}}\n")).unwrap();

        svc.register(sys.clone(), flow(6e-6));
        assert_ne!(bits(&svc), saved_bits);
        let loaded = load_snapshot(&path).unwrap();
        assert_eq!(loaded.keys().len(), 1);
        svc.rollback_to(&loaded);
        assert_eq!(bits(&svc), saved_bits);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let profile = sample_profile();
        let path = tmp_path("atomic.json");
        save_profile(&profile, &path).unwrap();
        assert!(!path.with_extension("json.tmp").exists());
        fs::remove_file(&path).ok();
    }
}
