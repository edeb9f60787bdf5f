//! The Data Monitor (Fig. 1): watches updates and keeps quality from
//! degrading. Per the paper it "(1) invokes incremental detection … if the
//! database has not been cleansed; or (2) invokes incremental repair …
//! otherwise".
//!
//! Alongside the [`IncrementalDetector`] the monitor maintains a columnar
//! snapshot of the relation in lock-step with the update stream (append on
//! insert, swap-remove on delete, single-cell re-encode on set-cell), so
//! [`DataMonitor::snapshot`] and [`DataMonitor::detect`] are always
//! current without ever re-encoding the table in steady state.

use std::sync::Arc;

use api::{Capabilities, Mutation, QualityBackend};
use audit::{quality_report, QualityReport};
use cfd::parse::parse_cfds;
use cfd::{Cfd, CfdError, CfdResult};
use colstore::{detect_cached, seed_incremental, Snapshot, SnapshotCache};
use detect::{IncrementalDetector, ViolationReport};
use minidb::{Database, DbError, RowId, Value};
use repair::{incremental_repair, RepairConfig};

fn db_err(e: DbError) -> CfdError {
    CfdError::Malformed(e.to_string())
}

/// The monitor's historical name for the shared mutation type: an update
/// against the monitored relation is exactly an [`api::Mutation`].
pub type Update = Mutation;

/// Monitoring mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorMode {
    /// Database not cleansed yet: track violations incrementally.
    DetectOnly,
    /// Database was cleansed: repair incoming deltas on arrival.
    RepairOnArrival,
}

/// Outcome of applying one update.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateOutcome {
    /// Row the update affected (the new id for inserts).
    pub row: Option<RowId>,
    /// Total violations after the update (and any repair).
    pub violations: u64,
    /// Cells changed by incremental repair (empty in detect-only mode).
    pub repairs: usize,
}

/// The data monitor: owns the database and incremental state.
pub struct DataMonitor {
    db: Database,
    relation: String,
    cfds: Vec<Cfd>,
    detector: IncrementalDetector,
    /// Columnar snapshot of the relation, patched in lock-step with the
    /// update stream (and with repair-on-arrival's edits).
    snapshots: SnapshotCache,
    mode: MonitorMode,
    repair_cfg: RepairConfig,
}

impl DataMonitor {
    /// Start monitoring `relation` in `db` under `cfds`.
    pub fn new(
        db: Database,
        relation: &str,
        cfds: Vec<Cfd>,
        mode: MonitorMode,
    ) -> CfdResult<DataMonitor> {
        // One columnar encode seeds both the snapshot cache and the
        // incremental detector's group state (bulk, not row-at-a-time) —
        // from here on both are maintained under the update stream.
        let mut snapshots = SnapshotCache::new();
        let snap = snapshots.snapshot(db.table(relation).map_err(db_err)?);
        let detector = seed_incremental(&snap, &cfds)?;
        Ok(DataMonitor {
            db,
            relation: relation.to_string(),
            cfds,
            detector,
            snapshots,
            mode,
            repair_cfg: RepairConfig::default(),
        })
    }

    /// Current total number of violations.
    pub fn violations(&self) -> u64 {
        self.detector.total_violations()
    }

    /// Current `vio(t)` of a row.
    pub fn vio_of(&self, row: RowId) -> u64 {
        self.detector.vio_of(row)
    }

    /// Materialize the current violation report.
    pub fn report(&self) -> ViolationReport {
        self.detector.report()
    }

    /// The current columnar snapshot of the monitored relation, maintained
    /// in lock-step with the update stream — in steady state this is a
    /// refcount bump, not an encode (it also serves as the shard-transfer
    /// format). Falls back to one full encode if the database was mutated
    /// behind the monitor's back.
    pub fn snapshot(&mut self) -> CfdResult<Arc<Snapshot>> {
        Ok(self
            .snapshots
            .snapshot(self.db.table(&self.relation).map_err(db_err)?))
    }

    /// Batch detection over the maintained snapshot (zero encode work in
    /// steady state, and per-CFD fragments are replayed from the memo for
    /// rules whose columns the update stream left untouched). Equal, after
    /// `normalized()`, to [`Self::report`] — the monitor's two views can
    /// be cross-checked at any time.
    pub fn detect(&mut self) -> CfdResult<ViolationReport> {
        let table = self.db.table(&self.relation).map_err(db_err)?;
        detect_cached(&mut self.snapshots, table, &self.cfds)
    }

    /// Number of full snapshot encodes since monitoring began (1 after
    /// construction; steady-state streams keep it there).
    pub fn snapshot_encodes(&self) -> u64 {
        self.snapshots.encodes()
    }

    /// The monitored database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Switch mode (e.g. after an explicit cleansing pass).
    pub fn set_mode(&mut self, mode: MonitorMode) {
        self.mode = mode;
    }

    /// The monitored CFD set.
    pub fn cfds(&self) -> &[Cfd] {
        &self.cfds
    }

    /// Replace the monitored CFD set, re-seeding the incremental detector
    /// from the maintained snapshot (one bulk pass, no re-encode in
    /// steady state).
    pub fn set_cfds(&mut self, cfds: Vec<Cfd>) -> CfdResult<()> {
        let snap = self
            .snapshots
            .snapshot(self.db.table(&self.relation).map_err(db_err)?);
        self.detector = seed_incremental(&snap, &cfds)?;
        self.cfds = cfds;
        Ok(())
    }

    /// Apply one update; returns the effect on data quality. Both derived
    /// structures — the incremental detector and the columnar snapshot —
    /// are maintained in lock-step with the mutation.
    pub fn apply(&mut self, update: Mutation) -> CfdResult<UpdateOutcome> {
        let affected = match update {
            Update::Insert(values) => {
                let id = self.db.insert_row(&self.relation, values).map_err(db_err)?;
                let table = self.db.table(&self.relation).map_err(db_err)?;
                let row: Vec<Value> = table.get(id).map_err(db_err)?.to_vec();
                self.snapshots.note_insert(table, id);
                self.detector.insert(id, &row);
                Some(id)
            }
            Update::Delete(id) => {
                let old = self.db.delete_row(&self.relation, id).map_err(db_err)?;
                let table = self.db.table(&self.relation).map_err(db_err)?;
                self.snapshots.note_delete(table, id);
                self.detector.delete(id, &old);
                None
            }
            Update::SetCell { row, col, value } => {
                let before = self.row_values(row)?;
                self.db
                    .update_cell(&self.relation, row, col, value)
                    .map_err(db_err)?;
                let table = self.db.table(&self.relation).map_err(db_err)?;
                let after: Vec<Value> = table.get(row).map_err(db_err)?.to_vec();
                self.snapshots.note_set_cell(table, row, col);
                self.detector.update(row, &before, &after);
                Some(row)
            }
        };

        let mut repairs = 0usize;
        if self.mode == MonitorMode::RepairOnArrival {
            if let Some(id) = affected {
                if self.detector.vio_of(id) > 0 {
                    let result = incremental_repair(
                        &mut self.db,
                        &self.relation,
                        &self.cfds,
                        &[id],
                        &self.repair_cfg,
                    )?;
                    repairs = result.changes.len();
                    // Replay the repair into the snapshot: one cell patch
                    // per applied change (the table advanced exactly one
                    // epoch per change).
                    let cells: Vec<(RowId, usize)> =
                        result.changes.iter().map(|c| (c.row, c.col)).collect();
                    let table = self.db.table(&self.relation).map_err(db_err)?;
                    self.snapshots.note_set_cells(table, &cells);
                    // Replay the repair into the detector: reconstruct each
                    // touched row's pre-repair state (earliest `old` per
                    // cell wins) and apply a single update per row.
                    let mut touched: Vec<RowId> = result.changes.iter().map(|c| c.row).collect();
                    touched.sort();
                    touched.dedup();
                    for row in touched {
                        let after = self.row_values(row)?;
                        let mut before = after.clone();
                        for c in result.changes.iter().rev().filter(|c| c.row == row) {
                            before[c.col] = c.old.clone();
                        }
                        self.detector.update(row, &before, &after);
                    }
                }
            }
        }
        Ok(UpdateOutcome {
            row: affected,
            violations: self.detector.total_violations(),
            repairs,
        })
    }

    fn row_values(&self, id: RowId) -> CfdResult<Vec<Value>> {
        Ok(self
            .db
            .table(&self.relation)
            .map_err(db_err)?
            .get(id)
            .map_err(db_err)?
            .to_vec())
    }
}

/// The unified-API view of the streaming monitor: every trait mutation is
/// one [`DataMonitor::apply`], so incremental detection (and, in
/// [`MonitorMode::RepairOnArrival`], on-arrival repair) runs per update —
/// the batch entry point deliberately keeps the per-update semantics and
/// uses the trait's one-by-one loop.
impl QualityBackend for DataMonitor {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            backend: "data-monitor".into(),
            repair: false,
            streaming: true,
            shards: 1,
            metrics: true,
            trace: true,
        }
    }

    fn register_cfds(&mut self, text: &str) -> CfdResult<usize> {
        self.set_cfds(parse_cfds(text)?)?;
        Ok(self.cfds.len())
    }

    fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
        let out = self.apply(Mutation::Insert(row))?;
        out.row
            .ok_or_else(|| CfdError::Malformed("insert did not yield a row".into()))
    }

    fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>> {
        let old = self.row_values(row)?;
        self.apply(Mutation::Delete(row))?;
        Ok(old)
    }

    fn update_cell(&mut self, row: RowId, col: usize, value: Value) -> CfdResult<Value> {
        let old = self
            .db
            .table(&self.relation)
            .map_err(db_err)?
            .cell(row, col)
            .map_err(db_err)?
            .clone();
        self.apply(Mutation::SetCell { row, col, value })?;
        Ok(old)
    }

    fn detect(&mut self) -> CfdResult<ViolationReport> {
        DataMonitor::detect(self)
    }

    fn audit(&mut self) -> CfdResult<QualityReport> {
        let report = self.detector.report();
        let table = self.db.table(&self.relation).map_err(db_err)?;
        let snap = self.snapshots.snapshot(table);
        quality_report(table.schema(), [&*snap], &self.cfds, &report)
    }

    fn last_report(&self) -> Option<ViolationReport> {
        // The incremental state is always current: the monitor's report
        // *is* its live view.
        Some(self.detector.report())
    }

    fn len(&self) -> usize {
        self.db.table(&self.relation).map(|t| t.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_customers, CustomerConfig};
    use detect::detect_native;

    fn clean_db(rows: usize) -> (Database, Vec<Cfd>) {
        let t = generate_customers(&CustomerConfig {
            rows,
            ..CustomerConfig::default()
        });
        let mut db = Database::new();
        db.register_table(t);
        (db, datagen::canonical_cfds())
    }

    fn dirty_insert(db: &Database) -> Vec<Value> {
        let donor: Vec<Value> = db
            .table("customer")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .1
            .to_vec();
        let mut row = donor;
        row[2] = Value::str("WRONGCITY");
        row
    }

    #[test]
    fn detect_only_mode_tracks_violations() {
        let (db, cfds) = clean_db(100);
        let mut m = DataMonitor::new(db, "customer", cfds, MonitorMode::DetectOnly).unwrap();
        assert_eq!(m.violations(), 0);
        let row = dirty_insert(m.database());
        let out = m.apply(Update::Insert(row)).unwrap();
        assert!(out.violations > 0);
        assert_eq!(out.repairs, 0);
        // Deleting the offending row restores cleanliness.
        let id = out.row.unwrap();
        let out = m.apply(Update::Delete(id)).unwrap();
        assert_eq!(out.violations, 0);
    }

    #[test]
    fn repair_mode_fixes_dirty_arrivals() {
        let (db, cfds) = clean_db(100);
        let mut m =
            DataMonitor::new(db, "customer", cfds.clone(), MonitorMode::RepairOnArrival).unwrap();
        let row = dirty_insert(m.database());
        let out = m.apply(Update::Insert(row)).unwrap();
        assert_eq!(out.violations, 0, "arrival must be repaired");
        assert!(out.repairs > 0);
        // Cross-check against batch detection.
        let batch = detect_native(m.database().table("customer").unwrap(), &cfds).unwrap();
        assert!(batch.is_empty());
    }

    #[test]
    fn cell_updates_flow_through_the_monitor() {
        let (db, cfds) = clean_db(80);
        let ids = db.table("customer").unwrap().row_ids();
        let mut m = DataMonitor::new(db, "customer", cfds, MonitorMode::DetectOnly).unwrap();
        // Corrupt CNT of an existing row.
        let out = m
            .apply(Update::SetCell {
                row: ids[0],
                col: 1,
                value: Value::str("XX"),
            })
            .unwrap();
        assert!(out.violations > 0);
        assert!(m.vio_of(ids[0]) > 0);
    }

    #[test]
    fn snapshot_stays_in_lock_step_with_update_stream() {
        let (db, cfds) = clean_db(60);
        let ids = db.table("customer").unwrap().row_ids();
        let mut m =
            DataMonitor::new(db, "customer", cfds.clone(), MonitorMode::DetectOnly).unwrap();
        assert_eq!(m.snapshot_encodes(), 1, "construction encodes once");
        // A mixed stream: dirty insert, corrupting update, delete.
        let row = dirty_insert(m.database());
        let out = m.apply(Update::Insert(row)).unwrap();
        m.apply(Update::SetCell {
            row: ids[3],
            col: 2,
            value: Value::str("ELSEWHERE"),
        })
        .unwrap();
        m.apply(Update::Delete(out.row.unwrap())).unwrap();
        // Snapshot-backed detection agrees with the incremental state and
        // with batch detection, with zero further encodes.
        let snap_report = m.detect().unwrap().normalized();
        assert_eq!(snap_report, m.report().normalized());
        let batch = detect_native(m.database().table("customer").unwrap(), &cfds)
            .unwrap()
            .normalized();
        assert_eq!(snap_report, batch);
        assert_eq!(
            m.snapshot_encodes(),
            1,
            "stream was patched, not re-encoded"
        );
    }

    #[test]
    fn repair_on_arrival_keeps_snapshot_synced() {
        let (db, cfds) = clean_db(80);
        let mut m =
            DataMonitor::new(db, "customer", cfds.clone(), MonitorMode::RepairOnArrival).unwrap();
        for _ in 0..3 {
            let row = dirty_insert(m.database());
            let out = m.apply(Update::Insert(row)).unwrap();
            assert_eq!(out.violations, 0);
            assert!(out.repairs > 0, "repair-on-arrival fixed the insert");
        }
        // The repair edits were replayed into the snapshot: detection over
        // it is clean and never re-encoded.
        assert!(m.detect().unwrap().is_empty());
        assert_eq!(m.snapshot_encodes(), 1);
    }

    #[test]
    fn monitor_report_matches_batch() {
        let (db, cfds) = clean_db(60);
        let mut m =
            DataMonitor::new(db, "customer", cfds.clone(), MonitorMode::DetectOnly).unwrap();
        for _ in 0..3 {
            let row = dirty_insert(m.database());
            m.apply(Update::Insert(row)).unwrap();
        }
        let inc = m.report().normalized();
        let batch = detect_native(m.database().table("customer").unwrap(), &cfds)
            .unwrap()
            .normalized();
        assert_eq!(inc, batch);
    }
}
