//! Property: the code-space auditor ≡ the per-cell classification.
//!
//! `audit::quality_report` counts over columnar snapshots: the
//! constant-RHS "verified" check is a dictionary-code compare and every
//! position is counted through its row id. `audit::classify` is the
//! materializing per-cell reference over heap rows. The whole
//! `QualityReport` must agree on every layout the snapshot can take:
//! chunk sizes {1, 7, 4096}, rows split over 1, 2 or 4 snapshots (some
//! missing a constant from their dictionary), deleted rows, spilled
//! chunks, NULLs in constant columns, and numeric constants whose type
//! differs from the column's (`2.0` against an INT column, `3` against a
//! FLOAT one).

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use semandaq::audit::{
    audited_columns, classify, quality_report, violation_stats, AttributeBreakdown, CleanClass,
    QualityReport,
};
use semandaq::cfd::parse::parse_cfds;
use semandaq::cfd::Cfd;
use semandaq::cluster::{HashRouter, ShardedQualityServer};
use semandaq::colstore::{ChunkStore, Snapshot, SnapshotCache};
use semandaq::detect::{detect_native, ViolationReport};
use semandaq::durable::PagedStore;
use semandaq::minidb::{Column, DataType, Schema, Table, Value};

const CHUNK_SIZES: [usize; 3] = [1, 7, 4096];
const SHARDS: [usize; 3] = [1, 2, 4];

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("A", DataType::Str),
        Column::new("B", DataType::Str),
        Column::new("N", DataType::Int),
        Column::new("F", DataType::Float),
    ])
    .expect("distinct column names")
}

/// Constant-RHS rules with one filter, several filters, a wild LHS, a
/// wild LHS cell beside a filter, cross-type numeric constants and a
/// constant ('a9') that only one row holds; plus variable rules, so rows
/// are also implicated in multi-tuple groups.
fn cfd_pool() -> Vec<Cfd> {
    parse_cfds(
        "r: [A='a0'] -> [B='b0']\n\
         r: [A='a1', B='b1'] -> [N=1]\n\
         r: [N=2.0] -> [F=3]\n\
         r: [F=1] -> [N=1.0]\n\
         r: [A=_] -> [B='b1']\n\
         r: [A=_, N=2] -> [B='b2']\n\
         r: [A='a9'] -> [B='b0']\n\
         r: [N=3] -> [A='a9']\n\
         r: [A] -> [B]\n\
         r: [A='a2', B=_] -> [F=_]\n\
         r: [N] -> [F]",
    )
    .expect("pool parses")
}

/// Strategy: a non-empty subset of [`cfd_pool`].
fn arb_cfds() -> impl Strategy<Value = Vec<Cfd>> {
    let pool = cfd_pool();
    let n = pool.len();
    proptest::collection::vec(0usize..n, 1..=n).prop_map(move |idxs| {
        let mut out: Vec<Cfd> = Vec::new();
        for i in idxs {
            if !out.contains(&pool[i]) {
                out.push(pool[i].clone());
            }
        }
        out
    })
}

/// One cell of column `col` from a small domain, NULL for 3.
fn cell(col: usize, v: usize) -> Value {
    match (col, v) {
        (_, 3) => Value::Null,
        (0, v) => Value::str(format!("a{v}")),
        (1, v) => Value::str(format!("b{v}")),
        (2, v) => Value::Int(v as i64 + 1),
        (_, v) => Value::Float(v as f64 + 1.0),
    }
}

/// Strategy: a random table over [`schema`] with small domains, NULLs in
/// every column, and exactly one row holding the rare constant 'a9'.
fn arb_table(max_rows: usize) -> impl Strategy<Value = Table> {
    let row = proptest::collection::vec(0usize..4, 4);
    (proptest::collection::vec(row, 1..max_rows), 0usize..64).prop_map(|(rows, rare)| {
        let mut t = Table::new("r", schema());
        let rare = rare % rows.len();
        for (i, r) in rows.into_iter().enumerate() {
            let mut vals: Vec<Value> = r.into_iter().enumerate().map(|(c, v)| cell(c, v)).collect();
            if i == rare {
                vals[0] = Value::str("a9");
            }
            t.insert(vals).expect("row fits schema");
        }
        t
    })
}

fn class_slot(c: CleanClass) -> usize {
    match c {
        CleanClass::VerifiedClean => 0,
        CleanClass::ProbablyClean => 1,
        CleanClass::ArguablyClean => 2,
        CleanClass::Dirty => 3,
    }
}

/// The report recounted from [`classify`]'s per-tuple and per-cell maps.
fn reference(t: &Table, cfds: &[Cfd], det: &ViolationReport) -> QualityReport {
    let c = classify(t, cfds, det).unwrap();
    let mut tuple_classes = [0usize; 4];
    for class in c.tuples.values() {
        tuple_classes[class_slot(*class)] += 1;
    }
    let n = t.len().max(1) as f64;
    let attributes = c
        .constrained_columns
        .iter()
        .map(|&col| {
            let mut counts = [0usize; 4];
            for (id, _) in t.iter() {
                counts[class_slot(c.cells[&(id, col)])] += 1;
            }
            AttributeBreakdown {
                col,
                name: t.schema().column(col).name.clone(),
                fractions: counts.map(|x| x as f64 / n),
            }
        })
        .collect();
    let per_cfd = cfds
        .iter()
        .enumerate()
        .map(|(i, cfd)| (cfd.to_string(), det.per_cfd.get(&i).copied().unwrap_or(0)))
        .collect();
    QualityReport {
        tuples: t.len(),
        tuple_classes,
        attributes,
        per_cfd,
        stats: violation_stats(det),
    }
}

/// Split `t` round-robin into `n` tables that keep every row's id — the
/// layout a sharded cluster stores.
fn split(t: &Table, n: usize) -> Vec<Table> {
    let mut parts: Vec<Table> = (0..n)
        .map(|_| Table::new("r", t.schema().clone()))
        .collect();
    for (i, (id, row)) in t.iter().enumerate() {
        parts[i % n].insert_at(id, row.to_vec()).unwrap();
    }
    parts
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdq_audit_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every chunk size × snapshot count, with a random subset of rows
    /// deleted first, counts exactly the reference report.
    #[test]
    fn snapshot_audit_equals_classify_reference(
        table in arb_table(40),
        cfds in arb_cfds(),
        deletes in proptest::collection::vec(0usize..64, 0..12),
    ) {
        let mut table = table;
        for d in deletes {
            let ids = table.row_ids();
            if ids.len() > 1 {
                table.delete(ids[d % ids.len()]).unwrap();
            }
        }
        let det = detect_native(&table, &cfds).unwrap();
        let expected = reference(&table, &cfds, &det);
        let cols = audited_columns(table.schema(), &cfds).unwrap();
        for n in SHARDS {
            let parts = split(&table, n);
            for chunk in CHUNK_SIZES {
                let snaps: Vec<Snapshot> = parts
                    .iter()
                    .map(|p| Snapshot::projected_with_chunk(p, &cols, chunk))
                    .collect();
                let got = quality_report(table.schema(), &snaps, &cfds, &det).unwrap();
                prop_assert_eq!(&got, &expected, "{} snapshots, chunk_rows {}", n, chunk);
            }
        }
    }
}

/// The rare constant sits in one snapshot's dictionary only: the others
/// resolve the rule to "matches nothing" and must still count every row.
#[test]
fn constant_absent_from_one_snapshot_dictionary() {
    let cfds = parse_cfds("r: [A='a9'] -> [B='b0']\nr: [N=3] -> [A='a9']").unwrap();
    let mut t = Table::new("r", schema());
    for i in 0..12 {
        t.insert((0..4).map(|c| cell(c, i % 3)).collect()).unwrap();
    }
    t.insert(vec![
        Value::str("a9"),
        Value::str("b0"),
        Value::Int(3),
        Value::Null,
    ])
    .unwrap();
    let det = detect_native(&t, &cfds).unwrap();
    let parts = split(&t, 2);
    let cols = audited_columns(t.schema(), &cfds).unwrap();
    let snaps: Vec<Snapshot> = parts
        .iter()
        .map(|p| Snapshot::projected(p, &cols))
        .collect();
    let a9 = Value::str("a9");
    assert_eq!(
        snaps
            .iter()
            .filter(|s| s.column(0).dictionary().code_of(&a9).is_some())
            .count(),
        1,
        "exactly one snapshot's dictionary holds the rare constant"
    );
    let got = quality_report(t.schema(), &snaps, &cfds, &det).unwrap();
    assert_eq!(got, reference(&t, &cfds, &det));
    assert!(got.tuple_classes[0] >= 1, "the rare row is verified");
}

/// A snapshot with most of its chunks spilled to a paged file (budget
/// below the relation's encoded size) audits exactly like a resident one.
#[test]
fn spilled_snapshot_audit_equals_reference() {
    let cfds = cfd_pool();
    let mut t = Table::new("r", schema());
    for i in 0..300usize {
        t.insert(
            (0..4)
                .map(|c| cell(c, (i * 7 + c * 5 + i / 11) % 4))
                .collect(),
        )
        .unwrap();
    }
    for id in t.row_ids().into_iter().step_by(9) {
        t.delete(id).unwrap();
    }
    let chunk = 7;
    let cols = audited_columns(t.schema(), &cfds).unwrap();
    let relation_bytes = t.len() * cols.len() * 4;
    let dir = tmp("spill");
    let store: Arc<dyn ChunkStore> =
        PagedStore::create(&dir.join("spill.pages"), chunk, 2).unwrap();
    let mut cache = SnapshotCache::new()
        .with_chunk_rows(chunk)
        .with_spill(store, relation_bytes / 4);
    let snap = cache.snapshot_projected(&t, &cols);
    assert!(cache.spilled_chunks() > 0, "the budget forces a spill");
    let det = detect_native(&t, &cfds).unwrap();
    let got = quality_report(t.schema(), [&*snap], &cfds, &det).unwrap();
    assert_eq!(got, reference(&t, &cfds, &det));
    drop((snap, cache));
    let _ = std::fs::remove_dir_all(dir);
}

/// The served path: `ShardedQualityServer::audit` over 1, 2 and 4
/// shards, after the same seeded stream of cell edits, deletes and
/// inserts, equals the reference over the merged relation.
#[test]
fn sharded_audit_after_edit_stream_equals_reference() {
    let cfds = cfd_pool();
    let mut base = Table::new("r", schema());
    for i in 0..160usize {
        base.insert(
            (0..4)
                .map(|c| cell(c, (i * 3 + c * 7 + i / 5) % 4))
                .collect(),
        )
        .unwrap();
    }
    for n in SHARDS {
        let mut c =
            ShardedQualityServer::partition(&base, n, Box::new(HashRouter::new(vec![0]))).unwrap();
        c.register_cfds(cfds.clone()).unwrap();
        let check = |c: &mut ShardedQualityServer, at: &str| {
            let merged = c.merged_table().unwrap();
            let det = detect_native(&merged, &cfds).unwrap();
            let expected = reference(&merged, &cfds, &det);
            assert_eq!(c.audit().unwrap(), expected, "{n} shards, {at}");
        };
        check(&mut c, "before edits");

        // xorshift64, same seed for every shard count.
        let mut state = 0x5eed_a0d1_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..60 {
            let ids = c.merged_table().unwrap().row_ids();
            let pick = ids[next() as usize % ids.len()];
            match next() % 4 {
                0 => {
                    c.delete(pick).unwrap();
                }
                1 => {
                    let row = (0..4).map(|col| cell(col, next() as usize % 4)).collect();
                    c.insert(row).unwrap();
                }
                _ => {
                    let col = next() as usize % 4;
                    c.update_cell(pick, col, cell(col, next() as usize % 4))
                        .unwrap();
                }
            }
            if step % 15 == 14 {
                check(&mut c, &format!("after step {step}"));
            }
        }
    }
}
