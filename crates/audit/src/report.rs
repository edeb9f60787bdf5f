//! The data quality report (Fig. 4): per-attribute class breakdown (bar
//! chart), violation breakdown per CFD (pie chart), and headline numbers.

use cfd::{BoundCfd, Cfd, CfdResult};
use colstore::{ConstantCheck, Snapshot};
use detect::fxhash::DistinctCounter;
use detect::violation::{ViolationKind, ViolationReport};
use minidb::{RowId, Schema};

use crate::charts::{pie_chart, stacked_bars};
use crate::classify::{
    constrained_columns, grade, CleanClass, IN_MAJORITY, IN_MINORITY, IN_SINGLE,
};
use crate::stats::{violation_stats, ViolationStats};

/// Per-attribute breakdown into the four classes (fractions of tuples).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeBreakdown {
    /// Column index.
    pub col: usize,
    /// Attribute name.
    pub name: String,
    /// Fractions `[verified, probably, arguably, dirty]`, summing to 1.
    pub fractions: [f64; 4],
}

/// The assembled quality report.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Number of live tuples audited.
    pub tuples: usize,
    /// Tuple counts per class `[verified, probably, arguably, dirty]`.
    pub tuple_classes: [usize; 4],
    /// Per-constrained-attribute breakdowns.
    pub attributes: Vec<AttributeBreakdown>,
    /// Violations per CFD, labelled with the CFD's display form.
    pub per_cfd: Vec<(String, usize)>,
    /// Summary statistics.
    pub stats: ViolationStats,
}

fn class_slot(c: CleanClass) -> usize {
    match c {
        CleanClass::VerifiedClean => 0,
        CleanClass::ProbablyClean => 1,
        CleanClass::ArguablyClean => 2,
        CleanClass::Dirty => 3,
    }
}

/// The columns the auditor reads — every column some CFD of `cfds`
/// mentions, sorted and distinct. It is the projection the detector's
/// snapshot encodes, so a cached detect snapshot serves the audit as is.
pub fn audited_columns(schema: &Schema, cfds: &[Cfd]) -> CfdResult<Vec<usize>> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(schema))
        .collect::<CfdResult<_>>()?;
    Ok(constrained_columns(&bound))
}

/// Build the quality report over the live rows of `snapshots` (columnar
/// snapshots of a relation with `schema`) under `cfds` and a detection
/// `report`. A table caller passes one snapshot (`Snapshot::projected`
/// onto [`audited_columns`]); a sharded caller passes every shard's
/// cached snapshot, in any order. Panics if a snapshot does not encode a
/// column some constant-RHS CFD reads.
///
/// One counting pass, equal to tallying [`crate::classify()`]'s
/// per-tuple and per-cell classes but without materializing them:
/// involvement is marked in dense byte flags indexed by [`RowId`] (one
/// per implicated row and one per implicated row × constrained column;
/// ids past the largest implicated one are uninvolved). Then each
/// snapshot is walked chunk by chunk: every constant-RHS CFD's "verified"
/// check is a dictionary-code compare ([`ConstantCheck`]), and each
/// position is counted through its row id straight into the class
/// totals — no row is decoded. Cost: O(live rows × constant-RHS CFDs +
/// violation members).
pub fn quality_report<'a, I>(
    schema: &Schema,
    snapshots: I,
    cfds: &[Cfd],
    report: &ViolationReport,
) -> CfdResult<QualityReport>
where
    I: IntoIterator<Item = &'a Snapshot>,
{
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(schema))
        .collect::<CfdResult<_>>()?;
    let constrained = constrained_columns(&bound);
    let k = constrained.len();
    // Per CFD, the positions in `constrained` of the columns it reads.
    let slots: Vec<Vec<usize>> = bound
        .iter()
        .map(|b| {
            b.lhs_cols
                .iter()
                .chain(std::iter::once(&b.rhs_col))
                .map(|c| constrained.binary_search(c).expect("constrained column"))
                .collect()
        })
        .collect();

    // Pass 1: involvement flags, dense by row id up to the largest
    // implicated one.
    let mut row_inv: Vec<u8> = Vec::new();
    let mut cell_inv: Vec<u8> = Vec::new();
    let mut mark = |row: RowId, bits: u8, cols: &[usize]| {
        let at = row.index();
        if at >= row_inv.len() {
            row_inv.resize(at + 1, 0);
            cell_inv.resize((at + 1) * k, 0);
        }
        row_inv[at] |= bits;
        for &s in cols {
            cell_inv[at * k + s] |= bits;
        }
    };
    let mut member_slots: Vec<u32> = Vec::new();
    for v in &report.violations {
        let cols = &slots[v.cfd_idx];
        match &v.kind {
            ViolationKind::SingleTuple { row } => mark(*row, IN_SINGLE, cols),
            ViolationKind::MultiTuple { rows, .. } => {
                let mut counter = DistinctCounter::new();
                member_slots.clear();
                member_slots.extend(rows.iter().map(|(_, val)| counter.add(val)));
                for ((row, _), &slot) in rows.iter().zip(&member_slots) {
                    let side = if counter.count_at(slot) * 2 > rows.len() as u64 {
                        IN_MAJORITY
                    } else {
                        IN_MINORITY
                    };
                    mark(*row, side, cols);
                }
            }
        }
    }

    // Pass 2: per snapshot chunk, flag the verified cells in code space,
    // then grade and count every position.
    let constant_rhs: Vec<usize> = (0..bound.len())
        .filter(|&i| bound[i].cfd.rhs_pat.constant().is_some())
        .collect();
    // The class slot of `grade(involvement, verified)`, indexed by
    // `involvement | verified << 3` (involvement uses the low 3 bits).
    let class_of: [usize; 16] = std::array::from_fn(|x| class_slot(grade(x as u8 & 7, x & 8 != 0)));
    let uninvolved = vec![0u8; k];
    // Per position, one verified byte per constrained column (at least
    // one, so a CFD-free audit still has a row stride).
    let stride = k.max(1);
    let mut hits: Vec<u8> = Vec::new();
    let mut verified: Vec<u8> = Vec::new();
    let mut tuples = 0usize;
    let mut tuple_classes = [0usize; 4];
    let mut cell_classes = vec![[0usize; 4]; k];
    for snap in snapshots {
        let checks: Vec<(ConstantCheck, &[usize])> = constant_rhs
            .iter()
            .filter_map(|&i| ConstantCheck::new(snap, &bound[i]).map(|c| (c, &slots[i][..])))
            .collect();
        let ids = snap.row_ids();
        tuples += ids.len();
        // Newest chunk first: a detect's last scans leave the newest
        // spilled chunks in the spill buffer pool, so a spilled snapshot
        // reads those before they are evicted.
        for (ci, chunk_ids) in ids.chunks(snap.chunk_rows()).enumerate().rev() {
            let len = chunk_ids.len();
            hits.resize(len, 0);
            verified.clear();
            verified.resize(len * stride, 0);
            for (check, cols) in &checks {
                check.scan_chunk(ci, &mut hits);
                for (cells, &h) in verified.chunks_exact_mut(stride).zip(&hits) {
                    for &s in *cols {
                        cells[s] |= h;
                    }
                }
            }
            for (id, ver) in chunk_ids.iter().zip(verified.chunks_exact(stride)) {
                let at = id.index();
                let cells = cell_inv.get(at * k..(at + 1) * k).unwrap_or(&uninvolved);
                // Every verifying CFD flags its RHS cell, so the row is
                // verified iff one of its cells is.
                let mut any = 0u8;
                for ((counts, &inv), &v) in cell_classes.iter_mut().zip(cells).zip(ver) {
                    any |= v;
                    counts[class_of[usize::from(inv | v << 3)]] += 1;
                }
                let inv = row_inv.get(at).copied().unwrap_or(0);
                tuple_classes[class_of[usize::from(inv | any << 3)]] += 1;
            }
        }
    }

    let n = tuples.max(1) as f64;
    let attributes = constrained
        .iter()
        .zip(&cell_classes)
        .map(|(&col, counts)| AttributeBreakdown {
            col,
            name: schema.column(col).name.clone(),
            fractions: counts.map(|c| c as f64 / n),
        })
        .collect();
    let per_cfd = cfds
        .iter()
        .enumerate()
        .map(|(i, c)| (c.to_string(), report.per_cfd.get(&i).copied().unwrap_or(0)))
        .collect();
    Ok(QualityReport {
        tuples,
        tuple_classes,
        attributes,
        per_cfd,
        stats: violation_stats(report),
    })
}

impl QualityReport {
    /// Fraction of tuples that are dirty.
    pub fn dirty_fraction(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.tuple_classes[3] as f64 / self.tuples as f64
        }
    }

    /// Render the full report as text: headline, attribute bar chart
    /// (Fig. 4 left), per-CFD pie (Fig. 4 right), and statistics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== data quality report ===\n{} tuples: {} verified / {} probably / {} arguably clean, {} dirty ({:.1}%)\n\n",
            self.tuples,
            self.tuple_classes[0],
            self.tuple_classes[1],
            self.tuple_classes[2],
            self.tuple_classes[3],
            self.dirty_fraction() * 100.0,
        ));
        let rows: Vec<(String, Vec<f64>)> = self
            .attributes
            .iter()
            .map(|a| (a.name.clone(), a.fractions.to_vec()))
            .collect();
        out.push_str(&stacked_bars(
            "attribute-level classes (#=verified +=probably o=arguably .=dirty)",
            &rows,
            &['#', '+', 'o', '.'],
            40,
        ));
        out.push('\n');
        let pie_items: Vec<(String, f64)> = self
            .per_cfd
            .iter()
            .map(|(l, n)| (l.clone(), *n as f64))
            .collect();
        out.push_str(&pie_chart("violations per CFD", &pie_items, 40));
        out.push('\n');
        let s = &self.stats;
        out.push_str(&format!(
            "violations: {} total ({} single-tuple, {} multi-tuple groups)\n\
             dirty tuples: {}  vio(t): min {} / avg {:.2} / max {}\n\
             violating groups: size min {} / avg {:.2} / max {}\n",
            s.total,
            s.single,
            s.multi,
            s.dirty_tuples,
            s.min_vio,
            s.avg_vio,
            s.max_vio,
            s.min_group,
            s.avg_group,
            s.max_group,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::stats::violation_stats;
    use datagen::{
        canonical_cfds, customer_schema, dirty_customers, generate_hosp, hosp_cfds, inject_noise,
        HospConfig, NoiseConfig,
    };
    use detect::detect_native;
    use minidb::{Table, Value};

    /// The auditor over one snapshot of the whole table.
    fn audit_table(t: &Table, cfds: &[Cfd], det: &ViolationReport) -> QualityReport {
        let snap = Snapshot::projected(t, &audited_columns(t.schema(), cfds).unwrap());
        quality_report(t.schema(), [&snap], cfds, det).unwrap()
    }

    /// The report recounted from [`classify`]'s per-tuple and per-cell
    /// maps — the materializing reference the counting pass must equal.
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

    fn assert_matches_reference(t: &Table, cfds: &[Cfd], what: &str) -> QualityReport {
        let det = detect_native(t, cfds).unwrap();
        let counted = audit_table(t, cfds, &det);
        assert_eq!(counted, reference(t, cfds, &det), "{what}");
        counted
    }

    fn dirty_hosp(rows: usize, noise: f64, seed: u64) -> Table {
        let mut t = generate_hosp(&HospConfig {
            rows,
            providers: rows / 8,
            seed,
        });
        inject_noise(
            &mut t,
            &NoiseConfig {
                rate: noise,
                typo_fraction: 0.3,
                columns: vec![1, 2, 3, 4, 5, 7],
                seed: seed ^ 0xB0B,
            },
        );
        t
    }

    fn max_implicated(det: &ViolationReport) -> Option<RowId> {
        det.violations
            .iter()
            .flat_map(|v| match &v.kind {
                ViolationKind::SingleTuple { row } => vec![*row],
                ViolationKind::MultiTuple { rows, .. } => rows.iter().map(|(r, _)| *r).collect(),
            })
            .max()
    }

    #[test]
    fn counting_matches_classify_across_noise() {
        for (i, noise) in [0.0, 0.02, 0.1, 0.3, 0.6].into_iter().enumerate() {
            let d = dirty_customers(250, noise, 60 + i as u64);
            let t = d.db.table("customer").unwrap();
            assert_matches_reference(t, &d.cfds, &format!("customers, noise {noise}"));
            let h = dirty_hosp(240, noise, 70 + i as u64);
            assert_matches_reference(&h, &hosp_cfds(), &format!("hosp, noise {noise}"));
        }
    }

    #[test]
    fn counting_matches_classify_on_empty_and_clean_tables() {
        let empty = Table::new("customer", customer_schema());
        let r = assert_matches_reference(&empty, &canonical_cfds(), "empty");
        assert_eq!((r.tuples, r.tuple_classes), (0, [0; 4]));
        assert!(r.attributes.iter().all(|a| a.fractions == [0.0; 4]));

        let d = dirty_customers(120, 0.0, 61);
        let r = assert_matches_reference(d.db.table("customer").unwrap(), &d.cfds, "clean");
        assert_eq!(r.tuple_classes[2] + r.tuple_classes[3], 0);
        let h = dirty_hosp(160, 0.0, 62);
        assert_matches_reference(&h, &hosp_cfds(), "clean hosp");
    }

    #[test]
    fn even_split_groups_have_no_majority() {
        let mut t = Table::new("customer", customer_schema());
        let rows: [[&str; 7]; 9] = [
            // [CNT, ZIP] = (UK, EH4): 1 vs 1 — no majority, both dirty.
            ["a", "UK", "EDI", "EH4", "s1", "44", "131"],
            ["b", "UK", "LDN", "EH4", "s1", "44", "131"],
            // (US, 012): 2 vs 2 — still no majority.
            ["c", "US", "NYC", "012", "s2", "01", "212"],
            ["d", "US", "NYC", "012", "s2", "01", "212"],
            ["e", "US", "BOS", "012", "s2", "01", "212"],
            ["f", "US", "BOS", "012", "s2", "01", "212"],
            // (NL, 1011): 2 vs 1 — the pair is arguably clean.
            ["g", "NL", "AMS", "1011", "s3", "31", "20"],
            ["h", "NL", "AMS", "1011", "s3", "31", "20"],
            ["i", "NL", "RTM", "1011", "s3", "31", "20"],
        ];
        for r in rows {
            t.insert(r.iter().map(|v| Value::str(*v)).collect())
                .unwrap();
        }
        let r = assert_matches_reference(&t, &canonical_cfds(), "even splits");
        assert_eq!(r.tuple_classes, [0, 0, 2, 7]);
    }

    #[test]
    fn counting_matches_classify_with_sparse_ids() {
        let fresh = |i: usize| -> Vec<Value> {
            // Unique country, zip and code: no CFD group to join.
            let s = |p: &str| Value::str(format!("{p}{i}"));
            vec![s("n"), s("C"), s("CITY"), s("Z"), s("S"), s("9"), s("A")]
        };
        for noise in [0.05, 0.3] {
            let d = dirty_customers(300, noise, 63);
            let mut t = d.db.table("customer").unwrap().clone();
            for id in t.row_ids().into_iter().step_by(3) {
                t.delete(id).unwrap();
            }
            for i in 0..20 {
                t.insert(fresh(i)).unwrap();
            }
            let det = detect_native(&t, &d.cfds).unwrap();
            let top = max_implicated(&det).expect("noise implicates rows");
            assert!(
                t.row_ids().last().unwrap() > &top,
                "some live ids must lie past the largest implicated id"
            );
            assert_matches_reference(&t, &d.cfds, &format!("sparse, noise {noise}"));

            let mut h = dirty_hosp(240, noise, 64);
            for id in h.row_ids().into_iter().skip(1).step_by(4) {
                h.delete(id).unwrap();
            }
            assert_matches_reference(&h, &hosp_cfds(), &format!("sparse hosp, noise {noise}"));
        }
    }

    #[test]
    fn report_on_dirty_customers() {
        let d = dirty_customers(200, 0.05, 55);
        let t = d.db.table("customer").unwrap();
        let det = detect_native(t, &d.cfds).unwrap();
        let r = audit_table(t, &d.cfds, &det);
        assert_eq!(r.tuples, 200);
        assert_eq!(r.tuple_classes.iter().sum::<usize>(), 200);
        assert!(r.tuple_classes[3] > 0, "5% noise must dirty something");
        assert!(r.dirty_fraction() > 0.0 && r.dirty_fraction() < 1.0);
        // Attribute fractions sum to ~1.
        for a in &r.attributes {
            let sum: f64 = a.fractions.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", a.name);
        }
        // φ-level counts total the report's record count.
        let total: usize = r.per_cfd.iter().map(|(_, n)| n).sum();
        assert_eq!(total, det.len());
    }

    #[test]
    fn clean_data_reports_verified_and_probable_only() {
        let d = dirty_customers(100, 0.0, 4);
        let t = d.db.table("customer").unwrap();
        let det = detect_native(t, &d.cfds).unwrap();
        let r = audit_table(t, &d.cfds, &det);
        assert_eq!(r.tuple_classes[2], 0);
        assert_eq!(r.tuple_classes[3], 0);
        // Everyone matches a CC → CNT constant rule, so all verified.
        assert_eq!(r.tuple_classes[0], 100);
        assert_eq!(r.dirty_fraction(), 0.0);
    }

    #[test]
    fn render_includes_all_sections() {
        let d = dirty_customers(80, 0.08, 2);
        let t = d.db.table("customer").unwrap();
        let det = detect_native(t, &d.cfds).unwrap();
        let r = audit_table(t, &d.cfds, &det);
        let s = r.render();
        assert!(s.contains("data quality report"));
        assert!(s.contains("attribute-level classes"));
        assert!(s.contains("violations per CFD"));
        assert!(s.contains("violating groups"));
    }
}
