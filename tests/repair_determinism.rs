//! Repair is a function of its input, not of hash iteration order.
//!
//! Every std `HashMap` gets its own `RandomState`, so two fresh servers
//! in one process iterate their maps in different orders. Repairing the
//! same dirty relation under the same CFDs on two of them must report the
//! same `RepairSummary` and leave identical relations; any
//! iteration-order dependence in the repair path shows up as a diff.

use semandaq::api::QualityBackend;
use semandaq::cluster::{HashRouter, ShardedQualityServer};
use semandaq::datagen::dirty_customers;
use semandaq::minidb::{RowId, Value};

#[test]
fn sharded_repair_is_identical_across_fresh_servers() {
    for seed in [1u64, 2, 3] {
        let d = dirty_customers(4_000, 0.05, seed);
        let base = d.db.table("customer").unwrap();
        let ids = base.row_ids();
        // Repair, then three rounds of "dirty 2% of the rows, repair
        // again" — the served repair cycle, same edits on both servers.
        let run = || {
            let mut c =
                ShardedQualityServer::partition(base, 2, Box::new(HashRouter::new(vec![0])))
                    .unwrap();
            c.register_cfds(d.cfds.clone()).unwrap();
            let mut summaries = vec![QualityBackend::repair(&mut c).unwrap()];
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as usize
            };
            for _ in 0..3 {
                for _ in 0..ids.len() / 50 {
                    let row: RowId = ids[next() % ids.len()];
                    let col = 1 + next() % 5;
                    let donor = ids[next() % ids.len()];
                    let value: Value = base.cell(donor, col).unwrap().clone();
                    c.update_cell(row, col, value).unwrap();
                }
                summaries.push(QualityBackend::repair(&mut c).unwrap());
            }
            (summaries, c.export_rows().unwrap())
        };
        let (first, rows_a) = run();
        let (second, rows_b) = run();
        assert!(
            first[0].changes > 0,
            "seed {seed}: the noise needs repairing"
        );
        assert_eq!(first, second, "seed {seed}: repair summaries differ");
        assert!(rows_a == rows_b, "seed {seed}: repaired relations differ");
    }
}
