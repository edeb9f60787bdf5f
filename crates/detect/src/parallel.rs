//! Parallel native detection: one task per CFD, merged at the end.
//!
//! Detection across CFDs is embarrassingly parallel (each CFD scans the
//! table independently); `std::thread::scope` lets the workers borrow the
//! table without reference counting.

use std::sync::Mutex;

use cfd::{BoundCfd, Cfd, CfdResult};
use minidb::Table;

use crate::native::detect_one;
use crate::violation::ViolationReport;

/// Detect violations of `cfds` using up to `threads` worker threads.
///
/// Equivalent to [`crate::native::detect_native`] (the property tests pin
/// this); faster when `|Σ|` and the table are large.
pub fn detect_parallel(table: &Table, cfds: &[Cfd], threads: usize) -> CfdResult<ViolationReport> {
    let bound: Vec<BoundCfd> = cfds
        .iter()
        .map(|c| c.bind(table.schema()))
        .collect::<CfdResult<_>>()?;
    let threads = threads.max(1).min(bound.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, ViolationReport)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= bound.len() {
                    break;
                }
                let mut local = ViolationReport::default();
                detect_one(table, i, &bound[i], &mut local);
                results
                    .lock()
                    .expect("detection worker panicked")
                    .push((i, local));
            });
        }
    });
    let mut parts = results.into_inner().expect("detection worker panicked");
    parts.sort_by_key(|(i, _)| *i);
    let mut report = ViolationReport::default();
    for (_, part) in parts {
        report.merge(part);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::detect_native;
    use datagen::dirty_customers;

    #[test]
    fn parallel_equals_sequential() {
        let d = dirty_customers(250, 0.06, 9);
        let t = d.db.table("customer").unwrap();
        let seq = detect_native(t, &d.cfds).unwrap().normalized();
        for threads in [1, 2, 4, 8] {
            let par = detect_parallel(t, &d.cfds, threads).unwrap().normalized();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn handles_more_threads_than_cfds() {
        let d = dirty_customers(50, 0.05, 2);
        let t = d.db.table("customer").unwrap();
        let r = detect_parallel(t, &d.cfds, 64).unwrap();
        let s = detect_native(t, &d.cfds).unwrap();
        assert_eq!(r.normalized(), s.normalized());
    }
}
