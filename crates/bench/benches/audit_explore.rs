//! F3/F4-adjacent: cost of the auditor (classification, report, quality
//! map) and the explorer's drill-down over a detection result.

use audit::{quality_map, quality_report};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use detect::detect_native;
use explore::NavigationSession;
use sdq_bench::workload;

fn audit_costs(c: &mut Criterion) {
    let mut group = c.benchmark_group("audit");
    group.sample_size(10);
    for rows in [5_000usize, 20_000] {
        let w = workload(rows, 0.05, 41);
        let t = w.db.table("customer").unwrap();
        let report = detect_native(t, &w.cfds).unwrap();
        group.bench_with_input(BenchmarkId::new("quality_report", rows), &rows, |b, _| {
            b.iter(|| quality_report(t.schema(), t.iter(), &w.cfds, &report).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("quality_map", rows), &rows, |b, _| {
            b.iter(|| quality_map(t, &report))
        });
    }
    group.finish();
}

fn explore_costs(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore");
    group.sample_size(10);
    let w = workload(10_000, 0.05, 43);
    let t = w.db.table("customer").unwrap();
    let report = detect_native(t, &w.cfds).unwrap();
    group.bench_function("full_drilldown", |b| {
        b.iter(|| {
            let nav = NavigationSession::new(t, &w.cfds, &report).unwrap();
            let fds = nav.fds();
            let mut touched = 0usize;
            for fd in &fds {
                for p in nav.patterns(fd.idx) {
                    let lhs = nav.lhs_matches(p.cfd_idx);
                    if let Some(e) = lhs.first() {
                        touched += nav.rhs_values(p.cfd_idx, &e.key).len();
                    }
                }
            }
            touched
        })
    });
    group.finish();
}

criterion_group!(benches, audit_costs, explore_costs);
criterion_main!(benches);
