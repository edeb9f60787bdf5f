//! Per-layer attribution of a traced run: decorator spans, client round
//! trips and `obs` counter deltas turned into the per-layer metrics.

use std::collections::HashMap;

use crate::timed::{Layer, Span};
use crate::util::{median, ratio, ObsDelta};
use crate::workloads::{Op, Outcome};

/// A named metric with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// Measurements of a traced run taken outside the span recorder.
pub struct Extras {
    /// In-process `EngineHandle::request` times of the read mix (µs).
    pub engine_read_us: Vec<f64>,
    /// Encode + decode of each read-mix request and response (µs).
    pub codec_read_us: Vec<f64>,
    /// Encode + decode of one `ApplyBatch` frame and its reply (ms).
    pub codec_batch_ms: Vec<f64>,
    /// Encoded size of one `ApplyBatch` frame (bytes; 0 when none).
    pub batch_frame_bytes: usize,
    pub checkpoint_ms: f64,
    /// `Durable::open` times of the reopens (s) and rows they restored.
    pub recover_s: Vec<f64>,
    pub restored_rows: u64,
    /// Traced minus untraced median of the workload's measured request.
    pub overhead_ms: f64,
}

const MUTATIONS: [&str; 5] = ["insert", "delete", "update_cell", "apply_batch", "repair"];
const CAPTURE: [&str; 5] = ["detect", "audit", "last_report", "len", "capabilities"];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Median and count of `xs`.
fn med(xs: &mut [f64]) -> (f64, usize) {
    (median(xs), xs.len())
}

/// Every per-layer metric, in BENCHMARK.json order. Only spans starting
/// inside `window` (the measured window) count; `outcome` is the traced
/// run's client record.
pub fn per_layer(
    spans: &[Span],
    window: (u64, u64),
    outcome: &Outcome,
    obs: &ObsDelta,
    x: &Extras,
) -> Vec<Metric> {
    let in_window = || {
        let (from, to) = window;
        spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| (from..to).contains(&s.start))
    };
    // Inner spans by name, and the inner child of each outer span.
    let mut inner_ms: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut child_of: HashMap<usize, usize> = HashMap::new();
    for (i, s) in in_window() {
        if s.layer == Layer::Inner {
            inner_ms
                .entry(s.name)
                .or_default()
                .push(ms(s.end - s.start));
            if let Some(p) = s.parent {
                child_of.insert(p, i);
            }
        }
    }
    let inner = |name: &str| med(&mut inner_ms.get(name).cloned().unwrap_or_default());

    // Walk the writer's outer spans in order: a run of mutation spans,
    // then the capture of the epoch that publishes them.
    let outer: Vec<(usize, &Span)> = in_window()
        .filter(|(_, s)| s.layer == Layer::Outer && s.parent.is_none())
        .collect();
    let mut capture_of_write: HashMap<u64, f64> = HashMap::new();
    let mut write_span: HashMap<u64, usize> = HashMap::new();
    let mut captures: Vec<f64> = Vec::new();
    let mut pending: Vec<u64> = Vec::new();
    let mut capture = 0.0;
    let mut in_capture = false;
    let mut close = |pending: &mut Vec<u64>, capture: f64, captures: &mut Vec<f64>| {
        for id in pending.drain(..) {
            capture_of_write.insert(id, capture);
        }
        captures.push(capture);
    };
    for &(i, s) in &outer {
        if MUTATIONS.contains(&s.name) {
            if in_capture {
                close(&mut pending, capture, &mut captures);
                in_capture = false;
                capture = 0.0;
            }
            if let Some(id) = s.req {
                pending.push(id);
                write_span.insert(id, i);
            }
        } else if CAPTURE.contains(&s.name) {
            in_capture = true;
            capture += ms(s.end - s.start);
        }
    }
    if in_capture {
        close(&mut pending, capture, &mut captures);
    }

    // Each acknowledged mutation request: queue wait, WAL share, apply,
    // capture and the unattributed remainder of its round trip.
    let (mut wait, mut log_us, mut apply_us, mut remainder) = (vec![], vec![], vec![], vec![]);
    let writes: Vec<_> = outcome.samples.iter().filter(|s| s.ok).collect();
    for w in &writes {
        let (Some(&o), Some(&cap)) = (write_span.get(&w.id), capture_of_write.get(&w.id)) else {
            continue;
        };
        let os = &spans[o];
        let own = ms(os.end - os.start);
        let applied = child_of
            .get(&o)
            .map_or(0.0, |&c| ms(spans[c].end - spans[c].start));
        let waited = ms(os.start.saturating_sub(w.send));
        wait.push(waited);
        log_us.push((own - applied) * 1e3);
        if w.op == Op::Write {
            apply_us.push(applied * 1e3);
        }
        remainder.push(ms(w.rtt_ns()) - waited - own - cap);
    }
    let acked = writes.len() as f64;
    let epochs = obs.counter("net_epochs_published_total");
    let detects = obs.counter("cluster_detects_total");
    let runs = obs.counter("repair_runs_total");
    let reused = obs.counter("cluster_partials_reused_total");
    let computed = obs.counter("cluster_partials_computed_total");
    let patches = obs.counter("colstore_snapshot_patches_total");
    let encodes = obs.counter("colstore_snapshot_encodes_total");
    let fallbacks = obs.counter("colstore_snapshot_rebuild_fallbacks_total");
    let frag_reused = obs.counter("colstore_detect_fragments_reused_total");
    let frag_computed = obs.counter("colstore_detect_fragments_computed_total");
    let hits = obs.counter("spill_pool_hits_total");
    let faults = obs.counter("spill_page_faults_total");
    let recover_med = median(&mut x.recover_s.clone());

    let (wait_ms, n_wait) = med(&mut wait);
    let (cap_ms, n_cap) = med(&mut captures);
    let (rem_ms, n_rem) = med(&mut remainder);
    let (log, n_log) = med(&mut log_us);
    let (apply, n_apply) = med(&mut apply_us);
    let (engine, n_engine) = med(&mut x.engine_read_us.clone());
    let (codec_r, n_codec_r) = med(&mut x.codec_read_us.clone());
    let (codec_b, n_codec_b) = med(&mut x.codec_batch_ms.clone());
    let (batch_ms, n_batch) = inner("apply_batch");
    let (detect_ms, n_detect) = inner("detect");
    let (last_ms, n_last) = inner("last_report");
    let (audit_ms, n_audit) = inner("audit");
    let (repair_ms, n_repair) = inner("repair");
    let n_obs = |c: f64| c as usize;
    vec![
        metric("net.read_engine_us", engine, "us", n_engine),
        metric("net.queue_wait_ms", wait_ms, "ms", n_wait),
        metric("net.capture_ms", cap_ms, "ms", n_cap),
        metric(
            "net.writes_per_epoch",
            ratio(acked, epochs),
            "count",
            n_obs(epochs),
        ),
        metric("net.remainder_ms", rem_ms, "ms", n_rem),
        metric(
            "net.backpressure",
            obs.counter("net_backpressure_total"),
            "count",
            1,
        ),
        metric("api.codec_read_us", codec_r, "us", n_codec_r),
        metric("api.codec_batch_ms", codec_b, "ms", n_codec_b),
        metric(
            "api.batch_frame_kb",
            x.batch_frame_bytes as f64 / 1024.0,
            "KiB",
            usize::from(x.batch_frame_bytes > 0),
        ),
        metric("durable.log_us", log, "us", n_log),
        metric(
            "durable.fsync_us",
            obs.hist_mean("wal_fsync_ns") / 1e3,
            "us",
            n_obs(obs.counter("wal_appends_total")),
        ),
        metric(
            "durable.fsyncs_per_write",
            ratio(obs.counter("wal_appends_total"), acked),
            "count",
            writes.len(),
        ),
        metric(
            "durable.wal_bytes_per_row",
            ratio(
                obs.counter("wal_append_bytes_total"),
                outcome.inserted as f64,
            ),
            "B",
            outcome.inserted as usize,
        ),
        metric(
            "durable.replay_us_per_row",
            ratio(recover_med * 1e6, x.restored_rows as f64),
            "us",
            x.recover_s.len(),
        ),
        metric("durable.checkpoint_ms", x.checkpoint_ms, "ms", 1),
        metric("cluster.apply_us", apply, "us", n_apply),
        metric("cluster.apply_batch_ms", batch_ms, "ms", n_batch),
        metric("cluster.detect_ms", detect_ms, "ms", n_detect),
        metric("cluster.last_report_ms", last_ms, "ms", n_last),
        metric(
            "cluster.scatter_ms",
            obs.hist_mean("cluster_scatter_ns") / 1e6,
            "ms",
            n_obs(detects),
        ),
        metric(
            "cluster.merge_ms",
            obs.hist_mean("cluster_merge_ns") / 1e6,
            "ms",
            n_obs(detects),
        ),
        metric(
            "cluster.members_per_detect",
            ratio(obs.counter("cluster_exported_members_total"), detects),
            "count",
            n_obs(detects),
        ),
        metric(
            "cluster.partials_reused_frac",
            ratio(reused, reused + computed),
            "ratio",
            n_obs(reused + computed),
        ),
        metric(
            "colstore.rows_scanned_per_detect",
            ratio(obs.counter("detect_rows_scanned_total"), detects),
            "count",
            n_obs(detects),
        ),
        metric(
            "colstore.patch_frac",
            ratio(patches, patches + encodes + fallbacks),
            "ratio",
            n_obs(patches + encodes + fallbacks),
        ),
        metric(
            "colstore.fragments_reused_frac",
            ratio(frag_reused, frag_reused + frag_computed),
            "ratio",
            n_obs(frag_reused + frag_computed),
        ),
        metric(
            "colstore.spill_hit_frac",
            ratio(hits, hits + faults),
            "ratio",
            n_obs(hits + faults),
        ),
        metric(
            "colstore.spill_faults_per_detect",
            ratio(faults, detects),
            "count",
            n_obs(detects),
        ),
        metric("audit.ms", audit_ms, "ms", n_audit),
        metric("repair.ms", repair_ms, "ms", n_repair),
        metric(
            "repair.resolve_ms",
            obs.hist_mean("repair_resolve_ns") / 1e6,
            "ms",
            n_obs(runs),
        ),
        metric(
            "repair.rounds_per_run",
            ratio(obs.counter("repair_rounds_total"), runs),
            "count",
            n_obs(runs),
        ),
        metric(
            "repair.changes_per_run",
            ratio(obs.counter("repair_changes_total"), runs),
            "count",
            n_obs(runs),
        ),
        metric("trace.overhead_ms", x.overhead_ms, "ms", 1),
    ]
}
