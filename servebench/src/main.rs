//! Served-path benchmark for Semandaq.
//!
//! Stands up `Durable<ShardedQualityServer>` behind `NetServer` on
//! loopback, in this process, drives one named workload over TCP, checks
//! the answers and the recovered state, and prints the metrics. The last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload edit_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload twice (plain, then under the timing decorator) and reports
//! the per-layer metrics. `--workload all` runs every workload, each in
//! its own process. See README.md for what each workload is for.

mod attrib;
mod service;
mod timed;
mod util;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use semandaq::api::wire::ReportSummary;
use semandaq::api::{QualityBackend, Request, Response};
use semandaq::cluster::ShardedQualityServer;
use semandaq::durable::Durable;
use semandaq::minidb::RowId;
use semandaq::net::EngineHandle;

use attrib::{metric, Extras, Metric};
use service::{Options, Served, BASE_ROWS, SHARDS};
use timed::{Layer, Recorder, Timed};
use util::{json_num, median, quantile, ObsDelta};
use workloads::{Ctx, Op, Outcome, Round, READ_MIX};

/// Set-ups per measured run, each in a fresh process (the last one is
/// the run's own); `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Reopens per measured run: at least 3, more while they have taken
/// under `RECOVER_BUDGET_S`, at most 15; `recover_s` is their median.
const RECOVER_REPS: (usize, usize) = (3, 15);
const RECOVER_BUDGET_S: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ReadOnly,
    EditStream,
    BulkIngest,
    RepairCycle,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("read_only", Workload::ReadOnly),
    ("edit_stream", Workload::EditStream),
    ("bulk_ingest", Workload::BulkIngest),
    ("repair_cycle", Workload::RepairCycle),
];

impl Workload {
    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(n, _)| n)
    }

    fn options(self) -> Options {
        Options {
            spill: self == Workload::BulkIngest,
            clean_repair: self == Workload::RepairCycle,
        }
    }

    /// Rounds a run is measured in, each on fresh connections and client
    /// threads; the end-to-end figures are medians over the rounds. Where
    /// thread placement on the 2 cores sets the round-trip time (reads),
    /// many short rounds; bulk_ingest's fixed work runs once.
    fn rounds(self) -> u64 {
        match self {
            Workload::ReadOnly => 100,
            Workload::EditStream => 10,
            Workload::RepairCycle => 5,
            Workload::BulkIngest => 1,
        }
    }

    /// The request kind the end-to-end latency and rate describe, and the
    /// tail quantile its usual sample count supports (at least ten
    /// samples beyond it).
    fn measured(self) -> (Op, f64) {
        match self {
            Workload::ReadOnly => (Op::Read, 0.99),
            Workload::EditStream => (Op::Write, 0.95),
            Workload::BulkIngest => (Op::Batch, 0.85),
            Workload::RepairCycle => (Op::Repair, 0.75),
        }
    }
}

enum Child {
    Setup(PathBuf),
    Recover(PathBuf),
}

struct Args {
    workload: Option<Workload>,
    /// A helper process's job (see [`setup_only`] and [`recover`]).
    child: Option<Child>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        child: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?.max(1),
            "--trace" => args.trace = num(&value)? != 0,
            "--setup" => args.child = Some(Child::Setup(value.into())),
            "--recover" => args.child = Some(Child::Recover(value.into())),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" {
        let w = WORKLOADS
            .iter()
            .find(|(n, _)| *n == workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?;
        args.workload = Some(w.1);
    }
    Ok(args)
}

/// Any `SDQ_*` knob silently changes what is measured (detect threads,
/// chunk size, tracing, memory budget), so refuse to run under one.
fn refuse_env_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SDQ_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    refuse_env_knobs()?;
    semandaq::obs::trace::set_enabled(false);
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    match &args.child {
        Some(Child::Setup(dir)) => return setup_only(dir, workload),
        Some(Child::Recover(dir)) => return recover(dir, workload),
        None => {}
    }
    let root = PathBuf::from(".bench_run");
    let dir = root.join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    print_facts(&args, workload, &dir);
    let result = if args.trace {
        traced(&args, workload, &dir, &root)
    } else {
        measured(&args, workload, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let report = result?;
    for m in &report.metrics {
        println!(
            "metric {} = {} {} (n={})",
            m.name,
            json_num(m.value),
            m.unit,
            m.n
        );
    }
    for e in &report.mismatches {
        println!("CHECK FAILED: {e}");
    }
    let correct = report.mismatches.is_empty();
    let metrics: Vec<String> = report
        .json
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

/// `--workload all`: every workload in its own process (peak memory is
/// per process), in turn.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let mut ok = true;
    for (name, _) in WORKLOADS {
        println!("== {name}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("run {name}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn print_facts(args: &Args, w: Workload, dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = if w.options().spill {
        service::snapshot_budget().to_string()
    } else {
        "null".into()
    };
    println!(
        "facts {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"shards\": {SHARDS}, \"chunk_rows\": {}, \"detect_threads\": {}, \
         \"fsync\": \"every WAL record\", \"wal_fs\": \"{}\", \"base_rows\": {BASE_ROWS}, \
         \"snapshot_budget_bytes\": {budget}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        semandaq::colstore::default_chunk_rows(),
        semandaq::colstore::morsel::resolve_threads(None),
        util::filesystem_of(dir),
    );
}

/// What a run prints: every metric for the human-readable lines, the
/// ones the result object carries, and the output checks.
struct Report {
    metrics: Vec<Metric>,
    json: Vec<Metric>,
    attempted: usize,
    failed: usize,
    mismatches: Vec<String>,
}

/// One workload run against a served stack, then its durability check.
struct Run {
    outcome: Outcome,
    obs: ObsDelta,
    /// Reopen times (s) and the rows each restored.
    recover_s: Vec<f64>,
    restored_rows: u64,
    /// The measured window, in nanoseconds since the run's origin.
    window: (u64, u64),
    engine_read_us: Vec<f64>,
    codec_read_us: Vec<f64>,
}

/// Drive `w` against `served`, shut it down, and check the state a
/// restarted process recovers from the directory it left, reopening it
/// `reopens.0` to `reopens.1` times (the first reopen runs the check).
fn drive<B: QualityBackend + Send + 'static>(
    served: Served<B>,
    w: Workload,
    args: &Args,
    origin: Instant,
    rec: Option<Arc<Recorder>>,
    frames: &[Request],
    reopens: (usize, usize),
) -> Result<Run, String> {
    let addr = served.server.local_addr();
    let handle = served
        .server
        .handle()
        .ok_or("no reader slot for the in-process handle")?;
    let expected = handle.request(Request::Detect);
    let before = semandaq::obs::snapshot();
    let window_start = origin.elapsed().as_nanos() as u64;
    let mut outcome = Outcome::new();
    let rounds = w.rounds();
    for round in 0..rounds {
        let ctx = Ctx {
            addr,
            seed: args.seed,
            origin,
            end_ns: origin.elapsed().as_nanos() as u64 + args.seconds * 1_000_000_000 / rounds,
            round,
            rec: rec.clone(),
        };
        outcome.push_round(match w {
            Workload::ReadOnly => workloads::read_only(&ctx, &expected)?,
            Workload::EditStream => workloads::edit_stream(&ctx, &served.base)?,
            Workload::BulkIngest => workloads::bulk_ingest(&ctx, frames)?,
            Workload::RepairCycle => workloads::repair_cycle(&ctx, &served.base)?,
        });
    }
    let window_end = origin.elapsed().as_nanos() as u64;
    let obs = ObsDelta::new(before, semandaq::obs::snapshot());
    let (engine_read_us, codec_read_us) = if rec.is_some() {
        (engine_reads(&handle), codec_reads(&handle))
    } else {
        (Vec::new(), Vec::new())
    };
    let last_served = workloads::served_detect(addr)?;
    drop(handle);
    let dir = served.dir.clone();
    drop(served.server.shutdown());

    let expected_len = BASE_ROWS as u64 + outcome.inserted - outcome.deleted;
    let mut recover_s = Vec::new();
    let mut restored_rows = 0;
    let (min, max) = reopens;
    while recover_s.len() < min
        || (recover_s.len() < max && recover_s.iter().sum::<f64>() < RECOVER_BUDGET_S)
    {
        let r = reopen_in_child(&dir, w)?;
        recover_s.push(r.secs);
        if recover_s.len() == 1 {
            restored_rows = r.checkpoint_rows + outcome.mutations;
            if r.len != expected_len {
                outcome.mismatches.push(format!(
                    "recovered {} rows, acknowledged writes imply {expected_len}",
                    r.len
                ));
            }
            if r.detect != last_served {
                outcome.mismatches.push(format!(
                    "recovered detect {:?} differs from last served {last_served:?}",
                    r.detect
                ));
            }
        }
    }
    Ok(Run {
        outcome,
        obs,
        recover_s,
        restored_rows,
        window: (window_start, window_end),
        engine_read_us,
        codec_read_us,
    })
}

/// Time one set-up in a fresh process, so every set-up starts from a
/// clean heap and leaves nothing behind in this one.
fn setup_in_child(dir: &Path, w: Workload) -> Result<f64, String> {
    let line = run_child(w, "--setup", dir, "setup ")?;
    line.parse()
        .map_err(|_| format!("unreadable set-up result: {line}"))
}

/// Run this executable in mode `flag DIR` for workload `w` and return the
/// rest of its output line that starts with `prefix`.
fn run_child(w: Workload, flag: &str, dir: &Path, prefix: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name(), flag])
        .arg(dir)
        .output()
        .map_err(|e| format!("run {flag} process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{flag} process failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix(prefix).map(str::to_string))
        .ok_or_else(|| format!("{flag} process printed no result"))
}

/// `--setup DIR`: one timed set-up in `DIR`, printed as `setup <secs>`.
fn setup_only(dir: &Path, w: Workload) -> Result<bool, String> {
    let served = plain(dir, w)?;
    println!("setup {}", served.setup_s);
    drop(served.server.shutdown());
    Ok(true)
}

/// What a restarted process recovered from a run's directory.
struct Recovered {
    /// `Durable::open` time.
    secs: f64,
    checkpoint_rows: u64,
    len: u64,
    detect: ReportSummary,
}

/// Reopen `dir` in a fresh process, as a restart would: the recovery
/// then starts from a clean heap, not from the one the run left.
fn reopen_in_child(dir: &Path, w: Workload) -> Result<Recovered, String> {
    let line = run_child(w, "--recover", dir, "recovered ")?;
    let line = line.as_str();
    let mut f = line.splitn(4, ' ');
    let bad = || format!("unreadable recovery result: {line}");
    let mut num = || f.next().and_then(|v| v.parse::<f64>().ok()).ok_or_else(bad);
    let (secs, checkpoint_rows, len) = (num()?, num()? as u64, num()? as u64);
    let detect = match f.next().map(Response::decode) {
        Some(Ok(Response::Report(r))) => r,
        _ => return Err(bad()),
    };
    Ok(Recovered {
        secs,
        checkpoint_rows,
        len,
        detect,
    })
}

/// `--recover DIR`: reopen the run directory `DIR` and print the open
/// time, the checkpoint rows, the row count and the detect answer.
fn recover(dir: &Path, w: Workload) -> Result<bool, String> {
    let (secs, mut d) = service::reopen(dir, w.options(), &dir.join("recover.pages"))?;
    let rows = d.recovery().checkpoint_rows;
    let report = d
        .detect()
        .map_err(|e| format!("detect after recovery: {e}"))?;
    let detect = Response::Report(ReportSummary::of(&report)).encode();
    println!("recovered {secs} {rows} {} {detect}", d.len());
    Ok(true)
}

/// In-process `EngineHandle::request` of the read mix (µs each).
fn engine_reads(handle: &EngineHandle) -> Vec<f64> {
    (0..2_000)
        .map(|i| {
            let req = READ_MIX[i % READ_MIX.len()].clone();
            let t = Instant::now();
            std::hint::black_box(handle.request(req));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Encode + decode of a request and its response, as the client and the
/// server each do once per round trip (µs).
fn codec_us(req: &Request, resp: &Response) -> f64 {
    let t = Instant::now();
    let line = std::hint::black_box(req.encode());
    let back = Request::decode(&line);
    let reply = std::hint::black_box(resp.encode());
    let answer = Response::decode(&reply);
    std::hint::black_box((back.is_ok(), answer.is_ok()));
    t.elapsed().as_secs_f64() * 1e6
}

fn codec_reads(handle: &EngineHandle) -> Vec<f64> {
    let pairs: Vec<(Request, Response)> = READ_MIX
        .iter()
        .map(|r| (r.clone(), handle.request(r.clone())))
        .collect();
    (0..2_000)
        .map(|i| {
            let (req, resp) = &pairs[i % pairs.len()];
            codec_us(req, resp)
        })
        .collect()
}

/// Encode + decode of the first ingest frame and its reply (ms), and the
/// frame's encoded size.
fn codec_batch(frames: &[Request]) -> (Vec<f64>, usize) {
    let Some(frame @ Request::ApplyBatch { batch }) = frames.first() else {
        return (Vec::new(), 0);
    };
    let reply = Response::BatchApplied {
        applied: batch.len(),
        inserted: (0..batch.len() as u64)
            .map(|i| RowId(BASE_ROWS as u64 + i))
            .collect(),
    };
    let times = (0..20).map(|_| codec_us(frame, &reply) / 1e3).collect();
    (times, frame.encode().len())
}

fn frames_for(w: Workload, seed: u64) -> Result<Vec<Request>, String> {
    if w == Workload::BulkIngest {
        workloads::ingest_frames(seed)
    } else {
        Ok(Vec::new())
    }
}

fn plain(dir: &Path, w: Workload) -> Result<Served<Durable<ShardedQualityServer>>, String> {
    service::stand_up(dir, w.options(), |c| c, |d| d)
}

/// `--trace 0`: the end-to-end metrics.
fn measured(args: &Args, w: Workload, dir: &Path) -> Result<Report, String> {
    let frames = frames_for(w, args.seed)?;
    let mut setup_s = (1..SETUP_REPS)
        .map(|rep| setup_in_child(&dir.join(format!("setup{rep}")), w))
        .collect::<Result<Vec<f64>, String>>()?;
    let served = plain(&dir.join("run"), w)?;
    setup_s.push(served.setup_s);
    let origin = Instant::now();
    let run = drive(served, w, args, origin, None, &frames, RECOVER_REPS)?;
    let o = &run.outcome;
    let (op, tail_q) = w.measured();
    let st = op_stats(o, op, tail_q, |r| match w {
        Workload::BulkIngest => o.inserted as f64,
        _ => o.ok(op, Some(r)) as f64,
    });
    let attempted = o.attempted();
    let failed = o.failed();
    let recover_s = median(&mut run.recover_s.clone());
    println!("samples setup_s {setup_s:?}");
    println!("samples recover_s {:?}", run.recover_s);
    let mut setups = setup_s.clone();
    let json = vec![
        metric("setup_s", median(&mut setups), "s", setup_s.len()),
        metric("op_p50_ms", st.p50, "ms", st.n),
        metric("peak_rss_mb", util::peak_rss_mb()?, "MiB", 1),
    ];
    // Rate, tail and recovery time are printed but not in the result:
    // their run-to-run spread on a shared host exceeded the largest bound
    // the result may carry (see README.md).
    let mut metrics = json.clone();
    metrics.push(metric("op_rate_per_s", st.rate, "1/s", st.n));
    metrics.push(metric("op_tail_ms", st.tail, "ms", st.n));
    metrics.push(metric("recover_s", recover_s, "s", run.recover_s.len()));
    metrics.extend(named_metrics(w, o, &st));
    metrics.push(metric(
        "failed_frac",
        util::ratio(failed as f64, attempted as f64),
        "ratio",
        attempted,
    ));
    Ok(Report {
        metrics,
        json,
        attempted,
        failed,
        mismatches: o.mismatches.clone(),
    })
}

/// The quantile of a run's rounds, ordered best first, that its p50 and
/// rate come from (see [`op_stats`]).
const QUIET: f64 = 0.25;

/// p50, tail and rate of one request kind over a run's rounds.
struct OpStats {
    p50: f64,
    tail: f64,
    rate: f64,
    n: usize,
}

/// A run's p50, quantile-`q` tail and rate (`units` of work per second)
/// of `op`, from per-round figures. The p50 and the rate are the
/// [`QUIET`] quantile of the rounds, best first: the effective CPU speed
/// of the shared host drifts by tens of percent within seconds, and a
/// round with an unlucky thread placement or a busy neighbour should not
/// set the figure. The tail is the median of the rounds' tails, or pools
/// every round when a round is too small to hold 10 samples beyond it.
fn op_stats(o: &Outcome, op: Op, q: f64, units: impl Fn(&Round) -> f64) -> OpStats {
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut rates = Vec::new();
    let mut smallest = usize::MAX;
    for r in &o.rounds {
        let mut lat = o.latencies_ms(op, Some(r));
        smallest = smallest.min(lat.len());
        p50s.push(quantile(&mut lat, 0.5));
        tails.push(quantile(&mut lat, q));
        rates.push(units(r) / r.elapsed_s);
    }
    println!("rounds {op:?} p50 {p50s:?} tail {tails:?} rate {rates:?}");
    let mut all = o.latencies_ms(op, None);
    let tail = if smallest as f64 * (1.0 - q) >= 10.0 {
        median(&mut tails)
    } else {
        quantile(&mut all, q)
    };
    OpStats {
        p50: quantile(&mut p50s, QUIET),
        tail,
        rate: quantile(&mut rates, 1.0 - QUIET),
        n: all.len(),
    }
}

/// The same run described in the per-workload terms of the metric table
/// in README.md (read_p50_us, write_p95_ms, ingest_rows_per_s, ...);
/// `st` holds the measured request's figures.
fn named_metrics(w: Workload, o: &Outcome, st: &OpStats) -> Vec<Metric> {
    let mut out = Vec::new();
    if matches!(w, Workload::ReadOnly | Workload::EditStream) {
        let reads = op_stats(o, Op::Read, 0.99, |r| o.ok(Op::Read, Some(r)) as f64);
        out.push(metric("read_p50_us", reads.p50 * 1e3, "us", reads.n));
        out.push(metric("read_p99_us", reads.tail * 1e3, "us", reads.n));
        if w == Workload::ReadOnly {
            out.push(metric("read_rps", reads.rate, "req/s", reads.n));
        }
    }
    match w {
        Workload::EditStream => {
            out.push(metric("write_p50_ms", st.p50, "ms", st.n));
            out.push(metric("write_p95_ms", st.tail, "ms", st.n));
            out.push(metric("write_ops_per_s", st.rate, "ops/s", st.n));
        }
        Workload::BulkIngest => out.push(metric("ingest_rows_per_s", st.rate, "rows/s", st.n)),
        Workload::RepairCycle => out.push(metric("repair_p50_ms", st.p50, "ms", st.n)),
        Workload::ReadOnly => {}
    }
    out
}

/// `--trace 1`: a plain run for the untraced baseline, then the same
/// workload under `Timed<Durable<Timed<ShardedQualityServer>>>`.
fn traced(args: &Args, w: Workload, dir: &Path, root: &Path) -> Result<Report, String> {
    let frames = frames_for(w, args.seed)?;
    let (op, _) = w.measured();
    let origin = Instant::now();
    let base = drive(
        plain(&dir.join("plain"), w)?,
        w,
        args,
        origin,
        None,
        &frames,
        (0, 0),
    )?;
    let untraced_p50 = median(&mut base.outcome.latencies_ms(op, None));

    let rec = Recorder::new(origin);
    let served = service::stand_up(
        &dir.join("traced"),
        w.options(),
        |c| Timed::new(c, Arc::clone(&rec), Layer::Inner),
        |d| Timed::new(d, Arc::clone(&rec), Layer::Outer),
    )?;
    let checkpoint_ms = served.checkpoint_ms;
    let run = drive(
        served,
        w,
        args,
        origin,
        Some(Arc::clone(&rec)),
        &frames,
        (1, 1),
    )?;
    let spans = rec.spans();
    write_spans(root, w, args.seed, &spans, &run.outcome)?;
    let traced_p50 = median(&mut run.outcome.latencies_ms(op, None));
    let (codec_batch_ms, batch_frame_bytes) = codec_batch(&frames);
    let extras = Extras {
        engine_read_us: run.engine_read_us.clone(),
        codec_read_us: run.codec_read_us.clone(),
        codec_batch_ms,
        batch_frame_bytes,
        checkpoint_ms,
        recover_s: run.recover_s.clone(),
        restored_rows: run.restored_rows,
        overhead_ms: traced_p50 - untraced_p50,
    };
    let layers = attrib::per_layer(&spans, run.window, &run.outcome, &run.obs, &extras);
    let o = &run.outcome;
    let mut mismatches = base.outcome.mismatches.clone();
    mismatches.extend(o.mismatches.iter().cloned());
    let mut metrics = layers.clone();
    metrics.push(metric("trace.untraced_p50_ms", untraced_p50, "ms", 1));
    metrics.push(metric("trace.traced_p50_ms", traced_p50, "ms", 1));
    // The share of the measured request's round trip no named layer
    // accounts for.
    if let Some(rem) = layers.iter().find(|m| m.name == "net.remainder_ms") {
        let share = util::ratio(rem.value, traced_p50);
        metrics.push(metric("trace.remainder_frac", share, "ratio", rem.n));
    }
    Ok(Report {
        metrics,
        json: layers,
        attempted: o.attempted(),
        failed: o.failed(),
        mismatches,
    })
}

/// Write the traced run's spans (decorator calls and client round trips)
/// as JSON lines under `root`.
fn write_spans(
    root: &Path,
    w: Workload,
    seed: u64,
    spans: &[timed::Span],
    o: &Outcome,
) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"layer\": \"{:?}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {}, \"req\": {}}}\n",
            s.name,
            s.layer,
            s.start,
            s.end,
            s.parent.map_or("null".into(), |p| p.to_string()),
            s.req.map_or("null".into(), |r| r.to_string()),
        ));
    }
    for s in &o.samples {
        out.push_str(&format!(
            "{{\"name\": \"client.{:?}\", \"layer\": \"Client\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": null, \"req\": {}, \"ok\": {}}}\n",
            s.op, s.send, s.recv, s.id, s.ok
        ));
    }
    let path = root.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}
