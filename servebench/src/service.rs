//! Standing up and reopening the served stack:
//! `Durable<ShardedQualityServer>` behind `NetServer` on loopback.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use semandaq::api::{QualityBackend, MAX_FRAME_BYTES};
use semandaq::cluster::{HashRouter, ShardedQualityServer};
use semandaq::colstore::{default_chunk_rows, ChunkStore};
use semandaq::datagen::customer::{customer_schema, CANONICAL_CFDS};
use semandaq::datagen::dirty_customers;
use semandaq::durable::{Durable, PagedStore};
use semandaq::minidb::Table;
use semandaq::net::{NetConfig, NetServer};

/// Rows of the base relation every workload starts from.
pub const BASE_ROWS: usize = 20_000;
/// Cell noise rate of the base relation.
pub const NOISE: f64 = 0.05;
/// Generator seed of the base relation. Every workload and every
/// `--seed` starts from the same relation; `--seed` drives the requests.
const BASE_SEED: u64 = 42;
/// Shards of the cluster: one per core of the 2-core host it was built on.
pub const SHARDS: usize = 2;
/// Routing key: NAME, unique per row, so the shards stay balanced (the
/// country columns have only three values).
const ROUTE_COL: usize = 0;

/// How a workload's server is configured beyond the common stack.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Bound snapshot residency at the base relation's encoded size, with
    /// cold chunks spilling to a paged file.
    pub spill: bool,
    /// Repair the base relation clean before the checkpoint.
    pub clean_repair: bool,
}

/// Columns read by the canonical CFDs: CNT, CITY, ZIP, STR, CC — the
/// columns a detect snapshot encodes.
pub const CFD_COLS: [usize; 5] = [1, 2, 3, 4, 5];

/// Snapshot memory budget: the base relation's encoded size (one `u32`
/// code per snapshot cell).
pub fn snapshot_budget() -> usize {
    BASE_ROWS * CFD_COLS.len() * 4
}

/// The transport configuration, spelled out rather than read from the
/// environment.
pub fn net_config() -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".into(),
        net_threads: 2,
        max_conns: 8,
        queue_depth: 256,
        idle_timeout: Duration::from_secs(120),
        max_frame: MAX_FRAME_BYTES,
    }
}

fn spill_store(path: &Path) -> Result<Arc<dyn ChunkStore>, String> {
    let page_codes = default_chunk_rows();
    let pool_pages = (snapshot_budget() / 4 / (page_codes * 4)).max(2);
    let store = PagedStore::create(path, page_codes, pool_pages)
        .map_err(|e| format!("create spill file {}: {e}", path.display()))?;
    Ok(store)
}

fn router() -> Box<HashRouter> {
    Box::new(HashRouter::new(vec![ROUTE_COL]))
}

fn with_options(
    c: ShardedQualityServer,
    opts: Options,
    spill_path: &Path,
) -> Result<ShardedQualityServer, String> {
    Ok(if opts.spill {
        c.with_spill(spill_store(spill_path)?, snapshot_budget())
    } else {
        c
    })
}

/// A running service plus what setting it up cost.
pub struct Served<B> {
    pub server: NetServer<B>,
    pub dir: PathBuf,
    /// The base relation the server started from.
    pub base: Table,
    pub setup_s: f64,
    pub checkpoint_ms: f64,
}

/// Datagen, partition, `Durable::open`, `register_cfds`, (repair,)
/// checkpoint and serve — the timed set-up. `inner` and `outer` wrap the
/// cluster and the WAL (identity in measured runs, the timing decorator
/// in traced runs).
pub fn stand_up<I, O>(
    dir: &Path,
    opts: Options,
    inner: impl FnOnce(ShardedQualityServer) -> I,
    outer: impl FnOnce(Durable<I>) -> O,
) -> Result<Served<O>, String>
where
    I: QualityBackend,
    O: QualityBackend + Send + 'static,
{
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let data = dirty_customers(BASE_ROWS, NOISE, BASE_SEED);
    let base = data
        .db
        .table("customer")
        .map_err(|e| format!("generated relation: {e}"))?
        .clone();
    let cluster = ShardedQualityServer::partition(&base, SHARDS, router())
        .map_err(|e| format!("partition: {e}"))?;
    let cluster = with_options(cluster, opts, &dir.join("serve.pages"))?;
    let mut durable =
        Durable::open(&dir.join("wal"), inner(cluster)).map_err(|e| format!("open WAL: {e}"))?;
    durable
        .register_cfds(CANONICAL_CFDS)
        .map_err(|e| format!("register CFDs: {e}"))?;
    if opts.clean_repair {
        durable.repair().map_err(|e| format!("clean repair: {e}"))?;
    }
    let t_ckpt = Instant::now();
    durable
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = t_ckpt.elapsed().as_secs_f64() * 1e3;
    let server =
        NetServer::serve(outer(durable), net_config()).map_err(|e| format!("serve: {e}"))?;
    Ok(Served {
        server,
        dir: dir.to_path_buf(),
        base,
        setup_s: t0.elapsed().as_secs_f64(),
        checkpoint_ms,
    })
}

/// `Durable::open` on a fresh, empty cluster over the WAL directory a
/// run left behind: checkpoint restore plus WAL replay. Returns the open
/// time in seconds and the recovered backend.
pub fn reopen(
    dir: &Path,
    opts: Options,
    pages: &Path,
) -> Result<(f64, Durable<ShardedQualityServer>), String> {
    let fresh = ShardedQualityServer::new("customer", customer_schema(), SHARDS, router());
    let fresh = with_options(fresh, opts, pages)?;
    let t0 = Instant::now();
    let durable =
        Durable::open(&dir.join("wal"), fresh).map_err(|e| format!("recover WAL: {e}"))?;
    Ok((t0.elapsed().as_secs_f64(), durable))
}
