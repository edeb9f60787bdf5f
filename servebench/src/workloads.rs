//! The four client workloads. Each drives the served stack over TCP
//! through `net::Client`, records every request's round trip, and checks
//! the answers it can check on the fly.

use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use semandaq::api::wire::ReportSummary;
use semandaq::api::{Mutation, MutationBatch, Request, Response};
use semandaq::datagen::dirty_customers;
use semandaq::minidb::{RowId, Table, Value};
use semandaq::net::Client;

use crate::service::{BASE_ROWS, CFD_COLS, NOISE};
use crate::timed::Recorder;
use crate::util::Rng;

/// NAME: free text, read by no CFD.
const NAME_COL: usize = 0;
/// bulk_ingest: rows per `ApplyBatch` frame.
pub const BATCH_ROWS: usize = 500;
/// bulk_ingest: frames sent. The relation grows from 20k to 60k rows,
/// ending 3x past the snapshot budget (the base relation's size).
pub const BATCH_FRAMES: usize = 80;
/// repair_cycle: share of rows each cycle's `SetCell` batch dirties.
const DIRTY_FRAC: f64 = 0.02;
/// Read round trips reserved for a run up front, so growing the record
/// adds no reallocation copies to the process's peak memory (untouched
/// capacity costs no resident memory).
const READ_RESERVE: usize = 1 << 23;

/// What a request was, for the statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Detect / Audit / LastReport / Len.
    Read,
    /// A single-row mutation (UpdateCell / Insert / Delete).
    Write,
    /// An `ApplyBatch` frame.
    Batch,
    Repair,
}

/// One request's round trip, in nanoseconds since the run's origin.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: Op,
    pub id: u64,
    pub send: u64,
    pub recv: u64,
    /// False when the server answered `Response::Error`.
    pub ok: bool,
}

impl Sample {
    pub fn rtt_ns(&self) -> u64 {
        self.recv - self.send
    }
}

/// What one workload run did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every request but the reads.
    pub samples: Vec<Sample>,
    /// Read round trips in ns ([`FAILED`] marks a failed read). Reads are
    /// the bulk of the requests and need no span, so they are kept
    /// compact: the recording must not dominate the process's memory.
    pub read_ns: Vec<u32>,
    /// Rows the server acknowledged inserting / deleting.
    pub inserted: u64,
    pub deleted: u64,
    /// Mutations the server acknowledged (batch entries counted singly).
    pub mutations: u64,
    /// Output-check failures.
    pub mismatches: Vec<String>,
    /// The rounds the run was measured in.
    pub rounds: Vec<Round>,
}

/// One round of a run: fresh connections on fresh client threads, so
/// each round gets its own thread placement on the cores.
#[derive(Debug, Clone)]
pub struct Round {
    samples: Range<usize>,
    reads: Range<usize>,
    /// Wall time from the first send to the last reply, in seconds.
    pub elapsed_s: f64,
}

/// A read answered with `Response::Error`.
const FAILED: u32 = u32::MAX;

impl Outcome {
    /// The whole run as one round.
    fn all(&self) -> Round {
        Round {
            samples: 0..self.samples.len(),
            reads: 0..self.read_ns.len(),
            elapsed_s: self.rounds.iter().map(|r| r.elapsed_s).sum(),
        }
    }

    /// Round trips of `op` requests in `round` (the whole run when
    /// `None`), in ms. A failed request counts as infinitely slow, so it
    /// misses every latency limit.
    pub fn latencies_ms(&self, op: Op, round: Option<&Round>) -> Vec<f64> {
        let r = round.cloned().unwrap_or_else(|| self.all());
        let ms = |ok: bool, ns: f64| if ok { ns / 1e6 } else { f64::INFINITY };
        if op == Op::Read {
            return self.read_ns[r.reads]
                .iter()
                .map(|&ns| ms(ns != FAILED, ns as f64))
                .collect();
        }
        self.samples[r.samples]
            .iter()
            .filter(|s| s.op == op)
            .map(|s| ms(s.ok, s.rtt_ns() as f64))
            .collect()
    }

    /// Successful `op` requests in `round` (the whole run when `None`).
    pub fn ok(&self, op: Op, round: Option<&Round>) -> usize {
        let r = round.cloned().unwrap_or_else(|| self.all());
        if op == Op::Read {
            return self.read_ns[r.reads]
                .iter()
                .filter(|&&ns| ns != FAILED)
                .count();
        }
        self.samples[r.samples]
            .iter()
            .filter(|s| s.op == op && s.ok)
            .count()
    }

    /// Wall time of all rounds, in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.all().elapsed_s
    }

    /// An empty record with room for a run's reads.
    pub fn new() -> Outcome {
        Outcome {
            read_ns: Vec::with_capacity(READ_RESERVE),
            ..Outcome::default()
        }
    }

    /// Append one round's record.
    pub fn push_round(&mut self, round: Outcome) {
        let (s0, r0) = (self.samples.len(), self.read_ns.len());
        let elapsed_s = round.elapsed_s();
        self.absorb(round);
        self.rounds.push(Round {
            samples: s0..self.samples.len(),
            reads: r0..self.read_ns.len(),
            elapsed_s,
        });
    }

    pub fn attempted(&self) -> usize {
        self.samples.len() + self.read_ns.len()
    }

    pub fn failed(&self) -> usize {
        let reads = self.read_ns.iter().filter(|&&ns| ns == FAILED).count();
        reads + self.samples.iter().filter(|s| !s.ok).count()
    }

    fn absorb(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.read_ns.extend(other.read_ns);
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        self.mutations += other.mutations;
        self.mismatches.extend(other.mismatches);
    }
}

/// Shared by every client of a run.
pub struct Ctx {
    pub addr: SocketAddr,
    pub seed: u64,
    pub origin: Instant,
    /// Time-bounded workloads stop sending at this offset (ns).
    pub end_ns: u64,
    /// Which round of the run this is (varies the generated requests).
    pub round: u64,
    /// The span recorder of a traced run.
    pub rec: Option<Arc<Recorder>>,
}

impl Ctx {
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// One client connection that records every round trip.
struct Conn<'a> {
    client: Client,
    ctx: &'a Ctx,
    tag: u64,
    next: u64,
    out: Outcome,
}

impl<'a> Conn<'a> {
    fn open(ctx: &'a Ctx, tag: u64) -> Result<Conn<'a>, String> {
        let client = Client::connect(ctx.addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            client,
            ctx,
            tag,
            next: 0,
            out: Outcome::default(),
        })
    }

    /// One round trip. A transport failure or an undecodable response is
    /// an error; `Response::Error` is recorded as a failed request.
    fn call(&mut self, op: Op, req: &Request) -> Result<Response, String> {
        // Unique over the run: round, connection, request.
        let id = (self.ctx.round << 48) | (self.tag << 40) | self.next;
        self.next += 1;
        let rec = self.ctx.rec.as_ref().filter(|_| op != Op::Read);
        if let Some(rec) = rec {
            rec.begin_write(id, req);
        }
        let send = self.ctx.now();
        self.client
            .send(req)
            .map_err(|e| format!("send {}: {e}", req.kind_str()))?;
        let resp = self
            .client
            .recv()
            .map_err(|e| format!("receive {}: {e}", req.kind_str()))?;
        let recv = self.ctx.now();
        if let Some(rec) = rec {
            rec.end_write(id);
        }
        let ok = !matches!(resp, Response::Error { .. });
        if op == Op::Read {
            let ns = if ok {
                (recv - send).min(u64::from(FAILED - 1)) as u32
            } else {
                FAILED
            };
            self.out.read_ns.push(ns);
        } else {
            self.out.samples.push(Sample {
                op,
                id,
                send,
                recv,
                ok,
            });
        }
        Ok(resp)
    }

    fn mismatch(&mut self, what: String) {
        self.out.mismatches.push(what);
    }

    fn running(&self) -> bool {
        self.ctx.now() < self.ctx.end_ns
    }
}

/// Values of each column of `base`, one per row — drawing from it is a
/// frequency-weighted value swap.
fn column_pools(base: &Table) -> Vec<Vec<Value>> {
    let arity = base.schema().arity();
    let mut pools = vec![Vec::with_capacity(base.len()); arity];
    for (_, row) in base.iter() {
        for (c, v) in row.iter().enumerate() {
            pools[c].push(v.clone());
        }
    }
    pools
}

/// Rows from a generator seeded apart from the base relation, so inserts
/// spread over many CFD groups instead of piling into one.
fn donor_rows(n: usize, seed: u64, tag: &str) -> Result<Vec<Vec<Value>>, String> {
    let d = dirty_customers(n, NOISE, seed);
    let t =
        d.db.table("customer")
            .map_err(|e| format!("donor relation: {e}"))?;
    Ok(t.iter()
        .map(|(_, row)| {
            let mut row = row.to_vec();
            let name = row[NAME_COL].as_str().unwrap_or_default().to_string();
            row[NAME_COL] = Value::str(format!("{tag}{name}"));
            row
        })
        .collect())
}

/// Run `per_conn` on `n` connections, one thread each, and merge.
fn on_connections(
    ctx: &Ctx,
    n: u64,
    per_conn: impl Fn(&mut Conn) -> Result<(), String> + Sync,
) -> Result<Outcome, String> {
    let start = ctx.now();
    let results: Vec<Result<Outcome, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|tag| {
                let per_conn = &per_conn;
                s.spawn(move || {
                    let mut conn = Conn::open(ctx, tag)?;
                    per_conn(&mut conn)?;
                    Ok(conn.out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut out = Outcome::default();
    for r in results {
        out.absorb(r?);
    }
    out.rounds.push(Round {
        samples: 0..out.samples.len(),
        reads: 0..out.read_ns.len(),
        elapsed_s: (ctx.now() - start) as f64 / 1e9,
    });
    Ok(out)
}

/// The read mix every reading workload cycles through.
pub const READ_MIX: [Request; 4] = [
    Request::Detect,
    Request::Audit,
    Request::LastReport,
    Request::Len,
];

/// read_only: 2 connections, closed loop, reads only. Every Detect must
/// equal `expected` (nothing writes, so the answer never changes).
pub fn read_only(ctx: &Ctx, expected: &Response) -> Result<Outcome, String> {
    on_connections(ctx, 2, |conn| {
        let mut i = conn.tag as usize;
        while conn.running() {
            let req = &READ_MIX[i % READ_MIX.len()];
            let resp = conn.call(Op::Read, req)?;
            if matches!(req, Request::Detect) && resp != *expected {
                conn.mismatch(format!("read_only detect changed: {resp:?}"));
            }
            i += 1;
        }
        Ok(())
    })
}

/// edit_stream: 2 connections, closed loop; each iteration sends one
/// single-row mutation, then a Detect or Audit of the new epoch.
pub fn edit_stream(ctx: &Ctx, base: &Table) -> Result<Outcome, String> {
    let pools = column_pools(base);
    let r = ctx.round;
    let donors: Vec<Vec<Vec<Value>>> = (0..2u64)
        .map(|c| {
            donor_rows(
                1_000,
                ctx.seed ^ (0xD0_0000 + (r << 8) + c),
                &format!("r{r}c{c}-"),
            )
        })
        .collect::<Result<_, _>>()?;
    on_connections(ctx, 2, |conn| {
        let c = conn.tag as usize;
        let mut rng = Rng::new(ctx.seed.wrapping_mul(31).wrapping_add((r << 8) + c as u64));
        let mut own: Vec<RowId> = Vec::new();
        let mut donor = 0usize;
        let mut k = 0u64;
        while conn.running() {
            // Connections edit disjoint base rows (parity of the id), so
            // two in-flight writes are never the same request.
            let row = RowId((2 * rng.below(BASE_ROWS / 2) + c) as u64);
            let roll = rng.below(100);
            let req = if roll < 55 {
                let col = CFD_COLS[rng.below(CFD_COLS.len())];
                let value = pools[col][rng.below(pools[col].len())].clone();
                Request::UpdateCell { row, col, value }
            } else if roll < 70 {
                let value = Value::str(format!("edit-{r}-{c}-{k}"));
                Request::UpdateCell {
                    row,
                    col: NAME_COL,
                    value,
                }
            } else if roll < 88 || own.is_empty() {
                let row = donors[c][donor % donors[c].len()].clone();
                donor += 1;
                Request::Insert { row }
            } else {
                let row = own.swap_remove(rng.below(own.len()));
                Request::Delete { row }
            };
            k += 1;
            match (conn.call(Op::Write, &req)?, &req) {
                (Response::Inserted { row }, _) => {
                    own.push(row);
                    conn.out.inserted += 1;
                    conn.out.mutations += 1;
                }
                (Response::Deleted { .. }, _) => {
                    conn.out.deleted += 1;
                    conn.out.mutations += 1;
                }
                (Response::CellUpdated { .. }, _) => conn.out.mutations += 1,
                (Response::Error { .. }, _) => {}
                (other, req) => conn.mismatch(format!("{} answered {other:?}", req.kind_str())),
            }
            let read = if k.is_multiple_of(2) {
                Request::Detect
            } else {
                Request::Audit
            };
            conn.call(Op::Read, &read)?;
        }
        Ok(())
    })
}

/// The `ApplyBatch` frames bulk_ingest sends, built before the run.
pub fn ingest_frames(seed: u64) -> Result<Vec<Request>, String> {
    let rows = donor_rows(BATCH_ROWS * BATCH_FRAMES, seed ^ 0xB01C, "b-")?;
    Ok(rows
        .chunks(BATCH_ROWS)
        .map(|chunk| Request::ApplyBatch {
            batch: chunk.iter().cloned().map(Mutation::Insert).collect(),
        })
        .collect())
}

/// bulk_ingest: 1 connection, closed loop, a fixed number of frames.
pub fn bulk_ingest(ctx: &Ctx, frames: &[Request]) -> Result<Outcome, String> {
    on_connections(ctx, 1, |conn| {
        for frame in frames {
            let Request::ApplyBatch { batch } = frame else {
                unreachable!("ingest frames are batches")
            };
            match conn.call(Op::Batch, frame)? {
                Response::BatchApplied { applied, inserted }
                    if applied == batch.len() && inserted.len() == batch.len() =>
                {
                    conn.out.inserted += inserted.len() as u64;
                    conn.out.mutations += applied as u64;
                }
                Response::Error { .. } => {}
                other => conn.mismatch(format!("apply_batch answered {other:?}")),
            }
        }
        Ok(())
    })
}

/// repair_cycle: 1 connection. Each cycle dirties ~2% of rows with one
/// `SetCell` batch of value swaps, repairs, and detects; the repair's
/// residual must equal the violations of the detect after it.
pub fn repair_cycle(ctx: &Ctx, base: &Table) -> Result<Outcome, String> {
    let pools = column_pools(base);
    let dirty = (BASE_ROWS as f64 * DIRTY_FRAC) as usize;
    on_connections(ctx, 1, |conn| {
        let mut rng = Rng::new(ctx.seed ^ 0x4E9A ^ (ctx.round << 16));
        loop {
            let batch: MutationBatch = (0..dirty)
                .map(|_| {
                    let col = CFD_COLS[rng.below(CFD_COLS.len())];
                    Mutation::SetCell {
                        row: RowId(rng.below(BASE_ROWS) as u64),
                        col,
                        value: pools[col][rng.below(pools[col].len())].clone(),
                    }
                })
                .collect();
            match conn.call(Op::Batch, &Request::ApplyBatch { batch })? {
                Response::BatchApplied { applied, .. } if applied == dirty => {
                    conn.out.mutations += applied as u64;
                }
                Response::Error { .. } => {}
                other => conn.mismatch(format!("apply_batch answered {other:?}")),
            }
            let repaired = conn.call(Op::Repair, &Request::Repair)?;
            if matches!(repaired, Response::Repaired(_)) {
                conn.out.mutations += 1;
            }
            let detected = conn.call(Op::Read, &Request::Detect)?;
            match (repaired, detected) {
                (Response::Repaired(r), Response::Report(d)) if r.residual == d.violations => {}
                (Response::Error { .. }, _) | (_, Response::Error { .. }) => {}
                (r, d) => conn.mismatch(format!("repair residual vs next detect: {r:?} / {d:?}")),
            }
            if !conn.running() {
                return Ok(());
            }
        }
    })
}

/// One Detect over a fresh connection: the latest served report.
pub fn served_detect(addr: SocketAddr) -> Result<ReportSummary, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    match client.request(&Request::Detect) {
        Ok(Response::Report(r)) => Ok(r),
        Ok(other) => Err(format!("final detect answered {other:?}")),
        Err(e) => Err(format!("final detect: {e}")),
    }
}
