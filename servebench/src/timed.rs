//! `Timed<B>`: a span-recording [`QualityBackend`] decorator.
//!
//! The traced run composes `Timed<Durable<Timed<ShardedQualityServer>>>`:
//! the outer wrapper sees every call the serving engine makes, the inner
//! one sees what reaches the cluster after the WAL, so outer − inner on a
//! mutation is the WAL's share. Spans are kept in memory and written out
//! when the run ends. A mutation span carries the id of the client
//! request it belongs to: clients register each in-flight write with the
//! [`Recorder`], and the decorator matches the call's arguments against
//! those requests.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use semandaq::api::{
    BatchOutcome, Capabilities, MutationBatch, QualityBackend, RepairSummary, Request,
};
use semandaq::audit::QualityReport;
use semandaq::cfd::CfdResult;
use semandaq::detect::ViolationReport;
use semandaq::minidb::{RowId, Value};

/// Which decorator recorded a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Outside `Durable`: what the serving engine calls.
    Outer,
    /// Inside `Durable`: what reaches the cluster.
    Inner,
}

/// One timed backend call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Client request id of the write this call serves, if matched.
    pub req: Option<u64>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Writes currently in flight: (request id, the request).
    inflight: Vec<(u64, Request)>,
}

/// The shared span sink of every decorator and client in a traced run.
pub struct Recorder {
    origin: Instant,
    state: Mutex<State>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Arc<Recorder> {
        Arc::new(Recorder {
            origin,
            state: Mutex::new(State::default()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("span recorder poisoned by a panicking thread")
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A client is about to send write `id`.
    pub fn begin_write(&self, id: u64, request: &Request) {
        self.lock().inflight.push((id, request.clone()));
    }

    /// Write `id` was answered.
    pub fn end_write(&self, id: u64) {
        self.lock().inflight.retain(|(i, _)| *i != id);
    }

    /// The in-flight write `matches` picks out, if any.
    fn find(&self, matches: impl Fn(&Request) -> bool) -> Option<u64> {
        let st = self.lock();
        st.inflight
            .iter()
            .find(|(_, r)| matches(r))
            .map(|(id, _)| *id)
    }

    fn open(&self, name: &'static str, layer: Layer, req: Option<u64>) -> usize {
        let start = self.now();
        let mut st = self.lock();
        let parent = st.open.last().copied();
        let req = req.or_else(|| parent.and_then(|p| st.spans[p].req));
        let idx = st.spans.len();
        st.spans.push(Span {
            name,
            layer,
            start,
            end: start,
            parent,
            req,
        });
        st.open.push(idx);
        idx
    }

    fn close(&self, idx: usize) {
        let end = self.now();
        let mut st = self.lock();
        st.spans[idx].end = end;
        let top = st.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// The decorator. Forwards every [`QualityBackend`] method, defaulted
/// ones included, so wrapping changes no behaviour.
pub struct Timed<B> {
    inner: B,
    rec: Arc<Recorder>,
    layer: Layer,
}

impl<B> Timed<B> {
    pub fn new(inner: B, rec: Arc<Recorder>, layer: Layer) -> Timed<B> {
        Timed { inner, rec, layer }
    }

    /// The client write a mutation call serves. Only the outer decorator
    /// searches; inner spans inherit the id from their parent.
    fn write_id(&self, matches: impl Fn(&Request) -> bool) -> Option<u64> {
        match self.layer {
            Layer::Outer => self.rec.find(matches),
            Layer::Inner => None,
        }
    }
}

/// Time `$call` as span `$name`, tagged with client write `$req`.
macro_rules! timed {
    ($self:ident, $name:literal, $req:expr, $call:expr) => {{
        let idx = $self.rec.open($name, $self.layer, $req);
        let out = $call;
        $self.rec.close(idx);
        out
    }};
}

impl<B: QualityBackend> QualityBackend for Timed<B> {
    fn capabilities(&self) -> Capabilities {
        timed!(self, "capabilities", None, self.inner.capabilities())
    }
    fn register_cfds(&mut self, text: &str) -> CfdResult<usize> {
        timed!(self, "register_cfds", None, self.inner.register_cfds(text))
    }
    fn insert(&mut self, row: Vec<Value>) -> CfdResult<RowId> {
        let req = self.write_id(|r| matches!(r, Request::Insert { row: x } if *x == row));
        timed!(self, "insert", req, self.inner.insert(row))
    }
    fn delete(&mut self, row: RowId) -> CfdResult<Vec<Value>> {
        let req = self.write_id(|r| matches!(r, Request::Delete { row: x } if *x == row));
        timed!(self, "delete", req, self.inner.delete(row))
    }
    fn update_cell(&mut self, row: RowId, col: usize, value: Value) -> CfdResult<Value> {
        let req = self.write_id(|r| {
            matches!(r, Request::UpdateCell { row: x, col: c, value: v }
                if *x == row && *c == col && *v == value)
        });
        timed!(
            self,
            "update_cell",
            req,
            self.inner.update_cell(row, col, value)
        )
    }
    fn apply_batch(&mut self, batch: MutationBatch) -> CfdResult<BatchOutcome> {
        let req = self.write_id(|r| matches!(r, Request::ApplyBatch { batch: b } if *b == batch));
        timed!(self, "apply_batch", req, self.inner.apply_batch(batch))
    }
    fn detect(&mut self) -> CfdResult<ViolationReport> {
        timed!(self, "detect", None, self.inner.detect())
    }
    fn audit(&mut self) -> CfdResult<QualityReport> {
        timed!(self, "audit", None, self.inner.audit())
    }
    fn last_report(&self) -> Option<ViolationReport> {
        timed!(self, "last_report", None, self.inner.last_report())
    }
    fn len(&self) -> usize {
        timed!(self, "len", None, self.inner.len())
    }
    fn is_empty(&self) -> bool {
        timed!(self, "is_empty", None, self.inner.is_empty())
    }
    fn repair(&mut self) -> CfdResult<RepairSummary> {
        let req = self.write_id(|r| matches!(r, Request::Repair));
        timed!(self, "repair", req, self.inner.repair())
    }
    fn metrics(&self) -> CfdResult<semandaq::obs::MetricsReport> {
        timed!(self, "metrics", None, self.inner.metrics())
    }
    fn export_rows(&self) -> CfdResult<Vec<(RowId, Vec<Value>)>> {
        timed!(self, "export_rows", None, self.inner.export_rows())
    }
    fn restore_row(&mut self, id: RowId, row: Vec<Value>) -> CfdResult<()> {
        timed!(self, "restore_row", None, self.inner.restore_row(id, row))
    }
    fn next_row_id(&self) -> CfdResult<u64> {
        timed!(self, "next_row_id", None, self.inner.next_row_id())
    }
    fn restore_arena(&mut self, next: u64) -> CfdResult<()> {
        timed!(self, "restore_arena", None, self.inner.restore_arena(next))
    }
    fn trace(&self) -> CfdResult<semandaq::obs::TraceReport> {
        timed!(self, "trace", None, self.inner.trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semandaq::api::wire::dispatch;
    use semandaq::api::{Mutation, Response};
    use semandaq::cluster::{HashRouter, ShardedQualityServer};
    use semandaq::datagen::customer::{customer_schema, CANONICAL_CFDS};
    use semandaq::datagen::dirty_customers;
    use semandaq::durable::Durable;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("servebench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cluster(table: Option<&semandaq::minidb::Table>) -> ShardedQualityServer {
        let router = Box::new(HashRouter::new(vec![0]));
        match table {
            Some(t) => ShardedQualityServer::partition(t, 2, router).unwrap(),
            None => ShardedQualityServer::new("customer", customer_schema(), 2, router),
        }
    }

    /// Detection, audit, repair and recovery answer the same with the
    /// decorator on both sides of the WAL as without it.
    #[test]
    fn decorator_changes_no_answer() {
        let data = dirty_customers(2_000, 0.05, 7);
        let table = data.db.table("customer").unwrap().clone();
        let donor = |i: usize| {
            let mut row = table.get(RowId(i as u64)).unwrap().to_vec();
            row[0] = Value::str(format!("donor{i}"));
            row
        };
        let script = vec![
            Request::RegisterCfds {
                text: CANONICAL_CFDS.into(),
            },
            Request::Detect,
            Request::Audit,
            Request::UpdateCell {
                row: RowId(3),
                col: 2,
                value: Value::str("Elsewhere"),
            },
            Request::Insert { row: donor(5) },
            Request::Delete { row: RowId(2_000) },
            Request::ApplyBatch {
                batch: (10..60)
                    .map(|i| Mutation::Insert(donor(i)))
                    .chain([Mutation::SetCell {
                        row: RowId(7),
                        col: 1,
                        value: Value::str("NL"),
                    }])
                    .collect(),
            },
            Request::Detect,
            Request::Audit,
            Request::Repair,
            Request::Detect,
            Request::Audit,
            Request::LastReport,
            Request::Len,
            Request::Capabilities,
        ];
        let (dir_a, dir_b) = (scratch("plain"), scratch("timed"));
        let rec = Recorder::new(Instant::now());
        let mut plain = Durable::open(&dir_a, cluster(Some(&table))).unwrap();
        let inner = Timed::new(cluster(Some(&table)), Arc::clone(&rec), Layer::Inner);
        let mut timed = Timed::new(
            Durable::open(&dir_b, inner).unwrap(),
            Arc::clone(&rec),
            Layer::Outer,
        );
        for req in script {
            let a = dispatch(&mut plain, req.clone());
            let b = dispatch(&mut timed, req.clone());
            assert!(
                !matches!(a, Response::Error { .. }),
                "{req:?} failed: {a:?}"
            );
            assert_eq!(a, b, "answers to {req:?} differ");
        }
        assert_eq!(plain.export_rows().unwrap(), timed.export_rows().unwrap());
        assert_eq!(plain.next_row_id().unwrap(), timed.next_row_id().unwrap());
        plain.checkpoint().unwrap();
        timed.inner.checkpoint().unwrap();
        drop((plain, timed));

        // Recovery through the decorator (restore_row / restore_arena)
        // rebuilds the same relation.
        let mut a = Durable::open(&dir_a, cluster(None)).unwrap();
        let inner = Timed::new(cluster(None), Arc::clone(&rec), Layer::Inner);
        let mut b = Durable::open(&dir_b, inner).unwrap();
        assert_eq!(a.export_rows().unwrap(), b.export_rows().unwrap());
        assert_eq!(
            dispatch(&mut a, Request::Detect),
            dispatch(&mut b, Request::Detect)
        );
        assert!(rec.spans().iter().any(|s| s.name == "restore_row"));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
