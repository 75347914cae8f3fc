//! The long-running query server.
//!
//! One immutable [`Compiled`] image is shared (via `Arc`) by a bounded
//! pool of `std::thread` workers that answer independent queries
//! against it. The run queue is **sharded**: each worker owns one
//! lock-protected deque, submitters scatter requests round-robin
//! across the shards, and a worker that drains its own shard dry
//! steals a bounded batch (at most half the victim's queue, capped at
//! `max_batch`) from a sibling before sleeping. Workers contend on
//! their own shard's lock, not one global queue lock; a small
//! coordination mutex tracks only the global pending count for
//! backpressure (submitters block while `pending >= queue_capacity`)
//! and sleep/wake. Workers drain requests in small batches, paying
//! their shard lock once per batch rather than once per request, and
//! run batches back-to-back on the pinned image with per-query engine
//! state recycled through a per-worker arena pool
//! ([`symbol_intcode::batch::ArenaPool`]) — no per-query
//! register/heap allocation on the hot path. A query has one execution
//! path: a run request is the one-query batch of
//! [`Compiled::run_query_batch_obs`], on the same pooled arena a batch
//! request uses.
//!
//! Shard assignment, steal order and worker count are invisible in
//! the results: every query is an independent deterministic execution
//! of the same image, and [`QueryServer::finish`] returns answers in
//! id order — bit-identical to a sequential run of the same queries,
//! which the workspace determinism suite asserts.
//!
//! The server is panic-free by construction: each query runs under
//! `catch_unwind`, so even a defect that would panic the emulator is
//! converted into a failed [`QueryResult`] (and counted) instead of
//! killing the worker.
//!
//! ## Request kinds
//!
//! Besides plain run queries ([`QueryServer::submit`]), the pool
//! answers live [`QueryServer::submit_stats`] requests from the same
//! queue: a stats request snapshots the shared registry, folds the
//! per-stage latency histograms into p50/p90/p99 quantile views, and
//! attaches the image's hottest program counters — so an operator can
//! interrogate a running server without stopping it.
//!
//! ## Observability
//!
//! All on the registry handed to [`QueryServer::start`]:
//!
//! * `serve.queries.ok` / `serve.queries.failed` /
//!   `serve.queries.panicked` counters,
//! * a `serve.tier` counter labelled `tier=fused` / `tier=decoded`
//!   with which execution tier answered each successful query,
//! * `serve.queue.depth` gauge, incremented on enqueue and
//!   decremented on dequeue (exactly zero once the queue drains),
//!   plus a per-shard `serve.queue.depth{shard=i}` gauge per worker,
//! * `serve.shard.steals{shard=i}` / `serve.shard.stolen{shard=i}`
//!   counters — steal sweeps worker `i` performed and requests it
//!   took from siblings,
//! * `serve.batch` histogram of batch sizes, with per-shard
//!   `serve.shard.batch{shard=i}` and `serve.shard.run.ns{shard=i}`
//!   (wall time of each claimed batch) breakdowns,
//! * `serve.batch.queries` counter of sub-queries answered through
//!   batched [`QueryServer::submit_batch`] requests,
//! * `serve.stage.ns` histograms labelled `stage=queue_wait` /
//!   `select` / `execute` and by `tier` — the per-stage latency split
//!   live stats queries report quantiles over,
//! * a per-request `serve.query{req, n, tier}` trace span (see
//!   [`Compiled::run_query_batch_obs`]).
//!
//! And, independent of the registry, a lock-free
//! [`FlightRecorder`] ring capturing the last
//! `ServerConfig::flight_capacity` structured events (enqueue,
//! dequeue, query start/end, stats, dumps). When a query exceeds
//! `ServerConfig::slow_query_ns` or panics and
//! `ServerConfig::flight_dir` is set, the ring is dumped to an
//! ndjson file stamped with the offending request id.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use symbol_core::pipeline::Compiled;
use symbol_intcode::batch::ArenaPool;
use symbol_obs::{FlightKind, FlightRecorder, Gauge, QuantileView, Registry, Snapshot};

/// Tuning knobs of a [`QueryServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Maximum queued requests before [`QueryServer::submit`] blocks
    /// (clamped to at least 1).
    pub queue_capacity: usize,
    /// Maximum requests a worker takes per lock acquisition (clamped
    /// to at least 1).
    pub max_batch: usize,
    /// Flight-recorder ring capacity in records (0 disables the
    /// recorder entirely).
    pub flight_capacity: usize,
    /// Directory incident dumps are written to. `None` disables
    /// dumping; the directory is created on first dump.
    pub flight_dir: Option<PathBuf>,
    /// Execute-time threshold (nanoseconds) beyond which a query is
    /// considered slow and triggers a flight dump.
    pub slow_query_ns: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            max_batch: 8,
            flight_capacity: 1024,
            flight_dir: None,
            slow_query_ns: None,
        }
    }
}

/// What a request asks the pool to do.
#[derive(Clone, Debug)]
enum Request {
    /// Run the compiled query once (the one-query batch).
    Run(u64),
    /// Run `n` independent executions of the compiled query
    /// back-to-back on one worker, with engine state pooled between
    /// them ([`Compiled::run_query_batch_obs`]).
    RunBatch(u64, usize),
    /// Produce a live [`StatsReport`].
    Stats(u64),
    /// Panic inside the protected region — exercises the containment
    /// and panic-dump paths end to end (used by tests and smoke
    /// drills, never by normal serving).
    PanicProbe(u64),
}

impl Request {
    fn id(&self) -> u64 {
        match self {
            Request::Run(id)
            | Request::RunBatch(id, _)
            | Request::Stats(id)
            | Request::PanicProbe(id) => *id,
        }
    }
}

/// A queued request and when it entered the queue.
struct Pending {
    req: Request,
    enqueued: Instant,
}

/// The live statistics a stats query ([`QueryServer::submit_stats`])
/// answers with.
#[derive(Clone, Debug)]
pub struct StatsReport {
    /// The stats request's own id.
    pub request_id: u64,
    /// Quantiles of `serve.stage.ns{stage=queue_wait}`, merged across
    /// tiers (`None` until at least one query has been served).
    pub queue_wait: Option<QuantileView>,
    /// Quantiles of the tier-selection stage.
    pub select: Option<QuantileView>,
    /// Quantiles of the execute stage.
    pub execute: Option<QuantileView>,
    /// The image's hottest program counters `(pc, executions)` from a
    /// deterministic profiling run, hottest first.
    pub hot_pcs: Vec<(usize, u64)>,
    /// Full metric snapshot at answer time.
    pub snapshot: Snapshot,
}

impl StatsReport {
    /// Renders the report as one JSON document (`metrics` embeds the
    /// full `metrics.json` snapshot).
    pub fn to_json(&self) -> String {
        let quantiles = |v: &Option<QuantileView>| match v {
            Some(q) => format!(
                "{{\"count\": {}, \"p50\": {:.1}, \"p90\": {:.1}, \"p99\": {:.1}, \"max\": {}}}",
                q.count, q.p50, q.p90, q.p99, q.max
            ),
            None => "null".to_string(),
        };
        let hot: Vec<String> = self
            .hot_pcs
            .iter()
            .map(|(pc, n)| format!("{{\"pc\": {pc}, \"count\": {n}}}"))
            .collect();
        format!(
            "{{\"request_id\": {}, \"stages\": {{\"queue_wait\": {}, \"select\": {}, \
             \"execute\": {}}}, \"hot_pcs\": [{}], \"metrics\": {}}}",
            self.request_id,
            quantiles(&self.queue_wait),
            quantiles(&self.select),
            quantiles(&self.execute),
            hot.join(", "),
            self.snapshot.to_json()
        )
    }
}

/// What a successful request produced.
#[derive(Clone, Debug)]
pub enum QueryAnswer {
    /// Emulator steps of a successful run query.
    Steps(u64),
    /// Per-execution emulator steps of a successful batch request, in
    /// submission (index) order — position `i` is the `i`-th query of
    /// the batch, independent of which worker ran it.
    Batch(Vec<u64>),
    /// The report of a live stats query (boxed: the report carries a
    /// full metric snapshot and would otherwise dominate the enum).
    Stats(Box<StatsReport>),
}

impl QueryAnswer {
    /// The step count, if this answered a run query.
    pub fn steps(&self) -> Option<u64> {
        match self {
            QueryAnswer::Steps(s) => Some(*s),
            QueryAnswer::Batch(_) | QueryAnswer::Stats(_) => None,
        }
    }

    /// The per-query step counts, if this answered a batch request.
    pub fn batch(&self) -> Option<&[u64]> {
        match self {
            QueryAnswer::Batch(v) => Some(v),
            QueryAnswer::Steps(_) | QueryAnswer::Stats(_) => None,
        }
    }

    /// The report, if this answered a stats query.
    pub fn stats(&self) -> Option<&StatsReport> {
        match self {
            QueryAnswer::Stats(r) => Some(r),
            QueryAnswer::Steps(_) | QueryAnswer::Batch(_) => None,
        }
    }
}

/// The answer to one query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The id passed to [`QueryServer::submit`] (or
    /// [`QueryServer::submit_stats`]).
    pub id: u64,
    /// The answer on success; a rendered error otherwise. A worker
    /// panic surfaces here as an error string, never as a dead
    /// thread.
    pub outcome: Result<QueryAnswer, String>,
}

/// One worker's run queue. Submitters push round-robin; the owning
/// worker drains from the front; siblings steal bounded batches from
/// the front when their own shard runs dry. Each shard has its own
/// lock, so workers contend with at most one submitter (or one
/// thief), never with the whole pool.
struct Shard {
    queue: Mutex<VecDeque<Pending>>,
    /// `serve.queue.depth{shard=i}`.
    depth: Gauge,
}

/// The only pool-global mutable state: how many submitted requests no
/// worker has claimed yet, and whether the server is shutting down.
/// Guards backpressure and sleep/wake — never the request data itself.
struct Coord {
    /// Submitted requests not yet claimed by a worker. Zero implies
    /// every shard queue is empty (requests are counted until the
    /// moment they leave a shard).
    pending: usize,
    closed: bool,
}

struct Shared {
    shards: Vec<Shard>,
    coord: Mutex<Coord>,
    /// Signalled when requests arrive or the queue closes.
    work: Condvar,
    /// Signalled when a batch is claimed (space for submitters).
    space: Condvar,
    /// Round-robin submit cursor over the shards.
    rr: AtomicU64,
    results: Mutex<Vec<QueryResult>>,
    capacity: usize,
    max_batch: usize,
    /// `serve.queue.depth` (global): +1 on enqueue, -batch on dequeue.
    depth: Gauge,
    flight: Arc<FlightRecorder>,
    flight_dir: Option<PathBuf>,
    slow_query_ns: Option<u64>,
    /// Distinguishes dump files triggered by the same request id.
    dump_seq: AtomicU64,
    /// Hottest pcs of the shared image, profiled lazily on the first
    /// stats query (deterministic, so once is enough).
    hot_pcs: OnceLock<Vec<(usize, u64)>>,
}

/// A running worker pool answering queries against one shared
/// [`Compiled`] image. Dropping the server without calling
/// [`QueryServer::finish`] also shuts it down cleanly (results are
/// discarded).
pub struct QueryServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Writes the flight ring to `flight_dir` with a header line naming
/// the triggering request. Never panics: dump failures are counted
/// and otherwise ignored — an incident dump must not take the server
/// down with it.
fn dump_flight(shared: &Shared, obs: &Registry, req_id: u64, reason: &str, elapsed_ns: u64) {
    let Some(dir) = &shared.flight_dir else {
        return;
    };
    if !shared.flight.enabled() {
        return;
    }
    shared.flight.record(FlightKind::Dump, req_id, 0);
    let n = shared.dump_seq.fetch_add(1, Ordering::Relaxed);
    let mut doc = format!(
        "{{\"request_id\": {req_id}, \"reason\": \"{reason}\", \"elapsed_ns\": {elapsed_ns}, \
         \"dropped\": {}}}\n",
        shared.flight.dropped()
    );
    doc.push_str(&shared.flight.dump_ndjson());
    let ok = std::fs::create_dir_all(dir).is_ok()
        && std::fs::write(dir.join(format!("flight-{req_id}-{n}.ndjson")), doc).is_ok();
    let status = if ok { "ok" } else { "write_failed" };
    obs.counter(
        "serve.flight.dumps",
        &[("reason", reason), ("status", status)],
    )
    .inc();
}

fn stats_report(compiled: &Compiled, obs: &Registry, shared: &Shared, id: u64) -> StatsReport {
    let hot_pcs = shared
        .hot_pcs
        .get_or_init(|| {
            compiled
                .profile()
                .map(|(stats, _, _)| stats.hot_pcs(8))
                .unwrap_or_default()
        })
        .clone();
    let snapshot = obs.snapshot();
    let stage = |name: &str| {
        QuantileView::from_samples(snapshot.histograms.iter().filter(|h| {
            h.name == "serve.stage.ns" && h.labels.iter().any(|(k, v)| k == "stage" && v == name)
        }))
    };
    StatsReport {
        request_id: id,
        queue_wait: stage("queue_wait"),
        select: stage("select"),
        execute: stage("execute"),
        hot_pcs,
        snapshot,
    }
}

fn run_one(
    compiled: &Compiled,
    req: &Request,
    waited_ns: u64,
    obs: &Registry,
    shared: &Shared,
    pool: &mut ArenaPool,
) -> QueryResult {
    let id = req.id();
    let flight = &shared.flight;
    // Tier selection is timed as its own stage: today it is one
    // branch, but it is where a multi-image server would route, and
    // the split keeps queue wait and execute honest.
    let t_select = Instant::now();
    let tier = if compiled.fused.is_some() {
        "fused"
    } else {
        "decoded"
    };
    let select_ns = t_select.elapsed().as_nanos() as u64;
    obs.histogram("serve.stage.ns", &[("stage", "queue_wait"), ("tier", tier)])
        .record(waited_ns);
    obs.histogram("serve.stage.ns", &[("stage", "select"), ("tier", tier)])
        .record(select_ns);

    if let Request::Stats(id) = req {
        flight.record(FlightKind::StatsQuery, *id, 0);
        let report = stats_report(compiled, obs, shared, *id);
        obs.counter("serve.queries.stats", &[]).inc();
        return QueryResult {
            id: *id,
            outcome: Ok(QueryAnswer::Stats(Box::new(report))),
        };
    }

    let start_payload = match req {
        Request::RunBatch(_, n) => *n as u64,
        _ => 0,
    };
    flight.record(FlightKind::QueryStart, id, start_payload);
    let t_exec = Instant::now();
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match req {
        Request::PanicProbe(_) => panic!("panic probe"),
        Request::RunBatch(_, n) => {
            let answers = compiled.run_query_batch_obs(obs, id, *n, pool);
            let mut steps = Vec::with_capacity(answers.len());
            for (i, a) in answers.into_iter().enumerate() {
                match a {
                    Ok(s) => steps.push(s),
                    Err(e) => return Err(format!("batch sub-query {i} of {n}: {e}")),
                }
            }
            Ok(QueryAnswer::Batch(steps))
        }
        _ => match compiled.run_query_batch_obs(obs, id, 1, pool).pop() {
            Some(Ok(steps)) => Ok(QueryAnswer::Steps(steps)),
            Some(Err(e)) => Err(e.to_string()),
            None => Err("query produced no answer".to_string()),
        },
    }));
    let execute_ns = t_exec.elapsed().as_nanos() as u64;
    obs.histogram("serve.stage.ns", &[("stage", "execute"), ("tier", tier)])
        .record(execute_ns);
    let panicked = ran.is_err();
    let outcome = match ran {
        Ok(Ok(ans)) => {
            obs.counter("serve.queries.ok", &[]).inc();
            obs.counter("serve.tier", &[("tier", tier)]).inc();
            let payload = match &ans {
                QueryAnswer::Steps(s) => *s,
                QueryAnswer::Batch(v) => {
                    obs.counter("serve.batch.queries", &[]).add(v.len() as u64);
                    v.iter().sum()
                }
                QueryAnswer::Stats(_) => 0,
            };
            flight.record(FlightKind::QueryOk, id, payload);
            Ok(ans)
        }
        Ok(Err(e)) => {
            obs.counter("serve.queries.failed", &[]).inc();
            flight.record(FlightKind::QueryFail, id, 0);
            Err(e)
        }
        Err(_) => {
            obs.counter("serve.queries.panicked", &[]).inc();
            flight.record(FlightKind::QueryPanic, id, 0);
            dump_flight(shared, obs, id, "panic", execute_ns);
            Err("query panicked".to_string())
        }
    };
    if !panicked && shared.slow_query_ns.is_some_and(|t| execute_ns >= t) {
        dump_flight(shared, obs, id, "slow", execute_ns);
    }
    QueryResult { id, outcome }
}

fn worker_loop(shard_id: usize, shared: &Shared, compiled: &Compiled, obs: &Registry) {
    let shard_label = shard_id.to_string();
    let batch_sizes = obs.histogram("serve.batch", &[]);
    let shard_batch = obs.histogram("serve.shard.batch", &[("shard", &shard_label)]);
    let shard_run_ns = obs.histogram("serve.shard.run.ns", &[("shard", &shard_label)]);
    let steals = obs.counter("serve.shard.steals", &[("shard", &shard_label)]);
    let stolen = obs.counter("serve.shard.stolen", &[("shard", &shard_label)]);
    let mut pool = ArenaPool::new();
    let n_shards = shared.shards.len();
    loop {
        // 1. Drain the worker's own shard first (one lock, one batch).
        let mut batch: Vec<Pending> = {
            let own = &shared.shards[shard_id];
            let mut q = own.queue.lock().expect("shard lock");
            let n = q.len().min(shared.max_batch);
            let taken: Vec<Pending> = q.drain(..n).collect();
            drop(q);
            if n > 0 {
                own.depth.add(-(n as i64));
            }
            taken
        };
        // 2. Own shard dry: one bounded steal sweep over the siblings,
        //    taking at most half the first non-empty victim's queue
        //    (capped at max_batch) so the victim keeps local work.
        if batch.is_empty() && n_shards > 1 {
            for step in 1..n_shards {
                let victim = &shared.shards[(shard_id + step) % n_shards];
                let mut q = victim.queue.lock().expect("shard lock");
                if q.is_empty() {
                    continue;
                }
                let n = q.len().div_ceil(2).min(shared.max_batch);
                batch = q.drain(..n).collect();
                drop(q);
                victim.depth.add(-(n as i64));
                steals.inc();
                stolen.add(n as u64);
                break;
            }
        }
        if batch.is_empty() {
            // 3. Nothing visible anywhere: sleep or exit under the
            //    coordination lock. `pending > 0` here means a submit
            //    or a sibling's claim raced our scan — rescan rather
            //    than sleep, so no request is ever stranded.
            let coord = shared.coord.lock().expect("coord lock");
            if coord.pending > 0 {
                drop(coord);
                std::thread::yield_now();
                continue;
            }
            if coord.closed {
                return;
            }
            drop(shared.work.wait(coord).expect("coord lock"));
            continue;
        }
        // 4. Claimed a batch: release backpressure, then run it
        //    back-to-back on the pinned image.
        let n = batch.len();
        {
            let mut coord = shared.coord.lock().expect("coord lock");
            coord.pending -= n;
            shared.space.notify_all();
        }
        shared.depth.add(-(n as i64));
        shared
            .flight
            .record(FlightKind::Dequeue, batch[0].req.id(), n as u64);
        batch_sizes.record(n as u64);
        shard_batch.record(n as u64);
        let t_run = Instant::now();
        let answered: Vec<QueryResult> = batch
            .drain(..)
            .map(|p| {
                let waited_ns = p.enqueued.elapsed().as_nanos() as u64;
                run_one(compiled, &p.req, waited_ns, obs, shared, &mut pool)
            })
            .collect();
        shard_run_ns.record(t_run.elapsed().as_nanos() as u64);
        shared
            .results
            .lock()
            .expect("results lock")
            .extend(answered);
    }
}

impl QueryServer {
    /// Starts `cfg.workers` threads serving queries against
    /// `compiled`. The registry may be shared with the artifact cache
    /// so one `metrics.json` covers both tiers.
    pub fn start(compiled: Arc<Compiled>, cfg: &ServerConfig, obs: &Registry) -> Self {
        Self::start_with_flight(
            compiled,
            cfg,
            obs,
            Arc::new(FlightRecorder::new(cfg.flight_capacity)),
        )
    }

    /// [`QueryServer::start`] recording into a caller-supplied flight
    /// ring instead of a fresh one — share it with the
    /// [`crate::cache::ArtifactCache`] (and across restarts of the
    /// server) so one dump shows cache and query traffic interleaved.
    /// `cfg.flight_capacity` is ignored on this path.
    pub fn start_with_flight(
        compiled: Arc<Compiled>,
        cfg: &ServerConfig,
        obs: &Registry,
        flight: Arc<FlightRecorder>,
    ) -> Self {
        let n_workers = cfg.workers.max(1);
        let shards = obs
            .indexed_gauges("serve.queue.depth", "shard", n_workers)
            .into_iter()
            .map(|depth| Shard {
                queue: Mutex::new(VecDeque::new()),
                depth,
            })
            .collect();
        let shared = Arc::new(Shared {
            shards,
            coord: Mutex::new(Coord {
                pending: 0,
                closed: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            rr: AtomicU64::new(0),
            results: Mutex::new(Vec::new()),
            capacity: cfg.queue_capacity.max(1),
            max_batch: cfg.max_batch.max(1),
            depth: obs.gauge("serve.queue.depth", &[]),
            flight,
            flight_dir: cfg.flight_dir.clone(),
            slow_query_ns: cfg.slow_query_ns,
            dump_seq: AtomicU64::new(0),
            hot_pcs: OnceLock::new(),
        });
        let workers = (0..n_workers)
            .map(|shard_id| {
                let shared = Arc::clone(&shared);
                let compiled = Arc::clone(&compiled);
                let obs = obs.clone();
                std::thread::spawn(move || worker_loop(shard_id, &shared, &compiled, &obs))
            })
            .collect();
        QueryServer { shared, workers }
    }

    /// The server's flight recorder (disabled when
    /// `ServerConfig::flight_capacity` was 0). Snapshot or dump it at
    /// any time, including while queries are in flight.
    pub fn flight(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.flight)
    }

    fn enqueue(&self, req: Request) {
        let id = req.id();
        let shared = &*self.shared;
        // Lock order is coord → shard (this is the only place both are
        // held); workers only ever take one lock at a time.
        let mut coord = shared.coord.lock().expect("coord lock");
        while coord.pending >= shared.capacity {
            coord = shared.space.wait(coord).expect("coord lock");
        }
        let ix = shared.rr.fetch_add(1, Ordering::Relaxed) as usize % shared.shards.len();
        let shard = &shared.shards[ix];
        shard.queue.lock().expect("shard lock").push_back(Pending {
            req,
            enqueued: Instant::now(),
        });
        shard.depth.add(1);
        coord.pending += 1;
        let depth = coord.pending as u64;
        shared.depth.add(1);
        shared.flight.record(FlightKind::Enqueue, id, depth);
        shared.work.notify_one();
    }

    /// Enqueues one run query, blocking while the queue is full.
    ///
    /// # Panics
    ///
    /// Panics if called after [`QueryServer::finish`] consumed the
    /// server (the borrow checker prevents this) or if a lock is
    /// poisoned, which only happens after a panic *outside* the
    /// `catch_unwind`-protected query path — an internal bug.
    pub fn submit(&self, id: u64) {
        self.enqueue(Request::Run(id));
    }

    /// Enqueues one batched run request: `n` independent executions of
    /// the compiled query, run back-to-back by whichever worker claims
    /// the request, with per-query engine state recycled through that
    /// worker's arena pool. Answers with [`QueryAnswer::Batch`] — one
    /// step count per execution, in index order.
    ///
    /// # Panics
    ///
    /// See [`QueryServer::submit`].
    pub fn submit_batch(&self, id: u64, n: usize) {
        self.enqueue(Request::RunBatch(id, n));
    }

    /// Enqueues a live stats query: the worker that dequeues it
    /// answers with a [`StatsReport`] over the shared registry instead
    /// of running the image.
    ///
    /// # Panics
    ///
    /// See [`QueryServer::submit`].
    pub fn submit_stats(&self, id: u64) {
        self.enqueue(Request::Stats(id));
    }

    /// Enqueues a request that panics inside the protected region —
    /// a containment drill for tests and smoke checks. The panic is
    /// caught, counted and (when a flight dir is configured) dumped,
    /// exactly like a real engine defect would be.
    ///
    /// # Panics
    ///
    /// See [`QueryServer::submit`] (the probe's own panic never
    /// escapes).
    pub fn submit_panic_probe(&self, id: u64) {
        self.enqueue(Request::PanicProbe(id));
    }

    /// Closes the queue, waits for every in-flight query, joins the
    /// workers and returns all results sorted by id.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panicked — impossible through
    /// the query path, which is `catch_unwind`-protected.
    pub fn finish(mut self) -> Vec<QueryResult> {
        self.close();
        for th in self.workers.drain(..) {
            th.join().expect("worker thread exited cleanly");
        }
        let mut results = std::mem::take(&mut *self.shared.results.lock().expect("results lock"));
        results.sort_by_key(|r| r.id);
        results
    }

    fn close(&self) {
        let mut coord = self.shared.coord.lock().expect("coord lock");
        coord.closed = true;
        self.shared.work.notify_all();
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.close();
        for th in self.workers.drain(..) {
            let _ = th.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled() -> Arc<Compiled> {
        Arc::new(Compiled::from_source("main :- X is 2 + 2, X = 4.").expect("compiles"))
    }

    /// A unique, self-cleaning temp dir for dump tests.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("symbol-serve-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn steps_of(r: &QueryResult) -> u64 {
        r.outcome
            .as_ref()
            .expect("query succeeds")
            .steps()
            .expect("run answer")
    }

    #[test]
    fn serves_many_queries_against_one_image() {
        let obs = Registry::new();
        let server = QueryServer::start(
            compiled(),
            &ServerConfig {
                workers: 4,
                queue_capacity: 8,
                max_batch: 4,
                ..ServerConfig::default()
            },
            &obs,
        );
        for id in 0..100 {
            server.submit(id);
        }
        let results = server.finish();
        assert_eq!(results.len(), 100);
        let steps = steps_of(&results[0]);
        for r in &results {
            assert_eq!(steps_of(r), steps);
        }
        assert_eq!(
            results.iter().map(|r| r.id).collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>()
        );
        assert_eq!(obs.counter("serve.queries.ok", &[]).get(), 100);
        assert_eq!(obs.counter("serve.queries.failed", &[]).get(), 0);
        assert_eq!(obs.counter("serve.queries.panicked", &[]).get(), 0);
        assert_eq!(
            obs.counter("serve.tier", &[("tier", "decoded")]).get(),
            100,
            "no fused tier installed: every query ran decoded"
        );
        assert!(obs.histogram("serve.batch", &[]).count() > 0);
        assert_eq!(
            obs.gauge("serve.queue.depth", &[]).get(),
            0,
            "every enqueue was matched by a dequeue"
        );
        assert_eq!(
            obs.histogram(
                "serve.stage.ns",
                &[("stage", "execute"), ("tier", "decoded")]
            )
            .count(),
            100,
            "every query recorded its execute latency"
        );
    }

    #[test]
    fn batch_requests_answer_per_query_steps_in_index_order() {
        let obs = Registry::new();
        let server = QueryServer::start(compiled(), &ServerConfig::default(), &obs);
        server.submit(0);
        server.submit_batch(1, 5);
        server.submit_batch(2, 1);
        let results = server.finish();
        assert_eq!(results.len(), 3);
        let single = steps_of(&results[0]);
        let batch = results[1]
            .outcome
            .as_ref()
            .expect("batch succeeds")
            .batch()
            .expect("batch answer");
        assert_eq!(batch.len(), 5);
        assert!(
            batch.iter().all(|&s| s == single),
            "pooled batch executions are bit-identical to the single-query path: \
             {batch:?} vs {single}"
        );
        assert_eq!(
            results[2].outcome.as_ref().unwrap().batch().unwrap(),
            &[single]
        );
        assert_eq!(obs.counter("serve.batch.queries", &[]).get(), 6);
        assert_eq!(obs.counter("serve.queries.ok", &[]).get(), 3);
        assert_eq!(obs.gauge("serve.queue.depth", &[]).get(), 0);
    }

    #[test]
    fn failing_batch_reports_the_first_failing_sub_query() {
        let obs = Registry::new();
        let failing =
            Arc::new(Compiled::from_source("main :- 1 = 2.").expect("compiles (query fails)"));
        let server = QueryServer::start(failing, &ServerConfig::default(), &obs);
        server.submit_batch(9, 4);
        let results = server.finish();
        assert_eq!(results.len(), 1);
        let err = results[0].outcome.as_ref().expect_err("batch fails");
        assert!(err.starts_with("batch sub-query 0 of 4:"), "{err}");
        assert_eq!(obs.counter("serve.queries.failed", &[]).get(), 1);
        assert_eq!(obs.counter("serve.batch.queries", &[]).get(), 0);
    }

    #[test]
    fn run_and_batch_requests_trace_one_query_span_each() {
        let obs = Registry::new();
        let server = QueryServer::start(compiled(), &ServerConfig::default(), &obs);
        server.submit(0);
        server.submit_batch(1, 3);
        server.finish();
        let mut spans: Vec<Vec<(String, String)>> = obs
            .trace_events()
            .into_iter()
            .filter(|e| e.name == "serve.query")
            .map(|e| e.labels)
            .collect();
        spans.sort();
        let labels = |req: &str, n: &str| {
            [("req", req), ("n", n), ("tier", "decoded")]
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .to_vec()
        };
        assert_eq!(spans, [labels("0", "1"), labels("1", "3")]);
        assert_eq!(obs.trace_events().len(), 2, "no other per-request span");
    }

    #[test]
    fn a_worker_with_a_dry_shard_steals_bounded_batches_from_a_sibling() {
        let obs = Registry::new();
        let compiled = compiled();
        let shards: Vec<Shard> = obs
            .indexed_gauges("serve.queue.depth", "shard", 2)
            .into_iter()
            .map(|depth| Shard {
                queue: Mutex::new(VecDeque::new()),
                depth,
            })
            .collect();
        let shared = Shared {
            shards,
            coord: Mutex::new(Coord {
                pending: 5,
                closed: true,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            rr: AtomicU64::new(0),
            results: Mutex::new(Vec::new()),
            capacity: 64,
            max_batch: 8,
            depth: obs.gauge("serve.queue.depth", &[]),
            flight: Arc::new(FlightRecorder::new(64)),
            flight_dir: None,
            slow_query_ns: None,
            dump_seq: AtomicU64::new(0),
            hot_pcs: OnceLock::new(),
        };
        {
            let mut q = shared.shards[1].queue.lock().unwrap();
            for id in 0..5 {
                q.push_back(Pending {
                    req: Request::Run(id),
                    enqueued: Instant::now(),
                });
            }
        }
        shared.shards[1].depth.add(5);
        shared.depth.add(5);
        // Worker 0's own shard is empty and the pool is already
        // closed: every request it answers must come through the
        // steal path, deterministically.
        worker_loop(0, &shared, &compiled, &obs);
        let results = shared.results.into_inner().unwrap();
        assert_eq!(results.len(), 5);
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        assert_eq!(
            obs.counter("serve.shard.steals", &[("shard", "0")]).get(),
            3,
            "ceil-half stealing drains 5 requests as 3 + 1 + 1"
        );
        assert_eq!(
            obs.counter("serve.shard.stolen", &[("shard", "0")]).get(),
            5
        );
        assert_eq!(obs.gauge("serve.queue.depth", &[("shard", "1")]).get(), 0);
        assert_eq!(obs.gauge("serve.queue.depth", &[]).get(), 0);
        assert_eq!(obs.counter("serve.queries.ok", &[]).get(), 5);
    }

    #[test]
    fn sharded_queues_account_depth_and_batches_per_worker() {
        let obs = Registry::new();
        let server = QueryServer::start(
            compiled(),
            &ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
            &obs,
        );
        for id in 0..60 {
            server.submit(id);
        }
        let results = server.finish();
        assert_eq!(results.len(), 60);
        for i in 0..3usize {
            let label = i.to_string();
            assert_eq!(
                obs.gauge("serve.queue.depth", &[("shard", &label)]).get(),
                0,
                "shard {i} drained completely"
            );
        }
        let global_batches = obs.histogram("serve.batch", &[]).count();
        let per_shard = |name: &str| -> u64 {
            (0..3usize)
                .map(|i| obs.histogram(name, &[("shard", &i.to_string())]).count())
                .sum()
        };
        assert_eq!(
            per_shard("serve.shard.batch"),
            global_batches,
            "every claimed batch is attributed to exactly one shard"
        );
        assert_eq!(per_shard("serve.shard.run.ns"), global_batches);
    }

    #[test]
    fn fused_image_serves_queries_on_the_fused_tier() {
        let obs = Registry::new();
        let src = "main :- count(20). count(0). count(N) :- N > 0, M is N - 1, count(M).";
        let mut c = Compiled::from_source(src).expect("compiles");
        let decoded_steps = c.run_sequential().expect("decoded runs").steps;
        c.build_fused_tier().expect("fuses");
        let server = QueryServer::start(Arc::new(c), &ServerConfig::default(), &obs);
        for id in 0..25 {
            server.submit(id);
        }
        let results = server.finish();
        assert_eq!(results.len(), 25);
        for r in &results {
            assert_eq!(
                steps_of(r),
                decoded_steps,
                "fused tier is bit-identical to decoded"
            );
        }
        assert_eq!(obs.counter("serve.tier", &[("tier", "fused")]).get(), 25);
        assert_eq!(obs.counter("serve.tier", &[("tier", "decoded")]).get(), 0);
    }

    #[test]
    fn failing_queries_come_back_as_errors_not_panics() {
        let obs = Registry::new();
        let failing =
            Arc::new(Compiled::from_source("main :- 1 = 2.").expect("compiles (query fails)"));
        let server = QueryServer::start(failing, &ServerConfig::default(), &obs);
        for id in 0..10 {
            server.submit(id);
        }
        let results = server.finish();
        assert_eq!(results.len(), 10);
        let wrong = symbol_core::PipelineError::WrongAnswer.to_string();
        for r in &results {
            assert_eq!(r.outcome.as_ref().unwrap_err(), &wrong);
        }
        assert_eq!(obs.counter("serve.queries.failed", &[]).get(), 10);
        assert_eq!(obs.gauge("serve.queue.depth", &[]).get(), 0);
    }

    #[test]
    fn zero_worker_config_is_clamped() {
        let server = QueryServer::start(
            compiled(),
            &ServerConfig {
                workers: 0,
                queue_capacity: 0,
                max_batch: 0,
                flight_capacity: 0,
                ..ServerConfig::default()
            },
            &Registry::disabled(),
        );
        server.submit(1);
        let results = server.finish();
        assert_eq!(results.len(), 1);
        assert!(results[0].outcome.is_ok());
    }

    #[test]
    fn stats_query_answers_live_quantiles_and_hot_pcs() {
        let obs = Registry::new();
        let server = QueryServer::start(compiled(), &ServerConfig::default(), &obs);
        for id in 0..40 {
            server.submit(id);
        }
        server.submit_stats(1000);
        let results = server.finish();
        assert_eq!(results.len(), 41);
        let stats = results
            .iter()
            .find(|r| r.id == 1000)
            .expect("stats result present");
        let report = stats
            .outcome
            .as_ref()
            .expect("stats succeeds")
            .stats()
            .expect("stats answer");
        assert_eq!(report.request_id, 1000);
        let exec = report.execute.expect("execute quantiles after 40 queries");
        assert!(exec.count >= 1);
        assert!(exec.is_finite(), "p99 must be finite: {exec:?}");
        assert!(exec.p50 <= exec.p99);
        let wait = report.queue_wait.expect("queue-wait quantiles");
        assert!(wait.is_finite());
        assert!(!report.hot_pcs.is_empty(), "hot pcs from the lazy profile");
        assert!(
            report.hot_pcs.windows(2).all(|w| w[0].1 >= w[1].1),
            "hot pcs are hottest-first: {:?}",
            report.hot_pcs
        );
        assert!(
            report
                .snapshot
                .counters
                .iter()
                .any(|c| c.name == "serve.queries.ok"),
            "report embeds the live snapshot"
        );
        let json = report.to_json();
        assert!(json.contains("\"request_id\": 1000"));
        assert!(json.contains("\"hot_pcs\""));
        assert_eq!(obs.counter("serve.queries.stats", &[]).get(), 1);
    }

    #[test]
    fn panic_probe_is_contained_counted_and_dumped() {
        let tmp = TempDir::new("panic");
        let obs = Registry::new();
        let server = QueryServer::start(
            compiled(),
            &ServerConfig {
                flight_dir: Some(tmp.0.clone()),
                ..ServerConfig::default()
            },
            &obs,
        );
        for id in 0..10 {
            server.submit(id);
        }
        server.submit_panic_probe(77);
        let results = server.finish();
        assert_eq!(results.len(), 11);
        let probe = results.iter().find(|r| r.id == 77).expect("probe result");
        assert_eq!(probe.outcome.as_ref().unwrap_err(), "query panicked");
        assert_eq!(obs.counter("serve.queries.panicked", &[]).get(), 1);
        assert_eq!(obs.counter("serve.queries.ok", &[]).get(), 10);
        assert_eq!(
            obs.gauge("serve.queue.depth", &[]).get(),
            0,
            "depth returns to zero through the panic path too"
        );
        let dumps: Vec<_> = std::fs::read_dir(&tmp.0)
            .expect("dump dir exists")
            .map(|e| e.expect("entry").path())
            .collect();
        assert_eq!(dumps.len(), 1, "one panic dump: {dumps:?}");
        let body = std::fs::read_to_string(&dumps[0]).expect("dump readable");
        assert!(body.starts_with("{\"request_id\": 77, \"reason\": \"panic\""));
        assert!(body.contains("\"kind\": \"query_panic\""));
        assert_eq!(
            obs.counter(
                "serve.flight.dumps",
                &[("reason", "panic"), ("status", "ok")]
            )
            .get(),
            1
        );
    }

    #[test]
    fn slow_query_trigger_dumps_with_the_request_id() {
        let tmp = TempDir::new("slow");
        let obs = Registry::new();
        let server = QueryServer::start(
            compiled(),
            &ServerConfig {
                workers: 1,
                flight_dir: Some(tmp.0.clone()),
                slow_query_ns: Some(0),
                ..ServerConfig::default()
            },
            &obs,
        );
        server.submit(5);
        let results = server.finish();
        assert!(results[0].outcome.is_ok());
        let dumps: Vec<_> = std::fs::read_dir(&tmp.0)
            .expect("dump dir exists")
            .map(|e| e.expect("entry").path())
            .collect();
        assert_eq!(dumps.len(), 1);
        let body = std::fs::read_to_string(&dumps[0]).expect("dump readable");
        assert!(body.starts_with("{\"request_id\": 5, \"reason\": \"slow\""));
        assert!(body.contains("\"kind\": \"query_start\""));
        assert!(body.contains("\"kind\": \"enqueue\""));
    }

    #[test]
    fn flight_ring_traces_the_request_lifecycle() {
        let obs = Registry::new();
        let server = QueryServer::start(compiled(), &ServerConfig::default(), &obs);
        let flight = server.flight();
        assert!(flight.enabled());
        for id in 0..5 {
            server.submit(id);
        }
        server.finish();
        let kinds: Vec<&str> = flight.snapshot().iter().map(|r| r.kind_name()).collect();
        for kind in ["enqueue", "dequeue", "query_start", "query_ok"] {
            assert!(kinds.contains(&kind), "{kind} missing from {kinds:?}");
        }
        assert_eq!(
            kinds.iter().filter(|k| **k == "query_ok").count(),
            5,
            "every query left an ok record"
        );
    }
}
