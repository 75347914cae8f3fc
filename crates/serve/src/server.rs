//! The long-running query server.
//!
//! One immutable [`Compiled`] image is shared (via `Arc`) by a bounded
//! pool of `std::thread` workers that answer independent queries
//! against it. The run queue is one FIFO deque behind one mutex:
//! submitters push at the back (blocking while `queue_capacity`
//! requests are unclaimed), and an idle worker pops the front request
//! and runs it. A request that has not started is therefore always in
//! the queue, where any idle worker can take it. Each worker recycles
//! per-query engine state through its own arena pool
//! ([`symbol_intcode::batch::ArenaPool`]) — no per-query
//! register/heap allocation on the hot path. There is one kind of run
//! request: a batch of `n` queries ([`QueryServer::submit_batch`]; a
//! single query is the batch of one), which
//! [`Compiled::run_query_batch_obs`] runs on the worker's pool.
//!
//! Worker count and claim order are invisible in the results: every
//! query is an independent deterministic execution of the same image,
//! and [`QueryServer::finish`] returns answers in id order —
//! bit-identical to a sequential run of the same queries, which the
//! workspace agreement suite asserts.
//!
//! The server is panic-free by construction: each query runs under
//! `catch_unwind`, so even a defect that would panic the emulator is
//! converted into a failed [`QueryResult`] (and counted) instead of
//! killing the worker, and a poisoned lock is recovered, never
//! propagated.
//!
//! ## Observability
//!
//! All on the registry handed to [`QueryServer::start`], which its
//! caller can snapshot at any time:
//!
//! * `serve.queries.ok` / `serve.queries.failed` /
//!   `serve.queries.panicked` counters,
//! * a `serve.tier` counter labelled `tier=fused` / `tier=decoded`
//!   with which execution tier answered each successful query,
//! * `serve.queue.depth` gauge, incremented on enqueue and
//!   decremented on claim (exactly zero once the queue drains),
//! * `serve.batch.queries` counter of queries answered: every
//!   sub-query of every successful request,
//! * `serve.stage.ns` histograms labelled `stage=queue_wait` /
//!   `execute` and by `tier`, whose quantiles `metrics.json` exports,
//! * a per-request `serve.query{req, n, tier}` trace span (see
//!   [`Compiled::run_query_batch_obs`]).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use symbol_core::pipeline::Compiled;
use symbol_intcode::batch::ArenaPool;
use symbol_obs::{Gauge, Registry};

/// Tuning knobs of a [`QueryServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Maximum unclaimed requests before [`QueryServer::submit_batch`]
    /// blocks (clamped to at least 1).
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
        }
    }
}

/// What a request asks the pool to do.
#[derive(Clone, Debug)]
enum Request {
    /// Run `n` independent executions of the compiled query
    /// back-to-back on one worker, with engine state pooled between
    /// them ([`Compiled::run_query_batch_obs`]).
    RunBatch(u64, usize),
    /// Panic inside the protected region — exercises the containment
    /// path end to end (used by tests, never by normal serving).
    PanicProbe(u64),
}

impl Request {
    fn id(&self) -> u64 {
        match self {
            Request::RunBatch(id, _) | Request::PanicProbe(id) => *id,
        }
    }
}

/// A queued request and when it entered the queue.
struct Pending {
    req: Request,
    enqueued: Instant,
}

/// What a successful request produced.
#[derive(Clone, Debug)]
pub enum QueryAnswer {
    /// Per-execution emulator steps of a successful batch request, in
    /// submission (index) order — position `i` is the `i`-th query of
    /// the batch, independent of which worker ran it.
    Batch(Vec<u64>),
}

impl QueryAnswer {
    /// The per-query step counts; every request is a batch, so this is
    /// always `Some`.
    pub fn batch(&self) -> Option<&[u64]> {
        let QueryAnswer::Batch(v) = self;
        Some(v)
    }
}

/// The answer to one query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The id passed to [`QueryServer::submit_batch`].
    pub id: u64,
    /// The answer on success; a rendered error otherwise. A worker
    /// panic surfaces here as an error string, never as a dead
    /// thread.
    pub outcome: Result<QueryAnswer, String>,
}

/// The pool's mutable state, all behind one lock.
struct State {
    /// Submitted requests no worker has claimed yet, oldest first.
    queue: VecDeque<Pending>,
    closed: bool,
    /// Answers, in completion order.
    results: Vec<QueryResult>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a request arrives or the queue closes.
    work: Condvar,
    /// Signalled when a request is claimed (space for submitters).
    space: Condvar,
    capacity: usize,
    /// `serve.queue.depth`: +1 on enqueue, -1 on claim.
    depth: Gauge,
}

/// Waits on `cv`, recovering the guard from a poisoned lock.
fn wait<'a>(cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(st).unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn new(cfg: &ServerConfig, obs: &Registry) -> Self {
        Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                closed: false,
                results: Vec::new(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            capacity: cfg.queue_capacity.max(1),
            depth: obs.gauge("serve.queue.depth", &[]),
        }
    }

    /// Locks the pool state. Every update under the lock is a single
    /// push, pop or flag write, so a thread that panicked while holding
    /// it cannot have left the state torn: a poisoned lock is
    /// recovered, not propagated.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `req` to the queue, blocking while it is full.
    fn enqueue(&self, req: Request) {
        let mut st = self.state();
        while st.queue.len() >= self.capacity {
            st = wait(&self.space, st);
        }
        st.queue.push_back(Pending {
            req,
            enqueued: Instant::now(),
        });
        self.depth.add(1);
        drop(st);
        self.work.notify_one();
    }

    /// Takes the oldest unclaimed request, sleeping while the queue is
    /// empty; `None` once the queue is closed and drained.
    fn claim(&self) -> Option<Pending> {
        let mut st = self.state();
        let p = loop {
            if let Some(p) = st.queue.pop_front() {
                break p;
            }
            if st.closed {
                return None;
            }
            st = wait(&self.work, st);
        };
        drop(st);
        self.space.notify_one();
        self.depth.add(-1);
        Some(p)
    }

    /// Records the answer to a claimed request.
    fn answer(&self, result: QueryResult) {
        self.state().results.push(result);
    }
}

/// A running worker pool answering queries against one shared
/// [`Compiled`] image. Dropping the server without calling
/// [`QueryServer::finish`] also shuts it down cleanly (results are
/// discarded).
pub struct QueryServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

fn run_one(compiled: &Compiled, p: &Pending, obs: &Registry, pool: &mut ArenaPool) -> QueryResult {
    let req = &p.req;
    let id = req.id();
    let tier = if compiled.fused.is_some() {
        "fused"
    } else {
        "decoded"
    };
    obs.histogram("serve.stage.ns", &[("stage", "queue_wait"), ("tier", tier)])
        .record(p.enqueued.elapsed().as_nanos() as u64);

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
    }));
    obs.histogram("serve.stage.ns", &[("stage", "execute"), ("tier", tier)])
        .record(t_exec.elapsed().as_nanos() as u64);
    let outcome = match ran {
        Ok(Ok(ans)) => {
            obs.counter("serve.queries.ok", &[]).inc();
            obs.counter("serve.tier", &[("tier", tier)]).inc();
            let QueryAnswer::Batch(steps) = &ans;
            obs.counter("serve.batch.queries", &[])
                .add(steps.len() as u64);
            Ok(ans)
        }
        Ok(Err(e)) => {
            obs.counter("serve.queries.failed", &[]).inc();
            Err(e)
        }
        Err(_) => {
            obs.counter("serve.queries.panicked", &[]).inc();
            Err("query panicked".to_string())
        }
    };
    QueryResult { id, outcome }
}

fn worker_loop(shared: &Shared, compiled: &Compiled, obs: &Registry) {
    let mut pool = ArenaPool::new();
    while let Some(p) = shared.claim() {
        shared.answer(run_one(compiled, &p, obs, &mut pool));
    }
}

impl QueryServer {
    /// Starts `cfg.workers` threads serving queries against
    /// `compiled`. The registry may be shared with the artifact cache
    /// so one `metrics.json` covers both tiers.
    pub fn start(compiled: Arc<Compiled>, cfg: &ServerConfig, obs: &Registry) -> Self {
        let shared = Arc::new(Shared::new(cfg, obs));
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let compiled = Arc::clone(&compiled);
                let obs = obs.clone();
                std::thread::spawn(move || worker_loop(&shared, &compiled, &obs))
            })
            .collect();
        QueryServer { shared, workers }
    }

    /// Enqueues one run request, blocking while the queue is full: `n`
    /// independent executions of the compiled query (`n = 1` for a
    /// single query), run back-to-back by whichever worker claims the
    /// request, with per-query engine state recycled through that
    /// worker's arena pool. Answers with [`QueryAnswer::Batch`] — one
    /// step count per execution, in index order.
    pub fn submit_batch(&self, id: u64, n: usize) {
        self.shared.enqueue(Request::RunBatch(id, n));
    }

    /// Enqueues a request that panics inside the protected region —
    /// a containment drill for tests. The panic is caught and counted
    /// exactly like a real engine defect would be; it never escapes.
    pub fn submit_panic_probe(&self, id: u64) {
        self.shared.enqueue(Request::PanicProbe(id));
    }

    /// Closes the queue, waits for every queued request to be
    /// answered, joins the workers and returns all results sorted by
    /// id.
    pub fn finish(mut self) -> Vec<QueryResult> {
        self.shutdown();
        let mut results = std::mem::take(&mut self.shared.state().results);
        results.sort_by_key(|r| r.id);
        results
    }

    /// Closes the queue and joins the workers, which first answer
    /// every request submitted before the close. A worker fails to
    /// join only if it panicked outside the `catch_unwind`-protected
    /// query path; the answers collected so far are kept either way.
    fn shutdown(&mut self) {
        self.shared.state().closed = true;
        self.shared.work.notify_all();
        for th in self.workers.drain(..) {
            let _ = th.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbol_obs::QuantileView;

    fn compiled() -> Arc<Compiled> {
        Arc::new(Compiled::from_source("main :- X is 2 + 2, X = 4.").expect("compiles"))
    }

    /// The step count of a one-query request's answer.
    fn steps_of(r: &QueryResult) -> u64 {
        match r.outcome.as_ref().expect("query succeeds").batch() {
            Some(&[steps]) => steps,
            other => panic!("not a one-query answer: {other:?}"),
        }
    }

    #[test]
    fn serves_many_queries_against_one_image() {
        let obs = Registry::new();
        let server = QueryServer::start(
            compiled(),
            &ServerConfig {
                workers: 4,
                queue_capacity: 8,
            },
            &obs,
        );
        for id in 0..100 {
            server.submit_batch(id, 1);
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
        assert_eq!(
            obs.gauge("serve.queue.depth", &[]).get(),
            0,
            "every enqueue was matched by a dequeue"
        );
        let snapshot = obs.snapshot();
        for stage in ["queue_wait", "execute"] {
            let labels = [("stage", stage), ("tier", "decoded")];
            assert_eq!(
                obs.histogram("serve.stage.ns", &labels).count(),
                100,
                "every query recorded its {stage} latency"
            );
            let h = snapshot
                .histograms
                .iter()
                .find(|h| h.name == "serve.stage.ns" && h.labels.iter().any(|(_, v)| v == stage))
                .expect("stage histogram exported");
            let q = QuantileView::from_sample(h).expect("non-empty");
            assert!(
                [q.p50, q.p90, q.p99].iter().all(|p| p.is_finite()) && q.p50 <= q.p99,
                "{stage}: {q:?}"
            );
        }
    }

    #[test]
    fn batch_requests_answer_per_query_steps_in_index_order() {
        let obs = Registry::new();
        let server = QueryServer::start(compiled(), &ServerConfig::default(), &obs);
        server.submit_batch(0, 1);
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
        assert_eq!(obs.counter("serve.batch.queries", &[]).get(), 7);
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
        server.submit_batch(0, 1);
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
    fn fused_image_serves_queries_on_the_fused_tier() {
        let obs = Registry::new();
        let src = "main :- count(20). count(0). count(N) :- N > 0, M is N - 1, count(M).";
        let mut c = Compiled::from_source(src).expect("compiles");
        let decoded_steps = c.run_sequential().expect("decoded runs").steps;
        c.build_fused_tier().expect("fuses");
        let server = QueryServer::start(Arc::new(c), &ServerConfig::default(), &obs);
        for id in 0..25 {
            server.submit_batch(id, 1);
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
            server.submit_batch(id, 1);
        }
        let results = server.finish();
        assert_eq!(results.len(), 10);
        let wrong = format!(
            "batch sub-query 0 of 1: {}",
            symbol_core::PipelineError::WrongAnswer
        );
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
            },
            &Registry::disabled(),
        );
        server.submit_batch(1, 1);
        let results = server.finish();
        assert_eq!(results.len(), 1);
        assert!(results[0].outcome.is_ok());
    }

    #[test]
    fn a_poisoned_queue_lock_is_recovered() {
        let obs = Registry::new();
        let server = QueryServer::start(compiled(), &ServerConfig::default(), &obs);
        let shared = Arc::clone(&server.shared);
        let poisoner = std::thread::spawn(move || {
            let _held = shared.state.lock();
            panic!("poisoning the queue lock on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(server.shared.state.is_poisoned());
        server.submit_batch(3, 1);
        let results = server.finish();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, 3);
        assert!(results[0].outcome.is_ok());
        assert_eq!(obs.gauge("serve.queue.depth", &[]).get(), 0);
    }

    #[test]
    fn requests_are_claimed_in_submission_order_with_the_depth_left() {
        let obs = Registry::new();
        let shared = Shared::new(&ServerConfig::default(), &obs);
        for id in [7, 3, 5] {
            shared.enqueue(Request::RunBatch(id, 1));
        }
        shared.state().closed = true;
        let depth = obs.gauge("serve.queue.depth", &[]);
        let claimed: Vec<(u64, i64)> = std::iter::from_fn(|| shared.claim())
            .map(|p| (p.req.id(), depth.get()))
            .collect();
        assert_eq!(
            claimed,
            [(7, 2), (3, 1), (5, 0)],
            "FIFO, each claim leaves the depth behind it, and none once closed and drained"
        );
    }

    #[test]
    fn panic_probe_is_contained_and_counted() {
        let obs = Registry::new();
        let server = QueryServer::start(compiled(), &ServerConfig::default(), &obs);
        for id in 0..10 {
            server.submit_batch(id, 1);
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
    }
}
