//! `symbol-serve` — artifact-cache and query-server driver.
//!
//! ```text
//! symbol-serve --cache-dir DIR [options]
//!
//!   --cache-dir DIR      artifact cache directory (required)
//!   --benches a,b,c      benchmark subset (default: all)
//!   --queries N          queries per benchmark (default 16)
//!   --batch N            submit queries as batched run requests of N
//!                        sub-queries each (pooled engine state, one
//!                        request per batch) instead of one request
//!                        per query; answers are checked to be
//!                        bit-identical across the whole batch
//!   --workers N          worker threads (default 4)
//!   --metrics PATH       write a metrics.json snapshot here
//!   --fused              serve the profile-guided fused tier: each
//!                        benchmark's fused artifact is loaded (or,
//!                        on a cold start only, the benchmark is
//!                        profiled and fused and the artifact stored),
//!                        and queries run on the fused program
//!   --expect-all-hits    fail unless every load was a cache hit
//!                        (zero misses, zero corrupt entries, zero
//!                        compiles; with --fused, also a fused-tier
//!                        hit per benchmark and zero profiling runs
//!                        and fusions) — the CI warm-restart check
//!   --stats              issue a live Stats query per benchmark from
//!                        the running pool, answered after every query
//!                        submitted before it, and print the per-stage
//!                        quantiles; fails unless every p99 is present
//!                        and finite
//!   --flight-dir DIR     enable flight-recorder incident dumps into
//!                        DIR (slow queries and panics)
//!   --slow-us N          execute-time threshold (microseconds) that
//!                        marks a query slow and triggers a dump
//! ```
//!
//! Each selected benchmark is loaded through the cache (deserialized
//! on a warm start, compiled-and-stored on a cold one) and then served
//! `--queries` independent queries by a worker pool sharing the one
//! immutable image. Every query is self-checking; any failure makes
//! the process exit nonzero.
//!
//! One flight-recorder ring is shared by the artifact cache and every
//! per-benchmark server, so an incident dump shows the cache and
//! query traffic interleaved.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use symbol_core::benchmarks;
use symbol_intcode::Layout;
use symbol_obs::{FlightRecorder, Registry};
use symbol_serve::cache::ArtifactCache;
use symbol_serve::server::{QueryAnswer, QueryServer, ServerConfig};

struct Args {
    cache_dir: String,
    benches: Option<Vec<String>>,
    queries: u64,
    batch: Option<usize>,
    workers: usize,
    metrics: Option<String>,
    fused: bool,
    expect_all_hits: bool,
    stats: bool,
    flight_dir: Option<PathBuf>,
    slow_us: Option<u64>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: symbol-serve --cache-dir DIR [--benches a,b,c] [--queries N] \
         [--batch N] [--workers N] [--metrics PATH] [--fused] [--expect-all-hits] \
         [--stats] [--flight-dir DIR] [--slow-us N]"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        cache_dir: String::new(),
        benches: None,
        queries: 16,
        batch: None,
        workers: 4,
        metrics: None,
        fused: false,
        expect_all_hits: false,
        stats: false,
        flight_dir: None,
        slow_us: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--cache-dir" => args.cache_dir = it.next()?,
            "--benches" => {
                args.benches = Some(it.next()?.split(',').map(str::to_string).collect());
            }
            "--queries" => args.queries = it.next()?.parse().ok()?,
            "--batch" => args.batch = Some(it.next()?.parse::<usize>().ok().filter(|n| *n > 0)?),
            "--workers" => args.workers = it.next()?.parse().ok()?,
            "--metrics" => args.metrics = Some(it.next()?),
            "--fused" => args.fused = true,
            "--expect-all-hits" => args.expect_all_hits = true,
            "--stats" => args.stats = true,
            "--flight-dir" => args.flight_dir = Some(PathBuf::from(it.next()?)),
            "--slow-us" => args.slow_us = Some(it.next()?.parse().ok()?),
            _ => return None,
        }
    }
    if args.cache_dir.is_empty() {
        return None;
    }
    Some(args)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let obs = Registry::new();
    let flight = Arc::new(FlightRecorder::new(4096));
    let cache = match ArtifactCache::new(&args.cache_dir, obs.clone()) {
        Ok(c) => c.with_flight(Arc::clone(&flight)),
        Err(e) => {
            eprintln!("symbol-serve: cannot open cache {}: {e}", args.cache_dir);
            return ExitCode::FAILURE;
        }
    };

    let selected: Vec<&benchmarks::Benchmark> = match &args.benches {
        None => benchmarks::ALL.iter().collect(),
        Some(names) => {
            let mut v = Vec::new();
            for name in names {
                match benchmarks::by_name(name) {
                    Some(b) => v.push(b),
                    None => {
                        eprintln!("symbol-serve: unknown benchmark {name}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            v
        }
    };

    let mut failed = false;
    for b in &selected {
        // One load per benchmark, one after another: a warm restart
        // reads and decodes each artifact exactly once.
        let loaded = if args.fused {
            cache.load_compiled_fused_shared(b.source, Layout::default())
        } else {
            cache.load_compiled_shared(b.source, Layout::default())
        };
        let compiled = match loaded {
            Ok(c) => c,
            Err(e) => {
                eprintln!("symbol-serve: {}: {e}", b.name);
                failed = true;
                continue;
            }
        };
        let path = match (compiled.front.is_none(), compiled.fused.is_some()) {
            (true, true) => "warm (fused)",
            (true, false) => "warm (deserialized)",
            (false, true) => "cold (compiled, fused)",
            (false, false) => "cold (compiled)",
        };
        let server = QueryServer::start_with_flight(
            compiled,
            &ServerConfig {
                workers: args.workers,
                flight_dir: args.flight_dir.clone(),
                slow_query_ns: args.slow_us.map(|us| us * 1000),
                ..ServerConfig::default()
            },
            &obs,
            Arc::clone(&flight),
        );
        let requests = match args.batch {
            Some(bs) => {
                let mut remaining = args.queries as usize;
                let mut id = 0;
                while remaining > 0 {
                    let n = remaining.min(bs);
                    server.submit_batch(id, n);
                    id += 1;
                    remaining -= n;
                }
                id
            }
            None => {
                for id in 0..args.queries {
                    server.submit(id);
                }
                args.queries
            }
        };
        let stats_id = args.queries;
        if args.stats {
            server.submit_stats(stats_id);
        }
        let results = server.finish();
        let expected = requests + u64::from(args.stats);
        let errors = results.iter().filter(|r| r.outcome.is_err()).count();
        if let Some(bs) = args.batch {
            // Every sub-query of every batch must have run, and all of
            // them bit-identically (same deterministic step count).
            let steps: Vec<u64> = results
                .iter()
                .filter_map(|r| r.outcome.as_ref().ok())
                .filter_map(QueryAnswer::batch)
                .flatten()
                .copied()
                .collect();
            let uniform = steps.windows(2).all(|w| w[0] == w[1]);
            println!(
                "{:<12} {path:<20} {requests} batch requests (x{bs}), \
                 {} queries, {errors} errors",
                b.name,
                steps.len()
            );
            if steps.len() as u64 != args.queries || !uniform {
                eprintln!(
                    "symbol-serve: {}: batched answers incomplete or diverged",
                    b.name
                );
                failed = true;
            }
        } else {
            println!(
                "{:<12} {path:<20} {} queries, {errors} errors",
                b.name,
                results.len()
            );
        }
        if errors > 0 || results.len() as u64 != expected {
            failed = true;
        }
        if args.stats {
            let report = results
                .iter()
                .find(|r| r.id == stats_id)
                .and_then(|r| r.outcome.as_ref().ok())
                .and_then(|a| a.stats());
            match report {
                Some(report) => {
                    let line = |label: &str, q: &Option<symbol_obs::QuantileView>| match q {
                        Some(q) => format!(
                            "{label} p50={:.1} p90={:.1} p99={:.1} max={}",
                            q.p50, q.p90, q.p99, q.max
                        ),
                        None => format!("{label} (no samples)"),
                    };
                    let hot: Vec<String> = report
                        .hot_pcs
                        .iter()
                        .map(|(pc, n)| format!("{pc}:{n}"))
                        .collect();
                    println!(
                        "  stats {}: {} | {} | hot_pcs [{}]",
                        b.name,
                        line("execute", &report.execute),
                        line("queue_wait", &report.queue_wait),
                        hot.join(" ")
                    );
                    let p99_ok = report.execute.is_some_and(|q| q.is_finite() && q.count > 0);
                    if !p99_ok {
                        eprintln!("symbol-serve: {}: stats p99 missing or not finite", b.name);
                        failed = true;
                    }
                }
                None => {
                    eprintln!("symbol-serve: {}: no stats answer", b.name);
                    failed = true;
                }
            }
        }
    }

    if let Some(path) = &args.metrics {
        let json = obs.snapshot().to_json();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("symbol-serve: cannot write {path}: {e}");
            failed = true;
        }
    }

    if args.expect_all_hits {
        let get = |name: &str| obs.counter(name, &[("kind", "emu")]).get();
        let hits = get("serve.cache.hit");
        let misses = get("serve.cache.miss");
        let corrupt = get("serve.cache.corrupt");
        let snapshot = obs.snapshot();
        let spans = |name: &str| {
            snapshot
                .histograms
                .iter()
                .filter(|h| h.name == name)
                .map(|h| h.count)
                .sum::<u64>()
        };
        let compiles = spans("span.serve.compile.ns");
        println!("cache: {hits} hits, {misses} misses, {corrupt} corrupt, {compiles} compiles");
        if misses > 0 || corrupt > 0 || compiles > 0 || hits < selected.len() as u64 {
            eprintln!("symbol-serve: expected a fully warm cache");
            failed = true;
        }
        if args.fused {
            let fget = |name: &str| obs.counter(name, &[("kind", "fused")]).get();
            let fhits = fget("serve.cache.hit");
            let fmisses = fget("serve.cache.miss");
            let fcorrupt = fget("serve.cache.corrupt");
            let profiles = spans("span.serve.profile.ns");
            let fusions = spans("span.serve.fuse.ns");
            println!(
                "fused tier: {fhits} hits, {fmisses} misses, {fcorrupt} corrupt, \
                 {profiles} profiles, {fusions} fusions"
            );
            if fmisses > 0
                || fcorrupt > 0
                || profiles > 0
                || fusions > 0
                || fhits < selected.len() as u64
            {
                eprintln!("symbol-serve: expected a fully warm fused tier");
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
