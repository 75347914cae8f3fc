//! `symbol-serve` — artifact-cache and query-server driver.
//!
//! ```text
//! symbol-serve --cache-dir DIR [options]
//!
//!   --cache-dir DIR      artifact cache directory (required)
//!   --benches a,b,c      benchmark subset (default: all)
//!   --queries N          queries per benchmark (default 16)
//!   --batch N            sub-queries per run request (default 1), run
//!                        back-to-back on pooled engine state; every
//!                        answer of a benchmark is checked to be the
//!                        same step count
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
//! ```
//!
//! Each selected benchmark is loaded through the cache (deserialized
//! on a warm start, compiled-and-stored on a cold one) and then served
//! `--queries` independent queries by a worker pool sharing the one
//! immutable image. Every query is self-checking; any failure makes
//! the process exit nonzero.
//!
//! The cache and every per-benchmark server report to one registry;
//! `--metrics` writes it out, with p50/p90/p99/max of the
//! `serve.stage.ns` queue-wait and execute histograms.

use std::process::ExitCode;

use symbol_core::benchmarks;
use symbol_intcode::Layout;
use symbol_obs::Registry;
use symbol_serve::cache::ArtifactCache;
use symbol_serve::server::{QueryAnswer, QueryServer, ServerConfig};

struct Args {
    cache_dir: String,
    benches: Option<Vec<String>>,
    queries: u64,
    batch: usize,
    workers: usize,
    metrics: Option<String>,
    fused: bool,
    expect_all_hits: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: symbol-serve --cache-dir DIR [--benches a,b,c] [--queries N] \
         [--batch N] [--workers N] [--metrics PATH] [--fused] [--expect-all-hits]"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        cache_dir: String::new(),
        benches: None,
        queries: 16,
        batch: 1,
        workers: 4,
        metrics: None,
        fused: false,
        expect_all_hits: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--cache-dir" => args.cache_dir = it.next()?,
            "--benches" => {
                args.benches = Some(it.next()?.split(',').map(str::to_string).collect());
            }
            "--queries" => args.queries = it.next()?.parse().ok()?,
            "--batch" => args.batch = it.next()?.parse::<usize>().ok().filter(|n| *n > 0)?,
            "--workers" => args.workers = it.next()?.parse().ok()?,
            "--metrics" => args.metrics = Some(it.next()?),
            "--fused" => args.fused = true,
            "--expect-all-hits" => args.expect_all_hits = true,
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
    let cache = match ArtifactCache::new(&args.cache_dir, obs.clone()) {
        Ok(c) => c,
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
        let server = QueryServer::start(
            compiled,
            &ServerConfig {
                workers: args.workers,
                ..ServerConfig::default()
            },
            &obs,
        );
        let mut remaining = args.queries as usize;
        let mut requests = 0;
        while remaining > 0 {
            let n = remaining.min(args.batch);
            server.submit_batch(requests, n);
            requests += 1;
            remaining -= n;
        }
        let results = server.finish();
        let errors = results.iter().filter(|r| r.outcome.is_err()).count();
        // Every sub-query of every request must have run, and all of
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
            "{:<12} {path:<20} {requests} requests (x{}), {} queries, {errors} errors",
            b.name,
            args.batch,
            steps.len()
        );
        if steps.len() as u64 != args.queries || !uniform {
            eprintln!("symbol-serve: {}: answers incomplete or diverged", b.name);
            failed = true;
        }
        if errors > 0 || results.len() as u64 != requests {
            failed = true;
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
