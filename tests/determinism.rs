//! The parallel experiment drivers must be *bit-identical* to their
//! sequential counterparts: every `f64` statistic, every cycle count,
//! every histogram bin. Results are collected by work-list index, so
//! thread scheduling can reorder completion but never output — this
//! suite asserts exactly that.

use symbol_core::benchmarks;
use symbol_core::experiments::{measure, measure_cached};
use symbol_core::{Compiled, CompiledCache};
use symbol_obs::Registry;

/// Benchmarks small enough to measure repeatedly in debug builds.
const SUBSET: [&str; 4] = ["conc30", "nreverse", "qsort", "serialise"];

#[test]
fn parallel_simulations_are_bit_identical_to_sequential() {
    for name in SUBSET {
        let b = benchmarks::by_name(name).expect("known benchmark");
        let compiled = Compiled::from_source(b.source).expect("compiles");
        let cache = CompiledCache::new(&compiled).expect("profiles");
        let sequential =
            measure_cached(b.name, &cache, 1, &Registry::disabled()).expect("measures");
        // Oversubscribe relative to the 8-entry work list so workers
        // genuinely contend for jobs.
        for threads in [2, 8, 32] {
            let parallel =
                measure_cached(b.name, &cache, threads, &Registry::disabled()).expect("measures");
            assert_eq!(
                sequential, parallel,
                "{name}: {threads}-thread driver diverged from sequential"
            );
        }
    }
}

#[test]
fn cached_profile_reproduces_the_standalone_driver() {
    // measure() compiles and profiles internally; going through an
    // explicitly shared CompiledCache must change nothing.
    let b = benchmarks::by_name("nreverse").expect("known benchmark");
    let standalone = measure(b).expect("measures");
    let compiled = Compiled::from_source(b.source).expect("compiles");
    let cache = CompiledCache::new(&compiled).expect("profiles");
    let cached = measure_cached(b.name, &cache, 4, &Registry::disabled()).expect("measures");
    assert_eq!(standalone, cached);
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    let b = benchmarks::by_name("qsort").expect("known benchmark");
    let compiled = Compiled::from_source(b.source).expect("compiles");
    let cache = CompiledCache::new(&compiled).expect("profiles");
    let first = measure_cached(b.name, &cache, 8, &Registry::disabled()).expect("measures");
    let second = measure_cached(b.name, &cache, 8, &Registry::disabled()).expect("measures");
    assert_eq!(first, second);
}

/// The batched serving path must be bit-identical to sequential
/// execution for every (tier) × (worker count) × (batch size)
/// combination, on the decoded and on the fused serving tier —
/// including worker counts past the physical core count, where the
/// OS scheduler genuinely shuffles which worker claims which request
/// and in which order requests finish. A panic probe rides in the
/// middle of every stream: containment must not perturb any
/// neighbouring answer.
#[test]
fn batched_serving_is_bit_identical_for_every_worker_and_batch_size() {
    use std::sync::Arc;
    use symbol_serve::server::{QueryServer, ServerConfig};

    const QUERIES: usize = 12;
    for name in ["conc30", "nreverse", "ops8", "qsort", "serialise"] {
        let b = benchmarks::by_name(name).expect("known benchmark");
        for fused in [false, true] {
            let mut compiled = Compiled::from_source(b.source).expect("compiles");
            if fused {
                compiled.build_fused_tier().expect("fuses");
            }
            let compiled = Arc::new(compiled);
            let reference = compiled.run_sequential().expect("sequential run").steps;
            for workers in [1usize, 2, 4, 8] {
                for batch in [1usize, 3, 8] {
                    let obs = Registry::disabled();
                    let server = QueryServer::start(
                        Arc::clone(&compiled),
                        &ServerConfig {
                            workers,
                            queue_capacity: 8,
                        },
                        &obs,
                    );
                    let mut id = 0u64;
                    let mut remaining = QUERIES;
                    while remaining > 0 {
                        let n = remaining.min(batch);
                        server.submit_batch(id, n);
                        id += 1;
                        remaining -= n;
                        if id == 2 {
                            // A contained panic mid-stream.
                            server.submit_panic_probe(1000);
                        }
                    }
                    let results = server.finish();
                    assert_eq!(results.len(), id as usize + 1);
                    let mut answered = 0;
                    for r in &results {
                        if r.id == 1000 {
                            assert!(r.outcome.is_err(), "{name}: probe panics, contained");
                            continue;
                        }
                        let steps = r
                            .outcome
                            .as_ref()
                            .expect("batch request succeeds")
                            .batch()
                            .expect("batch answer");
                        assert!(
                            steps.iter().all(|&s| s == reference),
                            "{name}: fused={fused} workers={workers} batch={batch}: {steps:?} != \
                         sequential {reference}"
                        );
                        answered += steps.len();
                    }
                    assert_eq!(
                    answered, QUERIES,
                    "{name}: fused={fused} workers={workers} batch={batch}: wrong sub-query count"
                );
                    // Results are sorted by id: index order, independent
                    // of which worker answered or when.
                    assert!(results.windows(2).all(|w| w[0].id < w[1].id));
                }
            }
        }
    }
}

/// The in-process batch executor under mixed per-query step limits:
/// seeded pseudo-random limits make some queries abort mid-run, and
/// every (worker count, seed) combination must reproduce the
/// sequential batch bit for bit — aborted queries included.
#[test]
fn parallel_batches_with_mixed_step_limits_match_sequential() {
    use symbol_intcode::ExecConfig;

    let b = benchmarks::by_name("nreverse").expect("known benchmark");
    let compiled = Compiled::from_source(b.source).expect("compiles");
    let full = compiled.run_sequential().expect("runs").steps;
    for seed in [3u64, 17, 1999] {
        // xorshift-mixed limits: below, around, and above the full
        // step count, plus degenerate 0- and 1-step queries.
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let queries: Vec<ExecConfig> = (0..17)
            .map(|i| ExecConfig {
                max_steps: match i % 5 {
                    0 => 0,
                    1 => 1,
                    2 => next() % full.max(1),
                    3 => full,
                    _ => full + next() % 64,
                },
            })
            .collect();
        let mut pool = symbol_intcode::ArenaPool::new();
        let sequential = compiled.run_batch(&queries, &mut pool);
        for workers in [1usize, 2, 4, 8] {
            let parallel = symbol_intcode::batch::run_batch_parallel(
                compiled.serving_program(),
                &compiled.layout,
                &queries,
                workers,
            );
            assert_eq!(
                sequential, parallel,
                "seed {seed}: {workers}-worker batch diverged from sequential"
            );
        }
    }
}

/// serialize → deserialize → run must be bit-identical to
/// compile → run, for every benchmark in the suite — the correctness
/// contract of the `symbol-serve` artifact path.
#[test]
fn artifact_round_trip_runs_are_bit_identical_for_every_benchmark() {
    use symbol_intcode::decode::DecodedProgram;
    use symbol_intcode::program::IciProgram;
    for b in benchmarks::ALL {
        let compiled = Compiled::from_source(b.source).expect("compiles");
        let ici_bytes = compiled.ici.to_wire_bytes();
        let dec_bytes = compiled.decoded.to_wire_bytes();
        let ici = IciProgram::from_wire_bytes(&ici_bytes)
            .unwrap_or_else(|e| panic!("{}: intcode decode: {e}", b.name));
        let decoded = DecodedProgram::from_wire_bytes(&dec_bytes)
            .unwrap_or_else(|e| panic!("{}: decoded decode: {e}", b.name));
        // Byte-exact: re-encoding the deserialized forms reproduces
        // the original encodings bit for bit.
        assert_eq!(ici.to_wire_bytes(), ici_bytes, "{}: intcode bytes", b.name);
        assert_eq!(
            decoded.to_wire_bytes(),
            dec_bytes,
            "{}: decoded bytes",
            b.name
        );
        let restored = Compiled::from_artifact(ici, decoded, compiled.layout)
            .unwrap_or_else(|e| panic!("{}: from_artifact: {e}", b.name));
        let direct = compiled.run_sequential().expect("direct run");
        let served = restored.run_sequential().expect("artifact run");
        assert_eq!(direct.steps, served.steps, "{}: steps", b.name);
        assert_eq!(direct.outcome, served.outcome, "{}: outcome", b.name);
        assert_eq!(
            direct.stats.expect, served.stats.expect,
            "{}: expect profile",
            b.name
        );
        assert_eq!(
            direct.stats.taken, served.stats.taken,
            "{}: taken profile",
            b.name
        );
    }
}

/// Corrupt on-disk artifacts — truncations, a flipped version byte, an
/// artifact filed under the wrong key, the retired VLIW kind byte —
/// must never panic or serve wrong code: the cache recompiles from
/// source every time.
#[test]
fn corrupt_artifacts_recompile_cleanly() {
    use symbol_intcode::Layout;
    use symbol_serve::artifact::{ArtifactKey, PayloadKind};
    use symbol_serve::cache::ArtifactCache;

    let b = benchmarks::by_name("nreverse").expect("known benchmark");
    let dir = std::env::temp_dir().join(format!("symbol-determinism-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Registry::new();
    let cache = ArtifactCache::new(&dir, obs.clone()).expect("open cache");
    let layout = Layout::default();
    let key = ArtifactKey::emulator(b.source, &layout);
    let path = cache.path_for(&key, PayloadKind::Emulator);

    // Seed a good artifact and keep its bytes and reference run.
    let cold = cache
        .load_compiled_shared(b.source, layout)
        .expect("cold compile");
    let reference = cold.run_sequential().expect("runs");
    let good = std::fs::read(&path).expect("artifact exists");

    let corruptions: Vec<(&str, Vec<u8>)> = vec![
        ("empty file", Vec::new()),
        ("half the file", good[..good.len() / 2].to_vec()),
        ("missing checksum", good[..good.len() - 8].to_vec()),
        ("flipped version byte", {
            let mut v = good.clone();
            v[8] ^= 0x01;
            v
        }),
        ("flipped source-hash byte (wrong key)", {
            let mut v = good.clone();
            v[12] ^= 0x01;
            v
        }),
        ("flipped payload byte", {
            let mut v = good.clone();
            let mid = v.len() / 2;
            v[mid] ^= 0x80;
            v
        }),
        ("retired VLIW kind byte, checksum recomputed", {
            let mut v = good.clone();
            v[28] = 1;
            let body = v.len() - 8;
            let checksum = symbol_intcode::wire::fnv1a64(&v[..body]);
            v[body..].copy_from_slice(&checksum.to_le_bytes());
            v
        }),
    ];
    for (what, bytes) in corruptions {
        std::fs::write(&path, &bytes).expect("plant corruption");
        let c = cache
            .load_compiled_shared(b.source, layout)
            .unwrap_or_else(|e| panic!("{what}: recompile failed: {e}"));
        assert!(c.front.is_some(), "{what}: must recompile, not deserialize");
        let run = c.run_sequential().expect("recompiled program runs");
        assert_eq!(run.steps, reference.steps, "{what}: divergent run");
        // The recompile healed the cache: the next load is warm again.
        let warm = cache.load_compiled_shared(b.source, layout).expect("warm");
        assert!(warm.front.is_none(), "{what}: cache not healed");
    }
    assert_eq!(
        obs.counter("serve.cache.corrupt", &[("kind", "emu")]).get(),
        7,
        "every planted corruption was detected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm `--fused` start reads the tier a cold start stored instead of
/// profiling again: on every benchmark the warm-loaded fused program,
/// its report and its profile record equal the cold build's, and only
/// the cold loads profile or fuse.
#[test]
fn warm_fused_tier_equals_the_cold_build_for_every_benchmark() {
    use symbol_intcode::Layout;
    use symbol_serve::cache::ArtifactCache;

    let dir = std::env::temp_dir().join(format!("symbol-determinism-fused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Registry::new();
    let cache = ArtifactCache::new(&dir, obs.clone()).expect("open cache");
    let layout = Layout::default();
    for b in benchmarks::ALL {
        let cold = cache
            .load_compiled_fused_shared(b.source, layout)
            .expect("cold start");
        let warm = cache
            .load_compiled_fused_shared(b.source, layout)
            .expect("warm start");
        assert!(warm.front.is_none(), "{}: warm start compiled", b.name);
        let cold = cold.fused.as_ref().expect("cold tier");
        let warm = warm.fused.as_ref().expect("warm tier");
        assert_eq!(
            warm.program.to_wire_bytes(),
            cold.program.to_wire_bytes(),
            "{}: fused program",
            b.name
        );
        assert_eq!(warm.report, cold.report, "{}: fusion report", b.name);
        assert_eq!(warm.profile_hash, cold.profile_hash, "{}", b.name);
    }
    let n = benchmarks::ALL.len() as u64;
    let snapshot = obs.snapshot();
    for span in ["span.serve.profile.ns", "span.serve.fuse.ns"] {
        let runs: u64 = snapshot
            .histograms
            .iter()
            .filter(|h| h.name == span)
            .map(|h| h.count)
            .sum();
        assert_eq!(runs, n, "{span}: one per cold start, none per warm one");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
