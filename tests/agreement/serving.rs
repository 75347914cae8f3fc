//! The serving tier: batched serving, the batch executor on a shared
//! pool, the artifact round trip and the warm fused tier all answer as
//! a standalone sequential run does, and a corrupt artifact is rebuilt
//! from source, never served.

use std::sync::Arc;

use symbol_core::pipeline::Compiled;
use symbol_intcode::decode::DecodedProgram;
use symbol_intcode::program::IciProgram;
use symbol_intcode::wire::fnv1a64;
use symbol_intcode::{ArenaPool, ExecConfig, Layout};
use symbol_obs::Registry;
use symbol_serve::artifact::{ArtifactKey, PayloadKind};
use symbol_serve::cache::ArtifactCache;
use symbol_serve::server::{QueryServer, ServerConfig};

use crate::{benches, fixture, program};

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
    const QUERIES: usize = 12;
    for name in ["conc30", "nreverse", "ops8", "qsort", "serialise"] {
        let p = program(name);
        let reference = p.run.steps;
        for fused in [false, true] {
            let compiled = Arc::new(if fused { p.fused_image() } else { p.image() });
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
                        "{name}: fused={fused} workers={workers} batch={batch}: \
                         wrong sub-query count"
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
/// every query of every seed's batch, run on one pool shared by all
/// three batches, must answer bit for bit as the same query alone on a
/// fresh pool does — aborted queries included, so no query's engine
/// state leaks into the next.
#[test]
fn mixed_step_limits_on_a_shared_pool_match_fresh_pools() {
    let p = program("nreverse");
    let full = p.run.steps;
    let mut shared = ArenaPool::new();
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
        let batch = p.compiled.run_batch(&queries, &mut shared);
        for (i, (query, got)) in queries.iter().zip(batch).enumerate() {
            let alone = p
                .compiled
                .run_batch(std::slice::from_ref(query), &mut ArenaPool::new());
            assert_eq!(
                alone,
                [got],
                "seed {seed}: query {i} on the shared pool diverged from a fresh pool"
            );
        }
    }
}

/// serialize → deserialize → run must be bit-identical to
/// compile → run, for every benchmark in the suite — the correctness
/// contract of the `symbol-serve` artifact path.
#[test]
fn artifact_round_trip_runs_are_bit_identical_for_every_benchmark() {
    for p in benches() {
        let ici_bytes = p.compiled.ici.to_wire_bytes();
        let dec_bytes = p.compiled.decoded.to_wire_bytes();
        let ici = IciProgram::from_wire_bytes(&ici_bytes)
            .unwrap_or_else(|e| panic!("{}: intcode decode: {e}", p.name));
        let decoded = DecodedProgram::from_wire_bytes(&dec_bytes)
            .unwrap_or_else(|e| panic!("{}: decoded decode: {e}", p.name));
        // Byte-exact: re-encoding the deserialized forms reproduces
        // the original encodings bit for bit.
        assert_eq!(ici.to_wire_bytes(), ici_bytes, "{}: intcode bytes", p.name);
        assert_eq!(
            decoded.to_wire_bytes(),
            dec_bytes,
            "{}: decoded bytes",
            p.name
        );
        let restored = Compiled::from_artifact(ici, decoded, p.compiled.layout)
            .unwrap_or_else(|e| panic!("{}: from_artifact: {e}", p.name));
        let direct = &p.run;
        let served = restored.run_sequential().expect("artifact run");
        assert_eq!(direct.steps, served.steps, "{}: steps", p.name);
        assert_eq!(direct.outcome, served.outcome, "{}: outcome", p.name);
        assert_eq!(
            direct.stats.expect, served.stats.expect,
            "{}: expect profile",
            p.name
        );
        assert_eq!(
            direct.stats.taken, served.stats.taken,
            "{}: taken profile",
            p.name
        );
    }
}

/// The translation the artifact cache stores is pinned: every fixture
/// program's op count and the FNV-1a hashes of its IntCode and decoded
/// wire bytes equal `tests/golden/intcode.txt`. An artifact key names
/// only the source and the layout, so a change that moves these bytes
/// must also bump `symbol_serve::artifact::FORMAT_VERSION`, or a warm
/// cache keeps serving the old translation (DESIGN.md §8); it then
/// rewrites the file from this test's failure message.
#[test]
fn translated_bytes_match_the_golden_file() {
    let mut got = String::from("# program ops fnv1a64(ici bytes) fnv1a64(decoded bytes)\n");
    for p in fixture() {
        let c = &p.compiled;
        got.push_str(&format!(
            "{} {} {:016x} {:016x}\n",
            p.name,
            c.ici.len(),
            fnv1a64(&c.ici.to_wire_bytes()),
            fnv1a64(&c.decoded.to_wire_bytes())
        ));
    }
    assert!(
        got == include_str!("../golden/intcode.txt"),
        "the translation moved; if that is meant, bump FORMAT_VERSION and \
         write this to tests/golden/intcode.txt:\n{got}"
    );
}

/// Corrupt on-disk artifacts — truncations, a flipped version byte, an
/// artifact filed under the wrong key, the retired VLIW kind byte —
/// must never panic or serve wrong code: the cache recompiles from
/// source every time.
#[test]
fn corrupt_artifacts_recompile_cleanly() {
    let source = program("nreverse").source;
    let dir = std::env::temp_dir().join(format!("symbol-agreement-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Registry::new();
    let cache = ArtifactCache::new(&dir, obs.clone()).expect("open cache");
    let layout = Layout::default();
    let key = ArtifactKey::emulator(source, &layout);
    let path = cache.path_for(&key, PayloadKind::Emulator);

    // Seed a good artifact and keep its bytes and reference run.
    let cold = cache
        .load_compiled_shared(source, layout)
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
            .load_compiled_shared(source, layout)
            .unwrap_or_else(|e| panic!("{what}: recompile failed: {e}"));
        assert!(c.front.is_some(), "{what}: must recompile, not deserialize");
        let run = c.run_sequential().expect("recompiled program runs");
        assert_eq!(run.steps, reference.steps, "{what}: divergent run");
        // The recompile healed the cache: the next load is warm again.
        let warm = cache.load_compiled_shared(source, layout).expect("warm");
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
    let dir = std::env::temp_dir().join(format!("symbol-agreement-fused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Registry::new();
    let cache = ArtifactCache::new(&dir, obs.clone()).expect("open cache");
    let layout = Layout::default();
    for p in benches() {
        let cold = cache
            .load_compiled_fused_shared(p.source, layout)
            .expect("cold start");
        let warm = cache
            .load_compiled_fused_shared(p.source, layout)
            .expect("warm start");
        assert!(warm.front.is_none(), "{}: warm start compiled", p.name);
        let cold = cold.fused.as_ref().expect("cold tier");
        let warm = warm.fused.as_ref().expect("warm tier");
        assert_eq!(
            warm.program.to_wire_bytes(),
            cold.program.to_wire_bytes(),
            "{}: fused program",
            p.name
        );
        assert_eq!(warm.report, cold.report, "{}: fusion report", p.name);
        assert_eq!(warm.profile_hash, cold.profile_hash, "{}", p.name);
    }
    let n = benches().len() as u64;
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
