//! `serve_short` and `serve_long`: the `symbol-serve --fused` path —
//! images loaded through the artifact cache, then batched queries
//! answered by one `QueryServer` per image.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use symbol_core::benchmarks::{self, Benchmark};
use symbol_core::pipeline::{Compiled, FusedTier, PipelineError};
use symbol_fuzz::Rng;
use symbol_intcode::{
    ArenaPool, DecodedEmulator, DecodedProgram, ExecConfig, FuseConfig, Layout, Outcome,
};
use symbol_obs::Registry;
use symbol_serve::artifact::{self, ArtifactKey, Payload, PayloadKind};
use symbol_serve::{ArtifactCache, QueryAnswer, QueryServer, ServerConfig};

use crate::stages;
use crate::{Facts, Tally, Workload};

/// The images with at most 50K steps per query: engine set-up and
/// request queueing dominate their cost.
const SHORT: [&str; 8] = [
    "conc30",
    "divide10",
    "log10",
    "nreverse",
    "ops8",
    "qsort",
    "serialise",
    "times10",
];
/// Images of 0.8M–5.4M steps per query: dispatch dominates.
const LONG: [&str; 3] = ["tak", "zebra", "sendmore"];

/// Queries per image per repetition on `serve_short`.
const SHORT_QUERIES: u64 = 80;
/// Emulated steps per image per repetition on `serve_long`.
const LONG_STEPS: u64 = 160_000_000;
/// Largest request (sub-queries per `submit_batch`).
const MAX_BATCH: u64 = 8;
/// Engine-construction samples per image in the layer probe.
const SETUP_PROBES: usize = 8;

/// One served image and the requests a repetition sends it.
struct Image {
    bench: Benchmark,
    /// Sub-queries per request, in submission order.
    requests: Vec<usize>,
    /// `Compiled::run_sequential`'s step count: every answer must match.
    steps: u64,
}

/// A serving workload over a seed-ordered image set.
pub struct Serve {
    images: Vec<Image>,
    workers: usize,
    /// This run's scratch directory: the warm cache and the cold one.
    dir: PathBuf,
    /// The images of the latest set-up, in `images` order.
    loaded: Vec<Arc<Compiled>>,
    static_ops: u64,
}

impl Serve {
    /// Fills a warm cache under `dir` and draws, from `seed`, the image
    /// order and every request's size (1–8 sub-queries).
    ///
    /// # Errors
    ///
    /// A message when the cache cannot be created or an image does not
    /// compile and run.
    pub fn new(
        long: bool,
        seed: u64,
        smoke: bool,
        workers: usize,
        dir: &Path,
    ) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let mut names: Vec<&str> = match (long, smoke) {
            (false, false) => SHORT.to_vec(),
            (true, false) => LONG.to_vec(),
            (false, true) => vec!["conc30"],
            (true, true) => vec!["sendmore"],
        };
        for i in (1..names.len()).rev() {
            names.swap(i, rng.index(i + 1));
        }
        let warm = ArtifactCache::new(dir.join("warm"), Registry::disabled())
            .map_err(|e| format!("cannot create the cache under {}: {e}", dir.display()))?;
        let mut images = Vec::new();
        let mut loaded = Vec::new();
        for name in names {
            let bench = *benchmarks::by_name(name).expect("benchmark is in the suite");
            let image = warm
                .load_compiled_fused_shared(bench.source, Layout::default())
                .map_err(|e| format!("{name}: {e}"))?;
            let steps = image
                .run_sequential()
                .map_err(|e| format!("{name}: {e}"))?
                .steps;
            let queries = match (long, smoke) {
                (_, true) => 2,
                (false, false) => SHORT_QUERIES,
                (true, false) => LONG_STEPS.div_ceil(steps),
            };
            let mut requests = Vec::new();
            let mut left = queries;
            while left > 0 {
                let n = (1 + rng.below(MAX_BATCH)).min(left);
                requests.push(n as usize);
                left -= n;
            }
            // Largest first: the drain then ends on one-query requests,
            // so how long a worker idles while the other finishes does
            // not depend on the seed.
            requests.sort_unstable_by(|a, b| b.cmp(a));
            images.push(Image {
                bench,
                requests,
                steps,
            });
            loaded.push(image);
        }
        let static_ops = loaded.iter().map(|c| c.ici.len() as u64).sum();
        Ok(Serve {
            images,
            workers,
            dir: dir.to_path_buf(),
            loaded,
            static_ops,
        })
    }

    fn config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers,
            ..ServerConfig::default()
        }
    }

    /// Opens the cache directory `name` (`warm`, or the empty `cold`)
    /// as a restarting server would.
    fn open_cache(&self, name: &str) -> Result<ArtifactCache, String> {
        let dir = self.dir.join(name);
        ArtifactCache::new(&dir, Registry::disabled())
            .map_err(|e| format!("cannot open the cache {}: {e}", dir.display()))
    }

    /// Loads every image through `load` and starts (then stops) its
    /// server: what a restart pays before the first query. The loaded
    /// images serve the following repetitions.
    fn start_all(
        &mut self,
        cache: &ArtifactCache,
        load: impl Fn(&ArtifactCache, &Benchmark) -> Result<Arc<Compiled>, String>,
    ) -> Tally {
        let mut tally = Tally::default();
        let mut loaded = Vec::new();
        for img in &self.images {
            match load(cache, &img.bench) {
                Ok(image) => {
                    let server = QueryServer::start(
                        Arc::clone(&image),
                        &self.config(),
                        &Registry::disabled(),
                    );
                    drop(server);
                    loaded.push(image);
                    tally.record(Some(0));
                }
                Err(e) => {
                    eprintln!("serve: {}: {e}", img.bench.name);
                    tally.record(None);
                }
            }
        }
        if loaded.len() == self.images.len() {
            self.loaded = loaded;
        }
        tally
    }

    /// Serves one repetition's requests to every image, checking each
    /// answer against the sequential step count.
    fn serve(&self, obs: &Registry) -> Tally {
        let mut tally = Tally::default();
        for (img, image) in self.images.iter().zip(&self.loaded) {
            let results = {
                let _span = obs.span(stages::SERVER, &[("bench", img.bench.name)]);
                let server = QueryServer::start(Arc::clone(image), &self.config(), obs);
                for (id, &n) in img.requests.iter().enumerate() {
                    server.submit_batch(id as u64, n);
                }
                server.finish()
            };
            for (id, &n) in img.requests.iter().enumerate() {
                let answer = results
                    .get(id)
                    .filter(|r| r.id == id as u64)
                    .and_then(|r| r.outcome.as_ref().ok())
                    .and_then(QueryAnswer::batch);
                for k in 0..n {
                    let steps = answer.and_then(|a| a.get(k)).copied();
                    let ok = steps == Some(img.steps) && answer.map(<[u64]>::len) == Some(n);
                    tally.digest.push(steps.unwrap_or(0));
                    tally.record(ok.then_some(img.steps));
                }
            }
        }
        tally
    }
}

/// The warm/cold load of `ArtifactCache::load_compiled_fused` stage by
/// stage: artifact reads and stores, the front end on a miss, the
/// profiling run, and fusion on a fused-tier miss. Returns the image
/// and how many of its two artifact reads hit.
fn load_traced(
    cache: &ArtifactCache,
    b: &Benchmark,
    obs: &Registry,
) -> Result<(Compiled, u64), PipelineError> {
    let labels: &[(&str, &str)] = &[("bench", b.name)];
    let layout = Layout::default();
    let mut hits = 0;
    let key = ArtifactKey::emulator(b.source, &layout);
    let read = {
        let _span = obs.span(stages::CACHE_READ, labels);
        cache.load(&key, PayloadKind::Emulator)
    };
    let mut compiled = match read.map(|a| a.payload) {
        Some(Payload::Emulator {
            ici,
            decoded,
            layout,
        }) => {
            hits += 1;
            Compiled::from_artifact(ici, decoded, layout)?
        }
        _ => {
            let c = stages::compile(b.source, b.name, obs)?;
            let _span = obs.span(stages::CACHE_STORE, labels);
            let bytes = artifact::encode_emulator(&key, &c.ici, &c.decoded, &c.layout);
            let _ = cache.store(&key, PayloadKind::Emulator, &bytes);
            c
        }
    };
    let (stats, profile, _) = {
        let _span = obs.span(stages::PROFILE, labels);
        compiled.profile()?
    };
    let profile_hash = symbol_intcode::profile_hash(&stats, &profile);
    let key = ArtifactKey::fused(
        b.source,
        &layout,
        profile_hash,
        FuseConfig::default().cache_salt(),
    );
    let read = {
        let _span = obs.span(stages::CACHE_READ, labels);
        cache.load(&key, PayloadKind::Fused)
    };
    match read.map(|a| a.payload) {
        Some(Payload::Fused {
            fused,
            profile_hash: stored,
            report,
        }) if stored == profile_hash => {
            hits += 1;
            compiled.attach_fused_tier(FusedTier {
                program: fused,
                report,
                profile_hash,
            })?;
        }
        _ => {
            let tier = {
                let _span = obs.span(stages::FUSE, labels);
                compiled.attach_fused_from_profile(&stats, &profile)
            };
            let _span = obs.span(stages::CACHE_STORE, labels);
            let bytes =
                artifact::encode_fused(&key, &tier.program, tier.profile_hash, &tier.report);
            let _ = cache.store(&key, PayloadKind::Fused, &bytes);
        }
    }
    Ok((compiled, hits))
}

/// Steps of one run of `program` on a fresh engine, the run (not the
/// engine's construction) timed under `span`; `None` unless the query
/// succeeds.
fn timed_run(
    program: &DecodedProgram,
    layout: &Layout,
    span: &str,
    labels: &[(&str, &str)],
    obs: &Registry,
) -> Option<u64> {
    let mut emu = DecodedEmulator::new(program, layout);
    let run = {
        let _span = obs.span(span, labels);
        emu.run(&ExecConfig::default())
    };
    run.ok()
        .filter(|r| r.outcome == Outcome::Success)
        .map(|r| r.steps)
}

/// Total size of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for Serve {
    fn setup(&mut self) -> Tally {
        match self.open_cache("warm") {
            Ok(cache) => self.start_all(&cache, |cache, b| {
                let image = cache
                    .load_compiled_fused_shared(b.source, Layout::default())
                    .map_err(|e| e.to_string())?;
                // A warm start must hit both the image and its tier.
                if image.front.is_some() || image.fused.is_none() {
                    return Err("warm load missed the cache".into());
                }
                Ok(image)
            }),
            Err(e) => failed_start(&e, self.images.len()),
        }
    }

    fn rep(&mut self) -> Tally {
        self.serve(&Registry::disabled())
    }

    fn traced_cold_start(&mut self, obs: &Registry) -> Tally {
        match self.open_cache("cold") {
            Ok(cache) => self.start_all(&cache, |cache, b| {
                let (image, _) = load_traced(cache, b, obs).map_err(|e| e.to_string())?;
                Ok(Arc::new(image))
            }),
            Err(e) => failed_start(&e, self.images.len()),
        }
    }

    fn traced_setup(&mut self, obs: &Registry) -> Tally {
        let loads = obs.counter(stages::CACHE_LOADS, &[]);
        let hits = obs.counter(stages::CACHE_HITS, &[]);
        let pairs = obs.counter(stages::FUSE_PAIRS, &[]);
        match self.open_cache("warm") {
            Ok(cache) => self.start_all(&cache, |cache, b| {
                let (image, hit) = load_traced(cache, b, obs).map_err(|e| e.to_string())?;
                loads.add(2);
                hits.add(hit);
                pairs.add(image.fused.as_ref().map_or(0, |t| t.report.pairs));
                Ok(Arc::new(image))
            }),
            Err(e) => failed_start(&e, self.images.len()),
        }
    }

    fn traced_rep(&mut self, obs: &Registry) -> Tally {
        self.serve(obs)
    }

    fn probe(&mut self, obs: &Registry) -> Tally {
        let mut tally = Tally::default();
        let mut pool = ArenaPool::new();
        for (img, image) in self.images.iter().zip(&self.loaded) {
            let labels: &[(&str, &str)] = &[("bench", img.bench.name)];
            // What a served query pays before its first step: re-zeroing
            // a pooled engine. The one-step limit error is expected.
            let probe = [ExecConfig { max_steps: 1 }];
            image.run_batch(&probe, &mut pool);
            for _ in 0..SETUP_PROBES {
                let _span = obs.span(stages::EMU_SETUP, labels);
                image.run_batch(&probe, &mut pool);
            }
            // The repetition's queries on the engine alone, no server.
            for &n in &img.requests {
                let out = {
                    let _span = obs.span(stages::ENGINE, labels);
                    image.run_batch(&vec![ExecConfig::default(); n], &mut pool)
                };
                for o in out {
                    let ok = o.result == Ok(Outcome::Success) && o.steps == img.steps;
                    tally.record(ok.then_some(o.steps));
                }
            }
            obs.counter(stages::ENGINE_QUERIES, &[])
                .add(img.requests.iter().sum::<usize>() as u64);
            // Dispatch cost per step, decoded and fused, on one engine.
            let decoded = timed_run(&image.decoded, &image.layout, stages::EMU_RUN, labels, obs);
            tally.record(decoded.filter(|&s| s == img.steps));
            obs.counter(stages::RUN_STEPS, &[]).add(img.steps);
            if let Some(tier) = &image.fused {
                let fused = timed_run(&tier.program, &image.layout, stages::FUSED_RUN, labels, obs);
                tally.record(fused.filter(|&s| s == img.steps));
                obs.counter(stages::FUSED_STEPS, &[]).add(img.steps);
            }
        }
        tally
    }

    fn facts(&self) -> Facts {
        Facts {
            programs: self.images.len(),
            static_ops: self.static_ops,
            cache_bytes: dir_bytes(&self.dir.join("warm")),
        }
    }
}

/// A load pass that could not start: every image counts as failed.
fn failed_start(why: &str, images: usize) -> Tally {
    eprintln!("serve: {why}");
    let mut tally = Tally::default();
    (0..images).for_each(|_| tally.record(None));
    tally
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
