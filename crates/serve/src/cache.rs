//! The on-disk artifact cache.
//!
//! One directory, one file per [`ArtifactKey`] and payload kind, named
//! `{source_hash}-{config_hash}-{kind}.art`. The cache is safe under
//! concurrent writers: every store writes to a process-unique
//! temporary name in the same directory and publishes it with an
//! atomic `rename`, so a reader sees either the old complete file or
//! the new complete file, never a partial write. Corrupt entries —
//! bad magic, wrong version, truncation, checksum or key mismatch —
//! are counted, removed (best effort) and treated as misses: the
//! serving tier recompiles and the next store repairs the cache. An
//! emulator image whose stored layout is not the one its key names is
//! counted corrupt too, and recompiled; so is a fused tier that decodes
//! but is not a legal fusion of its base image, which is re-fused. No
//! artifact content can make [`ArtifactCache`] panic.
//!
//! Observability (all under the shared [`Registry`]):
//!
//! * `serve.cache.hit` / `serve.cache.miss` / `serve.cache.corrupt`
//!   counters, labelled with the payload `kind`; the loaders count a
//!   hit only for an artifact they serve,
//! * `serve.cache.store` / `serve.cache.store_failed` counters,
//! * `serve.deserialize` and `serve.compile` spans (their duration
//!   histograms expose deserialize-vs-compile latency directly), and
//!   the fused tier's `serve.profile` and `serve.fuse` spans, which
//!   only a cold or refused fused load runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use symbol_core::pipeline::{Compiled, FusedTier};
use symbol_core::PipelineError;
use symbol_intcode::Layout;
use symbol_obs::Registry;

use crate::artifact::{self, Artifact, ArtifactKey, Payload, PayloadKind};

/// A directory of compiled artifacts plus the observability handle all
/// cache traffic is reported through.
#[derive(Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
    obs: Registry,
    seq: AtomicU64,
}

impl ArtifactCache {
    /// Opens (creating if needed) the cache directory and reclaims
    /// stale `.tmp-{pid}-{seq}` files left behind by writers that
    /// crashed between write and rename: a temp whose writer pid is
    /// provably dead (no `/proc/{pid}` on Linux), or that is older
    /// than `STALE_TMP_AGE` (covers pid recycling and platforms
    /// without `/proc`), is removed. Temps of live writers — including
    /// this process — are left alone. Reclaimed files are counted
    /// under `serve.cache.tmp_reclaimed`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory. Reclaim itself is best
    /// effort and never fails the open.
    pub fn new(dir: impl Into<PathBuf>, obs: Registry) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        reclaim_stale_temps(&dir, &obs);
        Ok(ArtifactCache {
            dir,
            obs,
            seq: AtomicU64::new(0),
        })
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path the artifact of `key`/`kind` is published under.
    pub fn path_for(&self, key: &ArtifactKey, kind: PayloadKind) -> PathBuf {
        self.dir.join(key.file_name(kind))
    }

    fn counter(&self, name: &str, kind: PayloadKind) -> symbol_obs::Counter {
        self.obs.counter(name, &[("kind", kind.name())])
    }

    /// Loads and fully validates the artifact of `key`/`kind`, and
    /// counts it under `serve.cache.hit`.
    ///
    /// Returns `None` — never an error, never a panic — when the entry
    /// is absent or fails any validation (magic, version, checksum,
    /// payload structure, or a stored key that does not match the
    /// requested one). Invalid entries are counted under
    /// `serve.cache.corrupt` and removed best-effort so the next store
    /// replaces them.
    pub fn load(&self, key: &ArtifactKey, kind: PayloadKind) -> Option<Artifact> {
        let art = self.read(key, kind)?;
        self.counter("serve.cache.hit", kind).inc();
        Some(art)
    }

    /// [`ArtifactCache::load`] without the hit count, which the
    /// loaders below leave until the image accepts the payload.
    fn read(&self, key: &ArtifactKey, kind: PayloadKind) -> Option<Artifact> {
        let path = self.path_for(key, kind);
        let Ok(bytes) = std::fs::read(&path) else {
            self.counter("serve.cache.miss", kind).inc();
            return None;
        };
        let _span = self.obs.span("serve.deserialize", &[("kind", kind.name())]);
        let decoded = artifact::decode(&bytes).ok().filter(|a| {
            // A well-formed artifact under the wrong name serves the
            // wrong program: key and kind must match the request.
            a.key == *key && a.payload.kind() == kind
        });
        if decoded.is_none() {
            self.counter("serve.cache.corrupt", kind).inc();
            let _ = std::fs::remove_file(&path);
        }
        decoded
    }

    /// Publishes `bytes` as the artifact of `key`/`kind` via
    /// write-to-temp + atomic rename. Concurrent stores of the same
    /// key race benignly: whichever rename lands last wins, and every
    /// published file is complete.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or renaming (also counted under
    /// `serve.cache.store_failed`).
    pub fn store(&self, key: &ArtifactKey, kind: PayloadKind, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let publish = || -> std::io::Result<()> {
            std::fs::write(&tmp, bytes)?;
            std::fs::rename(&tmp, self.path_for(key, kind))
        };
        match publish() {
            Ok(()) => {
                self.counter("serve.cache.store", kind).inc();
                Ok(())
            }
            Err(e) => {
                self.counter("serve.cache.store_failed", kind).inc();
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// The emulator image of `source` under `layout`, deserialized on
    /// a hit, compiled and stored on a miss (see
    /// [`ArtifactCache::load_compiled_shared`]).
    fn load_compiled(&self, source: &str, layout: Layout) -> Result<Compiled, PipelineError> {
        let key = ArtifactKey::emulator(source, &layout);
        if let Some(art) = self.read(&key, PayloadKind::Emulator) {
            if let Payload::Emulator {
                ici,
                decoded,
                layout: stored,
            } = art.payload
            {
                // An image is served only under the layout its key
                // names: its code addresses the areas of that layout,
                // and an engine allocates the stored layout's memory.
                // `decode` already cross-checked the parts, so
                // `from_artifact` cannot fail; route it anyway rather
                // than unwrap.
                if stored == layout {
                    if let Ok(c) = Compiled::from_artifact(ici, decoded, stored) {
                        self.counter("serve.cache.hit", PayloadKind::Emulator).inc();
                        return Ok(c);
                    }
                }
                self.counter("serve.cache.corrupt", PayloadKind::Emulator)
                    .inc();
                let _ = std::fs::remove_file(self.path_for(&key, PayloadKind::Emulator));
            }
        }
        let compiled = {
            let _span = self.obs.span("serve.compile", &[("kind", "emu")]);
            // A disabled registry: the front end's own spans stay out
            // of the serving metrics.
            Compiled::from_source_obs(source, layout, &Registry::disabled(), "")?
        };
        let bytes =
            artifact::encode_emulator(&key, &compiled.ici, &compiled.decoded, &compiled.layout);
        let _ = self.store(&key, PayloadKind::Emulator, &bytes);
        Ok(compiled)
    }

    /// The warm/cold entry point of the serving tier: returns the
    /// [`Compiled`] image of `source` under `layout`, deserializing it
    /// from the cache when a valid artifact exists and compiling from
    /// source (then storing the artifact, best effort) otherwise.
    ///
    /// The two paths are distinguishable in the metrics: a warm hit
    /// runs under a `serve.deserialize` span and bumps
    /// `serve.cache.hit`; a cold start runs under `serve.compile` and
    /// bumps `serve.cache.miss` (or `serve.cache.corrupt`).
    ///
    /// Concurrent loaders of one key each read and decode on their
    /// own; they get bit-identical images, and a concurrent store
    /// still publishes whole files.
    ///
    /// # Errors
    ///
    /// Compilation errors from [`Compiled::from_source_obs`] on the
    /// cold path. A corrupt cache entry is never an error.
    pub fn load_compiled_shared(
        &self,
        source: &str,
        layout: Layout,
    ) -> Result<Arc<Compiled>, PipelineError> {
        self.load_compiled(source, layout).map(Arc::new)
    }

    /// The two-tier entry point: the base emulator image (as
    /// [`ArtifactCache::load_compiled_shared`] loads it), then the
    /// fused superinstruction tier on top.
    ///
    /// The fused artifact is keyed by source, layout and the fusion
    /// pass's salt, so a warm start loads it and attaches it with no
    /// profiling run and no fusion. [`Compiled::attach_fused_tier`]
    /// serves it only if it is a legal fusion of the base program; a
    /// decodable artifact it refuses is counted corrupt. When the
    /// artifact is absent or refused, the base program is profiled
    /// (`serve.profile` span) and fused (`serve.fuse` span), and the
    /// fresh artifact is stored, repairing the cache for the next start.
    ///
    /// Tier traffic is visible per kind: the fused artifact's hits,
    /// misses, corruptions and stores are all labelled `kind=fused`
    /// under the same `serve.cache.*` counters the base image uses.
    ///
    /// # Errors
    ///
    /// Compilation errors on the cold path, and any failure of the
    /// profiling run ([`PipelineError::WrongAnswer`] /
    /// [`PipelineError::Exec`]) — a program whose profile cannot be
    /// collected cannot be tiered.
    pub fn load_compiled_fused_shared(
        &self,
        source: &str,
        layout: Layout,
    ) -> Result<Arc<Compiled>, PipelineError> {
        let mut compiled = self.load_compiled(source, layout)?;
        // The fusion pass's own configuration is part of the key:
        // retuning a threshold must invalidate artifacts fused under
        // the old one.
        let fuse_salt = symbol_intcode::FuseConfig::default().cache_salt();
        let key = ArtifactKey::fused(source, &layout, 0, fuse_salt);
        if let Some(art) = self.read(&key, PayloadKind::Fused) {
            if let Payload::Fused {
                fused,
                profile_hash,
                report,
            } = art.payload
            {
                let tier = FusedTier {
                    program: fused,
                    report,
                    profile_hash,
                };
                if compiled.attach_fused_tier(tier).is_ok() {
                    self.counter("serve.cache.hit", PayloadKind::Fused).inc();
                    return Ok(Arc::new(compiled));
                }
                // A decodable artifact that is not a fusion of this
                // program must not be served.
                self.counter("serve.cache.corrupt", PayloadKind::Fused)
                    .inc();
            }
        }
        let (stats, profile, _steps) = {
            let _span = self.obs.span("serve.profile", &[("kind", "fused")]);
            compiled.profile()?
        };
        let tier = {
            let _span = self.obs.span("serve.fuse", &[("kind", "fused")]);
            compiled.attach_fused_from_profile(&stats, &profile)
        };
        let bytes = artifact::encode_fused(&key, &tier.program, tier.profile_hash, &tier.report);
        let _ = self.store(&key, PayloadKind::Fused, &bytes);
        Ok(Arc::new(compiled))
    }
}

/// Age beyond which an orphaned `.tmp-*` file is reclaimed even when
/// its writer cannot be proven dead: a store's temp lives only for the
/// milliseconds between write and rename, so anything this old is a
/// leak whatever its pid says (pids recycle, and not every platform
/// can answer liveness).
const STALE_TMP_AGE: std::time::Duration = std::time::Duration::from_secs(3600);

/// Whether the writer that owns a temp file might still be running.
/// Our own pid is always alive; on Linux other pids are checked via
/// `/proc`; elsewhere liveness is unknowable and the age threshold
/// decides alone.
fn temp_writer_may_be_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
    }
}

/// Parses the writer pid out of a `.tmp-{pid}-{seq}` file name;
/// `None` for anything that is not one of our temp files.
fn temp_writer_pid(name: &str) -> Option<u32> {
    let rest = name.strip_prefix(".tmp-")?;
    let (pid, seq) = rest.split_once('-')?;
    seq.parse::<u64>().ok()?;
    pid.parse().ok()
}

/// Best-effort removal of stale temp files in `dir` (see
/// [`ArtifactCache::new`]); returns the number reclaimed.
fn reclaim_stale_temps(dir: &Path, obs: &Registry) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut reclaimed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = temp_writer_pid(&name.to_string_lossy()) else {
            continue;
        };
        let old_enough = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age >= STALE_TMP_AGE);
        if (!temp_writer_may_be_alive(pid) || old_enough)
            && std::fs::remove_file(entry.path()).is_ok()
        {
            reclaimed += 1;
        }
    }
    if reclaimed > 0 {
        obs.counter("serve.cache.tmp_reclaimed", &[]).add(reclaimed);
    }
    reclaimed
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use symbol_intcode::{ArenaPool, DecodedEmulator, ExecConfig, RunResult};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch directory, removed on drop.
    pub(crate) struct TempDir(pub PathBuf);

    impl TempDir {
        pub(crate) fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "symbol-serve-{tag}-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    const SRC: &str = "main :- X is 3 + 4, X = 7.";

    fn counter(obs: &Registry, name: &str) -> u64 {
        obs.counter(name, &[("kind", "emu")]).get()
    }

    #[test]
    fn cold_then_warm() {
        let t = TempDir::new("coldwarm");
        let obs = Registry::new();
        let cache = ArtifactCache::new(&t.0, obs.clone()).expect("open cache");
        let a = cache
            .load_compiled_shared(SRC, Layout::default())
            .expect("cold");
        assert!(a.front.is_some(), "cold path compiled from source");
        assert_eq!(counter(&obs, "serve.cache.miss"), 1);
        assert_eq!(counter(&obs, "serve.cache.store"), 1);
        let b = cache
            .load_compiled_shared(SRC, Layout::default())
            .expect("warm");
        assert!(b.front.is_none(), "warm path skipped the front end");
        assert_eq!(counter(&obs, "serve.cache.hit"), 1);
        let ra = a.run_sequential().expect("runs");
        let rb = b.run_sequential().expect("runs");
        assert_eq!(ra.steps, rb.steps);
        assert_eq!(ra.stats.expect, rb.stats.expect);
    }

    const LOOP_SRC: &str = "main :- count(30). count(0). count(N) :- N > 0, M is N - 1, count(M).";

    fn fused_counter(obs: &Registry, name: &str) -> u64 {
        obs.counter(name, &[("kind", "fused")]).get()
    }

    /// How many times the span `name` closed on `obs`.
    fn span_count(obs: &Registry, name: &str) -> u64 {
        obs.snapshot()
            .histograms
            .iter()
            .filter(|h| h.name == format!("span.{name}.ns"))
            .map(|h| h.count)
            .sum()
    }

    /// One run of the image's installed fused tier.
    fn fused_run(c: &Compiled) -> RunResult {
        let tier = c.fused.as_ref().expect("fused tier installed");
        DecodedEmulator::new(&tier.program, &c.layout)
            .run(&ExecConfig::default())
            .expect("fused runs")
    }

    #[test]
    fn fused_cold_then_warm() {
        let t = TempDir::new("fusedwarm");
        let obs = Registry::new();
        let cache = ArtifactCache::new(&t.0, obs.clone()).expect("open cache");
        let a = cache
            .load_compiled_fused_shared(LOOP_SRC, Layout::default())
            .expect("cold");
        assert!(a.fused.is_some(), "cold path built the fused tier");
        assert_eq!(fused_counter(&obs, "serve.cache.miss"), 1);
        assert_eq!(fused_counter(&obs, "serve.cache.store"), 1);
        let b = cache
            .load_compiled_fused_shared(LOOP_SRC, Layout::default())
            .expect("warm");
        assert!(b.fused.is_some(), "warm path attached the fused tier");
        assert_eq!(fused_counter(&obs, "serve.cache.hit"), 1);
        for span in ["serve.profile", "serve.fuse"] {
            assert_eq!(
                span_count(&obs, span),
                1,
                "{span} ran on the cold load only"
            );
        }
        assert_eq!(
            a.fused.as_ref().unwrap().profile_hash,
            b.fused.as_ref().unwrap().profile_hash,
            "the stored profile record round-trips"
        );
        // Bit-identical across tiers and paths.
        let base = a.run_sequential().expect("decoded runs");
        let fa = fused_run(&a);
        let fb = fused_run(&b);
        assert_eq!(base.steps, fa.steps);
        assert_eq!(base.stats.expect, fa.stats.expect);
        assert_eq!(fa.steps, fb.steps);
        assert_eq!(fa.stats.expect, fb.stats.expect);
        assert_eq!(fa.stats.taken, fb.stats.taken);
    }

    #[test]
    fn corrupt_fused_entry_refuses_and_repairs() {
        let t = TempDir::new("fusedcorrupt");
        let obs = Registry::new();
        let cache = ArtifactCache::new(&t.0, obs.clone()).expect("open cache");
        let seeded = cache
            .load_compiled_fused_shared(LOOP_SRC, Layout::default())
            .expect("seed");
        let key = ArtifactKey::fused(
            LOOP_SRC,
            &Layout::default(),
            seeded.fused.as_ref().unwrap().profile_hash,
            symbol_intcode::FuseConfig::default().cache_salt(),
        );
        let path = cache.path_for(&key, PayloadKind::Fused);
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let c = cache
            .load_compiled_fused_shared(LOOP_SRC, Layout::default())
            .expect("refuse");
        assert!(c.fused.is_some(), "fell back to running the fusion pass");
        assert_eq!(fused_counter(&obs, "serve.cache.corrupt"), 1);
        // The fallback re-stored a good artifact.
        let d = cache
            .load_compiled_fused_shared(LOOP_SRC, Layout::default())
            .expect("warm");
        assert!(d.fused.is_some());
        assert_eq!(fused_counter(&obs, "serve.cache.hit"), 1);
    }

    #[test]
    fn a_tier_fused_for_another_program_is_refused_and_re_fused() {
        // Two programs of one length that differ only in a constant:
        // a length check cannot tell their tiers apart.
        let a_src = LOOP_SRC;
        let b_src = "main :- count(31). count(0). count(N) :- N > 0, M is N - 1, count(M).";
        let layout = Layout::default();
        let mut a = Compiled::from_source(a_src).expect("compiles");
        let reference = Compiled::from_source(b_src).expect("compiles");
        assert_eq!(reference.decoded.len(), a.decoded.len());
        let a_tier = a.build_fused_tier().expect("profiles and fuses");
        assert!(a_tier.report.pairs > 0, "A's tier fuses something");

        let t = TempDir::new("fusedforeign");
        let obs = Registry::new();
        let cache = ArtifactCache::new(&t.0, obs.clone()).expect("open cache");
        let salt = symbol_intcode::FuseConfig::default().cache_salt();
        let b_key = ArtifactKey::fused(b_src, &layout, 0, salt);
        let bytes =
            artifact::encode_fused(&b_key, &a_tier.program, a_tier.profile_hash, &a_tier.report);
        cache
            .store(&b_key, PayloadKind::Fused, &bytes)
            .expect("plant A's tier under B's key");

        let b = cache
            .load_compiled_fused_shared(b_src, layout)
            .expect("refuses and re-fuses");
        assert_eq!(fused_counter(&obs, "serve.cache.corrupt"), 1);
        assert_eq!(
            fused_counter(&obs, "serve.cache.hit"),
            0,
            "a refused tier is not a hit"
        );
        assert_eq!(span_count(&obs, "serve.fuse"), 1, "B was fused afresh");
        let expected = reference.run_sequential().expect("B runs");
        let served = fused_run(&b);
        assert_eq!(served.outcome, expected.outcome);
        assert_eq!(served.steps, expected.steps);
        assert_eq!(served.stats.expect, expected.stats.expect);
        assert_eq!(served.stats.taken, expected.stats.taken);

        // The re-fused tier replaced the planted one.
        let warm = cache
            .load_compiled_fused_shared(b_src, layout)
            .expect("warm");
        assert_eq!(fused_counter(&obs, "serve.cache.hit"), 1);
        assert_eq!(fused_counter(&obs, "serve.cache.corrupt"), 1);
        assert_eq!(
            warm.fused.as_ref().unwrap().program.to_wire_bytes(),
            b.fused.as_ref().unwrap().program.to_wire_bytes()
        );
    }

    /// `bytes` restamped with format `version` and its checksum
    /// recomputed, so the version is the entry's only defect.
    fn restamped(mut bytes: Vec<u8>, version: u32) -> Vec<u8> {
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let body = bytes.len() - 8;
        let checksum = symbol_intcode::wire::fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn a_version_1_cache_is_counted_corrupt_removed_and_rebuilt() {
        let t = TempDir::new("oldversion");
        let layout = Layout::default();
        ArtifactCache::new(&t.0, Registry::new())
            .expect("open cache")
            .load_compiled_fused_shared(LOOP_SRC, layout)
            .expect("seed");
        // The cache as a version-1 build left it: the version stamp is
        // read before anything else, so the rest of each file does not
        // matter.
        let obs = Registry::new();
        let cache = ArtifactCache::new(&t.0, obs.clone()).expect("reopen cache");
        let salt = symbol_intcode::FuseConfig::default().cache_salt();
        let paths = [
            cache.path_for(
                &ArtifactKey::emulator(LOOP_SRC, &layout),
                PayloadKind::Emulator,
            ),
            cache.path_for(
                &ArtifactKey::fused(LOOP_SRC, &layout, 0, salt),
                PayloadKind::Fused,
            ),
        ];
        for path in &paths {
            let bytes = std::fs::read(path).expect("read back");
            std::fs::write(path, restamped(bytes, 1)).expect("restamp");
        }

        let rebuilt = cache
            .load_compiled_fused_shared(LOOP_SRC, layout)
            .expect("rebuilds");
        assert!(rebuilt.front.is_some(), "the base image was recompiled");
        assert!(rebuilt.fused.is_some(), "and re-fused");
        for name in ["serve.cache.corrupt", "serve.cache.store"] {
            assert_eq!(counter(&obs, name), 1, "emulator {name}");
            assert_eq!(fused_counter(&obs, name), 1, "fused {name}");
        }
        assert_eq!(span_count(&obs, "serve.fuse"), 1);
        for path in &paths {
            let bytes = std::fs::read(path).expect("replaced entry");
            assert_eq!(bytes[8..12], artifact::FORMAT_VERSION.to_le_bytes());
        }

        // The next start is warm on both entries.
        let warm = cache
            .load_compiled_fused_shared(LOOP_SRC, layout)
            .expect("warm");
        assert!(warm.front.is_none(), "the base image was read back");
        assert_eq!(counter(&obs, "serve.cache.hit"), 1);
        assert_eq!(fused_counter(&obs, "serve.cache.hit"), 1);
        assert_eq!(span_count(&obs, "serve.fuse"), 1, "no second fusion");
        assert_eq!(
            warm.fused.as_ref().unwrap().program.to_wire_bytes(),
            rebuilt.fused.as_ref().unwrap().program.to_wire_bytes()
        );
    }

    #[test]
    fn truncated_entry_recompiles_cleanly() {
        let t = TempDir::new("trunc");
        let obs = Registry::new();
        let cache = ArtifactCache::new(&t.0, obs.clone()).expect("open cache");
        cache
            .load_compiled_shared(SRC, Layout::default())
            .expect("seed");
        let path = cache.path_for(
            &ArtifactKey::emulator(SRC, &Layout::default()),
            PayloadKind::Emulator,
        );
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let c = cache
            .load_compiled_shared(SRC, Layout::default())
            .expect("recompile");
        assert!(c.front.is_some(), "corrupt entry fell back to compiling");
        assert_eq!(counter(&obs, "serve.cache.corrupt"), 1);
        // The fallback re-stored a good artifact.
        let d = cache
            .load_compiled_shared(SRC, Layout::default())
            .expect("warm");
        assert!(d.front.is_none());
    }

    #[test]
    fn wrong_key_under_right_name_is_corrupt() {
        let t = TempDir::new("wrongkey");
        let obs = Registry::new();
        let cache = ArtifactCache::new(&t.0, obs.clone()).expect("open cache");
        let other = "main :- 9 = 9.";
        cache
            .load_compiled_shared(other, Layout::default())
            .expect("seed");
        // Republish the other program's artifact under SRC's file name.
        let from = cache.path_for(
            &ArtifactKey::emulator(other, &Layout::default()),
            PayloadKind::Emulator,
        );
        let to = cache.path_for(
            &ArtifactKey::emulator(SRC, &Layout::default()),
            PayloadKind::Emulator,
        );
        std::fs::copy(&from, &to).expect("misfile");
        let c = cache
            .load_compiled_shared(SRC, Layout::default())
            .expect("recompile");
        assert!(
            c.front.is_some(),
            "key mismatch must not serve the wrong program"
        );
        assert_eq!(counter(&obs, "serve.cache.corrupt"), 1);
    }

    #[test]
    fn an_image_stored_under_another_layout_is_refused_and_rebuilt() {
        let layout = Layout::default();
        let key = ArtifactKey::emulator(SRC, &layout);
        let image = Compiled::from_source(SRC).expect("compiles");
        let expected = image.run_sequential().expect("runs");
        // A layout whose areas the code overruns, and one no engine
        // can allocate.
        for heap_size in [16, 1 << 60] {
            let t = TempDir::new("wronglayout");
            let obs = Registry::new();
            let cache = ArtifactCache::new(&t.0, obs.clone()).expect("open cache");
            let planted = Layout {
                heap_size,
                ..layout
            };
            let bytes = artifact::encode_emulator(&key, &image.ici, &image.decoded, &planted);
            cache
                .store(&key, PayloadKind::Emulator, &bytes)
                .expect("plant the image under the default layout's key");

            let c = cache
                .load_compiled_shared(SRC, layout)
                .expect("refuses and rebuilds");
            assert_eq!(counter(&obs, "serve.cache.corrupt"), 1, "heap {heap_size}");
            assert_eq!(counter(&obs, "serve.cache.hit"), 0, "heap {heap_size}");
            assert!(c.front.is_some(), "heap {heap_size}: recompiled");
            assert_eq!(c.layout, layout);
            let served = c.run_batch(&[ExecConfig::default()], &mut ArenaPool::new());
            assert_eq!(served[0].result, Ok(expected.outcome), "heap {heap_size}");
            assert_eq!(served[0].steps, expected.steps, "heap {heap_size}");

            // The rebuilt entry replaced the planted one.
            let warm = cache.load_compiled_shared(SRC, layout).expect("warm");
            assert!(warm.front.is_none(), "heap {heap_size}: read back");
            assert_eq!(warm.layout, layout);
            assert_eq!(counter(&obs, "serve.cache.hit"), 1, "heap {heap_size}");
            assert_eq!(counter(&obs, "serve.cache.corrupt"), 1, "heap {heap_size}");
        }
    }

    #[test]
    fn concurrent_fused_cold_warmups_get_bit_identical_images() {
        let t = TempDir::new("fusedrace");
        let cache = Arc::new(ArtifactCache::new(&t.0, Registry::new()).expect("open cache"));
        let images: Vec<Arc<Compiled>> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    cache
                        .load_compiled_fused_shared(LOOP_SRC, Layout::default())
                        .expect("tiered image")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|th| th.join().expect("no panic"))
            .collect();
        let runs: Vec<u64> = images
            .iter()
            .map(|c| {
                assert!(c.fused.is_some(), "every warmer got the tiered image");
                fused_run(c).steps
            })
            .collect();
        assert!(runs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn opening_the_cache_reclaims_temps_of_dead_writers_only() {
        let t = TempDir::new("reclaim");
        // A pid above Linux's default pid_max (4194304): provably dead.
        let dead = t.0.join(".tmp-4294000000-3");
        std::fs::write(&dead, b"half-written artifact").expect("plant dead temp");
        // Our own pid: a live writer's temp must survive the open.
        let live = t.0.join(format!(".tmp-{}-7", std::process::id()));
        std::fs::write(&live, b"in flight").expect("plant live temp");
        // Not our naming scheme: never touched.
        let foreign = t.0.join(".tmp-not-a-pid");
        std::fs::write(&foreign, b"someone else's").expect("plant foreign file");

        let obs = Registry::new();
        let cache = ArtifactCache::new(&t.0, obs.clone()).expect("open cache");
        assert!(!dead.exists(), "dead writer's temp reclaimed on open");
        assert!(live.exists(), "live writer's temp left alone");
        assert!(foreign.exists(), "non-temp files left alone");
        assert_eq!(obs.counter("serve.cache.tmp_reclaimed", &[]).get(), 1);

        // The cache still works normally after the sweep.
        cache
            .load_compiled_shared(SRC, Layout::default())
            .expect("cold");
        cache
            .load_compiled_shared(SRC, Layout::default())
            .expect("warm");
    }

    #[test]
    fn concurrent_writers_never_publish_a_partial_file() {
        let t = TempDir::new("race");
        // Half the writers share one cache, as threads of one server
        // would; the other half open their own, as separate processes
        // sharing the directory would. Only write-then-rename keeps the
        // published file whole.
        let shared = Arc::new(ArtifactCache::new(&t.0, Registry::new()).expect("open cache"));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let cache = if i % 2 == 0 {
                    Arc::clone(&shared)
                } else {
                    Arc::new(ArtifactCache::new(&t.0, Registry::new()).expect("open cache"))
                };
                std::thread::spawn(move || {
                    (0..4)
                        .map(|_| {
                            let c = cache
                                .load_compiled_shared(SRC, Layout::default())
                                .expect("load or compile");
                            c.run_sequential().expect("runs").steps
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let steps: Vec<u64> = threads
            .into_iter()
            .flat_map(|th| th.join().expect("no worker panicked"))
            .collect();
        assert!(
            steps.windows(2).all(|w| w[0] == w[1]),
            "every loader got a bit-identical image: {steps:?}"
        );
        // Whatever the interleaving, the published file is complete.
        let cache = ArtifactCache::new(&t.0, Registry::new()).expect("open cache");
        let warm = cache
            .load_compiled_shared(SRC, Layout::default())
            .expect("warm");
        assert!(warm.front.is_none(), "final cache entry is valid");
        let leftovers: Vec<_> = std::fs::read_dir(&t.0)
            .expect("list dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "no temp files left behind");
    }
}
