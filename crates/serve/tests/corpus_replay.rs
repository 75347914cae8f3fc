//! Replays the differential-fuzz corpus through the serving tier's
//! entry points. The contract under test is narrow but absolute: no
//! corpus input — well-formed Prolog, failing Prolog, or raw case
//! bytes misread as an artifact — may panic the server. Errors are
//! fine; panics are not.

use symbol_intcode::Layout;
use symbol_obs::Registry;
use symbol_serve::artifact;
use symbol_serve::cache::ArtifactCache;
use symbol_serve::server::{QueryServer, ServerConfig};

fn corpus_files() -> Vec<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("fuzz corpus directory exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "fuzz corpus is not empty");
    files
}

/// The non-comment body of a case file (its Prolog source or IntCode
/// fragment text).
fn body(text: &str) -> String {
    text.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n")
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("symbol-serve-corpus-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn corpus_bytes_never_panic_the_artifact_decoder() {
    for path in corpus_files() {
        let bytes = std::fs::read(&path).expect("read case");
        // Case files are not artifacts; decoding must reject, never
        // panic. Also stress the decoder with every prefix.
        assert!(artifact::decode(&bytes).is_err(), "{path:?}");
        for len in (0..bytes.len()).step_by(7) {
            assert!(artifact::decode(&bytes[..len]).is_err(), "{path:?}@{len}");
        }
    }
}

#[test]
fn corpus_sources_flow_through_cache_and_server_without_panicking() {
    let t = TempDir::new("flow");
    let obs = Registry::new();
    let cache = ArtifactCache::new(&t.0, obs.clone()).expect("open cache");
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("read case");
        let kind_prolog = text.contains("# kind: prolog");
        let src = body(&text);
        // Cold, then warm: both paths must be panic-free whatever the
        // case contains. Non-Prolog cases fail to compile — also fine.
        for _ in 0..2 {
            match cache.load_compiled_shared(&src, Layout::default()) {
                Ok(compiled) => {
                    let server = QueryServer::start(compiled, &ServerConfig::default(), &obs);
                    for id in 0..4 {
                        server.submit_batch(id, 1);
                    }
                    let results = server.finish();
                    assert_eq!(results.len(), 4, "{path:?}");
                }
                Err(e) => {
                    // Non-Prolog fragments may fail to compile, but a
                    // `# expect: pass` Prolog case must at least reach
                    // the server (its *query* may still fail there).
                    assert!(
                        !(kind_prolog && text.contains("# expect: pass")),
                        "{path:?}: expected to serve, got {e}"
                    );
                }
            }
        }
    }
}
