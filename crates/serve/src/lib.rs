//! # symbol-serve
//!
//! The compiled-artifact serving layer of the SYMBOL evaluation
//! system: a versioned, zero-dependency binary format for compiled
//! programs ([`artifact`]), an on-disk cache keyed by source and
//! configuration hashes with atomic publication and corrupt-entry
//! recovery ([`cache`]), and a bounded worker pool answering many
//! independent queries against one shared immutable image
//! ([`server`]).
//!
//! The contract of the whole crate is *panic freedom on untrusted
//! input*: no artifact file — truncated, bit-flipped, misnamed, or
//! from a different format version — and no query can panic the
//! serving process. Corruption is detected (checksummed container,
//! fully validating payload decoders), counted, and healed by
//! recompiling from source.
//!
//! Both halves report only through the [`symbol_obs::Registry`]
//! passed to [`ArtifactCache::new`] and [`QueryServer::start`]:
//! counters, the `serve.stage.ns` latency histograms, the queue-depth
//! gauge and spans. Whoever holds the registry snapshots it; there is
//! no in-band stats request and no incident dump.
//!
//! ```no_run
//! use symbol_serve::cache::ArtifactCache;
//! use symbol_serve::server::{QueryServer, ServerConfig};
//! use symbol_intcode::Layout;
//! use symbol_obs::Registry;
//!
//! let obs = Registry::new();
//! let cache = ArtifactCache::new("artifacts", obs.clone())?;
//! // Warm start: deserializes the artifact instead of recompiling.
//! let compiled = cache.load_compiled_shared("main :- 1 = 1.", Layout::default())?;
//! let server = QueryServer::start(compiled, &ServerConfig::default(), &obs);
//! for id in 0..32 {
//!     server.submit_batch(id, 1);
//! }
//! let results = server.finish();
//! # assert_eq!(results.len(), 32);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod cache;
pub mod server;

pub use artifact::{Artifact, ArtifactKey, Payload, PayloadKind, FORMAT_VERSION, MAGIC};
pub use cache::ArtifactCache;
pub use server::{QueryAnswer, QueryResult, QueryServer, ServerConfig};
