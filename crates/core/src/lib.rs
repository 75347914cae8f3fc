//! # symbol-core
//!
//! The top of the SYMBOL evaluation system (paper Figure 1): benchmark
//! registry, the compilation [`pipeline`], and the experiment drivers
//! that regenerate every table and figure of the paper.
//!
//! ```
//! use symbol_core::{benchmarks, pipeline::Compiled};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = benchmarks::by_name("conc30").unwrap();
//! let compiled = Compiled::from_source(bench.source)?;
//! let run = compiled.run_sequential()?;
//! assert!(run.steps > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod benchmarks;
pub mod experiments;
pub mod extras;
pub mod obs_report;
pub mod pipeline;

pub use benchmarks::{Benchmark, ALL};
pub use pipeline::{Compiled, CompiledCache, FusedTier, PipelineError};
