//! # symbol-analysis
//!
//! The measurement layer of the SYMBOL evaluation system: dynamic
//! instruction-class mixes (Figure 2), Amdahl-law speed-up ceilings for
//! the shared-memory model (Figure 3), branch-predictability statistics
//! (Table 2 / Figure 4), and a small text-table renderer used by every
//! report the benchmark harness prints.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod amdahl;
pub mod mix;
pub mod predict;
pub mod table;

pub use amdahl::{amdahl_overlapped, amdahl_ports, amdahl_separate, port_cycle_floor, AmdahlCurve};
pub use mix::ClassMix;
pub use predict::{faulty_prediction, Histogram, PredictStats};
pub use table::TextTable;
