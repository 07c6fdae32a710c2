//! # amac-bench — the Figure 1 reproduction harness
//!
//! Parameter sweeps, scaling-law fits, and table rendering that regenerate
//! every cell of the paper's Figure 1 (the results table) and Figure 2
//! (the lower-bound network), plus the three FMMB subroutine guarantees.
//!
//! Each experiment lives in [`experiments`] and produces both structured
//! data (sweep points, fits) and a rendered [`table::Table`]. Sweep points
//! are measured by the multi-trial [`engine`] ([`TrialRunner`]): `N`
//! independent trials per experiment, fanned over a worker pool, folded
//! into mean/CI aggregates that are bit-identical for any worker count.
//! The `repro` binary prints these tables (`repro <id>` for one
//! experiment, `--trials N --jobs J`) and emits the EXPERIMENTS.md
//! dataset.
//!
//! ```no_run
//! // Regenerate the G' = G cell of Figure 1, 8 trials over 4 workers:
//! use amac_bench::engine::TrialRunner;
//! let result = amac_bench::experiments::fig1_gg::run_default_with(&TrialRunner::new(8, 4));
//! println!("{}", result.table);
//! assert!(result.bound_fit.max_ratio < 3.0);
//! ```

pub mod check;
pub mod engine;
pub mod experiments;
pub mod fit;
pub mod json;
pub mod plot;
pub mod record;
pub mod table;

pub use engine::{TrialRunner, TrialStats};
pub use experiments::SweepPoint;
pub use record::{CanonicalOpts, CanonicalRun, RecordedTrace};
