//! # amac-obs — deterministic metrics and tracing observers
//!
//! The paper's guarantees are quantitative — every delivery and every
//! acknowledgment is bounded by the `F_prog`/`F_ack` windows — yet a
//! pass/fail validator cannot show *where* the time goes inside an
//! execution. This crate adds the measurement surface, as two more
//! [`Observer`](amac_mac::Observer)s on the existing pipeline:
//!
//! * [`MetricsObserver`] — deterministic sim-time metrics: power-of-two
//!   bucket [`Histogram`]s of per-receiver delivery latency, ack latency,
//!   and progress-window slack relative to the `F_prog`/`F_ack` bounds,
//!   per-node counters, and an in-flight-instance depth [`TimeSeries`].
//!   The resulting [`MetricsReport`] renders to JSON that is
//!   byte-identical across `--jobs`.
//! * [`SpanObserver`] — every MAC bcast instance becomes a span (start
//!   tick, per-receiver delivery instants, terminal ack/abort/crash),
//!   exported as Chrome trace-event JSON loadable in Perfetto or
//!   `chrome://tracing`.
//!
//! Metric definitions, the bucket scheme, and the determinism contract
//! are specified in `docs/OBSERVABILITY.md`.

pub mod hist;
pub mod json;
pub mod metrics;
pub mod series;
pub mod spans;

pub use hist::Histogram;
pub use metrics::{MetricsObserver, MetricsReport};
pub use series::TimeSeries;
pub use spans::SpanObserver;
