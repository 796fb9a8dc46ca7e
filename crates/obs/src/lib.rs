//! `shc-obs`: zero-dependency observability for the characterization stack.
//!
//! The solver layers (transient integration, MPNR corrector, Euler-Newton
//! tracer, fan-out sweeps) are instrumented against this crate:
//!
//! - **Counters & histograms** ([`count`], [`observe`]) for convergence
//!   work: Newton iterations, Newton step cuts, LU refactors/solves, MPNR
//!   iterations per point, predictor α adaptations, matrix allocations.
//! - **Spans** ([`span`]) for hierarchical wall-clock timing, attributed
//!   per `(parent, child)` edge and aware of the worker threads spawned by
//!   `shc_core::parallel::run_indexed`.
//! - **Run journal** ([`journal`]): one structured JSONL event per traced
//!   contour point, via a pluggable [`Sink`] (in-memory for tests,
//!   buffered file writer for the CLI).
//!
//! All instrumentation is compiled in but inert until a [`Collector`] is
//! installed on the thread with [`install_scoped`]; the off-path cost is
//! one thread-local boolean read per call site, so the allocation-free
//! transient hot loop stays allocation-free either way.
//!
//! ```
//! use shc_obs::{Collector, Metric, SpanKind};
//!
//! let collector = Collector::new();
//! {
//!     let _guard = shc_obs::install_scoped(&collector);
//!     let _span = shc_obs::span(SpanKind::Trace);
//!     shc_obs::observe(Metric::MpnrIterations, 3);
//! }
//! assert_eq!(collector.counter(Metric::MpnrIterations), 3);
//! println!("{}", collector.snapshot());
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod collector;
mod journal;
pub mod json;
mod metric;
mod snapshot;

pub use checkpoint::{CheckpointPoint, TraceCheckpoint};
pub use collector::{
    count, current, enabled, install_scoped, journal, journal_level, observe, span,
    with_journal_level, Collector, InstallGuard, LevelGuard, SpanGuard,
};
pub use journal::{FileSink, JournalEvent, MemorySink, Sink};
pub use metric::{Metric, SpanKind};
pub use snapshot::{bucket_low, bucket_of, MetricsSnapshot, SpanEdge, HIST_BUCKETS};
