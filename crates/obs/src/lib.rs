//! Unified observability for the rlwe workspace: a metrics registry,
//! RAII span tracing, and exposition-format exporters.
//!
//! Three pieces, all std-only and lock-free on the hot path:
//!
//! - **[`registry`]** — named [`Counter`]s, [`Gauge`]s and sharded
//!   nanosecond [`Histogram`]s with label support. Handles are resolved
//!   *once* at registration (a [`Registry`] lookup under a mutex);
//!   recording through a handle afterwards is a single relaxed atomic
//!   operation, so instrumented hot paths never touch the registry lock.
//! - **[`span`]** — RAII [`Span`] guards with thread-local span stacks
//!   feeding a bounded lock-free ring-buffer event sink. Tracing is off
//!   by default: a disabled span costs one relaxed load and a branch
//!   (measured well under 5 ns — see `rlwe-bench`'s `obs_overhead`
//!   bench arm, which asserts the bound in CI).
//! - **[`export`]** — Prometheus-style text exposition and a JSON
//!   snapshot, both pure functions of a registry so a future network
//!   front-end can serve [`render`] verbatim.
//!
//! The shared aligned-text-table formatter used by `EngineMetrics::report`
//! and `rlwe-m4sim`'s table reproduction lives in [`table`].
//!
//! # No secret data
//!
//! Metric names, label values and span names must be keyed only by
//! *public* data (parameter set, reducer kind, backend, operation name —
//! never key material, messages or noise). Recording a duration or
//! bumping a counter performs no data-dependent branching, so
//! instrumentation cannot perturb constant-time code; the
//! `crates/leakage` invariance gates pin that enabling tracing leaves
//! decapsulation operation traces bit-identical.
//!
//! # Example
//!
//! ```
//! use rlwe_obs::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache_hits_total", "Cache hits.", &[("tier", "l1")]);
//! hits.inc();
//! hits.add(2);
//! assert_eq!(hits.get(), 3);
//! let text = rlwe_obs::export::render_text(&reg);
//! assert!(text.contains("cache_hits_total{tier=\"l1\"} 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod registry;
pub mod span;
pub mod table;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, Registry};
pub use span::{phase_totals, PhaseTotal, Span, SpanEvent, SpanId};
pub use table::{group_digits, Align, Col, TextTable};

use std::sync::OnceLock;

/// The process-wide default registry. Every crate in the workspace
/// registers its instrumentation here, so one [`render`] call exposes
/// the whole stack.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Renders the global registry in Prometheus text exposition format.
///
/// Pure read: the returned string is exactly what a metrics endpoint
/// should serve.
pub fn render() -> String {
    export::render_text(global())
}

/// Renders the global registry as a JSON snapshot (same hand-rolled
/// idiom as `rlwe-bench`'s `perf_snapshot`).
pub fn render_json() -> String {
    export::render_json(global())
}

/// Enables or disables span tracing process-wide. Off by default.
pub fn set_tracing(on: bool) {
    span::set_enabled(on)
}

/// Whether span tracing is currently enabled.
pub fn tracing_enabled() -> bool {
    span::enabled()
}

#[cfg(test)]
mod tests {
    #[test]
    fn global_registry_is_a_singleton() {
        let a = super::global() as *const _;
        let b = super::global() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn tracing_toggle_round_trips() {
        let _flag = super::span::tracing_flag_lock();
        super::set_tracing(true);
        assert!(super::tracing_enabled());
        super::set_tracing(false);
        assert!(!super::tracing_enabled());
    }
}
