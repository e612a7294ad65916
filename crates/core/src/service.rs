//! Batch service API: one warm [`SweepContext`] amortized over many
//! requests.
//!
//! A long-lived service evaluating many systems — a carbon-estimation
//! endpoint, a DSE driver, a batch queue worker — repeats the same expensive
//! stages (floorplans, per-die manufacturing CFP) across requests.
//! [`EcoChipService`] bundles an [`EcoChip`] estimator, a [`SweepEngine`]
//! and one [`SweepContext`] memo that lives as long as the service, so every
//! `estimate`/`stream` call after the first reuses whatever stage results
//! earlier calls computed, while staying bit-for-bit identical to cold
//! estimation.

use std::sync::atomic::{AtomicU64, Ordering};

use ecochip_trace::StageTimings;

use crate::error::EcoChipError;
use crate::estimator::EcoChip;
use crate::report::CarbonReport;
use crate::sweep::{
    SweepContext, SweepEngine, SweepPoint, SweepSink, SweepSlice, SweepSpec, SweepStats,
};
use crate::system::System;

/// A batch estimation service: an [`EcoChip`] estimator plus a warm, shared
/// [`SweepContext`] memo that spans requests.
///
/// ```
/// use ecochip_core::{Chiplet, ChipletSize, EcoChip, EcoChipService, System};
/// use ecochip_techdb::{DesignType, TechNode, TimeSpan};
///
/// let service = EcoChipService::new(EcoChip::default());
/// let system = System::builder("svc-demo")
///     .chiplet(Chiplet::new(
///         "soc",
///         DesignType::Logic,
///         TechNode::N7,
///         ChipletSize::Transistors(5.0e9),
///     ))
///     .build()?;
/// let first = service.estimate(&system)?;
/// // A second request over the same die reuses the memoized floorplan and
/// // manufacturing stages — and still matches cold estimation bit-for-bit.
/// let again = service.estimate(&system.with_lifetime(TimeSpan::from_years(4.0)))?;
/// assert!(service.stats().manufacturing_hits > 0);
/// assert!(again.total().kg() > first.total().kg());
/// # Ok::<(), ecochip_core::EcoChipError>(())
/// ```
#[derive(Debug)]
pub struct EcoChipService {
    estimator: EcoChip,
    engine: SweepEngine,
    context: SweepContext,
    /// Estimates served since creation (single estimates only, not sweep
    /// points).
    estimates: AtomicU64,
    /// Sweep points emitted since creation (every `stream` call).
    sweep_points: AtomicU64,
}

/// Lifetime request counters of an [`EcoChipService`], for service
/// dashboards and the HTTP server's `/metrics` endpoint. Monotonic, like
/// the memo's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Single-system estimates served ([`EcoChipService::estimate`]).
    pub estimates: u64,
    /// Sweep points emitted across every [`EcoChipService::stream`] call.
    pub sweep_points: u64,
}

impl EcoChipService {
    /// A service around `estimator` with a fresh memo and the default
    /// engine (one worker per unit of available parallelism).
    pub fn new(estimator: EcoChip) -> Self {
        Self::with_engine(estimator, SweepEngine::new(), SweepContext::new())
    }

    /// A service with an explicit sweep engine and memo (e.g. a pinned
    /// worker count and a [`SweepContext::with_capacity`] bound).
    pub fn with_engine(estimator: EcoChip, engine: SweepEngine, context: SweepContext) -> Self {
        Self {
            estimator,
            engine,
            context,
            estimates: AtomicU64::new(0),
            sweep_points: AtomicU64::new(0),
        }
    }

    /// The wrapped estimator.
    pub fn estimator(&self) -> &EcoChip {
        &self.estimator
    }

    /// The sweep engine used by [`EcoChipService::stream`].
    pub fn engine(&self) -> &SweepEngine {
        &self.engine
    }

    /// The warm memo shared by every request.
    pub fn context(&self) -> &SweepContext {
        &self.context
    }

    /// Hit/miss/eviction counters of the warm memo.
    pub fn stats(&self) -> SweepStats {
        self.context.stats()
    }

    /// Lifetime request counters: estimates served and sweep points emitted.
    pub fn service_stats(&self) -> ServiceStats {
        ServiceStats {
            estimates: self.estimates.load(Ordering::Relaxed),
            sweep_points: self.sweep_points.load(Ordering::Relaxed),
        }
    }

    /// Estimate one system against the warm memo. Bit-for-bit identical to
    /// [`EcoChip::estimate`], but stages shared with earlier requests are
    /// served from the cache.
    ///
    /// # Errors
    ///
    /// Propagates [`EcoChip::estimate`] errors.
    pub fn estimate(&self, system: &System) -> Result<CarbonReport, EcoChipError> {
        let report = self.estimator.estimate_with(system, &self.context)?;
        self.estimates.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// Stream the `slice` of a sweep (a [`Shard`](crate::sweep::Shard) or an
    /// explicit index range, see [`SweepEngine::stream`]) through `sink`
    /// against the warm memo, in deterministic case order. Every emitted
    /// point bumps [`ServiceStats::sweep_points`]; the HTTP server attaches
    /// a fresh [`StageTimings`] per request so estimator time is attributed
    /// exactly, while `None` costs one branch per point. Returns the number
    /// of points emitted.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (invalid ranges, case generation,
    /// estimation) and the first error returned by `sink`.
    pub fn stream<S: SweepSink + ?Sized>(
        &self,
        spec: &SweepSpec,
        slice: impl Into<SweepSlice>,
        timings: Option<&StageTimings>,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        let mut instrumented = InstrumentedSink {
            service: self,
            sink,
        };
        self.engine.stream(
            &self.estimator,
            spec,
            slice,
            &self.context,
            timings,
            &mut instrumented,
        )
    }
}

/// Wraps a caller sink so every emitted point bumps the service counters.
/// Batched emission passes straight through to the inner sink's bulk path,
/// re-price flags included, with one counter update per batch instead of
/// per point.
struct InstrumentedSink<'a, S: SweepSink + ?Sized> {
    service: &'a EcoChipService,
    sink: &'a mut S,
}

impl<S: SweepSink + ?Sized> InstrumentedSink<'_, S> {
    fn record(&self, points: u64) {
        self.service
            .sweep_points
            .fetch_add(points, Ordering::Relaxed);
    }
}

impl<S: SweepSink + ?Sized> SweepSink for InstrumentedSink<'_, S> {
    fn emit(&mut self, point: SweepPoint) -> Result<(), EcoChipError> {
        self.sink.emit(point)?;
        self.record(1);
        Ok(())
    }

    fn accept_batch(
        &mut self,
        points: Vec<SweepPoint>,
        repriced: &[bool],
    ) -> Result<(), EcoChipError> {
        let count = points.len() as u64;
        self.sink.accept_batch(points, repriced)?;
        self.record(count);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Shard, SweepAxis};
    use crate::system::{Chiplet, ChipletSize};
    use ecochip_packaging::{PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig};
    use ecochip_techdb::{DesignType, TechNode};

    fn base() -> System {
        System::builder("service-test")
            .chiplets([
                Chiplet::new(
                    "logic",
                    DesignType::Logic,
                    TechNode::N7,
                    ChipletSize::Transistors(8.0e9),
                ),
                Chiplet::new(
                    "mem",
                    DesignType::Memory,
                    TechNode::N14,
                    ChipletSize::Transistors(2.0e9),
                ),
            ])
            .build()
            .unwrap()
    }

    /// Stream `slice` of `spec` through the service, collecting the points.
    fn collect(
        service: &EcoChipService,
        spec: &SweepSpec,
        slice: impl Into<SweepSlice>,
    ) -> Vec<SweepPoint> {
        let mut points = Vec::new();
        let emitted = service
            .stream(spec, slice, None, &mut |point| {
                points.push(point);
                Ok(())
            })
            .unwrap();
        assert_eq!(emitted, points.len());
        points
    }

    #[test]
    fn warm_context_spans_requests_and_stays_exact() {
        let service = EcoChipService::new(EcoChip::default());
        let system = base();
        let first = service.estimate(&system).unwrap();
        assert_eq!(service.stats().floorplan_misses, 1);
        let second = service.estimate(&system).unwrap();
        assert_eq!(service.stats().floorplan_hits, 1);
        assert_eq!(first, second);
        // Bit-for-bit identical to a cold estimator.
        let cold = EcoChip::default().estimate(&system).unwrap();
        assert_eq!(cold, second);
        assert_eq!(cold.total().kg().to_bits(), second.total().kg().to_bits());
    }

    #[test]
    fn service_sweeps_match_the_bare_engine() {
        let service = EcoChipService::with_engine(
            EcoChip::default(),
            SweepEngine::with_jobs(3),
            SweepContext::new(),
        );
        assert_eq!(service.engine().jobs(), 3);
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::Packaging(vec![
                PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
                PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
            ]))
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0]));
        let via_service = collect(&service, &spec, Shard::FULL);
        let via_engine = SweepEngine::new().run(service.estimator(), &spec).unwrap();
        assert_eq!(via_service, via_engine);
        // A sharded service run concatenates to the full run.
        let mut merged = Vec::new();
        for index in 0..2 {
            let shard = Shard::new(index, 2).unwrap();
            merged.extend(collect(&service, &spec, shard));
        }
        assert_eq!(merged, via_engine);
    }

    #[test]
    fn service_counters_track_estimates_and_sweep_points() {
        let service = EcoChipService::new(EcoChip::default());
        assert_eq!(service.service_stats(), ServiceStats::default());
        service.estimate(&base()).unwrap();
        service.estimate(&base()).unwrap();
        let spec = SweepSpec::new(base()).axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0]));
        collect(&service, &spec, Shard::FULL);
        let tail = collect(&service, &spec, 1..3);
        assert_eq!(tail.len(), 2);
        // The range reproduces the exact suffix of the full run.
        let full = collect(&service, &spec, Shard::FULL);
        assert_eq!(tail, full[1..3]);
        let stats = service.service_stats();
        assert_eq!(stats.estimates, 2);
        assert_eq!(stats.sweep_points, 3 + 2 + 3);
    }
}
