//! Batch service API: one warm [`SweepContext`] amortized over many
//! requests.
//!
//! A long-lived service evaluating many systems — a carbon-estimation
//! endpoint, a DSE driver, a batch queue worker — repeats the same expensive
//! stages (floorplans, per-die manufacturing CFP) across requests.
//! [`EcoChipService`] bundles an [`EcoChip`] estimator, a [`SweepEngine`]
//! and one persistent [`SweepContext`] memo, so every `estimate`/`stream`
//! call after the first reuses whatever stage results earlier calls computed,
//! while staying bit-for-bit identical to cold estimation.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use ecochip_trace::{FieldValue, StageTimings};

use crate::error::EcoChipError;
use crate::estimator::EcoChip;
use crate::report::CarbonReport;
use crate::sweep::{
    SweepContext, SweepEngine, SweepPoint, SweepSink, SweepSlice, SweepSpec, SweepStats,
};
use crate::system::System;

/// A batch estimation service: an [`EcoChip`] estimator plus a warm, shared
/// [`SweepContext`] memo that persists across requests.
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
    autosave: Option<Autosave>,
    /// Latched after a failed autosave so a persistent disk problem warns
    /// once per failure streak instead of once per point.
    autosave_warned: AtomicBool,
    /// Dirty-entry level a failed autosave retries at (0 = no backoff):
    /// serializing the whole memo on *every* point while a disk stays
    /// broken would collapse throughput, so after a failure the next
    /// attempt waits for another `every_entries` of new work.
    autosave_retry_at: AtomicUsize,
    /// Estimates served since creation (single estimates only, not sweep
    /// points).
    estimates: AtomicU64,
    /// Sweep points emitted since creation (every `stream` call).
    sweep_points: AtomicU64,
}

/// Lifetime request counters of an [`EcoChipService`], for service
/// dashboards and the HTTP server's `/metrics` endpoint. Monotonic — they
/// survive memo loads and capacity changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Single-system estimates served ([`EcoChipService::estimate`]).
    pub estimates: u64,
    /// Sweep points emitted across every [`EcoChipService::stream`] call.
    pub sweep_points: u64,
}

/// What a memo import absorbed (see [`EcoChipService::import_memo_json`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoImport {
    /// Floorplans absorbed (entries already present are skipped).
    pub floorplans: usize,
    /// Manufacturing results absorbed.
    pub manufacturing: usize,
}

/// Incremental memo persistence configured by
/// [`EcoChipService::save_memo_every`].
#[derive(Debug, Clone)]
struct Autosave {
    path: PathBuf,
    every_entries: usize,
}

impl EcoChipService {
    /// A service around `estimator` with a fresh memo and the default
    /// engine (one worker per unit of available parallelism).
    pub fn new(estimator: EcoChip) -> Self {
        Self::with_engine(estimator, SweepEngine::new())
    }

    /// A service with an explicit sweep engine (e.g. a pinned worker count).
    pub fn with_engine(estimator: EcoChip, engine: SweepEngine) -> Self {
        Self {
            estimator,
            engine,
            context: SweepContext::new(),
            autosave: None,
            autosave_warned: AtomicBool::new(false),
            autosave_retry_at: AtomicUsize::new(0),
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

    /// Bound the warm memo to `capacity` entries per cache with
    /// least-recently-used eviction (`None` lifts the bound), evicting any
    /// excess immediately. The bound survives [`EcoChipService::load_memo`].
    /// Results stay bit-for-bit identical — eviction only trades
    /// recomputation for memory.
    pub fn set_memo_capacity(&mut self, capacity: Option<usize>) {
        self.context.set_capacity(capacity);
    }

    /// The warm memo's per-cache entry bound, if any.
    pub fn memo_capacity(&self) -> Option<usize> {
        self.context.capacity()
    }

    /// Persist the warm memo to `path` whenever at least `every_entries` new
    /// entries accumulated since the last save, checked after every
    /// estimate/sweep point. Long-running sweeps and servers thereby survive
    /// a crash with most of their memo intact, instead of saving only at
    /// exit. Saves are atomic (temp file + rename, see
    /// [`SweepContext::save_to`]); `every_entries` is clamped to at least 1.
    ///
    /// Persistence is an optimization, so a *failed* autosave never fails
    /// the request that triggered it — the failure is warned to stderr
    /// (once per streak) and retried as more entries accumulate. Note each
    /// autosave rewrites the whole memo snapshot: with a small
    /// `every_entries` and a large memo, saving cost grows with memo size,
    /// so pick a threshold proportional to how much recomputation a crash
    /// may cost.
    pub fn save_memo_every(&mut self, path: impl Into<PathBuf>, every_entries: usize) {
        self.autosave = Some(Autosave {
            path: path.into(),
            every_entries: every_entries.max(1),
        });
    }

    /// Disable [`EcoChipService::save_memo_every`] autosaving.
    pub fn disable_autosave(&mut self) {
        self.autosave = None;
    }

    /// Save the memo if the autosave threshold has been crossed. Failures
    /// are warned, never propagated — losing persistence must not lose the
    /// computed result that triggered the save.
    fn maybe_autosave(&self) {
        let Some(autosave) = &self.autosave else {
            return;
        };
        let dirty = self.context.dirty_entries();
        if dirty
            < autosave
                .every_entries
                .max(self.autosave_retry_at.load(Ordering::Relaxed))
        {
            return;
        }
        match self
            .context
            .save_to(&autosave.path, self.memo_fingerprint())
        {
            Ok(()) => {
                self.autosave_warned.store(false, Ordering::Relaxed);
                self.autosave_retry_at.store(0, Ordering::Relaxed);
            }
            Err(error) => {
                // Back off: don't re-serialize the whole memo per point
                // while the disk stays broken.
                self.autosave_retry_at
                    .store(dirty + autosave.every_entries, Ordering::Relaxed);
                if !self.autosave_warned.swap(true, Ordering::Relaxed) {
                    ecochip_trace::warn(
                        "core::service",
                        "memo autosave failed; will keep retrying",
                        &[
                            (
                                "path",
                                FieldValue::from(autosave.path.display().to_string()),
                            ),
                            ("error", FieldValue::from(error.to_string())),
                        ],
                    );
                }
            }
        }
    }

    /// The estimator's memo fingerprint (see
    /// [`EcoChip::memo_fingerprint`]); memo files saved by this service are
    /// stamped with it.
    pub fn memo_fingerprint(&self) -> u64 {
        self.estimator.memo_fingerprint()
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
        self.maybe_autosave();
        Ok(report)
    }

    /// Stream the `slice` of a sweep (a [`Shard`](crate::sweep::Shard) or an
    /// explicit index range, see [`SweepEngine::stream`]) through `sink`
    /// against the warm memo, in deterministic case order. Every emitted
    /// point bumps [`ServiceStats::sweep_points`] and checks the autosave
    /// threshold; the HTTP server attaches a fresh [`StageTimings`] per
    /// request so estimator time is attributed exactly, while `None` costs
    /// one branch per point. Returns the number of points emitted.
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

    /// Persist the warm memo to `path`, stamped with this service's
    /// fingerprint, so a later process can start warm.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepContext::save_to`] errors.
    pub fn save_memo(&self, path: &Path) -> Result<(), EcoChipError> {
        self.context.save_to(path, self.memo_fingerprint())?;
        // Any successful save proves the destination is healthy again:
        // clear a prior autosave failure streak so the incremental cadence
        // resumes immediately instead of waiting out the backoff.
        self.autosave_warned.store(false, Ordering::Relaxed);
        self.autosave_retry_at.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Replace the warm memo with one persisted by
    /// [`EcoChipService::save_memo`] (or [`SweepContext::save_to`]); the
    /// file's fingerprint must match this service's estimator.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepContext::load_from`] errors ([`EcoChipError::Io`],
    /// [`EcoChipError::MemoFormat`], [`EcoChipError::StaleMemo`]).
    pub fn load_memo(&mut self, path: &Path) -> Result<(), EcoChipError> {
        let capacity = self.context.capacity();
        let mut restored = SweepContext::load_from(path, self.memo_fingerprint())?;
        restored.set_capacity(capacity);
        self.context = restored;
        Ok(())
    }

    /// Serialize the warm memo as versioned JSON stamped with this
    /// service's fingerprint — the same format [`EcoChipService::save_memo`]
    /// writes to disk, so the export can be saved, posted to another
    /// server, or re-imported.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepContext::to_json`] errors.
    pub fn export_memo_json(&self) -> Result<String, EcoChipError> {
        self.context.to_json(self.memo_fingerprint())
    }

    /// Absorb a memo exported by [`EcoChipService::export_memo_json`] (or
    /// saved by [`EcoChipService::save_memo`]) into the warm memo, keeping
    /// entries this service already computed. The import is validated by
    /// the existing stale-memo machinery: a format-version or fingerprint
    /// mismatch is rejected with a typed error and absorbs nothing.
    ///
    /// # Errors
    ///
    /// Returns [`EcoChipError::MemoFormat`] for malformed or incompatible
    /// JSON and [`EcoChipError::StaleMemo`] for fingerprint mismatches.
    pub fn import_memo_json(&self, json: &str) -> Result<MemoImport, EcoChipError> {
        let imported = SweepContext::from_json(json, self.memo_fingerprint())?;
        let (floorplans, manufacturing) = self.context.absorb(imported);
        Ok(MemoImport {
            floorplans,
            manufacturing,
        })
    }

    /// The lenient memo load every front end (CLI, HTTP server) uses: a
    /// missing file is a cold start, a stale or malformed memo is *warned
    /// about and ignored* — results are identical either way, the memo only
    /// saves work. A successful load is narrated at INFO level (front ends
    /// raise the global level on `--verbose`).
    pub fn load_memo_lenient(&mut self, path: &Path) {
        if !path.exists() {
            return;
        }
        match self.load_memo(path) {
            Ok(()) => ecochip_trace::info(
                "core::service",
                "memo loaded",
                &[
                    (
                        "floorplans",
                        FieldValue::from(self.context.floorplan_entries()),
                    ),
                    (
                        "manufacturing",
                        FieldValue::from(self.context.manufacturing_entries()),
                    ),
                    ("path", FieldValue::from(path.display().to_string())),
                ],
            ),
            Err(error) => ecochip_trace::warn(
                "core::service",
                "ignoring memo; starting cold",
                &[
                    ("path", FieldValue::from(path.display().to_string())),
                    ("error", FieldValue::from(error.to_string())),
                ],
            ),
        }
    }

    /// [`EcoChipService::save_memo`] plus INFO-level narration of what was
    /// persisted (front ends raise the global level on `--verbose`).
    ///
    /// # Errors
    ///
    /// Propagates [`EcoChipService::save_memo`] errors.
    pub fn save_memo_logged(&self, path: &Path) -> Result<(), EcoChipError> {
        self.save_memo(path)?;
        ecochip_trace::info(
            "core::service",
            "memo saved",
            &[
                (
                    "floorplans",
                    FieldValue::from(self.context.floorplan_entries()),
                ),
                (
                    "manufacturing",
                    FieldValue::from(self.context.manufacturing_entries()),
                ),
                ("path", FieldValue::from(path.display().to_string())),
            ],
        );
        Ok(())
    }
}

/// Wraps a caller sink so every emitted point bumps the service counters
/// and checks the autosave threshold — a million-point sweep persists its
/// memo as it goes, not only at exit. Batched emission passes straight
/// through to the inner sink's bulk path, with one counter update and one
/// autosave check per batch instead of per point.
struct InstrumentedSink<'a, S: SweepSink + ?Sized> {
    service: &'a EcoChipService,
    sink: &'a mut S,
}

impl<S: SweepSink + ?Sized> InstrumentedSink<'_, S> {
    fn record(&self, points: u64) {
        self.service
            .sweep_points
            .fetch_add(points, Ordering::Relaxed);
        if self.service.autosave.is_some() {
            self.service.maybe_autosave();
        }
    }
}

impl<S: SweepSink + ?Sized> SweepSink for InstrumentedSink<'_, S> {
    fn emit(&mut self, point: SweepPoint) -> Result<(), EcoChipError> {
        self.sink.emit(point)?;
        self.record(1);
        Ok(())
    }

    fn accept_batch(&mut self, points: Vec<SweepPoint>) -> Result<(), EcoChipError> {
        let count = points.len() as u64;
        self.sink.accept_batch(points)?;
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
        let service = EcoChipService::with_engine(EcoChip::default(), SweepEngine::with_jobs(3));
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
    fn autosave_persists_incrementally_during_a_sweep() {
        let path = std::env::temp_dir().join(format!(
            "ecochip-service-autosave-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);

        let mut service = EcoChipService::new(EcoChip::default());
        service.save_memo_every(&path, 1);
        let spec = SweepSpec::new(base()).axis(SweepAxis::Packaging(vec![
            PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
            PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
        ]));
        let streamed = collect(&service, &spec, Shard::FULL);
        assert_eq!(streamed.len(), 2);
        // The memo hit the disk during the run, not only at exit, and the
        // dirty counter was reset by the last autosave.
        assert!(path.exists(), "autosave never wrote {}", path.display());
        assert_eq!(service.context().dirty_entries(), 0);

        // A restored service starts warm and reproduces the run bit-for-bit.
        let mut restored = EcoChipService::new(EcoChip::default());
        restored.load_memo(&path).unwrap();
        let again = collect(&restored, &spec, Shard::FULL);
        assert_eq!(again, streamed);
        assert_eq!(restored.stats().floorplan_misses, 0);

        // estimate() also autosaves once enough entries accumulate.
        let _ = std::fs::remove_file(&path);
        let mut fresh = EcoChipService::new(EcoChip::default());
        fresh.save_memo_every(&path, 1);
        fresh.estimate(&base()).unwrap();
        assert!(path.exists());
        fresh.disable_autosave();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn autosave_failure_warns_but_never_fails_the_request() {
        // Autosaving into a directory that does not exist cannot succeed;
        // the computed result must come back anyway.
        let mut service = EcoChipService::new(EcoChip::default());
        service.save_memo_every(
            std::env::temp_dir().join("ecochip-missing-dir/never.json"),
            1,
        );
        let report = service.estimate(&base()).unwrap();
        let cold = EcoChip::default().estimate(&base()).unwrap();
        assert_eq!(report, cold);
        // Sweeps keep streaming past the failed save too.
        let spec = SweepSpec::new(base()).axis(SweepAxis::lifetimes_years(&[1.0, 2.0]));
        assert_eq!(collect(&service, &spec, Shard::FULL).len(), 2);
    }

    #[test]
    fn memo_export_import_shares_warm_state_between_services() {
        let warm = EcoChipService::new(EcoChip::default());
        warm.estimate(&base()).unwrap();
        let export = warm.export_memo_json().unwrap();

        // A cold service absorbs the export and serves from it without a
        // single stage miss.
        let cold = EcoChipService::new(EcoChip::default());
        let imported = cold.import_memo_json(&export).unwrap();
        assert_eq!(imported.floorplans, 1);
        assert!(imported.manufacturing >= 1);
        let report = cold.estimate(&base()).unwrap();
        assert_eq!(cold.stats().floorplan_misses, 0);
        assert_eq!(cold.stats().manufacturing_misses, 0);
        let direct = warm.estimate(&base()).unwrap();
        assert_eq!(report.total().kg().to_bits(), direct.total().kg().to_bits());

        // Re-importing absorbs nothing new; entries already present win.
        let again = cold.import_memo_json(&export).unwrap();
        assert_eq!(again, MemoImport::default());

        // A differently-configured service rejects the export outright.
        let other = EcoChipService::new(EcoChip::new(
            crate::config::EstimatorConfig::builder()
                .include_wafer_wastage(false)
                .build(),
        ));
        assert!(matches!(
            other.import_memo_json(&export),
            Err(EcoChipError::StaleMemo(_))
        ));
        assert_eq!(other.context().floorplan_entries(), 0);
        assert!(matches!(
            other.import_memo_json("not json"),
            Err(EcoChipError::MemoFormat(_))
        ));
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

    #[test]
    fn memo_capacity_survives_loading() {
        let path = std::env::temp_dir().join(format!(
            "ecochip-service-capacity-{}.json",
            std::process::id()
        ));
        let warm = EcoChipService::new(EcoChip::default());
        warm.estimate(&base()).unwrap();
        warm.save_memo(&path).unwrap();

        let mut bounded = EcoChipService::new(EcoChip::default());
        bounded.set_memo_capacity(Some(1));
        assert_eq!(bounded.memo_capacity(), Some(1));
        bounded.load_memo(&path).unwrap();
        // The loaded memo held 2 manufacturing entries (two nodes); the
        // capacity bound shrank it to 1 and stays in force.
        assert_eq!(bounded.memo_capacity(), Some(1));
        assert!(bounded.context().manufacturing_entries() <= 1);
        assert!(bounded.stats().manufacturing_evictions >= 1);
        // Bounded estimation still matches the cold path bit-for-bit.
        let cold = EcoChip::default().estimate(&base()).unwrap();
        let served = bounded.estimate(&base()).unwrap();
        assert_eq!(cold.total().kg().to_bits(), served.total().kg().to_bits());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memo_roundtrips_through_the_service() {
        let warm = EcoChipService::new(EcoChip::default());
        warm.estimate(&base()).unwrap();
        let path =
            std::env::temp_dir().join(format!("ecochip-service-memo-{}.json", std::process::id()));
        warm.save_memo(&path).unwrap();

        let mut restored = EcoChipService::new(EcoChip::default());
        restored.load_memo(&path).unwrap();
        restored.estimate(&base()).unwrap();
        let stats = restored.stats();
        assert_eq!(stats.floorplan_misses, 0, "{stats:?}");
        assert_eq!(stats.manufacturing_misses, 0, "{stats:?}");

        // A differently-configured service rejects the memo.
        let mut other = EcoChipService::new(EcoChip::new(
            crate::config::EstimatorConfig::builder()
                .include_wafer_wastage(false)
                .build(),
        ));
        assert!(matches!(
            other.load_memo(&path),
            Err(EcoChipError::StaleMemo(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
