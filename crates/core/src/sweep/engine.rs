//! The parallel, memoizing, streaming sweep evaluator.
//!
//! The engine is built around a bounded work queue: `jobs` evaluating
//! threads, the calling thread and `jobs − 1` helpers, claim chunks of case
//! *indices* (never a materialized case list), decode each case lazily with
//! a per-thread cursor (an odometer over the axis digits that re-applies
//! only the axes whose digit changed since the thread's previous case, so
//! decoding a contiguous chunk mostly touches the last axis alone),
//! evaluate it against the shared [`SweepContext`], and park the chunks
//! that are not yet due. The calling thread lends the resulting
//! [`SweepPoint`]s to a caller-supplied [`SweepSink`] in deterministic
//! row-major order, and evaluates a chunk of its own whenever the chunk at
//! its emit cursor is not parked yet. With one job there is no helper: the
//! calling thread claims, evaluates and emits every chunk in turn through
//! the same loop.
//!
//! Each thread keeps one report, which every evaluation refills in place.
//! A step that changed only trailing scalar axes (lifetimes and volumes,
//! [`SweepAxis::is_scalar`]) is not re-estimated: the thread re-prices the
//! report of its previous point, re-running only the estimator's pricing
//! step (the design amortization and the lifetime), the step every full
//! estimate ends with, so the two paths agree bit for bit. Any other step
//! is a full estimate into the same report and the thread's estimator
//! scratch, which consults the memo and, warm, allocates nothing.
//!
//! Points are written into reusable slots: each claimed chunk fills a
//! batch of slots in place (the label joined into the slot's string, the
//! system and the thread's report copied with `clone_from`, which reuses
//! their buffers), the sink borrows the filled slots, and the batch goes
//! back to be refilled by a later chunk. A streamed point therefore
//! allocates nothing once the slots have grown to the sweep's largest
//! system.
//!
//! A reorder window of `O(jobs)` chunks provides backpressure, so
//! streaming a million-point space holds only a handful of points in
//! memory at any time. [`SweepEngine::stream`] is the one entry point;
//! [`SweepEngine::run`] is its collect-to-`Vec` special case.
//!
//! [`SweepAxis::is_scalar`]: crate::sweep::SweepAxis::is_scalar

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use ecochip_techdb::EnergySource;
use ecochip_trace::{Stage, StageTimings};

use crate::error::EcoChipError;
use crate::estimator::{EcoChip, EstimateScratch, PriceBasis};
use crate::report::CarbonReport;
use crate::sweep::{
    Shard, SweepCase, SweepContext, SweepCursor, SweepPoint, SweepSlice, SweepSpec,
};

/// Default number of contiguous case indices a thread claims per queue
/// round-trip. Large enough to amortize the Mutex+Condvar traffic to
/// O(points/K), small enough that the reorder window (O(jobs × chunk)
/// points) stays tiny and load stays balanced across threads.
pub const DEFAULT_CHUNK: usize = 32;

/// Receives evaluated sweep points, in the spec's deterministic case order,
/// one contiguous batch at a time.
///
/// The engine *lends* each batch: the points live in slots the engine
/// refills for a later batch once the call returns, so a sink that keeps
/// a point past the call must clone it. Any
/// `FnMut(SweepPoint) -> Result<(), EcoChipError>` closure is a sink that
/// takes its batches point by point, each point cloned out of its slot,
/// so collecting, folding or incremental writing all work without a named
/// type:
///
/// ```
/// use ecochip_core::sweep::{SweepAxis, SweepEngine, SweepSpec};
/// use ecochip_core::{Chiplet, ChipletSize, EcoChip, System};
/// use ecochip_techdb::{DesignType, TechNode};
///
/// let base = System::builder("demo")
///     .chiplet(Chiplet::new(
///         "soc",
///         DesignType::Logic,
///         TechNode::N7,
///         ChipletSize::Transistors(5.0e9),
///     ))
///     .build()?;
/// let spec = SweepSpec::new(base).axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 4.0]));
/// // Stream: keep a running maximum instead of materializing all points.
/// use ecochip_core::sweep::{Shard, SweepContext, SweepPoint};
/// let mut worst = f64::MIN;
/// let mut sink = |point: SweepPoint| {
///     worst = worst.max(point.report.total().kg());
///     Ok(())
/// };
/// let emitted = SweepEngine::new().stream(
///     &EcoChip::default(),
///     &spec,
///     Shard::FULL,
///     &SweepContext::new(),
///     None,
///     &mut sink,
/// )?;
/// assert_eq!(emitted, 3);
/// assert!(worst > 0.0);
/// # Ok::<(), ecochip_core::EcoChipError>(())
/// ```
pub trait SweepSink {
    /// Accept the next contiguous batch of points (one claim chunk), in
    /// case order. The points are borrowed for the call only: after it
    /// returns, the engine refills their slots with a later batch.
    /// Returning an error aborts the sweep; the error is propagated to
    /// the caller of [`SweepEngine::stream`]. The batch
    /// boundary is an engine implementation detail: concatenating all
    /// batches always reproduces the per-point stream exactly, so a sink
    /// with a cheaper bulk path (one write per batch, one lock per batch)
    /// and one that folds point by point see the same points.
    ///
    /// `repriced` holds one flag per point. A set flag means the point is
    /// the point before it *in this batch*, re-priced: it differs from it
    /// only in its label, its system's lifetime and volumes, and its
    /// report's design, comm design and lifetime. A batch's first point
    /// is never marked, so a flag never spans the chunk boundaries where
    /// evaluating threads interleave. A [`LineEncoder`] reads the flags to
    /// rewrite only those values of the previous line.
    ///
    /// [`LineEncoder`]: crate::sweep::LineEncoder
    fn accept_batch(
        &mut self,
        points: &[SweepPoint],
        repriced: &[bool],
    ) -> Result<(), EcoChipError>;
}

impl<F: FnMut(SweepPoint) -> Result<(), EcoChipError>> SweepSink for F {
    fn accept_batch(
        &mut self,
        points: &[SweepPoint],
        _repriced: &[bool],
    ) -> Result<(), EcoChipError> {
        points.iter().cloned().try_for_each(self)
    }
}

/// Evaluates the points of a [`SweepSpec`] on `jobs` threads, the calling
/// thread included, sharing one [`SweepContext`] memo so stage results
/// common to several points are computed once.
///
/// Results are produced in the spec's deterministic case order regardless of
/// the job count, and every report is bit-for-bit identical to what a
/// single-job engine ([`SweepEngine::serial`]) produces. [`SweepEngine::stream`]
/// holds only an `O(jobs)` reorder window in memory; [`SweepEngine::run`]
/// is the same pipeline with a collect-to-`Vec` sink.
///
/// ```
/// use ecochip_core::sweep::{SweepAxis, SweepEngine, SweepSpec};
/// use ecochip_core::{Chiplet, ChipletSize, EcoChip, System};
/// use ecochip_techdb::{DesignType, TechNode};
///
/// let base = System::builder("demo")
///     .chiplet(Chiplet::new(
///         "soc",
///         DesignType::Logic,
///         TechNode::N7,
///         ChipletSize::Transistors(5.0e9),
///     ))
///     .build()?;
/// let spec = SweepSpec::new(base).axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 4.0]));
/// let points = SweepEngine::new().run(&EcoChip::default(), &spec)?;
/// assert_eq!(points.len(), 3);
/// assert!(points[2].report.total().kg() > points[0].report.total().kg());
/// # Ok::<(), ecochip_core::EcoChipError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngine {
    jobs: usize,
    chunk: usize,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine with one evaluating thread per unit of the machine's
    /// available parallelism, the calling thread included.
    pub fn new() -> Self {
        Self::with_jobs(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// A single-job engine: the calling thread evaluates and emits every
    /// chunk, and no helper thread is started.
    pub fn serial() -> Self {
        Self::with_jobs(1)
    }

    /// An engine with `jobs` evaluating threads (clamped to at least 1):
    /// the calling thread and `jobs − 1` helpers, with the
    /// [`DEFAULT_CHUNK`] claim size.
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            chunk: DEFAULT_CHUNK,
        }
    }

    /// An engine from an optional job count: pinned when `Some` (a
    /// `--jobs` flag, a config field), the [`SweepEngine::new`] default
    /// otherwise. The one place the "flag set or not" decision lives, so
    /// every front end resolves it identically.
    pub fn with_optional_jobs(jobs: Option<usize>) -> Self {
        match jobs {
            Some(jobs) => Self::with_jobs(jobs),
            None => Self::new(),
        }
    }

    /// Pin the number of contiguous case indices a thread claims per queue
    /// round-trip (clamped to at least 1). Chunking only changes lock and
    /// wakeup traffic — emission order and every emitted byte stay
    /// identical for any chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// The configured number of evaluating threads.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The configured claim-chunk size.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// How many threads a stream of `points` points evaluates on: the
    /// configured jobs, capped at one per claim chunk (none for no points).
    pub fn threads(&self, points: usize) -> usize {
        self.jobs.min(points.div_ceil(self.chunk))
    }

    /// Evaluate every point of `spec` with a fresh memo, collecting them in
    /// deterministic case order — the collect-to-`Vec` special case of
    /// [`SweepEngine::stream`].
    ///
    /// # Errors
    ///
    /// Returns the spec's case-generation error, or the estimator error of
    /// the lowest-index failing point.
    pub fn run(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
    ) -> Result<Vec<SweepPoint>, EcoChipError> {
        let mut points = Vec::new();
        self.stream(
            estimator,
            spec,
            Shard::FULL,
            &SweepContext::new(),
            None,
            &mut |point| {
                points.push(point);
                Ok(())
            },
        )?;
        Ok(points)
    }

    /// [`SweepEngine::stream`] over a [`Shard`] with no stage timings: the
    /// shorthand the `perfbench` harness and the streaming tests call.
    ///
    /// # Errors
    ///
    /// As [`SweepEngine::stream`].
    pub fn run_streaming_with<S: SweepSink + ?Sized>(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
        shard: Shard,
        context: &SweepContext,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        self.stream(estimator, spec, shard, context, None, sink)
    }

    /// The one way to run a sweep: evaluate the `slice` of `spec`'s case
    /// space against `context`, emitting each [`SweepPoint`] to `sink` in
    /// deterministic case order as soon as it (and all its predecessors)
    /// are ready. Returns the number of points emitted.
    ///
    /// * `slice` is a [`Shard`] (concatenating shards `0/N..N-1/N`
    ///   reproduces the full run) or an explicit index range — the resume
    ///   primitive behind orchestrator failover: re-streaming the unemitted
    ///   suffix `[s + k, e)` of an interrupted range reproduces exactly the
    ///   missing points. A range is checked by [`SweepSlice::range`].
    /// * `context` is the shared memo (fresh, or warm from earlier runs in
    ///   this process).
    /// * When `timings` is `Some`, each point's estimator call is measured
    ///   into [`StageTimings`]; `None` costs one branch per point.
    ///
    /// `jobs` threads claim chunks of case indices, decode and evaluate
    /// them: the calling thread and `jobs − 1` helpers, capped at one
    /// thread per chunk. The calling thread emits chunks in order into
    /// `sink`; when the chunk at its cursor is not ready, it claims and
    /// evaluates the next one itself, emitting it at once when it is the
    /// one due and parking it otherwise, as helpers park theirs. A bounded
    /// reorder window keeps `O(jobs)` chunks in flight, so the full
    /// product is never held in memory. With one job no helper (and no
    /// thread scope) is started.
    ///
    /// # Errors
    ///
    /// Returns the [`SweepSpec::validate`] error of a refused spec before
    /// the first point, [`EcoChipError::InvalidSystem`] for an
    /// out-of-bounds range, the estimator error of the lowest-index failing
    /// point (every point before it is emitted first, whatever the job
    /// count), or the first error returned by `sink`.
    pub fn stream<S: SweepSink + ?Sized>(
        &self,
        estimator: &EcoChip,
        spec: &SweepSpec,
        slice: impl Into<SweepSlice>,
        context: &SweepContext,
        timings: Option<&StageTimings>,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        let mut walker = CaseWalker::new(spec)?;
        let range = slice.into().range(walker.total())?;
        if range.is_empty() {
            return Ok(0);
        }
        let cases = CaseEvaluator::new(estimator, context, timings);
        let chunk = self.chunk;
        // The caller evaluates too, so the threads take one helper fewer;
        // a helper without a chunk of its own would only wait.
        let helpers = self.threads(range.len()) - 1;
        let queue = ReorderQueue {
            state: Mutex::new(ReorderState {
                next_claim: range.start,
                next_emit: range.start,
                buffer: HashMap::new(),
                spare: Vec::new(),
                waiting: 0,
                caller_waiting: false,
                aborted: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            range,
            chunk,
            // Claims may run at most two chunks per thread ahead of the
            // emit cursor, which bounds the reorder buffer to
            // O(jobs × chunk) points.
            window: (helpers + 1) * chunk * 2,
        };
        if helpers == 0 {
            // Nothing to join: a scope would only allocate its state.
            return queue.emit(&cases, &mut walker, sink);
        }
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                let mut walker = walker.clone();
                let (cases, queue) = (&cases, &queue);
                scope.spawn(move || queue.help(cases, &mut walker));
            }
            let outcome = queue.emit(&cases, &mut walker, sink);
            // On early exit (evaluation or sink error) wake every waiting
            // helper so the scope can join them.
            queue.state.lock().expect("sweep queue").aborted = true;
            queue.space.notify_all();
            outcome
        })
    }
}

/// Bookkeeping shared between the helpers and the calling thread.
struct ReorderState {
    /// Next index to claim (chunk claims advance it by up to the chunk
    /// size at a time).
    next_claim: usize,
    /// Next index the calling thread will pass to the sink.
    next_emit: usize,
    /// Out-of-order chunk results keyed by chunk start index, parked until
    /// their turn (bounded by the window).
    buffer: HashMap<usize, ChunkResults>,
    /// Drained chunk results whose slots the next parking thread takes
    /// back to refill. Every chunk in the buffer or on its way there was
    /// claimed inside the window, so at most `window / chunk + jobs`
    /// batches exist.
    spare: Vec<ChunkResults>,
    /// Helpers waiting for the window to advance. A wake-up is a system
    /// call, so the calling thread makes one only when someone waits.
    waiting: usize,
    /// Whether the calling thread waits for the chunk at its cursor; a
    /// helper that parks that chunk wakes it only then.
    caller_waiting: bool,
    /// Set on evaluation/sink errors so no thread claims another chunk.
    aborted: bool,
}

/// One evaluated chunk, in reusable slots: its points in case order, up to
/// the first failing case, a flag per point that is set when the point was
/// re-priced from the one before it in the chunk (never on the first), and
/// the failing case's error.
#[derive(Default)]
struct ChunkResults {
    /// Point slots, kept across chunks; only `points[..len]` belong to the
    /// current chunk. Slots past `len` hold stale points of an earlier,
    /// longer chunk and are never lent to a sink.
    points: Vec<SweepPoint>,
    /// How many slots the current chunk filled.
    len: usize,
    /// One flag per filled slot.
    repriced: Vec<bool>,
    failure: Option<EcoChipError>,
}

/// Lend a chunk's points to `sink` as one batch, then surface the chunk's
/// error, if any, so a failing case is reported after every point before
/// it, whichever thread evaluated the chunk. Returns the number of points
/// emitted.
fn emit_chunk<S: SweepSink + ?Sized>(
    sink: &mut S,
    results: &mut ChunkResults,
) -> Result<usize, EcoChipError> {
    let emitted = results.len;
    if emitted > 0 {
        sink.accept_batch(&results.points[..emitted], &results.repriced)?;
    }
    match results.failure.take() {
        Some(error) => Err(error),
        None => Ok(emitted),
    }
}

/// The claim queue and reorder window of one stream. The calling thread
/// and the helpers claim chunks from it and park the ones that are not
/// yet due; the calling thread alone drains it into the sink.
struct ReorderQueue {
    state: Mutex<ReorderState>,
    /// Signals the calling thread that the chunk at the cursor was parked.
    ready: Condvar,
    /// Signals helpers that the reorder window advanced.
    space: Condvar,
    /// The streamed range of case indices.
    range: std::ops::Range<usize>,
    chunk: usize,
    /// How far past the emit cursor a claim may reach.
    window: usize,
}

/// The calling thread's next step: emit a parked chunk, or evaluate a
/// claimed one.
enum Turn {
    Emit(ChunkResults),
    Evaluate(std::ops::Range<usize>),
}

impl ReorderQueue {
    /// Claim the next chunk if the window admits one. Chunks clamp at the
    /// range end, so shard boundaries and short tails never over-claim.
    fn claim(&self, state: &mut ReorderState) -> Option<std::ops::Range<usize>> {
        let start = state.next_claim;
        if state.aborted || start >= self.range.end || start >= state.next_emit + self.window {
            return None;
        }
        state.next_claim = start.saturating_add(self.chunk).min(self.range.end);
        Some(start..state.next_claim)
    }

    /// Park an evaluated chunk until its turn, and take back a spare batch
    /// of slots to fill next. A failed chunk stops every further claim;
    /// everything below it is already claimed, so the lowest-index error
    /// still surfaces first.
    fn park(&self, start: usize, results: ChunkResults) -> ChunkResults {
        let mut state = self.state.lock().expect("sweep queue");
        if results.failure.is_some() {
            state.aborted = true;
            self.space.notify_all();
        }
        let due = start == state.next_emit && state.caller_waiting;
        state.buffer.insert(start, results);
        let spare = state.spare.pop().unwrap_or_default();
        drop(state);
        if due {
            self.ready.notify_one();
        }
        spare
    }

    /// A helper's loop: claim a chunk, evaluate it without touching the
    /// queue (one claim and one park per chunk, not per point), park it;
    /// wait while the window is full, stop once every chunk is claimed.
    fn help(&self, cases: &CaseEvaluator<'_>, walker: &mut CaseWalker<'_>) {
        let mut results = ChunkResults::default();
        loop {
            let claim = {
                let mut state = self.state.lock().expect("sweep queue");
                loop {
                    if let Some(claim) = self.claim(&mut state) {
                        break claim;
                    }
                    if state.aborted || state.next_claim >= self.range.end {
                        return;
                    }
                    state.waiting += 1;
                    state = self.space.wait(state).expect("sweep queue");
                    state.waiting -= 1;
                }
            };
            cases.evaluate_chunk(walker, claim.clone(), &mut results);
            results = self.park(claim.start, results);
        }
    }

    /// The calling thread's loop: emit chunks in start-index order, so the
    /// sink observes the deterministic case order, and evaluate a chunk of
    /// its own whenever the one at the cursor is not parked yet. Its chunk
    /// at the cursor goes straight to the sink; any other is parked.
    fn emit<S: SweepSink + ?Sized>(
        &self,
        cases: &CaseEvaluator<'_>,
        walker: &mut CaseWalker<'_>,
        sink: &mut S,
    ) -> Result<usize, EcoChipError> {
        let (mut own, mut drained) = (ChunkResults::default(), None);
        let mut emitted = 0usize;
        let mut cursor = self.range.start;
        while cursor < self.range.end {
            let mut parked = match self.turn(cursor, drained.take()) {
                Turn::Emit(results) => Some(results),
                Turn::Evaluate(claim) => {
                    cases.evaluate_chunk(walker, claim.clone(), &mut own);
                    if claim.start != cursor {
                        own = self.park(claim.start, own);
                        continue;
                    }
                    None
                }
            };
            emitted += emit_chunk(sink, parked.as_mut().unwrap_or(&mut own))?;
            cursor = cursor.saturating_add(self.chunk).min(self.range.end);
            drained = parked;
        }
        Ok(emitted)
    }

    /// Move the emit cursor to `cursor` and give back the `drained` parked
    /// slots for a parking thread to take, then wait until the chunk at
    /// `cursor` is parked or a chunk can be claimed, whichever comes first.
    fn turn(&self, cursor: usize, drained: Option<ChunkResults>) -> Turn {
        let mut state = self.state.lock().expect("sweep queue");
        state.spare.extend(drained);
        if state.next_emit != cursor {
            state.next_emit = cursor;
            // Advancing the window admits exactly one new chunk claim, so
            // wake one waiting helper; helpers still waiting after the last
            // emit are released when the stream ends.
            if state.waiting > 0 {
                self.space.notify_one();
            }
        }
        loop {
            if let Some(results) = state.buffer.remove(&cursor) {
                return Turn::Emit(results);
            }
            if let Some(claim) = self.claim(&mut state) {
                return Turn::Evaluate(claim);
            }
            state.caller_waiting = true;
            state = self.ready.wait(state).expect("sweep queue");
            state.caller_waiting = false;
        }
    }
}

/// One evaluating thread's walk through a spec's cases: its decoding
/// [`SweepCursor`], the one report that every evaluation on the walk
/// refills in place, the [`EstimateScratch`] a full estimate works in, and
/// the [`PriceBasis`] of its last successful evaluation, from which the
/// next scalar step ([`SweepAxis::is_scalar`]) re-prices the report. Each
/// evaluating thread of the engine and each optimizer explorer owns one,
/// so a warm structural estimate allocates nothing.
///
/// [`SweepAxis::is_scalar`]: crate::sweep::SweepAxis::is_scalar
#[derive(Debug, Clone)]
pub(crate) struct CaseWalker<'a> {
    cursor: SweepCursor<'a>,
    /// The axes a decode may re-apply and still be a scalar step: from the
    /// first of the spec's trailing scalar axes to the last axis. Empty
    /// when the last axis is not scalar, and then no basis is kept.
    scalar: std::ops::Range<usize>,
    /// The report of the last evaluation. It is valid as a basis only
    /// while `basis` is `Some`; after a failed evaluation it is partial
    /// and kept for its buffers.
    report: CarbonReport,
    /// The estimator's working vectors, reused across evaluations.
    scratch: EstimateScratch,
    /// The [`PriceBasis`] of `report`; `None` before the first evaluation
    /// and after a failed one.
    basis: Option<PriceBasis>,
}

impl<'a> CaseWalker<'a> {
    /// A fresh walk over `spec`.
    ///
    /// # Errors
    ///
    /// As [`SweepSpec::validate`].
    pub(crate) fn new(spec: &'a SweepSpec) -> Result<Self, EcoChipError> {
        let axes = spec.axes();
        let structural = axes.iter().rposition(|axis| !axis.is_scalar());
        Ok(Self {
            cursor: spec.cursor()?,
            scalar: structural.map_or(0, |at| at + 1)..axes.len(),
            report: CarbonReport::empty(),
            scratch: EstimateScratch::default(),
            basis: None,
        })
    }

    /// The spec's case count.
    pub(crate) fn total(&self) -> usize {
        self.cursor.total
    }
}

/// Evaluates single cases of one spec: decode through the caller's
/// [`CaseWalker`], pick the estimator for the case's fab-source override,
/// estimate against the shared memo (timed when `timings` is set) and label
/// the point. The evaluator is shared; each evaluating thread and each
/// optimizer explorer owns one walker, so a case scores the same whichever
/// path visits it.
///
/// A *scalar step* — a decode that re-applied only scalar axes, after a
/// successful evaluation on the same walker — re-runs only
/// [`EcoChip::price`] on the walker's report, in place, skipping every
/// stage and memo lookup before it. Every other case, an identical revisit
/// included, takes the full estimate through the memo
/// ([`EcoChip::estimate_into`]), which refills the same report.
pub(crate) struct CaseEvaluator<'a> {
    base: &'a EcoChip,
    context: &'a SweepContext,
    timings: Option<&'a StageTimings>,
    /// Estimator clones for the distinct fab-source overrides seen so far,
    /// built lazily so cases without an override never clone the
    /// (techdb-carrying) configuration: `(intensity bits, estimator)`.
    variants: Mutex<Vec<(u64, Arc<EcoChip>)>>,
}

impl<'a> CaseEvaluator<'a> {
    pub(crate) fn new(
        base: &'a EcoChip,
        context: &'a SweepContext,
        timings: Option<&'a StageTimings>,
    ) -> Self {
        Self {
            base,
            context,
            timings,
            variants: Mutex::new(Vec::new()),
        }
    }

    /// Evaluate the cases of `indices` in order into `results`' slots,
    /// stopping at the first failing one.
    fn evaluate_chunk(
        &self,
        walker: &mut CaseWalker<'_>,
        indices: std::ops::Range<usize>,
        results: &mut ChunkResults,
    ) {
        let ChunkResults {
            points,
            len,
            repriced,
            failure,
        } = results;
        // Size the slots to the chunk once, not by doubling.
        points.reserve_exact(indices.len().saturating_sub(points.len()));
        repriced.clear();
        repriced.reserve_exact(indices.len());
        *len = 0;
        *failure = None;
        for index in indices {
            match self.price(walker, index) {
                Ok(priced) => {
                    // The walker may carry its basis over from its
                    // previous chunk, which another chunk can separate
                    // from this one in the stream.
                    repriced.push(priced.repriced && *len > 0);
                    match points.get_mut(*len) {
                        Some(slot) => priced.fill(slot),
                        None => points.push(priced.into_point()),
                    }
                    *len += 1;
                }
                Err(error) => {
                    *failure = Some(error);
                    break;
                }
            }
        }
    }

    /// Decode case `index` through the walker, pick the estimator for its
    /// fab-source override and price it into the walker's report: re-price
    /// it in place on a scalar step, estimate in full otherwise. The case
    /// and its report stay borrowed from the walker, so a caller that only
    /// reads them copies nothing.
    pub(crate) fn price<'w>(
        &self,
        walker: &'w mut CaseWalker<'_>,
        index: usize,
    ) -> Result<Priced<'w>, EcoChipError> {
        // Taken first, so a failure below leaves the walker no basis.
        let basis = walker.basis.take();
        let from = walker.cursor.advance(index)?;
        let basis = basis.filter(|_| walker.scalar.contains(&from));
        let case = walker.cursor.case();
        let variant = case.fab_source.map(|source| self.variant(source));
        let estimator = variant.as_deref().unwrap_or(self.base);
        // Near-zero-cost disabled path: untimed requests pay one branch
        // per point, never a clock read.
        let started = self.timings.map(|_| Instant::now());
        let report = &mut walker.report;
        let priced = match basis {
            Some(basis) => estimator
                .price(&case.system, &basis, report)
                .map(|()| (basis, true)),
            None => estimator
                .estimate_into(&case.system, self.context, &mut walker.scratch, report)
                .map(|basis| (basis, false)),
        };
        if let (Some(timings), Some(started)) = (self.timings, started) {
            timings.record(Stage::Estimate, started.elapsed());
        }
        let (basis, repriced) = priced?;
        walker.basis = Some(basis);
        Ok(Priced {
            case,
            report: &walker.report,
            repriced,
        })
    }

    /// The estimator for fab source `source`, built on first use.
    fn variant(&self, source: EnergySource) -> Arc<EcoChip> {
        let bits = source.carbon_intensity().kg_per_kwh().to_bits();
        let mut variants = self.variants.lock().expect("variant cache");
        if let Some((_, estimator)) = variants.iter().find(|(b, _)| *b == bits) {
            return Arc::clone(estimator);
        }
        let mut config = self.base.config().clone();
        config.fab_source = source;
        let estimator = Arc::new(EcoChip::new(config));
        variants.push((bits, Arc::clone(&estimator)));
        estimator
    }
}

/// One priced case, borrowed from its walker: the decoded case and the
/// walker's report.
pub(crate) struct Priced<'w> {
    pub(crate) case: &'w SweepCase,
    pub(crate) report: &'w CarbonReport,
    /// Whether the report was re-priced from the walker's previous one.
    repriced: bool,
}

impl Priced<'_> {
    /// The case as a new point.
    fn into_point(self) -> SweepPoint {
        SweepPoint {
            label: self.case.label(),
            system: self.case.system.clone(),
            report: self.report.clone(),
        }
    }

    /// Overwrite `slot` with the case, reusing the slot's buffers.
    fn fill(self, slot: &mut SweepPoint) {
        slot.label.clear();
        self.case.push_label(&mut slot.label);
        slot.system.clone_from(&self.case.system);
        slot.report.clone_from(self.report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepAxis;
    use crate::system::{Chiplet, ChipletSize, System};
    use ecochip_packaging::{
        InterposerConfig, PackagingArchitecture, RdlFanoutConfig, SiliconBridgeConfig,
    };
    use ecochip_techdb::{DesignType, TechNode};

    fn base() -> System {
        System::builder("engine-test")
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

    fn spec() -> SweepSpec {
        SweepSpec::new(base())
            .axis(SweepAxis::Packaging(vec![
                PackagingArchitecture::RdlFanout(RdlFanoutConfig::default()),
                PackagingArchitecture::SiliconBridge(SiliconBridgeConfig::default()),
                PackagingArchitecture::PassiveInterposer(InterposerConfig::default()),
            ]))
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0, 4.0]))
    }

    /// Stream `slice` of `spec` against `context`, collecting the points.
    fn collect(
        engine: &SweepEngine,
        spec: &SweepSpec,
        slice: impl Into<SweepSlice>,
        context: &SweepContext,
    ) -> Result<Vec<SweepPoint>, EcoChipError> {
        let mut points = Vec::new();
        let emitted = engine.stream(
            &EcoChip::default(),
            spec,
            slice,
            context,
            None,
            &mut |point| {
                points.push(point);
                Ok(())
            },
        )?;
        assert_eq!(emitted, points.len());
        Ok(points)
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let estimator = EcoChip::default();
        let serial = SweepEngine::serial().run(&estimator, &spec()).unwrap();
        let parallel = SweepEngine::with_jobs(4).run(&estimator, &spec()).unwrap();
        assert_eq!(serial.len(), 12);
        assert_eq!(serial, parallel);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                s.report.total().kg().to_bits(),
                p.report.total().kg().to_bits()
            );
        }
    }

    #[test]
    fn streaming_emits_in_deterministic_order() {
        let estimator = EcoChip::default();
        let spec = spec();
        let collected = SweepEngine::new().run(&estimator, &spec).unwrap();
        for jobs in [1, 2, 5, 16] {
            let engine = SweepEngine::with_jobs(jobs);
            let streamed = collect(&engine, &spec, Shard::FULL, &SweepContext::new()).unwrap();
            assert_eq!(streamed, collected, "jobs={jobs}");
        }
    }

    #[test]
    fn sharded_runs_concatenate_to_the_full_run() {
        let estimator = EcoChip::default();
        let spec = spec();
        let full = SweepEngine::with_jobs(3).run(&estimator, &spec).unwrap();
        for of in [1usize, 2, 3, 5, 12, 17] {
            let mut merged = Vec::new();
            for index in 0..of {
                let shard = Shard::new(index, of).unwrap();
                let engine = SweepEngine::with_jobs(2);
                merged.extend(collect(&engine, &spec, shard, &SweepContext::new()).unwrap());
            }
            assert_eq!(merged, full, "of={of}");
        }
    }

    #[test]
    fn explicit_ranges_reproduce_slices_of_the_full_run() {
        let estimator = EcoChip::default();
        let spec = spec();
        let full = SweepEngine::with_jobs(3).run(&estimator, &spec).unwrap();
        let total = full.len();
        // Any contiguous range reproduces exactly that slice, so a shard
        // interrupted after k points resumes bit-for-bit from index k.
        let engine = SweepEngine::with_jobs(2);
        for (start, end) in [(0, total), (3, 9), (5, 5), (total - 1, total)] {
            let points = collect(&engine, &spec, start..end, &SweepContext::new()).unwrap();
            assert_eq!(points, full[start..end], "range {start}..{end}");
        }
        // Out-of-bounds and inverted ranges are rejected up front.
        #[allow(clippy::reversed_empty_ranges)]
        for bad in [0..total + 1, 7..3] {
            let result = collect(&engine, &spec, bad.clone(), &SweepContext::new());
            assert!(
                matches!(result, Err(EcoChipError::InvalidSystem(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn sink_errors_abort_the_sweep() {
        let estimator = EcoChip::default();
        let spec = spec();
        for jobs in [1usize, 2, 3, 4] {
            for chunk in [1usize, 3] {
                // Refuse a point of the first batch, then one of a later
                // batch: no point after the refused one reaches the sink.
                for stop in [chunk.min(2), chunk * 2 + 2] {
                    let mut emitted = 0usize;
                    let result = SweepEngine::with_jobs(jobs).with_chunk(chunk).stream(
                        &estimator,
                        &spec,
                        Shard::FULL,
                        &SweepContext::new(),
                        None,
                        &mut |_point| {
                            emitted += 1;
                            if emitted == stop {
                                Err(EcoChipError::InvalidSystem("sink full".into()))
                            } else {
                                Ok(())
                            }
                        },
                    );
                    let context = format!("jobs={jobs} chunk={chunk} stop={stop}");
                    assert_eq!(
                        result,
                        Err(EcoChipError::InvalidSystem("sink full".into())),
                        "{context}"
                    );
                    assert_eq!(emitted, stop, "{context}");
                }
            }
        }
    }

    #[test]
    fn memoization_skips_repeated_floorplans_and_manufacturing() {
        let context = SweepContext::new();
        let total = collect(&SweepEngine::serial(), &spec(), Shard::FULL, &context)
            .unwrap()
            .len();
        assert_eq!(total, 12);
        let stats = context.stats();
        // Only the 3 packaging steps consult the memo: each lifetime step
        // re-prices the report before it.
        assert_eq!(
            stats.floorplan_hits + stats.floorplan_misses,
            3,
            "{stats:?}"
        );
        assert_eq!(
            stats.manufacturing_hits + stats.manufacturing_misses,
            3 * base().chiplets.len(),
            "{stats:?}"
        );
    }

    #[test]
    fn fab_energy_axis_builds_one_estimator_per_source() {
        let estimator = EcoChip::default();
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::FabEnergySources(vec![
                ecochip_techdb::EnergySource::Coal,
                ecochip_techdb::EnergySource::Wind,
            ]))
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0]));
        let points = SweepEngine::with_jobs(2).run(&estimator, &spec).unwrap();
        assert_eq!(points.len(), 4);
        // Wind-powered fabs lower manufacturing CFP; lifetime does not.
        assert!(
            points[2].report.manufacturing().kg() < points[0].report.manufacturing().kg(),
            "wind should beat coal"
        );
        assert_eq!(
            points[0].report.manufacturing().kg().to_bits(),
            points[1].report.manufacturing().kg().to_bits()
        );
    }

    #[test]
    fn errors_surface_from_the_lowest_index_point() {
        let estimator = EcoChip::default();
        // Retargeting chiplet 5 of a 2-chiplet system fails at case
        // generation already.
        let spec = SweepSpec::new(base()).axis(SweepAxis::ChipletNode {
            index: 5,
            nodes: vec![TechNode::N10],
        });
        assert!(SweepEngine::new().run(&estimator, &spec).is_err());
        assert!(SweepEngine::with_jobs(4).run(&estimator, &spec).is_err());
    }

    #[test]
    fn failed_cases_do_not_leak_into_later_cursor_decodes() {
        use crate::config::EstimatorConfig;
        use crate::disaggregation::{NodeTuple, SocBlocks};
        use ecochip_techdb::{TechDb, TechDbBuilder};
        // The database lacks 10 nm, so the N10 retarget fails in the
        // estimator, at cases 4 and 5 of the count-4 split and again in the
        // count-1 split; every other case estimates. Points before the
        // lowest failing index are emitted whatever the job count, and a
        // thread whose case failed decodes its next cases exactly.
        let full = TechDb::default();
        let db = TechNode::ALL
            .into_iter()
            .filter(|&node| node != TechNode::N10)
            .fold(TechDbBuilder::new(), |db, node| {
                db.insert(full.node(node).unwrap().clone())
            })
            .build();
        let estimator = EcoChip::new(EstimatorConfig::builder().techdb(db).build());
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::ChipletCounts {
                blocks: SocBlocks::new("soc", 10.0e9, 4.0e9, 1.0e9),
                nodes: NodeTuple::uniform(TechNode::N7),
                counts: vec![4, 1],
            })
            .axis(SweepAxis::ChipletNode {
                index: 2,
                nodes: vec![TechNode::N7, TechNode::N14, TechNode::N10],
            })
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0]));
        let message = "technology database has no entry for 10 nm";
        // At three jobs the caller and both helpers can each park a chunk
        // out of order.
        for jobs in [1usize, 2, 3, 4] {
            for chunk in [1usize, 3] {
                let engine = SweepEngine::with_jobs(jobs).with_chunk(chunk);
                let mut points = Vec::new();
                let result = engine.stream(
                    &estimator,
                    &spec,
                    Shard::FULL,
                    &SweepContext::new(),
                    None,
                    &mut |point: SweepPoint| {
                        points.push(point);
                        Ok(())
                    },
                );
                let error = result.expect_err("the N10 cases fail").to_string();
                assert!(
                    error.contains(message),
                    "jobs={jobs} chunk={chunk}: {error}"
                );
                let counts: Vec<usize> = points.iter().map(|p| p.system.chiplets.len()).collect();
                assert_eq!(counts, [6; 4], "jobs={jobs} chunk={chunk}");
                // The count-1 cases after the failure estimate as usual.
                let tail = engine.stream(
                    &estimator,
                    &spec,
                    6..10,
                    &SweepContext::new(),
                    None,
                    &mut |_: SweepPoint| Ok(()),
                );
                assert_eq!(tail, Ok(4), "jobs={jobs} chunk={chunk}");
            }
        }
        let mut cursor = spec.cursor().unwrap();
        for index in [4, 9, 5, 8, 11, 6] {
            cursor.advance(index).unwrap();
            assert_eq!(cursor.case(), &spec.case_at(index).unwrap());
        }
    }

    #[test]
    fn scalar_steps_after_a_failed_case_estimate_in_full() {
        use crate::disaggregation::{NodeTuple, SocBlocks};
        // One digital chiplet of this budget is larger than the wafer, so
        // its manufacturing stage fails; split in 16 it fits. Pricing
        // reads no area, so a walker that re-priced the count-16 report
        // for the count-1 cases after the failure would return a report
        // where there is none.
        let spec = SweepSpec::new(base())
            .axis(SweepAxis::ChipletCounts {
                blocks: SocBlocks::new("huge", 5.0e12, 4.0e9, 1.0e9),
                nodes: NodeTuple::uniform(TechNode::N7),
                counts: vec![16, 1],
            })
            .axis(SweepAxis::lifetimes_years(&[1.0, 2.0, 3.0]));
        let estimator = EcoChip::default();
        let message = "does not fit on a 450 mm wafer";
        for context in [SweepContext::new(), SweepContext::disabled()] {
            let cases = CaseEvaluator::new(&estimator, &context, None);
            let mut walker = CaseWalker::new(&spec).unwrap();
            for (index, fails) in [(1, false), (2, false), (3, true), (4, true), (5, true)] {
                match cases.price(&mut walker, index) {
                    Err(error) => {
                        let error = error.to_string();
                        assert!(fails && error.contains(message), "{index}: {error}");
                    }
                    Ok(priced) => {
                        assert!(!fails, "case {index} re-priced {}", priced.case.label());
                        let cold = estimator.estimate(&priced.case.system).unwrap();
                        assert_eq!(*priced.report, cold, "case {index}");
                    }
                }
            }
        }
    }

    #[test]
    fn retargets_ahead_of_a_resplit_decode_alike_on_every_worker() {
        use crate::disaggregation::{NodeTuple, SocBlocks};
        // Chiplet 3 exists in the count-2 split (4 chiplets), but the tuple
        // split after the retarget would overwrite it. Every entry point
        // refuses such a spec before its first point, with one error,
        // whatever the worker count, claim size or slice.
        let blocks = SocBlocks::new("soc", 10.0e9, 4.0e9, 1.0e9);
        let counts = SweepAxis::ChipletCounts {
            blocks: blocks.clone(),
            nodes: NodeTuple::uniform(TechNode::N7),
            counts: vec![2],
        };
        let retarget = SweepAxis::ChipletNode {
            index: 3,
            nodes: vec![TechNode::N10, TechNode::N14],
        };
        let tuples = SweepAxis::NodeTuples {
            blocks,
            tuples: vec![
                NodeTuple::new(TechNode::N7, TechNode::N14, TechNode::N10),
                NodeTuple::uniform(TechNode::N10),
            ],
        };
        let lifetimes = SweepAxis::lifetimes_years(&[1.0, 2.0]);
        let systems = SweepAxis::Systems(vec![("a".into(), base()), ("b".into(), base())]);
        for replacer in [tuples, counts.clone(), systems] {
            let spec = SweepSpec::new(base())
                .axis(counts.clone())
                .axis(retarget.clone())
                .axis(replacer)
                .axis(lifetimes.clone());
            let refused = spec.validate().expect_err("refused").to_string();
            assert!(refused.contains("axes[1] (ChipletNode) must come after axes[2]"));
            assert_eq!(spec.cursor().unwrap_err().to_string(), refused);
            for index in 0..spec.len() {
                assert_eq!(spec.case_at(index).unwrap_err().to_string(), refused);
            }
            for jobs in [1usize, 2, 4] {
                for chunk in [1usize, 3] {
                    let engine = SweepEngine::with_jobs(jobs).with_chunk(chunk);
                    let shard = Shard::new(1, 3).unwrap();
                    for slice in [Shard::FULL.into(), shard.into(), SweepSlice::Range(1..4)] {
                        let result = collect(&engine, &spec, slice.clone(), &SweepContext::new());
                        assert_eq!(
                            result.unwrap_err().to_string(),
                            refused,
                            "jobs={jobs} chunk={chunk} {slice:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_runs_match_unchunked_for_every_chunk_size() {
        let estimator = EcoChip::default();
        let spec = spec();
        let reference = SweepEngine::serial()
            .with_chunk(1)
            .run(&estimator, &spec)
            .unwrap();
        let total = reference.len();
        for jobs in [1usize, 2, 4] {
            for chunk in [1usize, 3, 7, total, total + 5] {
                let engine = SweepEngine::with_jobs(jobs).with_chunk(chunk);
                let streamed = collect(&engine, &spec, Shard::FULL, &SweepContext::new()).unwrap();
                assert_eq!(streamed, reference, "jobs={jobs} chunk={chunk}");
            }
        }
    }

    #[test]
    fn batch_sinks_see_the_same_points_in_order() {
        struct Batches {
            points: Vec<SweepPoint>,
            repriced: Vec<bool>,
            batches: usize,
        }
        impl SweepSink for Batches {
            fn accept_batch(
                &mut self,
                points: &[SweepPoint],
                repriced: &[bool],
            ) -> Result<(), EcoChipError> {
                assert_eq!(repriced.len(), points.len());
                self.batches += 1;
                self.repriced.extend_from_slice(repriced);
                self.points.extend_from_slice(points);
                Ok(())
            }
        }
        let estimator = EcoChip::default();
        let spec = spec();
        let reference = SweepEngine::serial().run(&estimator, &spec).unwrap();
        let mut sink = Batches {
            points: Vec::new(),
            repriced: Vec::new(),
            batches: 0,
        };
        let emitted = SweepEngine::with_jobs(4)
            .with_chunk(5)
            .stream(
                &estimator,
                &spec,
                Shard::FULL,
                &SweepContext::new(),
                None,
                &mut sink,
            )
            .unwrap();
        assert_eq!(emitted, reference.len());
        assert_eq!(sink.points, reference);
        // 12 points in chunks of 5 → batches of 5, 5, 2. Each packaging
        // step is estimated, each lifetime step re-priced, and no batch
        // starts marked.
        assert_eq!(sink.batches, 3);
        let marked: Vec<usize> = (0..12).filter(|&at| sink.repriced[at]).collect();
        assert_eq!(marked, [1, 2, 3, 6, 7, 9, 11]);
    }

    #[test]
    fn chunk_configuration_resolves_like_jobs() {
        assert_eq!(SweepEngine::new().with_chunk(0).chunk(), 1);
        assert_eq!(SweepEngine::new().with_chunk(9).chunk(), 9);
        assert_eq!(SweepEngine::new().chunk(), DEFAULT_CHUNK);
        assert_eq!(
            SweepEngine::with_optional_jobs(Some(3)).chunk(),
            DEFAULT_CHUNK
        );
    }

    #[test]
    fn empty_range_yields_no_points() {
        for jobs in [1, 4] {
            let engine = SweepEngine::with_jobs(jobs);
            let points = collect(&engine, &spec(), 5..5, &SweepContext::new()).unwrap();
            assert!(points.is_empty());
        }
        assert!(SweepEngine::with_jobs(0).jobs() == 1);
        assert!(SweepEngine::default().jobs() >= 1);
    }
}
