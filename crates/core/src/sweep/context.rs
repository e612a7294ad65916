//! Cross-point memoization for design-space sweeps.
//!
//! Most sweep axes leave whole stages of the estimation pipeline untouched:
//! a packaging sweep never changes the chiplet outlines, a volume or lifetime
//! sweep never changes manufacturing, a node sweep only perturbs the chiplets
//! it retargets. [`SweepContext`] caches the two expensive stage results —
//! floorplans (keyed by the full outline set) and per-die manufacturing CFP
//! (keyed by `(node, area)` plus the model parameters) — so points that share
//! a stage input share its result. The caches are guarded by mutexes, which
//! lets the [`SweepEngine`](crate::sweep::SweepEngine) share one context
//! across its worker threads.
//!
//! Because the cache stores the *exact* value the stage computed, memoized
//! runs are bit-for-bit identical to cold runs. The memo lives and dies with
//! its process: recomputing a stage takes microseconds, so nothing is
//! persisted or shared between processes.
//!
//! # Cache layout
//!
//! Each cache is an exact least-recently-used list: entries live in a slab
//! threaded on an intrusive doubly-linked recency list, and a map from a
//! 64-bit FNV digest of the key to the entry's slot indexes it. A hit
//! relinks its entry at the front, an insert into a full cache drops the
//! entry at the back, and both are O(1). Floorplans are looked up by the
//! digest of the *borrowed* outline set and confirmed field by field
//! against the stored key, so a hit allocates nothing; entries hold an
//! [`Arc<Floorplan>`] that a hit shares instead of deep-cloning. The
//! outline digest folds each chiplet name in a word (8 bytes) at a time,
//! its length in the last word, rather than one byte per multiply.
//!
//! An estimate looks up all of its dies' manufacturing results under one
//! lock of that cache ([`ManufacturingLookups`]): the guard taken for the
//! first die is kept for the next, and dropped only while a miss is
//! computed, so the cache sees the same lookups and inserts in the same
//! order, and keeps the same recency, as one locked lookup per die. The
//! hit and miss counters are added once per estimate.
//!
//! # Bounded memos for service deployments
//!
//! A long-running service's key space grows without limit (every new outline
//! set and `(node, area)` pair adds an entry), so
//! [`SweepContext::with_capacity`] bounds each cache to a maximum entry
//! count with least-recently-used eviction. Eviction only discards work —
//! results stay bit-for-bit identical, evicted entries are simply
//! recomputed on their next use — and the [`SweepStats`] eviction counters
//! make the churn observable.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ecochip_floorplan::{ChipletOutline, Floorplan, FloorplanConfig};
use ecochip_techdb::{Area, TechNode};

use crate::error::EcoChipError;
use crate::manufacturing::{ChipletManufacturing, ManufacturingModel};

/// FNV-1a offset basis (the standard 64-bit parameters).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime (the standard 64-bit parameters).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hasher for the memo key digests and their index.
///
/// Memo keys are a small fixed shape — a handful of packed `u64` bit
/// patterns plus short chiplet names — hashed on *every* estimator point,
/// so the default SipHash (keyed, HashDoS-resistant) pays for a robustness
/// the closed key space never needs. FNV-1a folds each input in one
/// xor-multiply instead. Word-sized writes fold the whole word at once
/// rather than byte-at-a-time: the hash never leaves the process, so it
/// only has to be fast and well mixed, not match any external FNV digest.
#[derive(Debug, Clone, Copy)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut acc = self.0;
        for &byte in bytes {
            acc = (acc ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self.0 = acc;
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0 ^ value).wrapping_mul(FNV_PRIME);
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}

impl FnvHasher {
    /// Fold `name` in a word at a time: each full 8 bytes as one
    /// little-endian word, then the 0–7 bytes left over with the name's
    /// length (mod 256) in the top byte of the last word. The length marks
    /// where the name ends, so `["ab", "c"]` and `["a", "bc"]` fold
    /// differently.
    fn write_name(&mut self, name: &str) {
        let mut words = name.as_bytes().chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        last[7] = name.len() as u8;
        self.write_u64(u64::from_le_bytes(last));
    }
}

/// A memo key: its 64-bit digest indexes the cache.
trait MemoKey: Clone + PartialEq {
    fn digest(&self) -> u64;
}

/// Cache key for a floorplan: the floorplanner configuration plus the ordered
/// outline set (names and exact area bits; every outline is square).
///
/// The names are stored back to back in one string, so a key costs two
/// allocations whatever its chiplet count.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FloorplanKey {
    spacing_bits: u64,
    margin_bits: u64,
    /// Every outline's name, concatenated in order.
    names: Box<str>,
    /// Per outline: the end of its name in `names`, and its area bits.
    outlines: Box<[(usize, u64)]>,
}

impl FloorplanKey {
    /// The key of the square `chiplets` outlines (name and area, in order)
    /// under `config`.
    fn new(config: &FloorplanConfig, chiplets: &[(&str, Area)]) -> Self {
        let mut names = String::with_capacity(chiplets.iter().map(|(name, _)| name.len()).sum());
        let outlines = chiplets
            .iter()
            .map(|&(name, area)| {
                names.push_str(name);
                (names.len(), area.mm2().to_bits())
            })
            .collect();
        Self {
            spacing_bits: config.chiplet_spacing.mm().to_bits(),
            margin_bits: config.edge_margin.mm().to_bits(),
            names: names.into_boxed_str(),
            outlines,
        }
    }

    /// The stored outlines: each name and its area bits, in order.
    fn outlines(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut start = 0;
        self.outlines.iter().map(move |&(end, area_bits)| {
            let name = &self.names[start..end];
            start = end;
            (name, area_bits)
        })
    }

    /// The digest of the key [`FloorplanKey::new`] would build, computed
    /// without building it.
    fn digest_of(config: &FloorplanConfig, chiplets: &[(&str, Area)]) -> u64 {
        floorplan_digest(
            config.chiplet_spacing.mm().to_bits(),
            config.edge_margin.mm().to_bits(),
            chiplets
                .iter()
                .map(|&(name, area)| (name, area.mm2().to_bits())),
        )
    }

    /// Whether this is the key [`FloorplanKey::new`] would build, compared
    /// without building it.
    fn matches(&self, config: &FloorplanConfig, chiplets: &[(&str, Area)]) -> bool {
        self.spacing_bits == config.chiplet_spacing.mm().to_bits()
            && self.margin_bits == config.edge_margin.mm().to_bits()
            && self.outlines.len() == chiplets.len()
            && self
                .outlines()
                .zip(chiplets)
                .all(|((name, area_bits), (other, area))| {
                    name == *other && area_bits == area.mm2().to_bits()
                })
    }
}

/// FNV digest of a floorplan key's fields, taken from borrowed parts so a
/// lookup never has to build the key. Each outline also folds in the
/// square aspect ratio's bits.
fn floorplan_digest<'a>(
    spacing_bits: u64,
    margin_bits: u64,
    outlines: impl Iterator<Item = (&'a str, u64)>,
) -> u64 {
    let square = ChipletOutline::DEFAULT_ASPECT_RATIO.to_bits();
    let mut hasher = FnvHasher::default();
    hasher.write_u64(spacing_bits);
    hasher.write_u64(margin_bits);
    for (name, area_bits) in outlines {
        hasher.write_name(name);
        hasher.write_u64(area_bits);
        hasher.write_u64(square);
    }
    hasher.finish()
}

impl MemoKey for FloorplanKey {
    fn digest(&self) -> u64 {
        floorplan_digest(self.spacing_bits, self.margin_bits, self.outlines())
    }
}

/// Cache key for a per-die manufacturing result: `(node, area)` plus the
/// model fingerprint of [`ManufacturingModel::memo_bits`] (node parameters,
/// wafer, fab energy source, wastage accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ManufacturingKey {
    node: TechNode,
    area_bits: u64,
    model_bits: u64,
}

impl MemoKey for ManufacturingKey {
    fn digest(&self) -> u64 {
        let mut hasher = FnvHasher::default();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

/// The "no slot" end of a recency link.
const NIL: usize = usize::MAX;

/// One cached entry, threaded on its cache's recency list.
#[derive(Debug)]
struct Slot<K, V> {
    digest: u64,
    key: K,
    value: V,
    /// The next more recently used slot (`NIL` at the front).
    newer: usize,
    /// The next less recently used slot (`NIL` at the back).
    older: usize,
}

/// An exact least-recently-used cache: a dense slab of entries on an
/// intrusive doubly-linked recency list, indexed by key digest.
///
/// The index holds one slot per digest. Callers confirm the key on lookup,
/// so a digest collision reads as a miss, and inserting the second of two
/// colliding keys replaces the first (counted as an eviction).
#[derive(Debug)]
struct Lru<K, V> {
    slots: Vec<Slot<K, V>>,
    index: HashMap<u64, usize, BuildHasherDefault<FnvHasher>>,
    /// Most recently used slot.
    front: usize,
    /// Least recently used slot: the next to be evicted.
    back: usize,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            index: HashMap::default(),
            front: NIL,
            back: NIL,
        }
    }
}

impl<K: MemoKey, V> Lru<K, V> {
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// The slot holding the key with `digest` that satisfies `is_key`.
    fn find(&self, digest: u64, is_key: impl FnOnce(&K) -> bool) -> Option<usize> {
        let slot = *self.index.get(&digest)?;
        is_key(&self.slots[slot].key).then_some(slot)
    }

    /// Look up the key with `digest` that satisfies `is_key`, marking it the
    /// most recently used on a hit.
    fn get(&mut self, digest: u64, is_key: impl FnOnce(&K) -> bool) -> Option<&V> {
        let slot = self.find(digest, is_key)?;
        self.unlink(slot);
        self.link_front(slot);
        Some(&self.slots[slot].value)
    }

    /// Insert `key` as the most recently used entry, first evicting from
    /// the back until the cache holds fewer than `capacity` entries.
    /// Returns how many entries left the cache. `capacity` must not be
    /// `Some(0)`.
    fn insert(&mut self, key: K, value: V, capacity: Option<usize>) -> usize {
        let digest = key.digest();
        if let Some(&slot) = self.index.get(&digest) {
            let entry = &mut self.slots[slot];
            let replaced = usize::from(entry.key != key);
            entry.key = key;
            entry.value = value;
            self.unlink(slot);
            self.link_front(slot);
            return replaced;
        }
        let mut evicted = 0;
        while capacity.is_some_and(|cap| self.len() >= cap) && self.pop_back().is_some() {
            evicted += 1;
        }
        let slot = self.slots.len();
        self.slots.push(Slot {
            digest,
            key,
            value,
            newer: NIL,
            older: NIL,
        });
        self.index.insert(digest, slot);
        self.link_front(slot);
        evicted
    }

    /// Remove and return the least recently used entry.
    fn pop_back(&mut self) -> Option<Slot<K, V>> {
        if self.back == NIL {
            return None;
        }
        let slot = self.back;
        self.unlink(slot);
        self.index.remove(&self.slots[slot].digest);
        let removed = self.slots.swap_remove(slot);
        if slot < self.slots.len() {
            // The last slot moved into the hole: repoint its neighbours,
            // the list ends and the index at its new position.
            let (newer, older) = (self.slots[slot].newer, self.slots[slot].older);
            match newer {
                NIL => self.front = slot,
                newer => self.slots[newer].older = slot,
            }
            match older {
                NIL => self.back = slot,
                older => self.slots[older].newer = slot,
            }
            self.index.insert(self.slots[slot].digest, slot);
        }
        Some(removed)
    }

    fn unlink(&mut self, slot: usize) {
        let (newer, older) = (self.slots[slot].newer, self.slots[slot].older);
        match newer {
            NIL => self.front = older,
            newer => self.slots[newer].older = older,
        }
        match older {
            NIL => self.back = newer,
            older => self.slots[older].newer = newer,
        }
    }

    fn link_front(&mut self, slot: usize) {
        self.slots[slot].newer = NIL;
        self.slots[slot].older = self.front;
        match self.front {
            NIL => self.back = slot,
            front => self.slots[front].newer = slot,
        }
        self.front = slot;
    }
}

/// Hit/miss/eviction counters of a [`SweepContext`], for tests, benches,
/// service dashboards and tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Floorplans served from the cache.
    pub floorplan_hits: usize,
    /// Floorplans computed by the floorplanner.
    pub floorplan_misses: usize,
    /// Floorplans evicted to respect the capacity bound.
    pub floorplan_evictions: usize,
    /// Per-die manufacturing results served from the cache.
    pub manufacturing_hits: usize,
    /// Per-die manufacturing results computed by the model.
    pub manufacturing_misses: usize,
    /// Per-die manufacturing results evicted to respect the capacity bound.
    pub manufacturing_evictions: usize,
}

/// Shared memo for the cacheable estimator stages.
///
/// Create one per sweep with [`SweepContext::new`] (unbounded) or
/// [`SweepContext::with_capacity`] (bounded, LRU eviction) and pass it to
/// [`EcoChip::estimate_with`](crate::EcoChip::estimate_with); the plain
/// [`EcoChip::estimate`](crate::EcoChip::estimate) entry point uses a
/// [`SweepContext::disabled`] context and caches nothing.
#[derive(Debug, Default)]
pub struct SweepContext {
    enabled: bool,
    /// Maximum entries *per cache* (`None` = unbounded).
    capacity: Option<usize>,
    floorplans: Mutex<Lru<FloorplanKey, Arc<Floorplan>>>,
    manufacturing: Mutex<Lru<ManufacturingKey, ChipletManufacturing>>,
    floorplan_hits: AtomicUsize,
    floorplan_misses: AtomicUsize,
    floorplan_evictions: AtomicUsize,
    manufacturing_hits: AtomicUsize,
    manufacturing_misses: AtomicUsize,
    manufacturing_evictions: AtomicUsize,
}

impl SweepContext {
    /// A context that memoizes floorplan and manufacturing stage results,
    /// without any size bound.
    pub fn new() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A memoizing context holding at most `max_entries` results *per
    /// cache* (floorplans and manufacturing results are bounded
    /// independently). When a cache is full, inserting a new entry evicts
    /// the least-recently-used one — results stay bit-for-bit identical,
    /// eviction only trades recomputation for memory. A capacity of zero
    /// caches nothing (every insert is dropped immediately).
    ///
    /// Hits, inserts and evictions each take constant time under the cache
    /// mutex, whatever the bound.
    pub fn with_capacity(max_entries: usize) -> Self {
        Self {
            enabled: true,
            capacity: Some(max_entries),
            ..Self::default()
        }
    }

    /// A context that caches nothing (every stage recomputes).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this context memoizes anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The per-cache entry bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Insert under the capacity bound, evicting least-recently-used
    /// entries as needed.
    fn insert_bounded<K: MemoKey, V>(
        &self,
        cache: &mut Lru<K, V>,
        key: K,
        value: V,
        evictions: &AtomicUsize,
    ) {
        if self.capacity == Some(0) {
            // A zero-capacity cache stores nothing.
            evictions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let evicted = cache.insert(key, value, self.capacity);
        if evicted > 0 {
            evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Number of floorplans currently memoized.
    pub fn floorplan_entries(&self) -> usize {
        self.floorplans.lock().expect("floorplan cache").len()
    }

    /// Number of per-die manufacturing results currently memoized.
    pub fn manufacturing_entries(&self) -> usize {
        self.manufacturing
            .lock()
            .expect("manufacturing cache")
            .len()
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            floorplan_hits: self.floorplan_hits.load(Ordering::Relaxed),
            floorplan_misses: self.floorplan_misses.load(Ordering::Relaxed),
            floorplan_evictions: self.floorplan_evictions.load(Ordering::Relaxed),
            manufacturing_hits: self.manufacturing_hits.load(Ordering::Relaxed),
            manufacturing_misses: self.manufacturing_misses.load(Ordering::Relaxed),
            manufacturing_evictions: self.manufacturing_evictions.load(Ordering::Relaxed),
        }
    }

    /// Floorplan of the square `chiplets` outlines (name and area, in
    /// order) under `config`, reusing a cached plan when the same outline
    /// set was already planned.
    ///
    /// A hit hashes and compares the borrowed inputs and shares the cached
    /// plan; the owned cache key is only built on a miss.
    pub(crate) fn floorplan<F>(
        &self,
        config: &FloorplanConfig,
        chiplets: &[(&str, Area)],
        compute: F,
    ) -> Result<Arc<Floorplan>, EcoChipError>
    where
        F: FnOnce() -> Result<Floorplan, EcoChipError>,
    {
        if !self.enabled {
            return compute().map(Arc::new);
        }
        let digest = FloorplanKey::digest_of(config, chiplets);
        if let Some(plan) = self
            .floorplans
            .lock()
            .expect("floorplan cache")
            .get(digest, |key| key.matches(config, chiplets))
        {
            self.floorplan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(plan));
        }
        // Computed outside the lock so other workers make progress; a rare
        // duplicate computation of the same key is benign (same value).
        let plan = Arc::new(compute()?);
        self.floorplan_misses.fetch_add(1, Ordering::Relaxed);
        self.insert_bounded(
            &mut self.floorplans.lock().expect("floorplan cache"),
            FloorplanKey::new(config, chiplets),
            Arc::clone(&plan),
            &self.floorplan_evictions,
        );
        Ok(plan)
    }

    /// The manufacturing lookups of one estimate, one die at a time, under
    /// one lock of the manufacturing cache: see [`ManufacturingLookups`].
    pub(crate) fn manufacturing_lookups<'c>(
        &'c self,
        model: &'c ManufacturingModel<'c>,
    ) -> ManufacturingLookups<'c> {
        ManufacturingLookups {
            context: self,
            model,
            cache: None,
            hits: 0,
            misses: 0,
        }
    }
}

/// The per-die manufacturing lookups of one estimate.
///
/// The first lookup locks the manufacturing cache and the guard is kept
/// for the next, so an estimate whose dies all hit takes the lock once. A
/// miss drops the guard while the model computes, so other workers are
/// not held up behind the computation, then locks again to insert. The
/// cache therefore sees the same gets and inserts, in the same order, as
/// one locked lookup per die, and keeps the same recency. The hit and miss
/// counters are added once, when the lookups are dropped.
pub(crate) struct ManufacturingLookups<'c> {
    context: &'c SweepContext,
    model: &'c ManufacturingModel<'c>,
    cache: Option<MutexGuard<'c, Lru<ManufacturingKey, ChipletManufacturing>>>,
    hits: usize,
    misses: usize,
}

impl ManufacturingLookups<'_> {
    /// Manufacturing CFP of one die, reusing a cached result when the same
    /// `(node, area)` was already evaluated under an identical model.
    /// `model_bits` is the model's [`ManufacturingModel::memo_bits`] for
    /// `node` when the caller has it precomputed; `None` computes it here
    /// (and fails for a node the database lacks). A disabled context
    /// computes every die.
    pub(crate) fn get(
        &mut self,
        model_bits: Option<u64>,
        area: Area,
        node: TechNode,
    ) -> Result<ChipletManufacturing, EcoChipError> {
        let context = self.context;
        if !context.enabled {
            return self.model.chiplet_cfp(area, node);
        }
        let key = ManufacturingKey {
            node,
            area_bits: area.mm2().to_bits(),
            model_bits: match model_bits {
                Some(bits) => bits,
                None => self.model.memo_bits(node)?,
            },
        };
        let cache = self
            .cache
            .get_or_insert_with(|| context.manufacturing.lock().expect("manufacturing cache"));
        if let Some(&cached) = cache.get(key.digest(), |stored| *stored == key) {
            self.hits += 1;
            return Ok(cached);
        }
        // Computed outside the lock so other workers make progress; a rare
        // duplicate computation of the same key is benign (same value).
        self.cache = None;
        let result = self.model.chiplet_cfp(area, node)?;
        self.misses += 1;
        let cache = self
            .cache
            .insert(context.manufacturing.lock().expect("manufacturing cache"));
        context.insert_bounded(cache, key, result, &context.manufacturing_evictions);
        Ok(result)
    }
}

impl Drop for ManufacturingLookups<'_> {
    fn drop(&mut self) {
        if self.hits > 0 {
            self.context
                .manufacturing_hits
                .fetch_add(self.hits, Ordering::Relaxed);
        }
        if self.misses > 0 {
            self.context
                .manufacturing_misses
                .fetch_add(self.misses, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecochip_techdb::{EnergySource, TechDb};
    use ecochip_yield::Wafer;
    use proptest::prelude::*;

    #[test]
    fn fnv_hasher_matches_the_reference_byte_vectors() {
        // Byte-stream writes follow the published 64-bit FNV-1a vectors;
        // word writes fold whole words and intentionally diverge.
        let digest = |bytes: &[u8]| {
            let mut hasher = FnvHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_eq!(digest(b""), 0xcbf29ce484222325);
        assert_eq!(digest(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(digest(b"foobar"), 0x85944171f73967e8);
        // A packed u64 write mixes the whole word in one fold.
        let mut packed = FnvHasher::default();
        packed.write_u64(0xdead_beef_0bad_f00d);
        assert_eq!(
            packed.finish(),
            (FNV_OFFSET ^ 0xdead_beef_0bad_f00d).wrapping_mul(FNV_PRIME)
        );
        // Different keys disperse; equal keys agree (HashMap's contract).
        let mut other = FnvHasher::default();
        other.write_u64(0xdead_beef_0bad_f00e);
        assert_ne!(packed.finish(), other.finish());
    }

    /// One die's manufacturing lookup through `ctx`, as an estimate of a
    /// one-chiplet system makes it.
    fn lookup_die(
        ctx: &SweepContext,
        model: &ManufacturingModel<'_>,
        area: Area,
        node: TechNode,
    ) -> Result<ChipletManufacturing, EcoChipError> {
        ctx.manufacturing_lookups(model).get(None, area, node)
    }

    #[test]
    fn disabled_context_never_caches() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::disabled();
        assert!(!ctx.is_enabled());
        for _ in 0..3 {
            lookup_die(&ctx, &model, Area::from_mm2(100.0), TechNode::N7).unwrap();
        }
        assert_eq!(ctx.stats(), SweepStats::default());
    }

    #[test]
    fn manufacturing_cache_hits_on_repeated_inputs() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::new();
        let area = Area::from_mm2(123.0);
        let first = lookup_die(&ctx, &model, area, TechNode::N7).unwrap();
        let second = lookup_die(&ctx, &model, area, TechNode::N7).unwrap();
        assert_eq!(first, second);
        let stats = ctx.stats();
        assert_eq!(stats.manufacturing_misses, 1);
        assert_eq!(stats.manufacturing_hits, 1);
        // A different node misses again.
        lookup_die(&ctx, &model, area, TechNode::N14).unwrap();
        assert_eq!(ctx.stats().manufacturing_misses, 2);
    }

    #[test]
    fn manufacturing_cache_distinguishes_model_parameters() {
        let db = TechDb::default();
        let coal = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let wind = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Wind);
        let no_wastage = coal.without_wastage();
        let ctx = SweepContext::new();
        let area = Area::from_mm2(100.0);
        let a = lookup_die(&ctx, &coal, area, TechNode::N7).unwrap();
        let b = lookup_die(&ctx, &wind, area, TechNode::N7).unwrap();
        let c = lookup_die(&ctx, &no_wastage, area, TechNode::N7).unwrap();
        assert_eq!(ctx.stats().manufacturing_misses, 3);
        assert!(b.total().kg() < a.total().kg());
        assert_eq!(c.wastage_cfp.kg(), 0.0);
    }

    #[test]
    fn manufacturing_cache_distinguishes_techdbs() {
        // A context shared across estimators with different technology
        // databases must never serve one database's result for the other.
        let default_db = TechDb::default();
        let tweaked = default_db
            .node(TechNode::N7)
            .unwrap()
            .to_builder()
            .defect_density(0.29)
            .build()
            .unwrap();
        let dirty = default_db.to_builder().insert(tweaked).build();
        let a = ManufacturingModel::new(&default_db, Wafer::standard_450mm(), EnergySource::Coal);
        let b = ManufacturingModel::new(&dirty, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::new();
        let area = Area::from_mm2(300.0);
        let from_a = lookup_die(&ctx, &a, area, TechNode::N7).unwrap();
        let from_b = lookup_die(&ctx, &b, area, TechNode::N7).unwrap();
        assert_eq!(ctx.stats().manufacturing_misses, 2);
        assert_eq!(ctx.stats().manufacturing_hits, 0);
        assert!(from_b.total().kg() > from_a.total().kg());
        assert_eq!(from_a, a.chiplet_cfp(area, TechNode::N7).unwrap());
        assert_eq!(from_b, b.chiplet_cfp(area, TechNode::N7).unwrap());
    }

    /// Plan `chiplets` under `config` through `ctx`.
    fn plan_with(
        ctx: &SweepContext,
        config: FloorplanConfig,
        chiplets: &[(&str, Area)],
    ) -> Arc<Floorplan> {
        let outlines: Vec<ChipletOutline> = chiplets
            .iter()
            .map(|&(name, area)| ChipletOutline::new(name, area))
            .collect();
        ctx.floorplan(&config, chiplets, || {
            ecochip_floorplan::SlicingFloorplanner::new(config)
                .floorplan(&outlines)
                .map_err(EcoChipError::from)
        })
        .unwrap()
    }

    /// Plan `chiplets` under the default configuration through `ctx`.
    fn plan(ctx: &SweepContext, chiplets: &[(&str, Area)]) -> Arc<Floorplan> {
        plan_with(ctx, FloorplanConfig::default(), chiplets)
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::with_capacity(2);
        assert_eq!(ctx.capacity(), Some(2));
        let a = Area::from_mm2(10.0);
        let b = Area::from_mm2(20.0);
        let c = Area::from_mm2(30.0);
        lookup_die(&ctx, &model, a, TechNode::N7).unwrap();
        lookup_die(&ctx, &model, b, TechNode::N7).unwrap();
        // Touch `a` so `b` is the least recently used.
        lookup_die(&ctx, &model, a, TechNode::N7).unwrap();
        // Inserting `c` into the full cache evicts `b`.
        lookup_die(&ctx, &model, c, TechNode::N7).unwrap();
        assert_eq!(ctx.manufacturing_entries(), 2);
        assert_eq!(ctx.stats().manufacturing_evictions, 1);
        // `a` and `c` still hit; `b` was evicted and misses again.
        let hits_before = ctx.stats().manufacturing_hits;
        lookup_die(&ctx, &model, a, TechNode::N7).unwrap();
        lookup_die(&ctx, &model, c, TechNode::N7).unwrap();
        assert_eq!(ctx.stats().manufacturing_hits, hits_before + 2);
        let misses_before = ctx.stats().manufacturing_misses;
        lookup_die(&ctx, &model, b, TechNode::N7).unwrap();
        assert_eq!(ctx.stats().manufacturing_misses, misses_before + 1);
        // Eviction never changes values, only recomputes them.
        let bounded = lookup_die(&ctx, &model, b, TechNode::N7).unwrap();
        let unbounded = lookup_die(&SweepContext::new(), &model, b, TechNode::N7).unwrap();
        assert_eq!(
            bounded.total().kg().to_bits(),
            unbounded.total().kg().to_bits()
        );
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        let ctx = SweepContext::with_capacity(0);
        for _ in 0..3 {
            lookup_die(&ctx, &model, Area::from_mm2(50.0), TechNode::N7).unwrap();
        }
        assert_eq!(ctx.manufacturing_entries(), 0);
        assert_eq!(ctx.stats().manufacturing_hits, 0);
        assert_eq!(ctx.stats().manufacturing_misses, 3);
        assert_eq!(ctx.stats().manufacturing_evictions, 3);
    }

    #[test]
    fn floorplan_cache_keys_on_outline_set() {
        let chiplets = [("a", Area::from_mm2(100.0)), ("b", Area::from_mm2(50.0))];
        let ctx = SweepContext::new();
        let first = plan(&ctx, &chiplets);
        let second = plan(&ctx, &chiplets);
        // A hit shares the cached plan rather than cloning it.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(ctx.stats().floorplan_hits, 1);
        assert_eq!(ctx.stats().floorplan_misses, 1);
        // A different area, name or order misses.
        plan(&ctx, &[("a", Area::from_mm2(101.0))]);
        plan(
            &ctx,
            &[("a", Area::from_mm2(100.0)), ("c", Area::from_mm2(50.0))],
        );
        plan(
            &ctx,
            &[("b", Area::from_mm2(50.0)), ("a", Area::from_mm2(100.0))],
        );
        assert_eq!(ctx.stats().floorplan_misses, 4);
        // So does a different floorplanner configuration.
        let wide = FloorplanConfig {
            chiplet_spacing: ecochip_techdb::Length::from_mm(0.9),
            ..FloorplanConfig::default()
        };
        plan_with(&ctx, wide, &chiplets);
        assert_eq!(ctx.stats().floorplan_misses, 5);
        assert_eq!(ctx.stats().floorplan_hits, 1);
    }

    #[test]
    fn borrowed_lookup_digest_matches_the_stored_key() {
        let config = FloorplanConfig::default();
        let chiplets = [
            ("digital", Area::from_mm2(300.5)),
            ("io", Area::from_mm2(42.0)),
        ];
        let key = FloorplanKey::new(&config, &chiplets);
        assert!(key.matches(&config, &chiplets));
        assert_eq!(key.digest(), FloorplanKey::digest_of(&config, &chiplets));
        assert_eq!(
            key.outlines().collect::<Vec<_>>(),
            [
                ("digital", Area::from_mm2(300.5).mm2().to_bits()),
                ("io", Area::from_mm2(42.0).mm2().to_bits())
            ]
        );
        // The names are stored back to back, but each keeps its bounds.
        let resplit = [
            ("digita", Area::from_mm2(300.5)),
            ("lio", Area::from_mm2(42.0)),
        ];
        assert!(!key.matches(&config, &resplit));
        assert_ne!(key, FloorplanKey::new(&config, &resplit));
        assert!(!key.matches(&config, &chiplets[..1]));
    }

    #[test]
    fn names_fold_with_their_bounds() {
        let config = FloorplanConfig::default();
        let area = Area::from_mm2(10.0);
        let digest = |names: &[&'static str]| {
            let chiplets: Vec<(&str, Area)> = names.iter().map(|&name| (name, area)).collect();
            FloorplanKey::digest_of(&config, &chiplets)
        };
        assert_ne!(digest(&["ab", "c"]), digest(&["a", "bc"]));
        assert_ne!(digest(&["", "abc"]), digest(&["abc", ""]));
        // Names around a word boundary, and one that fills its last word.
        assert_ne!(digest(&["abcdefg"]), digest(&["abcdefg\0"]));
        assert_ne!(digest(&["abcdefgh"]), digest(&["abcdefgh\0"]));
        assert_ne!(digest(&["abcdefgh", "i"]), digest(&["abcdefghi"]));
    }

    /// Names of 0–24 bytes: characters of one to four bytes, taken while
    /// they fit, so lengths land on and around the 8-byte word bounds.
    fn name_of(picks: &[usize]) -> String {
        const CHARS: [char; 6] = ['a', 'Z', '\u{e9}', '\u{20ac}', '\u{1d11e}', '-'];
        let mut name = String::new();
        for &pick in picks {
            let c = CHARS[pick % CHARS.len()];
            if name.len() + c.len_utf8() <= 24 {
                name.push(c);
            }
        }
        name
    }

    proptest! {
        #[test]
        fn borrowed_digest_matches_the_key_digest(
            names in prop::collection::vec(prop::collection::vec(0usize..6, 0..=24), 1..=6),
            areas in prop::collection::vec(1.0f64..900.0, 6),
            spacing in 0.0f64..2.0,
        ) {
            let config = FloorplanConfig {
                chiplet_spacing: ecochip_techdb::Length::from_mm(spacing),
                ..FloorplanConfig::default()
            };
            let names: Vec<String> = names.iter().map(|picks| name_of(picks)).collect();
            let chiplets: Vec<(&str, Area)> = names
                .iter()
                .zip(&areas)
                .map(|(name, &area)| (name.as_str(), Area::from_mm2(area)))
                .collect();
            let key = FloorplanKey::new(&config, &chiplets);
            prop_assert_eq!(FloorplanKey::digest_of(&config, &chiplets), key.digest());
            prop_assert!(key.matches(&config, &chiplets));
        }
    }

    #[test]
    fn one_estimates_lookups_move_the_memo_like_one_die_at_a_time() {
        let db = TechDb::default();
        let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
        // Repeats, and more distinct dies than the capacity, so the batch
        // both hits and evicts; then a die the database lacks.
        let dies = [0, 1, 0, 2, 3, 1, 0, 4, 3];
        let batched = SweepContext::with_capacity(3);
        let single = SweepContext::with_capacity(3);
        let mut lookups = batched.manufacturing_lookups(&model);
        for &die in &dies {
            let value = lookups.get(None, die_area(die), TechNode::N7).unwrap();
            assert_eq!(
                value,
                lookup_die(&single, &model, die_area(die), TechNode::N7).unwrap()
            );
        }
        drop(lookups);
        assert_eq!(batched.stats(), single.stats());
        assert_eq!(batched.stats().manufacturing_hits, 1);
        assert_eq!(batched.stats().manufacturing_evictions, 5);
        let order = |ctx: &SweepContext| -> Vec<u64> {
            keys_newest_first(&ctx.manufacturing.lock().unwrap())
                .into_iter()
                .map(|key| key.area_bits)
                .collect()
        };
        assert_eq!(order(&batched), order(&single));
        assert_eq!(
            order(&batched),
            [3, 4, 0].map(|i| die_area(i).mm2().to_bits())
        );

        // A failing die ends the batch; the lookups before it still count.
        let empty = ecochip_techdb::TechDbBuilder::new().build();
        let missing = ManufacturingModel::new(&empty, Wafer::standard_450mm(), EnergySource::Coal);
        let mut lookups = batched.manufacturing_lookups(&missing);
        let bits = model.memo_bits(TechNode::N7).unwrap();
        assert_eq!(
            lookups.get(Some(bits), die_area(3), TechNode::N7).unwrap(),
            { lookup_die(&single, &model, die_area(3), TechNode::N7).unwrap() }
        );
        assert!(lookups.get(None, die_area(5), TechNode::N7).is_err());
        assert!(lookup_die(&single, &missing, die_area(5), TechNode::N7).is_err());
        drop(lookups);
        assert_eq!(batched.stats(), single.stats());
        assert_eq!(order(&batched), order(&single));
    }

    /// A key type whose every value shares one digest.
    #[derive(Debug, Clone, PartialEq)]
    struct Colliding(u32);

    impl MemoKey for Colliding {
        fn digest(&self) -> u64 {
            7
        }
    }

    #[test]
    fn digest_collisions_read_as_misses_and_replace_on_insert() {
        let mut lru = Lru::default();
        assert_eq!(lru.insert(Colliding(1), "one", Some(4)), 0);
        assert_eq!(lru.get(7, |key| *key == Colliding(1)), Some(&"one"));
        // Same digest, different key: confirmed as a miss.
        assert_eq!(lru.get(7, |key| *key == Colliding(2)), None);
        // Inserting it replaces the colliding entry, counted as an eviction.
        assert_eq!(lru.insert(Colliding(2), "two", Some(4)), 1);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.find(7, |key| *key == Colliding(1)), None);
        assert_eq!(lru.get(7, |key| *key == Colliding(2)), Some(&"two"));
        // Re-inserting the same key only refreshes it.
        assert_eq!(lru.insert(Colliding(2), "two again", Some(4)), 0);
        assert_eq!(lru.get(7, |key| *key == Colliding(2)), Some(&"two again"));
    }

    #[test]
    fn lru_evicts_in_recency_order_and_keeps_links_consistent() {
        let key = |area: u64| ManufacturingKey {
            node: TechNode::N7,
            area_bits: area,
            model_bits: 0,
        };
        let mut lru = Lru::default();
        for area in 0..5 {
            assert_eq!(lru.insert(key(area), area, Some(5)), 0);
        }
        // Touch 0 and 2: recency is now 2, 0, 4, 3, 1 (front to back).
        assert_eq!(lru.get(key(0).digest(), |k| *k == key(0)), Some(&0));
        assert_eq!(lru.get(key(2).digest(), |k| *k == key(2)), Some(&2));
        assert_eq!(lru.insert(key(5), 5, Some(5)), 1);
        let survivors: Vec<u64> = keys_newest_first(&lru)
            .into_iter()
            .map(|k| k.area_bits)
            .collect();
        assert_eq!(survivors, vec![5, 2, 0, 4, 3]);
    }

    /// A naive reference LRU over key ids: a vector, most recent first.
    #[derive(Debug, Default)]
    struct ReferenceLru {
        keys: Vec<usize>,
        capacity: usize,
        hits: usize,
        misses: usize,
        evictions: usize,
    }

    impl ReferenceLru {
        fn insert(&mut self, key: usize) {
            if self.capacity == 0 {
                self.evictions += 1;
                return;
            }
            while self.keys.len() >= self.capacity {
                self.keys.pop();
                self.evictions += 1;
            }
            self.keys.insert(0, key);
        }

        fn lookup(&mut self, key: usize) {
            if let Some(at) = self.keys.iter().position(|&k| k == key) {
                self.keys.remove(at);
                self.keys.insert(0, key);
                self.hits += 1;
            } else {
                self.misses += 1;
                self.insert(key);
            }
        }
    }

    /// The keys of `lru`, most recently used first, walked along the links.
    fn keys_newest_first<K, V>(lru: &Lru<K, V>) -> Vec<&K> {
        let mut keys = Vec::new();
        let mut slot = lru.front;
        while slot != NIL {
            keys.push(&lru.slots[slot].key);
            slot = lru.slots[slot].older;
        }
        assert_eq!(keys.len(), lru.slots.len(), "recency list lost a slot");
        assert_eq!(lru.index.len(), lru.slots.len(), "index out of step");
        keys
    }

    /// Manufacturing key id `i`: a 7 nm die of `10 (i + 1)` mm².
    fn die_area(i: usize) -> Area {
        Area::from_mm2(10.0 * (i + 1) as f64)
    }

    /// Floorplan key id `j`: one or two square chiplets.
    fn outline_set(j: usize) -> Vec<(&'static str, Area)> {
        let mut chiplets = vec![("a", Area::from_mm2(40.0 + 10.0 * j as f64))];
        if j % 2 == 1 {
            chiplets.push(("b", Area::from_mm2(25.0)));
        }
        chiplets
    }

    /// One reference model per cache, driven alongside a real context.
    struct Models {
        floorplans: ReferenceLru,
        manufacturing: ReferenceLru,
    }

    impl Models {
        fn lookup(&mut self, ctx: &SweepContext, model: &ManufacturingModel<'_>, op: u64) {
            let id = (op >> 8) as usize;
            if op.is_multiple_of(2) {
                lookup_die(ctx, model, die_area(id % 6), TechNode::N7).unwrap();
                self.manufacturing.lookup(id % 6);
            } else {
                plan(ctx, &outline_set(id % 5));
                self.floorplans.lookup(id % 5);
            }
        }
    }

    proptest! {
        #[test]
        fn bounded_memo_matches_a_reference_lru(
            capacity in 0usize..=6,
            ops in prop::collection::vec(0u64..u64::MAX, 1..80),
        ) {
            let db = TechDb::default();
            let model = ManufacturingModel::new(&db, Wafer::standard_450mm(), EnergySource::Coal);
            let config = FloorplanConfig::default();
            let ctx = SweepContext::with_capacity(capacity);
            let mut models = Models {
                floorplans: ReferenceLru { capacity, ..ReferenceLru::default() },
                manufacturing: ReferenceLru { capacity, ..ReferenceLru::default() },
            };
            for op in ops {
                models.lookup(&ctx, &model, op);

                let stats = ctx.stats();
                prop_assert_eq!(stats.floorplan_hits, models.floorplans.hits);
                prop_assert_eq!(stats.floorplan_misses, models.floorplans.misses);
                prop_assert_eq!(stats.floorplan_evictions, models.floorplans.evictions);
                prop_assert_eq!(stats.manufacturing_hits, models.manufacturing.hits);
                prop_assert_eq!(stats.manufacturing_misses, models.manufacturing.misses);
                prop_assert_eq!(
                    stats.manufacturing_evictions,
                    models.manufacturing.evictions
                );
                let manufacturing = ctx.manufacturing.lock().unwrap();
                let survivors: Vec<u64> = keys_newest_first(&manufacturing)
                    .into_iter()
                    .map(|key| key.area_bits)
                    .collect();
                let expected: Vec<u64> = models
                    .manufacturing
                    .keys
                    .iter()
                    .map(|&i| die_area(i).mm2().to_bits())
                    .collect();
                prop_assert_eq!(survivors, expected);
                drop(manufacturing);
                let floorplans = ctx.floorplans.lock().unwrap();
                let survivors = keys_newest_first(&floorplans);
                prop_assert_eq!(survivors.len(), models.floorplans.keys.len());
                for (key, &j) in survivors.into_iter().zip(&models.floorplans.keys) {
                    prop_assert!(key.matches(&config, &outline_set(j)), "floorplan {j} out of place");
                }
            }
        }
    }
}
