//! The concurrent memo cache behind corpus runs: two content-addressed
//! tiers — annotated backward-pass subterm results, and `⊑_inf`/`⊑_sup`
//! solver verdicts — shared by every worker of a batch, with an optional
//! LRU size bound per tier (`nqpv batch --cache-cap N`) and an optional
//! persistent [`DiskCache`] layered under the verdict tier
//! (`--cache-dir DIR`) so warm verdicts survive restarts. The transformer
//! tier admits a subterm result only on the second sighting of its key
//! (a fixed-size doorkeeper), so a corpus of distinct jobs stores
//! nothing there.

use crate::disk::DiskCache;
use nqpv_core::{Annotated, CacheKey, TransformerCache};
use nqpv_solver::Verdict;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Snapshot of cache effectiveness counters for both tiers (plus the disk
/// backend, all-zero when none is layered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Transformer-tier lookups answered from the store.
    pub hits: u64,
    /// Transformer-tier lookups that fell through to computation.
    pub misses: u64,
    /// Transformer-tier entries currently stored.
    pub entries: u64,
    /// Transformer-tier entries evicted by the LRU bound.
    pub evictions: u64,
    /// Solver verdict-tier lookups answered from the store.
    pub verdict_hits: u64,
    /// Solver verdict-tier lookups that fell through to the solver.
    pub verdict_misses: u64,
    /// Solver verdict-tier entries currently stored.
    pub verdict_entries: u64,
    /// Solver verdict-tier entries evicted by the LRU bound.
    pub verdict_evictions: u64,
    /// Verdict lookups that missed memory but were answered from disk.
    pub disk_hits: u64,
    /// Verdict lookups that missed both memory and disk.
    pub disk_misses: u64,
    /// Verdict records persisted to disk this run.
    pub disk_writes: u64,
    /// Records currently in the disk store (0 when none is layered).
    pub disk_entries: u64,
    /// Bytes currently in the disk store (0 when none is layered).
    pub disk_bytes: u64,
    /// Corrupt disk records moved to the quarantine directory this run.
    pub disk_quarantined: u64,
    /// Disk records evicted by the size budget (`--cache-max-bytes`).
    pub disk_evicted: u64,
}

impl CacheStats {
    /// `hits / (hits + misses)` for the transformer tier, or 0 when
    /// nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.misses)
    }

    /// `verdict_hits / (verdict_hits + verdict_misses)` for the solver
    /// verdict tier, or 0 when nothing was looked up.
    pub fn verdict_hit_rate(&self) -> f64 {
        ratio(self.verdict_hits, self.verdict_misses)
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// One LRU-bounded tier: a content-addressed map plus a recency index
/// (logical-clock `BTreeMap`, oldest stamp first). Unbounded when
/// `cap == None`. All operations run under the owning mutex.
#[derive(Debug)]
struct Tier<V> {
    map: HashMap<CacheKey, (V, u64)>,
    recency: BTreeMap<u64, CacheKey>,
    clock: u64,
    cap: Option<usize>,
    evictions: u64,
}

impl<V: Clone> Tier<V> {
    fn new(cap: Option<usize>) -> Self {
        Tier {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            clock: 0,
            cap,
            evictions: 0,
        }
    }

    fn get(&mut self, key: CacheKey) -> Option<V> {
        let old = *self.map.get(&key).map(|(_, stamp)| stamp)?;
        self.clock += 1;
        let new = self.clock;
        self.recency.remove(&old);
        self.recency.insert(new, key);
        let entry = self.map.get_mut(&key).expect("checked present");
        entry.1 = new;
        Some(entry.0.clone())
    }

    fn put(&mut self, key: CacheKey, value: V) {
        self.clock += 1;
        let new = self.clock;
        if let Some((slot, stamp)) = self.map.get_mut(&key) {
            let old = *stamp;
            *slot = value;
            *stamp = new;
            self.recency.remove(&old);
            self.recency.insert(new, key);
            return;
        }
        self.map.insert(key, (value, new));
        self.recency.insert(new, key);
        if let Some(cap) = self.cap {
            while self.map.len() > cap {
                // Oldest stamp = least recently used.
                let (&oldest, &victim) = self.recency.iter().next().expect("non-empty");
                self.recency.remove(&oldest);
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Slots in the transformer tier's [`Doorkeeper`]: 2¹⁴ keys of 16 bytes,
/// 256 KiB per [`MemoCache`].
const DOORKEEPER_SLOTS: usize = 1 << 14;

/// The admission filter of TinyLFU (Einziger et al., 2017) in its
/// simplest form: a direct-mapped table remembering the last key offered
/// to each slot. A key is admitted only when its slot already holds it,
/// i.e. on its second sighting with no colliding key offered in between.
/// The table is allocated zeroed, so a key of exactly 0 counts as seen;
/// keys are 128-bit content hashes, which makes that moot.
struct Doorkeeper {
    slots: Box<[CacheKey]>,
}

impl Doorkeeper {
    fn new() -> Self {
        Doorkeeper {
            slots: vec![0; DOORKEEPER_SLOTS].into_boxed_slice(),
        }
    }

    /// True when `key` was the last key offered to its slot; otherwise
    /// remembers `key` there and returns false.
    fn admit(&mut self, key: CacheKey) -> bool {
        let slot = &mut self.slots[key as usize % DOORKEEPER_SLOTS];
        if *slot == key {
            return true;
        }
        *slot = key;
        false
    }
}

impl std::fmt::Debug for Doorkeeper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Doorkeeper({} slots)", self.slots.len())
    }
}

/// The transformer tier: an LRU [`Tier`] behind a [`Doorkeeper`], both
/// under one mutex.
#[derive(Debug)]
struct TransformerTier {
    lru: Tier<Annotated>,
    doorkeeper: Doorkeeper,
}

/// Content-addressed, thread-safe memo store for backward-transformer
/// subterm results *and* solver verdicts — one instance is shared (via
/// `Arc`) by every worker of a batch run.
///
/// Lookup and insert both take a short mutex critical section (the stored
/// values are cloned out, never borrowed), so workers contend only for
/// map access, not for verification work. The two tiers use separate
/// locks: a worker resolving a verdict never blocks one storing a
/// subterm.
///
/// The transformer tier stores a subterm result only when its key is
/// offered a second time: the first `put` of a key just records it in a
/// fixed table of 2¹⁴ recent keys (256 KiB), and a later `put` of
/// the same key (after a miss on recomputation) admits it. A corpus of
/// distinct jobs therefore keeps no subterm results at all, while a
/// program verified a third time hits. A declined `put` only costs a
/// deterministic recomputation, so verdicts and result bits never depend
/// on it. The verdict tier admits every `put`.
///
/// With [`MemoCache::with_capacity`] each tier also evicts its least
/// recently used entry once it holds more than `cap` entries; eviction
/// counts surface in [`CacheStats`].
#[derive(Debug)]
pub struct MemoCache {
    map: Mutex<TransformerTier>,
    hits: AtomicU64,
    misses: AtomicU64,
    verdicts: Mutex<Tier<Verdict>>,
    verdict_hits: AtomicU64,
    verdict_misses: AtomicU64,
    disk: Option<Arc<DiskCache>>,
}

impl Default for MemoCache {
    fn default() -> Self {
        MemoCache::new()
    }
}

impl MemoCache {
    /// An empty cache with no LRU bound.
    pub fn new() -> Self {
        MemoCache::layered(None, None)
    }

    /// An empty cache holding at most `cap` entries **per tier**, evicting
    /// least-recently-used entries beyond that.
    pub fn with_capacity(cap: usize) -> Self {
        MemoCache::layered(Some(cap), None)
    }

    /// The general constructor: optional per-tier LRU bound, optional
    /// persistent [`DiskCache`] layered **under the verdict tier** —
    /// verdict lookups that miss memory fall through to disk, disk hits
    /// are promoted into memory (so each distinct key pays one file read
    /// per run), and freshly computed verdicts write through to both. The
    /// transformer tier stays memory-only: annotated subterm results are
    /// orders of magnitude bigger than verdicts and hit mostly within a
    /// run, exactly why the ROADMAP scheduled the verdict tier for
    /// persistence first.
    pub fn layered(cap: Option<usize>, disk: Option<Arc<DiskCache>>) -> Self {
        MemoCache {
            map: Mutex::new(TransformerTier {
                lru: Tier::new(cap),
                doorkeeper: Doorkeeper::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            verdicts: Mutex::new(Tier::new(cap)),
            verdict_hits: AtomicU64::new(0),
            verdict_misses: AtomicU64::new(0),
            disk,
        }
    }

    /// The layered disk backend, if any.
    pub fn disk(&self) -> Option<&Arc<DiskCache>> {
        self.disk.as_ref()
    }

    /// Current hit/miss/size/eviction counters for both tiers (and the
    /// disk backend, when layered).
    pub fn stats(&self) -> CacheStats {
        let (entries, evictions) = {
            let t = self.map.lock().unwrap_or_else(|e| e.into_inner());
            (t.lru.len() as u64, t.lru.evictions)
        };
        let (verdict_entries, verdict_evictions) = {
            let t = self.verdicts.lock().unwrap_or_else(|e| e.into_inner());
            (t.len() as u64, t.evictions)
        };
        let disk = self.disk.as_ref().map(|d| d.stats()).unwrap_or_default();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            evictions,
            verdict_hits: self.verdict_hits.load(Ordering::Relaxed),
            verdict_misses: self.verdict_misses.load(Ordering::Relaxed),
            verdict_entries,
            verdict_evictions,
            disk_hits: disk.hits,
            disk_misses: disk.misses,
            disk_writes: disk.writes,
            disk_entries: disk.entries,
            disk_bytes: disk.bytes,
            disk_quarantined: disk.quarantined,
            disk_evicted: disk.evicted,
        }
    }
}

/// Mirrors a [`CacheStats`] snapshot into the process-wide telemetry
/// registry: per-tier lookup counters (monotone — totals are owned by
/// the cache and only move forward) and store-size gauges. Batch runs
/// call this once at the end; the daemon's `/metrics` endpoint calls it
/// on every scrape.
pub fn record_cache_metrics(stats: &CacheStats) {
    let reg = nqpv_telemetry::global();
    const LOOKUPS: &str = "nqpv_cache_lookups_total";
    const LOOKUPS_HELP: &str = "Cache lookups, by tier and outcome.";
    for (tier, hits, misses) in [
        ("transformer", stats.hits, stats.misses),
        ("verdict", stats.verdict_hits, stats.verdict_misses),
        ("disk", stats.disk_hits, stats.disk_misses),
    ] {
        reg.counter(LOOKUPS, LOOKUPS_HELP, &[("tier", tier), ("outcome", "hit")])
            .record_total(hits);
        reg.counter(
            LOOKUPS,
            LOOKUPS_HELP,
            &[("tier", tier), ("outcome", "miss")],
        )
        .record_total(misses);
    }
    const ENTRIES: &str = "nqpv_cache_entries";
    const ENTRIES_HELP: &str = "Entries currently stored, by cache tier.";
    for (tier, entries) in [
        ("transformer", stats.entries),
        ("verdict", stats.verdict_entries),
        ("disk", stats.disk_entries),
    ] {
        reg.gauge(ENTRIES, ENTRIES_HELP, &[("tier", tier)])
            .set(entries as i64);
    }
    reg.gauge(
        "nqpv_cache_disk_bytes",
        "Bytes currently in the persistent verdict store.",
        &[],
    )
    .set(stats.disk_bytes as i64);
    reg.counter(
        "nqpv_disk_quarantined_total",
        "Corrupt verdict records moved to the quarantine directory.",
        &[],
    )
    .record_total(stats.disk_quarantined);
    reg.counter(
        "nqpv_disk_evicted_total",
        "Verdict records evicted by the disk-store size budget.",
        &[],
    )
    .record_total(stats.disk_evicted);
}

impl TransformerCache for MemoCache {
    fn get(&self, key: CacheKey) -> Option<Annotated> {
        let found = self
            .map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lru
            .get(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn put(&self, key: CacheKey, value: &Annotated) {
        let mut t = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if t.doorkeeper.admit(key) {
            t.lru.put(key, value.clone());
        }
    }

    fn get_verdict(&self, key: CacheKey) -> Option<Verdict> {
        // Deterministic chaos: solver_delay models a wedged solver by
        // stalling the lookup path; job deadlines must still cut the job
        // off at the next statement/obligation boundary.
        if let Some(stall) = crate::faults::global().delay(crate::faults::SOLVER_DELAY) {
            std::thread::sleep(stall);
        }
        let found = self
            .verdicts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key);
        if let Some(v) = found {
            self.verdict_hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        self.verdict_misses.fetch_add(1, Ordering::Relaxed);
        // Fall through to the persistent backend; promote hits into the
        // memory tier so the file is read once per distinct key per run.
        let disk = self.disk.as_ref()?;
        let v = disk.get(key)?;
        self.verdicts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .put(key, v.clone());
        Some(v)
    }

    fn put_verdict(&self, key: CacheKey, verdict: &Verdict) {
        self.verdicts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .put(key, verdict.clone());
        // Write-through: only freshly computed verdicts reach this path
        // (disk promotions insert into the tier directly above), so every
        // record on disk was solved exactly once somewhere.
        if let Some(disk) = &self.disk {
            disk.put(key, verdict);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nqpv_core::{backward_with_cache, verify_proof_term_with, Assertion, VcOptions};
    use nqpv_lang::{parse_proof_body, parse_stmt};
    use nqpv_quantum::{OperatorLibrary, Register};
    use std::collections::HashMap;

    /// The annotated pass of a small composite program, computed without
    /// a cache: a value to offer the transformer tier directly.
    fn sample_annotated() -> nqpv_core::Annotated {
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q"]).unwrap();
        let stmt = parse_stmt("( [q] *= H; [q] *= X # skip )").unwrap();
        let post = Assertion::from_ops(2, vec![nqpv_quantum::ket("0").projector()]).unwrap();
        let none = HashMap::new();
        backward_with_cache(&stmt, &post, &lib, &reg, VcOptions::default(), &none, None).unwrap()
    }

    fn assert_same_bits(a: &nqpv_core::Annotated, b: &nqpv_core::Annotated) {
        assert_eq!(a.pre.ops().len(), b.pre.ops().len());
        for (x, y) in a.pre.ops().iter().zip(b.pre.ops()) {
            assert!(x.approx_eq(y.dense(), 0.0), "cached pre must be exact");
        }
    }

    #[test]
    fn first_put_is_declined_and_second_is_admitted() {
        let cache = MemoCache::new();
        let ann = sample_annotated();
        const KEY: CacheKey = 0x5eed_0000_0000_0000_0000_0000_0000_0001;
        cache.put(KEY, &ann);
        assert_eq!(cache.stats().entries, 0, "first sighting stores nothing");
        assert!(cache.get(KEY).is_none());
        cache.put(KEY, &ann);
        assert_eq!(cache.stats().entries, 1, "second sighting is admitted");
        let hit = cache.get(KEY).expect("admitted entry must hit");
        assert_same_bits(&ann, &hit);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
    }

    #[test]
    fn a_flood_of_distinct_keys_stores_nothing() {
        let cache = MemoCache::new();
        let ann = sample_annotated();
        // An odd multiplier is a bijection on u128, so the keys are
        // distinct (and nonzero for i ≥ 1), spread like content hashes.
        for i in 1..=(4 * DOORKEEPER_SLOTS) as u128 {
            cache.put(
                i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835),
                &ann,
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 0, "{stats:?}");
        assert_eq!(stats.evictions, 0, "{stats:?}");
    }

    #[test]
    fn repeated_backward_passes_hit_the_cache() {
        let cache = MemoCache::new();
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q"]).unwrap();
        let stmt = parse_stmt("( [q] *= H; [q] *= H # skip )").unwrap();
        let post = Assertion::identity(2);
        let opts = VcOptions::default();
        let none = HashMap::new();
        let pass =
            || backward_with_cache(&stmt, &post, &lib, &reg, opts, &none, Some(&cache)).unwrap();
        let a = pass();
        let first = cache.stats();
        assert_eq!(first.hits, 0);
        assert!(first.misses > 0, "composite nodes must be looked up");
        assert_eq!(first.entries, 0, "first sighting stores nothing: {first:?}");
        let b = pass();
        let second = cache.stats();
        assert_eq!(second.hits, 0, "nothing was stored to hit: {second:?}");
        assert!(second.entries > 0, "second sighting must admit: {second:?}");
        let c = pass();
        let third = cache.stats();
        assert!(third.hits >= 1, "identical pass must hit: {third:?}");
        assert_eq!(third.entries, second.entries, "{third:?}");
        // Cached and computed results are bit-identical.
        assert_same_bits(&a, &b);
        assert_same_bits(&a, &c);
    }

    #[test]
    fn different_posts_do_not_collide() {
        let cache = MemoCache::new();
        let lib = OperatorLibrary::with_builtins();
        let reg = Register::new(&["q"]).unwrap();
        let stmt = parse_stmt("( skip # [q] *= X )").unwrap();
        let opts = VcOptions::default();
        let none = HashMap::new();
        let p0 = Assertion::from_ops(2, vec![nqpv_quantum::ket("0").projector()]).unwrap();
        let pp = Assertion::from_ops(2, vec![nqpv_quantum::ket("+").projector()]).unwrap();
        // Each pass runs twice so that the doorkeeper admits its result.
        let pass = |post: &Assertion| {
            backward_with_cache(&stmt, post, &lib, &reg, opts, &none, Some(&cache)).unwrap()
        };
        let a = pass(&p0);
        let b = pass(&pp);
        pass(&p0);
        pass(&pp);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "distinct posts must not collide: {stats:?}");
        assert_eq!(stats.entries, 2);
        // xp.(skip # X).P0 = {P0, P1}; xp.(skip # X).Pp = {Pp} (X-invariant).
        assert!(
            !a.pre.approx_set_eq(&b.pre, 1e-9),
            "distinct postconditions must produce distinct results"
        );
    }

    #[test]
    fn repeated_le_inf_queries_hit_the_verdict_cache() {
        // A proof with both a loop invariant (While-rule ⊑_inf side
        // condition) and a final precondition comparison: verifying the
        // same term twice must answer every second-round ⊑_inf query from
        // the verdict tier, without a single solver call.
        let cache = MemoCache::new();
        let lib = OperatorLibrary::with_builtins();
        let term = parse_proof_body(
            &["q"],
            "{ I[q] }; [q] := 0; [q] *= H; { inv : I[q] }; \
             while M01[q] do [q] *= H end; { P0[q] }",
        )
        .unwrap();
        let rankings = HashMap::new();
        let first =
            verify_proof_term_with(&term, &lib, VcOptions::default(), &rankings, Some(&cache))
                .unwrap();
        assert!(first.status.verified());
        let after_first = cache.stats();
        assert!(
            after_first.verdict_entries >= 1,
            "⊑_inf verdicts must be stored: {after_first:?}"
        );
        let second =
            verify_proof_term_with(&term, &lib, VcOptions::default(), &rankings, Some(&cache))
                .unwrap();
        assert!(second.status.verified());
        let after_second = cache.stats();
        // Every second-round ⊑_inf query is answered from the verdict tier
        // (the transformer tier stored nothing on the first sighting, so
        // the loop's side condition and the final comparison both re-run):
        // hits grow, misses and entries do not.
        assert!(
            after_second.verdict_hits > after_first.verdict_hits,
            "second pass must hit the verdict cache: {after_second:?}"
        );
        assert_eq!(after_second.verdict_entries, after_first.verdict_entries);
        assert_eq!(after_second.verdict_misses, after_first.verdict_misses);
    }

    #[test]
    fn verdict_keys_separate_distinct_queries() {
        let cache = MemoCache::new();
        let lib = OperatorLibrary::with_builtins();
        let rankings = HashMap::new();
        for src in [
            "{ Pp[q] }; [q] *= H; { P0[q] }",
            "{ P0[q] }; [q] *= H; { Pp[q] }",
        ] {
            let term = parse_proof_body(&["q"], src).unwrap();
            verify_proof_term_with(&term, &lib, VcOptions::default(), &rankings, Some(&cache))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.verdict_hits, 0, "distinct queries must not collide");
        assert_eq!(stats.verdict_entries, 2);
    }

    #[test]
    fn lru_bound_evicts_oldest_and_counts() {
        let cache = MemoCache::with_capacity(2);
        let lib = OperatorLibrary::with_builtins();
        let rankings = HashMap::new();
        // Three distinct final comparisons: the verdict tier overflows a
        // capacity of 2 and must evict exactly one entry.
        for src in [
            "{ Pp[q] }; [q] *= H; { P0[q] }",
            "{ P0[q] }; [q] *= H; { Pp[q] }",
            "{ Pm[q] }; [q] *= H; { P1[q] }",
        ] {
            let term = parse_proof_body(&["q"], src).unwrap();
            verify_proof_term_with(&term, &lib, VcOptions::default(), &rankings, Some(&cache))
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.verdict_entries, 2, "{stats:?}");
        assert_eq!(stats.verdict_evictions, 1, "{stats:?}");
        // The evicted (oldest) query re-runs as a miss and re-enters.
        let term = parse_proof_body(&["q"], "{ Pp[q] }; [q] *= H; { P0[q] }").unwrap();
        verify_proof_term_with(&term, &lib, VcOptions::default(), &rankings, Some(&cache)).unwrap();
        let stats2 = cache.stats();
        assert!(stats2.verdict_evictions >= 2, "{stats2:?}");
        assert_eq!(stats2.verdict_entries, 2);
    }

    #[test]
    fn lru_recency_is_updated_on_get() {
        // Direct tier exercise: touch entry A, insert C into a cap-2 tier
        // holding {A, B} — B (least recently used) must be the victim.
        let mut tier: Tier<u32> = Tier::new(Some(2));
        tier.put(1, 10);
        tier.put(2, 20);
        assert_eq!(tier.get(1), Some(10)); // A is now most recent
        tier.put(3, 30);
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.get(2), None, "LRU victim must be B");
        assert_eq!(tier.get(1), Some(10));
        assert_eq!(tier.get(3), Some(30));
        assert_eq!(tier.evictions, 1);
        // Overwriting an existing key neither grows nor evicts.
        tier.put(3, 31);
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.evictions, 1);
        assert_eq!(tier.get(3), Some(31));
    }

    #[test]
    fn disk_layer_survives_a_restart_and_promotes() {
        use crate::disk::DiskCache;
        use std::sync::Arc;

        let dir = std::env::temp_dir().join("nqpv_engine_cache_layering");
        let _ = std::fs::remove_dir_all(&dir);
        let lib = OperatorLibrary::with_builtins();
        let rankings = HashMap::new();
        let term = parse_proof_body(&["q"], "{ Pp[q] }; [q] *= H; { P0[q] }").unwrap();

        // Run 1: cold memory, cold disk — the verdict is solved once and
        // written through.
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let cache = MemoCache::layered(None, Some(disk));
        verify_proof_term_with(&term, &lib, VcOptions::default(), &rankings, Some(&cache)).unwrap();
        let s1 = cache.stats();
        assert!(s1.disk_writes >= 1, "{s1:?}");
        assert_eq!(s1.disk_hits, 0, "{s1:?}");

        // Run 2 (a "restart"): fresh MemoCache over the same directory —
        // the verdict comes from disk, not the solver.
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let cache = MemoCache::layered(None, Some(disk));
        verify_proof_term_with(&term, &lib, VcOptions::default(), &rankings, Some(&cache)).unwrap();
        let s2 = cache.stats();
        assert!(s2.disk_hits >= 1, "restart must hit disk: {s2:?}");
        assert_eq!(s2.disk_writes, 0, "disk hits must not rewrite: {s2:?}");

        // Within the same run, a repeat query is a *memory* hit: the
        // promotion means each distinct key pays one file read.
        verify_proof_term_with(&term, &lib, VcOptions::default(), &rankings, Some(&cache)).unwrap();
        let s3 = cache.stats();
        assert_eq!(s3.disk_hits, s2.disk_hits, "{s3:?}");
        assert!(s3.verdict_hits > s2.verdict_hits, "{s3:?}");
    }

    #[test]
    fn lru_tiers_survive_concurrent_hammering() {
        // Satellite: many threads hammer both tiers of a tiny-capacity
        // cache; the run must not deadlock or panic, and the counters
        // must stay consistent with what the threads observed.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        const THREADS: usize = 8;
        const OPS: usize = 400;
        const CAP: usize = 4;
        // Transformer-tier traffic rides along on every 7th operation.
        const EVERY: usize = 7;

        let cache = Arc::new(MemoCache::with_capacity(CAP));
        let ann = sample_annotated();
        let seen_hits = Arc::new(AtomicU64::new(0));
        let seen_misses = Arc::new(AtomicU64::new(0));
        let seen_t_hits = Arc::new(AtomicU64::new(0));
        let seen_t_misses = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = Arc::clone(&cache);
                let ann = ann.clone();
                let seen_hits = Arc::clone(&seen_hits);
                let seen_misses = Arc::clone(&seen_misses);
                let seen_t_hits = Arc::clone(&seen_t_hits);
                let seen_t_misses = Arc::clone(&seen_t_misses);
                scope.spawn(move || {
                    // Deterministic per-thread key walk over a keyspace
                    // (3·CAP) wide enough to force constant eviction.
                    let mut x = (t as u64 + 1) * 0x9e37_79b9;
                    for i in 0..OPS {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let key = (x >> 33) % (3 * CAP as u64);
                        let key = key as CacheKey;
                        match cache.get_verdict(key) {
                            Some(_) => seen_hits.fetch_add(1, Ordering::Relaxed),
                            None => {
                                cache.put_verdict(key, &Verdict::Holds);
                                seen_misses.fetch_add(1, Ordering::Relaxed)
                            }
                        };
                        // Interleave transformer-tier traffic through the
                        // *other* lock to exercise both mutexes at once:
                        // miss-then-put, as the backward pass does, with
                        // the doorkeeper deciding which puts are stored.
                        if i % EVERY == 0 {
                            match cache.get(key) {
                                Some(_) => seen_t_hits.fetch_add(1, Ordering::Relaxed),
                                None => {
                                    cache.put(key, &ann);
                                    let entries = cache.stats().entries;
                                    assert!(entries <= CAP as u64, "tier over cap: {entries}");
                                    seen_t_misses.fetch_add(1, Ordering::Relaxed)
                                }
                            };
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        // Exactly THREADS·OPS verdict lookups happened, each a hit or a
        // miss; the tier never exceeds its bound; eviction accounting
        // balances insertions against residents.
        assert_eq!(
            stats.verdict_hits + stats.verdict_misses,
            (THREADS * OPS) as u64,
            "{stats:?}"
        );
        assert_eq!(stats.verdict_hits, seen_hits.load(Ordering::Relaxed));
        assert_eq!(stats.verdict_misses, seen_misses.load(Ordering::Relaxed));
        assert!(stats.verdict_entries <= CAP as u64, "{stats:?}");
        assert!(
            stats.verdict_entries + stats.verdict_evictions <= stats.verdict_misses,
            "every resident or evicted entry came from a miss-then-put: {stats:?}"
        );
        assert!(stats.verdict_evictions > 0, "keyspace must overflow CAP");
        // The same accounting holds for the transformer tier. Its 12 keys
        // fall in distinct doorkeeper slots, so any key put twice is
        // admitted, and with more puts than keys some key must be.
        assert_eq!(
            stats.hits + stats.misses,
            (THREADS * OPS.div_ceil(EVERY)) as u64,
            "{stats:?}"
        );
        assert_eq!(stats.hits, seen_t_hits.load(Ordering::Relaxed));
        assert_eq!(stats.misses, seen_t_misses.load(Ordering::Relaxed));
        assert!(stats.entries <= CAP as u64, "{stats:?}");
        assert!(
            stats.entries + stats.evictions <= stats.misses,
            "every resident or evicted entry came from a miss-then-put: {stats:?}"
        );
        assert!(stats.entries + stats.evictions > 0, "{stats:?}");
    }

    #[test]
    fn hit_rate_arithmetic() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            evictions: 0,
            verdict_hits: 1,
            verdict_misses: 3,
            verdict_entries: 2,
            verdict_evictions: 4,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.verdict_hit_rate() - 0.25).abs() < 1e-12);
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
        assert_eq!(empty.verdict_hit_rate(), 0.0);
    }
}
