//! The split-evaluation engine shared by every partitioning search.
//!
//! Evaluating candidate splits dominates the `QUANTIFY` hot path: the naive
//! formulation re-derives `bin_of(score)` for every row of every histogram,
//! materializes a `Vec<u32>` row-set per candidate child just to histogram
//! it, recomputes the winning split that `mostUnfair` already scored, and
//! re-evaluates the same partition-pair EMDs at every recursion level.
//! [`SplitEngine`] removes all four costs while remaining *bit-identical*
//! to the naive evaluation order (asserted by the `engine_equivalence`
//! property suite):
//!
//! 1. **Binned-score cache** — [`RankingSpace::bin_codes`] is computed once
//!    per run, so building a histogram over a row subset is pure counting.
//! 2. **One-pass counting splits** — [`SplitEngine::best_split`] scores
//!    every candidate attribute of a node with a single scan over the
//!    node's rows, accumulating `counts[value][bin]` directly; candidate
//!    children get histograms without child row vectors ever materializing
//!    (rows materialize only for the winning attribute, and only once the
//!    split is accepted).
//! 3. **Winner cache** — the winning attribute and interned handles to its
//!    child histograms are handed back in a [`CandidateSplit`]; the
//!    histograms live on in the engine's arenas and their pairwise
//!    distances in the memo, so the recursion's follow-up evaluations
//!    reuse what `mostUnfair` already built.
//! 4. **EMD memo table** — histogram cache entries are keyed by partition
//!    *path* (the conjunction of attribute constraints uniquely identifies
//!    a partition's rows within one space) and each distinct histogram
//!    *content* is interned to a small id; distances are memoized by id
//!    pair. Content keying subsumes path identity — a node's histogram,
//!    hence its distance to any fixed sibling, is identical across
//!    recursion levels — and additionally collapses the huge pairwise
//!    matrices over fine partitionings, whose small partitions repeat the
//!    same few score distributions constantly.
//!
//! The core is *data-oriented*: every cache is a flat, preallocated arena
//! indexed by small `u32` ids rather than a pointer-heavy map of owned
//! keys.
//!
//! * Partition paths live in a `PathTrie` — parallel `Vec`s of nodes and
//!   intrusive edge lists — so a path lookup is a walk over packed
//!   `(attr, code)` words instead of hashing (and, on insert, cloning) a
//!   `Vec<PathStep>` key.
//! * Histogram contents live in a `ContentTable`: one flat `counts` row
//!   per content id (stride = bins) plus a lazily-filled, equally flat
//!   normalized-mass arena. No per-id `Histogram` or boxed mass vector is
//!   allocated on the hot path; `Histogram` values materialize only for
//!   the transport metric and the public [`SplitEngine::histogram`].
//! * The EMD memo packs the unordered content-id pair into one `u64` key
//!   over an open-addressed, linear-probing `FlatMemo` (Fibonacci
//!   hashing) — the single hottest table of a search, probed once per
//!   partition pair per recursion level.
//! * All transient buffers (distance vectors, batch dedup tables, split
//!   counting grids) persist in a `Scratch` pool and are reused across
//!   calls, so steady-state evaluation does not allocate.
//!
//! One aggregation (a node's pairwise or cross distances) is resolved one
//! of two ways: small batches walk the memo pair by pair; large ones whose
//! leaves repeat contents (`DEDUP_MIN_PAIRS`) deduplicate first and
//! resolve each *distinct* pair once. Both touch the
//! same memo entries and fold every miss the same way, so results and
//! every counter but `emd_cache_hits` and `pairwise_batches` are identical
//! whichever path runs.
//!
//! The engine mirrors [`FairnessCriterion`]'s aggregation orders exactly
//! (pairwise `(0,1), (0,2), …` and children-outer cross products), so
//! floating-point accumulation is unchanged and search results do not move
//! by a single bit.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::cancel::{BudgetChecker, CancelReason, RunBudget};
use crate::emd::EmdBackendKind;
use crate::error::{CoreError, Result};
use crate::fairness::FairnessCriterion;
use crate::fault;
use crate::histogram::{Histogram, HistogramSpec};
use crate::partition::{Partition, PathStep};
use crate::quantify::SearchStats;
use crate::space::RankingSpace;

/// Multiply-rotate hasher for the engine's internal maps. The keys are
/// small, trusted, and hashed millions of times per search, where SipHash's
/// DoS resistance costs more than the EMD it saves; this is the FxHash
/// folding scheme over 8-byte chunks.
#[derive(Default)]
struct EngineHasher(u64);

impl EngineHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for EngineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

type EngineMap<K, V> = HashMap<K, V, BuildHasherDefault<EngineHasher>>;

// ---- aggregation path ----------------------------------------------------

/// Leaf-pair count from which a closed-form (`1d`) aggregation may be
/// resolved through the deduplicated distinct×distinct table instead of
/// the per-pair memo walk. Deduplication pays a slot-mapping pass and a
/// `D × D` table per batch, which only a large batch with repeated contents
/// earns back. Measured on 10k-row spaces (release, 2 cores): fine
/// 8-attribute partitionings repeat contents heavily (leaf batches of
/// 500–5,000 holding 90–1,250 distinct contents), and deduplicating them
/// makes QUANTIFY ~2.5× faster; the `biased` preset's large batches (final
/// partitionings of up to ~360 leaves) are nearly all distinct, and there
/// the table costs ~12% over the walk — hence the repetition test in
/// [`SplitEngine::dedups`]. With that test in place, thresholds from 16 to
/// 2,048 time within noise on both shapes; 128 keeps the extra
/// distinct-count pass off the small sibling sets that make up most calls.
const DEDUP_MIN_PAIRS: usize = 128;

/// How an engine resolves closed-form aggregations. Always
/// [`Aggregation::Auto`] in production; tests force either path to pin
/// their equivalence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) enum Aggregation {
    /// Deduplicate large, repetitive batches ([`SplitEngine::dedups`]).
    #[default]
    Auto,
    /// Always walk the memo pair by pair.
    PerPair,
    /// Always deduplicate.
    Dedup,
}

/// "No entry" marker for the trie's `u32` indices.
const NONE32: u32 = u32::MAX;

/// Packs one path constraint into a single trie-edge word.
#[inline]
fn pack_step(attr: usize, code: u32) -> u64 {
    ((attr as u64) << 32) | code as u64
}

/// Path → content-id cache as a trie over packed `(attr, code)` edges,
/// stored as parallel arrays: per node a head into an intrusive edge list
/// and the interned content id (or [`NONE32`]); per edge the packed step,
/// the child node, and the next edge of the same parent. Node 0 is the
/// root (the empty path). Lookups walk words instead of hashing a
/// `Vec<PathStep>`, and inserting a child never clones the parent path.
///
/// The trie also counts, per content id, how many nodes hold it. Every
/// node assignment goes through [`Self::set_content`], so the count is
/// exact; a content whose count drops to zero is queued in `orphans` for
/// [`EngineParts::free_orphans`].
#[derive(Debug)]
struct PathTrie {
    first_edge: Vec<u32>,
    content: Vec<u32>,
    edge_step: Vec<u64>,
    edge_child: Vec<u32>,
    edge_next: Vec<u32>,
    /// `refs[id]`: nodes whose content is `id` (ids past the end: 0).
    refs: Vec<u32>,
    /// Contents whose count reached zero since the last
    /// [`EngineParts::free_orphans`]; a later assignment may revive one,
    /// and an id may appear more than once.
    orphans: Vec<u32>,
}

impl PathTrie {
    fn new() -> Self {
        PathTrie {
            first_edge: vec![NONE32],
            content: vec![NONE32],
            edge_step: Vec::new(),
            edge_child: Vec::new(),
            edge_next: Vec::new(),
            refs: Vec::new(),
            orphans: Vec::new(),
        }
    }

    /// The node for `path`, creating any missing suffix.
    fn node_of(&mut self, path: &[PathStep]) -> u32 {
        let mut node = 0u32;
        for step in path {
            node = self.child_node(node, pack_step(step.attr, step.code));
        }
        node
    }

    /// The child of `node` along `step`, created on first use.
    fn child_node(&mut self, node: u32, step: u64) -> u32 {
        let mut e = self.first_edge[node as usize];
        while e != NONE32 {
            let ei = e as usize;
            if self.edge_step[ei] == step {
                return self.edge_child[ei];
            }
            e = self.edge_next[ei];
        }
        let child = self.first_edge.len() as u32;
        self.first_edge.push(NONE32);
        self.content.push(NONE32);
        let edge = self.edge_step.len() as u32;
        self.edge_step.push(step);
        self.edge_child.push(child);
        self.edge_next.push(self.first_edge[node as usize]);
        self.first_edge[node as usize] = edge;
        child
    }

    #[inline]
    fn content(&self, node: u32) -> Option<u32> {
        let id = self.content[node as usize];
        (id != NONE32).then_some(id)
    }

    /// Points `node` at content `id`, keeping the per-content node counts
    /// exact. Searches only fill empty nodes; [`EngineParts::apply_event`]
    /// replaces contents, and the replaced id becomes an orphan candidate
    /// when no other node holds it.
    #[inline]
    fn set_content(&mut self, node: u32, id: u32) {
        let i = id as usize;
        if i >= self.refs.len() {
            self.refs.resize(i + 1, 0);
        }
        self.refs[i] += 1;
        let old = std::mem::replace(&mut self.content[node as usize], id);
        if old != NONE32 {
            let count = &mut self.refs[old as usize];
            *count -= 1;
            if *count == 0 {
                self.orphans.push(old);
            }
        }
    }

    /// Nodes currently holding content `id`.
    #[inline]
    fn refs(&self, id: u32) -> u32 {
        self.refs.get(id as usize).copied().unwrap_or(0)
    }

    /// The node for `path` without creating anything — `None` if some step
    /// was never inserted.
    #[cfg(test)]
    fn lookup(&self, path: &[PathStep]) -> Option<u32> {
        let mut node = 0u32;
        for step in path {
            node = self.lookup_child(node, pack_step(step.attr, step.code))?;
        }
        Some(node)
    }

    /// The child of `node` along `step` without creating it.
    fn lookup_child(&self, node: u32, step: u64) -> Option<u32> {
        let mut e = self.first_edge[node as usize];
        while e != NONE32 {
            let ei = e as usize;
            if self.edge_step[ei] == step {
                return Some(self.edge_child[ei]);
            }
            e = self.edge_next[ei];
        }
        None
    }

    /// The cached content of `node`'s child along `step`, if both the edge
    /// and its content exist.
    fn child_content(&self, node: u32, step: u64) -> Option<u32> {
        self.content(self.lookup_child(node, step)?)
    }

    /// Visits every `(packed step, child node)` edge of `node`, in the
    /// list's (reverse-insertion) order.
    fn for_each_edge<F: FnMut(u64, u32)>(&self, node: u32, mut f: F) {
        let mut e = self.first_edge[node as usize];
        while e != NONE32 {
            let ei = e as usize;
            f(self.edge_step[ei], self.edge_child[ei]);
            e = self.edge_next[ei];
        }
    }

    #[cfg(test)]
    fn num_nodes(&self) -> usize {
        self.first_edge.len()
    }
}

/// The interned-histogram arena: one flat `counts` row per content id
/// (stride = bins), a parallel total, and a lazily-filled flat
/// normalized-mass arena — the hoisted per-histogram work of the
/// closed-form fold. `Histogram` values are materialized only on demand
/// (transport metric, public histogram lookups); the hot path works on
/// the raw rows.
///
/// Equal rows are found through an FxHash of the row: `heads` maps a hash
/// to the newest id with it, and older ids sharing the hash chain through
/// `next` (collisions are resolved by comparing the actual rows in the
/// arena), so indexing a content allocates nothing per id.
#[derive(Debug)]
struct ContentTable {
    spec: HistogramSpec,
    bins: usize,
    /// `counts[id * bins .. (id + 1) * bins]` is content `id`'s row.
    counts: Vec<u64>,
    /// Total count per content id.
    totals: Vec<u64>,
    /// `masses[id * bins ..]`, valid once `mass_ready[id]`.
    masses: Vec<f64>,
    mass_ready: Vec<bool>,
    /// Lazily materialized canonical `Histogram` per id.
    hists: Vec<Option<Histogram>>,
    /// Generation tag per id: the [`Self::stamp`] in force when the id was
    /// interned (or last confirmed by a mutation / reuse count). Lets an
    /// incremental run count how much of an earlier generation's cache it
    /// actually consulted. All zeros for from-scratch engines.
    gen: Vec<u32>,
    /// Tag applied to newly interned contents.
    stamp: u32,
    /// Row hash → the newest id with that hash.
    heads: EngineMap<u64, u32>,
    /// `next[id]`: the next id in `id`'s hash chain, or [`NONE32`].
    next: Vec<u32>,
    /// Slots of released contents, reused by [`Self::intern`] before the
    /// arenas grow. Release unchains a slot, so `find` never returns one.
    free: Vec<u32>,
}

impl ContentTable {
    fn new(spec: HistogramSpec) -> Self {
        ContentTable {
            bins: spec.bins(),
            spec,
            counts: Vec::new(),
            totals: Vec::new(),
            masses: Vec::new(),
            mass_ready: Vec::new(),
            hists: Vec::new(),
            gen: Vec::new(),
            stamp: 0,
            heads: EngineMap::default(),
            next: Vec::new(),
            free: Vec::new(),
        }
    }

    fn hash_row(row: &[u64]) -> u64 {
        let mut h = EngineHasher::default();
        for &w in row {
            h.write_u64(w);
        }
        h.finish()
    }

    fn row(&self, id: u32) -> &[u64] {
        let base = id as usize * self.bins;
        &self.counts[base..base + self.bins]
    }

    fn find(&self, row: &[u64]) -> Option<u32> {
        let mut id = *self.heads.get(&Self::hash_row(row))?;
        while self.row(id) != row {
            id = self.next[id as usize];
            if id == NONE32 {
                return None;
            }
        }
        Some(id)
    }

    /// Interns a counts row, returning a small id such that equal rows
    /// always map to the same id. Hits allocate nothing; a miss reuses a
    /// released slot, or appends one row to each arena.
    fn intern(&mut self, row: &[u64]) -> u32 {
        debug_assert_eq!(row.len(), self.bins, "one slot per bin");
        if let Some(id) = self.find(row) {
            return id;
        }
        let total = row.iter().sum();
        let id = match self.free.pop() {
            Some(id) => {
                let (i, base) = (id as usize, id as usize * self.bins);
                self.counts[base..base + self.bins].copy_from_slice(row);
                self.masses[base..base + self.bins].fill(0.0);
                self.totals[i] = total;
                self.mass_ready[i] = false;
                self.gen[i] = self.stamp;
                id
            }
            None => {
                let id = self.totals.len() as u32;
                self.counts.extend_from_slice(row);
                self.totals.push(total);
                self.masses.resize(self.masses.len() + self.bins, 0.0);
                self.mass_ready.push(false);
                self.hists.push(None);
                self.gen.push(self.stamp);
                id
            }
        };
        if self.next.len() <= id as usize {
            self.next.resize(id as usize + 1, NONE32);
        }
        self.next[id as usize] = self.heads.insert(Self::hash_row(row), id).unwrap_or(NONE32);
        id
    }

    /// Arena slots, free ones included.
    #[cfg(test)]
    fn slots(&self) -> usize {
        self.totals.len()
    }

    /// Releases content `id`: unindexes it, drops its materialized
    /// histogram, and queues its slot for reuse.
    fn release(&mut self, id: u32) {
        let h = Self::hash_row(self.row(id));
        let next = &mut self.next;
        let after = next[id as usize];
        if let Entry::Occupied(mut head) = self.heads.entry(h) {
            if *head.get() == id {
                if after == NONE32 {
                    head.remove();
                } else {
                    head.insert(after);
                }
            } else {
                let mut prev = *head.get();
                while next[prev as usize] != id {
                    prev = next[prev as usize];
                }
                next[prev as usize] = after;
            }
        }
        self.hists[id as usize] = None;
        self.free.push(id);
    }

    /// Overwrites the id's generation tag (mutation layers stamp adjusted
    /// or reconfirmed contents with the current generation).
    #[inline]
    fn mark_generation(&mut self, id: u32, generation: u32) {
        self.gen[id as usize] = generation;
    }

    #[inline]
    fn is_empty(&self, id: u32) -> bool {
        self.totals[id as usize] == 0
    }

    /// Fills the id's normalized-mass row on first use (bit-identical to
    /// [`Histogram::mass`]: `count / total` per bin).
    fn ensure_mass(&mut self, id: u32) {
        let i = id as usize;
        if self.mass_ready[i] {
            return;
        }
        let total = self.totals[i];
        let base = i * self.bins;
        if total != 0 {
            let t = total as f64;
            for bin in 0..self.bins {
                self.masses[base + bin] = self.counts[base + bin] as f64 / t;
            }
        }
        self.mass_ready[i] = true;
    }

    #[inline]
    fn mass(&self, id: u32) -> &[f64] {
        debug_assert!(self.mass_ready[id as usize], "ensure_mass first");
        let base = id as usize * self.bins;
        &self.masses[base..base + self.bins]
    }

    /// Materializes the id's canonical `Histogram` on first use.
    fn ensure_hist(&mut self, id: u32) {
        let i = id as usize;
        if self.hists[i].is_none() {
            let row = self.counts[i * self.bins..(i + 1) * self.bins].to_vec();
            self.hists[i] = Some(Histogram::from_counts(self.spec, row));
        }
    }

    #[inline]
    fn hist(&self, id: u32) -> &Histogram {
        self.hists[id as usize].as_ref().expect("ensure_hist first")
    }

    /// An owned `Histogram` of the id's content.
    fn hist_owned(&self, id: u32) -> Histogram {
        Histogram::from_counts(self.spec, self.row(id).to_vec())
    }
}

/// Open-addressed, linear-probing memo from a packed unordered id pair to
/// a distance. Fibonacci hashing over a power-of-two table, grown at 50%
/// load — the hottest table of a search, where even an FxHash `HashMap`'s
/// control-byte probing and tuple hashing are measurable. Deletion shifts
/// the following probe run back (no tombstones), so lookups never slow
/// down as a delta lineage churns.
#[derive(Debug)]
struct FlatMemo {
    /// Slot keys; [`u64::MAX`] marks an empty slot (never a real key:
    /// content ids stay far below `u32::MAX`).
    keys: Vec<u64>,
    vals: Vec<f64>,
    len: usize,
    /// Per-content partner lists, kept only for delta lineages (the one
    /// place contents are ever freed): plain searches skip the bookkeeping.
    partners: Option<PartnerLists>,
}

/// Which memo entries touch each content id, so [`FlatMemo::forget`]
/// deletes a freed content's entries without scanning the table.
#[derive(Debug, Default)]
struct PartnerLists {
    /// `lists[id]`: the other endpoint of every entry inserted with `id`
    /// since `id`'s slot was last freed. Freeing an id deletes its entries
    /// but leaves its copies in its partners' lists; those are stale from
    /// then on and are shed before a list would grow.
    lists: Vec<Vec<Partner>>,
    /// `incarnation[id]`: how many times `id`'s slot has been freed.
    incarnation: Vec<u32>,
}

/// One listed memo partner. It is current — its entry is in the memo —
/// while `incarnation` matches the partner slot's: an entry is deleted
/// only when one of its endpoints is freed, and freeing bumps the slot's
/// incarnation.
#[derive(Debug, Clone, Copy)]
struct Partner {
    id: u32,
    incarnation: u32,
}

impl PartnerLists {
    fn ensure(&mut self, id: u32) {
        let n = id as usize + 1;
        if self.lists.len() < n {
            self.lists.resize_with(n, Vec::new);
            self.incarnation.resize(n, 0);
        }
    }

    #[inline]
    fn is_current(&self, partner: Partner) -> bool {
        self.incarnation[partner.id as usize] == partner.incarnation
    }

    /// Records a newly inserted entry `(a, b)` under both endpoints.
    fn record(&mut self, a: u32, b: u32) {
        self.ensure(a.max(b));
        self.push(a, b);
        if a != b {
            self.push(b, a);
        }
    }

    fn push(&mut self, owner: u32, other: u32) {
        let incarnation = &self.incarnation;
        let list = &mut self.lists[owner as usize];
        if list.len() == list.capacity() {
            // Shed stale partners before the list grows, so a long-lived
            // content's list tracks its live entries, not its history.
            list.retain(|p| incarnation[p.id as usize] == p.incarnation);
        }
        list.push(Partner {
            id: other,
            incarnation: incarnation[other as usize],
        });
    }
}

impl FlatMemo {
    const EMPTY: u64 = u64::MAX;

    fn new() -> Self {
        FlatMemo {
            keys: vec![Self::EMPTY; 64],
            vals: vec![0.0; 64],
            len: 0,
            partners: None,
        }
    }

    /// Starts the partner lists [`Self::forget`] needs. Must precede the
    /// first insert, so every entry is listed.
    fn track_partners(&mut self) {
        debug_assert_eq!(self.len, 0, "partner tracking starts on an empty memo");
        self.partners.get_or_insert_with(PartnerLists::default);
    }

    #[inline]
    fn start(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ, keep the top log2(cap) bits.
        let shift = 64 - self.keys.len().trailing_zeros();
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
    }

    fn get(&self, key: u64) -> Option<f64> {
        self.slot_of(key).map(|i| self.vals[i])
    }

    /// The slot holding `key`, if present.
    #[inline]
    fn slot_of(&self, key: u64) -> Option<usize> {
        let mask = self.keys.len() - 1;
        let mut i = self.start(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == Self::EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, key: u64, val: f64) {
        debug_assert_ne!(key, Self::EMPTY, "key reserved for empty slots");
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.start(key);
        loop {
            let k = self.keys[i];
            if k == Self::EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                if let Some(partners) = &mut self.partners {
                    partners.record((key >> 32) as u32, key as u32);
                }
                return;
            }
            if k == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![Self::EMPTY; cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0.0; cap]);
        // Rehashing moves entries, it does not create them: the partner
        // lists stay as they are.
        let partners = self.partners.take();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != Self::EMPTY {
                self.insert(k, v);
            }
        }
        self.partners = partners;
    }

    /// Deletes `key`, shifting the rest of its probe run back so every
    /// remaining key stays reachable from its home slot. Returns whether
    /// the key was present. Only [`Self::forget`] deletes, and the slot
    /// incarnation it bumps is what marks the key's listed partners stale.
    fn remove(&mut self, key: u64) -> bool {
        let Some(mut hole) = self.slot_of(key) else {
            return false;
        };
        let mask = self.keys.len() - 1;
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            let k = self.keys[i];
            if k == Self::EMPTY {
                break;
            }
            // The entry at `i` may fill the hole only if its home slot
            // does not lie cyclically after the hole.
            if (i.wrapping_sub(self.start(k)) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[i];
                hole = i;
            }
        }
        self.keys[hole] = Self::EMPTY;
        self.len -= 1;
        true
    }

    /// Deletes every entry touching content `id` (whose slot is being
    /// freed) and returns how many there were. Cost is proportional to
    /// `id`'s partner list, not to the table.
    fn forget(&mut self, id: u32) -> usize {
        let mut partners = self
            .partners
            .take()
            .expect("partner lists are kept for every delta lineage");
        partners.ensure(id);
        let mut list = std::mem::take(&mut partners.lists[id as usize]);
        let mut dropped = 0;
        for &partner in &list {
            // A stale partner's entry went when its slot was freed.
            if partners.is_current(partner) {
                let (lo, hi) = canon(id, partner.id);
                let removed = self.remove(pack_pair(lo, hi));
                debug_assert!(removed, "a current partner's entry is memoized");
                dropped += usize::from(removed);
            }
        }
        let incarnation = &mut partners.incarnation[id as usize];
        *incarnation = incarnation.wrapping_add(1);
        list.clear();
        partners.lists[id as usize] = list;
        self.partners = Some(partners);
        dropped
    }
}

/// Canonical (unordered) orientation of a content-id pair.
#[inline]
fn canon(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Packs a canonical content-id pair into one `FlatMemo` key.
#[inline]
fn pack_pair(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Reusable buffers for the engine's transient per-call state. Taken with
/// `mem::take` for the duration of a call and put back afterwards, so
/// nested calls use disjoint fields and steady-state evaluation never
/// allocates.
#[derive(Debug, Default)]
struct Scratch {
    /// Distance vectors handed to the aggregator.
    dists: Vec<f64>,
    /// Content-id lists of the partitions under evaluation.
    ids: Vec<u32>,
    /// State of the deduplicated aggregation.
    batch: DedupBatch,
    /// `counts[value * bins + bin]` grid of `best_split`'s one-pass scan.
    counts: Vec<u64>,
    /// Rows per value code in `best_split`.
    sizes: Vec<u32>,
}

/// The buffers of one deduplicated aggregation.
#[derive(Debug, Default)]
struct DedupBatch {
    /// Distinct content ids of the batch, in first-appearance order.
    distinct: Vec<u32>,
    /// content id → slot in `distinct` ([`NONE32`] = unseen), reset after
    /// every mapping by walking `distinct`, so dedup is O(L + D) instead of
    /// a per-id linear scan.
    lookup: Vec<u32>,
    /// Slot (index into `distinct`) per leaf: a cross batch's left leaves,
    /// then its right ones.
    slots: Vec<u32>,
    /// `D × D` distance table, row-major and symmetric.
    table: Vec<f64>,
    /// Pairwise batches: which slots repeat. Cross batches: which cells
    /// have been encountered.
    have: Vec<bool>,
    /// Distinct slot pairs not served by the memo.
    missing: Vec<(u32, u32)>,
}

impl DedupBatch {
    /// Maps every leaf of `lists` to its content's slot.
    fn map_slots(&mut self, lists: &[&[u32]]) {
        self.distinct.clear();
        self.slots.clear();
        for &id in lists.iter().copied().flatten() {
            let i = id as usize;
            if i >= self.lookup.len() {
                self.lookup.resize(i + 1, NONE32);
            }
            if self.lookup[i] == NONE32 {
                self.lookup[i] = self.distinct.len() as u32;
                self.distinct.push(id);
            }
            self.slots.push(self.lookup[i]);
        }
        for &id in &self.distinct {
            self.lookup[id as usize] = NONE32;
        }
    }

    /// Readies the table, the `have` flags (`have_len` of them) and the
    /// miss list for resolving the mapped batch. The table is not cleared:
    /// every cell an aggregation reads is resolved by that batch first.
    fn prepare(&mut self, have_len: usize) {
        let d = self.distinct.len();
        if self.table.len() < d * d {
            self.table.resize(d * d, 0.0);
        }
        self.have.clear();
        self.have.resize(have_len, false);
        self.missing.clear();
    }

    /// Records the distance of slot pair `(i, j)` in both of its cells.
    fn store(&mut self, i: u32, j: u32, v: f64) {
        let d = self.distinct.len();
        self.table[i as usize * d + j as usize] = v;
        self.table[j as usize * d + i as usize] = v;
    }
}

/// Work counters the engine maintains, surfaced through `SearchStats` and
/// the beam/exhaustive outcomes so perf regressions are assertable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Histograms actually constructed (cache misses included, cache hits
    /// not).
    pub histograms_built: usize,
    /// EMD distances actually computed (memo misses).
    pub emd_calls: usize,
    /// Distance lookups served from the memo table.
    pub emd_cache_hits: usize,
    /// Pairwise/cross aggregations resolved through the deduplicated
    /// table (each touches the memo once per *distinct* histogram pair
    /// instead of once per leaf pair).
    pub pairwise_batches: usize,
    /// Distinct cached histogram contents an incremental (delta) run
    /// consulted that were built by an earlier generation — the measure of
    /// how much of the previous search survived the mutation. Always 0 for
    /// from-scratch engines (generation 0).
    pub delta_reused_histograms: usize,
    /// EMD memo entries dropped by targeted invalidation: the entries
    /// touching a content that space mutations left held by no cached
    /// path, each counted once. Seeded by the incremental subsystem;
    /// always 0 for from-scratch engines.
    pub delta_invalidated_emds: usize,
}

/// The winning candidate split of a node: the attribute, its `mostUnfair`
/// score, and interned handles to the children's histograms (in ascending
/// value-code order, the same order [`Partition::split`] produces). The
/// handles are how the winner cache works: the children's histograms live
/// in the engine's arena and their pairwise distances in the memo, so the
/// recursion's follow-up evaluations reuse both instead of recomputing.
#[derive(Debug, Clone)]
pub struct CandidateSplit {
    /// The winning attribute index.
    pub attr: usize,
    /// Aggregated pairwise distance among the children (the `mostUnfair`
    /// score of this split).
    pub value: f64,
    /// Interned content id of each child histogram (engine-internal memo
    /// handles).
    pub(crate) child_ids: Vec<u32>,
    /// The attribute value code behind each child, parallel to
    /// `child_ids`. Codes are stable across mutation batches (a patched
    /// node gets a new content id, and a freed id's slot may be reused),
    /// so they are what the incremental layer caches to reconstruct a
    /// clean node's winner without re-scoring anything.
    pub(crate) child_codes: Vec<u32>,
}

/// One attribute's recorded split summary at a trie node: the `(code,
/// rows)` pairs of the counting pass, ascending by code. Recorded by
/// [`SplitEngine::best_split`] when eval recording is on, incrementally
/// patched by membership events ([`EngineParts::apply_event`]), and read
/// back by [`SplitEngine::delta_best_split`] to reproduce the exact
/// candidate set — including the `< 2 children` and min-size skips —
/// without rescanning the node's rows.
#[derive(Debug, Clone)]
struct AttrEval {
    attr: usize,
    /// Present codes and their row counts, ascending by code. Entries may
    /// decay to zero rows (a bin emptied by churn); reconstruction skips
    /// them exactly like a fresh counting pass would.
    sizes: Vec<(u32, u32)>,
}

/// Shared evaluation context for one search run over one ranking space.
#[derive(Debug)]
pub struct SplitEngine<'a> {
    space: &'a RankingSpace,
    criterion: FairnessCriterion,
    /// `bin_codes[row]` = histogram bin of the row's score.
    bin_codes: Vec<u32>,
    /// Histogram cache: partition path → interned content id.
    paths: PathTrie,
    /// Interned histogram contents: flat counts/mass arenas plus the
    /// content → id index.
    contents: ContentTable,
    /// EMD memo keyed by the unordered (canonical) pair of content ids.
    emd_memo: FlatMemo,
    /// Per-trie-node split summaries ([`AttrEval`]), populated only when
    /// `record_evals` is on (the incremental layer's summary source).
    eval_log: Vec<Vec<AttrEval>>,
    record_evals: bool,
    /// The incremental layer's generation counter (0 for from-scratch
    /// engines): contents tagged with an older generation count as reused
    /// when consulted.
    generation: u32,
    /// Trie nodes whose partitions contain at least one row touched by a
    /// mutation since the last completed replay ([`EngineParts::apply_event`]
    /// visits exactly those). A partition whose trie node is absent from
    /// this set has a bit-unchanged subtree: histograms, summaries, and
    /// every split decision beneath it.
    dirty_paths: DirtySet,
    aggregation: Aggregation,
    stats: EngineStats,
    scratch: Scratch,
    /// Strided cooperative-cancellation poll; unlimited by default, so one
    /// predictable branch per distance evaluation on the hot path.
    checker: BudgetChecker,
}

impl<'a> SplitEngine<'a> {
    /// An engine for one run of a search under `criterion` on `space`.
    pub fn new(space: &'a RankingSpace, criterion: FairnessCriterion) -> Self {
        SplitEngine {
            bin_codes: space.bin_codes(&criterion.hist),
            space,
            contents: ContentTable::new(criterion.hist),
            criterion,
            paths: PathTrie::new(),
            emd_memo: FlatMemo::new(),
            eval_log: Vec::new(),
            record_evals: false,
            generation: 0,
            dirty_paths: DirtySet::default(),
            aggregation: Aggregation::default(),
            stats: EngineStats::default(),
            scratch: Scratch::default(),
            checker: RunBudget::unlimited().checker(),
        }
    }

    /// Attaches a cooperative cancellation budget: distance evaluations
    /// tick a strided [`BudgetChecker`], and searches poll
    /// [`Self::check_budget`] at node boundaries. A fired budget surfaces
    /// as [`CoreError::Cancelled`] carrying the engine's counters so far.
    pub fn set_run_budget(&mut self, budget: &RunBudget) {
        self.checker = budget.checker();
    }

    /// The engine's counters shaped as partial [`SearchStats`] (the
    /// search-level fields are filled in by whichever search is running).
    fn partial_stats(&self) -> SearchStats {
        SearchStats {
            histograms_built: self.stats.histograms_built,
            emd_calls: self.stats.emd_calls,
            emd_cache_hits: self.stats.emd_cache_hits,
            pairwise_batches: self.stats.pairwise_batches,
            delta_reused_histograms: self.stats.delta_reused_histograms,
            delta_invalidated_emds: self.stats.delta_invalidated_emds,
            ..SearchStats::default()
        }
    }

    fn cancelled(&self, reason: CancelReason) -> CoreError {
        CoreError::Cancelled {
            reason,
            stats: self.partial_stats(),
        }
    }

    /// Polls the budget immediately (search loops call this per node/state).
    pub fn check_budget(&self) -> Result<()> {
        self.checker
            .check_now()
            .map_err(|reason| self.cancelled(reason))
    }

    #[inline]
    fn tick(&mut self) -> Result<()> {
        match self.checker.tick() {
            Ok(()) => Ok(()),
            Err(reason) => Err(self.cancelled(reason)),
        }
    }

    #[inline]
    fn tick_n(&mut self, n: usize) -> Result<()> {
        match self.checker.tick_n(n) {
            Ok(()) => Ok(()),
            Err(reason) => Err(self.cancelled(reason)),
        }
    }

    /// Forces the aggregation path (tests pin the two paths' equivalence).
    pub(crate) fn set_aggregation(&mut self, aggregation: Aggregation) {
        self.aggregation = aggregation;
    }

    /// The space this engine evaluates over.
    pub fn space(&self) -> &'a RankingSpace {
        self.space
    }

    /// The criterion this engine evaluates under.
    pub fn criterion(&self) -> &FairnessCriterion {
        &self.criterion
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Counts `id` as a cross-generation reuse the first time an
    /// incremental run consults it: contents tagged with an older
    /// generation are restamped current so each survivor counts once.
    /// From-scratch engines stay at generation 0, where nothing predates
    /// the run, so the counter (and this branch's work) stays zero.
    #[inline]
    fn note_reuse(&mut self, id: u32) {
        if self.contents.gen[id as usize] < self.generation {
            self.contents.gen[id as usize] = self.generation;
            self.stats.delta_reused_histograms += 1;
        }
    }

    /// The partition's histogram content id, built through the binned-score
    /// cache on a trie miss. Hits walk the trie and allocate nothing.
    fn hist_id(&mut self, partition: &Partition) -> u32 {
        let node = self.paths.node_of(&partition.path);
        if let Some(id) = self.paths.content(node) {
            self.note_reuse(id);
            return id;
        }
        let bins = self.contents.bins;
        let mut counts = std::mem::take(&mut self.scratch.counts);
        counts.clear();
        counts.resize(bins, 0);
        for &row in &partition.rows {
            counts[self.bin_codes[row as usize] as usize] += 1;
        }
        self.stats.histograms_built += 1;
        let id = self.contents.intern(&counts);
        self.scratch.counts = counts;
        self.paths.set_content(node, id);
        id
    }

    /// The partition's score histogram (materialized from the arena row).
    pub fn histogram(&mut self, partition: &Partition) -> Histogram {
        let id = self.hist_id(partition);
        self.contents.hist_owned(id)
    }

    /// A memo miss resolved: the 1-D closed form folds directly from the
    /// hoisted mass arena ([`Self::fold_one_d`]), the transport solver gets
    /// lazily materialized canonical `Histogram`s.
    fn compute_pair(&mut self, lo: u32, hi: u32) -> Result<f64> {
        // The cancellation tick lives on this miss path, not in
        // `distance` itself: memo hits are pure lookups (millions per
        // search, nanoseconds each), so ticking them bought no latency
        // bound worth measuring yet cost ~8% on the hot profile. Every
        // 256 *computed* distances — the operations that actually burn
        // time — poll the budget.
        self.tick()?;
        fault::panic_point(fault::EMD_PANIC);
        if self.criterion.emd.backend() == EmdBackendKind::Transport {
            let emd = self.criterion.emd;
            self.contents.ensure_hist(lo);
            self.contents.ensure_hist(hi);
            return emd.distance(self.contents.hist(lo), self.contents.hist(hi));
        }
        Ok(self.fold_one_d(lo, hi))
    }

    /// The 1-D closed form between two contents, folded from the hoisted
    /// mass arena — bit-identical to [`crate::emd::Emd::distance`]
    /// (conventions and the fold are the backend layer's single source).
    fn fold_one_d(&mut self, a: u32, b: u32) -> f64 {
        self.contents.ensure_mass(a);
        self.contents.ensure_mass(b);
        crate::emd::backend::one_d_from_parts(
            self.contents.is_empty(a),
            self.contents.is_empty(b),
            self.contents.mass(a),
            self.contents.mass(b),
            &self.criterion.hist,
        )
    }

    /// Memoized EMD between two content-identified histograms. The distance
    /// is a pure function of the two count vectors (and the shared spec),
    /// so equal content ids always reproduce the exact bits of a fresh
    /// computation. Every backend is bitwise symmetric (the 1-D closed
    /// form because CDF differences negate exactly, the transport solver
    /// because it canonicalizes its input order), so the memo keys on the
    /// unordered pair and one computation serves both directions.
    fn distance(&mut self, id_a: u32, id_b: u32) -> Result<f64> {
        let (lo, hi) = canon(id_a, id_b);
        if let Some(d) = self.emd_memo.get(pack_pair(lo, hi)) {
            self.stats.emd_cache_hits += 1;
            return Ok(d);
        }
        self.stats.emd_calls += 1;
        let d = self.compute_pair(lo, hi)?;
        self.emd_memo.insert(pack_pair(lo, hi), d);
        Ok(d)
    }

    /// Looks up one distinct slot pair of a batch in the memo: a hit goes
    /// into the batch's table, a miss is queued for
    /// [`Self::compute_missing`].
    fn resolve_slots(&mut self, batch: &mut DedupBatch, i: u32, j: u32) {
        let (lo, hi) = canon(batch.distinct[i as usize], batch.distinct[j as usize]);
        if let Some(v) = self.emd_memo.get(pack_pair(lo, hi)) {
            self.stats.emd_cache_hits += 1;
            batch.store(i, j, v);
        } else {
            batch.missing.push((i, j));
        }
    }

    /// Folds every distinct slot pair of a batch the memo could not serve,
    /// inserting each distance into the memo and the batch's table — the
    /// same fold, and the same memo entries, as the per-pair walk's misses.
    fn compute_missing(&mut self, batch: &mut DedupBatch) {
        if batch.missing.is_empty() {
            return;
        }
        fault::panic_point(fault::EMD_PANIC);
        self.stats.emd_calls += batch.missing.len();
        let missing = std::mem::take(&mut batch.missing);
        for &(i, j) in &missing {
            let (lo, hi) = canon(batch.distinct[i as usize], batch.distinct[j as usize]);
            let v = self.fold_one_d(lo, hi);
            self.emd_memo.insert(pack_pair(lo, hi), v);
            batch.store(i, j, v);
        }
        batch.missing = missing;
    }

    /// The deduplicated pairwise aggregation over the leaves
    /// [`Self::dedups`] mapped: resolve each *distinct* content pair once
    /// (through the memo), then aggregate the full `C(L, 2)` sequence in
    /// the reference lexicographic order, streamed straight out of the
    /// distinct×distinct table — the expanded vector (millions of entries
    /// over fine partitionings) is never stored. A repeated content also
    /// resolves its self-pair, as the per-pair walk would, so both paths
    /// leave the memo (and `emd_calls`) in the same state.
    fn dedup_pairwise_value(&mut self) -> f64 {
        self.stats.pairwise_batches += 1;
        let mut batch = std::mem::take(&mut self.scratch.batch);
        let d = batch.distinct.len();
        batch.prepare(d);
        // Slots are numbered in first-appearance order, so a leaf whose
        // slot is not the next fresh one repeats an earlier content.
        let mut fresh = 0;
        for &slot in &batch.slots {
            if slot == fresh {
                fresh += 1;
            } else {
                batch.have[slot as usize] = true;
            }
        }
        for i in 0..d as u32 {
            let first = if batch.have[i as usize] { i } else { i + 1 };
            for j in first..d as u32 {
                self.resolve_slots(&mut batch, i, j);
            }
        }
        self.compute_missing(&mut batch);
        let (slots, table) = (&batch.slots, &batch.table);
        let value = self.criterion.aggregator.apply_iter(|| {
            slots.iter().enumerate().flat_map(|(i, &si)| {
                let row = &table[si as usize * d..][..d];
                slots[i + 1..].iter().map(move |&sj| row[sj as usize])
            })
        });
        self.scratch.batch = batch;
        value
    }

    /// The deduplicated cross aggregation (left outer, right inner) over
    /// the leaves [`Self::dedups`] mapped, the first `split` of them on the
    /// left: each distinct content pair — self-pairs included, when a
    /// content sits on both sides — resolves once.
    fn dedup_cross_value(&mut self, split: usize) -> f64 {
        self.stats.pairwise_batches += 1;
        let mut batch = std::mem::take(&mut self.scratch.batch);
        let d = batch.distinct.len();
        batch.prepare(d * d);
        for l in 0..split {
            for r in split..batch.slots.len() {
                let (ls, rs) = (batch.slots[l], batch.slots[r]);
                let idx = ls.min(rs) as usize * d + ls.max(rs) as usize;
                if !batch.have[idx] {
                    batch.have[idx] = true;
                    self.resolve_slots(&mut batch, ls, rs);
                }
            }
        }
        self.compute_missing(&mut batch);
        let (left, right) = batch.slots.split_at(split);
        let table = &batch.table;
        let value = self.criterion.aggregator.apply_iter(|| {
            left.iter().flat_map(|&ls| {
                let row = &table[ls as usize * d..][..d];
                right.iter().map(move |&rs| row[rs as usize])
            })
        });
        self.scratch.batch = batch;
        value
    }

    /// Whether an aggregation over `pairs` leaf pairs among the id `lists`
    /// is resolved through the deduplicated table: a closed-form batch of
    /// at least `DEDUP_MIN_PAIRS` pairs in which at least half the leaves
    /// repeat a content. The transport metric always walks per pair. A
    /// `true` leaves the leaves mapped to slots in the batch scratch.
    fn dedups(&mut self, pairs: usize, lists: &[&[u32]]) -> bool {
        let forced = match self.aggregation {
            Aggregation::Auto => false,
            Aggregation::PerPair => return false,
            Aggregation::Dedup => true,
        };
        if pairs == 0
            || self.criterion.emd.backend() != EmdBackendKind::OneD
            || (!forced && pairs < DEDUP_MIN_PAIRS)
        {
            return false;
        }
        let batch = &mut self.scratch.batch;
        batch.map_slots(lists);
        forced || 2 * batch.distinct.len() <= batch.slots.len()
    }

    /// The per-pair memo walk: aggregates the distances of `pairs` in
    /// order (the way every small batch, and every transport batch, is
    /// resolved).
    fn walk_value(&mut self, pairs: impl Iterator<Item = (u32, u32)>) -> Result<f64> {
        let mut dists = std::mem::take(&mut self.scratch.dists);
        dists.clear();
        let mut walked = Ok(());
        for (a, b) in pairs {
            match self.distance(a, b) {
                Ok(d) => dists.push(d),
                Err(e) => {
                    walked = Err(e);
                    break;
                }
            }
        }
        let result = walked.map(|()| self.criterion.aggregator.apply(&dists));
        self.scratch.dists = dists;
        result
    }

    /// Aggregated pairwise distance over content-identified histograms, in
    /// the same `(0,1), (0,2), …` order as `pairwise_distances`.
    fn pairwise_value(&mut self, ids: &[u32]) -> Result<f64> {
        let n = ids.len();
        let pairs = n.saturating_sub(1) * n / 2;
        if self.dedups(pairs, &[ids]) {
            self.tick_n(pairs)?;
            return Ok(self.dedup_pairwise_value());
        }
        self.walk_value((0..n).flat_map(|i| ids[i + 1..].iter().map(move |&b| (ids[i], b))))
    }

    /// Aggregated cross distance (left outer, right inner) over content
    /// ids, in the same order as `cross_distances`.
    fn cross_value(&mut self, left: &[u32], right: &[u32]) -> Result<f64> {
        let pairs = left.len() * right.len();
        if self.dedups(pairs, &[left, right]) {
            self.tick_n(pairs)?;
            return Ok(self.dedup_cross_value(left.len()));
        }
        self.walk_value(left.iter().flat_map(|&a| right.iter().map(move |&b| (a, b))))
    }

    /// `unfairness(P, f)` with cached histograms and memoized distances —
    /// the drop-in for [`FairnessCriterion::unfairness`] used by the beam
    /// and exhaustive searches, whose states revisit the same partitions
    /// over and over.
    pub fn unfairness(&mut self, partitions: &[Partition]) -> Result<f64> {
        let mut ids = std::mem::take(&mut self.scratch.ids);
        ids.clear();
        for p in partitions {
            ids.push(self.hist_id(p));
        }
        let result = self.pairwise_value(&ids);
        self.scratch.ids = ids;
        result
    }

    /// Aggregate distance of `partition` vs. each of `others` — the memoized
    /// drop-in for [`FairnessCriterion::versus`] (same distance order).
    pub fn versus(&mut self, partition: &Partition, others: &[Partition]) -> Result<f64> {
        let id = self.hist_id(partition);
        let mut other_ids = std::mem::take(&mut self.scratch.ids);
        other_ids.clear();
        for other in others {
            other_ids.push(self.hist_id(other));
        }
        let result = self.cross_value(&[id], &other_ids);
        self.scratch.ids = other_ids;
        result
    }

    /// Aggregate of all child-vs-sibling distances (Algorithm 1 line 8),
    /// reusing the winner cache's child ids. Distance order matches
    /// `cross_distances` (children outer, siblings inner).
    pub fn children_versus_siblings(
        &mut self,
        candidate: &CandidateSplit,
        siblings: &[Partition],
    ) -> Result<f64> {
        let mut sib_ids = std::mem::take(&mut self.scratch.ids);
        sib_ids.clear();
        for s in siblings {
            sib_ids.push(self.hist_id(s));
        }
        let result = self.cross_value(&candidate.child_ids, &sib_ids);
        self.scratch.ids = sib_ids;
        result
    }

    /// The holistic split test: `unfairness(siblings ∪ {current})` vs.
    /// `unfairness(siblings ∪ children)`, with the children taken from the
    /// winner cache. List orders match the naive construction (siblings
    /// first, then current / children).
    pub fn holistic_values(
        &mut self,
        siblings: &[Partition],
        current: &Partition,
        candidate: &CandidateSplit,
    ) -> Result<(f64, f64)> {
        let mut ids = std::mem::take(&mut self.scratch.ids);
        ids.clear();
        for s in siblings {
            ids.push(self.hist_id(s));
        }
        ids.push(self.hist_id(current));
        let result = match self.pairwise_value(&ids) {
            Ok(before) => {
                ids.truncate(siblings.len());
                ids.extend(candidate.child_ids.iter().copied());
                self.pairwise_value(&ids).map(|after| (before, after))
            }
            Err(e) => Err(e),
        };
        self.scratch.ids = ids;
        result
    }

    /// [`Self::versus`] with the partitions' histogram content ids already
    /// in hand (the incremental replay threads them through the recursion
    /// instead of re-walking the trie per node). Values are pure functions
    /// of the ids, so the bits cannot differ from the partition form.
    pub(crate) fn versus_ids(&mut self, current: u32, sibling_ids: &[u32]) -> Result<f64> {
        self.note_reuse(current);
        for &id in sibling_ids {
            self.note_reuse(id);
        }
        self.cross_value(&[current], sibling_ids)
    }

    /// [`Self::children_versus_siblings`] with sibling content ids in hand.
    pub(crate) fn children_versus_siblings_ids(
        &mut self,
        candidate: &CandidateSplit,
        sibling_ids: &[u32],
    ) -> Result<f64> {
        for &id in sibling_ids {
            self.note_reuse(id);
        }
        self.cross_value(&candidate.child_ids, sibling_ids)
    }

    /// [`Self::holistic_values`] with sibling and current content ids in
    /// hand. List orders match the partition form exactly (siblings first,
    /// then current / children), so every aggregated value is bit-equal.
    pub(crate) fn holistic_values_ids(
        &mut self,
        sibling_ids: &[u32],
        current: u32,
        candidate: &CandidateSplit,
    ) -> Result<(f64, f64)> {
        let mut ids = std::mem::take(&mut self.scratch.ids);
        ids.clear();
        ids.extend_from_slice(sibling_ids);
        ids.push(current);
        for &id in &ids {
            self.note_reuse(id);
        }
        let result = match self.pairwise_value(&ids) {
            Ok(before) => {
                ids.truncate(sibling_ids.len());
                ids.extend(candidate.child_ids.iter().copied());
                self.pairwise_value(&ids).map(|after| (before, after))
            }
            Err(e) => Err(e),
        };
        self.scratch.ids = ids;
        result
    }

    /// `mostUnfair(current, f, A)` via one-pass counting splits: each
    /// candidate attribute is scored with a single scan over the node's
    /// rows accumulating `counts[value][bin]` into a reused flat grid, so
    /// no child row vector (or per-attribute table) is ever materialized
    /// here. Attributes producing fewer than two children (or any child
    /// below `min_partition_size`) are not candidates, and ties keep the
    /// earlier attribute — both exactly as the naive evaluation. Returns
    /// the winner (with its histograms and pairwise distances preserved
    /// for the recursion) and the number of candidate splits scored.
    pub fn best_split(
        &mut self,
        current: &Partition,
        avail: &[usize],
        min_partition_size: usize,
    ) -> Result<(Option<CandidateSplit>, usize)> {
        let bins = self.contents.bins;
        let space = self.space;
        let node = self.paths.node_of(&current.path);
        let mut counts = std::mem::take(&mut self.scratch.counts);
        let mut sizes = std::mem::take(&mut self.scratch.sizes);
        let mut best: Option<CandidateSplit> = None;
        let mut scored = 0usize;
        let mut failure = None;
        for &attr in avail {
            let Some(attribute) = space.attribute(attr) else {
                continue;
            };
            let card = attribute.cardinality();
            counts.clear();
            counts.resize(card * bins, 0);
            sizes.clear();
            sizes.resize(card, 0);
            for &row in &current.rows {
                let code = attribute.codes[row as usize] as usize;
                counts[code * bins + self.bin_codes[row as usize] as usize] += 1;
                sizes[code] += 1;
            }
            if self.record_evals {
                // Recorded before the skip checks, so a later delta
                // reconstruction reproduces the skips too.
                if self.eval_log.len() <= node as usize {
                    self.eval_log.resize_with(node as usize + 1, Vec::new);
                }
                let summary: Vec<(u32, u32)> = sizes
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s > 0)
                    .map(|(code, &s)| (code as u32, s))
                    .collect();
                let evals = &mut self.eval_log[node as usize];
                match evals.iter_mut().find(|e| e.attr == attr) {
                    Some(e) => e.sizes = summary,
                    None => evals.push(AttrEval {
                        attr,
                        sizes: summary,
                    }),
                }
            }
            let present = sizes.iter().filter(|&&s| s > 0).count();
            if present < 2 {
                continue;
            }
            if sizes
                .iter()
                .any(|&s| s > 0 && (s as usize) < min_partition_size)
            {
                continue;
            }
            scored += 1;
            let mut child_ids = Vec::with_capacity(present);
            let mut child_codes = Vec::with_capacity(present);
            for (code, &size) in sizes.iter().enumerate() {
                if size == 0 {
                    continue;
                }
                child_codes.push(code as u32);
                let child = self.paths.child_node(node, pack_step(attr, code as u32));
                let id = match self.paths.content(child) {
                    Some(id) => {
                        self.note_reuse(id);
                        id
                    }
                    None => {
                        self.stats.histograms_built += 1;
                        let id = self
                            .contents
                            .intern(&counts[code * bins..(code + 1) * bins]);
                        self.paths.set_content(child, id);
                        id
                    }
                };
                child_ids.push(id);
            }
            let value = match self.pairwise_value(&child_ids) {
                Ok(v) => v,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            let better = match &best {
                None => true,
                Some(incumbent) => self.criterion.objective.is_better(value, incumbent.value),
            };
            if better {
                best = Some(CandidateSplit {
                    attr,
                    value,
                    child_ids,
                    child_codes,
                });
            }
        }
        self.scratch.counts = counts;
        self.scratch.sizes = sizes;
        match failure {
            Some(e) => Err(e),
            None => Ok((best, scored)),
        }
    }

    /// `mostUnfair` reconstructed from a previous generation's recorded
    /// split summaries instead of a fresh row scan: per candidate
    /// attribute, the [`AttrEval`] summary (incrementally patched by
    /// [`EngineParts::apply_event`]) supplies exactly the per-code row
    /// counts the counting pass would produce, so the `< 2 children` /
    /// min-size skips, the scored count, and the candidate order replay
    /// bit-for-bit; child histograms come straight from the trie's cached
    /// contents. Anything unreconstructible — an unseen path, a missing
    /// summary, a child edge or content the caches never built (e.g. a
    /// brand-new attribute value) — falls back to the real
    /// [`Self::best_split`], which re-records and thereby self-heals the
    /// log. Every pairwise value is a pure function of content rows, so
    /// the winner (and its score bits) cannot differ from a fresh run.
    ///
    /// The node is named by its trie node id, so the replay never needs
    /// the node's rows unless the summaries cannot answer: `Ok(None)` asks
    /// the caller to materialize the rows and run [`Self::best_split`].
    pub(crate) fn delta_best_split(
        &mut self,
        node: u32,
        avail: &[usize],
        min_partition_size: usize,
    ) -> Result<Option<(Option<CandidateSplit>, usize)>> {
        let summaries_ok = avail.iter().all(|&attr| {
            self.space.attribute(attr).is_none()
                || self
                    .eval_log
                    .get(node as usize)
                    .is_some_and(|evals| evals.iter().any(|e| e.attr == attr))
        });
        if !summaries_ok {
            return Ok(None);
        }
        let mut best: Option<CandidateSplit> = None;
        let mut scored = 0usize;
        for &attr in avail {
            if self.space.attribute(attr).is_none() {
                continue;
            }
            let entry = self.eval_log[node as usize]
                .iter()
                .find(|e| e.attr == attr)
                .expect("summaries_ok checked every candidate attribute");
            let mut present = 0usize;
            let mut too_small = false;
            let mut codes: Vec<u32> = Vec::with_capacity(entry.sizes.len());
            for &(code, size) in &entry.sizes {
                if size == 0 {
                    continue;
                }
                present += 1;
                if (size as usize) < min_partition_size {
                    too_small = true;
                }
                codes.push(code);
            }
            if present < 2 || too_small {
                continue;
            }
            let mut child_ids = Vec::with_capacity(present);
            let mut incomplete = false;
            for &code in &codes {
                match self.paths.child_content(node, pack_step(attr, code)) {
                    Some(id) => child_ids.push(id),
                    None => {
                        incomplete = true;
                        break;
                    }
                }
            }
            if incomplete {
                // The partial work above only probed (or warmed) pure
                // caches, so redoing the node from rows is still exact.
                return Ok(None);
            }
            for &id in &child_ids {
                self.note_reuse(id);
            }
            scored += 1;
            let value = self.pairwise_value(&child_ids)?;
            let better = match &best {
                None => true,
                Some(incumbent) => self.criterion.objective.is_better(value, incumbent.value),
            };
            if better {
                best = Some(CandidateSplit {
                    attr,
                    value,
                    child_ids,
                    child_codes: codes,
                });
            }
        }
        Ok(Some((best, scored)))
    }

    /// Reconstructs a *clean* node's winning candidate from its cached
    /// `(attr, value, child codes)` without re-scoring any attribute: the
    /// trie's cached child contents are bit-unchanged (nothing under the
    /// node was touched), so probing them by code yields exactly the ids
    /// `delta_best_split` would have produced, and the cached value is the
    /// exact bits `pairwise_value` would recompute from them. `None` when
    /// any probe misses (the caller falls back to a real evaluation).
    pub(crate) fn rebuild_candidate(
        &mut self,
        node: u32,
        attr: usize,
        value: f64,
        child_codes: &[u32],
    ) -> Option<CandidateSplit> {
        let mut child_ids = Vec::with_capacity(child_codes.len());
        for &code in child_codes {
            child_ids.push(self.paths.child_content(node, pack_step(attr, code))?);
        }
        for &id in &child_ids {
            self.note_reuse(id);
        }
        Some(CandidateSplit {
            attr,
            value,
            child_ids,
            child_codes: child_codes.to_vec(),
        })
    }

    /// Turns on split-summary recording and the memo's partner lists (the
    /// incremental layer's data sources) on a fresh engine. Off by
    /// default, so plain searches pay nothing for either.
    pub(crate) fn record_split_evals(&mut self) {
        self.record_evals = true;
        self.emd_memo.track_partners();
    }

    /// Seeds the invalidation counter with the EMD entries the incremental
    /// layer's orphan freeing dropped ahead of this run.
    pub(crate) fn seed_invalidated_emds(&mut self, dropped: usize) {
        self.stats.delta_invalidated_emds = dropped;
    }

    /// Detaches the engine's caches from the space borrow so they can
    /// outlive it. Stats, scratch, and the budget checker are per-run and
    /// do not survive.
    pub(crate) fn into_parts(self) -> EngineParts {
        EngineParts {
            criterion: self.criterion,
            bin_codes: self.bin_codes,
            paths: self.paths,
            contents: self.contents,
            emd_memo: self.emd_memo,
            eval_log: self.eval_log,
            generation: self.generation,
            dirty_paths: self.dirty_paths,
            event_row: Vec::new(),
            event_stack: Vec::new(),
        }
    }

    /// True when no mutation since the last completed replay touched any
    /// row of the partition at trie node `node`: its entire subtree —
    /// histograms, split summaries, and every decision derived from them —
    /// is bit-unchanged.
    pub(crate) fn subtree_clean(&self, node: u32) -> bool {
        !self.dirty_paths.contains(node)
    }

    /// The trie node of `node`'s child along `(attr, code)`. Every child of
    /// a candidate split has one: scoring the split created or probed it.
    pub(crate) fn child_node(&self, node: u32, attr: usize, code: u32) -> u32 {
        self.paths
            .lookup_child(node, pack_step(attr, code))
            .expect("a candidate's children are in the trie")
    }

    /// The content id cached at trie node `node`. Only asked of nodes a
    /// completed run gave a content and no mutation has touched since.
    pub(crate) fn content_at(&self, node: u32) -> u32 {
        self.paths
            .content(node)
            .expect("a clean tree node keeps its content")
    }

    /// `unfairness` over the final leaves of a delta replay, given as
    /// `(trie node, content id)` in leaf order — the drop-in for
    /// [`Self::unfairness`] over the leaf partitions, minus the partitions.
    /// `table` holds the previous completed replay's leaves and their
    /// pairwise distances: a pair of leaves whose trie nodes were both
    /// leaves then and are clean now pairs two unchanged contents, so its
    /// distance is the table's (the memo hit it replaces is counted as
    /// one). Every other pair goes through [`Self::distance`]. The pairs
    /// aggregate in the reference `(0,1), (0,2), …` order, so the bits are
    /// those of the partition form. Large repetitive batches take the
    /// deduplicated path exactly as [`Self::pairwise_value`] would, and
    /// leave the table empty.
    pub(crate) fn fold_leaves(
        &mut self,
        leaves: &[(u32, u32)],
        table: &mut LeafTable,
    ) -> Result<f64> {
        let mut ids = std::mem::take(&mut self.scratch.ids);
        ids.clear();
        ids.extend(leaves.iter().map(|&(_, id)| id));
        for &id in &ids {
            self.note_reuse(id);
        }
        let n = ids.len();
        let pairs = n.saturating_sub(1) * n / 2;
        if self.dedups(pairs, &[&ids]) {
            self.scratch.ids = ids;
            table.clear();
            self.tick_n(pairs)?;
            return Ok(self.dedup_pairwise_value());
        }
        let pos: Vec<u32> = leaves
            .iter()
            .map(|&(node, _)| {
                if self.dirty_paths.contains(node) {
                    NONE32
                } else {
                    table.position(node)
                }
            })
            .collect();
        let mut dists = Vec::with_capacity(pairs);
        let old_n = table.nodes.len();
        let mut walked = Ok(());
        'walk: for i in 0..n {
            let pi = pos[i];
            for j in i + 1..n {
                let pj = pos[j];
                let d = if pi != NONE32 && pj != NONE32 {
                    self.stats.emd_cache_hits += 1;
                    table.dists[tri_index(old_n, pi.min(pj), pi.max(pj))]
                } else {
                    match self.distance(ids[i], ids[j]) {
                        Ok(d) => d,
                        Err(e) => {
                            walked = Err(e);
                            break 'walk;
                        }
                    }
                };
                dists.push(d);
            }
        }
        self.scratch.ids = ids;
        walked?;
        let value = self.criterion.aggregator.apply(&dists);
        table.replace(leaves, dists);
        Ok(value)
    }

    /// Rehydrates an engine over `space` from detached caches: no bin-code
    /// recompute, no cache warmup. `space` must be the parts' space with
    /// exactly the mutations recorded through [`EngineParts`] applied (the
    /// incremental layer guarantees this). Recording stays on — resumed
    /// engines always serve a delta lineage.
    pub(crate) fn resume(space: &'a RankingSpace, parts: EngineParts) -> Self {
        debug_assert_eq!(
            parts.bin_codes.len(),
            space.num_individuals(),
            "parts drifted from the space"
        );
        SplitEngine {
            space,
            criterion: parts.criterion,
            bin_codes: parts.bin_codes,
            paths: parts.paths,
            contents: parts.contents,
            emd_memo: parts.emd_memo,
            eval_log: parts.eval_log,
            record_evals: true,
            generation: parts.generation,
            dirty_paths: parts.dirty_paths,
            aggregation: Aggregation::default(),
            stats: EngineStats::default(),
            scratch: Scratch::default(),
            checker: RunBudget::unlimited().checker(),
        }
    }
}

/// One space mutation translated into the terms the engine's caches
/// understand: which histogram bin the touched row's score occupies and
/// how path membership changed. Attribute codes travel separately (they
/// select which trie paths are dirty).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheAdjust {
    /// A row arrived with its score in `bin`.
    Insert { bin: u32 },
    /// A row departed whose score occupied `bin`.
    Remove { bin: u32 },
    /// A row's score moved between bins. Same-bin rescores change no
    /// histogram and need no cache work at all.
    Rescore { old_bin: u32, new_bin: u32 },
}

/// Index of pair `(i, j)`, `i < j`, in the row-major upper triangle of an
/// `n × n` matrix — the reference `(0,1), (0,2), …` pair order.
#[inline]
fn tri_index(n: usize, i: u32, j: u32) -> usize {
    let (i, j) = (i as usize, j as usize);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// The last completed delta replay's final leaves and their pairwise
/// distances, kept for the next replay's [`SplitEngine::fold_leaves`].
/// Leaves are named by trie node, whose ids are stable across rounds
/// (trie nodes are never freed); `dists` is the fold's distance sequence
/// itself, the upper triangle in reference order. Whether a leaf's content
/// is unchanged is decided by the dirty set, never by content id: a freed
/// slot may be re-interned at the same node with different content.
#[derive(Debug, Default)]
pub(crate) struct LeafTable {
    /// Trie node of each leaf, in leaf order.
    nodes: Vec<u32>,
    dists: Vec<f64>,
    /// `slot[trie node]`: the node's leaf position ([`NONE32`] if none).
    slot: Vec<u32>,
}

impl LeafTable {
    /// The leaf position of trie node `node` in the kept replay, or
    /// [`NONE32`].
    #[inline]
    fn position(&self, node: u32) -> u32 {
        self.slot.get(node as usize).copied().unwrap_or(NONE32)
    }

    /// Keeps `leaves` and their distance sequence.
    fn replace(&mut self, leaves: &[(u32, u32)], dists: Vec<f64>) {
        self.clear();
        self.dists = dists;
        for (i, &(node, _)) in leaves.iter().enumerate() {
            let n = node as usize;
            if n >= self.slot.len() {
                self.slot.resize(n + 1, NONE32);
            }
            self.slot[n] = i as u32;
            self.nodes.push(node);
        }
    }

    /// Forgets every kept leaf (after a cancelled run, a deduplicated fold
    /// or a single-leaf tree); the next fold computes every pair.
    pub(crate) fn clear(&mut self) {
        for &node in &self.nodes {
            self.slot[node as usize] = NONE32;
        }
        self.nodes.clear();
        self.dists.clear();
    }
}

/// Trie nodes dirtied since the last completed replay: a flag per node
/// for the replay's O(1) probe, plus the list of set flags so clearing
/// costs O(dirtied) rather than O(trie).
#[derive(Debug, Default)]
struct DirtySet {
    /// `flags[node]`; nodes past the end are clean.
    flags: Vec<bool>,
    nodes: Vec<u32>,
}

impl DirtySet {
    fn insert(&mut self, node: u32) {
        let i = node as usize;
        if i >= self.flags.len() {
            self.flags.resize(i + 1, false);
        }
        if !self.flags[i] {
            self.flags[i] = true;
            self.nodes.push(node);
        }
    }

    #[inline]
    fn contains(&self, node: u32) -> bool {
        self.flags.get(node as usize).copied().unwrap_or(false)
    }

    fn clear(&mut self) {
        for &node in &self.nodes {
            self.flags[node as usize] = false;
        }
        self.nodes.clear();
    }
}

/// A [`SplitEngine`]'s caches detached from the space borrow, so the
/// incremental layer can hold them while it mutates the space: dirty-path
/// patches go through [`Self::apply_event`], and the whole bundle goes back
/// into a search via [`SplitEngine::resume`].
///
/// Content ids are stable for as long as some trie node holds them. The
/// trie counts, per id, the nodes that do; a patch that replaces a node's
/// content may orphan the old id, and [`Self::free_orphans`] then frees
/// exactly those ids, their memo entries and their arena slots, which
/// later interning reuses. Invalidation therefore costs in proportion to
/// what changed, never to the size of the caches.
#[derive(Debug)]
pub(crate) struct EngineParts {
    criterion: FairnessCriterion,
    bin_codes: Vec<u32>,
    paths: PathTrie,
    contents: ContentTable,
    emd_memo: FlatMemo,
    eval_log: Vec<Vec<AttrEval>>,
    generation: u32,
    /// Trie nodes dirtied by [`Self::apply_event`] since the last completed
    /// replay — the replay's clean-subtree skip and leaf table consult this
    /// through [`SplitEngine::subtree_clean`] and clear it on success.
    dirty_paths: DirtySet,
    /// [`Self::apply_event`]'s counts row and trie-walk stack, reused
    /// across events.
    event_row: Vec<u64>,
    event_stack: Vec<u32>,
}

impl EngineParts {
    /// Maps a score to its histogram bin under the lineage's fixed spec —
    /// the same clamping map [`RankingSpace::bin_codes`] applies.
    pub(crate) fn bin_of(&self, score: f64) -> u32 {
        self.criterion.hist.bin_of(score) as u32
    }

    /// Current generation (0 = the initial full build).
    pub(crate) fn generation(&self) -> u32 {
        self.generation
    }

    /// Opens a new mutation generation: subsequently interned or adjusted
    /// contents are stamped with it, so the next run can tell survivors
    /// from rebuilds.
    pub(crate) fn begin_generation(&mut self) -> u32 {
        self.generation += 1;
        self.contents.stamp = self.generation;
        self.generation
    }

    /// Appends the bin code of a row appended to the space.
    pub(crate) fn push_row_bin(&mut self, bin: u32) {
        self.bin_codes.push(bin);
    }

    /// Removes the bin code of a removed row (same index shift as
    /// [`RankingSpace::remove_row`]).
    pub(crate) fn remove_row_bin(&mut self, row: usize) -> u32 {
        self.bin_codes.remove(row)
    }

    /// The cached bin code of `row`.
    pub(crate) fn row_bin(&self, row: usize) -> u32 {
        self.bin_codes[row]
    }

    /// Replaces the cached bin code of `row` (rescore).
    pub(crate) fn set_row_bin(&mut self, row: usize, bin: u32) {
        self.bin_codes[row] = bin;
    }

    /// Dirty-path propagation for one mutation: walks every trie path
    /// consistent with the touched row's attribute `codes` (exactly the
    /// partitions that contain the row) and, at each cached node,
    /// re-derives the histogram by adjusting the old counts row at the
    /// affected bin(s) and re-interning — never mutating in place, since
    /// contents are shared across paths. Membership events also patch the
    /// recorded split summaries, so a later [`SplitEngine::delta_best_split`]
    /// sees the true child sizes. Returns the number of cached histograms
    /// rebuilt (0 for a same-bin rescore, which is a pure no-op).
    pub(crate) fn apply_event(&mut self, codes: &[u32], adjust: CacheAdjust) -> usize {
        if let CacheAdjust::Rescore { old_bin, new_bin } = adjust {
            if old_bin == new_bin {
                return 0;
            }
        }
        let membership = !matches!(adjust, CacheAdjust::Rescore { .. });
        let generation = self.generation;
        let mut touched = 0usize;
        let mut row = std::mem::take(&mut self.event_row);
        let mut stack = std::mem::take(&mut self.event_stack);
        stack.push(0);
        while let Some(node) = stack.pop() {
            self.dirty_paths.insert(node);
            if let Some(id) = self.paths.content(node) {
                row.clear();
                row.extend_from_slice(self.contents.row(id));
                match adjust {
                    CacheAdjust::Insert { bin } => row[bin as usize] += 1,
                    CacheAdjust::Remove { bin } => {
                        debug_assert!(row[bin as usize] > 0, "removing from an empty bin");
                        row[bin as usize] = row[bin as usize].saturating_sub(1);
                    }
                    CacheAdjust::Rescore { old_bin, new_bin } => {
                        debug_assert!(row[old_bin as usize] > 0, "rescoring an empty bin");
                        row[old_bin as usize] = row[old_bin as usize].saturating_sub(1);
                        row[new_bin as usize] += 1;
                    }
                }
                // Interning may rediscover an existing content (a
                // canceling event restores the original id, keeping its
                // memoized distances warm: an orphaned id stays interned
                // until the end of the batch); stamping marks it as a
                // this-generation rebuild either way.
                let new_id = self.contents.intern(&row);
                self.contents.mark_generation(new_id, generation);
                self.paths.set_content(node, new_id);
                touched += 1;
            }
            if membership {
                if let Some(evals) = self.eval_log.get_mut(node as usize) {
                    let grow = matches!(adjust, CacheAdjust::Insert { .. });
                    for e in evals.iter_mut() {
                        let Some(&code) = codes.get(e.attr) else {
                            continue;
                        };
                        match e.sizes.binary_search_by_key(&code, |&(c, _)| c) {
                            Ok(i) => {
                                if grow {
                                    e.sizes[i].1 += 1;
                                } else {
                                    debug_assert!(e.sizes[i].1 > 0, "shrinking an empty code");
                                    e.sizes[i].1 = e.sizes[i].1.saturating_sub(1);
                                }
                            }
                            Err(i) => {
                                if grow {
                                    e.sizes.insert(i, (code, 1));
                                }
                            }
                        }
                    }
                }
            }
            // Descend only into children consistent with the row's codes —
            // the node for path p ∪ {(attr, c)} contains the row iff the
            // node for p does and codes[attr] == c.
            self.paths.for_each_edge(node, |step, child| {
                let attr = (step >> 32) as usize;
                let code = step as u32;
                if codes.get(attr) == Some(&code) {
                    stack.push(child);
                }
            });
        }
        self.event_row = row;
        self.event_stack = stack;
        touched
    }

    /// Targeted invalidation, run once per mutation batch: frees every
    /// orphan candidate no trie node holds any more (a canceling event
    /// later in the batch may have revived it), deleting exactly the EMD
    /// memo entries that touch one and returning their number. Freed
    /// slots are reused by later interning. Distances between surviving
    /// contents stay memoized across generations.
    pub(crate) fn free_orphans(&mut self) -> usize {
        let mut orphans = std::mem::take(&mut self.paths.orphans);
        orphans.sort_unstable();
        orphans.dedup();
        let mut dropped = 0;
        for &id in &orphans {
            if self.paths.refs(id) == 0 {
                dropped += self.emd_memo.forget(id);
                self.contents.release(id);
            }
        }
        orphans.clear();
        self.paths.orphans = orphans;
        dropped
    }

    /// Forgets the dirty-path set — called after a completed replay has
    /// re-validated (or structurally copied) everything beneath the dirty
    /// paths. Trie node ids are stable (nodes are never freed), so the set
    /// stays valid while mutations accumulate between replays.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty_paths.clear();
    }
}

/// Sizes of an [`EngineParts`]'s caches, for the bounded-memory tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Contents held by at least one trie node.
    pub live_contents: usize,
    /// Content arena slots, free ones included.
    pub slots: usize,
    /// Table slots of the memo.
    pub memo_capacity: usize,
    /// Total length of the memo's partner lists (stale entries included).
    pub partner_entries: usize,
    /// Address of the memo's key table, to detect reallocation.
    pub memo_table: usize,
}

#[cfg(test)]
impl EngineParts {
    /// Panics unless the caches are mutually consistent: every content's
    /// count equals the trie nodes holding it, no live content is
    /// unreferenced, no indexed or memoized id is freed, every memo entry
    /// is reachable and listed under both endpoints, and `find` returns
    /// every live content for its own row. Meaningful after a
    /// completed [`Self::apply_event`] batch and its [`Self::free_orphans`].
    pub(crate) fn check_invariants(&self) {
        assert!(
            self.paths.orphans.is_empty(),
            "orphan candidates left unprocessed"
        );
        let slots = self.contents.slots();
        let mut freed = vec![false; slots];
        for &id in &self.contents.free {
            assert!(!freed[id as usize], "slot {id} is free twice");
            freed[id as usize] = true;
        }
        let mut held = vec![0u32; slots];
        for &id in &self.paths.content {
            if id != NONE32 {
                assert!(!freed[id as usize], "a trie node holds freed content {id}");
                held[id as usize] += 1;
            }
        }
        for id in 0..slots as u32 {
            let i = id as usize;
            assert_eq!(self.paths.refs(id), held[i], "node count of content {id}");
            if !freed[i] {
                assert!(held[i] > 0, "content {id} is live but held by no node");
                let row = self.contents.row(id);
                assert_eq!(self.contents.find(row), Some(id), "live {id} not found");
            }
        }
        let mut indexed = 0;
        for &head in self.contents.heads.values() {
            let mut id = head;
            while id != NONE32 {
                assert!(!freed[id as usize], "freed {id} is still indexed");
                indexed += 1;
                id = self.contents.next[id as usize];
            }
        }
        assert_eq!(indexed, slots - self.contents.free.len(), "index size");
        let memo = &self.emd_memo;
        let mut degree = vec![0u32; slots];
        let mut entries = 0;
        for &key in memo.keys.iter().filter(|&&k| k != FlatMemo::EMPTY) {
            let (a, b) = ((key >> 32) as usize, key as u32 as usize);
            assert!(a <= b && b < slots, "entry ({a},{b}) out of range");
            assert!(!freed[a] && !freed[b], "entry ({a},{b}) touches a freed id");
            assert!(memo.get(key).is_some(), "entry ({a},{b}) is unreachable");
            degree[a] += 1;
            if a != b {
                degree[b] += 1;
            }
            entries += 1;
            if let Some(p) = &memo.partners {
                let listed = |owner: usize, other: usize| {
                    p.lists[owner]
                        .iter()
                        .any(|&q| q.id as usize == other && p.is_current(q))
                };
                assert!(listed(a, b), "({a},{b}) unlisted at {a}");
                assert!(listed(b, a), "({a},{b}) unlisted at {b}");
            }
        }
        assert_eq!(entries, memo.len, "memo length");
        if let Some(p) = &memo.partners {
            // Each live entry is listed once per endpoint, current.
            for (id, &d) in degree.iter().enumerate() {
                let current = p
                    .lists
                    .get(id)
                    .map_or(0, |list| list.iter().filter(|&&q| p.is_current(q)).count());
                assert_eq!(current, d as usize, "current partners of {id}");
            }
        }
    }

    /// Whether trie node `node` was dirtied since the last completed run.
    pub(crate) fn is_dirty(&self, node: u32) -> bool {
        self.dirty_paths.contains(node)
    }

    /// The content id trie node `node` holds.
    pub(crate) fn content_of(&self, node: u32) -> Option<u32> {
        self.paths.content(node)
    }

    pub(crate) fn footprint(&self) -> Footprint {
        let memo = &self.emd_memo;
        Footprint {
            live_contents: self.contents.slots() - self.contents.free.len(),
            slots: self.contents.slots(),
            memo_capacity: memo.keys.len(),
            partner_entries: memo
                .partners
                .as_ref()
                .map_or(0, |p| p.lists.iter().map(Vec::len).sum()),
            memo_table: memo.keys.as_ptr() as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::{Aggregator, Objective};
    use crate::space::ProtectedAttribute;

    fn space() -> RankingSpace {
        let gender = ProtectedAttribute::from_values(
            "gender",
            &["F", "M", "F", "M", "F", "M", "F", "M"],
        );
        let noise = ProtectedAttribute::from_values(
            "noise",
            &["x", "x", "y", "y", "x", "y", "x", "y"],
        );
        RankingSpace::new(
            vec![gender, noise],
            vec![0.1, 0.9, 0.2, 0.8, 0.15, 0.85, 0.12, 0.88],
        )
        .unwrap()
    }

    #[test]
    fn engine_histogram_matches_criterion_histogram() {
        let s = space();
        let crit = FairnessCriterion::default();
        let mut engine = SplitEngine::new(&s, crit);
        let root = Partition::root(&s);
        for p in std::iter::once(root.clone()).chain(root.split(&s, 0)) {
            assert_eq!(engine.histogram(&p), crit.histogram(&p, s.scores()));
        }
        // Second lookups are cache hits: no new builds.
        let built = engine.stats().histograms_built;
        let _ = engine.histogram(&root);
        assert_eq!(engine.stats().histograms_built, built);
    }

    #[test]
    fn engine_unfairness_and_versus_match_criterion() {
        let s = space();
        let crit = FairnessCriterion::new(Objective::MostUnfair, Aggregator::Mean);
        let mut engine = SplitEngine::new(&s, crit);
        let parts = Partition::root(&s).split(&s, 0);
        let u_engine = engine.unfairness(&parts).unwrap();
        let u_naive = crit.unfairness(&parts, s.scores()).unwrap();
        assert_eq!(u_engine, u_naive);
        let v_engine = engine.versus(&parts[0], &parts[1..]).unwrap();
        let v_naive = crit.versus(&parts[0], &parts[1..], s.scores()).unwrap();
        assert_eq!(v_engine, v_naive);
    }

    #[test]
    fn repeated_unfairness_hits_the_memo() {
        let s = space();
        let mut engine = SplitEngine::new(&s, FairnessCriterion::default());
        let parts = Partition::root(&s).split(&s, 0);
        let first = engine.unfairness(&parts).unwrap();
        let calls_after_first = engine.stats().emd_calls;
        let second = engine.unfairness(&parts).unwrap();
        assert_eq!(first, second);
        assert_eq!(engine.stats().emd_calls, calls_after_first);
        assert!(engine.stats().emd_cache_hits > 0);
    }

    #[test]
    fn one_d_memo_serves_both_directions() {
        let s = space();
        let mut engine = SplitEngine::new(&s, FairnessCriterion::default());
        let parts = Partition::root(&s).split(&s, 0);
        // Forward direction computes, reverse direction must hit.
        let _ = engine.versus(&parts[0], &parts[1..]).unwrap();
        let calls = engine.stats().emd_calls;
        let _ = engine.versus(&parts[1], &parts[..1]).unwrap();
        assert_eq!(engine.stats().emd_calls, calls);
        assert!(engine.stats().emd_cache_hits > 0);
    }

    #[test]
    fn best_split_matches_naive_most_unfair() {
        let s = space();
        let crit = FairnessCriterion::default();
        let mut engine = SplitEngine::new(&s, crit);
        let root = Partition::root(&s);
        let (cand, scored) = engine.best_split(&root, &[0, 1], 1).unwrap();
        let cand = cand.expect("both attributes split the root");
        assert_eq!(scored, 2);
        // Gender (attribute 0) separates scores; noise does not.
        assert_eq!(cand.attr, 0);
        let children = root.split(&s, 0);
        assert_eq!(cand.child_ids.len(), children.len());
        // The one-pass counting histograms equal the per-child rebuilds —
        // and they were cached during best_split, so no new builds occur.
        let built = engine.stats().histograms_built;
        for child in &children {
            assert_eq!(
                engine.histogram(child),
                crit.histogram(child, s.scores())
            );
        }
        assert_eq!(engine.stats().histograms_built, built);
        assert_eq!(cand.value, crit.unfairness(&children, s.scores()).unwrap());
    }

    #[test]
    fn best_split_honors_min_partition_size() {
        let s = space();
        let mut engine = SplitEngine::new(&s, FairnessCriterion::default());
        let root = Partition::root(&s);
        // Both attributes give 4/4 children; a floor of 5 blocks everything.
        let (cand, scored) = engine.best_split(&root, &[0, 1], 5).unwrap();
        assert!(cand.is_none());
        assert_eq!(scored, 0);
    }

    #[test]
    fn flat_memo_grows_and_keeps_entries() {
        let mut memo = FlatMemo::new();
        // Push well past the initial 64-slot capacity (50% load → several
        // doublings) and verify nothing is lost or corrupted.
        for a in 0..40u32 {
            for b in a..40u32 {
                memo.insert(pack_pair(a, b), (a * 100 + b) as f64);
            }
        }
        for a in 0..40u32 {
            for b in a..40u32 {
                assert_eq!(
                    memo.get(pack_pair(a, b)),
                    Some((a * 100 + b) as f64),
                    "({a},{b})"
                );
            }
        }
        assert_eq!(memo.get(pack_pair(41, 41)), None);
        // Overwrites update in place, not duplicate.
        let len = memo.len;
        memo.insert(pack_pair(0, 0), 9.0);
        assert_eq!(memo.get(pack_pair(0, 0)), Some(9.0));
        assert_eq!(memo.len, len);
    }

    #[test]
    fn path_trie_distinguishes_prefixes_and_orders() {
        let mut trie = PathTrie::new();
        let a = PathStep { attr: 0, code: 1 };
        let b = PathStep { attr: 1, code: 0 };
        let root = trie.node_of(&[]);
        let na = trie.node_of(&[a]);
        let nab = trie.node_of(&[a, b]);
        let nba = trie.node_of(&[b, a]);
        // All four paths are distinct nodes; repeated walks are stable.
        let nodes = [root, na, nab, nba];
        for (i, &x) in nodes.iter().enumerate() {
            for &y in &nodes[i + 1..] {
                assert_ne!(x, y);
            }
        }
        assert_eq!(trie.node_of(&[a, b]), nab);
        assert_eq!(trie.content(nab), None);
        trie.set_content(nab, 7);
        assert_eq!(trie.content(nab), Some(7));
        assert_eq!(trie.content(na), None);
    }

    #[test]
    fn batch_dedup_collapses_repeated_contents() {
        let s = space();
        let parts = Partition::root(&s).split(&s, 0);
        // Four partitions but only two distinct contents: C(4,2) = 6 leaf
        // pairs collapse to three distinct-pair resolutions — (F,M) plus
        // the two self-pairs the per-pair walk also resolves.
        let doubled: Vec<Partition> = parts.iter().chain(parts.iter()).cloned().collect();
        let mut walk = SplitEngine::new(&s, FairnessCriterion::default());
        walk.set_aggregation(Aggregation::PerPair);
        let mut dedup = SplitEngine::new(&s, FairnessCriterion::default());
        dedup.set_aggregation(Aggregation::Dedup);
        let u_walk = walk.unfairness(&doubled).unwrap();
        let u_dedup = dedup.unfairness(&doubled).unwrap();
        assert_eq!(u_walk.to_bits(), u_dedup.to_bits());
        let (w, d) = (walk.stats(), dedup.stats());
        assert_eq!((w.emd_calls, w.emd_cache_hits, w.pairwise_batches), (3, 3, 0));
        assert_eq!((d.emd_calls, d.emd_cache_hits, d.pairwise_batches), (3, 0, 1));
    }

    #[test]
    fn batched_backend_matches_per_pair_engine_bitwise() {
        use crate::emd::Emd;
        // `emd=batched` now names the closed-form metric; what it used to
        // select, the deduplicated batch, is the forced `Dedup` path.
        let batched_kind = EmdBackendKind::parse("batched").unwrap();
        let s = space();
        let mut per_pair = SplitEngine::new(&s, FairnessCriterion::default());
        per_pair.set_aggregation(Aggregation::PerPair);
        let mut batched = SplitEngine::new(
            &s,
            FairnessCriterion::default().with_emd(Emd::new(batched_kind)),
        );
        batched.set_aggregation(Aggregation::Dedup);
        let root = Partition::root(&s);
        let parts = root.split(&s, 0);

        let u1 = per_pair.unfairness(&parts).unwrap();
        let ub = batched.unfairness(&parts).unwrap();
        assert_eq!(u1.to_bits(), ub.to_bits());
        let v1 = per_pair.versus(&parts[0], &parts[1..]).unwrap();
        let vb = batched.versus(&parts[0], &parts[1..]).unwrap();
        assert_eq!(v1.to_bits(), vb.to_bits());
        let (c1, s1) = per_pair.best_split(&root, &[0, 1], 1).unwrap();
        let (cb, sb) = batched.best_split(&root, &[0, 1], 1).unwrap();
        let (c1, cb) = (c1.unwrap(), cb.unwrap());
        assert_eq!((s1, c1.attr), (sb, cb.attr));
        assert_eq!(c1.value.to_bits(), cb.value.to_bits());

        // The batch path is live, never does more memo/EMD evaluations
        // than the per-pair walk, and only it counts batches.
        assert!(batched.stats().pairwise_batches > 0);
        assert_eq!(per_pair.stats().pairwise_batches, 0);
        assert!(
            batched.stats().emd_calls + batched.stats().emd_cache_hits
                <= per_pair.stats().emd_calls + per_pair.stats().emd_cache_hits
        );
    }

    #[test]
    fn kernel_backend_matches_batched_engine_bitwise() {
        use crate::emd::Emd;
        // `emd=kernel` resolves to the default criterion, so an engine
        // built from it is the default engine: same values and the same
        // work counters as `1d`, and bitwise the values of the forced
        // deduplicated path.
        let kernel_crit = FairnessCriterion::default()
            .with_emd(Emd::new(EmdBackendKind::parse("kernel").unwrap()));
        assert_eq!(kernel_crit, FairnessCriterion::default());
        let s = space();
        let mut batched = SplitEngine::new(&s, FairnessCriterion::default());
        batched.set_aggregation(Aggregation::Dedup);
        let mut kernel = SplitEngine::new(&s, kernel_crit);
        let mut one_d = SplitEngine::new(&s, FairnessCriterion::default());
        let root = Partition::root(&s);
        let parts = root.split(&s, 0);
        for engine in [&mut batched, &mut kernel, &mut one_d] {
            let _ = engine.best_split(&root, &[0, 1], 1).unwrap();
        }
        let ub = batched.unfairness(&parts).unwrap();
        let uk = kernel.unfairness(&parts).unwrap();
        assert_eq!(ub.to_bits(), uk.to_bits());
        let vb = batched.versus(&parts[0], &parts[1..]).unwrap();
        let vk = kernel.versus(&parts[0], &parts[1..]).unwrap();
        assert_eq!(vb.to_bits(), vk.to_bits());
        let (cb, _) = batched.best_split(&parts[0], &[1], 1).unwrap();
        let cb = cb.expect("noise splits the F partition");
        let hb = batched.holistic_values(&parts[1..], &parts[0], &cb).unwrap();
        let (ck, _) = kernel.best_split(&parts[0], &[1], 1).unwrap();
        let ck = ck.expect("noise splits the F partition");
        let hk = kernel.holistic_values(&parts[1..], &parts[0], &ck).unwrap();
        assert_eq!(hb.0.to_bits(), hk.0.to_bits());
        assert_eq!(hb.1.to_bits(), hk.1.to_bits());
        assert!(batched.stats().pairwise_batches > 0);

        let _ = one_d.unfairness(&parts).unwrap();
        let _ = one_d.versus(&parts[0], &parts[1..]).unwrap();
        let (c1, _) = one_d.best_split(&parts[0], &[1], 1).unwrap();
        let _ = one_d.holistic_values(&parts[1..], &parts[0], &c1.unwrap()).unwrap();
        assert_eq!(kernel.stats(), one_d.stats());
    }

    #[test]
    fn batch_size_picks_the_aggregation_path() {
        let s = space();
        let parts = Partition::root(&s).split(&s, 0);
        let mut engine = SplitEngine::new(&s, FairnessCriterion::default());
        // One pair is far below the threshold: the per-pair walk.
        let _ = engine.unfairness(&parts).unwrap();
        assert_eq!(engine.stats().pairwise_batches, 0);
        // Just enough copies of the two partitions to reach the threshold.
        let n = (2..).find(|n| n * (n - 1) / 2 >= DEDUP_MIN_PAIRS).unwrap();
        let many: Vec<Partition> = parts.iter().cycle().take(n).cloned().collect();
        let _ = engine.unfairness(&many).unwrap();
        assert_eq!(engine.stats().pairwise_batches, 1);
        // A large batch of all-distinct contents gains nothing from the
        // table: it walks too.
        let n = 200;
        let labels: Vec<String> = (0..n).map(|i| format!("r{i}")).collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let rows = ProtectedAttribute::from_values("row", &refs);
        let scores = (0..n).map(|i| i as f64 / n as f64).collect();
        let distinct = RankingSpace::new(vec![rows], scores).unwrap();
        let criterion =
            FairnessCriterion::default().with_hist(HistogramSpec::unit(2 * n).unwrap());
        let mut engine = SplitEngine::new(&distinct, criterion);
        let _ = engine.unfairness(&Partition::root(&distinct).split(&distinct, 0)).unwrap();
        assert_eq!(engine.stats().pairwise_batches, 0);
        // Transport always walks pair by pair.
        let transport =
            FairnessCriterion::default().with_emd(crate::emd::Emd::new(EmdBackendKind::Transport));
        let mut engine = SplitEngine::new(&s, transport);
        engine.set_aggregation(Aggregation::Dedup);
        let _ = engine.unfairness(&many).unwrap();
        assert_eq!(engine.stats().pairwise_batches, 0);
    }

    #[test]
    fn memo_key_is_unordered_for_the_transport_backend() {
        use crate::emd::{Emd, EmdBackendKind};
        let s = space();
        let mut engine = SplitEngine::new(
            &s,
            FairnessCriterion::default().with_emd(Emd::new(EmdBackendKind::Transport)),
        );
        let parts = Partition::root(&s).split(&s, 0);
        let forward = engine.versus(&parts[0], &parts[1..]).unwrap();
        let calls = engine.stats().emd_calls;
        let backward = engine.versus(&parts[1], &parts[..1]).unwrap();
        // The reverse direction is a cache hit sharing the same entry.
        assert_eq!(engine.stats().emd_calls, calls);
        assert!(engine.stats().emd_cache_hits > 0);
        assert_eq!(forward.to_bits(), backward.to_bits());
    }

    #[test]
    fn best_split_skips_constant_and_invalid_attributes() {
        let constant = ProtectedAttribute::from_values("k", &["x", "x", "x"]);
        let s = RankingSpace::new(vec![constant], vec![0.1, 0.5, 0.9]).unwrap();
        let mut engine = SplitEngine::new(&s, FairnessCriterion::default());
        let root = Partition::root(&s);
        let (cand, scored) = engine.best_split(&root, &[0, 7], 1).unwrap();
        assert!(cand.is_none());
        assert_eq!(scored, 0);
    }

    #[test]
    fn content_table_release_unindexes_and_reuses_slots() {
        let mut table = ContentTable::new(HistogramSpec::default());
        let rows: Vec<Vec<u64>> = (0..7u64)
            .map(|i| {
                let mut r = vec![0u64; table.bins];
                r[0] = i + 1;
                r[1] = 2 * i;
                r
            })
            .collect();
        for r in &rows[..5] {
            table.intern(r);
        }
        table.ensure_mass(3);
        table.release(1);
        table.release(3);
        assert_eq!(table.slots(), 5);
        // Released rows are gone from the index; survivors keep their
        // ids and still dedup.
        assert_eq!(table.find(&rows[1]), None);
        assert_eq!(table.find(&rows[3]), None);
        for id in [0u32, 2, 4] {
            assert_eq!(table.find(&rows[id as usize]), Some(id));
            assert_eq!(table.intern(&rows[id as usize]), id);
        }
        // New contents fill the free slots before the arenas grow, with
        // fresh totals and masses.
        let a = table.intern(&rows[5]);
        let b = table.intern(&rows[6]);
        assert_eq!([a.min(b), a.max(b)], [1, 3]);
        assert_eq!(table.slots(), 5);
        for (id, row) in [(a, &rows[5]), (b, &rows[6])] {
            assert_eq!(table.row(id), &row[..]);
            assert_eq!(table.find(row), Some(id));
            table.ensure_mass(id);
            assert_eq!(
                table.mass(id),
                Histogram::from_counts(table.spec, row.clone()).mass()
            );
        }
        // A row released and interned again is a new content.
        assert_eq!(table.intern(&rows[1]), 5);
        assert_eq!(table.slots(), 6);
    }

    #[test]
    fn content_table_generation_tags_follow_the_stamp() {
        let mut table = ContentTable::new(HistogramSpec::default());
        let row_a = vec![1u64; table.bins];
        let a = table.intern(&row_a);
        assert_eq!(table.gen[a as usize], 0);
        table.stamp = 3;
        let row_b = vec![2u64; table.bins];
        let b = table.intern(&row_b);
        assert_eq!(table.gen[b as usize], 3);
        // Hits do not restamp; explicit marking does.
        assert_eq!(table.intern(&row_a), a);
        assert_eq!(table.gen[a as usize], 0);
        table.mark_generation(a, 3);
        assert_eq!(table.gen[a as usize], 3);
        // A reused slot takes the stamp in force, not its old tag.
        table.release(a);
        table.stamp = 5;
        let row_c = vec![3u64; table.bins];
        assert_eq!(table.intern(&row_c), a);
        assert_eq!(table.gen[a as usize], 5);
        assert_eq!(table.gen[b as usize], 3);
    }

    #[test]
    fn flat_memo_forget_deletes_exactly_the_touching_entries() {
        let mut memo = FlatMemo::new();
        memo.track_partners();
        for a in 0..10u32 {
            for b in a..10u32 {
                memo.insert(pack_pair(a, b), (a * 100 + b) as f64);
            }
        }
        // Entries touching 3 or 7: 10 each, the shared (3,7) counted once.
        assert_eq!(memo.forget(3), 10);
        assert_eq!(memo.forget(7), 9);
        assert_eq!(memo.forget(7), 0, "nothing left to drop");
        assert_eq!(memo.len, 55 - 19);
        for a in 0..10u32 {
            for b in a..10u32 {
                let want =
                    (![3, 7].contains(&a) && ![3, 7].contains(&b)).then_some((a * 100 + b) as f64);
                assert_eq!(memo.get(pack_pair(a, b)), want, "({a},{b})");
            }
        }
        // A reused id starts with no entries and is listed afresh.
        memo.insert(pack_pair(3, 4), 1.5);
        assert_eq!(memo.forget(4), 9);
        assert_eq!(memo.get(pack_pair(3, 4)), None);
        assert_eq!(memo.forget(3), 0);
    }

    #[test]
    fn flat_memo_remove_keeps_probe_runs_reachable() {
        let mut memo = FlatMemo::new();
        let key = |i: u64| pack_pair((i % 97) as u32, (i * 31 % 1009) as u32);
        for i in 0..600 {
            memo.insert(key(i), i as f64);
        }
        let cap = memo.keys.len();
        // Delete every third key: backward shifting must leave every
        // survivor reachable from its home slot, with no tombstones.
        for i in (0..600).step_by(3) {
            assert!(memo.remove(key(i)));
            assert!(!memo.remove(key(i)), "removed twice");
        }
        assert_eq!(memo.len, 400);
        assert_eq!(memo.keys.len(), cap, "deletion never reallocates");
        for i in 0..600 {
            let want = (i % 3 != 0).then_some(i as f64);
            assert_eq!(memo.get(key(i)), want, "key {i}");
        }
        // Freed slots take new entries.
        for i in (0..600).step_by(3) {
            memo.insert(key(i), -(i as f64));
        }
        assert_eq!(memo.len, 600);
        assert_eq!(memo.get(key(300)), Some(-300.0));
    }

    #[test]
    fn flat_memo_partner_lists_stay_bounded_under_churn() {
        // One long-lived hub pairs with a stream of short-lived ids whose
        // slots are reused: the hub's list sheds its stale partners.
        let mut memo = FlatMemo::new();
        memo.track_partners();
        let hub = 0u32;
        for round in 0..2_000u32 {
            let id = 1 + round % 8;
            memo.insert(pack_pair(hub, id), round as f64);
            memo.insert(pack_pair(id, id), 0.0);
            if round >= 4 {
                let old = 1 + (round - 4) % 8;
                assert_eq!(memo.forget(old), 2, "round {round}");
            }
        }
        let p = memo.partners.as_ref().unwrap();
        let hub_list = &p.lists[hub as usize];
        assert_eq!(hub_list.iter().filter(|&&q| p.is_current(q)).count(), 4);
        assert!(
            hub_list.len() <= 16,
            "hub list kept {} partners",
            hub_list.len()
        );
        assert_eq!(memo.len, 8);
    }

    #[test]
    fn path_trie_lookup_is_non_creating_and_edges_enumerate() {
        let mut trie = PathTrie::new();
        let a = PathStep { attr: 0, code: 1 };
        let b = PathStep { attr: 1, code: 0 };
        assert_eq!(trie.lookup(&[a]), None);
        let nodes_before = trie.num_nodes();
        assert_eq!(trie.num_nodes(), nodes_before);
        let nab = trie.node_of(&[a, b]);
        assert_eq!(trie.lookup(&[a, b]), Some(nab));
        assert_eq!(trie.lookup(&[b, a]), None);
        trie.set_content(nab, 4);
        let na = trie.lookup(&[a]).unwrap();
        assert_eq!(trie.child_content(na, pack_step(b.attr, b.code)), Some(4));
        assert_eq!(trie.child_content(0, pack_step(a.attr, a.code)), None);
        let mut edges = Vec::new();
        trie.for_each_edge(0, |step, child| edges.push((step, child)));
        assert_eq!(edges, vec![(pack_step(a.attr, a.code), na)]);
    }

    #[test]
    fn path_trie_counts_holders_and_queues_orphans() {
        let mut trie = PathTrie::new();
        let a = PathStep { attr: 0, code: 1 };
        let b = PathStep { attr: 1, code: 0 };
        let (na, nab) = (trie.node_of(&[a]), trie.node_of(&[a, b]));
        trie.set_content(na, 4);
        trie.set_content(nab, 4);
        assert_eq!(trie.refs(4), 2);
        assert_eq!(trie.refs(9), 0);
        // Replacing one holder leaves the id alive; replacing the last
        // queues it as an orphan.
        trie.set_content(nab, 5);
        assert_eq!((trie.refs(4), trie.refs(5)), (1, 1));
        assert!(trie.orphans.is_empty());
        trie.set_content(na, 5);
        assert_eq!((trie.refs(4), trie.refs(5)), (0, 2));
        assert_eq!(trie.orphans, vec![4]);
        // Re-assigning a node its own content changes nothing.
        trie.set_content(na, 5);
        assert_eq!(trie.refs(5), 2);
        assert_eq!(trie.orphans, vec![4]);
    }

    #[test]
    fn resumed_engine_counts_cross_generation_reuse() {
        let s = space();
        let mut engine = SplitEngine::new(&s, FairnessCriterion::default());
        engine.record_split_evals();
        let root = Partition::root(&s);
        let parts_list = root.split(&s, 0);
        let _ = engine.best_split(&root, &[0, 1], 1).unwrap();
        let _ = engine.unfairness(&parts_list).unwrap();
        // Generation 0: nothing predates the run.
        assert_eq!(engine.stats().delta_reused_histograms, 0);
        let mut parts = engine.into_parts();
        parts.begin_generation();
        let mut resumed = SplitEngine::resume(&s, parts);
        let u = resumed.unfairness(&parts_list).unwrap();
        let stats = resumed.stats();
        // Every histogram came from the previous generation, counted once
        // (the gender split has two distinct contents), and nothing was
        // rebuilt or recomputed.
        assert_eq!(stats.delta_reused_histograms, 2);
        assert_eq!(stats.histograms_built, 0);
        assert_eq!(stats.emd_calls, 0);
        let again = resumed.unfairness(&parts_list).unwrap();
        assert_eq!(u.to_bits(), again.to_bits());
        assert_eq!(resumed.stats().delta_reused_histograms, 2, "counted once");
    }

    #[test]
    fn delta_best_split_replays_the_recorded_summaries() {
        let s = space();
        let crit = FairnessCriterion::default();
        let mut engine = SplitEngine::new(&s, crit);
        engine.record_split_evals();
        let root = Partition::root(&s);
        let (full, scored_full) = engine.best_split(&root, &[0, 1], 1).unwrap();
        let full = full.unwrap();
        let mut parts = engine.into_parts();
        parts.begin_generation();
        let mut resumed = SplitEngine::resume(&s, parts);
        let (delta, scored_delta) = resumed.delta_best_split(0, &[0, 1], 1).unwrap().unwrap();
        let delta = delta.unwrap();
        assert_eq!((delta.attr, scored_delta), (full.attr, scored_full));
        assert_eq!(delta.value.to_bits(), full.value.to_bits());
        assert_eq!(delta.child_ids, full.child_ids);
        assert_eq!(resumed.stats().histograms_built, 0, "all from cache");
        // The min-size skip replays from summaries too.
        let (none, zero) = resumed.delta_best_split(0, &[0, 1], 5).unwrap().unwrap();
        assert!(none.is_none());
        assert_eq!(zero, 0);
        // A node without summaries asks for its rows; the real scan over
        // them agrees with a fresh engine (and records the summaries).
        let child = root.split(&s, 0).remove(0);
        let node = resumed.paths.lookup(&child.path).unwrap();
        assert!(resumed.delta_best_split(node, &[1], 1).unwrap().is_none());
        let (via_delta, _) = resumed.best_split(&child, &[1], 1).unwrap();
        assert!(resumed.delta_best_split(node, &[1], 1).unwrap().is_some());
        let mut fresh = SplitEngine::new(&s, crit);
        let (via_full, _) = fresh.best_split(&child, &[1], 1).unwrap();
        match (via_delta, via_full) {
            (Some(d), Some(f)) => assert_eq!(d.value.to_bits(), f.value.to_bits()),
            (d, f) => panic!("divergent fallback: {d:?} vs {f:?}"),
        }
    }

    #[test]
    fn apply_event_patches_dirty_paths_and_compact_drops_orphans() {
        let s = space();
        let crit = FairnessCriterion::default();
        let mut engine = SplitEngine::new(&s, crit);
        engine.record_split_evals();
        let root = Partition::root(&s);
        let _ = engine.best_split(&root, &[0, 1], 1).unwrap();
        let _ = engine.unfairness(&root.split(&s, 0)).unwrap();
        let mut parts = engine.into_parts();
        parts.begin_generation();

        // Insert one row: F/x with a score in some bin.
        let bin = parts.bin_of(0.3);
        parts.push_row_bin(bin);
        let touched = parts.apply_event(&[0, 0], CacheAdjust::Insert { bin });
        // Dirty paths with cached contents: the gender=F and noise=x
        // children (the root node exists but was never given a content).
        assert_eq!(touched, 2);
        let dropped = parts.free_orphans();
        // Root and F contents were re-interned; their old ids orphaned,
        // dropping the memoized distances that touched them.
        assert!(dropped > 0, "orphaned EMD entries must be dropped");
        parts.check_invariants();

        // The patched caches now agree with a fresh engine on the mutated
        // space, bit for bit.
        let mut mutated = s.clone();
        mutated.insert_row(&["F", "x"], 0.3).unwrap();
        let mut resumed = SplitEngine::resume(&mutated, parts);
        let mut fresh = SplitEngine::new(&mutated, crit);
        let new_root = Partition::root(&mutated);
        let (d, sd) = resumed.delta_best_split(0, &[0, 1], 1).unwrap().unwrap();
        let (f, sf) = fresh.best_split(&new_root, &[0, 1], 1).unwrap();
        let (d, f) = (d.unwrap(), f.unwrap());
        assert_eq!((d.attr, sd), (f.attr, sf));
        assert_eq!(d.value.to_bits(), f.value.to_bits());
        let ud = resumed.unfairness(&new_root.split(&mutated, 0)).unwrap();
        let uf = fresh.unfairness(&new_root.split(&mutated, 0)).unwrap();
        assert_eq!(ud.to_bits(), uf.to_bits());

        // A same-bin rescore is a recognized no-op.
        let mut parts = resumed.into_parts();
        parts.begin_generation();
        assert_eq!(
            parts.apply_event(
                &[0, 0],
                CacheAdjust::Rescore {
                    old_bin: bin,
                    new_bin: bin
                }
            ),
            0
        );
    }
}
