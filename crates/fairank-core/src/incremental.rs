//! Incremental (delta) re-evaluation: re-run `QUANTIFY` after a small
//! space mutation in O(changed paths) instead of O(dataset), with results
//! bit-identical to a full recomputation.
//!
//! The paper frames FaiRank as an *interactive* auditor of live
//! marketplaces, yet a from-scratch run rebuilds everything a mutation
//! didn't touch: the bin-code cache (O(n)), one counting pass per
//! (node, attribute) candidate (O(n · |A|) per tree level), every
//! histogram interning, and — via an empty memo — every EMD. A
//! [`DeltaEngine`] keeps the PR 6 data-oriented arenas alive across
//! *generations* instead:
//!
//! * **Mutation API** — [`RankingSpace`] row inserts/removes/rescores
//!   arrive as a [`SpaceDelta`]; each op recomputes bin codes for the
//!   affected row only.
//! * **Dirty-path propagation** — a touched row lives in exactly the
//!   partitions whose `(attr, code)` path constraints it satisfies, so
//!   `EngineParts::apply_event` walks only the matching `PathTrie`
//!   edges and re-derives each cached `ContentTable` histogram by
//!   adjusting one bin, never rescanning rows.
//! * **Targeted memo invalidation** — content ids are stable and the
//!   `PathTrie` counts the nodes holding each one. A patch that leaves an
//!   id held by no node makes it an orphan; at the end of the batch
//!   `EngineParts::free_orphans` deletes exactly the memoized EMDs that
//!   touch an orphan (found through per-content partner lists, not a
//!   table scan) and recycles its arena slot. The cost follows what
//!   changed, not the size of the memo, and distances between untouched
//!   distinct pairs survive.
//! * **Split-summary replay** — the previous run recorded, per evaluated
//!   node and attribute, the per-code child sizes; membership events
//!   patch them, so `delta_best_split` reproduces `mostUnfair`'s exact
//!   candidate set and skip decisions without any row scan, falling back
//!   to (and re-recording) the real counting pass wherever the caches
//!   can't answer — e.g. a node the previous tree never evaluated or a
//!   brand-new attribute value.
//! * **Rows on demand** — the replay builds a compact tree of split
//!   decisions, trie nodes and content ids, never a tree of row vectors; a
//!   node's rows are derived from its parent's only for that fallback, and
//!   [`DeltaEngine::requantify`] materializes the partitions in one pass
//!   at the end ([`DeltaEngine::requantify_summary`] skips it).
//! * **Leaf-distance table** — the final fold keeps the last completed
//!   run's leaves (by trie node) and their pairwise distances; a pair of
//!   leaves no event has dirtied since reuses its distance.
//!
//! Bitwise identity holds because every aggregated value the search
//! compares is a pure function of interned histogram *contents* (count
//! vectors), which the patches keep exactly equal to what a fresh build
//! over the mutated space would intern — only the id numbering may
//! differ, and nothing numeric depends on it. The differential proptest
//! suite (`tests/incremental_equivalence.rs`) pins this under both EMD
//! metrics, along with the guarantee that a delta run never computes
//! more EMDs than the full recompute it replaces.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::cancel::RunBudget;
use crate::engine::{CacheAdjust, CandidateSplit, EngineParts, LeafTable, SplitEngine};
use crate::error::{CoreError, Result};
use crate::partition::{Partition, PartitioningTree, PathStep};
use crate::quantify::{Quantify, QuantifyOutcome, SearchStats, SplitEvaluation};
use crate::space::{DeltaOp, RankingSpace, SpaceDelta};

/// What one [`DeltaEngine::apply`] call did to the caches — the
/// O(changed paths) work that replaced an O(dataset) rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Mutation ops applied.
    pub events: usize,
    /// Cached path histograms re-derived by bin adjustment (0 before the
    /// first run, when there are no caches to patch, and for same-bin
    /// rescores, which are recognized no-ops).
    pub histograms_rebuilt: usize,
    /// EMD memo entries dropped by targeted invalidation (entries whose
    /// content ids were orphaned by the patches).
    pub emd_entries_dropped: usize,
}

/// One run's result without its partitions: what a re-audit round reads
/// ([`DeltaEngine::requantify_summary`]). Every field equals the
/// corresponding part of [`DeltaEngine::requantify`]'s outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// `unfairness(P, f)` of the final partitioning.
    pub unfairness: f64,
    /// Partitions in the final partitioning (the tree's leaves).
    pub num_partitions: usize,
    /// Work counters.
    pub stats: SearchStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Wall-clock time of the final leaf fold, part of `elapsed`.
    pub fold_elapsed: Duration,
}

/// A `QUANTIFY` searcher that owns its ranking space and keeps the split
/// engine's caches alive across mutations.
///
/// ```text
/// let mut delta = DeltaEngine::new(space, Quantify::new(criterion))?;
/// let before = delta.requantify()?;            // full build, caches warm
/// delta.apply(&SpaceDelta::new().rescore(3, 0.9))?;  // O(changed paths)
/// let after = delta.requantify()?;             // delta re-run, bit-identical
/// ```
///
/// The search configuration is honored exactly as [`Quantify::run_space`]
/// would — same split evaluation, minimum partition size, depth cap, and
/// cancellation budget — except that the naive-evaluation flag is ignored
/// (a delta run is engine-backed by definition; results are bit-identical
/// either way). The criterion is fixed for the engine's lifetime:
/// re-fitting the histogram range would shift every bin and invalidate
/// every cache, which is exactly what this type exists to avoid.
#[derive(Debug)]
pub struct DeltaEngine {
    space: RankingSpace,
    search: Quantify,
    /// The detached caches between runs; `None` until the first
    /// [`Self::requantify`] builds them.
    parts: Option<EngineParts>,
    /// Memo entries dropped by orphan freeing since the last completed run,
    /// surfaced as the next outcome's `delta_invalidated_emds`.
    pending_invalidated: usize,
    /// The last completed run's tree in compact form, indexed by its node
    /// ids — the clean-subtree skip's source of structure and stat
    /// contributions, and the source of [`Self::requantify`]'s partitions.
    /// Dropped on a cancelled run (the recording is incomplete), which only
    /// costs the next run its skips.
    prev: Option<Vec<Node>>,
    /// The last completed run's leaves and their pairwise distances, the
    /// next fold's source of unchanged pairs. Cleared with `prev`.
    leaf_table: LeafTable,
}

/// One node of a replayed tree, in compact form: no row set, only what the
/// replay and the next run's clean-subtree skip need. Node ids are
/// assigned exactly as [`PartitioningTree::split_node`] would assign them
/// (children of a split get consecutive ids, in depth-first split order),
/// so the materialized tree has the same numbering.
#[derive(Debug, Clone)]
struct Node {
    /// The parent node, `None` for the root.
    parent: Option<usize>,
    /// The value code of the step from the parent (on the parent's split
    /// attribute); 0 for the root.
    code: u32,
    /// The engine trie node of this partition's path. Trie nodes are never
    /// freed, so the id names the same path in every later run.
    trie: u32,
    /// The interned content id of the partition's histogram, taken from
    /// the parent's winning candidate or, for a copied node, from the trie.
    /// Unknown (and unused) for the root.
    content: Option<u32>,
    split_attr: Option<usize>,
    /// The children's ids, ascending by code — the order
    /// [`Partition::split`] and a candidate's `child_ids` use.
    children: Range<usize>,
    /// Cumulative `[nodes_evaluated, candidate_splits, splits_performed]`
    /// contributions of the recursion rooted here (so a structurally copied
    /// subtree adds stat-exact counts without re-evaluating anything).
    stats: [usize; 3],
    /// The node's recorded `mostUnfair` evaluation, for candidate reuse
    /// when the node itself is clean on the next run.
    eval: Option<PrevEval>,
}

impl Node {
    fn root() -> Node {
        Node {
            parent: None,
            code: 0,
            trie: 0,
            content: None,
            split_attr: None,
            children: 0..0,
            stats: [0; 3],
            eval: None,
        }
    }
}

/// One node's recorded `mostUnfair` outcome: how many candidates scored,
/// and the winner as `(attr, value bits, child codes)`. A clean node's
/// evaluation is a pure function of its (bit-unchanged) subtree contents,
/// so the next replay reconstructs the winner from this instead of
/// re-scoring every attribute — child codes rather than content ids
/// because a freed content id's slot may be reused by another content.
#[derive(Debug, Clone)]
struct PrevEval {
    scored: usize,
    candidate: Option<(usize, f64, Vec<u32>)>,
}

impl PrevEval {
    fn of(candidate: Option<&CandidateSplit>, scored: usize) -> PrevEval {
        PrevEval {
            scored,
            candidate: candidate.map(|c| (c.attr, c.value, c.child_codes.clone())),
        }
    }
}

/// One replay's state: the last completed tree (`prev`, if any), the tree
/// being built (`nodes`), and the row sets materialized on demand (`rows`,
/// by node id; empty = not materialized — no node is empty).
struct Replay<'p> {
    prev: Option<&'p [Node]>,
    nodes: Vec<Node>,
    rows: Vec<Vec<u32>>,
}

impl Replay<'_> {
    /// The previous run's recorded evaluation for `prev_id`, if any.
    fn prev_eval(&self, prev_id: Option<usize>) -> Option<PrevEval> {
        self.prev?.get(prev_id?)?.eval.clone()
    }

    /// Records a split of `node` on `attr` into one child per
    /// `(code, trie node, content)`, returning the children's ids.
    fn split(
        &mut self,
        node: usize,
        attr: usize,
        children: impl Iterator<Item = (u32, u32, u32)>,
    ) -> Range<usize> {
        let first = self.nodes.len();
        for (code, trie, content) in children {
            self.nodes.push(Node {
                parent: Some(node),
                code,
                trie,
                content: Some(content),
                ..Node::root()
            });
        }
        let ids = first..self.nodes.len();
        let n = &mut self.nodes[node];
        n.split_attr = Some(attr);
        n.children = ids.clone();
        ids
    }

    /// The node's partition, its rows materialized on demand: the parent's
    /// rows split by code, exactly as [`Partition::split`] would (the root
    /// holds every row). The rows stay cached for the rest of the replay;
    /// hand the partition back through [`Self::restore`].
    fn take_partition(&mut self, space: &RankingSpace, node: usize) -> Partition {
        self.materialize(space, node);
        let mut path = Vec::new();
        let mut at = node;
        while let Some(parent) = self.nodes[at].parent {
            path.push(PathStep {
                attr: self.nodes[parent].split_attr.expect("a parent is split"),
                code: self.nodes[at].code,
            });
            at = parent;
        }
        path.reverse();
        Partition {
            rows: std::mem::take(&mut self.rows[node]),
            path,
        }
    }

    fn restore(&mut self, node: usize, partition: Partition) {
        self.rows[node] = partition.rows;
    }

    fn materialize(&mut self, space: &RankingSpace, node: usize) {
        if self.rows.len() < self.nodes.len() {
            self.rows.resize_with(self.nodes.len(), Vec::new);
        }
        if !self.rows[node].is_empty() {
            return;
        }
        let Some(parent) = self.nodes[node].parent else {
            self.rows[node] = space.all_rows();
            return;
        };
        self.materialize(space, parent);
        let attr = self.nodes[parent].split_attr.expect("a parent is split");
        let codes = &space.attributes()[attr].codes;
        let children = self.nodes[parent].children.clone();
        let mut child_of = vec![usize::MAX; space.attributes()[attr].cardinality()];
        for c in children {
            child_of[self.nodes[c].code as usize] = c;
        }
        let rows = std::mem::take(&mut self.rows[parent]);
        for &row in &rows {
            self.rows[child_of[codes[row as usize] as usize]].push(row);
        }
        self.rows[parent] = rows;
    }
}

/// The compact tree's leaves as `(trie node, content id)`, left to right
/// (the order of [`PartitioningTree::leaf_ids`]).
fn leaves(nodes: &[Node]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut stack = vec![0];
    while let Some(id) = stack.pop() {
        let node = &nodes[id];
        if node.children.is_empty() {
            out.push((node.trie, node.content.expect("a split child has a content")));
        } else {
            stack.extend(node.children.clone().rev());
        }
    }
    out
}

impl DeltaEngine {
    /// An incremental searcher over `space` driven by `search`'s
    /// configuration.
    pub fn new(space: RankingSpace, search: Quantify) -> Result<Self> {
        if space.num_individuals() == 0 {
            return Err(CoreError::EmptyInput);
        }
        Ok(DeltaEngine {
            space,
            search,
            parts: None,
            pending_invalidated: 0,
            prev: None,
            leaf_table: LeafTable::default(),
        })
    }

    /// The current state of the mutating space.
    pub fn space(&self) -> &RankingSpace {
        &self.space
    }

    /// The search configuration every run replays.
    pub fn search(&self) -> &Quantify {
        &self.search
    }

    /// Mutation generation: 0 until the first mutation is applied to live
    /// caches, then one increment per [`Self::apply`] call that patches
    /// them.
    pub fn generation(&self) -> u32 {
        self.parts.as_ref().map_or(0, EngineParts::generation)
    }

    /// Replaces the cancellation budget for subsequent runs (the serving
    /// tier re-arms per request).
    pub fn set_run_budget(&mut self, budget: RunBudget) {
        self.search = self.search.clone().with_run_budget(budget);
    }

    /// Applies a batch of mutations: each op updates the space (bin codes
    /// recomputed for the affected row only), patches every dirty cached
    /// path, and finally frees the contents the batch orphaned together
    /// with their EMD memo entries.
    /// Ops apply sequentially; if one fails (bad row index, non-finite
    /// score, emptying the space), earlier ops stay applied, their orphans
    /// are freed and counted as for a successful batch, and the space and
    /// caches remain mutually consistent.
    pub fn apply(&mut self, delta: &SpaceDelta) -> Result<DeltaReport> {
        let mut report = DeltaReport::default();
        let Some(parts) = self.parts.as_mut() else {
            // No caches yet: plain space mutation; the first run builds
            // everything fresh anyway.
            self.space.apply_delta(delta)?;
            report.events = delta.len();
            return Ok(report);
        };
        parts.begin_generation();
        let applied = delta.ops.iter().try_for_each(|op| {
            report.histograms_rebuilt += Self::apply_op(&mut self.space, parts, op)?;
            report.events += 1;
            Ok(())
        });
        let dropped = parts.free_orphans();
        self.pending_invalidated += dropped;
        report.emd_entries_dropped = dropped;
        applied.map(|()| report)
    }

    /// One mutation op: the space change, then the dirty-path patches.
    /// Returns the cached histograms rebuilt.
    fn apply_op(space: &mut RankingSpace, parts: &mut EngineParts, op: &DeltaOp) -> Result<usize> {
        // A removal or rescore captures the row's codes before the space
        // call, which validates the index before any cache is touched.
        let codes_of = |space: &RankingSpace, r: usize| -> Option<Vec<u32>> {
            (r < space.num_individuals())
                .then(|| space.attributes().iter().map(|a| a.codes[r]).collect())
        };
        Ok(match op {
            DeltaOp::Insert { labels, score } => {
                let codes = space.insert_row(labels, *score)?;
                let bin = parts.bin_of(*score);
                parts.push_row_bin(bin);
                parts.apply_event(&codes, CacheAdjust::Insert { bin })
            }
            DeltaOp::Remove { row } => {
                let r = *row as usize;
                let codes = codes_of(space, r);
                space.remove_row(r)?;
                let codes = codes.expect("index validated by remove_row");
                let bin = parts.remove_row_bin(r);
                parts.apply_event(&codes, CacheAdjust::Remove { bin })
            }
            DeltaOp::Rescore { row, score } => {
                let r = *row as usize;
                let codes = codes_of(space, r);
                space.rescore_row(r, *score)?;
                let codes = codes.expect("index validated by rescore_row");
                let old_bin = parts.row_bin(r);
                let new_bin = parts.bin_of(*score);
                parts.set_row_bin(r, new_bin);
                parts.apply_event(&codes, CacheAdjust::Rescore { old_bin, new_bin })
            }
        })
    }

    /// Runs `QUANTIFY` over the current space. The first call builds the
    /// caches from scratch (recording split summaries); later calls replay
    /// the search through the surviving caches, reconstructing every
    /// `mostUnfair` from recorded summaries where possible. The outcome —
    /// tree, partitions, unfairness bits, and the search-level counters
    /// (`nodes_evaluated`, `splits_performed`, `candidate_splits`) — is
    /// identical to [`Quantify::run_space`] on an equal space; only the
    /// cache-level counters differ, reflecting the reuse.
    ///
    /// This is [`Self::requantify_summary`]'s replay plus one pass that
    /// materializes the tree's row sets.
    pub fn requantify(&mut self) -> Result<QuantifyOutcome> {
        let start = Instant::now();
        let run = self.run(start)?;
        let tree = self.materialize_tree();
        let partitions = tree.leaf_partitions();
        Ok(QuantifyOutcome {
            tree,
            partitions,
            unfairness: run.unfairness,
            stats: run.stats,
            elapsed: start.elapsed(),
        })
    }

    /// [`Self::requantify`] without the partitions: the same replay, the
    /// same unfairness bits and counters, but no row set is materialized
    /// unless a node's split summaries cannot answer its evaluation.
    pub fn requantify_summary(&mut self) -> Result<RunSummary> {
        self.run(Instant::now())
    }

    /// One replay started at `start`. A completed run leaves its compact
    /// tree in `prev` (none at depth 0, whose tree is the root alone).
    fn run(&mut self, start: Instant) -> Result<RunSummary> {
        if self.search.max_depth() == Some(0) {
            // Depth 0 replays `run_space`'s trivial branch verbatim — no
            // engine, no caches touched.
            let root = Partition::root(&self.space);
            let fold = Instant::now();
            let unfairness = self
                .search
                .criterion()
                .unfairness(std::slice::from_ref(&root), self.space.scores())?;
            return Ok(RunSummary {
                unfairness,
                num_partitions: 1,
                stats: SearchStats {
                    histograms_built: 1,
                    ..SearchStats::default()
                },
                elapsed: start.elapsed(),
                fold_elapsed: fold.elapsed(),
            });
        }
        let mut engine = match self.parts.take() {
            Some(parts) => SplitEngine::resume(&self.space, parts),
            None => {
                let mut engine = SplitEngine::new(&self.space, *self.search.criterion());
                engine.record_split_evals();
                engine
            }
        };
        engine.set_run_budget(self.search.run_budget());
        engine.seed_invalidated_emds(self.pending_invalidated);
        let prev = self.prev.take();
        let mut replay = Replay {
            prev: prev.as_deref(),
            nodes: Vec::new(),
            rows: Vec::new(),
        };
        let mut table = std::mem::take(&mut self.leaf_table);
        let mut stats = SearchStats::default();
        let result = match self.delta_search(&mut engine, &mut stats, &mut replay, &mut table) {
            Ok((unfairness, num_partitions, fold_elapsed)) => Ok(RunSummary {
                unfairness,
                num_partitions,
                stats,
                elapsed: start.elapsed(),
                fold_elapsed,
            }),
            Err(CoreError::Cancelled { reason, .. }) => {
                Quantify::merge_engine_stats(&mut stats, engine.stats());
                Err(CoreError::Cancelled { reason, stats })
            }
            Err(e) => Err(e),
        };
        // The caches stay valid even when the run was cancelled mid-way:
        // a search only ever *adds* pure entries to them.
        let mut parts = engine.into_parts();
        if result.is_ok() {
            self.pending_invalidated = 0;
            // The completed replay re-validated (or copied) everything the
            // accumulated mutations had dirtied.
            parts.clear_dirty();
            self.prev = Some(replay.nodes);
        } else {
            table.clear();
        }
        self.leaf_table = table;
        self.parts = Some(parts);
        result
    }

    /// The last completed run's tree with its row sets: the compact tree's
    /// splits replayed through real [`Partition::split`]s in the replay's
    /// own depth-first order, so node ids match.
    fn materialize_tree(&self) -> PartitioningTree {
        let mut tree = PartitioningTree::new(Partition::root(&self.space));
        let Some(nodes) = self.prev.as_deref() else {
            return tree;
        };
        let mut stack = vec![0];
        while let Some(id) = stack.pop() {
            let node = &nodes[id];
            let Some(attr) = node.split_attr else {
                continue;
            };
            let children = tree.node(id).partition.split(&self.space, attr);
            let ids = tree.split_node(id, attr, children);
            debug_assert_eq!(ids, node.children.clone().collect::<Vec<_>>());
            stack.extend(node.children.clone().rev());
        }
        tree
    }

    /// The mirror of `Quantify::grow_tree` and its final fold, with
    /// `delta_best_split` in place of the counting-pass `best_split`, over
    /// the compact tree.
    /// Everything else — sibling sets, split-acceptance values, the final
    /// leaf unfairness — runs through the same engine calls in the same
    /// order, so accepted trees and every compared value reproduce the
    /// from-scratch bits. Returns the unfairness, the number of leaves and
    /// the fold's wall-clock time.
    fn delta_search(
        &self,
        engine: &mut SplitEngine<'_>,
        stats: &mut SearchStats,
        replay: &mut Replay<'_>,
        table: &mut LeafTable,
    ) -> Result<(f64, usize, Duration)> {
        let all_attrs: Vec<usize> = (0..self.space.attributes().len()).collect();
        let min_size = self.search.min_partition_size();
        replay.nodes.push(Node::root());

        let (candidate, scored) =
            self.candidate_for(engine, replay, 0, &all_attrs, min_size, Some(0))?;
        stats.candidate_splits += scored;
        replay.nodes[0].eval = Some(PrevEval::of(candidate.as_ref(), scored));
        let Some(candidate) = candidate else {
            let fold = Instant::now();
            let root = Partition::root(&self.space);
            let unfairness = engine.unfairness(std::slice::from_ref(&root))?;
            Quantify::merge_engine_stats(stats, engine.stats());
            table.clear();
            return Ok((unfairness, 1, fold.elapsed()));
        };

        let first_attr = candidate.attr;
        let remaining: Vec<usize> = all_attrs
            .iter()
            .copied()
            .filter(|&a| a != first_attr)
            .collect();
        let ids = self.split(engine, replay, 0, &candidate);
        stats.splits_performed += 1;

        let prev_children =
            Self::match_prev(replay.prev, Some(0), first_attr, &candidate.child_codes);
        if let (Some(pc), true) = (prev_children.as_ref(), engine.subtree_clean(0)) {
            // Zero effective churn: the whole previous tree replays
            // verbatim — copy it.
            self.copy_group(engine, replay, ids, stats, pc);
        } else {
            for (i, id) in ids.enumerate() {
                let sibling_ids = candidate.sibling_ids(i);
                self.delta_rec(
                    engine,
                    replay,
                    id,
                    candidate.child_ids[i],
                    &sibling_ids,
                    &remaining,
                    1,
                    stats,
                    prev_children.as_ref().map(|pc| pc[i]),
                )?;
            }
        }

        let fold = Instant::now();
        let leaves = leaves(&replay.nodes);
        let unfairness = engine.fold_leaves(&leaves, table)?;
        Quantify::merge_engine_stats(stats, engine.stats());
        Ok((unfairness, leaves.len(), fold.elapsed()))
    }

    /// Records the accepted split of `node` into `candidate`'s children.
    fn split(
        &self,
        engine: &SplitEngine<'_>,
        replay: &mut Replay<'_>,
        node: usize,
        candidate: &CandidateSplit,
    ) -> Range<usize> {
        let trie = replay.nodes[node].trie;
        let attr = candidate.attr;
        let children = candidate
            .child_codes
            .iter()
            .zip(&candidate.child_ids)
            .map(|(&code, &id)| (code, engine.child_node(trie, attr, code), id));
        replay.split(node, attr, children)
    }

    /// The node's `mostUnfair` winner: reconstructed from the previous
    /// run's recorded evaluation when the node's subtree is clean (its
    /// cached contents are bit-unchanged, so the recorded winner, value
    /// bits, and scored count are exactly what a live evaluation would
    /// produce), otherwise evaluated through [`SplitEngine::delta_best_split`].
    /// A cache miss inside the reconstruction (a probe the trie can't
    /// answer) falls back to the live evaluation too, and a live evaluation
    /// the split summaries can't answer materializes the node's rows for
    /// the counting pass.
    fn candidate_for(
        &self,
        engine: &mut SplitEngine<'_>,
        replay: &mut Replay<'_>,
        node: usize,
        avail: &[usize],
        min_size: usize,
        prev_id: Option<usize>,
    ) -> Result<(Option<CandidateSplit>, usize)> {
        let trie = replay.nodes[node].trie;
        if let Some(ev) = replay.prev_eval(prev_id) {
            if engine.subtree_clean(trie) {
                match &ev.candidate {
                    None => return Ok((None, ev.scored)),
                    Some((attr, value, codes)) => {
                        if let Some(c) = engine.rebuild_candidate(trie, *attr, *value, codes) {
                            return Ok((Some(c), ev.scored));
                        }
                    }
                }
            }
        }
        if let Some(found) = engine.delta_best_split(trie, avail, min_size)? {
            return Ok(found);
        }
        let partition = replay.take_partition(&self.space, node);
        let found = engine.best_split(&partition, avail, min_size);
        replay.restore(node, partition);
        found
    }

    /// Matches a live split (attr + ascending child codes) against the
    /// previous tree's node `prev_id`: `Some(previous child ids)` when the
    /// previous run split this node identically, so children correspond
    /// pairwise.
    fn match_prev(
        prev: Option<&[Node]>,
        prev_id: Option<usize>,
        attr: usize,
        child_codes: &[u32],
    ) -> Option<Vec<usize>> {
        let nodes = prev?;
        let p = &nodes[prev_id?];
        (p.split_attr == Some(attr)
            && p.children.len() == child_codes.len()
            && p.children
                .clone()
                .zip(child_codes)
                .all(|(c, &code)| nodes[c].code == code))
        .then(|| p.children.clone().collect())
    }

    /// Copies every member of a clean sibling group from the previous
    /// tree: stat contributions carry over cumulatively.
    fn copy_group(
        &self,
        engine: &SplitEngine<'_>,
        replay: &mut Replay<'_>,
        ids: Range<usize>,
        stats: &mut SearchStats,
        prev_children: &[usize],
    ) {
        let prev_nodes = replay.prev.expect("a matched group implies a previous run");
        for (id, &prev_id) in ids.zip(prev_children) {
            let ps = prev_nodes[prev_id].stats;
            stats.nodes_evaluated += ps[0];
            stats.candidate_splits += ps[1];
            stats.splits_performed += ps[2];
            Self::copy_subtree(engine, replay, id, prev_id);
        }
    }

    /// Structurally copies the previous run's subtree rooted at `prev_id`
    /// onto the (currently leaf) new-tree node `node`. The caller has
    /// proved the subtree clean, so every split decision beneath it is
    /// bit-unchanged and every node keeps its trie node and content: no
    /// candidate re-evaluation, no memo probe, no row set.
    fn copy_subtree(engine: &SplitEngine<'_>, replay: &mut Replay<'_>, node: usize, prev_id: usize) {
        let prev_nodes = replay.prev.expect("copy requires a previous run");
        let prev = &prev_nodes[prev_id];
        let n = &mut replay.nodes[node];
        n.stats = prev.stats;
        n.eval = prev.eval.clone();
        let Some(attr) = prev.split_attr else {
            return;
        };
        let children = prev.children.clone().map(|c| {
            let child = &prev_nodes[c];
            (child.code, child.trie, engine.content_at(child.trie))
        });
        let ids = replay.split(node, attr, children);
        for (id, prev_child) in ids.zip(prev.children.clone()) {
            Self::copy_subtree(engine, replay, id, prev_child);
        }
    }

    /// The mirror of `Quantify::quantify_rec_engine` (Algorithm 1's
    /// recursive body), summary-replayed. The node's and its siblings'
    /// histogram content ids arrive from the parent's winning candidate
    /// (`Partition::split` and the candidate's `child_ids` both enumerate
    /// nonempty codes in ascending order), so the split-acceptance values
    /// come straight from id-level evaluation — no per-node trie walks, no
    /// sibling partition clones. Every compared value is a pure function
    /// of content ids, so the replay reproduces the from-scratch bits.
    #[allow(clippy::too_many_arguments)]
    fn delta_rec(
        &self,
        engine: &mut SplitEngine<'_>,
        replay: &mut Replay<'_>,
        node: usize,
        current_id: u32,
        sibling_ids: &[u32],
        avail: &[usize],
        depth: usize,
        stats: &mut SearchStats,
        prev_id: Option<usize>,
    ) -> Result<()> {
        // Record this subtree's cumulative counter contributions so a
        // future clean-subtree copy can add them without re-evaluating.
        let snap = [
            stats.nodes_evaluated,
            stats.candidate_splits,
            stats.splits_performed,
        ];
        let result = self.delta_rec_inner(
            engine,
            replay,
            node,
            current_id,
            sibling_ids,
            avail,
            depth,
            stats,
            prev_id,
        );
        replay.nodes[node].stats = [
            stats.nodes_evaluated - snap[0],
            stats.candidate_splits - snap[1],
            stats.splits_performed - snap[2],
        ];
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn delta_rec_inner(
        &self,
        engine: &mut SplitEngine<'_>,
        replay: &mut Replay<'_>,
        node: usize,
        current_id: u32,
        sibling_ids: &[u32],
        avail: &[usize],
        depth: usize,
        stats: &mut SearchStats,
        prev_id: Option<usize>,
    ) -> Result<()> {
        if avail.is_empty() {
            return Ok(());
        }
        if self.search.max_depth().is_some_and(|d| depth >= d) {
            return Ok(());
        }
        engine.check_budget()?;
        stats.nodes_evaluated += 1;

        let (candidate, scored) = self.candidate_for(
            engine,
            replay,
            node,
            avail,
            self.search.min_partition_size(),
            prev_id,
        )?;
        stats.candidate_splits += scored;
        replay.nodes[node].eval = Some(PrevEval::of(candidate.as_ref(), scored));
        let Some(candidate) = candidate else {
            return Ok(());
        };

        let (current_val, children_val) = match self.search.split_eval() {
            SplitEvaluation::PaperSiblings => {
                let cur = engine.versus_ids(current_id, sibling_ids)?;
                let ch = engine.children_versus_siblings_ids(&candidate, sibling_ids)?;
                (cur, ch)
            }
            SplitEvaluation::Holistic => {
                engine.holistic_values_ids(sibling_ids, current_id, &candidate)?
            }
        };

        if !self
            .search
            .criterion()
            .objective
            .is_better(children_val, current_val)
        {
            return Ok(());
        }

        let attr = candidate.attr;
        debug_assert!(candidate.child_ids.len() >= 2);
        let remaining: Vec<usize> = avail.iter().copied().filter(|&a| a != attr).collect();
        let ids = self.split(engine, replay, node, &candidate);
        stats.splits_performed += 1;

        // Clean-subtree skip: when no mutation touched any row of this
        // node (so none of its children either) and the previous run split
        // it identically, every value the recursion below would compare is
        // a pure function of bit-unchanged histogram contents — each
        // child's accept decision only consults the group itself and its
        // own descendants. The previous subtrees therefore replay
        // verbatim; copy them instead.
        let prev_children = Self::match_prev(replay.prev, prev_id, attr, &candidate.child_codes);
        if let Some(pc) = prev_children.as_ref() {
            if engine.subtree_clean(replay.nodes[node].trie) {
                self.copy_group(engine, replay, ids, stats, pc);
                return Ok(());
            }
        }

        for (i, id) in ids.enumerate() {
            let new_sibling_ids = candidate.sibling_ids(i);
            self.delta_rec(
                engine,
                replay,
                id,
                candidate.child_ids[i],
                &new_sibling_ids,
                &remaining,
                depth + 1,
                stats,
                prev_children.as_ref().map(|pc| pc[i]),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::emd::{Emd, EmdBackendKind};
    use crate::engine::Footprint;
    use crate::fairness::{Aggregator, FairnessCriterion, Objective};
    use crate::space::ProtectedAttribute;

    fn churn_space(n: usize) -> RankingSpace {
        let genders: Vec<&str> = (0..n).map(|i| if i % 2 == 0 { "F" } else { "M" }).collect();
        let regions: Vec<String> = (0..n).map(|i| format!("r{}", i % 3)).collect();
        let region_refs: Vec<&str> = regions.iter().map(String::as_str).collect();
        let scores: Vec<f64> = (0..n)
            .map(|i| {
                let base = 0.1 + (i % 7) as f64 * 0.1;
                if i % 2 == 0 {
                    base * 0.6
                } else {
                    base
                }
            })
            .collect();
        RankingSpace::new(
            vec![
                ProtectedAttribute::from_values("gender", &genders),
                ProtectedAttribute::from_values("region", &region_refs),
            ],
            scores,
        )
        .unwrap()
    }

    fn assert_outcomes_bitwise_equal(delta: &QuantifyOutcome, full: &QuantifyOutcome) {
        assert_eq!(delta.unfairness.to_bits(), full.unfairness.to_bits());
        assert_eq!(delta.partitions, full.partitions);
        assert_eq!(delta.tree, full.tree);
        assert_eq!(delta.stats.nodes_evaluated, full.stats.nodes_evaluated);
        assert_eq!(delta.stats.splits_performed, full.stats.splits_performed);
        assert_eq!(delta.stats.candidate_splits, full.stats.candidate_splits);
    }

    #[test]
    fn first_requantify_matches_plain_quantify() {
        let space = churn_space(60);
        let search = Quantify::default();
        let mut engine = DeltaEngine::new(space.clone(), search.clone()).unwrap();
        let delta = engine.requantify().unwrap();
        let full = search.run_space(&space).unwrap();
        assert_outcomes_bitwise_equal(&delta, &full);
        // A from-scratch build predates nothing.
        assert_eq!(delta.stats.delta_reused_histograms, 0);
        assert_eq!(delta.stats.delta_invalidated_emds, 0);
    }

    #[test]
    fn zero_churn_rerun_is_pure_reuse() {
        let space = churn_space(60);
        let mut engine = DeltaEngine::new(space.clone(), Quantify::default()).unwrap();
        let first = engine.requantify().unwrap();
        let report = engine.apply(&SpaceDelta::new()).unwrap();
        assert_eq!(report, DeltaReport::default());
        let second = engine.requantify().unwrap();
        assert_outcomes_bitwise_equal(&second, &first);
        // No mutations → every consulted histogram predates the run and
        // not a single histogram or EMD is recomputed.
        assert!(second.stats.delta_reused_histograms > 0);
        assert_eq!(second.stats.histograms_built, 0);
        assert_eq!(second.stats.emd_calls, 0);
    }

    #[test]
    fn churn_matches_full_recompute_across_backends() {
        for backend in EmdBackendKind::all() {
            let criterion = FairnessCriterion::new(Objective::MostUnfair, Aggregator::Mean)
                .with_emd(Emd::new(backend));
            let search = Quantify::new(criterion);
            let mut engine = DeltaEngine::new(churn_space(60), search.clone()).unwrap();
            engine.requantify().unwrap();
            let delta_ops = SpaceDelta::new()
                .rescore(4, 0.93)
                .insert(vec!["F", "r1"], 0.52)
                .remove(17)
                .rescore(0, 0.05);
            let report = engine.apply(&delta_ops).unwrap();
            assert_eq!(report.events, 4, "{backend:?}");
            assert!(report.histograms_rebuilt > 0, "{backend:?}");
            let delta = engine.requantify().unwrap();
            let full = search.run_space(engine.space()).unwrap();
            assert_outcomes_bitwise_equal(&delta, &full);
            assert!(
                delta.stats.emd_calls <= full.stats.emd_calls,
                "{backend:?}: delta recomputed {} EMDs, full {}",
                delta.stats.emd_calls,
                full.stats.emd_calls
            );
            assert!(delta.stats.delta_reused_histograms > 0, "{backend:?}");
            assert_eq!(
                delta.stats.delta_invalidated_emds, report.emd_entries_dropped,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn sustained_churn_stays_bitwise_identical() {
        let search = Quantify::default().with_min_partition_size(2);
        let mut engine = DeltaEngine::new(churn_space(48), search.clone()).unwrap();
        engine.requantify().unwrap();
        for round in 0..6u32 {
            let delta_ops = SpaceDelta::new()
                .rescore(round, 0.05 + round as f64 * 0.13)
                .insert(vec!["M", "r2"], 0.3 + round as f64 * 0.07)
                .remove(2 * round);
            engine.apply(&delta_ops).unwrap();
            let delta = engine.requantify().unwrap();
            let full = search.run_space(engine.space()).unwrap();
            assert_outcomes_bitwise_equal(&delta, &full);
            assert_eq!(engine.generation(), round + 1);
        }
    }

    #[test]
    fn new_attribute_value_falls_back_and_self_heals() {
        let search = Quantify::default();
        let mut engine = DeltaEngine::new(churn_space(30), search.clone()).unwrap();
        engine.requantify().unwrap();
        // "r3" is a brand-new region label: its child edge exists in no
        // cache, so the affected nodes must fall back to real scans.
        engine
            .apply(&SpaceDelta::new().insert(vec!["F", "r3"], 0.77))
            .unwrap();
        let delta = engine.requantify().unwrap();
        let full = search.run_space(engine.space()).unwrap();
        assert_outcomes_bitwise_equal(&delta, &full);
        // The fallback re-recorded: the next zero-churn run reuses fully.
        let again = engine.requantify().unwrap();
        assert_outcomes_bitwise_equal(&again, &delta);
        assert_eq!(again.stats.histograms_built, 0);
    }

    #[test]
    fn depth_zero_replays_the_trivial_branch() {
        let space = churn_space(20);
        let search = Quantify::default().with_max_depth(0);
        let mut engine = DeltaEngine::new(space.clone(), search.clone()).unwrap();
        let delta = engine.requantify().unwrap();
        let full = search.run_space(&space).unwrap();
        assert_eq!(delta.unfairness.to_bits(), full.unfairness.to_bits());
        assert_eq!(delta.partitions, full.partitions);
        assert_eq!(delta.stats, full.stats);
    }

    #[test]
    fn apply_before_first_run_mutates_the_space_only() {
        let mut engine = DeltaEngine::new(churn_space(20), Quantify::default()).unwrap();
        let report = engine
            .apply(&SpaceDelta::new().insert(vec!["F", "r0"], 0.4).remove(0))
            .unwrap();
        assert_eq!(report.events, 2);
        assert_eq!(report.histograms_rebuilt, 0);
        assert_eq!(report.emd_entries_dropped, 0);
        assert_eq!(engine.space().num_individuals(), 20);
        let outcome = engine.requantify().unwrap();
        let full = Quantify::default().run_space(engine.space()).unwrap();
        assert_outcomes_bitwise_equal(&outcome, &full);
    }

    #[test]
    fn failed_op_keeps_space_and_caches_consistent() {
        let search = Quantify::default();
        let mut engine = DeltaEngine::new(churn_space(24), search.clone()).unwrap();
        engine.requantify().unwrap();
        // Second op targets a row far out of bounds: the first op stays
        // applied, the engine remains usable and exact.
        let bad = SpaceDelta::new().rescore(1, 0.99).remove(10_000);
        assert!(engine.apply(&bad).is_err());
        let delta = engine.requantify().unwrap();
        let full = search.run_space(engine.space()).unwrap();
        assert_outcomes_bitwise_equal(&delta, &full);
        assert_eq!(engine.space().scores()[1], 0.99);
        // The next batch's invalidations are its own.
        let report = engine.apply(&SpaceDelta::new().rescore(2, 0.01)).unwrap();
        engine.parts.as_ref().unwrap().check_invariants();
        let delta = engine.requantify().unwrap();
        assert_eq!(
            delta.stats.delta_invalidated_emds,
            report.emd_entries_dropped
        );
        assert_outcomes_bitwise_equal(&delta, &search.run_space(engine.space()).unwrap());
    }

    #[test]
    fn failed_apply_frees_and_counts_its_orphans() {
        let search = Quantify::default();
        let mut engine = DeltaEngine::new(churn_space(60), search.clone()).unwrap();
        engine.requantify().unwrap();
        // Eight rescores into the top bin orphan contents, then the batch
        // fails on an out-of-range removal.
        let mut bad = SpaceDelta::new();
        for row in 0..8 {
            bad = bad.rescore(row, 0.95);
        }
        assert!(engine.apply(&bad.remove(10_000)).is_err());
        // The applied ops' orphans are freed and counted right away.
        engine.parts.as_ref().unwrap().check_invariants();
        let dropped = engine.pending_invalidated;
        assert!(dropped > 0, "the rescores invalidated memo entries");
        let delta = engine.requantify().unwrap();
        assert_eq!(delta.stats.delta_invalidated_emds, dropped);
        assert_outcomes_bitwise_equal(&delta, &search.run_space(engine.space()).unwrap());
    }

    /// The delta run's unfairness bits and partitions equal a full run's.
    fn assert_matches_full(engine: &mut DeltaEngine, search: &Quantify) -> QuantifyOutcome {
        let delta = engine.requantify().unwrap();
        let full = search.run_space(engine.space()).unwrap();
        assert_eq!(delta.unfairness.to_bits(), full.unfairness.to_bits());
        assert_eq!(delta.partitions, full.partitions);
        delta
    }

    #[test]
    fn leaf_table_ignores_a_slot_reinterned_at_the_same_leaf() {
        // Two batches without a run between them: the first changes a
        // leaf's content and frees its old id, the second changes the leaf
        // again and gets the freed id back (the free list is LIFO). The
        // next fold sees the leaf at its old trie node with its old id but
        // new content, and must recompute its distances. On a one-attribute
        // space the leaves are the only contents, so this happens for
        // every leaf; a three-attribute space adds shared ancestors.
        let search = Quantify::default();
        let mut reinterned = 0;
        for space in [random_space(1, 40, 21), random_space(3, 90, 21)] {
            let base = search.run_space(&space).unwrap();
            for leaf in &base.partitions {
                let low: Vec<u32> = leaf
                    .rows
                    .iter()
                    .copied()
                    .filter(|&r| space.scores()[r as usize] < 0.9)
                    .collect();
                let [a, .., b] = low[..] else {
                    continue;
                };
                let mut engine = DeltaEngine::new(space.clone(), search.clone()).unwrap();
                engine.requantify().unwrap();
                let before = leaves(engine.prev.as_deref().unwrap());
                // Both rows move into the top bin, so the leaf's final
                // content differs from its original one.
                engine.apply(&SpaceDelta::new().rescore(a, 0.99)).unwrap();
                engine.apply(&SpaceDelta::new().rescore(b, 0.99)).unwrap();
                let parts = engine.parts.as_ref().unwrap();
                reinterned += before
                    .iter()
                    .filter(|&&(node, id)| {
                        parts.is_dirty(node) && parts.content_of(node) == Some(id)
                    })
                    .count();
                assert_matches_full(&mut engine, &search);
            }
        }
        assert!(reinterned > 0, "no leaf got its freed slot back");
    }

    #[test]
    fn leaf_table_maps_leaves_by_trie_node_when_the_structure_changes() {
        // Rounds that restructure the tree while some leaves survive put
        // surviving leaves at new positions; the fold must find their
        // distances by trie node.
        let search = Quantify::default();
        let mut engine = DeltaEngine::new(random_space(4, 120, 8), search.clone()).unwrap();
        let paths = |outcome: &QuantifyOutcome| -> Vec<Vec<crate::partition::PathStep>> {
            outcome.partitions.iter().map(|p| p.path.clone()).collect()
        };
        let mut last = paths(&engine.requantify().unwrap());
        let mut rng = StdRng::seed_from_u64(4);
        let mut restructured = 0;
        for _ in 0..40 {
            let delta = balanced_round(&mut rng, engine.space());
            engine.apply(&delta).unwrap();
            let now = paths(&assert_matches_full(&mut engine, &search));
            if now != last && now.iter().any(|p| last.contains(p)) {
                restructured += 1;
            }
            last = now;
        }
        assert!(restructured > 0, "no round restructured the tree");
    }

    #[test]
    fn completed_run_after_a_cancelled_one_recomputes_what_changed() {
        use crate::cancel::{CancelReason, CancelToken};
        let search = Quantify::default();
        let mut engine = DeltaEngine::new(random_space(4, 120, 3), search.clone()).unwrap();
        engine.requantify().unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..3 {
            engine.apply(&balanced_round(&mut rng, engine.space())).unwrap();
            let token = CancelToken::new();
            token.cancel(CancelReason::Disconnected);
            engine.set_run_budget(RunBudget::unlimited().with_token(token));
            assert!(matches!(
                engine.requantify(),
                Err(CoreError::Cancelled { .. })
            ));
            engine.set_run_budget(RunBudget::unlimited());
            engine.apply(&balanced_round(&mut rng, engine.space())).unwrap();
            assert_matches_full(&mut engine, &search);
            engine.apply(&balanced_round(&mut rng, engine.space())).unwrap();
            assert_matches_full(&mut engine, &search);
        }
    }

    #[test]
    fn summary_matches_the_full_outcome() {
        let search = Quantify::default();
        let space = random_space(4, 120, 12);
        let mut full = DeltaEngine::new(space.clone(), search.clone()).unwrap();
        let mut summary = DeltaEngine::new(space, search).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..6 {
            let outcome = full.requantify().unwrap();
            let brief = summary.requantify_summary().unwrap();
            assert_eq!(brief.unfairness.to_bits(), outcome.unfairness.to_bits());
            assert_eq!(brief.num_partitions, outcome.partitions.len());
            assert_eq!(brief.stats, outcome.stats);
            let delta = balanced_round(&mut rng, full.space());
            full.apply(&delta).unwrap();
            summary.apply(&delta).unwrap();
        }
    }

    /// A random space with `attrs` attributes of 2–3 values each.
    fn random_space(attrs: usize, rows: usize, seed: u64) -> RankingSpace {
        let mut rng = StdRng::seed_from_u64(seed);
        let attributes = (0..attrs)
            .map(|a| {
                let card = 2 + a as u32 % 2;
                ProtectedAttribute {
                    name: format!("a{a}"),
                    codes: (0..rows).map(|_| rng.gen_range(0..card)).collect(),
                    labels: (0..card).map(|c| format!("v{c}")).collect(),
                }
            })
            .collect();
        let scores = (0..rows).map(|_| rng.gen_range(0.0..=1.0)).collect();
        RankingSpace::new(attributes, scores).unwrap()
    }

    /// One balanced churn round inside the segment `a0 = v0` (two
    /// rescores, one arrival cloned from a member, one departure), so the
    /// rest of the space keeps long-lived contents whose memo partners
    /// churn — the case that would leak stale partners.
    fn balanced_round(rng: &mut StdRng, space: &RankingSpace) -> SpaceDelta {
        let n = space.num_individuals();
        let mut member = || loop {
            let row = rng.gen_range(0..n);
            if space.attributes()[0].codes[row] == 0 {
                return row;
            }
        };
        let (donor, a, b, gone) = (member(), member(), member(), member());
        let labels: Vec<String> = space
            .attributes()
            .iter()
            .map(|attr| attr.labels[attr.codes[donor] as usize].clone())
            .collect();
        SpaceDelta::new()
            .rescore(a as u32, rng.gen_range(0.0..=1.0))
            .rescore(b as u32, rng.gen_range(0.0..=1.0))
            .insert(labels, rng.gen_range(0.0..=1.0))
            .remove(gone as u32)
    }

    fn footprint(engine: &DeltaEngine) -> Footprint {
        engine.parts.as_ref().expect("caches are built").footprint()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Random churn on 3- and 5-attribute spaces under both metrics:
        // after every batch the caches satisfy every invariant of the
        // reference counting (exact counts, nothing freed is indexed or
        // memoized), and the re-run stays bitwise equal to a full
        // recompute.
        #[test]
        fn caches_stay_consistent_under_random_churn(
            wide in 0usize..2,
            transport in 0usize..2,
            rows in 12usize..=48,
            seed in 0u64..1_000_000,
            batches in prop::collection::vec(
                prop::collection::vec((0u8..3, 0u32..u32::MAX, 0.0f64..=1.0), 1..10),
                1..7,
            ),
        ) {
            let space = random_space(if wide == 1 { 5 } else { 3 }, rows, seed);
            let backend = [EmdBackendKind::OneD, EmdBackendKind::Transport][transport];
            let criterion = FairnessCriterion::default().with_emd(Emd::new(backend));
            let search = Quantify::new(criterion);
            let mut engine = DeltaEngine::new(space, search.clone()).unwrap();
            engine.requantify().unwrap();
            for batch in &batches {
                let mut delta = SpaceDelta::new();
                let mut population = engine.space().num_individuals();
                for &(kind, pick, score) in batch {
                    let row = pick as usize % population;
                    match kind {
                        0 => delta = delta.rescore(row as u32, score),
                        1 => {
                            let labels: Vec<String> = engine
                                .space()
                                .attributes()
                                .iter()
                                .map(|a| a.labels[pick as usize % a.labels.len()].clone())
                                .collect();
                            delta = delta.insert(labels, score);
                            population += 1;
                        }
                        _ if population > 1 => {
                            delta = delta.remove(row as u32);
                            population -= 1;
                        }
                        _ => {}
                    }
                }
                let report = engine.apply(&delta).unwrap();
                engine.parts.as_ref().unwrap().check_invariants();
                let outcome = engine.requantify().unwrap();
                prop_assert_eq!(outcome.stats.delta_invalidated_emds, report.emd_entries_dropped);
                let full = search.run_space(engine.space()).unwrap();
                prop_assert_eq!(outcome.unfairness.to_bits(), full.unfairness.to_bits());
                prop_assert_eq!(&outcome.partitions, &full.partitions);
            }
        }
    }

    #[test]
    fn thousand_rounds_of_balanced_churn_stay_bounded() {
        // Freed slots and stale partners must be recycled, not leaked: over
        // 1,000 population-neutral rounds every cache stays within a fixed
        // multiple of its size once warm.
        for attrs in [3, 5] {
            let mut engine =
                DeltaEngine::new(random_space(attrs, 160, 5), Quantify::default()).unwrap();
            engine.requantify().unwrap();
            let mut rng = StdRng::seed_from_u64(attrs as u64);
            let mut warm = None;
            for round in 1..=1_000 {
                let delta = balanced_round(&mut rng, engine.space());
                engine.apply(&delta).unwrap();
                engine.requantify().unwrap();
                let now = footprint(&engine);
                if round == 10 {
                    warm = Some(now);
                }
                let Some(base) = warm else {
                    continue;
                };
                let within = |now: usize, base: usize| now <= 4 * base.max(16);
                let bounded = within(now.live_contents, base.live_contents)
                    && within(now.slots, base.slots)
                    && within(now.memo_capacity, base.memo_capacity)
                    && within(now.partner_entries, base.partner_entries);
                assert!(
                    bounded,
                    "{attrs} attributes, round {round}: {now:?} vs warm {base:?}"
                );
            }
            engine.parts.as_ref().unwrap().check_invariants();
        }
    }

    #[test]
    fn warm_apply_never_reallocates_the_flat_memo() {
        let space = random_space(5, 160, 9);
        let mut engine = DeltaEngine::new(space, Quantify::default()).unwrap();
        engine.requantify().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut dropped = 0;
        for round in 0..120 {
            let delta = balanced_round(&mut rng, engine.space());
            let before = footprint(&engine);
            let report = engine.apply(&delta).unwrap();
            let after = footprint(&engine);
            if round >= 20 {
                // Invalidation deletes in place: same table, same capacity.
                assert_eq!(after.memo_table, before.memo_table, "round {round}");
                assert_eq!(after.memo_capacity, before.memo_capacity, "round {round}");
                dropped += report.emd_entries_dropped;
            }
            engine.requantify().unwrap();
        }
        assert!(dropped > 0, "the rounds invalidated memo entries");
    }

    #[test]
    fn empty_space_is_rejected_at_construction() {
        // A space can never become empty through the mutation API: removal
        // of the last row is refused, and `RankingSpace::new` already
        // rejects zero rows — so `DeltaEngine::new`'s own guard is a
        // belt-and-braces invariant rather than a reachable path.
        let mut one = RankingSpace::new(
            vec![ProtectedAttribute::from_values("g", &["a"])],
            vec![0.5],
        )
        .unwrap();
        assert!(matches!(one.remove_row(0), Err(CoreError::EmptyInput)));
        assert!(matches!(
            RankingSpace::new(vec![], vec![]),
            Err(CoreError::EmptyInput)
        ));
        // And a one-row space is perfectly serviceable.
        let engine = DeltaEngine::new(one, Quantify::default());
        assert!(engine.is_ok());
    }
}
