//! Algorithm 1 of the paper: `QUANTIFY`, the greedy recursive partitioning
//! search.
//!
//! The partitioning space is exponential in the number of protected
//! attribute values, so FaiRank grows a partitioning tree greedily: at each
//! node it selects the *most unfair attribute* (a decision-tree-style local
//! gain), and splits only if the children are, in aggregate, farther from
//! the node's siblings than the node itself is — i.e. if replacing the node
//! by its children moves the objective in the right direction. Otherwise
//! the node becomes a final partition.
//!
//! ```text
//! QUANTIFY(current, siblings, f, A):
//!   if A = ∅:            output current
//!   else:
//!     currentAvg  = avg(EMD(current, siblings, f))
//!     a           = mostUnfair(current, f, A);  A = A − a
//!     children    = split(current, a)
//!     childrenAvg = avg(EMD(children, siblings, f))
//!     if currentAvg ≥ childrenAvg: output current
//!     else: for p in children: QUANTIFY({p}, children − {p}, f, A)
//! ```
//!
//! Both comparisons generalize from `avg` to the criterion's aggregator and
//! flip under the Least-Unfair objective ("other formulations require to
//! change this test only", §3.2).

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::cancel::RunBudget;
use crate::engine::{Aggregation, EngineStats, SplitEngine};
use crate::error::{CoreError, Result};
use crate::fairness::FairnessCriterion;
use crate::partition::{Partition, PartitioningTree};
use crate::scoring::{ObservedTable, ScoreSource};
use crate::space::{ProtectedTable, RankingSpace};

/// How a candidate split is evaluated against the status quo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitEvaluation {
    /// Paper-faithful (Algorithm 1): compare the aggregate of
    /// `EMD(current, sibling)` distances against the aggregate of
    /// `EMD(child, sibling)` distances.
    #[default]
    PaperSiblings,
    /// Holistic variant (ablation): compare `unfairness(siblings ∪
    /// {current})` against `unfairness(siblings ∪ children)`, i.e. include
    /// child–child distances in the decision.
    Holistic,
}

/// Counters describing the work a search performed. Serializable so a
/// cancelled request can report its partial progress on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Nodes on which a split decision was evaluated.
    pub nodes_evaluated: usize,
    /// Splits actually performed.
    pub splits_performed: usize,
    /// Candidate (node, attribute) splits scored by `mostUnfair`.
    pub candidate_splits: usize,
    /// Histograms actually constructed during evaluation.
    pub histograms_built: usize,
    /// EMD distances actually computed.
    pub emd_calls: usize,
    /// Distance lookups served from the engine's memo table (always 0 for
    /// the naive evaluation, which has no cache).
    pub emd_cache_hits: usize,
    /// Pairwise/cross aggregations the engine resolved through its
    /// deduplicated table rather than the per-pair memo walk (only large
    /// `1d` batches; always 0 under `transport` and the naive evaluation).
    pub pairwise_batches: usize,
    /// Histograms served from a previous generation's caches by an
    /// incremental (delta) re-evaluation — distinct cached contents the
    /// run consulted that predate its own generation. Always 0 for
    /// from-scratch searches.
    pub delta_reused_histograms: usize,
    /// EMD memo entries dropped by targeted invalidation ahead of this
    /// run: those touching a content that space mutations left held by no
    /// cached path. Always 0 for from-scratch searches.
    pub delta_invalidated_emds: usize,
}

/// The result of a `QUANTIFY` run.
#[derive(Debug, Clone)]
pub struct QuantifyOutcome {
    /// The partitioning tree, for display in panels.
    pub tree: PartitioningTree,
    /// The final full disjoint partitioning (the tree's leaves).
    pub partitions: Vec<Partition>,
    /// `unfairness(P, f)` of the final partitioning under the criterion.
    pub unfairness: f64,
    /// Work counters.
    pub stats: SearchStats,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

/// Configured `QUANTIFY` search.
#[derive(Debug, Clone, Default)]
pub struct Quantify {
    criterion: FairnessCriterion,
    split_eval: SplitEvaluation,
    min_partition_size: usize,
    max_depth: Option<usize>,
    naive: bool,
    budget: RunBudget,
    aggregation: Aggregation,
}

impl Quantify {
    /// A search under `criterion` with the paper's split evaluation.
    pub fn new(criterion: FairnessCriterion) -> Self {
        Quantify {
            criterion,
            split_eval: SplitEvaluation::default(),
            min_partition_size: 1,
            max_depth: None,
            naive: false,
            budget: RunBudget::unlimited(),
            aggregation: Aggregation::default(),
        }
    }

    /// The criterion this search optimizes.
    pub fn criterion(&self) -> &FairnessCriterion {
        &self.criterion
    }

    /// The configured split-evaluation strategy (read by the incremental
    /// delta search, which must replicate the decision sequence exactly).
    pub(crate) fn split_eval(&self) -> SplitEvaluation {
        self.split_eval
    }

    /// The configured minimum partition size.
    pub(crate) fn min_partition_size(&self) -> usize {
        self.min_partition_size
    }

    /// The configured depth cap.
    pub(crate) fn max_depth(&self) -> Option<usize> {
        self.max_depth
    }

    /// The configured cancellation budget.
    pub(crate) fn run_budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Selects the split-evaluation strategy (ablation hook).
    pub fn with_split_evaluation(mut self, eval: SplitEvaluation) -> Self {
        self.split_eval = eval;
        self
    }

    /// Refuses splits that would create a partition smaller than `size`
    /// (statistical-significance guard for interactive use; the paper's
    /// algorithm corresponds to `size = 1`).
    pub fn with_min_partition_size(mut self, size: usize) -> Self {
        self.min_partition_size = size.max(1);
        self
    }

    /// Caps the tree depth (i.e. the number of attributes any one partition
    /// may be refined on). A depth of 0 yields the trivial single-partition
    /// outcome without performing any split.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Disables the shared [`SplitEngine`] and evaluates every split the
    /// way the original implementation did (per-candidate row
    /// materialization, no caches). Produces bit-identical results; exists
    /// as the baseline for equivalence tests and perf benchmarks.
    pub fn with_naive_evaluation(mut self) -> Self {
        self.naive = true;
        self
    }

    /// Forces the engine's aggregation path (tests pin the two paths'
    /// equivalence over whole searches).
    #[cfg(test)]
    pub(crate) fn with_aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Attaches a cooperative cancellation budget (deadline and/or cancel
    /// tokens). A fired budget aborts the search with
    /// [`CoreError::Cancelled`] carrying the partial [`SearchStats`].
    pub fn with_run_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs on a table that exposes both protected and observed attributes,
    /// resolving `source` into scores first.
    pub fn run<T>(&self, table: &T, source: &ScoreSource) -> Result<QuantifyOutcome>
    where
        T: ObservedTable + ProtectedTable + ?Sized,
    {
        let scores = source.resolve(table)?;
        let space = RankingSpace::new(table.protected_attributes(), scores)?;
        self.run_space(&space)
    }

    /// Runs directly on a prepared ranking space.
    pub fn run_space(&self, space: &RankingSpace) -> Result<QuantifyOutcome> {
        if space.num_individuals() == 0 {
            return Err(CoreError::EmptyInput);
        }
        let start = Instant::now();
        if self.max_depth == Some(0) {
            // Depth 0 forbids any refinement: the trivial single-partition
            // outcome, without performing the initial split.
            let root = Partition::root(space);
            let tree = PartitioningTree::new(root.clone());
            let partitions = vec![root];
            let unfairness = self.criterion.unfairness(&partitions, space.scores())?;
            return Ok(QuantifyOutcome {
                tree,
                partitions,
                unfairness,
                stats: SearchStats {
                    histograms_built: 1,
                    ..SearchStats::default()
                },
                elapsed: start.elapsed(),
            });
        }
        if self.naive {
            self.run_space_naive(space, start)
        } else {
            self.run_space_engine(space, start)
        }
    }

    // ---- engine-backed evaluation (default) -----------------------------

    fn run_space_engine(&self, space: &RankingSpace, start: Instant) -> Result<QuantifyOutcome> {
        let mut stats = SearchStats::default();
        let mut engine = SplitEngine::new(space, self.criterion);
        engine.set_run_budget(&self.budget);
        engine.set_aggregation(self.aggregation);
        let (tree, leaves) = self
            .grow_tree(&mut engine, &mut stats, space)
            .map_err(|e| Self::with_search_counters(e, &stats))?;
        Self::finish(engine, tree, &leaves, stats, start)
    }

    /// Grows the partitioning tree through the engine and returns it with
    /// the content id of each leaf, in leaf order.
    fn grow_tree(
        &self,
        engine: &mut SplitEngine<'_>,
        stats: &mut SearchStats,
        space: &RankingSpace,
    ) -> Result<(PartitioningTree, Vec<u32>)> {
        let mut tree = PartitioningTree::new(Partition::root(space));
        let root = tree.root();
        let all_attrs: Vec<usize> = (0..space.attributes().len()).collect();

        // Initial invocation (§3.2): split the whole population on the most
        // unfair attribute, then run QUANTIFY once per resulting partition.
        let (candidate, scored) =
            engine.best_split(&tree.node(root).partition, &all_attrs, self.min_partition_size)?;
        stats.candidate_splits += scored;
        let Some(candidate) = candidate else {
            // Nothing splits the population: the trivial partitioning.
            let id = engine.hist_id(&tree.node(root).partition);
            return Ok((tree, vec![id]));
        };

        let first_attr = candidate.attr;
        let children = tree.node(root).partition.split(space, first_attr);
        let remaining: Vec<usize> =
            all_attrs.iter().copied().filter(|&a| a != first_attr).collect();
        let ids = tree.split_node(root, first_attr, children);
        stats.splits_performed += 1;
        // `contents[tree node]`: the node's content id. The root's is
        // never read: once split, it is no leaf.
        let mut contents = vec![u32::MAX];
        contents.extend_from_slice(&candidate.child_ids);

        for (i, &id) in ids.iter().enumerate() {
            self.quantify_rec_engine(
                engine,
                &mut tree,
                &mut contents,
                id,
                &candidate.sibling_ids(i),
                &remaining,
                1,
                stats,
            )?;
        }
        let leaves = tree.leaf_ids().into_iter().map(|id| contents[id]).collect();
        Ok((tree, leaves))
    }

    /// The final fold: `unfairness` over the leaves, which consumes the
    /// engine.
    fn finish(
        engine: SplitEngine<'_>,
        tree: PartitioningTree,
        leaves: &[u32],
        mut stats: SearchStats,
        start: Instant,
    ) -> Result<QuantifyOutcome> {
        let (unfairness, engine_stats) = engine
            .final_unfairness(leaves)
            .map_err(|e| Self::with_search_counters(e, &stats))?;
        Self::merge_engine_stats(&mut stats, engine_stats);
        Ok(QuantifyOutcome {
            partitions: tree.leaf_partitions(),
            tree,
            unfairness,
            stats,
            elapsed: start.elapsed(),
        })
    }

    /// A cancelled engine reports its own counters at the moment the
    /// budget fired; this grafts on the search-level counters, so the
    /// caller sees the full partial progress.
    fn with_search_counters(err: CoreError, search: &SearchStats) -> CoreError {
        match err {
            CoreError::Cancelled { reason, stats } => CoreError::Cancelled {
                reason,
                stats: SearchStats {
                    nodes_evaluated: search.nodes_evaluated,
                    splits_performed: search.splits_performed,
                    candidate_splits: search.candidate_splits,
                    ..stats
                },
            },
            other => other,
        }
    }

    pub(crate) fn merge_engine_stats(stats: &mut SearchStats, e: EngineStats) {
        stats.histograms_built = e.histograms_built;
        stats.emd_calls = e.emd_calls;
        stats.emd_cache_hits = e.emd_cache_hits;
        stats.pairwise_batches = e.pairwise_batches;
        stats.delta_reused_histograms = e.delta_reused_histograms;
        stats.delta_invalidated_emds = e.delta_invalidated_emds;
    }

    /// The recursive body of Algorithm 1, evaluated through the engine.
    /// The node's and its siblings' content ids come from the parent's
    /// winning candidate, so no sibling partition is cloned; candidate
    /// children never materialize row vectors, and the winning
    /// attribute's rows materialize only once the split is accepted.
    /// `contents` maps tree nodes to content ids and grows with each split.
    #[allow(clippy::too_many_arguments)]
    fn quantify_rec_engine(
        &self,
        engine: &mut SplitEngine<'_>,
        tree: &mut PartitioningTree,
        contents: &mut Vec<u32>,
        node_id: usize,
        sibling_ids: &[u32],
        avail: &[usize],
        depth: usize,
        stats: &mut SearchStats,
    ) -> Result<()> {
        // Line 1: no attributes left — the node is a final partition.
        if avail.is_empty() {
            return Ok(());
        }
        if self.max_depth.is_some_and(|d| depth >= d) {
            return Ok(());
        }
        // Node boundary: poll the budget even when the node's distance
        // work is served entirely from the memo (no ticks).
        engine.check_budget()?;
        stats.nodes_evaluated += 1;
        let current = &tree.node(node_id).partition;
        let current_id = contents[node_id];

        // Line 5: the most unfair attribute — one counting pass per
        // candidate, winner cache handed back.
        let (candidate, scored) = engine.best_split(current, avail, self.min_partition_size)?;
        stats.candidate_splits += scored;
        let Some(candidate) = candidate else {
            return Ok(()); // no attribute splits this node
        };

        // Lines 4 & 8: aggregate distances of current-vs-siblings and
        // children-vs-siblings, reusing the winner cache's histograms.
        let (current_val, children_val) = match self.split_eval {
            SplitEvaluation::PaperSiblings => {
                let cur = engine.versus_ids(current_id, sibling_ids)?;
                let ch = engine.children_versus_siblings_ids(&candidate, sibling_ids)?;
                (cur, ch)
            }
            SplitEvaluation::Holistic => {
                engine.holistic_values_ids(sibling_ids, current_id, &candidate)?
            }
        };

        // Line 9, generalized: keep the node unless replacing it by its
        // children strictly improves the objective.
        if !self.criterion.objective.is_better(children_val, current_val) {
            return Ok(());
        }

        // Lines 12–14: split (materializing rows for the winner only) and
        // recurse with the new sibling sets.
        let attr = candidate.attr;
        let children = current.split(engine.space(), attr);
        debug_assert_eq!(children.len(), candidate.child_ids.len());
        let remaining: Vec<usize> = avail.iter().copied().filter(|&a| a != attr).collect();
        let ids = tree.split_node(node_id, attr, children);
        debug_assert_eq!(ids.first(), Some(&contents.len()));
        contents.extend_from_slice(&candidate.child_ids);
        stats.splits_performed += 1;
        for (i, &id) in ids.iter().enumerate() {
            self.quantify_rec_engine(
                engine,
                tree,
                contents,
                id,
                &candidate.sibling_ids(i),
                &remaining,
                depth + 1,
                stats,
            )?;
        }
        Ok(())
    }

    // ---- naive evaluation (seed behavior, instrumented) -----------------

    /// Budget poll for the naive path, which has no engine to tick: the
    /// current counters ride along in the cancellation error.
    fn check_budget_naive(&self, stats: &SearchStats) -> Result<()> {
        self.budget
            .check()
            .map_err(|reason| CoreError::Cancelled {
                reason,
                stats: *stats,
            })
    }

    fn run_space_naive(&self, space: &RankingSpace, start: Instant) -> Result<QuantifyOutcome> {
        let mut stats = SearchStats::default();
        let root = Partition::root(space);
        let mut tree = PartitioningTree::new(root.clone());

        let all_attrs: Vec<usize> = (0..space.attributes().len()).collect();

        // Initial invocation (§3.2): split the whole population on the most
        // unfair attribute, then run QUANTIFY once per resulting partition.
        let initial = self.most_unfair_attr(space, &root, &all_attrs, &mut stats)?;
        let Some(first_attr) = initial else {
            // Nothing splits the population: the trivial partitioning.
            let partitions = vec![root];
            let unfairness = self.criterion.unfairness(&partitions, space.scores())?;
            stats.histograms_built += 1;
            return Ok(QuantifyOutcome {
                tree,
                partitions,
                unfairness,
                stats,
                elapsed: start.elapsed(),
            });
        };

        let children = root.split(space, first_attr);
        let remaining: Vec<usize> =
            all_attrs.iter().copied().filter(|&a| a != first_attr).collect();
        let ids = tree.split_node(tree.root(), first_attr, children.clone());
        stats.splits_performed += 1;

        for (i, id) in ids.iter().enumerate() {
            let siblings: Vec<Partition> = children
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, p)| p.clone())
                .collect();
            self.quantify_rec(space, &mut tree, *id, &siblings, &remaining, 1, &mut stats)?;
        }

        let partitions = tree.leaf_partitions();
        let unfairness = self.criterion.unfairness(&partitions, space.scores())?;
        stats.histograms_built += partitions.len();
        stats.emd_calls += partitions.len() * partitions.len().saturating_sub(1) / 2;
        Ok(QuantifyOutcome {
            tree,
            partitions,
            unfairness,
            stats,
            elapsed: start.elapsed(),
        })
    }

    /// The recursive body of Algorithm 1.
    #[allow(clippy::too_many_arguments)]
    fn quantify_rec(
        &self,
        space: &RankingSpace,
        tree: &mut PartitioningTree,
        node_id: usize,
        siblings: &[Partition],
        avail: &[usize],
        depth: usize,
        stats: &mut SearchStats,
    ) -> Result<()> {
        // Line 1: no attributes left — the node is a final partition.
        if avail.is_empty() {
            return Ok(());
        }
        if self.max_depth.is_some_and(|d| depth >= d) {
            return Ok(());
        }
        self.check_budget_naive(stats)?;
        stats.nodes_evaluated += 1;
        let current = tree.node(node_id).partition.clone();

        // Line 5: the most unfair attribute.
        let Some(attr) = self.most_unfair_attr(space, &current, avail, stats)? else {
            return Ok(()); // no attribute splits this node
        };
        let children = current.split(space, attr);
        debug_assert!(children.len() >= 2);

        // Lines 4 & 8: aggregate distances of current-vs-siblings and
        // children-vs-siblings.
        let scores = space.scores();
        let (current_val, children_val) = match self.split_eval {
            SplitEvaluation::PaperSiblings => {
                let cur = self.criterion.versus(&current, siblings, scores)?;
                stats.histograms_built += 1 + siblings.len();
                stats.emd_calls += siblings.len();
                let hists_children: Vec<_> = children
                    .iter()
                    .map(|p| self.criterion.histogram(p, scores))
                    .collect();
                let hists_sib: Vec<_> = siblings
                    .iter()
                    .map(|p| self.criterion.histogram(p, scores))
                    .collect();
                let cross = crate::pairwise::cross_distances(
                    &hists_children,
                    &hists_sib,
                    &self.criterion.emd,
                )?;
                stats.histograms_built += children.len() + siblings.len();
                stats.emd_calls += children.len() * siblings.len();
                (cur, self.criterion.aggregator.apply(&cross))
            }
            SplitEvaluation::Holistic => {
                let mut before: Vec<Partition> = siblings.to_vec();
                before.push(current.clone());
                let mut after: Vec<Partition> = siblings.to_vec();
                after.extend(children.iter().cloned());
                stats.histograms_built += before.len() + after.len();
                stats.emd_calls += before.len() * (before.len() - 1) / 2
                    + after.len() * (after.len() - 1) / 2;
                (
                    self.criterion.unfairness(&before, scores)?,
                    self.criterion.unfairness(&after, scores)?,
                )
            }
        };

        // Line 9, generalized: keep the node unless replacing it by its
        // children strictly improves the objective.
        if !self.criterion.objective.is_better(children_val, current_val) {
            return Ok(());
        }

        // Lines 12–14: split and recurse with the new sibling sets.
        let remaining: Vec<usize> = avail.iter().copied().filter(|&a| a != attr).collect();
        let ids = tree.split_node(node_id, attr, children.clone());
        stats.splits_performed += 1;
        for (i, id) in ids.iter().enumerate() {
            let new_siblings: Vec<Partition> = children
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, p)| p.clone())
                .collect();
            self.quantify_rec(space, tree, *id, &new_siblings, &remaining, depth + 1, stats)?;
        }
        Ok(())
    }

    /// `mostUnfair(current, f, A)`: the attribute whose split of `current`
    /// optimizes the aggregated pairwise EMD among the resulting children.
    /// Attributes producing fewer than two children (or any child below the
    /// minimum size) are not candidates.
    fn most_unfair_attr(
        &self,
        space: &RankingSpace,
        current: &Partition,
        avail: &[usize],
        stats: &mut SearchStats,
    ) -> Result<Option<usize>> {
        let mut best: Option<(usize, f64)> = None;
        for &attr in avail {
            self.check_budget_naive(stats)?;
            let children = current.split(space, attr);
            if children.len() < 2 {
                continue;
            }
            if children.iter().any(|c| c.len() < self.min_partition_size) {
                continue;
            }
            stats.candidate_splits += 1;
            let value = self.criterion.unfairness(&children, space.scores())?;
            stats.histograms_built += children.len();
            stats.emd_calls += children.len() * (children.len() - 1) / 2;
            let better = match best {
                None => true,
                Some((_, incumbent)) => self.criterion.objective.is_better(value, incumbent),
            };
            if better {
                best = Some((attr, value));
            }
        }
        Ok(best.map(|(a, _)| a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::{Aggregator, Objective};
    use crate::partition::is_full_disjoint;
    use crate::space::ProtectedAttribute;
    use proptest::prelude::*;

    /// A space where gender cleanly separates scores and a second attribute
    /// (shirt color) is pure noise.
    fn biased_space() -> RankingSpace {
        let n = 40;
        let mut genders = Vec::new();
        let mut colors = Vec::new();
        let mut scores = Vec::new();
        for i in 0..n {
            let female = i % 2 == 0;
            genders.push(if female { "F" } else { "M" });
            colors.push(if i % 3 == 0 { "red" } else { "blue" });
            // Females systematically score ~0.3 lower.
            let base = 0.2 + (i % 5) as f64 * 0.02;
            scores.push(if female { base } else { base + 0.55 });
        }
        RankingSpace::new(
            vec![
                ProtectedAttribute::from_values("gender", &genders),
                ProtectedAttribute::from_values("color", &colors),
            ],
            scores,
        )
        .unwrap()
    }

    #[test]
    fn finds_the_biased_attribute_first() {
        let space = biased_space();
        let outcome = Quantify::default().run_space(&space).unwrap();
        // The first split must be on gender (attribute 0).
        let root = outcome.tree.node(outcome.tree.root());
        assert_eq!(root.split_attr, Some(0));
        // The mean pairwise EMD stays well above the noise floor even after
        // further (color) refinements dilute the cross-gender pairs.
        assert!(outcome.unfairness > 0.3, "u = {}", outcome.unfairness);
        assert!(is_full_disjoint(
            &outcome.partitions,
            space.num_individuals()
        ));
    }

    #[test]
    fn partitions_are_always_full_and_disjoint() {
        let space = biased_space();
        for objective in [Objective::MostUnfair, Objective::LeastUnfair] {
            for aggregator in Aggregator::all() {
                let crit = FairnessCriterion::new(objective, aggregator);
                let outcome = Quantify::new(crit).run_space(&space).unwrap();
                assert!(
                    is_full_disjoint(&outcome.partitions, space.num_individuals()),
                    "{objective:?}/{aggregator:?}"
                );
            }
        }
    }

    #[test]
    fn no_protected_attributes_yields_single_partition() {
        let space = RankingSpace::new(vec![], vec![0.1, 0.9, 0.5]).unwrap();
        let outcome = Quantify::default().run_space(&space).unwrap();
        assert_eq!(outcome.partitions.len(), 1);
        assert_eq!(outcome.unfairness, 0.0);
        assert_eq!(outcome.stats.splits_performed, 0);
    }

    #[test]
    fn constant_attribute_cannot_split() {
        let attr = ProtectedAttribute::from_values("k", &["x", "x", "x"]);
        let space = RankingSpace::new(vec![attr], vec![0.1, 0.5, 0.9]).unwrap();
        let outcome = Quantify::default().run_space(&space).unwrap();
        assert_eq!(outcome.partitions.len(), 1);
    }

    #[test]
    fn uniform_scores_yield_zero_unfairness() {
        let attr = ProtectedAttribute::from_values("g", &["a", "b", "a", "b"]);
        let space = RankingSpace::new(vec![attr], vec![0.5, 0.5, 0.5, 0.5]).unwrap();
        let outcome = Quantify::default().run_space(&space).unwrap();
        assert!(outcome.unfairness.abs() < 1e-12);
    }

    #[test]
    fn min_partition_size_blocks_fine_splits() {
        let space = biased_space();
        // Gender split gives 20/20; color splits inside gender give smaller
        // groups. A floor of 15 allows gender but may block color.
        let outcome = Quantify::default()
            .with_min_partition_size(15)
            .run_space(&space)
            .unwrap();
        for p in &outcome.partitions {
            assert!(p.len() >= 15);
        }
    }

    #[test]
    fn max_depth_caps_tree() {
        let space = biased_space();
        let outcome = Quantify::default()
            .with_max_depth(1)
            .run_space(&space)
            .unwrap();
        assert!(outcome.tree.max_depth() <= 1);
        assert_eq!(outcome.partitions.len(), 2); // just the gender split
    }

    #[test]
    fn max_depth_zero_yields_trivial_partitioning() {
        let space = biased_space();
        let outcome = Quantify::default()
            .with_max_depth(0)
            .run_space(&space)
            .unwrap();
        assert_eq!(outcome.partitions.len(), 1);
        assert_eq!(outcome.unfairness, 0.0);
        assert_eq!(outcome.stats.splits_performed, 0);
        assert_eq!(outcome.tree.len(), 1);
    }

    #[test]
    fn engine_and_naive_evaluations_agree_bitwise() {
        let space = biased_space();
        for objective in [Objective::MostUnfair, Objective::LeastUnfair] {
            for eval in [SplitEvaluation::PaperSiblings, SplitEvaluation::Holistic] {
                let crit = FairnessCriterion::new(objective, Aggregator::Mean);
                let engine = Quantify::new(crit)
                    .with_split_evaluation(eval)
                    .run_space(&space)
                    .unwrap();
                let naive = Quantify::new(crit)
                    .with_split_evaluation(eval)
                    .with_naive_evaluation()
                    .run_space(&space)
                    .unwrap();
                assert_eq!(engine.unfairness, naive.unfairness, "{objective:?}/{eval:?}");
                assert_eq!(engine.partitions, naive.partitions);
                assert_eq!(engine.tree, naive.tree);
                assert_eq!(engine.stats.candidate_splits, naive.stats.candidate_splits);
                assert_eq!(engine.stats.splits_performed, naive.stats.splits_performed);
                assert_eq!(engine.stats.nodes_evaluated, naive.stats.nodes_evaluated);
            }
        }
    }

    #[test]
    fn engine_does_strictly_less_work_than_naive() {
        let space = biased_space();
        let engine = Quantify::default().run_space(&space).unwrap();
        let naive = Quantify::default()
            .with_naive_evaluation()
            .run_space(&space)
            .unwrap();
        assert!(
            engine.stats.histograms_built < naive.stats.histograms_built,
            "engine {} vs naive {}",
            engine.stats.histograms_built,
            naive.stats.histograms_built
        );
        assert!(engine.stats.emd_calls < naive.stats.emd_calls);
        assert!(engine.stats.emd_cache_hits > 0);
        assert_eq!(naive.stats.emd_cache_hits, 0);
    }

    #[test]
    fn holistic_evaluation_also_produces_valid_partitionings() {
        let space = biased_space();
        let outcome = Quantify::default()
            .with_split_evaluation(SplitEvaluation::Holistic)
            .run_space(&space)
            .unwrap();
        assert!(is_full_disjoint(
            &outcome.partitions,
            space.num_individuals()
        ));
    }

    #[test]
    fn least_unfair_objective_prefers_coarse_partitionings_on_biased_data() {
        let space = biased_space();
        let most = Quantify::new(FairnessCriterion::new(
            Objective::MostUnfair,
            Aggregator::Mean,
        ))
        .run_space(&space)
        .unwrap();
        let least = Quantify::new(FairnessCriterion::new(
            Objective::LeastUnfair,
            Aggregator::Mean,
        ))
        .run_space(&space)
        .unwrap();
        assert!(least.unfairness <= most.unfairness);
    }

    #[test]
    fn stats_are_recorded() {
        let space = biased_space();
        let outcome = Quantify::default().run_space(&space).unwrap();
        assert!(outcome.stats.candidate_splits >= 2);
        assert!(outcome.stats.splits_performed >= 1);
        assert!(outcome.elapsed.as_nanos() > 0);
    }

    #[test]
    fn cancelled_token_aborts_engine_search_with_reason() {
        use crate::cancel::{CancelReason, CancelToken, RunBudget};
        let space = biased_space();
        let token = CancelToken::new();
        token.cancel(CancelReason::Shutdown);
        let err = Quantify::default()
            .with_run_budget(RunBudget::unlimited().with_token(token))
            .run_space(&space)
            .unwrap_err();
        match err {
            CoreError::Cancelled { reason, .. } => {
                assert_eq!(reason, CancelReason::Shutdown);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_aborts_both_evaluations_with_partial_stats() {
        use crate::cancel::{CancelReason, RunBudget};
        use std::time::{Duration, Instant};
        let space = biased_space();
        let expired =
            RunBudget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        for search in [
            Quantify::default().with_run_budget(expired.clone()),
            Quantify::default()
                .with_naive_evaluation()
                .with_run_budget(expired),
        ] {
            match search.run_space(&space).unwrap_err() {
                CoreError::Cancelled { reason, stats } => {
                    assert_eq!(reason, CancelReason::Deadline);
                    // Partial progress: strictly less work than a full run.
                    let full = Quantify::default().run_space(&space).unwrap();
                    assert!(stats.splits_performed <= full.stats.splits_performed);
                }
                other => panic!("expected deadline cancellation, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_via_tables_matches_run_space() {
        use crate::scoring::{ColumnsTable, LinearScoring};

        struct Table {
            obs: ColumnsTable,
            genders: Vec<&'static str>,
        }
        impl ObservedTable for Table {
            fn num_rows(&self) -> usize {
                self.obs.num_rows()
            }
            fn observed_column(&self, name: &str) -> Option<&[f64]> {
                self.obs.observed_column(name)
            }
            fn observed_names(&self) -> Vec<&str> {
                self.obs.observed_names()
            }
        }
        impl ProtectedTable for Table {
            fn protected_attributes(&self) -> Vec<ProtectedAttribute> {
                vec![ProtectedAttribute::from_values("gender", &self.genders)]
            }
        }

        let table = Table {
            obs: ColumnsTable::new().with_column("skill", vec![0.1, 0.9, 0.2, 0.8]),
            genders: vec!["F", "M", "F", "M"],
        };
        let f = LinearScoring::builder()
            .weight("skill", 1.0)
            .build(&table.obs)
            .unwrap();
        let outcome = Quantify::default()
            .run(&table, &ScoreSource::Function(f))
            .unwrap();
        assert_eq!(outcome.partitions.len(), 2);
        assert!(outcome.unfairness > 0.5);
    }

    /// `n` rows, `attrs` attributes of `card` values each, and a 0.3 score
    /// gap planted on value 0 of attribute 0.
    fn planted_space(n: usize, attrs: usize, card: u32, seed: u64) -> RankingSpace {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let attributes: Vec<ProtectedAttribute> = (0..attrs)
            .map(|a| ProtectedAttribute {
                name: format!("a{a}"),
                codes: (0..n).map(|_| rng.gen_range(0..card)).collect(),
                labels: (0..card).map(|c| format!("v{c}")).collect(),
            })
            .collect();
        let scores = (0..n)
            .map(|i| {
                let base: f64 = rng.gen_range(0.0..0.7);
                if attributes[0].codes[i] == 0 {
                    base
                } else {
                    (base + 0.3).min(1.0)
                }
            })
            .collect();
        RankingSpace::new(attributes, scores).unwrap()
    }

    /// Stats with the two counters that legitimately depend on the
    /// aggregation path zeroed.
    fn path_independent(mut stats: SearchStats) -> SearchStats {
        stats.emd_cache_hits = 0;
        stats.pairwise_batches = 0;
        stats
    }

    #[test]
    fn dedup_path_does_4x_fewer_pairwise_evaluations() {
        // 2k rows over 8 three-valued attributes: fine partitionings whose
        // leaf batches repeat the same few contents. Counts are exact, so
        // any change to either path's memo traffic shows up here.
        let space = planted_space(2_000, 8, 3, 7);
        let run = |aggregation| {
            Quantify::default()
                .with_aggregation(aggregation)
                .run_space(&space)
                .unwrap()
        };
        let (walk, dedup) = (run(Aggregation::PerPair), run(Aggregation::Dedup));
        assert_eq!(walk.unfairness.to_bits(), dedup.unfairness.to_bits());
        assert_eq!(walk.partitions, dedup.partitions);
        assert_eq!(path_independent(walk.stats), path_independent(dedup.stats));
        let counts = |s: SearchStats| (s.emd_calls, s.emd_cache_hits, s.pairwise_batches);
        assert_eq!(counts(walk.stats), (11_436, 314_850, 0));
        assert_eq!(counts(dedup.stats), (11_436, 4_388, 3_028));
        let evaluations = |s: SearchStats| s.emd_calls + s.emd_cache_hits;
        assert!(
            evaluations(dedup.stats) * 4 <= evaluations(walk.stats),
            "dedup {:?} vs walk {:?}",
            dedup.stats,
            walk.stats
        );
    }

    #[test]
    fn budget_firing_in_the_final_fold_cancels_with_partial_stats() {
        use crate::cancel::{CancelReason, CancelToken, RunBudget};
        // Fine bins keep the leaves' contents distinct: the fold takes the
        // fresh-pair path, not the deduplicated one.
        let space = planted_space(2_000, 5, 4, 3);
        let crit = FairnessCriterion::default()
            .with_hist(crate::histogram::HistogramSpec::unit(40).unwrap());
        let search = Quantify::new(crit);
        let full = search.run_space(&space).unwrap();
        assert_eq!(full.stats.pairwise_batches, 0);
        // Grow the tree under no budget, then fire the budget before the
        // fold: only the fold's own polls can see it.
        let mut engine = SplitEngine::new(&space, *search.criterion());
        let mut stats = SearchStats::default();
        let (tree, leaves) = search.grow_tree(&mut engine, &mut stats, &space).unwrap();
        assert!(leaves.len() >= 40, "{} leaves", leaves.len());
        let grown = engine.stats();
        let token = CancelToken::new();
        token.cancel(CancelReason::Deadline);
        engine.set_run_budget(&RunBudget::unlimited().with_token(token));
        match Quantify::finish(engine, tree, &leaves, stats, Instant::now()) {
            Err(CoreError::Cancelled { reason, stats: partial }) => {
                assert_eq!(reason, CancelReason::Deadline);
                // The search-level counters are the whole search's...
                assert_eq!(partial.nodes_evaluated, full.stats.nodes_evaluated);
                assert_eq!(partial.splits_performed, full.stats.splits_performed);
                assert_eq!(partial.candidate_splits, full.stats.candidate_splits);
                assert_eq!(partial.histograms_built, full.stats.histograms_built);
                // ...and the fold stopped part way through its pairs.
                assert!(
                    grown.emd_calls < partial.emd_calls && partial.emd_calls < full.stats.emd_calls,
                    "grown {grown:?}, partial {partial:?}, full {:?}",
                    full.stats
                );
            }
            other => panic!("expected a cancelled fold, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn aggregation_paths_are_bitwise_equivalent(
            n in 8usize..=300,
            attrs in 2usize..=5,
            card in 2u32..=4,
            seed in 0u64..1_000_000,
            bins in 1usize..=12,
            variant in 0usize..24,
        ) {
            // Few bins make many leaves share a content, so self-pairs and
            // repeated distinct pairs are common.
            let space = planted_space(n, attrs, card, seed);
            let aggregator = Aggregator::all()[variant % 6];
            let objective = [Objective::MostUnfair, Objective::LeastUnfair][variant / 6 % 2];
            let eval = [SplitEvaluation::PaperSiblings, SplitEvaluation::Holistic][variant / 12];
            let criterion = FairnessCriterion::new(objective, aggregator)
                .with_hist(crate::histogram::HistogramSpec::unit(bins).unwrap());
            let run = |aggregation| {
                Quantify::new(criterion)
                    .with_split_evaluation(eval)
                    .with_aggregation(aggregation)
                    .run_space(&space)
                    .unwrap()
            };
            let walk = run(Aggregation::PerPair);
            for other in [run(Aggregation::Dedup), run(Aggregation::Auto)] {
                prop_assert_eq!(walk.unfairness.to_bits(), other.unfairness.to_bits());
                prop_assert_eq!(&walk.partitions, &other.partitions);
                prop_assert_eq!(&walk.tree, &other.tree);
                prop_assert_eq!(path_independent(walk.stats), path_independent(other.stats));
            }
        }

        #[test]
        fn final_fold_matches_the_memo_walk_with_every_counter(
            n in 300usize..=1_500,
            attrs in 4usize..=6,
            card in 2u32..=4,
            seed in 0u64..1_000_000,
            bins in 1usize..=12,
            variant in 0usize..24,
        ) {
            // Enough rows and attributes for final partitionings of 17+
            // leaves (the fresh-pair fold's minimum); few bins make some
            // leaves share a content, so repeated and fresh pairs mix.
            let space = planted_space(n, attrs, card, seed);
            let aggregator = Aggregator::all()[variant % 6];
            let objective = [Objective::MostUnfair, Objective::LeastUnfair][variant / 6 % 2];
            let eval = [SplitEvaluation::PaperSiblings, SplitEvaluation::Holistic][variant / 12];
            let criterion = FairnessCriterion::new(objective, aggregator)
                .with_hist(crate::histogram::HistogramSpec::unit(bins).unwrap());
            let run = |aggregation| {
                Quantify::new(criterion)
                    .with_split_evaluation(eval)
                    .with_aggregation(aggregation)
                    .run_space(&space)
                    .unwrap()
            };
            let (fresh, walk) = (run(Aggregation::Auto), run(Aggregation::AutoMemoFold));
            prop_assert_eq!(fresh.unfairness.to_bits(), walk.unfairness.to_bits());
            prop_assert_eq!(&fresh.partitions, &walk.partitions);
            prop_assert_eq!(&fresh.tree, &walk.tree);
            prop_assert_eq!(fresh.stats, walk.stats);
        }
    }
}
