//! Cell-level execution for scenario plans.
//!
//! A *cell* is one independent unit of analysis work: a search strategy
//! applied to one prepared [`RankingSpace`] under one fairness criterion.
//! Scenario plans (the session layer's `plan` module) compile grids of
//! configurations into many such cells and fan them out — sequentially,
//! over scoped threads, or across a server worker pool. This module owns
//! the part that is pure `fairank-core`: naming the strategy, running it
//! on the [`SplitEngine`](crate::engine::SplitEngine)-backed searches, and normalizing the outcome so
//! every strategy reports through the same shape.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::beam::BeamSearch;
use crate::cancel::RunBudget;
use crate::error::Result;
use crate::exhaustive::ExhaustiveSearch;
use crate::fairness::FairnessCriterion;
use crate::fault;
use crate::fingerprint::{ContentHasher, Fingerprint};
use crate::quantify::{Quantify, QuantifyOutcome, SearchStats};
use crate::space::RankingSpace;

/// Which partitioning search a plan cell runs.
///
/// All three strategies evaluate through the shared
/// [`SplitEngine`](crate::engine::SplitEngine); the strategy only decides
/// how the partitioning space is explored.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Algorithm 1 (`QUANTIFY`): the greedy recursive partitioning search.
    Quantify {
        /// Cap on the tree depth (`None` = unbounded).
        max_depth: Option<usize>,
        /// Refuse splits creating partitions smaller than this (≥ 1).
        min_partition: usize,
    },
    /// Beam search over partial partitionings.
    Beam {
        /// Beam width (states kept per expansion).
        width: usize,
    },
    /// Budgeted exhaustive enumeration of the tree-partitioning space.
    Exhaustive {
        /// Cap on the number of partitionings enumerated.
        budget: u64,
    },
}

impl Default for SearchStrategy {
    fn default() -> Self {
        SearchStrategy::Quantify {
            max_depth: None,
            min_partition: 1,
        }
    }
}

impl SearchStrategy {
    /// Short strategy name (`quantify` / `beam` / `exhaustive`).
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Quantify { .. } => "quantify",
            SearchStrategy::Beam { .. } => "beam",
            SearchStrategy::Exhaustive { .. } => "exhaustive",
        }
    }

    /// One-line description including the strategy's parameters.
    pub fn describe(&self) -> String {
        match self {
            SearchStrategy::Quantify {
                max_depth: None,
                min_partition: 1,
            } => "quantify".to_string(),
            SearchStrategy::Quantify {
                max_depth,
                min_partition,
            } => {
                let depth = max_depth
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "∞".into());
                format!("quantify(depth={depth}, min={min_partition})")
            }
            SearchStrategy::Beam { width } => format!("beam(width={width})"),
            SearchStrategy::Exhaustive { budget } => {
                format!("exhaustive(budget={budget})")
            }
        }
    }

    /// Runs the strategy on a prepared space under `criterion`.
    pub fn run(
        &self,
        criterion: FairnessCriterion,
        space: &RankingSpace,
    ) -> Result<CellOutcome> {
        self.run_budgeted(criterion, space, &RunBudget::unlimited())
    }

    /// Runs the strategy under a cooperative cancellation budget: a fired
    /// deadline or token aborts the search with
    /// [`crate::CoreError::Cancelled`] carrying partial [`SearchStats`].
    pub fn run_budgeted(
        &self,
        criterion: FairnessCriterion,
        space: &RankingSpace,
        budget: &RunBudget,
    ) -> Result<CellOutcome> {
        fault::sleep_point(fault::SLOW_CELL);
        match *self {
            SearchStrategy::Quantify {
                max_depth,
                min_partition,
            } => {
                let mut search = Quantify::new(criterion)
                    .with_min_partition_size(min_partition)
                    .with_run_budget(budget.clone());
                if let Some(depth) = max_depth {
                    search = search.with_max_depth(depth);
                }
                let outcome = search.run_space(space)?;
                Ok(CellOutcome {
                    unfairness: outcome.unfairness,
                    num_partitions: outcome.partitions.len(),
                    stats: outcome.stats,
                    elapsed: outcome.elapsed,
                    quantify: Some(outcome),
                })
            }
            SearchStrategy::Beam { width } => {
                let outcome = BeamSearch::new(criterion, width)
                    .with_run_budget(budget.clone())
                    .run_space(space)?;
                Ok(CellOutcome {
                    unfairness: outcome.unfairness,
                    num_partitions: outcome.partitions.len(),
                    stats: SearchStats {
                        nodes_evaluated: outcome.states_expanded,
                        splits_performed: 0,
                        candidate_splits: 0,
                        histograms_built: outcome.engine_stats.histograms_built,
                        emd_calls: outcome.engine_stats.emd_calls,
                        emd_cache_hits: outcome.engine_stats.emd_cache_hits,
                        pairwise_batches: outcome.engine_stats.pairwise_batches,
                        delta_reused_histograms: outcome.engine_stats.delta_reused_histograms,
                        delta_invalidated_emds: outcome.engine_stats.delta_invalidated_emds,
                    },
                    elapsed: outcome.elapsed,
                    quantify: None,
                })
            }
            SearchStrategy::Exhaustive { budget: cap } => {
                let outcome = ExhaustiveSearch::new(criterion)
                    .with_budget(cap)
                    .with_run_budget(budget.clone())
                    .run_space(space)?;
                Ok(CellOutcome {
                    unfairness: outcome.best_value,
                    num_partitions: outcome.best_partitions.len(),
                    stats: SearchStats {
                        nodes_evaluated: usize::try_from(outcome.trees_enumerated)
                            .unwrap_or(usize::MAX),
                        splits_performed: 0,
                        candidate_splits: 0,
                        histograms_built: outcome.engine_stats.histograms_built,
                        emd_calls: outcome.engine_stats.emd_calls,
                        emd_cache_hits: outcome.engine_stats.emd_cache_hits,
                        pairwise_batches: outcome.engine_stats.pairwise_batches,
                        delta_reused_histograms: outcome.engine_stats.delta_reused_histograms,
                        delta_invalidated_emds: outcome.engine_stats.delta_invalidated_emds,
                    },
                    elapsed: outcome.elapsed,
                    quantify: None,
                })
            }
        }
    }
}

/// Content-addressed identity of a memoizable plan cell.
///
/// Two cells with equal keys are guaranteed (by construction, not by
/// trust) to compute the identical [`CellOutcome`]: the `dataset` half
/// fingerprints the source dataset's columnar content and schema, and
/// the `spec` half fingerprints the canonicalized, fully *resolved* cell
/// spec — the concrete score source (named functions are resolved to
/// their weights first, so two sessions using the same name for
/// different functions never collide), the filter, the range-fitted
/// criterion (objective, aggregator, bins, histogram range, EMD
/// backend), and the search strategy. Since plan cells are deterministic
/// functions of those inputs (pinned since the plan layer landed), a
/// cache keyed on `CellKey` serves results bitwise-identical to a fresh
/// compute.
///
/// Mutable inputs (the streaming re-audit's evolving spaces) have no
/// stable content identity and therefore never get a key — they bypass
/// any cell cache and run through the incremental `DeltaEngine` instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellKey {
    /// Fingerprint of the source dataset (columnar content + schema).
    pub dataset: Fingerprint,
    /// Fingerprint of the canonicalized resolved cell spec.
    pub spec: Fingerprint,
}

impl CellKey {
    /// Derives a key from a dataset fingerprint and the canonical byte
    /// serialization of the resolved cell spec.
    pub fn new(dataset: Fingerprint, spec_bytes: &[u8]) -> CellKey {
        let mut h = ContentHasher::new();
        h.update_str("fairank.cellkey.v1");
        h.update_u64(dataset.hi);
        h.update_u64(dataset.lo);
        h.update_len(spec_bytes.len());
        h.update(spec_bytes);
        CellKey {
            dataset,
            spec: h.finish(),
        }
    }
}

/// The normalized result of one plan cell, regardless of strategy.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Unfairness of the best/final partitioning under the criterion.
    pub unfairness: f64,
    /// Number of partitions in that partitioning.
    pub num_partitions: usize,
    /// Engine work counters (per-strategy fields normalized into
    /// [`SearchStats`]; beam/exhaustive report expansions/enumerations via
    /// `nodes_evaluated`).
    pub stats: SearchStats,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
    /// The full `QUANTIFY` outcome when the strategy was
    /// [`SearchStrategy::Quantify`] — this is what panels are made of.
    pub quantify: Option<QuantifyOutcome>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ProtectedAttribute;

    fn space() -> RankingSpace {
        let g = ProtectedAttribute::from_values(
            "g",
            &["a", "a", "b", "b", "a", "b", "a", "b"],
        );
        let h = ProtectedAttribute::from_values(
            "h",
            &["x", "y", "x", "y", "y", "x", "x", "y"],
        );
        RankingSpace::new(
            vec![g, h],
            vec![0.1, 0.2, 0.8, 0.9, 0.15, 0.85, 0.12, 0.88],
        )
        .unwrap()
    }

    #[test]
    fn default_strategy_matches_plain_quantify() {
        let space = space();
        let criterion = FairnessCriterion::default().fit_range(&space);
        let direct = Quantify::new(criterion).run_space(&space).unwrap();
        let cell = SearchStrategy::default().run(criterion, &space).unwrap();
        assert_eq!(cell.unfairness, direct.unfairness);
        assert_eq!(cell.num_partitions, direct.partitions.len());
        assert_eq!(cell.stats, direct.stats);
        let quantify = cell.quantify.expect("quantify strategy keeps the outcome");
        assert_eq!(quantify.tree.len(), direct.tree.len());
    }

    #[test]
    fn beam_and_exhaustive_report_through_the_same_shape() {
        let space = space();
        let criterion = FairnessCriterion::default().fit_range(&space);
        let beam = SearchStrategy::Beam { width: 3 }
            .run(criterion, &space)
            .unwrap();
        assert!(beam.quantify.is_none());
        assert!(beam.num_partitions >= 1);
        assert!(beam.stats.nodes_evaluated >= 1);

        let exhaustive = SearchStrategy::Exhaustive { budget: 10_000 }
            .run(criterion, &space)
            .unwrap();
        assert!(exhaustive.quantify.is_none());
        // The exhaustive optimum is at least as unfair as any heuristic
        // under the default most-unfair objective.
        assert!(exhaustive.unfairness >= beam.unfairness - 1e-12);
    }

    #[test]
    fn names_and_descriptions() {
        assert_eq!(SearchStrategy::default().name(), "quantify");
        assert_eq!(SearchStrategy::default().describe(), "quantify");
        assert_eq!(
            SearchStrategy::Quantify {
                max_depth: Some(2),
                min_partition: 5
            }
            .describe(),
            "quantify(depth=2, min=5)"
        );
        assert_eq!(SearchStrategy::Beam { width: 4 }.describe(), "beam(width=4)");
        assert_eq!(
            SearchStrategy::Exhaustive { budget: 99 }.describe(),
            "exhaustive(budget=99)"
        );
    }

    #[test]
    fn strategy_serde_round_trip() {
        for strategy in [
            SearchStrategy::default(),
            SearchStrategy::Quantify {
                max_depth: Some(3),
                min_partition: 2,
            },
            SearchStrategy::Beam { width: 8 },
            SearchStrategy::Exhaustive { budget: 1234 },
        ] {
            let json = serde_json::to_string(&strategy).unwrap();
            let back: SearchStrategy = serde_json::from_str(&json).unwrap();
            assert_eq!(strategy, back);
        }
    }
}
