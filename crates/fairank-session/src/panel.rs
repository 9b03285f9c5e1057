//! Panels: one quantification result each (Figure 3, right side).
//!
//! A panel bundles the configuration that produced it, the resolved ranking
//! space, and the `QUANTIFY` outcome. The *General box* statistics describe
//! the whole tree; the *Node box* statistics describe one clicked node.

use std::sync::{Arc, OnceLock};

use fairank_core::fairness::FairnessCriterion;
use fairank_core::histogram::Histogram;
use fairank_core::pairwise::cross_distances;
use fairank_core::quantify::QuantifyOutcome;
use fairank_core::space::RankingSpace;

use crate::config::Configuration;
use crate::error::{Result, SessionError};

/// General information about a panel (the *General* box).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralInfo {
    /// Unfairness of the final partitioning under the panel's criterion.
    pub unfairness: f64,
    /// Number of final partitions (tree leaves).
    pub num_partitions: usize,
    /// Total nodes in the partitioning tree.
    pub tree_nodes: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Individuals analyzed (after filtering).
    pub individuals: usize,
    /// Search wall-clock time in microseconds.
    pub elapsed_us: u128,
    /// Candidate (node, attribute) splits the search scored.
    pub candidate_splits: usize,
    /// Histograms the evaluation engine actually built.
    pub histograms_built: usize,
    /// EMD distances actually computed.
    pub emd_calls: usize,
    /// Distance lookups served from the engine's memo table.
    pub emd_cache_hits: usize,
    /// Pairwise/cross aggregations the engine resolved through its
    /// deduplicated table (large `1d` batches only; 0 under `transport`).
    pub pairwise_batches: usize,
    /// Histograms served from a previous generation's caches by an
    /// incremental (delta) re-quantification (0 for from-scratch panels).
    pub delta_reused_histograms: usize,
    /// Memoized EMD entries dropped by targeted invalidation ahead of the
    /// search (0 for from-scratch panels).
    pub delta_invalidated_emds: usize,
    /// Whether this panel's outcome was served from the content-addressed
    /// cell cache instead of being recomputed.
    pub from_cache: bool,
}

/// Statistics of one tree node (the *Node* box).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Node id within the tree.
    pub node: usize,
    /// Human-readable partition label.
    pub label: String,
    /// Number of individuals in the partition.
    pub size: usize,
    /// Mean score of the partition.
    pub mean_score: f64,
    /// Minimum score.
    pub min_score: f64,
    /// Maximum score.
    pub max_score: f64,
    /// The partition's score histogram.
    pub histogram: Histogram,
    /// Whether the node is a final partition (leaf).
    pub is_leaf: bool,
    /// The attribute the node was split on, if any.
    pub split_attribute: Option<String>,
    /// Aggregated EMD between this node and its siblings under the panel's
    /// criterion — the quantity Algorithm 1's split test compares
    /// (`None` for the root, which has no siblings).
    pub divergence_vs_siblings: Option<f64>,
}

/// The *Node* box of every node of one tree, built at most once and
/// shared by every holder of the same tree: a cell-cache entry and each
/// panel served from or published to it.
pub type NodeMemo = Arc<OnceLock<Vec<NodeStats>>>;

/// One exploration panel.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel id within the session (stable; shown as `#id`).
    pub id: usize,
    /// The configuration that produced this panel.
    pub config: Configuration,
    /// The resolved ranking space (after filtering), shared with every
    /// panel and plan cell of the session on the same dataset content,
    /// score source and filter.
    pub space: Arc<RankingSpace>,
    /// The quantification outcome (the panel's own copy).
    pub outcome: QuantifyOutcome,
    /// Whether the outcome was served from the content-addressed cell
    /// cache (bitwise-identical to a fresh compute, but not recomputed).
    pub from_cache: bool,
    /// The node boxes of the whole tree, filled by the first full-tree
    /// read ([`Panel::nodes`]) and shared with the cell-cache entry the
    /// outcome came from, if any.
    pub node_memo: NodeMemo,
}

impl Panel {
    /// The criterion this panel ran under.
    pub fn criterion(&self) -> &FairnessCriterion {
        &self.config.criterion
    }

    /// The *General* box.
    pub fn general_info(&self) -> GeneralInfo {
        GeneralInfo {
            unfairness: self.outcome.unfairness,
            num_partitions: self.outcome.partitions.len(),
            tree_nodes: self.outcome.tree.len(),
            max_depth: self.outcome.tree.max_depth(),
            individuals: self.space.num_individuals(),
            elapsed_us: self.outcome.elapsed.as_micros(),
            candidate_splits: self.outcome.stats.candidate_splits,
            histograms_built: self.outcome.stats.histograms_built,
            emd_calls: self.outcome.stats.emd_calls,
            emd_cache_hits: self.outcome.stats.emd_cache_hits,
            pairwise_batches: self.outcome.stats.pairwise_batches,
            delta_reused_histograms: self.outcome.stats.delta_reused_histograms,
            delta_invalidated_emds: self.outcome.stats.delta_invalidated_emds,
            from_cache: self.from_cache,
        }
    }

    /// The *Node* box for tree node `node`.
    pub fn node_stats(&self, node: usize) -> Result<NodeStats> {
        if node >= self.outcome.tree.len() {
            return Err(SessionError::UnknownNode {
                panel: self.id,
                node,
            });
        }
        let tree_node = self.outcome.tree.node(node);
        let partition = &tree_node.partition;
        let scores = self.space.scores();
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for s in partition.scores(scores) {
            min = min.min(s);
            max = max.max(s);
            sum += s;
        }
        let mean = if partition.is_empty() {
            0.0
        } else {
            sum / partition.len() as f64
        };
        let histogram = self.config.criterion.histogram(partition, scores);
        let divergence_vs_siblings = tree_node.parent.map(|parent| {
            let siblings: Vec<_> = self
                .outcome
                .tree
                .node(parent)
                .children
                .iter()
                .filter(|&&c| c != node)
                .map(|&c| self.outcome.tree.node(c).partition.clone())
                .collect();
            self.config
                .criterion
                .versus(partition, &siblings, scores)
                .unwrap_or(0.0)
        });
        Ok(NodeStats {
            node,
            label: partition.label(&self.space),
            size: partition.len(),
            mean_score: mean,
            min_score: if partition.is_empty() { 0.0 } else { min },
            max_score: if partition.is_empty() { 0.0 } else { max },
            histogram,
            is_leaf: tree_node.children.is_empty(),
            split_attribute: tree_node
                .split_attr
                .and_then(|a| self.space.attribute(a))
                .map(|a| a.name.clone()),
            divergence_vs_siblings,
        })
    }

    /// The *Node* box of every tree node, by id, in one pass: each
    /// histogram is built once and serves every sibling divergence, which
    /// makes the same EMD and aggregator calls as
    /// [`FairnessCriterion::versus`] — so each entry is bit-identical to
    /// [`Panel::node_stats`] for its node.
    pub fn all_node_stats(&self) -> Vec<NodeStats> {
        let (nodes, criterion, scores) = (
            self.outcome.tree.nodes(),
            self.criterion(),
            self.space.scores(),
        );
        let hists: Vec<Histogram> = nodes
            .iter()
            .map(|n| criterion.histogram(&n.partition, scores))
            .collect();
        let divergence = |node: usize, parent: usize| {
            let siblings = nodes[parent].children.iter().filter(|&&c| c != node);
            let siblings: Vec<Histogram> = siblings.map(|&c| hists[c].clone()).collect();
            let distances = cross_distances(&hists[node..=node], &siblings, &criterion.emd);
            distances.map_or(0.0, |d| criterion.aggregator.apply(&d))
        };
        let name = |attr: usize| self.space.attribute(attr).map(|a| a.name.clone());
        let stats = nodes.iter().enumerate().map(|(node, tree_node)| {
            let partition = &tree_node.partition;
            let (min, max, sum) = partition.scores(scores).fold(
                (f64::INFINITY, f64::NEG_INFINITY, 0.0),
                |(min, max, sum), s| (min.min(s), max.max(s), sum + s),
            );
            let or_zero = |v: f64| if partition.is_empty() { 0.0 } else { v };
            NodeStats {
                node,
                label: partition.label(&self.space),
                size: partition.len(),
                mean_score: or_zero(sum / partition.len() as f64),
                min_score: or_zero(min),
                max_score: or_zero(max),
                histogram: hists[node].clone(),
                is_leaf: tree_node.children.is_empty(),
                split_attribute: tree_node.split_attr.and_then(name),
                divergence_vs_siblings: tree_node.parent.map(|p| divergence(node, p)),
            }
        });
        stats.collect()
    }

    /// The *Node* box of every tree node, by id: [`Panel::all_node_stats`]
    /// on the first call for this tree, the memo afterwards.
    pub fn nodes(&self) -> &[NodeStats] {
        self.node_memo.get_or_init(|| self.all_node_stats())
    }

    /// The *Node* box for one node: read from the memo when the whole
    /// tree has been built already, otherwise computed alone (so a first
    /// click never pays for the whole tree).
    pub fn node(&self, node: usize) -> Result<NodeStats> {
        match self.node_memo.get().and_then(|nodes| nodes.get(node)) {
            Some(stats) => Ok(stats.clone()),
            None => self.node_stats(node),
        }
    }

    /// Node stats for every leaf (final partition), in tree order.
    pub fn leaf_stats(&self) -> Vec<NodeStats> {
        let nodes = self.nodes();
        let leaves = self.outcome.tree.leaf_ids().into_iter();
        leaves.map(|id| nodes[id].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairank_core::quantify::Quantify;
    use fairank_core::scoring::ScoreSource;
    use fairank_data::paper;

    fn panel() -> Panel {
        let ds = paper::table1_dataset();
        let source = ScoreSource::Function(paper::table1_scoring());
        let space = ds.to_space(&source).unwrap();
        let config = Configuration::new("table1", "paper-f");
        let outcome = Quantify::new(config.criterion).run_space(&space).unwrap();
        Panel {
            id: 1,
            config,
            space: Arc::new(space),
            outcome,
            from_cache: false,
            node_memo: NodeMemo::default(),
        }
    }

    #[test]
    fn general_info_is_consistent() {
        let p = panel();
        let info = p.general_info();
        assert_eq!(info.individuals, 10);
        assert!(info.num_partitions >= 1);
        assert!(info.tree_nodes >= info.num_partitions);
        assert!(info.unfairness >= 0.0);
    }

    #[test]
    fn root_node_stats() {
        let p = panel();
        let stats = p.node_stats(0).unwrap();
        assert_eq!(stats.label, "ALL");
        assert_eq!(stats.size, 10);
        assert!(stats.mean_score > 0.0);
        assert!(stats.min_score <= stats.max_score);
        assert_eq!(stats.histogram.total(), 10);
        // Table 1's scores range from 0.195 to 0.971.
        assert!((stats.min_score - 0.195).abs() < 1e-9);
        assert!((stats.max_score - 0.971).abs() < 1e-9);
    }

    #[test]
    fn leaf_stats_cover_all_individuals() {
        let p = panel();
        let leaves = p.leaf_stats();
        let total: usize = leaves.iter().map(|l| l.size).sum();
        assert_eq!(total, 10);
        assert!(leaves.iter().all(|l| l.is_leaf));
    }

    #[test]
    fn unknown_node_errors() {
        let p = panel();
        assert!(matches!(
            p.node_stats(999).unwrap_err(),
            SessionError::UnknownNode { .. }
        ));
    }

    #[test]
    fn split_attribute_is_named() {
        let p = panel();
        let root = p.node_stats(0).unwrap();
        if !root.is_leaf {
            assert!(root.split_attribute.is_some());
        }
    }

    #[test]
    fn divergence_is_none_for_root_and_set_for_children() {
        let p = panel();
        assert!(p.node_stats(0).unwrap().divergence_vs_siblings.is_none());
        // Every non-root node has at least one sibling (splits produce ≥ 2
        // children), so divergence is defined and non-negative.
        for id in 1..p.outcome.tree.len() {
            let d = p.node_stats(id).unwrap().divergence_vs_siblings;
            let d = d.expect("non-root nodes have siblings");
            assert!(d >= 0.0);
        }
    }
}
