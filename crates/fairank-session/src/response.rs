//! The typed request/response layer of the session API.
//!
//! Every command of the exploration language produces a [`Response`]: a
//! serde-serializable enum of structured payloads carrying the *data* a
//! result consists of, with no human formatting baked in. The REPL renders
//! responses through [`crate::present::render`]; services ship them over
//! the wire as JSON and let any client decide how to display them.
//!
//! The wire views ([`PanelView`], [`NodeView`], …) are self-contained: they
//! borrow nothing from the session, so a response outlives the session
//! state that produced it and deserializes on machines that never held the
//! datasets.

use serde::{Deserialize, Serialize};

use crate::panel::{NodeStats, Panel};
use crate::plan::ScenarioReport;
use crate::report::{AuditorReport, EndUserReport, JobOwnerReport};

/// One dataset line of a `datasets` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetEntry {
    /// Registered name.
    pub name: String,
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub columns: usize,
}

/// One function line of a `funcs` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionEntry {
    /// Registered name.
    pub name: String,
    /// `(attribute, weight)` terms in declaration order.
    pub terms: Vec<(String, f64)>,
}

/// One panel line of a `panels` listing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelEntry {
    /// Panel id.
    pub id: usize,
    /// Quantified unfairness.
    pub unfairness: f64,
    /// One-line configuration description.
    pub config: String,
}

/// Wire form of one partitioning-tree node: [`NodeStats`] plus the tree
/// edges needed to re-render the tree without the session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeView {
    /// Node id within the tree.
    pub node: usize,
    /// Parent node id (`None` for the root).
    pub parent: Option<usize>,
    /// Child node ids, in split order.
    pub children: Vec<usize>,
    /// Human-readable partition label (conjunction of constraints).
    pub label: String,
    /// Number of individuals in the partition.
    pub size: usize,
    /// Mean score of the partition.
    pub mean_score: f64,
    /// Minimum score.
    pub min_score: f64,
    /// Maximum score.
    pub max_score: f64,
    /// Histogram bin counts under the panel's spec.
    pub histogram: Vec<u64>,
    /// Whether the node is a final partition (leaf).
    pub is_leaf: bool,
    /// The attribute the node was split on, if any.
    pub split_attribute: Option<String>,
    /// Aggregated EMD between this node and its siblings (`None` for the
    /// root).
    pub divergence_vs_siblings: Option<f64>,
}

impl NodeView {
    /// Builds the wire view from in-session node statistics plus edges.
    pub fn from_stats(stats: &NodeStats, parent: Option<usize>, children: Vec<usize>) -> Self {
        NodeView {
            node: stats.node,
            parent,
            children,
            label: stats.label.clone(),
            size: stats.size,
            mean_score: stats.mean_score,
            min_score: stats.min_score,
            max_score: stats.max_score,
            histogram: stats.histogram.counts().to_vec(),
            is_leaf: stats.is_leaf,
            split_attribute: stats.split_attribute.clone(),
            divergence_vs_siblings: stats.divergence_vs_siblings,
        }
    }
}

/// Wire form of a whole panel: the *General* box numbers plus every tree
/// node ([`NodeView`]), root first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelView {
    /// Panel id within the session.
    pub id: usize,
    /// One-line configuration description.
    pub config: String,
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
    pub elapsed_us: u64,
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
    /// Whether the panel's outcome was served from the cross-session cell
    /// cache (bitwise-identical to a fresh compute, nothing recomputed).
    pub from_cache: bool,
    /// Every tree node, root first.
    pub nodes: Vec<NodeView>,
}

impl PanelView {
    /// Builds the full wire view of a panel (general info + all nodes).
    pub fn from_panel(panel: &Panel) -> crate::error::Result<Self> {
        let mut view = Self::general_only(panel);
        view.nodes = node_views(panel);
        Ok(view)
    }

    /// The general-info part alone (no tree nodes) — enough for the
    /// *General* box and cheap to build.
    pub fn general_only(panel: &Panel) -> Self {
        let info = panel.general_info();
        PanelView {
            id: panel.id,
            config: panel.config.describe(),
            unfairness: info.unfairness,
            num_partitions: info.num_partitions,
            tree_nodes: info.tree_nodes,
            max_depth: info.max_depth,
            individuals: info.individuals,
            elapsed_us: u64::try_from(info.elapsed_us).unwrap_or(u64::MAX),
            candidate_splits: info.candidate_splits,
            histograms_built: info.histograms_built,
            emd_calls: info.emd_calls,
            emd_cache_hits: info.emd_cache_hits,
            pairwise_batches: info.pairwise_batches,
            delta_reused_histograms: info.delta_reused_histograms,
            delta_invalidated_emds: info.delta_invalidated_emds,
            from_cache: info.from_cache,
            nodes: Vec::new(),
        }
    }
}

/// Wire views of every node of a panel's tree, root first, read from the
/// panel's node memo (built in one pass the first time the tree is read).
pub fn node_views(panel: &Panel) -> Vec<NodeView> {
    let tree = &panel.outcome.tree;
    panel
        .nodes()
        .iter()
        .map(|stats| {
            let tree_node = tree.node(stats.node);
            NodeView::from_stats(stats, tree_node.parent, tree_node.children.clone())
        })
        .collect()
}

/// Side-by-side comparison of two panels (the `compare` command).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareView {
    /// First panel id.
    pub a_id: usize,
    /// Second panel id.
    pub b_id: usize,
    /// First panel's configuration description.
    pub a_config: String,
    /// Second panel's configuration description.
    pub b_config: String,
    /// First panel's unfairness.
    pub a_unfairness: f64,
    /// Second panel's unfairness.
    pub b_unfairness: f64,
    /// `b_unfairness - a_unfairness`.
    pub delta: f64,
    /// First panel's partition count.
    pub a_partitions: usize,
    /// Second panel's partition count.
    pub b_partitions: usize,
    /// First panel's individual count.
    pub a_individuals: usize,
    /// Second panel's individual count.
    pub b_individuals: usize,
}

impl CompareView {
    /// Builds the comparison of two panels.
    pub fn new(a: &Panel, b: &Panel) -> Self {
        let ia = a.general_info();
        let ib = b.general_info();
        CompareView {
            a_id: a.id,
            b_id: b.id,
            a_config: a.config.describe(),
            b_config: b.config.describe(),
            a_unfairness: ia.unfairness,
            b_unfairness: ib.unfairness,
            delta: ib.unfairness - ia.unfairness,
            a_partitions: ia.num_partitions,
            b_partitions: ib.num_partitions,
            a_individuals: ia.individuals,
            b_individuals: ib.individuals,
        }
    }
}

/// One subgroup line of a `subgroups` result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubgroupEntry {
    /// Conjunctive label, e.g. `gender=Female ∧ city=Lyon`.
    pub label: String,
    /// Members.
    pub size: usize,
    /// Mean-score advantage over the rest of the population.
    pub advantage: f64,
    /// Histogram divergence from the rest of the population.
    pub divergence: f64,
}

/// The `subgroups` command result: extremes of the subgroup lattice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubgroupView {
    /// Dataset analyzed.
    pub dataset: String,
    /// Scoring function used.
    pub function: String,
    /// Conjunction-depth bound.
    pub depth: usize,
    /// Minimum subgroup size considered.
    pub min_size: usize,
    /// Total subgroups enumerated.
    pub total: usize,
    /// Most favored subgroups, best first.
    pub most_favored: Vec<SubgroupEntry>,
    /// Least favored subgroups, worst first.
    pub least_favored: Vec<SubgroupEntry>,
}

/// A streaming re-audit trajectory (the `stream` command): the marketplace
/// it ran against plus the per-round audits of
/// [`fairank_marketplace::stream::run_stream`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamView {
    /// Marketplace name.
    pub marketplace: String,
    /// The full per-round trajectory.
    pub outcome: fairank_marketplace::stream::StreamOutcome,
}

/// The head of a dataset (the `data` command): raw cells, rendered
/// client-side with the same alignment the REPL always used.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataHeadView {
    /// Dataset name.
    pub name: String,
    /// Column names, in dataset order.
    pub columns: Vec<String>,
    /// Shown rows (each cell already value-rendered).
    pub rows: Vec<Vec<String>>,
    /// Total rows in the dataset (may exceed `rows.len()`).
    pub total_rows: usize,
}

/// The server registry's live state (the `sessions` admin reply): session
/// names plus dataset-store and cell-cache statistics, so an operator can
/// see how much sharing and memoization the fleet is getting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RegistryStatsView {
    /// Live session names, sorted.
    pub sessions: Vec<String>,
    /// Distinct datasets resident in the shared content-addressed store.
    pub store_datasets: u64,
    /// Approximate resident bytes across those datasets (each counted
    /// once, however many sessions share it).
    pub store_bytes: u64,
    /// Ready entries in the cross-session cell cache.
    pub cell_cache_entries: u64,
    /// Cell claims served from the cache since server start.
    pub cell_cache_hits: u64,
    /// Cell claims that computed (and published) since server start.
    pub cell_cache_misses: u64,
    /// Cache entries evicted by the LRU bound since server start.
    pub cell_cache_evictions: u64,
}

/// A structured session response — the typed result of [`crate::command::apply`].
///
/// Every variant is a machine-readable payload; [`crate::present::render`]
/// turns any of them into exactly the text the string-based `execute` API
/// printed before this layer existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The command reference (`help`).
    Help,
    /// The session should end (`quit`).
    Quit,
    /// Registered datasets (`datasets`).
    DatasetList(Vec<DatasetEntry>),
    /// Registered scoring functions (`funcs`).
    FunctionList(Vec<FunctionEntry>),
    /// Existing panels (`panels`).
    PanelList(Vec<PanelEntry>),
    /// A CSV dataset was loaded (`load`).
    DatasetLoaded {
        /// Registered name.
        name: String,
        /// Rows loaded.
        rows: usize,
        /// Source path.
        path: String,
    },
    /// A synthetic dataset was generated (`generate`).
    DatasetGenerated {
        /// Registered name.
        name: String,
        /// Generator preset.
        preset: String,
        /// Population size.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A scoring function was defined (`define`).
    FunctionDefined {
        /// Registered name.
        name: String,
        /// The expression as typed.
        expr: String,
    },
    /// The head of a dataset (`data`).
    DataHead(DataHeadView),
    /// Per-column summary statistics (`describe`). The table is produced by
    /// the dataset substrate; the wire carries it as rendered text.
    Description {
        /// Dataset name.
        name: String,
        /// The statistics table.
        text: String,
    },
    /// The session was persisted (`save`).
    SessionSaved {
        /// Target directory.
        dir: String,
        /// Datasets written.
        datasets: usize,
        /// Functions written.
        functions: usize,
    },
    /// A saved session replaced the current one (`open`).
    SessionOpened {
        /// Source directory.
        dir: String,
        /// Datasets restored.
        datasets: usize,
        /// Functions restored.
        functions: usize,
    },
    /// A filtered dataset was derived (`filter`).
    DatasetDerived {
        /// New dataset name.
        name: String,
        /// Source dataset.
        source: String,
        /// Filter expression.
        expr: String,
        /// Rows surviving the filter.
        rows: usize,
    },
    /// An anonymized dataset was derived (`anonymize`).
    DatasetAnonymized {
        /// New dataset name.
        name: String,
        /// Source dataset.
        source: String,
        /// Algorithm name (`Mondrian`, `Datafly`, `Incognito`).
        method: String,
        /// The k of k-anonymity.
        k: usize,
        /// Rows suppressed by the algorithm.
        suppressed: usize,
    },
    /// A quantification created a panel (`quantify`).
    PanelCreated(PanelView),
    /// A panel's general box and tree (`show`).
    PanelDetail(PanelView),
    /// One tree node's statistics (`node`).
    NodeDetail(NodeView),
    /// A search-decision explanation (`why`).
    Explanation {
        /// Panel id.
        panel: usize,
        /// Node id.
        node: usize,
        /// The rendered explanation.
        text: String,
    },
    /// Two panels side by side (`compare`).
    CompareReport(CompareView),
    /// A panel was exported to JSON (`export`).
    Exported {
        /// Panel id.
        panel: usize,
        /// Output path.
        path: String,
    },
    /// Subgroup lattice extremes (`subgroups`).
    Subgroups(SubgroupView),
    /// The §4 auditor scenario (`audit`).
    Audit(AuditorReport),
    /// The §4 job-owner scenario (`jobowner`).
    JobOwnerSweep(JobOwnerReport),
    /// The §4 end-user scenario (`enduser`).
    EndUserView(EndUserReport),
    /// A streaming incremental re-audit (`stream`).
    Stream(StreamView),
    /// A whole scenario plan ran (`scenario`): the reduced outcome plus
    /// per-cell engine counters and wall-clock stats.
    Scenario(ScenarioReport),
    /// The server's live sessions plus store/cache statistics
    /// (`sessions`, admin only).
    SessionList(RegistryStatsView),
    /// A session was evicted from the server registry (`evict`, admin
    /// only).
    SessionEvicted {
        /// The evicted session's name.
        name: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
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
            id: 0,
            config,
            space: space.into(),
            outcome,
            from_cache: false,
            node_memo: Default::default(),
        }
    }

    fn round_trip(response: &Response) {
        let json = serde_json::to_string(response).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(response, &back, "round trip changed {json}");
    }

    #[test]
    fn panel_view_mirrors_general_info() {
        let p = panel();
        let view = PanelView::from_panel(&p).unwrap();
        let info = p.general_info();
        assert_eq!(view.id, 0);
        assert_eq!(view.unfairness, info.unfairness);
        assert_eq!(view.num_partitions, info.num_partitions);
        assert_eq!(view.tree_nodes, info.tree_nodes);
        assert_eq!(view.individuals, 10);
        assert_eq!(view.nodes.len(), p.outcome.tree.len());
        // Edges mirror the tree.
        assert_eq!(view.nodes[0].parent, None);
        for node in &view.nodes {
            for &c in &node.children {
                assert_eq!(view.nodes[c].parent, Some(node.node));
            }
        }
        // Leaf sizes cover the population.
        let leaf_total: usize = view
            .nodes
            .iter()
            .filter(|n| n.is_leaf)
            .map(|n| n.size)
            .sum();
        assert_eq!(leaf_total, 10);
    }

    #[test]
    fn compare_view_delta() {
        let p = panel();
        let view = CompareView::new(&p, &p);
        assert_eq!(view.delta, 0.0);
        assert_eq!(view.a_config, view.b_config);
    }

    // One serde round trip per Response variant — the wire contract of the
    // whole command language.

    #[test]
    fn round_trip_simple_variants() {
        round_trip(&Response::Help);
        round_trip(&Response::Quit);
        round_trip(&Response::DatasetLoaded {
            name: "d".into(),
            rows: 7,
            path: "x.csv".into(),
        });
        round_trip(&Response::DatasetGenerated {
            name: "pop".into(),
            preset: "biased".into(),
            n: 200,
            seed: 42,
        });
        round_trip(&Response::FunctionDefined {
            name: "f".into(),
            expr: "rating*1.0".into(),
        });
        round_trip(&Response::Description {
            name: "pop".into(),
            text: "3 rows × 2 columns\n".into(),
        });
        round_trip(&Response::SessionSaved {
            dir: "/tmp/s".into(),
            datasets: 1,
            functions: 2,
        });
        round_trip(&Response::SessionOpened {
            dir: "/tmp/s".into(),
            datasets: 1,
            functions: 2,
        });
        round_trip(&Response::DatasetDerived {
            name: "women".into(),
            source: "pop".into(),
            expr: "gender=Female".into(),
            rows: 48,
        });
        round_trip(&Response::DatasetAnonymized {
            name: "anon".into(),
            source: "pop".into(),
            method: "Mondrian".into(),
            k: 5,
            suppressed: 0,
        });
        round_trip(&Response::Explanation {
            panel: 0,
            node: 1,
            text: "SPLIT on gender".into(),
        });
        round_trip(&Response::Exported {
            panel: 3,
            path: "p.json".into(),
        });
    }

    #[test]
    fn round_trip_listing_variants() {
        round_trip(&Response::DatasetList(vec![DatasetEntry {
            name: "pop".into(),
            rows: 100,
            columns: 5,
        }]));
        round_trip(&Response::DatasetList(Vec::new()));
        round_trip(&Response::FunctionList(vec![FunctionEntry {
            name: "f".into(),
            terms: vec![("rating".into(), 0.7), ("language_test".into(), 0.3)],
        }]));
        round_trip(&Response::PanelList(vec![PanelEntry {
            id: 0,
            unfairness: 0.25,
            config: "pop | f".into(),
        }]));
        round_trip(&Response::DataHead(DataHeadView {
            name: "pop".into(),
            columns: vec!["gender".into(), "rating".into()],
            rows: vec![vec!["F".into(), "0.2".into()]],
            total_rows: 100,
        }));
    }

    #[test]
    fn round_trip_panel_variants() {
        let p = panel();
        let view = PanelView::from_panel(&p).unwrap();
        round_trip(&Response::PanelCreated(view.clone()));
        round_trip(&Response::PanelDetail(view.clone()));
        round_trip(&Response::NodeDetail(view.nodes[0].clone()));
        round_trip(&Response::CompareReport(CompareView::new(&p, &p)));
    }

    #[test]
    fn round_trip_subgroups_variant() {
        round_trip(&Response::Subgroups(SubgroupView {
            dataset: "pop".into(),
            function: "f".into(),
            depth: 2,
            min_size: 5,
            total: 17,
            most_favored: vec![SubgroupEntry {
                label: "gender=Male".into(),
                size: 52,
                advantage: 0.12,
                divergence: 0.3,
            }],
            least_favored: vec![SubgroupEntry {
                label: "gender=Female".into(),
                size: 48,
                advantage: -0.12,
                divergence: 0.3,
            }],
        }));
    }

    #[test]
    fn round_trip_registry_admin_variants() {
        round_trip(&Response::SessionList(RegistryStatsView {
            sessions: vec!["a".into(), "b".into()],
            store_datasets: 3,
            store_bytes: 123_456,
            cell_cache_entries: 17,
            cell_cache_hits: 40,
            cell_cache_misses: 17,
            cell_cache_evictions: 2,
        }));
        round_trip(&Response::SessionList(RegistryStatsView::default()));
        round_trip(&Response::SessionEvicted { name: "a".into() });
    }

    #[test]
    fn round_trip_scenario_variant() {
        use crate::plan::{compile, Perspective, ScenarioSpec};

        let mut session = crate::session::Session::new();
        session
            .add_dataset("table1", fairank_data::paper::table1_dataset())
            .unwrap();
        session
            .add_function("paper-f", fairank_data::paper::table1_scoring())
            .unwrap();
        let spec = ScenarioSpec::new(Perspective::Grid {
            datasets: vec!["table1".into()],
            functions: vec!["paper-f".into()],
            filter: None,
        });
        let report = compile(&session, &spec)
            .unwrap()
            .run(&mut session)
            .unwrap();
        round_trip(&Response::Scenario(report));
    }

    #[test]
    fn round_trip_report_variants() {
        use fairank_core::fairness::FairnessCriterion;
        use fairank_data::filter::Filter;
        use fairank_marketplace::scenario::taskrabbit_like;
        use fairank_marketplace::Transparency;

        let market = taskrabbit_like(120, 7).unwrap();
        let audit = crate::report::auditor_report(
            &market,
            &Transparency::full(),
            &FairnessCriterion::default(),
            1,
            10,
        )
        .unwrap();
        round_trip(&Response::Audit(audit));

        let base = market.job("wood-panels").unwrap().scoring.clone();
        let sweep = crate::report::job_owner_sweep(
            market.workers(),
            &base,
            "rating",
            &[0.0, 0.5, 1.0],
            &FairnessCriterion::default(),
        )
        .unwrap();
        round_trip(&Response::JobOwnerSweep(sweep));

        let end_user = crate::report::end_user_report(
            &market,
            &Filter::all().eq("gender", "Female"),
            &FairnessCriterion::default(),
        )
        .unwrap();
        round_trip(&Response::EndUserView(end_user));
    }

    #[test]
    fn round_trip_stream_variant() {
        use fairank_core::fairness::FairnessCriterion;
        use fairank_marketplace::scenario::taskrabbit_like;
        use fairank_marketplace::stream::{run_stream, StreamConfig};
        use fairank_marketplace::Transparency;

        let market = taskrabbit_like(50, 11).unwrap();
        let outcome = run_stream(
            &market,
            "errands",
            &Transparency::full(),
            &FairnessCriterion::default(),
            StreamConfig {
                rounds: 2,
                arrivals_per_round: 1,
                departures_per_round: 1,
                rescores_per_round: 2,
                seed: Some(3),
            },
        )
        .unwrap();
        round_trip(&Response::Stream(StreamView {
            marketplace: market.name.clone(),
            outcome,
        }));
    }
}
