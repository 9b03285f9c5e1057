//! JSON export of panels.
//!
//! The web UI the paper demonstrates renders partitioning trees from the
//! engine's state; this module serializes that state so any front end (or a
//! notebook) can re-render a panel. Exports are self-contained summaries,
//! not full datasets.

use serde::{Deserialize, Serialize};

use crate::error::{Result, SessionError};
use crate::panel::Panel;

/// One exported tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExportNode {
    /// Node id within the tree.
    pub id: usize,
    /// Parent node id (`None` for the root).
    pub parent: Option<usize>,
    /// Partition label (conjunction of constraints).
    pub label: String,
    /// Partition size.
    pub size: usize,
    /// Mean score.
    pub mean_score: f64,
    /// Histogram bin counts under the panel's spec.
    pub histogram: Vec<u64>,
    /// Attribute this node was split on, if internal.
    pub split_attribute: Option<String>,
    /// True for final partitions.
    pub is_leaf: bool,
    /// Aggregated EMD to the node's siblings (`None` for the root).
    pub divergence_vs_siblings: Option<f64>,
}

/// A self-contained panel export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelExport {
    /// Panel id.
    pub id: usize,
    /// One-line configuration description.
    pub config: String,
    /// Quantified unfairness of the leaf partitioning.
    pub unfairness: f64,
    /// Objective name.
    pub objective: String,
    /// Aggregator name.
    pub aggregator: String,
    /// Histogram bin count.
    pub bins: usize,
    /// Individuals analyzed.
    pub individuals: usize,
    /// Every tree node, root first.
    pub nodes: Vec<ExportNode>,
}

/// Builds the export representation of a panel.
pub fn export_panel(panel: &Panel) -> Result<PanelExport> {
    let nodes = panel
        .nodes()
        .iter()
        .map(|stats| ExportNode {
            id: stats.node,
            parent: panel.outcome.tree.node(stats.node).parent,
            label: stats.label.clone(),
            size: stats.size,
            mean_score: stats.mean_score,
            histogram: stats.histogram.counts().to_vec(),
            split_attribute: stats.split_attribute.clone(),
            is_leaf: stats.is_leaf,
            divergence_vs_siblings: stats.divergence_vs_siblings,
        })
        .collect();
    Ok(PanelExport {
        id: panel.id,
        config: panel.config.describe(),
        unfairness: panel.outcome.unfairness,
        objective: panel.config.criterion.objective.name().to_string(),
        aggregator: panel.config.criterion.aggregator.name().to_string(),
        bins: panel.config.criterion.hist.bins(),
        individuals: panel.space.num_individuals(),
        nodes,
    })
}

/// Serializes a panel export as pretty JSON.
pub fn panel_to_json(panel: &Panel) -> Result<String> {
    serde_json::to_string_pretty(&export_panel(panel)?)
        .map_err(|e| SessionError::Json(e.to_string()))
}

/// Writes a panel export to a file.
pub fn write_panel_json(panel: &Panel, path: impl AsRef<std::path::Path>) -> Result<()> {
    std::fs::write(path, panel_to_json(panel)?)?;
    Ok(())
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
            id: 3,
            config,
            space: space.into(),
            outcome,
            from_cache: false,
            node_memo: Default::default(),
        }
    }

    #[test]
    fn export_covers_all_nodes() {
        let p = panel();
        let export = export_panel(&p).unwrap();
        assert_eq!(export.id, 3);
        assert_eq!(export.nodes.len(), p.outcome.tree.len());
        assert_eq!(export.individuals, 10);
        assert_eq!(export.nodes[0].parent, None);
        assert_eq!(export.nodes[0].label, "ALL");
        // Leaf sizes sum to the population.
        let leaf_total: usize = export
            .nodes
            .iter()
            .filter(|n| n.is_leaf)
            .map(|n| n.size)
            .sum();
        assert_eq!(leaf_total, 10);
    }

    #[test]
    fn json_round_trips() {
        let p = panel();
        let json = panel_to_json(&p).unwrap();
        let back: PanelExport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, export_panel(&p).unwrap());
        assert!(json.contains("\"objective\": \"most-unfair\""));
    }

    #[test]
    fn file_export() {
        let dir = std::env::temp_dir().join("fairank_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("panel.json");
        write_panel_json(&panel(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("unfairness"));
        std::fs::remove_file(&path).ok();
    }
}
