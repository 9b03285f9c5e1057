//! Panel-level text rendering: partitioning trees and histogram sparklines.
//!
//! The Figure 3 interface draws partitioning trees in panels. Since the
//! typed-response redesign the actual formatting lives in [`crate::present`]
//! (which renders wire views, so remote clients produce identical text);
//! this module keeps the panel-handle convenience API and delegates.

use fairank_core::histogram::Histogram;

use crate::panel::Panel;
use crate::present;
use crate::response::{node_views, NodeView, PanelView};

/// Renders a histogram as a sparkline, one character per bin. An empty
/// histogram renders as dots.
pub fn sparkline(hist: &Histogram) -> String {
    present::sparkline_counts(hist.counts())
}

/// Renders the panel's partitioning tree.
pub fn render_tree(panel: &Panel) -> String {
    present::render_tree_view(&node_views(panel))
}

/// Renders the *General* box of a panel, including the evaluation engine's
/// work counters (how much the caches saved is `emd cache hits` relative to
/// `EMD calls`).
pub fn render_general(panel: &Panel) -> String {
    present::render_general_view(&PanelView::general_only(panel))
}

/// Renders the *Node* box for one node of a panel.
pub fn render_node_box(panel: &Panel, node: usize) -> crate::error::Result<String> {
    let stats = panel.node(node)?;
    let tree_node = panel.outcome.tree.node(node);
    let view = NodeView::from_stats(&stats, tree_node.parent, tree_node.children.clone());
    Ok(present::render_node_view(&view))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Configuration;
    use fairank_core::histogram::HistogramSpec;
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

    #[test]
    fn sparkline_shapes() {
        let spec = HistogramSpec::unit(5).unwrap();
        let h = Histogram::from_scores(spec, [0.05, 0.05, 0.05, 0.5, 0.95]);
        let s = sparkline(&h);
        assert_eq!(s.chars().count(), 5);
        assert!(s.starts_with('█'));
        let empty = Histogram::empty(spec);
        assert_eq!(sparkline(&empty), "·····");
    }

    #[test]
    fn sparkline_zero_bins_are_lowest() {
        let spec = HistogramSpec::unit(3).unwrap();
        let h = Histogram::from_scores(spec, [0.9]);
        let s: Vec<char> = sparkline(&h).chars().collect();
        assert_eq!(s[0], '▁');
        assert_eq!(s[2], '█');
    }

    #[test]
    fn tree_rendering_contains_all_nodes() {
        let p = panel();
        let text = render_tree(&p);
        for id in 0..p.outcome.tree.len() {
            assert!(text.contains(&format!("[{id}]")), "missing node {id}:\n{text}");
        }
        // Root labelled ALL, leaves carry sparkline + mean.
        assert!(text.contains("ALL"));
        assert!(text.contains("μ="));
    }

    #[test]
    fn general_box_fields() {
        let p = panel();
        let text = render_general(&p);
        assert!(text.contains("unfairness"));
        assert!(text.contains("partitions"));
        assert!(text.contains("table1"));
        assert!(text.contains("splits scored"));
        assert!(text.contains("EMD calls"));
        assert!(text.contains("cache hits"));
    }

    #[test]
    fn node_box_renders_and_errors() {
        let p = panel();
        let text = render_node_box(&p, 0).unwrap();
        assert!(text.contains("Node [0] ALL"));
        assert!(text.contains("individuals     10"));
        assert!(render_node_box(&p, 999).is_err());
    }
}
