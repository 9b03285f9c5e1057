//! Human rendering of [`Response`] payloads.
//!
//! This module is the *only* place structured session results become text.
//! [`render`] turns any [`Response`] into exactly the string the old
//! string-in/string-out `execute` API produced (the `api_equivalence` suite
//! pins this byte for byte), so the CLI REPL is `render(apply(..)?)` and a
//! remote client that received a response as JSON renders the identical
//! transcript locally.

use crate::response::{
    CompareView, DataHeadView, DatasetEntry, FunctionEntry, NodeView, PanelEntry, PanelView,
    Response, StreamView, SubgroupView,
};
use fairank_marketplace::stream::StreamOutcome;

/// The command reference shown by `help`: every command-table entry's
/// help lines, in table order.
pub static HELP: std::sync::LazyLock<String> = std::sync::LazyLock::new(|| {
    let lines: String = crate::command::COMMANDS.iter().map(|spec| spec.help).collect();
    format!("FaiRank commands:\n{lines}")
});

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders histogram bin counts as a sparkline, one character per bin. An
/// empty histogram (no mass anywhere) renders as dots.
pub fn sparkline_counts(counts: &[u64]) -> String {
    if counts.iter().all(|&c| c == 0) {
        return "·".repeat(counts.len());
    }
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                SPARK_LEVELS[0]
            } else {
                let idx = ((c as f64 / max as f64) * (SPARK_LEVELS.len() - 1) as f64).round()
                    as usize;
                SPARK_LEVELS[idx.clamp(1, SPARK_LEVELS.len() - 1)]
            }
        })
        .collect()
}

/// Renders the structured response exactly as the REPL prints it.
pub fn render(response: &Response) -> String {
    match response {
        Response::Help => HELP.clone(),
        Response::Quit => "quit".to_string(),
        Response::DatasetList(entries) => render_dataset_list(entries),
        Response::FunctionList(entries) => render_function_list(entries),
        Response::PanelList(entries) => render_panel_list(entries),
        Response::DatasetLoaded { name, rows, path } => {
            format!("loaded {name} ({rows} rows) from {path}")
        }
        Response::DatasetGenerated {
            name,
            preset,
            n,
            seed,
        } => format!("generated {name} = {preset}(n={n}, seed={seed})"),
        Response::FunctionDefined { name, expr } => format!("defined {name} = {expr}"),
        Response::DataHead(head) => render_data_head(head),
        Response::Description { text, .. } => text.clone(),
        Response::SessionSaved {
            dir,
            datasets,
            functions,
        } => format!("saved {datasets} dataset(s) and {functions} function(s) to {dir}"),
        Response::SessionOpened {
            dir,
            datasets,
            functions,
        } => format!("opened session from {dir}: {datasets} dataset(s), {functions} function(s)"),
        Response::DatasetDerived {
            name,
            source,
            expr,
            rows,
        } => format!("{name} = {source} where {expr} ({rows} rows)"),
        Response::DatasetAnonymized {
            name,
            source,
            method,
            k,
            suppressed,
        } => format!("{name} = {method}({source}, k={k}), {suppressed} rows suppressed"),
        Response::PanelCreated(view) => format!(
            "panel #{}: unfairness {:.6} over {} partitions\n{}",
            view.id,
            view.unfairness,
            view.num_partitions,
            render_tree_view(&view.nodes)
        ),
        Response::PanelDetail(view) => format!(
            "{}\n{}",
            render_general_view(view),
            render_tree_view(&view.nodes)
        ),
        Response::NodeDetail(node) => render_node_view(node),
        Response::Explanation { text, .. } => text.clone(),
        Response::CompareReport(view) => render_compare_view(view),
        Response::Exported { panel, path } => format!("exported panel #{panel} to {path}"),
        Response::Subgroups(view) => render_subgroups_view(view),
        Response::Audit(report) => report.render(),
        Response::JobOwnerSweep(report) => report.render(),
        Response::EndUserView(report) => report.render(),
        Response::Scenario(report) => render_scenario_report(report),
        Response::SessionList(view) => {
            let mut out = if view.sessions.is_empty() {
                "no live sessions".to_string()
            } else {
                view.sessions
                    .iter()
                    .map(|n| format!("session {n}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            out.push_str(&format!(
                "\nstore: {} datasets, {} bytes\ncell cache: {} entries ({} hits, {} misses, {} evictions)",
                view.store_datasets,
                view.store_bytes,
                view.cell_cache_entries,
                view.cell_cache_hits,
                view.cell_cache_misses,
                view.cell_cache_evictions,
            ));
            out
        }
        Response::SessionEvicted { name } => format!("evicted session {name:?}"),
        Response::Stream(view) => render_stream_view(view),
    }
}

/// Renders a streaming re-audit: header plus the per-round trajectory.
fn render_stream_view(view: &StreamView) -> String {
    format!(
        "STREAM RE-AUDIT — {} · job {} · {} round(s) · seed {}\n{}",
        view.marketplace,
        view.outcome.job_id,
        view.outcome.config.rounds,
        view.outcome.config.seed(),
        render_stream_rounds(&view.outcome),
    )
}

/// Renders the per-round table of a streaming trajectory, shared by the
/// `stream` command and the stream scenario perspective.
fn render_stream_rounds(outcome: &StreamOutcome) -> String {
    let mut out = String::from(
        "  round  events  workers  unfairness  parts  reused  dropped  emds        µs\n",
    );
    for r in &outcome.rounds {
        out.push_str(&format!(
            "  {:<5}  {:<6}  {:<7}  {:<10.6}  {:<5}  {:<6}  {:<7}  {:<4}  {:>8}\n",
            r.round,
            r.events,
            r.population,
            r.unfairness,
            r.num_partitions,
            r.delta_reused_histograms,
            r.emd_entries_dropped,
            r.emd_calls,
            r.requantify_us,
        ));
    }
    out.push_str(&format!(
        "  {} histogram(s) reused across {} churn round(s)\n",
        outcome.total_reused_histograms(),
        outcome.rounds.len().saturating_sub(1),
    ));
    out
}

/// Renders a scenario-plan report: header, the perspective-specific
/// outcome, then one stat line per cell.
fn render_scenario_report(report: &crate::plan::ScenarioReport) -> String {
    use crate::plan::ScenarioOutcome;

    let mut out = format!(
        "SCENARIO REPORT — {} · strategy {} · {} cell(s) · {} µs\n",
        report.perspective,
        report.strategy,
        report.cells.len(),
        report.total_elapsed_us,
    );
    match &report.outcome {
        ScenarioOutcome::Grid(rows) => {
            for row in rows {
                let panel = row
                    .panel
                    .map(|id| format!("#{id}"))
                    .unwrap_or_else(|| "-".into());
                out.push_str(&format!(
                    "{:<5} u={:.6}  parts={:<3} {}\n",
                    panel, row.unfairness, row.partitions, row.config
                ));
            }
        }
        ScenarioOutcome::Audit(audits) => {
            for audit in audits {
                if !audit.criterion.is_empty() {
                    out.push_str(&format!("criterion: {}\n", audit.criterion));
                }
                out.push_str(&audit.report.render());
            }
        }
        ScenarioOutcome::JobOwner(sweeps) => {
            for sweep in sweeps {
                if !sweep.criterion.is_empty() {
                    out.push_str(&format!("criterion: {}\n", sweep.criterion));
                }
                out.push_str(&sweep.report.render());
            }
        }
        ScenarioOutcome::EndUser(views) => {
            for view in views {
                out.push_str(&view.report.render());
            }
        }
        ScenarioOutcome::Stream(streams) => {
            for stream in streams {
                if !stream.criterion.is_empty() {
                    out.push_str(&format!("criterion: {}\n", stream.criterion));
                }
                out.push_str(&format!(
                    "stream {} · {} round(s) · seed {}\n",
                    stream.outcome.job_id,
                    stream.outcome.config.rounds,
                    stream.outcome.config.seed(),
                ));
                out.push_str(&render_stream_rounds(&stream.outcome));
            }
        }
    }
    out.push_str("cell stats:\n");
    for cell in &report.cells {
        let unfairness = cell
            .unfairness
            .map(|u| format!("u={u:.4}  "))
            .unwrap_or_default();
        // Delta counters only appear on cells that actually ran
        // incrementally, so from-scratch reports render unchanged.
        let delta = if cell.delta_reused_histograms + cell.delta_invalidated_emds > 0 {
            format!(
                ", Δ reused {} dropped {}",
                cell.delta_reused_histograms, cell.delta_invalidated_emds
            )
        } else {
            String::new()
        };
        // Likewise the cache marker only appears on served-from-cache
        // cells, keeping uncached renderings byte-identical.
        let cached = if cell.cache_hits > 0 { ", cached" } else { "" };
        out.push_str(&format!(
            "  {:<44} {:>8} µs  {}cand={} hists={} emds={} (hits {}, batches {}{}{})\n",
            cell.label,
            cell.elapsed_us,
            unfairness,
            cell.candidate_splits,
            cell.histograms_built,
            cell.emd_calls,
            cell.emd_cache_hits,
            cell.pairwise_batches,
            delta,
            cached,
        ));
    }
    out
}

fn render_dataset_list(entries: &[DatasetEntry]) -> String {
    if entries.is_empty() {
        return "no datasets — try `generate d biased` or `load d file.csv`".into();
    }
    entries
        .iter()
        .map(|e| format!("{}  ({} rows, {} columns)", e.name, e.rows, e.columns))
        .collect::<Vec<_>>()
        .join("\n")
}

fn render_function_list(entries: &[FunctionEntry]) -> String {
    if entries.is_empty() {
        return "no functions — try `define f rating*0.7+language_test*0.3`".into();
    }
    entries
        .iter()
        .map(|e| {
            let terms: Vec<String> = e
                .terms
                .iter()
                .map(|(a, w)| format!("{w}·{a}"))
                .collect();
            format!("{} = {}", e.name, terms.join(" + "))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn render_panel_list(entries: &[PanelEntry]) -> String {
    if entries.is_empty() {
        return "no panels — run `quantify <dataset> <function>`".into();
    }
    entries
        .iter()
        .map(|e| format!("#{}  u={:.4}  {}", e.id, e.unfairness, e.config))
        .collect::<Vec<_>>()
        .join("\n")
}

fn render_data_head(head: &DataHeadView) -> String {
    let mut widths: Vec<usize> = head.columns.iter().map(String::len).collect();
    for row in &head.rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, name) in head.columns.iter().enumerate() {
        if i > 0 {
            out.push_str("  ");
        }
        out.push_str(&format!("{:width$}", name, width = widths[i]));
    }
    out.push('\n');
    for row in &head.rows {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{:width$}", cell, width = widths[i]));
        }
        out.push('\n');
    }
    if head.rows.len() < head.total_rows {
        out.push_str(&format!(
            "… ({} more rows)\n",
            head.total_rows - head.rows.len()
        ));
    }
    out
}

/// Renders a partitioning tree from its wire nodes (`nodes[0]` is the
/// root), with box-drawing connectors and leaf sparklines.
pub fn render_tree_view(nodes: &[NodeView]) -> String {
    let mut out = String::new();
    if !nodes.is_empty() {
        render_tree_node(nodes, 0, "", true, true, &mut out);
    }
    out
}

fn render_tree_node(
    nodes: &[NodeView],
    node: usize,
    prefix: &str,
    is_last: bool,
    is_root: bool,
    out: &mut String,
) {
    let view = &nodes[node];
    let connector = if is_root {
        ""
    } else if is_last {
        "└─ "
    } else {
        "├─ "
    };
    // Only the last path step is new information at this depth.
    let label = view
        .label
        .rsplit(" ∧ ")
        .next()
        .unwrap_or(&view.label)
        .to_string();
    let annotation = if view.is_leaf {
        format!(
            " (n={}, μ={:.3}) {}",
            view.size,
            view.mean_score,
            sparkline_counts(&view.histogram)
        )
    } else {
        format!(
            " (n={}) ⊢ split on {}",
            view.size,
            view.split_attribute.as_deref().unwrap_or("?")
        )
    };
    out.push_str(prefix);
    out.push_str(connector);
    out.push_str(&format!("[{node}] "));
    out.push_str(&label);
    out.push_str(&annotation);
    out.push('\n');

    let child_prefix = if is_root {
        String::new()
    } else {
        format!("{prefix}{}", if is_last { "   " } else { "│  " })
    };
    for (i, &child) in view.children.iter().enumerate() {
        render_tree_node(
            nodes,
            child,
            &child_prefix,
            i + 1 == view.children.len(),
            false,
            out,
        );
    }
}

/// Renders the *General* box of a panel view (the tree nodes are ignored).
pub fn render_general_view(view: &PanelView) -> String {
    format!(
        "Panel #{} — {}\n\
         unfairness      {:.6}\n\
         partitions      {}\n\
         tree nodes      {}\n\
         max depth       {}\n\
         individuals     {}\n\
         search time     {} µs\n\
         splits scored   {}\n\
         histograms      {}\n\
         EMD calls       {} ({} cache hits, {} batches)\n\
         delta reuse     {} histograms, {} EMD entries invalidated\n",
        view.id,
        view.config,
        view.unfairness,
        view.num_partitions,
        view.tree_nodes,
        view.max_depth,
        view.individuals,
        view.elapsed_us,
        view.candidate_splits,
        view.histograms_built,
        view.emd_calls,
        view.emd_cache_hits,
        view.pairwise_batches,
        view.delta_reused_histograms,
        view.delta_invalidated_emds,
    )
}

/// Renders the *Node* box for one wire node.
pub fn render_node_view(view: &NodeView) -> String {
    let kind = if view.is_leaf {
        "final partition".to_string()
    } else {
        format!(
            "internal, split on {}",
            view.split_attribute.as_deref().unwrap_or("?")
        )
    };
    let divergence = view
        .divergence_vs_siblings
        .map(|d| format!("{d:.4}"))
        .unwrap_or_else(|| "-".into());
    format!(
        "Node [{}] {}\n\
         kind            {}\n\
         individuals     {}\n\
         mean score      {:.4}\n\
         score range     [{:.4}, {:.4}]\n\
         vs siblings     {}\n\
         histogram       {}  (bins of {:?})\n",
        view.node,
        view.label,
        kind,
        view.size,
        view.mean_score,
        view.min_score,
        view.max_score,
        divergence,
        sparkline_counts(&view.histogram),
        view.histogram,
    )
}

fn render_compare_view(view: &CompareView) -> String {
    format!(
        "compare      #{:<28} #{}\n\
         config       {:<28} {}\n\
         unfairness   {:<28.6} {:.6}  (Δ {:+.6})\n\
         partitions   {:<28} {}\n\
         individuals  {:<28} {}\n",
        view.a_id,
        view.b_id,
        view.a_config,
        view.b_config,
        view.a_unfairness,
        view.b_unfairness,
        view.delta,
        view.a_partitions,
        view.b_partitions,
        view.a_individuals,
        view.b_individuals,
    )
}

fn render_subgroups_view(view: &SubgroupView) -> String {
    let mut out = format!(
        "subgroups of {} under {} (depth ≤ {}, size ≥ {}): {}\n",
        view.dataset, view.function, view.depth, view.min_size, view.total
    );
    out.push_str("most favored:\n");
    for s in &view.most_favored {
        out.push_str(&format!(
            "  {:<44} n={:<4} advantage {:+.3}  divergence {:.3}\n",
            s.label, s.size, s.advantage, s.divergence
        ));
    }
    out.push_str("least favored:\n");
    for s in &view.least_favored {
        out.push_str(&format!(
            "  {:<44} n={:<4} advantage {:+.3}  divergence {:.3}\n",
            s.label, s.size, s.advantage, s.divergence
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_counts_shapes() {
        assert_eq!(sparkline_counts(&[0, 0, 0]), "···");
        let s = sparkline_counts(&[3, 0, 1]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('█'));
        assert_eq!(s.chars().nth(1), Some('▁'));
    }

    #[test]
    fn empty_listings_render_hints() {
        assert!(render(&Response::DatasetList(Vec::new())).contains("no datasets"));
        assert!(render(&Response::FunctionList(Vec::new())).contains("no functions"));
        assert!(render(&Response::PanelList(Vec::new())).contains("no panels"));
    }

    #[test]
    fn quit_and_help_are_stable() {
        assert_eq!(render(&Response::Quit), "quit");
        assert!(render(&Response::Help).contains("FaiRank commands"));
    }

    #[test]
    fn data_head_alignment_and_ellipsis() {
        let head = DataHeadView {
            name: "pop".into(),
            columns: vec!["gender".into(), "r".into()],
            rows: vec![
                vec!["F".into(), "0.25".into()],
                vec!["M".into(), "0.5".into()],
            ],
            total_rows: 4,
        };
        let text = render(&Response::DataHead(head));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 2 rows + ellipsis
        assert!(lines[0].starts_with("gender"));
        // The `r` column is padded to the widest cell (`0.25`).
        assert_eq!(lines[0], "gender  r   ");
        assert_eq!(lines[3], "… (2 more rows)");
    }

    #[test]
    fn simple_ack_lines() {
        assert_eq!(
            render(&Response::DatasetLoaded {
                name: "d".into(),
                rows: 3,
                path: "x.csv".into()
            }),
            "loaded d (3 rows) from x.csv"
        );
        assert_eq!(
            render(&Response::DatasetAnonymized {
                name: "a".into(),
                source: "d".into(),
                method: "Mondrian".into(),
                k: 2,
                suppressed: 0
            }),
            "a = Mondrian(d, k=2), 0 rows suppressed"
        );
        assert_eq!(
            render(&Response::Exported {
                panel: 1,
                path: "p.json".into()
            }),
            "exported panel #1 to p.json"
        );
    }
}
