//! Reply checks: every reply is parsed as a [`Frame`], reduced to a
//! [`Summary`], and compared with what an in-process reference computes
//! for the same request on an identically prepared session.
//!
//! Wall-clock fields (`elapsed_us`, `total_elapsed_us`, `requantify_us`)
//! and the per-cell cache flags are zeroed before comparing; everything
//! else, `unfairness` included, must match bit for bit.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use fairank_core::fairness::FairnessCriterion;
use fairank_data::{synth, Dataset};
use fairank_marketplace::scenario::taskrabbit_like;
use fairank_marketplace::stream::{StreamConfig, StreamScenario};
use fairank_marketplace::{Marketplace, Transparency};
use fairank_service::Frame;
use fairank_session::command::{apply, parse_scoring, Command};
use fairank_session::plan::ScenarioOutcome;
use fairank_session::response::StreamView;
use fairank_session::{CellStat, Response, ScenarioReport, Session};

use crate::workload::{advance, Op, SessionCtx};

/// What the checker compares of one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Summary {
    /// A bookkeeping reply of the expected variant.
    Done,
    /// `PanelCreated`.
    Panel {
        id: usize,
        tree_nodes: usize,
        partitions: usize,
        unfairness: u64,
    },
    /// `NodeDetail`.
    Node { node: usize },
    /// `PanelList` or `DatasetList`.
    List { len: usize },
    /// A grid `Scenario` report.
    Grid {
        /// Fingerprint of the normalized report (panel ids removed).
        report: u64,
        /// Each cell's unfairness bits, in plan order.
        unfairness: Vec<u64>,
        /// Panel id and partition count of each grid row.
        panels: Vec<(Option<usize>, usize)>,
        /// Chunk lines received, and the fingerprint of their normalized
        /// stats in label order (`None` when not streamed).
        chunks: usize,
        chunk_stats: Option<u64>,
    },
    /// A `Stream` trajectory fingerprint.
    Stream { view: u64 },
}

impl Summary {
    /// `(id, size bound)` of every panel the reply created: the size bound
    /// is the tree size of a quantify panel and the partition count of a
    /// grid panel (both are valid `node` ids below it).
    pub fn created(&self) -> Vec<(usize, usize)> {
        match self {
            Summary::Panel { id, tree_nodes, .. } => vec![(*id, *tree_nodes)],
            Summary::Grid { panels, .. } => panels
                .iter()
                .filter_map(|&(id, partitions)| id.map(|id| (id, partitions)))
                .collect(),
            _ => Vec::new(),
        }
    }
}

fn fingerprint(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("reply types serialize")
}

fn normalized_cell(stat: &CellStat) -> CellStat {
    CellStat {
        elapsed_us: 0,
        cache_hits: 0,
        cache_misses: 0,
        ..stat.clone()
    }
}

/// Fingerprint of cell stats in label order, timing and cache flags zeroed.
fn cells_fingerprint(stats: &[CellStat]) -> u64 {
    let mut lines: Vec<(String, String)> = stats
        .iter()
        .map(|s| (s.label.clone(), json(&normalized_cell(s))))
        .collect();
    lines.sort();
    let joined: Vec<String> = lines.into_iter().map(|(_, line)| line).collect();
    fingerprint(&joined.join("\n"))
}

/// Reduces a grid report (and the chunks that preceded it) to its
/// [`Summary`].
fn grid_summary(report: &ScenarioReport, chunks: &[CellStat], streamed: bool) -> Summary {
    let mut normalized = report.clone();
    normalized.total_elapsed_us = 0;
    normalized.cells = report.cells.iter().map(normalized_cell).collect();
    let mut panels = Vec::new();
    if let ScenarioOutcome::Grid(rows) = &mut normalized.outcome {
        for row in rows.iter_mut() {
            panels.push((row.panel.take(), row.partitions));
        }
    }
    Summary::Grid {
        report: fingerprint(&json(&normalized)),
        unfairness: report
            .cells
            .iter()
            .map(|c| c.unfairness.unwrap_or(f64::NAN).to_bits())
            .collect(),
        panels,
        chunks: chunks.len(),
        chunk_stats: streamed.then(|| cells_fingerprint(chunks)),
    }
}

fn stream_summary(view: &StreamView) -> Summary {
    let mut normalized = view.clone();
    for round in &mut normalized.outcome.rounds {
        round.requantify_us = 0;
    }
    Summary::Stream {
        view: fingerprint(&json(&normalized)),
    }
}

/// Reduces a successful response to its [`Summary`], or explains why the
/// response is not one `op` can produce.
pub fn response_summary(
    op: &Op,
    response: &Response,
    chunks: &[CellStat],
) -> Result<Summary, String> {
    match (op, response) {
        (Op::Generate { .. }, Response::DatasetGenerated { .. })
        | (Op::Define { .. }, Response::FunctionDefined { .. })
        | (Op::Evict { .. }, Response::SessionEvicted { .. }) => Ok(Summary::Done),
        (Op::Quantify { .. }, Response::PanelCreated(view)) => Ok(Summary::Panel {
            id: view.id,
            tree_nodes: view.tree_nodes,
            partitions: view.num_partitions,
            unfairness: view.unfairness.to_bits(),
        }),
        (Op::Node { .. }, Response::NodeDetail(view)) => Ok(Summary::Node { node: view.node }),
        (Op::Panels, Response::PanelList(list)) => Ok(Summary::List { len: list.len() }),
        (Op::Datasets, Response::DatasetList(list)) => Ok(Summary::List { len: list.len() }),
        (Op::Grid { streamed, .. }, Response::Scenario(report)) => {
            Ok(grid_summary(report, chunks, *streamed))
        }
        (Op::Stream { .. }, Response::Stream(view)) => Ok(stream_summary(view)),
        (op, response) => Err(format!(
            "unexpected reply variant for {op:?}: {}",
            json(response).chars().take(160).collect::<String>()
        )),
    }
}

/// Parses the reply lines of one exchange (chunks, then the terminal
/// line) and reduces them to a [`Summary`].
pub fn summarize(op: &Op, lines: &[String]) -> Result<Summary, String> {
    let (last, head) = lines.split_last().ok_or("no reply line")?;
    let mut chunks = Vec::with_capacity(head.len());
    for line in head {
        match serde_json::from_str::<Frame>(line) {
            Ok(Frame::chunk(stat)) => chunks.push(stat),
            Ok(_) => return Err("terminal frame before the last line".into()),
            Err(e) => return Err(format!("malformed chunk line: {e}")),
        }
    }
    match serde_json::from_str::<Frame>(last) {
        Ok(Frame::ok(response)) => response_summary(op, &response, &chunks),
        Ok(Frame::err(e)) => Err(format!("{}: {}", e.kind, e.message)),
        Ok(Frame::chunk(_)) => Err("stream ended on a chunk".into()),
        Err(e) => Err(format!("malformed reply line: {e}")),
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Observed {
    pub op: Op,
    /// The command line actually sent.
    pub command: String,
    pub reply: Received,
}

/// A reply as received: summarized on arrival, or kept as raw lines for
/// the check to parse, so that parsing large `PanelCreated` replies does
/// not compete with the server for CPU while latency is measured.
#[derive(Debug, Clone)]
pub enum Received {
    Summarized(Result<Summary, String>),
    Raw(Vec<String>),
}

impl Observed {
    /// The reply's summary, parsing it now if it was kept raw.
    pub fn summary(&self) -> Result<Summary, String> {
        match &self.reply {
            Received::Summarized(result) => result.clone(),
            Received::Raw(lines) => summarize(&self.op, lines),
        }
    }
}

/// The `(id, tree size)` of the panel a raw `PanelCreated` line reports,
/// read without parsing the line (its node list is most of it).
pub fn scan_panel(line: &str) -> Option<(usize, usize)> {
    let number = |key: &str| -> Option<usize> {
        let start = line.find(key)? + key.len();
        let digits: String = line[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().ok()
    };
    line.starts_with("{\"ok\":{\"PanelCreated\":")
        .then(|| Some((number("\"id\":")?, number("\"tree_nodes\":")?)))
        .flatten()
}

/// Datasets and functions an analyst's session defined, by name.
#[derive(Debug, Default, Clone)]
struct Defs {
    datasets: HashMap<String, (usize, u64)>,
    functions: HashMap<String, String>,
}

/// Computes reference replies in process, memoized by everything a reply
/// depends on.
#[derive(Default)]
pub struct Oracle {
    datasets: HashMap<(usize, u64), Dataset>,
    markets: HashMap<(usize, u64), Marketplace>,
    memo: HashMap<String, Summary>,
}

impl Oracle {
    /// A fresh session holding exactly `dataset` and `function`, as the
    /// analyst's session defined them.
    fn prepared(&mut self, defs: &Defs, dataset: &str, function: &str) -> Result<Session, String> {
        let &(n, seed) = defs
            .datasets
            .get(dataset)
            .ok_or_else(|| format!("dataset {dataset} was never generated"))?;
        let expr = defs
            .functions
            .get(function)
            .ok_or_else(|| format!("function {function} was never defined"))?;
        let data = self
            .datasets
            .entry((n, seed))
            .or_insert_with(|| {
                synth::biased_crowdsourcing_spec(n, seed)
                    .generate()
                    .expect("the biased preset generates")
            })
            .clone();
        let mut session = Session::new();
        session
            .add_dataset(dataset, data)
            .map_err(|e| e.to_string())?;
        let scoring = parse_scoring(expr).map_err(|e| e.to_string())?;
        session
            .add_function(function, scoring)
            .map_err(|e| e.to_string())?;
        Ok(session)
    }

    /// The reference summary of a compute request. Grid references carry
    /// their cells as chunks, which is what a streamed request must send.
    fn reference(&mut self, op: &Op, command: &str, defs: &Defs) -> Result<Summary, String> {
        let key = match op {
            Op::Quantify {
                dataset, function, ..
            }
            | Op::Grid {
                dataset, function, ..
            } => format!(
                "{command}|{:?}|{:?}",
                defs.datasets.get(dataset),
                defs.functions.get(function)
            ),
            _ => command.to_string(),
        };
        if let Some(summary) = self.memo.get(&key) {
            return Ok(summary.clone());
        }
        let summary = match op {
            Op::Quantify {
                dataset, function, ..
            }
            | Op::Grid {
                dataset, function, ..
            } => {
                let mut session = self.prepared(defs, dataset, function)?;
                let parsed = Command::parse(command).map_err(|e| e.to_string())?;
                match apply(&mut session, parsed).map_err(|e| e.to_string())? {
                    Response::Scenario(report) => grid_summary(&report, &report.cells, true),
                    response => response_summary(op, &response, &[])?,
                }
            }
            Op::Stream {
                job,
                n,
                seed,
                rounds,
                stream_seed,
            } => {
                let market = self.markets.entry((*n, *seed)).or_insert_with(|| {
                    taskrabbit_like(*n, *seed).expect("the taskrabbit preset builds")
                });
                let config = StreamConfig {
                    rounds: *rounds,
                    seed: Some(*stream_seed),
                    ..StreamConfig::default()
                };
                let outcome = StreamScenario::new(
                    market,
                    job,
                    &Transparency::full(),
                    &FairnessCriterion::default(),
                    config,
                )
                .and_then(StreamScenario::run)
                .map_err(|e| e.to_string())?;
                stream_summary(&StreamView {
                    marketplace: market.name.clone(),
                    outcome,
                })
            }
            _ => return Err(format!("{op:?} has no reference")),
        };
        self.memo.insert(key, summary.clone());
        Ok(summary)
    }

    /// What the reply to `op` must be, given the session as the analyst's
    /// earlier requests left it.
    fn expected(
        &mut self,
        item: &Observed,
        ctx: &SessionCtx,
        defs: &Defs,
    ) -> Result<Summary, String> {
        Ok(match &item.op {
            Op::Generate { .. } | Op::Define { .. } | Op::Evict { .. } => Summary::Done,
            Op::Node { pick } => Summary::Node {
                node: (*pick % ctx.last_tree_nodes.max(1) as u64) as usize,
            },
            Op::Panels => Summary::List { len: ctx.panels },
            Op::Datasets => Summary::List { len: ctx.datasets },
            Op::Quantify { .. } => match self.reference(&item.op, &item.command, defs)? {
                Summary::Panel {
                    tree_nodes,
                    partitions,
                    unfairness,
                    ..
                } => Summary::Panel {
                    id: ctx.panels,
                    tree_nodes,
                    partitions,
                    unfairness,
                },
                other => return Err(format!("reference produced {other:?}")),
            },
            Op::Grid { streamed, .. } => match self.reference(&item.op, &item.command, defs)? {
                Summary::Grid {
                    report,
                    unfairness,
                    panels,
                    chunks,
                    chunk_stats,
                } => Summary::Grid {
                    report,
                    unfairness,
                    // Grid rows commit their panels in plan order.
                    panels: panels
                        .iter()
                        .enumerate()
                        .map(|(i, &(_, partitions))| (Some(ctx.panels + i), partitions))
                        .collect(),
                    chunks: if *streamed { chunks } else { 0 },
                    chunk_stats: chunk_stats.filter(|_| *streamed),
                },
                other => return Err(format!("reference produced {other:?}")),
            },
            Op::Stream { .. } => self.reference(&item.op, &item.command, defs)?,
        })
    }

    /// Checks one analyst's requests in order. Returns how many failed
    /// (refused, malformed, dropped or mismatched), printing the first few
    /// reasons to stderr. A failure does not stop the check.
    pub fn check(&mut self, observed: &[Observed]) -> usize {
        let mut ctx = SessionCtx::default();
        let mut defs = Defs::default();
        let mut failed = 0;
        for item in observed {
            let result = item.summary();
            let verdict = self.verdict(item, &result, &ctx, &defs);
            if let Err(reason) = verdict {
                failed += 1;
                if failed <= 5 {
                    eprintln!("check failed: {}: {reason}", item.command);
                }
            }
            match &item.op {
                Op::Generate { name, n, seed, .. } => {
                    defs.datasets.insert(name.clone(), (*n, *seed));
                }
                Op::Define { name, expr } => {
                    defs.functions.insert(name.clone(), expr.clone());
                }
                Op::Evict { .. } => defs = Defs::default(),
                _ => {}
            }
            let created = result.as_ref().map(Summary::created).unwrap_or_default();
            advance(&mut ctx, &item.op, &created);
        }
        failed
    }

    fn verdict(
        &mut self,
        item: &Observed,
        result: &Result<Summary, String>,
        ctx: &SessionCtx,
        defs: &Defs,
    ) -> Result<(), String> {
        let expected_command = item.op.command(ctx);
        if expected_command != item.command {
            return Err(format!(
                "sent {:?}, expected {expected_command:?}",
                item.command
            ));
        }
        let got = result.as_ref().map_err(String::clone)?;
        let expected = self.expected(item, ctx, defs)?;
        if *got == expected {
            Ok(())
        } else {
            Err(format!("reply {got:?} differs from reference {expected:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_panel_reads_id_and_tree_size() {
        let line = r#"{"ok":{"PanelCreated":{"id":7,"config":"x","unfairness":0.1,"num_partitions":3,"tree_nodes":12,"nodes":[{"node":0}]}}}"#;
        assert_eq!(scan_panel(line), Some((7, 12)));
        assert_eq!(scan_panel(r#"{"err":{"kind":"x","message":"y"}}"#), None);
    }
}
