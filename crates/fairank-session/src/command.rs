//! The command language driving the FaiRank REPL.
//!
//! Every interaction of the Figure 3 interface has a textual command:
//! loading/generating datasets, defining scoring functions, filtering,
//! anonymizing, quantifying into panels, inspecting trees and nodes,
//! comparing panels, exporting, and running the three §4 scenario reports.
//!
//! Grammar: whitespace-separated tokens; `key=value` options; values with
//! spaces are double-quoted (`where="gender=F & country=India"`).

use std::sync::Arc;

use fairank_core::emd::{Emd, EmdBackendKind};
use fairank_core::fairness::{Aggregator, FairnessCriterion, Objective};
use fairank_core::histogram::HistogramSpec;
use fairank_core::plan::SearchStrategy;
use fairank_core::scoring::{scores_to_ranking, LinearScoring, ScoreSource};
use fairank_data::csv::CsvOptions;
use fairank_data::filter::Filter;
use fairank_data::synth;
use fairank_marketplace::scenario;
use fairank_marketplace::stream::{run_stream, StreamConfig};

use crate::config::Configuration;
use crate::error::{Result, SessionError};
use crate::plan::{self, CriterionGrid, MarketSpec, Perspective, ScenarioSpec};
use crate::present;
use crate::report;
use crate::response::{
    CompareView, DataHeadView, DatasetEntry, FunctionEntry, NodeView, PanelEntry, PanelView,
    Response, StreamView, SubgroupEntry, SubgroupView,
};
use crate::session::{AnonMethod, Session};

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Show the command reference.
    Help,
    /// List registered datasets.
    Datasets,
    /// List registered functions.
    Functions,
    /// List panels.
    Panels,
    /// Load a CSV dataset: `load <name> <path>`.
    Load { name: String, path: String },
    /// Generate a synthetic dataset: `generate <name> <preset> [n=] [seed=]`.
    Generate {
        name: String,
        preset: String,
        n: usize,
        seed: u64,
    },
    /// Define a scoring function: `define <name> <attr*w+attr*w…>`.
    Define { name: String, expr: String },
    /// Print the head of a dataset: `data <name> [rows]`.
    ShowData { name: String, rows: usize },
    /// Per-column summary statistics: `describe <name>`.
    Describe { name: String },
    /// Save the session's datasets and functions: `save <dir>`.
    Save { dir: String },
    /// Replace the session with a saved one: `open <dir>`.
    Open { dir: String },
    /// Derive a filtered dataset: `filter <new> <source> <expr>`.
    DeriveFilter {
        new_name: String,
        source: String,
        expr: String,
    },
    /// Derive an anonymized dataset: `anonymize <new> <source> k=<k>
    /// [method=mondrian|datafly]`.
    Anonymize {
        new_name: String,
        source: String,
        k: usize,
        method: AnonMethod,
    },
    /// Quantify into a new panel.
    Quantify {
        dataset: String,
        function: String,
        objective: Objective,
        aggregator: Aggregator,
        bins: usize,
        emd: EmdBackendKind,
        filter: Option<String>,
        /// Simulate function opacity: rank by the function, then quantify
        /// from the ranking only.
        opaque: bool,
    },
    /// Render a panel's tree: `show <panel>`.
    Show { panel: usize },
    /// Render a node box: `node <panel> <node>`.
    Node { panel: usize, node: usize },
    /// Explain a search decision: `why <panel> <node>`.
    Why { panel: usize, node: usize },
    /// Compare two panels: `compare <a> <b>`.
    Compare { a: usize, b: usize },
    /// Export a panel to JSON: `export <panel> <path>`.
    Export { panel: usize, path: String },
    /// Subgroup lattice statistics: `subgroups <dataset> <function>
    /// [depth=2] [min=5] [top=5]`.
    Subgroups {
        dataset: String,
        function: String,
        depth: usize,
        min_size: usize,
        top: usize,
    },
    /// Auditor scenario on a canned marketplace.
    Audit {
        preset: String,
        n: usize,
        seed: u64,
        k: Option<usize>,
        ranking_only: bool,
    },
    /// Job-owner scenario: sweep a skill weight.
    JobOwner {
        preset: String,
        job: String,
        skill: String,
        n: usize,
        seed: u64,
    },
    /// End-user scenario: evaluate a group across jobs.
    EndUser {
        preset: String,
        group: String,
        n: usize,
        seed: u64,
    },
    /// Streaming incremental re-audit of one job: replay event rounds
    /// against the delta engine and report the per-round trajectory.
    Stream {
        preset: String,
        job: String,
        n: usize,
        seed: u64,
        k: Option<usize>,
        ranking_only: bool,
        config: StreamConfig,
    },
    /// Run a whole scenario plan (grid/sweep/report compiled into parallel
    /// cells): `scenario grid|auditor|jobowner|enduser …`.
    RunScenario { spec: Box<ScenarioSpec> },
    /// Run a scenario plan from a JSON spec file: `scenario <spec.json>`.
    RunScenarioFile { path: String },
    /// List the server's live sessions (registry admin; servers refuse it
    /// unless started with `--admin`).
    Sessions,
    /// Evict a named session from the server registry (admin only):
    /// `evict <name>`.
    Evict { name: String },
    /// Leave the REPL.
    Quit,
}

/// Splits a line into tokens, honoring double quotes.
fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for ch in line.chars() {
        match ch {
            '"' => in_quotes = !in_quotes,
            c if c.is_whitespace() && !in_quotes => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

// Per-command `key=value` option sets. Each parse arm passes its own set to
// `opt`/`opt_parse`/`positional`, which (a) keeps tokens with `=` under any
// *other* key as positionals — file paths like `n=final.csv` only clash with
// commands that actually take `n=` — and (b) debug-asserts that every option
// lookup is listed, so the sets cannot drift from the lookups.
const NO_OPTS: &[&str] = &[];
const GENERATE_OPTS: &[&str] = &["n", "seed"];
const DATA_OPTS: &[&str] = &["rows"];
const ANONYMIZE_OPTS: &[&str] = &["k", "method"];
const QUANTIFY_OPTS: &[&str] = &["objective", "agg", "bins", "emd", "where"];
const SUBGROUPS_OPTS: &[&str] = &["depth", "min", "top"];
const AUDIT_OPTS: &[&str] = &["n", "seed", "k"];
const SCENARIO_OPTS: &[&str] = &["n", "seed"];
const STREAM_OPTS: &[&str] = &[
    "n",
    "seed",
    "k",
    "rounds",
    "arrivals",
    "departures",
    "rescores",
    "stream-seed",
];
const PLAN_OPTS: &[&str] = &[
    "n",
    "seed",
    "k",
    "sg-depth",
    "sg-min",
    "weights",
    "objectives",
    "aggs",
    "bins",
    "emd",
    "strategy",
    "width",
    "depth",
    "min",
    "budget",
    "where",
    "rounds",
    "arrivals",
    "departures",
    "rescores",
    "stream-seed",
];

fn opt<'a>(tokens: &'a [String], opts: &[&str], key: &str) -> Option<&'a str> {
    debug_assert!(
        opts.contains(&key),
        "option key {key:?} is missing from the command's option set"
    );
    let prefix = format!("{key}=");
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(prefix.as_str()))
}

fn opt_parse<T: std::str::FromStr>(
    tokens: &[String],
    opts: &[&str],
    key: &str,
    default: T,
) -> Result<T> {
    match opt(tokens, opts, key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| SessionError::Command(format!("cannot parse {key}={raw}"))),
    }
}

fn positional<'a>(
    tokens: &'a [String],
    opts: &[&str],
    idx: usize,
    what: &str,
) -> Result<&'a str> {
    let is_option =
        |t: &str| t.split_once('=').is_some_and(|(key, _)| opts.contains(&key));
    tokens
        .iter()
        .filter(|t| !is_option(t))
        .nth(idx)
        .map(String::as_str)
        .ok_or_else(|| SessionError::Command(format!("missing {what}")))
}

/// Positional argument by raw index — for arguments that may themselves
/// contain `=` (filter expressions). Such arguments must precede options.
fn raw_positional<'a>(tokens: &'a [String], idx: usize, what: &str) -> Result<&'a str> {
    tokens
        .get(idx)
        .map(String::as_str)
        .ok_or_else(|| SessionError::Command(format!("missing {what}")))
}

/// Parses a comma-separated option value into trimmed, non-empty items.
fn csv_items(raw: &str) -> Vec<&str> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty()).collect()
}

/// Parses the criterion-grid options (`objectives=`, `aggs=`, `bins=`,
/// `emd=`) shared by all `scenario` subcommands. Returns `None` when no
/// axis was given (the spec then uses the single default criterion).
fn parse_criterion_grid(tokens: &[String]) -> Result<Option<CriterionGrid>> {
    let objectives = opt(tokens, PLAN_OPTS, "objectives")
        .map(|raw| {
            csv_items(raw)
                .into_iter()
                .map(|s| {
                    Objective::parse(s).ok_or_else(|| {
                        SessionError::Command(format!("unknown objective {s:?}"))
                    })
                })
                .collect::<Result<Vec<_>>>()
        })
        .transpose()?;
    let aggregators = opt(tokens, PLAN_OPTS, "aggs")
        .map(|raw| {
            csv_items(raw)
                .into_iter()
                .map(|s| {
                    Aggregator::parse(s).ok_or_else(|| {
                        SessionError::Command(format!("unknown aggregator {s:?}"))
                    })
                })
                .collect::<Result<Vec<_>>>()
        })
        .transpose()?;
    let bins = opt(tokens, PLAN_OPTS, "bins")
        .map(|raw| {
            csv_items(raw)
                .into_iter()
                .map(|s| {
                    s.parse::<usize>().map_err(|_| {
                        SessionError::Command(format!("cannot parse bins value {s:?}"))
                    })
                })
                .collect::<Result<Vec<_>>>()
        })
        .transpose()?;
    let emds = opt(tokens, PLAN_OPTS, "emd")
        .map(|raw| {
            csv_items(raw)
                .into_iter()
                .map(|s| {
                    EmdBackendKind::parse(s).ok_or_else(|| {
                        SessionError::Command(format!("unknown EMD backend {s:?}"))
                    })
                })
                .collect::<Result<Vec<_>>>()
        })
        .transpose()?;
    if objectives.is_none() && aggregators.is_none() && bins.is_none() && emds.is_none() {
        return Ok(None);
    }
    let defaults = CriterionGrid::default();
    Ok(Some(CriterionGrid {
        objectives: objectives.unwrap_or(defaults.objectives),
        aggregators: aggregators.unwrap_or(defaults.aggregators),
        bins: bins.unwrap_or(defaults.bins),
        emds: emds.unwrap_or(defaults.emds),
    }))
}

/// Parses the search-strategy options (`strategy=`, `width=`, `depth=`,
/// `min=`, `budget=`) shared by all `scenario` subcommands.
fn parse_search_strategy(tokens: &[String]) -> Result<Option<SearchStrategy>> {
    let max_depth = opt(tokens, PLAN_OPTS, "depth")
        .map(|raw| {
            raw.parse::<usize>().map_err(|_| {
                SessionError::Command(format!("cannot parse depth={raw}"))
            })
        })
        .transpose()?;
    let Some(name) = opt(tokens, PLAN_OPTS, "strategy") else {
        // Quantify refinements may be given without naming the strategy.
        if max_depth.is_none() && opt(tokens, PLAN_OPTS, "min").is_none() {
            return Ok(None);
        }
        return Ok(Some(SearchStrategy::Quantify {
            max_depth,
            min_partition: opt_parse(tokens, PLAN_OPTS, "min", 1)?,
        }));
    };
    match name {
        "quantify" => Ok(Some(SearchStrategy::Quantify {
            max_depth,
            min_partition: opt_parse(tokens, PLAN_OPTS, "min", 1)?,
        })),
        // `BeamSearch` clamps the width to at least 1; clamping here too
        // keeps the reported strategy (and the cell-cache key) that of the
        // search that runs.
        "beam" => Ok(Some(SearchStrategy::Beam {
            width: opt_parse(tokens, PLAN_OPTS, "width", 4)?.max(1),
        })),
        "exhaustive" => Ok(Some(SearchStrategy::Exhaustive {
            budget: opt_parse(
                tokens,
                PLAN_OPTS,
                "budget",
                fairank_core::exhaustive::DEFAULT_BUDGET,
            )?,
        })),
        other => Err(SessionError::Command(format!(
            "unknown strategy {other:?} (try quantify, beam, exhaustive)"
        ))),
    }
}

/// Parses the event-stream knobs (`rounds=`, `arrivals=`, `departures=`,
/// `rescores=`, `stream-seed=`) shared by `stream` and `scenario stream`.
fn parse_stream_config(tokens: &[String], opts: &[&str]) -> Result<StreamConfig> {
    let defaults = StreamConfig::default();
    Ok(StreamConfig {
        rounds: opt_parse(tokens, opts, "rounds", defaults.rounds)?,
        arrivals_per_round: opt_parse(tokens, opts, "arrivals", defaults.arrivals_per_round)?,
        departures_per_round: opt_parse(
            tokens,
            opts,
            "departures",
            defaults.departures_per_round,
        )?,
        rescores_per_round: opt_parse(tokens, opts, "rescores", defaults.rescores_per_round)?,
        seed: opt(tokens, opts, "stream-seed")
            .map(|raw| {
                raw.parse().map_err(|_| {
                    SessionError::Command(format!("cannot parse stream-seed={raw}"))
                })
            })
            .transpose()?,
    })
}

/// Parses an optional `k=` anonymity bound.
fn parse_k(tokens: &[String], opts: &[&str]) -> Result<Option<usize>> {
    opt(tokens, opts, "k")
        .map(|raw| {
            raw.parse()
                .map_err(|_| SessionError::Command(format!("cannot parse k={raw}")))
        })
        .transpose()
}

/// Parses the `scenario` subcommands into a full [`ScenarioSpec`].
fn parse_scenario(rest: &[String]) -> Result<Command> {
    let Some(kind) = rest.first() else {
        return Err(SessionError::Command(
            "scenario needs a perspective (grid/auditor/jobowner/enduser/stream) \
             or a JSON spec path"
                .into(),
        ));
    };
    let strategy = parse_search_strategy(rest)?;
    let criteria = parse_criterion_grid(rest)?;
    let perspective = match kind.as_str() {
        "grid" => Perspective::Grid {
            datasets: csv_items(positional(rest, PLAN_OPTS, 1, "dataset list")?)
                .into_iter()
                .map(str::to_string)
                .collect(),
            functions: csv_items(positional(rest, PLAN_OPTS, 2, "function list")?)
                .into_iter()
                .map(str::to_string)
                .collect(),
            filter: opt(rest, PLAN_OPTS, "where").map(str::to_string),
        },
        "auditor" => {
            let n = opt_parse(rest, PLAN_OPTS, "n", 300)?;
            Perspective::Auditor {
                market: MarketSpec {
                    preset: positional(rest, PLAN_OPTS, 1, "marketplace preset")?
                        .to_string(),
                    n,
                    seed: opt_parse(rest, PLAN_OPTS, "seed", 42)?,
                },
                k: parse_k(rest, PLAN_OPTS)?,
                ranking_only: rest.iter().any(|t| t == "ranking-only"),
                subgroup_depth: opt_parse(rest, PLAN_OPTS, "sg-depth", 2)?,
                min_subgroup: opt_parse(rest, PLAN_OPTS, "sg-min", (n / 20).max(2))?,
            }
        }
        "jobowner" => Perspective::JobOwner {
            market: MarketSpec {
                preset: positional(rest, PLAN_OPTS, 1, "marketplace preset")?.to_string(),
                n: opt_parse(rest, PLAN_OPTS, "n", 300)?,
                seed: opt_parse(rest, PLAN_OPTS, "seed", 42)?,
            },
            job: positional(rest, PLAN_OPTS, 2, "job id")?.to_string(),
            skill: positional(rest, PLAN_OPTS, 3, "skill")?.to_string(),
            weights: match opt(rest, PLAN_OPTS, "weights") {
                None => vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                Some(raw) => csv_items(raw)
                    .into_iter()
                    .map(|s| {
                        s.parse::<f64>().map_err(|_| {
                            SessionError::Command(format!("cannot parse weight {s:?}"))
                        })
                    })
                    .collect::<Result<Vec<_>>>()?,
            },
        },
        "enduser" => {
            // Every positional after the preset is one group expression
            // (quote expressions containing spaces).
            let preset = positional(rest, PLAN_OPTS, 1, "marketplace preset")?.to_string();
            let is_option = |t: &str| {
                t.split_once('=').is_some_and(|(key, _)| PLAN_OPTS.contains(&key))
            };
            let groups: Vec<String> = rest
                .iter()
                .filter(|t| !is_option(t))
                .skip(2)
                .map(String::clone)
                .collect();
            if groups.is_empty() {
                return Err(SessionError::Command("missing group expression".into()));
            }
            Perspective::EndUser {
                market: MarketSpec {
                    preset,
                    n: opt_parse(rest, PLAN_OPTS, "n", 300)?,
                    seed: opt_parse(rest, PLAN_OPTS, "seed", 42)?,
                },
                groups,
            }
        }
        "stream" => Perspective::Stream {
            market: MarketSpec {
                preset: positional(rest, PLAN_OPTS, 1, "marketplace preset")?.to_string(),
                n: opt_parse(rest, PLAN_OPTS, "n", 300)?,
                seed: opt_parse(rest, PLAN_OPTS, "seed", 42)?,
            },
            job: positional(rest, PLAN_OPTS, 2, "job id")?.to_string(),
            k: parse_k(rest, PLAN_OPTS)?,
            ranking_only: rest.iter().any(|t| t == "ranking-only"),
            config: parse_stream_config(rest, PLAN_OPTS)?,
        },
        // Anything else is a JSON spec path.
        path => {
            return Ok(Command::RunScenarioFile {
                path: path.to_string(),
            })
        }
    };
    Ok(Command::RunScenario {
        spec: Box::new(ScenarioSpec {
            perspective,
            strategy,
            criteria,
        }),
    })
}

impl Command {
    /// Parses one REPL line. Empty lines parse to `Help`.
    pub fn parse(line: &str) -> Result<Command> {
        let tokens = tokenize(line);
        let Some(verb) = tokens.first() else {
            return Ok(Command::Help);
        };
        let rest = &tokens[1..];
        match verb.as_str() {
            "help" | "?" => Ok(Command::Help),
            "datasets" => Ok(Command::Datasets),
            "funcs" | "functions" => Ok(Command::Functions),
            "panels" => Ok(Command::Panels),
            "quit" | "exit" => Ok(Command::Quit),
            "load" => Ok(Command::Load {
                name: positional(rest, NO_OPTS, 0, "dataset name")?.to_string(),
                path: positional(rest, NO_OPTS, 1, "CSV path")?.to_string(),
            }),
            "generate" => Ok(Command::Generate {
                name: positional(rest, GENERATE_OPTS, 0, "dataset name")?.to_string(),
                preset: positional(rest, GENERATE_OPTS, 1, "preset")?.to_string(),
                n: opt_parse(rest, GENERATE_OPTS, "n", 200)?,
                seed: opt_parse(rest, GENERATE_OPTS, "seed", 42)?,
            }),
            "define" => Ok(Command::Define {
                name: positional(rest, NO_OPTS, 0, "function name")?.to_string(),
                expr: positional(rest, NO_OPTS, 1, "expression")?.to_string(),
            }),
            "data" => Ok(Command::ShowData {
                name: positional(rest, DATA_OPTS, 0, "dataset name")?.to_string(),
                rows: opt_parse(rest, DATA_OPTS, "rows", 10)?,
            }),
            "describe" => Ok(Command::Describe {
                name: positional(rest, NO_OPTS, 0, "dataset name")?.to_string(),
            }),
            "save" => Ok(Command::Save {
                dir: positional(rest, NO_OPTS, 0, "directory")?.to_string(),
            }),
            "open" => Ok(Command::Open {
                dir: positional(rest, NO_OPTS, 0, "directory")?.to_string(),
            }),
            "filter" => Ok(Command::DeriveFilter {
                new_name: raw_positional(rest, 0, "new dataset name")?.to_string(),
                source: raw_positional(rest, 1, "source dataset")?.to_string(),
                expr: raw_positional(rest, 2, "filter expression")?.to_string(),
            }),
            "anonymize" => {
                let method = match opt(rest, ANONYMIZE_OPTS, "method").unwrap_or("mondrian") {
                    "mondrian" => AnonMethod::Mondrian,
                    "datafly" => AnonMethod::Datafly,
                    "incognito" => AnonMethod::Incognito,
                    other => {
                        return Err(SessionError::Command(format!(
                            "unknown anonymization method {other:?}"
                        )))
                    }
                };
                Ok(Command::Anonymize {
                    new_name: positional(rest, ANONYMIZE_OPTS, 0, "new dataset name")?
                        .to_string(),
                    source: positional(rest, ANONYMIZE_OPTS, 1, "source dataset")?.to_string(),
                    k: opt_parse(rest, ANONYMIZE_OPTS, "k", 2)?,
                    method,
                })
            }
            "quantify" => {
                let objective = match opt(rest, QUANTIFY_OPTS, "objective") {
                    None => Objective::default(),
                    Some(raw) => Objective::parse(raw).ok_or_else(|| {
                        SessionError::Command(format!("unknown objective {raw:?}"))
                    })?,
                };
                let aggregator = match opt(rest, QUANTIFY_OPTS, "agg") {
                    None => Aggregator::default(),
                    Some(raw) => Aggregator::parse(raw).ok_or_else(|| {
                        SessionError::Command(format!("unknown aggregator {raw:?}"))
                    })?,
                };
                let emd = match opt(rest, QUANTIFY_OPTS, "emd") {
                    None => EmdBackendKind::default(),
                    Some(raw) => EmdBackendKind::parse(raw).ok_or_else(|| {
                        SessionError::Command(format!("unknown EMD backend {raw:?}"))
                    })?,
                };
                Ok(Command::Quantify {
                    dataset: positional(rest, QUANTIFY_OPTS, 0, "dataset")?.to_string(),
                    function: positional(rest, QUANTIFY_OPTS, 1, "function")?.to_string(),
                    objective,
                    aggregator,
                    bins: opt_parse(rest, QUANTIFY_OPTS, "bins", 10)?,
                    emd,
                    filter: opt(rest, QUANTIFY_OPTS, "where").map(str::to_string),
                    opaque: rest.iter().any(|t| t == "opaque"),
                })
            }
            "show" => Ok(Command::Show {
                panel: positional(rest, NO_OPTS, 0, "panel id")?
                    .parse()
                    .map_err(|_| SessionError::Command("panel id must be a number".into()))?,
            }),
            "node" => Ok(Command::Node {
                panel: positional(rest, NO_OPTS, 0, "panel id")?
                    .parse()
                    .map_err(|_| SessionError::Command("panel id must be a number".into()))?,
                node: positional(rest, NO_OPTS, 1, "node id")?
                    .parse()
                    .map_err(|_| SessionError::Command("node id must be a number".into()))?,
            }),
            "why" => Ok(Command::Why {
                panel: positional(rest, NO_OPTS, 0, "panel id")?
                    .parse()
                    .map_err(|_| SessionError::Command("panel id must be a number".into()))?,
                node: positional(rest, NO_OPTS, 1, "node id")?
                    .parse()
                    .map_err(|_| SessionError::Command("node id must be a number".into()))?,
            }),
            "compare" => Ok(Command::Compare {
                a: positional(rest, NO_OPTS, 0, "first panel")?
                    .parse()
                    .map_err(|_| SessionError::Command("panel id must be a number".into()))?,
                b: positional(rest, NO_OPTS, 1, "second panel")?
                    .parse()
                    .map_err(|_| SessionError::Command("panel id must be a number".into()))?,
            }),
            "export" => Ok(Command::Export {
                panel: positional(rest, NO_OPTS, 0, "panel id")?
                    .parse()
                    .map_err(|_| SessionError::Command("panel id must be a number".into()))?,
                path: positional(rest, NO_OPTS, 1, "output path")?.to_string(),
            }),
            "subgroups" => Ok(Command::Subgroups {
                dataset: positional(rest, SUBGROUPS_OPTS, 0, "dataset")?.to_string(),
                function: positional(rest, SUBGROUPS_OPTS, 1, "function")?.to_string(),
                depth: opt_parse(rest, SUBGROUPS_OPTS, "depth", 2)?,
                min_size: opt_parse(rest, SUBGROUPS_OPTS, "min", 5)?,
                top: opt_parse(rest, SUBGROUPS_OPTS, "top", 5)?,
            }),
            "audit" => Ok(Command::Audit {
                preset: positional(rest, AUDIT_OPTS, 0, "marketplace preset")?.to_string(),
                n: opt_parse(rest, AUDIT_OPTS, "n", 300)?,
                seed: opt_parse(rest, AUDIT_OPTS, "seed", 42)?,
                k: opt(rest, AUDIT_OPTS, "k")
                    .map(|raw| {
                        raw.parse().map_err(|_| {
                            SessionError::Command(format!("cannot parse k={raw}"))
                        })
                    })
                    .transpose()?,
                ranking_only: rest.iter().any(|t| t == "ranking-only"),
            }),
            "jobowner" => Ok(Command::JobOwner {
                preset: positional(rest, SCENARIO_OPTS, 0, "marketplace preset")?.to_string(),
                job: positional(rest, SCENARIO_OPTS, 1, "job id")?.to_string(),
                skill: positional(rest, SCENARIO_OPTS, 2, "skill")?.to_string(),
                n: opt_parse(rest, SCENARIO_OPTS, "n", 300)?,
                seed: opt_parse(rest, SCENARIO_OPTS, "seed", 42)?,
            }),
            "enduser" => Ok(Command::EndUser {
                preset: raw_positional(rest, 0, "marketplace preset")?.to_string(),
                group: raw_positional(rest, 1, "group filter")?.to_string(),
                n: opt_parse(&rest[2..], SCENARIO_OPTS, "n", 300)?,
                seed: opt_parse(&rest[2..], SCENARIO_OPTS, "seed", 42)?,
            }),
            "stream" => Ok(Command::Stream {
                preset: positional(rest, STREAM_OPTS, 0, "marketplace preset")?.to_string(),
                job: positional(rest, STREAM_OPTS, 1, "job id")?.to_string(),
                n: opt_parse(rest, STREAM_OPTS, "n", 300)?,
                seed: opt_parse(rest, STREAM_OPTS, "seed", 42)?,
                k: parse_k(rest, STREAM_OPTS)?,
                ranking_only: rest.iter().any(|t| t == "ranking-only"),
                config: parse_stream_config(rest, STREAM_OPTS)?,
            }),
            "scenario" => parse_scenario(rest),
            "sessions" => Ok(Command::Sessions),
            "evict" => Ok(Command::Evict {
                name: positional(rest, NO_OPTS, 0, "session name")?.to_string(),
            }),
            other => Err(SessionError::Command(format!("unknown command {other:?}"))),
        }
    }

    /// Whether the command reads or writes the host filesystem (`load`,
    /// `save`, `open`, `export`). Network services refuse these by
    /// default: a reachable port must not hand out file access on the
    /// serving host.
    pub fn touches_filesystem(&self) -> bool {
        matches!(
            self,
            Command::Load { .. }
                | Command::Save { .. }
                | Command::Open { .. }
                | Command::Export { .. }
                | Command::RunScenarioFile { .. }
        )
    }

    /// Whether the command runs a partitioning search (or another
    /// CPU-bound analysis) rather than a cheap registry/rendering
    /// operation. Services route these through a bounded worker pool so a
    /// burst of concurrent quantifications cannot oversubscribe the host.
    pub fn is_compute_heavy(&self) -> bool {
        matches!(
            self,
            Command::Quantify { .. }
                | Command::Subgroups { .. }
                | Command::Anonymize { .. }
                | Command::Audit { .. }
                | Command::JobOwner { .. }
                | Command::EndUser { .. }
                | Command::Stream { .. }
                | Command::RunScenario { .. }
                | Command::RunScenarioFile { .. }
        )
    }

    /// Whether the command manages a server's session registry rather than
    /// one session's state (`sessions`, `evict`). Servers handle these at
    /// the dispatch layer — and only when started with `--admin`; applying
    /// them to a plain [`Session`] is an error.
    pub fn is_registry_admin(&self) -> bool {
        matches!(self, Command::Sessions | Command::Evict { .. })
    }
}

/// Parses a scoring expression like `rating*0.7+language_test*0.3`.
pub fn parse_scoring(expr: &str) -> Result<LinearScoring> {
    let mut builder = LinearScoring::builder();
    for term in expr.split('+') {
        let term = term.trim();
        let (name, weight) = term.split_once('*').ok_or_else(|| {
            SessionError::Command(format!(
                "term {term:?} must look like attribute*weight"
            ))
        })?;
        let weight: f64 = weight.trim().parse().map_err(|_| {
            SessionError::Command(format!("weight {weight:?} is not a number"))
        })?;
        builder = builder.weight(name.trim(), weight);
    }
    Ok(builder.build_unchecked()?)
}

fn generate_dataset(preset: &str, n: usize, seed: u64) -> Result<fairank_data::Dataset> {
    let spec = match preset {
        "crowdsourcing" => synth::crowdsourcing_spec(n, seed),
        "biased" => synth::biased_crowdsourcing_spec(n, seed),
        "taskrabbit" => scenario::taskrabbit_population(n, seed),
        "qapa" => scenario::qapa_population(n, seed),
        other => {
            return Err(SessionError::Command(format!(
                "unknown preset {other:?} (try crowdsourcing, biased, taskrabbit, qapa)"
            )))
        }
    };
    Ok(spec.generate()?)
}

/// Generates the `preset` marketplace of `n` workers from `seed`.
pub(crate) fn build_marketplace(
    preset: &str,
    n: usize,
    seed: u64,
) -> Result<fairank_marketplace::Marketplace> {
    match preset {
        "taskrabbit" => Ok(scenario::taskrabbit_like(n, seed)?),
        "qapa" => Ok(scenario::qapa_like(n, seed)?),
        other => Err(SessionError::Command(format!(
            "unknown marketplace preset {other:?} (try taskrabbit, qapa)"
        ))),
    }
}

/// The `preset` marketplace of `n` workers from `seed`, looked up in the
/// session's marketplace memo before it is generated.
pub(crate) fn marketplace(
    session: &Session,
    preset: &str,
    n: usize,
    seed: u64,
) -> Result<Arc<fairank_marketplace::Marketplace>> {
    session
        .markets()
        .get_or_build(preset, n, seed, || build_marketplace(preset, n, seed))
}

/// Applies a command to a session, returning the structured [`Response`].
///
/// This is the typed core of the session API: every front end — the REPL,
/// script mode, the `fairank-service` JSON-lines server — goes through it
/// and decides separately how (or whether) to render the payload. The
/// text-era behavior is exactly `present::render(&apply(..)?)`, which
/// [`execute`] still provides.
pub fn apply(session: &mut Session, command: Command) -> Result<Response> {
    match command {
        Command::Help => Ok(Response::Help),
        Command::Quit => Ok(Response::Quit),
        Command::Datasets => Ok(Response::DatasetList(
            session
                .dataset_names()
                .iter()
                .map(|n| {
                    let ds = session.dataset(n).expect("listed");
                    DatasetEntry {
                        name: n.to_string(),
                        rows: ds.num_rows(),
                        columns: ds.schema().len(),
                    }
                })
                .collect(),
        )),
        Command::Functions => Ok(Response::FunctionList(
            session
                .function_names()
                .iter()
                .map(|n| {
                    let f = session.function(n).expect("listed");
                    FunctionEntry {
                        name: n.to_string(),
                        terms: f.terms().to_vec(),
                    }
                })
                .collect(),
        )),
        Command::Panels => Ok(Response::PanelList(
            session
                .panels()
                .iter()
                .map(|p| PanelEntry {
                    id: p.id,
                    unfairness: p.outcome.unfairness,
                    config: p.config.describe(),
                })
                .collect(),
        )),
        Command::Load { name, path } => {
            let ds = fairank_data::csv::read_csv_file(&path, &CsvOptions::default())?;
            let rows = ds.num_rows();
            session.add_dataset(&name, ds)?;
            Ok(Response::DatasetLoaded { name, rows, path })
        }
        Command::Generate {
            name,
            preset,
            n,
            seed,
        } => {
            let ds = generate_dataset(&preset, n, seed)?;
            session.add_dataset(&name, ds)?;
            Ok(Response::DatasetGenerated {
                name,
                preset,
                n,
                seed,
            })
        }
        Command::Define { name, expr } => {
            let f = parse_scoring(&expr)?;
            session.add_function(&name, f)?;
            Ok(Response::FunctionDefined { name, expr })
        }
        Command::ShowData { name, rows } => {
            // A head view over the shared columnar store: only the shown
            // cells are rendered; nothing of the dataset is copied.
            let ds = session.dataset(&name)?;
            let (columns, cells) = ds.head_cells(rows);
            Ok(Response::DataHead(DataHeadView {
                name,
                columns,
                rows: cells,
                total_rows: ds.num_rows(),
            }))
        }
        Command::Describe { name } => {
            let text = fairank_data::stats::describe(session.dataset(&name)?);
            Ok(Response::Description { name, text })
        }
        Command::Save { dir } => {
            crate::persist::save_session(session, &dir)?;
            Ok(Response::SessionSaved {
                datasets: session.dataset_names().len(),
                functions: session.function_names().len(),
                dir,
            })
        }
        Command::Open { dir } => {
            // Load through the *current* session's store so a reopened
            // session keeps deduping against datasets the registry (or a
            // prior save in this process) already holds.
            let mut loaded =
                crate::persist::load_session_with_store(&dir, session.store().clone())?;
            loaded.set_markets(Arc::clone(session.markets()));
            let datasets = loaded.dataset_names().len();
            let functions = loaded.function_names().len();
            *session = loaded;
            Ok(Response::SessionOpened {
                dir,
                datasets,
                functions,
            })
        }
        Command::DeriveFilter {
            new_name,
            source,
            expr,
        } => {
            let filter = Filter::parse(&expr)?;
            let rows = session.derive_filtered(&new_name, &source, &filter)?;
            Ok(Response::DatasetDerived {
                name: new_name,
                source,
                expr,
                rows,
            })
        }
        Command::Anonymize {
            new_name,
            source,
            k,
            method,
        } => {
            let suppressed = session.derive_anonymized(&new_name, &source, k, method)?;
            Ok(Response::DatasetAnonymized {
                name: new_name,
                source,
                method: format!("{method:?}"),
                k,
                suppressed,
            })
        }
        Command::Quantify {
            dataset,
            function,
            objective,
            aggregator,
            bins,
            emd,
            filter,
            opaque,
        } => {
            let criterion = FairnessCriterion::new(objective, aggregator)
                .with_hist(HistogramSpec::unit(bins)?)
                .with_emd(Emd::new(emd));
            let mut config = Configuration::new(&dataset, &function).with_criterion(criterion);
            if let Some(expr) = &filter {
                config = config.with_filter(Filter::parse(expr)?);
            }
            if opaque {
                // Simulate function opacity: rank with the true function,
                // hand the engine only the ranking.
                let f = session.function(&function)?.clone();
                let ds = session.dataset(&dataset)?;
                let working = match &filter {
                    Some(expr) => ds.filter(&Filter::parse(expr)?)?,
                    None => ds.clone(),
                };
                let scores = ScoreSource::Function(f).resolve(&working)?;
                config = config.with_source(ScoreSource::Ranking(scores_to_ranking(&scores)));
            }
            let id = session.quantify(config)?;
            Ok(Response::PanelCreated(PanelView::from_panel(
                session.panel(id)?,
            )?))
        }
        Command::Show { panel } => Ok(Response::PanelDetail(PanelView::from_panel(
            session.panel(panel)?,
        )?)),
        Command::Node { panel, node } => {
            let p = session.panel(panel)?;
            let stats = p.node_stats(node)?;
            let tree_node = p.outcome.tree.node(node);
            Ok(Response::NodeDetail(NodeView::from_stats(
                stats,
                tree_node.parent,
                tree_node.children.clone(),
            )))
        }
        Command::Why { panel, node } => {
            use fairank_core::explain::{explain_tree, render_explanation};
            let p = session.panel(panel)?;
            if node >= p.outcome.tree.len() {
                return Err(SessionError::UnknownNode { panel, node });
            }
            let explanations = explain_tree(&p.space, &p.outcome.tree, p.criterion())?;
            Ok(Response::Explanation {
                panel,
                node,
                text: render_explanation(&explanations[node]),
            })
        }
        Command::Compare { a, b } => Ok(Response::CompareReport(CompareView::new(
            session.panel(a)?,
            session.panel(b)?,
        ))),
        Command::Export { panel, path } => {
            let p = session.panel(panel)?;
            crate::export::write_panel_json(p, &path)?;
            Ok(Response::Exported { panel, path })
        }
        Command::Subgroups {
            dataset,
            function,
            depth,
            min_size,
            top,
        } => {
            use fairank_core::subgroup::{least_favored, most_favored, subgroup_stats};
            let f = session.function(&function)?.clone();
            let ds = session.dataset(&dataset)?;
            let space = ds.to_space(&ScoreSource::Function(f))?;
            // Fit the histogram range to the observed scores, as `quantify`
            // does — otherwise out-of-range scores saturate the edge bins
            // and every subgroup reports zero divergence.
            let criterion = FairnessCriterion::default().fit_range(&space);
            let stats = subgroup_stats(&space, &criterion, depth, min_size)?;
            let entry = |s: &fairank_core::subgroup::SubgroupStats| SubgroupEntry {
                label: s.label.clone(),
                size: s.size,
                advantage: s.advantage,
                divergence: s.divergence,
            };
            Ok(Response::Subgroups(SubgroupView {
                dataset,
                function,
                depth,
                min_size,
                total: stats.len(),
                most_favored: most_favored(&stats, top).into_iter().map(entry).collect(),
                least_favored: least_favored(&stats, top).into_iter().map(entry).collect(),
            }))
        }
        Command::Audit {
            preset,
            n,
            seed,
            k,
            ranking_only,
        } => {
            let market = marketplace(session, &preset, n, seed)?;
            let transparency = plan::observation_transparency(k, ranking_only);
            let report = report::auditor_report(
                &market,
                &transparency,
                &FairnessCriterion::default(),
                2,
                (n / 20).max(2),
            )?;
            Ok(Response::Audit(report))
        }
        Command::JobOwner {
            preset,
            job,
            skill,
            n,
            seed,
        } => {
            let market = marketplace(session, &preset, n, seed)?;
            let base = market.job(&job)?.scoring.clone();
            let report = report::job_owner_sweep(
                market.workers(),
                &base,
                &skill,
                &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                &FairnessCriterion::default(),
            )?;
            Ok(Response::JobOwnerSweep(report))
        }
        Command::EndUser {
            preset,
            group,
            n,
            seed,
        } => {
            let market = marketplace(session, &preset, n, seed)?;
            let filter = Filter::parse(&group)?;
            let report =
                report::end_user_report(&market, &filter, &FairnessCriterion::default())?;
            Ok(Response::EndUserView(report))
        }
        Command::Stream {
            preset,
            job,
            n,
            seed,
            k,
            ranking_only,
            config,
        } => {
            let market = marketplace(session, &preset, n, seed)?;
            let transparency = plan::observation_transparency(k, ranking_only);
            let outcome = run_stream(
                &market,
                &job,
                &transparency,
                &FairnessCriterion::default(),
                config,
            )?;
            Ok(Response::Stream(StreamView {
                marketplace: market.name.clone(),
                outcome,
            }))
        }
        Command::RunScenario { spec } => {
            let compiled = plan::compile(session, &spec)?;
            Ok(Response::Scenario(compiled.run_parallel(session)?))
        }
        Command::RunScenarioFile { path } => {
            let text = std::fs::read_to_string(&path)?;
            let spec: ScenarioSpec = serde_json::from_str(&text)
                .map_err(|e| SessionError::Json(format!("spec {path}: {e}")))?;
            let compiled = plan::compile(session, &spec)?;
            Ok(Response::Scenario(compiled.run_parallel(session)?))
        }
        Command::Sessions | Command::Evict { .. } => Err(SessionError::Command(
            "`sessions` and `evict` manage a server's session registry; run them \
             against a `fairank serve --admin` server"
                .into(),
        )),
    }
}

/// Applies a command under a cancellation scope: installs `budget` as the
/// session's run budget for the duration of the call, then restores the
/// previous scope — even when the command errors. This is how the service
/// threads per-request deadlines and cancel tokens through the whole
/// command surface without widening every signature.
pub fn apply_with_budget(
    session: &mut Session,
    command: Command,
    budget: fairank_core::cancel::RunBudget,
) -> Result<Response> {
    let previous = std::mem::replace(session.run_budget_mut(), budget);
    let result = apply(session, command);
    *session.run_budget_mut() = previous;
    result
}

/// Executes a command against a session, returning the text to print.
/// `Quit` returns the string `"quit"`; the REPL loop watches for it.
///
/// This is the string-era façade kept for callers that only want the
/// rendered transcript: exactly `present::render(&apply(..)?)`.
pub fn execute(session: &mut Session, command: Command) -> Result<String> {
    Ok(present::render(&apply(session, command)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(session: &mut Session, line: &str) -> String {
        execute(session, Command::parse(line).unwrap()).unwrap()
    }

    #[test]
    fn tokenizer_honors_quotes() {
        assert_eq!(
            tokenize(r#"filter f src "gender=F & country=India""#),
            vec!["filter", "f", "src", "gender=F & country=India"]
        );
        assert_eq!(tokenize("  a   b "), vec!["a", "b"]);
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn parse_scoring_expressions() {
        let f = parse_scoring("rating*0.7+language_test*0.3").unwrap();
        assert_eq!(f.terms().len(), 2);
        assert!(parse_scoring("rating").is_err());
        assert!(parse_scoring("rating*x").is_err());
    }

    #[test]
    fn positionals_may_contain_equals_signs() {
        // A path with `=` is not a recognized key=value option, so it stays
        // a positional instead of producing "missing CSV path".
        let cmd = Command::parse("load d results=final.csv").unwrap();
        assert_eq!(
            cmd,
            Command::Load {
                name: "d".into(),
                path: "results=final.csv".into(),
            }
        );
        // Option sets are per command: `load` takes no options, so even a
        // path that collides with another command's key stays positional.
        let cmd = Command::parse("load d n=final.csv").unwrap();
        assert_eq!(
            cmd,
            Command::Load {
                name: "d".into(),
                path: "n=final.csv".into(),
            }
        );
        // Recognized options are still skipped by positional lookup.
        let cmd = Command::parse("data pop rows=3").unwrap();
        assert_eq!(
            cmd,
            Command::ShowData {
                name: "pop".into(),
                rows: 3,
            }
        );
        // An export path with `=` works too.
        let cmd = Command::parse("export 0 out=dir/panel.json").unwrap();
        assert_eq!(
            cmd,
            Command::Export {
                panel: 0,
                path: "out=dir/panel.json".into(),
            }
        );
    }

    #[test]
    fn quantify_accepts_every_emd_backend_name() {
        // `batched` and `kernel` are aliases of `1d`.
        let aliases = [("batched", EmdBackendKind::OneD), ("kernel", EmdBackendKind::OneD)];
        for (name, kind) in EmdBackendKind::all().map(|k| (k.name(), k)).into_iter().chain(aliases) {
            match Command::parse(&format!("quantify pop f emd={name}")).unwrap() {
                Command::Quantify { emd, .. } => assert_eq!(emd, kind),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(Command::parse("quantify pop f emd=sideways").is_err());
    }

    #[test]
    fn grid_emd_aliases_compile_to_one_cell_per_criterion() {
        let mut s = Session::new();
        run(&mut s, "generate pop biased n=60 seed=3");
        run(&mut s, "define f rating*1.0");
        let Command::RunScenario { spec } =
            Command::parse("scenario grid pop f emd=1d,kernel,batched").unwrap()
        else {
            panic!("scenario grid parses to RunScenario");
        };
        assert_eq!(spec.criterion_grid().cardinality(), 1);
        let plan = crate::plan::compile(&s, &spec).unwrap();
        assert_eq!(plan.cell_count(), 1);
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!(Command::parse("bogus").is_err());
        assert!(Command::parse("load onlyname").is_err());
        assert!(Command::parse("quantify d f objective=sideways").is_err());
        assert!(Command::parse("show notanumber").is_err());
        assert!(Command::parse("generate d biased n=abc").is_err());
    }

    #[test]
    fn full_session_script() {
        let mut s = Session::new();
        assert!(run(&mut s, "help").contains("FaiRank commands"));
        assert!(run(&mut s, "datasets").contains("no datasets"));
        run(&mut s, "generate pop biased n=120 seed=5");
        assert!(run(&mut s, "datasets").contains("pop"));
        run(&mut s, "define f rating*0.7+language_test*0.3");
        assert!(run(&mut s, "funcs").contains("0.7·rating"));
        let out = run(&mut s, "quantify pop f");
        assert!(out.contains("panel #0"));
        assert!(run(&mut s, "panels").contains("#0"));
        assert!(run(&mut s, "show 0").contains("unfairness"));
        assert!(run(&mut s, "node 0 0").contains("Node [0] ALL"));
        let why = run(&mut s, "why 0 0");
        assert!(why.contains("SPLIT on") || why.contains("STOP"));
        let out = run(&mut s, "quantify pop f objective=least agg=max bins=5");
        assert!(out.contains("panel #1"));
        assert!(run(&mut s, "compare 0 1").contains("Δ"));
        assert_eq!(run(&mut s, "quit"), "quit");
    }

    #[test]
    fn filtered_and_anonymized_flow() {
        let mut s = Session::new();
        run(&mut s, "generate pop biased n=100 seed=9");
        let out = run(&mut s, r#"filter women pop "gender=Female""#);
        assert!(out.contains("women = pop"));
        run(&mut s, "anonymize anon pop k=5 method=mondrian");
        run(&mut s, "define f rating*1.0");
        let out = run(&mut s, "quantify anon f");
        assert!(out.contains("panel #0"));
    }

    #[test]
    fn opaque_quantification_uses_ranks() {
        let mut s = Session::new();
        run(&mut s, "generate pop biased n=80 seed=2");
        run(&mut s, "define f rating*1.0");
        let transparent = run(&mut s, "quantify pop f");
        let opaque = run(&mut s, "quantify pop f opaque");
        assert!(transparent.contains("panel #0"));
        assert!(opaque.contains("panel #1"));
        // Both find unfairness; values differ because histograms differ.
        let u0 = s.panel(0).unwrap().outcome.unfairness;
        let u1 = s.panel(1).unwrap().outcome.unfairness;
        assert!(u0 > 0.0 && u1 > 0.0);
    }

    #[test]
    fn where_option_filters_inline() {
        let mut s = Session::new();
        run(&mut s, "generate pop biased n=100 seed=3");
        run(&mut s, "define f rating*1.0");
        run(&mut s, r#"quantify pop f where="gender=Female""#);
        let p = s.panel(0).unwrap();
        assert!(p.general_info().individuals < 100);
    }

    #[test]
    fn describe_save_open_cycle() {
        let dir = std::env::temp_dir().join("fairank_cmd_persist");
        std::fs::remove_dir_all(&dir).ok();
        let mut s = Session::new();
        run(&mut s, "generate pop biased n=60 seed=2");
        run(&mut s, "define f rating*1.0");
        let described = run(&mut s, "describe pop");
        assert!(described.contains("rating [observed]"));
        assert!(described.contains("distinct values"));
        let saved = run(&mut s, &format!("save {}", dir.display()));
        assert!(saved.contains("saved 1 dataset"));
        let mut fresh = Session::new();
        let opened = run(&mut fresh, &format!("open {}", dir.display()));
        assert!(opened.contains("1 dataset(s), 1 function(s)"));
        assert!(run(&mut fresh, "quantify pop f").contains("panel #0"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subgroups_command_lists_extremes() {
        let mut s = Session::new();
        run(&mut s, "generate pop biased n=200 seed=5");
        run(&mut s, "define f rating*1.0");
        let out = run(&mut s, "subgroups pop f depth=2 min=10 top=3");
        assert!(out.contains("most favored"));
        assert!(out.contains("least favored"));
        assert!(out.contains("advantage"));
    }

    #[test]
    fn scenario_commands_render_reports() {
        let mut s = Session::new();
        let audit = run(&mut s, "audit taskrabbit n=120 seed=4");
        assert!(audit.contains("AUDITOR REPORT"));
        let owner = run(&mut s, "jobowner taskrabbit wood-panels rating n=120 seed=4");
        assert!(owner.contains("← fairest"));
        let user = run(&mut s, r#"enduser taskrabbit "gender=Female" n=120 seed=4"#);
        assert!(user.contains("END-USER REPORT"));
    }

    #[test]
    fn audit_with_transparency_options() {
        let mut s = Session::new();
        let out = run(&mut s, "audit taskrabbit n=80 seed=6 k=4 ranking-only");
        assert!(out.contains("AUDITOR REPORT"));
    }

    #[test]
    fn scenario_grid_command_parses_and_runs() {
        let cmd = Command::parse(
            "scenario grid pop f,g aggs=mean,max bins=5,10 strategy=beam width=3",
        )
        .unwrap();
        let Command::RunScenario { spec } = &cmd else {
            panic!("expected RunScenario, got {cmd:?}");
        };
        assert_eq!(
            spec.perspective,
            crate::plan::Perspective::Grid {
                datasets: vec!["pop".into()],
                functions: vec!["f".into(), "g".into()],
                filter: None,
            }
        );
        assert_eq!(spec.strategy(), SearchStrategy::Beam { width: 3 });
        assert_eq!(spec.criterion_grid().cardinality(), 4);
        assert!(cmd.is_compute_heavy());
        assert!(!cmd.touches_filesystem());

        let mut s = Session::new();
        run(&mut s, "generate pop biased n=80 seed=2");
        run(&mut s, "define f rating*1.0");
        run(&mut s, "define g rating*0.5+language_test*0.5");
        let out = run(&mut s, "scenario grid pop f,g aggs=mean,max");
        assert!(out.contains("SCENARIO REPORT"), "{out}");
        assert!(out.contains("cell stats:"));
        // quantify strategy commits one panel per cell, in grid order.
        assert_eq!(s.panels().len(), 4);
    }

    #[test]
    fn beam_width_zero_reports_the_clamped_width() {
        let cmd = Command::parse("scenario grid pop f strategy=beam width=0").unwrap();
        let Command::RunScenario { spec } = &cmd else {
            panic!("expected RunScenario, got {cmd:?}");
        };
        assert_eq!(spec.strategy(), SearchStrategy::Beam { width: 1 });

        let mut s = Session::new();
        run(&mut s, "generate pop biased n=80 seed=2");
        run(&mut s, "define f rating*1.0");
        let out = run(&mut s, "scenario grid pop f strategy=beam width=0");
        assert!(out.contains("beam(width=1)"), "{out}");
        assert!(!out.contains("beam(width=0)"), "{out}");
    }

    #[test]
    fn scenario_perspectives_parse() {
        let cmd = Command::parse(
            "scenario auditor taskrabbit n=100 seed=3 k=4 ranking-only sg-depth=1 sg-min=8",
        )
        .unwrap();
        let Command::RunScenario { spec } = cmd else {
            panic!("expected RunScenario");
        };
        assert_eq!(
            spec.perspective,
            crate::plan::Perspective::Auditor {
                market: crate::plan::MarketSpec {
                    preset: "taskrabbit".into(),
                    n: 100,
                    seed: 3,
                },
                k: Some(4),
                ranking_only: true,
                subgroup_depth: 1,
                min_subgroup: 8,
            }
        );

        let cmd = Command::parse(
            "scenario jobowner taskrabbit wood-panels rating weights=0.0,0.5,1.0",
        )
        .unwrap();
        let Command::RunScenario { spec } = cmd else {
            panic!("expected RunScenario");
        };
        let crate::plan::Perspective::JobOwner { weights, skill, .. } = &spec.perspective
        else {
            panic!("expected job-owner perspective");
        };
        assert_eq!(weights, &[0.0, 0.5, 1.0]);
        assert_eq!(skill, "rating");

        let cmd = Command::parse(
            r#"scenario enduser taskrabbit "gender=Female" "gender=Male" n=90"#,
        )
        .unwrap();
        let Command::RunScenario { spec } = cmd else {
            panic!("expected RunScenario");
        };
        let crate::plan::Perspective::EndUser { groups, market } = &spec.perspective else {
            panic!("expected end-user perspective");
        };
        assert_eq!(groups, &["gender=Female".to_string(), "gender=Male".to_string()]);
        assert_eq!(market.n, 90);

        // Anything that is not a known perspective is a JSON spec path.
        assert_eq!(
            Command::parse("scenario plans/audit.json").unwrap(),
            Command::RunScenarioFile {
                path: "plans/audit.json".into(),
            }
        );
        assert!(Command::parse("scenario plans/audit.json")
            .unwrap()
            .touches_filesystem());
        assert!(Command::parse("scenario grid pop f strategy=sideways").is_err());
    }

    #[test]
    fn stream_command_parses_and_runs() {
        let cmd = Command::parse(
            "stream taskrabbit errands n=90 seed=4 rounds=2 arrivals=1 departures=1 \
             rescores=3 stream-seed=77",
        )
        .unwrap();
        assert_eq!(
            cmd,
            Command::Stream {
                preset: "taskrabbit".into(),
                job: "errands".into(),
                n: 90,
                seed: 4,
                k: None,
                ranking_only: false,
                config: StreamConfig {
                    rounds: 2,
                    arrivals_per_round: 1,
                    departures_per_round: 1,
                    rescores_per_round: 3,
                    seed: Some(77),
                },
            }
        );
        assert!(cmd.is_compute_heavy());
        assert!(!cmd.touches_filesystem());
        // Unspecified knobs land on the StreamConfig defaults.
        let Command::Stream { config, .. } = Command::parse("stream qapa devops").unwrap()
        else {
            panic!("expected Stream");
        };
        assert_eq!(config, StreamConfig::default());

        let mut s = Session::new();
        let out = run(
            &mut s,
            "stream taskrabbit errands n=90 seed=4 rounds=2 stream-seed=77",
        );
        assert!(out.contains("STREAM RE-AUDIT"), "{out}");
        assert!(out.contains("seed 77"));
        assert!(out.contains("histogram(s) reused across 2 churn round(s)"));
    }

    #[test]
    fn scenario_stream_parses_and_runs() {
        let cmd = Command::parse(
            "scenario stream taskrabbit errands n=90 seed=4 rounds=2 rescores=3 \
             stream-seed=5 aggs=mean,max",
        )
        .unwrap();
        let Command::RunScenario { spec } = &cmd else {
            panic!("expected RunScenario, got {cmd:?}");
        };
        let Perspective::Stream {
            market,
            job,
            config,
            ..
        } = &spec.perspective
        else {
            panic!("expected stream perspective");
        };
        assert_eq!(market.preset, "taskrabbit");
        assert_eq!(market.n, 90);
        assert_eq!(job, "errands");
        assert_eq!(config.rounds, 2);
        assert_eq!(config.rescores_per_round, 3);
        assert_eq!(config.seed, Some(5));
        assert_eq!(spec.criterion_grid().cardinality(), 2);

        let mut s = Session::new();
        let out = run(
            &mut s,
            "scenario stream taskrabbit errands n=90 seed=4 rounds=2 stream-seed=5 \
             aggs=mean,max",
        );
        assert!(out.contains("SCENARIO REPORT — stream"), "{out}");
        assert!(out.contains("criterion:"));
        assert!(out.contains("Δ reused"), "{out}");
    }

    #[test]
    fn scenario_file_command_round_trips_a_spec() {
        let dir = std::env::temp_dir().join("fairank_cmd_scenario");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spec.json");
        let spec = ScenarioSpec::new(Perspective::Grid {
            datasets: vec!["pop".into()],
            functions: vec!["f".into()],
            filter: None,
        });
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        let mut s = Session::new();
        run(&mut s, "generate pop biased n=60 seed=4");
        run(&mut s, "define f rating*1.0");
        let out = run(&mut s, &format!("scenario {}", path.display()));
        assert!(out.contains("SCENARIO REPORT"), "{out}");
        assert_eq!(s.panels().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn registry_admin_commands_parse_but_refuse_plain_sessions() {
        assert_eq!(Command::parse("sessions").unwrap(), Command::Sessions);
        assert_eq!(
            Command::parse("evict audit-1").unwrap(),
            Command::Evict {
                name: "audit-1".into(),
            }
        );
        assert!(Command::parse("sessions").unwrap().is_registry_admin());
        assert!(Command::parse("evict x").unwrap().is_registry_admin());
        assert!(!Command::parse("help").unwrap().is_registry_admin());
        let mut s = Session::new();
        let err = apply(&mut s, Command::Sessions).unwrap_err();
        assert!(err.to_string().contains("--admin"));
        let err = apply(&mut s, Command::Evict { name: "x".into() }).unwrap_err();
        assert!(err.to_string().contains("registry"));
    }

    #[test]
    fn export_command_writes_file() {
        let dir = std::env::temp_dir().join("fairank_cmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.json");
        let mut s = Session::new();
        run(&mut s, "generate pop biased n=60 seed=8");
        run(&mut s, "define f rating*1.0");
        run(&mut s, "quantify pop f");
        let out = run(&mut s, &format!("export 0 {}", path.display()));
        assert!(out.contains("exported"));
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }
}
