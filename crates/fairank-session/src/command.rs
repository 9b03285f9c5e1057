//! The command language driving the FaiRank REPL.
//!
//! Every interaction of the Figure 3 interface has a textual command:
//! loading/generating datasets, defining scoring functions, filtering,
//! anonymizing, quantifying into panels, inspecting trees and nodes,
//! comparing panels, exporting, and running the three §4 scenario reports.
//!
//! Grammar: whitespace-separated tokens; `key=value` options; values with
//! spaces are double-quoted (`where="gender=F & country=India"`). Each
//! command's arguments, bounds, class and help are one entry of [`COMMANDS`].

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

/// A parsed command; its syntax is its [`CommandSpec`] in [`COMMANDS`].
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
    /// Load a CSV dataset.
    Load { name: String, path: String },
    /// Generate a synthetic dataset.
    Generate {
        name: String,
        preset: String,
        n: usize,
        seed: u64,
    },
    /// Define a scoring function.
    Define { name: String, expr: String },
    /// Print the head of a dataset.
    ShowData { name: String, rows: usize },
    /// Per-column summary statistics.
    Describe { name: String },
    /// Save the session's datasets and functions.
    Save { dir: String },
    /// Replace the session with a saved one.
    Open { dir: String },
    /// Derive a filtered dataset.
    DeriveFilter {
        new_name: String,
        source: String,
        expr: String,
    },
    /// Derive an anonymized dataset.
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
    /// Render a panel's tree.
    Show { panel: usize },
    /// Render a node box.
    Node { panel: usize, node: usize },
    /// Explain a search decision.
    Why { panel: usize, node: usize },
    /// Compare two panels.
    Compare { a: usize, b: usize },
    /// Export a panel to JSON.
    Export { panel: usize, path: String },
    /// Subgroup lattice statistics.
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
    /// Run a scenario plan (grid/sweep/report compiled into parallel cells).
    RunScenario { spec: Box<ScenarioSpec> },
    /// Run a scenario plan from a JSON spec file.
    RunScenarioFile { path: String },
    /// List the server's live sessions (registry admin).
    Sessions,
    /// Evict a named session from the server registry (registry admin).
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

// ----------------------------------------------------------------- bounds

/// An upper bound on a size a request may ask for. Bounded options of the
/// command table carry one, and [`ScenarioSpec::check_limits`] applies the
/// same values to plans, so the REPL, scripts and the wire share one rule:
/// a larger value is refused with `limit_exceeded` before anything is
/// allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bound {
    /// What the bound limits, as `serve --help` lists it.
    pub what: &'static str,
    /// The largest accepted value.
    pub max: u64,
}

impl Bound {
    /// Refuses `value` (named `what` in the error) above the bound.
    pub fn check(&self, what: &str, value: u128) -> Result<()> {
        let max = self.max;
        let err = || SessionError::LimitExceeded { what: format!("{what}={value}"), max };
        (value <= u128::from(max)).then_some(()).ok_or_else(err)
    }
}

// The request bounds; each is at least 10x the largest use in the repo.
pub const MAX_ROWS: Bound = Bound { what: "rows", max: 1_000_000 };
pub const MAX_BINS: Bound = Bound { what: "histogram bins", max: 1_000 };
pub const MAX_ROUNDS: Bound = Bound { what: "stream rounds", max: 10_000 };
pub const MAX_EVENTS: Bound = Bound { what: "stream events per round", max: 10_000 };
pub const MAX_BEAM_WIDTH: Bound = Bound { what: "beam width", max: 1_024 };
pub const MAX_BUDGET: Bound = Bound { what: "exhaustive budget", max: 10_000_000 };
pub const MAX_CELLS: Bound = Bound { what: "scenario plan cells", max: 4_096 };

// ------------------------------------------------------------------ table

/// A positional argument of a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// The next token that is not an option or flag of the verb.
    Plain(&'static str),
    /// The next token as it is, even when it looks like an option (filter
    /// and group expressions contain `=`). Raw arguments come first.
    Raw(&'static str),
    /// Every remaining plain token, at least one.
    Variadic(&'static str),
}

/// A `key=value` option: its default (`None` when absence means something
/// of its own) and the bound every integer in its value must stay within.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opt {
    pub key: &'static str,
    pub default: Option<&'static str>,
    pub bound: Option<Bound>,
}

/// What a command costs or touches; a command without a class is light.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A search or another CPU-bound analysis; servers run it on the pool.
    Compute,
    /// Reads or writes the host filesystem; servers need `--allow-fs`.
    Filesystem,
    /// Manages a server's session registry; servers need `--admin`.
    Admin,
}

/// The one definition of a command: names, arguments, options, classes,
/// help, an example, and how the parsed arguments build the [`Command`].
#[derive(Debug)]
pub struct CommandSpec {
    /// The verb and its aliases; a `scenario` perspective is two words.
    pub names: &'static [&'static str],
    pub args: &'static [Arg],
    pub options: &'static [Opt],
    /// Bare flags (`opaque`, `ranking-only`).
    pub flags: &'static [&'static str],
    pub class: &'static [Class],
    /// The command's `help` lines; empty when a sibling's line covers it.
    pub help: &'static str,
    pub example: &'static str,
    build: fn(&Args) -> Result<Command>,
}

impl CommandSpec {
    pub fn name(&self) -> &'static str {
        self.names[0]
    }

    fn option(&self, key: &str) -> Option<&'static Opt> {
        self.options.iter().find(|o| o.key == key)
    }

    /// Whether `key` is an option of any command of this verb. Such a
    /// token is never a positional, even where this command rejects it.
    fn verb_takes(&self, key: &str) -> bool {
        let verb = |spec: &CommandSpec| spec.name().split(' ').next();
        self.option(key).is_some()
            || COMMANDS.iter().any(|spec| verb(spec) == verb(self) && spec.option(key).is_some())
    }
}

const fn opt(key: &'static str, default: Option<&'static str>) -> Opt {
    Opt { key, default, bound: None }
}

const fn bounded(key: &'static str, default: Option<&'static str>, bound: Bound) -> Opt {
    Opt { key, default, bound: Some(bound) }
}

const N: Opt = bounded("n", Some("300"), MAX_ROWS);
const SEED: Opt = opt("seed", Some("42"));
const K: Opt = opt("k", None);
const ROUNDS: Opt = bounded("rounds", Some("8"), MAX_ROUNDS);
const ARRIVALS: Opt = bounded("arrivals", Some("4"), MAX_EVENTS);
const DEPARTURES: Opt = bounded("departures", Some("4"), MAX_EVENTS);
const RESCORES: Opt = bounded("rescores", Some("8"), MAX_EVENTS);
const STREAM_SEED: Opt = opt("stream-seed", None);
const PRESET: Arg = Plain("marketplace preset");
const JOB: Arg = Plain("job id");

/// The options of a `scenario` perspective: its own, then the strategy
/// and criterion-grid options every perspective shares.
macro_rules! plan_options {
    ($($own:expr),*) => {
        &[$($own,)* opt("strategy", None), bounded("width", Some("4"), MAX_BEAM_WIDTH),
          opt("depth", None), opt("min", Some("1")),
          bounded("budget", Some("5000000"), MAX_BUDGET), opt("objectives", None),
          opt("aggs", None), bounded("bins", None, MAX_BINS), opt("emd", None)]
    };
}

/// The fields an entry leaves out: no arguments, options, flags or class.
#[rustfmt::skip]
const BARE: CommandSpec = CommandSpec { names: &[], args: &[], options: &[], flags: &[], class: &[],
    help: "", example: "", build: |_| unreachable!("every entry sets `build`") };

use Arg::{Plain, Raw, Variadic};
use Class::{Admin, Compute, Filesystem};

/// The command table, in `help` order.
#[rustfmt::skip]
pub static COMMANDS: &[CommandSpec] = &[
    CommandSpec { names: &["datasets"], example: "datasets", build: |_| Ok(Command::Datasets),
        help: "  datasets | funcs | panels            list session objects\n", ..BARE },
    CommandSpec { names: &["funcs", "functions"], example: "funcs",
        build: |_| Ok(Command::Functions), ..BARE },
    CommandSpec { names: &["panels"], example: "panels", build: |_| Ok(Command::Panels), ..BARE },
    CommandSpec { names: &["load"], args: &[Plain("dataset name"), Plain("CSV path")],
        class: &[Filesystem], example: "load pop data/pop.csv",
        help: "  load <name> <path.csv>               load a CSV dataset\n",
        build: |a| Ok(Command::Load { name: a.arg(0), path: a.arg(1) }), ..BARE },
    CommandSpec { names: &["generate"], args: &[Plain("dataset name"), Plain("preset")],
        options: &[bounded("n", Some("200"), MAX_ROWS), SEED],
        help: "  generate <name> <preset> [n=] [seed=]  presets: crowdsourcing, biased,
                                       taskrabbit, qapa\n",
        example: "generate pop biased n=200 seed=4",
        build: |a| Ok(Command::Generate { name: a.arg(0), preset: a.arg(1), n: a.num("n")?,
            seed: a.num("seed")? }), ..BARE },
    CommandSpec { names: &["define"], args: &[Plain("function name"), Plain("expression")],
        help: "  define <name> <attr*w+attr*w…>       define a scoring function\n",
        example: "define f rating*0.7+language_test*0.3",
        build: |a| Ok(Command::Define { name: a.arg(0), expr: a.arg(1) }), ..BARE },
    CommandSpec { names: &["data"], args: &[Plain("dataset name")],
        options: &[bounded("rows", Some("10"), MAX_ROWS)], example: "data pop rows=5",
        help: "  data <name> [rows=10]                print the head of a dataset\n",
        build: |a| Ok(Command::ShowData { name: a.arg(0), rows: a.num("rows")? }), ..BARE },
    CommandSpec { names: &["describe"], args: &[Plain("dataset name")], example: "describe pop",
        help: "  describe <name>                      per-column summary statistics\n",
        build: |a| Ok(Command::Describe { name: a.arg(0) }), ..BARE },
    CommandSpec { names: &["save"], args: &[Plain("directory")], class: &[Filesystem],
        help: "  save <dir> | open <dir>              persist / restore the session\n",
        example: "save sessions/audit", build: |a| Ok(Command::Save { dir: a.arg(0) }), ..BARE },
    CommandSpec { names: &["open"], args: &[Plain("directory")], class: &[Filesystem],
        example: "open sessions/audit", build: |a| Ok(Command::Open { dir: a.arg(0) }), ..BARE },
    CommandSpec { names: &["filter"],
        args: &[Raw("new dataset name"), Raw("source dataset"), Raw("filter expression")],
        help: "  filter <new> <src> \"<expr>\"          derive a filtered dataset\n",
        example: "filter women pop \"gender=Female\"",
        build: |a| Ok(Command::DeriveFilter { new_name: a.arg(0), source: a.arg(1),
            expr: a.arg(2) }), ..BARE },
    CommandSpec { names: &["anonymize"],
        args: &[Plain("new dataset name"), Plain("source dataset")],
        options: &[opt("k", Some("2")), opt("method", Some("mondrian"))], class: &[Compute],
        help: "  anonymize <new> <src> k=2 [method=mondrian|datafly]\n",
        example: "anonymize anon pop k=5 method=datafly",
        build: |a| Ok(Command::Anonymize { new_name: a.arg(0), source: a.arg(1), k: a.num("k")?,
            method: a.parse("method", |s| match s {
                "mondrian" => Some(AnonMethod::Mondrian), "datafly" => Some(AnonMethod::Datafly),
                "incognito" => Some(AnonMethod::Incognito), _ => None })? }), ..BARE },
    CommandSpec { names: &["quantify"], args: &[Plain("dataset"), Plain("function")],
        options: &[opt("objective", Some("most")), opt("agg", Some("mean")),
            bounded("bins", Some("10"), MAX_BINS), opt("emd", Some("1d")), opt("where", None)],
        flags: &["opaque"], class: &[Compute],
        help: "  quantify <dataset> <func> [objective=most|least] [agg=mean|max|min|variance]
           [bins=10] [emd=1d|transport] [where=\"<expr>\"] [opaque]\n",
        example: "quantify pop f objective=least agg=max bins=5 emd=transport opaque",
        build: |a| Ok(Command::Quantify { dataset: a.arg(0), function: a.arg(1),
            objective: a.parse("objective", Objective::parse)?,
            aggregator: a.parse("agg", Aggregator::parse)?, bins: a.num("bins")?,
            emd: a.parse("emd", EmdBackendKind::parse)?,
            filter: a.given("where").map(str::to_string),
            opaque: a.flag("opaque") }) },
    CommandSpec { names: &["subgroups"], args: &[Plain("dataset"), Plain("function")],
        options: &[opt("depth", Some("2")), opt("min", Some("5")), opt("top", Some("5"))],
        class: &[Compute], example: "subgroups pop f depth=2 min=10 top=3",
        help: "  subgroups <dataset> <func> [depth=2] [min=5] [top=5]
                                       most/least favored subgroups\n",
        build: |a| Ok(Command::Subgroups { dataset: a.arg(0), function: a.arg(1),
            depth: a.num("depth")?, min_size: a.num("min")?, top: a.num("top")? }), ..BARE },
    CommandSpec { names: &["show"], args: &[Plain("panel id")], example: "show 0",
        help: "  show <panel>                         render a panel's partitioning tree\n",
        build: |a| Ok(Command::Show { panel: a.id(0)? }), ..BARE },
    CommandSpec { names: &["node"], args: &[Plain("panel id"), Plain("node id")],
        help: "  node <panel> <node>                  the Node box for one tree node\n",
        example: "node 0 3", build: |a| Ok(Command::Node { panel: a.id(0)?, node: a.id(1)? }),
        ..BARE },
    CommandSpec { names: &["why"], args: &[Plain("panel id"), Plain("node id")], example: "why 0 0",
        help: "  why <panel> <node>                   explain the search decision at a node\n",
        build: |a| Ok(Command::Why { panel: a.id(0)?, node: a.id(1)? }), ..BARE },
    CommandSpec { names: &["compare"], args: &[Plain("first panel"), Plain("second panel")],
        help: "  compare <a> <b>                      compare two panels\n",
        example: "compare 0 1", build: |a| Ok(Command::Compare { a: a.id(0)?, b: a.id(1)? }),
        ..BARE },
    CommandSpec { names: &["export"], args: &[Plain("panel id"), Plain("output path")],
        class: &[Filesystem], example: "export 0 panel.json",
        help: "  export <panel> <path.json>           export a panel as JSON\n",
        build: |a| Ok(Command::Export { panel: a.id(0)?, path: a.arg(1) }), ..BARE },
    CommandSpec { names: &["audit"], args: &[PRESET], options: &[N, SEED, K],
        flags: &["ranking-only"], class: &[Compute],
        help: "  audit <taskrabbit|qapa> [n=] [seed=] [k=] [ranking-only]\n",
        example: "audit taskrabbit n=120 seed=4 k=4 ranking-only",
        build: |a| Ok(Command::Audit { preset: a.arg(0), n: a.num("n")?, seed: a.num("seed")?,
            k: a.maybe_num("k")?, ranking_only: a.flag("ranking-only") }) },
    CommandSpec { names: &["jobowner"], args: &[PRESET, JOB, Plain("skill")], options: &[N, SEED],
        class: &[Compute], example: "jobowner taskrabbit wood-panels rating n=120 seed=4",
        help: "  jobowner <preset> <job> <skill> [n=] [seed=]\n",
        build: |a| Ok(Command::JobOwner { preset: a.arg(0), job: a.arg(1), skill: a.arg(2),
            n: a.num("n")?, seed: a.num("seed")? }), ..BARE },
    CommandSpec { names: &["enduser"], args: &[Raw("marketplace preset"), Raw("group filter")],
        options: &[N, SEED], class: &[Compute],
        help: "  enduser <preset> \"<group expr>\" [n=] [seed=]\n",
        example: "enduser taskrabbit \"gender=Female\" n=120 seed=4",
        build: |a| Ok(Command::EndUser { preset: a.arg(0), group: a.arg(1), n: a.num("n")?,
            seed: a.num("seed")? }), ..BARE },
    CommandSpec { names: &["stream"], args: &[PRESET, JOB],
        options: &[N, SEED, K, ROUNDS, ARRIVALS, DEPARTURES, RESCORES, STREAM_SEED],
        flags: &["ranking-only"], class: &[Compute],
        help: "  stream <preset> <job> [n=] [seed=] [rounds=] [arrivals=] [departures=]
         [rescores=] [stream-seed=] [k=] [ranking-only]
                                       incremental re-audit over live churn\n",
        example: "stream taskrabbit errands n=90 seed=4 rounds=2 stream-seed=77",
        build: |a| Ok(Command::Stream { preset: a.arg(0), job: a.arg(1), n: a.num("n")?,
            seed: a.num("seed")?, k: a.maybe_num("k")?, ranking_only: a.flag("ranking-only"),
            config: a.stream_config()? }) },
    CommandSpec { names: &["scenario grid"], args: &[Plain("dataset list"), Plain("function list")],
        options: plan_options![opt("where", None)], class: &[Compute],
        help: "  scenario grid <ds,..> <func,..> [objectives=] [aggs=] [bins=] [emd=]
           [strategy=quantify|beam|exhaustive] [width=] [depth=] [min=]
           [budget=] [where=\"<expr>\"]   compile a grid into parallel cells\n",
        example: "scenario grid pop f,g aggs=mean,max bins=5,10 strategy=beam width=3",
        build: |a| a.scenario(Perspective::Grid {
            datasets: csv_items(a.positionals[0]).into_iter().map(str::to_string).collect(),
            functions: csv_items(a.positionals[1]).into_iter().map(str::to_string).collect(),
            filter: a.given("where").map(str::to_string) }), ..BARE },
    CommandSpec { names: &["scenario auditor"], args: &[PRESET],
        options: plan_options![N, SEED, K, opt("sg-depth", Some("2")), opt("sg-min", None)],
        flags: &["ranking-only"], class: &[Compute],
        help: "  scenario auditor <preset> [n=] [seed=] [k=] [ranking-only] [sg-depth=] [sg-min=]\n",
        example: "scenario auditor taskrabbit n=100 seed=3 k=4 ranking-only sg-depth=1 sg-min=8",
        build: |a| {
            let market = a.market()?;
            let min_subgroup = a.maybe_num("sg-min")?.unwrap_or((market.n / 20).max(2));
            a.scenario(Perspective::Auditor { market, k: a.maybe_num("k")?,
                ranking_only: a.flag("ranking-only"), subgroup_depth: a.num("sg-depth")?,
                min_subgroup })
        } },
    CommandSpec { names: &["scenario jobowner"], args: &[PRESET, JOB, Plain("skill")],
        options: plan_options![N, SEED, opt("weights", Some("0,0.2,0.4,0.6,0.8,1"))],
        class: &[Compute],
        help: "  scenario jobowner <preset> <job> <skill> [weights=w1,w2,..] [n=] [seed=]\n",
        example: "scenario jobowner taskrabbit wood-panels rating weights=0.0,0.5,1.0",
        build: |a| a.scenario(Perspective::JobOwner { market: a.market()?, job: a.arg(1),
            skill: a.arg(2), weights: a.list("weights", |s| s.parse().ok())?.unwrap_or_default() }),
        ..BARE },
    CommandSpec { names: &["scenario enduser"], args: &[PRESET, Variadic("group expression")],
        options: plan_options![N, SEED], class: &[Compute],
        help: "  scenario enduser <preset> \"<group>\"… [n=] [seed=]\n",
        example: "scenario enduser taskrabbit \"gender=Female\" \"gender=Male\" n=90",
        build: |a| a.scenario(Perspective::EndUser { market: a.market()?,
            groups: a.positionals[1..].iter().map(|g| g.to_string()).collect() }), ..BARE },
    CommandSpec { names: &["scenario stream"], args: &[PRESET, JOB],
        options: plan_options![N, SEED, K, ROUNDS, ARRIVALS, DEPARTURES, RESCORES, STREAM_SEED],
        flags: &["ranking-only"], class: &[Compute],
        help: "  scenario stream <preset> <job> [rounds=] [arrivals=] [departures=] [rescores=]
           [stream-seed=] [n=] [seed=] [k=] [ranking-only]\n",
        example: "scenario stream taskrabbit errands n=90 rounds=2 stream-seed=5 aggs=mean,max",
        build: |a| a.scenario(Perspective::Stream { market: a.market()?, job: a.arg(1),
            k: a.maybe_num("k")?, ranking_only: a.flag("ranking-only"),
            config: a.stream_config()? }) },
    CommandSpec { names: &["scenario"],
        args: &[Raw("perspective (grid/auditor/jobowner/enduser/stream) or a JSON spec path")],
        class: &[Compute, Filesystem], example: "scenario plans/audit.json",
        help: "  scenario <spec.json>                 run a scenario plan from a JSON spec\n",
        build: |a| Ok(Command::RunScenarioFile { path: a.arg(0) }), ..BARE },
    CommandSpec { names: &["sessions"], class: &[Admin], example: "sessions",
        help: "  sessions | evict <name>              registry admin (server --admin only)\n",
        build: |_| Ok(Command::Sessions), ..BARE },
    CommandSpec { names: &["evict"], args: &[Plain("session name")], class: &[Admin],
        example: "evict audit-1", build: |a| Ok(Command::Evict { name: a.arg(0) }), ..BARE },
    CommandSpec { names: &["help", "?"], help: "  help | quit\n", example: "help",
        build: |_| Ok(Command::Help), ..BARE },
    CommandSpec { names: &["quit", "exit"], example: "quit", build: |_| Ok(Command::Quit), ..BARE },
];

/// The request bounds as `serve --help` lists them, each with the options
/// it applies to.
pub fn bounds_text() -> String {
    let mut out = String::from("request bounds (larger values get `limit_exceeded`):\n");
    let bounds = [MAX_ROWS, MAX_BINS, MAX_ROUNDS, MAX_EVENTS, MAX_BEAM_WIDTH, MAX_BUDGET];
    for bound in bounds.into_iter().chain([MAX_CELLS]) {
        let mut keys: Vec<String> = Vec::new();
        for o in COMMANDS.iter().flat_map(|spec| spec.options).filter(|o| o.bound == Some(bound)) {
            keys.extend(Some(format!("{}=", o.key)).filter(|key| !keys.contains(key)));
        }
        let line = format!("  {:<26}{:>10}  {}", bound.what, bound.max, keys.join(" "));
        out = out + line.trim_end() + "\n";
    }
    out
}

// ----------------------------------------------------------------- parser

/// A command line's arguments, sorted against its table entry.
struct Args<'a> {
    spec: &'static CommandSpec,
    positionals: Vec<&'a str>,
    options: Vec<(&'static Opt, &'a str)>,
    flags: Vec<&'a str>,
}

fn command_error(msg: String) -> SessionError {
    SessionError::Command(msg)
}

impl<'a> Args<'a> {
    /// Sorts `tokens` into the positionals, options and flags of `spec`.
    /// Refuses a token the entry does not declare, an option or flag given
    /// twice, a missing positional, and a value above its bound.
    fn sort(spec: &'static CommandSpec, tokens: &'a [String]) -> Result<Args<'a>> {
        let (positionals, options, flags) = (Vec::new(), Vec::new(), Vec::new());
        let mut args = Args { spec, positionals, options, flags };
        let name = spec.name();
        for token in tokens {
            let slot = spec.args.get(args.positionals.len());
            let raw = matches!(slot, Some(Raw(_)));
            match token.split_once('=').filter(|(key, _)| !raw && spec.verb_takes(key)) {
                Some((key, value)) => {
                    let opt = spec.option(key).ok_or_else(|| {
                        command_error(format!("{name} does not take option {token:?}"))
                    })?;
                    if args.options.iter().any(|(o, _)| o.key == key) {
                        return Err(command_error(format!("{key}= is given twice ({token:?})")));
                    }
                    if let Some(bound) = opt.bound {
                        for item in value.split(',').filter_map(|v| v.trim().parse().ok()) {
                            bound.check(key, item)?;
                        }
                    }
                    args.options.push((opt, value));
                }
                None if !raw && spec.flags.contains(&token.as_str()) => {
                    if args.flag(token) {
                        return Err(command_error(format!("flag {token:?} is given twice")));
                    }
                    args.flags.push(token);
                }
                None if slot.is_some() || matches!(spec.args.last(), Some(Variadic(_))) => {
                    args.positionals.push(token);
                }
                None => return Err(command_error(format!("{name} takes no argument {token:?}"))),
            }
        }
        match spec.args.get(args.positionals.len()) {
            Some(Plain(what) | Raw(what) | Variadic(what)) => {
                Err(command_error(format!("missing {what}")))
            }
            None => Ok(args),
        }
    }

    fn arg(&self, i: usize) -> String {
        self.positionals[i].to_string()
    }

    /// Positional argument `i` as a panel or node id.
    fn id(&self, i: usize) -> Result<usize> {
        let (Plain(what) | Raw(what) | Variadic(what)) = self.spec.args[i];
        self.positionals[i].parse().map_err(|_| command_error(format!("{what} must be a number")))
    }

    /// The value given for option `key`, if any.
    fn given(&self, key: &str) -> Option<&'a str> {
        debug_assert!(self.spec.option(key).is_some(), "{key}= is not in the entry");
        self.options.iter().find(|(o, _)| o.key == key).map(|&(_, value)| value)
    }

    /// The value given for option `key`, else its table default.
    fn value(&self, key: &str) -> Option<&'a str> {
        self.given(key).or(self.spec.option(key).and_then(|o| o.default))
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// Option `key` (or its table default) parsed by `parse`.
    fn parse<T>(&self, key: &str, parse: impl Fn(&str) -> Option<T>) -> Result<T> {
        let raw = self.value(key).expect("an option read with `parse` has a default");
        parse(raw).ok_or_else(|| command_error(format!("cannot parse {key}={raw}")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        self.parse(key, |s| s.parse().ok())
    }

    /// Option `key` as a number, or `None` when it is absent.
    fn maybe_num<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>> {
        self.given(key).map(|_| self.num(key)).transpose()
    }

    /// Option `key` (or its default) as a comma-separated list, each item
    /// parsed by `parse`; `None` when it is absent and has no default.
    fn list<T>(&self, key: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Option<Vec<T>>> {
        let item = |s| parse(s).ok_or_else(|| command_error(format!("cannot parse {key}: {s:?}")));
        self.value(key).map(|raw| csv_items(raw).into_iter().map(item).collect()).transpose()
    }

    /// The marketplace of the first positional, `n=` and `seed=`.
    fn market(&self) -> Result<MarketSpec> {
        Ok(MarketSpec { preset: self.arg(0), n: self.num("n")?, seed: self.num("seed")? })
    }

    fn stream_config(&self) -> Result<StreamConfig> {
        Ok(StreamConfig {
            rounds: self.num("rounds")?,
            arrivals_per_round: self.num("arrivals")?,
            departures_per_round: self.num("departures")?,
            rescores_per_round: self.num("rescores")?,
            seed: self.maybe_num("stream-seed")?,
        })
    }

    /// A `scenario` over `perspective` with the shared strategy and
    /// criterion-grid options, checked against the request bounds.
    fn scenario(&self, perspective: Perspective) -> Result<Command> {
        let (strategy, criteria) = (self.search_strategy()?, self.criterion_grid()?);
        let spec = Box::new(ScenarioSpec { perspective, strategy, criteria });
        spec.check_limits()?;
        Ok(Command::RunScenario { spec })
    }

    /// `None` when neither a strategy nor a quantify refinement is given.
    fn search_strategy(&self) -> Result<Option<SearchStrategy>> {
        let refined = self.given("depth").is_some() || self.given("min").is_some();
        Ok(Some(match self.given("strategy") {
            None if !refined => return Ok(None),
            None | Some("quantify") => SearchStrategy::Quantify {
                max_depth: self.maybe_num("depth")?,
                min_partition: self.num("min")?,
            },
            // `BeamSearch` clamps the width to at least 1; clamping here too
            // keeps the reported strategy (and the cell-cache key) that of
            // the search that runs.
            Some("beam") => SearchStrategy::Beam { width: self.num::<usize>("width")?.max(1) },
            Some("exhaustive") => SearchStrategy::Exhaustive { budget: self.num("budget")? },
            Some(other) => {
                return Err(command_error(format!(
                    "unknown strategy {other:?} (try quantify, beam, exhaustive)"
                )))
            }
        }))
    }

    /// `None` when no axis is given (the spec then uses the single default
    /// criterion).
    fn criterion_grid(&self) -> Result<Option<CriterionGrid>> {
        let objectives = self.list("objectives", Objective::parse)?;
        let aggregators = self.list("aggs", Aggregator::parse)?;
        let bins = self.list("bins", |s| s.parse().ok())?;
        let emds = self.list("emd", EmdBackendKind::parse)?;
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
}

/// Parses a comma-separated value into trimmed, non-empty items.
fn csv_items(raw: &str) -> Vec<&str> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty()).collect()
}

impl Command {
    /// Parses one REPL line. Empty lines parse to `Help`. The longest table
    /// name the leading tokens spell selects the entry (`scenario grid …`
    /// is a grid, `scenario x.json` a spec file), which sorts and builds.
    pub fn parse(line: &str) -> Result<Command> {
        let tokens = tokenize(line);
        let Some(verb) = tokens.first() else {
            return Ok(Command::Help);
        };
        // The number of words of `name` (a verb, or a verb and a scenario
        // perspective) when the leading tokens spell it.
        let spelled = |name: &str| {
            let rest = name.strip_prefix(verb.as_str())?;
            match rest.strip_prefix(' ') {
                None => rest.is_empty().then_some(1),
                Some(perspective) => (tokens.get(1)? == perspective).then_some(2),
            }
        };
        let (spec, words) = COMMANDS
            .iter()
            .flat_map(|spec| spec.names.iter().filter_map(move |name| Some((spec, spelled(name)?))))
            .max_by_key(|&(_, words)| words)
            .ok_or_else(|| command_error(format!("unknown command {verb:?}")))?;
        (spec.build)(&Args::sort(spec, &tokens[words..])?)
    }

    /// The command's table entry.
    pub fn spec(&self) -> &'static CommandSpec {
        let name = match self {
            Command::Help => "help",
            Command::Datasets => "datasets",
            Command::Functions => "funcs",
            Command::Panels => "panels",
            Command::Load { .. } => "load",
            Command::Generate { .. } => "generate",
            Command::Define { .. } => "define",
            Command::ShowData { .. } => "data",
            Command::Describe { .. } => "describe",
            Command::Save { .. } => "save",
            Command::Open { .. } => "open",
            Command::DeriveFilter { .. } => "filter",
            Command::Anonymize { .. } => "anonymize",
            Command::Quantify { .. } => "quantify",
            Command::Show { .. } => "show",
            Command::Node { .. } => "node",
            Command::Why { .. } => "why",
            Command::Compare { .. } => "compare",
            Command::Export { .. } => "export",
            Command::Subgroups { .. } => "subgroups",
            Command::Audit { .. } => "audit",
            Command::JobOwner { .. } => "jobowner",
            Command::EndUser { .. } => "enduser",
            Command::Stream { .. } => "stream",
            Command::RunScenario { spec } => match spec.perspective {
                Perspective::Grid { .. } => "scenario grid",
                Perspective::Auditor { .. } => "scenario auditor",
                Perspective::JobOwner { .. } => "scenario jobowner",
                Perspective::EndUser { .. } => "scenario enduser",
                Perspective::Stream { .. } => "scenario stream",
            },
            Command::RunScenarioFile { .. } => "scenario",
            Command::Sessions => "sessions",
            Command::Evict { .. } => "evict",
            Command::Quit => "quit",
        };
        COMMANDS.iter().find(|spec| spec.name() == name).expect("every command has an entry")
    }

    /// Whether the command reads or writes the host filesystem. Network
    /// services refuse these by default: a reachable port must not hand
    /// out file access on the serving host.
    pub fn touches_filesystem(&self) -> bool {
        self.spec().class.contains(&Filesystem)
    }

    /// Whether the command runs a search or another CPU-bound analysis.
    /// Services route these through a bounded worker pool so a burst of
    /// quantifications cannot oversubscribe the host.
    pub fn is_compute_heavy(&self) -> bool {
        self.spec().class.contains(&Compute)
    }

    /// Whether the command manages a server's session registry. Servers
    /// run these only when started with `--admin`; applying them to a
    /// plain [`Session`] is an error.
    pub fn is_registry_admin(&self) -> bool {
        self.spec().class.contains(&Admin)
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
            // prior save in this process) already holds, and keep its
            // marketplace memo and cell cache.
            let mut loaded =
                crate::persist::load_session_with_store(&dir, session.store().clone())?;
            loaded.share_caches_of(session);
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
            let stats = p.node(node)?;
            let tree_node = p.outcome.tree.node(node);
            Ok(Response::NodeDetail(NodeView::from_stats(
                &stats,
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

    fn kind_of(line: &str) -> &'static str {
        match Command::parse(line) {
            Ok(command) => panic!("{line:?} parsed to {command:?}"),
            Err(e) => e.kind(),
        }
    }

    #[test]
    fn every_entry_example_parses_to_its_entry() {
        for spec in COMMANDS {
            let command = Command::parse(spec.example)
                .unwrap_or_else(|e| panic!("example {:?}: {e}", spec.example));
            assert!(
                std::ptr::eq(command.spec(), spec),
                "example {:?} parsed to {}'s entry",
                spec.example,
                command.spec().name()
            );
            for name in spec.names {
                assert_eq!(
                    COMMANDS.iter().flat_map(|s| s.names).filter(|n| *n == name).count(),
                    1,
                    "{name} names one entry"
                );
            }
        }
    }

    #[test]
    fn table_arguments_are_well_formed() {
        for spec in COMMANDS {
            let raw = spec.args.iter().take_while(|a| matches!(a, Raw(_))).count();
            assert!(
                spec.args[raw..].iter().all(|a| !matches!(a, Raw(_))),
                "{}: raw arguments come first",
                spec.name()
            );
            assert!(
                spec.args.iter().rev().skip(1).all(|a| !matches!(a, Variadic(_))),
                "{}: only the last argument may be variadic",
                spec.name()
            );
            for o in spec.options {
                if let (Some(default), Some(bound)) = (o.default, o.bound) {
                    let default: u64 = default.parse().expect("bounded defaults are numbers");
                    assert!(default <= bound.max, "{} {}= default", spec.name(), o.key);
                }
            }
        }
    }

    /// Every `key=` a help line shows is an option of its entry, every
    /// bracketed bare word a flag, and a default it shows is the table's.
    #[test]
    fn help_advertises_only_what_the_entry_accepts() {
        for spec in COMMANDS {
            for word in spec.help.split_whitespace() {
                let word = word.trim_start_matches('[').trim_end_matches(']');
                if let Some((key, shown)) = word.split_once('=') {
                    let opt = spec.option(key).unwrap_or_else(|| {
                        panic!("{} help shows {key}= but rejects it", spec.name())
                    });
                    if !shown.is_empty() && shown.bytes().all(|b| b.is_ascii_digit()) {
                        assert_eq!(opt.default, Some(shown), "{} {key}= default", spec.name());
                    }
                } else if spec.help.contains(&format!("[{word}]")) && !word.contains('<') {
                    assert!(
                        spec.flags.contains(&word),
                        "{} help shows flag {word} but rejects it",
                        spec.name()
                    );
                }
            }
        }
    }

    #[test]
    fn table_defaults_match_the_engine_defaults() {
        let Command::RunScenario { spec } =
            Command::parse("scenario grid pop f strategy=exhaustive").unwrap()
        else {
            panic!("scenario grid parses to RunScenario");
        };
        assert_eq!(
            spec.strategy(),
            SearchStrategy::Exhaustive {
                budget: fairank_core::exhaustive::DEFAULT_BUDGET
            }
        );
        let Command::Stream { config, .. } = Command::parse("stream qapa devops").unwrap() else {
            panic!("stream parses to Stream");
        };
        assert_eq!(config, StreamConfig::default());
    }

    #[test]
    fn oversized_requests_are_refused_with_limit_exceeded() {
        let names = |prefix: &str| {
            (0..40_000).map(|i| format!("{prefix}{i}")).collect::<Vec<_>>().join(",")
        };
        let grid = format!("scenario grid {} {}", names("a"), names("f"));
        assert!(grid.len() < 1 << 20, "fits one wire request");
        for line in [
            grid.as_str(),
            "quantify pop f bins=4000000000",
            "generate pop biased n=300000000",
            "stream taskrabbit furniture n=100 rounds=1 arrivals=4000000000",
            "scenario grid pop f strategy=beam width=4000000000",
            "scenario grid pop f bins=5,1001",
            "scenario grid pop f strategy=exhaustive budget=10000001",
            "data pop rows=1000001",
        ] {
            assert_eq!(kind_of(line), "limit_exceeded", "{}", &line[..line.len().min(60)]);
        }
        let err = Command::parse("quantify pop f bins=4000000000").unwrap_err();
        assert!(err.to_string().contains("bins=4000000000"), "{err}");
        assert!(err.to_string().contains("1000"), "{err}");
        // The bounds themselves are accepted.
        for line in [
            "generate pop biased n=1000000",
            "quantify pop f bins=1000",
            "stream taskrabbit furniture rounds=10000 arrivals=10000",
            "scenario grid pop f strategy=beam width=1024",
            "scenario grid pop f strategy=exhaustive budget=10000000",
        ] {
            assert!(Command::parse(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn unknown_input_is_refused_and_named() {
        for (line, token) in [
            ("define f rating*0.7 + language_test*0.3", "\"+\""),
            ("quantify pop f bin=3", "bin=3"),
            ("quantify pop f bins=3 bins=7", "bins=7"),
            ("scenario grid pop f rounds=5 k=3 weights=1", "rounds=5"),
            ("stream taskrabbit furniture bins=4", "bins=4"),
            ("scenario grid pop f where=x n=5", "n=5"),
            ("scenario enduser taskrabbit gender=Female k=3", "k=3"),
            ("help me", "\"me\""),
        ] {
            let err = Command::parse(line).unwrap_err();
            assert_eq!(err.kind(), "command", "{line}");
            assert!(err.to_string().contains(token), "{line}: {err}");
        }
        // Keys stay per command: a path that looks like another command's
        // option is still a positional.
        assert!(Command::parse("load d bins=3.csv").is_ok());
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
    fn a_reopened_session_keeps_its_shared_cell_cache() {
        let dir = std::env::temp_dir().join("fairank_cmd_reopen_cache");
        std::fs::remove_dir_all(&dir).ok();
        let cells = Arc::new(crate::CellCache::new(8));
        let shared = || Session::with_shared(Arc::default(), Arc::default(), Arc::clone(&cells));
        let mut first = shared();
        run(&mut first, "generate pop biased n=60 seed=2");
        run(&mut first, "define f rating*1.0");
        run(&mut first, "quantify pop f");
        run(&mut first, &format!("save {}", dir.display()));
        let mut reopened = shared();
        run(&mut reopened, &format!("open {}", dir.display()));
        assert!(Arc::ptr_eq(reopened.cell_cache(), &cells));
        let reply = apply(&mut reopened, Command::parse("quantify pop f").unwrap()).unwrap();
        let Response::PanelCreated(view) = reply else {
            panic!("expected PanelCreated, got {reply:?}");
        };
        assert!(
            view.from_cache,
            "the reopened session's quantify must hit the shared cache"
        );
        assert_eq!((cells.stats().misses, cells.stats().hits), (1, 1));
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
