//! Declarative scenario plans: grids, sweeps and perspective reports
//! compiled into independent cell jobs plus a deterministic reduce.
//!
//! The four analysis entry points of the session layer — `quantify_grid`,
//! `auditor_report`, `job_owner_sweep` and `end_user_report` — used to
//! hand-roll their own loops and run them serially. This module replaces
//! the loops with one substrate:
//!
//! 1. A serde-serializable [`ScenarioSpec`] *says* what the workload is:
//!    a [`Perspective`] (raw grid / auditor / job owner / end user), a
//!    [`SearchStrategy`] and a [`CriterionGrid`] of fairness criteria.
//! 2. [`compile`] turns a spec into a [`Plan`]: an explicit list of
//!    independent [`Cell`] jobs (every input resolved and validated up
//!    front, each cell self-contained and `Send`) plus a deterministic
//!    reduce step.
//! 3. The plan runs through any executor — [`Plan::run`] (sequential),
//!    [`Plan::run_parallel`] (scoped threads, at most
//!    `available_parallelism`, pulling cells from a shared queue), or
//!    [`Plan::run_with`] (caller-provided, e.g. the `fairank-service`
//!    worker pool) — and reduces to a serializable [`ScenarioReport`]
//!    carrying per-cell engine counters and wall-clock stats.
//!
//! Cell execution is deterministic (a cell's result depends only on its
//! compiled inputs), so every executor produces bit-identical reports;
//! the legacy entry points are thin builders over this layer and render
//! byte-identically to their pre-plan implementations.

use std::sync::Arc;
use std::time::Instant;

use fairank_core::cancel::RunBudget;
use fairank_core::emd::{Emd, EmdBackendKind};
use fairank_core::fairness::{Aggregator, FairnessCriterion, Objective};
use fairank_core::histogram::HistogramSpec;
use fairank_core::plan::{CellKey, CellOutcome, SearchStrategy};
use fairank_core::scoring::{LinearScoring, ScoreSource};
use fairank_core::space::RankingSpace;
use fairank_core::subgroup::{least_favored, most_favored, subgroup_stats};
use fairank_core::quantify::{Quantify, SearchStats};
use fairank_data::dataset::Dataset;
use fairank_data::filter::Filter;
use fairank_marketplace::stream::{StreamConfig, StreamOutcome, StreamScenario};
use fairank_marketplace::{Marketplace, Transparency};
use serde::{Deserialize, Serialize};

use crate::cellcache::{CachedCell, CellCache, Claim};
use crate::config::{Configuration, ScoringChoice};
use crate::error::{Result, SessionError};
use crate::panel::NodeMemo;
use crate::report::{
    rebalanced_variant, AuditorJobRow, AuditorReport, EndUserJobRow, EndUserReport,
    JobOwnerReport, VariantRow,
};
use crate::session::Session;

// ------------------------------------------------------------------- spec

/// A canned marketplace to analyze (the scenario presets).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarketSpec {
    /// Preset name (`taskrabbit` or `qapa`).
    pub preset: String,
    /// Population size.
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
}

impl MarketSpec {
    /// The marketplace this spec describes, looked up in `session`'s
    /// marketplace memo before it is built.
    fn resolve(&self, session: &Session) -> Result<Arc<Marketplace>> {
        crate::command::marketplace(session, &self.preset, self.n, self.seed)
    }
}

/// Whose question the scenario answers — this decides what the cells
/// compute and how the reduce step assembles them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Perspective {
    /// Raw quantification grid over session datasets × functions ×
    /// criteria; with the `quantify` strategy each cell also commits a
    /// session panel (the batched form of `quantify`).
    Grid {
        /// Session dataset names.
        datasets: Vec<String>,
        /// Session scoring-function names.
        functions: Vec<String>,
        /// Optional filter expression applied before quantification.
        filter: Option<String>,
    },
    /// The §4 auditor: quantify every job of a marketplace and identify
    /// most/least favored subgroups. One cell per job × criterion.
    Auditor {
        /// The marketplace to audit.
        market: MarketSpec,
        /// Anonymize worker data to `k`-anonymity before auditing.
        k: Option<usize>,
        /// Observe rankings only (function opacity).
        ranking_only: bool,
        /// Subgroup conjunction-depth bound.
        subgroup_depth: usize,
        /// Minimum subgroup size considered.
        min_subgroup: usize,
    },
    /// The §4 job owner: sweep one skill's weight across variants. One
    /// cell per weight × criterion.
    JobOwner {
        /// The marketplace the job lives in.
        market: MarketSpec,
        /// Job id whose scoring is swept.
        job: String,
        /// The skill (attribute) to sweep.
        skill: String,
        /// Weights to try, in sweep order.
        weights: Vec<f64>,
    },
    /// The §4 end user: evaluate how every job treats given groups. One
    /// cell per group × job.
    EndUser {
        /// The marketplace to evaluate.
        market: MarketSpec,
        /// Group filter expressions (e.g. `gender=Female`).
        groups: Vec<String>,
    },
    /// A streaming incremental re-audit: replay arrival/departure/feedback
    /// event rounds against one job and re-quantify after each via the
    /// delta engine. One cell per criterion.
    Stream {
        /// The marketplace the stream runs against.
        market: MarketSpec,
        /// Job id to monitor.
        job: String,
        /// Anonymize worker data to `k`-anonymity before observing.
        k: Option<usize>,
        /// Observe rankings only (function opacity).
        ranking_only: bool,
        /// Event-stream parameters (rounds, churn rates, seed).
        config: StreamConfig,
    },
}

impl Perspective {
    /// Short perspective name (`grid` / `auditor` / `job-owner` /
    /// `end-user`).
    pub fn name(&self) -> &'static str {
        match self {
            Perspective::Grid { .. } => "grid",
            Perspective::Auditor { .. } => "auditor",
            Perspective::JobOwner { .. } => "job-owner",
            Perspective::EndUser { .. } => "end-user",
            Perspective::Stream { .. } => "stream",
        }
    }
}

/// The cartesian grid of fairness criteria a scenario evaluates: every
/// objective × aggregator × bin count × EMD metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriterionGrid {
    /// Objectives to evaluate.
    pub objectives: Vec<Objective>,
    /// Pairwise-distance aggregators to evaluate.
    pub aggregators: Vec<Aggregator>,
    /// Histogram bin counts to evaluate.
    pub bins: Vec<usize>,
    /// EMD metrics to evaluate. Repeats count once, so `emd=1d,kernel`
    /// (an alias of `1d`) names one metric.
    pub emds: Vec<EmdBackendKind>,
}

impl Default for CriterionGrid {
    fn default() -> Self {
        CriterionGrid {
            objectives: vec![Objective::default()],
            aggregators: vec![Aggregator::default()],
            bins: vec![10],
            emds: vec![EmdBackendKind::default()],
        }
    }
}

impl CriterionGrid {
    /// Number of criteria in the grid (product of the axis sizes, saturating
    /// so that no list length can wrap it).
    pub fn cardinality(&self) -> usize {
        let axes = [self.objectives.len(), self.aggregators.len(), self.bins.len()];
        axes.into_iter().fold(self.distinct_emds().len(), usize::saturating_mul)
    }

    /// The EMD axis with repeats dropped, first occurrence first.
    fn distinct_emds(&self) -> Vec<EmdBackendKind> {
        let mut distinct = Vec::with_capacity(self.emds.len());
        for &emd in &self.emds {
            if !distinct.contains(&emd) {
                distinct.push(emd);
            }
        }
        distinct
    }

    /// Materializes the grid as `(label, criterion)` pairs in
    /// objective-major order. Every axis must be non-empty.
    pub fn criteria(&self) -> Result<Vec<(String, FairnessCriterion)>> {
        if self.cardinality() == 0 {
            return Err(SessionError::Command(
                "criterion grid has an empty axis (objectives, aggregators, bins \
                 and emds must each name at least one value)"
                    .into(),
            ));
        }
        let emds = self.distinct_emds();
        let mut out = Vec::with_capacity(self.cardinality());
        for &objective in &self.objectives {
            for &aggregator in &self.aggregators {
                for &bins in &self.bins {
                    for &backend in &emds {
                        let criterion = FairnessCriterion::new(objective, aggregator)
                            .with_hist(HistogramSpec::unit(bins)?)
                            .with_emd(Emd::new(backend));
                        out.push((
                            format!(
                                "{} {} ({} bins, {} emd)",
                                objective.name(),
                                aggregator.name(),
                                bins,
                                backend.name()
                            ),
                            criterion,
                        ));
                    }
                }
            }
        }
        Ok(out)
    }
}

/// A whole scenario as data: what to analyze (perspective), how to search
/// (strategy) and under which criteria (grid). One spec compiles into one
/// [`Plan`] and runs as one command/wire request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// What the cells compute and how results reduce.
    pub perspective: Perspective,
    /// Search strategy; `None` means the default `QUANTIFY` search.
    pub strategy: Option<SearchStrategy>,
    /// Criterion grid; `None` means the single default criterion.
    pub criteria: Option<CriterionGrid>,
}

impl ScenarioSpec {
    /// A spec over `perspective` with the default strategy and criteria.
    pub fn new(perspective: Perspective) -> Self {
        ScenarioSpec {
            perspective,
            strategy: None,
            criteria: None,
        }
    }

    /// The effective search strategy.
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy.unwrap_or_default()
    }

    /// The effective criterion grid.
    pub fn criterion_grid(&self) -> CriterionGrid {
        self.criteria.clone().unwrap_or_default()
    }

    /// Refuses a spec above the request bounds of [`crate::command`] with
    /// `limit_exceeded`, before anything is allocated for it. Cell counts
    /// are saturating products, so no list length can wrap them.
    pub fn check_limits(&self) -> Result<()> {
        use crate::command::{MAX_BEAM_WIDTH, MAX_BINS, MAX_BUDGET, MAX_CELLS, MAX_EVENTS};
        use crate::command::{MAX_ROUNDS, MAX_ROWS};
        let grid = self.criterion_grid();
        grid.bins.iter().try_for_each(|&bins| MAX_BINS.check("bins", bins as u128))?;
        match self.strategy() {
            SearchStrategy::Beam { width } => MAX_BEAM_WIDTH.check("width", width as u128)?,
            SearchStrategy::Exhaustive { budget } => MAX_BUDGET.check("budget", budget.into())?,
            SearchStrategy::Quantify { .. } => {}
        }
        let criteria = grid.cardinality();
        let (market, cells) = match &self.perspective {
            Perspective::Grid { datasets, functions, .. } => {
                (None, datasets.len().saturating_mul(functions.len()).saturating_mul(criteria))
            }
            Perspective::Auditor { market, .. } => (Some(market), criteria),
            Perspective::JobOwner { market, weights, .. } => {
                (Some(market), weights.len().saturating_mul(criteria))
            }
            // End-user cells are groups × jobs; the criterion grid is unused.
            Perspective::EndUser { market, groups } => (Some(market), groups.len()),
            Perspective::Stream { market, config, .. } => {
                MAX_ROUNDS.check("rounds", config.rounds as u128)?;
                MAX_EVENTS.check("arrivals", config.arrivals_per_round as u128)?;
                MAX_EVENTS.check("departures", config.departures_per_round as u128)?;
                MAX_EVENTS.check("rescores", config.rescores_per_round as u128)?;
                (Some(market), criteria)
            }
        };
        if let Some(market) = market {
            MAX_ROWS.check("n", market.n as u128)?;
        }
        MAX_CELLS.check("cells", cells as u128)
    }
}

// ------------------------------------------------------------------ cells

/// One independent unit of plan work. Cells own every input they need
/// (resolved at compile time), so they can execute on any thread in any
/// order; results are deterministic functions of the compiled inputs.
#[derive(Debug)]
pub struct Cell {
    index: usize,
    label: String,
    work: CellWork,
    /// Cancellation scope the cell's search polls. Compiled as unlimited;
    /// [`Plan::with_run_budget`] (or a session-backed run) stamps the
    /// request's deadline and cancel tokens.
    budget: RunBudget,
    /// Content-addressed identity for memoization plus the cell cache it
    /// is claimed in, when the cell's inputs have one (panel cells over
    /// stored datasets, stamped with the compiling session's cache).
    /// `None` for cells over mutable or derived inputs — those always
    /// compute.
    cache: Option<(CellKey, Arc<CellCache>)>,
}

#[derive(Debug)]
enum CellWork {
    /// A grid cell: run the strategy on a prepared configuration. With the
    /// `quantify` strategy the outcome can be committed as a session panel.
    Panel {
        config: Configuration,
        space: Arc<RankingSpace>,
        strategy: SearchStrategy,
    },
    /// An auditor cell: quantify one job's observed ranking and find its
    /// extremal subgroups.
    AuditJob {
        criterion_idx: usize,
        job_id: String,
        title: String,
        space: RankingSpace,
        criterion: FairnessCriterion,
        strategy: SearchStrategy,
        subgroup_depth: usize,
        min_subgroup: usize,
    },
    /// A job-owner cell: quantify one scoring-function variant.
    SweepVariant {
        criterion_idx: usize,
        label: String,
        weights: Vec<(String, f64)>,
        space: RankingSpace,
        criterion: FairnessCriterion,
        strategy: SearchStrategy,
    },
    /// An end-user cell: closed-form group statistics for one job.
    EndUserJob {
        group_idx: usize,
        job_id: String,
        title: String,
        scores: Vec<f64>,
        ranking: Vec<u32>,
        member: Vec<bool>,
        group_size: usize,
    },
    /// A stream cell: one full streaming re-audit of a job under one
    /// criterion (the event trajectory is seed-deterministic, so every
    /// criterion's cell replays the identical churn).
    Stream {
        criterion_idx: usize,
        job_id: String,
        market: Marketplace,
        transparency: Transparency,
        search: Quantify,
        config: StreamConfig,
    },
}

/// Per-cell engine counters and wall-clock, surfaced in the report.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellStat {
    /// Cell label (what the cell computed).
    pub label: String,
    /// Cell wall-clock time in microseconds.
    pub elapsed_us: u64,
    /// Nodes/states/partitionings the search evaluated.
    pub nodes_evaluated: usize,
    /// Candidate (node, attribute) splits scored.
    pub candidate_splits: usize,
    /// Histograms the engine actually built.
    pub histograms_built: usize,
    /// EMD distances actually computed.
    pub emd_calls: usize,
    /// Distance lookups served from the engine memo.
    pub emd_cache_hits: usize,
    /// Pairwise/cross aggregations the engine resolved through its
    /// deduplicated table (large `1d` batches only; 0 under `transport`).
    pub pairwise_batches: usize,
    /// Histograms served from previous-generation caches by incremental
    /// (delta) re-quantification (0 for from-scratch cells).
    pub delta_reused_histograms: usize,
    /// Memoized EMD entries dropped by targeted invalidation (0 for
    /// from-scratch cells).
    pub delta_invalidated_emds: usize,
    /// 1 when this cell was served from the cross-session cell cache
    /// (bitwise-identical to a fresh compute, nothing recomputed).
    pub cache_hits: usize,
    /// 1 when this cell was computed and published to the cell cache.
    /// Uncacheable cells report 0 on both counters.
    pub cache_misses: usize,
    /// Unfairness the cell measured (`None` for cells that do not quantify,
    /// e.g. end-user statistics).
    pub unfairness: Option<f64>,
}

impl CellStat {
    /// The stat line of a cell that ran a search: its label, wall-clock,
    /// engine counters and measured unfairness. The cache counters start
    /// at 0; the cache path sets them.
    fn searched(
        label: String,
        elapsed: std::time::Duration,
        stats: &SearchStats,
        unfairness: f64,
    ) -> CellStat {
        CellStat {
            label,
            elapsed_us: elapsed_us(elapsed),
            nodes_evaluated: stats.nodes_evaluated,
            candidate_splits: stats.candidate_splits,
            histograms_built: stats.histograms_built,
            emd_calls: stats.emd_calls,
            emd_cache_hits: stats.emd_cache_hits,
            pairwise_batches: stats.pairwise_batches,
            delta_reused_histograms: stats.delta_reused_histograms,
            delta_invalidated_emds: stats.delta_invalidated_emds,
            unfairness: Some(unfairness),
            ..CellStat::default()
        }
    }
}

/// The result of one executed cell: its stat line plus the payload the
/// reduce step assembles.
#[derive(Debug)]
pub struct CellResult {
    index: usize,
    stat: CellStat,
    payload: CellPayload,
}

#[derive(Debug)]
enum CellPayload {
    Panel {
        // Boxed: a panel payload (configuration + full outcome) dwarfs the
        // row payloads of the other perspectives.
        config: Box<Configuration>,
        space: Arc<RankingSpace>,
        outcome: Box<CellOutcome>,
        node_memo: NodeMemo,
    },
    AuditRow {
        criterion_idx: usize,
        row: AuditorJobRow,
    },
    Variant {
        criterion_idx: usize,
        row: VariantRow,
    },
    EndUserRow {
        group_idx: usize,
        row: EndUserJobRow,
    },
    Stream {
        criterion_idx: usize,
        outcome: StreamOutcome,
    },
}

impl CellResult {
    /// The executed cell's per-cell statistics — what streaming replies
    /// emit as a `{"chunk": ..}` line the moment the cell finishes,
    /// before the plan's reduce assembles the final report.
    pub fn stat(&self) -> &CellStat {
        &self.stat
    }
}

fn elapsed_us(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

impl Cell {
    /// The cell's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Position of the cell within its plan.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Executes the cell. Self-contained and deterministic: the result
    /// depends only on the compiled inputs, never on execution order.
    ///
    /// A cell with a content identity is claimed in the cell cache stamped
    /// into it at compile time. A hit serves the memoized outcome
    /// (bitwise-identical to a fresh compute, by cell determinism) without
    /// running the search; a miss computes under single-flight (concurrent
    /// claimants of the same key wait for this compute instead of
    /// duplicating it) and publishes the result. Cells without a content
    /// identity — and all cells when the cache is disabled — just compute.
    pub fn execute(mut self) -> Result<CellResult> {
        let Some((key, cache)) = self.cache.take() else {
            return self.compute();
        };
        let started = Instant::now();
        let claim = cache.claim(key);
        match claim {
            Claim::Bypass => self.compute(),
            Claim::Hit(cached) => {
                let Cell {
                    index, label, work, ..
                } = self;
                let CellWork::Panel { config, space, .. } = work else {
                    return Err(SessionError::Internal(
                        "a cache key was derived for a non-panel cell".into(),
                    ));
                };
                // The cell's own compiled config and space are
                // content-identical to the original compute's (the key
                // covers every input they derive from), so only the
                // outcome and its node memo come from the cache.
                let mut stat = cached.stat.clone();
                stat.label = label;
                stat.elapsed_us = elapsed_us(started.elapsed());
                stat.cache_hits = 1;
                stat.cache_misses = 0;
                Ok(CellResult {
                    index,
                    stat,
                    payload: CellPayload::Panel {
                        config: Box::new(config),
                        space,
                        outcome: Box::new(cached.outcome.clone()),
                        node_memo: Arc::clone(&cached.node_memo),
                    },
                })
            }
            Claim::Miss(guard) => {
                // An Err drops the guard uncompleted, aborting the flight
                // so waiters retry — a failed compute never wedges a key.
                let mut result = self.compute()?;
                if let CellPayload::Panel {
                    outcome, node_memo, ..
                } = &result.payload
                {
                    let mut stat = result.stat.clone();
                    stat.cache_hits = 0;
                    stat.cache_misses = 0;
                    guard.complete(Arc::new(CachedCell {
                        outcome: (**outcome).clone(),
                        stat,
                        node_memo: Arc::clone(node_memo),
                    }));
                }
                result.stat.cache_misses = 1;
                Ok(result)
            }
        }
    }

    /// Runs the cell's work, without the cache.
    fn compute(self) -> Result<CellResult> {
        let Cell {
            index,
            label,
            work,
            budget,
            cache: _,
        } = self;
        match work {
            CellWork::Panel {
                config,
                space,
                strategy,
            } => {
                let outcome = strategy.run_budgeted(config.criterion, &space, &budget)?;
                Ok(CellResult {
                    index,
                    stat: CellStat::searched(
                        label,
                        outcome.elapsed,
                        &outcome.stats,
                        outcome.unfairness,
                    ),
                    payload: CellPayload::Panel {
                        config: Box::new(config),
                        space,
                        outcome: Box::new(outcome),
                        node_memo: NodeMemo::default(),
                    },
                })
            }
            CellWork::AuditJob {
                criterion_idx,
                job_id,
                title,
                space,
                criterion,
                strategy,
                subgroup_depth,
                min_subgroup,
            } => {
                let outcome = strategy.run_budgeted(criterion, &space, &budget)?;
                let stats = subgroup_stats(&space, &criterion, subgroup_depth, min_subgroup)?;
                let most = most_favored(&stats, 1);
                let least = least_favored(&stats, 1);
                let row = AuditorJobRow {
                    job_id,
                    title,
                    unfairness: outcome.unfairness,
                    partitions: outcome.num_partitions,
                    most_favored: most.first().map(|s| s.label.clone()),
                    most_favored_advantage: most.first().map_or(0.0, |s| s.advantage),
                    least_favored: least.first().map(|s| s.label.clone()),
                    least_favored_advantage: least.first().map_or(0.0, |s| s.advantage),
                };
                Ok(CellResult {
                    index,
                    stat: CellStat::searched(
                        label,
                        outcome.elapsed,
                        &outcome.stats,
                        outcome.unfairness,
                    ),
                    payload: CellPayload::AuditRow { criterion_idx, row },
                })
            }
            CellWork::SweepVariant {
                criterion_idx,
                label: variant_label,
                weights,
                space,
                criterion,
                strategy,
            } => {
                let outcome = strategy.run_budgeted(criterion, &space, &budget)?;
                let row = VariantRow {
                    label: variant_label,
                    weights,
                    unfairness: outcome.unfairness,
                    partitions: outcome.num_partitions,
                };
                Ok(CellResult {
                    index,
                    stat: CellStat::searched(
                        label,
                        outcome.elapsed,
                        &outcome.stats,
                        outcome.unfairness,
                    ),
                    payload: CellPayload::Variant { criterion_idx, row },
                })
            }
            CellWork::EndUserJob {
                group_idx,
                job_id,
                title,
                scores,
                ranking,
                member,
                group_size,
            } => {
                let start = Instant::now();
                let n = member.len();
                let mut rank_of = vec![0usize; n];
                for (rank, &row) in ranking.iter().enumerate() {
                    rank_of[row as usize] = rank;
                }
                let denom = (n.max(2) - 1) as f64;
                let (mut pct_sum, mut g_sum, mut o_sum, mut o_count) =
                    (0.0, 0.0, 0.0, 0usize);
                for row in 0..n {
                    if member[row] {
                        pct_sum += 1.0 - rank_of[row] as f64 / denom;
                        g_sum += scores[row];
                    } else {
                        o_sum += scores[row];
                        o_count += 1;
                    }
                }
                let row = EndUserJobRow {
                    job_id,
                    title,
                    group_mean_percentile: if group_size == 0 {
                        0.0
                    } else {
                        pct_sum / group_size as f64
                    },
                    group_mean_score: if group_size == 0 {
                        0.0
                    } else {
                        g_sum / group_size as f64
                    },
                    others_mean_score: if o_count == 0 {
                        0.0
                    } else {
                        o_sum / o_count as f64
                    },
                    group_size,
                };
                Ok(CellResult {
                    index,
                    stat: CellStat {
                        label,
                        elapsed_us: elapsed_us(start.elapsed()),
                        ..CellStat::default()
                    },
                    payload: CellPayload::EndUserRow { group_idx, row },
                })
            }
            CellWork::Stream {
                criterion_idx,
                job_id,
                market,
                transparency,
                search,
                config,
            } => {
                let start = Instant::now();
                let mut scenario =
                    StreamScenario::with_search(&market, &job_id, &transparency, search, config)?;
                scenario.set_run_budget(budget);
                let outcome = scenario.run()?;
                // A stream cell is a whole trajectory: sum the per-round
                // engine counters; unfairness is the final round's reading.
                let emd_calls = outcome.rounds.iter().map(|r| r.emd_calls).sum();
                let histograms_built =
                    outcome.rounds.iter().map(|r| r.histograms_rebuilt).sum();
                let reused = outcome
                    .rounds
                    .iter()
                    .map(|r| r.delta_reused_histograms)
                    .sum();
                let invalidated = outcome
                    .rounds
                    .iter()
                    .map(|r| r.delta_invalidated_emds)
                    .sum();
                let unfairness = outcome.rounds.last().map(|r| r.unfairness);
                Ok(CellResult {
                    index,
                    stat: CellStat {
                        label,
                        elapsed_us: elapsed_us(start.elapsed()),
                        histograms_built,
                        emd_calls,
                        delta_reused_histograms: reused,
                        delta_invalidated_emds: invalidated,
                        unfairness,
                        ..CellStat::default()
                    },
                    payload: CellPayload::Stream {
                        criterion_idx,
                        outcome,
                    },
                })
            }
        }
    }
}

// ----------------------------------------------------------------- report

/// One row of a grid-perspective scenario outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridRow {
    /// Configuration description (dataset | function | filter | criterion).
    pub config: String,
    /// Quantified unfairness.
    pub unfairness: f64,
    /// Partitions in the final partitioning.
    pub partitions: usize,
    /// Session panel id the cell committed (`quantify` strategy runs
    /// against a session only).
    pub panel: Option<usize>,
}

/// An auditor report for one criterion of the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditOutcome {
    /// Criterion label (empty when a single implicit criterion was used).
    pub criterion: String,
    /// The marketplace-wide audit under that criterion.
    pub report: AuditorReport,
}

/// A job-owner sweep for one criterion of the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOwnerOutcome {
    /// Criterion label (empty when a single implicit criterion was used).
    pub criterion: String,
    /// The sweep under that criterion.
    pub report: JobOwnerReport,
}

/// An end-user view for one group of the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndUserOutcome {
    /// The group definition (rendered filter).
    pub group: String,
    /// The cross-job view for that group.
    pub report: EndUserReport,
}

/// A streaming re-audit trajectory for one criterion of the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamAuditOutcome {
    /// Criterion label (empty when a single implicit criterion was used).
    pub criterion: String,
    /// The per-round trajectory under that criterion.
    pub outcome: StreamOutcome,
}

/// The perspective-specific payload of a [`ScenarioReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioOutcome {
    /// Grid rows, in grid order.
    Grid(Vec<GridRow>),
    /// One audit per criterion.
    Audit(Vec<AuditOutcome>),
    /// One sweep per criterion.
    JobOwner(Vec<JobOwnerOutcome>),
    /// One view per group.
    EndUser(Vec<EndUserOutcome>),
    /// One streaming trajectory per criterion.
    Stream(Vec<StreamAuditOutcome>),
}

/// The result of running a whole plan: the reduced outcome plus per-cell
/// execution statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Perspective name (`grid` / `auditor` / `job-owner` / `end-user`).
    pub perspective: String,
    /// Strategy description (e.g. `quantify`, `beam(width=4)`).
    pub strategy: String,
    /// Total wall-clock of the run (execution + reduce) in microseconds.
    pub total_elapsed_us: u64,
    /// Per-cell stats, in plan order.
    pub cells: Vec<CellStat>,
    /// The reduced, perspective-specific outcome.
    pub outcome: ScenarioOutcome,
}

// ------------------------------------------------------------------- plan

#[derive(Debug)]
enum Reduce {
    Grid,
    Auditor {
        marketplace: String,
        transparency: Transparency,
        criteria: Vec<String>,
    },
    JobOwner {
        skill: String,
        criteria: Vec<String>,
    },
    EndUser {
        groups: Vec<String>,
    },
    Stream {
        criteria: Vec<String>,
    },
}

/// A compiled scenario: independent cells plus the deterministic reduce.
#[derive(Debug)]
pub struct Plan {
    perspective: &'static str,
    strategy: String,
    cells: Vec<Cell>,
    reduce: Reduce,
}

/// Compiles a spec against a session into an executable plan. All names
/// are resolved and all inputs prepared here, before anything runs — a
/// plan that compiles cannot fail on missing session state.
pub fn compile(session: &Session, spec: &ScenarioSpec) -> Result<Plan> {
    spec.check_limits()?;
    let strategy = spec.strategy();
    let grid = spec.criterion_grid();
    let criteria = grid.criteria()?;
    match &spec.perspective {
        Perspective::Grid {
            datasets,
            functions,
            filter,
        } => {
            if datasets.is_empty() || functions.is_empty() {
                return Err(SessionError::Command(
                    "a grid scenario needs at least one dataset and one function".into(),
                ));
            }
            let filter = filter
                .as_deref()
                .map(Filter::parse)
                .transpose()?;
            let mut configs = Vec::with_capacity(
                datasets.len() * functions.len() * criteria.len(),
            );
            for dataset in datasets {
                for function in functions {
                    for (_, criterion) in &criteria {
                        let mut config =
                            Configuration::new(dataset, function).with_criterion(*criterion);
                        if let Some(filter) = &filter {
                            config = config.with_filter(filter.clone());
                        }
                        configs.push(config);
                    }
                }
            }
            Plan::for_configurations(session, configs, strategy)
        }
        Perspective::Auditor {
            market,
            k,
            ranking_only,
            subgroup_depth,
            min_subgroup,
        } => {
            let market = market.resolve(session)?;
            let transparency = observation_transparency(*k, *ranking_only);
            Plan::for_auditor(
                &market,
                &transparency,
                &criteria,
                strategy,
                *subgroup_depth,
                *min_subgroup,
            )
        }
        Perspective::JobOwner {
            market,
            job,
            skill,
            weights,
        } => {
            let market = market.resolve(session)?;
            let base = market.job(job)?.scoring.clone();
            Plan::for_job_owner(market.workers(), &base, skill, weights, &criteria, strategy)
        }
        Perspective::EndUser { market, groups } => {
            if groups.is_empty() {
                return Err(SessionError::Command(
                    "an end-user scenario needs at least one group expression".into(),
                ));
            }
            let market = market.resolve(session)?;
            let filters = groups
                .iter()
                .map(|g| Filter::parse(g))
                .collect::<std::result::Result<Vec<_>, _>>()?;
            Plan::for_end_user(&market, &filters, strategy)
        }
        Perspective::Stream {
            market,
            job,
            k,
            ranking_only,
            config,
        } => {
            let market = market.resolve(session)?;
            let transparency = observation_transparency(*k, *ranking_only);
            Plan::for_stream(&market, &transparency, job, &criteria, strategy, *config)
        }
    }
}

/// The paper's transparency axes as the session commands expose them:
/// optional `k`-anonymization of worker data, optional function opacity.
pub(crate) fn observation_transparency(k: Option<usize>, ranking_only: bool) -> Transparency {
    Transparency {
        function: if ranking_only {
            fairank_marketplace::FunctionTransparency::RankingOnly
        } else {
            fairank_marketplace::FunctionTransparency::Visible
        },
        data: match k {
            Some(k) => fairank_marketplace::DataTransparency::Anonymized { k },
            None => fairank_marketplace::DataTransparency::Full,
        },
    }
}

/// Extends a canonical byte serialization of a panel cell's resolved
/// spec with JSON parts, each length-prefixed. The `spec` half of a
/// panel cell's [`CellKey`] is `panel.v1` followed by every
/// analysis-relevant input: the resolved score source (concrete weights)
/// and the filter — the prefix a session shares the resolved space under
/// — then the range-fitted criterion (objective, aggregator, bins,
/// histogram range, EMD backend) and the search strategy. Serialization
/// is serde-canonical (struct field order), so equal specs always
/// produce equal bytes.
fn spec_bytes(mut bytes: Vec<u8>, parts: [serde_json::Result<String>; 2]) -> Result<Vec<u8>> {
    for part in parts {
        let part = part.map_err(|e| SessionError::Json(e.to_string()))?;
        bytes.extend_from_slice(&(part.len() as u64).to_le_bytes());
        bytes.extend_from_slice(part.as_bytes());
    }
    Ok(bytes)
}

fn audit_label(job_id: &str, criterion_label: &str) -> String {
    if criterion_label.is_empty() {
        format!("audit {job_id}")
    } else {
        format!("audit {job_id} · {criterion_label}")
    }
}

impl Plan {
    /// Number of cells the plan fans out.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Labels of every cell, in plan order.
    pub fn cell_labels(&self) -> Vec<&str> {
        self.cells.iter().map(Cell::label).collect()
    }

    /// A grid plan over explicit configurations — the substrate
    /// [`Session::quantify_grid`] builds on. Resolves and validates every
    /// configuration up front, exactly as the pre-plan implementation did.
    pub(crate) fn for_configurations(
        session: &Session,
        configs: Vec<Configuration>,
        strategy: SearchStrategy,
    ) -> Result<Plan> {
        let mut cells = Vec::with_capacity(configs.len());
        for (index, config) in configs.iter().enumerate() {
            let handle = session.dataset_handle(&config.dataset)?;
            let source = match &config.scoring {
                ScoringChoice::Named(name) => {
                    ScoreSource::Function(session.function(name)?.clone())
                }
                ScoringChoice::Inline(source) => source.clone(),
            };
            // Every config on the same dataset content, score source and
            // filter shares one space, resolved only when the session
            // holds none alive.
            let space_bytes = spec_bytes(
                b"panel.v1".to_vec(),
                [serde_json::to_string(&source), serde_json::to_string(&config.filter)],
            )?;
            let space_key = CellKey::new(handle.fingerprint(), &space_bytes);
            let space = session.shared_space(space_key, || {
                // Unfiltered configs build their space straight off the
                // shared columns — no copy of the dataset; only a filter
                // materializes a working set.
                Ok(if config.filter.is_empty() {
                    handle.dataset().to_space(&source)?
                } else {
                    handle.dataset().filter(&config.filter)?.to_space(&source)?
                })
            })?;
            let mut config = config.clone();
            config.criterion = config.criterion.fit_range(&space);
            // The cache key hashes the *resolved* spec: the concrete score
            // source (never just a function's session-local name), the
            // filter, the range-fitted criterion and the strategy —
            // combined with the dataset's content fingerprint.
            let spec = [
                serde_json::to_string(&config.criterion),
                serde_json::to_string(&strategy),
            ];
            let key = CellKey::new(handle.fingerprint(), &spec_bytes(space_bytes, spec)?);
            cells.push(Cell {
                index,
                label: config.describe(),
                work: CellWork::Panel {
                    config,
                    space,
                    strategy,
                },
                budget: RunBudget::unlimited(),
                cache: Some((key, Arc::clone(session.cell_cache()))),
            });
        }
        Ok(Plan {
            perspective: "grid",
            strategy: strategy.describe(),
            cells,
            reduce: Reduce::Grid,
        })
    }

    /// An auditor plan over an already-built marketplace — the substrate
    /// [`crate::report::auditor_report`] builds on.
    pub(crate) fn for_auditor(
        market: &Marketplace,
        transparency: &Transparency,
        criteria: &[(String, FairnessCriterion)],
        strategy: SearchStrategy,
        subgroup_depth: usize,
        min_subgroup: usize,
    ) -> Result<Plan> {
        let mut cells = Vec::with_capacity(criteria.len() * market.jobs().len());
        for (criterion_idx, (criterion_label, criterion)) in criteria.iter().enumerate() {
            for job in market.jobs() {
                let obs = market.observe(&job.id, transparency)?;
                let space = obs.dataset.to_space(&obs.source)?;
                // Fit the histogram to the observed score range, as the
                // session's quantify does — unnormalized job scorings must
                // not saturate the unit-range edge bins.
                let fitted = criterion.fit_range(&space);
                cells.push(Cell {
                    index: cells.len(),
                    label: audit_label(&job.id, criterion_label),
                    work: CellWork::AuditJob {
                        criterion_idx,
                        job_id: job.id.clone(),
                        title: job.title.clone(),
                        space,
                        criterion: fitted,
                        strategy,
                        subgroup_depth,
                        min_subgroup,
                    },
                    budget: RunBudget::unlimited(),
                    cache: None,
                });
            }
        }
        Ok(Plan {
            perspective: "auditor",
            strategy: strategy.describe(),
            cells,
            reduce: Reduce::Auditor {
                marketplace: market.name.clone(),
                transparency: transparency.clone(),
                criteria: criteria.iter().map(|(l, _)| l.clone()).collect(),
            },
        })
    }

    /// A job-owner plan over an explicit dataset and base scoring — the
    /// substrate [`crate::report::job_owner_sweep`] builds on.
    ///
    /// The sweep deliberately keeps the criterion's histogram range fixed
    /// across variants instead of fitting it per variant: rebalancing
    /// already guarantees `[0, 1]` scores, and picking the fairest variant
    /// requires every row's unfairness in the same score units.
    pub(crate) fn for_job_owner(
        dataset: &Dataset,
        base: &LinearScoring,
        skill: &str,
        weights: &[f64],
        criteria: &[(String, FairnessCriterion)],
        strategy: SearchStrategy,
    ) -> Result<Plan> {
        if weights.is_empty() {
            return Err(SessionError::Command(
                "a job-owner scenario needs at least one weight to sweep".into(),
            ));
        }
        let mut cells = Vec::with_capacity(criteria.len() * weights.len());
        for (criterion_idx, (criterion_label, criterion)) in criteria.iter().enumerate() {
            for &w in weights {
                let variant = rebalanced_variant(base, skill, w)?;
                let space = dataset.to_space(&ScoreSource::Function(variant.clone()))?;
                let variant_label = format!("{skill}={w:.2}");
                let label = if criterion_label.is_empty() {
                    format!("sweep {variant_label}")
                } else {
                    format!("sweep {variant_label} · {criterion_label}")
                };
                cells.push(Cell {
                    index: cells.len(),
                    label,
                    work: CellWork::SweepVariant {
                        criterion_idx,
                        label: variant_label,
                        weights: variant.terms().to_vec(),
                        space,
                        criterion: *criterion,
                        strategy,
                    },
                    budget: RunBudget::unlimited(),
                    cache: None,
                });
            }
        }
        Ok(Plan {
            perspective: "job-owner",
            strategy: strategy.describe(),
            cells,
            reduce: Reduce::JobOwner {
                skill: skill.to_string(),
                criteria: criteria.iter().map(|(l, _)| l.clone()).collect(),
            },
        })
    }

    /// An end-user plan over an already-built marketplace — the substrate
    /// [`crate::report::end_user_report`] builds on. The strategy is
    /// recorded for the report header; end-user cells are closed-form.
    pub(crate) fn for_end_user(
        market: &Marketplace,
        groups: &[Filter],
        strategy: SearchStrategy,
    ) -> Result<Plan> {
        let workers = market.workers();
        let n = workers.num_rows();
        let mut cells = Vec::with_capacity(groups.len() * market.jobs().len());
        for (group_idx, group) in groups.iter().enumerate() {
            let group_rows = group.matching_rows(workers)?;
            let mut member = vec![false; n];
            for &r in &group_rows {
                member[r as usize] = true;
            }
            for job in market.jobs() {
                cells.push(Cell {
                    index: cells.len(),
                    label: format!("end-user {} · {}", group.render(), job.id),
                    work: CellWork::EndUserJob {
                        group_idx,
                        job_id: job.id.clone(),
                        title: job.title.clone(),
                        scores: market.scores_for(&job.id)?,
                        ranking: market.ranking_for(&job.id)?,
                        member: member.clone(),
                        group_size: group_rows.len(),
                    },
                    budget: RunBudget::unlimited(),
                    cache: None,
                });
            }
        }
        Ok(Plan {
            perspective: "end-user",
            strategy: strategy.describe(),
            cells,
            reduce: Reduce::EndUser {
                groups: groups.iter().map(Filter::render).collect(),
            },
        })
    }

    /// A stream plan over an already-built marketplace: one cell per
    /// criterion, each replaying the identical seed-deterministic event
    /// trajectory through the delta engine. Only the `quantify` strategy
    /// is meaningful here — beam and exhaustive searches carry no
    /// incremental state to reuse between rounds.
    pub(crate) fn for_stream(
        market: &Marketplace,
        transparency: &Transparency,
        job: &str,
        criteria: &[(String, FairnessCriterion)],
        strategy: SearchStrategy,
        config: StreamConfig,
    ) -> Result<Plan> {
        // Validate the job id at compile time, like every other resolver.
        market.job(job)?;
        let SearchStrategy::Quantify {
            max_depth,
            min_partition,
        } = strategy
        else {
            return Err(SessionError::Command(
                "stream scenarios require the quantify strategy (beam and \
                 exhaustive searches cannot reuse incremental state)"
                    .into(),
            ));
        };
        let mut cells = Vec::with_capacity(criteria.len());
        for (criterion_idx, (criterion_label, criterion)) in criteria.iter().enumerate() {
            let mut search = Quantify::new(*criterion).with_min_partition_size(min_partition);
            if let Some(depth) = max_depth {
                search = search.with_max_depth(depth);
            }
            let label = if criterion_label.is_empty() {
                format!("stream {job}")
            } else {
                format!("stream {job} · {criterion_label}")
            };
            cells.push(Cell {
                index: cells.len(),
                label,
                work: CellWork::Stream {
                    criterion_idx,
                    job_id: job.to_string(),
                    market: market.clone(),
                    transparency: transparency.clone(),
                    search,
                    config,
                },
                budget: RunBudget::unlimited(),
                cache: None,
            });
        }
        Ok(Plan {
            perspective: "stream",
            strategy: strategy.describe(),
            cells,
            reduce: Reduce::Stream {
                criteria: criteria.iter().map(|(l, _)| l.clone()).collect(),
            },
        })
    }

    /// Stamps every cell with the given cancellation scope. Cells compile
    /// with an unlimited budget; session-backed runs stamp the session's
    /// budget automatically, and the service stamps its per-request scope
    /// before handing cells to the worker pool.
    pub fn with_run_budget(mut self, budget: &RunBudget) -> Plan {
        for cell in &mut self.cells {
            cell.budget = budget.clone();
        }
        self
    }

    /// Routes every cacheable cell through `cache` instead of the cell
    /// cache of the session the plan compiled against.
    pub fn with_cell_cache(mut self, cache: &Arc<CellCache>) -> Plan {
        for (_, cell_cache) in self.cells.iter_mut().filter_map(|c| c.cache.as_mut()) {
            *cell_cache = Arc::clone(cache);
        }
        self
    }

    /// Runs every cell sequentially on the calling thread, then reduces.
    pub fn run(self, session: &mut Session) -> Result<ScenarioReport> {
        self.with_run_budget(session.run_budget())
            .execute_with(run_cells_sequential)
            .finish(Some(session))
    }

    /// Runs cells on bounded scoped OS threads (they are CPU-bound and
    /// independent), then reduces. Results are identical to [`Plan::run`].
    pub fn run_parallel(self, session: &mut Session) -> Result<ScenarioReport> {
        self.with_run_budget(session.run_budget())
            .execute_with(run_cells_scoped)
            .finish(Some(session))
    }

    /// Runs cells through a caller-provided executor (e.g. a server worker
    /// pool), then reduces. The executor must return one result per cell;
    /// order does not matter (results carry their cell index).
    pub fn run_with<E>(self, session: &mut Session, executor: E) -> Result<ScenarioReport>
    where
        E: FnOnce(Vec<Cell>) -> Vec<Result<CellResult>>,
    {
        self.with_run_budget(session.run_budget())
            .execute_with(executor)
            .finish(Some(session))
    }

    /// Runs sequentially without a session: marketplace perspectives never
    /// touch one, and grid plans simply skip the panel commit.
    pub(crate) fn run_detached(self) -> Result<ScenarioReport> {
        self.execute_with(run_cells_sequential).finish(None)
    }

    /// The execution half of a run: hands every cell to the executor and
    /// captures the results. No session is involved, so callers that keep
    /// sessions behind locks can release the lock while the cells run and
    /// re-acquire it only for [`ExecutedPlan::finish`].
    pub fn execute_with<E>(self, executor: E) -> ExecutedPlan
    where
        E: FnOnce(Vec<Cell>) -> Vec<Result<CellResult>>,
    {
        let (cells, mut executed) = self.into_cells();
        executed.results = executor(cells);
        executed
    }

    /// Splits the plan into its cells and the reduce step, which collects
    /// their results through [`ExecutedPlan::record`]. For executors that
    /// cannot wait on the cells: the service queues each cell as its own
    /// job, and the cell that records the last result runs the reduce.
    pub fn into_cells(self) -> (Vec<Cell>, ExecutedPlan) {
        let Plan {
            perspective,
            strategy,
            cells,
            reduce,
        } = self;
        let expected = cells.len();
        let executed = ExecutedPlan {
            perspective,
            strategy,
            reduce,
            started: Instant::now(),
            expected,
            results: Vec::with_capacity(expected),
        };
        (cells, executed)
    }
}

/// A plan whose cells have executed (or report through
/// [`ExecutedPlan::record`]), waiting for the reduce step.
#[derive(Debug)]
pub struct ExecutedPlan {
    perspective: &'static str,
    strategy: String,
    reduce: Reduce,
    started: Instant,
    expected: usize,
    results: Vec<Result<CellResult>>,
}

impl ExecutedPlan {
    /// Records one cell's result (in any order); `true` once every cell
    /// of the plan has reported and the reduce may run.
    pub fn record(&mut self, result: Result<CellResult>) -> bool {
        self.results.push(result);
        self.results.len() >= self.expected
    }

    /// Reduces the cell results into the report. Grid plans run against a
    /// session commit one panel per `quantify` cell; pass `None` to skip
    /// commits (marketplace perspectives never need a session).
    pub fn finish(self, mut session: Option<&mut Session>) -> Result<ScenarioReport> {
        let ExecutedPlan {
            perspective,
            strategy,
            reduce,
            started,
            expected,
            results,
        } = self;
        let mut results = results
            .into_iter()
            .collect::<Result<Vec<CellResult>>>()?;
        if results.len() != expected {
            return Err(SessionError::Internal(format!(
                "plan executor returned {} results for {expected} cells",
                results.len()
            )));
        }
        // Executors may complete out of order; the reduce is defined over
        // plan order.
        results.sort_by_key(|r| r.index);
        let stats: Vec<CellStat> = results.iter().map(|r| r.stat.clone()).collect();

        let outcome = match reduce {
            Reduce::Grid => {
                let mut rows = Vec::with_capacity(results.len());
                for result in results {
                    let from_cache = result.stat.cache_hits > 0;
                    let CellPayload::Panel {
                        config,
                        space,
                        outcome,
                        node_memo,
                    } = result.payload
                    else {
                        return Err(SessionError::Internal(
                            "grid reduce received a non-grid cell".into(),
                        ));
                    };
                    let description = config.describe();
                    let (unfairness, partitions) =
                        (outcome.unfairness, outcome.num_partitions);
                    let panel = match (&mut session, outcome.quantify) {
                        (Some(session), Some(quantify)) => Some(session.commit_panel(
                            *config, space, quantify, from_cache, node_memo,
                        )),
                        _ => None,
                    };
                    rows.push(GridRow {
                        config: description,
                        unfairness,
                        partitions,
                        panel,
                    });
                }
                ScenarioOutcome::Grid(rows)
            }
            Reduce::Auditor {
                marketplace,
                transparency,
                criteria,
            } => {
                let mut buckets: Vec<Vec<AuditorJobRow>> =
                    criteria.iter().map(|_| Vec::new()).collect();
                for result in results {
                    let CellPayload::AuditRow { criterion_idx, row } = result.payload
                    else {
                        return Err(SessionError::Internal(
                            "auditor reduce received a non-audit cell".into(),
                        ));
                    };
                    buckets[criterion_idx].push(row);
                }
                ScenarioOutcome::Audit(
                    criteria
                        .into_iter()
                        .zip(buckets)
                        .map(|(criterion, mut rows)| {
                            rows.sort_by(|a, b| {
                                b.unfairness
                                    .partial_cmp(&a.unfairness)
                                    .unwrap_or(std::cmp::Ordering::Equal)
                            });
                            AuditOutcome {
                                criterion,
                                report: AuditorReport {
                                    marketplace: marketplace.clone(),
                                    transparency: transparency.clone(),
                                    rows,
                                },
                            }
                        })
                        .collect(),
                )
            }
            Reduce::JobOwner { skill, criteria } => {
                let mut buckets: Vec<Vec<VariantRow>> =
                    criteria.iter().map(|_| Vec::new()).collect();
                for result in results {
                    let CellPayload::Variant { criterion_idx, row } = result.payload
                    else {
                        return Err(SessionError::Internal(
                            "job-owner reduce received a non-sweep cell".into(),
                        ));
                    };
                    buckets[criterion_idx].push(row);
                }
                ScenarioOutcome::JobOwner(
                    criteria
                        .into_iter()
                        .zip(buckets)
                        .map(|(criterion, rows)| {
                            let fairest = rows
                                .iter()
                                .enumerate()
                                .min_by(|(_, a), (_, b)| {
                                    a.unfairness
                                        .partial_cmp(&b.unfairness)
                                        .unwrap_or(std::cmp::Ordering::Equal)
                                })
                                .map(|(i, _)| i)
                                .unwrap_or(0);
                            JobOwnerOutcome {
                                criterion,
                                report: JobOwnerReport {
                                    skill: skill.clone(),
                                    rows,
                                    fairest,
                                },
                            }
                        })
                        .collect(),
                )
            }
            Reduce::EndUser { groups } => {
                let mut buckets: Vec<Vec<EndUserJobRow>> =
                    groups.iter().map(|_| Vec::new()).collect();
                for result in results {
                    let CellPayload::EndUserRow { group_idx, row } = result.payload
                    else {
                        return Err(SessionError::Internal(
                            "end-user reduce received a non-end-user cell".into(),
                        ));
                    };
                    buckets[group_idx].push(row);
                }
                ScenarioOutcome::EndUser(
                    groups
                        .into_iter()
                        .zip(buckets)
                        .map(|(group, mut rows)| {
                            rows.sort_by(|a, b| {
                                b.group_mean_percentile
                                    .partial_cmp(&a.group_mean_percentile)
                                    .unwrap_or(std::cmp::Ordering::Equal)
                            });
                            EndUserOutcome {
                                group,
                                report: EndUserReport { group: String::new(), rows },
                            }
                        })
                        .collect(),
                )
            }
            Reduce::Stream { criteria } => {
                let mut buckets: Vec<Option<StreamOutcome>> =
                    criteria.iter().map(|_| None).collect();
                for result in results {
                    let CellPayload::Stream {
                        criterion_idx,
                        outcome,
                    } = result.payload
                    else {
                        return Err(SessionError::Internal(
                            "stream reduce received a non-stream cell".into(),
                        ));
                    };
                    buckets[criterion_idx] = Some(outcome);
                }
                ScenarioOutcome::Stream(
                    criteria
                        .into_iter()
                        .zip(buckets)
                        .map(|(criterion, outcome)| {
                            outcome
                                .map(|outcome| StreamAuditOutcome { criterion, outcome })
                                .ok_or_else(|| {
                                    SessionError::Internal(
                                        "stream reduce is missing a criterion's cell".into(),
                                    )
                                })
                        })
                        .collect::<Result<Vec<_>>>()?,
                )
            }
        };

        let mut report = ScenarioReport {
            perspective: perspective.to_string(),
            strategy,
            total_elapsed_us: 0,
            cells: stats,
            outcome,
        };
        // Fix up the EndUserReport group fields (the inner report repeats
        // the group for standalone rendering).
        if let ScenarioOutcome::EndUser(views) = &mut report.outcome {
            for view in views {
                view.report.group = view.group.clone();
            }
        }
        report.total_elapsed_us = elapsed_us(started.elapsed());
        Ok(report)
    }
}

/// The sequential executor: cells run in plan order on this thread.
pub fn run_cells_sequential(cells: Vec<Cell>) -> Vec<Result<CellResult>> {
    cells.into_iter().map(Cell::execute).collect()
}

/// The scoped-thread executor: cells drain a shared queue across at most
/// `available_parallelism` OS threads (cells are CPU-bound, so more
/// threads than cores only adds oversubscription — a 384-cell grid must
/// not spawn 384 concurrent searches). Panicking cells become `Internal`
/// errors; the other cells still run.
pub fn run_cells_scoped(cells: Vec<Cell>) -> Vec<Result<CellResult>> {
    // One cell (every `quantify`) never asks for the core count, which
    // reads cgroup files on Linux.
    let workers = match cells.len() {
        0 | 1 => 1,
        n => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(n),
    };
    if workers <= 1 {
        return run_cells_sequential(cells);
    }
    let queue = std::sync::Mutex::new(cells.into_iter());
    let results = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Hold the queue lock only to pull the next cell.
                let Some(cell) = queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .next()
                else {
                    break;
                };
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                    || cell.execute(),
                ))
                .unwrap_or_else(|_| {
                    Err(SessionError::Internal(
                        "a scenario cell panicked while executing".into(),
                    ))
                });
                results
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(result);
            });
        }
    });
    // Completion order is arbitrary; the reduce orders by cell index.
    results.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        let mut s = Session::new();
        s.add_dataset("table1", fairank_data::paper::table1_dataset())
            .unwrap();
        s.add_function("paper-f", fairank_data::paper::table1_scoring())
            .unwrap();
        s
    }

    fn grid_spec() -> ScenarioSpec {
        ScenarioSpec {
            perspective: Perspective::Grid {
                datasets: vec!["table1".into()],
                functions: vec!["paper-f".into()],
                filter: None,
            },
            strategy: None,
            criteria: Some(CriterionGrid {
                objectives: vec![Objective::MostUnfair],
                aggregators: vec![Aggregator::Mean, Aggregator::Max],
                bins: vec![5, 10],
                emds: vec![EmdBackendKind::OneD],
            }),
        }
    }

    #[test]
    fn grid_compile_counts_cells() {
        let s = session();
        let plan = compile(&s, &grid_spec()).unwrap();
        assert_eq!(plan.cell_count(), 4); // 1 dataset × 1 function × 4 criteria
        assert_eq!(plan.cell_labels().len(), 4);
    }

    #[test]
    fn grid_run_commits_panels_in_order() {
        let mut s = session();
        let plan = compile(&s, &grid_spec()).unwrap();
        let report = plan.run(&mut s).unwrap();
        let ScenarioOutcome::Grid(rows) = &report.outcome else {
            panic!("expected grid outcome");
        };
        assert_eq!(rows.len(), 4);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.panel, Some(i));
            assert_eq!(
                s.panel(i).unwrap().outcome.unfairness,
                row.unfairness
            );
        }
        assert_eq!(report.cells.len(), 4);
        assert!(report.cells.iter().all(|c| c.unfairness.is_some()));
    }

    #[test]
    fn sequential_and_parallel_runs_agree() {
        let mut a = session();
        let mut b = session();
        let ra = compile(&a, &grid_spec()).unwrap().run(&mut a).unwrap();
        let rb = compile(&b, &grid_spec())
            .unwrap()
            .run_parallel(&mut b)
            .unwrap();
        let (ScenarioOutcome::Grid(rows_a), ScenarioOutcome::Grid(rows_b)) =
            (&ra.outcome, &rb.outcome)
        else {
            panic!("expected grid outcomes");
        };
        assert_eq!(rows_a, rows_b);
    }

    #[test]
    fn beam_strategy_reports_without_panels() {
        let mut s = session();
        let mut spec = grid_spec();
        spec.strategy = Some(SearchStrategy::Beam { width: 2 });
        let report = compile(&s, &spec).unwrap().run(&mut s).unwrap();
        let ScenarioOutcome::Grid(rows) = &report.outcome else {
            panic!("expected grid outcome");
        };
        assert!(rows.iter().all(|r| r.panel.is_none()));
        assert!(s.panels().is_empty());
        assert!(report.strategy.starts_with("beam"));
    }

    #[test]
    fn compile_validates_names_before_running() {
        let s = session();
        let mut spec = grid_spec();
        spec.perspective = Perspective::Grid {
            datasets: vec!["ghost".into()],
            functions: vec!["paper-f".into()],
            filter: None,
        };
        assert!(matches!(
            compile(&s, &spec),
            Err(SessionError::UnknownDataset(_))
        ));
    }

    #[test]
    fn oversized_json_specs_are_refused_before_compiling() {
        let s = session();
        let names = |n: usize| (0..n).map(|i| format!("d{i}")).collect::<Vec<_>>();
        let stream = |rounds: usize| {
            format!(
                r#"{{"perspective":{{"Stream":{{"market":{{"preset":"taskrabbit","n":100,"seed":1}},
                "job":"errands","k":null,"ranking_only":false,"config":{{"rounds":{rounds},
                "arrivals_per_round":1,"departures_per_round":1,"rescores_per_round":1,
                "seed":null}}}}}},"strategy":null,"criteria":null}}"#
            )
        };
        let grid = |datasets: usize, functions: usize| ScenarioSpec {
            perspective: Perspective::Grid {
                datasets: names(datasets),
                functions: names(functions),
                filter: None,
            },
            strategy: None,
            criteria: None,
        };
        let json = [
            serde_json::to_string(&grid(40_000, 40_000)).unwrap(),
            stream(4_000_000_000),
            r#"{"perspective":{"Auditor":{"market":{"preset":"taskrabbit","n":300000000,
               "seed":1},"k":null,"ranking_only":false,"subgroup_depth":2,"min_subgroup":2}},
               "strategy":{"Beam":{"width":4}},"criteria":null}"#
                .to_string(),
        ];
        for text in &json {
            let spec: ScenarioSpec = serde_json::from_str(text).unwrap();
            let err = compile(&s, &spec).unwrap_err();
            assert_eq!(err.kind(), "limit_exceeded", "{err}");
        }
        let mut beam = grid(1, 1);
        beam.strategy = Some(SearchStrategy::Beam { width: 1_025 });
        assert_eq!(compile(&s, &beam).unwrap_err().kind(), "limit_exceeded");
        beam.strategy = None;
        beam.criteria = Some(CriterionGrid {
            bins: vec![10, 4_000_000_000],
            ..CriterionGrid::default()
        });
        assert_eq!(compile(&s, &beam).unwrap_err().kind(), "limit_exceeded");
        // 64 × 64 cells is at the bound; the grid names unknown datasets, so
        // it gets past the bounds and fails on the session lookup.
        assert_eq!(compile(&s, &grid(64, 64)).unwrap_err().kind(), "unknown_dataset");
        assert_eq!(compile(&s, &grid(65, 64)).unwrap_err().kind(), "limit_exceeded");
        let spec: ScenarioSpec = serde_json::from_str(&stream(10_000)).unwrap();
        spec.check_limits().unwrap();
    }

    #[test]
    fn criterion_grid_cardinality_and_labels() {
        let grid = CriterionGrid {
            objectives: vec![Objective::MostUnfair, Objective::LeastUnfair],
            aggregators: vec![Aggregator::Mean],
            bins: vec![5, 10, 20],
            emds: vec![EmdBackendKind::OneD, EmdBackendKind::Transport],
        };
        assert_eq!(grid.cardinality(), 12);
        let criteria = grid.criteria().unwrap();
        assert_eq!(criteria.len(), 12);
        assert!(criteria[0].0.contains("most-unfair mean"));
        // Empty axis is an error.
        let empty = CriterionGrid {
            objectives: vec![],
            ..CriterionGrid::default()
        };
        assert_eq!(empty.cardinality(), 0);
        assert!(empty.criteria().is_err());
    }

    #[test]
    fn scenario_json_with_retired_emd_names_loads_as_one_d() {
        // Written while `Batched` and `Kernel` were EMD variants: both now
        // load as `OneD`, and the grid compiles one cell per criterion.
        let json = r#"{"perspective": {"Grid": {"datasets": ["table1"], "functions": ["paper-f"],
            "filter": null}}, "strategy": null, "criteria": {"objectives": ["MostUnfair"],
            "aggregators": ["Mean"], "bins": [10], "emds": ["OneD", "Batched", "Kernel", "Transport"]}}"#;
        let spec: ScenarioSpec = serde_json::from_str(json).unwrap();
        let grid = spec.criterion_grid();
        let (one_d, transport) = (EmdBackendKind::OneD, EmdBackendKind::Transport);
        assert_eq!(grid.emds, [one_d, one_d, one_d, transport]);
        let labels: Vec<String> = grid.criteria().unwrap().into_iter().map(|(l, _)| l).collect();
        assert_eq!(labels, ["most-unfair mean (10 bins, 1d emd)", "most-unfair mean (10 bins, transport emd)"]);
        assert_eq!(compile(&session(), &spec).unwrap().cell_count(), 2);
    }

    #[test]
    fn auditor_spec_compiles_one_cell_per_job_and_criterion() {
        let s = Session::new();
        let spec = ScenarioSpec {
            perspective: Perspective::Auditor {
                market: MarketSpec {
                    preset: "taskrabbit".into(),
                    n: 80,
                    seed: 7,
                },
                k: None,
                ranking_only: false,
                subgroup_depth: 1,
                min_subgroup: 10,
            },
            strategy: None,
            criteria: Some(CriterionGrid {
                objectives: vec![Objective::MostUnfair],
                aggregators: vec![Aggregator::Mean, Aggregator::Max],
                bins: vec![10],
                emds: vec![EmdBackendKind::OneD],
            }),
        };
        let market = fairank_marketplace::scenario::taskrabbit_like(80, 7).unwrap();
        let plan = compile(&s, &spec).unwrap();
        assert_eq!(plan.cell_count(), 2 * market.jobs().len());
        let mut s2 = Session::new();
        let report = plan.run_parallel(&mut s2).unwrap();
        let ScenarioOutcome::Audit(audits) = &report.outcome else {
            panic!("expected audit outcome");
        };
        assert_eq!(audits.len(), 2);
        for audit in audits {
            assert_eq!(audit.report.rows.len(), market.jobs().len());
            assert!(!audit.criterion.is_empty());
        }
    }

    #[test]
    fn end_user_spec_supports_multiple_groups() {
        let s = Session::new();
        let spec = ScenarioSpec::new(Perspective::EndUser {
            market: MarketSpec {
                preset: "taskrabbit".into(),
                n: 80,
                seed: 7,
            },
            groups: vec!["gender=Female".into(), "gender=Male".into()],
        });
        let mut s2 = Session::new();
        let report = compile(&s, &spec).unwrap().run(&mut s2).unwrap();
        let ScenarioOutcome::EndUser(views) = &report.outcome else {
            panic!("expected end-user outcome");
        };
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].report.group, views[0].group);
        assert!(report.cells.iter().all(|c| c.unfairness.is_none()));
    }

    fn stream_spec(seed: Option<u64>) -> ScenarioSpec {
        ScenarioSpec {
            perspective: Perspective::Stream {
                market: MarketSpec {
                    preset: "taskrabbit".into(),
                    n: 60,
                    seed: 3,
                },
                job: "errands".into(),
                k: None,
                ranking_only: false,
                config: StreamConfig {
                    rounds: 2,
                    arrivals_per_round: 2,
                    departures_per_round: 2,
                    rescores_per_round: 3,
                    seed,
                },
            },
            strategy: None,
            criteria: Some(CriterionGrid {
                objectives: vec![Objective::MostUnfair],
                aggregators: vec![Aggregator::Mean, Aggregator::Max],
                bins: vec![10],
                emds: vec![EmdBackendKind::OneD],
            }),
        }
    }

    /// Strips the wall-clock fields — the only legitimately nondeterministic
    /// parts of a stream report.
    fn strip_stream_timing(mut report: ScenarioReport) -> ScenarioReport {
        report.total_elapsed_us = 0;
        for cell in &mut report.cells {
            cell.elapsed_us = 0;
        }
        if let ScenarioOutcome::Stream(streams) = &mut report.outcome {
            for s in streams {
                for r in &mut s.outcome.rounds {
                    r.requantify_us = 0;
                }
            }
        }
        report
    }

    #[test]
    fn stream_spec_compiles_one_cell_per_criterion_and_runs() {
        let s = Session::new();
        let plan = compile(&s, &stream_spec(Some(11))).unwrap();
        assert_eq!(plan.cell_count(), 2);
        assert!(plan.cell_labels()[0].starts_with("stream errands"));
        let report = plan.run_detached().unwrap();
        let ScenarioOutcome::Stream(streams) = &report.outcome else {
            panic!("expected stream outcome");
        };
        assert_eq!(streams.len(), 2);
        for stream in streams {
            assert!(!stream.criterion.is_empty());
            assert_eq!(stream.outcome.rounds.len(), 3); // round 0 + 2 churn rounds
            assert_eq!(stream.outcome.job_id, "errands");
        }
        // The cell stats surface the delta counters: churn rounds reuse
        // surviving histograms.
        assert!(report.cells.iter().all(|c| c.delta_reused_histograms > 0));
        assert!(report.cells.iter().all(|c| c.unfairness.is_some()));
    }

    #[test]
    fn stream_runs_are_deterministic() {
        let s = Session::new();
        let a = compile(&s, &stream_spec(Some(5)))
            .unwrap()
            .run_detached()
            .unwrap();
        let b = compile(&s, &stream_spec(Some(5)))
            .unwrap()
            .run_detached()
            .unwrap();
        assert_eq!(strip_stream_timing(a), strip_stream_timing(b));
    }

    #[test]
    fn stream_rejects_non_quantify_strategies() {
        let s = Session::new();
        let mut spec = stream_spec(None);
        spec.strategy = Some(SearchStrategy::Beam { width: 4 });
        let err = compile(&s, &spec).unwrap_err();
        assert!(err.to_string().contains("quantify strategy"));
    }

    #[test]
    fn stream_validates_the_job_at_compile_time() {
        let s = Session::new();
        let mut spec = stream_spec(None);
        let Perspective::Stream { job, .. } = &mut spec.perspective else {
            unreachable!();
        };
        *job = "ghost-job".into();
        assert!(compile(&s, &spec).is_err());
    }

    #[test]
    fn spec_serde_round_trip() {
        let spec = grid_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        // Strategy/criteria may be omitted entirely in hand-written JSON.
        let minimal: ScenarioSpec = serde_json::from_str(
            r#"{"perspective": {"Grid": {"datasets": ["a"], "functions": ["f"], "filter": null}}}"#,
        )
        .unwrap();
        assert_eq!(minimal.strategy(), SearchStrategy::default());
        assert_eq!(minimal.criterion_grid(), CriterionGrid::default());
    }
}
