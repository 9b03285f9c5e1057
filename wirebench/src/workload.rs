//! The three analyst workloads as seeded request generators.
//!
//! Every workload is closed loop: two analysts, one connection each, and
//! each waits for a reply before sending the next request. An analyst works
//! in sessions. A session starts with a preload (datasets and functions),
//! runs a fixed number of cycles and ends with an admin `evict`, so the
//! server's state stays bounded however long the run is.
//!
//! The request sequence is a pure function of the workload, the seed and
//! the replies (a `node` request names the panel the previous `quantify`
//! created), so the wire run, the in-process replay and the reference
//! checker all see the same requests.

use fairank_service::Request;

use crate::rng::SplitMix64;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Repeated `quantify` on a 10k-row dataset, browsed with `node` and
    /// `panels`.
    QuantifyBrowse,
    /// 8-cell `scenario grid` requests over 4 shared datasets, half of
    /// them streamed, with a skewed function popularity that the cell
    /// cache only partly holds.
    GridExplore,
    /// `stream` re-audits of a small marketplace, one fresh event seed per
    /// request.
    StreamReaudit,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::QuantifyBrowse,
        Workload::GridExplore,
        Workload::StreamReaudit,
    ];

    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QuantifyBrowse => "quantify-browse",
            Workload::GridExplore => "grid-explore",
            Workload::StreamReaudit => "stream-reaudit",
        }
    }

    /// The fixed tail percentile of compute requests: the highest with at
    /// least ten samples beyond it at this workload's request count.
    pub fn compute_tail(self) -> f64 {
        match self {
            Workload::QuantifyBrowse => 99.0,
            Workload::GridExplore | Workload::StreamReaudit => 90.0,
        }
    }

    /// The fixed tail percentile of navigation requests (every workload
    /// sends thousands). Navigation waits for a CPU behind compute, so its
    /// latency has steps at the scheduler's time slice; the percentile is
    /// one that sits between steps for the workload, or it jumps by half
    /// when a busy shared host adds a second wait: p99 for stream-reaudit
    /// (whose streams keep both cores busy), p97.5 for the others.
    pub fn light_tail(self) -> f64 {
        match self {
            Workload::QuantifyBrowse | Workload::GridExplore => 97.5,
            Workload::StreamReaudit => 99.0,
        }
    }
}

/// Sizes of one run. [`Scale::full`] is what the benchmark measures;
/// [`Scale::small`] keeps the self-tests fast in debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Rows of each `generate`d dataset.
    pub rows: usize,
    /// Population of the `stream` marketplace.
    pub stream_rows: usize,
    /// Event rounds of each `stream`.
    pub stream_rounds: usize,
    /// Quantify cycles per quantify-browse session.
    pub quantify_cycles: usize,
    /// Grids per grid-explore session.
    pub grids: usize,
    /// Streams per stream-reaudit session.
    pub streams: usize,
}

impl Scale {
    /// The measured shape.
    pub fn full() -> Scale {
        Scale {
            rows: 10_000,
            stream_rows: 3_000,
            stream_rounds: 200,
            quantify_cycles: 96,
            grids: 36,
            streams: 6,
        }
    }

    /// A shape small enough for debug-build self-tests.
    pub fn small() -> Scale {
        Scale {
            rows: 600,
            stream_rows: 200,
            stream_rounds: 12,
            quantify_cycles: 16,
            grids: 6,
            streams: 4,
        }
    }

    /// Cycles in one session of `workload`.
    pub fn cycles(self, workload: Workload) -> usize {
        match workload {
            Workload::QuantifyBrowse => self.quantify_cycles,
            Workload::GridExplore => self.grids,
            Workload::StreamReaudit => self.streams,
        }
    }
}

/// How a request counts in the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The request an analyst waits on: `quantify`, `scenario grid`,
    /// `stream`.
    Compute,
    /// Navigation next to compute: `node`, `panels`, `datasets`.
    Light,
    /// Session bookkeeping: `generate`, `define`, `evict`.
    Other,
}

/// One `quantify` criterion of the quantify-browse rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combo {
    pub objective: &'static str,
    pub agg: &'static str,
    pub bins: usize,
    pub emd: &'static str,
}

impl Combo {
    /// Every criterion the rotation covers: objective × aggregator × bins ×
    /// EMD backend.
    pub fn all() -> Vec<Combo> {
        let mut combos = Vec::new();
        for objective in ["most", "least"] {
            for agg in ["mean", "max", "min", "variance"] {
                for bins in [5, 10, 20] {
                    for emd in ["1d", "kernel"] {
                        combos.push(Combo {
                            objective,
                            agg,
                            bins,
                            emd,
                        });
                    }
                }
            }
        }
        combos
    }

    /// The `quantify` options spelling this criterion.
    pub fn options(&self) -> String {
        format!(
            "objective={} agg={} bins={} emd={}",
            self.objective, self.agg, self.bins, self.emd
        )
    }
}

/// Rows of the `biased` preset are scored by these attributes.
const SCORE_ATTRIBUTES: [&str; 3] = ["rating", "language_test", "experience"];

/// The jobs of the `taskrabbit` marketplace preset.
pub const STREAM_JOBS: [&str; 6] = [
    "wood-panels",
    "furniture",
    "deep-clean",
    "moving-help",
    "errands",
    "rated-anything",
];

/// Distinct `stream-seed`s one analyst cycles through. Every request of a
/// session gets its own; later sessions repeat them, which bounds the
/// reference computations the check needs.
pub const STREAM_SEEDS: usize = 24;

/// `datasets` + `panels` pairs an analyst sends after each `stream`.
pub const STREAM_GLANCES: usize = 4;

/// `node` + `datasets` pairs an analyst sends after each grid.
pub const GRID_GLANCES: usize = 2;

/// The criteria of every grid: 2 objectives × 4 aggregators = 8 cells.
pub const GRID_CRITERIA: &str = "objectives=most,least aggs=mean,max,min,variance";

/// Datasets every grid-explore session preloads.
pub const GRID_DATASETS: usize = 4;

/// Functions in the grid-explore popularity universe. With
/// [`GRID_DATASETS`] datasets this makes 48 (dataset, function) pairs of 8
/// cells each: 384 cache keys against the pinned cap of 64.
pub const GRID_FUNCTIONS: usize = 12;

/// One grid in this many uses a freshly defined function.
pub const GRID_FRESH_EVERY: usize = 6;

/// The cell-cache capacity the server is pinned to (`--cell-cache-cap`).
pub const CELL_CACHE_CAP: usize = 64;

/// One request an analyst sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Generate {
        name: String,
        preset: &'static str,
        n: usize,
        seed: u64,
    },
    Define {
        name: String,
        expr: String,
    },
    Quantify {
        dataset: String,
        function: String,
        combo: Combo,
    },
    /// `node <last panel> <pick mod its tree size>`.
    Node {
        pick: u64,
    },
    Panels,
    Datasets,
    Grid {
        dataset: String,
        function: String,
        streamed: bool,
    },
    Stream {
        job: &'static str,
        n: usize,
        seed: u64,
        rounds: usize,
        stream_seed: u64,
    },
    Evict {
        name: String,
    },
}

/// What an analyst's session looks like from the client: enough to render
/// reply-dependent requests and to predict list replies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionCtx {
    /// Panels the session holds.
    pub panels: usize,
    /// Datasets the session holds.
    pub datasets: usize,
    /// Id of the most recently created panel.
    pub last_panel: usize,
    /// Tree size of that panel.
    pub last_tree_nodes: usize,
}

impl Op {
    /// How the request counts in the metrics.
    pub fn class(&self) -> Class {
        match self {
            Op::Quantify { .. } | Op::Grid { .. } | Op::Stream { .. } => Class::Compute,
            Op::Node { .. } | Op::Panels | Op::Datasets => Class::Light,
            Op::Generate { .. } | Op::Define { .. } | Op::Evict { .. } => Class::Other,
        }
    }

    /// The REPL command line of the request, given the session's state.
    pub fn command(&self, ctx: &SessionCtx) -> String {
        match self {
            Op::Generate {
                name,
                preset,
                n,
                seed,
            } => format!("generate {name} {preset} n={n} seed={seed}"),
            Op::Define { name, expr } => format!("define {name} {expr}"),
            Op::Quantify {
                dataset,
                function,
                combo,
            } => format!("quantify {dataset} {function} {}", combo.options()),
            Op::Node { pick } => {
                let node = *pick % ctx.last_tree_nodes.max(1) as u64;
                format!("node {} {node}", ctx.last_panel)
            }
            Op::Panels => "panels".into(),
            Op::Datasets => "datasets".into(),
            Op::Grid {
                dataset, function, ..
            } => format!("scenario grid {dataset} {function} {GRID_CRITERIA}"),
            Op::Stream {
                job,
                n,
                seed,
                rounds,
                stream_seed,
            } => format!(
                "stream taskrabbit {job} n={n} seed={seed} rounds={rounds} stream-seed={stream_seed}"
            ),
            Op::Evict { name } => format!("evict {name}"),
        }
    }

    /// The wire request, against `session`.
    pub fn request(&self, session: &str, ctx: &SessionCtx) -> Request {
        let request = Request::in_session(session, self.command(ctx));
        match self {
            Op::Grid { streamed: true, .. } => request.with_stream(),
            _ => request,
        }
    }
}

/// A scoring expression with seeded weights over the `biased` attributes.
fn random_expr(rng: &mut SplitMix64) -> String {
    SCORE_ATTRIBUTES
        .iter()
        .map(|attr| format!("{attr}*{:.3}", 0.05 + 0.95 * rng.next_f64()))
        .collect::<Vec<_>>()
        .join("+")
}

/// One analyst's request generator.
#[derive(Debug, Clone)]
pub struct Analyst {
    workload: Workload,
    scale: Scale,
    index: usize,
    rng: SplitMix64,
    /// Sessions started so far.
    sessions: usize,
    /// Seeds of the datasets this analyst preloads.
    data_seeds: Vec<u64>,
    /// Grid-explore universe: scoring expressions, and (dataset, function)
    /// pairs in popularity order with their cumulative weights.
    universe: Vec<String>,
    pairs: Vec<(usize, usize)>,
    cumulative: Vec<f64>,
    /// Stream-reaudit event seeds, cycled through request by request.
    stream_seeds: Vec<u64>,
    /// Quantify-browse rotation: a shuffled copy of every combo.
    rotation: Vec<Combo>,
    position: usize,
    /// Cycles started in the current session.
    cycle: usize,
    fresh: usize,
}

impl Analyst {
    /// The two analysts of a run.
    pub fn pair(workload: Workload, seed: u64, scale: Scale) -> [Analyst; 2] {
        [0, 1].map(|index| Analyst::new(workload, seed, scale, index))
    }

    fn new(workload: Workload, seed: u64, scale: Scale, index: usize) -> Analyst {
        // The datasets and the function universe are fixed, so every seed
        // measures the same data; the seed picks the request sequence.
        // Both analysts share them, so grid-explore's analysts hit each
        // other's cache entries.
        let mut fixed = SplitMix64::new(0x5eed_da7a);
        let mut shared = SplitMix64::new(seed ^ 0x5eed_da7a);
        let mut rng = SplitMix64::new(seed.wrapping_mul(31).wrapping_add(index as u64 + 1));
        let data_seeds = match workload {
            Workload::GridExplore => (0..GRID_DATASETS as u64).map(|d| 21 + d).collect(),
            _ => vec![11 + index as u64],
        };
        let universe: Vec<String> = (0..GRID_FUNCTIONS)
            .map(|_| random_expr(&mut fixed))
            .collect();
        let mut pairs: Vec<(usize, usize)> = (0..GRID_DATASETS)
            .flat_map(|d| (0..GRID_FUNCTIONS).map(move |f| (d, f)))
            .collect();
        shared.shuffle(&mut pairs);
        // Zipf-like popularity with exponent 1 over the shuffled pairs.
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut total = 0.0;
        for rank in 0..pairs.len() {
            total += 1.0 / (rank as f64 + 1.0);
            cumulative.push(total);
        }
        let mut rotation = Combo::all();
        rng.shuffle(&mut rotation);
        let stream_seeds = (0..STREAM_SEEDS)
            .map(|_| rng.next_u64() % 1_000_000)
            .collect();
        Analyst {
            workload,
            scale,
            index,
            rng,
            sessions: 0,
            data_seeds,
            universe,
            pairs,
            cumulative,
            stream_seeds,
            rotation,
            position: 0,
            cycle: 0,
            fresh: 0,
        }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The name of the current session.
    pub fn session(&self) -> String {
        format!(
            "{}-a{}-s{}",
            self.workload.name(),
            self.index,
            self.sessions.saturating_sub(1)
        )
    }

    /// Starts the next session and returns its preload requests.
    pub fn start_session(&mut self) -> Vec<Op> {
        self.sessions += 1;
        self.cycle = 0;
        let rows = self.scale.rows;
        match self.workload {
            Workload::QuantifyBrowse => vec![
                Op::Generate {
                    name: "pop".into(),
                    preset: "biased",
                    n: rows,
                    seed: self.data_seeds[0],
                },
                Op::Define {
                    name: "f".into(),
                    expr: "rating*0.7+language_test*0.3".into(),
                },
            ],
            Workload::GridExplore => {
                let mut ops: Vec<Op> = self
                    .data_seeds
                    .iter()
                    .enumerate()
                    .map(|(d, &seed)| Op::Generate {
                        name: format!("g{d}"),
                        preset: "biased",
                        n: rows,
                        seed,
                    })
                    .collect();
                ops.extend(
                    self.universe
                        .iter()
                        .enumerate()
                        .map(|(f, expr)| Op::Define {
                            name: format!("u{f}"),
                            expr: expr.clone(),
                        }),
                );
                ops
            }
            Workload::StreamReaudit => Vec::new(),
        }
    }

    /// The admin request ending the current session.
    pub fn end_session(&self) -> Op {
        Op::Evict {
            name: self.session(),
        }
    }

    /// Whether the current session has run all its cycles.
    pub fn session_done(&self) -> bool {
        self.cycle >= self.scale.cycles(self.workload)
    }

    /// A warm-up request run once after the first preload: workloads
    /// without a preload still pay their first compute in set-up.
    pub fn warmup(&mut self) -> Vec<Op> {
        match self.workload {
            Workload::StreamReaudit => vec![self.stream_op()],
            _ => Vec::new(),
        }
    }

    fn stream_op(&mut self) -> Op {
        let job = STREAM_JOBS[(self.position + self.index) % STREAM_JOBS.len()];
        let stream_seed = self.stream_seeds[self.position % self.stream_seeds.len()];
        self.position += 1;
        Op::Stream {
            job,
            n: self.scale.stream_rows,
            seed: self.data_seeds[0],
            rounds: self.scale.stream_rounds,
            stream_seed,
        }
    }

    /// The requests of the next cycle of the current session.
    pub fn next_cycle(&mut self) -> Vec<Op> {
        self.cycle += 1;
        match self.workload {
            Workload::QuantifyBrowse => {
                if self.position == self.rotation.len() {
                    self.rng.shuffle(&mut self.rotation);
                    self.position = 0;
                }
                let combo = self.rotation[self.position];
                self.position += 1;
                vec![
                    Op::Quantify {
                        dataset: "pop".into(),
                        function: "f".into(),
                        combo,
                    },
                    Op::Node {
                        pick: self.rng.next_u64(),
                    },
                    Op::Node {
                        pick: self.rng.next_u64(),
                    },
                    Op::Panels,
                ]
            }
            Workload::GridExplore => {
                let streamed = self.cycle.is_multiple_of(2);
                let mut ops = Vec::new();
                let (dataset, function) = if self.cycle.is_multiple_of(GRID_FRESH_EVERY) {
                    let name = format!("x{}", self.fresh);
                    self.fresh += 1;
                    ops.push(Op::Define {
                        name: name.clone(),
                        expr: random_expr(&mut self.rng),
                    });
                    let dataset = (self.rng.next_u64() % GRID_DATASETS as u64) as usize;
                    (format!("g{dataset}"), name)
                } else {
                    let total = *self.cumulative.last().expect("non-empty universe");
                    let draw = self.rng.next_f64() * total;
                    let rank = self.cumulative.partition_point(|&c| c <= draw);
                    let (d, f) = self.pairs[rank.min(self.pairs.len() - 1)];
                    (format!("g{d}"), format!("u{f}"))
                };
                ops.push(Op::Grid {
                    dataset,
                    function,
                    streamed,
                });
                for _ in 0..GRID_GLANCES {
                    ops.push(Op::Node {
                        pick: self.rng.next_u64(),
                    });
                    ops.push(Op::Datasets);
                }
                ops
            }
            Workload::StreamReaudit => {
                let mut ops = vec![self.stream_op()];
                for _ in 0..STREAM_GLANCES {
                    ops.extend([Op::Datasets, Op::Panels]);
                }
                ops
            }
        }
    }
}

/// Updates the client's view of a session after a successful reply.
/// `created` is the `(id, tree size)` of each panel the reply created.
pub fn advance(ctx: &mut SessionCtx, op: &Op, created: &[(usize, usize)]) {
    match op {
        Op::Generate { .. } => ctx.datasets += 1,
        Op::Evict { .. } => *ctx = SessionCtx::default(),
        _ => {}
    }
    for &(id, tree_nodes) in created {
        ctx.panels += 1;
        ctx.last_panel = id;
        ctx.last_tree_nodes = tree_nodes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commands(workload: Workload, seed: u64) -> Vec<String> {
        let mut analyst = Analyst::new(workload, seed, Scale::small(), 0);
        let ctx = SessionCtx {
            last_tree_nodes: 7,
            ..SessionCtx::default()
        };
        let mut out: Vec<String> = analyst
            .start_session()
            .iter()
            .map(|op| op.command(&ctx))
            .collect();
        while !analyst.session_done() {
            out.extend(analyst.next_cycle().iter().map(|op| op.command(&ctx)));
        }
        out
    }

    #[test]
    fn combos_cover_the_rotation_once() {
        let combos = Combo::all();
        assert_eq!(combos.len(), 48);
        let unique: std::collections::HashSet<_> = combos.iter().collect();
        assert_eq!(unique.len(), combos.len());
    }

    #[test]
    fn sequences_are_seeded() {
        for workload in Workload::ALL {
            assert_eq!(commands(workload, 7), commands(workload, 7));
            assert_ne!(commands(workload, 7), commands(workload, 8));
        }
    }

    #[test]
    fn grid_sessions_stream_half_their_grids() {
        let mut analyst = Analyst::new(Workload::GridExplore, 3, Scale::small(), 1);
        analyst.start_session();
        let mut grids = 0;
        let mut streamed = 0;
        while !analyst.session_done() {
            for op in analyst.next_cycle() {
                if let Op::Grid { streamed: s, .. } = op {
                    grids += 1;
                    streamed += usize::from(s);
                }
            }
        }
        assert_eq!(grids, Scale::small().grids);
        assert_eq!(streamed * 2, grids);
    }
}
