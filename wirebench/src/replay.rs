//! The traced run: replays a workload's request list in process and times
//! the public entry point of each layer, so a change can be traced to the
//! layer it moved.
//!
//! Two passes over the same requests (one session of each analyst,
//! after a warm-up session where the workload shares state across
//! sessions), each on a fresh registry and a 2-worker pool like the
//! server's:
//!
//! * **concurrent** — two threads, one per analyst, as on the wire. Each
//!   request is a `request` span with three children on the blocking
//!   path: `protocol.request_parse` (`serde_json::from_str`),
//!   `server.dispatch` (`dispatch_with`, no socket) and
//!   `protocol.reply_serialize` (`serde_json::to_string`).
//! * **sequential** — one request at a time, alternating analysts, which
//!   makes every counter (engine, cache, reply bytes) a function of the
//!   request list alone. Besides the blocking-path spans, each request is
//!   replayed on a mirror `Session` under a `mirror` span: `command.parse`
//!   (`Command::parse`) and `command.apply` (`command::apply`). The layers
//!   below `apply` are timed by calling their entry points on the same
//!   inputs just before it — `engine.search` (`Quantify::run_space`),
//!   `plan.compile` and `plan.cell` (`plan::compile`, `Cell::execute`),
//!   `synth.generate` (`PopulationSpec::generate`), `marketplace.run`
//!   (`StreamScenario::run`, with the rounds' own `requantify_us` as its
//!   `incremental.requantify` child) — and recorded as children of
//!   `command.apply`, so its self time is what `apply` adds on top.
//!
//! The wire server itself is never traced, so end-to-end metrics carry no
//! tracing cost. `trace.overhead_us` is what recording a request's four
//! blocking-path spans costs, timed on the tracer itself.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fairank_core::emd::Emd;
use fairank_core::fairness::FairnessCriterion;
use fairank_core::histogram::HistogramSpec;
use fairank_core::quantify::{Quantify, SearchStats};
use fairank_core::scoring::ScoreSource;
use fairank_data::synth;
use fairank_marketplace::scenario::{taskrabbit_like, taskrabbit_population};
use fairank_marketplace::stream::StreamScenario;
use fairank_marketplace::{Marketplace, Transparency};
use fairank_service::{
    dispatch_with, ChunkSink, DispatchPolicy, Reply, Request, RequestContext, SessionRegistry,
    WorkerPool,
};
use fairank_session::command::{apply, Command};
use fairank_session::plan;
use fairank_session::response::RegistryStatsView;
use fairank_session::{CellStat, Response, Session};

use crate::check::{response_summary, Summary};
use crate::stats::{mean, median};
use crate::trace::{self_times, write_spans, Span, Tracer};
use crate::workload::{advance, Analyst, Class, Op, Scale, SessionCtx, Workload, CELL_CACHE_CAP};

/// One analyst's requests: the session each goes to, and the request.
pub type Script = Vec<(String, Op)>;

/// A run of a [`Script`].
type Requests<'a> = &'a [(String, Op)];

/// The request lists the replay runs: each analyst's first preload,
/// warm-up and `sessions` sessions of cycles.
pub fn scripts(workload: Workload, seed: u64, scale: Scale, sessions: usize) -> [Script; 2] {
    Analyst::pair(workload, seed, scale).map(|mut analyst| {
        let mut script = Script::new();
        for session in 0..sessions {
            if session > 0 {
                script.push((analyst.session(), analyst.end_session()));
            }
            let mut ops = analyst.start_session();
            if session == 0 {
                ops.extend(analyst.warmup());
            }
            while !analyst.session_done() {
                ops.extend(analyst.next_cycle());
            }
            let name = analyst.session();
            script.extend(ops.into_iter().map(|op| (name.clone(), op)));
        }
        script
    })
}

/// Sessions per analyst the replay runs. Grid-explore's first session
/// warms the cell cache up, as on the wire, and only the second is
/// measured; the other workloads share no state across sessions.
pub fn replay_sessions(workload: Workload) -> usize {
    match workload {
        Workload::GridExplore => 2,
        _ => 1,
    }
}

/// One layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A server-like stack in process.
struct Stack {
    registry: SessionRegistry,
    pool: WorkerPool,
}

impl Stack {
    fn new() -> Stack {
        Stack {
            registry: SessionRegistry::with_cell_cache_cap(CELL_CACHE_CAP),
            // As `serve --workers 2`: a queue of twice the workers.
            pool: WorkerPool::with_caps(2, 4, 0),
        }
    }

    fn policy() -> DispatchPolicy {
        DispatchPolicy {
            allow_fs_commands: false,
            admin: true,
        }
    }

    fn registry_stats(&self) -> RegistryStatsView {
        let reply = dispatch_with(
            &self.registry,
            &self.pool,
            Request::new("sessions"),
            Stack::policy(),
            &RequestContext::default(),
        );
        match reply {
            Reply::ok(Response::SessionList(view)) => view,
            other => panic!("the admin `sessions` request failed: {other:?}"),
        }
    }
}

/// What one request's blocking path produced.
struct Served {
    reply: Reply,
    chunks: Vec<CellStat>,
}

/// Runs one request through parse → dispatch → serialize, recording the
/// blocking-path spans under a `request` root.
fn serve(stack: &Stack, tracer: &mut Tracer, id: usize, request: &Request) -> Served {
    let line = serde_json::to_string(request).expect("requests serialize");
    let chunks = Arc::new(Mutex::new(Vec::new()));
    let ctx = RequestContext {
        chunk_sink: request.wants_stream().then(|| {
            let chunks = Arc::clone(&chunks);
            ChunkSink::new(move |stat: &CellStat| {
                chunks.lock().expect("chunk list lock").push(stat.clone())
            })
        }),
        ..RequestContext::default()
    };
    let root = tracer.open("request", None, id);
    let parsed = tracer.span("protocol.request_parse", Some(root), id, || {
        serde_json::from_str::<Request>(&line)
    });
    let reply = match parsed {
        Ok(parsed) => tracer.span("server.dispatch", Some(root), id, || {
            dispatch_with(&stack.registry, &stack.pool, parsed, Stack::policy(), &ctx)
        }),
        Err(e) => Reply::protocol_error(e.to_string()),
    };
    let text = tracer.span("protocol.reply_serialize", Some(root), id, || {
        serde_json::to_string(&reply).expect("replies serialize")
    });
    tracer.close(root);
    std::hint::black_box(text);
    drop(ctx);
    let chunks = std::mem::take(&mut *chunks.lock().expect("chunk list lock"));
    Served { reply, chunks }
}

/// The reply's summary, or the reason it is not the expected one.
fn summary_of(op: &Op, served: &Served) -> Result<Summary, String> {
    match &served.reply {
        Reply::ok(response) => response_summary(op, response, &served.chunks),
        Reply::err(e) => Err(format!("{}: {}", e.kind, e.message)),
    }
}

/// The reply with its wall-clock fields written as 0, so its length is a
/// function of the request list alone.
fn timeless_bytes(reply: &Reply) -> usize {
    let mut reply = reply.clone();
    if let Reply::ok(response) = &mut reply {
        match response {
            Response::PanelCreated(view) => view.elapsed_us = 0,
            Response::Scenario(report) => {
                report.total_elapsed_us = 0;
                for cell in &mut report.cells {
                    cell.elapsed_us = 0;
                }
            }
            Response::Stream(view) => {
                for round in &mut view.outcome.rounds {
                    round.requantify_us = 0;
                }
            }
            _ => {}
        }
    }
    serde_json::to_string(&reply)
        .expect("replies serialize")
        .len()
}

/// Request ids of warm-up requests start here; they are replayed but not
/// measured.
const WARM_ID: usize = 1 << 40;

/// Splits a script after its last `evict`: the sessions before it only
/// warm shared state (the cell cache) up.
fn split_warmup(script: &Script) -> (Requests<'_>, Requests<'_>) {
    let start = script
        .iter()
        .rposition(|(_, op)| matches!(op, Op::Evict { .. }))
        .map_or(0, |i| i + 1);
    script.split_at(start)
}

/// The concurrent pass: both analysts at once. Returns the spans and the
/// failures. Measured requests have ids `2k + analyst`, `k` counting from
/// the measured session's first request.
fn concurrent(scripts: &[Script; 2], origin: Instant) -> (Vec<Span>, usize) {
    let stack = Stack::new();
    let results: Vec<(Vec<Span>, usize)> = std::thread::scope(|scope| {
        let threads: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(analyst, script)| {
                let stack = &stack;
                scope.spawn(move || {
                    let mut tracer = Tracer::new(origin, true);
                    let mut ctx = SessionCtx::default();
                    let mut failed = 0;
                    let (warm, measured) = split_warmup(script);
                    let ids = (0..warm.len())
                        .map(|k| WARM_ID + 2 * k + analyst)
                        .chain((0..measured.len()).map(|k| 2 * k + analyst));
                    for (id, (session, op)) in ids.zip(warm.iter().chain(measured)) {
                        let served = serve(stack, &mut tracer, id, &op.request(session, &ctx));
                        let created = match summary_of(op, &served) {
                            Ok(summary) => summary.created(),
                            Err(reason) => {
                                failed += 1;
                                eprintln!("replay: {}: {reason}", op.command(&ctx));
                                Vec::new()
                            }
                        };
                        advance(&mut ctx, op, &created);
                    }
                    (tracer.into_spans(), failed)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("replay thread panicked"))
            .collect()
    });
    let mut spans = Vec::new();
    let mut failed = 0;
    for (thread_spans, thread_failed) in results {
        // Re-base parent indices into the merged list.
        let offset = spans.len();
        spans.extend(thread_spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        failed += thread_failed;
    }
    (spans, failed)
}

/// Sums of the engine and incremental counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counters {
    nodes_evaluated: f64,
    histograms_built: f64,
    emd_calls: f64,
    emd_cache_hits: f64,
    pairwise_batches: f64,
    delta_reused_histograms: f64,
    delta_invalidated_emds: f64,
    stream_emd_calls: f64,
}

impl Counters {
    fn add_search(&mut self, stats: &SearchStats) {
        self.nodes_evaluated += stats.nodes_evaluated as f64;
        self.histograms_built += stats.histograms_built as f64;
        self.emd_calls += stats.emd_calls as f64;
        self.emd_cache_hits += stats.emd_cache_hits as f64;
        self.pairwise_batches += stats.pairwise_batches as f64;
    }

    fn add_cell(&mut self, stat: &CellStat) {
        self.nodes_evaluated += stat.nodes_evaluated as f64;
        self.histograms_built += stat.histograms_built as f64;
        self.emd_calls += stat.emd_calls as f64;
        self.emd_cache_hits += stat.emd_cache_hits as f64;
        self.pairwise_batches += stat.pairwise_batches as f64;
    }
}

/// What the sequential pass measured besides its spans.
#[derive(Default)]
struct Sequential {
    /// Request id → class.
    classes: HashMap<usize, Class>,
    counters: Counters,
    compute: usize,
    grids: usize,
    streams: usize,
    cells: usize,
    /// Reply bytes of compute requests, wall-clock fields written as 0.
    reply_bytes: Vec<f64>,
    /// Σ cell time the replies report, and Σ grid dispatch time, in µs.
    reported_cell_us: f64,
    grid_dispatch_us: f64,
    /// Per grid with a cache miss: Σ fresh time of the missed cells.
    miss_cell_us: Vec<f64>,
    /// Per stream: Σ `requantify_us` over its rounds.
    requantify_us: Vec<f64>,
    failed: usize,
}

/// Mirror sessions, one per analyst, kept in step with the replayed
/// requests.
#[derive(Default)]
struct Mirror {
    sessions: [Session; 2],
    markets: HashMap<(usize, u64), Marketplace>,
}

/// A child layer call timed just before `apply`: name, ns, and nested
/// children of its own.
type Child = (&'static str, u64, Vec<(&'static str, u64)>);

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as u64)
}

impl Mirror {
    /// Replays one request on the analyst's mirror session. Returns the
    /// fresh time of each grid cell, in µs.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        seq: &mut Sequential,
        id: usize,
        analyst: usize,
        op: &Op,
        text: &str,
    ) -> Result<Vec<f64>, String> {
        let root = tracer.open("mirror", None, id);
        let command = tracer
            .span("command.parse", Some(root), id, || Command::parse(text))
            .map_err(|e| e.to_string())?;
        if let Op::Evict { .. } = op {
            // Registry admin: the mirror just starts over.
            self.sessions[analyst] = Session::new();
            tracer.close(root);
            return Ok(Vec::new());
        }
        let session = &mut self.sessions[analyst];
        let mut children: Vec<Child> = Vec::new();
        let mut cell_us = Vec::new();
        match &command {
            Command::Generate { n, seed, .. } => {
                let (data, ns) = timed(|| synth::biased_crowdsourcing_spec(*n, *seed).generate());
                std::hint::black_box(data.map_err(|e| e.to_string())?);
                children.push(("synth.generate", ns, Vec::new()));
            }
            Command::Quantify {
                dataset,
                function,
                objective,
                aggregator,
                bins,
                emd,
                ..
            } => {
                // The inputs `Session::quantify` hands the engine.
                let scoring = session
                    .function(function)
                    .map_err(|e| e.to_string())?
                    .clone();
                let space = session
                    .dataset(dataset)
                    .map_err(|e| e.to_string())?
                    .to_space(&ScoreSource::Function(scoring))
                    .map_err(|e| e.to_string())?;
                let criterion = FairnessCriterion::new(*objective, *aggregator)
                    .with_hist(HistogramSpec::unit(*bins).map_err(|e| e.to_string())?)
                    .with_emd(Emd::new(*emd))
                    .fit_range(&space);
                let (outcome, ns) = timed(|| Quantify::new(criterion).run_space(&space));
                seq.counters
                    .add_search(&outcome.map_err(|e| e.to_string())?.stats);
                children.push(("engine.search", ns, Vec::new()));
            }
            Command::RunScenario { spec } => {
                let (compiled, ns) = timed(|| plan::compile(session, spec));
                children.push(("plan.compile", ns, Vec::new()));
                let executed = compiled.map_err(|e| e.to_string())?.execute_with(|cells| {
                    cells
                        .into_iter()
                        .map(|cell| {
                            let (result, ns) = timed(|| cell.execute());
                            children.push(("plan.cell", ns, Vec::new()));
                            cell_us.push(ns as f64 / 1e3);
                            result
                        })
                        .collect()
                });
                std::hint::black_box(executed.finish(None).map_err(|e| e.to_string())?);
            }
            Command::Stream {
                job,
                n,
                seed,
                config,
                ..
            } => {
                let (data, ns) = timed(|| taskrabbit_population(*n, *seed).generate());
                std::hint::black_box(data.map_err(|e| e.to_string())?);
                children.push(("synth.generate", ns, Vec::new()));
                let market = self.markets.entry((*n, *seed)).or_insert_with(|| {
                    taskrabbit_like(*n, *seed).expect("the taskrabbit preset builds")
                });
                let (outcome, ns) = timed(|| {
                    StreamScenario::new(
                        market,
                        job,
                        &Transparency::full(),
                        &FairnessCriterion::default(),
                        *config,
                    )
                    .and_then(StreamScenario::run)
                });
                let outcome = outcome.map_err(|e| e.to_string())?;
                let requantify_us: u64 = outcome.rounds.iter().map(|r| r.requantify_us).sum();
                seq.requantify_us.push(requantify_us as f64);
                for round in &outcome.rounds {
                    seq.counters.delta_reused_histograms += round.delta_reused_histograms as f64;
                    seq.counters.delta_invalidated_emds += round.delta_invalidated_emds as f64;
                    seq.counters.stream_emd_calls += round.emd_calls as f64;
                }
                children.push((
                    "marketplace.run",
                    ns,
                    vec![("incremental.requantify", requantify_us * 1_000)],
                ));
            }
            _ => {}
        }
        let apply_span = tracer.open("command.apply", Some(root), id);
        let result = apply(session, command);
        tracer.close(apply_span);
        result.map_err(|e| e.to_string())?;
        // Place the children inside `apply`'s interval, back to back.
        let mut offset = 0;
        for (name, ns, nested) in children {
            let child = tracer.add_within(name, apply_span, id, offset, ns);
            let mut inner = 0;
            for (nested_name, nested_ns) in nested {
                tracer.add_within(nested_name, child, id, inner, nested_ns);
                inner += nested_ns;
            }
            offset += ns;
        }
        tracer.close(root);
        Ok(cell_us)
    }
}

/// Alternates between two lists of the given lengths: `(list, index)`.
fn interleave(lens: [usize; 2]) -> impl Iterator<Item = (usize, usize)> {
    let longest = lens[0].max(lens[1]);
    (0..longest)
        .flat_map(|k| [(0, k), (1, k)])
        .filter(move |&(list, k)| k < lens[list])
}

/// Each analyst's warm-up and measured requests.
type Parts<'a> = [(Requests<'a>, Requests<'a>); 2];

/// Sends the warm-up sessions through dispatch only, alternating
/// analysts, to fill shared state. Returns the failures.
fn warm_up(stack: &Stack, parts: &Parts, ctx: &mut [SessionCtx; 2]) -> usize {
    let mut failed = 0;
    let mut tracer = Tracer::new(Instant::now(), false);
    for (analyst, k) in interleave([parts[0].0.len(), parts[1].0.len()]) {
        let (session, op) = &parts[analyst].0[k];
        let served = serve(
            stack,
            &mut tracer,
            WARM_ID,
            &op.request(session, &ctx[analyst]),
        );
        let created = match summary_of(op, &served) {
            Ok(summary) => summary.created(),
            Err(reason) => {
                failed += 1;
                eprintln!("replay warm-up: {}: {reason}", op.command(&ctx[analyst]));
                Vec::new()
            }
        };
        advance(&mut ctx[analyst], op, &created);
    }
    failed
}

/// The sequential pass: requests alternate between analysts, one at a
/// time, each followed by its mirror replay.
fn sequential(
    scripts: &[Script; 2],
    origin: Instant,
) -> (Vec<Span>, Sequential, RegistryStatsView, RegistryStatsView) {
    let stack = Stack::new();
    let mut tracer = Tracer::new(origin, true);
    let mut seq = Sequential::default();
    let mut mirror = Mirror::default();
    let mut ctx = [SessionCtx::default(), SessionCtx::default()];
    let parts = scripts.each_ref().map(split_warmup);
    seq.failed += warm_up(&stack, &parts, &mut ctx);
    let before = stack.registry_stats();
    for (id, (analyst, k)) in interleave([parts[0].1.len(), parts[1].1.len()]).enumerate() {
        let (session, op) = &parts[analyst].1[k];
        let request = op.request(session, &ctx[analyst]);
        let text = request.command_text().to_string();
        seq.classes.insert(id, op.class());
        let spans_before = tracer.spans().len();
        let served = serve(&stack, &mut tracer, id, &request);
        let dispatch_us = tracer.spans()[spans_before..]
            .iter()
            .find(|s| s.name == "server.dispatch")
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e3);
        let summary = summary_of(op, &served);
        if let Err(reason) = &summary {
            seq.failed += 1;
            eprintln!("replay: {text}: {reason}");
        }
        let created = summary.as_ref().map(Summary::created).unwrap_or_default();
        advance(&mut ctx[analyst], op, &created);
        if op.class() == Class::Compute {
            seq.compute += 1;
            seq.reply_bytes.push(timeless_bytes(&served.reply) as f64);
        }
        let cells = match &served.reply {
            Reply::ok(Response::Scenario(report)) => report.cells.clone(),
            _ => Vec::new(),
        };
        match mirror.replay(&mut tracer, &mut seq, id, analyst, op, &text) {
            Ok(fresh_us) if matches!(op, Op::Grid { .. }) => {
                seq.grids += 1;
                seq.cells += fresh_us.len();
                seq.grid_dispatch_us += dispatch_us;
                seq.reported_cell_us += cells.iter().map(|c| c.elapsed_us as f64).sum::<f64>();
                for cell in &cells {
                    seq.counters.add_cell(cell);
                }
                let missed: Vec<f64> = cells
                    .iter()
                    .zip(&fresh_us)
                    .filter(|(cell, _)| cell.cache_misses > 0)
                    .map(|(_, us)| *us)
                    .collect();
                if !missed.is_empty() {
                    seq.miss_cell_us.push(missed.iter().sum());
                }
            }
            Ok(_) => seq.streams += usize::from(matches!(op, Op::Stream { .. })),
            Err(reason) => {
                seq.failed += 1;
                eprintln!("mirror: {text}: {reason}");
            }
        }
    }
    let after = stack.registry_stats();
    (tracer.into_spans(), seq, before, after)
}

/// What recording one span costs, in µs: the median over 9 rounds of
/// 10,000 open/close pairs.
fn span_cost_us() -> f64 {
    let rounds: Vec<f64> = (0..9)
        .map(|_| {
            let mut tracer = Tracer::new(Instant::now(), true);
            let started = Instant::now();
            for i in 0..10_000 {
                let id = tracer.open("calibration", None, i);
                tracer.close(id);
            }
            std::hint::black_box(tracer.spans().len());
            started.elapsed().as_secs_f64() * 1e6 / 10_000.0
        })
        .collect();
    median(&rounds)
}

/// Per request id, the summed duration (µs) of the spans called `name`.
fn per_request(spans: &[Span], name: &str) -> HashMap<usize, f64> {
    let mut out = HashMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *out.entry(span.request).or_insert(0.0) += span.duration_ns() as f64 / 1e3;
    }
    out
}

/// Median over the requests `keep` selects of the spans called `name`.
fn p50(spans: &[Span], name: &str, keep: impl Fn(usize) -> bool) -> f64 {
    let values: Vec<f64> = per_request(spans, name)
        .into_iter()
        .filter(|(id, _)| keep(*id))
        .map(|(_, us)| us)
        .collect();
    median(&values)
}

/// The replay's measurements, ready to be turned into metrics.
pub struct Layers {
    metrics: Vec<Metric>,
    /// Blocking-path medians (µs) for the wire decomposition:
    /// request parse, dispatch, reply serialize.
    path_us: [f64; 3],
    /// Requests the replay could not complete.
    pub failed: usize,
}

/// The metrics a replay's request list alone determines: equal across
/// runs with the same seed.
pub const DETERMINISTIC: [&str; 18] = [
    "engine.nodes_evaluated",
    "engine.histograms_built",
    "engine.emd_calls",
    "engine.emd_cache_hits",
    "engine.pairwise_batches",
    "protocol.reply_bytes",
    "plan.cells",
    "cellcache.hit_ratio",
    "cellcache.hits",
    "cellcache.misses",
    "cellcache.evictions",
    "cellcache.entries",
    "incremental.delta_reused_histograms",
    "incremental.delta_invalidated_emds",
    "incremental.emd_calls",
    "store.bytes",
    "store.datasets",
    "registry.sessions",
];

/// Replays one session of each analyst (grid-explore: after a warm-up
/// session) and measures every layer. Spans go to `spans_path` when
/// given.
pub fn run(
    workload: Workload,
    seed: u64,
    scale: Scale,
    spans_path: Option<&Path>,
) -> Result<Layers, String> {
    let scripts = scripts(workload, seed, scale, replay_sessions(workload));
    let origin = Instant::now();
    let (traced, failed_traced) = concurrent(&scripts, origin);
    let (seq_spans, seq, before, after) = sequential(&scripts, origin);
    if let Some(path) = spans_path {
        write_spans(path, &[("concurrent", &traced), ("sequential", &seq_spans)])
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    // Measured concurrent ids are 2k + analyst, counted within the
    // measured session.
    let class_of = |id: usize| {
        split_warmup(&scripts[id % 2])
            .1
            .get(id / 2)
            .map(|(_, op)| op.class())
    };
    let compute_c = |id: usize| class_of(id) == Some(Class::Compute);
    let compute_s = |id: usize| seq.classes.get(&id) == Some(&Class::Compute);

    let request_parse = p50(&traced, "protocol.request_parse", compute_c);
    let dispatch = p50(&traced, "server.dispatch", compute_c);
    let serialize = p50(&traced, "protocol.reply_serialize", compute_c);
    let command_parse = p50(&seq_spans, "command.parse", compute_s);
    let command_apply = p50(&seq_spans, "command.apply", compute_s);
    let selfs = self_times(&seq_spans);
    // `command.apply` minus its children, as a difference of medians so
    // that the blocking-path terms add up exactly.
    let apply_ids: HashMap<usize, usize> = seq_spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "command.apply")
        .map(|(i, s)| (i, s.request))
        .collect();
    let mut children_by_request: HashMap<usize, f64> = HashMap::new();
    for span in &seq_spans {
        if let Some(request) = span.parent.and_then(|p| apply_ids.get(&p)) {
            *children_by_request.entry(*request).or_insert(0.0) += span.duration_ns() as f64 / 1e3;
        }
    }
    let apply_children = median(
        &seq.classes
            .iter()
            .filter(|(_, class)| **class == Class::Compute)
            .map(|(id, _)| children_by_request.get(id).copied().unwrap_or(0.0))
            .collect::<Vec<_>>(),
    );
    let churn: Vec<f64> = seq_spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "marketplace.run")
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    let search = match workload {
        Workload::GridExplore => median(&seq.miss_cell_us),
        _ => p50(&seq_spans, "engine.search", compute_s),
    };
    let per_compute = |sum: f64| sum / seq.compute.max(1) as f64;
    let per_stream = |sum: f64| sum / seq.streams.max(1) as f64;
    let c = seq.counters;
    let hits = after.cell_cache_hits.saturating_sub(before.cell_cache_hits) as f64;
    let misses = after
        .cell_cache_misses
        .saturating_sub(before.cell_cache_misses) as f64;
    let lookups = hits + misses;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("protocol.request_parse_us", request_parse, "us"),
        metric("command.parse_us", command_parse, "us"),
        metric("server.dispatch_us", dispatch, "us"),
        metric("command.apply_us", command_apply, "us"),
        metric("command.apply_children_us", apply_children, "us"),
        metric(
            "command.apply_self_us",
            command_apply - apply_children,
            "us",
        ),
        metric("engine.search_us", search, "us"),
        metric(
            "engine.nodes_evaluated",
            per_compute(c.nodes_evaluated),
            "count",
        ),
        metric(
            "engine.histograms_built",
            per_compute(c.histograms_built),
            "count",
        ),
        metric("engine.emd_calls", per_compute(c.emd_calls), "count"),
        metric(
            "engine.emd_cache_hits",
            per_compute(c.emd_cache_hits),
            "count",
        ),
        metric(
            "engine.pairwise_batches",
            per_compute(c.pairwise_batches),
            "count",
        ),
        metric("protocol.reply_serialize_us", serialize, "us"),
        metric("protocol.reply_bytes", mean(&seq.reply_bytes), "bytes"),
        metric(
            "pool.wait_us",
            dispatch - command_parse - command_apply,
            "us",
        ),
        metric(
            "plan.compile_us",
            p50(&seq_spans, "plan.compile", |_| true),
            "us",
        ),
        metric(
            "plan.cells",
            seq.cells as f64 / seq.grids.max(1) as f64,
            "count",
        ),
        metric(
            "plan.cell_us",
            {
                let cells: Vec<f64> = seq_spans
                    .iter()
                    .filter(|s| s.name == "plan.cell")
                    .map(|s| s.duration_ns() as f64 / 1e3)
                    .collect();
                median(&cells)
            },
            "us",
        ),
        metric(
            "pool.fanout_efficiency",
            if seq.grid_dispatch_us > 0.0 {
                seq.reported_cell_us / (seq.grid_dispatch_us * 2.0)
            } else {
                0.0
            },
            "ratio",
        ),
        metric(
            "cellcache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        metric("cellcache.hits", hits, "count"),
        metric("cellcache.misses", misses, "count"),
        metric(
            "cellcache.evictions",
            after
                .cell_cache_evictions
                .saturating_sub(before.cell_cache_evictions) as f64,
            "count",
        ),
        metric(
            "cellcache.entries",
            after.cell_cache_entries as f64,
            "count",
        ),
        metric(
            "incremental.requantify_us",
            median(&seq.requantify_us),
            "us",
        ),
        metric(
            "incremental.delta_reused_histograms",
            per_stream(c.delta_reused_histograms),
            "count",
        ),
        metric(
            "incremental.delta_invalidated_emds",
            per_stream(c.delta_invalidated_emds),
            "count",
        ),
        metric(
            "incremental.emd_calls",
            per_stream(c.stream_emd_calls),
            "count",
        ),
        metric(
            "synth.generate_us",
            p50(&seq_spans, "synth.generate", |_| true),
            "us",
        ),
        metric("marketplace.churn_us", median(&churn), "us"),
        metric("store.bytes", after.store_bytes as f64, "bytes"),
        metric("store.datasets", after.store_datasets as f64, "count"),
        metric("registry.sessions", after.sessions.len() as f64, "count"),
        metric("trace.overhead_us", span_cost_us() * 4.0, "us"),
    ];
    Ok(Layers {
        metrics,
        path_us: [request_parse, dispatch, serialize],
        failed: failed_traced + seq.failed,
    })
}

impl Layers {
    /// Every layer metric. `wire_p50_ms` is the wire run's
    /// `latency_p50_ms`; what the in-process blocking path does not
    /// account for of it is `eventloop.residual_us`.
    pub fn metrics(&self, wire_p50_ms: f64) -> Vec<Metric> {
        let mut metrics = self.metrics.clone();
        metrics.push(Metric {
            name: "eventloop.residual_us",
            value: wire_p50_ms * 1e3 - self.path_us.iter().sum::<f64>(),
            unit: "us",
        });
        metrics
    }

    /// The value of one metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}
