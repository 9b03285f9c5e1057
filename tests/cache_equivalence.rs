//! The correctness contract of the cross-session cell cache: a scenario
//! cell served from the cache is *bitwise-identical* to the same cell
//! computed fresh — same unfairness bits, same partitions, same rendered
//! rows — under both EMD metrics. The cache is pure memoization over the
//! deterministic engine; these tests freeze that claim, plus the
//! operational edges: eviction forces a recompute that still matches, and
//! concurrent claimants of one key coalesce into a single compute.

use std::sync::{Arc, Barrier};

use fairank::core::emd::EmdBackendKind;
use fairank::core::fairness::{Aggregator, Objective};
use fairank::session::command::{apply, Command};
use fairank::session::plan::{self, CriterionGrid, Perspective, ScenarioReport, ScenarioSpec};
use fairank::session::{CellCache, DatasetStore, Session};

/// A session with one synthetic dataset and two scoring functions, built
/// against `store` so every test session shares dataset storage the way
/// registry sessions do.
fn seeded_session(store: Arc<DatasetStore>) -> Session {
    let mut session = Session::with_store(store);
    for line in [
        "generate pop biased n=120 seed=7",
        "define f rating*1.0",
        "define g rating*0.5+language_test*0.5",
    ] {
        apply(&mut session, Command::parse(line).unwrap()).unwrap();
    }
    session
}

/// A grid spec over both functions × objectives × aggregators under one
/// EMD backend: 8 cells, all cacheable.
fn grid_spec(backend: EmdBackendKind) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(Perspective::Grid {
        datasets: vec!["pop".into()],
        functions: vec!["f".into(), "g".into()],
        filter: None,
    });
    spec.criteria = Some(CriterionGrid {
        objectives: vec![Objective::MostUnfair, Objective::LeastUnfair],
        aggregators: vec![Aggregator::Mean, Aggregator::Max],
        bins: vec![10],
        emds: vec![backend],
    });
    spec
}

/// Runs the spec on `session` with every cell routed through `cache`.
fn run_cached(
    session: &mut Session,
    spec: &ScenarioSpec,
    cache: &Arc<CellCache>,
) -> ScenarioReport {
    plan::compile(session, spec)
        .unwrap()
        .with_cell_cache(cache)
        .execute_with(plan::run_cells_sequential)
        .finish(Some(session))
        .unwrap()
}

/// Asserts two reports carry bitwise-identical results: grid rows must
/// match on the exact f64 bit pattern of unfairness, not an epsilon, and
/// every per-cell stat except wall-clock and the cache counters (which
/// differ by design between a computing and a served run) must be equal.
fn assert_bitwise_identical(fresh: &ScenarioReport, cached: &ScenarioReport) {
    assert_eq!(fresh.perspective, cached.perspective);
    assert_eq!(fresh.strategy, cached.strategy);
    assert_eq!(fresh.outcome, cached.outcome);
    let (plan::ScenarioOutcome::Grid(a), plan::ScenarioOutcome::Grid(b)) =
        (&fresh.outcome, &cached.outcome)
    else {
        panic!("grid specs reduce to grid outcomes");
    };
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.config, y.config);
        assert_eq!(
            x.unfairness.to_bits(),
            y.unfairness.to_bits(),
            "unfairness of {} differs in bits",
            x.config
        );
        assert_eq!(x.partitions, y.partitions);
    }
    assert_eq!(fresh.cells.len(), cached.cells.len());
    for (x, y) in fresh.cells.iter().zip(&cached.cells) {
        let mut x = x.clone();
        let mut y = y.clone();
        x.elapsed_us = 0;
        y.elapsed_us = 0;
        x.cache_hits = 0;
        y.cache_hits = 0;
        x.cache_misses = 0;
        y.cache_misses = 0;
        assert_eq!(x, y, "cell stats diverged beyond wall-clock/cache counters");
    }
}

#[test]
fn cached_reruns_are_bitwise_identical_under_every_emd_backend() {
    for backend in EmdBackendKind::all() {
        let store = Arc::new(DatasetStore::new());
        let cache = Arc::new(CellCache::new(64));
        let spec = grid_spec(backend);

        // Oracle: the same grid with the cache disabled — pure computes.
        let mut fresh_session = seeded_session(Arc::clone(&store));
        let fresh = run_cached(&mut fresh_session, &spec, &Arc::new(CellCache::new(0)));

        // First cached run populates; second run (new session, same
        // content) is served entirely from the cache.
        let mut warm_session = seeded_session(Arc::clone(&store));
        let first = run_cached(&mut warm_session, &spec, &cache);
        let mut served_session = seeded_session(Arc::clone(&store));
        let served = run_cached(&mut served_session, &spec, &cache);

        assert_bitwise_identical(&fresh, &first);
        assert_bitwise_identical(&fresh, &served);
        assert!(
            first.cells.iter().all(|c| c.cache_misses == 1),
            "{backend:?}: first run must compute every cell"
        );
        assert!(
            served.cells.iter().all(|c| c.cache_hits == 1),
            "{backend:?}: second run must be served entirely from cache"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 8, "{backend:?}");
        assert_eq!(stats.hits, 8, "{backend:?}");
        assert_eq!(stats.evictions, 0, "{backend:?}");
    }
}

#[test]
fn distinct_backends_occupy_distinct_cache_keys() {
    // The backend is part of the cache key: a transport-backend grid must
    // never be served a memoized 1d outcome, even over the same dataset,
    // function and criterion shape.
    let store = Arc::new(DatasetStore::new());
    let cache = Arc::new(CellCache::new(64));
    let mut session = seeded_session(Arc::clone(&store));
    run_cached(&mut session, &grid_spec(EmdBackendKind::OneD), &cache);
    let report = run_cached(&mut session, &grid_spec(EmdBackendKind::Transport), &cache);
    assert!(
        report.cells.iter().all(|c| c.cache_misses == 1),
        "a different EMD backend must miss, not alias the 1d entries"
    );
    assert_eq!(cache.stats().entries, 16);
}

#[test]
fn retired_backend_names_share_the_one_d_cache_key() {
    // `kernel` is an alias of `1d`, not a metric of its own: a cell
    // computed under it serves the same grid spelled `emd=1d`.
    let store = Arc::new(DatasetStore::new());
    let cache = Arc::new(CellCache::new(64));
    let mut session = seeded_session(Arc::clone(&store));
    let grid = |emd: &str| {
        let line = format!("scenario grid pop f emd={emd}");
        match Command::parse(&line).unwrap() {
            Command::RunScenario { spec } => *spec,
            other => panic!("unexpected {other:?}"),
        }
    };
    let first = run_cached(&mut session, &grid("kernel"), &cache);
    assert_eq!(first.cells.len(), 1);
    assert_eq!(first.cells[0].cache_misses, 1);
    let second = run_cached(&mut session, &grid("1d"), &cache);
    assert_eq!(second.cells.len(), 1);
    assert_eq!(second.cells[0].cache_hits, 1, "emd=1d must hit the kernel-spelled entry");
    assert_eq!(cache.stats().entries, 1);
}

#[test]
fn eviction_forces_a_recompute_that_still_matches() {
    let store = Arc::new(DatasetStore::new());
    // Cap 2 under an 8-cell grid: entries churn through the LRU on every
    // run, so the rerun recomputes most cells instead of being served.
    let cache = Arc::new(CellCache::new(2));
    let spec = grid_spec(EmdBackendKind::OneD);

    let mut first_session = seeded_session(Arc::clone(&store));
    let first = run_cached(&mut first_session, &spec, &cache);
    assert!(cache.stats().evictions > 0, "cap 2 must evict under 8 cells");

    let mut second_session = seeded_session(Arc::clone(&store));
    let second = run_cached(&mut second_session, &spec, &cache);
    assert_bitwise_identical(&first, &second);
    // The recomputed cells are indistinguishable from the originals; the
    // cache never holds more than its cap.
    assert!(cache.stats().entries <= 2);
    assert!(second.cells.iter().any(|c| c.cache_misses == 1));
}

#[test]
fn concurrent_sessions_coalesce_to_one_compute_per_cell() {
    // 8 clients fire the same 1-cell grid at once. Single-flight must fold
    // them into exactly one compute — misses counts actual computes, so
    // the stats are the proof, not a timing heuristic.
    const CLIENTS: usize = 8;
    let store = Arc::new(DatasetStore::new());
    let cache = Arc::new(CellCache::new(64));
    let mut spec = grid_spec(EmdBackendKind::OneD);
    spec.criteria = Some(CriterionGrid {
        objectives: vec![Objective::MostUnfair],
        aggregators: vec![Aggregator::Mean],
        bins: vec![10],
        emds: vec![EmdBackendKind::OneD],
    });

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut threads = Vec::new();
    for _ in 0..CLIENTS {
        let store = Arc::clone(&store);
        let cache = Arc::clone(&cache);
        let spec = spec.clone();
        let barrier = Arc::clone(&barrier);
        threads.push(std::thread::spawn(move || {
            let mut session = seeded_session(store);
            barrier.wait();
            run_cached(&mut session, &spec, &cache)
        }));
    }
    let reports: Vec<ScenarioReport> =
        threads.into_iter().map(|t| t.join().unwrap()).collect();

    let stats = cache.stats();
    assert_eq!(
        stats.misses, 2,
        "one compute per distinct cell (f and g), no duplicates"
    );
    assert_eq!(stats.hits as usize, 2 * CLIENTS - 2);
    for report in &reports[1..] {
        assert_bitwise_identical(&reports[0], report);
    }
}
