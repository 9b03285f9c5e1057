//! `cache` — content-addressed dataset store + memoized plan-cell cache.
//!
//! Two claims of the caching subsystem are measured and gated on the
//! tracked 10k / 8-attribute reference shape (one wide region-like
//! attribute of cardinality 12 plus seven narrow demographic ones):
//!
//! 1. **Warm-hit speedup** — a scenario grid whose cells are all resident
//!    in the cell cache answers ≥10× faster than the cold run that
//!    computed them (full shape only; smoke timings are
//!    microseconds-scale), and at least the baseline / 1.5. Every served
//!    cell is verified bit-identical to the cold outcome before the clock
//!    is trusted.
//! 2. **Shared-storage memory** — 8 sessions loading the same dataset
//!    through one `DatasetStore` hold it once: resident store bytes stay
//!    strictly under 2× what a single session needs (the un-deduplicated
//!    cost would be 8×). The byte counts and cache counters are exact.

use std::sync::Arc;
use std::time::Instant;

use fairank_bench::{percentile, BenchRecord, Bound};
use fairank_core::emd::EmdBackendKind;
use fairank_core::fairness::{Aggregator, Objective};
use fairank_core::plan::SearchStrategy;
use fairank_data::schema::AttributeRole;
use fairank_data::Dataset;
use fairank_session::command::{apply, Command};
use fairank_session::plan::{
    self, CriterionGrid, Perspective, ScenarioOutcome, ScenarioReport, ScenarioSpec,
};
use fairank_session::{CellCache, DatasetStore, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference dataset as session-loadable columns: protected
/// categoricals `a0..` with the tracked cardinalities, plus an observed
/// `score` with the planted 0.3 gap on value 0 of attribute 0 (the same
/// distribution `synthetic_space_mixed` plants, expressed as a dataset).
fn reference_dataset(n: usize, cards: &[u32], seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = Dataset::builder();
    let mut codes0 = Vec::new();
    for (a, &card) in cards.iter().enumerate() {
        let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..card)).collect();
        if a == 0 {
            codes0 = codes.clone();
        }
        let values: Vec<String> = codes.iter().map(|c| format!("v{c}")).collect();
        builder = builder.categorical(format!("a{a}"), AttributeRole::Protected, &values);
    }
    let bias = 0.3;
    let scores: Vec<f64> = (0..n)
        .map(|i| {
            let base: f64 = rng.gen_range(0.0..1.0 - bias);
            if codes0[i] == 0 {
                base
            } else {
                (base + bias).min(1.0)
            }
        })
        .collect();
    builder
        .float("score", AttributeRole::Observed, scores)
        .build()
        .expect("reference dataset is valid")
}

/// A session holding the reference dataset (interned through `store`) and
/// the scoring function the grid ranks by.
fn seeded_session(store: &Arc<DatasetStore>, dataset: &Dataset) -> Session {
    let mut session = Session::with_store(Arc::clone(store));
    session
        .add_dataset("pop", dataset.clone())
        .expect("dataset registers");
    apply(&mut session, Command::parse("define f score*1.0").unwrap())
        .expect("scoring function registers");
    session
}

/// The benched grid: 2 objectives × 2 aggregators × both EMD metrics =
/// 8 cells.
fn grid_spec(min_partition: usize) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new(Perspective::Grid {
        datasets: vec!["pop".into()],
        functions: vec!["f".into()],
        filter: None,
    });
    spec.strategy = Some(SearchStrategy::Quantify {
        max_depth: None,
        min_partition,
    });
    spec.criteria = Some(CriterionGrid {
        objectives: vec![Objective::MostUnfair, Objective::LeastUnfair],
        aggregators: vec![Aggregator::Mean, Aggregator::Max],
        bins: vec![10],
        emds: EmdBackendKind::all().to_vec(),
    });
    spec
}

/// Runs the grid on a fresh session with every cell routed through the
/// cache, returning the report and the elapsed wall-clock.
fn run_grid(
    store: &Arc<DatasetStore>,
    dataset: &Dataset,
    spec: &ScenarioSpec,
    cache: &CellCache,
) -> (ScenarioReport, f64) {
    let mut session = seeded_session(store, dataset);
    let t = Instant::now();
    let report = plan::compile(&session, spec)
        .expect("grid compiles")
        .execute_with(|cells| {
            cells
                .into_iter()
                .map(|cell| cell.execute_cached(cache))
                .collect()
        })
        .finish(Some(&mut session))
        .expect("grid runs");
    (report, t.elapsed().as_secs_f64() * 1e6)
}

pub fn run(smoke: bool) -> Vec<BenchRecord> {
    // (n, cardinalities, min partition size, warm reps)
    let (n, cards, min_part, reps) = if smoke {
        (600, vec![4u32, 3, 3, 2], 5, 3)
    } else {
        (10_000, vec![12u32, 3, 3, 3, 3, 3, 3, 3], 300, 5)
    };

    let dataset = reference_dataset(n, &cards, 7);
    let store = Arc::new(DatasetStore::new());
    let cache = CellCache::new(CellCache::DEFAULT_CAP);
    let spec = grid_spec(min_part);

    // Cold: every cell computed and published.
    let (cold_report, cold_us) = run_grid(&store, &dataset, &spec, &cache);
    let cells = cold_report.cells.len() as u64;
    assert!(
        cold_report.cells.iter().all(|c| c.cache_misses == 1),
        "cold run must compute every cell"
    );

    // Warm: reruns served entirely from the cache, each verified
    // bit-identical to the cold outcome before its timing counts.
    let mut warm_us = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (warm_report, us) = run_grid(&store, &dataset, &spec, &cache);
        assert!(
            warm_report.cells.iter().all(|c| c.cache_hits == 1),
            "warm run must be served entirely from cache"
        );
        let (ScenarioOutcome::Grid(cold_rows), ScenarioOutcome::Grid(warm_rows)) =
            (&cold_report.outcome, &warm_report.outcome)
        else {
            unreachable!("grid specs reduce to grid outcomes");
        };
        for (c, w) in cold_rows.iter().zip(warm_rows) {
            assert_eq!(
                c.unfairness.to_bits(),
                w.unfairness.to_bits(),
                "{}: cached outcome must be bit-identical to the cold compute",
                c.config
            );
            assert_eq!(c.partitions, w.partitions, "{}", c.config);
        }
        warm_us.push(us);
    }
    let warm_p50 = percentile(&warm_us, 50.0);
    let warm_speedup = cold_us / warm_p50;

    // Memory: 8 sessions interning the same dataset share one allocation.
    let single = seeded_session(&store, &dataset);
    let single_bytes = store.stats().bytes as u64;
    let per_copy = single
        .dataset_handle("pop")
        .expect("dataset registered")
        .heap_bytes() as u64;
    let fleet: Vec<Session> = (0..8).map(|_| seeded_session(&store, &dataset)).collect();
    let shared_bytes = store.stats().bytes as u64;
    drop(fleet);
    drop(single);
    let unshared_bytes = 8 * per_copy;
    let mem_ratio = shared_bytes as f64 / single_bytes.max(1) as f64;

    let stats = cache.stats();
    let workload = crate::mixed_shape(n, &cards, min_part);
    let record = |metric: &str, unit: &str, value: f64, samples: usize| {
        BenchRecord::new("cache", &workload, metric, unit, value, samples as u64)
    };
    let speedup_floor = if smoke {
        Vec::new()
    } else {
        vec![Bound::AtLeast(10.0)]
    };
    vec![
        record("cells", "count", cells as f64, 1).exact(),
        record("cold_us", "us", cold_us, 1),
        record("warm_p50_us", "us", warm_p50, reps),
        record("warm_speedup", "ratio", warm_speedup, reps)
            .bounded([speedup_floor, vec![Bound::AtLeastBaselineOver(1.5)]].concat()),
        record("cache_hits", "count", stats.hits as f64, 1).exact(),
        record("cache_misses", "count", stats.misses as f64, 1).exact(),
        record("single_session_bytes", "bytes", single_bytes as f64, 1).exact(),
        record("shared_bytes_8_sessions", "bytes", shared_bytes as f64, 1).exact(),
        record(
            "unshared_bytes_8_sessions",
            "bytes",
            unshared_bytes as f64,
            1,
        )
        .exact(),
        record("mem_ratio_8_sessions", "ratio", mem_ratio, 1).bounded(vec![Bound::Below(2.0)]),
    ]
}
