//! Pins the point of the scenario-plan redesign: a multi-cell grid fanned
//! across a ≥4-worker pool beats the same grid run on a single worker in
//! wall-clock, while producing bit-identical results. (Before the plan
//! layer, a grid request occupied exactly one pool slot no matter how many
//! workers the server had.)

use std::sync::mpsc;
use std::time::{Duration, Instant};

use fairank_core::emd::EmdBackendKind;
use fairank_core::fairness::{Aggregator, Objective};
use fairank_data::synth;
use fairank_service::{JobClass, WorkerPool};
use fairank_session::plan::{
    compile, CriterionGrid, Perspective, ScenarioOutcome, ScenarioReport, ScenarioSpec,
};
use fairank_session::Session;

fn session() -> Session {
    let mut s = Session::new();
    let dataset = synth::biased_crowdsourcing_spec(4_000, 11)
        .generate()
        .expect("synthetic population");
    s.add_dataset("pop", dataset).expect("fresh session");
    s.add_function(
        "f",
        fairank_core::scoring::LinearScoring::builder()
            .weight("rating", 0.7)
            .weight("language_test", 0.3)
            .build_unchecked()
            .expect("static scoring"),
    )
    .expect("fresh session");
    s
}

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        perspective: Perspective::Grid {
            datasets: vec!["pop".into()],
            functions: vec!["f".into()],
            filter: None,
        },
        strategy: None,
        criteria: Some(CriterionGrid {
            objectives: vec![Objective::MostUnfair],
            aggregators: vec![
                Aggregator::Mean,
                Aggregator::Max,
                Aggregator::Min,
                Aggregator::Variance,
            ],
            bins: vec![10, 14],
            emds: vec![EmdBackendKind::OneD],
        }),
    }
}

/// Runs the spec's cells through a pool of `workers`, returning the report
/// and the wall-clock of the execution.
fn run_on_pool(workers: usize) -> (ScenarioReport, Duration) {
    let mut s = session();
    let plan = compile(&s, &spec()).expect("compile grid");
    assert_eq!(plan.cell_count(), 8, "the grid is 1×1×4×2 cells");
    // Deep enough to queue every cell at once.
    let pool = WorkerPool::new(workers, 8);
    let start = Instant::now();
    let report = plan
        .run_with(&mut s, |cells| {
            let receivers: Vec<_> = cells
                .into_iter()
                .map(|cell| {
                    let (tx, rx) = mpsc::channel();
                    pool.submit("grid", JobClass::Compute, move || {
                        let _ = tx.send(cell.execute());
                    })
                    .expect("every cell fits the queue");
                    rx
                })
                .collect();
            receivers
                .into_iter()
                .map(|rx| rx.recv().expect("cells do not panic"))
                .collect()
        })
        .expect("grid runs");
    (report, start.elapsed())
}

#[test]
fn multi_worker_grid_beats_single_worker_wall_clock() {
    // Warm up allocators/caches so neither measurement pays first-run
    // costs.
    let _ = run_on_pool(2);

    let (serial_report, serial) = run_on_pool(1);
    let (parallel_report, parallel) = run_on_pool(4);

    // Same cells, same results, regardless of worker count.
    let (ScenarioOutcome::Grid(serial_rows), ScenarioOutcome::Grid(parallel_rows)) =
        (&serial_report.outcome, &parallel_report.outcome)
    else {
        panic!("expected grid outcomes");
    };
    assert_eq!(serial_rows.len(), 8);
    for (a, b) in serial_rows.iter().zip(parallel_rows) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.unfairness, b.unfairness, "cell {} diverged", a.config);
        assert_eq!(a.partitions, b.partitions);
    }

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 2 {
        eprintln!(
            "plan_parallel: host has a single core; speedup assertion skipped \
             (serial {serial:?}, parallel {parallel:?})"
        );
        return;
    }
    // With ≥2 cores and 4 workers, the 8-cell fan-out must beat one worker
    // outright. The bar is deliberately lenient (any speedup at all) so
    // the test stays robust on loaded CI hosts; real hosts see ~min(4,
    // cores)×.
    assert!(
        parallel < serial,
        "4-worker grid ({parallel:?}) is not faster than 1-worker ({serial:?})"
    );
}
