//! `quantify` — the QUANTIFY perf trajectory.
//!
//! Runs the split-engine and naive evaluations head-to-head on the tracked
//! reference configurations (two small interactive shapes, then population
//! × attribute sweeps around the 10k / 8-attribute point), verifies they
//! agree bit-for-bit, and records the best-of-3 wall-clock and every
//! `SearchStats` work counter (exact) per configuration and mode.
//!
//! A second workload times the cells of one cold `scenario grid` — the 8
//! criteria (2 objectives × 4 aggregators) on 10k `biased` rows, seed 21 —
//! whose heaviest cells fold a few hundred leaves: the wall-clock of the
//! heaviest cell and of the 8 cells' sum (recorded only) and the cells'
//! summed EMD and histogram counters (exact).

use fairank_bench::{synthetic_space, time_us, BenchRecord};
use fairank_core::fairness::{Aggregator, FairnessCriterion, Objective};
use fairank_core::quantify::{Quantify, QuantifyOutcome};
use fairank_core::scoring::{LinearScoring, ScoreSource};
use fairank_core::space::RankingSpace;
use fairank_data::synth::biased_crowdsourcing_spec;

fn measure(quantify: &Quantify, space: &RankingSpace) -> (f64, QuantifyOutcome) {
    // Warm once, then best-of-3: this tracks interactive latency.
    let mut outcome = None;
    let best_us = time_us(3, 1, || {
        outcome = Some(quantify.run_space(space).expect("quantify runs"))
    })
    .into_iter()
    .fold(f64::INFINITY, f64::min);
    (best_us / 1e3, outcome.expect("quantify ran"))
}

/// The grid-cell workload: one cold search per grid criterion.
fn grid_cells(smoke: bool) -> Vec<BenchRecord> {
    let n = if smoke { 600 } else { 10_000 };
    let dataset = biased_crowdsourcing_spec(n, 21)
        .generate()
        .expect("the biased preset generates");
    let f = LinearScoring::builder()
        .weight("rating", 0.7)
        .weight("language_test", 0.3)
        .build(&dataset)
        .expect("the function's columns exist");
    let space = dataset
        .to_space(&ScoreSource::Function(f))
        .expect("the space builds");
    let (mut cell_ms, mut counters) = (Vec::new(), [0usize; 3]);
    for objective in [Objective::MostUnfair, Objective::LeastUnfair] {
        for aggregator in [
            Aggregator::Mean,
            Aggregator::Max,
            Aggregator::Min,
            Aggregator::Variance,
        ] {
            let search = Quantify::new(FairnessCriterion::new(objective, aggregator));
            let (ms, outcome) = measure(&search, &space);
            cell_ms.push(ms);
            let s = &outcome.stats;
            for (sum, value) in counters
                .iter_mut()
                .zip([s.emd_calls, s.emd_cache_hits, s.histograms_built])
            {
                *sum += value;
            }
        }
    }
    let workload = format!("biased_n{n}_seed21_grid8/engine");
    let record = |metric: &str, unit: &str, value: f64, samples: u64| {
        BenchRecord::new("quantify", &workload, metric, unit, value, samples)
    };
    let heaviest = cell_ms.iter().copied().fold(0.0, f64::max);
    let mut records = vec![
        record("heaviest_cell_ms", "ms", heaviest, 3),
        record("cells_sum_ms", "ms", cell_ms.iter().sum(), 3),
    ];
    for (metric, value) in ["emd_calls", "emd_cache_hits", "histograms_built"]
        .into_iter()
        .zip(counters)
    {
        records.push(record(metric, "count", value as f64, 1).exact());
    }
    records
}

pub fn run(smoke: bool) -> Vec<BenchRecord> {
    let configs: &[(usize, usize, u32)] = if smoke {
        &[(200, 3, 3), (500, 4, 3)]
    } else {
        &[
            (200, 2, 3),
            (600, 3, 4),
            (1_000, 4, 3),
            (10_000, 4, 3),
            (10_000, 8, 3),
        ]
    };

    let engine = Quantify::new(FairnessCriterion::default());
    let naive = Quantify::new(FairnessCriterion::default()).with_naive_evaluation();
    let mut records = Vec::new();
    for &(n, attrs, card) in configs {
        let space = synthetic_space(n, attrs, card, 0.3, 7);
        let (engine_ms, engine_out) = measure(&engine, &space);
        let (naive_ms, naive_out) = measure(&naive, &space);
        assert_eq!(
            engine_out.unfairness, naive_out.unfairness,
            "engine and naive evaluations must agree bit-for-bit"
        );
        assert_eq!(engine_out.partitions, naive_out.partitions);
        for (mode, ms, o) in [
            ("engine", engine_ms, &engine_out),
            ("naive", naive_ms, &naive_out),
        ] {
            let workload = format!("n{n}_a{attrs}_c{card}/{mode}");
            let record = |metric: &str, unit: &str, value: f64, samples: u64| {
                BenchRecord::new("quantify", &workload, metric, unit, value, samples)
            };
            records.push(record("wall_ms", "ms", ms, 3));
            records.push(record("partitions", "count", o.partitions.len() as f64, 1).exact());
            records.push(record("unfairness", "score", o.unfairness, 1).exact());
            let s = &o.stats;
            for (metric, value) in [
                ("nodes_evaluated", s.nodes_evaluated),
                ("candidate_splits", s.candidate_splits),
                ("splits_performed", s.splits_performed),
                ("histograms_built", s.histograms_built),
                ("emd_calls", s.emd_calls),
                ("emd_cache_hits", s.emd_cache_hits),
                ("pairwise_batches", s.pairwise_batches),
            ] {
                records.push(record(metric, "count", value as f64, 1).exact());
            }
        }
    }
    records.extend(grid_cells(smoke));
    records
}
