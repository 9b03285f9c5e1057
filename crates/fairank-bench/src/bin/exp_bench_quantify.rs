//! BENCH — the QUANTIFY perf trajectory, machine-readable.
//!
//! Runs the split-engine and naive evaluations head-to-head on the tracked
//! reference configurations (two small interactive shapes, then population
//! × attribute sweeps around the 10k / 8-attribute point), verifies they
//! agree bit-for-bit, and emits
//! `BENCH_quantify.json` with wall-clock times and `SearchStats` work
//! counters so the perf trajectory is comparable across PRs.
//!
//! Usage: `exp_bench_quantify [--smoke] [--out PATH]`
//!
//! `--smoke` shrinks the configurations so CI can run the emitter in
//! seconds and upload the JSON as an artifact.

use std::time::Instant;

use fairank_bench::{header, row, synthetic_space};
use fairank_core::fairness::FairnessCriterion;
use fairank_core::quantify::{Quantify, QuantifyOutcome};
use fairank_core::space::RankingSpace;
use serde::Serialize;

/// One (configuration, evaluation mode) measurement.
#[derive(Debug, Serialize)]
struct BenchRecord {
    n: u64,
    attrs: u64,
    cardinality: u64,
    /// `"engine"` or `"naive"`.
    mode: String,
    /// Best-of-3 wall-clock milliseconds.
    wall_ms: f64,
    partitions: u64,
    unfairness: f64,
    nodes_evaluated: u64,
    candidate_splits: u64,
    splits_performed: u64,
    histograms_built: u64,
    emd_calls: u64,
    emd_cache_hits: u64,
    pairwise_batches: u64,
}

/// The emitted report.
#[derive(Debug, Serialize)]
struct BenchReport {
    experiment: String,
    smoke: bool,
    records: Vec<BenchRecord>,
}

fn measure(quantify: &Quantify, space: &RankingSpace) -> (f64, QuantifyOutcome) {
    // Warm once, then best-of-3: this tracks interactive latency.
    let mut outcome = quantify.run_space(space).expect("quantify runs");
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        outcome = quantify.run_space(space).expect("quantify runs");
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best, outcome)
}

fn record(n: usize, attrs: usize, card: u32, mode: &str, ms: f64, o: &QuantifyOutcome) -> BenchRecord {
    BenchRecord {
        n: n as u64,
        attrs: attrs as u64,
        cardinality: card as u64,
        mode: mode.to_string(),
        wall_ms: ms,
        partitions: o.partitions.len() as u64,
        unfairness: o.unfairness,
        nodes_evaluated: o.stats.nodes_evaluated as u64,
        candidate_splits: o.stats.candidate_splits as u64,
        splits_performed: o.stats.splits_performed as u64,
        histograms_built: o.stats.histograms_built as u64,
        emd_calls: o.stats.emd_calls as u64,
        emd_cache_hits: o.stats.emd_cache_hits as u64,
        pairwise_batches: o.stats.pairwise_batches as u64,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_quantify.json")
        .to_string();

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

    header(
        "BENCH",
        "QUANTIFY split engine vs. naive evaluation (emits BENCH_quantify.json)",
    );
    let widths = [8, 6, 8, 12, 12, 11, 11, 11];
    row(
        &[
            "n".into(),
            "attrs".into(),
            "mode".into(),
            "wall ms".into(),
            "histograms".into(),
            "EMD calls".into(),
            "cache hits".into(),
            "unfairness".into(),
        ],
        &widths,
    );

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
            row(
                &[
                    format!("{n}"),
                    format!("{attrs}"),
                    mode.into(),
                    format!("{ms:.2}"),
                    format!("{}", o.stats.histograms_built),
                    format!("{}", o.stats.emd_calls),
                    format!("{}", o.stats.emd_cache_hits),
                    format!("{:.4}", o.unfairness),
                ],
                &widths,
            );
            records.push(record(n, attrs, card, mode, ms, o));
        }
    }

    let report = BenchReport {
        experiment: "bench_quantify".to_string(),
        smoke,
        records,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("report is writable");
    println!(
        "\nRESULT: identical search results; the engine spends a fraction of \
         the naive histogram/EMD work. Wrote {out_path}."
    );
}
