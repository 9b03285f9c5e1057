//! BENCH — the one bench harness.
//!
//! Runs every section at its tracked shape and writes each measured
//! number as one [`BenchRecord`] (see `fairank_bench`) to one JSON file:
//!
//! * `quantify` — the split engine against the naive evaluation;
//! * `incremental` — delta re-quantify against a full recompute, and one
//!   `stream` re-audit layer by layer;
//! * `cache` — a cold scenario grid against cache-served reruns, and the
//!   dataset store's memory shared by 8 sessions;
//! * `serve` — the event loop under 1,000 open connections;
//! * `micro` — histogram, pairwise EMD, anonymization and marketplace
//!   operations, recorded only.
//!
//! Counts and `unfairness` are gated exactly; wall-clock numbers carry
//! their own bounds or are recorded only. Each section also asserts its
//! bit-identity contract while it measures (engine vs naive, delta vs
//! full, cached vs cold).
//!
//! Usage: `exp_bench [--smoke] [--out PATH] [--check BASELINE]`
//!
//! * `--out` — where the records go (default `BENCH.json`, the committed
//!   baseline);
//! * `--check` — gate the run against a baseline: every failing record is
//!   printed and the exit status is 1;
//! * `--smoke` — shrink every section to a seconds-long shape (the
//!   harness's own end-to-end test).

mod cache;
mod incremental;
mod micro;
mod quantify;
mod serve;

use fairank_bench::{check, header, read_records, row, write_records, BenchArgs, BenchRecord};

/// A section measures at the smoke shape when passed `true`.
type Section = fn(bool) -> Vec<BenchRecord>;

/// The sections, in run order.
const SECTIONS: [(&str, Section); 5] = [
    ("quantify", quantify::run),
    ("incremental", incremental::run),
    ("cache", cache::run),
    ("serve", serve::run),
    ("micro", micro::run),
];

/// The workload name of the mixed-cardinality reference shape, e.g.
/// `n10000_cards12-3-3-3-3-3-3-3_mp300`.
fn mixed_shape(n: usize, cards: &[u32], min_part: usize) -> String {
    let cards: Vec<String> = cards.iter().map(u32::to_string).collect();
    format!("n{n}_cards{}_mp{min_part}", cards.join("-"))
}

fn main() {
    let args = BenchArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", BenchArgs::USAGE);
        std::process::exit(2);
    });
    // Read the baseline first, so a bad path fails before the run.
    let baseline = args.check.as_deref().map(|path| {
        read_records(path).unwrap_or_else(|e| {
            eprintln!("cannot read the baseline: {e}");
            std::process::exit(2);
        })
    });

    let mut records = Vec::new();
    for (name, section) in SECTIONS {
        header("BENCH", &format!("section {name}"));
        let measured = section(args.smoke);
        let widths = [40, 26, 16, 6];
        for r in &measured {
            row(
                &[
                    r.workload.clone(),
                    r.metric.clone(),
                    format!("{:.4}", r.value),
                    r.unit.clone(),
                ],
                &widths,
            );
        }
        records.extend(measured);
    }
    write_records(&args.out, &records).expect("the records are writable");
    println!(
        "\nwrote {} records to {}",
        records.len(),
        args.out.display()
    );

    let Some(baseline) = baseline else { return };
    let verdict = check(&baseline, &records);
    for id in &verdict.new {
        println!("new (not in the baseline, passes): {id}");
    }
    for failure in &verdict.failures {
        println!("FAIL {failure}");
    }
    if !verdict.failures.is_empty() {
        println!(
            "{} of {} baseline records failed",
            verdict.failures.len(),
            baseline.len()
        );
        std::process::exit(1);
    }
    println!("all {} baseline records pass", baseline.len());
}
