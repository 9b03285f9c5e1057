//! BENCH — incremental delta re-quantify vs. full recompute.
//!
//! Streams segment-local churn rounds through a [`DeltaEngine`] on the
//! tracked 10k / 8-attribute reference shape (one wide region-like
//! attribute of cardinality 12 plus seven narrow demographic ones, the
//! same mixed profile real marketplaces show), times each delta
//! re-quantify against a from-scratch `Quantify` over the identical
//! mutated space, verifies the two agree bit-for-bit every round under
//! both EMD metrics, and emits `BENCH_incremental.json` with p50/p99
//! latencies and the delta-vs-full speedup so the trajectory is
//! comparable across PRs.
//!
//! The speedup compares re-quantifies only. A churn round also pays
//! [`DeltaEngine::apply`] (space mutation, dirty-path patching, orphan
//! invalidation), which the full recompute's timing does not include
//! either; each record reports it separately (`apply_p50_us`,
//! `apply_p99_us`) and as part of the whole round (`round_p50_us`, the
//! p50 of apply + re-quantify per round).
//!
//! The churn model mirrors the marketplace stream subsystem
//! (`fairank-marketplace::stream`): each round, 1% of the catalog churns
//! inside one randomly chosen audited segment — a burst of rating
//! feedback (the stream's boost/decay drift), donor-cloned arrivals, and
//! departures, population held constant. Bursts cluster by segment in a
//! live marketplace (one task category's ratings land together), which is
//! exactly the locality the dirty-path propagation is designed for; the
//! differential suite separately pins bitwise identity under adversarial
//! *uniform* churn.
//!
//! Usage: `exp_bench_incremental [--smoke] [--out PATH]`
//!
//! `--smoke` (or `FAIRANK_BENCH_SMOKE=1`) shrinks the shape and round
//! count so CI can run the emitter in seconds and upload the JSON as an
//! artifact. The absolute in-binary floor (tracked backend must stay
//! ≥3× full recompute) is deliberately conservative so machine noise
//! never trips it; the committed baseline records the real ≥5× number
//! and CI's relative gate catches regressions against it (on the p50
//! speedup — the p99 ratio is a tail-vs-tail quotient and swings ±40%
//! run to run, too wide for a tight relative gate).
//!
//! A second section, the top-level `stream` object, measures one `stream`
//! re-audit at the wire benchmark's shape (`taskrabbit`, 3,000 workers,
//! 200 rounds; 12 streams over the six jobs and market seeds 11 and 12)
//! layer by layer, as per-stream p50s: the marketplace lookup cold (a
//! memo miss that generates the market) and cached (a memo hit), the
//! churn (`next_round` minus its re-quantify), the re-quantify, and the
//! re-quantify's final leaf fold. It also records exact sums of the
//! streams' `emd_calls`, `delta_reused_histograms` and
//! `delta_invalidated_emds`, which are deterministic. The section is not a
//! `records` entry, so the CI gate over `records` does not read it.
//!
//! The ratio scales with how much surviving structure each round reuses:
//! coarser audits (higher `min_partition_size`, fewer segments to
//! rebuild) widen it, finer ones narrow it — at min_partition 250 on
//! this shape (30 segments) the delta path still wins by ~4.5–5×.

use std::time::Instant;

use fairank_bench::{header, row, synthetic_space_mixed};
use fairank_core::emd::{Emd, EmdBackendKind};
use fairank_core::fairness::FairnessCriterion;
use fairank_core::incremental::DeltaEngine;
use fairank_core::partition::Partition;
use fairank_core::quantify::Quantify;
use fairank_core::space::{RankingSpace, SpaceDelta};
use fairank_marketplace::scenario::taskrabbit_like;
use fairank_marketplace::stream::{StreamConfig, StreamScenario};
use fairank_marketplace::Transparency;
use fairank_session::MarketCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One backend's churn trajectory.
#[derive(Debug, Serialize)]
struct BenchRecord {
    backend: String,
    /// The headline claim is made on this record (the default backend);
    /// the others pin bitwise identity and document their own ratios.
    tracked: bool,
    n: u64,
    attrs: u64,
    /// Per-attribute cardinalities of the mixed reference shape.
    cardinalities: Vec<u64>,
    min_partition_size: u64,
    rounds: u64,
    /// Mutation ops per round (half rating-drift rescores, a quarter
    /// arrivals, a quarter departures — population stays constant).
    churn_per_round: u64,
    delta_p50_us: f64,
    delta_p99_us: f64,
    /// `DeltaEngine::apply` of the round's churn batch.
    apply_p50_us: f64,
    apply_p99_us: f64,
    /// p50 over rounds of apply + delta re-quantify.
    round_p50_us: f64,
    full_p50_us: f64,
    full_p99_us: f64,
    /// `full_p50_us / delta_p50_us`.
    speedup_p50: f64,
    /// `full_p99_us / delta_p99_us` — the gated number.
    speedup_p99: f64,
    /// Summed over all rounds.
    reused_histograms: u64,
    invalidated_emds: u64,
}

/// One `stream` re-audit, layer by layer (every `_us` field is a p50
/// over streams of that layer's per-stream total).
#[derive(Debug, Serialize)]
struct StreamBench {
    preset: String,
    n: u64,
    rounds: u64,
    streams: u64,
    /// Marketplace lookup that misses the memo and generates the market.
    market_cold_p50_us: f64,
    /// Marketplace lookup served from the memo.
    market_cached_p50_us: f64,
    /// Σ over rounds of `next_round` minus its re-quantify: building the
    /// round's events and `DeltaEngine::apply`.
    churn_p50_us: f64,
    /// Σ over rounds (round 0 included) of the re-quantify.
    reaudit_p50_us: f64,
    /// Σ over rounds of the re-quantify's final leaf fold.
    fold_p50_us: f64,
    /// Exact sums over every round of every stream.
    emd_calls: u64,
    delta_reused_histograms: u64,
    delta_invalidated_emds: u64,
}

/// The emitted report.
#[derive(Debug, Serialize)]
struct BenchReport {
    experiment: String,
    smoke: bool,
    records: Vec<BenchRecord>,
    stream: StreamBench,
}

/// The jobs of the `taskrabbit` preset.
const STREAM_JOBS: [&str; 6] = [
    "wood-panels",
    "furniture",
    "deep-clean",
    "moving-help",
    "errands",
    "rated-anything",
];

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs the `stream` section: `streams` re-audits of `rounds` rounds on
/// `n`-worker `taskrabbit` markets.
fn stream_bench(n: usize, rounds: usize, streams: usize) -> StreamBench {
    let (mut cold, mut cached) = (Vec::new(), Vec::new());
    let (mut churn, mut reaudit, mut fold) = (Vec::new(), Vec::new(), Vec::new());
    let (mut emd_calls, mut reused, mut invalidated) = (0u64, 0u64, 0u64);
    for i in 0..streams {
        let seed = 11 + (i % 2) as u64;
        let markets = MarketCache::new();
        let lookup = || {
            markets
                .get_or_build("taskrabbit", n, seed, || Ok(taskrabbit_like(n, seed)?))
                .expect("the taskrabbit preset builds")
        };
        let t = Instant::now();
        lookup();
        cold.push(micros(t.elapsed()));
        let t = Instant::now();
        let market = lookup();
        cached.push(micros(t.elapsed()));

        let config = StreamConfig {
            rounds,
            seed: Some(100 + i as u64),
            ..StreamConfig::default()
        };
        let mut scenario = StreamScenario::new(
            &market,
            STREAM_JOBS[i % STREAM_JOBS.len()],
            &Transparency::full(),
            &FairnessCriterion::default(),
            config,
        )
        .expect("the stream scenario builds");
        let (mut churn_us, mut reaudit_us, mut fold_us) = (0.0, 0.0, 0.0);
        for round in 0..=rounds {
            let t = Instant::now();
            let audit = if round == 0 {
                scenario.first_audit()
            } else {
                scenario.next_round()
            }
            .expect("the stream round runs");
            let total = micros(t.elapsed());
            let run = scenario.last_run().expect("a round re-quantifies");
            if round > 0 {
                churn_us += total - micros(run.elapsed);
            }
            reaudit_us += micros(run.elapsed);
            fold_us += micros(run.fold_elapsed);
            emd_calls += audit.emd_calls as u64;
            reused += audit.delta_reused_histograms as u64;
            invalidated += audit.delta_invalidated_emds as u64;
        }
        churn.push(churn_us);
        reaudit.push(reaudit_us);
        fold.push(fold_us);
    }
    StreamBench {
        preset: "taskrabbit".to_string(),
        n: n as u64,
        rounds: rounds as u64,
        streams: streams as u64,
        market_cold_p50_us: percentile(&cold, 50.0),
        market_cached_p50_us: percentile(&cached, 50.0),
        churn_p50_us: percentile(&churn, 50.0),
        reaudit_p50_us: percentile(&reaudit, 50.0),
        fold_p50_us: percentile(&fold, 50.0),
        emd_calls,
        delta_reused_histograms: reused,
        delta_invalidated_emds: invalidated,
    }
}

/// Nearest-rank percentile over an unsorted sample.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One segment-local churn batch: all ops target members of one randomly
/// chosen partition of the latest audit. Rescores follow the stream
/// subsystem's feedback drift (boost toward 1 on a "hire", slight decay
/// otherwise); arrivals clone a random member's profile with jittered
/// score; departures remove members. Population stays constant.
fn churn_batch(
    rng: &mut StdRng,
    space: &RankingSpace,
    segments: &[Partition],
    ops: usize,
) -> SpaceDelta {
    let segment = &segments[rng.gen_range(0..segments.len())];
    let members = &segment.rows;
    let scores = space.scores();
    let attrs = space.attributes();
    let mut delta = SpaceDelta::new();
    for _ in 0..ops / 2 {
        let role = members[rng.gen_range(0..members.len())];
        let old = scores[role as usize];
        let new = if rng.gen_bool(0.5) {
            (old + 0.05 * (1.0 - old)).clamp(0.0, 1.0)
        } else {
            (old * 0.98).clamp(0.0, 1.0)
        };
        delta = delta.rescore(role, new);
    }
    for _ in 0..ops / 4 {
        let donor = members[rng.gen_range(0..members.len())] as usize;
        let labels: Vec<String> = attrs
            .iter()
            .map(|a| a.labels[a.codes[donor] as usize].clone())
            .collect();
        let jitter: f64 = rng.gen_range(-0.05f64..0.05);
        delta = delta.insert(labels, (scores[donor] + jitter).clamp(0.0, 1.0));
        // The arrival above keeps the departure from ever emptying the
        // segment; indices into `members` stay valid because the batch
        // applies removals against the grown space.
        delta = delta.remove(members[rng.gen_range(0..members.len())]);
    }
    delta
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var("FAIRANK_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_incremental.json")
        .to_string();

    // (n, cardinalities, min partition size, churn rounds)
    let (n, cards, min_part, rounds) = if smoke {
        (600, vec![4u32, 3, 3, 2], 5, 6)
    } else {
        (10_000, vec![12u32, 3, 3, 3, 3, 3, 3, 3], 300, 300)
    };
    let churn = (n / 100).max(4); // 1% of rows per round

    header(
        "BENCH",
        "incremental delta re-quantify vs. full recompute (emits BENCH_incremental.json)",
    );
    println!(
        "shape: n={n} cards={cards:?} min_partition={min_part} \
         rounds={rounds} churn/round={churn} (segment-local, stream-model drift)"
    );
    let widths = [10, 12, 12, 12, 12, 12, 9, 9];
    row(
        &[
            "backend".into(),
            "delta p50".into(),
            "delta p99".into(),
            "apply p50".into(),
            "full p50".into(),
            "full p99".into(),
            "x p50".into(),
            "x p99".into(),
        ],
        &widths,
    );

    let mut records = Vec::new();
    for backend in EmdBackendKind::all() {
        let criterion = FairnessCriterion::default().with_emd(Emd::new(backend));
        let search = Quantify::new(criterion).with_min_partition_size(min_part);
        let space = synthetic_space_mixed(n, &cards, 0.3, 7);
        let mut engine = DeltaEngine::new(space, search.clone()).expect("space is non-empty");
        let mut outcome = engine.requantify().expect("warm build succeeds");

        // Identical churn sequence for every backend: same seed, and the
        // spaces evolve identically (the partitioning is bit-identical
        // across backends only in structure-relevant decisions for this
        // planted shape), so latencies are comparable.
        let mut rng = StdRng::seed_from_u64(11);
        let mut delta_us = Vec::with_capacity(rounds);
        let mut apply_us = Vec::with_capacity(rounds);
        let mut round_us = Vec::with_capacity(rounds);
        let mut full_us = Vec::with_capacity(rounds);
        let (mut reused, mut invalidated) = (0u64, 0u64);
        for _ in 0..rounds {
            let batch = churn_batch(&mut rng, engine.space(), &outcome.partitions, churn);
            let t = Instant::now();
            engine.apply(&batch).expect("churn batch applies");
            let applied = t.elapsed().as_secs_f64() * 1e6;
            apply_us.push(applied);

            let t = Instant::now();
            outcome = engine.requantify().expect("delta re-quantify succeeds");
            let requantified = t.elapsed().as_secs_f64() * 1e6;
            delta_us.push(requantified);
            round_us.push(applied + requantified);

            let t = Instant::now();
            let full = search.run_space(engine.space()).expect("full recompute succeeds");
            full_us.push(t.elapsed().as_secs_f64() * 1e6);

            assert_eq!(
                outcome.unfairness.to_bits(),
                full.unfairness.to_bits(),
                "{backend:?}: delta and full recompute must agree bit-for-bit"
            );
            assert_eq!(outcome.partitions, full.partitions, "{backend:?}");
            assert!(
                outcome.stats.emd_calls <= full.stats.emd_calls,
                "{backend:?}: delta evaluated {} EMDs, full {}",
                outcome.stats.emd_calls,
                full.stats.emd_calls
            );
            reused += outcome.stats.delta_reused_histograms as u64;
            invalidated += outcome.stats.delta_invalidated_emds as u64;
        }

        let rec = BenchRecord {
            backend: backend.name().to_string(),
            tracked: backend == EmdBackendKind::default(),
            n: n as u64,
            attrs: cards.len() as u64,
            cardinalities: cards.iter().map(|&c| c as u64).collect(),
            min_partition_size: min_part as u64,
            rounds: rounds as u64,
            churn_per_round: churn as u64,
            delta_p50_us: percentile(&delta_us, 50.0),
            delta_p99_us: percentile(&delta_us, 99.0),
            apply_p50_us: percentile(&apply_us, 50.0),
            apply_p99_us: percentile(&apply_us, 99.0),
            round_p50_us: percentile(&round_us, 50.0),
            full_p50_us: percentile(&full_us, 50.0),
            full_p99_us: percentile(&full_us, 99.0),
            speedup_p50: percentile(&full_us, 50.0) / percentile(&delta_us, 50.0),
            speedup_p99: percentile(&full_us, 99.0) / percentile(&delta_us, 99.0),
            reused_histograms: reused,
            invalidated_emds: invalidated,
        };
        row(
            &[
                rec.backend.clone(),
                format!("{:.0} µs", rec.delta_p50_us),
                format!("{:.0} µs", rec.delta_p99_us),
                format!("{:.0} µs", rec.apply_p50_us),
                format!("{:.0} µs", rec.full_p50_us),
                format!("{:.0} µs", rec.full_p99_us),
                format!("{:.1}x", rec.speedup_p50),
                format!("{:.1}x", rec.speedup_p99),
            ],
            &widths,
        );
        records.push(rec);
    }

    if !smoke {
        let tracked = records
            .iter()
            .find(|r| r.tracked)
            .expect("the default backend is always benched");
        assert!(
            tracked.speedup_p99 >= 3.0 && tracked.speedup_p50 >= 3.0,
            "{}: delta re-quantify is only {:.2}x (p50) / {:.2}x (p99) faster than \
             full — below the conservative 3x floor the tracked shape must never \
             drop under (committed baseline demonstrates the 5x target)",
            tracked.backend,
            tracked.speedup_p50,
            tracked.speedup_p99
        );
    }

    let (stream_n, stream_rounds, streams) = if smoke { (300, 10, 4) } else { (3_000, 200, 12) };
    let stream = stream_bench(stream_n, stream_rounds, streams);
    println!(
        "\nstream re-audit (taskrabbit n={stream_n}, {stream_rounds} rounds, {streams} streams), \
         per-stream p50: market cold {:.0} µs, cached {:.1} µs; churn {:.0} µs; \
         re-audit {:.0} µs, of which leaf fold {:.0} µs",
        stream.market_cold_p50_us,
        stream.market_cached_p50_us,
        stream.churn_p50_us,
        stream.reaudit_p50_us,
        stream.fold_p50_us
    );

    let report = BenchReport {
        experiment: "bench_incremental".to_string(),
        smoke,
        records,
        stream,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json).expect("report is writable");
    println!(
        "\nRESULT: every round bit-identical to a full recompute under \
         both EMD metrics; delta re-quantify reuses the surviving caches. \
         Wrote {out_path}."
    );
}
