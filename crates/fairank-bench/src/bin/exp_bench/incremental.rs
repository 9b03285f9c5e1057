//! `incremental` — delta re-quantify vs. full recompute.
//!
//! Streams segment-local churn rounds through a [`DeltaEngine`] on the
//! tracked 10k / 8-attribute reference shape (one wide region-like
//! attribute of cardinality 12 plus seven narrow demographic ones, the
//! same mixed profile real marketplaces show), times each delta
//! re-quantify against a from-scratch `Quantify` over the identical
//! mutated space, verifies the two agree bit-for-bit every round under
//! both EMD metrics, and records p50/p99 latencies and the delta-vs-full
//! speedup per backend.
//!
//! The speedup compares re-quantifies only. A churn round also pays
//! [`DeltaEngine::apply`] (space mutation, dirty-path patching, orphan
//! invalidation), which the full recompute's timing does not include
//! either; each backend records it separately (`apply_p50_us`,
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
//! Gates on the tracked (default) backend: `speedup_p50` at least the
//! baseline / 1.35 — the p99 ratio is a tail-vs-tail quotient that swings
//! ±40% run to run, too wide for a relative gate — and, at the full shape,
//! both speedups at least 3× (a conservative floor machine noise never
//! trips; the baseline records the real ≥5× number). The reuse counters
//! are exact for every backend.
//!
//! A second workload, `stream_*`, measures one `stream` re-audit at the
//! wire benchmark's shape (`taskrabbit`, 3,000 workers, 200 rounds; 12
//! streams over the six jobs and market seeds 11 and 12) layer by layer,
//! as per-stream p50s: the marketplace lookup cold (a memo miss that
//! generates the market) and cached (a memo hit), the churn (`next_round`
//! minus its re-quantify), the re-quantify, and the re-quantify's final
//! leaf fold. Its sums of the streams' `emd_calls`,
//! `delta_reused_histograms` and `delta_invalidated_emds` are exact.
//!
//! The ratio scales with how much surviving structure each round reuses:
//! coarser audits (higher `min_partition_size`, fewer segments to
//! rebuild) widen it, finer ones narrow it — at min_partition 250 on
//! this shape (30 segments) the delta path still wins by ~4.5–5×.

use std::time::Instant;

use fairank_bench::{percentile, synthetic_space_mixed, BenchRecord, Bound};
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

/// Runs the `stream` workload: `streams` re-audits of `rounds` rounds on
/// `n`-worker `taskrabbit` markets. Every `_us` record is a p50 over
/// streams of that layer's per-stream total.
fn stream_bench(n: usize, rounds: usize, streams: usize) -> Vec<BenchRecord> {
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
    let workload = format!("stream_taskrabbit_n{n}_r{rounds}_s{streams}");
    let record = |metric: &str, unit: &str, value: f64| {
        BenchRecord::new(
            "incremental",
            &workload,
            metric,
            unit,
            value,
            streams as u64,
        )
    };
    vec![
        record("market_cold_p50_us", "us", percentile(&cold, 50.0)),
        record("market_cached_p50_us", "us", percentile(&cached, 50.0)),
        record("churn_p50_us", "us", percentile(&churn, 50.0)),
        record("reaudit_p50_us", "us", percentile(&reaudit, 50.0)),
        record("fold_p50_us", "us", percentile(&fold, 50.0)),
        record("emd_calls", "count", emd_calls as f64).exact(),
        record("delta_reused_histograms", "count", reused as f64).exact(),
        record("delta_invalidated_emds", "count", invalidated as f64).exact(),
    ]
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

pub fn run(smoke: bool) -> Vec<BenchRecord> {
    // (n, cardinalities, min partition size, churn rounds)
    let (n, cards, min_part, rounds) = if smoke {
        (600, vec![4u32, 3, 3, 2], 5, 6)
    } else {
        (10_000, vec![12u32, 3, 3, 3, 3, 3, 3, 3], 300, 300)
    };
    let churn = (n / 100).max(4); // 1% of rows per round
    let shape = format!("{}_r{rounds}", crate::mixed_shape(n, &cards, min_part));

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
            let full = search
                .run_space(engine.space())
                .expect("full recompute succeeds");
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

        let tracked = backend == EmdBackendKind::default();
        let floor = if tracked && !smoke {
            vec![Bound::AtLeast(3.0)]
        } else {
            Vec::new()
        };
        let ratio = if tracked {
            vec![Bound::AtLeastBaselineOver(1.35)]
        } else {
            Vec::new()
        };
        let workload = format!("{shape}/{}", backend.name());
        let samples = rounds as u64;
        let record = |metric: &str, unit: &str, value: f64| {
            BenchRecord::new("incremental", &workload, metric, unit, value, samples)
        };
        records.extend([
            record("delta_p50_us", "us", percentile(&delta_us, 50.0)),
            record("delta_p99_us", "us", percentile(&delta_us, 99.0)),
            record("apply_p50_us", "us", percentile(&apply_us, 50.0)),
            record("apply_p99_us", "us", percentile(&apply_us, 99.0)),
            record("round_p50_us", "us", percentile(&round_us, 50.0)),
            record("full_p50_us", "us", percentile(&full_us, 50.0)),
            record("full_p99_us", "us", percentile(&full_us, 99.0)),
            record(
                "speedup_p50",
                "ratio",
                percentile(&full_us, 50.0) / percentile(&delta_us, 50.0),
            )
            .bounded([ratio, floor.clone()].concat()),
            record(
                "speedup_p99",
                "ratio",
                percentile(&full_us, 99.0) / percentile(&delta_us, 99.0),
            )
            .bounded(floor),
            record("reused_histograms", "count", reused as f64).exact(),
            record("invalidated_emds", "count", invalidated as f64).exact(),
        ]);
    }

    let (stream_n, stream_rounds, streams) = if smoke {
        (300, 10, 4)
    } else {
        (3_000, 200, 12)
    };
    records.extend(stream_bench(stream_n, stream_rounds, streams));
    records
}
