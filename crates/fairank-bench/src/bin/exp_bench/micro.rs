//! `micro` — per-call wall-clock of the building blocks the other
//! sections compose: histogram construction, pairwise EMD aggregation,
//! anonymization, and marketplace ranking, observation and crawling.
//! Every record is the p50 over samples of the per-call time, recorded
//! only (no tolerance). QUANTIFY, beam, exhaustive and EMD-backend
//! timings live in the `quantify` section and the `exp_scalability`,
//! `exp_beam`, `exp_heuristic_vs_exhaustive` and `exp_emd_backends`
//! experiments.

use fairank_anonymize::{datafly, mondrian, DataflyConfig, MondrianConfig};
use fairank_bench::{percentile, synthetic_space, time_us, BenchRecord};
use fairank_core::emd::Emd;
use fairank_core::engine::SplitEngine;
use fairank_core::fairness::FairnessCriterion;
use fairank_core::histogram::{Histogram, HistogramSpec};
use fairank_core::pairwise::{pairwise_distances, DistanceMatrix};
use fairank_core::partition::Partition;
use fairank_data::synth::biased_crowdsourcing_spec;
use fairank_marketplace::crawler::crawl_marketplace;
use fairank_marketplace::scenario::taskrabbit_like;
use fairank_marketplace::Transparency;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const QIS: [&str; 5] = ["gender", "country", "birth_decade", "language", "ethnicity"];

/// Collects one record per timed operation.
struct Micro {
    smoke: bool,
    records: Vec<BenchRecord>,
}

impl Micro {
    /// Records the p50 per-call time of `f`, timed in batches of `batch`
    /// calls (one sample of one call at the smoke shape).
    fn time<T>(&mut self, workload: String, batch: usize, f: impl FnMut() -> T) {
        let (samples, batch) = if self.smoke { (1, 1) } else { (5, batch) };
        let us = time_us(samples, batch, f);
        self.records.push(BenchRecord::new(
            "micro",
            &workload,
            "p50_us",
            "us",
            percentile(&us, 50.0),
            samples as u64,
        ));
    }

    /// `full`, or only its first entry at the smoke shape.
    fn sizes<T: Copy>(&self, full: &[T]) -> Vec<T> {
        full[..if self.smoke { 1 } else { full.len() }].to_vec()
    }
}

pub fn run(smoke: bool) -> Vec<BenchRecord> {
    let mut m = Micro {
        smoke,
        records: Vec::new(),
    };
    histogram(&mut m);
    pairwise(&mut m);
    anonymize(&mut m);
    marketplace(&mut m);
    m.records
}

fn histogram(m: &mut Micro) {
    let spec = HistogramSpec::unit(10).expect("valid spec");
    for n in m.sizes(&[100usize, 10_000, 1_000_000]) {
        let mut rng = StdRng::seed_from_u64(7);
        let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..=1.0)).collect();
        m.time(
            format!("histogram/from_scores/{n}"),
            (100_000 / n).max(1),
            || Histogram::from_scores(spec, scores.iter().copied()),
        );
    }
    // Row-subset construction (what the quantifier actually calls).
    let n = if m.smoke { 1_000 } else { 100_000 };
    let mut rng = StdRng::seed_from_u64(9);
    let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..=1.0)).collect();
    let rows: Vec<u32> = (0..n as u32).step_by(3).collect();
    m.time(format!("histogram/from_rows_third/{n}"), 20, || {
        Histogram::from_rows(spec, &scores, &rows)
    });
}

fn pairwise(m: &mut Micro) {
    let spec = HistogramSpec::unit(10).expect("valid spec");
    let emd = Emd::default();
    for k in m.sizes(&[4usize, 16, 64, 128]) {
        let mut rng = StdRng::seed_from_u64(42);
        let hists: Vec<Histogram> = (0..k)
            .map(|_| Histogram::from_scores(spec, (0..100).map(|_| rng.gen_range(0.0..=1.0))))
            .collect();
        let batch = (20_000 / (k * k)).max(1);
        m.time(format!("pairwise/distances/{k}"), batch, || {
            pairwise_distances(&hists, &emd).expect("computable")
        });
        m.time(format!("pairwise/matrix/{k}"), batch, || {
            DistanceMatrix::compute(&hists, &emd).expect("computable")
        });
    }

    // Repeated unfairness evaluation of the same partitioning: the naive
    // criterion rebuilds every histogram and EMD each time, while the split
    // engine serves everything from its caches after the first pass — the
    // access pattern of the beam/exhaustive searches and of interactive
    // re-quantification.
    let n = if m.smoke { 500 } else { 5_000 };
    let space = synthetic_space(n, 1, 16, 0.3, 7);
    let partitions = Partition::root(&space).split(&space, 0);
    let criterion = FairnessCriterion::default();
    m.time(format!("pairwise/unfairness_naive/{n}"), 20, || {
        criterion
            .unfairness(&partitions, space.scores())
            .expect("computable")
    });
    let mut engine = SplitEngine::new(&space, criterion);
    m.time(
        format!("pairwise/unfairness_engine_cached/{n}"),
        1_000,
        || engine.unfairness(&partitions).expect("computable"),
    );
}

fn anonymize(m: &mut Micro) {
    for n in m.sizes(&[200usize, 1_000, 5_000]) {
        let ds = biased_crowdsourcing_spec(n, 42)
            .generate()
            .expect("generates");
        m.time(format!("anonymize/mondrian_k5/{n}"), 1, || {
            mondrian(&ds, &QIS, MondrianConfig { k: 5 }).expect("anonymizes")
        });
    }
    let n = if m.smoke { 200 } else { 1_000 };
    let ds = biased_crowdsourcing_spec(n, 42)
        .generate()
        .expect("generates");
    for k in m.sizes(&[2usize, 10]) {
        let config = DataflyConfig {
            k,
            max_suppression: 0.05,
        };
        m.time(format!("anonymize/datafly_k{k}/{n}"), 1, || {
            datafly(&ds, &QIS, &[], config).expect("anonymizes")
        });
    }
}

fn marketplace(m: &mut Micro) {
    let n = if m.smoke { 300 } else { 1_000 };
    let market = taskrabbit_like(n, 42).expect("builds");
    m.time(format!("marketplace/rank_one_job/{n}"), 20, || {
        market.ranking_for("wood-panels").expect("ranks")
    });
    for (name, transparency) in [
        ("observe_full", Transparency::full()),
        ("observe_blackbox_k5", Transparency::blackbox(5)),
    ] {
        m.time(format!("marketplace/{name}/{n}"), 20, || {
            market
                .observe("wood-panels", &transparency)
                .expect("observes")
        });
    }
    let n = if m.smoke { 100 } else { 300 };
    let small = taskrabbit_like(n, 42).expect("builds");
    m.time(format!("marketplace/crawl_full/{n}"), 1, || {
        crawl_marketplace(&small, &Transparency::full(), &FairnessCriterion::default())
            .expect("crawls")
    });
}
