//! Differential suite for the incremental delta-evaluation subsystem:
//! random churn sequences (arrivals, departures, rescores — including
//! emptying a histogram bin and re-filling it) must leave a
//! `DeltaEngine` bitwise-identical to a from-scratch `Quantify` run over
//! the mutated space, under every EMD backend, while never evaluating
//! more EMDs than the full recompute it replaces.

use proptest::prelude::*;

use fairank::core::emd::{Emd, EmdBackendKind};
use fairank::core::fairness::{Aggregator, FairnessCriterion, Objective};
use fairank::core::incremental::DeltaEngine;
use fairank::core::quantify::{Quantify, QuantifyOutcome};
use fairank::core::space::{ProtectedAttribute, RankingSpace, SpaceDelta};

// ---------------------------------------------------------------- helpers

/// A random small ranking space: 2–3 protected attributes with 2–4 values
/// each, 10–40 individuals, scores in [0, 1].
fn ranking_space() -> impl Strategy<Value = RankingSpace> {
    (2usize..=3, 10usize..=40).prop_flat_map(|(n_attrs, n_rows)| {
        let attrs = prop::collection::vec(
            (2u32..=4).prop_flat_map(move |card| prop::collection::vec(0..card, n_rows)),
            n_attrs,
        );
        let scores = prop::collection::vec(0.0f64..=1.0, n_rows);
        (attrs, scores).prop_map(|(attr_codes, scores)| {
            let attributes = attr_codes
                .into_iter()
                .enumerate()
                .map(|(i, codes)| {
                    let card = codes.iter().copied().max().unwrap_or(0) + 1;
                    ProtectedAttribute {
                        name: format!("a{i}"),
                        codes,
                        labels: (0..card).map(|c| format!("v{c}")).collect(),
                    }
                })
                .collect();
            RankingSpace::new(attributes, scores).expect("generated space is valid")
        })
    })
}

/// An abstract churn op; row/label choices are seeds resolved against the
/// *current* population at apply time so sequences stay valid as rows
/// arrive and depart.
#[derive(Debug, Clone, Copy)]
enum ChurnOp {
    /// Rescore row `seed % population` to `score`.
    Rescore { seed: u32, score: f64 },
    /// Insert a row whose label for attribute `i` is picked by
    /// `(seed + i) % labels`, with score `score`.
    Insert { seed: u32, score: f64 },
    /// Remove row `seed % population` (skipped when only one row remains).
    Remove { seed: u32 },
}

fn churn_op() -> impl Strategy<Value = ChurnOp> {
    (0u8..3, 0u32..u32::MAX, 0.0f64..=1.0).prop_map(|(kind, seed, score)| match kind {
        0 => ChurnOp::Rescore { seed, score },
        1 => ChurnOp::Insert { seed, score },
        _ => ChurnOp::Remove { seed },
    })
}

/// Resolves abstract ops against the engine's current space into one
/// concrete `SpaceDelta` batch.
fn resolve_batch(space: &RankingSpace, ops: &[ChurnOp]) -> SpaceDelta {
    let mut delta = SpaceDelta::new();
    // Track population as the batch itself mutates it: ops in one delta
    // apply sequentially, so later row indices must be valid *then*.
    let mut population = space.num_individuals();
    for op in ops {
        match *op {
            ChurnOp::Rescore { seed, score } => {
                delta = delta.rescore((seed as usize % population) as u32, score);
            }
            ChurnOp::Insert { seed, score } => {
                let labels: Vec<String> = space
                    .attributes()
                    .iter()
                    .enumerate()
                    .map(|(i, attr)| attr.labels[(seed as usize + i) % attr.labels.len()].clone())
                    .collect();
                delta = delta.insert(labels, score);
                population += 1;
            }
            ChurnOp::Remove { seed } => {
                if population > 1 {
                    delta = delta.remove((seed as usize % population) as u32);
                    population -= 1;
                }
            }
        }
    }
    delta
}

fn all_backends() -> [EmdBackendKind; 2] {
    EmdBackendKind::all()
}

fn criterion_for(backend: EmdBackendKind) -> FairnessCriterion {
    FairnessCriterion::new(Objective::MostUnfair, Aggregator::Mean).with_emd(Emd::new(backend))
}

fn assert_bitwise_equal(backend: EmdBackendKind, delta: &QuantifyOutcome, full: &QuantifyOutcome) {
    assert_eq!(
        delta.unfairness.to_bits(),
        full.unfairness.to_bits(),
        "{backend:?}: unfairness bits diverged (delta {}, full {})",
        delta.unfairness,
        full.unfairness
    );
    assert_eq!(delta.partitions, full.partitions, "{backend:?}");
    assert_eq!(delta.tree, full.tree, "{backend:?}");
    assert_eq!(
        delta.stats.nodes_evaluated, full.stats.nodes_evaluated,
        "{backend:?}"
    );
    assert_eq!(
        delta.stats.splits_performed, full.stats.splits_performed,
        "{backend:?}"
    );
    assert_eq!(
        delta.stats.candidate_splits, full.stats.candidate_splits,
        "{backend:?}"
    );
}

// ---------------------------------------------------------------- proptest

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random churn batches: after every apply + requantify, the delta
    // outcome is bitwise-identical to a fresh full recompute over the
    // mutated space, under both EMD metrics, and the delta run never
    // evaluates more EMDs than the full one.
    #[test]
    fn random_churn_matches_full_recompute(
        space in ranking_space(),
        batches in prop::collection::vec(prop::collection::vec(churn_op(), 1..6), 1..3),
    ) {
        for backend in all_backends() {
            let search = Quantify::new(criterion_for(backend)).with_min_partition_size(2);
            let mut engine = DeltaEngine::new(space.clone(), search.clone()).unwrap();
            engine.requantify().unwrap();
            for ops in &batches {
                let delta_ops = resolve_batch(engine.space(), ops);
                engine.apply(&delta_ops).unwrap();
                let delta = engine.requantify().unwrap();
                let full = search.run_space(engine.space()).unwrap();
                assert_bitwise_equal(backend, &delta, &full);
                prop_assert!(
                    delta.stats.emd_calls <= full.stats.emd_calls,
                    "{backend:?}: delta evaluated {} EMDs, full recompute {}",
                    delta.stats.emd_calls,
                    full.stats.emd_calls
                );
            }
        }
    }

    // The same churn sequence applied twice from the same starting space
    // produces byte-for-byte identical outcomes (modulo wall-clock).
    #[test]
    fn churn_replay_is_deterministic(
        space in ranking_space(),
        ops in prop::collection::vec(churn_op(), 1..8),
    ) {
        let search = Quantify::default().with_min_partition_size(2);
        let run = |space: &RankingSpace| -> QuantifyOutcome {
            let mut engine = DeltaEngine::new(space.clone(), search.clone()).unwrap();
            engine.requantify().unwrap();
            let delta_ops = resolve_batch(engine.space(), &ops);
            engine.apply(&delta_ops).unwrap();
            engine.requantify().unwrap()
        };
        let first = run(&space);
        let second = run(&space);
        prop_assert_eq!(first.unfairness.to_bits(), second.unfairness.to_bits());
        prop_assert_eq!(first.partitions, second.partitions);
        prop_assert_eq!(first.tree, second.tree);
        // Stats carry no timing, so whole structs must agree.
        prop_assert_eq!(first.stats, second.stats);
    }
}

// ------------------------------------------------------- directed scenarios

/// Empties one score-histogram bin entirely (every row that maps to it
/// rescored away), requantifies, then re-fills the bin — delta must stay
/// bitwise-identical to full at every step, under every backend.
#[test]
fn emptying_and_refilling_a_bin_stays_bitwise_identical() {
    // Two clusters: 6 rows near 0.05 (bottom bin of the default 10-bin
    // [0,1] histogram) and 10 spread across upper bins.
    let genders: Vec<&str> = (0..16).map(|i| if i % 2 == 0 { "F" } else { "M" }).collect();
    let regions: Vec<String> = (0..16).map(|i| format!("r{}", i % 3)).collect();
    let region_refs: Vec<&str> = regions.iter().map(String::as_str).collect();
    let scores: Vec<f64> = (0..16)
        .map(|i| {
            if i < 6 {
                0.02 + i as f64 * 0.01 // all inside bin 0
            } else {
                0.35 + (i - 6) as f64 * 0.07
            }
        })
        .collect();
    let space = RankingSpace::new(
        vec![
            ProtectedAttribute::from_values("gender", &genders),
            ProtectedAttribute::from_values("region", &region_refs),
        ],
        scores,
    )
    .unwrap();

    for backend in all_backends() {
        let search = Quantify::new(criterion_for(backend)).with_min_partition_size(2);
        let mut engine = DeltaEngine::new(space.clone(), search.clone()).unwrap();
        engine.requantify().unwrap();

        // Drain bin 0: rescore the six low rows into upper bins.
        let mut drain = SpaceDelta::new();
        for row in 0..6u32 {
            drain = drain.rescore(row, 0.55 + row as f64 * 0.05);
        }
        engine.apply(&drain).unwrap();
        let delta = engine.requantify().unwrap();
        let full = search.run_space(engine.space()).unwrap();
        assert_bitwise_equal(backend, &delta, &full);

        // Re-fill it: three rescores back down plus two fresh arrivals
        // landing in bin 0, and one departure for good measure.
        let refill = SpaceDelta::new()
            .rescore(0, 0.03)
            .rescore(2, 0.08)
            .rescore(4, 0.01)
            .insert(vec!["F", "r1"], 0.05)
            .insert(vec!["M", "r2"], 0.09)
            .remove(10);
        engine.apply(&refill).unwrap();
        let delta = engine.requantify().unwrap();
        let full = search.run_space(engine.space()).unwrap();
        assert_bitwise_equal(backend, &delta, &full);
        assert!(
            delta.stats.emd_calls <= full.stats.emd_calls,
            "{backend:?}: delta evaluated {} EMDs, full recompute {}",
            delta.stats.emd_calls,
            full.stats.emd_calls
        );
        assert!(
            delta.stats.delta_reused_histograms > 0,
            "{backend:?}: refill run reused nothing"
        );
    }
}
