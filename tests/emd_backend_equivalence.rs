//! The differential conformance suite of the pluggable EMD backend layer.
//!
//! Every [`EmdBackend`] implementation is pinned against the reference
//! semantics on random histograms (proptest), on degenerate shapes (empty
//! bins, single-leaf nodes, all-equal scores), and on real leaf sets from
//! the seed datasets (Table 1 and the biased synthetic population). The
//! pinned bounds:
//!
//! * `transport` vs `1d` — within `1e-9` (successive-shortest-path solver
//!   epsilon on ≤ 64-bin probability vectors).
//! * every backend — **bitwise symmetric**: `d(a, b)` and `d(b, a)` have
//!   equal bits (the transport solver canonicalizes its input order).
//! * every batch entry point — bit-identical to its backend's own pair
//!   distance, in pair order.
//!
//! The engine-level half property-tests that the default `1d` engine —
//! which deduplicates large aggregations — reproduces the naive evaluation
//! bit for bit, and that QUANTIFY's search results do not depend on the
//! backend choice beyond the transport epsilon.

use proptest::prelude::*;

use fairank::core::emd::{Emd, EmdBackendKind};
use fairank::core::engine::SplitEngine;
use fairank::core::fairness::{Aggregator, FairnessCriterion, Objective};
use fairank::core::histogram::{Histogram, HistogramSpec};
use fairank::core::partition::Partition;
use fairank::core::quantify::Quantify;
use fairank::core::scoring::ScoreSource;
use fairank::core::space::{ProtectedAttribute, RankingSpace};

/// Pinned agreement bound of the transport solver vs the 1-D closed form.
const TRANSPORT_EPS: f64 = 1e-9;

/// A set of 2–6 random histograms sharing one random spec (1–24 bins,
/// per-bin counts up to 40 — including all-zero, i.e. empty, histograms).
fn histogram_set() -> impl Strategy<Value = Vec<Histogram>> {
    (1usize..=24, 2usize..=6).prop_flat_map(|(bins, count)| {
        prop::collection::vec(prop::collection::vec(0u64..=40, bins), count).prop_map(
            move |count_vecs| {
                let spec = HistogramSpec::unit(bins).expect("valid spec");
                count_vecs
                    .into_iter()
                    .map(|counts| Histogram::from_counts(spec, counts))
                    .collect()
            },
        )
    })
}

/// A random small ranking space (same shape as the engine-equivalence
/// suite): 2–4 protected attributes with 2–4 values each, 8–60 rows.
fn ranking_space() -> impl Strategy<Value = RankingSpace> {
    (2usize..=4, 8usize..=60).prop_flat_map(|(n_attrs, n_rows)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pair_distances_conform_on_random_histograms(hists in histogram_set()) {
        let one_d = Emd::new(EmdBackendKind::OneD);
        let transport = Emd::new(EmdBackendKind::Transport);
        for a in &hists {
            for b in &hists {
                let reference = one_d.distance(a, b).unwrap();
                // Transport: within the pinned solver epsilon.
                let d = transport.distance(a, b).unwrap();
                prop_assert!(
                    (d - reference).abs() <= TRANSPORT_EPS,
                    "transport {} vs 1d {}", d, reference
                );
                // Every backend: bitwise symmetric.
                for kind in EmdBackendKind::all() {
                    let emd = Emd::new(kind);
                    let ab = emd.distance(a, b).unwrap();
                    let ba = emd.distance(b, a).unwrap();
                    prop_assert_eq!(ab.to_bits(), ba.to_bits(), "{:?}: {} vs {}", kind, ab, ba);
                }
            }
        }
    }

    #[test]
    fn pairwise_batches_conform_on_random_histograms(hists in histogram_set()) {
        for kind in EmdBackendKind::all() {
            let emd = Emd::new(kind);
            let batch = emd.pairwise(&hists).unwrap();
            prop_assert_eq!(batch.len(), hists.len() * (hists.len() - 1) / 2);
            let mut k = 0;
            for i in 0..hists.len() {
                for j in (i + 1)..hists.len() {
                    // Each batch entry equals that backend's own pair
                    // distance bit for bit (order preserved).
                    let own = emd.distance(&hists[i], &hists[j]).unwrap();
                    prop_assert_eq!(batch[k].to_bits(), own.to_bits(), "{:?}", kind);
                    k += 1;
                }
            }
            // Cross batches agree with the flattened pair loop too.
            let (left, right) = hists.split_at(hists.len() / 2);
            let cross = emd.cross(left, right).unwrap();
            let mut k = 0;
            for a in left {
                for b in right {
                    prop_assert_eq!(
                        cross[k].to_bits(),
                        emd.distance(a, b).unwrap().to_bits()
                    );
                    k += 1;
                }
            }
        }
    }

    #[test]
    fn batched_engine_is_bit_identical_and_never_busier(space in ranking_space()) {
        // Repeating the space's partitions makes both batches large enough
        // (> 128 leaf pairs) for the default `1d` engine to deduplicate.
        let parts = Partition::root(&space).split(&space, 0);
        let many: Vec<Partition> = parts.iter().cycle().take(160).cloned().collect();
        for objective in [Objective::MostUnfair, Objective::LeastUnfair] {
            let criterion = FairnessCriterion::new(objective, Aggregator::Mean);
            let naive = criterion.unfairness(&many, space.scores()).unwrap();
            let mut engine = SplitEngine::new(&space, criterion);
            let u = engine.unfairness(&many).unwrap();
            prop_assert_eq!(naive.to_bits(), u.to_bits(), "{:?}: {} vs {}", objective, naive, u);
            let v = engine.versus(&many[0], &many[1..]).unwrap();
            let naive_v = criterion.versus(&many[0], &many[1..], space.scores()).unwrap();
            prop_assert_eq!(naive_v.to_bits(), v.to_bits());
            // Two deduplicated batches, each resolving only distinct pairs.
            let stats = engine.stats();
            prop_assert_eq!(stats.pairwise_batches, 2);
            let leaf_pairs = many.len() * (many.len() - 1) / 2 + many.len() - 1;
            prop_assert!(stats.emd_calls + stats.emd_cache_hits < leaf_pairs);
        }
    }

    #[test]
    fn transport_engine_still_matches_naive_evaluation(space in ranking_space()) {
        // The canonical (unordered) memo key must stay a pure optimization
        // for the transport backend too: engine == naive bit for bit.
        let criterion = FairnessCriterion::default()
            .with_emd(Emd::new(EmdBackendKind::Transport));
        let engine = Quantify::new(criterion).run_space(&space).unwrap();
        let naive = Quantify::new(criterion)
            .with_naive_evaluation()
            .run_space(&space)
            .unwrap();
        prop_assert_eq!(engine.unfairness.to_bits(), naive.unfairness.to_bits());
        prop_assert_eq!(&engine.partitions, &naive.partitions);
        prop_assert_eq!(&engine.tree, &naive.tree);
    }
}

// ---- degenerate shapes ------------------------------------------------

#[test]
fn empty_bin_conventions_hold_for_every_backend() {
    let spec = HistogramSpec::unit(10).unwrap();
    let empty = Histogram::empty(spec);
    let full = Histogram::from_scores(spec, [0.3, 0.8]);
    for kind in EmdBackendKind::all() {
        let emd = Emd::new(kind);
        assert_eq!(emd.distance(&empty, &empty).unwrap(), 0.0, "{kind:?}");
        assert_eq!(emd.distance(&empty, &full).unwrap(), 1.0, "{kind:?}");
        assert_eq!(emd.distance(&full, &empty).unwrap(), 1.0, "{kind:?}");
        let batch = emd.pairwise(&[empty.clone(), full.clone(), empty.clone()]).unwrap();
        assert_eq!(batch, vec![1.0, 0.0, 1.0], "{kind:?}");
    }
}

#[test]
fn all_equal_scores_are_zero_distance_under_every_backend() {
    // Every score in one bin: any two such histograms are identical
    // distributions, whatever their sizes.
    let spec = HistogramSpec::unit(10).unwrap();
    let a = Histogram::from_scores(spec, std::iter::repeat_n(0.55, 3));
    let b = Histogram::from_scores(spec, std::iter::repeat_n(0.55, 17));
    for kind in EmdBackendKind::all() {
        let d = Emd::new(kind).distance(&a, &b).unwrap();
        assert!(d.abs() < 1e-12, "{kind:?} gave {d}");
    }
}

#[test]
fn single_leaf_nodes_aggregate_to_zero_under_every_backend() {
    let g = ProtectedAttribute::from_values("g", &["a", "a", "b"]);
    let space = RankingSpace::new(vec![g], vec![0.1, 0.2, 0.9]).unwrap();
    for kind in EmdBackendKind::all() {
        let criterion = FairnessCriterion::default().with_emd(Emd::new(kind));
        let mut engine = SplitEngine::new(&space, criterion);
        // A single partition has no pairs: unfairness is 0 by convention.
        let u = engine.unfairness(&[Partition::root(&space)]).unwrap();
        assert_eq!(u, 0.0, "{kind:?}");
        // ... and versus an empty sibling set aggregates to 0 too.
        let v = engine.versus(&Partition::root(&space), &[]).unwrap();
        assert_eq!(v, 0.0, "{kind:?}");
    }
}

#[test]
fn degenerate_single_bin_spec_conforms() {
    // One bin: every non-empty histogram is the same distribution.
    let spec = HistogramSpec::unit(1).unwrap();
    let a = Histogram::from_scores(spec, [0.1, 0.9]);
    let b = Histogram::from_scores(spec, [0.5]);
    for kind in EmdBackendKind::all() {
        let d = Emd::new(kind).distance(&a, &b).unwrap();
        assert!(d.abs() < 1e-12, "{kind:?} gave {d}");
    }
}

// ---- non-finite and extreme score inputs ------------------------------

#[test]
fn non_finite_scores_are_rejected_before_any_backend_runs() {
    use fairank::core::error::CoreError;
    // NaN and ±inf scores must surface as a structured validation error at
    // space construction — no backend ever sees them, so no backend can
    // propagate NaN into trees or unfairness values.
    for (bad, row) in [
        (f64::NAN, 0usize),
        (f64::INFINITY, 1),
        (f64::NEG_INFINITY, 2),
        (-f64::NAN, 3),
    ] {
        let mut scores = vec![0.1, 0.4, 0.6, 0.9];
        scores[row] = bad;
        let g = ProtectedAttribute::from_values("g", &["a", "b", "a", "b"]);
        let err = RankingSpace::new(vec![g], scores).unwrap_err();
        match err {
            CoreError::NonFiniteScore { row: r, value } => {
                assert_eq!(r, row, "error pinpoints the offending row");
                assert!(!value.is_finite());
            }
            other => panic!("expected NonFiniteScore, got {other:?}"),
        }
    }
}

#[test]
fn denormal_and_inf_adjacent_scores_stay_finite_under_every_backend() {
    // Finite-but-extreme scores are legal input: subnormals underflow-prone
    // on the low end, `f64::MAX`-scale values overflow-prone on the high
    // end. Every backend must produce finite, mutually conforming results —
    // never a NaN leaking into the search.
    let denormal = vec![
        f64::from_bits(1), // smallest positive subnormal
        f64::MIN_POSITIVE,
        1e-300,
        0.0,
        0.25,
        0.5,
        0.75,
        1.0,
    ];
    // Near the top of the finite range, but with headroom: at full
    // `f64::MAX` the *correct* EMD (≈ total mass × a ~1e307 bin width)
    // itself exceeds f64::MAX — overflow in the true answer, not a backend
    // defect. MAX/64 keeps the magnitudes astronomical while the exact
    // distances stay representable.
    let big = f64::MAX / 64.0;
    let inf_adjacent = vec![big, big / 2.0, big / 4.0, 1.0, 0.0, big, big / 8.0, 0.5];
    for scores in [denormal, inf_adjacent] {
        let g = ProtectedAttribute::from_values("g", &["a", "b", "a", "b", "a", "b", "a", "b"]);
        let h = ProtectedAttribute::from_values("h", &["x", "x", "y", "y", "x", "x", "y", "y"]);
        let space = RankingSpace::new(vec![g, h], scores).expect("finite scores are valid");
        let reference = Quantify::new(FairnessCriterion::default().fit_range(&space))
            .run_space(&space)
            .expect("reference run");
        assert!(
            reference.unfairness.is_finite(),
            "reference unfairness went non-finite: {}",
            reference.unfairness
        );
        for kind in EmdBackendKind::all() {
            let criterion = FairnessCriterion::default()
                .with_emd(Emd::new(kind))
                .fit_range(&space);
            let outcome = Quantify::new(criterion).run_space(&space).expect("runs");
            assert!(
                outcome.unfairness.is_finite(),
                "{kind:?} produced non-finite unfairness {}",
                outcome.unfairness
            );
            // The 1-D family must still conform bit for bit. Transport is
            // only epsilon-bound, and at f64::MAX magnitudes its solver
            // epsilon can legitimately flip a near-tie split decision — so
            // it is held to finiteness only here (its agreement on normal
            // data is pinned by the suites above).
            if kind != EmdBackendKind::Transport {
                assert_eq!(outcome.partitions, reference.partitions, "{kind:?}");
                assert_eq!(outcome.tree, reference.tree, "{kind:?}");
                assert_eq!(
                    outcome.unfairness.to_bits(),
                    reference.unfairness.to_bits(),
                    "{kind:?}: {} vs {}",
                    outcome.unfairness,
                    reference.unfairness
                );
            }
        }
    }
}

// ---- real leaf sets from the seed datasets ----------------------------

/// Runs QUANTIFY on a prepared space under every backend and checks the
/// conformance contract: identical search results everywhere, bit-identical
/// unfairness for the 1-D family, `TRANSPORT_EPS` agreement for transport.
fn assert_backends_agree_on(space: &RankingSpace) {
    let reference = Quantify::new(FairnessCriterion::default().fit_range(space))
        .run_space(space)
        .expect("reference run");
    for kind in EmdBackendKind::all() {
        let criterion = FairnessCriterion::default()
            .with_emd(Emd::new(kind))
            .fit_range(space);
        let outcome = Quantify::new(criterion).run_space(space).expect("runs");
        assert_eq!(
            outcome.partitions, reference.partitions,
            "{kind:?} found a different partitioning"
        );
        assert_eq!(outcome.tree, reference.tree, "{kind:?} tree differs");
        match kind {
            EmdBackendKind::Transport => assert!(
                (outcome.unfairness - reference.unfairness).abs() <= TRANSPORT_EPS,
                "{kind:?}: {} vs {}",
                outcome.unfairness,
                reference.unfairness
            ),
            _ => assert_eq!(
                outcome.unfairness.to_bits(),
                reference.unfairness.to_bits(),
                "{kind:?}: {} vs {}",
                outcome.unfairness,
                reference.unfairness
            ),
        }
    }
}

#[test]
fn backends_agree_on_the_table1_leaf_sets() {
    let space = fairank::data::paper::table1_space().expect("paper space builds");
    assert_backends_agree_on(&space);
}

#[test]
fn backends_agree_on_the_biased_synthetic_population() {
    let dataset = fairank::data::synth::biased_crowdsourcing_spec(300, 11)
        .generate()
        .expect("generates");
    let scoring = fairank::core::scoring::LinearScoring::builder()
        .weight("rating", 0.7)
        .weight("language_test", 0.3)
        .build(&dataset)
        .expect("builds");
    let space = dataset
        .to_space(&ScoreSource::Function(scoring))
        .expect("space");
    assert_backends_agree_on(&space);
}
