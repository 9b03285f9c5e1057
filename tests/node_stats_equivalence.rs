//! The one-pass node statistics of a panel equal the per-node path bit
//! for bit. `Panel::node_stats(id)` stays the oracle: it rebuilds the
//! node's histogram and every sibling's, and aggregates through
//! `FairnessCriterion::versus`. `Panel::all_node_stats` builds each
//! histogram once; every field of every node must still match, floats by
//! bit pattern.

use proptest::prelude::*;

use fairank::core::emd::{Emd, EmdBackendKind};
use fairank::core::fairness::{Aggregator, FairnessCriterion, Objective};
use fairank::core::histogram::HistogramSpec;
use fairank::core::quantify::Quantify;
use fairank::core::space::{ProtectedAttribute, RankingSpace};
use fairank::session::command::{apply, Command};
use fairank::session::panel::NodeStats;
use fairank::session::{Configuration, Panel, Session};

/// The float fields of a node box, by bit pattern.
fn float_bits(stats: &NodeStats) -> [Option<u64>; 4] {
    [
        Some(stats.mean_score.to_bits()),
        Some(stats.min_score.to_bits()),
        Some(stats.max_score.to_bits()),
        stats.divergence_vs_siblings.map(f64::to_bits),
    ]
}

/// Asserts the one-pass statistics of `panel` equal the per-node oracle.
fn assert_one_pass_matches_per_node(panel: &Panel) {
    let all = panel.all_node_stats();
    assert_eq!(all.len(), panel.outcome.tree.len());
    for (id, one_pass) in all.iter().enumerate() {
        let oracle = panel.node_stats(id).expect("node ids are valid");
        assert_eq!(one_pass, &oracle, "panel {} node {id}", panel.id);
        assert_eq!(
            float_bits(one_pass),
            float_bits(&oracle),
            "panel {} node {id}",
            panel.id
        );
    }
}

#[test]
fn one_pass_matches_per_node_on_the_api_equivalence_panels() {
    let mut s = Session::new();
    for line in [
        "generate pop biased n=120 seed=5",
        "define f rating*0.7+language_test*0.3",
        "anonymize anon pop k=4 method=mondrian",
        "quantify pop f",
        "quantify pop f objective=least agg=max bins=5",
        r#"quantify pop f where="gender=Female""#,
        "quantify pop f opaque",
        "quantify anon f",
        "quantify pop f agg=variance emd=transport",
    ] {
        apply(&mut s, Command::parse(line).unwrap()).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
    assert_eq!(s.panels().len(), 6);
    for panel in s.panels() {
        assert_one_pass_matches_per_node(panel);
    }
}

/// A random small ranking space: 2–4 protected attributes with 2–4 values
/// each, 8–80 individuals, scores in [0, 1].
fn ranking_space() -> impl Strategy<Value = RankingSpace> {
    (2usize..=4, 8usize..=80).prop_flat_map(|(n_attrs, n_rows)| {
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
    fn one_pass_matches_per_node_on_random_trees(
        space in ranking_space(),
        objective in 0usize..2,
        aggregator in 0usize..6,
        bins in 2usize..=12,
        backend in 0usize..2,
    ) {
        let objective = [Objective::MostUnfair, Objective::LeastUnfair][objective];
        let backend = EmdBackendKind::all()[backend];
        let criterion = FairnessCriterion::new(objective, Aggregator::all()[aggregator])
            .with_hist(HistogramSpec::unit(bins).unwrap())
            .with_emd(Emd::new(backend));
        let outcome = Quantify::new(criterion).run_space(&space).unwrap();
        let panel = Panel {
            id: 0,
            config: Configuration::new("d", "f").with_criterion(criterion),
            space: space.into(),
            outcome,
            from_cache: false,
            node_memo: Default::default(),
        };
        assert_one_pass_matches_per_node(&panel);
    }
}
