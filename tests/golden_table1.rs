//! Golden test pinning the Table 1 pipeline end to end, so the paper
//! reproduction cannot silently drift: the recovered scoring function's
//! per-row scores, the induced ranking, and the most-unfair partitioning
//! QUANTIFY finds (with its unfairness value) are all asserted against
//! values captured from the current implementation and cross-checked
//! against the published `f(w)` column.

use fairank::core::scoring::scores_to_ranking;
use fairank::data::paper::{table1_dataset, table1_scoring, table1_space, TABLE1_FW};
use fairank::prelude::*;

/// The ranking Table 1's `f(w)` column induces (row indices, best first):
/// w7 > w2 > w5 > w4 > w3 > w10 > w1 > w9 > w6 > w8.
const GOLDEN_RANKING: [u32; 10] = [6, 1, 4, 3, 2, 9, 0, 8, 5, 7];

/// Mean-pairwise-EMD unfairness of the most-unfair partitioning QUANTIFY
/// finds on Table 1 (10-bin unit histograms): exactly 166/450.
const GOLDEN_UNFAIRNESS: f64 = 0.36888888888888893;

/// The most-unfair partitioning itself: `(label, rows)` leaves in tree
/// order. QUANTIFY splits on year_of_birth first (every singleton birth
/// year is maximally spread), then splits the two 2-person year groups on
/// gender and country respectively.
const GOLDEN_PARTITIONS: [(&str, &[u32]); 10] = [
    ("year_of_birth=1963 ∧ gender=Female", &[4]),
    ("year_of_birth=1963 ∧ gender=Male", &[3]),
    ("year_of_birth=1976 ∧ country=India", &[2]),
    ("year_of_birth=1976 ∧ country=America", &[1]),
    ("year_of_birth=1982", &[6]),
    ("year_of_birth=1992", &[8]),
    ("year_of_birth=1995", &[5]),
    ("year_of_birth=2000", &[9]),
    ("year_of_birth=2004", &[0]),
    ("year_of_birth=2008", &[7]),
];

#[test]
fn recovered_scoring_reproduces_the_published_scores() {
    let space = table1_space().expect("paper space builds");
    assert_eq!(space.scores().len(), TABLE1_FW.len());
    for (i, (&got, &published)) in space.scores().iter().zip(&TABLE1_FW).enumerate() {
        assert!(
            (got - published).abs() < 1e-9,
            "row w{}: scored {got}, Table 1 prints {published}",
            i + 1
        );
    }
}

#[test]
fn table1_ranking_is_pinned() {
    let space = table1_space().expect("paper space builds");
    assert_eq!(scores_to_ranking(space.scores()), GOLDEN_RANKING);
}

#[test]
fn quantify_most_unfair_partitioning_is_pinned_under_every_backend() {
    use fairank::core::emd::{Emd, EmdBackendKind};

    let space = table1_space().expect("paper space builds");
    let want: Vec<(String, Vec<u32>)> = GOLDEN_PARTITIONS
        .iter()
        .map(|(label, rows)| (label.to_string(), rows.to_vec()))
        .collect();
    // The backend choice must never change the reported unfairness or the
    // partitioning: the 1-D closed form reproduces the golden
    // to the last bit, the transport solver to its pinned 1e-9 epsilon.
    for backend in EmdBackendKind::all() {
        let criterion = FairnessCriterion::new(Objective::MostUnfair, Aggregator::Mean)
            .with_emd(Emd::new(backend));
        let outcome = Quantify::new(criterion)
            .run(&table1_dataset(), &ScoreSource::from(table1_scoring()))
            .expect("quantify runs on Table 1");
        let eps = match backend {
            EmdBackendKind::Transport => 1e-9,
            _ => 1e-12,
        };
        assert!(
            (outcome.unfairness - GOLDEN_UNFAIRNESS).abs() < eps,
            "{backend:?} unfairness drifted: {:.17} vs pinned {GOLDEN_UNFAIRNESS:.17}",
            outcome.unfairness
        );
        let got: Vec<(String, Vec<u32>)> = outcome
            .partitions
            .iter()
            .map(|p| (p.label(&space), p.rows.clone()))
            .collect();
        assert_eq!(got, want, "{backend:?} found a different partitioning");
    }
}

#[test]
fn quantify_is_deterministic_across_runs() {
    let criterion = FairnessCriterion::new(Objective::MostUnfair, Aggregator::Mean);
    let a = Quantify::new(criterion)
        .run(&table1_dataset(), &ScoreSource::from(table1_scoring()))
        .expect("first run");
    let b = Quantify::new(criterion)
        .run(&table1_dataset(), &ScoreSource::from(table1_scoring()))
        .expect("second run");
    assert_eq!(a.unfairness, b.unfairness);
    assert_eq!(a.partitions, b.partitions);
}
