//! The paper's running example, verbatim.
//!
//! Table 1 lists 10 individuals of a crowdsourcing platform with five
//! protected attributes (Gender, Country, Year of Birth, Language,
//! Ethnicity), three observed attributes (Experience, Language Test,
//! Rating) and the scores of a scoring function `f`. The published `f(w)`
//! column is reproduced *exactly* by
//! `f = 0.3 · language_test + 0.7 · rating` (weights recovered by solving
//! the published rows; `exp_table1` in `fairank-bench` reproduces it as
//! experiment E1).
//!
//! Figure 2 then shows one partitioning of those individuals: split on
//! Gender first, then split only the Male side on Language, giving
//! {Male-English, Male-Indian, Male-Other, Female}.

use fairank_core::fairness::FairnessCriterion;
use fairank_core::partition::Partition;
use fairank_core::scoring::LinearScoring;
use fairank_core::space::RankingSpace;

use crate::dataset::Dataset;
use crate::error::Result;
use crate::schema::AttributeRole;

/// The published `f(w)` column of Table 1, in row order `w1..w10`.
pub const TABLE1_FW: [f64; 10] = [
    0.29, 0.911, 0.65, 0.724, 0.885, 0.266, 0.971, 0.195, 0.271, 0.62,
];

/// The Table 1 dataset, exactly as printed.
pub fn table1_dataset() -> Dataset {
    Dataset::builder()
        .categorical(
            "individual",
            AttributeRole::Meta,
            &["w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9", "w10"],
        )
        .categorical(
            "gender",
            AttributeRole::Protected,
            &[
                "Female", "Male", "Male", "Male", "Female", "Male", "Female", "Male",
                "Male", "Female",
            ],
        )
        .categorical(
            "country",
            AttributeRole::Protected,
            &[
                "India", "America", "India", "Other", "India", "America", "America",
                "Other", "Other", "America",
            ],
        )
        .integer(
            "year_of_birth",
            AttributeRole::Protected,
            vec![2004, 1976, 1976, 1963, 1963, 1995, 1982, 2008, 1992, 2000],
        )
        .categorical(
            "language",
            AttributeRole::Protected,
            &[
                "English", "English", "Indian", "Other", "Indian", "English", "English",
                "English", "English", "English",
            ],
        )
        .categorical(
            "ethnicity",
            AttributeRole::Protected,
            &[
                "Indian", "White", "White", "Indian", "Indian", "African-American",
                "African-American", "Other", "White", "White",
            ],
        )
        .integer(
            "experience",
            AttributeRole::Observed,
            vec![0, 14, 6, 18, 21, 2, 16, 0, 2, 5],
        )
        .float(
            "language_test",
            AttributeRole::Observed,
            vec![0.50, 0.89, 0.65, 0.64, 0.85, 0.42, 0.95, 0.30, 0.32, 0.76],
        )
        .float(
            "rating",
            AttributeRole::Observed,
            vec![0.20, 0.92, 0.65, 0.76, 0.90, 0.20, 0.98, 0.15, 0.25, 0.56],
        )
        .build()
        .expect("Table 1 is a valid dataset")
}

/// The scoring function of Table 1:
/// `f(w) = 0.3 · language_test + 0.7 · rating`.
pub fn table1_scoring() -> LinearScoring {
    LinearScoring::builder()
        .weight("language_test", 0.3)
        .weight("rating", 0.7)
        .build_unchecked()
        .expect("static weights are valid")
}

/// The ranking space of Table 1 under [`table1_scoring`].
pub fn table1_space() -> Result<RankingSpace> {
    let ds = table1_dataset();
    ds.to_space(&table1_scoring().into())
}

/// The Figure 2 partitioning of the Table 1 individuals:
/// {Male-English, Male-Indian, Male-Other, Female}, built by splitting on
/// Gender and then splitting the Male partition on Language.
pub fn figure2_partitioning(space: &RankingSpace) -> Vec<Partition> {
    let gender = space.attribute_index("gender").expect("gender exists");
    let language = space.attribute_index("language").expect("language exists");
    let root = Partition::root(space);
    let by_gender = root.split(space, gender);
    let mut out = Vec::new();
    for part in by_gender {
        let label = part.label(space);
        if label.ends_with("Male") {
            out.extend(part.split(space, language));
        } else {
            out.push(part);
        }
    }
    out
}

/// The average pairwise EMD of the Figure 2 partitioning under `criterion`
/// — the number the paper's §3.1 example quantifies.
pub fn figure2_unfairness(criterion: &FairnessCriterion) -> Result<f64> {
    let space = table1_space()?;
    let parts = figure2_partitioning(&space);
    Ok(criterion.unfairness(&parts, space.scores())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairank_core::partition::is_full_disjoint;
    use fairank_core::scoring::{ObservedTable, ScoreSource};

    #[test]
    fn scores_match_published_fw_column_exactly() {
        let ds = table1_dataset();
        let scores = ScoreSource::Function(table1_scoring())
            .resolve(&ds)
            .unwrap();
        for (i, (got, want)) in scores.iter().zip(TABLE1_FW).enumerate() {
            assert!(
                (got - want).abs() < 1e-9,
                "w{}: computed {got}, published {want}",
                i + 1
            );
        }
    }

    #[test]
    fn dataset_shape_matches_table1() {
        let ds = table1_dataset();
        assert_eq!(ds.num_rows(), 10);
        assert_eq!(ds.schema().len(), 9);
        assert_eq!(
            ds.observed_names(),
            vec!["experience", "language_test", "rating"]
        );
    }

    #[test]
    fn figure2_partitioning_is_the_published_one() {
        let space = table1_space().unwrap();
        let parts = figure2_partitioning(&space);
        assert_eq!(parts.len(), 4);
        assert!(is_full_disjoint(&parts, 10));
        let labels: Vec<String> = parts.iter().map(|p| p.label(&space)).collect();
        assert!(labels.contains(&"gender=Female".to_string()));
        assert!(labels.contains(&"gender=Male ∧ language=English".to_string()));
        assert!(labels.contains(&"gender=Male ∧ language=Indian".to_string()));
        assert!(labels.contains(&"gender=Male ∧ language=Other".to_string()));
        // Member counts as in Figure 2: Female = {w1,w5,w7,w10},
        // Male-English = {w2,w6,w8,w9}, Male-Indian = {w3}, Male-Other = {w4}.
        let sizes: Vec<(String, usize)> = parts
            .iter()
            .map(|p| (p.label(&space), p.len()))
            .collect();
        for (label, size) in sizes {
            match label.as_str() {
                "gender=Female" => assert_eq!(size, 4),
                "gender=Male ∧ language=English" => assert_eq!(size, 4),
                "gender=Male ∧ language=Indian" => assert_eq!(size, 1),
                "gender=Male ∧ language=Other" => assert_eq!(size, 1),
                other => panic!("unexpected partition {other}"),
            }
        }
    }

    #[test]
    fn figure2_unfairness_is_positive() {
        let u = figure2_unfairness(&FairnessCriterion::default()).unwrap();
        assert!(u > 0.0 && u < 1.0, "u = {u}");
    }

    #[test]
    fn year_of_birth_partitions_as_integers() {
        let ds = table1_dataset();
        let space = table1_space().unwrap();
        let yob = space.attribute_index("year_of_birth").unwrap();
        let attr = space.attribute(yob).unwrap();
        // Two individuals born 1976 and two born 1963 share codes.
        assert_eq!(attr.cardinality(), 8);
        assert_eq!(ds.num_rows(), 10);
    }
}
