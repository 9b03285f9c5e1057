//! Wire contract and structural invariants of the scenario-plan layer:
//! serde round trips for `ScenarioSpec` / `ScenarioReport` (and their
//! `Response` envelope), and a property test pinning `compile`'s cell
//! count to the spec's grid cardinality.

use proptest::prelude::*;

use fairank::core::emd::EmdBackendKind;
use fairank::core::fairness::{Aggregator, Objective};
use fairank::core::plan::SearchStrategy;
use fairank::session::plan::{
    compile, CriterionGrid, MarketSpec, Perspective, ScenarioOutcome, ScenarioReport,
    ScenarioSpec,
};
use fairank::session::response::Response;
use fairank::session::Session;

fn session() -> Session {
    let mut s = Session::new();
    s.add_dataset("table1", fairank::data::paper::table1_dataset())
        .unwrap();
    s.add_function("paper-f", fairank::data::paper::table1_scoring())
        .unwrap();
    s
}

fn round_trip_spec(spec: &ScenarioSpec) {
    let json = serde_json::to_string(spec).unwrap();
    let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, &back, "round trip changed {json}");
}

#[test]
fn scenario_spec_round_trips_every_perspective() {
    let market = MarketSpec {
        preset: "taskrabbit".into(),
        n: 120,
        seed: 9,
    };
    round_trip_spec(&ScenarioSpec::new(Perspective::Grid {
        datasets: vec!["a".into(), "b".into()],
        functions: vec!["f".into()],
        filter: Some("gender=Female".into()),
    }));
    round_trip_spec(&ScenarioSpec {
        perspective: Perspective::Auditor {
            market: market.clone(),
            k: Some(4),
            ranking_only: true,
            subgroup_depth: 2,
            min_subgroup: 10,
        },
        strategy: Some(SearchStrategy::Beam { width: 4 }),
        criteria: Some(CriterionGrid {
            objectives: vec![Objective::MostUnfair, Objective::LeastUnfair],
            aggregators: vec![Aggregator::Mean, Aggregator::Variance],
            bins: vec![5, 10],
            emds: vec![EmdBackendKind::OneD, EmdBackendKind::Transport],
        }),
    });
    round_trip_spec(&ScenarioSpec {
        perspective: Perspective::JobOwner {
            market: market.clone(),
            job: "wood-panels".into(),
            skill: "rating".into(),
            weights: vec![0.0, 0.5, 1.0],
        },
        strategy: Some(SearchStrategy::Exhaustive { budget: 5000 }),
        criteria: None,
    });
    round_trip_spec(&ScenarioSpec {
        perspective: Perspective::EndUser {
            market,
            groups: vec!["gender=Female".into(), "city=Paris".into()],
        },
        strategy: Some(SearchStrategy::Quantify {
            max_depth: Some(3),
            min_partition: 2,
        }),
        criteria: None,
    });
}

#[test]
fn scenario_report_round_trips_for_every_outcome_shape() {
    let check = |spec: &ScenarioSpec| -> ScenarioReport {
        let mut s = session();
        let report = compile(&s, spec).unwrap().run(&mut s).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: ScenarioReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back, "report round trip changed");
        // The Response envelope (what the wire actually carries).
        let response = Response::Scenario(report.clone());
        let json = serde_json::to_string(&response).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(response, back);
        report
    };

    let grid = check(&ScenarioSpec::new(Perspective::Grid {
        datasets: vec!["table1".into()],
        functions: vec!["paper-f".into()],
        filter: None,
    }));
    assert!(matches!(grid.outcome, ScenarioOutcome::Grid(_)));

    let market = MarketSpec {
        preset: "taskrabbit".into(),
        n: 60,
        seed: 3,
    };
    let audit = check(&ScenarioSpec::new(Perspective::Auditor {
        market: market.clone(),
        k: None,
        ranking_only: false,
        subgroup_depth: 1,
        min_subgroup: 6,
    }));
    assert!(matches!(audit.outcome, ScenarioOutcome::Audit(_)));

    let sweep = check(&ScenarioSpec::new(Perspective::JobOwner {
        market: market.clone(),
        job: "wood-panels".into(),
        skill: "rating".into(),
        weights: vec![0.0, 1.0],
    }));
    assert!(matches!(sweep.outcome, ScenarioOutcome::JobOwner(_)));

    let view = check(&ScenarioSpec::new(Perspective::EndUser {
        market,
        groups: vec!["gender=Female".into()],
    }));
    assert!(matches!(view.outcome, ScenarioOutcome::EndUser(_)));
}

#[test]
fn scenario_report_carries_per_cell_engine_counters() {
    let mut s = session();
    let spec = ScenarioSpec {
        perspective: Perspective::Grid {
            datasets: vec!["table1".into()],
            functions: vec!["paper-f".into()],
            filter: None,
        },
        strategy: None,
        criteria: Some(CriterionGrid {
            objectives: vec![Objective::MostUnfair],
            aggregators: vec![Aggregator::Mean, Aggregator::Max],
            bins: vec![10],
            emds: vec![EmdBackendKind::OneD],
        }),
    };
    let report = compile(&s, &spec).unwrap().run_parallel(&mut s).unwrap();
    assert_eq!(report.cells.len(), 2);
    for cell in &report.cells {
        assert!(!cell.label.is_empty());
        assert!(cell.unfairness.is_some());
        // The engine did real work and said so.
        assert!(cell.histograms_built > 0, "cell {:?}", cell.label);
        assert!(cell.emd_calls > 0, "cell {:?}", cell.label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compile_cell_count_matches_grid_cardinality(
        objective_count in 1usize..=2,
        aggregator_count in 1usize..=6,
        bins in prop::collection::vec(2usize..24, 1..4),
        emd_count in 1usize..=2,
        dataset_copies in 1usize..4,
        function_copies in 1usize..4,
    ) {
        let objectives: Vec<Objective> =
            [Objective::MostUnfair, Objective::LeastUnfair][..objective_count].to_vec();
        let aggregators: Vec<Aggregator> = Aggregator::all()[..aggregator_count].to_vec();
        let mut s = Session::new();
        let mut datasets = Vec::new();
        for i in 0..dataset_copies {
            let name = format!("d{i}");
            s.add_dataset(&name, fairank::data::paper::table1_dataset()).unwrap();
            datasets.push(name);
        }
        let mut functions = Vec::new();
        for i in 0..function_copies {
            let name = format!("f{i}");
            s.add_function(&name, fairank::data::paper::table1_scoring()).unwrap();
            functions.push(name);
        }
        let emds: Vec<EmdBackendKind> =
            EmdBackendKind::all()[..emd_count].to_vec();
        let grid = CriterionGrid {
            objectives,
            aggregators,
            bins,
            emds,
        };
        let spec = ScenarioSpec {
            perspective: Perspective::Grid {
                datasets: datasets.clone(),
                functions: functions.clone(),
                filter: None,
            },
            strategy: None,
            criteria: Some(grid.clone()),
        };
        let plan = compile(&s, &spec).unwrap();
        prop_assert_eq!(
            plan.cell_count(),
            datasets.len() * functions.len() * grid.cardinality()
        );
        prop_assert_eq!(plan.cell_labels().len(), plan.cell_count());
    }
}
