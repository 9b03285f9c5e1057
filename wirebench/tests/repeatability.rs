//! Self-tests of the benchmark. They compare counts only, on the small
//! shape, and write nothing outside the build directory.

use std::path::Path;

use wirebench::replay::{self, DETERMINISTIC};
use wirebench::workload::{Scale, Workload};

/// The replay's request-determined counters for one seed.
fn counters(workload: Workload, seed: u64, spans: Option<&Path>) -> Vec<(&'static str, f64)> {
    let layers = replay::run(workload, seed, Scale::small(), spans).expect("the replay runs");
    assert_eq!(
        layers.failed,
        0,
        "{} replay had failed requests",
        workload.name()
    );
    DETERMINISTIC
        .iter()
        .map(|&name| {
            (
                name,
                layers
                    .get(name)
                    .expect("every deterministic metric is reported"),
            )
        })
        .collect()
}

#[test]
fn request_counters_repeat_exactly_for_a_seed() {
    let spans = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wirebench-selftest-spans.jsonl");
    for workload in Workload::ALL {
        let first = counters(workload, 5, Some(&spans));
        assert!(std::fs::metadata(&spans).expect("spans written").len() > 0);
        let second = counters(workload, 5, None);
        assert_eq!(
            first,
            second,
            "{} counters differ between runs",
            workload.name()
        );
    }
}

#[test]
fn workloads_exercise_their_layers() {
    let value = |workload, name| {
        counters(workload, 3, None)
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v)
            .expect("metric present")
    };
    assert!(value(Workload::QuantifyBrowse, "engine.emd_calls") > 0.0);
    assert!(value(Workload::QuantifyBrowse, "protocol.reply_bytes") > 0.0);
    assert!(value(Workload::GridExplore, "cellcache.hits") > 0.0);
    assert!(value(Workload::GridExplore, "cellcache.misses") > 0.0);
    assert_eq!(value(Workload::GridExplore, "plan.cells"), 8.0);
    assert!(
        value(
            Workload::StreamReaudit,
            "incremental.delta_reused_histograms"
        ) > 0.0
    );
    assert_eq!(value(Workload::StreamReaudit, "cellcache.hits"), 0.0);
}

#[test]
fn another_seed_changes_the_request_sequence() {
    for workload in Workload::ALL {
        let a = replay::scripts(workload, 5, Scale::small(), 2);
        let b = replay::scripts(workload, 6, Scale::small(), 2);
        assert_eq!(a, replay::scripts(workload, 5, Scale::small(), 2));
        assert_ne!(
            a,
            b,
            "{}: seeds 5 and 6 send the same requests",
            workload.name()
        );
    }
}
