//! The streaming re-audit's trajectory, pinned: fixed-seed
//! [`StreamScenario`]s under both EMD metrics must reproduce the committed
//! trajectories in `tests/golden/` round for round — unfairness bits and
//! every delta counter (`histograms_rebuilt`, `emd_entries_dropped`,
//! `delta_reused_histograms`, `delta_invalidated_emds`, `emd_calls`).
//! Only the wall-clock `requantify_us` is left out.
//!
//! Three marketplace sizes pin the trajectory: 600 and 1,500 workers under
//! both metrics, and 3,000 workers (the wire benchmark's population) under
//! the 1-D metric. Only the 3,000-worker market grows trees of ~100 leaves,
//! the size at which the delta replay's cross-round leaf-distance table
//! serves most of the final fold. A change to how the delta engine patches
//! or invalidates its caches, or folds its leaves, must leave every line
//! unchanged.
//!
//! On a mismatch the actual trajectory is written under the cargo target
//! tmpdir and the test fails naming the first differing round. The
//! committed files are never rewritten by the test; a deliberate change to
//! the trajectory updates them by hand, in the same change, for review.

use std::path::PathBuf;

use fairank_core::emd::{Emd, EmdBackendKind};
use fairank_core::fairness::FairnessCriterion;
use fairank_marketplace::platform::Transparency;
use fairank_marketplace::scenario::taskrabbit_like;
use fairank_marketplace::stream::{RoundAudit, StreamConfig, StreamScenario};

const JOB: &str = "errands";
const ROUNDS: usize = 60;
const STREAM_SEED: u64 = 0x5EED_0015;

/// One round as a golden line: every deterministic field, the unfairness
/// as its exact bit pattern.
fn line(r: &RoundAudit) -> String {
    format!(
        "{{\"round\":{},\"events\":{},\"population\":{},\"unfairness_bits\":\"{:#018x}\",\
         \"num_partitions\":{},\"histograms_rebuilt\":{},\"emd_entries_dropped\":{},\
         \"delta_reused_histograms\":{},\"delta_invalidated_emds\":{},\"emd_calls\":{}}}",
        r.round,
        r.events,
        r.population,
        r.unfairness.to_bits(),
        r.num_partitions,
        r.histograms_rebuilt,
        r.emd_entries_dropped,
        r.delta_reused_histograms,
        r.delta_invalidated_emds,
        r.emd_calls,
    )
}

/// Runs the scenario and checks it against `golden` (the committed file's
/// contents, named `name`).
fn check(size: usize, backend: EmdBackendKind, name: &str, golden: &str) {
    let market = taskrabbit_like(size, 3).expect("the taskrabbit preset builds");
    let criterion = FairnessCriterion::default().with_emd(Emd::new(backend));
    let scenario = StreamScenario::new(
        &market,
        JOB,
        &Transparency::full(),
        &criterion,
        StreamConfig {
            rounds: ROUNDS,
            seed: Some(STREAM_SEED),
            ..StreamConfig::default()
        },
    )
    .expect("the stream scenario builds");
    assert_eq!(
        scenario.space().num_individuals(),
        size,
        "{name}: the preset no longer builds {size} workers"
    );
    let outcome = scenario.run().expect("the stream runs");
    let actual: Vec<String> = outcome.rounds.iter().map(line).collect();
    let expected: Vec<&str> = golden.lines().collect();
    if actual == expected {
        return;
    }
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual"));
    let mut text = actual.join("\n");
    text.push('\n');
    std::fs::write(&out, text).expect("write actual trajectory");
    let round = actual
        .iter()
        .zip(&expected)
        .position(|(got, want)| *got != *want)
        .unwrap_or(actual.len().min(expected.len()));
    panic!(
        "stream trajectory differs from tests/golden/{name} at round {round} \
         ({} actual rounds, {} expected)\n  expected: {}\n  actual:   {}\n\
         full actual trajectory: {}",
        actual.len(),
        expected.len(),
        expected.get(round).copied().unwrap_or("<end of file>"),
        actual
            .get(round)
            .map_or("<end of trajectory>", String::as_str),
        out.display()
    );
}

#[test]
fn stream_600_one_d_trajectory_is_unchanged() {
    check(
        600,
        EmdBackendKind::OneD,
        "stream_600_1d.jsonl",
        include_str!("golden/stream_600_1d.jsonl"),
    );
}

#[test]
fn stream_600_transport_trajectory_is_unchanged() {
    check(
        600,
        EmdBackendKind::Transport,
        "stream_600_transport.jsonl",
        include_str!("golden/stream_600_transport.jsonl"),
    );
}

#[test]
fn stream_1500_one_d_trajectory_is_unchanged() {
    check(
        1500,
        EmdBackendKind::OneD,
        "stream_1500_1d.jsonl",
        include_str!("golden/stream_1500_1d.jsonl"),
    );
}

#[test]
fn stream_1500_transport_trajectory_is_unchanged() {
    check(
        1500,
        EmdBackendKind::Transport,
        "stream_1500_transport.jsonl",
        include_str!("golden/stream_1500_transport.jsonl"),
    );
}

#[test]
fn stream_3000_one_d_trajectory_is_unchanged() {
    check(
        3000,
        EmdBackendKind::OneD,
        "stream_3000_1d.jsonl",
        include_str!("golden/stream_3000_1d.jsonl"),
    );
}
