//! Pins the engine's cost on small spaces (≤1k rows, few attributes):
//! engine-backed quantify must not regress against the naive evaluation.
//! Small spaces share the engine's one cache layout (hashed content index,
//! open-addressed EMD memo) with large ones, so this bound is what keeps
//! the hashing overhead below the work the caches save where that margin
//! is thinnest. CI runs it in debug and in release.

use std::time::Duration;

use fairank_bench::synthetic_space;
use fairank_core::fairness::FairnessCriterion;
use fairank_core::quantify::Quantify;

/// Min-of-N search time: `QuantifyOutcome::elapsed` covers the search
/// alone, and the minimum over many runs is a stable proxy for the true
/// cost under scheduler noise.
fn min_elapsed(quantify: &Quantify, space: &fairank_core::space::RankingSpace, runs: usize) -> Duration {
    (0..runs)
        .map(|_| quantify.run_space(space).expect("quantify runs").elapsed)
        .min()
        .expect("at least one run")
}

#[test]
fn small_space_engine_does_not_regress_vs_naive() {
    // The tiny interactive case and the upper edge of "small".
    for (n, attrs, runs) in [(200usize, 2usize, 120usize), (1_000, 4, 40)] {
        let space = synthetic_space(n, attrs, 3, 0.3, 11);
        let engine = Quantify::new(FairnessCriterion::default());
        let naive = Quantify::new(FairnessCriterion::default()).with_naive_evaluation();

        // Zero behavior change first — the engine must be invisible.
        let engine_outcome = engine.run_space(&space).unwrap();
        let naive_outcome = naive.run_space(&space).unwrap();
        assert_eq!(engine_outcome.unfairness, naive_outcome.unfairness);
        assert_eq!(engine_outcome.partitions, naive_outcome.partitions);
        assert_eq!(engine_outcome.tree, naive_outcome.tree);

        // The regression bar: engine wall-clock within 1.5× of naive on
        // min-of-N (the engine should win; the slack only absorbs timer
        // noise on sub-millisecond searches). Timing on shared CI runners
        // is noisy even under min-of-N, so a systematic regression must
        // fail three independent attempts before the test does.
        let mut attempts = Vec::new();
        let passed = (0..3).any(|_| {
            let engine_min = min_elapsed(&engine, &space, runs);
            let naive_min = min_elapsed(&naive, &space, runs);
            attempts.push((engine_min, naive_min));
            engine_min <= naive_min * 3 / 2
        });
        assert!(
            passed,
            "n={n} attrs={attrs}: engine vs naive min-of-{runs} never within 1.5×: {attempts:?}"
        );
    }
}
