//! Pins the split engine's work reduction on the reference configurations
//! of `exp_bench`'s `quantify` section: identical search results with at
//! least a 2× cut in histograms built and EMDs computed (the acceptance
//! bar; `BENCH.json` pins the exact counts and the bench gate checks
//! them).

use fairank_bench::synthetic_space;
use fairank_core::fairness::FairnessCriterion;
use fairank_core::quantify::Quantify;

#[test]
fn engine_halves_histogram_and_emd_work_on_reference_configs() {
    for (n, attrs) in [(10_000usize, 4usize), (10_000, 8)] {
        let space = synthetic_space(n, attrs, 3, 0.3, 7);
        let engine = Quantify::new(FairnessCriterion::default())
            .run_space(&space)
            .expect("engine run");
        let naive = Quantify::new(FairnessCriterion::default())
            .with_naive_evaluation()
            .run_space(&space)
            .expect("naive run");

        // Zero behavior change.
        assert_eq!(engine.unfairness, naive.unfairness, "n={n} attrs={attrs}");
        assert_eq!(engine.partitions, naive.partitions);
        assert_eq!(engine.tree, naive.tree);

        // ≥ 2× fewer histogram builds everywhere, strictly fewer EMD
        // computations, and a live memo.
        assert!(
            naive.stats.histograms_built >= 2 * engine.stats.histograms_built,
            "n={n} attrs={attrs}: histograms {} vs naive {}",
            engine.stats.histograms_built,
            naive.stats.histograms_built
        );
        assert!(
            engine.stats.emd_calls < naive.stats.emd_calls,
            "n={n} attrs={attrs}: EMD calls {} vs naive {}",
            engine.stats.emd_calls,
            naive.stats.emd_calls
        );
        assert!(engine.stats.emd_cache_hits > 0);

        // The acceptance configuration (10k / 8 attributes): its fine
        // partitioning makes content interning collapse the leaf pairwise
        // matrix — well beyond the required 2× EMD reduction (measured
        // ~60×: 5.07M naive EMDs vs ~84k engine EMDs).
        if attrs == 8 {
            assert!(
                naive.stats.emd_calls >= 2 * engine.stats.emd_calls,
                "EMD calls {} vs naive {}",
                engine.stats.emd_calls,
                naive.stats.emd_calls
            );
        }
    }
}
