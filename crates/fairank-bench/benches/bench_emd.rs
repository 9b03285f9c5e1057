//! Criterion benches for the EMD backends (experiment E11's timing side):
//! 1-D closed form vs transportation solver across bin counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fairank_core::emd::{Emd, EmdBackendKind};
use fairank_core::histogram::{Histogram, HistogramSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn hist_pair(bins: usize, seed: u64) -> (Histogram, Histogram) {
    let spec = HistogramSpec::unit(bins).expect("valid spec");
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Histogram::from_scores(spec, (0..500).map(|_| rng.gen_range(0.0..=1.0)));
    let b = Histogram::from_scores(spec, (0..500).map(|_| rng.gen_range(0.0..=1.0)));
    (a, b)
}

fn bench_emd(c: &mut Criterion) {
    let mut group = c.benchmark_group("emd");
    for bins in [5usize, 10, 50, 200] {
        let (a, b) = hist_pair(bins, 42);
        let one_d = Emd::new(EmdBackendKind::OneD);
        group.bench_with_input(BenchmarkId::new("one_d", bins), &bins, |bencher, _| {
            bencher.iter(|| one_d.distance(&a, &b).expect("computable"))
        });
        // The transport solver is polynomial in bins; cap to keep runs short.
        if bins <= 50 {
            let transport = Emd::new(EmdBackendKind::Transport);
            group.bench_with_input(
                BenchmarkId::new("transport", bins),
                &bins,
                |bencher, _| bencher.iter(|| transport.distance(&a, &b).expect("computable")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_emd);
criterion_main!(benches);
