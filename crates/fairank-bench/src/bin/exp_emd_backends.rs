//! E11 — ablation: EMD backend agreement and cost.
//!
//! The 1-D closed form (CDF difference) must agree with the general
//! transportation solver on uniform ground distances; the solver
//! additionally supports thresholded distances (Pele & Werman's EMD-hat
//! family, the paper's reference \[8\]). This binary verifies agreement on
//! random histograms and reports the speed gap.

use std::time::Instant;

use fairank_bench::{header, row};
use fairank_core::emd::{Emd, EmdBackendKind};
use fairank_core::histogram::{Histogram, HistogramSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_hist(rng: &mut StdRng, spec: HistogramSpec, n: usize) -> Histogram {
    Histogram::from_scores(spec, (0..n).map(|_| rng.gen_range(0.0..=1.0)))
}

fn main() {
    header("E11", "EMD backends: agreement and cost per bin count");
    let widths = [6, 12, 14, 14, 10];
    row(
        &[
            "bins".into(),
            "max |Δ|".into(),
            "1d ns/call".into(),
            "transport ns".into(),
            "speedup".into(),
        ],
        &widths,
    );
    let mut rng = StdRng::seed_from_u64(42);
    for &bins in &[5usize, 10, 20, 50, 100] {
        let spec = HistogramSpec::unit(bins).expect("valid");
        let pairs: Vec<(Histogram, Histogram)> = (0..50)
            .map(|_| {
                (
                    random_hist(&mut rng, spec, 200),
                    random_hist(&mut rng, spec, 200),
                )
            })
            .collect();

        let one_d = Emd::new(EmdBackendKind::OneD);
        let transport = Emd::new(EmdBackendKind::Transport);

        let mut max_delta = 0.0f64;
        for (a, b) in &pairs {
            let d1 = one_d.distance(a, b).expect("computable");
            let d2 = transport.distance(a, b).expect("computable");
            max_delta = max_delta.max((d1 - d2).abs());
        }

        let t0 = Instant::now();
        for (a, b) in &pairs {
            std::hint::black_box(one_d.distance(a, b).expect("computable"));
        }
        let ns_1d = t0.elapsed().as_nanos() as f64 / pairs.len() as f64;

        let t1 = Instant::now();
        for (a, b) in &pairs {
            std::hint::black_box(transport.distance(a, b).expect("computable"));
        }
        let ns_tr = t1.elapsed().as_nanos() as f64 / pairs.len() as f64;

        assert!(max_delta < 1e-8, "backends disagree: {max_delta}");
        row(
            &[
                format!("{bins}"),
                format!("{max_delta:.1e}"),
                format!("{ns_1d:.0}"),
                format!("{ns_tr:.0}"),
                format!("{:.0}x", ns_tr / ns_1d),
            ],
            &widths,
        );
    }
    println!(
        "\nRESULT: exact agreement (≤1e-8) everywhere; the closed form is \
         orders of magnitude cheaper, which is what makes the interactive \
         search affordable. The transport solver remains available for \
         non-uniform ground distances."
    );
}
