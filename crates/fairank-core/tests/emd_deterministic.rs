//! Fast deterministic EMD unit tests (fixed seeds), complementing the
//! root proptest suite: backend agreement between the 1-D closed form and
//! the transportation solver on random mass vectors, plus the metric
//! axioms (identity, symmetry, triangle inequality) the unfairness
//! aggregation relies on.

use fairank_core::emd::{emd_1d, transport_emd, Emd, EmdBackendKind};
use fairank_core::histogram::{Histogram, HistogramSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random probability vector of `bins` non-negative entries summing to 1.
fn random_mass(rng: &mut StdRng, bins: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..bins).map(|_| rng.gen::<f64>()).collect();
    let sum: f64 = v.iter().sum();
    for x in &mut v {
        *x /= sum;
    }
    v
}

/// `|i - j|` ground distances for `n` bins, row-major.
fn abs_cost(n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            c[i * n + j] = (i as f64 - j as f64).abs();
        }
    }
    c
}

#[test]
fn closed_form_matches_transport_solver_on_random_mass_vectors() {
    let mut rng = StdRng::seed_from_u64(0xEDB7_2019);
    for bins in [2usize, 3, 7, 16, 33] {
        let cost = abs_cost(bins);
        for _ in 0..50 {
            let a = random_mass(&mut rng, bins);
            let b = random_mass(&mut rng, bins);
            let cdf = fairank_core::emd::one_d::emd_1d_mass(&a, &b, 1.0);
            let plan = transport_emd(&a, &b, &cost, bins).expect("solvable");
            assert!(
                (plan.cost - cdf).abs() < 1e-8,
                "bins={bins}: transport {} vs closed form {cdf}",
                plan.cost
            );
        }
    }
}

#[test]
fn identity_of_indiscernibles_at_fixed_seeds() {
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..100 {
        let a = random_mass(&mut rng, 12);
        let d = fairank_core::emd::one_d::emd_1d_mass(&a, &a, 0.1);
        assert!(d.abs() < 1e-12, "self-distance {d}");
    }
}

#[test]
fn symmetry_at_fixed_seeds() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..100 {
        let a = random_mass(&mut rng, 10);
        let b = random_mass(&mut rng, 10);
        let ab = fairank_core::emd::one_d::emd_1d_mass(&a, &b, 0.1);
        let ba = fairank_core::emd::one_d::emd_1d_mass(&b, &a, 0.1);
        assert!(ab >= 0.0);
        assert!((ab - ba).abs() < 1e-12, "{ab} vs {ba}");
    }
}

#[test]
fn triangle_inequality_at_fixed_seeds() {
    let mut rng = StdRng::seed_from_u64(43);
    for _ in 0..100 {
        let a = random_mass(&mut rng, 8);
        let b = random_mass(&mut rng, 8);
        let c = random_mass(&mut rng, 8);
        let ab = fairank_core::emd::one_d::emd_1d_mass(&a, &b, 1.0);
        let bc = fairank_core::emd::one_d::emd_1d_mass(&b, &c, 1.0);
        let ac = fairank_core::emd::one_d::emd_1d_mass(&a, &c, 1.0);
        assert!(ac <= ab + bc + 1e-9, "{ac} > {ab} + {bc}");
    }
}

#[test]
fn histogram_backends_agree_and_stay_bounded() {
    let mut rng = StdRng::seed_from_u64(7);
    let spec = HistogramSpec::unit(10).expect("valid spec");
    let one_d_backend = Emd::new(EmdBackendKind::OneD);
    let transport_backend = Emd::new(EmdBackendKind::Transport);
    for _ in 0..25 {
        let na = rng.gen_range(1usize..60);
        let nb = rng.gen_range(1usize..60);
        let ha = Histogram::from_scores(spec, (0..na).map(|_| rng.gen::<f64>()));
        let hb = Histogram::from_scores(spec, (0..nb).map(|_| rng.gen::<f64>()));
        let d1 = one_d_backend.distance(&ha, &hb).expect("computable");
        let d2 = transport_backend.distance(&ha, &hb).expect("computable");
        assert!((d1 - d2).abs() < 1e-8, "{d1} vs {d2}");
        assert!((0.0..=1.0 + 1e-12).contains(&d1));
        assert!((emd_1d(&ha, &hb) - d1).abs() < 1e-12);
    }
}

#[test]
fn known_closed_form_values() {
    // All mass one bin apart: EMD is exactly one bin width.
    let a = [1.0, 0.0];
    let b = [0.0, 1.0];
    assert!((fairank_core::emd::one_d::emd_1d_mass(&a, &b, 0.5) - 0.5).abs() < 1e-15);
    // Half the mass moves two bins at width 0.25: 0.5 * 2 * 0.25.
    let a = [1.0, 0.0, 0.0];
    let b = [0.5, 0.0, 0.5];
    assert!((fairank_core::emd::one_d::emd_1d_mass(&a, &b, 0.25) - 0.25).abs() < 1e-15);
}
