//! The pluggable EMD backend layer.
//!
//! [`EmdBackend`] is the object-safe trait every distance implementation
//! satisfies. Beyond the single-pair distance it exposes a *pairwise-batch*
//! API: given all leaf histograms of a node, a backend returns the full
//! pairwise (or cross) distance contribution in one call, which lets an
//! implementation hoist per-histogram work out of the O(L²) pair loop.
//! Two implementations ship:
//!
//! * [`TransportBackend`] — the reference minimum-cost transportation
//!   solver. Its inputs are put into a canonical order before solving, so
//!   `d(a, b)` and `d(b, a)` are *bitwise* identical (the solver's pivoting
//!   is not otherwise guaranteed symmetric at the bit level); downstream
//!   memo tables can therefore key on unordered pairs. Its batch entry
//!   points build the cost matrix once per batch.
//! * [`OneDBackend`] — the exact 1-D closed form (CDF difference), already
//!   bitwise symmetric because IEEE negation is exact.
//!
//! The engine evaluates the closed form straight from its hoisted mass
//! arena through `one_d_from_parts`: every histogram's normalized mass
//! vector is computed once, and each pair is then folded in the *reference
//! summation order* (`cum += pa_i − pb_i; total += |cum|`). Subtracting
//! hoisted prefix-sum CDFs (`|CDF_a − CDF_b|`) would change the rounding of
//! that fold, so masses are hoisted instead of CDFs — the result is
//! bit-identical (0 ULP) to [`OneDBackend`], not merely close.
//!
//! Equivalence guarantees, pinned by `tests/emd_backend_equivalence.rs`:
//!
//! | backend     | vs. 1-D closed form | symmetry        |
//! |-------------|---------------------|-----------------|
//! | `1d`        | identity            | bitwise (exact) |
//! | `transport` | ≤ 1e-9 (solver eps) | bitwise (canonical input order) |

use std::cmp::Ordering;

use crate::error::Result;
use crate::histogram::{Histogram, HistogramSpec};

use super::{one_d, transport, EmdBackendKind};

/// An EMD implementation: single-pair distance plus batch entry points.
///
/// All methods honor the module's empty-histogram conventions (empty vs.
/// empty is `0`, empty vs. non-empty is the spec's range width) and error
/// on incompatible specs, exactly like [`super::Emd::distance`].
pub trait EmdBackend: Send + Sync {
    /// The selector this implementation answers to.
    fn kind(&self) -> EmdBackendKind;

    /// The command-syntax name (`1d` / `transport`).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Distance between two histograms sharing a spec.
    fn pair(&self, a: &Histogram, b: &Histogram) -> Result<f64>;

    /// All `C(L, 2)` unordered pairwise distances among `hists`, pushed
    /// onto `out` in lexicographic pair order `(0,1), (0,2), …`.
    fn pairwise(&self, hists: &[Histogram], out: &mut Vec<f64>) -> Result<()> {
        for i in 0..hists.len() {
            for j in (i + 1)..hists.len() {
                out.push(self.pair(&hists[i], &hists[j])?);
            }
        }
        Ok(())
    }

    /// All `|left| × |right|` cross distances (left outer, right inner —
    /// the order `cross_distances` has always used).
    fn cross(&self, left: &[Histogram], right: &[Histogram], out: &mut Vec<f64>) -> Result<()> {
        for a in left {
            for b in right {
                out.push(self.pair(a, b)?);
            }
        }
        Ok(())
    }
}

/// The empty-histogram conventions: `Some(distance)` when a convention
/// decides the pair, `None` when both histograms are non-empty and the
/// backend must compute. The single source every distance path — including
/// the engine's id-level path via `one_d_from_parts` — goes through, so
/// the conventions cannot drift apart.
fn convention(a_empty: bool, b_empty: bool, spec: &HistogramSpec) -> Option<f64> {
    match (a_empty, b_empty) {
        (true, true) => Some(0.0),
        (true, false) | (false, true) => Some(spec.hi() - spec.lo()),
        (false, false) => None,
    }
}

/// The shared compatibility check + empty-histogram conventions.
fn special_case(a: &Histogram, b: &Histogram) -> Result<Option<f64>> {
    a.check_compatible(b)?;
    Ok(convention(a.is_empty(), b.is_empty(), a.spec()))
}

/// The complete 1-D closed-form distance over pre-separated parts
/// (emptiness flags + normalized masses): conventions, then the reference
/// fold. Crate-visible so the engine's batch path computes the exact same
/// bits from its cached mass vectors without materializing histograms.
pub(crate) fn one_d_from_parts(
    a_empty: bool,
    b_empty: bool,
    mass_a: &[f64],
    mass_b: &[f64],
    spec: &HistogramSpec,
) -> f64 {
    convention(a_empty, b_empty, spec)
        .unwrap_or_else(|| one_d::emd_1d_mass(mass_a, mass_b, spec.bin_width()))
}

/// Exact 1-D closed form (CDF difference) — the default backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct OneDBackend;

impl EmdBackend for OneDBackend {
    fn kind(&self) -> EmdBackendKind {
        EmdBackendKind::OneD
    }

    fn pair(&self, a: &Histogram, b: &Histogram) -> Result<f64> {
        a.check_compatible(b)?;
        Ok(one_d_from_parts(a.is_empty(), b.is_empty(), &a.mass(), &b.mass(), a.spec()))
    }
}

/// The general transportation solver with `|center_i − center_j|` costs —
/// the reference backend, canonicalized for bitwise symmetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportBackend;

impl TransportBackend {
    /// The `|center_i − center_j|` ground-distance matrix of a spec.
    fn cost_matrix(spec: &HistogramSpec) -> Vec<f64> {
        let n = spec.bins();
        let mut cost = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                cost[i * n + j] = (spec.bin_center(i) - spec.bin_center(j)).abs();
            }
        }
        cost
    }

    /// One pair solve against an already-built cost matrix. Compatibility
    /// is checked per pair, so a batch whose histograms disagree on the
    /// spec errors before any mismatched cost matrix is ever consulted.
    fn pair_with_cost(a: &Histogram, b: &Histogram, cost: &[f64]) -> Result<f64> {
        if let Some(d) = special_case(a, b)? {
            return Ok(d);
        }
        // The ground-distance matrix is symmetric, so EMD(a, b) = EMD(b, a)
        // mathematically — but the solver's augmenting-path order is input-
        // order dependent, so the two directions could differ in the last
        // ulp. Solving in a canonical input order makes the distance
        // bitwise symmetric by construction, which in turn lets memo tables
        // share one entry per unordered pair.
        let pa = a.mass();
        let pb = b.mass();
        let (supply, demand) = match pa.as_slice().partial_cmp(pb.as_slice()) {
            Some(Ordering::Greater) => (&pb, &pa),
            _ => (&pa, &pb),
        };
        let plan = transport::transport_emd(supply, demand, cost, a.spec().bins())?;
        Ok(plan.cost)
    }
}

impl EmdBackend for TransportBackend {
    fn kind(&self) -> EmdBackendKind {
        EmdBackendKind::Transport
    }

    fn pair(&self, a: &Histogram, b: &Histogram) -> Result<f64> {
        Self::pair_with_cost(a, b, &Self::cost_matrix(a.spec()))
    }

    fn pairwise(&self, hists: &[Histogram], out: &mut Vec<f64>) -> Result<()> {
        // One cost matrix per batch: the spec is shared (any mismatch
        // errors in `pair_with_cost`), so the O(bins²) build is hoisted
        // out of the O(L²) pair loop.
        let Some(first) = hists.first() else {
            return Ok(());
        };
        let cost = Self::cost_matrix(first.spec());
        for i in 0..hists.len() {
            for j in (i + 1)..hists.len() {
                out.push(Self::pair_with_cost(&hists[i], &hists[j], &cost)?);
            }
        }
        Ok(())
    }

    fn cross(&self, left: &[Histogram], right: &[Histogram], out: &mut Vec<f64>) -> Result<()> {
        let Some(first) = left.first() else {
            return Ok(());
        };
        let cost = Self::cost_matrix(first.spec());
        for a in left {
            for b in right {
                out.push(Self::pair_with_cost(a, b, &cost)?);
            }
        }
        Ok(())
    }
}

impl EmdBackendKind {
    /// The implementation behind this selector.
    pub fn implementation(&self) -> &'static dyn EmdBackend {
        static ONE_D: OneDBackend = OneDBackend;
        static TRANSPORT: TransportBackend = TransportBackend;
        match self {
            EmdBackendKind::OneD => &ONE_D,
            EmdBackendKind::Transport => &TRANSPORT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::HistogramSpec;

    fn hist(scores: &[f64]) -> Histogram {
        Histogram::from_scores(HistogramSpec::unit(10).unwrap(), scores.iter().copied())
    }

    #[test]
    fn kinds_resolve_to_their_implementations() {
        for kind in EmdBackendKind::all() {
            assert_eq!(kind.implementation().kind(), kind);
            assert_eq!(kind.implementation().name(), kind.name());
        }
    }

    #[test]
    fn batched_pair_is_bit_identical_to_one_d() {
        // The engine's path: the fold over hoisted (once-normalized) masses.
        let a = hist(&[0.05, 0.15, 0.15, 0.35, 0.75, 0.85]);
        let b = hist(&[0.25, 0.45, 0.55, 0.95]);
        let d1 = OneDBackend.pair(&a, &b).unwrap();
        let hoisted = one_d_from_parts(false, false, &a.mass(), &b.mass(), a.spec());
        assert_eq!(d1.to_bits(), hoisted.to_bits());
    }

    #[test]
    fn batched_pairwise_matches_per_pair_loop_bitwise() {
        let hists = vec![
            hist(&[0.05, 0.05]),
            hist(&[0.55, 0.55]),
            hist(&[0.95, 0.95]),
            hist(&[0.05, 0.95]),
        ];
        for kind in EmdBackendKind::all() {
            let backend = kind.implementation();
            let mut batch = Vec::new();
            backend.pairwise(&hists, &mut batch).unwrap();
            assert_eq!(batch.len(), 6);
            let mut k = 0;
            for i in 0..hists.len() {
                for j in (i + 1)..hists.len() {
                    let d = backend.pair(&hists[i], &hists[j]).unwrap();
                    assert_eq!(batch[k].to_bits(), d.to_bits(), "{kind:?} ({i},{j})");
                    k += 1;
                }
            }
        }
    }

    #[test]
    fn batched_cross_matches_per_pair_loop_bitwise() {
        let left = vec![hist(&[0.05]), hist(&[0.45, 0.55])];
        let right = vec![hist(&[0.95]), hist(&[0.25]), hist(&[0.65, 0.75])];
        for kind in EmdBackendKind::all() {
            let backend = kind.implementation();
            let mut batch = Vec::new();
            backend.cross(&left, &right, &mut batch).unwrap();
            let per_pair: Vec<f64> = left
                .iter()
                .flat_map(|a| right.iter().map(move |b| backend.pair(a, b).unwrap()))
                .collect();
            assert_eq!(per_pair.len(), 6);
            for (x, y) in per_pair.iter().zip(&batch) {
                assert_eq!(x.to_bits(), y.to_bits(), "{kind:?}");
            }
        }
    }

    #[test]
    fn transport_pair_is_bitwise_symmetric() {
        let a = hist(&[0.1, 0.2, 0.35, 0.8]);
        let b = hist(&[0.6, 0.7, 0.9]);
        let ab = TransportBackend.pair(&a, &b).unwrap();
        let ba = TransportBackend.pair(&b, &a).unwrap();
        assert_eq!(ab.to_bits(), ba.to_bits());
    }

    #[test]
    fn batch_entry_points_honor_empty_conventions() {
        let spec = HistogramSpec::unit(10).unwrap();
        let empty = Histogram::empty(spec);
        let full = hist(&[0.5]);
        let hists = vec![empty.clone(), full.clone(), Histogram::empty(spec)];
        for kind in EmdBackendKind::all() {
            let backend = kind.implementation();
            let mut out = Vec::new();
            backend.pairwise(&hists, &mut out).unwrap();
            // (empty, full) = 1, (empty, empty) = 0, (full, empty) = 1.
            assert_eq!(out, vec![1.0, 0.0, 1.0], "{kind:?}");
            let mut out = Vec::new();
            backend
                .cross(std::slice::from_ref(&empty), &hists, &mut out)
                .unwrap();
            assert_eq!(out, vec![0.0, 1.0, 0.0], "{kind:?}");
        }
    }

    #[test]
    fn incompatible_specs_error_in_batches_too() {
        let a = Histogram::empty(HistogramSpec::unit(5).unwrap());
        let b = Histogram::empty(HistogramSpec::unit(10).unwrap());
        for kind in EmdBackendKind::all() {
            let backend = kind.implementation();
            let mut out = Vec::new();
            assert!(backend.pairwise(&[a.clone(), b.clone()], &mut out).is_err());
            let mut out = Vec::new();
            assert!(backend
                .cross(std::slice::from_ref(&a), std::slice::from_ref(&b), &mut out)
                .is_err());
        }
    }
}
