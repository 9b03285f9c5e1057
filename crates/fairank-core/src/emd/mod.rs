//! Earth Mover's Distance between score histograms.
//!
//! The paper quantifies the difference between two partitions' score
//! distributions with the EMD (Definition 2, citing Pele & Werman's fast
//! EMD work). Two metrics ship behind the pluggable
//! [`backend::EmdBackend`] trait (single-pair distance plus pairwise-batch
//! entry points):
//!
//! * [`backend::OneDBackend`] (`1d`) — the exact closed form for
//!   one-dimensional histograms over equal-width bins (the only case
//!   FaiRank needs): the L1 distance between the two CDFs, scaled by the
//!   bin width ([`one_d::emd_1d`]).
//! * [`backend::TransportBackend`] (`transport`) — a general minimum-cost
//!   transportation solver (successive shortest paths with potentials)
//!   that accepts arbitrary ground-distance matrices. It is the reference
//!   implementation the 1-D form is validated against, supports
//!   non-uniform ground distances, and solves in a canonical input order
//!   so its distances are bitwise symmetric.
//!
//! How the closed form is *evaluated* over a node's O(L²) leaf pairs is
//! the engine's choice, not the user's: `SplitEngine` walks its per-pair
//! memo for small batches and deduplicates large ones (see
//! `crate::engine`). The names `batched` and `kernel`, which once selected
//! such evaluation strategies, still parse as aliases of `1d`.
//!
//! Distances are expressed in *score units*: for histograms over `[0, 1]`
//! the EMD between any two probability distributions lies in `[0, 1]`.

pub mod backend;
pub mod one_d;
pub mod transport;

pub use backend::{EmdBackend, OneDBackend, TransportBackend};
pub use one_d::emd_1d;
pub use transport::{transport_emd, TransportPlan};

use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::histogram::Histogram;

/// Which EMD metric to use — the serializable selector behind which the
/// [`backend::EmdBackend`] trait objects live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum EmdBackendKind {
    /// Exact 1-D closed form (CDF difference). Fast path; default.
    #[default]
    OneD,
    /// General transportation solver with `|center_i - center_j|` costs.
    Transport,
}

impl EmdBackendKind {
    /// The command-syntax name of the metric (`1d` / `transport`) — the
    /// single source for both parsing and display.
    pub fn name(&self) -> &'static str {
        match self {
            EmdBackendKind::OneD => "1d",
            EmdBackendKind::Transport => "transport",
        }
    }

    /// Parses a command-syntax metric name. `batched` and `kernel` name
    /// retired evaluation strategies of the closed form and alias `1d`.
    pub fn parse(s: &str) -> Option<EmdBackendKind> {
        match s {
            "1d" | "batched" | "kernel" => Some(EmdBackendKind::OneD),
            "transport" => Some(EmdBackendKind::Transport),
            _ => None,
        }
    }

    /// Every metric, for sweeps and conformance suites.
    pub fn all() -> [EmdBackendKind; 2] {
        [EmdBackendKind::OneD, EmdBackendKind::Transport]
    }
}

/// Hand-written rather than derived so JSON saved while `Batched` and
/// `Kernel` were variants (sessions, scenario specs) still loads, as `OneD`.
impl Deserialize for EmdBackendKind {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::de::Error> {
        match v.as_str() {
            Some("OneD" | "Batched" | "Kernel") => Ok(EmdBackendKind::OneD),
            Some("Transport") => Ok(EmdBackendKind::Transport),
            _ => Err(serde::de::Error::custom(format!(
                "unknown variant {v:?} for enum EmdBackendKind"
            ))),
        }
    }
}

/// Configured EMD distance between histograms.
///
/// Empty-vs-nonempty comparisons are defined as the maximum possible
/// distance under the spec (the range width); empty-vs-empty is zero. The
/// quantification pipeline never creates empty partitions, but interactive
/// exploration can (e.g. after aggressive filtering), and a defined answer
/// beats a panic there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Emd {
    backend: EmdBackendKind,
}

impl Emd {
    /// An EMD using the given backend.
    pub fn new(backend: EmdBackendKind) -> Self {
        Emd { backend }
    }

    /// The backend selector in use.
    pub fn backend(&self) -> EmdBackendKind {
        self.backend
    }

    /// The backend implementation in use.
    pub fn implementation(&self) -> &'static dyn EmdBackend {
        self.backend.implementation()
    }

    /// Distance between two histograms sharing a spec.
    pub fn distance(&self, a: &Histogram, b: &Histogram) -> Result<f64> {
        self.implementation().pair(a, b)
    }

    /// All `C(L, 2)` unordered pairwise distances among `hists`, in
    /// lexicographic pair order `(0,1), (0,2), …` — one call per node, so
    /// a backend can hoist per-histogram work out of the pair loop.
    pub fn pairwise(&self, hists: &[Histogram]) -> Result<Vec<f64>> {
        let n = hists.len();
        let mut out = Vec::with_capacity(n.saturating_sub(1) * n / 2);
        self.implementation().pairwise(hists, &mut out)?;
        Ok(out)
    }

    /// All `|left| × |right|` cross distances (left outer, right inner).
    pub fn cross(&self, left: &[Histogram], right: &[Histogram]) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(left.len() * right.len());
        self.implementation().cross(left, right, &mut out)?;
        Ok(out)
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
    fn identical_histograms_have_zero_distance() {
        let h = hist(&[0.1, 0.5, 0.9]);
        for backend in EmdBackendKind::all() {
            let d = Emd::new(backend).distance(&h, &h).unwrap();
            assert!(d.abs() < 1e-12, "{backend:?} gave {d}");
        }
    }

    #[test]
    fn opposite_corners_have_maximal_distance() {
        let a = hist(&[0.0]);
        let b = hist(&[1.0]);
        // Mass sits at the centers of the first and last bins: 0.05 and 0.95.
        for backend in EmdBackendKind::all() {
            let d = Emd::new(backend).distance(&a, &b).unwrap();
            assert!((d - 0.9).abs() < 1e-9, "{backend:?} gave {d}");
        }
    }

    #[test]
    fn backends_agree_on_arbitrary_histograms() {
        let a = hist(&[0.05, 0.15, 0.15, 0.35, 0.75, 0.85]);
        let b = hist(&[0.25, 0.45, 0.55, 0.95]);
        let d1 = Emd::new(EmdBackendKind::OneD).distance(&a, &b).unwrap();
        let d2 = Emd::new(EmdBackendKind::Transport).distance(&a, &b).unwrap();
        assert!((d1 - d2).abs() < 1e-9, "one_d={d1} transport={d2}");
    }

    #[test]
    fn distance_is_bitwise_symmetric_for_every_backend() {
        let a = hist(&[0.1, 0.2, 0.3]);
        let b = hist(&[0.7, 0.8]);
        for backend in EmdBackendKind::all() {
            let emd = Emd::new(backend);
            let ab = emd.distance(&a, &b).unwrap();
            let ba = emd.distance(&b, &a).unwrap();
            assert_eq!(ab.to_bits(), ba.to_bits(), "{backend:?}: {ab} vs {ba}");
        }
    }

    #[test]
    fn empty_histogram_conventions() {
        let spec = HistogramSpec::unit(10).unwrap();
        let empty = Histogram::empty(spec);
        let full = hist(&[0.5]);
        for backend in EmdBackendKind::all() {
            let emd = Emd::new(backend);
            assert_eq!(emd.distance(&empty, &empty).unwrap(), 0.0);
            assert_eq!(emd.distance(&empty, &full).unwrap(), 1.0);
            assert_eq!(emd.distance(&full, &empty).unwrap(), 1.0);
        }
    }

    #[test]
    fn incompatible_specs_error() {
        let a = Histogram::empty(HistogramSpec::unit(5).unwrap());
        let b = Histogram::empty(HistogramSpec::unit(10).unwrap());
        assert!(Emd::default().distance(&a, &b).is_err());
    }

    #[test]
    fn pairwise_entry_matches_per_pair_distances() {
        let hists = vec![hist(&[0.05, 0.05]), hist(&[0.55, 0.55]), hist(&[0.95])];
        for backend in EmdBackendKind::all() {
            let emd = Emd::new(backend);
            let batch = emd.pairwise(&hists).unwrap();
            assert_eq!(batch.len(), 3);
            let mut k = 0;
            for i in 0..hists.len() {
                for j in (i + 1)..hists.len() {
                    let d = emd.distance(&hists[i], &hists[j]).unwrap();
                    assert_eq!(d.to_bits(), batch[k].to_bits(), "{backend:?} pair {i},{j}");
                    k += 1;
                }
            }
            assert!(emd.pairwise(&hists[..1]).unwrap().is_empty());
            assert!(emd.pairwise(&[]).unwrap().is_empty());
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in EmdBackendKind::all() {
            assert_eq!(EmdBackendKind::parse(backend.name()), Some(backend));
        }
        for alias in ["batched", "kernel"] {
            assert_eq!(EmdBackendKind::parse(alias), Some(EmdBackendKind::OneD));
        }
        assert_eq!(EmdBackendKind::parse("nonsense"), None);
    }

    #[test]
    fn retired_variant_names_deserialize_as_one_d() {
        for (json, kind) in [
            (r#""OneD""#, EmdBackendKind::OneD),
            (r#""Transport""#, EmdBackendKind::Transport),
            (r#""Batched""#, EmdBackendKind::OneD),
            (r#""Kernel""#, EmdBackendKind::OneD),
        ] {
            assert_eq!(serde_json::from_str::<EmdBackendKind>(json).unwrap(), kind);
        }
        let emd: Emd = serde_json::from_str(r#"{"backend":"Kernel"}"#).unwrap();
        assert_eq!(emd, Emd::default());
        assert!(serde_json::from_str::<EmdBackendKind>(r#""Sideways""#).is_err());
        // Serialization is unchanged: the derived variant name.
        assert_eq!(serde_json::to_string(&EmdBackendKind::OneD).unwrap(), r#""OneD""#);
    }
}

/// `emd=kernel` and the `"Kernel"` JSON variant once named a separate
/// structure-of-arrays fold; both now resolve to the closed-form `1d`
/// metric. These tests pin that the alias keeps the batch conventions that
/// fold guaranteed.
#[cfg(test)]
mod kernel {
    mod tests {
        use crate::emd::{Emd, EmdBackendKind};
        use crate::histogram::{Histogram, HistogramSpec};

        fn kernel() -> Emd {
            let emd = Emd::new(EmdBackendKind::parse("kernel").unwrap());
            let saved: Emd = serde_json::from_str(r#"{"backend":"Kernel"}"#).unwrap();
            assert_eq!(emd, saved);
            emd
        }

        #[test]
        fn kernel_batches_honor_empty_conventions() {
            let spec = HistogramSpec::unit(10).unwrap();
            let empty = Histogram::empty(spec);
            let full = Histogram::from_scores(spec, [0.5]);
            let hists = vec![empty.clone(), full, Histogram::empty(spec)];
            let emd = kernel();
            assert_eq!(emd.pairwise(&hists).unwrap(), vec![1.0, 0.0, 1.0]);
            assert_eq!(
                emd.cross(std::slice::from_ref(&empty), &hists).unwrap(),
                vec![0.0, 1.0, 0.0]
            );
        }

        #[test]
        fn kernel_rejects_incompatible_specs_in_batches() {
            let a = Histogram::empty(HistogramSpec::unit(5).unwrap());
            let b = Histogram::empty(HistogramSpec::unit(10).unwrap());
            let emd = kernel();
            assert!(emd.pairwise(&[a.clone(), b.clone()]).is_err());
            assert!(emd
                .cross(std::slice::from_ref(&a), std::slice::from_ref(&b))
                .is_err());
        }
    }
}
