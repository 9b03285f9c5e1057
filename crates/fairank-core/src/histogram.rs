//! Fixed-bin score histograms.
//!
//! The paper builds, for every partition, "a histogram … by creating equal
//! bins over the range of f and counting the number of individuals whose
//! function scores fall in each bin" (§3.1). Histograms here always share a
//! [`HistogramSpec`] so that Earth Mover's Distances between them are
//! well-defined.

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};

/// Number of bins FaiRank uses when the caller does not specify one.
/// Figure 2 of the paper draws 5 bins; 10 is a finer default that keeps the
/// example partitioning's ordering intact (see experiment E10).
pub const DEFAULT_BINS: usize = 10;

/// Shape of a histogram: bin count plus the score range it covers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistogramSpec {
    bins: usize,
    lo: f64,
    hi: f64,
}

impl HistogramSpec {
    /// Creates a spec with `bins` equal-width bins over `[lo, hi]`.
    pub fn new(bins: usize, lo: f64, hi: f64) -> Result<Self> {
        if bins == 0 {
            return Err(CoreError::InvalidHistogramSpec("bin count is zero".into()));
        }
        if !lo.is_finite() || !hi.is_finite() {
            return Err(CoreError::InvalidHistogramSpec(format!(
                "range bounds must be finite, got [{lo}, {hi}]"
            )));
        }
        if lo >= hi {
            return Err(CoreError::InvalidHistogramSpec(format!(
                "range [{lo}, {hi}] is empty or inverted"
            )));
        }
        Ok(HistogramSpec { bins, lo, hi })
    }

    /// The paper's default: equal bins over the unit interval, since
    /// Definition 1 constrains `f : W → [0, 1]`.
    pub fn unit(bins: usize) -> Result<Self> {
        HistogramSpec::new(bins, 0.0, 1.0)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Lower bound of the covered range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the covered range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of one bin, in score units.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins as f64
    }

    /// Center of bin `i`, in score units.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Maps a score to its bin. Scores are clamped into the range, so the
    /// maximum score lands in the last bin rather than one past it.
    pub fn bin_of(&self, score: f64) -> usize {
        let clamped = score.clamp(self.lo, self.hi);
        let raw = ((clamped - self.lo) / self.bin_width()) as usize;
        raw.min(self.bins - 1)
    }
}

impl Default for HistogramSpec {
    fn default() -> Self {
        HistogramSpec::unit(DEFAULT_BINS).expect("default spec is valid")
    }
}

/// A score histogram: per-bin counts under a shared [`HistogramSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    spec: HistogramSpec,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram under `spec`.
    pub fn empty(spec: HistogramSpec) -> Self {
        Histogram {
            counts: vec![0; spec.bins()],
            total: 0,
            spec,
        }
    }

    /// Builds a histogram of `scores` under `spec`.
    pub fn from_scores(spec: HistogramSpec, scores: impl IntoIterator<Item = f64>) -> Self {
        let mut h = Histogram::empty(spec);
        for s in scores {
            h.add(s);
        }
        h
    }

    /// Builds a histogram of a subset of `scores` selected by `rows`.
    pub fn from_rows(spec: HistogramSpec, scores: &[f64], rows: &[u32]) -> Self {
        Histogram::from_scores(spec, rows.iter().map(|&r| scores[r as usize]))
    }

    /// Builds a histogram directly from per-bin counts (used by the split
    /// engine, which accumulates counts in one pass instead of re-binning
    /// scores). Equivalent to adding each counted score individually.
    ///
    /// # Panics
    /// If `counts.len()` does not match the spec's bin count.
    pub fn from_counts(spec: HistogramSpec, counts: Vec<u64>) -> Self {
        assert_eq!(
            counts.len(),
            spec.bins(),
            "counts must have one entry per bin"
        );
        let total = counts.iter().sum();
        Histogram {
            spec,
            counts,
            total,
        }
    }

    /// Adds one score.
    pub fn add(&mut self, score: f64) {
        let bin = self.spec.bin_of(score);
        self.counts[bin] += 1;
        self.total += 1;
    }

    /// The spec this histogram was built under.
    pub fn spec(&self) -> &HistogramSpec {
        &self.spec
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of individuals counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// True when no score has been added.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The normalized probability mass per bin. An empty histogram yields an
    /// all-zero mass vector (callers treat empty partitions specially).
    pub fn mass(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.counts.len()];
        self.mass_into(&mut out);
        out
    }

    /// Writes the normalized probability mass per bin into `out` without
    /// allocating, for callers that fill preallocated buffers. Produces
    /// exactly the bits of
    /// [`Histogram::mass`] (same `count / total` division per bin); an
    /// empty histogram writes all zeros.
    ///
    /// # Panics
    /// If `out.len()` does not match the bin count.
    pub fn mass_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.counts.len(), "one slot per bin");
        if self.total == 0 {
            out.fill(0.0);
            return;
        }
        let t = self.total as f64;
        for (slot, &c) in out.iter_mut().zip(&self.counts) {
            *slot = c as f64 / t;
        }
    }

    /// Mean score approximated from bin centers (used for node statistics).
    pub fn approx_mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(i, &c)| c as f64 * self.spec.bin_center(i))
            .sum();
        Some(sum / self.total as f64)
    }

    /// Checks that two histograms share a spec, as required for EMD.
    pub fn check_compatible(&self, other: &Histogram) -> Result<()> {
        if self.spec != other.spec {
            return Err(CoreError::IncompatibleHistograms {
                left: self.spec.bins(),
                right: other.spec.bins(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_rejects_degenerate_inputs() {
        assert!(HistogramSpec::new(0, 0.0, 1.0).is_err());
        assert!(HistogramSpec::new(4, 1.0, 1.0).is_err());
        assert!(HistogramSpec::new(4, 2.0, 1.0).is_err());
        assert!(HistogramSpec::new(4, f64::NAN, 1.0).is_err());
        assert!(HistogramSpec::new(4, 0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn bin_of_maps_boundaries_correctly() {
        let spec = HistogramSpec::unit(5).unwrap();
        assert_eq!(spec.bin_of(0.0), 0);
        assert_eq!(spec.bin_of(0.19), 0);
        assert_eq!(spec.bin_of(0.2), 1);
        assert_eq!(spec.bin_of(0.999), 4);
        // The maximum falls in the last bin, not out of range.
        assert_eq!(spec.bin_of(1.0), 4);
        // Out-of-range scores clamp instead of panicking.
        assert_eq!(spec.bin_of(-3.0), 0);
        assert_eq!(spec.bin_of(42.0), 4);
    }

    #[test]
    fn bin_centers_are_equally_spaced() {
        let spec = HistogramSpec::new(4, 0.0, 2.0).unwrap();
        assert!((spec.bin_width() - 0.5).abs() < 1e-12);
        assert!((spec.bin_center(0) - 0.25).abs() < 1e-12);
        assert!((spec.bin_center(3) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_total() {
        let spec = HistogramSpec::unit(5).unwrap();
        // Note: 0.15 < 0.2 in binary floating point (0.15/0.2 ≈ 0.74999…),
        // so it falls in bin 0 alongside 0.05.
        let h = Histogram::from_scores(spec, [0.05, 0.15, 0.25, 0.95, 1.0]);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 2]);
        assert_eq!(h.total(), 5);
        assert!(!h.is_empty());
    }

    #[test]
    fn mass_sums_to_one_when_nonempty() {
        let spec = HistogramSpec::unit(7).unwrap();
        let h = Histogram::from_scores(spec, (0..100).map(|i| i as f64 / 100.0));
        let sum: f64 = h.mass().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mass_into_matches_mass_bitwise() {
        let spec = HistogramSpec::unit(5).unwrap();
        let h = Histogram::from_scores(spec, [0.05, 0.15, 0.25, 0.95, 1.0, 0.3]);
        let mut out = vec![f64::NAN; 5];
        h.mass_into(&mut out);
        for (a, b) in h.mass().iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Empty histograms overwrite stale slots with zeros.
        let mut out = vec![f64::NAN; 5];
        Histogram::empty(spec).mass_into(&mut out);
        assert_eq!(out, vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "one slot per bin")]
    fn mass_into_rejects_wrong_arity() {
        let h = Histogram::empty(HistogramSpec::unit(5).unwrap());
        h.mass_into(&mut [0.0; 3]);
    }

    #[test]
    fn empty_histogram_has_zero_mass() {
        let spec = HistogramSpec::unit(3).unwrap();
        let h = Histogram::empty(spec);
        assert!(h.is_empty());
        assert_eq!(h.mass(), vec![0.0, 0.0, 0.0]);
        assert_eq!(h.approx_mean(), None);
    }

    #[test]
    fn from_counts_matches_from_scores() {
        let spec = HistogramSpec::unit(5).unwrap();
        let by_scores = Histogram::from_scores(spec, [0.05, 0.15, 0.25, 0.95, 1.0]);
        let by_counts = Histogram::from_counts(spec, vec![2, 1, 0, 0, 2]);
        assert_eq!(by_scores, by_counts);
        assert_eq!(by_counts.total(), 5);
    }

    #[test]
    #[should_panic(expected = "one entry per bin")]
    fn from_counts_rejects_wrong_arity() {
        let spec = HistogramSpec::unit(5).unwrap();
        let _ = Histogram::from_counts(spec, vec![1, 2]);
    }

    #[test]
    fn from_rows_selects_subset() {
        let spec = HistogramSpec::unit(2).unwrap();
        let scores = [0.1, 0.9, 0.2, 0.8];
        let h = Histogram::from_rows(spec, &scores, &[0, 2]);
        assert_eq!(h.counts(), &[2, 0]);
    }

    #[test]
    fn approx_mean_matches_bin_centers() {
        let spec = HistogramSpec::unit(10).unwrap();
        let h = Histogram::from_scores(spec, [0.05, 0.05, 0.95, 0.95]);
        let mean = h.approx_mean().unwrap();
        assert!((mean - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compatibility_check() {
        let a = Histogram::empty(HistogramSpec::unit(5).unwrap());
        let b = Histogram::empty(HistogramSpec::unit(6).unwrap());
        let c = Histogram::empty(HistogramSpec::unit(5).unwrap());
        assert!(a.check_compatible(&b).is_err());
        assert!(a.check_compatible(&c).is_ok());
    }

    #[test]
    fn default_spec_is_unit_ten_bins() {
        let spec = HistogramSpec::default();
        assert_eq!(spec.bins(), DEFAULT_BINS);
        assert_eq!(spec.lo(), 0.0);
        assert_eq!(spec.hi(), 1.0);
    }
}
