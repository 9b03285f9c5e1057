//! # fairank-bench
//!
//! The experiment harness. Two kinds of binaries share this library:
//!
//! * the `exp_*` paper-artifact binaries (one per paper artifact or derived
//!   experiment), which print tables through [`header`] and [`row`] over
//!   the synthetic spaces built here;
//! * `exp_bench`, the one bench harness. It runs the sections `quantify`,
//!   `incremental`, `cache`, `serve` and `micro`, writes every number it
//!   measures as one [`BenchRecord`] to `BENCH.json`, and with `--check`
//!   gates the run against a committed baseline ([`check`]).
//!
//! Run every experiment with:
//! ```text
//! for b in exp_table1 exp_figure2 exp_heuristic_vs_exhaustive exp_scalability \
//!          exp_transparency_data exp_transparency_function exp_aggregators \
//!          exp_job_owner_sweep exp_auditor exp_bins_ablation exp_emd_backends \
//!          exp_end_user exp_beam exp_exposure exp_feedback; do
//!     cargo run -q --release -p fairank-bench --bin $b
//! done
//! ```
//!
//! Regenerate the committed baseline, or gate a run against it:
//! ```text
//! cargo run -q --release -p fairank-bench --bin exp_bench                      # writes BENCH.json
//! cargo run -q --release -p fairank-bench --bin exp_bench -- --out BENCH.ci.json --check BENCH.json
//! ```

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use fairank_core::space::{ProtectedAttribute, RankingSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Prints an experiment header in a uniform style.
pub fn header(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints one aligned table row from string cells.
pub fn row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// [`synthetic_space`] with per-attribute cardinalities — the realistic
/// marketplace shape where one wide attribute (region, task category)
/// coexists with narrow demographic ones. The score gap of `bias` attaches
/// to value 0 of attribute 0, as in the uniform builder.
pub fn synthetic_space_mixed(n: usize, cards: &[u32], bias: f64, seed: u64) -> RankingSpace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut attributes = Vec::with_capacity(cards.len());
    let mut codes0 = Vec::new();
    for (a, &card) in cards.iter().enumerate() {
        let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..card)).collect();
        if a == 0 {
            codes0 = codes.clone();
        }
        attributes.push(ProtectedAttribute {
            name: format!("a{a}"),
            codes,
            labels: (0..card).map(|c| format!("v{c}")).collect(),
        });
    }
    let scores: Vec<f64> = (0..n)
        .map(|i| {
            let base: f64 = rng.gen_range(0.0..1.0 - bias);
            if codes0[i] == 0 {
                base
            } else {
                (base + bias).min(1.0)
            }
        })
        .collect();
    RankingSpace::new(attributes, scores).expect("synthetic space is valid")
}

/// A synthetic ranking space with controlled shape: `n` individuals,
/// `attrs` protected attributes of `cardinality` values each, and a score
/// gap of `bias` attached to value 0 of attribute 0 (so there is always a
/// planted most-unfair split to find).
pub fn synthetic_space(
    n: usize,
    attrs: usize,
    cardinality: u32,
    bias: f64,
    seed: u64,
) -> RankingSpace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut attributes = Vec::with_capacity(attrs);
    let mut codes0 = Vec::new();
    for a in 0..attrs {
        let codes: Vec<u32> = (0..n).map(|_| rng.gen_range(0..cardinality)).collect();
        if a == 0 {
            codes0 = codes.clone();
        }
        attributes.push(ProtectedAttribute {
            name: format!("a{a}"),
            codes,
            labels: (0..cardinality).map(|c| format!("v{c}")).collect(),
        });
    }
    let scores: Vec<f64> = (0..n)
        .map(|i| {
            let base: f64 = rng.gen_range(0.0..1.0 - bias);
            if codes0[i] == 0 {
                base
            } else {
                (base + bias).min(1.0)
            }
        })
        .collect();
    RankingSpace::new(attributes, scores).expect("synthetic space is valid")
}

/// One number measured by `exp_bench`, keyed by `(layer, workload, metric)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// The section that measured it: `quantify`, `incremental`, `cache`,
    /// `serve` or `micro`.
    pub layer: String,
    /// The measured shape and variant, e.g. `n10000_a8_c3/engine`.
    pub workload: String,
    pub metric: String,
    /// `count`, `bytes`, `score`, `ratio`, `us`, `ms` or `1/s`.
    pub unit: String,
    pub value: f64,
    /// How many samples (runs, rounds, streams, requests) the value
    /// summarizes.
    pub n: u64,
    pub tolerance: Tolerance,
}

/// How [`check`] compares a run's record with the baseline's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Tolerance {
    /// Recorded only, never gated.
    Recorded,
    /// Equal to the baseline bit for bit: counts and `unfairness`.
    Exact,
    /// Every bound holds.
    Bounds(Vec<Bound>),
}

/// One bound on a gated value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Bound {
    /// Higher is better: at least `baseline / slack`.
    AtLeastBaselineOver(f64),
    /// Lower is better: at most `baseline * slack`.
    AtMostBaselineTimes(f64),
    /// At least this value.
    AtLeast(f64),
    /// At most this value.
    AtMost(f64),
    /// Strictly below this value.
    Below(f64),
}

impl Bound {
    /// Written so that a NaN value fails every bound.
    fn holds(self, baseline: f64, value: f64) -> bool {
        match self {
            Bound::AtLeastBaselineOver(slack) => value >= baseline / slack,
            Bound::AtMostBaselineTimes(slack) => value <= baseline * slack,
            Bound::AtLeast(min) => value >= min,
            Bound::AtMost(max) => value <= max,
            Bound::Below(max) => value < max,
        }
    }
}

impl BenchRecord {
    /// A recorded-only number.
    pub fn new(layer: &str, workload: &str, metric: &str, unit: &str, value: f64, n: u64) -> Self {
        BenchRecord {
            layer: layer.to_string(),
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            value,
            n,
            tolerance: Tolerance::Recorded,
        }
    }

    /// Gates the record bit for bit against the baseline.
    pub fn exact(mut self) -> Self {
        self.tolerance = Tolerance::Exact;
        self
    }

    /// Gates the record by `bounds`; no bounds leaves it recorded only.
    pub fn bounded(mut self, bounds: Vec<Bound>) -> Self {
        if !bounds.is_empty() {
            self.tolerance = Tolerance::Bounds(bounds);
        }
        self
    }

    fn key(&self) -> (&str, &str, &str) {
        (&self.layer, &self.workload, &self.metric)
    }

    /// `layer/workload/metric`, as the gate prints it.
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.layer, self.workload, self.metric)
    }
}

/// Writes `records` as a JSON array, one record per line.
pub fn write_records(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    let lines: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(r).expect("a bench record serializes"))
        .collect();
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
}

/// Reads records written by [`write_records`].
pub fn read_records(path: &Path) -> Result<Vec<BenchRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The outcome of [`check`].
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per failing baseline record.
    pub failures: Vec<String>,
    /// Records of the run that the baseline lacks; they pass.
    pub new: Vec<String>,
}

/// The bench gate: every baseline record must be in the run and meet the
/// baseline's tolerance. A record whose unit or tolerance differs from
/// the baseline's fails too, so a changed bound takes effect only through
/// a regenerated baseline.
pub fn check(baseline: &[BenchRecord], run: &[BenchRecord]) -> Verdict {
    let by_key: HashMap<_, _> = run.iter().map(|r| (r.key(), r)).collect();
    let mut verdict = Verdict::default();
    for base in baseline {
        let Some(got) = by_key.get(&base.key()) else {
            verdict
                .failures
                .push(format!("{}: missing from the run", base.id()));
            continue;
        };
        if got.unit != base.unit || got.tolerance != base.tolerance {
            verdict.failures.push(format!(
                "{}: unit or tolerance differs from the baseline's ({} {:?} vs {} {:?}); \
                 regenerate the baseline",
                base.id(),
                got.unit,
                got.tolerance,
                base.unit,
                base.tolerance
            ));
            continue;
        }
        let broken: Vec<String> = match &base.tolerance {
            Tolerance::Recorded => Vec::new(),
            Tolerance::Exact if got.value.to_bits() == base.value.to_bits() => Vec::new(),
            Tolerance::Exact => vec!["Exact".to_string()],
            Tolerance::Bounds(bounds) => bounds
                .iter()
                .filter(|b| !b.holds(base.value, got.value))
                .map(|b| format!("{b:?}"))
                .collect(),
        };
        if !broken.is_empty() {
            verdict.failures.push(format!(
                "{}: {} {} against baseline {} breaks {}",
                base.id(),
                got.value,
                got.unit,
                base.value,
                broken.join(", ")
            ));
        }
    }
    let known: HashSet<_> = baseline.iter().map(BenchRecord::key).collect();
    verdict.new = run
        .iter()
        .filter(|r| !known.contains(&r.key()))
        .map(BenchRecord::id)
        .collect();
    verdict
}

/// Nearest-rank percentile over an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-call wall-clock microseconds of `f`: one untimed warm-up call, then
/// `samples` timed batches of `batch` calls each, one entry per batch.
pub fn time_us<T>(samples: usize, batch: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    std::hint::black_box(f());
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            t.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect()
}

/// The command line of `exp_bench`.
#[derive(Debug, PartialEq)]
pub struct BenchArgs {
    /// Shrink every section to a seconds-long shape.
    pub smoke: bool,
    /// Where the run's records go.
    pub out: PathBuf,
    /// The baseline to gate the run against.
    pub check: Option<PathBuf>,
}

impl BenchArgs {
    pub const USAGE: &'static str = "usage: exp_bench [--smoke] [--out PATH] [--check BASELINE]";

    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<BenchArgs, String> {
        let mut parsed = BenchArgs {
            smoke: false,
            out: PathBuf::from("BENCH.json"),
            check: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--out" => parsed.out = args.next().ok_or("--out needs a path")?.into(),
                "--check" => parsed.check = Some(args.next().ok_or("--check needs a path")?.into()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if parsed.check.as_ref() == Some(&parsed.out) {
            return Err("--out must not overwrite the --check baseline".to_string());
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline: the gate tests perturb its records, so they
    /// pin the tolerances that are actually gated.
    fn baseline() -> Vec<BenchRecord> {
        serde_json::from_str(include_str!("../../../BENCH.json")).expect("BENCH.json parses")
    }

    /// The one record `layer/…workload/metric` (the workload matched by
    /// suffix).
    fn find<'a>(
        records: &'a mut [BenchRecord],
        layer: &str,
        workload: &str,
        metric: &str,
    ) -> &'a mut BenchRecord {
        let mut hits = records
            .iter_mut()
            .filter(|r| r.layer == layer && r.workload.ends_with(workload) && r.metric == metric);
        let hit = hits.next().expect("the record exists");
        assert!(
            hits.next().is_none(),
            "{layer}/{workload}/{metric} is ambiguous"
        );
        hit
    }

    /// Runs the gate with one record of a copy of the baseline set to
    /// `value`; `Ok` when it passes, else the failure lines.
    fn gate_with(layer: &str, workload: &str, metric: &str, value: f64) -> Result<(), Vec<String>> {
        let base = baseline();
        let mut run = base.clone();
        find(&mut run, layer, workload, metric).value = value;
        let verdict = check(&base, &run);
        if verdict.failures.is_empty() {
            Ok(())
        } else {
            Err(verdict.failures)
        }
    }

    fn baseline_value(layer: &str, workload: &str, metric: &str) -> f64 {
        find(&mut baseline(), layer, workload, metric).value
    }

    const CACHE: &str = "_mp300";
    const TRACKED: &str = "_r300/1d";
    const SERVE: &str = "c1000_t8_r10_w4";

    #[test]
    fn the_baseline_passes_against_itself() {
        let base = baseline();
        let verdict = check(&base, &base);
        assert!(verdict.failures.is_empty(), "{:?}", verdict.failures);
        assert!(verdict.new.is_empty());
    }

    #[test]
    fn warm_speedup_needs_10x_and_the_baseline_over_1_5() {
        assert!(gate_with("cache", CACHE, "warm_speedup", 9.99).is_err());
        let floor = baseline_value("cache", CACHE, "warm_speedup") / 1.5;
        assert!(floor > 10.0, "the ratio bound is the binding one here");
        assert!(gate_with("cache", CACHE, "warm_speedup", floor - 1e-9).is_err());
        assert!(gate_with("cache", CACHE, "warm_speedup", floor).is_ok());
    }

    #[test]
    fn mem_ratio_must_stay_strictly_under_2() {
        assert!(gate_with("cache", CACHE, "mem_ratio_8_sessions", 2.0).is_err());
        assert!(gate_with("cache", CACHE, "mem_ratio_8_sessions", 1.99).is_ok());
    }

    #[test]
    fn tracked_speedups_keep_the_relative_and_3x_floors() {
        let floor = baseline_value("incremental", TRACKED, "speedup_p50") / 1.35;
        assert!(gate_with("incremental", TRACKED, "speedup_p50", floor - 1e-9).is_err());
        assert!(gate_with("incremental", TRACKED, "speedup_p50", floor).is_ok());
        assert!(gate_with("incremental", TRACKED, "speedup_p99", 2.99).is_err());
        assert!(gate_with("incremental", TRACKED, "speedup_p99", 3.0).is_ok());
        // The untracked backend documents its ratio without a gate.
        assert!(gate_with("incremental", "_r300/transport", "speedup_p50", 0.5).is_ok());
    }

    #[test]
    fn serve_integrity_and_connection_scale() {
        assert!(gate_with("serve", SERVE, "malformed_replies", 1.0).is_err());
        assert!(gate_with("serve", SERVE, "dropped_replies", 1.0).is_err());
        assert!(gate_with("serve", SERVE, "connections", 999.0).is_err());
    }

    #[test]
    fn serve_p99_stays_within_3x_the_baseline_and_under_5s() {
        let ceiling = baseline_value("serve", SERVE, "latency_p99_ms") * 3.0;
        assert!(gate_with("serve", SERVE, "latency_p99_ms", ceiling).is_ok());
        assert!(gate_with("serve", SERVE, "latency_p99_ms", ceiling + 1e-9).is_err());
        assert!(gate_with("serve", SERVE, "latency_p99_ms", 5_000.0).is_err());
        // The absolute ceiling binds even when 3x the baseline is above it.
        let mut base = baseline();
        find(&mut base, "serve", SERVE, "latency_p99_ms").value = 2_000.0;
        let mut run = base.clone();
        find(&mut run, "serve", SERVE, "latency_p99_ms").value = 5_000.0;
        assert_eq!(check(&base, &run).failures.len(), 1);
        find(&mut run, "serve", SERVE, "latency_p99_ms").value = 4_999.0;
        assert!(check(&base, &run).failures.is_empty());
    }

    #[test]
    fn every_exact_record_fails_when_off_by_one() {
        let base = baseline();
        let exact: Vec<usize> = (0..base.len())
            .filter(|&i| base[i].tolerance == Tolerance::Exact)
            .collect();
        // 10 quantify records x 9 counters, the grid cells' 3 summed
        // counters, 2 backends x 2 reuse counters, 3 stream sums, 6
        // grid-cache and 2 quantify-cache counts, and the serve request
        // total.
        assert_eq!(exact.len(), 90 + 3 + 4 + 3 + 6 + 2 + 1);
        for i in exact {
            let mut run = base.clone();
            let r = &mut run[i];
            r.value = if r.unit == "score" {
                f64::from_bits(r.value.to_bits() + 1)
            } else {
                r.value + 1.0
            };
            let verdict = check(&base, &run);
            assert_eq!(verdict.failures.len(), 1, "{}", base[i].id());
        }
    }

    #[test]
    fn a_missing_record_fails_and_a_new_one_is_listed() {
        let base = baseline();
        let mut run = base.clone();
        let gone = run.remove(3);
        let verdict = check(&base, &run);
        assert_eq!(
            verdict.failures,
            vec![format!("{}: missing from the run", gone.id())]
        );

        let mut run = base.clone();
        run.push(BenchRecord::new("micro", "new/op", "p50_us", "us", 1.0, 5));
        let verdict = check(&base, &run);
        assert!(verdict.failures.is_empty());
        assert_eq!(verdict.new, vec!["micro/new/op/p50_us".to_string()]);
    }

    #[test]
    fn a_changed_tolerance_fails_until_the_baseline_is_regenerated() {
        let base = baseline();
        let mut run = base.clone();
        find(&mut run, "cache", CACHE, "mem_ratio_8_sessions").tolerance = Tolerance::Recorded;
        assert_eq!(check(&base, &run).failures.len(), 1);
    }

    #[test]
    fn records_round_trip_through_the_writer() {
        let path =
            std::env::temp_dir().join(format!("fairank-bench-rt-{}.json", std::process::id()));
        let records = baseline();
        write_records(&path, &records).expect("writes");
        let back = read_records(&path).expect("reads");
        std::fs::remove_file(&path).expect("removes");
        assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.id());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn args_parse_the_three_knobs_only() {
        let parse = |args: &[&str]| BenchArgs::parse(args.iter().map(|a| a.to_string()));
        assert_eq!(
            parse(&[]).unwrap(),
            BenchArgs {
                smoke: false,
                out: "BENCH.json".into(),
                check: None
            }
        );
        assert_eq!(
            parse(&["--smoke", "--out", "a.json", "--check", "BENCH.json"]).unwrap(),
            BenchArgs {
                smoke: true,
                out: "a.json".into(),
                check: Some("BENCH.json".into())
            }
        );
        assert!(
            parse(&["--check", "BENCH.json"]).is_err(),
            "would overwrite the baseline"
        );
        assert!(parse(&["--out"]).is_err());
        assert!(parse(&["--sections", "serve"]).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 99.0), 5.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
    }

    #[test]
    fn synthetic_space_shape() {
        let s = synthetic_space(100, 3, 4, 0.3, 1);
        assert_eq!(s.num_individuals(), 100);
        assert_eq!(s.attributes().len(), 3);
        assert_eq!(s.attributes()[1].cardinality(), 4);
    }

    #[test]
    fn synthetic_space_is_deterministic() {
        let a = synthetic_space(50, 2, 3, 0.2, 9);
        let b = synthetic_space(50, 2, 3, 0.2, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn planted_bias_separates_attribute_zero() {
        let s = synthetic_space(400, 2, 2, 0.5, 4);
        let attr0 = &s.attributes()[0];
        let (mut sum0, mut n0, mut sum1, mut n1) = (0.0, 0, 0.0, 0);
        for (i, &c) in attr0.codes.iter().enumerate() {
            if c == 0 {
                sum0 += s.scores()[i];
                n0 += 1;
            } else {
                sum1 += s.scores()[i];
                n1 += 1;
            }
        }
        let gap = sum1 / n1 as f64 - sum0 / n0 as f64;
        assert!(gap > 0.3, "gap = {gap}");
    }
}
