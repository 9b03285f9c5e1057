//! `wirebench --server <fairank binary> --workload <name> --seed <n>
//! --seconds <s> --trace <0|1> [--out-dir <dir>]`
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones of the wire run; with
//! `--trace 1` they are the per-layer ones of the in-process replay (the
//! wire run still happens, for the reply check and the event-loop
//! residual). Exits non-zero, printing no result, when the run cannot be
//! made at all.

use std::path::PathBuf;
use std::process::ExitCode;

use wirebench::replay::{self, Metric};
use wirebench::stats::{median, median_of_blocks};
use wirebench::wire::{self, server_args, Samples, SETUPS};
use wirebench::workload::{Scale, Workload};

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        server: PathBuf::from(value("--server")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: number("--trace")? == 1,
        out_dir: PathBuf::from(value("--out-dir").unwrap_or("target/wirebench")),
    })
}

fn print_metric(metric: &Metric, note: &str) {
    println!(
        "{:<38} {:>14.4} {:<6} {note}",
        metric.name, metric.value, metric.unit
    );
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    println!(
        "wirebench {} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "server: {} {}; client: closed loop, one process, 2 connections",
        args.server.display(),
        server_args().join(" ")
    );

    let run = match wire::run(&args.server, workload, args.seed, args.seconds) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("wirebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checked = std::time::Instant::now();
    let failed = wire::check(&run.observed);
    eprintln!(
        "wirebench: checked in {:.1} s",
        checked.elapsed().as_secs_f64()
    );
    // Latencies are taken per block of epochs, and the median block is
    // reported, so one slow stretch of the host moves no metric far.
    let blocks = |pick: fn(&Samples) -> &Vec<f64>| -> Vec<Vec<f64>> {
        run.epochs.iter().map(|epoch| pick(epoch).clone()).collect()
    };
    let compute = blocks(|s| &s.compute);
    let light = blocks(|s| &s.light);
    let first_line = blocks(|s| &s.first_line);
    let count = |blocks: &[Vec<f64>]| blocks.iter().map(Vec::len).sum::<usize>();
    let replies: usize = run.epochs.iter().map(|e| e.replies).sum();
    let latency_p50 = median_of_blocks(&compute, 50.0);
    let end_to_end = [
        Metric {
            name: "setup_s",
            value: median(&run.setup_s),
            unit: "s",
        },
        Metric {
            name: "latency_p50_ms",
            value: latency_p50,
            unit: "ms",
        },
        Metric {
            name: "latency_tail_ms",
            value: median_of_blocks(&compute, workload.compute_tail()),
            unit: "ms",
        },
        Metric {
            name: "light_tail_ms",
            value: median_of_blocks(&light, workload.light_tail()),
            unit: "ms",
        },
        Metric {
            name: "first_chunk_p50_ms",
            value: median_of_blocks(&first_line, 50.0),
            unit: "ms",
        },
        Metric {
            name: "throughput_rps",
            value: replies as f64 / run.measured_s,
            unit: "1/s",
        },
        Metric {
            name: "server_cpu_ms_per_req",
            value: run.cpu_ms / replies.max(1) as f64,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: run.peak_rss_mb,
            unit: "MiB",
        },
    ];
    let notes = [
        format!("median of {SETUPS} set-ups"),
        format!(
            "{} compute requests in {} epochs",
            count(&compute),
            run.epochs.len()
        ),
        format!(
            "p{} of {} compute requests",
            workload.compute_tail(),
            count(&compute)
        ),
        format!(
            "p{} of {} navigation requests",
            workload.light_tail(),
            count(&light)
        ),
        format!("{} requests", count(&first_line)),
        format!("{replies} replies in {:.2} s measured", run.measured_s),
        format!(
            "{:.0} ms server CPU; client used {:.0} ms",
            run.cpu_ms, run.client_cpu_ms
        ),
        "VmHWM".to_string(),
    ];
    for (metric, note) in end_to_end.iter().zip(&notes) {
        print_metric(metric, note);
    }
    println!(
        "{:<38} {:>14.4} {:<6} {failed} of {} requests failed or mismatched",
        "error_rate",
        failed as f64 / run.attempted.max(1) as f64,
        "ratio",
        run.attempted
    );

    if !args.trace {
        println!(
            "{}",
            json_line(failed == 0, run.attempted, failed, &end_to_end)
        );
        return ExitCode::SUCCESS;
    }

    let spans = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", workload.name(), args.seed));
    let layers = match replay::run(workload, args.seed, Scale::full(), Some(&spans)) {
        Ok(layers) => layers,
        Err(e) => {
            eprintln!("wirebench: replay failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("spans: {}", spans.display());
    let metrics = layers.metrics(latency_p50);
    for metric in &metrics {
        print_metric(metric, "");
    }
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    // Every term is a median over compute requests; `pool.wait_us`,
    // `command.apply_self_us` and the residual are differences of
    // medians, so the terms add up to the wire median exactly.
    println!("blocking path of a compute request (p50, us):");
    let path = [
        "protocol.request_parse_us",
        "command.parse_us",
        "pool.wait_us",
        "command.apply_children_us",
        "command.apply_self_us",
        "protocol.reply_serialize_us",
        "eventloop.residual_us",
    ];
    let mut sum = 0.0;
    for name in path {
        let value = get(name);
        sum += value;
        println!("  {name:<36} {value:>12.1}");
    }
    println!(
        "  {:<36} {sum:>12.1}  (wire latency_p50_ms {latency_p50:.4})",
        "sum"
    );
    let failed = failed + layers.failed;
    println!(
        "{}",
        json_line(failed == 0, run.attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
