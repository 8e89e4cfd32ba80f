//! The tecopt benchmark: three seeded workloads through the workspace's
//! public API, with correctness checks and a traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload deploy_batch --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`). The line before it records the run's metadata: git
//! revision, seed, machine, per-op raw samples and any failed check. Traced
//! runs also write their spans to `.perfbench-out/`.

mod calib;
mod common;
mod deploy;
mod explore;
mod layers;
mod schedule;
mod serve;
mod stats;
mod trace;

use common::{json_num, json_str, Args, RunResult, OUT_DIR};
use layers::{layer_metrics, SegmentFigures};
use std::process::ExitCode;
use trace::Tracer;

/// The workloads the benchmark runs. `BENCHMARK.json` lists all but
/// `serve_mixed`, whose latency follows the host's CPU steal too closely
/// to meet the run-to-run bound; its layers are measured by the probe in
/// the other workloads' traced runs.
const WORKLOADS: [&str; 3] = ["deploy_batch", "serve_mixed", "explore_sweep"];

/// Every end-to-end metric, in `BENCHMARK.json` order, with its unit.
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("op_mean_ms", "ms")];

/// Derives the per-layer metrics and writes the spans out.
///
/// # Errors
///
/// A metric the run could not measure, or the spans file.
fn finish_traced(
    args: &Args,
    tracer: &Tracer,
    seg: SegmentFigures,
    out: &mut RunResult,
) -> Result<(), tecopt::OptError> {
    layer_metrics(tracer, seg, out).map_err(tecopt::OptError::InvalidParameter)?;
    out.samples
        .push(("spans".to_string(), vec![tracer.spans().len() as f64]));
    let path = std::path::Path::new(OUT_DIR)
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tracer.spans_jsonl())
        .map_err(|e| tecopt::OptError::InvalidParameter(format!("{}: {e}", path.display())))
}

fn run(args: &Args) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let outcome = match args.workload.as_str() {
        "deploy_batch" => deploy::run(args, &mut out),
        "serve_mixed" => serve::run(args, &mut out),
        "explore_sweep" => explore::run(args, &mut out),
        other => {
            return Err(format!(
                "unknown workload {other}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    outcome.map_err(|e| format!("{}: {e}", args.workload))?;
    if !args.trace {
        let mut ordered = Vec::new();
        for (name, unit) in END_TO_END {
            match out.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit && m.value.is_finite() => ordered.push(m.clone()),
                _ => return Err(format!("end-to-end metric {name} was not measured")),
            }
        }
        out.metrics = ordered;
    }
    Ok(out)
}

fn metadata(args: &Args, out: &RunResult) -> String {
    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(name, xs)| {
            let xs: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
            format!("{}:[{}]", json_str(name), xs.join(","))
        })
        .collect();
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    format!(
        "{{\"meta\":{{\"git_rev\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{},\"cpu_model\":{},\"attempted\":{},\"failed\":{},\"samples\":{{{}}},\"problems\":[{}]}}}}",
        json_str(&common::git_rev()),
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        common::nproc(),
        json_str(&common::cpu_model()),
        out.attempted,
        out.failed,
        samples.join(","),
        problems.join(","),
    )
}

fn result_line(out: &RunResult) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for p in &out.problems {
                eprintln!("check failed: {p}");
            }
            let meta = metadata(&args, &out);
            let record = std::path::Path::new(OUT_DIR).join(format!(
                "run-{}-seed{}-trace{}.json",
                args.workload,
                args.seed,
                u8::from(args.trace)
            ));
            if let Err(e) = std::fs::write(&record, format!("{meta}\n")) {
                eprintln!("warning: cannot write {}: {e}", record.display());
            }
            println!("{meta}");
            println!("{}", result_line(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, next to this package.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    fn listed(json: &str, name: &str, unit: &str) -> bool {
        json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let json = benchmark_json();
        let workloads = WORKLOADS
            .iter()
            .filter(|w| json.contains(&format!("\"name\": \"{w}\"")))
            .count();
        assert_eq!(workloads, WORKLOADS.len() - 1, "all but serve_mixed");
        for (name, unit) in END_TO_END.iter().chain(layers::LAYER_METRICS.iter()) {
            assert!(listed(&json, name, unit), "{name} [{unit}] missing");
        }
        // No name the code does not know.
        let names = json.matches("\"name\":").count();
        assert_eq!(
            names,
            workloads + END_TO_END.len() + layers::LAYER_METRICS.len()
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = RunResult::default();
        out.op(None);
        out.metric("setup_s", 0.5, "s");
        let line = result_line(&out);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        out.op(Some("bad".into()));
        assert!(
            result_line(&out).starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1")
        );
    }
}
