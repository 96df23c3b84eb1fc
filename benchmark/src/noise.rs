//! `--check-noise`: does the benchmark agree with itself on this box?
//!
//! Every workload is run as two alternating sets of N runs of this same
//! binary, each run a process of its own with a seed of its own, exactly
//! as the acceptance check runs it. Per metric it prints both medians,
//! their quartile spread and the gap between the medians, and fails when a
//! gap exceeds the metric's bound in `BENCHMARK.json`. A spread above the
//! bound is marked `wide` and does not fail the check: the acceptance
//! check takes its spreads over ten runs, and the quartiles of five are
//! close to their extremes. The facade metrics that carry no bound (they
//! are in the per-layer list) are printed too, with their value at
//! nominal box speed beside them: the next calibration decides from these
//! rows whether one of them has come to qualify.

use crate::env;
use crate::json::Json;
use crate::metrics::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::run::{RunOptions, FACADE};
use crate::stats::{iqr_share, median, py_quartiles, worsening};
use crate::workload::WORKLOADS;
use std::process::Command;

/// Run this binary once as a child process and return its result file:
/// the result line's content plus the facade metrics the line leaves out.
fn child_run(workload: &str, seed: u64, opts: RunOptions) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", "0"]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: run failed or answered wrongly"
        ));
    }
    let path = env::output_dir().join(format!("result-{workload}.json"));
    let file = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&file).map_err(|e| format!("{}: {e}", path.display()))
}

/// Field `field` ("value" or "nominal") of metric `name` in a result file.
fn metric_of(result: &Json, name: &str, field: &str) -> Option<f64> {
    result
        .get("metrics")?
        .get(name)?
        .get(field)
        .and_then(Json::as_f64)
}

/// Returns the number of checks that failed (0 = the benchmark repeats).
pub fn check(opts: RunOptions, runs: usize) -> u64 {
    let spec = metrics::benchmark_json();
    println!(
        "# check-noise runs={runs} seconds={} {}",
        opts.seconds,
        crate::env::fingerprint_line()
    );
    println!("| workload | metric | median A | q1..q3 A | median B | q1..q3 B | gap | spread A | spread B | bound | ok |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut failures = 0;
    for w in &WORKLOADS {
        // A and B alternate so that drift of the box lands on both sets.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..runs {
            let seed = opts.seed + i as u64;
            for set in [&mut a, &mut b] {
                match child_run(w.name, seed, opts) {
                    Ok(result) => set.push(result),
                    Err(e) => {
                        eprintln!("FAILED: {e}");
                        failures += 1;
                    }
                }
            }
        }
        if a.len() < 2 || b.len() < 2 {
            continue;
        }
        for name in FACADE {
            let def: &MetricDef = END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .find(|d| d.name == name)
                .expect("every facade metric is in one of the tables");
            let bound = metrics::bound_of(&spec, name);
            for field in ["value", "nominal"] {
                let values = |set: &[Json]| -> Vec<f64> {
                    set.iter()
                        .filter_map(|r| metric_of(r, name, field))
                        .collect()
                };
                let (va, vb) = (values(&a), values(&b));
                if va.len() < 2 || vb.len() < 2 {
                    continue;
                }
                let (ma, mb) = (median(&va), median(&vb));
                // Either set may be "the parent": the gap is the worse direction.
                let gap = worsening(ma, mb, def.better).max(worsening(mb, ma, def.better));
                let (sa, sb) = (iqr_share(&va), iqr_share(&vb));
                // Only the value of a metric with a bound is gated.
                let bound = bound.filter(|_| field == "value");
                let verdict = match bound {
                    None => "not gated",
                    Some(bound) if gap > bound => {
                        failures += 1;
                        "NO"
                    }
                    // The spread of setup_s is not held against its bound.
                    Some(bound) if name != "setup_s" && sa.max(sb) > bound => "yes (wide)",
                    Some(_) => "yes",
                };
                let ([a1, _, a3], [b1, _, b3]) = (py_quartiles(&va), py_quartiles(&vb));
                let label = if field == "value" {
                    name.to_string()
                } else {
                    format!("{name} (nominal)")
                };
                println!(
                    "| {} | {label} | {ma:.4} | {a1:.4}..{a3:.4} | {mb:.4} | {b1:.4}..{b3:.4} | {gap:.4} | {sa:.4} | {sb:.4} | {} | {verdict} |",
                    w.name,
                    bound.map_or("-".into(), |b| format!("{b:.2}")),
                );
            }
        }
    }
    println!("# check-noise: {failures} check(s) failed");
    failures
}
