//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark --all             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark --check-noise     [--runs N] [--seed N] [--seconds S]
//! ```
//!
//! The last line of standard output of a `--workload` run is the result
//! object the driver reads; the exit code is non-zero when any operation
//! failed or any answer was wrong.

mod env;
mod json;
mod metrics;
mod noise;
mod oracle;
mod probe;
mod run;
mod spans;
mod stats;
mod traced;
mod workload;

use metrics::Report;
use run::RunOptions;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

/// The seed a bare `--workload` run uses. Claims made on it must also hold
/// on the held-out seed 1009 (see the README).
const DEFAULT_SEED: u64 = 7;

enum Mode {
    One(&'static Workload),
    All,
    CheckNoise,
}

struct Args {
    mode: Mode,
    opts: RunOptions,
    trace: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut opts = RunOptions {
        seed: DEFAULT_SEED,
        seconds: metrics::run_seconds(&metrics::benchmark_json()),
        smoke: false,
    };
    let mut trace = false;
    let mut runs = 5;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workload::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
                mode = Some(Mode::One(w));
            }
            "--all" => mode = Some(Mode::All),
            "--check-noise" => mode = Some(Mode::CheckNoise),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=120.0).contains(&opts.seconds) {
                    return Err("--seconds must be between 0 and 120".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(2..=50).contains(&runs) {
                    return Err("--runs must be between 2 and 50".into());
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let mode = mode.ok_or("one of --workload <name>, --all or --check-noise is required")?;
    Ok(Args {
        mode,
        opts,
        trace,
        runs,
    })
}

/// Run one workload, print its table, write its result file (and, traced,
/// its span file) under `benchmark/target/`.
fn run_one(w: &'static Workload, opts: RunOptions, trace: bool) -> Report {
    println!(
        "# {} seed={} seconds={} trace={} {}",
        w.name,
        opts.seed,
        opts.seconds,
        trace as u8,
        env::fingerprint_line()
    );
    let report = if trace {
        traced::run(w, opts)
    } else {
        run::run(w, opts)
    };
    print!("{}", report.to_text());
    let missing = report.missing();
    assert!(missing.is_empty(), "metrics never reported: {missing:?}");
    let suffix = if trace { "-traced" } else { "" };
    let path = env::output_dir().join(format!("result-{}{suffix}.json", w.name));
    if let Err(e) = std::fs::write(&path, report.to_file_json()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark (--workload <name> | --all | --check-noise) \
                 [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let failed = match args.mode {
        Mode::One(w) => {
            let report = run_one(w, args.opts, args.trace);
            if report.attempted == 0 {
                eprintln!("error: the run attempted no operation");
                return ExitCode::FAILURE;
            }
            println!("{}", report.to_result_line());
            report.failed
        }
        Mode::All => WORKLOADS
            .iter()
            .map(|w| run_one(w, args.opts, args.trace).failed)
            .sum(),
        Mode::CheckNoise => noise::check(args.opts, args.runs),
    };
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args(&[
            "--workload",
            "store_mixed",
            "--seed",
            "1009",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(matches!(a.mode, Mode::One(w) if w.name == "store_mixed"));
        assert_eq!((a.opts.seed, a.opts.seconds, a.trace), (1009, 20.0, true));
        let d = args(&["--all"]).unwrap();
        assert_eq!(
            (d.opts.seed, d.trace, d.opts.smoke),
            (DEFAULT_SEED, false, false)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "7"],
            &["--all", "--trace", "2"],
            &["--all", "--seed"],
            &["--all", "--seconds", "-1"],
            &["--check-noise", "--runs", "1"],
            &["--all", "--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    /// All four workloads at the smoke size, untraced and traced, twice:
    /// every metric is reported, every answer matches the oracle, and what
    /// is marked exact does not move between the two runs.
    #[test]
    fn smoke_runs_every_workload_and_exact_counts_repeat() {
        let started = Instant::now();
        let opts = RunOptions {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            smoke: true,
        };
        for w in &WORKLOADS {
            let mut untraced = Vec::new();
            let mut traced = Vec::new();
            for _ in 0..2 {
                let report = run::run(w, opts);
                assert_eq!(report.failed, 0, "{}", w.name);
                assert!(
                    report.attempted > 0 && report.missing().is_empty(),
                    "{}",
                    w.name
                );
                untraced.push(report);
                let report = traced::run(w, opts);
                assert_eq!(report.failed, 0, "{} traced", w.name);
                assert!(report.missing().is_empty(), "{} traced", w.name);
                traced.push(report);
            }
            assert_eq!(
                untraced[0].get("bytes_per_key"),
                untraced[1].get("bytes_per_key")
            );
            assert_eq!(untraced[0].attempted, untraced[1].attempted);
            for v in traced[0].values.iter().filter(|v| v.estimator == "exact") {
                assert_eq!(
                    Some(v.value),
                    traced[1].get(v.def.name),
                    "{} {}",
                    w.name,
                    v.def.name
                );
            }
            for v in untraced[0].values.iter() {
                assert!(
                    v.value.is_finite() && v.value > 0.0,
                    "{} {}",
                    w.name,
                    v.def.name
                );
            }
            let trace =
                std::fs::read_to_string(env::output_dir().join(format!("trace-{}.json", w.name)))
                    .unwrap();
            let trace = json::Json::parse(&trace).unwrap();
            let spans = trace.get("spans").unwrap().as_arr();
            assert!(spans.len() > 100, "{}", w.name);
            for s in spans {
                let id = s.get("id").unwrap().as_f64().unwrap();
                let parent = s.get("parent").unwrap().as_f64().unwrap();
                assert!(parent < id, "a parent opens before its child");
                assert!(s.get("end_ns").unwrap().as_f64() >= s.get("start_ns").unwrap().as_f64());
            }
            let stages = trace.get("stages").unwrap();
            for stage in ["trial", "block", "core.table.correct", "store.snapshot.pin"] {
                assert!(
                    stages.get(stage).is_some(),
                    "{} lacks stage {stage}",
                    w.name
                );
            }
            // Only durable_ingest syncs its WAL; the static workloads
            // write nothing at all.
            let syncs = traced[0].get("store.persist.wal.syncs_per_kop").unwrap();
            let wal_bytes = traced[0].get("store.persist.wal.bytes_per_op").unwrap();
            assert_eq!(
                syncs > 0.0,
                w.name == "durable_ingest",
                "{} syncs {syncs}",
                w.name
            );
            assert_eq!(
                wal_bytes == 0.0,
                w.name.starts_with("static_"),
                "{} WAL {wal_bytes}",
                w.name
            );
        }
        let elapsed = started.elapsed().as_secs_f64();
        assert!(elapsed < 15.0, "smoke took {elapsed:.1}s");
    }
}
