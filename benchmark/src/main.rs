//! The repository's benchmark: drives the real `esr-tcpd` daemon over
//! TCP on four workloads, checks its outputs, and prints every metric by
//! name with its unit. See `README.md` beside this crate.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! bench set [--seed N] [--seconds S] [--repeat R] --out FILE   # every workload, R untraced runs and a traced one
//! bench compare A.json B.json                       # B judged against A under the bounds
//! ```

mod client;
mod daemon;
mod gen;
mod layers;
mod metrics;
mod procfs;
mod quiet;
mod report;
mod run;
mod stats;
mod trace;

use report::{Contract, ResultSet, RunResult};
use stats::Metric;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The generator's default seed: the paper's year.
const DEFAULT_SEED: u64 = 1993;

fn usage() -> String {
    "usage: bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
     bench set [--seed N] [--seconds S] [--repeat R] --out FILE\n       \
     bench compare A.json B.json"
        .to_owned()
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    /// Untraced runs of each workload in a set.
    repeat: u64,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag} {value}: not a whole number"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = Some(number()?.max(1)),
            "--trace" => parsed.trace = number()? != 0,
            "--repeat" => parsed.repeat = number()?.max(1),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(parsed)
}

/// The metrics of the driver's result line: exactly the declared names
/// of the half that was asked for. A per-layer metric whose layer this
/// workload never enters reads 0.
fn declared_metrics(contract: &Contract, result: &RunResult) -> BTreeMap<String, Metric> {
    if result.traced {
        contract
            .per_layer
            .iter()
            .map(|d| {
                let absent = Metric::whole(0.0, &d.unit, 0);
                let m = result.per_layer.get(&d.name).cloned().unwrap_or(absent);
                (d.name.clone(), m)
            })
            .collect()
    } else {
        result.end_to_end.clone()
    }
}

/// The last line of stdout: one JSON object with exactly the keys the
/// driver reads.
fn result_line(result: &RunResult, metrics: &BTreeMap<String, Metric>) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn run_one(contract: &Contract, root: &Path, opts: &run::Options) -> Result<RunResult, String> {
    let result = run::run(opts)?;
    for check in &result.checks {
        eprintln!("[{}] {}: {}", if check.ok { "ok" } else { "FAILED" }, check.name, check.detail);
    }
    let path = root.join("benchmark").join("out").join(format!(
        "result.{}.trace{}.json",
        result.workload,
        u8::from(result.traced)
    ));
    report::write_set(&path, &ResultSet { results: vec![result.clone()] })?;
    let why = contract.workloads.iter().find(|w| w.name == result.workload);
    let title = format!(
        "{} (seed {}, {} s, {}) -- {}",
        result.workload,
        opts.seed,
        opts.seconds,
        if result.traced { "traced: per-layer" } else { "untraced: end-to-end" },
        why.map_or("", |w| w.why.as_str())
    );
    report::print_metrics(&title, &declared_metrics(contract, &result));
    Ok(result)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = daemon::repo_root();
    let contract = Contract::load(&root)?;
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return Err(usage());
            };
            let (a, b) = (report::load_set(Path::new(a))?, report::load_set(Path::new(b))?);
            Ok(report::compare(&contract, &a, &b))
        }
        Some("set") => {
            let flags = parse_flags(&args[1..])?;
            let out = flags.out.ok_or_else(usage)?;
            let mut results = Vec::new();
            for w in &gen::WORKLOADS {
                let untraced = (0..flags.repeat).map(|_| false);
                for trace in untraced.chain([true]) {
                    let opts = run::Options {
                        workload: w,
                        seed: flags.seed,
                        seconds: flags.seconds.unwrap_or(contract.run_seconds),
                        trace,
                    };
                    results.push(run_one(&contract, &root, &opts)?);
                }
            }
            let ok = results.iter().all(|r| r.correct && r.failed == 0);
            report::write_set(&out, &ResultSet { results })?;
            Ok(ok)
        }
        _ => {
            let flags = parse_flags(&args)?;
            let name = flags.workload.ok_or_else(usage)?;
            let workload = gen::workload(&name).ok_or_else(|| {
                let known: Vec<&str> = gen::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; known: {}", known.join(", "))
            })?;
            let opts = run::Options {
                workload,
                seed: flags.seed,
                seconds: flags.seconds.unwrap_or(contract.run_seconds),
                trace: flags.trace,
            };
            let result = run_one(&contract, &root, &opts)?;
            println!("{}", result_line(&result, &declared_metrics(&contract, &result)));
            Ok(result.correct && result.failed == 0)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct LineMetric {
        value: f64,
        unit: String,
    }

    /// The driver's view of the last stdout line.
    #[derive(Deserialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: BTreeMap<String, LineMetric>,
    }

    /// `BENCHMARK.json` declares exactly the workloads this crate runs.
    #[test]
    fn contract_and_code_agree_on_workloads() {
        let contract = Contract::load(&daemon::repo_root()).unwrap();
        let declared: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
        let built: Vec<&str> = gen::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, built);
    }

    /// A two-second smoke of `paper_hot`, untraced and traced: every
    /// declared metric is present, finite and carries its declared unit;
    /// the end-to-end ones are not 0; the run is correct.
    #[test]
    fn smoke_reports_every_declared_metric() {
        let contract = Contract::load(&daemon::repo_root()).unwrap();
        for trace in [false, true] {
            let opts = run::Options {
                workload: gen::workload("paper_hot").unwrap(),
                seed: DEFAULT_SEED,
                seconds: 2,
                trace,
            };
            let result = run::run(&opts).unwrap();
            let failed: Vec<_> = result.checks.iter().filter(|c| !c.ok).collect();
            assert!(failed.is_empty(), "{failed:?}");
            assert_eq!(result.failed, 0);
            let metrics = declared_metrics(&contract, &result);
            let declared: Vec<(&str, &str)> = if trace {
                contract.per_layer.iter().map(|d| (d.name.as_str(), d.unit.as_str())).collect()
            } else {
                contract.end_to_end.iter().map(|d| (d.name.as_str(), d.unit.as_str())).collect()
            };
            assert_eq!(metrics.len(), declared.len());
            for (name, unit) in declared {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{name} is missing"));
                assert!(m.value.is_finite(), "{name} = {}", m.value);
                assert_eq!(m.unit, unit, "{name}");
                assert!(trace || m.value > 0.0, "{name} is 0");
            }
            // Nothing is measured that the contract does not declare.
            let known = |n: &String| contract.per_layer.iter().any(|d| &d.name == n);
            let undeclared: Vec<_> = result.per_layer.keys().filter(|n| !known(n)).collect();
            assert!(undeclared.is_empty(), "{undeclared:?}");
            // The result line parses back to what was measured.
            let line: Line = serde_json::from_str(&result_line(&result, &metrics)).unwrap();
            assert!(line.correct && line.attempted >= 1 && line.failed == 0);
            assert_eq!(line.metrics.len(), metrics.len());
            for (name, m) in &line.metrics {
                assert_eq!((m.value, &m.unit), (metrics[name].value, &metrics[name].unit));
            }
        }
    }
}
