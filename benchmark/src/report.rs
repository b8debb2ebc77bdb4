//! The result schema, the contract in `BENCHMARK.json`, and `compare`.

use crate::stats::Metric;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Where and on what a result was measured, so numbers are read against
/// the machine and the disk's floor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Env {
    pub nproc: u64,
    /// The one CPU the benchmark and its daemons ran on (`None`: the
    /// kernel refused to pin, and the numbers carry the wake-up noise).
    pub pinned_cpu: Option<u64>,
    /// Whether a nice-19 spinner kept that CPU from halting.
    pub keep_awake: bool,
    pub git_commit: String,
    pub rustc: String,
    pub kernel_release: String,
    pub scratch_fs: String,
    pub daemon_command_lines: Vec<String>,
    pub seed: u64,
    pub seconds: u64,
    pub clients: u64,
    /// Hash of each client's measured stream, hex.
    pub stream_hashes: Vec<String>,
    pub raw_fdatasync_p50_us: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// One run of one workload, traced or not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub env: Env,
    pub checks: Vec<Check>,
    pub end_to_end: BTreeMap<String, Metric>,
    pub per_layer: BTreeMap<String, Metric>,
}

/// A set of runs, as `bench set` writes and `bench compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    pub results: Vec<RunResult>,
}

#[derive(Debug, Clone, Deserialize)]
pub struct NamedWhy {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Layer {
    pub name: String,
    pub unit: String,
}

/// `BENCHMARK.json`: the one place metric names, units, directions and
/// bounds are declared. Only the keys this crate acts on are read.
#[derive(Debug, Clone, Deserialize)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<NamedWhy>,
    pub end_to_end: Vec<Bounded>,
    pub per_layer: Vec<Layer>,
}

impl Contract {
    pub fn load(root: &Path) -> Result<Contract, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

pub fn load_set(path: &Path) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write_set(path: &Path, set: &ResultSet) -> Result<(), String> {
    let json = serde_json::to_string_pretty(set).map_err(|e| e.to_string())?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// The table a run prints: every metric by name with its unit.
pub fn print_metrics(title: &str, metrics: &BTreeMap<String, Metric>) {
    println!("{title}");
    for (name, m) in metrics {
        println!(
            "  {name:<42} {:>16.4} {:<6} [{:.4} .. {:.4}] n={}",
            m.value, m.unit, m.lo, m.hi, m.n
        );
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    /// The slice quartiles of either side are spread wider than the
    /// bound: the runs cannot tell a change of that size from noise.
    Unresolved,
}

/// Judge `b` against `a` for one metric under its bound. A baseline of
/// 0 has no relative change and stays unresolved.
pub fn judge(a: &Metric, b: &Metric, decl: &Bounded) -> Verdict {
    let spread = |m: &Metric| (m.hi - m.lo) / m.value;
    if a.value == 0.0 || b.value == 0.0 || spread(a).max(spread(b)) > decl.bound {
        return Verdict::Unresolved;
    }
    let worse_by = match decl.better.as_str() {
        "higher" => (a.value - b.value) / a.value,
        _ => (b.value - a.value) / a.value,
    };
    if worse_by > decl.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// One side's figure for an end-to-end metric of a workload. A set made
/// with `--repeat N` holds N untraced runs of each workload: the figure is
/// then the median over the runs and `lo`/`hi` their quartiles — the
/// run-to-run spread itself, where a single run can offer only its slice
/// quartiles in its place. `None` if any run lacks the metric.
fn pooled(runs: &[&RunResult], name: &str) -> Option<Metric> {
    let each: Vec<&Metric> = runs.iter().map(|r| r.end_to_end.get(name)).collect::<Option<_>>()?;
    match each.as_slice() {
        [] => None,
        [one] => Some((*one).clone()),
        many => {
            let values: Vec<f64> = many.iter().map(|m| m.value).collect();
            Some(Metric::over(&values, &many[0].unit, many.len() as u64))
        }
    }
}

/// Print B against A, one block per workload and one row per
/// end-to-end metric, plus the quantities that must repeat exactly.
/// Returns whether the sets are comparable and nothing got worse: a
/// workload, run or metric missing from either side, a stream hash that
/// differs under one seed, or a `sim.virtual_txn_per_s` that does not
/// repeat all fail the comparison.
pub fn compare(contract: &Contract, a: &ResultSet, b: &ResultSet) -> bool {
    fn runs<'a>(set: &'a ResultSet, workload: &str, traced: bool) -> Vec<&'a RunResult> {
        set.results.iter().filter(|r| r.workload == workload && r.traced == traced).collect()
    }
    let mut ok = true;
    for w in &contract.workloads {
        let name = &w.name;
        let (runs_a, runs_b) = (runs(a, name, false), runs(b, name, false));
        let (Some(ra), Some(rb)) = (runs_a.first(), runs_b.first()) else {
            println!("{name:<16} => MISSING: one side has no untraced run");
            ok = false;
            continue;
        };
        let mut counts = [0usize; 3];
        for decl in &contract.end_to_end {
            let (Some(ma), Some(mb)) = (pooled(&runs_a, &decl.name), pooled(&runs_b, &decl.name))
            else {
                println!("{name:<16} {:<24} MISSING from one side", decl.name);
                ok = false;
                continue;
            };
            let verdict = judge(&ma, &mb, decl);
            counts[verdict as usize] += 1;
            ok &= verdict != Verdict::Worse;
            println!(
                "{name:<16} {:<24} {:>14.4} -> {:>14.4} {:<5} ({:+.1}%, bound {:.0}%)  {}",
                decl.name,
                ma.value,
                mb.value,
                decl.unit,
                100.0 * (mb.value - ma.value) / ma.value,
                100.0 * decl.bound,
                match verdict {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let mut exact = Vec::new();
        if ra.env.seed == rb.env.seed {
            exact.push(("stream hashes", ra.env.stream_hashes == rb.env.stream_hashes));
        }
        let sim = |set| {
            runs(set, name, true).first()?.per_layer.get("sim.virtual_txn_per_s").map(|m| m.value)
        };
        let (sim_a, sim_b) = (sim(a), sim(b));
        exact.push(("sim.virtual_txn_per_s", sim_a.is_some() && sim_a == sim_b));
        ok &= exact.iter().all(|(_, same)| *same);
        let exact: Vec<String> = exact
            .iter()
            .map(|(what, same)| format!("{what} {}", if *same { "repeat" } else { "DIFFER" }))
            .collect();
        println!(
            "{name:<16} => {} same, {} worse, {} unresolved ({} vs {} runs); {}",
            counts[Verdict::Same as usize],
            counts[Verdict::Worse as usize],
            counts[Verdict::Unresolved as usize],
            runs_a.len(),
            runs_b.len(),
            exact.join(", ")
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, lo: f64, hi: f64) -> Metric {
        Metric { value, unit: "us".into(), lo, hi, n: 1 }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let lower = Bounded {
            name: "query_p50_us".into(),
            unit: "us".into(),
            better: "lower".into(),
            bound: 0.10,
        };
        let a = metric(100.0, 98.0, 102.0);
        assert_eq!(judge(&a, &metric(109.0, 108.0, 110.0), &lower), Verdict::Same);
        assert_eq!(judge(&a, &metric(111.0, 110.0, 112.0), &lower), Verdict::Worse);
        assert_eq!(judge(&a, &metric(50.0, 49.0, 51.0), &lower), Verdict::Same);
        assert_eq!(judge(&a, &metric(100.0, 90.0, 101.0), &lower), Verdict::Unresolved);
        // A zero on either side has no relative change to judge.
        let zero = metric(0.0, 0.0, 0.0);
        assert_eq!(judge(&zero, &a, &lower), Verdict::Unresolved);
        assert_eq!(judge(&a, &zero, &lower), Verdict::Unresolved);
        let higher = Bounded { better: "higher".into(), ..lower };
        assert_eq!(judge(&a, &metric(89.0, 88.0, 90.0), &higher), Verdict::Worse);
        assert_eq!(judge(&a, &metric(120.0, 119.0, 121.0), &higher), Verdict::Same);
    }

    fn run(workload: &str, traced: bool, value: f64, sim: f64, hash: &str) -> RunResult {
        let env = Env {
            nproc: 2,
            pinned_cpu: Some(1),
            keep_awake: true,
            git_commit: String::new(),
            rustc: String::new(),
            kernel_release: String::new(),
            scratch_fs: String::new(),
            daemon_command_lines: Vec::new(),
            seed: 1993,
            seconds: 25,
            clients: 2,
            stream_hashes: vec![hash.to_owned()],
            raw_fdatasync_p50_us: 100.0,
        };
        let one = |name: &str, v: f64| BTreeMap::from([(name.to_owned(), metric(v, v, v))]);
        RunResult {
            workload: workload.to_owned(),
            traced,
            correct: true,
            attempted: 1,
            failed: 0,
            env,
            checks: Vec::new(),
            end_to_end: if traced { BTreeMap::new() } else { one("query_p50_us", value) },
            per_layer: if traced { one("sim.virtual_txn_per_s", sim) } else { BTreeMap::new() },
        }
    }

    fn set(value: f64, sim: f64, hash: &str) -> ResultSet {
        ResultSet {
            results: vec![run("w", false, value, sim, hash), run("w", true, value, sim, hash)],
        }
    }

    #[test]
    fn compare_fails_on_anything_missing_or_not_repeating() {
        let contract = Contract {
            run_seconds: 25,
            workloads: vec![NamedWhy { name: "w".into(), why: String::new() }],
            end_to_end: vec![Bounded {
                name: "query_p50_us".into(),
                unit: "us".into(),
                better: "lower".into(),
                bound: 0.10,
            }],
            per_layer: Vec::new(),
        };
        let a = set(100.0, 7.5, "aa");
        assert!(compare(&contract, &a, &set(105.0, 7.5, "aa")));
        assert!(!compare(&contract, &a, &set(115.0, 7.5, "aa")), "worse");
        assert!(!compare(&contract, &a, &set(100.0, 7.6, "aa")), "sim differs");
        assert!(!compare(&contract, &a, &set(100.0, 7.5, "bb")), "hashes differ under one seed");
        let mut untraced_only = a.clone();
        untraced_only.results.pop();
        assert!(!compare(&contract, &a, &untraced_only), "no traced run to take sim from");
        assert!(!compare(&contract, &a, &ResultSet { results: Vec::new() }), "workload missing");
        let mut no_metric = a.clone();
        no_metric.results[0].end_to_end.clear();
        assert!(!compare(&contract, &a, &no_metric), "metric missing");
        // Three runs a side: the median run is judged, so one run in a
        // slow minute (130) does not read as a regression...
        let repeated = |values: [f64; 3]| ResultSet {
            results: values
                .iter()
                .map(|v| run("w", false, *v, 7.5, "aa"))
                .chain([run("w", true, 0.0, 7.5, "aa")])
                .collect(),
        };
        let steady = repeated([99.0, 100.0, 101.0]);
        assert!(compare(&contract, &steady, &repeated([100.0, 101.0, 102.0])));
        // ...but makes the pair unresolved: the runs themselves spread
        // wider than the bound.
        let one_slow = repeated([100.0, 130.0, 101.0]);
        let runs: Vec<&RunResult> = one_slow.results.iter().filter(|r| !r.traced).collect();
        let m = pooled(&runs, "query_p50_us").unwrap();
        assert_eq!((m.lo, m.value, m.hi), (100.0, 101.0, 130.0));
        assert_eq!(
            judge(&pooled(&runs[..1], "query_p50_us").unwrap(), &m, &contract.end_to_end[0]),
            Verdict::Unresolved
        );
        assert!(
            !compare(&contract, &steady, &repeated([112.0, 113.0, 111.0])),
            "worse in the median"
        );
    }
}
