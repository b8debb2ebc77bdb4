//! Figure output: terminal table + ASCII chart + CSV/JSON artifacts.

use esr_metrics::{ascii_chart, FigureTable};
use std::path::PathBuf;

/// Directory for machine-readable figure artifacts.
fn figures_dir() -> PathBuf {
    // CARGO_TARGET_DIR may relocate `target/`; fall back relative to the
    // workspace.
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        });
    base.join("figures")
}

/// Print a figure (table + chart) and persist `name.csv` / `name.json`
/// under `target/figures/`.
pub fn emit_figure(fig: &FigureTable, name: &str) {
    println!("{}", fig.to_text());
    println!("{}", ascii_chart(&fig.series, 64, 16));
    let dir = figures_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let csv = dir.join(format!("{name}.csv"));
    if let Err(e) = std::fs::write(&csv, fig.to_csv()) {
        eprintln!("warning: cannot write {}: {e}", csv.display());
    }
    let json = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(fig) {
        Ok(body) => {
            if let Err(e) = std::fs::write(&json, body) {
                eprintln!("warning: cannot write {}: {e}", json.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise figure: {e}"),
    }
    println!("(artifacts: {} and .json)\n", csv.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use esr_metrics::Series;

    #[test]
    fn emit_writes_artifacts() {
        let mut fig = FigureTable::new("Test figure", "x", "y");
        let mut s = Series::new("s");
        s.push(1.0, 2.0);
        fig.push_series(s);
        emit_figure(&fig, "unit_test_figure");
        let dir = figures_dir();
        assert!(dir.join("unit_test_figure.csv").exists());
        assert!(dir.join("unit_test_figure.json").exists());
        let _ = std::fs::remove_file(dir.join("unit_test_figure.csv"));
        let _ = std::fs::remove_file(dir.join("unit_test_figure.json"));
    }
}
