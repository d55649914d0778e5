//! The observatory's analysis + rendering layer: turns the perf-history
//! ledger (`util::history`) into trend verdicts and a static dashboard.
//!
//! [`analyze`] runs the robust analytics of `util::stats` over every
//! ledger series — MAD outlier scores, two-sided CUSUM changepoints,
//! baseline comparison and rotation proposals — and [`render_html`]
//! emits a self-contained `report.html` (inline CSS + SVG sparklines, no
//! external assets, no timestamps) whose bytes are a pure function of
//! the ledger and baselines, so re-rendering an unchanged tree is
//! byte-identical. [`check`] distills the same analysis into the CI
//! question: *did the latest regime of any bench series shift upward, or
//! does its newest median sit more than [`BASELINE_LIMIT`] above its
//! committed baseline?*
//!
//! Baselines are the committed obs snapshots under
//! `<results>/baselines/`; a series matches a baseline when the bench
//! name, config hash, and thread count all agree — a baseline for a
//! different configuration proves nothing about this one.

use relaxfault_util::history::{self, HistoryEntry, SeriesKey, SeriesKind, SeriesPoint};
use relaxfault_util::json::Value;
use relaxfault_util::stats::{self, Changepoint};
use std::collections::BTreeMap;
use std::path::Path;

/// How many consecutive runs must sit below a baseline before
/// [`analyze`] proposes rotating it (the `N` of the ISSUE's
/// propose-new-baseline policy).
pub const BASELINE_WINDOW: usize = 5;

/// How far below the baseline those runs must sit (relative margin), so
/// jitter alone never rotates a baseline.
pub const BASELINE_MARGIN: f64 = 0.05;

/// How far above the pre-shift regime the latest regime's median must
/// sit for [`SeriesReport::regression`] to gate — filters out CUSUM
/// detections whose regime has since recovered.
pub const REGRESSION_MARGIN: f64 = 0.05;

/// How far above its committed baseline a bench series' newest median
/// may sit before [`check`] fails it (relative: 0.5 = 50% slower). Wide,
/// because baselines are often recorded on another machine.
pub const BASELINE_LIMIT: f64 = 0.5;

/// A bench series whose latest regime regressed: the verdict
/// [`check`] and the dashboard's regression table are built from.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Epoch (series index) where the slow regime begins.
    pub epoch: usize,
    /// Run name of the first slow point.
    pub run: String,
    /// Relative elevation of the latest regime's median over the
    /// pre-shift regime's median.
    pub shift: f64,
}

/// One series' trend verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesReport {
    /// What the series measures and under which configuration.
    pub key: SeriesKey,
    /// The observations, in epoch order.
    pub points: Vec<SeriesPoint>,
    /// MAD z-score per point (same length as `points`).
    pub scores: Vec<f64>,
    /// Every detected regime shift, in epoch order.
    pub changepoints: Vec<Changepoint>,
    /// The committed baseline value matching this series, if any.
    pub baseline: Option<f64>,
    /// Proposed replacement baseline (median of the recent window) when
    /// [`BASELINE_WINDOW`] consecutive runs sit below the baseline by
    /// more than [`BASELINE_MARGIN`].
    pub proposal: Option<f64>,
}

impl SeriesReport {
    /// The regression verdict: the last changepoint, if it shifted
    /// **upward** and the regime it opened is still elevated — the
    /// latest-regime median sits more than [`REGRESSION_MARGIN`] above
    /// the pre-shift median, so a regression that was since fixed does
    /// not gate. Only bench series gate CI; counter regimes shift
    /// legitimately when workloads change.
    pub fn regression(&self) -> Option<Regression> {
        if self.key.kind != SeriesKind::Bench {
            return None;
        }
        let cp = self.changepoints.last()?;
        if cp.direction <= 0 || cp.index == 0 || cp.index >= self.points.len() {
            return None;
        }
        let values: Vec<f64> = self.points.iter().map(|p| p.value).collect();
        let pre = stats::median(&values[..cp.index]);
        let post = stats::median(&values[cp.index..]);
        if post <= pre * (1.0 + REGRESSION_MARGIN) {
            return None;
        }
        Some(Regression {
            epoch: cp.index,
            run: self.points[cp.index].run.clone(),
            shift: if pre > 0.0 {
                post / pre - 1.0
            } else {
                f64::INFINITY
            },
        })
    }

    /// One-line description of the regression, naming series, epoch, and
    /// run — the string the CI gate greps for.
    pub fn regression_line(&self) -> Option<String> {
        self.regression().map(|r| {
            format!(
                "REGRESSION {} at epoch {} (run {}): {:+.1}% shift",
                self.key.label(),
                r.epoch,
                r.run,
                r.shift * 100.0
            )
        })
    }

    /// One-line description of a baseline breach: the newest median
    /// more than [`BASELINE_LIMIT`] above the committed baseline.
    pub fn baseline_line(&self) -> Option<String> {
        let (newest, baseline) = (self.points.last()?.value, self.baseline?);
        (newest > baseline * (1.0 + BASELINE_LIMIT)).then(|| {
            format!(
                "REGRESSION {} over baseline: newest median {newest:.1} is {:.2}x the committed {baseline:.1}",
                self.key.label(),
                newest / baseline
            )
        })
    }
}

/// Reads every committed baseline snapshot under `baselines_dir` into
/// `(bench name, config_hash, threads) -> median_ns`. Files that are not
/// current-schema snapshots are skipped (other artifact families own
/// them); a missing directory just means no baselines.
pub fn load_baselines(baselines_dir: &Path) -> BTreeMap<(String, u64, u64), f64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir(baselines_dir) else {
        return out;
    };
    let mut paths: Vec<_> = dir.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok(doc) = Value::parse(&text) else {
            continue;
        };
        let Ok(entry) = history::entry_from_snapshot(&doc) else {
            continue;
        };
        for (name, median) in &entry.benches {
            out.insert((name.clone(), entry.config_hash, entry.threads), *median);
        }
    }
    out
}

/// Runs the full trend analysis over a ledger's entries.
pub fn analyze(
    entries: &[HistoryEntry],
    baselines: &BTreeMap<(String, u64, u64), f64>,
) -> Vec<SeriesReport> {
    let mut reports = Vec::new();
    for (key, points) in history::series(entries) {
        let values: Vec<f64> = points.iter().map(|p| p.value).collect();
        let scores = stats::mad_scores(&values);
        let changepoints = stats::cusum_changepoints(&values, stats::CUSUM_K, stats::CUSUM_H);
        let baseline = if key.kind == SeriesKind::Bench {
            baselines
                .get(&(key.name.clone(), key.config_hash, key.threads))
                .copied()
        } else {
            None
        };
        let proposal = baseline
            .and_then(|b| stats::propose_baseline(&values, b, BASELINE_WINDOW, BASELINE_MARGIN));
        reports.push(SeriesReport {
            key,
            points,
            scores,
            changepoints,
            baseline,
            proposal,
        });
    }
    reports
}

/// The CI verdict over a full analysis: one line per regressed bench
/// series and one per baseline breach; empty means every bench series'
/// latest regime is at or below its trend and within
/// [`BASELINE_LIMIT`] of its baseline.
pub fn check(reports: &[SeriesReport]) -> Vec<String> {
    reports
        .iter()
        .flat_map(|r| [r.regression_line(), r.baseline_line()])
        .flatten()
        .collect()
}

/// Appends `count` synthetic runs to the ledger at `ledger_path`,
/// cloning the last entry that carries bench `series_name` with that
/// bench median multiplied by `factor` — the injection harness behind
/// the CI history gate (factor 2.0 fakes a regression the changepoint
/// detector must catch; factor 1.0 extends the clean trend). Synthetic
/// runs are named `<run>-syn<K>` and stamped one millisecond apart after
/// the newest ledger entry, so every invariant still holds.
///
/// # Errors
///
/// Fails when the ledger cannot be loaded, no entry carries the series,
/// or the append fails.
pub fn extend_series(
    ledger_path: &Path,
    series_name: &str,
    factor: f64,
    count: usize,
) -> Result<usize, String> {
    let mut ledger = history::Ledger::load(ledger_path)?;
    let template = ledger
        .entries
        .iter()
        .rev()
        .find(|e| e.benches.iter().any(|(n, _)| n == series_name))
        .cloned()
        .ok_or_else(|| format!("no ledger entry carries bench {series_name}"))?;
    let base_clock = ledger
        .entries
        .iter()
        .map(|e| e.wall_clock_ms)
        .max()
        .unwrap_or(0);
    let existing = ledger.entries.len();
    let mut synthetic = Vec::new();
    for i in 0..count {
        let mut e = template.clone();
        e.run = format!("{}-syn{}", template.run, existing + i);
        e.wall_clock_ms = base_clock + 1 + i as u64;
        for (name, median) in &mut e.benches {
            if name == series_name {
                *median *= factor;
            }
        }
        synthetic.push(e.seal());
    }
    ledger.append(synthetic)
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Inline-SVG sparkline for one series: the value polyline plus one
/// marker circle per changepoint (red for upward/regression, green for
/// downward/improvement) and a dashed baseline rule when one exists.
/// Pure text geometry — identical input bytes yield identical SVG.
fn sparkline(report: &SeriesReport) -> String {
    const W: f64 = 560.0;
    const H: f64 = 72.0;
    const PAD: f64 = 8.0;
    let values: Vec<f64> = report.points.iter().map(|p| p.value).collect();
    if values.is_empty() {
        return String::new();
    }
    let mut lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if let Some(b) = report.baseline {
        lo = lo.min(b);
        hi = hi.max(b);
    }
    if hi - lo < 1e-12 {
        // Flat series: park the line mid-band instead of dividing by 0.
        lo -= 1.0;
        hi += 1.0;
    }
    let x = |i: usize| {
        if values.len() == 1 {
            W / 2.0
        } else {
            PAD + (W - 2.0 * PAD) * i as f64 / (values.len() - 1) as f64
        }
    };
    let y = |v: f64| PAD + (H - 2.0 * PAD) * (1.0 - (v - lo) / (hi - lo));
    let mut svg = format!(r#"<svg width="{W}" height="{H}" viewBox="0 0 {W} {H}" role="img">"#);
    if let Some(b) = report.baseline {
        svg.push_str(&format!(
            r#"<line x1="{PAD}" y1="{0:.2}" x2="{1:.2}" y2="{0:.2}" class="baseline"/>"#,
            y(b),
            W - PAD
        ));
    }
    let path: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| format!("{:.2},{:.2}", x(i), y(*v)))
        .collect();
    svg.push_str(&format!(
        r#"<polyline points="{}" class="trend"/>"#,
        path.join(" ")
    ));
    for cp in &report.changepoints {
        if let Some(v) = values.get(cp.index) {
            let class = if cp.direction > 0 { "cp-up" } else { "cp-down" };
            svg.push_str(&format!(
                r#"<circle cx="{:.2}" cy="{:.2}" r="4" class="{class}"><title>epoch {}: {:+.1}%</title></circle>"#,
                x(cp.index),
                y(*v),
                cp.index,
                cp.shift * 100.0
            ));
        }
    }
    svg.push_str("</svg>");
    svg
}

/// Renders the full dashboard. Self-contained (inline CSS/SVG, no
/// scripts, no external fetches) and deterministic: no timestamps, no
/// randomness — the bytes depend only on `reports` (and therefore only
/// on the ledger + baselines they came from).
pub fn render_html(reports: &[SeriesReport]) -> String {
    let mut html = String::from(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
         <title>perf-history observatory</title>\n<style>\n\
         body{font-family:ui-monospace,monospace;margin:2rem;background:#fafafa;color:#222}\n\
         h1,h2{border-bottom:1px solid #ccc;padding-bottom:.2rem}\n\
         table{border-collapse:collapse;margin:.5rem 0}\n\
         td,th{border:1px solid #ccc;padding:.2rem .6rem;text-align:right}\n\
         th{background:#eee}td.name,th.name{text-align:left}\n\
         .trend{fill:none;stroke:#369;stroke-width:1.5}\n\
         .baseline{stroke:#999;stroke-dasharray:4 3}\n\
         .cp-up{fill:#c22}.cp-down{fill:#2a2}\n\
         .series{margin:1.2rem 0;padding:.6rem;background:#fff;border:1px solid #ddd}\n\
         .regressed{border-color:#c22;background:#fff5f5}\n\
         .ok{color:#2a2}.bad{color:#c22}\n\
         </style></head><body>\n<h1>perf-history observatory</h1>\n",
    );
    let runs: usize = reports
        .iter()
        .map(|r| r.points.iter().map(|p| p.entry_index).max().unwrap_or(0))
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    html.push_str(&format!(
        "<p>{} series over {} ledger entries.</p>\n",
        reports.len(),
        runs
    ));

    // Regression table: the reason this page exists, so it goes first.
    html.push_str("<h2>Regressions</h2>\n");
    let regressions: Vec<&SeriesReport> = reports
        .iter()
        .filter(|r| r.regression().is_some())
        .collect();
    if regressions.is_empty() {
        html.push_str("<p class=\"ok\">none — every bench series' latest regime is at or below its trend.</p>\n");
    } else {
        html.push_str(
            "<table><tr><th class=\"name\">series</th><th>epoch</th><th>run</th>\
             <th>shift</th><th>latest</th></tr>\n",
        );
        for r in &regressions {
            let reg = r.regression().expect("filtered on regression");
            html.push_str(&format!(
                "<tr><td class=\"name\">{}</td><td>{}</td><td>{}</td>\
                 <td class=\"bad\">{:+.1}%</td><td>{:.1}</td></tr>\n",
                html_escape(&r.key.label()),
                reg.epoch,
                html_escape(&reg.run),
                reg.shift * 100.0,
                r.points.last().map(|p| p.value).unwrap_or(f64::NAN),
            ));
        }
        html.push_str("</table>\n");
    }

    // Baseline rotation proposals.
    let proposals: Vec<&SeriesReport> = reports.iter().filter(|r| r.proposal.is_some()).collect();
    if !proposals.is_empty() {
        html.push_str("<h2>Baseline rotation proposals</h2>\n<table><tr><th class=\"name\">series</th><th>baseline</th><th>proposed</th></tr>\n");
        for r in &proposals {
            html.push_str(&format!(
                "<tr><td class=\"name\">{}</td><td>{:.1}</td><td class=\"ok\">{:.1}</td></tr>\n",
                html_escape(&r.key.label()),
                r.baseline.expect("proposal implies baseline"),
                r.proposal.expect("filtered on proposal"),
            ));
        }
        html.push_str("</table>\n");
    }

    // Per-series sparklines with run lineage.
    html.push_str("<h2>Series</h2>\n");
    for r in reports {
        let class = if r.regression().is_some() {
            "series regressed"
        } else {
            "series"
        };
        html.push_str(&format!(
            "<div class=\"{class}\"><h3>{}</h3>\n{}\n",
            html_escape(&r.key.label()),
            sparkline(r)
        ));
        html.push_str(
            "<table><tr><th>epoch</th><th class=\"name\">run</th><th>value</th><th>MAD z</th></tr>\n",
        );
        // Lineage: newest runs are what the reader navigates to — show
        // the tail, full history lives in the sparkline.
        let tail = r.points.len().saturating_sub(8);
        for (p, z) in r.points.iter().zip(&r.scores).skip(tail) {
            html.push_str(&format!(
                "<tr><td>{}</td><td class=\"name\"><a href=\"../obs/{run}.json\">{run}</a></td>\
                 <td>{:.1}</td><td>{:.2}</td></tr>\n",
                p.epoch,
                p.value,
                z,
                run = html_escape(&p.run),
            ));
        }
        html.push_str("</table></div>\n");
    }
    html.push_str("</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(run: &str, clock: u64, median: f64) -> HistoryEntry {
        HistoryEntry {
            id: 0,
            run: run.to_string(),
            git_sha: "abc".into(),
            config_hash: 0x50c1_207f_8068_9ff5,
            threads: 1,
            wall_clock_ms: clock,
            benches: vec![("engine_hot.fig10_mix".into(), median)],
            counters: vec![("relsim.trials".into(), 4000)],
        }
        .seal()
    }

    fn trend(medians: &[f64]) -> Vec<HistoryEntry> {
        medians
            .iter()
            .enumerate()
            .map(|(i, m)| entry(&format!("run{i}"), i as u64 + 1, *m))
            .collect()
    }

    #[test]
    fn clean_trend_passes_and_regression_is_named() {
        let clean = analyze(&trend(&[50.0; 8]), &BTreeMap::new());
        assert!(check(&clean).is_empty(), "{:?}", check(&clean));

        let mut medians = vec![50.0; 8];
        medians.extend([100.0; 3]);
        let bad = analyze(&trend(&medians), &BTreeMap::new());
        let verdict = check(&bad);
        assert_eq!(verdict.len(), 1, "{verdict:?}");
        assert!(verdict[0].contains("engine_hot.fig10_mix"), "{verdict:?}");
        assert!(verdict[0].contains("epoch 8"), "{verdict:?}");

        // A regression that was since fixed does not fail the check.
        medians.extend([50.0; 6]);
        let recovered = analyze(&trend(&medians), &BTreeMap::new());
        assert!(check(&recovered).is_empty(), "{:?}", check(&recovered));
    }

    #[test]
    fn counter_shifts_never_gate() {
        let mut entries = trend(&[50.0; 8]);
        for e in &mut entries {
            e.counters = vec![("relsim.trials".into(), 4000)];
        }
        // Counter doubles mid-series — visible, but not a CI failure.
        let n = entries.len();
        for e in entries.iter_mut().skip(n - 3) {
            e.counters = vec![("relsim.trials".into(), 8000)];
        }
        let entries: Vec<HistoryEntry> = entries.into_iter().map(HistoryEntry::seal).collect();
        let reports = analyze(&entries, &BTreeMap::new());
        let counter = reports
            .iter()
            .find(|r| r.key.kind == SeriesKind::Counter)
            .expect("counter series present");
        assert!(!counter.changepoints.is_empty(), "shift should be detected");
        assert!(check(&reports).is_empty(), "but must not gate CI");
    }

    #[test]
    fn baseline_matching_requires_config_and_threads() {
        let mut baselines = BTreeMap::new();
        baselines.insert(
            (
                "engine_hot.fig10_mix".to_string(),
                0x50c1_207f_8068_9ff5_u64,
                1_u64,
            ),
            60.0,
        );
        baselines.insert(("engine_hot.fig10_mix".to_string(), 999_u64, 1_u64), 10.0);
        let reports = analyze(&trend(&[50.0; 6]), &baselines);
        let bench = reports
            .iter()
            .find(|r| r.key.kind == SeriesKind::Bench)
            .expect("bench series");
        assert_eq!(bench.baseline, Some(60.0), "must match on config hash");
        // 6 consecutive runs at 50 sit >5% below baseline 60: rotation.
        assert_eq!(bench.proposal, Some(50.0));
    }

    #[test]
    fn html_is_deterministic_and_marks_changepoints() {
        let mut medians = vec![50.0; 8];
        medians.extend([100.0; 3]);
        let mut baselines = BTreeMap::new();
        baselines.insert(
            (
                "engine_hot.fig10_mix".to_string(),
                0x50c1_207f_8068_9ff5_u64,
                1_u64,
            ),
            55.0,
        );
        let reports = analyze(&trend(&medians), &baselines);
        let html = render_html(&reports);
        assert_eq!(html, render_html(&analyze(&trend(&medians), &baselines)));
        assert!(html.contains("cp-up"), "changepoint marker missing");
        assert!(html.contains("class=\"baseline\""), "baseline rule missing");
        assert!(html.contains("REGRESSION") || html.contains("Regressions"));
        assert!(html.contains("../obs/run10.json"), "lineage link missing");
        assert!(
            !html.to_lowercase().contains("<script"),
            "must be script-free"
        );
    }

    #[test]
    fn extend_series_injects_and_stays_valid() {
        let dir = std::env::temp_dir().join(format!("rf_report_extend_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("ledger.jsonl");
        let mut ledger = history::Ledger::load(&path).expect("empty");
        ledger.append(trend(&[50.0, 50.0])).expect("seed");

        let added = extend_series(&path, "engine_hot.fig10_mix", 2.0, 3).expect("extend");
        assert_eq!(added, 3);
        let ledger = history::Ledger::load(&path).expect("reload");
        assert_eq!(ledger.entries.len(), 5);
        history::check_invariants(&ledger).expect("synthetic entries keep invariants");
        let last = ledger.entries.last().expect("non-empty");
        assert_eq!(last.benches[0].1, 100.0);
        assert!(last.run.starts_with("run1-syn"), "{}", last.run);

        assert!(extend_series(&path, "no.such.series", 2.0, 1).is_err());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
