//! Hand-rolled JSON report for `--json` (the workspace has no JSON
//! serialisation dependency, and the format here is flat enough to emit
//! by hand; strings go through `bscope_trace::jsonl::escape`).
//!
//! Failed experiments still get an entry (`"status": "failed"` plus the
//! panic or error message and whatever metrics were recorded before the
//! failure), so a partial report stays well-formed and machine-readable.

use crate::common::Scale;
use bscope_harness::resolve_threads;
use bscope_trace::jsonl::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Expected metrics for `--check`: experiment name → metric name → value,
/// with `None` for a JSON `null` (a non-finite metric).
pub type Golden = BTreeMap<String, BTreeMap<String, Option<f64>>>;

/// Per-run report: configuration, per-experiment wall-clock and headline
/// metrics, written as a single JSON object.
pub struct Report {
    quick: bool,
    seed: u64,
    /// Worker threads the run actually used (`--threads 0` resolved).
    threads: usize,
    /// Cores available on the host.
    cores: usize,
    experiments: Vec<Entry>,
}

struct Entry {
    name: String,
    /// The predictor backend the experiment actually ran on — `--bpu` for
    /// table2 and capacity, `"all"` for backend_sweep, `"hybrid"` for the
    /// rest.
    backend: String,
    wall_seconds: f64,
    /// Simulated branches (foreground plus noise) the experiment's cores
    /// executed.
    sim_branches: u64,
    metrics: Vec<(String, f64)>,
    /// `Some(message)` when the experiment failed (typed error or panic).
    error: Option<String>,
}

/// JSON number: finite floats as-is, non-finite as null (JSON has no NaN).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

impl Report {
    pub fn new(scale: &Scale) -> Self {
        Report {
            quick: scale.quick,
            seed: scale.seed,
            threads: resolve_threads(scale.threads),
            cores: resolve_threads(0),
            experiments: Vec::new(),
        }
    }

    /// Records one experiment: `backend` names the predictor substrate it
    /// ran on and `sim_branches` counts the simulated branches it executed;
    /// `error` is `None` on success, or the failure message of a
    /// panicked/errored experiment. Metrics recorded before the failure
    /// are kept — they belong to this entry, not the next experiment's.
    pub fn record(
        &mut self,
        name: &str,
        backend: &str,
        wall_seconds: f64,
        sim_branches: u64,
        metrics: Vec<(String, f64)>,
        error: Option<String>,
    ) {
        self.experiments.push(Entry {
            name: name.to_owned(),
            backend: backend.to_owned(),
            wall_seconds,
            sim_branches,
            metrics,
            error,
        });
    }

    /// Whether any recorded experiment failed.
    pub fn has_failures(&self) -> bool {
        self.experiments.iter().any(|e| e.error.is_some())
    }

    /// Compares the metrics of every recorded experiment with `expected`'s
    /// entry for it and describes each difference: a metric that differs,
    /// is missing or is unexpected, an experiment `expected` has no entry
    /// for, and an entry of `expected` that names none of the `registry`
    /// experiments (so a renamed or dropped experiment cannot leave its
    /// pinned metrics silently unchecked). Empty when everything matches
    /// exactly.
    pub fn check(&self, expected: &Golden, registry: &[&str]) -> Vec<String> {
        let mut diffs = Vec::new();
        for name in expected.keys() {
            if !registry.contains(&name.as_str()) {
                diffs.push(format!("{name}: expected, but no experiment has this name"));
            }
        }
        for e in &self.experiments {
            let Some(want) = expected.get(&e.name) else {
                diffs.push(format!("{}: no entry in the expected metrics", e.name));
                continue;
            };
            let got: BTreeMap<&str, Option<f64>> =
                e.metrics.iter().map(|(k, v)| (k.as_str(), v.is_finite().then_some(*v))).collect();
            for (k, w) in want {
                match got.get(k.as_str()) {
                    Some(g) if g == w => {}
                    Some(g) => {
                        diffs.push(format!("{}: {k}: got {}, want {}", e.name, show(*g), show(*w)));
                    }
                    None => diffs.push(format!("{}: {k}: missing, want {}", e.name, show(*w))),
                }
            }
            for (k, g) in &got {
                if !want.contains_key(*k) {
                    diffs.push(format!("{}: {k}: got {}, not expected", e.name, show(*g)));
                }
            }
        }
        diffs
    }

    /// Serialises the report.
    fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let total: f64 = self.experiments.iter().map(|e| e.wall_seconds).sum();
        let _ = writeln!(out, "  \"total_wall_seconds\": {},", number(total));
        let failed: Vec<&Entry> = self.experiments.iter().filter(|e| e.error.is_some()).collect();
        out.push_str("  \"failed\": [");
        for (i, e) in failed.iter().enumerate() {
            let _ = write!(out, "{}\"{}\"", if i == 0 { "" } else { ", " }, escape(&e.name));
        }
        out.push_str("],\n");
        out.push_str("  \"experiments\": [");
        for (i, e) in self.experiments.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", escape(&e.name));
            let _ = writeln!(out, "      \"backend\": \"{}\",", escape(&e.backend));
            let _ = writeln!(
                out,
                "      \"status\": \"{}\",",
                if e.error.is_some() { "failed" } else { "ok" }
            );
            if let Some(err) = &e.error {
                let _ = writeln!(out, "      \"error\": \"{}\",", escape(err));
            }
            let _ = writeln!(out, "      \"wall_seconds\": {},", number(e.wall_seconds));
            // Outside "metrics": wall-clock derived, so never pinned.
            let _ = writeln!(out, "      \"sim_branches\": {},", e.sim_branches);
            let _ = writeln!(
                out,
                "      \"ns_per_sim_branch\": {},",
                number(e.wall_seconds * 1e9 / e.sim_branches as f64)
            );
            out.push_str("      \"metrics\": {");
            for (j, (k, v)) in e.metrics.iter().enumerate() {
                out.push_str(if j == 0 { "\n" } else { ",\n" });
                let _ = write!(out, "        \"{}\": {}", escape(k), number(*v));
            }
            out.push_str(if e.metrics.is_empty() { "}\n" } else { "\n      }\n" });
            out.push_str("    }");
        }
        out.push_str(if self.experiments.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }

    /// Writes the report to `path` atomically (see [`write_atomic`]): a
    /// consumer watching the path never observes a truncated report, and a
    /// crash mid-write leaves any previous report intact.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        write_atomic(path, &self.to_json())
    }
}

/// A metric value as the report prints it.
fn show(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), number)
}

/// Reads a metrics file in the layout the re-pin recipe writes,
/// `json.dumps(pins, indent=2) + "\n"` (`golden/quick_metrics.json`): a
/// `{` line; per experiment a `"name": {` line, one `"metric": number` or
/// `"metric": null` line per metric and a `}` line (or one `"name": {}`
/// line); then `}`. Keys hold no `"` or `\`.
///
/// # Errors
///
/// Names the line of the first departure from that layout (a repeated
/// experiment or metric key among them), or the line past the end of a
/// file that ends before its closing brace.
pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let mut lines = text.lines().zip(1..);
    if lines.next().map(|(line, _)| line) != Some("{") {
        return Err("line 1: expected `{`".to_owned());
    }
    let mut golden = Golden::new();
    // The experiment whose metrics are being read, and whether an entry
    // must come next (after an opening brace or a comma).
    let (mut open, mut more): (Option<String>, bool) = (None, true);
    for (line, n) in lines.by_ref() {
        let at = |what: &str| format!("line {n}: {what}");
        let (entry, comma) = line.strip_suffix(',').map_or((line, false), |e| (e, true));
        let (indent, close) = if open.is_some() { ("    ", "  }") } else { ("  ", "}") };
        if entry == close && !more && (open.is_some() || !comma) {
            if open.take().is_none() {
                return match lines.next() {
                    Some((_, n)) => Err(format!("line {n}: text after the closing brace")),
                    None => Ok(golden),
                };
            }
            more = comma;
            continue;
        }
        let quoted = entry.strip_prefix(indent).and_then(|e| e.strip_prefix('"'));
        let pair = quoted.and_then(|e| e.split_once("\": "));
        let Some((key, value)) = pair.filter(|(key, _)| more && !key.contains(['"', '\\'])) else {
            return Err(at(&format!("expected `{indent}\"key\": value` or `{close}`")));
        };
        let repeated = match &open {
            None if (value == "{" && !comma) || value == "{}" => {
                open = (value == "{").then(|| key.to_owned());
                golden.insert(key.to_owned(), BTreeMap::new()).is_some()
            }
            None => return Err(at("expected `{` or `{}` after the experiment name")),
            Some(name) => {
                let number = value.parse().ok().filter(|v: &f64| v.is_finite());
                let metric = match value {
                    "null" => None,
                    _ => Some(number.ok_or_else(|| at("bad number"))?),
                };
                let metrics = golden.get_mut(name).expect("open experiment");
                metrics.insert(key.to_owned(), metric).is_some()
            }
        };
        if repeated {
            return Err(at(&format!("repeated key \"{key}\"")));
        }
        more = comma || value == "{";
    }
    Err(format!("line {}: the file ends before its closing brace", text.lines().count() + 1))
}

/// Atomic file write: stream into a hidden temp file *in the destination's
/// directory* (rename is only atomic within a filesystem), fsync, then
/// rename over `path`. On any error the temp file is cleaned up and the
/// destination is left exactly as it was.
pub fn write_atomic(path: &str, contents: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let dest = std::path::Path::new(path);
    let dir = match dest.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    let name = dest
        .file_name()
        .map_or_else(|| "out".to_owned(), |n| n.to_string_lossy().into_owned());
    let tmp = dir.join(format!(".{name}.tmp-{}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, dest)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_balanced(s: &str) {
        // Brace/bracket balance as a cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                s.chars().filter(|&c| c == open).count(),
                s.chars().filter(|&c| c == close).count()
            );
        }
    }

    /// `lines`, one per line, as `json.dumps(.., indent=2) + "\n"` ends them.
    fn layout(lines: &[&str]) -> String {
        lines.join("\n") + "\n"
    }

    #[test]
    fn golden_files_parse_and_check_exactly() {
        let text = layout(&[
            "{",
            "  \"fig2\": {},",
            "  \"fig4\": {",
            "    \"fig4/stable_fraction\": 0.7333333333333333",
            "  },",
            "  \"t\": {",
            "    \"a/b c\": -0.0015,",
            "    \"n\": null",
            "  }",
            "}",
        ]);
        let golden = parse_golden(&text).unwrap();
        assert_eq!(golden["fig2"].len(), 0);
        assert_eq!(golden["fig4"]["fig4/stable_fraction"], Some(0.733_333_333_333_333_3));
        assert_eq!(golden["t"]["a/b c"], Some(-1.5e-3));
        assert_eq!(golden["t"]["n"], None);
        // Every departure from the layout is named by its line; a repeated
        // key would replace the first pin unchecked.
        let metrics = |lines: &[&'static str]| [&["{", "  \"a\": {"], lines, &["  }", "}"]].concat();
        for (lines, error) in [
            (vec!["{\"a\": {\"x\": 1}}"], "line 1: expected `{`"),
            (vec!["{", "  \"a\": {},", "  \"a\": {}", "}"], "line 3: repeated key \"a\""),
            (metrics(&["    \"x\": 1,", "    \"x\": 2"]), "line 4: repeated key \"x\""),
            (metrics(&["    \"x\": 1.2.3"]), "line 3: bad number"),
            (vec!["{", "  \"a\": {}", "}", "{}"], "line 4: text after the closing brace"),
            (vec!["{", "  \"a\": {}"], "line 3: the file ends before its closing brace"),
        ] {
            assert_eq!(parse_golden(&layout(&lines)).unwrap_err(), error, "{lines:?}");
        }
        for key in ["    \"t\\u00e9\": 1", "    \"a\\\"b\": 1"] {
            let err = parse_golden(&layout(&metrics(&[key]))).unwrap_err();
            assert!(err.starts_with("line 3: expected"), "{key}: {err}");
        }

        let registry = ["fig2", "fig4", "fig9", "t"];
        let mut r = Report::new(&Scale::quick());
        r.record("fig2", "hybrid", 0.1, 0, vec![], None);
        let pinned = vec![("fig4/stable_fraction".into(), 0.733_333_333_333_333_3)];
        r.record("fig4", "hybrid", 0.1, 0, pinned, None);
        assert!(r.check(&golden, &registry).is_empty());
        // An entry for an experiment that no longer exists is a difference,
        // whether or not the run selected everything.
        assert_eq!(r.check(&golden, &registry[..3]), ["t: expected, but no experiment has this name"]);

        let mut off = Report::new(&Scale::quick());
        let drifted = vec![("fig4/stable_fraction".into(), 0.7), ("x".into(), 1.0)];
        off.record("fig4", "hybrid", 0.1, 0, drifted, None);
        off.record("fig9", "hybrid", 0.1, 0, vec![], None);
        assert_eq!(
            off.check(&golden, &registry),
            [
                "fig4: fig4/stable_fraction: got 0.7, want 0.7333333333333333",
                "fig4: x: got 1, not expected",
                "fig9: no entry in the expected metrics",
            ]
        );
        let mut short = Report::new(&Scale::quick());
        short.record("fig4", "hybrid", 0.1, 0, vec![], None);
        assert_eq!(
            short.check(&golden, &registry),
            ["fig4: fig4/stable_fraction: missing, want 0.7333333333333333"]
        );
    }

    #[test]
    fn a_report_checks_clean_against_itself() {
        let mut r = Report::new(&Scale::quick());
        let metrics = vec![("table2/a q".into(), 0.1 + 0.2), ("nan".into(), f64::NAN)];
        r.record("table2", "hybrid", 0.1, 0, metrics, None);
        // The report's own metrics, written as the re-pin recipe writes them.
        let golden = layout(&[
            "{",
            "  \"table2\": {",
            "    \"table2/a q\": 0.30000000000000004,",
            "    \"nan\": null",
            "  }",
            "}",
        ]);
        assert!(r.check(&parse_golden(&golden).unwrap(), &["table2"]).is_empty());
    }

    #[test]
    fn numbers_stay_valid_json_at_the_extremes() {
        // Subnormals and huge values render in exponent notation, which is
        // valid JSON; non-finite values must become null.
        for v in [5e-324, f64::MIN_POSITIVE / 2.0, 1e308, -1e-308, 0.0, -0.0] {
            let n = number(v);
            let round: f64 = n.parse().expect("number() output parses back");
            assert_eq!(round, v, "{n}");
        }
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_droppings() {
        let dir = std::env::temp_dir().join(format!("bscope-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let path_s = path.to_str().unwrap();
        write_atomic(path_s, "first\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first\n");
        write_atomic(path_s, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != "report.json")
            .collect();
        assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_shape_is_valid_json_by_construction() {
        let mut scale = Scale::quick();
        scale.threads = 4;
        let mut r = Report::new(&scale);
        r.record(
            "fig4",
            "hybrid",
            1.25,
            2_500_000_000,
            vec![("fig4/stable_fraction".into(), 0.83)],
            None,
        );
        r.record("empty", "tage", 0.5, 0, vec![], None);
        let s = r.to_json();
        assert!(s.contains("\"threads\": 4"));
        assert!(s.contains("\"fig4/stable_fraction\": 0.83"));
        assert!(s.contains("\"wall_seconds\": 1.25"));
        assert!(s.contains("\"sim_branches\": 2500000000"));
        assert!(s.contains("\"ns_per_sim_branch\": 0.5,"));
        assert!(s.contains("\"ns_per_sim_branch\": null,"), "no branches, no rate: {s}");
        assert!(s.contains("\"status\": \"ok\""));
        assert!(s.contains("\"backend\": \"hybrid\""));
        assert!(s.contains("\"backend\": \"tage\""));
        assert!(s.contains("\"failed\": []"));
        assert!(!r.has_failures());
        assert_balanced(&s);
        assert!(!s.contains("NaN"));
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn report_records_resolved_threads_and_cores() {
        let mut scale = Scale::quick();
        scale.threads = 0;
        let s = Report::new(&scale).to_json();
        let cores = resolve_threads(0);
        assert!(s.contains(&format!("\"threads\": {cores},")), "threads 0 is resolved: {s}");
        assert!(s.contains(&format!("\"cores\": {cores},")), "{s}");
    }

    #[test]
    fn failed_experiments_keep_partial_metrics_and_are_listed() {
        let mut r = Report::new(&Scale::quick());
        r.record("table1", "hybrid", 0.1, 0, vec![("table1/rows".into(), 8.0)], None);
        r.record(
            "table2",
            "perceptron",
            0.2,
            0,
            vec![("table2/partial".into(), 1.0)],
            Some("trial 3 (seed 0x0000000000000001) panicked: injected fault\n\"quoted\"".into()),
        );
        assert!(r.has_failures());
        let s = r.to_json();
        assert!(s.contains("\"failed\": [\"table2\"]"));
        assert!(s.contains("\"status\": \"failed\""));
        assert!(s.contains("injected fault\\n\\\"quoted\\\""), "error message is escaped: {s}");
        // The failing experiment's pre-panic metrics stay on its own entry.
        assert!(s.contains("\"table2/partial\": 1"));
        assert_balanced(&s);
    }
}
