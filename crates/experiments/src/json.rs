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

/// Parses a metrics file in the golden format, `{name: {metric: number}}`
/// (`crates/experiments/golden/quick_metrics.json`).
///
/// # Errors
///
/// Describes the first syntax error and its byte offset.
pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let mut p = Parser { s: text, i: 0 };
    let golden = p.object(|p| p.object(Parser::value))?;
    p.ws();
    if p.i != p.s.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(golden)
}

/// A small JSON reader for the one shape [`parse_golden`] accepts.
struct Parser<'a> {
    s: &'a str,
    /// Byte offset of the next unread character.
    i: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn ws(&mut self) {
        let rest = &self.s[self.i..];
        self.i += rest.len() - rest.trim_start().len();
    }

    fn eat(&mut self, c: char) -> bool {
        self.ws();
        let hit = self.s[self.i..].starts_with(c);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{c}'")))
        }
    }

    /// `{"key": item, ...}` with keys in any order.
    fn object<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<BTreeMap<String, T>, String> {
        self.expect('{')?;
        let mut out = BTreeMap::new();
        if self.eat('}') {
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.expect(':')?;
            out.insert(key, item(self)?);
            if self.eat('}') {
                return Ok(out);
            }
            self.expect(',')?;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            let mut chars = self.s[self.i..].chars();
            let c = chars.next().ok_or_else(|| self.error("unterminated string"))?;
            self.i += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or_else(|| self.error("unterminated escape"))?;
                    self.i += e.len_utf8();
                    out.push(match e {
                        '"' | '\\' | '/' => e,
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        'b' => '\u{8}',
                        'f' => '\u{c}',
                        'u' => {
                            let hex = self.s.get(self.i..self.i + 4).unwrap_or_default();
                            let code = u32::from_str_radix(hex, 16).ok().and_then(char::from_u32);
                            let c = code.ok_or_else(|| self.error("bad \\u escape"))?;
                            self.i += 4;
                            c
                        }
                        _ => return Err(self.error("unknown escape")),
                    });
                }
                c => out.push(c),
            }
        }
    }

    /// A number, or `null` as `None`.
    fn value(&mut self) -> Result<Option<f64>, String> {
        self.ws();
        let rest = &self.s[self.i..];
        if rest.starts_with("null") {
            self.i += 4;
            return Ok(None);
        }
        let len =
            rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(rest.len());
        let v = rest[..len].parse().map_err(|_| self.error("expected a number or null"))?;
        self.i += len;
        Ok(Some(v))
    }
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

    #[test]
    fn golden_files_parse_and_check_exactly() {
        let text = "{\n  \"fig2\": {},\n  \"fig4\": {\n    \
                    \"fig4/stable_fraction\": 0.7333333333333333\n  },\n  \
                    \"t\\u00e9\": {\"a/b c\": -1.5e-3, \"n\": null}\n}\n";
        let golden = parse_golden(text).unwrap();
        assert_eq!(golden["fig2"].len(), 0);
        assert_eq!(golden["fig4"]["fig4/stable_fraction"], Some(0.733_333_333_333_333_3));
        assert_eq!(golden["t\u{e9}"]["a/b c"], Some(-1.5e-3));
        assert_eq!(golden["t\u{e9}"]["n"], None);
        for bad in ["", "{", "{\"a\": 1}", "{\"a\": {\"b\": x}}", "{\"a\": {}} {}"] {
            assert!(parse_golden(bad).is_err(), "accepted {bad:?}");
        }

        let registry = ["fig2", "fig4", "fig9", "t\u{e9}"];
        let mut r = Report::new(&Scale::quick());
        r.record("fig2", "hybrid", 0.1, 0, vec![], None);
        let pinned = vec![("fig4/stable_fraction".into(), 0.733_333_333_333_333_3)];
        r.record("fig4", "hybrid", 0.1, 0, pinned, None);
        assert!(r.check(&golden, &registry).is_empty());
        // An entry for an experiment that no longer exists is a difference,
        // whether or not the run selected everything.
        assert_eq!(
            r.check(&golden, &registry[..3]),
            ["t\u{e9}: expected, but no experiment has this name"]
        );

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
        let metrics = vec![("table2/a \"q\"".into(), 0.1 + 0.2), ("nan".into(), f64::NAN)];
        r.record("table2", "hybrid", 0.1, 0, metrics, None);
        // The report's own JSON, reshaped to the golden format.
        let golden = "{\"table2\": {\"table2/a \\\"q\\\"\": 0.30000000000000004, \"nan\": null}}";
        assert!(r.check(&parse_golden(golden).unwrap(), &["table2"]).is_empty());
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
