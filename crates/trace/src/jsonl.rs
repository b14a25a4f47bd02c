//! Hand-rolled JSON-Lines rendering of traces (the workspace has no JSON
//! serialisation dependency; `bscope-experiments`' `json.rs` reuses
//! [`escape`] for the report format).
//!
//! One event per line, each a complete JSON object. Addresses, targets and
//! seeds are rendered as `"0x..."` hex *strings*: a `u64` does not fit a
//! JSON number's `f64` mantissa, and hex is what you want to read when
//! cross-referencing PHT indices anyway. Everything a line contains is
//! deterministic — the `(trial, seq)` pair totally orders a run's trace
//! whatever thread count produced it.

use crate::event::{TraceEvent, TracedEvent};
use std::fmt::Write as _;

/// JSON string escaping: quotes, backslashes, control characters and DEL.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || c as u32 == 0x7f => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The common prefix of every line: type, experiment, trial.
fn head(kind: &str, experiment: &str, trial: usize) -> String {
    format!("{{\"type\":\"{kind}\",\"experiment\":\"{}\",\"trial\":{trial}", escape(experiment))
}

/// The line opening a trial's events: carries the trial's replay seed.
#[must_use]
pub fn trial_begin_line(experiment: &str, trial: usize, seed: u64) -> String {
    format!("{},\"seed\":\"{seed:#018x}\"}}\n", head("trial_begin", experiment, trial))
}

/// The line closing a trial: how many events the sink retained and how
/// many it evicted (a nonzero `dropped` says the ring wrapped — the
/// aggregate metrics still saw every event).
#[must_use]
pub fn trial_end_line(experiment: &str, trial: usize, events: usize, dropped: u64) -> String {
    format!(
        "{},\"events\":{events},\"dropped\":{dropped}}}\n",
        head("trial_end", experiment, trial)
    )
}

/// One event line.
#[must_use]
pub fn event_line(experiment: &str, trial: usize, e: &TracedEvent) -> String {
    let mut out = match e.event {
        TraceEvent::Branch { .. } => head("branch", experiment, trial),
        TraceEvent::BtbInstall { .. } => head("btb_install", experiment, trial),
        TraceEvent::NoiseBurst { .. } => head("noise_burst", experiment, trial),
        TraceEvent::SpanBegin { .. } => head("span_begin", experiment, trial),
        TraceEvent::SpanEnd { .. } => head("span_end", experiment, trial),
    };
    let _ = write!(out, ",\"seq\":{}", e.seq);
    match e.event {
        TraceEvent::Branch {
            ctx,
            addr,
            taken,
            predicted_taken,
            mispredicted,
            two_level,
            btb_hit,
            latency,
        } => {
            let _ = write!(
                out,
                ",\"ctx\":{ctx},\"addr\":\"{addr:#x}\",\"taken\":{taken},\
                 \"predicted_taken\":{predicted_taken},\"mispredicted\":{mispredicted},\
                 \"two_level\":{two_level},\"btb_hit\":{btb_hit}"
            );
            // Only a timed branch has a latency; the key is omitted otherwise.
            if let Some(latency) = latency {
                let _ = write!(out, ",\"latency\":{latency}");
            }
        }
        TraceEvent::BtbInstall { addr, target } => {
            let _ = write!(out, ",\"addr\":\"{addr:#x}\",\"target\":\"{target:#x}\"");
        }
        TraceEvent::NoiseBurst { injected } => {
            let _ = write!(out, ",\"injected\":{injected}");
        }
        TraceEvent::SpanBegin { span, tsc } | TraceEvent::SpanEnd { span, tsc } => {
            let _ = write!(out, ",\"span\":\"{}\",\"tsc\":{tsc}", span.name());
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Span;

    #[test]
    fn lines_are_single_complete_objects() {
        let lines = [
            trial_begin_line("table2", 3, 0x1234),
            event_line(
                "table2",
                3,
                &TracedEvent {
                    seq: 0,
                    event: TraceEvent::Branch {
                        ctx: 0,
                        addr: 0x30_0000,
                        taken: true,
                        predicted_taken: false,
                        mispredicted: true,
                        two_level: false,
                        btb_hit: false,
                        latency: Some(131),
                    },
                },
            ),
            event_line(
                "table2",
                3,
                &TracedEvent { seq: 1, event: TraceEvent::BtbInstall { addr: 5, target: 7 } },
            ),
            event_line(
                "table2",
                3,
                &TracedEvent { seq: 2, event: TraceEvent::NoiseBurst { injected: 4 } },
            ),
            event_line(
                "table2",
                3,
                &TracedEvent { seq: 3, event: TraceEvent::SpanBegin { span: Span::Prime, tsc: 9 } },
            ),
            trial_end_line("table2", 3, 4, 0),
        ];
        for line in &lines {
            assert!(line.starts_with("{\"type\":\""), "line: {line}");
            assert!(line.ends_with("}\n"), "line: {line}");
            assert_eq!(line.matches('\n').count(), 1, "one line per event: {line}");
            // Cheap well-formedness: balanced braces and an even quote count.
            assert_eq!(
                line.chars().filter(|&c| c == '{').count(),
                line.chars().filter(|&c| c == '}').count()
            );
            assert_eq!(line.chars().filter(|&c| c == '"').count() % 2, 0);
        }
        assert!(lines[0].contains("\"seed\":\"0x0000000000001234\""));
        assert!(lines[1].contains("\"addr\":\"0x300000\"") && lines[1].contains("\"latency\":131"));
        assert!(lines[4].contains("\"span\":\"prime\"") && lines[4].contains("\"tsc\":9"));
        assert!(lines[5].contains("\"events\":4") && lines[5].contains("\"dropped\":0"));
    }

    #[test]
    fn untimed_branches_omit_the_latency_key() {
        let event = TraceEvent::Branch {
            ctx: 1,
            addr: 0x40,
            taken: false,
            predicted_taken: false,
            mispredicted: false,
            two_level: false,
            btb_hit: false,
            latency: None,
        };
        let line = event_line("fig4", 0, &TracedEvent { seq: 0, event });
        assert!(line.ends_with("\"btb_hit\":false}\n"), "line: {line}");
        assert!(!line.contains("latency"), "line: {line}");
    }

    #[test]
    fn experiment_names_are_escaped() {
        let line = trial_begin_line("we\"ird\x7f", 0, 1);
        assert!(line.contains("we\\\"ird\\u007f"), "line: {line}");
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escaping_handles_del_and_non_bmp() {
        // DEL is a control character some strict parsers reject unescaped.
        assert_eq!(escape("a\u{7f}b"), "a\\u007fb");
        // Non-BMP characters pass through as raw UTF-8 (valid JSON) — they
        // must NOT be mangled into a lone \uXXXX, which would be an
        // unpaired surrogate.
        assert_eq!(escape("ok \u{1F600}"), "ok \u{1F600}");
        // The last pre-control and first post-DEL characters stay raw.
        assert_eq!(escape("\u{1f}\u{20}\u{7e}\u{80}"), "\\u001f\u{20}\u{7e}\u{80}");
    }
}
