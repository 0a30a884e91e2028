//! Rendering: human-readable (clickable `file:line`), `--json`, and the
//! `--baseline` waiver snapshot.
//!
//! JSON is hand-rolled (the crate is zero-dependency) in the same
//! canonical style as `pipette-obs`: keys in fixed order, strings
//! escaped per RFC 8259, arrays sorted the way the scan produced them —
//! so two runs over the same tree emit byte-identical reports, and the
//! CI artifact diffs cleanly across commits.

use crate::rules::RULES;
use crate::WorkspaceReport;

/// Escapes `s` into `out` as a JSON string body (no surrounding quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_kv_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    escape_into(out, key);
    out.push_str("\":\"");
    escape_into(out, value);
    out.push('"');
}

/// The human-readable report: one `file:line: [RULE] message` per active
/// violation, then a summary of waivers and per-rule counts.
pub fn render_human(report: &WorkspaceReport) -> String {
    let mut out = String::new();
    for d in report.violations() {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            d.file, d.line, d.rule, d.message
        ));
    }
    let violations = report.violations().count();
    let waivers = report.waivers().count();
    if violations > 0 {
        out.push('\n');
    }
    out.push_str(&format!(
        "pipette-lint: {} file(s) scanned, {} violation(s), {} waiver(s)\n",
        report.files.len(),
        violations,
        waivers
    ));
    let counts = report.per_rule_counts();
    for rule in RULES {
        if let Some((active, waived)) = counts.get(rule.name) {
            out.push_str(&format!(
                "  {}: {} active, {} waived — {}\n",
                rule.name,
                active,
                waived,
                rule.summary
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
    out
}

/// The `--json` machine report (`pipette-lint/v2` schema): v1 plus
/// `manifests_scanned`, a `call_graph` stats object, and a `per_rule`
/// map that lists *every* rule (zeros included) so CI can assert on a
/// rule's count without guarding against a missing key.
pub fn render_json(report: &WorkspaceReport) -> String {
    let mut out = String::from("{\"schema\":\"pipette-lint/v2\"");
    out.push_str(&format!(",\"files_scanned\":{}", report.files.len()));
    out.push_str(&format!(
        ",\"manifests_scanned\":{}",
        report.manifests.len()
    ));
    let g = &report.graph;
    out.push_str(&format!(
        ",\"call_graph\":{{\"functions\":{},\"public_fns\":{},\"impl_blocks\":{},\
         \"modules\":{},\"call_sites\":{},\"resolved_edges\":{}}}",
        g.functions, g.public_fns, g.impl_blocks, g.modules, g.call_sites, g.resolved_edges
    ));
    let counts = report.per_rule_counts();
    out.push_str(",\"summary\":{");
    out.push_str(&format!(
        "\"violations\":{},\"waivers\":{},\"per_rule\":{{",
        report.violations().count(),
        report.waivers().count()
    ));
    let mut first = true;
    for rule in RULES {
        let (active, waived) = counts.get(rule.name).copied().unwrap_or((0, 0));
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"active\":{active},\"waived\":{waived}}}",
            rule.name
        ));
    }
    out.push_str("}},\"violations\":[");
    let mut first = true;
    for d in report.violations() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('{');
        push_kv_str(&mut out, "file", &d.file);
        out.push_str(&format!(",\"line\":{},", d.line));
        push_kv_str(&mut out, "rule", d.rule);
        out.push(',');
        push_kv_str(&mut out, "message", &d.message);
        out.push('}');
    }
    out.push_str("],\"waivers\":");
    render_waivers_into(&mut out, report);
    out.push('}');
    out.push('\n');
    out
}

/// The `--baseline` snapshot: only the waivers, so a reviewer (or a later
/// run) can diff exactly which escape hatches exist and why.
pub fn render_baseline(report: &WorkspaceReport) -> String {
    let mut out = String::from("{\"schema\":\"pipette-lint-baseline/v1\",\"waivers\":");
    render_waivers_into(&mut out, report);
    out.push('}');
    out.push('\n');
    out
}

fn render_waivers_into(out: &mut String, report: &WorkspaceReport) {
    out.push('[');
    let mut first = true;
    for d in report.waivers() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('{');
        push_kv_str(out, "file", &d.file);
        out.push_str(&format!(",\"line\":{},", d.line));
        push_kv_str(out, "rule", d.rule);
        out.push(',');
        push_kv_str(
            out,
            "justification",
            d.justification.as_deref().unwrap_or(""),
        );
        out.push('}');
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    fn sample() -> WorkspaceReport {
        WorkspaceReport {
            files: vec!["crates/x/src/a.rs".into()],
            manifests: vec!["crates/x/Cargo.toml".into()],
            graph: crate::GraphStats {
                functions: 4,
                public_fns: 2,
                impl_blocks: 1,
                modules: 1,
                call_sites: 6,
                resolved_edges: 3,
            },
            diagnostics: vec![
                Diagnostic {
                    file: "crates/x/src/a.rs".into(),
                    line: 3,
                    rule: "D2",
                    message: "`.unwrap()` in library code; return a typed error instead".into(),
                    waived: false,
                    justification: None,
                },
                Diagnostic {
                    file: "crates/x/src/a.rs".into(),
                    line: 9,
                    rule: "D1",
                    message: "`SystemTime` reads the wall clock".into(),
                    waived: true,
                    justification: Some("opt-in \"wall_ms\" extras".into()),
                },
            ],
        }
    }

    #[test]
    fn human_report_has_clickable_locations_and_summary() {
        let text = render_human(&sample());
        assert!(text.contains("crates/x/src/a.rs:3: [D2]"));
        assert!(text.contains("1 violation(s), 1 waiver(s)"));
        assert!(text.contains("D1: 0 active, 1 waived"));
    }

    #[test]
    fn json_report_is_valid_and_escapes_strings() {
        let json = render_json(&sample());
        assert!(json.contains("\"schema\":\"pipette-lint/v2\""));
        assert!(json.contains("\"files_scanned\":1"));
        assert!(json.contains("\"manifests_scanned\":1"));
        assert!(json.contains("\"call_graph\":{\"functions\":4,\"public_fns\":2"));
        assert!(json.contains("\"resolved_edges\":3"));
        assert!(json.contains("opt-in \\\"wall_ms\\\" extras"));
        // Every rule appears, zeros included, in RULES order.
        assert!(json.contains("\"D1\":{\"active\":0,\"waived\":1}"));
        assert!(json.contains("\"D2\":{\"active\":1,\"waived\":0}"));
        assert!(json.contains("\"D10\":{\"active\":0,\"waived\":0}"));
        assert!(json.contains("\"P1\":{\"active\":0,\"waived\":0}"));
        // Balanced braces: a cheap sanity check that the hand-rolled
        // writer stays well-formed.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn baseline_lists_only_waivers() {
        let json = render_baseline(&sample());
        assert!(json.contains("pipette-lint-baseline/v1"));
        assert!(json.contains("\"line\":9"));
        assert!(!json.contains("\"line\":3"));
    }

    #[test]
    fn empty_report_renders_cleanly() {
        let report = WorkspaceReport::default();
        assert!(render_human(&report).contains("0 violation(s)"));
        assert!(render_json(&report).contains("\"violations\":[]"));
    }
}
