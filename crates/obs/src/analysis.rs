//! Trace analytics: parse canonical JSONL back into structure.
//!
//! Everything here is offline and deterministic — same input text, same
//! output — so analyses are themselves regression-testable. Lines and
//! manifests are read with the strict [`crate::json`] parser. The module
//! provides:
//!
//! - [`ParsedTrace`]: a JSONL trace re-read as typed lines, lowered to
//!   a [`SpanTree`] for rollups and hot-span ranking,
//! - [`diff_jsonl`]: structural two-trace comparison (per-span and
//!   per-kind deltas plus the first divergent stripped line),
//! - [`BudgetManifest`]: the committed `trace_budgets.json` format and
//!   its evaluation against a trace ([`BudgetReport`]), and
//! - deterministic plain-text renderers for the `pipette trace`
//!   subcommands.

use crate::event::EventTag;
use crate::json::{self, JsonError, JsonValue};
use crate::span::{SpanError, SpanTree, TraceLine};
use std::fmt;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Parsed traces
// ---------------------------------------------------------------------------

/// Why an analysis failed.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// A line failed to parse as JSON.
    Json {
        /// Zero-based line index.
        line: usize,
        /// The parse error.
        error: JsonError,
    },
    /// A line parsed but is not a JSON object.
    NotAnObject {
        /// Zero-based line index.
        line: usize,
    },
    /// A line is missing (or has the wrong type for) a required field.
    Field {
        /// Zero-based line index.
        line: usize,
        /// The field name.
        field: &'static str,
    },
    /// Span reconstruction failed.
    Span(SpanError),
    /// The budget manifest is malformed.
    Manifest(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Json { line, error } => write!(f, "line {line}: {error}"),
            AnalysisError::NotAnObject { line } => write!(f, "line {line}: not a JSON object"),
            AnalysisError::Field { line, field } => {
                write!(f, "line {line}: missing or mistyped field '{field}'")
            }
            AnalysisError::Span(e) => write!(f, "span reconstruction: {e}"),
            AnalysisError::Manifest(msg) => write!(f, "budget manifest: {msg}"),
        }
    }
}

impl From<SpanError> for AnalysisError {
    fn from(e: SpanError) -> Self {
        AnalysisError::Span(e)
    }
}

impl std::error::Error for AnalysisError {}

/// One JSONL trace line, re-read.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Zero-based line index in the input.
    pub line: usize,
    /// The `kind` tag.
    pub kind: String,
    /// The `wall_ms` annotation, when present.
    pub wall_ms: Option<f64>,
    value: JsonValue,
}

impl ParsedEvent {
    /// Looks up any field of the line.
    pub fn field(&self, name: &str) -> Option<&JsonValue> {
        self.value.get(name)
    }

    fn str_field(&self, name: &'static str) -> Result<&str, AnalysisError> {
        self.field(name)
            .and_then(JsonValue::as_str)
            .ok_or(AnalysisError::Field {
                line: self.line,
                field: name,
            })
    }

    fn u64_field(&self, name: &'static str) -> Result<u64, AnalysisError> {
        self.field(name)
            .and_then(JsonValue::as_u64)
            .ok_or(AnalysisError::Field {
                line: self.line,
                field: name,
            })
    }
}

/// A JSONL trace parsed back into typed lines.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    events: Vec<ParsedEvent>,
}

impl ParsedTrace {
    /// Parses one event per non-empty line. Every line must be a JSON
    /// object with a string `kind`.
    pub fn from_jsonl(text: &str) -> Result<Self, AnalysisError> {
        let mut events = Vec::new();
        for (line, raw) in text.lines().enumerate() {
            if raw.trim().is_empty() {
                continue;
            }
            let value = json::parse(raw).map_err(|error| AnalysisError::Json { line, error })?;
            if !matches!(value, JsonValue::Object(_)) {
                return Err(AnalysisError::NotAnObject { line });
            }
            let kind = value
                .get("kind")
                .and_then(JsonValue::as_str)
                .ok_or(AnalysisError::Field {
                    line,
                    field: "kind",
                })?
                .to_string();
            let wall_ms = value.get("wall_ms").and_then(JsonValue::as_f64);
            events.push(ParsedEvent {
                line,
                kind,
                wall_ms,
                value,
            });
        }
        Ok(Self { events })
    }

    /// The parsed lines, in input order.
    pub fn events(&self) -> &[ParsedEvent] {
        &self.events
    }

    /// How many lines carry the given `kind` tag.
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Reconstructs the span tree from the parsed lines.
    pub fn span_tree(&self) -> Result<SpanTree, AnalysisError> {
        let mut lines = Vec::with_capacity(self.events.len());
        for event in &self.events {
            lines.push(match event.kind.as_str() {
                k if k == EventTag::SpanOpen.name() => TraceLine::Open {
                    name: event.str_field("name")?,
                    wall_ms: event.wall_ms,
                },
                k if k == EventTag::SpanClose.name() => TraceLine::Close {
                    name: event.str_field("name")?,
                    unit: event.str_field("unit")?,
                    cost: event.u64_field("cost")?,
                    wall_ms: event.wall_ms,
                },
                other => TraceLine::Other { kind: other },
            });
        }
        Ok(SpanTree::build(lines.into_iter())?)
    }
}

/// Parses JSONL straight to a [`SpanTree`].
pub fn span_tree_from_jsonl(text: &str) -> Result<SpanTree, AnalysisError> {
    ParsedTrace::from_jsonl(text)?.span_tree()
}

// ---------------------------------------------------------------------------
// Stripping and divergence (shared test-support API)
// ---------------------------------------------------------------------------

/// Removes the trailing `"wall_ms"` annotation from every line, yielding
/// the bit-comparable form (the canonical writer always emits `wall_ms`
/// last, so this is a suffix operation).
pub fn strip_wall_ms(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        match line.rfind(",\"wall_ms\":") {
            Some(idx) if line.ends_with('}') => {
                out.push_str(&line[..idx]);
                out.push('}');
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Where two JSONL streams first differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlDivergence {
    /// Zero-based line index of the first difference.
    pub line: usize,
    /// The left stream's line, or `None` if it ended first.
    pub left: Option<String>,
    /// The right stream's line, or `None` if it ended first.
    pub right: Option<String>,
}

impl fmt::Display for JsonlDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "first divergence at line {}:", self.line)?;
        writeln!(
            f,
            "  left:  {}",
            self.left.as_deref().unwrap_or("<end of stream>")
        )?;
        write!(
            f,
            "  right: {}",
            self.right.as_deref().unwrap_or("<end of stream>")
        )
    }
}

/// Compares two JSONL streams line by line and reports the first
/// difference, or `None` if they are identical. The shared helper behind
/// every thread-invariance test: on failure it names the exact line,
/// which a bare string inequality cannot.
pub fn first_divergence(left: &str, right: &str) -> Option<JsonlDivergence> {
    let mut l = left.lines();
    let mut r = right.lines();
    let mut line = 0usize;
    loop {
        match (l.next(), r.next()) {
            (None, None) => return None,
            (a, b) => {
                if a != b {
                    return Some(JsonlDivergence {
                        line,
                        left: a.map(str::to_string),
                        right: b.map(str::to_string),
                    });
                }
            }
        }
        line += 1;
    }
}

// ---------------------------------------------------------------------------
// Two-trace diff
// ---------------------------------------------------------------------------

/// Per-span-name delta between two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDelta {
    /// Span name.
    pub name: String,
    /// Cost unit (left's, or right's if absent on the left).
    pub unit: String,
    /// Instance counts (left, right).
    pub count: (u64, u64),
    /// Summed logical costs (left, right).
    pub cost: (u64, u64),
    /// Summed enclosed events (left, right).
    pub total_events: (u64, u64),
}

impl SpanDelta {
    /// Whether the two sides disagree.
    pub fn changed(&self) -> bool {
        self.count.0 != self.count.1
            || self.cost.0 != self.cost.1
            || self.total_events.0 != self.total_events.1
    }
}

/// Per-event-kind count delta between two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KindDelta {
    /// The `kind` tag.
    pub kind: String,
    /// Counts (left, right).
    pub count: (u64, u64),
}

/// Structural comparison of two traces.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Total line counts (left, right).
    pub total_lines: (u64, u64),
    /// Per-span deltas, sorted by name (union of both sides).
    pub spans: Vec<SpanDelta>,
    /// Per-kind deltas, sorted by kind (union of both sides).
    pub kinds: Vec<KindDelta>,
    /// First differing stripped line, if any.
    pub first_divergence: Option<JsonlDivergence>,
}

impl TraceDiff {
    /// Whether the traces differ at all (wall-clock annotations
    /// excluded).
    pub fn has_drift(&self) -> bool {
        self.first_divergence.is_some()
    }
}

/// Diffs two JSONL traces: stripped byte comparison first, then per-span
/// and per-kind structural deltas.
pub fn diff_jsonl(left: &str, right: &str) -> Result<TraceDiff, AnalysisError> {
    let stripped_left = strip_wall_ms(left);
    let stripped_right = strip_wall_ms(right);
    let first = first_divergence(&stripped_left, &stripped_right);
    let tree_left = span_tree_from_jsonl(left)?;
    let tree_right = span_tree_from_jsonl(right)?;

    let left_rollups = tree_left.rollups();
    let right_rollups = tree_right.rollups();
    let mut names: Vec<&str> = left_rollups
        .iter()
        .chain(right_rollups.iter())
        .map(|r| r.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let spans = names
        .iter()
        .map(|&name| {
            let l = left_rollups.iter().find(|r| r.name == name);
            let r = right_rollups.iter().find(|r| r.name == name);
            SpanDelta {
                name: name.to_string(),
                unit: l.or(r).map(|x| x.unit.clone()).unwrap_or_default(),
                count: (l.map_or(0, |x| x.count), r.map_or(0, |x| x.count)),
                cost: (l.map_or(0, |x| x.cost), r.map_or(0, |x| x.cost)),
                total_events: (
                    l.map_or(0, |x| x.total_events),
                    r.map_or(0, |x| x.total_events),
                ),
            }
        })
        .collect();

    let mut kind_names: Vec<&str> = tree_left
        .kind_counts()
        .keys()
        .chain(tree_right.kind_counts().keys())
        .map(String::as_str)
        .collect();
    kind_names.sort_unstable();
    kind_names.dedup();
    let kinds = kind_names
        .iter()
        .map(|&kind| KindDelta {
            kind: kind.to_string(),
            count: (
                tree_left.kind_counts().get(kind).copied().unwrap_or(0),
                tree_right.kind_counts().get(kind).copied().unwrap_or(0),
            ),
        })
        .collect();

    Ok(TraceDiff {
        total_lines: (
            tree_left.total_lines() as u64,
            tree_right.total_lines() as u64,
        ),
        spans,
        kinds,
        first_divergence: first,
    })
}

// ---------------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------------

/// Manifest schema tag accepted by [`BudgetManifest::parse`].
pub const BUDGET_SCHEMA: &str = "pipette-trace-budgets/v1";

/// Ceilings for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanBudget {
    /// Span name the ceilings apply to.
    pub span: String,
    /// Required cost unit, when pinned.
    pub unit: Option<String>,
    /// Maximum instance count.
    pub max_count: Option<u64>,
    /// Maximum summed logical cost.
    pub max_cost: Option<u64>,
    /// Maximum summed enclosed events.
    pub max_total_events: Option<u64>,
    /// Whether the span must be present at all.
    pub require: bool,
}

/// Ceiling for one event kind's count.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBudget {
    /// The `kind` tag the ceiling applies to.
    pub kind: String,
    /// Maximum occurrence count.
    pub max_count: u64,
}

/// The committed `trace_budgets.json` manifest: logical-cost and
/// event-count ceilings that CI evaluates against the perf-baseline
/// reference trace. Budgets are on *logical* quantities, so the gate is
/// immune to machine speed — it trips only when the configurator starts
/// doing more work.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetManifest {
    /// Ceiling on total trace lines, when set.
    pub max_total_lines: Option<u64>,
    /// Per-span ceilings.
    pub spans: Vec<SpanBudget>,
    /// Per-kind count ceilings.
    pub events: Vec<EventBudget>,
}

/// The keys each manifest level accepts. Anything else is an error, so a
/// misspelled ceiling fails the gate instead of silently switching its
/// check off.
const MANIFEST_FIELDS: [&str; 5] = ["schema", "comment", "max_total_lines", "spans", "events"];
const SPAN_FIELDS: [&str; 6] = [
    "span",
    "unit",
    "max_count",
    "max_cost",
    "max_total_events",
    "require",
];
const EVENT_FIELDS: [&str; 2] = ["kind", "max_count"];

/// Rejects a manifest level that is not an object or has a key outside
/// `allowed`.
fn check_manifest_keys(
    value: &JsonValue,
    context: &str,
    allowed: &[&str],
) -> Result<(), AnalysisError> {
    if !matches!(value, JsonValue::Object(_)) {
        return Err(AnalysisError::Manifest(format!(
            "{context} must be an object, got {}",
            value.type_name()
        )));
    }
    match json::first_unknown_key(value, allowed) {
        Some(key) => Err(AnalysisError::Manifest(format!(
            "{context}: unknown field {key:?} (allowed: {})",
            allowed.join(", ")
        ))),
        None => Ok(()),
    }
}

/// An optional manifest field: `None` when absent, an error naming
/// `what` it must be when `read` rejects its type.
fn optional<'v, T>(
    item: &'v JsonValue,
    field: &str,
    context: &str,
    what: &str,
    read: impl Fn(&'v JsonValue) -> Option<T>,
) -> Result<Option<T>, AnalysisError> {
    item.get(field)
        .map(|v| {
            read(v)
                .ok_or_else(|| AnalysisError::Manifest(format!("{context}{field} must be {what}")))
        })
        .transpose()
}

impl BudgetManifest {
    /// Parses the manifest JSON, validating the schema tag and rejecting
    /// unknown or mistyped fields at every level.
    pub fn parse(text: &str) -> Result<Self, AnalysisError> {
        let value = json::parse(text)
            .map_err(|error| AnalysisError::Manifest(format!("invalid JSON: {error}")))?;
        check_manifest_keys(&value, "top level", &MANIFEST_FIELDS)?;
        let schema = value
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| AnalysisError::Manifest("missing string field 'schema'".into()))?;
        if schema != BUDGET_SCHEMA {
            return Err(AnalysisError::Manifest(format!(
                "unsupported schema '{schema}' (expected '{BUDGET_SCHEMA}')"
            )));
        }
        let uint = "a non-negative integer";
        let max_total_lines = optional(&value, "max_total_lines", "", uint, JsonValue::as_u64)?;
        let list = |key: &str| -> Result<&[JsonValue], AnalysisError> {
            Ok(optional(&value, key, "", "an array", JsonValue::as_array)?.unwrap_or_default())
        };
        let mut spans = Vec::new();
        for (i, item) in list("spans")?.iter().enumerate() {
            check_manifest_keys(item, &format!("spans[{i}]"), &SPAN_FIELDS)?;
            let span = item
                .get("span")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| {
                    AnalysisError::Manifest(format!("spans[{i}]: missing string field 'span'"))
                })?
                .to_string();
            let context = format!("spans[{i}].");
            let ceiling = |field| optional(item, field, &context, uint, JsonValue::as_u64);
            spans.push(SpanBudget {
                span,
                unit: optional(item, "unit", &context, "a string", JsonValue::as_str)?
                    .map(str::to_string),
                max_count: ceiling("max_count")?,
                max_cost: ceiling("max_cost")?,
                max_total_events: ceiling("max_total_events")?,
                require: optional(item, "require", &context, "a boolean", JsonValue::as_bool)?
                    .unwrap_or(false),
            });
        }
        let mut events = Vec::new();
        for (i, item) in list("events")?.iter().enumerate() {
            check_manifest_keys(item, &format!("events[{i}]"), &EVENT_FIELDS)?;
            events.push(EventBudget {
                kind: item
                    .get("kind")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| {
                        AnalysisError::Manifest(format!("events[{i}]: missing string field 'kind'"))
                    })?
                    .to_string(),
                max_count: item
                    .get("max_count")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| {
                        AnalysisError::Manifest(format!(
                            "events[{i}]: missing integer field 'max_count'"
                        ))
                    })?,
            });
        }
        Ok(Self {
            max_total_lines,
            spans,
            events,
        })
    }

    /// Evaluates every ceiling against a trace.
    pub fn check(&self, tree: &SpanTree) -> BudgetReport {
        fn push(checks: &mut Vec<BudgetCheck>, label: String, actual: u64, limit: u64) {
            checks.push(BudgetCheck {
                label,
                actual,
                limit,
                ok: actual <= limit,
            });
        }
        let mut checks = Vec::new();
        if let Some(limit) = self.max_total_lines {
            push(
                &mut checks,
                "total lines".to_string(),
                tree.total_lines() as u64,
                limit,
            );
        }
        let rollups = tree.rollups();
        for budget in &self.spans {
            let rollup = rollups.iter().find(|r| r.name == budget.span);
            match rollup {
                None => {
                    if budget.require {
                        checks.push(BudgetCheck {
                            label: format!("span '{}' present", budget.span),
                            actual: 0,
                            limit: 0,
                            ok: false,
                        });
                    }
                }
                Some(r) => {
                    if let Some(unit) = &budget.unit {
                        checks.push(BudgetCheck {
                            label: format!(
                                "span '{}' unit is '{}' (got '{}')",
                                budget.span, unit, r.unit
                            ),
                            actual: u64::from(&r.unit != unit),
                            limit: 0,
                            ok: &r.unit == unit,
                        });
                    }
                    if let Some(limit) = budget.max_count {
                        push(
                            &mut checks,
                            format!("span '{}' count", budget.span),
                            r.count,
                            limit,
                        );
                    }
                    if let Some(limit) = budget.max_cost {
                        push(
                            &mut checks,
                            format!("span '{}' cost", budget.span),
                            r.cost,
                            limit,
                        );
                    }
                    if let Some(limit) = budget.max_total_events {
                        push(
                            &mut checks,
                            format!("span '{}' enclosed events", budget.span),
                            r.total_events,
                            limit,
                        );
                    }
                }
            }
        }
        for budget in &self.events {
            push(
                &mut checks,
                format!("event '{}' count", budget.kind),
                tree.kind_counts().get(&budget.kind).copied().unwrap_or(0),
                budget.max_count,
            );
        }
        BudgetReport { checks }
    }
}

/// One evaluated ceiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetCheck {
    /// What was checked.
    pub label: String,
    /// Observed value.
    pub actual: u64,
    /// Permitted maximum.
    pub limit: u64,
    /// Whether the ceiling held.
    pub ok: bool,
}

/// All evaluated ceilings for one trace.
#[derive(Debug, Clone, Default)]
pub struct BudgetReport {
    /// Every check, in manifest order.
    pub checks: Vec<BudgetCheck>,
}

impl BudgetReport {
    /// Whether every ceiling held.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The failed checks.
    pub fn violations(&self) -> Vec<&BudgetCheck> {
        self.checks.iter().filter(|c| !c.ok).collect()
    }
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

fn name_width<'a>(names: impl Iterator<Item = &'a str>, floor: usize) -> usize {
    names.map(str::len).fold(floor, usize::max)
}

/// Renders the `trace summarize` report: stream totals, per-name span
/// rollups, top-N hot spans, and per-kind event counts.
pub fn render_summary(tree: &SpanTree, top: usize) -> String {
    let mut out = String::new();
    let rollups = tree.rollups();
    let _ = writeln!(
        out,
        "trace: {} lines, {} span instances, {} span names",
        tree.total_lines(),
        tree.nodes().len(),
        rollups.len()
    );
    let w = name_width(rollups.iter().map(|r| r.name.as_str()), 4);
    let _ = writeln!(out, "\nspans:");
    let _ = writeln!(
        out,
        "  {:<w$}  {:>5}  {:>10}  {:<10}  {:>9}  {:>9}",
        "name", "count", "cost", "unit", "total_ev", "self_ev"
    );
    for r in &rollups {
        let _ = write!(
            out,
            "  {:<w$}  {:>5}  {:>10}  {:<10}  {:>9}  {:>9}",
            r.name, r.count, r.cost, r.unit, r.total_events, r.self_events
        );
        if let Some(wall) = r.wall_ms {
            let _ = write!(out, "  {wall:.3}ms");
        }
        out.push('\n');
    }
    let hot = tree.hot_spans(top);
    let _ = writeln!(out, "\nhot spans (top {} by enclosed events):", hot.len());
    for (i, r) in hot.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:>2}. {:<w$}  {:>9} events  ({} {})",
            i + 1,
            r.name,
            r.total_events,
            r.cost,
            r.unit
        );
    }
    let _ = writeln!(out, "\nevent kinds:");
    let kw = name_width(tree.kind_counts().keys().map(String::as_str), 4);
    for (kind, count) in tree.kind_counts() {
        let _ = writeln!(out, "  {kind:<kw$}  {count:>9}");
    }
    out
}

/// Renders the `trace flame` view: each span instance indented under its
/// parent with a bar proportional to its enclosed-event share.
pub fn render_flame(tree: &SpanTree) -> String {
    const BAR: usize = 32;
    let max_events = tree
        .roots()
        .iter()
        .map(|&r| tree.nodes()[r].total_events)
        .max()
        .unwrap_or(0)
        .max(1);
    let mut out = String::new();
    // Depth-first over the forest, children in stream order.
    let mut stack: Vec<usize> = tree.roots().iter().rev().copied().collect();
    while let Some(idx) = stack.pop() {
        let node = &tree.nodes()[idx];
        let bar_len = ((node.total_events * BAR).div_ceil(max_events)).clamp(1, BAR);
        let indent = "  ".repeat(node.depth);
        let _ = write!(
            out,
            "{indent}{:<width$} |{:<BAR$}| {} events ({} {})",
            node.name,
            "#".repeat(bar_len),
            node.total_events,
            node.cost,
            node.unit,
            width = 24usize.saturating_sub(indent.len()),
        );
        if let Some(wall) = node.wall_ms {
            let _ = write!(out, " {wall:.3}ms");
        }
        out.push('\n');
        for &child in node.children.iter().rev() {
            stack.push(child);
        }
    }
    out
}

/// Renders the `trace diff` report. Unchanged rows are elided; a
/// zero-drift diff renders as a single line.
pub fn render_diff(diff: &TraceDiff) -> String {
    let mut out = String::new();
    if !diff.has_drift() {
        let _ = writeln!(
            out,
            "zero drift: traces are bit-identical after stripping wall_ms ({} lines)",
            diff.total_lines.0
        );
        return out;
    }
    let _ = writeln!(out, "drift detected");
    if diff.total_lines.0 != diff.total_lines.1 {
        let _ = writeln!(
            out,
            "  total lines: {} -> {}",
            diff.total_lines.0, diff.total_lines.1
        );
    }
    for delta in diff.spans.iter().filter(|d| d.changed()) {
        let _ = writeln!(
            out,
            "  span '{}': count {} -> {}, cost {} -> {} {}, events {} -> {}",
            delta.name,
            delta.count.0,
            delta.count.1,
            delta.cost.0,
            delta.cost.1,
            delta.unit,
            delta.total_events.0,
            delta.total_events.1
        );
    }
    for delta in diff.kinds.iter().filter(|d| d.count.0 != d.count.1) {
        let _ = writeln!(
            out,
            "  kind '{}': {} -> {}",
            delta.kind, delta.count.0, delta.count.1
        );
    }
    if let Some(first) = &diff.first_divergence {
        let _ = writeln!(out, "{first}");
    }
    out
}

/// Renders the `trace check` report: one line per ceiling, violations
/// marked `FAIL`.
pub fn render_budget_report(report: &BudgetReport) -> String {
    let mut out = String::new();
    let verdict = if report.ok() { "PASS" } else { "FAIL" };
    let _ = writeln!(
        out,
        "budget check: {verdict} ({} checks, {} violations)",
        report.checks.len(),
        report.violations().len()
    );
    for check in &report.checks {
        let mark = if check.ok { "  ok " } else { "  FAIL " };
        let _ = writeln!(
            out,
            "{mark}{}: {} <= {}",
            check.label, check.actual, check.limit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::CostUnit;
    use crate::{EventKind, Trace, TraceConfig};

    fn sample_trace(extra: usize) -> Trace {
        let mut t = Trace::new(TraceConfig::default());
        t.push(EventKind::RunStart {
            schema: 1,
            seed: 21,
            gpus: 16,
            global_batch: 64,
        });
        let outer = t.open_span("screen");
        for i in 0..(2 + extra) {
            t.push(EventKind::MemLoss {
                iteration: i,
                loss: i as f64 * 0.5,
            });
        }
        t.close_span(outer, CostUnit::Candidates, (2 + extra) as u64);
        let anneal = t.open_span("anneal");
        let chain = t.open_span("chain");
        t.push(EventKind::SaResult {
            candidate: 0,
            replica: 0,
            evaluations: 100,
            accepted: 10,
            improvements: 5,
            initial_cost: 2.0,
            best_cost: 1.0,
        });
        t.close_span(chain, CostUnit::Evals, 100);
        t.close_span(anneal, CostUnit::Evals, 100);
        t
    }

    #[test]
    fn canonical_jsonl_round_trips() {
        let t = sample_trace(0);
        let parsed = ParsedTrace::from_jsonl(&t.to_jsonl()).expect("canonical output parses");
        assert_eq!(parsed.events().len(), t.len());
        assert_eq!(parsed.count_kind("mem_loss"), 2);
        assert_eq!(parsed.count_kind("span_open"), 3);
        // seq fields match line indices.
        for event in parsed.events() {
            assert_eq!(
                event.field("seq").and_then(JsonValue::as_u64),
                Some(event.line as u64)
            );
        }
    }

    #[test]
    fn span_tree_from_jsonl_matches_in_memory_tree() {
        let t = sample_trace(0);
        let from_mem = SpanTree::from_trace(&t).expect("balanced");
        let from_text = span_tree_from_jsonl(&t.to_jsonl()).expect("balanced");
        assert_eq!(from_mem.nodes(), from_text.nodes());
        assert_eq!(from_mem.kind_counts(), from_text.kind_counts());
    }

    #[test]
    fn strip_wall_ms_is_suffix_only() {
        let line = r#"{"seq":0,"kind":"mem_loss","iteration":1,"loss":0.5,"wall_ms":12.25}"#;
        let stripped = strip_wall_ms(line);
        assert_eq!(
            stripped.trim_end(),
            r#"{"seq":0,"kind":"mem_loss","iteration":1,"loss":0.5}"#
        );
        // A line without the annotation is untouched.
        let plain = r#"{"seq":0,"kind":"run_start"}"#;
        assert_eq!(strip_wall_ms(plain).trim_end(), plain);
    }

    #[test]
    fn first_divergence_reports_line_and_sides() {
        assert_eq!(first_divergence("a\nb\n", "a\nb\n"), None);
        let d = first_divergence("a\nb\n", "a\nc\n").expect("diverges");
        assert_eq!(d.line, 1);
        assert_eq!(d.left.as_deref(), Some("b"));
        assert_eq!(d.right.as_deref(), Some("c"));
        let d = first_divergence("a\n", "a\nb\n").expect("length mismatch");
        assert_eq!(d.line, 1);
        assert_eq!(d.left, None);
        assert_eq!(d.right.as_deref(), Some("b"));
    }

    #[test]
    fn identical_traces_diff_to_zero_drift() {
        let a = sample_trace(0).to_jsonl();
        let b = sample_trace(0).to_jsonl();
        let diff = diff_jsonl(&a, &b).expect("both parse");
        assert!(!diff.has_drift());
        assert!(render_diff(&diff).contains("zero drift"));
    }

    #[test]
    fn differing_traces_report_span_deltas() {
        let a = sample_trace(0).to_jsonl();
        let b = sample_trace(3).to_jsonl();
        let diff = diff_jsonl(&a, &b).expect("both parse");
        assert!(diff.has_drift());
        let screen = diff
            .spans
            .iter()
            .find(|d| d.name == "screen")
            .expect("screen delta");
        assert!(screen.changed());
        assert_eq!(screen.cost, (2, 5));
        let rendered = render_diff(&diff);
        assert!(rendered.contains("drift detected"));
        assert!(rendered.contains("span 'screen'"));
        assert!(rendered.contains("first divergence"));
    }

    #[test]
    fn budget_manifest_parses_and_checks() {
        let manifest = BudgetManifest::parse(
            r#"{
              "schema": "pipette-trace-budgets/v1",
              "max_total_lines": 100,
              "spans": [
                {"span": "anneal", "unit": "evals", "max_count": 1, "max_cost": 150, "require": true},
                {"span": "missing", "require": true}
              ],
              "events": [{"kind": "mem_loss", "max_count": 10}]
            }"#,
        )
        .expect("valid manifest");
        let tree = SpanTree::from_trace(&sample_trace(0)).expect("balanced");
        let report = manifest.check(&tree);
        assert!(!report.ok(), "the 'missing' span must fail");
        let violations = report.violations();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].label.contains("missing"));
        let rendered = render_budget_report(&report);
        assert!(rendered.contains("FAIL"));
        assert!(rendered.contains("span 'anneal' cost: 100 <= 150"));
    }

    #[test]
    fn budget_violations_trip() {
        let manifest = BudgetManifest::parse(
            r#"{"schema":"pipette-trace-budgets/v1","spans":[{"span":"anneal","max_cost":99}]}"#,
        )
        .expect("valid");
        let tree = SpanTree::from_trace(&sample_trace(0)).expect("balanced");
        let report = manifest.check(&tree);
        assert!(!report.ok());
    }

    #[test]
    fn budget_manifest_rejects_bad_schema() {
        assert!(matches!(
            BudgetManifest::parse(r#"{"schema":"nope/v9"}"#),
            Err(AnalysisError::Manifest(_))
        ));
        assert!(BudgetManifest::parse("not json").is_err());
    }

    #[test]
    fn budget_manifest_rejects_unknown_fields() {
        let manifest = |body: &str| {
            BudgetManifest::parse(&format!(
                r#"{{"schema":"pipette-trace-budgets/v1",{body}}}"#
            ))
        };
        assert!(manifest(r#""comment":"why these ceilings","max_total_lines":9"#).is_ok());
        for (body, key) in [
            (r#""max_totl_lines":1"#, "max_totl_lines"),
            (r#""spans":[{"span":"anneal","max_csot":1}]"#, "max_csot"),
            (
                r#""events":[{"kind":"sa_move","max_count":1,"limit":2}]"#,
                "limit",
            ),
        ] {
            let err = manifest(body).unwrap_err();
            assert!(matches!(err, AnalysisError::Manifest(_)), "{body}");
            assert!(
                err.to_string()
                    .contains(&format!("unknown field \"{key}\"")),
                "{body}: {err}"
            );
        }
        // Mistyped fields and levels are errors too, not skipped checks.
        for body in [
            r#""spans":{"span":"anneal"}"#,
            r#""spans":[{"span":"anneal","require":"yes"}]"#,
            r#""spans":[{"span":"anneal","unit":3}]"#,
            r#""spans":[7]"#,
        ] {
            assert!(manifest(body).is_err(), "{body}");
        }
    }

    #[test]
    fn renderers_are_deterministic() {
        let t = sample_trace(0);
        let tree = SpanTree::from_trace(&t).expect("balanced");
        let s1 = render_summary(&tree, 5);
        let s2 = render_summary(&tree, 5);
        assert_eq!(s1, s2);
        assert!(s1.contains("anneal"));
        assert!(s1.contains("hot spans"));
        let f = render_flame(&tree);
        assert!(f.contains("screen"));
        assert!(
            f.lines().any(|l| l.starts_with("  chain")),
            "chain is indented:\n{f}"
        );
    }
}
