//! The gate that keeps the gate honest: lint the real workspace from the
//! test suite, so `cargo test` fails the moment a violation lands —
//! even for contributors who never run `pipette-lint` by hand.

use pipette_lint::{lint_workspace, Config};
use std::path::Path;

fn repo_root() -> &'static Path {
    // crates/lint -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has two ancestors")
}

#[test]
fn workspace_has_no_active_violations() {
    let report = lint_workspace(repo_root(), &Config::default()).expect("lint runs");
    let active: Vec<String> = report
        .violations()
        .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message))
        .collect();
    assert!(
        active.is_empty(),
        "workspace must stay lint-clean; fix or waive (with justification):\n{}",
        active.join("\n")
    );
}

#[test]
fn workspace_scan_covers_all_first_party_crates() {
    let report = lint_workspace(repo_root(), &Config::default()).expect("lint runs");
    for krate in [
        "bench", "cli", "cluster", "core", "lint", "mlp", "model", "obs", "serve", "sim",
    ] {
        let prefix = format!("crates/{krate}/");
        assert!(
            report.files.iter().any(|f| f.starts_with(&prefix)),
            "no files scanned under {prefix}; did the walker break?"
        );
    }
}

#[test]
fn every_waiver_carries_a_justification() {
    let report = lint_workspace(repo_root(), &Config::default()).expect("lint runs");
    for w in report.waivers() {
        let why = w.justification.as_deref().unwrap_or("");
        assert!(
            why.split_whitespace().count() >= 3,
            "{}:{} waives {} with a throwaway justification: {why:?}",
            w.file,
            w.line,
            w.rule
        );
    }
}

/// The lint burn-down dropped the waiver count from 45 to 33, merging the
/// two pipeline engines into one removed a deadlock-guard waiver, the
/// shared JSON parser in `pipette-obs` needs no waiver, deleting the
/// uncalled compute extrapolator removed its D2 waiver, deleting the
/// cancellable estimator-training branch removed its D1 waiver, and the
/// network profiler's one loop indexes link classes without the D2
/// `unreachable!` waiver its robust loop needed, and the single-chain
/// annealer runs the tempering ladder's loop instead of its own timed
/// one (one D1 waiver fewer), and moving the MLP's reference layer caches
/// into the tests took their two D2 `.expect` waivers while training the
/// configurator's estimator through the cache alone took one D1 waiver.
/// This is a ratchet: new waivers need either a removed one elsewhere or
/// a deliberate bump here, reviewed like any other budget change.
const WAIVER_CEILING: usize = 24;

#[test]
fn waiver_count_never_regresses_past_the_ceiling() {
    let report = lint_workspace(repo_root(), &Config::default()).expect("lint runs");
    let count = report.waivers().count();
    assert!(
        count <= WAIVER_CEILING,
        "{count} waivers exceeds the ceiling of {WAIVER_CEILING}; fix the \
         violation instead of waiving it, or bump the ceiling with review"
    );
}

#[test]
fn semantic_layer_resolves_the_workspace_call_graph() {
    let report = lint_workspace(repo_root(), &Config::default()).expect("lint runs");
    let g = &report.graph;
    // The workspace has well over a thousand functions; if resolution
    // drops below these floors the graph rules (D6/D8/D9) are running
    // on air and their "0 active" means nothing.
    assert!(g.functions >= 500, "only {} functions parsed", g.functions);
    assert!(g.public_fns >= 200, "only {} public fns", g.public_fns);
    assert!(
        g.resolved_edges >= 300,
        "only {} resolved call edges; the resolver has regressed",
        g.resolved_edges
    );
    assert!(
        g.resolved_edges <= g.call_sites,
        "resolved more edges than call sites: {} > {}",
        g.resolved_edges,
        g.call_sites
    );
}

#[test]
fn every_first_party_manifest_is_scanned_for_d10() {
    let report = lint_workspace(repo_root(), &Config::default()).expect("lint runs");
    assert!(
        report.manifests.iter().any(|m| m == "Cargo.toml"),
        "workspace root manifest missing from the D10 scan"
    );
    for krate in [
        "bench", "cli", "cluster", "core", "lint", "mlp", "model", "obs", "serve", "sim",
    ] {
        let want = format!("crates/{krate}/Cargo.toml");
        assert!(
            report.manifests.contains(&want),
            "{want} missing from the D10 scan"
        );
    }
}
