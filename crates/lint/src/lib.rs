//! spider-lint: source-level enforcement of the simulator's determinism and
//! unit-safety invariants.
//!
//! The obs layer (PR 2) made the determinism contract *observable* — byte
//! identical output at a fixed seed — and `tests/obs_determinism.rs` checks
//! it at runtime. This crate is the static half: a dependency-free analysis
//! pass (own tokenizer, no syn/clippy internals) that walks every workspace
//! crate and rejects the constructs that historically break that contract
//! before they ever run. See `DESIGN.md` § "Static analysis & determinism
//! enforcement" for the rule catalogue.
//!
//! Run it with `cargo run -p spider-lint -- --deny-all`.

pub mod diag;
pub mod graph;
pub mod rules;
pub mod taint;
pub mod tokens;

pub use diag::{Diagnostic, Hop, Report};
pub use rules::{lint_source, FileKind, DEEP_RULES, QUARANTINE, RULES};

use std::path::{Path, PathBuf};
use tokens::Token;

/// Directories never linted: build output (including the benchmark
/// package's `.bench_build`), VCS, the external-crate shims (stand-ins for
/// crates.io code, not ours), and the linter's own violation fixtures.
fn skip_dir(name: &str) -> bool {
    matches!(
        name,
        "target" | ".bench_build" | ".git" | "shims" | "fixtures" | ".github"
    )
}

/// Classify a workspace-relative path into the rule set it gets.
pub fn classify(rel: &str) -> FileKind {
    let r = rel.replace('\\', "/");
    if r.starts_with("crates/bench/")
        || r.starts_with("perfbench/")
        || r.starts_with("examples/")
        || r.contains("/examples/")
    {
        FileKind::Harness
    } else if r.starts_with("tests/") || r.contains("/tests/") || r.contains("/benches/") {
        FileKind::Test
    } else {
        FileKind::Library
    }
}

/// Recursively collect the `.rs` files to lint under `root`, as sorted
/// workspace-relative paths (sorted so reports are byte-stable).
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !skip_dir(name) {
                    walk(&path, root, out)?;
                }
            } else if name.ends_with(".rs") {
                out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
            }
        }
        Ok(())
    }
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

/// One loaded and lexed source file. Tokens are produced exactly once and
/// shared between the per-file rule pass and the `--deep` workspace pass.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Rule scoping for this file.
    pub kind: FileKind,
    /// The full token stream (comments included).
    pub tokens: Vec<Token>,
    pub(crate) escapes: Vec<rules::Escape>,
    escape_diags: Vec<Diagnostic>,
}

impl SourceFile {
    /// Lex `src` and parse its escape comments.
    pub fn new(rel: String, kind: FileKind, src: &str) -> Self {
        let tokens = tokens::lex(src);
        let (escapes, escape_diags) = rules::parse_escapes(&rel, &tokens);
        SourceFile {
            rel,
            kind,
            tokens,
            escapes,
            escape_diags,
        }
    }
}

/// The lexed workspace: every file tokenized once, ready for both passes.
pub struct Workspace {
    /// Files in sorted path order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load and lex the workspace rooted at `root`. `filter` optionally
    /// restricts the set to paths containing any of the given substrings.
    pub fn load(root: &Path, filter: &[String]) -> std::io::Result<Self> {
        let mut files = Vec::new();
        for rel in collect_files(root)? {
            let rel_str = rel.to_string_lossy().replace('\\', "/");
            if !filter.is_empty() && !filter.iter().any(|f| rel_str.contains(f.as_str())) {
                continue;
            }
            let src = std::fs::read_to_string(root.join(&rel))?;
            files.push(SourceFile::new(rel_str.clone(), classify(&rel_str), &src));
        }
        Ok(Workspace { files })
    }

    /// Build a workspace from in-memory `(path, source)` pairs (fixture and
    /// property tests; also how the suite checks that deleting a barrier
    /// line flips a chain to a violation without touching files on disk).
    pub fn from_sources(sources: &[(&str, &str)]) -> Self {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(path, src)| SourceFile::new((*path).to_owned(), classify(path), src))
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace { files }
    }

    /// Run the lint passes: always the per-file rules, plus — when `deep` —
    /// the workspace call-graph taint analysis. Escapes are shared across
    /// passes, and `unused-allow` is judged only after every pass that could
    /// have used an escape has run.
    pub fn lint(&self, deep: bool) -> Report {
        let mut report = Report {
            files_scanned: self.files.len(),
            ..Report::default()
        };
        for f in &self.files {
            report.diagnostics.extend(f.escape_diags.iter().cloned());
            report
                .diagnostics
                .extend(rules::check_file(&f.rel, f.kind, &f.tokens, &f.escapes));
        }
        if deep {
            let graph = graph::build(self);
            report.diagnostics.extend(taint::check(self, &graph));
        }
        for f in &self.files {
            report
                .diagnostics
                .extend(rules::unused_allow(&f.rel, &f.escapes, deep));
        }
        report.sort();
        report
    }
}

/// Lint the workspace rooted at `root` with the per-file rules only.
/// `filter` optionally restricts the run to paths containing any of the
/// given substrings.
pub fn lint_workspace(root: &Path, filter: &[String]) -> std::io::Result<Report> {
    Ok(Workspace::load(root, filter)?.lint(false))
}

/// Lint the workspace rooted at `root` with the per-file rules *and* the
/// deep call-graph taint pass.
pub fn lint_workspace_deep(root: &Path, filter: &[String]) -> std::io::Result<Report> {
    Ok(Workspace::load(root, filter)?.lint(true))
}

/// Find the workspace root: walk up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("crates/net/src/fgr.rs"), FileKind::Library);
        assert_eq!(classify("src/lib.rs"), FileKind::Library);
        assert_eq!(classify("tests/determinism.rs"), FileKind::Test);
        assert_eq!(classify("crates/obs/tests/roundtrip.rs"), FileKind::Test);
        assert_eq!(
            classify("crates/bench/benches/maxmin_scale.rs"),
            FileKind::Harness
        );
        assert_eq!(
            classify("crates/bench/src/bin/figures.rs"),
            FileKind::Harness
        );
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Harness);
        assert_eq!(classify("perfbench/src/churn.rs"), FileKind::Harness);
    }

    #[test]
    fn skip_list() {
        assert!(skip_dir("target") && skip_dir("shims") && skip_dir("fixtures"));
        assert!(skip_dir(".bench_build"));
        assert!(!skip_dir("src") && !skip_dir("tests"));
    }
}
