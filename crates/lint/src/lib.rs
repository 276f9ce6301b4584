//! # cm-lint
//!
//! The span-aware semantic lint engine behind `xtask lint` — layer 1 of
//! the static-analysis gate, rebuilt from a per-line token scanner into a
//! real lexer (`lexer`), a lightweight structural analysis (`context`),
//! and semantic passes (`passes`) the old scanner could not express:
//!
//! - **nondet-iteration** — hash-ordered `HashMap`/`HashSet` iteration
//!   (through `use`/`type` aliases, fields, parameters, and same-file
//!   constructor functions) in library code, where order can feed float
//!   reductions and break the bit-identity suites;
//! - **float-ordering** — `partial_cmp` comparators and `f64::max`-style
//!   fold functions that must use `total_cmp`;
//! - the original token bans (`unwrap`, `expect`, `panic!`, threading,
//!   wall-clock, `table.row`), now matched across line breaks;
//! - **stale-waiver** — every `lint: allow` waiver pragma must suppress
//!   at least one finding, so waivers rot loudly instead of silently.
//!
//! On top of the per-file passes sits a workspace layer (`symbols`,
//! `callgraph`, `effects`) that indexes every function in the lint
//! scope, resolves `use`/re-export aliases to build an over-approximate
//! call graph, and proves the determinism discipline interprocedurally:
//!
//! - **effect-audit** — ambient env/fs/clock/entropy effects outside the
//!   modules sanctioned by `specs/lint_effects.json`, each finding
//!   rendering the full entry-point → effect call chain;
//! - **par-capture** — closures handed to the cm-par entry points must
//!   not capture interior-mutable state nor reach an ambient effect
//!   through any call chain;
//! - **merge-float** — float accumulation in (or reachable from) the
//!   `par_map_reduce` merge argument, where fold order is the parallel
//!   schedule.
//!
//! Scope mirrors the old gate: library-crate non-test code under
//! `crates/*/src`, with tests/benches/examples/binaries exempt,
//! `crates/par` exempt from the threading bans, and the `table-*` rules
//! restricted to the hot-path crates. Findings carry byte-accurate
//! line/column positions and render as `file:line:col: [rule] message`;
//! [`report::report_json`] emits the deterministic machine report.

pub mod callgraph;
pub mod context;
pub mod corpus;
pub mod effects;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod symbols;

use std::fs;
use std::path::{Path, PathBuf};

pub use report::{report_json, Finding};

use callgraph::CallGraph;
use passes::PassInput;
use report::Frame;
use symbols::{FileUnit, SymbolIndex};

/// The rule name emitted by the waiver audit.
pub const STALE_WAIVER_RULE: &str = "stale-waiver";

/// Every rule the engine can emit, in stable order (bans, then the
/// semantic passes, then the interprocedural passes, then the audit).
pub fn all_rules() -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = passes::bans::RULES.to_vec();
    rules.push(passes::nondet_iter::RULE);
    rules.push(passes::float_order::RULE);
    rules.push(passes::effect_audit::RULE);
    rules.push(passes::par_capture::RULE);
    rules.push(passes::merge_float::RULE);
    rules.push(STALE_WAIVER_RULE);
    rules
}

/// Path-scoping configuration: which crates are exempt from which rules.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes where the raw-threading bans do not apply (the
    /// parallel substrate is the one place allowed to touch
    /// `std::thread`).
    pub thread_exempt: Vec<PathBuf>,
    /// Path prefixes where the `table-row`/`table-value` rules apply (the
    /// hot-path crates that must use FrozenTable columnar views); the
    /// rules are off everywhere else.
    pub hot_path_crates: Vec<PathBuf>,
    /// Path prefixes where the `stream-materialize` rule applies (the
    /// streaming curation driver and the curation engine that assembles
    /// its segments, which must go through cm-shard instead of
    /// materializing whole `FeatureTable`s); the rule is off everywhere
    /// else.
    pub stream_driver_paths: Vec<PathBuf>,
    /// Path prefixes exempt from the `checkpoint-drift` rule — cm-serve's
    /// snapshot module, the one place allowed to name the checkpoint type.
    /// Everywhere else, checkpointed state must flow through that
    /// module's `capture`/`save`/`load` API so its layout cannot drift
    /// behind the version number.
    pub checkpoint_exempt: Vec<PathBuf>,
    /// Per-effect-kind sanctioned path prefixes for the `effect-audit`
    /// pass, loaded from `specs/lint_effects.json` by
    /// [`LintConfig::for_workspace`]. Empty (no sanctions) in
    /// [`LintConfig::repo_default`].
    pub effect_sanctions: effects::EffectSanctions,
}

/// Rules that do not apply inside the thread-exempt crates.
const THREAD_RULES: &[&str] = &["thread-spawn", "thread-scope"];

/// Rules that apply only inside the hot-path crates.
const HOT_PATH_RULES: &[&str] = &["table-row", "table-value"];

/// Rules that apply only inside the streaming curation drivers.
const STREAM_RULES: &[&str] = &["stream-materialize"];

/// Rules that do not apply inside the checkpoint-exempt paths.
const CHECKPOINT_RULES: &[&str] = &["checkpoint-drift"];

/// Rules that do not apply inside the thread-exempt crates: the cm-par
/// substrate's own internals hand closures to its entry points by
/// construction.
const PAR_RULES: &[&str] = &["par-capture"];

impl LintConfig {
    /// The repository's scoping: `crates/par` owns raw threading; the
    /// kernel crates must stay columnar.
    pub fn repo_default() -> Self {
        LintConfig {
            thread_exempt: vec![PathBuf::from("crates/par")],
            hot_path_crates: [
                "crates/featurespace",
                "crates/propagation",
                "crates/mining",
                "crates/labelmodel",
            ]
            .iter()
            .map(PathBuf::from)
            .collect(),
            stream_driver_paths: vec![
                PathBuf::from("crates/pipeline/src/stream.rs"),
                PathBuf::from("crates/pipeline/src/curation.rs"),
            ],
            checkpoint_exempt: vec![PathBuf::from("crates/serve/src/snapshot.rs")],
            effect_sanctions: effects::EffectSanctions::default(),
        }
    }

    /// The repository scoping plus the effect sanctions declared in
    /// `specs/lint_effects.json` under `root`. A missing or malformed
    /// spec leaves the sanction list empty — every effect site then
    /// reports, which is noisy but fails safe (and `xtask validate`
    /// rejects the malformed spec with spans).
    pub fn for_workspace(root: &Path) -> Self {
        let mut cfg = Self::repo_default();
        if let Ok(s) = effects::EffectSanctions::load(&root.join("specs/lint_effects.json")) {
            cfg.effect_sanctions = s;
        }
        cfg
    }

    /// True when `rule` is enforced for the file at `path`.
    fn rule_applies(&self, rule: &str, path: &Path) -> bool {
        if THREAD_RULES.contains(&rule) && self.thread_exempt.iter().any(|p| path.starts_with(p)) {
            return false;
        }
        if PAR_RULES.contains(&rule) && self.thread_exempt.iter().any(|p| path.starts_with(p)) {
            return false;
        }
        if HOT_PATH_RULES.contains(&rule)
            && !self.hot_path_crates.iter().any(|p| path.starts_with(p))
        {
            return false;
        }
        if STREAM_RULES.contains(&rule)
            && !self.stream_driver_paths.iter().any(|p| path.starts_with(p))
        {
            return false;
        }
        if CHECKPOINT_RULES.contains(&rule)
            && self.checkpoint_exempt.iter().any(|p| path.starts_with(p))
        {
            return false;
        }
        true
    }
}

/// One pre-waiver finding inside a known file: the rule, its anchor
/// token, the message, and (for the interprocedural rules) a call chain.
struct Anchored {
    rule: &'static str,
    tok: usize,
    message: String,
    chain: Vec<Frame>,
}

/// Lints a set of files as one workspace: the per-file passes run on
/// each file, the symbol index and call graph are built over all of
/// them, and the interprocedural passes (`effect-audit`, `par-capture`,
/// `merge-float`) prove reachability across file boundaries. File paths
/// label findings, drive the path-scoped rules, and define the module
/// tree; pass workspace-relative paths. Returned findings are sorted by
/// position and already have waivers applied and audited.
pub fn lint_workspace(files: &[(PathBuf, String)], cfg: &LintConfig) -> Vec<Finding> {
    let units: Vec<FileUnit> = files.iter().map(|(p, s)| FileUnit::parse(p.clone(), s)).collect();
    let sym = SymbolIndex::build(&units);
    let graph = CallGraph::build(&units, &sym);

    let mut per_file: Vec<Vec<Anchored>> = units.iter().map(|_| Vec::new()).collect();
    for (fi, u) in units.iter().enumerate() {
        let input = PassInput { toks: &u.toks, ctx: &u.ctx };
        let raw = passes::bans::run(&input)
            .into_iter()
            .chain(passes::nondet_iter::run(&input))
            .chain(passes::float_order::run(&input));
        per_file[fi].extend(raw.map(|r| Anchored {
            rule: r.rule,
            tok: r.tok,
            message: r.message,
            chain: Vec::new(),
        }));
    }
    let ws = passes::effect_audit::run(&units, &sym, &graph, &cfg.effect_sanctions)
        .into_iter()
        .chain(passes::par_capture::run(&units, &sym, &graph))
        .chain(passes::merge_float::run(&units, &sym, &graph));
    for f in ws {
        per_file[f.file].push(Anchored {
            rule: f.rule,
            tok: f.tok,
            message: f.message,
            chain: f.chain,
        });
    }

    let mut findings = Vec::new();
    for (u, raw) in units.iter().zip(per_file) {
        findings.extend(finalize_file(u, raw, cfg));
    }
    findings.sort_by(Finding::sort_key_cmp);
    findings
}

/// Lints one source text as a single-file workspace. `file` labels
/// findings and drives the path-scoped rules; pass a workspace-relative
/// path. The interprocedural passes still run — confined to call chains
/// within this file.
pub fn lint_source(source: &str, file: &Path, cfg: &LintConfig) -> Vec<Finding> {
    lint_workspace(&[(file.to_path_buf(), source.to_owned())], cfg)
}

/// Resolves anchors, drops test-region and path-exempt findings, applies
/// waivers, and audits them for one file.
fn finalize_file(u: &FileUnit, raw: Vec<Anchored>, cfg: &LintConfig) -> Vec<Finding> {
    let (toks, ctx, file) = (&u.toks, &u.ctx, &u.path);
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|r| !ctx.test_mask[r.tok])
        .filter(|r| cfg.rule_applies(r.rule, file))
        .map(|r| {
            let t = &toks[r.tok];
            Finding {
                rule: r.rule,
                file: file.clone(),
                line: t.line(),
                col: t.col(),
                message: r.message,
                chain: r.chain,
            }
        })
        .collect();

    // Waiver application: a pragma waives findings of its listed rules on
    // its target line. Each (pragma, rule) pair must earn its keep.
    let mut used: Vec<Vec<bool>> = ctx.pragmas.iter().map(|p| vec![false; p.rules.len()]).collect();
    findings.retain(|f| {
        let mut waived = false;
        for (pi, p) in ctx.pragmas.iter().enumerate() {
            if p.target_line != Some(f.line) {
                continue;
            }
            for (ri, r) in p.rules.iter().enumerate() {
                if r == f.rule {
                    used[pi][ri] = true;
                    waived = true;
                }
            }
        }
        !waived
    });

    // Waiver audit. Pragmas inside test regions are not audited (the code
    // they sit in is exempt wholesale); everywhere else a pragma that
    // suppressed nothing is itself a finding.
    let test_lines: std::collections::BTreeSet<u32> =
        toks.iter().enumerate().filter(|(i, _)| ctx.test_mask[*i]).map(|(_, t)| t.line()).collect();
    for (pi, p) in ctx.pragmas.iter().enumerate() {
        if test_lines.contains(&p.line) {
            continue;
        }
        for (ri, r) in p.rules.iter().enumerate() {
            if !used[pi][ri] {
                findings.push(Finding {
                    rule: STALE_WAIVER_RULE,
                    file: file.clone(),
                    line: p.line,
                    col: p.col,
                    message: format!("waiver `lint: allow({r})` suppresses no finding; delete it"),
                    chain: Vec::new(),
                });
            }
        }
    }

    findings.sort_by(Finding::sort_key_cmp);
    findings
}

/// True when `path` belongs to a zone where panicking is idiomatic:
/// tests, benches, examples, or binary targets.
pub fn is_exempt_path(path: &Path) -> bool {
    let mut comps = path.components().peekable();
    while let Some(c) = comps.next() {
        let name = c.as_os_str().to_string_lossy();
        if name == "tests" || name == "benches" || name == "examples" {
            return true;
        }
        if name == "src" && comps.peek().is_some_and(|n| n.as_os_str() == "bin") {
            return true;
        }
        if name == "src" && comps.peek().is_some_and(|n| n.as_os_str() == "main.rs") {
            return true;
        }
    }
    false
}

/// Collects the workspace `.rs` files the lint applies to: everything
/// under `crates/*/src` that is not in an exempt zone. Crates without a
/// `src/lib.rs` are binary crates and fully exempt.
pub fn collect_lint_targets(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates) else {
        return out;
    };
    let mut crate_dirs: Vec<PathBuf> =
        entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        if !dir.join("src/lib.rs").exists() {
            continue;
        }
        let mut stack = vec![dir.join("src")];
        while let Some(d) = stack.pop() {
            let Ok(entries) = fs::read_dir(&d) else { continue };
            let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
            paths.sort();
            for p in paths {
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|e| e == "rs") {
                    let rel = p.strip_prefix(root).unwrap_or(&p);
                    if !is_exempt_path(rel) {
                        out.push(p);
                    }
                }
            }
        }
    }
    out.sort();
    out
}

/// Runs the lint over the workspace rooted at `root`; returns all
/// findings sorted by (file, line, col, rule), plus the number of files
/// scanned. Empty findings means the gate passes.
pub fn run(root: &Path, cfg: &LintConfig) -> (Vec<Finding>, usize) {
    let targets = collect_lint_targets(root);
    let scanned = targets.len();
    let mut files = Vec::new();
    for path in targets {
        match fs::read_to_string(&path) {
            Ok(source) => {
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                files.push((rel, source));
            }
            Err(e) => eprintln!("lint: skipping unreadable {}: {e}", path.display()),
        }
    }
    (lint_workspace(&files, cfg), scanned)
}
