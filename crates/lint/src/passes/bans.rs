//! Cross-line token bans: the original scanner's rules re-expressed over
//! the token stream.
//!
//! Because matching happens on consecutive *code* tokens, `.unwrap\n()`,
//! `thread::\nspawn`, and `Instant:: /* … */ now()` all match exactly
//! like their single-line spellings, and banned names inside strings or
//! comments never match at all.

use super::{PassInput, RawFinding};
use crate::lexer::TokKind;

/// Rules implemented by this pass, in reporting order.
pub const RULES: &[&str] = &[
    "unwrap",
    "expect",
    "panic",
    "todo",
    "unimplemented",
    "unsafe",
    "dbg",
    "println",
    "thread-spawn",
    "thread-scope",
    "instant-now",
    "systemtime-now",
    "table-row",
    "table-value",
    "stream-materialize",
    "checkpoint-drift",
    "par-from-env",
];

/// `.name(…)` method calls banned in library code.
const BANNED_METHODS: &[(&str, &str)] = &[("unwrap", "unwrap"), ("expect", "expect")];

/// `name!(...)` macros banned in library code.
const BANNED_MACROS: &[(&str, &str)] = &[
    ("panic", "panic"),
    ("todo", "todo"),
    ("unimplemented", "unimplemented"),
    ("dbg", "dbg"),
    ("println", "println"),
];

/// `head::tail` paths banned in library code.
const BANNED_PATHS: &[(&str, &str, &str, &str)] = &[
    ("thread-spawn", "thread", "spawn", "all parallelism goes through cm-par"),
    ("thread-scope", "thread", "scope", "all parallelism goes through cm-par"),
    ("instant-now", "Instant", "now", "wall-clock reads go through cm-faults Stopwatch/SimClock"),
    (
        "systemtime-now",
        "SystemTime",
        "now",
        "wall-clock reads go through cm-faults Stopwatch/SimClock",
    ),
    (
        "stream-materialize",
        "FeatureTable",
        "new",
        "the streaming curation driver must not materialize whole tables; segment assembly lives \
         in cm-shard",
    ),
    (
        "par-from-env",
        "ParConfig",
        "from_env",
        "library code takes a `&ParConfig`; `CM_THREADS` is read once, at the binary edge",
    ),
];

/// `table.row(…)` / `table.value(…)` — row-wise access banned on hot
/// paths in favor of FrozenTable columnar views.
const BANNED_RECEIVER_METHODS: &[(&str, &str, &str)] =
    &[("table-row", "table", "row"), ("table-value", "table", "value")];

/// Runs the pass.
pub fn run(input: &PassInput<'_>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let n = input.ctx.code.len();
    for j in 0..n {
        let Some(tok) = input.at(j) else { break };
        // `.unwrap(` / `.expect(` — next-token boundary is free with a
        // lexer: `.unwrap_or(…)` is a different identifier token.
        if tok.is_punct('.') {
            for &(rule, name) in BANNED_METHODS {
                if input.ident(j + 1, name) && input.punct(j + 2, '(') {
                    out.push(RawFinding {
                        rule,
                        tok: input.tok_index(j),
                        message: format!(".{name}() panics; return CmResult instead"),
                    });
                }
            }
            for &(rule, recv, method) in BANNED_RECEIVER_METHODS {
                // Anchored on the receiver: `table.row(` with `table` a
                // bare identifier (not a call result, which would put a
                // `)` before the dot).
                if input.ident(j + 1, method)
                    && input.punct(j + 2, '(')
                    && j >= 1
                    && input.ident(j - 1, recv)
                {
                    out.push(RawFinding {
                        rule,
                        tok: input.tok_index(j - 1),
                        message: format!(
                            "per-row {recv}.{method}() on a hot path; use FrozenTable columnar views"
                        ),
                    });
                }
            }
            continue;
        }
        if tok.kind != TokKind::Ident {
            continue;
        }
        // Macros: `panic !`. The lexer splits `eprintln` and `println`
        // into distinct idents, so no prefix confusion is possible.
        for &(rule, name) in BANNED_MACROS {
            if tok.is_ident(name) && input.punct(j + 1, '!') {
                out.push(RawFinding {
                    rule,
                    tok: input.tok_index(j),
                    message: format!("{name}! is banned in library code"),
                });
            }
        }
        if tok.is_ident("unsafe") {
            out.push(RawFinding {
                rule: "unsafe",
                tok: input.tok_index(j),
                message: "unsafe is banned in library code".to_owned(),
            });
        }
        // The checkpoint type may only be named inside cm-serve's
        // snapshot module (path-scoped in LintConfig): constructing or
        // destructuring checkpoints anywhere else lets their layout
        // drift behind the format version. A token lint cannot resolve
        // types, so the rule approximates "no direct field access to
        // checkpointed state" by banning the type name itself — foreign
        // code must go through `snapshot::capture`/`save`/`load` and
        // type inference.
        for name in ["Checkpoint", "TickDelta"] {
            if tok.is_ident(name) {
                out.push(RawFinding {
                    rule: "checkpoint-drift",
                    tok: input.tok_index(j),
                    message: format!(
                        "checkpointed state must be accessed through cm-serve's snapshot module \
                         (capture/capture_delta/CheckpointStore), never by naming {name} directly"
                    ),
                });
            }
        }
        for &(rule, head, tail, why) in BANNED_PATHS {
            if tok.is_ident(head) && input.path_sep(j + 1) && input.ident(j + 3, tail) {
                out.push(RawFinding {
                    rule,
                    tok: input.tok_index(j),
                    message: format!("{head}::{tail} is banned: {why}"),
                });
            }
        }
    }
    out
}
