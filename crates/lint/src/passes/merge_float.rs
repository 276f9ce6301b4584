//! `merge-float`: float accumulation in `par_map_reduce` merge position.
//!
//! `par_map_reduce` folds chunk results in chunk-index order, which is
//! deterministic for a fixed thread count but changes with `CM_THREADS`
//! when the fold is non-associative. Integer merges (`VoteCounts::merge`)
//! are exact under any grouping; float merges (`*a += *b` over gradient
//! buffers) are where thread-count drift enters. This pass flags every
//! `par_map_reduce` call whose merge argument — the closure itself or any
//! function it transitively calls — accumulates floats, so each such
//! site carries an explicit, audited waiver naming why the fold order is
//! pinned.
//!
//! Float evidence is type-informed: compound assigns (`+=` and friends)
//! whose target is int-typed (`usize` counters, histogram buckets) are
//! clean; float-typed or unknown-typed targets with non-integer
//! right-hand sides are evidence, as are float-seeded `.fold(0.0, …)`,
//! `.sum::<f64>()`, and binary `+` with a float-evidenced operand.
//!
//! One finding per call site, anchored at the merge argument's head
//! token, so one waiver covers one site.

use super::{closure_body, frames_for, split_args, WsFinding};
use crate::callgraph::{collect_calls, CallGraph};
use crate::context::Code;
use crate::lexer::TokKind;
use crate::passes::par_capture::path_arg_fns;
use crate::symbols::{FileUnit, SymbolIndex};

/// Rule name.
pub const RULE: &str = "merge-float";

/// Numeric classification of an operand or assignment target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NumClass {
    Int,
    Float,
    Unknown,
}

/// Runs the pass over the whole workspace.
pub fn run(units: &[FileUnit], sym: &SymbolIndex, graph: &CallGraph) -> Vec<WsFinding> {
    // First float-accumulation evidence per function, for the transitive
    // walk from merge closures into named merge functions.
    let fn_evidence: Vec<Option<String>> = sym
        .fns
        .iter()
        .map(|f| {
            let (lo, hi) = f.body?;
            if hi <= lo + 1 {
                return None;
            }
            evidence_in(&units[f.file], (lo + 1, hi - 1))
        })
        .collect();

    let mut out = Vec::new();
    for (fi, u) in units.iter().enumerate() {
        let code = u.code();
        let n = u.ctx.code.len();
        for k in 0..n {
            if !code.is_ident(k, "par_map_reduce")
                || !code.is_punct(k + 1, '(')
                || (k > 0 && code.is_ident(k - 1, "fn"))
                || u.ctx.test_mask[u.ctx.code[k]]
            {
                continue;
            }
            let args = split_args(&code, k + 1);
            let Some(&merge) = args.get(3) else { continue };
            let owner = sym.enclosing_fn(fi, k);
            let (module, impl_type) = match owner {
                Some(o) => (sym.fns[o].module.clone(), sym.fns[o].impl_type.clone()),
                None => continue,
            };
            let anchor = u.ctx.code[merge.0];
            if let Some(body) = closure_body(&code, merge) {
                if let Some(evidence) = evidence_in(u, body) {
                    out.push(finding(fi, anchor, &evidence, Vec::new()));
                    continue;
                }
                // No direct evidence — walk the functions the closure
                // calls; first float-accumulating reachable fn wins.
                for site in collect_calls(u, sym, fi, &module, impl_type.as_deref(), body) {
                    if let Some((chain, evidence, via)) =
                        reach_evidence(graph, &fn_evidence, sym, &site.callees)
                    {
                        let what = format!(
                            "merge closure calls `{}`, and {evidence} in `{via}`",
                            site.name
                        );
                        out.push(finding(fi, anchor, &what, frames_for(sym, units, &chain)));
                        break;
                    }
                }
            } else if let Some(callees) =
                path_arg_fns(u, sym, fi, &module, impl_type.as_deref(), merge)
            {
                if let Some((chain, evidence, via)) =
                    reach_evidence(graph, &fn_evidence, sym, &callees)
                {
                    let what = format!("merge function reaches `{via}`, where {evidence}");
                    out.push(finding(fi, anchor, &what, frames_for(sym, units, &chain)));
                }
            }
        }
    }
    out
}

/// Builds the one-per-site finding.
fn finding(file: usize, tok: usize, evidence: &str, chain: Vec<super::Frame>) -> WsFinding {
    WsFinding {
        file,
        rule: RULE,
        tok,
        message: format!(
            "par_map_reduce merge accumulates floats ({evidence}); the fold runs in \
             chunk-index order, so results drift with CM_THREADS — merge integer \
             sufficient statistics instead, or waive with the reason the order is pinned"
        ),
        chain,
    }
}

/// First callee from which a float-accumulating function is reachable.
fn reach_evidence(
    graph: &CallGraph,
    fn_evidence: &[Option<String>],
    sym: &SymbolIndex,
    callees: &[usize],
) -> Option<(Vec<usize>, String, String)> {
    for &c in callees {
        if let Some(chain) = graph.find_reachable(c, |f| fn_evidence[f].is_some()) {
            let hit = *chain.last()?;
            let evidence = fn_evidence[hit].clone()?;
            return Some((chain, evidence, sym.fns[hit].name.clone()));
        }
    }
    None
}

/// First float-accumulation evidence in the code-view range, rendered as
/// a short description.
fn evidence_in(u: &FileUnit, range: (usize, usize)) -> Option<String> {
    let code = u.code();
    for k in range.0..=range.1 {
        let tok = code.at(k)?;
        // Compound assigns: `+=`, `-=`, `*=`, `/=`.
        if tok.kind == TokKind::Punct {
            for op in ['+', '-', '*', '/'] {
                if !(code.is_punct(k, op) && k < range.1 && code.is_punct(k + 1, '=')) {
                    continue;
                }
                let target = assign_target(u, &code, range.0, k);
                let verdict = match target.1 {
                    NumClass::Int => None,
                    NumClass::Float => Some(format!("`{op}=` on float-typed `{}`", target.0)),
                    NumClass::Unknown => match operand_class(u, &code, k + 2, range.1) {
                        NumClass::Int => None,
                        _ => Some(format!("`{op}=` on `{}`", target.0)),
                    },
                };
                if let Some(v) = verdict {
                    return Some(v);
                }
            }
            // Binary `+` with a float-evidenced operand (skip `+=`,
            // handled above, and `->`/generic punctuation by requiring a
            // float operand explicitly).
            if code.is_punct(k, '+') && !code.is_punct(k + 1, '=') {
                let lhs =
                    if k > range.0 { operand_class_at(u, &code, k - 1) } else { NumClass::Unknown };
                let rhs = operand_class(u, &code, k + 1, range.1);
                if lhs == NumClass::Float || rhs == NumClass::Float {
                    return Some("float `+` in the fold".to_owned());
                }
            }
            continue;
        }
        if tok.kind != TokKind::Ident {
            continue;
        }
        // `.fold(0.0, …)` / `.fold(0f64, …)`.
        if tok.is_ident("fold") && code.is_punct(k + 1, '(') {
            if let Some(init) = code.at(k + 2) {
                if init.kind == TokKind::Num && is_float_literal(&init.text) {
                    return Some("float-seeded `.fold(…)`".to_owned());
                }
            }
        }
        // `.sum::<f64>()` / `.sum::<f32>()`.
        if tok.is_ident("sum")
            && code.is_punct(k + 1, ':')
            && code.is_punct(k + 2, ':')
            && code.is_punct(k + 3, '<')
            && (code.is_ident(k + 4, "f64") || code.is_ident(k + 4, "f32"))
        {
            return Some("`.sum::<f64>()`".to_owned());
        }
    }
    None
}

/// The name and class of the target of a compound assign whose operator
/// sits at code index `op`: walks back over one index expression
/// (`counts[c] +=`) or a deref (`*a +=`) to the target identifier.
fn assign_target(u: &FileUnit, code: &Code<'_>, lo: usize, op: usize) -> (String, NumClass) {
    let mut j = op as isize - 1;
    if j >= lo as isize && code.is_punct(j as usize, ']') {
        let mut depth = 0i64;
        while j >= lo as isize {
            if code.is_punct(j as usize, ']') {
                depth += 1;
            } else if code.is_punct(j as usize, '[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j -= 1;
        }
        j -= 1;
    }
    if j < lo as isize {
        return ("?".to_owned(), NumClass::Unknown);
    }
    match code.at(j as usize) {
        Some(t) if t.kind == TokKind::Ident => {
            let name = t.ident_text().to_owned();
            let class = classify_name(u, &name);
            (name, class)
        }
        _ => ("?".to_owned(), NumClass::Unknown),
    }
}

/// Class of the operand starting at code index `k` (derefs and borrows
/// skipped).
fn operand_class(u: &FileUnit, code: &Code<'_>, mut k: usize, hi: usize) -> NumClass {
    while k <= hi && (code.is_punct(k, '*') || code.is_punct(k, '&')) {
        k += 1;
    }
    if k > hi {
        return NumClass::Unknown;
    }
    operand_class_at(u, code, k)
}

/// Class of the single token at code index `k`.
fn operand_class_at(u: &FileUnit, code: &Code<'_>, k: usize) -> NumClass {
    match code.at(k) {
        Some(t) if t.kind == TokKind::Num => {
            if is_float_literal(&t.text) {
                NumClass::Float
            } else {
                NumClass::Int
            }
        }
        Some(t) if t.kind == TokKind::Ident => classify_name(u, t.ident_text()),
        _ => NumClass::Unknown,
    }
}

/// Looks a name up in the file's typed-binding sets.
fn classify_name(u: &FileUnit, name: &str) -> NumClass {
    if u.ctx.int_typed.contains(name) {
        NumClass::Int
    } else if u.ctx.float_typed.contains(name) {
        NumClass::Float
    } else {
        NumClass::Unknown
    }
}

/// True for float-shaped numeric literal text: a decimal point, an
/// `f32`/`f64` suffix, or a decimal exponent.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x") || text.starts_with("0X") {
        return false;
    }
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || text.contains('e')
        || text.contains('E')
}
