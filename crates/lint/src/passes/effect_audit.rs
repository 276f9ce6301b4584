//! `effect-audit`: ambient effects outside the sanctioned modules.
//!
//! Every direct effect site (env/fs/clock/entropy — see
//! [`crate::effects`]) inside a non-test function body is a finding
//! unless its file is sanctioned for that effect kind by
//! `specs/lint_effects.json`. Each finding renders the full call chain
//! from a workspace entry point (a function nobody calls) down to the
//! function holding the effect, so a violation buried three calls under
//! `curate_streamed_with` is self-explaining at the report line.
//!
//! Sanctioned modules are *boundaries*: their effects neither report nor
//! propagate to callers — calling `ParConfig::from_env` from anywhere is
//! fine because the env read is owned by the sanctioned module, which is
//! exactly the discipline the equivalence suites assume.

use super::{frames_for, WsFinding};
use crate::callgraph::CallGraph;
use crate::effects::{effects_in, EffectSanctions};
use crate::symbols::{FileUnit, SymbolIndex};

/// Rule name.
pub const RULE: &str = "effect-audit";

/// Runs the pass over the whole workspace.
pub fn run(
    units: &[FileUnit],
    sym: &SymbolIndex,
    graph: &CallGraph,
    sanctions: &EffectSanctions,
) -> Vec<WsFinding> {
    let mut out = Vec::new();
    for (fi, u) in units.iter().enumerate() {
        let n = u.ctx.code.len();
        if n == 0 {
            continue;
        }
        for site in effects_in(u, (0, n - 1)) {
            if sanctions.sanctioned(site.kind, &u.path) {
                continue;
            }
            // Anchor to the innermost non-test function; effects outside
            // any function body (use statements, const items) are not
            // call-reachable and are left to the token bans.
            let code_idx = u.ctx.code.iter().position(|&t| t == site.tok);
            let Some(code_idx) = code_idx else { continue };
            let Some(owner) = sym.enclosing_fn(fi, code_idx) else { continue };
            let chain = graph.chain_to_root(owner);
            out.push(WsFinding {
                file: fi,
                rule: RULE,
                tok: site.tok,
                message: format!(
                    "ambient {} effect `{}` in `{}` outside the modules sanctioned by \
                     specs/lint_effects.json; {}",
                    site.kind,
                    site.what,
                    sym.fns[owner].name,
                    site.kind.advice()
                ),
                chain: frames_for(sym, units, &chain),
            });
        }
    }
    out
}
