//! Ambient-effect detection and the declarative sanction list.
//!
//! An *ambient effect* is anything that makes a function's result depend
//! on state outside its arguments: environment reads, filesystem access,
//! wall-clock reads, and ambient entropy. The determinism discipline —
//! serial ≡ parallel, sharded ≡ resident, crash + resume bit-identity —
//! holds only if these effects stay behind a handful of sanctioned
//! modules (config parsing, the snapshot store, the cm-faults clock).
//!
//! [`effects_in`] finds direct effect sites in a token range;
//! [`EffectSanctions`] carries the per-kind sanctioned path prefixes,
//! loaded from `specs/lint_effects.json` (validated separately by
//! cm-check's `lint-spec-*` rules) rather than hard-coded.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use cm_json::Json;

use crate::lexer::TokKind;
use crate::symbols::FileUnit;

/// The effect classes the audit tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffectKind {
    /// Environment reads/writes (`std::env::var`, `set_var`, `args`).
    Env,
    /// Filesystem access (`std::fs`, `File::open`, `OpenOptions`).
    Fs,
    /// Wall-clock reads (`Instant::now`, `SystemTime::now`).
    Clock,
    /// Ambient entropy (`RandomState`, `thread_rng`, `from_entropy`).
    Entropy,
}

impl EffectKind {
    /// Stable kebab-ish name used in messages and the spec file.
    pub fn name(self) -> &'static str {
        match self {
            EffectKind::Env => "env",
            EffectKind::Fs => "fs",
            EffectKind::Clock => "clock",
            EffectKind::Entropy => "entropy",
        }
    }

    /// What disciplined code does instead.
    pub fn advice(self) -> &'static str {
        match self {
            EffectKind::Env => "parse configuration once in a module sanctioned by specs/lint_effects.json and pass values down",
            EffectKind::Fs => "route io through a sanctioned module (cm-serve snapshot, bench/spec loaders)",
            EffectKind::Clock => "take time through cm-faults Stopwatch/SimClock",
            EffectKind::Entropy => "thread a seeded RNG through configuration",
        }
    }
}

impl fmt::Display for EffectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One direct effect site.
#[derive(Debug)]
pub struct EffectSite {
    /// Effect class.
    pub kind: EffectKind,
    /// Token-stream index of the head token (position anchor).
    pub tok: usize,
    /// The matched call as written, e.g. `env::var`.
    pub what: String,
}

/// `env::<name>` functions that read or mutate the environment.
const ENV_FNS: &[&str] = &["var", "vars", "var_os", "args", "args_os", "set_var", "remove_var"];

/// `File::<name>` constructors that open filesystem handles.
const FILE_FNS: &[&str] = &["open", "create", "create_new", "options"];

/// Finds every direct effect site in the code-view range
/// `[range.0, range.1]` of `u`. Matching is token-sequence based (so
/// cross-line and comment-interleaved spellings match) and name-based —
/// the same over-approximation contract as the rest of the engine.
pub fn effects_in(u: &FileUnit, range: (usize, usize)) -> Vec<EffectSite> {
    let code = u.code();
    let mut out = Vec::new();
    for k in range.0..=range.1 {
        let Some(tok) = code.at(k) else { break };
        if tok.kind != TokKind::Ident {
            continue;
        }
        // Skip path tails: `std::env::var` anchors at `env`, not `var`,
        // but `env` itself is a tail there — anchor at the *effect
        // module* segment regardless of what precedes it.
        let sep = code.is_punct(k + 1, ':') && code.is_punct(k + 2, ':');
        let tail = if sep {
            code.at(k + 3).filter(|t| t.kind == TokKind::Ident).map(|t| t.ident_text())
        } else {
            None
        };
        let anchor = u.ctx.code[k];
        match tok.ident_text() {
            "env" => {
                if let Some(t) = tail {
                    if ENV_FNS.contains(&t) {
                        out.push(EffectSite {
                            kind: EffectKind::Env,
                            tok: anchor,
                            what: format!("env::{t}"),
                        });
                    } else if t == "temp_dir" {
                        out.push(EffectSite {
                            kind: EffectKind::Fs,
                            tok: anchor,
                            what: "env::temp_dir".to_owned(),
                        });
                    }
                }
            }
            "fs" => {
                if let Some(t) = tail {
                    out.push(EffectSite {
                        kind: EffectKind::Fs,
                        tok: anchor,
                        what: format!("fs::{t}"),
                    });
                }
            }
            "File" => {
                if let Some(t) = tail {
                    if FILE_FNS.contains(&t) {
                        out.push(EffectSite {
                            kind: EffectKind::Fs,
                            tok: anchor,
                            what: format!("File::{t}"),
                        });
                    }
                }
            }
            "OpenOptions" if tail == Some("new") => {
                out.push(EffectSite {
                    kind: EffectKind::Fs,
                    tok: anchor,
                    what: "OpenOptions::new".to_owned(),
                });
            }
            "Instant" | "SystemTime" if tail == Some("now") => {
                out.push(EffectSite {
                    kind: EffectKind::Clock,
                    tok: anchor,
                    what: format!("{}::now", tok.ident_text()),
                });
            }
            "RandomState" if tail == Some("new") => {
                out.push(EffectSite {
                    kind: EffectKind::Entropy,
                    tok: anchor,
                    what: "RandomState::new".to_owned(),
                });
            }
            "thread_rng" if code.is_punct(k + 1, '(') => {
                out.push(EffectSite {
                    kind: EffectKind::Entropy,
                    tok: anchor,
                    what: "thread_rng()".to_owned(),
                });
            }
            "from_entropy" if code.is_punct(k + 1, '(') => {
                out.push(EffectSite {
                    kind: EffectKind::Entropy,
                    tok: anchor,
                    what: "from_entropy()".to_owned(),
                });
            }
            _ => {}
        }
    }
    out
}

/// Per-kind sanctioned path prefixes, loaded from
/// `specs/lint_effects.json`.
#[derive(Debug, Clone, Default)]
pub struct EffectSanctions {
    /// Paths allowed to read/mutate the environment (config parsing).
    pub env: Vec<PathBuf>,
    /// Paths allowed filesystem access (snapshot store, loaders, tools).
    pub fs: Vec<PathBuf>,
    /// Paths allowed to read the wall clock (the cm-faults boundary).
    pub clock: Vec<PathBuf>,
    /// Paths allowed ambient entropy (none in this workspace).
    pub entropy: Vec<PathBuf>,
}

impl EffectSanctions {
    /// Parses the spec JSON. This is a tolerant structural read — schema
    /// validation with spans is cm-check's `lint-spec-*` job; here a
    /// malformed file is simply an error.
    pub fn parse(source: &str) -> Result<Self, String> {
        let doc = Json::parse(source).map_err(|e| format!("specs/lint_effects.json: {e}"))?;
        let sanctions = doc
            .get("sanctions")
            .ok_or_else(|| "specs/lint_effects.json: missing \"sanctions\"".to_owned())?;
        let kind = |key: &str| -> Result<Vec<PathBuf>, String> {
            let mut out = Vec::new();
            if let Some(arr) = sanctions.get(key).and_then(Json::as_arr) {
                for entry in arr {
                    let path = entry.get("path").and_then(Json::as_str).ok_or_else(|| {
                        format!("specs/lint_effects.json: \"{key}\" entry without a \"path\"")
                    })?;
                    out.push(PathBuf::from(path));
                }
            }
            Ok(out)
        };
        Ok(EffectSanctions {
            env: kind("env")?,
            fs: kind("fs")?,
            clock: kind("clock")?,
            entropy: kind("entropy")?,
        })
    }

    /// Loads and parses the spec file at `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let source = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&source)
    }

    /// True when `file` is sanctioned for effects of `kind` (path-prefix
    /// match against the workspace-relative path).
    pub fn sanctioned(&self, kind: EffectKind, file: &Path) -> bool {
        let list = match kind {
            EffectKind::Env => &self.env,
            EffectKind::Fs => &self.fs,
            EffectKind::Clock => &self.clock,
            EffectKind::Entropy => &self.entropy,
        };
        list.iter().any(|p| file.starts_with(p))
    }
}
