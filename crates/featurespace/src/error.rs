//! The workspace's shared error type.
//!
//! Library crates return [`CmError`] instead of panicking on data-dependent
//! paths (the `xtask lint` gate enforces this); the pre-execution validator
//! in `cm-check` reports rule violations with the same vocabulary of kinds.

/// Category of a pipeline error; stable, machine-matchable tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Two artifacts disagree about a schema (column count, feature kind).
    SchemaMismatch,
    /// Matrix/vector/table shapes disagree.
    ShapeMismatch,
    /// An index is outside its container or vocabulary.
    OutOfBounds,
    /// A configuration value is unusable (empty spec, bad dimension).
    InvalidConfig,
    /// A named entity does not exist.
    NotFound,
    /// A numeric invariant failed (NaN, non-finite, degenerate input).
    Numeric,
    /// A parallel worker panicked; the panic was captured by `cm-par` and
    /// surfaced as an error instead of aborting the pipeline.
    Panic,
}

impl ErrorKind {
    /// Short stable name, used in messages and validator rules.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::SchemaMismatch => "schema-mismatch",
            ErrorKind::ShapeMismatch => "shape-mismatch",
            ErrorKind::OutOfBounds => "out-of-bounds",
            ErrorKind::InvalidConfig => "invalid-config",
            ErrorKind::NotFound => "not-found",
            ErrorKind::Numeric => "numeric",
            ErrorKind::Panic => "panic",
        }
    }
}

/// An error from a pipeline library crate.
#[derive(Debug, Clone, PartialEq)]
pub struct CmError {
    /// What class of invariant failed.
    pub kind: ErrorKind,
    /// Where it was detected, e.g. `"FeatureTable::push_row"`.
    pub location: &'static str,
    /// Human-readable details.
    pub message: String,
}

impl CmError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, location: &'static str, message: impl Into<String>) -> Self {
        Self { kind, location, message: message.into() }
    }
}

impl std::fmt::Display for CmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]: {}", self.location, self.kind.name(), self.message)
    }
}

impl std::error::Error for CmError {}

impl From<cm_par::ParError> for CmError {
    fn from(e: cm_par::ParError) -> Self {
        CmError::new(ErrorKind::Panic, "cm_par", e.message().to_owned())
    }
}

/// Result alias used across the workspace.
pub type CmResult<T> = Result<T, CmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location_kind_message() {
        let e = CmError::new(ErrorKind::ShapeMismatch, "Matrix::from_vec", "2x3 vs 4x5");
        assert_eq!(e.to_string(), "Matrix::from_vec [shape-mismatch]: 2x3 vs 4x5");
    }

    #[test]
    fn kind_names_are_distinct() {
        let kinds = [
            ErrorKind::SchemaMismatch,
            ErrorKind::ShapeMismatch,
            ErrorKind::OutOfBounds,
            ErrorKind::InvalidConfig,
            ErrorKind::NotFound,
            ErrorKind::Numeric,
            ErrorKind::Panic,
        ];
        let names: std::collections::HashSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn par_errors_convert_to_cm_errors() {
        let par_err = cm_par::par_map(&cm_par::ParConfig::serial(), 2, |i| {
            assert!(i != 1, "captured panic");
            i
        })
        .unwrap_err();
        let e: CmError = par_err.into();
        assert_eq!(e.kind, ErrorKind::Panic);
        assert!(e.message.contains("captured panic"));
    }
}
