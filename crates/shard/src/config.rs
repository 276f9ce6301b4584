//! Shard sizing, the memory budget, and the accounting tracker.

use cm_featurespace::{CmError, CmResult, ErrorKind};
use cm_propagation::MemLedger;

/// Default segment size (rows) when `CM_SHARD_ROWS` is unset.
pub const DEFAULT_SHARD_ROWS: usize = 16_384;

/// Default memory budget (bytes) when `CM_MEM_BUDGET` is unset: 512 MiB.
pub const DEFAULT_MEM_BUDGET: usize = 512 << 20;

/// An explicit cap on bytes the streaming curation driver may hold
/// resident at once. Parsed from `CM_MEM_BUDGET` with optional binary
/// size suffixes (`k`/`m`/`g`, case-insensitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBudget {
    bytes: usize,
}

impl Default for MemBudget {
    fn default() -> Self {
        Self { bytes: DEFAULT_MEM_BUDGET }
    }
}

impl MemBudget {
    /// A budget of exactly `bytes`.
    pub fn bytes(bytes: usize) -> Self {
        Self { bytes }
    }

    /// The budget in bytes.
    pub fn limit(&self) -> usize {
        self.bytes
    }

    /// Reads `CM_MEM_BUDGET`, falling back to [`DEFAULT_MEM_BUDGET`].
    pub fn from_env() -> CmResult<Self> {
        match std::env::var("CM_MEM_BUDGET") {
            Ok(v) => Self::parse(&v),
            Err(_) => Ok(Self::default()),
        }
    }

    /// Parses a budget spec: a positive integer with an optional `k`, `m`,
    /// or `g` binary suffix (`"512m"`, `"2G"`, `"1048576"`).
    pub fn parse(spec: &str) -> CmResult<Self> {
        let s = spec.trim();
        let (digits, mult) = match s.char_indices().last() {
            Some((i, c)) if c.eq_ignore_ascii_case(&'k') => (&s[..i], 1usize << 10),
            Some((i, c)) if c.eq_ignore_ascii_case(&'m') => (&s[..i], 1usize << 20),
            Some((i, c)) if c.eq_ignore_ascii_case(&'g') => (&s[..i], 1usize << 30),
            _ => (s, 1usize),
        };
        let value: usize = digits.trim().parse().map_err(|_| {
            CmError::new(
                ErrorKind::InvalidConfig,
                "MemBudget::parse",
                format!("CM_MEM_BUDGET {spec:?} is not a size (want e.g. 512m, 2g, 1048576)"),
            )
        })?;
        let bytes = value.checked_mul(mult).ok_or_else(|| {
            CmError::new(
                ErrorKind::InvalidConfig,
                "MemBudget::parse",
                format!("CM_MEM_BUDGET {spec:?} overflows usize"),
            )
        })?;
        if bytes == 0 {
            return Err(CmError::new(
                ErrorKind::InvalidConfig,
                "MemBudget::parse",
                "CM_MEM_BUDGET must be positive",
            ));
        }
        Ok(Self { bytes })
    }
}

/// Sharding knobs for the streaming curation driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Rows per streamed segment (`CM_SHARD_ROWS`; always at least 1).
    pub segment_rows: usize,
    /// Resident-byte cap (`CM_MEM_BUDGET`).
    pub budget: MemBudget,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { segment_rows: DEFAULT_SHARD_ROWS, budget: MemBudget::default() }
    }
}

impl ShardConfig {
    /// A config with an explicit segment size and the default budget.
    pub fn with_segment_rows(segment_rows: usize) -> Self {
        Self { segment_rows: segment_rows.max(1), budget: MemBudget::default() }
    }

    /// Reads `CM_SHARD_ROWS` and `CM_MEM_BUDGET`, with defaults.
    pub fn from_env() -> CmResult<Self> {
        let segment_rows = match std::env::var("CM_SHARD_ROWS") {
            Ok(v) => v.trim().parse::<usize>().map_err(|_| {
                CmError::new(
                    ErrorKind::InvalidConfig,
                    "ShardConfig::from_env",
                    format!("CM_SHARD_ROWS {v:?} is not a row count"),
                )
            })?,
            Err(_) => DEFAULT_SHARD_ROWS,
        };
        if segment_rows == 0 {
            return Err(CmError::new(
                ErrorKind::InvalidConfig,
                "ShardConfig::from_env",
                "CM_SHARD_ROWS must be positive",
            ));
        }
        Ok(Self { segment_rows, budget: MemBudget::from_env()? })
    }
}

/// Charge/release accounting against a [`MemBudget`].
///
/// Every allocation the streaming driver holds (segment tables, vote
/// buffers, item bitsets, the anchor table, posteriors, the propagation
/// graph) is charged here before use and released when dropped; a charge
/// that would push the resident total past the budget fails instead of
/// silently exceeding it, so a successful run **proves** `peak <= budget`.
#[derive(Debug, Clone)]
pub struct MemTracker {
    budget: usize,
    current: usize,
    peak: usize,
}

impl MemTracker {
    /// A tracker enforcing `budget`.
    pub fn new(budget: MemBudget) -> Self {
        Self { budget: budget.limit(), current: 0, peak: 0 }
    }

    /// Charges `bytes` held resident for `what`. Fails (leaving the
    /// accounting unchanged) when the charge would exceed the budget.
    pub fn charge(&mut self, bytes: usize, what: &str) -> CmResult<()> {
        let next = self.current.saturating_add(bytes);
        if next > self.budget {
            return Err(CmError::new(
                ErrorKind::InvalidConfig,
                "MemTracker::charge",
                format!(
                    "memory budget exceeded: holding {} + {bytes} for {what} > CM_MEM_BUDGET {}",
                    self.current, self.budget
                ),
            ));
        }
        self.current = next;
        self.peak = self.peak.max(next);
        Ok(())
    }

    /// Releases `bytes` previously charged.
    pub fn release(&mut self, bytes: usize) {
        self.current = self.current.saturating_sub(bytes);
    }

    /// Bytes currently charged.
    pub fn current(&self) -> usize {
        self.current
    }

    /// High-water mark of charged bytes.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// The enforced budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }
}

impl MemLedger for MemTracker {
    fn charge(&mut self, bytes: usize, what: &str) -> CmResult<()> {
        MemTracker::charge(self, bytes, what)
    }

    fn release(&mut self, bytes: usize) {
        MemTracker::release(self, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_suffixes() {
        assert_eq!(MemBudget::parse("1024").unwrap().limit(), 1024);
        assert_eq!(MemBudget::parse("4k").unwrap().limit(), 4096);
        assert_eq!(MemBudget::parse("512M").unwrap().limit(), 512 << 20);
        assert_eq!(MemBudget::parse(" 2g ").unwrap().limit(), 2 << 30);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "12q", "-5", "0", "m", "1.5g"] {
            assert!(MemBudget::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tracker_tracks_peak_and_enforces_budget() {
        let mut t = MemTracker::new(MemBudget::bytes(100));
        t.charge(60, "a").unwrap();
        t.charge(30, "b").unwrap();
        assert_eq!(t.current(), 90);
        assert_eq!(t.peak(), 90);
        t.release(50);
        assert_eq!(t.current(), 40);
        assert_eq!(t.peak(), 90);
        // Over-budget charge fails and leaves accounting unchanged.
        assert!(t.charge(61, "c").is_err());
        assert_eq!(t.current(), 40);
        assert_eq!(t.peak(), 90);
        t.charge(60, "d").unwrap();
        assert_eq!(t.peak(), 100);
        assert!(t.peak() <= t.budget());
    }

    #[test]
    fn shard_config_default_matches_knob_defaults() {
        let cfg = ShardConfig::default();
        assert_eq!(cfg.segment_rows, DEFAULT_SHARD_ROWS);
        assert_eq!(cfg.budget.limit(), DEFAULT_MEM_BUDGET);
        assert_eq!(ShardConfig::with_segment_rows(0).segment_rows, 1);
    }
}
