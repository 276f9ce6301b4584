//! Test-only dense reference encoder: the shared layout written as plain
//! loops into a dense matrix, with its own fit over the concatenated
//! tables and its own masking. It shares no code with the library's
//! encoder, which emits sparse rows, so each pins the other.
//!
//! Included by path from `tests/kernel_equivalence.rs`.

use std::sync::Arc;

use cm_featurespace::{FeatureKind, FeatureSet, FeatureTable};
use cm_linalg::Matrix;

enum Codec {
    Numeric { mean: f64, std: f64 },
    Categorical { width: usize },
    Embedding { dim: usize },
}

/// One source column's slice of the layout.
struct Slot {
    column: usize,
    offset: usize,
    width: usize,
    codec: Codec,
}

/// A fitted reference encoder.
pub struct DenseOracle {
    slots: Vec<Slot>,
    width: usize,
}

impl DenseOracle {
    /// Fits over the concatenation of `tables`, restricted to `columns`.
    pub fn fit(tables: &[&FeatureTable], columns: &[usize]) -> Self {
        let mut all = FeatureTable::new(Arc::clone(tables[0].schema()));
        for t in tables {
            all.extend_from(t);
        }
        let schema = all.schema();
        let mut slots = Vec::new();
        let mut offset = 0;
        for &column in columns {
            let def = schema.def(column).unwrap_or_else(|| panic!("column {column}"));
            let (codec, width) = match def.kind {
                FeatureKind::Numeric => {
                    let present: Vec<f64> = (0..all.len())
                        .filter_map(|r| all.numeric(r, column))
                        .filter(|v| v.is_finite())
                        .collect();
                    let n = present.len();
                    let mut mean = 0.0;
                    if n > 0 {
                        let mut sum = 0.0;
                        for v in &present {
                            sum += v;
                        }
                        mean = sum / n as f64;
                    }
                    let mut var = 0.0;
                    for v in &present {
                        var += (v - mean).powi(2);
                    }
                    let std = if n > 1 { (var / n as f64).sqrt() } else { 0.0 };
                    (Codec::Numeric { mean, std: if std < 1e-9 { 1.0 } else { std } }, 1)
                }
                FeatureKind::Categorical => {
                    let mut width = def.vocab.len();
                    for r in 0..all.len() {
                        for &id in all.categorical(r, column).unwrap_or(&[]) {
                            width = width.max(id as usize + 1);
                        }
                    }
                    (Codec::Categorical { width }, width)
                }
                FeatureKind::Embedding { dim } => (Codec::Embedding { dim }, dim),
            };
            slots.push(Slot { column, offset, width, codec });
            offset += width + 1;
        }
        Self { slots, width: offset }
    }

    /// The fitted mean of numeric source column `column`.
    pub fn numeric_mean(&self, column: usize) -> f64 {
        self.slots
            .iter()
            .find_map(|s| match s.codec {
                Codec::Numeric { mean, .. } if s.column == column => Some(mean),
                _ => None,
            })
            .unwrap_or_else(|| panic!("column {column} is not an encoded numeric column"))
    }

    /// Encodes `table` densely, then marks missing every slot whose
    /// feature set is not in `allowed` (`None` masks nothing).
    pub fn encode(&self, table: &FeatureTable, allowed: Option<&[FeatureSet]>) -> Matrix {
        let schema = table.schema();
        let mut m = Matrix::zeros(table.len(), self.width);
        for r in 0..table.len() {
            let row = m.row_mut(r);
            for slot in &self.slots {
                let indicator = slot.offset + slot.width;
                let set = schema.def(slot.column).map(|d| d.set);
                if allowed.is_some_and(|a| set.is_some_and(|s| !a.contains(&s))) {
                    row[indicator] = 1.0;
                    continue;
                }
                match slot.codec {
                    Codec::Numeric { mean, std } => match table.numeric(r, slot.column) {
                        Some(v) if v.is_finite() => row[slot.offset] = ((v - mean) / std) as f32,
                        _ => row[indicator] = 1.0,
                    },
                    Codec::Categorical { width } => match table.categorical(r, slot.column) {
                        Some(ids) => {
                            for &id in ids {
                                if (id as usize) < width {
                                    row[slot.offset + id as usize] = 1.0;
                                }
                            }
                        }
                        None => row[indicator] = 1.0,
                    },
                    Codec::Embedding { dim } => match table.embedding(r, slot.column) {
                        Some(e) if e.iter().all(|x| x.is_finite()) => {
                            row[slot.offset..slot.offset + dim].copy_from_slice(e);
                        }
                        _ => row[indicator] = 1.0,
                    },
                }
            }
        }
        m
    }
}
