//! Encoding of the common feature space into the models' input layout.
//!
//! The discriminative models (§5) read rows of the shared layout as
//! compressed sparse rows ([`SparseRows`]): the layout is sparse by
//! construction, because a modality leaves empty the features it lacks.
//! The encoder is *fitted* on training tables (to learn numeric
//! standardization statistics and categorical widths) and then applied to
//! any table with the same schema, so train/validation/test and
//! old/new-modality tables share one layout — the mechanical core of early
//! fusion.

use cm_linalg::SparseRows;

use crate::error::{CmError, CmResult, ErrorKind};
use crate::table::FeatureTable;
use crate::value::FeatureKind;

/// Per-source-column slice of the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseSlot {
    /// Source column in the [`FeatureTable`].
    pub source_column: usize,
    /// First output column.
    pub offset: usize,
    /// Number of value columns (excluding the missing indicator).
    pub width: usize,
    /// Output column holding the missing indicator (1.0 = missing).
    pub missing_indicator: usize,
}

/// The fitted mapping from table columns to output columns.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayout {
    slots: Vec<DenseSlot>,
    total_width: usize,
}

impl DenseLayout {
    /// Total output width.
    pub fn width(&self) -> usize {
        self.total_width
    }

    /// Slot metadata per encoded source column.
    pub fn slots(&self) -> &[DenseSlot] {
        &self.slots
    }
}

#[derive(Debug, Clone)]
enum SlotCodec {
    /// mean/std fitted over *present* training values.
    Numeric { mean: f64, std: f64 },
    /// Multi-hot over `width` category ids; ids >= width are dropped.
    Categorical { width: usize },
    /// Raw embedding of width `dim`.
    Embedding { dim: usize },
}

/// Fitted encoder; see the module docs.
#[derive(Debug, Clone)]
pub struct DenseEncoder {
    layout: DenseLayout,
    codecs: Vec<SlotCodec>,
}

impl DenseEncoder {
    /// Fits an encoder over the selected `columns` of the `train` tables,
    /// read in place and in order, as if they were one table.
    ///
    /// Numeric columns are standardized with statistics of their present
    /// values; categorical widths come from the schema vocabulary, widened if
    /// the training data contains larger ids (the simulator interns ids lazily).
    /// The tables share the first one's schema.
    ///
    /// # Errors
    /// Returns [`ErrorKind::InvalidConfig`] if `train` is empty and
    /// [`ErrorKind::OutOfBounds`] if a column index is out of range for the
    /// schema.
    pub fn fit(train: &[&FeatureTable], columns: &[usize]) -> CmResult<Self> {
        let Some(first) = train.first() else {
            return Err(CmError::new(
                ErrorKind::InvalidConfig,
                "DenseEncoder::fit",
                "need at least one table to fit on".to_owned(),
            ));
        };
        let schema = first.schema();
        // Every present, finite value of numeric column `col`, in row order.
        let finite = |col: usize| {
            train.iter().flat_map(move |t| {
                (0..t.len()).filter_map(move |r| t.numeric(r, col).filter(|v| v.is_finite()))
            })
        };
        let mut codecs = Vec::with_capacity(columns.len());
        let mut slots = Vec::with_capacity(columns.len());
        let mut offset = 0usize;
        for &col in columns {
            let def = schema.def(col).ok_or_else(|| {
                CmError::new(
                    ErrorKind::OutOfBounds,
                    "DenseEncoder::fit",
                    format!("column {col} out of range for schema of width {}", schema.len()),
                )
            })?;
            let (codec, width) = match def.kind {
                FeatureKind::Numeric => {
                    // Non-finite values are masked like missing ones: one
                    // NaN must not poison the column's statistics.
                    let mut n = 0usize;
                    let mut sum = 0.0f64;
                    for v in finite(col) {
                        n += 1;
                        sum += v;
                    }
                    let mean = if n > 0 { sum / n as f64 } else { 0.0 };
                    let mut var = 0.0f64;
                    for v in finite(col) {
                        var += (v - mean).powi(2);
                    }
                    let std = if n > 1 { (var / n as f64).sqrt() } else { 0.0 };
                    let std = if std < 1e-9 { 1.0 } else { std };
                    (SlotCodec::Numeric { mean, std }, 1)
                }
                FeatureKind::Categorical => {
                    let mut width = def.vocab.len();
                    for t in train {
                        for r in 0..t.len() {
                            if let Some(&max) = t.categorical(r, col).and_then(<[u32]>::last) {
                                width = width.max(max as usize + 1);
                            }
                        }
                    }
                    (SlotCodec::Categorical { width }, width)
                }
                FeatureKind::Embedding { dim } => (SlotCodec::Embedding { dim }, dim),
            };
            slots.push(DenseSlot {
                source_column: col,
                offset,
                width,
                missing_indicator: offset + width,
            });
            offset += width + 1;
            codecs.push(codec);
        }
        Ok(Self { layout: DenseLayout { slots, total_width: offset }, codecs })
    }

    /// The fitted layout.
    pub fn layout(&self) -> &DenseLayout {
        &self.layout
    }

    /// Encodes a table into sparse rows of the fitted layout.
    ///
    /// A present numeric value is stored even when it standardizes to 0; a
    /// present embedding stores all its components; a categorical set
    /// stores a 1.0 per in-vocabulary id. A missing or non-finite value
    /// stores only its slot's missing indicator. Slots are laid out in
    /// ascending column order, so each row's indices ascend.
    pub fn transform(&self, table: &FeatureTable) -> SparseRows {
        let mut out = SparseRows::with_capacity(self.layout.total_width, table.len(), 0);
        for r in 0..table.len() {
            for (slot, codec) in self.layout.slots.iter().zip(&self.codecs) {
                let col = slot.source_column;
                match codec {
                    SlotCodec::Numeric { mean, std } => {
                        match table.numeric(r, col).filter(|v| v.is_finite()) {
                            Some(v) => out.push(slot.offset, ((v - mean) / std) as f32),
                            // Missing and non-finite alike: imputed zero
                            // plus a hot missing indicator.
                            None => out.push(slot.missing_indicator, 1.0),
                        }
                    }
                    SlotCodec::Categorical { width } => match table.categorical(r, col) {
                        Some(ids) => {
                            // Ids are sorted; a repeat is one hot column.
                            let mut last = None;
                            for &id in ids {
                                if (id as usize) < *width && last != Some(id) {
                                    out.push(slot.offset + id as usize, 1.0);
                                    last = Some(id);
                                }
                            }
                        }
                        None => out.push(slot.missing_indicator, 1.0),
                    },
                    SlotCodec::Embedding { dim } => {
                        match table.embedding(r, col).filter(|e| e.iter().all(|x| x.is_finite())) {
                            Some(e) => {
                                debug_assert_eq!(e.len(), *dim, "embedding width");
                                for (k, &v) in e.iter().enumerate() {
                                    out.push(slot.offset + k, v);
                                }
                            }
                            None => out.push(slot.missing_indicator, 1.0),
                        }
                    }
                }
            }
            out.finish_row();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::schema::{FeatureDef, FeatureSchema, FeatureSet, ServingMode};
    use crate::value::{CatSet, FeatureValue};
    use crate::vocab::Vocabulary;

    fn table() -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::numeric("n", FeatureSet::A, ServingMode::Servable),
            FeatureDef::categorical(
                "c",
                FeatureSet::B,
                ServingMode::Servable,
                Vocabulary::from_names(["x", "y", "z"]),
            ),
            FeatureDef::embedding("e", 2, FeatureSet::ModalitySpecific, ServingMode::Servable),
        ]));
        let mut t = FeatureTable::new(schema);
        t.push_row(&[
            FeatureValue::Numeric(1.0),
            FeatureValue::Categorical(CatSet::from_ids(vec![0, 2])),
            FeatureValue::Embedding(vec![0.5, -0.5]),
        ]);
        t.push_row(&[FeatureValue::Numeric(3.0), FeatureValue::Missing, FeatureValue::Missing]);
        t
    }

    #[test]
    fn layout_has_expected_widths() {
        let t = table();
        let enc = DenseEncoder::fit(&[&t], &[0, 1, 2]).unwrap();
        // numeric: 1+1, categorical: 3+1, embedding: 2+1
        assert_eq!(enc.layout().width(), 2 + 4 + 3);
        let slots = enc.layout().slots();
        assert_eq!(slots[0].width, 1);
        assert_eq!(slots[1].width, 3);
        assert_eq!(slots[2].width, 2);
        assert_eq!(slots[1].offset, 2);
        assert_eq!(slots[1].missing_indicator, 5);
    }

    #[test]
    fn numeric_is_standardized_and_missing_flagged() {
        let t = table();
        let enc = DenseEncoder::fit(&[&t], &[0, 1, 2]).unwrap();
        let m = enc.transform(&t).to_dense();
        // mean 2, std 1 -> values -1 and 1
        assert!((m[(0, 0)] + 1.0).abs() < 1e-6);
        assert!((m[(1, 0)] - 1.0).abs() < 1e-6);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m[(1, 1)], 0.0); // numeric present in both rows
    }

    #[test]
    fn categorical_multi_hot_and_missing() {
        let t = table();
        let enc = DenseEncoder::fit(&[&t], &[0, 1, 2]).unwrap();
        let m = enc.transform(&t).to_dense();
        // row 0: ids {0,2} -> columns 2 and 4 hot, 3 cold
        assert_eq!(m[(0, 2)], 1.0);
        assert_eq!(m[(0, 3)], 0.0);
        assert_eq!(m[(0, 4)], 1.0);
        assert_eq!(m[(0, 5)], 0.0);
        // row 1: missing -> all cold, indicator hot
        assert_eq!(m[(1, 2)], 0.0);
        assert_eq!(m[(1, 5)], 1.0);
    }

    #[test]
    fn embedding_copied_and_missing_zeroed() {
        let t = table();
        let enc = DenseEncoder::fit(&[&t], &[0, 1, 2]).unwrap();
        let m = enc.transform(&t).to_dense();
        assert_eq!(m[(0, 6)], 0.5);
        assert_eq!(m[(0, 7)], -0.5);
        assert_eq!(m[(0, 8)], 0.0);
        assert_eq!(m[(1, 6)], 0.0);
        assert_eq!(m[(1, 8)], 1.0);
    }

    #[test]
    fn column_subset_changes_layout() {
        let t = table();
        let enc = DenseEncoder::fit(&[&t], &[1]).unwrap();
        assert_eq!(enc.layout().width(), 4);
        let m = enc.transform(&t).to_dense();
        assert_eq!(m.cols(), 4);
        assert_eq!(m[(0, 0)], 1.0);
    }

    #[test]
    fn transform_applies_train_stats_to_new_table() {
        let train = table();
        let enc = DenseEncoder::fit(&[&train], &[0]).unwrap();
        let mut test = FeatureTable::new(Arc::clone(train.schema()));
        test.push_row(&[FeatureValue::Numeric(2.0), FeatureValue::Missing, FeatureValue::Missing]);
        let m = enc.transform(&test).to_dense();
        assert!((m[(0, 0)]).abs() < 1e-6); // (2-2)/1
    }

    #[test]
    fn non_finite_numerics_are_masked_like_missing() {
        let train = table();
        let enc = DenseEncoder::fit(&[&train], &[0, 2]).unwrap();
        let mut test = FeatureTable::new(Arc::clone(train.schema()));
        // push_row (the unchecked legacy path) lets the NaN through; the
        // encoder must still mask it rather than poison the matrix.
        test.push_row(&[
            FeatureValue::Numeric(f64::NAN),
            FeatureValue::Missing,
            FeatureValue::Embedding(vec![f32::NAN, 0.0]),
        ]);
        let m = enc.transform(&test).to_dense();
        assert!(m.as_slice().iter().all(|v| v.is_finite()), "no NaN may survive encoding");
        assert_eq!(m[(0, 1)], 1.0, "numeric missing indicator");
        assert_eq!(m[(0, 4)], 1.0, "embedding missing indicator");
    }

    #[test]
    fn fit_ignores_non_finite_training_values() {
        let mut t = table();
        t.push_row(&[
            FeatureValue::Numeric(f64::INFINITY),
            FeatureValue::Missing,
            FeatureValue::Missing,
        ]);
        let enc = DenseEncoder::fit(&[&t], &[0]).unwrap();
        let m = enc.transform(&t).to_dense();
        // Stats still come from {1.0, 3.0}: mean 2, std 1.
        assert!((m[(0, 0)] + 1.0).abs() < 1e-6);
        assert!((m[(1, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn out_of_vocab_ids_are_dropped() {
        let train = table();
        let enc = DenseEncoder::fit(&[&train], &[1]).unwrap();
        let mut test = FeatureTable::new(Arc::clone(train.schema()));
        test.push_row(&[
            FeatureValue::Missing,
            FeatureValue::Categorical(CatSet::from_ids(vec![7])),
            FeatureValue::Missing,
        ]);
        let m = enc.transform(&test).to_dense();
        assert!(m.row(0)[..3].iter().all(|&v| v == 0.0));
        assert_eq!(m[(0, 3)], 0.0); // present, so no missing flag
    }

    #[test]
    fn fit_over_several_tables_matches_fit_over_their_concatenation() {
        let a = table();
        let mut b = table();
        b.push_row(&[
            FeatureValue::Numeric(7.5),
            FeatureValue::Categorical(CatSet::from_ids(vec![5])),
            FeatureValue::Embedding(vec![1.0, 2.0]),
        ]);
        let mut joined = a.clone();
        joined.extend_from(&b);
        let cols = [0, 1, 2];
        let split = DenseEncoder::fit(&[&a, &b], &cols).unwrap();
        let whole = DenseEncoder::fit(&[&joined], &cols).unwrap();
        assert_eq!(split.layout(), whole.layout());
        assert_eq!(split.layout().slots()[1].width, 6, "width widened by the second table");
        assert_eq!(split.transform(&joined), whole.transform(&joined));
    }

    #[test]
    fn fit_rejects_an_empty_table_list() {
        let err = DenseEncoder::fit(&[], &[0]).unwrap_err();
        assert_eq!(err.kind, ErrorKind::InvalidConfig);
    }

    #[test]
    fn rows_store_only_present_entries_in_ascending_order() {
        let t = table();
        let enc = DenseEncoder::fit(&[&t], &[0, 1, 2]).unwrap();
        let x = enc.transform(&t);
        assert_eq!(x.cols(), enc.layout().width());
        // Row 0: numeric, two categories, two embedding components.
        assert_eq!(x.row(0).0, &[0, 2, 4, 6, 7]);
        // Row 1: numeric, then the categorical and embedding indicators.
        assert_eq!(x.row(1).0, &[0, 5, 8]);
    }

    #[test]
    fn a_value_at_the_mean_is_a_stored_zero() {
        let train = table();
        let enc = DenseEncoder::fit(&[&train], &[0]).unwrap();
        let mut test = FeatureTable::new(Arc::clone(train.schema()));
        test.push_row(&[FeatureValue::Numeric(2.0), FeatureValue::Missing, FeatureValue::Missing]);
        let x = enc.transform(&test);
        assert_eq!(x.row(0), (&[0u32][..], &[0.0f32][..]));
    }
}
