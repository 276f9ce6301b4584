//! Columnar storage of feature vectors with explicit missingness.

use std::sync::Arc;

use crate::error::{CmError, CmResult, ErrorKind};
use crate::schema::FeatureSchema;
use crate::value::{CatSet, FeatureKind, FeatureValue};

/// One column of a [`FeatureTable`].
///
/// Categorical columns use offsets-plus-ids storage (an Arrow-style list
/// column) so multivalent sets stay contiguous; every column carries a
/// validity vector because the modality gap makes missingness pervasive.
#[derive(Debug, Clone)]
pub enum Column {
    /// Numeric column.
    Numeric {
        /// Values (0.0 where missing).
        values: Vec<f64>,
        /// Validity.
        present: Vec<bool>,
    },
    /// Multivalent categorical column.
    Categorical {
        /// `offsets[i]..offsets[i+1]` indexes `ids` for row `i`.
        offsets: Vec<u32>,
        /// Concatenated sorted category ids.
        ids: Vec<u32>,
        /// Validity (a present-but-empty set differs from missing).
        present: Vec<bool>,
    },
    /// Fixed-width embedding column.
    Embedding {
        /// Embedding width.
        dim: usize,
        /// Row-major flattened embeddings (zeros where missing).
        data: Vec<f32>,
        /// Validity.
        present: Vec<bool>,
    },
}

impl Column {
    fn for_kind(kind: FeatureKind) -> Self {
        match kind {
            FeatureKind::Numeric => Column::Numeric { values: Vec::new(), present: Vec::new() },
            FeatureKind::Categorical => {
                Column::Categorical { offsets: vec![0], ids: Vec::new(), present: Vec::new() }
            }
            FeatureKind::Embedding { dim } => {
                Column::Embedding { dim, data: Vec::new(), present: Vec::new() }
            }
        }
    }

    fn push(&mut self, value: &FeatureValue, feature_name: &str) {
        match (self, value) {
            (Column::Numeric { values, present }, FeatureValue::Numeric(v)) => {
                values.push(*v);
                present.push(true);
            }
            (Column::Numeric { values, present }, FeatureValue::Missing) => {
                values.push(0.0);
                present.push(false);
            }
            (Column::Categorical { offsets, ids, present }, FeatureValue::Categorical(set)) => {
                ids.extend(set.iter());
                // A u32 id stream overflows only past 4B stored ids.
                // lint: allow(expect)
                offsets.push(u32::try_from(ids.len()).expect("categorical column overflow"));
                present.push(true);
            }
            (Column::Categorical { offsets, ids, present }, FeatureValue::Missing) => {
                // lint: allow(expect)
                offsets.push(u32::try_from(ids.len()).expect("categorical column overflow"));
                present.push(false);
            }
            (Column::Embedding { dim, data, present }, FeatureValue::Embedding(e)) => {
                assert_eq!(
                    e.len(),
                    *dim,
                    "embedding width {} does not match schema dim {dim} for feature {feature_name:?}",
                    e.len()
                );
                data.extend_from_slice(e);
                present.push(true);
            }
            (Column::Embedding { dim, data, present }, FeatureValue::Missing) => {
                data.extend(std::iter::repeat_n(0.0, *dim));
                present.push(false);
            }
            // Write-path contract: push_row's documented panic on a
            // kind-mismatched value, same class as its row-length assert.
            // lint: allow(panic)
            (col, val) => panic!(
                "feature {feature_name:?}: value {val:?} does not match column kind {:?}",
                std::mem::discriminant(col)
            ),
        }
    }
}

/// A columnar table of feature vectors sharing a [`FeatureSchema`].
///
/// This is the materialized *common feature space* for one modality's data
/// points: the output of the feature-generation step (§3) and the input to
/// training-data curation (§4) and model training (§5).
#[derive(Debug, Clone)]
pub struct FeatureTable {
    schema: Arc<FeatureSchema>,
    columns: Vec<Column>,
    len: usize,
}

impl FeatureTable {
    /// Empty table over a schema.
    pub fn new(schema: Arc<FeatureSchema>) -> Self {
        let columns = schema.defs().iter().map(|d| Column::for_kind(d.kind)).collect();
        Self { schema, columns, len: 0 }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<FeatureSchema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width or any value kind disagrees with the schema.
    pub fn push_row(&mut self, row: &[FeatureValue]) {
        assert_eq!(
            row.len(),
            self.schema.len(),
            "row width {} does not match schema width {}",
            row.len(),
            self.schema.len()
        );
        for ((col, value), def) in self.columns.iter_mut().zip(row).zip(self.schema.defs()) {
            col.push(value, &def.name);
        }
        self.len += 1;
    }

    /// Appends a row after validating it against the schema: width, value
    /// kinds, embedding dims, and numeric finiteness are all checked
    /// *before* any column mutates, so a rejected row leaves the table
    /// untouched. Non-finite numerics must arrive as the explicit
    /// [`FeatureValue::Missing`] sentinel, never as NaN/Inf payloads —
    /// this is the ingestion boundary that keeps corrupt service responses
    /// out of the matrices.
    pub fn try_push_row(&mut self, row: &[FeatureValue]) -> CmResult<()> {
        const LOC: &str = "FeatureTable::try_push_row";
        if row.len() != self.schema.len() {
            return Err(CmError::new(
                ErrorKind::ShapeMismatch,
                LOC,
                format!(
                    "row width {} does not match schema width {}",
                    row.len(),
                    self.schema.len()
                ),
            ));
        }
        for (value, def) in row.iter().zip(self.schema.defs()) {
            match (value.kind(), def.kind) {
                (None, _) => {}
                (Some(FeatureKind::Numeric), FeatureKind::Numeric)
                | (Some(FeatureKind::Categorical), FeatureKind::Categorical) => {}
                (Some(FeatureKind::Embedding { dim }), FeatureKind::Embedding { dim: want })
                    if dim == want => {}
                (got, want) => {
                    return Err(CmError::new(
                        ErrorKind::SchemaMismatch,
                        LOC,
                        format!(
                            "feature {:?}: value kind {got:?} does not match {want:?}",
                            def.name
                        ),
                    ))
                }
            }
            if !value.is_finite() {
                return Err(CmError::new(
                    ErrorKind::Numeric,
                    LOC,
                    format!(
                        "feature {:?}: non-finite value {value:?}; use FeatureValue::Missing",
                        def.name
                    ),
                ));
            }
        }
        self.push_row(row);
        Ok(())
    }

    /// Reserves capacity for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        for col in &mut self.columns {
            match col {
                Column::Numeric { values, present } => {
                    values.reserve(additional);
                    present.reserve(additional);
                }
                Column::Categorical { present, .. } => present.reserve(additional),
                Column::Embedding { dim, data, present } => {
                    data.reserve(additional * *dim);
                    present.reserve(additional);
                }
            }
        }
    }

    /// Whether `(row, col)` holds a value.
    pub fn is_present(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.len);
        match &self.columns[col] {
            Column::Numeric { present, .. }
            | Column::Categorical { present, .. }
            | Column::Embedding { present, .. } => present[row],
        }
    }

    /// Numeric value at `(row, col)`; `None` if missing or if the column
    /// is not numeric (`cm-check` validates column kinds pre-execution).
    pub fn numeric(&self, row: usize, col: usize) -> Option<f64> {
        match &self.columns[col] {
            Column::Numeric { values, present } => present[row].then(|| values[row]),
            _ => None,
        }
    }

    /// Sorted category ids at `(row, col)`; `None` if missing or if the
    /// column is not categorical (`cm-check` validates kinds
    /// pre-execution).
    pub fn categorical(&self, row: usize, col: usize) -> Option<&[u32]> {
        match &self.columns[col] {
            Column::Categorical { offsets, ids, present } => present[row].then(|| {
                let start = offsets[row] as usize;
                let end = offsets[row + 1] as usize;
                &ids[start..end]
            }),
            _ => None,
        }
    }

    /// Embedding at `(row, col)`; `None` if missing or if the column is
    /// not an embedding (`cm-check` validates kinds pre-execution).
    pub fn embedding(&self, row: usize, col: usize) -> Option<&[f32]> {
        match &self.columns[col] {
            Column::Embedding { dim, data, present } => {
                present[row].then(|| &data[row * dim..(row + 1) * dim])
            }
            _ => None,
        }
    }

    /// Materializes the value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> FeatureValue {
        match &self.columns[col] {
            Column::Numeric { .. } => {
                self.numeric(row, col).map_or(FeatureValue::Missing, FeatureValue::Numeric)
            }
            Column::Categorical { .. } => {
                self.categorical(row, col).map_or(FeatureValue::Missing, |ids| {
                    FeatureValue::Categorical(CatSet::from_ids(ids.to_vec()))
                })
            }
            Column::Embedding { .. } => self
                .embedding(row, col)
                .map_or(FeatureValue::Missing, |e| FeatureValue::Embedding(e.to_vec())),
        }
    }

    /// Materializes a full row.
    pub fn row(&self, row: usize) -> Vec<FeatureValue> {
        (0..self.schema.len()).map(|c| self.value(row, c)).collect()
    }

    /// Direct access to a column.
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// Builds a new table containing `rows` (in the given order).
    pub fn gather(&self, rows: &[usize]) -> FeatureTable {
        let mut out = FeatureTable::new(Arc::clone(&self.schema));
        out.reserve(rows.len());
        for &r in rows {
            assert!(r < self.len, "gather row {r} out of bounds (len {})", self.len);
            out.push_row(&self.row(r));
        }
        out
    }

    /// Appends every row of `other`.
    ///
    /// # Panics
    /// Panics if the schemas differ (pointer or length inequality is treated
    /// as a schema mismatch).
    pub fn extend_from(&mut self, other: &FeatureTable) {
        assert_eq!(self.schema.len(), other.schema.len(), "extend_from schema width mismatch");
        self.reserve(other.len());
        for r in 0..other.len() {
            self.push_row(&other.row(r));
        }
    }

    /// Approximate resident size in bytes: the column storage plus the
    /// struct header. Used by the sharded curation layer's memory
    /// accounting (`CM_MEM_BUDGET`); capacity slack is not counted, so the
    /// figure is a lower bound on the allocator's view.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        for col in &self.columns {
            bytes += match col {
                Column::Numeric { values, present } => {
                    values.len() * std::mem::size_of::<f64>() + present.len()
                }
                Column::Categorical { offsets, ids, present } => {
                    (offsets.len() + ids.len()) * std::mem::size_of::<u32>() + present.len()
                }
                Column::Embedding { data, present, .. } => {
                    data.len() * std::mem::size_of::<f32>() + present.len()
                }
            };
        }
        bytes
    }

    /// [`FeatureTable::approx_bytes`] of `self.gather(rows)`, computed
    /// without gathering, so a budgeted caller can charge a gather before
    /// it allocates.
    pub fn gather_bytes(&self, rows: &[usize]) -> usize {
        let n = rows.len();
        let mut bytes = std::mem::size_of::<Self>();
        for col in &self.columns {
            bytes += n + match col {
                Column::Numeric { .. } => n * std::mem::size_of::<f64>(),
                Column::Categorical { offsets, .. } => {
                    let ids: usize =
                        rows.iter().map(|&r| (offsets[r + 1] - offsets[r]) as usize).sum();
                    (n + 1 + ids) * std::mem::size_of::<u32>()
                }
                Column::Embedding { dim, .. } => n * dim * std::mem::size_of::<f32>(),
            };
        }
        bytes
    }

    /// Fraction of present values in a column.
    pub fn column_coverage(&self, col: usize) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let present = match &self.columns[col] {
            Column::Numeric { present, .. }
            | Column::Categorical { present, .. }
            | Column::Embedding { present, .. } => present,
        };
        present.iter().filter(|&&p| p).count() as f64 / self.len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{FeatureDef, FeatureSet, ServingMode};
    use crate::vocab::Vocabulary;

    fn schema() -> Arc<FeatureSchema> {
        Arc::new(FeatureSchema::from_defs(vec![
            FeatureDef::numeric("reports", FeatureSet::A, ServingMode::Servable),
            FeatureDef::categorical(
                "topic",
                FeatureSet::C,
                ServingMode::Servable,
                Vocabulary::from_names(["sports", "news", "pets"]),
            ),
            FeatureDef::embedding("emb", 3, FeatureSet::ModalitySpecific, ServingMode::Servable),
        ]))
    }

    fn sample_table() -> FeatureTable {
        let mut t = FeatureTable::new(schema());
        t.push_row(&[
            FeatureValue::Numeric(2.0),
            FeatureValue::Categorical(CatSet::from_ids(vec![0, 2])),
            FeatureValue::Embedding(vec![1.0, 0.0, -1.0]),
        ]);
        t.push_row(&[
            FeatureValue::Missing,
            FeatureValue::Categorical(CatSet::single(1)),
            FeatureValue::Missing,
        ]);
        t.push_row(&[
            FeatureValue::Numeric(-1.5),
            FeatureValue::Missing,
            FeatureValue::Embedding(vec![0.0, 0.5, 0.5]),
        ]);
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = sample_table();
        assert_eq!(t.len(), 3);
        assert_eq!(t.numeric(0, 0), Some(2.0));
        assert_eq!(t.numeric(1, 0), None);
        assert_eq!(t.categorical(0, 1), Some(&[0u32, 2][..]));
        assert_eq!(t.categorical(2, 1), None);
        assert_eq!(t.embedding(0, 2), Some(&[1.0f32, 0.0, -1.0][..]));
        assert_eq!(t.embedding(1, 2), None);
    }

    #[test]
    fn presence_tracking() {
        let t = sample_table();
        assert!(t.is_present(0, 0));
        assert!(!t.is_present(1, 0));
        assert!(!t.is_present(2, 1));
        assert!((t.column_coverage(0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn value_round_trips_row() {
        let t = sample_table();
        let row = t.row(0);
        assert_eq!(row[0], FeatureValue::Numeric(2.0));
        assert_eq!(row[1], FeatureValue::Categorical(CatSet::from_ids(vec![0, 2])));
        let row1 = t.row(1);
        assert_eq!(row1[0], FeatureValue::Missing);
        assert_eq!(row1[2], FeatureValue::Missing);
    }

    #[test]
    fn gather_reorders_rows() {
        let t = sample_table();
        let g = t.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.numeric(0, 0), Some(-1.5));
        assert_eq!(g.numeric(1, 0), Some(2.0));
    }

    #[test]
    fn gather_bytes_prices_the_gather() {
        let t = sample_table();
        for rows in [vec![], vec![1], vec![2, 0], vec![0, 1, 2, 2]] {
            assert_eq!(t.gather_bytes(&rows), t.gather(&rows).approx_bytes(), "rows {rows:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_rejects_out_of_range() {
        sample_table().gather(&[5]);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = sample_table();
        let b = sample_table();
        a.extend_from(&b);
        assert_eq!(a.len(), 6);
        assert_eq!(a.numeric(3, 0), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_row_rejects_wrong_width() {
        let mut t = FeatureTable::new(schema());
        t.push_row(&[FeatureValue::Numeric(1.0)]);
    }

    #[test]
    #[should_panic(expected = "does not match column kind")]
    fn push_row_rejects_kind_mismatch() {
        let mut t = FeatureTable::new(schema());
        t.push_row(&[
            FeatureValue::Categorical(CatSet::new()),
            FeatureValue::Categorical(CatSet::new()),
            FeatureValue::Embedding(vec![0.0; 3]),
        ]);
    }

    #[test]
    #[should_panic(expected = "embedding width")]
    fn push_row_rejects_wrong_embedding_dim() {
        let mut t = FeatureTable::new(schema());
        t.push_row(&[
            FeatureValue::Numeric(0.0),
            FeatureValue::Categorical(CatSet::new()),
            FeatureValue::Embedding(vec![0.0; 2]),
        ]);
    }

    #[test]
    fn try_push_row_accepts_valid_rows() {
        let mut t = FeatureTable::new(schema());
        t.try_push_row(&[
            FeatureValue::Numeric(2.0),
            FeatureValue::Missing,
            FeatureValue::Embedding(vec![0.0; 3]),
        ])
        .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn try_push_row_rejects_non_finite_numerics() {
        let mut t = FeatureTable::new(schema());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = t
                .try_push_row(&[
                    FeatureValue::Numeric(bad),
                    FeatureValue::Missing,
                    FeatureValue::Missing,
                ])
                .unwrap_err();
            assert_eq!(err.kind, crate::error::ErrorKind::Numeric, "value {bad}");
        }
        assert_eq!(t.len(), 0, "rejected rows must not mutate the table");
    }

    #[test]
    fn try_push_row_rejects_non_finite_embeddings() {
        let mut t = FeatureTable::new(schema());
        let err = t
            .try_push_row(&[
                FeatureValue::Numeric(1.0),
                FeatureValue::Missing,
                FeatureValue::Embedding(vec![0.0, f32::NAN, 0.0]),
            ])
            .unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Numeric);
    }

    #[test]
    fn try_push_row_rejects_shape_and_kind_mismatches() {
        let mut t = FeatureTable::new(schema());
        let err = t.try_push_row(&[FeatureValue::Numeric(1.0)]).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::ShapeMismatch);
        let err = t
            .try_push_row(&[
                FeatureValue::Categorical(CatSet::new()),
                FeatureValue::Missing,
                FeatureValue::Missing,
            ])
            .unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::SchemaMismatch);
        let err = t
            .try_push_row(&[
                FeatureValue::Numeric(1.0),
                FeatureValue::Missing,
                FeatureValue::Embedding(vec![0.0; 2]),
            ])
            .unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::SchemaMismatch);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn empty_set_differs_from_missing() {
        let mut t = FeatureTable::new(schema());
        t.push_row(&[
            FeatureValue::Numeric(0.0),
            FeatureValue::Categorical(CatSet::new()),
            FeatureValue::Missing,
        ]);
        assert_eq!(t.categorical(0, 1), Some(&[][..]));
        assert!(t.is_present(0, 1));
        assert!(!t.is_present(0, 2));
    }
}
