//! Segmented corpora: a logical row range emitted as fixed-size segments,
//! re-streamable for multi-pass sharded algorithms.

use cm_featurespace::{CmResult, FeatureTable, ModalityKind};
use cm_orgsim::{ModalityDataset, World};
use cm_propagation::{SegmentFn, Segments};

use crate::config::MemTracker;

/// A streamed `orgsim` generation: the rows [`World::generate`] would
/// produce for this seed, regenerated segment by segment on every pass.
#[derive(Clone, Copy)]
pub struct StreamSpec<'a> {
    /// The generating world.
    pub world: &'a World,
    /// Modality of the generated rows.
    pub modality: ModalityKind,
    /// Total rows in the stream.
    pub rows: usize,
    /// Generation seed (the same seed [`World::generate`] takes).
    pub seed: u64,
}

/// A corpus assembled from resident *head* tables followed by an optional
/// generation-stream *tail*, exposed as fixed-size segments.
///
/// The pipeline's propagation corpus is `[seeds | dev | pool]`: the seed
/// and dev tables are small labeled-corpus gathers (heads), while the pool
/// is the large streamed tail. Each pass over the corpus re-emits the same
/// rows at the same global offsets, so multi-pass algorithms (scale fits,
/// anchor gathers, candidate sweeps) see a stable row numbering; because
/// every merge the sharded pipeline performs is exact, nothing downstream
/// depends on where the segment cuts fall.
pub struct SegmentedCorpus<'a> {
    heads: Vec<&'a FeatureTable>,
    tail: Option<StreamSpec<'a>>,
    segment_rows: usize,
}

impl<'a> SegmentedCorpus<'a> {
    /// An empty corpus emitting segments of up to `segment_rows` rows.
    pub fn new(segment_rows: usize) -> Self {
        Self { heads: Vec::new(), tail: None, segment_rows: segment_rows.max(1) }
    }

    /// Appends a resident head table (emitted before the tail, split into
    /// segment-sized chunks).
    pub fn push_head(&mut self, table: &'a FeatureTable) {
        self.heads.push(table);
    }

    /// Sets the streamed tail.
    pub fn set_stream(&mut self, spec: StreamSpec<'a>) {
        self.tail = Some(spec);
    }

    /// Rows per emitted segment.
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// Total rows across heads and tail.
    pub fn total_rows(&self) -> usize {
        self.heads.iter().map(|t| t.len()).sum::<usize>() + self.tail.as_ref().map_or(0, |s| s.rows)
    }

    /// One pass over the corpus: calls `f(global_offset, segment, tracker)`
    /// for each segment in corpus order. A head that fits in one segment is
    /// lent as it is; a longer one is gathered a segment at a time, and
    /// generated or gathered segments are charged to the tracker (before
    /// they are built) while `f` runs and released afterwards. The first
    /// error (from a charge or from `f`) aborts the pass.
    pub fn for_each(
        &self,
        tracker: &mut MemTracker,
        f: &mut dyn FnMut(usize, &FeatureTable, &mut MemTracker) -> CmResult<()>,
    ) -> CmResult<()> {
        let mut offset = 0usize;
        for head in &self.heads {
            if head.len() <= self.segment_rows {
                if !head.is_empty() {
                    f(offset, head, tracker)?;
                }
                offset += head.len();
                continue;
            }
            let mut start = 0usize;
            while start < head.len() {
                let end = (start + self.segment_rows).min(head.len());
                let idx: Vec<usize> = (start..end).collect();
                let bytes = head.gather_bytes(&idx);
                tracker.charge(bytes, "corpus head segment")?;
                let res = f(offset + start, &head.gather(&idx), tracker);
                tracker.release(bytes);
                res?;
                start = end;
            }
            offset += head.len();
        }
        if let Some(spec) = &self.tail {
            for_each_pool_segment(
                spec.world,
                spec.modality,
                spec.rows,
                spec.seed,
                self.segment_rows,
                tracker,
                &mut |seg_offset, seg, tracker| f(offset + seg_offset, &seg.table, tracker),
            )?;
        }
        Ok(())
    }
}

impl Segments for SegmentedCorpus<'_> {
    type Ledger = MemTracker;

    fn total_rows(&self) -> usize {
        SegmentedCorpus::total_rows(self)
    }

    fn for_each(
        &self,
        tracker: &mut MemTracker,
        f: &mut SegmentFn<'_, MemTracker>,
    ) -> CmResult<()> {
        SegmentedCorpus::for_each(self, tracker, f)
    }
}

/// Approximate resident bytes of a generated segment: table storage plus
/// the label and borderline side arrays.
pub fn dataset_bytes(dataset: &ModalityDataset) -> usize {
    dataset.table.approx_bytes()
        + dataset.labels.len() * std::mem::size_of::<cm_featurespace::Label>()
        + dataset.borderline.len()
}

/// Streams the rows `world.generate(modality, rows, seed)` would produce,
/// in segments of up to `segment_rows`, charging each segment against the
/// tracker while `f(segment_offset, segment, tracker)` runs.
///
/// The segments concatenate to the resident dataset bit for bit
/// (`DatasetStream`'s contract), so anything merged over them in offset
/// order agrees with the resident computation.
pub fn for_each_pool_segment(
    world: &World,
    modality: ModalityKind,
    rows: usize,
    seed: u64,
    segment_rows: usize,
    tracker: &mut MemTracker,
    f: &mut dyn FnMut(usize, &ModalityDataset, &mut MemTracker) -> CmResult<()>,
) -> CmResult<()> {
    let mut stream = world.stream(modality, rows, seed);
    let mut offset = 0usize;
    while let Some(seg) = stream.next_segment(segment_rows.max(1)) {
        let bytes = dataset_bytes(&seg);
        tracker.charge(bytes, "streamed segment")?;
        let res = f(offset, &seg, tracker);
        tracker.release(bytes);
        res?;
        offset += seg.len();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use cm_orgsim::{TaskConfig, TaskId, WorldConfig};

    use super::*;
    use crate::config::{MemBudget, MemTracker};

    fn world() -> World {
        World::build(WorldConfig::new(TaskConfig::paper(TaskId::Ct2).scaled(0.02), 11))
    }

    #[test]
    fn corpus_concatenates_heads_and_tail_in_order() {
        let w = world();
        let head_a = w.generate(ModalityKind::Text, 37, 1);
        let head_b = w.generate(ModalityKind::Text, 5, 2);
        let tail = w.generate(ModalityKind::Image, 53, 3);
        let mut resident = head_a.table.clone();
        resident.extend_from(&head_b.table);
        resident.extend_from(&tail.table);

        for seg_rows in [1usize, 7, 16, 100] {
            let mut corpus = SegmentedCorpus::new(seg_rows);
            corpus.push_head(&head_a.table);
            corpus.push_head(&head_b.table);
            corpus.set_stream(StreamSpec {
                world: &w,
                modality: ModalityKind::Image,
                rows: 53,
                seed: 3,
            });
            assert_eq!(corpus.total_rows(), resident.len());
            let mut tracker = MemTracker::new(MemBudget::default());
            let mut seen = 0usize;
            corpus
                .for_each(&mut tracker, &mut |offset, seg, _| {
                    assert_eq!(offset, seen, "seg_rows = {seg_rows}");
                    assert!(seg.len() <= seg_rows);
                    for r in 0..seg.len() {
                        assert_eq!(seg.row(r), resident.row(offset + r));
                    }
                    seen += seg.len();
                    Ok(())
                })
                .unwrap();
            assert_eq!(seen, resident.len());
            assert_eq!(tracker.current(), 0, "segments must be released");
            assert!(tracker.peak() > 0);
        }
    }

    #[test]
    fn empty_corpus_emits_nothing() {
        let corpus = SegmentedCorpus::new(8);
        assert_eq!(corpus.total_rows(), 0);
        let mut tracker = MemTracker::new(MemBudget::bytes(1));
        corpus.for_each(&mut tracker, &mut |_, _, _| panic!("no segments expected")).unwrap();
        assert_eq!(tracker.peak(), 0);
    }

    #[test]
    fn tiny_budget_fails_instead_of_exceeding() {
        let w = world();
        let mut tracker = MemTracker::new(MemBudget::bytes(64));
        let err = for_each_pool_segment(
            &w,
            ModalityKind::Image,
            100,
            5,
            32,
            &mut tracker,
            &mut |_, _, _| Ok(()),
        )
        .unwrap_err();
        assert!(err.message.contains("memory budget exceeded"), "{err:?}");
        assert!(tracker.peak() <= 64, "peak {} leaked past the budget", tracker.peak());
    }

    #[test]
    fn multiple_passes_emit_identical_segments() {
        let w = world();
        let mut corpus = SegmentedCorpus::new(13);
        corpus.set_stream(StreamSpec {
            world: &w,
            modality: ModalityKind::Image,
            rows: 40,
            seed: 9,
        });
        let mut tracker = MemTracker::new(MemBudget::default());
        let mut first: Vec<(usize, usize)> = Vec::new();
        corpus
            .for_each(&mut tracker, &mut |offset, seg, _| {
                first.push((offset, seg.len()));
                Ok(())
            })
            .unwrap();
        let mut second: Vec<(usize, usize)> = Vec::new();
        corpus
            .for_each(&mut tracker, &mut |offset, seg, _| {
                second.push((offset, seg.len()));
                Ok(())
            })
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(first.iter().map(|(_, n)| n).sum::<usize>(), 40);
    }
}
