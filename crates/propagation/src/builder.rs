//! k-NN similarity-graph construction: one segment sweep.
//!
//! [`GraphBuilder::sweep`] builds the graph over any row source it can
//! read in [`Segments`], re-reading it once per pass below, and charges
//! what it holds to the source's [`MemLedger`] before allocating it. A
//! resident table is the one-segment case ([`GraphBuilder::build_with`]:
//! the table is lent as it is, with nothing budgeted); `cm-shard` sweeps a
//! segmented corpus under its memory budget. Segmentation and thread
//! count never change an edge:
//!
//! 1. *Routing* (anchor method only): one pass gathers the sampled anchor
//!    rows into a small table, a second scores every row against all
//!    anchors in one [`PairKernel::score_batch`], routes it to its
//!    `probes` most-similar anchors and records the segment spans; the
//!    routes invert into per-anchor member lists, ascending by row. Each
//!    row's candidate stride is fixed here, from the number of distinct
//!    members across its anchors: per recorded span, one member bitmap per
//!    anchor (`MemberBitmaps`), and the popcount of the row's anchors' OR,
//!    summed over the spans. No extra pass re-reads the rows.
//! 2. *Scan*: for each query segment, one pass over every candidate
//!    segment in offset order. Each candidate segment the query segment
//!    reaches gets its anchors' member bitmaps, built once and shared
//!    read-only by the `cm-par` chunks the query rows split across. A
//!    row's candidates — every other row, or the strided OR of its
//!    anchors' bitmaps, walked in ascending order — fill a fixed-size
//!    `ScanBatch`, which scores them a plan column at a time through
//!    [`PairKernel::score_batch`] and offers them to the row's [`TopK`] in
//!    ascending global order, so ties break the same way wherever the
//!    segment cuts fall. No per-row sort, dedup or bitmap insert runs.

use std::cmp::Ordering;
use std::ops::Range;

use cm_featurespace::{
    CmError, CmResult, ErrorKind, FeatureTable, FrozenTable, PairKernel, SimilarityConfig,
};
use cm_linalg::rng::SliceRandom;
use cm_linalg::rng::StdRng;
use cm_par::ParConfig;

use crate::graph::SparseGraph;

/// Minimum rows per chunk for the parallel similarity scans. Part of the
/// chunk plan, so it must not depend on the thread count.
const KNN_MIN_ROWS_PER_CHUNK: usize = 16;

/// Neighbor-search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnnMethod {
    /// Exact all-pairs search; O(n²) similarities. Fine below ~10 k rows.
    Exact,
    /// Anchor-based approximate search (a single-machine stand-in for
    /// Expander's distributed build): rows are routed to their `probes`
    /// most-similar anchors out of `n_anchors` sampled rows, and exact
    /// similarities are computed only against co-routed rows, capped at
    /// `max_candidates` per row.
    Anchors {
        /// Number of anchor rows sampled.
        n_anchors: usize,
        /// Anchors each row is routed to.
        probes: usize,
        /// Cap on exact comparisons per row.
        max_candidates: usize,
    },
}

/// Memory accounting for [`GraphBuilder::sweep`]: each buffer the sweep
/// holds is charged before it is allocated and released once dropped.
pub trait MemLedger {
    /// Charges `bytes` held for `what`; an error aborts the sweep.
    fn charge(&mut self, bytes: usize, what: &str) -> CmResult<()>;
    /// Releases `bytes` previously charged.
    fn release(&mut self, bytes: usize);
}

/// One segment visit of a [`Segments`] pass: `f(offset, segment, ledger)`.
pub type SegmentFn<'f, L> = dyn FnMut(usize, &FeatureTable, &mut L) -> CmResult<()> + 'f;

/// A row source [`GraphBuilder::sweep`] reads in segments. Every pass
/// emits the same segments at the same global offsets, in ascending
/// order, tiling `0..total_rows()`.
pub trait Segments {
    /// The memory ledger each pass threads through.
    type Ledger: MemLedger;

    /// Rows across all segments.
    fn total_rows(&self) -> usize;

    /// One pass: `f(offset, segment, ledger)` for each segment in order.
    /// The first error aborts the pass.
    fn for_each(
        &self,
        ledger: &mut Self::Ledger,
        f: &mut SegmentFn<'_, Self::Ledger>,
    ) -> CmResult<()>;
}

/// A resident table: one borrowed segment.
struct Resident<'a>(&'a FeatureTable);

/// The ledger of a resident build: nothing is budgeted.
struct Unbudgeted;

impl MemLedger for Unbudgeted {
    fn charge(&mut self, _bytes: usize, _what: &str) -> CmResult<()> {
        Ok(())
    }

    fn release(&mut self, _bytes: usize) {}
}

impl Segments for Resident<'_> {
    type Ledger = Unbudgeted;

    fn total_rows(&self) -> usize {
        self.0.len()
    }

    fn for_each(&self, ledger: &mut Unbudgeted, f: &mut SegmentFn<'_, Unbudgeted>) -> CmResult<()> {
        f(0, self.0, ledger)
    }
}

/// Builds k-NN graphs over a feature table.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    /// Neighbors kept per row.
    pub k: usize,
    /// Search strategy.
    pub method: KnnMethod,
    /// Minimum similarity for an edge to exist at all.
    pub min_weight: f64,
}

impl GraphBuilder {
    /// Exact builder with a weight floor of 0.05.
    pub fn exact(k: usize) -> Self {
        Self { k, method: KnnMethod::Exact, min_weight: 0.05 }
    }

    /// Approximate builder with defaults scaled to `n` rows.
    pub fn approximate(k: usize, n: usize) -> Self {
        let n_anchors = ((n as f64).sqrt() as usize).clamp(16, 512);
        Self {
            k,
            method: KnnMethod::Anchors { n_anchors, probes: 4, max_candidates: 256 },
            min_weight: 0.05,
        }
    }

    /// Builds the graph. `seed` only matters for the anchor method. Reads
    /// `CM_THREADS` once: a signature the benchmark package (`perfbench/`)
    /// calls, which changes only with the benchmark.
    pub fn build(&self, table: &FeatureTable, config: &SimilarityConfig, seed: u64) -> SparseGraph {
        // lint: allow(par-from-env) — signature pinned by perfbench/src/adapt_e2e.rs
        self.build_with(table, config, seed, &ParConfig::from_env())
    }

    /// [`GraphBuilder::build`] with an explicit parallel configuration:
    /// the sweep over `table` as its one segment, identical at any thread
    /// count.
    pub fn build_with(
        &self,
        table: &FeatureTable,
        config: &SimilarityConfig,
        seed: u64,
        par: &ParConfig,
    ) -> SparseGraph {
        match self.sweep(&Resident(table), config, seed, par, &mut Unbudgeted) {
            Ok(graph) => graph,
            // Nothing is budgeted, and the one segment holds every anchor.
            Err(e) => unreachable!("one-segment k-NN sweep failed: {e}"),
        }
    }

    /// Whether a corpus of `n` rows takes the exact all-pairs path (either
    /// by method choice or the small-input fallback).
    pub fn uses_exact(&self, n: usize) -> bool {
        match self.method {
            KnnMethod::Exact => true,
            // Too small for anchors to pay off; fall back to exact.
            KnnMethod::Anchors { n_anchors, .. } => n <= n_anchors * 4,
        }
    }

    /// Builds the graph over the rows `rows` emits (see the module docs).
    /// Every charge to `ledger` is a deterministic function of the rows,
    /// the segmentation and `self`, made before its allocation, and all are
    /// released by the time the graph returns.
    ///
    /// # Errors
    /// The first failed charge, or [`ErrorKind::OutOfBounds`] when a pass
    /// does not tile `0..rows.total_rows()`.
    pub fn sweep<S: Segments>(
        &self,
        rows: &S,
        config: &SimilarityConfig,
        seed: u64,
        par: &ParConfig,
        ledger: &mut S::Ledger,
    ) -> CmResult<SparseGraph> {
        let n = rows.total_rows();
        if n == 0 {
            return Ok(SparseGraph::from_edges(0, &[]));
        }
        let par = par.clone().with_min_chunk(KNN_MIN_ROWS_PER_CHUNK);
        let candidates = match self.method {
            KnnMethod::Anchors { n_anchors, probes, max_candidates } if !self.uses_exact(n) => {
                let anchors = anchor_plan(n, n_anchors, seed);
                Candidates::route(rows, config, &anchors, probes, max_candidates, &par, ledger)?
            }
            _ => Candidates::All,
        };
        let edges = self.scan(rows, config, &candidates, &par, ledger)?;
        let edge_bytes = n * self.k * std::mem::size_of::<(u32, u32, f32)>();
        // `from_edges` lists both directions of every edge per vertex, then
        // packs the lists into CSR.
        let pairs = 2 * edges.len();
        let adjacency =
            n * std::mem::size_of::<Vec<(u32, f32)>>() + pairs * std::mem::size_of::<(u32, f32)>();
        let csr = (n + 1) * std::mem::size_of::<usize>()
            + pairs * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>());
        ledger.charge(adjacency + csr, "k-NN graph")?;
        let graph = SparseGraph::from_edges(n, &edges);
        ledger.release(adjacency + csr + edge_bytes + candidates.bytes());
        Ok(graph)
    }

    /// Pass 2: per query segment, one sweep of every candidate segment.
    /// Returns the edges, best first per row in row order, with `k` edges
    /// per row left charged.
    fn scan<S: Segments>(
        &self,
        rows: &S,
        config: &SimilarityConfig,
        candidates: &Candidates,
        par: &ParConfig,
        ledger: &mut S::Ledger,
    ) -> CmResult<Vec<(u32, u32, f32)>> {
        let mut edges = Vec::new();
        rows.for_each(ledger, &mut |off_a, seg_a, ledger| {
            let frozen_a = FrozenTable::freeze(seg_a);
            let kernel_a = PairKernel::compile(&frozen_a, config);
            let scan_bytes = seg_a.len()
                * (std::mem::size_of::<RowScan>()
                    + (self.k + 1) * std::mem::size_of::<(u32, f32)>());
            ledger.charge(scan_bytes, "k-NN row scans")?;
            let mut scans: Vec<RowScan> = (0..seg_a.len()).map(|_| RowScan::new(self.k)).collect();
            rows.for_each(ledger, &mut |off_b, seg_b, ledger| {
                let span = off_b..off_b + seg_b.len();
                if !candidates.reach(off_a..off_a + seg_a.len(), &span) {
                    return Ok(());
                }
                // The anchors' member bitmaps are shared by every chunk;
                // each chunk holds one candidate batch.
                let members = candidates.member_bitmaps(&span, ledger)?;
                let batch_bytes = par.n_chunks(seg_a.len()) * ScanBatch::BYTES;
                ledger.charge(batch_bytes, "k-NN candidate batches")?;
                let (frozen_b, compiled);
                let kernel_b = if off_b == off_a {
                    &kernel_a
                } else {
                    frozen_b = FrozenTable::freeze(seg_b);
                    compiled = PairKernel::compile(&frozen_b, config);
                    &compiled
                };
                cm_par::par_chunks_mut(par, &mut scans, 1, |start, chunk| {
                    let mut batch = ScanBatch::new(off_b, self.min_weight);
                    for (ra, scan) in (start..).zip(chunk) {
                        let RowScan { top, skip } = scan;
                        let score = |js: &[u32], out: &mut [f64]| {
                            kernel_a.score_batch(ra, kernel_b, js, out);
                        };
                        candidates.visit(off_a + ra, &span, &members, skip, |j| {
                            batch.push(j, &score, top);
                        });
                        batch.flush(&score, top);
                    }
                })
                .unwrap_or_else(|e| e.resume());
                ledger.release(batch_bytes + members.bytes());
                Ok(())
            })?;
            let bytes = seg_a.len() * self.k * std::mem::size_of::<(u32, u32, f32)>();
            ledger.charge(bytes, "k-NN edges")?;
            for (ra, scan) in scans.into_iter().enumerate() {
                scan.top.drain_into((off_a + ra) as u32, &mut edges);
            }
            ledger.release(scan_bytes);
            Ok(())
        })?;
        Ok(edges)
    }
}

/// One query row's state across a scan's candidate segments.
struct RowScan {
    top: TopK,
    /// Routed candidates to pass over before the next one is scored.
    skip: usize,
}

impl RowScan {
    fn new(k: usize) -> Self {
        Self { top: TopK::new(k), skip: 0 }
    }
}

/// Where each row's candidates come from.
enum Candidates {
    /// Every other row (the exact method).
    All,
    /// The anchor routing: row `i`'s candidates are the ascending, distinct
    /// members of its anchors, subsampled to `max_candidates` by stride.
    Routed {
        /// Anchor slots per row.
        probes: usize,
        /// Row `i`'s anchor slots: `routes[i * probes..(i + 1) * probes]`.
        routes: Vec<u32>,
        /// Slot `a`'s members: `members[offsets[a]..offsets[a + 1]]`,
        /// ascending by row.
        offsets: Vec<usize>,
        members: Vec<u32>,
        /// Row `i`'s candidate stride, from its distinct member count.
        strides: Vec<u32>,
    },
}

impl Candidates {
    /// Pass 1 of the anchor method: gathers the anchor rows, routes every
    /// row, and inverts the routes. Routes and members stay charged until
    /// [`Candidates::bytes`] is released.
    fn route<S: Segments>(
        rows: &S,
        config: &SimilarityConfig,
        anchor_ids: &[usize],
        probes: usize,
        max_candidates: usize,
        par: &ParConfig,
        ledger: &mut S::Ledger,
    ) -> CmResult<Self> {
        let n = rows.total_rows();
        // The anchor table holds the anchors in row order; `position` maps
        // each anchor slot to its table row.
        let mut by_row = anchor_ids.to_vec();
        by_row.sort_unstable();
        let position: Vec<u32> =
            anchor_ids.iter().map(|&row| by_row.partition_point(|&r| r < row) as u32).collect();
        let mut table: Option<FeatureTable> = None;
        let mut table_bytes = 0usize;
        rows.for_each(ledger, &mut |offset, seg, ledger| {
            let lo = by_row.partition_point(|&r| r < offset);
            let hi = by_row.partition_point(|&r| r < offset + seg.len());
            if lo == hi {
                return Ok(());
            }
            let local: Vec<usize> = by_row[lo..hi].iter().map(|&r| r - offset).collect();
            // The gathered part, then its copy in the anchor table; the
            // part's share is released once it is dropped.
            let bytes = seg.gather_bytes(&local);
            ledger.charge(2 * bytes, "anchor rows")?;
            match &mut table {
                Some(t) => t.extend_from(&seg.gather(&local)),
                None => table = Some(seg.gather(&local)),
            }
            ledger.release(bytes);
            table_bytes += bytes;
            Ok(())
        })?;
        let table = match table {
            Some(t) if t.len() == anchor_ids.len() => t,
            _ => {
                return Err(CmError::new(
                    ErrorKind::OutOfBounds,
                    "GraphBuilder::sweep",
                    format!("{} anchor rows never streamed", anchor_ids.len()),
                ))
            }
        };
        let frozen_anchors = FrozenTable::freeze(&table);
        let anchors = PairKernel::compile(&frozen_anchors, config);

        // Routes, then their inversion, each charged before allocation.
        // The pass records the segment spans for the stride count below.
        let probes = probes.min(anchor_ids.len());
        let route_bytes = n * probes * std::mem::size_of::<u32>();
        ledger.charge(route_bytes, "anchor routes")?;
        let mut routes: Vec<u32> = Vec::with_capacity(n * probes);
        let mut spans: Vec<Range<usize>> = Vec::new();
        rows.for_each(ledger, &mut |offset, seg, _| {
            spans.push(offset..offset + seg.len());
            let frozen = FrozenTable::freeze(seg);
            let kernel = PairKernel::compile(&frozen, config);
            let chunks = cm_par::par_map_chunks(par, seg.len(), |range| {
                let mut out = Vec::with_capacity(range.len() * probes);
                let mut scores = vec![0.0; position.len()];
                for r in range {
                    kernel.score_batch(r, &anchors, &position, &mut scores);
                    out.extend(route_row(&scores, probes).into_iter().map(|a| a as u32));
                }
                out
            })
            .unwrap_or_else(|e| e.resume());
            for chunk in chunks {
                routes.extend_from_slice(&chunk);
            }
            Ok(())
        })?;
        // Offsets, members (one per route) and one stride per row.
        let member_bytes = (anchor_ids.len() + 1) * std::mem::size_of::<usize>()
            + route_bytes
            + n * std::mem::size_of::<u32>();
        ledger.charge(member_bytes, "anchor members")?;
        let mut offsets = vec![0usize; anchor_ids.len() + 1];
        for &a in &routes {
            offsets[a as usize + 1] += 1;
        }
        for a in 0..anchor_ids.len() {
            offsets[a + 1] += offsets[a];
        }
        let mut members = vec![0u32; routes.len()];
        let mut cursor = offsets.clone();
        for (i, route) in routes.chunks_exact(probes.max(1)).enumerate() {
            for &a in route {
                members[cursor[a as usize]] = i as u32;
                cursor[a as usize] += 1;
            }
        }
        ledger.release(table_bytes);
        let mut routed =
            Candidates::Routed { probes, routes, offsets, members, strides: Vec::new() };
        // Each row's stride counts the distinct members of its anchors:
        // the popcount of its anchors' member bitmaps, OR-ed and summed
        // over the spans the routing pass saw.
        let mut distinct = vec![0u32; n];
        for span in &spans {
            let bitmaps = routed.member_bitmaps(span, ledger)?;
            cm_par::par_chunks_mut(par, &mut distinct, 1, |start, chunk| {
                for (i, count) in (start..).zip(chunk) {
                    *count += bitmaps.count(routed.anchors_of(i)) as u32;
                }
            })
            .unwrap_or_else(|e| e.resume());
            ledger.release(bitmaps.bytes());
        }
        if let Candidates::Routed { strides, .. } = &mut routed {
            *strides = distinct
                .into_iter()
                .map(|d| candidate_stride(d as usize, max_candidates) as u32)
                .collect();
        }
        Ok(routed)
    }

    /// Bytes [`Candidates::route`] left charged.
    fn bytes(&self) -> usize {
        match self {
            Candidates::All => 0,
            Candidates::Routed { routes, offsets, members, strides, .. } => {
                (routes.len() + members.len() + strides.len()) * std::mem::size_of::<u32>()
                    + offsets.len() * std::mem::size_of::<usize>()
            }
        }
    }

    /// Row `i`'s anchor slots; empty for the exact method.
    fn anchors_of(&self, i: usize) -> &[u32] {
        match self {
            Candidates::All => &[],
            Candidates::Routed { probes, routes, .. } => &routes[i * probes..(i + 1) * probes],
        }
    }

    /// Whether any of `rows` has a routed member inside `span`. A scan
    /// skips the candidate segments its query segment does not reach.
    fn reach(&self, rows: Range<usize>, span: &Range<usize>) -> bool {
        let Candidates::Routed { probes, routes, .. } = self else {
            return true;
        };
        routes[rows.start * probes..rows.end * probes]
            .iter()
            .any(|&a| !self.members_in(a as usize, span).is_empty())
    }

    /// Anchor slot `a`'s members inside `span`.
    fn members_in(&self, a: usize, span: &Range<usize>) -> &[u32] {
        let Candidates::Routed { offsets, members, .. } = self else {
            return &[];
        };
        let bucket = &members[offsets[a]..offsets[a + 1]];
        let lo = bucket.partition_point(|&j| (j as usize) < span.start);
        let hi = bucket.partition_point(|&j| (j as usize) < span.end);
        &bucket[lo..hi]
    }

    /// Every anchor slot's members inside `span` as bitmaps, charged to
    /// `ledger` before they are allocated; the caller releases
    /// [`MemberBitmaps::bytes`]. Empty for the exact method.
    fn member_bitmaps<L: MemLedger>(
        &self,
        span: &Range<usize>,
        ledger: &mut L,
    ) -> CmResult<MemberBitmaps> {
        let Candidates::Routed { offsets, .. } = self else {
            return Ok(MemberBitmaps::over(span, 0));
        };
        let n_anchors = offsets.len() - 1;
        ledger.charge(MemberBitmaps::bytes_for(n_anchors, span.len()), "anchor member bitmaps")?;
        let mut bitmaps = MemberBitmaps::over(span, n_anchors);
        for a in 0..n_anchors {
            bitmaps.set(a, self.members_in(a, span));
        }
        Ok(bitmaps)
    }

    /// Offers row `i`'s candidates inside `span`, ascending, to `offer`.
    /// A routed row's candidates are the OR of its anchors' rows of
    /// `members` (from [`Candidates::member_bitmaps`] over `span`), walked
    /// in ascending order through the row's skip counter and its stride,
    /// fixed at routing. Candidate segments come in offset order, so the
    /// counter carries from one segment's last candidate to the next's
    /// first.
    fn visit(
        &self,
        i: usize,
        span: &Range<usize>,
        members: &MemberBitmaps,
        skip: &mut usize,
        mut offer: impl FnMut(usize),
    ) {
        let Candidates::Routed { strides, .. } = self else {
            span.clone().filter(|&j| j != i).for_each(offer);
            return;
        };
        members.walk(self.anchors_of(i), strides[i] as usize, skip, |j| {
            if j != i {
                offer(j);
            }
        });
    }
}

/// One bitmap per anchor slot over a span of row ids: bit `j - start` of
/// slot `a`'s row is set when row `j` is routed to `a`. A routed row's
/// candidates in the span are the OR of its anchors' rows, which is the
/// sorted, distinct union of their member lists without a sort, a dedup or
/// a per-row insert. Built once per span and read by every chunk.
struct MemberBitmaps {
    /// Row id of bit 0.
    start: usize,
    /// Words per anchor row.
    words: usize,
    /// Slot `a`'s row: `bits[a * words..(a + 1) * words]`.
    bits: Vec<u64>,
}

impl MemberBitmaps {
    /// Clear bitmaps for `n_anchors` slots over `span`.
    fn over(span: &Range<usize>, n_anchors: usize) -> Self {
        let words = span.len().div_ceil(64);
        Self { start: span.start, words, bits: vec![0; n_anchors * words] }
    }

    /// Bytes the bitmaps of `n_anchors` slots over `rows` rows hold.
    fn bytes_for(n_anchors: usize, rows: usize) -> usize {
        n_anchors * rows.div_ceil(64) * std::mem::size_of::<u64>()
    }

    /// Bytes these bitmaps hold.
    fn bytes(&self) -> usize {
        self.bits.len() * std::mem::size_of::<u64>()
    }

    /// Sets slot `a`'s `members`, ascending and all inside the span.
    fn set(&mut self, a: usize, members: &[u32]) {
        let row = &mut self.bits[a * self.words..(a + 1) * self.words];
        for &j in members {
            let bit = j as usize - self.start;
            row[bit / 64] |= 1u64 << (bit % 64);
        }
    }

    /// The words of the OR of `route`'s rows, with their indices,
    /// ascending.
    fn union<'s>(&'s self, route: &'s [u32]) -> impl Iterator<Item = (usize, u64)> + 's {
        (0..self.words).map(move |w| {
            let word =
                route.iter().fold(0u64, |acc, &a| acc | self.bits[a as usize * self.words + w]);
            (w, word)
        })
    }

    /// The distinct members of `route`'s anchors inside the span.
    fn count(&self, route: &[u32]) -> usize {
        self.union(route).map(|(_, word)| word.count_ones() as usize).sum()
    }

    /// Walks the distinct members of `route`'s anchors in ascending order.
    /// Each passes through the counter `skip`: one that finds it at zero
    /// goes to `offer` and resets it to `stride - 1`, the others count it
    /// down.
    fn walk(&self, route: &[u32], stride: usize, skip: &mut usize, mut offer: impl FnMut(usize)) {
        for (w, mut bits) in self.union(route) {
            let ones = bits.count_ones() as usize;
            if *skip >= ones {
                *skip -= ones;
                continue;
            }
            while bits != 0 {
                let j = self.start + w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if *skip > 0 {
                    *skip -= 1;
                } else {
                    *skip = stride - 1;
                    offer(j);
                }
            }
        }
    }
}

/// A fixed-size batch of one row's candidates, scored through
/// [`PairKernel::score_batch`] once full and offered to the row's
/// [`TopK`] in the order they were pushed. The batch sweep holds one per
/// chunk; the online graph one per `insert_rows` call.
pub(crate) struct ScanBatch {
    /// Row id of local candidate 0 in the scored segment.
    offset: usize,
    /// Minimum similarity for a candidate to reach the `TopK`.
    floor: f64,
    js: Vec<u32>,
    scores: Vec<f64>,
}

impl ScanBatch {
    /// Candidates scored per batch.
    const LEN: usize = 64;

    /// Bytes one batch holds: a local candidate index and a score per
    /// slot.
    pub const BYTES: usize = Self::LEN * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>());

    /// An empty batch over a segment starting at row `offset`, keeping
    /// candidates scored at least `floor`.
    pub fn new(offset: usize, floor: f64) -> Self {
        Self { offset, floor, js: Vec::with_capacity(Self::LEN), scores: vec![0.0; Self::LEN] }
    }

    /// Queues candidate row `j`; scores the batch once it is full.
    /// `score(js, out)` scores local candidates `js` into `out`.
    pub fn push(&mut self, j: usize, score: &impl Fn(&[u32], &mut [f64]), top: &mut TopK) {
        self.js.push((j - self.offset) as u32);
        if self.js.len() == Self::LEN {
            self.flush(score, top);
        }
    }

    /// Scores the queued candidates and offers those at or above the
    /// floor to `top`, in queue order.
    pub fn flush(&mut self, score: &impl Fn(&[u32], &mut [f64]), top: &mut TopK) {
        let out = &mut self.scores[..self.js.len()];
        score(&self.js, out);
        for (&j, &s) in self.js.iter().zip(out.iter()) {
            if s >= self.floor {
                top.push((j as usize + self.offset) as u32, s as f32);
            }
        }
        self.js.clear();
    }
}

/// The anchor rows the approximate method samples for a corpus of `n`
/// rows: a seeded shuffle of all row ids, truncated to `n_anchors`.
fn anchor_plan(n: usize, n_anchors: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut anchor_ids: Vec<usize> = (0..n).collect();
    anchor_ids.shuffle(&mut rng);
    anchor_ids.truncate(n_anchors);
    anchor_ids
}

/// Routes one row to its top `probes` anchor slots given the row's
/// similarity to each anchor, in anchor-slot order: descending by
/// similarity in `total_cmp` order, ties in ascending slot order. That is
/// a stable descending sort truncated to `probes`, kept as a running
/// selection instead of a sort.
pub(crate) fn route_row(scores: &[f64], probes: usize) -> Vec<usize> {
    let mut best: Vec<(usize, f64)> = Vec::with_capacity(probes + 1);
    for (a, &s) in scores.iter().enumerate() {
        // After every kept score at least as high as `s`: the tie goes to
        // the earlier slot.
        let pos = best.partition_point(|&(_, b)| b.total_cmp(&s) != Ordering::Less);
        if pos < probes {
            best.insert(pos, (a, s));
            best.truncate(probes);
        }
    }
    best.into_iter().map(|(a, _)| a).collect()
}

/// Stride that subsamples a candidate bucket down to the `max_candidates`
/// cap (huge buckets stay bounded; small ones scan fully).
pub(crate) fn candidate_stride(n_candidates: usize, max_candidates: usize) -> usize {
    (n_candidates / max_candidates.max(1)).max(1)
}

/// Small fixed-capacity top-k accumulator, kept sorted descending by
/// weight. Insertion order breaks ties (earlier wins), so feeding
/// candidates in ascending row order gives the same edges however they
/// were batched.
#[derive(Debug, Clone)]
pub(crate) struct TopK {
    k: usize,
    items: Vec<(u32, f32)>,
}

impl TopK {
    /// An empty accumulator keeping the best `k` entries.
    pub fn new(k: usize) -> Self {
        Self { k, items: Vec::with_capacity(k + 1) }
    }

    /// Offers one candidate.
    pub fn push(&mut self, id: u32, w: f32) {
        if self.items.len() == self.k {
            // items kept sorted descending; last is the weakest.
            if w <= self.items[self.k - 1].1 {
                return;
            }
            self.items.pop();
        }
        let pos = self.items.partition_point(|&(_, x)| x >= w);
        self.items.insert(pos, (id, w));
    }

    /// Appends the kept entries as `(src, dst, weight)` edges, best first.
    pub fn drain_into(self, src: u32, edges: &mut Vec<(u32, u32, f32)>) {
        for (dst, w) in self.items {
            edges.push((src, dst, w));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureValue, ServingMode, Vocabulary,
    };

    use super::*;

    /// Two clean clusters: rows < n/2 share ids {0,1}; the rest share {2,3}.
    fn clustered(n: usize) -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
            "c",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names(["a", "b", "c", "d"]),
        )]));
        let mut t = FeatureTable::new(schema);
        for i in 0..n {
            let ids = if i < n / 2 { vec![0, 1] } else { vec![2, 3] };
            t.push_row(&[FeatureValue::Categorical(CatSet::from_ids(ids))]);
        }
        t
    }

    #[test]
    fn exact_knn_links_within_clusters() {
        let t = clustered(40);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let g = GraphBuilder::exact(5).build(&t, &cfg, 0);
        for v in 0..40 {
            let (neigh, w) = g.neighbors(v);
            assert!(!neigh.is_empty());
            for (&u, &wt) in neigh.iter().zip(w) {
                assert_eq!((v < 20), ((u as usize) < 20), "cross-cluster edge {v}-{u}");
                assert!((wt - 1.0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn k_limits_out_edges_before_symmetrization() {
        let t = clustered(40);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let g = GraphBuilder::exact(3).build(&t, &cfg, 0);
        // Post-symmetrization degree can exceed k, but total edge count is
        // bounded by n * k.
        assert!(g.n_edges() <= 40 * 3);
    }

    #[test]
    fn min_weight_prunes_weak_edges() {
        let t = clustered(10);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut b = GraphBuilder::exact(9);
        b.min_weight = 1.1; // nothing qualifies
        let g = b.build(&t, &cfg, 0);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn anchors_fall_back_to_exact_on_small_inputs() {
        let t = clustered(30);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let approx = GraphBuilder {
            k: 4,
            method: KnnMethod::Anchors { n_anchors: 16, probes: 2, max_candidates: 64 },
            min_weight: 0.05,
        }
        .build(&t, &cfg, 1);
        let exact = GraphBuilder::exact(4).build(&t, &cfg, 1);
        assert_eq!(approx, exact);
    }

    #[test]
    fn anchor_method_recovers_cluster_structure() {
        let t = clustered(600);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let g = GraphBuilder {
            k: 5,
            method: KnnMethod::Anchors { n_anchors: 32, probes: 3, max_candidates: 64 },
            min_weight: 0.05,
        }
        .build(&t, &cfg, 2);
        let mut cross = 0usize;
        let mut total = 0usize;
        for v in 0..600 {
            let (neigh, _) = g.neighbors(v);
            for &u in neigh {
                total += 1;
                if (v < 300) != ((u as usize) < 300) {
                    cross += 1;
                }
            }
        }
        assert!(total > 0);
        assert_eq!(cross, 0, "{cross}/{total} cross-cluster edges");
    }

    #[test]
    fn builder_is_deterministic() {
        let t = clustered(200);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let b = GraphBuilder::approximate(4, 200);
        assert_eq!(b.build(&t, &cfg, 7), b.build(&t, &cfg, 7));
    }

    #[test]
    fn graphs_are_identical_across_thread_counts() {
        let t = clustered(300);
        let cfg = SimilarityConfig::uniform(vec![0]);
        for b in [GraphBuilder::exact(4), GraphBuilder::approximate(4, 300)] {
            let base = b.build_with(&t, &cfg, 7, &ParConfig::threads(1));
            for threads in [2usize, 4, 8] {
                let g = b.build_with(&t, &cfg, 7, &ParConfig::threads(threads));
                assert_eq!(g, base, "method {:?}, threads = {threads}", b.method);
            }
        }
    }

    #[test]
    fn route_row_matches_a_stable_descending_sort() {
        use cm_linalg::rng::Rng;

        let sorted = |scores: &[f64], probes: usize| {
            let mut scored: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
            scored.sort_by(|x, y| y.1.total_cmp(&x.1));
            scored.truncate(probes);
            scored.into_iter().map(|(a, _)| a).collect::<Vec<_>>()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let palette = [0.0, -0.0, 0.25, 0.5, 1.0, f64::NAN, -f64::NAN, f64::INFINITY];
        for len in [0usize, 1, 3, 17, 107] {
            let scores: Vec<f64> =
                (0..len).map(|_| palette[rng.gen_range(0..palette.len())]).collect();
            for probes in [0usize, 1, 3, 4, 200] {
                assert_eq!(route_row(&scores, probes), sorted(&scores, probes), "{len} x {probes}");
            }
        }
    }

    #[test]
    fn topk_keeps_best() {
        let mut top = TopK::new(2);
        top.push(1, 0.1);
        top.push(2, 0.9);
        top.push(3, 0.5);
        top.push(4, 0.05);
        let mut edges = Vec::new();
        top.drain_into(0, &mut edges);
        let ids: Vec<u32> = edges.iter().map(|e| e.1).collect();
        assert_eq!(ids, vec![2, 3]);
    }
}
