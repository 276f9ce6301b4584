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
//!    rows into a small table, a second routes every row to its `probes`
//!    most-similar anchors, and the routes invert into per-anchor member
//!    lists, ascending by row.
//! 2. *Scan*: for each query segment, one pass over every candidate
//!    segment in offset order. Query rows split across `cm-par` chunks;
//!    each row's candidates — every other row, or the strided union of its
//!    anchors' members — are scored with the [`PairKernel`] and offered to
//!    its [`TopK`] in ascending global order, so ties break the same way
//!    wherever the segment cuts fall.

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
            rows.for_each(ledger, &mut |off_b, seg_b, _| {
                let span = off_b..off_b + seg_b.len();
                if !candidates.reach(off_a..off_a + seg_a.len(), &span) {
                    return Ok(());
                }
                let (frozen_b, compiled);
                let kernel_b = if off_b == off_a {
                    &kernel_a
                } else {
                    frozen_b = FrozenTable::freeze(seg_b);
                    compiled = PairKernel::compile(&frozen_b, config);
                    &compiled
                };
                cm_par::par_chunks_mut(par, &mut scans, 1, |start, chunk| {
                    let mut scratch = Vec::new();
                    for (ra, scan) in (start..).zip(chunk) {
                        candidates.visit(off_a + ra, span.clone(), scan, &mut scratch, |j| {
                            let s = kernel_a.pair_across(ra, kernel_b, j - off_b);
                            (s >= self.min_weight).then_some(s as f32)
                        });
                    }
                })
                .unwrap_or_else(|e| e.resume());
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
    /// Candidate stride; 0 until the row's first visit sets it.
    stride: usize,
    /// Routed candidates to pass over before the next one is scored.
    skip: usize,
}

impl RowScan {
    fn new(k: usize) -> Self {
        Self { top: TopK::new(k), stride: 0, skip: 0 }
    }
}

/// Where each row's candidates come from.
enum Candidates {
    /// Every other row (the exact method).
    All,
    /// The anchor routing: row `i`'s candidates are the sorted, distinct
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
        max_candidates: usize,
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
        let position: Vec<usize> =
            anchor_ids.iter().map(|&row| by_row.partition_point(|&r| r < row)).collect();
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
        let probes = probes.min(anchor_ids.len());
        let route_bytes = n * probes * std::mem::size_of::<u32>();
        ledger.charge(route_bytes, "anchor routes")?;
        let mut routes: Vec<u32> = Vec::with_capacity(n * probes);
        rows.for_each(ledger, &mut |_, seg, _| {
            let frozen = FrozenTable::freeze(seg);
            let kernel = PairKernel::compile(&frozen, config);
            let chunks = cm_par::par_map_chunks(par, seg.len(), |range| {
                let mut out = Vec::with_capacity(range.len() * probes);
                for r in range {
                    let scores: Vec<f64> =
                        position.iter().map(|&p| kernel.pair_across(r, &anchors, p)).collect();
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
        let member_bytes = (anchor_ids.len() + 1) * std::mem::size_of::<usize>() + route_bytes;
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
        Ok(Candidates::Routed { probes, routes, offsets, members, max_candidates })
    }

    /// Bytes [`Candidates::route`] left charged.
    fn bytes(&self) -> usize {
        match self {
            Candidates::All => 0,
            Candidates::Routed { routes, offsets, members, .. } => {
                (routes.len() + members.len()) * std::mem::size_of::<u32>()
                    + offsets.len() * std::mem::size_of::<usize>()
            }
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

    /// Offers row `i`'s candidates inside `span`, ascending, to its scan:
    /// `weight(j)` scores candidate `j`, `None` when below the floor.
    /// Candidate segments come in offset order, and a segment is skipped
    /// only when no row of the query segment reaches it, so a routed row's
    /// first visit has no candidate before its span: it sorts the row's
    /// whole list and sets the stride. Later visits sort only the members
    /// inside their span.
    fn visit(
        &self,
        i: usize,
        span: Range<usize>,
        scan: &mut RowScan,
        scratch: &mut Vec<u32>,
        weight: impl Fn(usize) -> Option<f32>,
    ) {
        let Candidates::Routed { probes, routes, offsets, members, max_candidates } = self else {
            for j in span.filter(|&j| j != i) {
                if let Some(w) = weight(j) {
                    scan.top.push(j as u32, w);
                }
            }
            return;
        };
        let first = scan.stride == 0;
        scratch.clear();
        for &a in &routes[i * probes..(i + 1) * probes] {
            let a = a as usize;
            if first {
                scratch.extend_from_slice(&members[offsets[a]..offsets[a + 1]]);
            } else {
                scratch.extend_from_slice(self.members_in(a, &span));
            }
        }
        scratch.sort_unstable();
        scratch.dedup();
        if first {
            debug_assert!(scratch.iter().all(|&j| j as usize >= span.start));
            scan.stride = candidate_stride(scratch.len(), *max_candidates);
        }
        for &j in scratch.iter().take_while(|&&j| (j as usize) < span.end) {
            if scan.skip > 0 {
                scan.skip -= 1;
                continue;
            }
            scan.skip = scan.stride - 1;
            if j as usize != i {
                if let Some(w) = weight(j as usize) {
                    scan.top.push(j, w);
                }
            }
        }
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
/// similarity to each anchor, in anchor-slot order. The sort is stable and
/// descending by similarity, so ties keep ascending slot order.
pub(crate) fn route_row(scores: &[f64], probes: usize) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
    scored.sort_by(|x, y| y.1.total_cmp(&x.1));
    scored.truncate(probes);
    scored.into_iter().map(|(a, _)| a).collect()
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
