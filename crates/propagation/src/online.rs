//! Online k-NN graph maintenance for the incremental serving loop.
//!
//! The batch [`GraphBuilder`](crate::GraphBuilder) rebuilds the whole
//! graph from scratch; a long-running curation service cannot afford that
//! on every arrival batch. [`OnlineGraph`] instead *grows* an anchor-based
//! approximate graph: each new row is routed to its nearest existing
//! anchors, scanned only against co-routed rows, and — while the anchor
//! pool is below its size target — promoted to an anchor itself so later
//! arrivals keep routing well as the corpus grows.
//!
//! Two contracts matter for serving:
//!
//! - **Cut invariance**: inserting rows one at a time, or in arrival
//!   batches of any size, produces the identical edge list. Rows are
//!   inserted strictly sequentially (each sees exactly the anchors and
//!   members left by its predecessors), so batch boundaries are invisible
//!   by construction — and so is the thread count.
//! - **Resumability**: [`OnlineGraph::snapshot`] exports the full
//!   routing state ([`OnlineGraphState`]); a graph restored from it
//!   continues bit-identically to one that never stopped. This is what the
//!   serve checkpoint stores instead of edge-by-edge deltas.
//!
//! Earlier rows are never re-routed when a new anchor appears — that is
//! the accepted approximation cost of avoiding full rebuilds, mirroring
//! how Expander-style systems absorb incremental updates between offline
//! rebuilds.
//!
//! The symmetrized adjacency is kept **append-only** beside the edge
//! list. Every edge joins the newest row to an older one, so an older
//! row's neighbor list only ever gains the newest row id — larger than
//! anything already in it — and stays sorted by simply pushing. The
//! newest row's own list is its k edges, sorted once. [`OnlineGraph::graph`]
//! therefore packs the lists into CSR without sorting the edge list, and
//! equals [`SparseGraph::from_edges`] over it exactly.

use cm_featurespace::{CmError, CmResult, ErrorKind, FrozenTable, PairKernel, SimilarityConfig};

use crate::builder::{candidate_stride, route_row, ScanBatch, TopK};
use crate::graph::{link, normalize, symmetric_adjacency, SparseGraph};

/// Anchor-pool size target for a corpus of `n` rows. Matches the batch
/// builder's [`GraphBuilder::approximate`](crate::GraphBuilder::approximate)
/// sizing so online and batch graphs face comparable routing fan-out.
pub fn target_anchor_count(n: usize) -> usize {
    ((n as f64).sqrt() as usize).clamp(16, 512)
}

/// Exported routing state of an [`OnlineGraph`]: everything needed to
/// resume insertion bit-identically. Serialized into the serve checkpoint
/// by `cm-serve`'s snapshot module (the `checkpoint-drift` lint confines
/// field access to that module and to this crate).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineGraphState {
    /// Rows inserted so far; the next insertion starts here.
    pub n_rows: usize,
    /// Row ids promoted to anchors, in promotion order.
    pub anchors: Vec<u32>,
    /// Per-anchor member lists (rows routed to that anchor), aligned with
    /// `anchors`.
    pub anchor_members: Vec<Vec<u32>>,
    /// Accumulated `(src, dst, weight)` edges; `src` is always the newer
    /// row, symmetrization happens when the [`SparseGraph`] is built.
    pub edges: Vec<(u32, u32, f32)>,
}

/// Everything an [`OnlineGraph`] accreted since its last durable point:
/// the payload of one checkpoint delta record. Applying a run's deltas in
/// order to the starting [`OnlineGraphState`] reproduces the final state
/// bit-identically — see [`OnlineGraphState::apply_delta`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineGraphDelta {
    /// Total rows inserted after this delta (absolute, not an increment,
    /// so a replay can sanity-check monotonicity).
    pub n_rows: usize,
    /// Edges appended since the last durable point.
    pub new_edges: Vec<(u32, u32, f32)>,
    /// Members appended to anchors that already existed at the last
    /// durable point: `(anchor index, appended row ids)`.
    pub member_appends: Vec<(u32, Vec<u32>)>,
    /// Anchors promoted since the last durable point, with their full
    /// member lists: `(anchor row id, members)`.
    pub new_anchors: Vec<(u32, Vec<u32>)>,
}

/// Incrementally grown approximate k-NN graph.
#[derive(Debug, Clone)]
pub struct OnlineGraph {
    /// Neighbors kept per inserted row.
    pub k: usize,
    /// Anchors each new row is routed to.
    pub probes: usize,
    /// Cap on exact comparisons per inserted row.
    pub max_candidates: usize,
    /// Minimum similarity for an edge to exist at all.
    pub min_weight: f64,
    n_rows: usize,
    anchors: Vec<u32>,
    anchor_members: Vec<Vec<u32>>,
    edges: Vec<(u32, u32, f32)>,
    /// Symmetrized neighbor lists of `edges`, one per row, each sorted by
    /// neighbor and deduplicated (see the module docs).
    adjacency: Vec<Vec<(u32, f32)>>,
    // Durable marks: how much of each list was already exported by the
    // last `export_delta` (or covered by the snapshot this graph was
    // restored from). `mark_members[i]` is the member count of anchor `i`
    // at that point, aligned with `anchors[..mark_anchors]` plus any
    // anchors promoted-then-exported since.
    mark_anchors: usize,
    mark_members: Vec<usize>,
    mark_edges: usize,
}

impl OnlineGraph {
    /// An empty graph keeping `k` neighbors per row, with the batch
    /// builder's default routing parameters (4 probes, 256 candidates,
    /// weight floor 0.05).
    pub fn new(k: usize) -> Self {
        OnlineGraph {
            k,
            probes: 4,
            max_candidates: 256,
            min_weight: 0.05,
            n_rows: 0,
            anchors: Vec::new(),
            anchor_members: Vec::new(),
            edges: Vec::new(),
            adjacency: Vec::new(),
            mark_anchors: 0,
            mark_members: Vec::new(),
            mark_edges: 0,
        }
    }

    /// Rows inserted so far.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Current anchor-pool size.
    pub fn n_anchors(&self) -> usize {
        self.anchors.len()
    }

    /// Accumulated edge count (pre-symmetrization).
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Inserts every row the frozen table holds beyond the rows already
    /// inserted. The table must be a prefix-stable view of the growing
    /// corpus: rows `0..self.n_rows()` are the previously inserted ones,
    /// in the same order.
    ///
    /// # Panics
    /// Panics if the table has fewer rows than were already inserted.
    pub fn insert_rows(&mut self, frozen: &FrozenTable<'_>, config: &SimilarityConfig) {
        assert!(
            frozen.len() >= self.n_rows,
            "frozen table shrank below the inserted prefix ({} < {})",
            frozen.len(),
            self.n_rows
        );
        if frozen.len() == self.n_rows {
            return;
        }
        let kernel = PairKernel::compile(frozen, config);
        let mut union = CandidateUnion::new(frozen.len());
        let (mut scores, mut batch) = (Vec::new(), ScanBatch::new(0, self.min_weight));
        for i in self.n_rows..frozen.len() {
            self.insert_row(&kernel, &mut union, &mut scores, &mut batch, i);
        }
        self.n_rows = frozen.len();
    }

    /// Routes row `i`, scores every stride-th member of the union of its
    /// anchors' lists in ascending order, and links its top `k`. `union`
    /// spans the frozen table and `batch` is empty between rows; `scores`
    /// is scratch for the anchor scores. Anchors and candidates are both
    /// scored through [`PairKernel::score_batch`].
    fn insert_row(
        &mut self,
        kernel: &PairKernel<'_>,
        union: &mut CandidateUnion,
        scores: &mut Vec<f64>,
        batch: &mut ScanBatch,
        i: usize,
    ) {
        let score = |js: &[u32], out: &mut [f64]| kernel.score_batch(i, kernel, js, out);
        scores.resize(self.anchors.len(), 0.0);
        score(&self.anchors, scores);
        let route = route_row(scores, self.probes);
        let distinct: usize = route.iter().map(|&a| union.insert(&self.anchor_members[a])).sum();
        let stride = candidate_stride(distinct, self.max_candidates);
        let mut top = TopK::new(self.k);
        union.drain(stride, &mut 0, |j| batch.push(j, &score, &mut top));
        batch.flush(&score, &mut top);
        let first = self.edges.len();
        top.drain_into(i as u32, &mut self.edges);
        // Candidates are earlier rows, so row `i` is newer than every
        // neighbor: its own list is its edges sorted once, and each
        // neighbor's list grows by one push.
        let mut own = Vec::with_capacity(self.edges.len() - first);
        for &(_, j, w) in &self.edges[first..] {
            own.push((j, w));
            link(&mut self.adjacency[j as usize], i as u32, w);
        }
        normalize(&mut own);
        self.adjacency.push(own);
        for &a in &route {
            self.anchor_members[a].push(i as u32);
        }
        // Grow the anchor pool toward its size target by promoting the
        // newest row; existing rows are never re-routed.
        if self.anchors.len() < target_anchor_count(i + 1) {
            self.anchors.push(i as u32);
            self.anchor_members.push(vec![i as u32]);
        }
    }

    /// Materializes the current graph (symmetrized CSR over all inserted
    /// rows) from the append-only adjacency: O(rows + edges), no sort.
    /// Equal to `SparseGraph::from_edges(n_rows, edges)`, so the
    /// propagation stage sees identical graphs before and after a resume.
    pub fn graph(&self) -> SparseGraph {
        SparseGraph::from_adjacency(&self.adjacency)
    }

    /// Exports the full routing state for checkpointing. Does not move
    /// the durable mark — pair with [`OnlineGraph::mark_durable`] when the
    /// snapshot becomes a new delta-log base.
    pub fn snapshot(&self) -> OnlineGraphState {
        OnlineGraphState {
            n_rows: self.n_rows,
            anchors: self.anchors.clone(),
            anchor_members: self.anchor_members.clone(),
            edges: self.edges.clone(),
        }
    }

    /// Declares everything inserted so far durable: the next
    /// [`OnlineGraph::export_delta`] reports only growth after this call.
    pub fn mark_durable(&mut self) {
        self.mark_anchors = self.anchors.len();
        self.mark_members = self.anchor_members.iter().map(Vec::len).collect();
        self.mark_edges = self.edges.len();
    }

    /// Exports everything inserted since the last durable point — cost
    /// proportional to the growth, not the graph — and advances the mark.
    /// Inserting the same rows then exporting is deterministic, so a
    /// replayed delta log reproduces [`OnlineGraph::snapshot`] exactly.
    pub fn export_delta(&mut self) -> OnlineGraphDelta {
        let new_edges = self.edges[self.mark_edges..].to_vec();
        let mut member_appends = Vec::new();
        for (idx, &old_len) in self.mark_members.iter().enumerate() {
            if self.anchor_members[idx].len() > old_len {
                member_appends.push((idx as u32, self.anchor_members[idx][old_len..].to_vec()));
            }
        }
        let new_anchors = (self.mark_anchors..self.anchors.len())
            .map(|i| (self.anchors[i], self.anchor_members[i].clone()))
            .collect();
        let delta =
            OnlineGraphDelta { n_rows: self.n_rows, new_edges, member_appends, new_anchors };
        self.mark_durable();
        delta
    }

    /// Rebuilds a graph from an exported state; insertion resumes exactly
    /// where the snapshot was taken. The routing parameters are not part
    /// of the state and must match the original graph's. Builds the
    /// adjacency once, as [`SparseGraph::from_edges`] would.
    ///
    /// # Panics
    /// Panics if the state fails [`OnlineGraphState::validate`] (callers
    /// decoding untrusted bytes must validate first).
    pub fn from_snapshot(k: usize, state: OnlineGraphState) -> Self {
        if let Err(e) = state.validate() {
            // lint: allow(panic) — documented panic: decoders validate first
            panic!("invalid online graph state: {e}");
        }
        let mut g = OnlineGraph::new(k);
        g.adjacency = symmetric_adjacency(state.n_rows, &state.edges);
        g.n_rows = state.n_rows;
        g.anchors = state.anchors;
        g.anchor_members = state.anchor_members;
        g.edges = state.edges;
        // Restored state came from a durable record: only growth past it
        // belongs in the next delta.
        g.mark_durable();
        g
    }
}

/// The union of one row's candidate lists over the rows inserted so far,
/// held as one bit per row. Setting members and walking the bits in ascending
/// order yields the sorted, distinct union without sorting; every walk
/// leaves the union clear for the next row. The online graph's member
/// lists grow row by row, so it sets each row's lists afresh; the batch
/// sweep, whose lists are fixed, ORs per-anchor bitmaps instead.
struct CandidateUnion {
    words: Vec<u64>,
}

impl CandidateUnion {
    /// A clear union over rows `0..rows`.
    fn new(rows: usize) -> Self {
        Self { words: vec![0; rows.div_ceil(64)] }
    }

    /// Adds `members`, all below the union's row count; returns how many
    /// were new.
    fn insert(&mut self, members: &[u32]) -> usize {
        let mut new = 0;
        for &j in members {
            let bit = j as usize;
            let word = &mut self.words[bit / 64];
            let mask = 1u64 << (bit % 64);
            new += usize::from(*word & mask == 0);
            *word |= mask;
        }
        new
    }

    /// Walks the union in ascending order and clears it. Each member
    /// passes through the counter `skip`: one that finds it at zero goes
    /// to `offer` and resets it to `stride - 1`, the others count it down.
    fn drain(&mut self, stride: usize, skip: &mut usize, mut offer: impl FnMut(usize)) {
        for (w, word) in self.words.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            let ones = bits.count_ones() as usize;
            if *skip >= ones {
                *skip -= ones;
                continue;
            }
            while bits != 0 {
                let j = w * 64 + bits.trailing_zeros() as usize;
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

/// An error for a graph state or delta that no graph could have exported.
fn malformed(message: String) -> CmError {
    CmError::new(ErrorKind::OutOfBounds, "OnlineGraphState", message)
}

/// Checks that every row id in `ids` is below `n_rows`.
fn rows_in_range(what: &str, ids: &[u32], n_rows: usize) -> CmResult<()> {
    match ids.iter().find(|&&v| v as usize >= n_rows) {
        Some(v) => Err(malformed(format!("{what} row {v} out of range for {n_rows} rows"))),
        None => Ok(()),
    }
}

/// Checks that every edge endpoint is below `n_rows`.
fn edges_in_range(edges: &[(u32, u32, f32)], n_rows: usize) -> CmResult<()> {
    match edges.iter().find(|&&(a, b, _)| a.max(b) as usize >= n_rows) {
        Some((a, b, _)) => {
            Err(malformed(format!("edge ({a}, {b}) out of range for {n_rows} rows")))
        }
        None => Ok(()),
    }
}

impl OnlineGraphState {
    /// Checks the invariants every exported state holds: one member list
    /// per anchor, and every anchor, member and edge endpoint a row below
    /// `n_rows`.
    ///
    /// # Errors
    /// Fails, naming the first violation, on a state no graph could have
    /// exported.
    pub fn validate(&self) -> CmResult<()> {
        if self.anchors.len() != self.anchor_members.len() {
            return Err(malformed(format!(
                "{} anchors but {} member lists",
                self.anchors.len(),
                self.anchor_members.len()
            )));
        }
        rows_in_range("anchor", &self.anchors, self.n_rows)?;
        for members in &self.anchor_members {
            rows_in_range("member", members, self.n_rows)?;
        }
        edges_in_range(&self.edges, self.n_rows)
    }

    /// Applies one exported delta in place: pure appends, so replaying a
    /// base snapshot plus every delta in export order is bit-identical to
    /// the live graph's [`OnlineGraph::snapshot`] at the same point.
    ///
    /// # Errors
    /// Fails, leaving the state untouched, if the delta rewinds `n_rows`,
    /// references an anchor index this state does not have, or names a
    /// row at or past its own `n_rows` — each means the delta was not
    /// exported against this base.
    pub fn apply_delta(&mut self, delta: &OnlineGraphDelta) -> CmResult<()> {
        if delta.n_rows < self.n_rows {
            return Err(malformed(format!(
                "delta rewinds n_rows from {} to {}",
                self.n_rows, delta.n_rows
            )));
        }
        delta.validate()?;
        if let Some((idx, _)) =
            delta.member_appends.iter().find(|(idx, _)| *idx as usize >= self.anchors.len())
        {
            return Err(malformed(format!(
                "delta appends to anchor {idx} of {}",
                self.anchors.len()
            )));
        }
        self.n_rows = delta.n_rows;
        self.edges.extend_from_slice(&delta.new_edges);
        for (idx, members) in &delta.member_appends {
            self.anchor_members[*idx as usize].extend_from_slice(members);
        }
        for (anchor, members) in &delta.new_anchors {
            self.anchors.push(*anchor);
            self.anchor_members.push(members.clone());
        }
        Ok(())
    }
}

impl OnlineGraphDelta {
    /// Checks that every row the delta names — edge endpoints, appended
    /// members, new anchors and their members — is below its `n_rows`.
    ///
    /// # Errors
    /// Fails, naming the first violation, on a delta no graph could have
    /// exported.
    pub fn validate(&self) -> CmResult<()> {
        edges_in_range(&self.new_edges, self.n_rows)?;
        for (_, members) in &self.member_appends {
            rows_in_range("member", members, self.n_rows)?;
        }
        for (anchor, members) in &self.new_anchors {
            rows_in_range("anchor", &[*anchor], self.n_rows)?;
            rows_in_range("member", members, self.n_rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use cm_featurespace::{
        CatSet, FeatureDef, FeatureSchema, FeatureSet, FeatureTable, FeatureValue, ServingMode,
        Vocabulary,
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

    /// Interleaved clusters, so any contiguous arrival batch mixes both.
    fn interleaved(n: usize) -> FeatureTable {
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::categorical(
            "c",
            FeatureSet::C,
            ServingMode::Servable,
            Vocabulary::from_names(["a", "b", "c", "d"]),
        )]));
        let mut t = FeatureTable::new(schema);
        for i in 0..n {
            let ids = if i % 2 == 0 { vec![0, 1] } else { vec![2, 3] };
            t.push_row(&[FeatureValue::Categorical(CatSet::from_ids(ids))]);
        }
        t
    }

    /// The first `end` rows of `t` as their own table, simulating the
    /// corpus as it looked mid-arrival.
    fn prefix_table(t: &FeatureTable, end: usize) -> FeatureTable {
        let mut prefix = FeatureTable::new(t.schema().clone());
        for r in 0..end {
            prefix.push_row(&t.row(r));
        }
        prefix
    }

    fn insert_in_cuts(t: &FeatureTable, cfg: &SimilarityConfig, cuts: &[usize]) -> OnlineGraph {
        let mut g = OnlineGraph::new(4);
        for &end in cuts.iter().chain([&t.len()]) {
            let prefix = prefix_table(t, end);
            g.insert_rows(&FrozenTable::freeze(&prefix), cfg);
        }
        g
    }

    #[test]
    fn batch_cuts_are_invisible() {
        let t = interleaved(120);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let frozen = FrozenTable::freeze(&t);
        let mut whole = OnlineGraph::new(4);
        whole.insert_rows(&frozen, &cfg);
        for cuts in [vec![1usize], vec![64], vec![10, 30, 90], vec![120]] {
            let g = insert_in_cuts(&t, &cfg, &cuts);
            assert_eq!(g.snapshot(), whole.snapshot(), "cuts = {cuts:?}");
        }
    }

    #[test]
    fn online_graph_recovers_cluster_structure() {
        let t = clustered(400);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let frozen = FrozenTable::freeze(&t);
        let mut og = OnlineGraph::new(5);
        og.insert_rows(&frozen, &cfg);
        let g = og.graph();
        let mut cross = 0usize;
        let mut total = 0usize;
        for v in 0..400 {
            let (neigh, _) = g.neighbors(v);
            for &u in neigh {
                total += 1;
                if (v < 200) != ((u as usize) < 200) {
                    cross += 1;
                }
            }
        }
        assert!(total > 0);
        assert_eq!(cross, 0, "{cross}/{total} cross-cluster edges");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let t = interleaved(200);
        let cfg = SimilarityConfig::uniform(vec![0]);
        // Uninterrupted run.
        let frozen = FrozenTable::freeze(&t);
        let mut whole = OnlineGraph::new(4);
        whole.insert_rows(&frozen, &cfg);
        // Run to row 80, snapshot, restore into a fresh graph, continue.
        let mut first = OnlineGraph::new(4);
        first.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 80)), &cfg);
        let state = first.snapshot();
        let mut resumed = OnlineGraph::from_snapshot(4, state);
        resumed.insert_rows(&frozen, &cfg);
        assert_eq!(resumed.snapshot(), whole.snapshot());
        assert_eq!(resumed.graph(), whole.graph());
    }

    #[test]
    fn anchor_pool_tracks_size_target() {
        let t = clustered(600);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut og = OnlineGraph::new(4);
        og.insert_rows(&FrozenTable::freeze(&t), &cfg);
        assert_eq!(og.n_anchors(), target_anchor_count(600));
    }

    #[test]
    fn delta_replay_reproduces_the_snapshot_exactly() {
        let t = interleaved(200);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut g = OnlineGraph::new(4);
        // Base at row 40, then per-batch deltas replayed onto it.
        g.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 40)), &cfg);
        let mut replayed = g.snapshot();
        g.mark_durable();
        for end in [55usize, 90, 130, 131, 200] {
            g.insert_rows(&FrozenTable::freeze(&prefix_table(&t, end)), &cfg);
            let delta = g.export_delta();
            replayed.apply_delta(&delta).unwrap();
            assert_eq!(replayed, g.snapshot(), "after replaying up to row {end}");
        }
    }

    #[test]
    fn export_delta_is_empty_after_no_growth() {
        let t = clustered(80);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut g = OnlineGraph::new(4);
        g.insert_rows(&FrozenTable::freeze(&t), &cfg);
        let _ = g.export_delta();
        let idle = g.export_delta();
        assert!(idle.new_edges.is_empty());
        assert!(idle.member_appends.is_empty());
        assert!(idle.new_anchors.is_empty());
        assert_eq!(idle.n_rows, 80);
    }

    #[test]
    fn restored_graph_deltas_match_uninterrupted_ones() {
        let t = interleaved(160);
        let cfg = SimilarityConfig::uniform(vec![0]);
        // Uninterrupted: base at 60, one delta covering 60..160.
        let mut live = OnlineGraph::new(4);
        live.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 60)), &cfg);
        live.mark_durable();
        live.insert_rows(&FrozenTable::freeze(&t), &cfg);
        let live_delta = live.export_delta();
        // Crashed-and-restored from the row-60 snapshot.
        let mut first = OnlineGraph::new(4);
        first.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 60)), &cfg);
        let mut resumed = OnlineGraph::from_snapshot(4, first.snapshot());
        resumed.insert_rows(&FrozenTable::freeze(&t), &cfg);
        assert_eq!(resumed.export_delta(), live_delta);
    }

    /// Rows with one random numeric feature, so similarities vary and a
    /// row's top-k come out in score order, not id order.
    fn random_numeric(n: usize, seed: u64) -> FeatureTable {
        use cm_linalg::rng::{Rng, StdRng};
        let schema = Arc::new(FeatureSchema::from_defs(vec![FeatureDef::numeric(
            "x",
            FeatureSet::A,
            ServingMode::Servable,
        )]));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = FeatureTable::new(schema);
        for _ in 0..n {
            t.push_row(&[FeatureValue::Numeric(rng.gen_range(0.0..4.0))]);
        }
        t
    }

    /// The graph the online graph replaced: a full rebuild from the edge
    /// list.
    fn rebuilt(g: &OnlineGraph) -> SparseGraph {
        SparseGraph::from_edges(g.n_rows(), &g.edges)
    }

    /// Random batch sizes, from single rows to large jumps.
    fn random_cuts(n: usize, seed: u64) -> Vec<usize> {
        use cm_linalg::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cuts = Vec::new();
        let mut end = 0;
        while end < n {
            end = (end + rng.gen_range(1usize..40)).min(n);
            cuts.push(end);
        }
        cuts
    }

    #[test]
    fn appended_adjacency_matches_full_rebuild() {
        let cfg = SimilarityConfig::uniform(vec![0]);
        for (t, seed) in
            [(interleaved(300), 1u64), (random_numeric(300, 2), 2), (random_numeric(300, 3), 3)]
        {
            let mut g = OnlineGraph::new(4);
            for end in random_cuts(t.len(), seed) {
                g.insert_rows(&FrozenTable::freeze(&prefix_table(&t, end)), &cfg);
                assert_eq!(g.graph(), rebuilt(&g), "seed {seed}, after row {end}");
            }
        }
    }

    #[test]
    fn restored_and_replayed_adjacency_matches_full_rebuild() {
        let t = random_numeric(240, 5);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let cuts = random_cuts(t.len(), 7);
        let mut live = OnlineGraph::new(4);
        live.insert_rows(&FrozenTable::freeze(&prefix_table(&t, cuts[2])), &cfg);
        let mut replayed = live.snapshot();
        live.mark_durable();
        let restored = OnlineGraph::from_snapshot(4, live.snapshot());
        assert_eq!(restored.graph(), rebuilt(&restored));
        for &end in &cuts[3..] {
            live.insert_rows(&FrozenTable::freeze(&prefix_table(&t, end)), &cfg);
            replayed.apply_delta(&live.export_delta()).unwrap();
            // A graph restored from base + deltas, then grown further.
            let mut resumed = OnlineGraph::from_snapshot(4, replayed.clone());
            assert_eq!(resumed.graph(), rebuilt(&resumed), "after row {end}");
            resumed.insert_rows(&FrozenTable::freeze(&t), &cfg);
            assert_eq!(resumed.graph(), rebuilt(&resumed), "grown from row {end}");
        }
        assert_eq!(live.graph(), rebuilt(&live));
    }

    /// Insertion with the candidate union written as a sort: gather the
    /// routed anchors' lists, sort, dedup, then `step_by(stride)`. Returns
    /// the edge list and each row's stride.
    fn sorted_union_reference(
        t: &FeatureTable,
        cfg: &SimilarityConfig,
        g: &OnlineGraph,
    ) -> (Vec<(u32, u32, f32)>, Vec<usize>) {
        let frozen = FrozenTable::freeze(t);
        let kernel = PairKernel::compile(&frozen, cfg);
        let mut anchors: Vec<usize> = Vec::new();
        let mut members: Vec<Vec<u32>> = Vec::new();
        let (mut edges, mut strides) = (Vec::new(), Vec::new());
        for i in 0..t.len() {
            let scores: Vec<f64> = anchors.iter().map(|&a| kernel.pair(i, a)).collect();
            let route = route_row(&scores, g.probes);
            let mut list: Vec<u32> =
                route.iter().flat_map(|&a| members[a].iter().copied()).collect();
            list.sort_unstable();
            list.dedup();
            let stride = candidate_stride(list.len(), g.max_candidates);
            strides.push(stride);
            let mut top = TopK::new(g.k);
            for &j in list.iter().step_by(stride) {
                let s = kernel.pair(i, j as usize);
                if s >= g.min_weight {
                    top.push(j, s as f32);
                }
            }
            top.drain_into(i as u32, &mut edges);
            for &a in &route {
                members[a].push(i as u32);
            }
            if anchors.len() < target_anchor_count(i + 1) {
                anchors.push(i);
                members.push(vec![i as u32]);
            }
        }
        (edges, strides)
    }

    #[test]
    fn bitmap_union_matches_sorted_union_on_a_growing_table() {
        let cfg = SimilarityConfig::uniform(vec![0]);
        for (t, seed) in [(interleaved(400), 11u64), (random_numeric(400, 12), 12)] {
            let mut g = OnlineGraph::new(4);
            g.max_candidates = 8;
            let (want, strides) = sorted_union_reference(&t, &cfg, &g);
            let long = strides.iter().filter(|&&s| s > 1).count();
            assert!(2 * long > strides.len(), "only {long}/{} rows strided", strides.len());
            for end in random_cuts(t.len(), seed) {
                g.insert_rows(&FrozenTable::freeze(&prefix_table(&t, end)), &cfg);
                let prefix = want.iter().take_while(|e| (e.0 as usize) < end).count();
                assert_eq!(g.edges, want[..prefix], "seed {seed}, after row {end}");
                assert_eq!(g.graph(), SparseGraph::from_edges(end, &want[..prefix]));
            }
        }
    }

    #[test]
    fn malformed_states_and_deltas_are_rejected() {
        let t = interleaved(60);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut g = OnlineGraph::new(4);
        g.insert_rows(&FrozenTable::freeze(&prefix_table(&t, 30)), &cfg);
        let base = g.snapshot();
        assert!(base.validate().is_ok());
        let mut bad = base.clone();
        bad.edges.push((30, 0, 0.5));
        assert!(bad.validate().is_err());
        let mut bad = base.clone();
        bad.anchor_members[0].push(99);
        assert!(bad.validate().is_err());
        let mut bad = base.clone();
        bad.anchors.push(1);
        assert!(bad.validate().is_err());

        g.mark_durable();
        g.insert_rows(&FrozenTable::freeze(&t), &cfg);
        let delta = g.export_delta();
        let mut state = base.clone();
        let mut rewind = delta.clone();
        rewind.n_rows = 10;
        assert!(state.apply_delta(&rewind).is_err());
        let mut far = delta.clone();
        far.new_edges.push((60, 1, 0.5));
        assert!(state.apply_delta(&far).is_err());
        let mut stray = delta.clone();
        stray.member_appends.push((u32::MAX, vec![1]));
        assert!(state.apply_delta(&stray).is_err());
        assert_eq!(state, base, "a rejected delta leaves the state untouched");
        state.apply_delta(&delta).unwrap();
        assert_eq!(state, g.snapshot());
    }

    #[test]
    fn empty_insert_is_a_no_op() {
        let t = clustered(50);
        let cfg = SimilarityConfig::uniform(vec![0]);
        let mut og = OnlineGraph::new(4);
        let frozen = FrozenTable::freeze(&t);
        og.insert_rows(&frozen, &cfg);
        let before = og.snapshot();
        og.insert_rows(&frozen, &cfg);
        assert_eq!(og.snapshot(), before);
    }
}
