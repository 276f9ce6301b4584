//! CSR sparse undirected weighted graph.

/// Compressed-sparse-row weighted graph. Vertices are dataset row indices;
/// edge weights are Algorithm-1 similarities.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseGraph {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    weights: Vec<f32>,
}

impl SparseGraph {
    /// Builds a symmetric graph from an edge list (deduplicating with
    /// max-weight wins).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n_vertices: usize, edges: &[(u32, u32, f32)]) -> Self {
        Self::from_adjacency(&symmetric_adjacency(n_vertices, edges))
    }

    /// Packs per-vertex neighbor lists, each sorted by neighbor with no
    /// repeats (as [`symmetric_adjacency`] leaves them), into CSR.
    pub(crate) fn from_adjacency(adj: &[Vec<(u32, f32)>]) -> Self {
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        let mut neighbors = Vec::with_capacity(total);
        let mut weights = Vec::with_capacity(total);
        offsets.push(0);
        for list in adj {
            for &(n, w) in list {
                neighbors.push(n);
                weights.push(w);
            }
            offsets.push(neighbors.len());
        }
        Self { offsets, neighbors, weights }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (undirected) edges.
    pub fn n_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Approximate resident bytes of the CSR storage, for memory-budget
    /// accounting in the sharded drivers.
    pub fn approx_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<u32>()
            + self.weights.len() * std::mem::size_of::<f32>()
    }

    /// Neighbor ids and weights of a vertex.
    #[inline]
    pub fn neighbors(&self, v: usize) -> (&[u32], &[f32]) {
        let start = self.offsets[v];
        let end = self.offsets[v + 1];
        (&self.neighbors[start..end], &self.weights[start..end])
    }

    /// Degree of a vertex.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sum of incident edge weights.
    pub fn weighted_degree(&self, v: usize) -> f64 {
        let (_, w) = self.neighbors(v);
        w.iter().map(|&x| f64::from(x)).sum()
    }
}

/// Symmetrized neighbor lists of an edge list: both directions of every
/// non-loop edge, each list sorted by neighbor (stably, so among repeats
/// edge order decides) and deduplicated with max-weight wins.
///
/// # Panics
/// Panics if an endpoint is out of range.
pub(crate) fn symmetric_adjacency(
    n_vertices: usize,
    edges: &[(u32, u32, f32)],
) -> Vec<Vec<(u32, f32)>> {
    let mut adj: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n_vertices];
    for &(a, b, w) in edges {
        assert!(
            (a as usize) < n_vertices && (b as usize) < n_vertices,
            "edge endpoint out of range"
        );
        if a == b {
            continue;
        }
        adj[a as usize].push((b, w));
        adj[b as usize].push((a, w));
    }
    for list in &mut adj {
        normalize(list);
    }
    adj
}

/// Sorts one neighbor list by neighbor (stably) and merges repeats, the
/// first occurrence's weight replaced by any strictly larger one.
pub(crate) fn normalize(list: &mut Vec<(u32, f32)>) {
    list.sort_by_key(|&(n, _)| n);
    list.dedup_by(|later, kept| {
        if later.0 != kept.0 {
            return false;
        }
        if later.1 > kept.1 {
            kept.1 = later.1;
        }
        true
    });
}

/// Appends edge `(n, w)` to a neighbor list whose entries are all `<= n`,
/// keeping it sorted and deduplicated exactly as [`symmetric_adjacency`]
/// would: a repeat of the last neighbor keeps the larger weight.
pub(crate) fn link(list: &mut Vec<(u32, f32)>, n: u32, w: f32) {
    match list.last_mut() {
        Some(last) if last.0 == n => {
            if w > last.1 {
                last.1 = w;
            }
        }
        _ => list.push((n, w)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_symmetrizes() {
        let g = SparseGraph::from_edges(3, &[(0, 1, 0.5), (1, 2, 0.25)]);
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_edges(), 2);
        let (n0, w0) = g.neighbors(0);
        assert_eq!(n0, &[1]);
        assert_eq!(w0, &[0.5]);
        let (n1, _) = g.neighbors(1);
        assert_eq!(n1, &[0, 2]);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn duplicate_edges_keep_max_weight() {
        let g = SparseGraph::from_edges(2, &[(0, 1, 0.2), (1, 0, 0.7)]);
        let (_, w) = g.neighbors(0);
        assert_eq!(w, &[0.7]);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn self_loops_dropped() {
        let g = SparseGraph::from_edges(2, &[(0, 0, 1.0), (0, 1, 0.5)]);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn weighted_degree_sums() {
        let g = SparseGraph::from_edges(3, &[(0, 1, 0.5), (0, 2, 0.25)]);
        assert!((g.weighted_degree(0) - 0.75).abs() < 1e-9);
        assert_eq!(g.weighted_degree(1), 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoints() {
        SparseGraph::from_edges(2, &[(0, 5, 1.0)]);
    }

    #[test]
    fn isolated_vertices_have_empty_neighborhoods() {
        let g = SparseGraph::from_edges(4, &[(0, 1, 1.0)]);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(3).0.len(), 0);
    }
}
