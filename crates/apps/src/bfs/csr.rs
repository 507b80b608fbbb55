//! Compressed sparse row adjacency.

/// An undirected graph in CSR form: every input edge is stored in both
//  directions; self-loops dropped; parallel edges deduplicated.
#[derive(Debug, Clone)]
pub struct Csr {
    offsets: Vec<u64>,
    adjacency: Vec<u32>,
    undirected_edges: u64,
}

impl Csr {
    /// Build from an edge list over `n` vertices.
    pub fn build(n: usize, edges: &[(u32, u32)]) -> Self {
        // Counting sort into rows, both directions: count degrees, turn
        // them into row ends, then fill each row back to front so the
        // ends become row starts.
        let mut offsets = vec![0u64; n + 1];
        for &(u, v) in edges {
            if u != v {
                offsets[u as usize] += 1;
                offsets[v as usize] += 1;
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let mut adjacency = vec![0u32; offsets[n] as usize];
        for &(u, v) in edges {
            if u != v {
                offsets[u as usize] -= 1;
                adjacency[offsets[u as usize] as usize] = v;
                offsets[v as usize] -= 1;
                adjacency[offsets[v as usize] as usize] = u;
            }
        }
        // Sort and dedup each row, compacting in place: a row's unique
        // entries move down to `kept`, which never passes the row start.
        let mut kept = 0usize;
        for i in 0..n {
            let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
            offsets[i] = kept as u64;
            adjacency[start..end].sort_unstable();
            let row_start = kept;
            for j in start..end {
                let x = adjacency[j];
                if kept == row_start || adjacency[kept - 1] != x {
                    adjacency[kept] = x;
                    kept += 1;
                }
            }
        }
        offsets[n] = kept as u64;
        adjacency.truncate(kept);
        adjacency.shrink_to_fit();
        Csr {
            offsets,
            adjacency,
            undirected_edges: kept as u64 / 2,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct undirected edges (after cleanup).
    pub fn undirected_edges(&self) -> u64 {
        self.undirected_edges
    }

    /// Neighbours of `v`, sorted ascending.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adjacency[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// True when `(u, v)` is an edge (binary search).
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn builds_undirected_deduped() {
        let edges = vec![(0, 1), (1, 0), (1, 2), (2, 2), (3, 1)];
        let g = Csr::build(4, &edges);
        assert_eq!(g.n(), 4);
        assert_eq!(g.neighbors(1), &[0, 2, 3]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[1], "self-loop dropped");
        assert_eq!(g.undirected_edges(), 3);
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.degree(1), 3);
    }

    #[test]
    fn symmetry() {
        let edges = crate::bfs::rmat::generate(8, 8, 5);
        let g = Csr::build(256, &edges);
        for u in 0..256u32 {
            for &v in g.neighbors(u) {
                assert!(g.has_edge(v, u), "asymmetric {u}-{v}");
            }
        }
    }

    /// `BTreeSet`-per-row reference: both directions, no self-loops.
    fn naive_rows(n: usize, edges: &[(u32, u32)]) -> Vec<BTreeSet<u32>> {
        let mut rows = vec![BTreeSet::new(); n];
        for &(u, v) in edges {
            if u != v {
                rows[u as usize].insert(v);
                rows[v as usize].insert(u);
            }
        }
        rows
    }

    #[test]
    fn in_place_build_matches_a_set_per_row() {
        for (scale, seed) in [(4, 1), (6, 2), (9, 3)] {
            let n = 1usize << scale;
            let mut edges = crate::bfs::rmat::generate(scale, 16, seed);
            // Make sure both kinds of redundancy are present.
            edges.extend_from_slice(&[(3, 3), (0, 1), (1, 0), (0, 1)]);
            assert!(edges.iter().any(|&(u, v)| u == v));
            let g = Csr::build(n, &edges);
            let rows = naive_rows(n, &edges);
            for (u, row) in rows.iter().enumerate() {
                assert!(
                    g.neighbors(u as u32).iter().eq(row),
                    "scale {scale} row {u}"
                );
            }
            let total: usize = rows.iter().map(BTreeSet::len).sum();
            assert_eq!(g.undirected_edges(), total as u64 / 2);
            assert_eq!(g.adjacency.capacity(), g.adjacency.len());
        }
    }

    #[test]
    fn isolated_vertices_ok() {
        let g = Csr::build(10, &[(0, 1)]);
        assert_eq!(g.degree(5), 0);
        assert!(g.neighbors(5).is_empty());
    }
}
