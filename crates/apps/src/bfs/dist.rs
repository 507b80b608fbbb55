//! Distributed level-synchronous BFS: partitioning and the pure per-level
//! expansion/apply steps (the transport-independent algorithm core).

use crate::bfs::csr::Csr;

/// 1-D contiguous vertex partition over `np` ranks.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    /// Total vertices.
    pub n: usize,
    /// Ranks.
    pub np: usize,
}

impl Partition {
    /// Vertices per rank (last rank may own fewer).
    pub fn chunk(&self) -> usize {
        self.n.div_ceil(self.np)
    }

    /// The rank owning vertex `v`.
    pub fn owner(&self, v: u32) -> usize {
        (v as usize / self.chunk()).min(self.np - 1)
    }

    /// The vertex range `[lo, hi)` owned by `rank`.
    pub fn range(&self, rank: usize) -> (u32, u32) {
        let lo = (rank * self.chunk()).min(self.n);
        let hi = ((rank + 1) * self.chunk()).min(self.n);
        (lo as u32, hi as u32)
    }

    /// Number of vertices owned by `rank`.
    pub fn owned(&self, rank: usize) -> usize {
        let (lo, hi) = self.range(rank);
        (hi - lo) as usize
    }
}

/// Per-rank BFS state over the owned range `[lo, hi) = part.range(rank)`.
#[derive(Debug, Clone)]
pub struct RankState {
    /// This rank.
    pub rank: usize,
    /// The partition.
    pub part: Partition,
    /// Levels of the owned vertices, indexed by `v - lo` (−1 = unreached).
    pub level: Vec<i32>,
    /// Parents of the owned vertices, indexed by `v - lo`.
    pub parent: Vec<i64>,
    /// Current frontier (owned vertices discovered last level).
    pub frontier: Vec<u32>,
    /// First owned vertex.
    lo: u32,
    /// Per-level dedup bitmap for remote candidates (global vertex ids).
    sent: Vec<u64>,
}

/// One level's expansion output.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// Candidate `(vertex, parent)` pairs per destination rank.
    pub to_rank: Vec<Vec<(u32, u32)>>,
    /// Directed edges scanned (the kernel-cost driver).
    pub edges_scanned: u64,
}

impl RankState {
    /// Fresh state; seeds the frontier with `root` if owned.
    pub fn new(rank: usize, part: Partition, root: u32) -> Self {
        let (lo, hi) = part.range(rank);
        let owned = (hi - lo) as usize;
        let mut s = RankState {
            rank,
            part,
            level: vec![-1; owned],
            parent: vec![-1; owned],
            frontier: Vec::new(),
            lo,
            sent: vec![0; part.n.div_ceil(64)],
        };
        if (lo..hi).contains(&root) {
            s.level[(root - lo) as usize] = 0;
            s.parent[(root - lo) as usize] = root as i64;
            s.frontier.push(root);
        }
        s
    }

    /// Scan the current frontier: local discoveries are applied on the
    /// spot (they join the *next* frontier later via `apply`), remote
    /// candidates are binned per owner rank, deduplicated per level (the
    /// sort-unique pass of the paper's multi-GPU BFS [15]).
    pub fn expand(&mut self, g: &Csr, next_level: i32) -> Expansion {
        let np = self.part.np;
        let chunk = self.part.chunk();
        let lo = self.lo;
        let mut to_rank: Vec<Vec<(u32, u32)>> = (0..np).map(|_| Vec::new()).collect();
        let mut edges = 0u64;
        self.sent.fill(0);
        let frontier = std::mem::take(&mut self.frontier);
        let mut local_new = Vec::new();
        let (level, parent, sent) = (&mut self.level[..], &mut self.parent[..], &mut self.sent);
        for &u in &frontier {
            let adj = g.neighbors(u);
            edges += adj.len() as u64;
            for &v in adj {
                // `lo <= v < hi` in one compare: `v - lo` indexes `level`.
                let i = v.wrapping_sub(lo) as usize;
                if let Some(l) = level.get_mut(i) {
                    if *l < 0 {
                        *l = next_level;
                        parent[i] = u as i64;
                        local_new.push(v);
                    }
                } else {
                    // Remote: send once per level, to the owner `v / chunk`.
                    let (w, bit) = (v as usize / 64, 1u64 << (v % 64));
                    if sent[w] & bit == 0 {
                        sent[w] |= bit;
                        to_rank[v as usize / chunk].push((v, u));
                    }
                }
            }
        }
        // Local discoveries seed the next frontier immediately.
        self.frontier = local_new;
        Expansion {
            to_rank,
            edges_scanned: edges,
        }
    }

    /// Apply candidates received from other ranks for `next_level`;
    /// returns how many were fresh (they join the next frontier).
    pub fn apply(&mut self, pairs: &[(u32, u32)], next_level: i32) -> usize {
        let mut fresh = 0;
        for &(v, p) in pairs {
            debug_assert_eq!(self.part.owner(v), self.rank);
            let i = (v - self.lo) as usize;
            if self.level[i] < 0 {
                self.level[i] = next_level;
                self.parent[i] = p as i64;
                self.frontier.push(v);
                fresh += 1;
            }
        }
        fresh
    }
}

/// Serialize candidates with the frontier-size header (wire format:
/// `[u32 own_frontier_len][(u32 v)(u32 parent)]*`).
pub fn encode(own_frontier: u32, pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + pairs.len() * 8);
    out.extend_from_slice(&own_frontier.to_le_bytes());
    for &(v, p) in pairs {
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&p.to_le_bytes());
    }
    out
}

/// Inverse of [`encode`].
pub fn decode(bytes: &[u8]) -> (u32, Vec<(u32, u32)>) {
    assert!(bytes.len() >= 4 && (bytes.len() - 4).is_multiple_of(8));
    let header = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let pairs = bytes[4..]
        .chunks_exact(8)
        .map(|c| {
            (
                u32::from_le_bytes(c[0..4].try_into().unwrap()),
                u32::from_le_bytes(c[4..8].try_into().unwrap()),
            )
        })
        .collect();
    (header, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::rmat;
    use crate::bfs::seq;

    #[test]
    fn partition_covers_all() {
        let p = Partition { n: 1000, np: 3 };
        let mut seen = 0;
        for r in 0..3 {
            let (lo, hi) = p.range(r);
            for v in lo..hi {
                assert_eq!(p.owner(v), r);
                seen += 1;
            }
        }
        assert_eq!(seen, 1000);
        assert_eq!(p.owned(0) + p.owned(1) + p.owned(2), 1000);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let pairs = vec![(1u32, 2u32), (300, 400), (u32::MAX, 0)];
        let bytes = encode(77, &pairs);
        let (h, back) = decode(&bytes);
        assert_eq!(h, 77);
        assert_eq!(back, pairs);
        assert_eq!(decode(&encode(5, &[])), (5, vec![]));
    }

    /// Run the whole distributed algorithm in-process (perfect transport)
    /// and compare against the sequential reference.
    fn run_inprocess(g: &Csr, np: usize, root: u32) -> seq::BfsTree {
        let part = Partition { n: g.n(), np };
        let mut ranks: Vec<RankState> = (0..np).map(|r| RankState::new(r, part, root)).collect();
        let mut level = 0i32;
        loop {
            let frontier_total: usize = ranks.iter().map(|r| r.frontier.len()).sum();
            if frontier_total == 0 {
                break;
            }
            let expansions: Vec<Expansion> =
                ranks.iter_mut().map(|r| r.expand(g, level + 1)).collect();
            for (src, e) in expansions.iter().enumerate() {
                let _ = src;
                for (dst, pairs) in e.to_rank.iter().enumerate() {
                    ranks[dst].apply(pairs, level + 1);
                }
            }
            level += 1;
            assert!(level < 1000, "runaway");
        }
        // Merge.
        let mut out = seq::BfsTree {
            level: vec![-1; g.n()],
            parent: vec![-1; g.n()],
        };
        for r in &ranks {
            let (lo, hi) = part.range(r.rank);
            let owned = lo as usize..hi as usize;
            out.level[owned.clone()].copy_from_slice(&r.level);
            out.parent[owned].copy_from_slice(&r.parent);
        }
        out
    }

    #[test]
    fn rank_state_covers_only_the_owned_range() {
        let part = Partition { n: 10, np: 3 };
        let s = RankState::new(2, part, 9);
        assert_eq!((s.level.len(), s.parent.len()), (2, 2));
        assert_eq!((s.level[1], s.parent[1]), (0, 9));
        assert_eq!(s.frontier, [9]);
        assert!(RankState::new(0, part, 9).frontier.is_empty());
    }

    #[test]
    fn ranks_without_vertices_still_traverse() {
        // 4 vertices over up to 8 ranks: ranks 4.. own nothing.
        let g = Csr::build(4, &rmat::generate(2, 16, 500));
        let reference = seq::bfs(&g, 1);
        for np in [1, 2, 7, 8] {
            let tree = run_inprocess(&g, np, 1);
            seq::validate(&g, 1, &tree, &reference).unwrap_or_else(|e| panic!("np={np}: {e}"));
        }
        let idle = RankState::new(7, Partition { n: 4, np: 8 }, 1);
        assert!(idle.level.is_empty() && idle.frontier.is_empty());
    }

    #[test]
    fn distributed_equals_sequential_reference() {
        let edges = rmat::generate(10, 16, 9);
        let g = Csr::build(1 << 10, &edges);
        let reference = seq::bfs(&g, 3);
        for np in [1, 2, 4, 7] {
            let tree = run_inprocess(&g, np, 3);
            seq::validate(&g, 3, &tree, &reference).unwrap_or_else(|e| panic!("np={np}: {e}"));
        }
    }
}
