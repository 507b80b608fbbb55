//! R-MAT edge generation, graph500-flavoured.
//!
//! The paper's BFS study uses graphs "according to the specs of the
//! graph500 benchmark" (§V.E): R-MAT with (A, B, C, D) =
//! (0.57, 0.19, 0.19, 0.05), `2^scale` vertices and `edgefactor`
//! edges per vertex, with a random vertex relabelling so that contiguous
//! 1-D partitions are load balanced.

use apenet_sim::rng::Xoshiro256ss;

/// Graph500 R-MAT parameters.
pub const RMAT_A: f64 = 0.57;
/// Quadrant B.
pub const RMAT_B: f64 = 0.19;
/// Quadrant C.
pub const RMAT_C: f64 = 0.19;

/// Generate `edgefactor * 2^scale` R-MAT edges over `2^scale` vertices,
/// deterministically from `seed`, optionally permuting vertex labels.
///
/// Without the permutation the heavy R-MAT quadrant concentrates in the
/// low vertex ids — rank 0 of a contiguous 1-D partition then carries a
/// disproportionate share of every frontier, which is what throttles the
/// paper's strong scaling (Table IV); the full graph500 relabelling is
/// kept as an ablation.
///
/// The quadrant pick is branchless (three threshold compares per bit)
/// and draw-for-draw identical to the textbook `if r < A … else if …`
/// chain: one `next_f64` per bit, same thresholds, same edge list.
pub fn generate_with(scale: u32, edgefactor: u32, seed: u64, permute: bool) -> Vec<(u32, u32)> {
    assert!(scale <= 30, "u32 vertex ids");
    let n = 1u64 << scale;
    let m = n * edgefactor as u64;
    let mut rng = Xoshiro256ss::seed_from(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    if permute {
        rng.shuffle(&mut perm);
    }
    let mut edges = Vec::with_capacity(m as usize);
    for _ in 0..m {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..scale {
            // Quadrant bits (u, v): A (0,0), B (0,1), C (1,0), D (1,1).
            let r = rng.next_f64();
            let ge_a = r >= RMAT_A;
            let ge_ab = r >= RMAT_A + RMAT_B;
            let ge_abc = r >= RMAT_A + RMAT_B + RMAT_C;
            u = (u << 1) | ge_ab as u64;
            v = (v << 1) | ((ge_a & !ge_ab) | ge_abc) as u64;
        }
        edges.push((perm[u as usize], perm[v as usize]));
    }
    edges
}

/// [`generate_with`] with the graph500 relabelling enabled.
pub fn generate(scale: u32, edgefactor: u32, seed: u64) -> Vec<(u32, u32)> {
    generate_with(scale, edgefactor, seed, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        let a = generate(10, 16, 7);
        let b = generate(10, 16, 7);
        let c = generate(10, 16, 8);
        assert_eq!(a.len(), 16 << 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// FNV-1a over the little-endian `(u, v)` pairs.
    fn digest(edges: &[(u32, u32)]) -> u64 {
        edges
            .iter()
            .flat_map(|&(u, v)| u.to_le_bytes().into_iter().chain(v.to_le_bytes()))
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn edge_lists_are_pinned() {
        // Digests of the original if/else quadrant draw: any change to
        // the draw order or the quadrant thresholds shows here.
        let raw = digest(&generate_with(12, 16, 3, false));
        let permuted = digest(&generate_with(12, 16, 3, true));
        assert_eq!(raw, 0x12d6_6757_e028_218f);
        assert_eq!(permuted, 0x8a9a_b96f_50e3_901d);
    }

    #[test]
    fn vertices_in_range() {
        let edges = generate(8, 16, 1);
        for &(u, v) in &edges {
            assert!(u < 256 && v < 256);
        }
    }

    #[test]
    fn skewed_degree_distribution() {
        // R-MAT graphs are heavy-tailed: the maximum degree should far
        // exceed the mean.
        let edges = generate(12, 16, 3);
        let mut deg = vec![0u32; 1 << 12];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mean = 2.0 * edges.len() as f64 / deg.len() as f64;
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 8.0 * mean, "max {max} mean {mean}");
    }

    #[test]
    fn permutation_balances_partitions() {
        // With relabelling, a contiguous 4-way split should see roughly
        // comparable edge endpoint counts (within 3x of each other).
        let edges = generate(12, 16, 3);
        let n = 1usize << 12;
        let mut per_part = [0u64; 4];
        for &(u, v) in &edges {
            per_part[(u as usize) * 4 / n] += 1;
            per_part[(v as usize) * 4 / n] += 1;
        }
        let max = *per_part.iter().max().unwrap() as f64;
        let min = *per_part.iter().min().unwrap() as f64;
        assert!(max / min < 3.0, "{per_part:?}");
    }
}
