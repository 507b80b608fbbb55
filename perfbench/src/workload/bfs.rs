//! `bfs_rmat`: Table IV / Fig. 12 shape. One seeded R-MAT graph is
//! BFS-traversed on APEnet+ and on the InfiniBand baseline at np 1/2/4/8.
//! Every call rebuilds the graph, so graph construction dominates and the
//! event loop is a small share.

use super::{fnv1a, sub_seed, SimMetrics, Workload};
use crate::pass::Pass;
use crate::stats::{geomean, nearest_rank};
use apenet_apps::bfs::dist::{Partition, RankState};
use apenet_apps::bfs::run::{run_apenet, run_ib, BfsConfig, BfsResult};
use apenet_apps::bfs::{rmat, seq, Csr};
use apenet_ib::IbConfig;

/// Graph scale: 2^18 vertices, 4 Mi edges.
const SCALE: u32 = 18;
const NPS: [usize; 4] = [1, 2, 4, 8];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Net {
    Apenet,
    Ib,
}

struct Kept {
    op: u64,
    net: Net,
    np: usize,
    result: BfsResult,
}

/// The workload.
pub struct BfsRmat {
    graph_seed: u64,
    kept: Vec<Kept>,
}

impl BfsRmat {
    /// The graph is drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        BfsRmat {
            graph_seed: sub_seed(seed, 1),
            kept: Vec::new(),
        }
    }

    fn config(&self, np: usize) -> BfsConfig {
        BfsConfig {
            seed: self.graph_seed,
            ..BfsConfig::small(SCALE, np)
        }
    }
}

fn run(net: Net, cfg: &BfsConfig) -> BfsResult {
    match net {
        Net::Apenet => run_apenet(cfg),
        Net::Ib => run_ib(cfg, IbConfig::cluster_ii()),
    }
}

fn tree_digest(r: &BfsResult) -> u64 {
    let level = r.tree.level.iter().flat_map(|v| v.to_le_bytes());
    let parent = r.tree.parent.iter().flat_map(|v| v.to_le_bytes());
    fnv1a(level.chain(parent))
}

/// Bytes the level-synchronous exchange puts on the network for `np`
/// ranks: every rank sends every peer a 4-byte frontier count plus 8
/// bytes per discovered (vertex, parent) pair, each level including the
/// final empty one. Replays the public rank-state machine the runs use.
fn exchange_bytes(g: &Csr, np: usize, root: u32) -> u64 {
    let part = Partition { n: g.n(), np };
    let mut ranks: Vec<RankState> = (0..np).map(|r| RankState::new(r, part, root)).collect();
    let mut bytes = 0u64;
    let mut level = 0i32;
    loop {
        let frontier: usize = ranks.iter().map(|r| r.frontier.len()).sum();
        let exps: Vec<_> = ranks.iter_mut().map(|r| r.expand(g, level + 1)).collect();
        for (src, e) in exps.iter().enumerate() {
            for (dst, pairs) in e.to_rank.iter().enumerate() {
                if dst != src {
                    bytes += 4 + 8 * pairs.len() as u64;
                }
            }
        }
        for (dst, r) in ranks.iter_mut().enumerate() {
            for (src, e) in exps.iter().enumerate() {
                if src != dst {
                    r.apply(&e.to_rank[dst], level + 1);
                }
            }
        }
        if frontier == 0 {
            return bytes;
        }
        level += 1;
    }
}

impl Workload for BfsRmat {
    fn warm_up(&mut self) {
        // The timed calls' own configuration, smallest rank count.
        run(Net::Apenet, &self.config(1));
    }

    fn pass(&mut self, p: &mut Pass, keep: bool) {
        for np in NPS {
            for net in [Net::Apenet, Net::Ib] {
                let cfg = self.config(np);
                if p.traced() {
                    // Standalone graph construction with the call's
                    // config: the part of the call spent outside the
                    // simulated traversal.
                    let n = 1usize << cfg.scale;
                    let edges = p.call("apps.bfs.rmat", || {
                        rmat::generate_with(cfg.scale, cfg.edgefactor, cfg.seed, cfg.permute)
                    });
                    if let Some(edges) = edges {
                        p.call("apps.bfs.csr", || Csr::build(n, &edges));
                    }
                }
                let span = match net {
                    Net::Apenet => "apps.bfs.run_apenet",
                    Net::Ib => "apps.bfs.run_ib",
                };
                let op = p.next_op();
                let Some(r) = p.call(span, || run(net, &cfg)) else {
                    continue;
                };
                p.check(r.teps.is_finite() && r.teps > 0.0, || {
                    format!("{net:?} np={np}: teps {}", r.teps)
                });
                p.det(format_args!(
                    "{net:?} np={np} teps={} wall_ps={} edges={} levels={} tree={:016x}",
                    r.teps,
                    r.wall.as_ps(),
                    r.traversed_edges,
                    r.levels,
                    tree_digest(&r),
                ));
                if keep {
                    self.kept.push(Kept {
                        op,
                        net,
                        np,
                        result: r,
                    });
                }
            }
        }
    }

    fn finish(&mut self, p: &mut Pass) -> Option<SimMetrics> {
        let cfg = self.config(1);
        let edges = rmat::generate_with(cfg.scale, cfg.edgefactor, cfg.seed, cfg.permute);
        p.count("apps.bfs.graph_edges", edges.len() as f64);
        let g = Csr::build(1 << cfg.scale, &edges);
        drop(edges);
        let reference = seq::bfs(&g, cfg.root);
        let mut teps = Vec::new();
        let mut wall_us = Vec::new();
        let mut rank_us = Vec::new();
        let mut bw = Vec::new();
        let mut exchange = std::collections::BTreeMap::new();
        for k in &self.kept {
            if let Err(e) = seq::validate(&g, cfg.root, &k.result.tree, &reference) {
                p.fail(
                    k.op,
                    format!("{:?} np={}: invalid BFS tree: {e}", k.net, k.np),
                );
            }
            teps.push(k.result.teps);
            wall_us.push(k.result.wall.as_us_f64());
            rank_us.extend(
                k.result
                    .breakdown
                    .iter()
                    .map(|(comp, comm)| (*comp + *comm).as_us_f64()),
            );
            if k.np > 1 {
                let bytes = *exchange
                    .entry(k.np)
                    .or_insert_with(|| exchange_bytes(&g, k.np, cfg.root));
                bw.push(bytes as f64 / k.result.wall.as_secs_f64() / 1e6);
            }
        }
        for (np, bytes) in &exchange {
            p.det(format_args!("exchange np={np} bytes={bytes}"));
        }
        Some(SimMetrics {
            bw_mbps: geomean(&bw)?,
            lat_us: geomean(&wall_us)?,
            p99_us: nearest_rank(&rank_us, 0.99)?,
            teps: geomean(&teps)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_replay_matches_a_hand_count() {
        // Path 0-1-2-3 split over two ranks {0,1} | {2,3}, root 0.
        let g = Csr::build(4, &[(0, 1), (1, 2), (2, 3)]);
        // Frontiers {0}, {1}, {2}, {3}, {}: five rounds of two 4-byte
        // headers. Remote candidates are sent whether or not the owner
        // has seen them: (2, 1) in round 1 and (1, 2) in round 2.
        assert_eq!(exchange_bytes(&g, 2, 0), 5 * 2 * 4 + 2 * 8);
        assert_eq!(exchange_bytes(&g, 1, 0), 0);
    }
}
