//! The benchmark's workloads and what they report.

use crate::pass::Pass;
use apenet_sim::rng::SplitMix64;

pub mod bfs;
pub mod p2p;
pub mod torus;

/// Names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["bfs_rmat", "p2p_sweep", "torus_faults"];

/// Modelled (simulated-hardware) end-to-end metrics of one pass. They are
/// deterministic: a seed gives the same values on every run and host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Delivered bandwidth, MB/s (geometric mean over the workload's
    /// transfers).
    pub bw_mbps: f64,
    /// Typical latency, µs.
    pub lat_us: f64,
    /// Tail latency, µs.
    pub p99_us: f64,
    /// Work items per simulated second: traversed edges (BFS) or
    /// delivered messages.
    pub teps: f64,
}

/// A workload: a seeded set of calls into the simulator crates.
pub trait Workload {
    /// Untimed set-up the run pays before its first timed call, so that
    /// lazy state and any cache the program builds are warm.
    fn warm_up(&mut self);
    /// One pass over every timed call, with the cheap output checks.
    /// `keep` asks the workload to keep what [`Workload::finish`] needs.
    fn pass(&mut self, p: &mut Pass, keep: bool);
    /// After timing: the costly output checks on the kept pass, adding
    /// their deterministic outputs to it, and the modelled metrics.
    fn finish(&mut self, p: &mut Pass) -> Option<SimMetrics>;
}

/// Build workload `name` for `seed`.
pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "bfs_rmat" => Some(Box::new(bfs::BfsRmat::new(seed))),
        "p2p_sweep" => Some(Box::new(p2p::P2pSweep::new(seed))),
        "torus_faults" => Some(Box::new(torus::TorusFaults::new(seed))),
        _ => None,
    }
}

/// Independent 64-bit input seed number `k` derived from the run's seed.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut sm = SplitMix64::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64()
}

/// FNV-1a over a byte stream, for compact digests of large outputs.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
