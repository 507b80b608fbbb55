//! `p2p_sweep`: the paper's low-level benchmarks (§V.A–C). Loop-back GPU
//! reads for each GPU_P2P_TX generation on Fermi and Kepler, two-node PUT
//! bandwidth (G-G peer-to-peer, G-G host-staged, H-H), G-G ping-pong
//! latency, and the InfiniBand OSU baseline. The seed draws one message
//! size per octave from 32 B to 4 MB, so most sizes are not powers of two
//! and exercise the fragment-remainder paths. All event loop, no
//! application compute.

use super::{SimMetrics, Workload};
use crate::pass::Pass;
use crate::stats::{geomean, nearest_rank};
use apenet_cluster::harness::{
    flush_read_bandwidth, pingpong_half_rtt, two_node_bandwidth, two_node_profiled, BufSide,
    TwoNodeParams,
};
use apenet_cluster::presets::{cluster_i_default, plx_node};
use apenet_core::config::GpuTxVersion;
use apenet_gpu::GpuArch;
use apenet_ib::osu::{osu_bw_gg, osu_latency_gg};
use apenet_ib::{CudaAwareMpi, IbConfig};
use apenet_sim::rng::Xoshiro256ss;
use apenet_sim::Bandwidth;

/// Octaves `[2^k, 2^(k+1))` the sizes are drawn from: 32 B up to 4 MB.
/// The grid also always ends at exactly 4 MB, the figures' largest size.
const OCTAVES: std::ops::RangeInclusive<u32> = 5..=21;
const TOP: u64 = 4 << 20;
/// Loop-back reads start at 4 KB, as in Fig. 4.
const FLUSH_MIN: u64 = 4096;
/// The latency grid stops at 4 KB, as in Figs. 8/9.
const LAT_MAX: u64 = 4096;
/// Fractional part of the golden ratio.
const GOLDEN: f64 = 0.618_033_988_749_894_9;
const PINGPONG_ITERS: u32 = 12;

const FLUSH: [(GpuArch, GpuTxVersion, u64); 6] = [
    (GpuArch::Fermi2050, GpuTxVersion::V1, 4 * 1024),
    (GpuArch::Fermi2050, GpuTxVersion::V2, 32 * 1024),
    (GpuArch::Fermi2050, GpuTxVersion::V3, 128 * 1024),
    (GpuArch::KeplerK20, GpuTxVersion::V1, 4 * 1024),
    (GpuArch::KeplerK20, GpuTxVersion::V2, 32 * 1024),
    (GpuArch::KeplerK20, GpuTxVersion::V3, 128 * 1024),
];

const TWO_NODE: [(&str, BufSide, BufSide, bool); 3] = [
    ("G-G p2p", BufSide::Gpu, BufSide::Gpu, false),
    ("G-G staged", BufSide::Gpu, BufSide::Gpu, true),
    ("H-H", BufSide::Host, BufSide::Host, false),
];

/// Messages per bandwidth point. The figures stream 40, 24 or 10
/// messages of a power-of-two size; a size `f` times its octave's base
/// gets that count divided by `f`, so every point moves about the same
/// bytes whatever the seed drew.
fn count_for(size: u64) -> u32 {
    let base = 1u64 << size.ilog2();
    let figures = match base {
        0..=4096 => 40,
        4097..=262_144 => 24,
        _ => 10,
    };
    ((figures * base + size / 2) / size).max(2) as u32
}

/// Modelled samples of one pass.
#[derive(Default)]
struct Samples {
    bw_mbps: Vec<f64>,
    msgs_per_s: Vec<f64>,
    gg_lat_us: Vec<f64>,
    lat_us: Vec<f64>,
}

/// The workload.
pub struct P2pSweep {
    sizes: Vec<u64>,
    kept: Samples,
}

impl P2pSweep {
    /// Sizes are drawn from `seed`: octave `k` gets offset
    /// `frac(u + k * golden)` of its width for one seeded `u`. Each seed
    /// moves every size, while the offsets stay evenly spread over the
    /// octaves, so aggregates over the grid change little between seeds.
    pub fn new(seed: u64) -> Self {
        let u = Xoshiro256ss::seed_from(super::sub_seed(seed, 2)).next_f64();
        let sizes = OCTAVES
            .map(|k| {
                let width = 1u64 << k;
                let offset = (u + f64::from(k) * GOLDEN).fract();
                width + (width as f64 * offset) as u64
            })
            .chain([TOP])
            .collect();
        P2pSweep {
            sizes,
            kept: Samples::default(),
        }
    }
}

fn bw_point(p: &mut Pass, s: &mut Samples, what: String, bw: Bandwidth, size: u64) {
    let mbps = bw.mb_per_sec_f64();
    p.check(mbps.is_finite() && mbps > 0.0 && mbps < 10_000.0, || {
        format!("{what}: bandwidth {mbps} MB/s")
    });
    p.det(format_args!("{what} bw_mbps={mbps}"));
    s.bw_mbps.push(mbps);
    s.msgs_per_s.push(mbps * 1e6 / size as f64);
}

fn lat_point(p: &mut Pass, what: String, us: f64) -> f64 {
    p.check(us.is_finite() && us > 0.0 && us < 1e6, || {
        format!("{what}: latency {us} us")
    });
    p.det(format_args!("{what} lat_us={us}"));
    us
}

impl Workload for P2pSweep {
    fn warm_up(&mut self) {
        self.pass(&mut Pass::new(0, None), false);
    }

    fn pass(&mut self, p: &mut Pass, keep: bool) {
        let mut s = Samples::default();
        for (arch, version, window) in FLUSH {
            for &size in self.sizes.iter().filter(|&&z| z >= FLUSH_MIN) {
                let node = plx_node(arch, version, window);
                let r = p.call("cluster.flush_read", || {
                    flush_read_bandwidth(node, BufSide::Gpu, size, count_for(size))
                });
                if let Some(r) = r {
                    let what = format!("flush {arch:?} {version:?} w={window} size={size}");
                    bw_point(p, &mut s, what, r.bandwidth, size);
                }
            }
        }
        for (label, src, dst, staged) in TWO_NODE {
            for &size in &self.sizes {
                let params = TwoNodeParams {
                    src,
                    dst,
                    size,
                    count: count_for(size),
                    staged,
                };
                let r = if p.traced() {
                    p.call("cluster.two_node", || {
                        two_node_profiled(cluster_i_default(), params)
                    })
                    .map(|(r, prof)| {
                        for (component, b) in prof.by_component() {
                            p.add_ns("sim.dispatch", b.wall_ns);
                            match component.as_str() {
                                "apenet-card" => p.add_ns("core.card.dispatch", b.wall_ns),
                                "host" => p.add_ns("cluster.host.dispatch", b.wall_ns),
                                _ => {}
                            }
                        }
                        r
                    })
                } else {
                    p.call("cluster.two_node", || {
                        two_node_bandwidth(cluster_i_default(), params)
                    })
                };
                if let Some(r) = r {
                    bw_point(p, &mut s, format!("{label} size={size}"), r.bandwidth, size);
                }
            }
        }
        for &size in self.sizes.iter().filter(|&&z| z <= LAT_MAX) {
            let r = p.call("cluster.pingpong", || {
                pingpong_half_rtt(
                    cluster_i_default(),
                    BufSide::Gpu,
                    BufSide::Gpu,
                    size,
                    PINGPONG_ITERS,
                    false,
                )
            });
            if let Some(d) = r {
                let us = lat_point(p, format!("pingpong G-G size={size}"), d.as_us_f64());
                s.gg_lat_us.push(us);
                s.lat_us.push(us);
            }
        }
        for &size in &self.sizes {
            let r = p.call("ib.osu", || {
                osu_bw_gg(
                    &mut CudaAwareMpi::new(2, IbConfig::cluster_i()),
                    size,
                    count_for(size),
                )
            });
            if let Some(bw) = r {
                bw_point(p, &mut s, format!("osu_bw size={size}"), bw, size);
            }
        }
        for &size in self.sizes.iter().filter(|&&z| z <= LAT_MAX) {
            let r = p.call("ib.osu", || {
                osu_latency_gg(
                    &mut CudaAwareMpi::new(2, IbConfig::cluster_i()),
                    size,
                    PINGPONG_ITERS,
                )
            });
            if let Some(d) = r {
                let us = lat_point(p, format!("osu_latency size={size}"), d.as_us_f64());
                s.lat_us.push(us);
            }
        }
        if keep {
            self.kept = s;
        }
    }

    fn finish(&mut self, _p: &mut Pass) -> Option<SimMetrics> {
        let s = &self.kept;
        Some(SimMetrics {
            bw_mbps: geomean(&s.bw_mbps)?,
            lat_us: geomean(&s.gg_lat_us)?,
            p99_us: nearest_rank(&s.lat_us, 0.99)?,
            teps: geomean(&s.msgs_per_s)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_size_per_octave_then_4mb() {
        for seed in [1, 2, 3] {
            let w = P2pSweep::new(seed);
            assert_eq!(w.sizes.len(), OCTAVES.count() + 1);
            for (k, &size) in OCTAVES.zip(&w.sizes) {
                assert!(
                    (1u64 << k..2u64 << k).contains(&size),
                    "{size} in octave {k}"
                );
            }
            assert_eq!(w.sizes.last(), Some(&TOP));
        }
        assert_ne!(P2pSweep::new(1).sizes, P2pSweep::new(2).sizes);
    }

    #[test]
    fn counts_keep_bytes_per_point_near_the_figures() {
        assert_eq!(count_for(4096), 40);
        assert_eq!(count_for(8192), 24);
        assert_eq!(count_for(TOP), 10);
        assert_eq!(count_for(3 << 20), 7);
        assert_eq!(count_for(63), 20);
        assert!(OCTAVES.clone().all(|k| count_for((2u64 << k) - 1) >= 2));
    }
}
