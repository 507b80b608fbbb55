//! The CUDA-aware MPI point-to-point layer (MVAPICH2-1.9 style).
//!
//! Host messages use eager (small) or rendezvous (large) protocols. GPU
//! messages are staged through host memory: blocking `cudaMemcpy` copies
//! below the pipeline threshold, a chunked copy/send pipeline above it.
//! "this approach … can increase communication performance for
//! mid-to-large-size messages, thanks to pipelining implemented at the
//! MPI library level. On the other hand, this approach can even hurt
//! performance for medium-size messages" (§II) — both effects emerge from
//! the model.

use crate::config::IbConfig;
use crate::fabric::IbFabric;
use apenet_sim::{SimDuration, SimTime};

/// Timing of one MPI-level message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GgTiming {
    /// When the sending process regains control.
    pub sender_free: SimTime,
    /// When the data is usable at the destination (in GPU memory for GPU
    /// transfers, in host memory otherwise).
    pub complete: SimTime,
}

/// Per-rank DMA engine occupancy for the staging copies.
#[derive(Debug, Clone)]
struct StageEngines {
    d2h_busy: SimTime,
    h2d_busy: SimTime,
}

/// The MPI transport over an [`IbFabric`].
#[derive(Debug, Clone)]
pub struct CudaAwareMpi {
    fabric: IbFabric,
    stages: Vec<StageEngines>,
}

impl CudaAwareMpi {
    /// Build over a fabric of `n` ranks.
    pub fn new(n: usize, cfg: IbConfig) -> Self {
        CudaAwareMpi {
            fabric: IbFabric::new(n, cfg),
            stages: vec![
                StageEngines {
                    d2h_busy: SimTime::ZERO,
                    h2d_busy: SimTime::ZERO
                };
                n
            ],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &IbConfig {
        self.fabric.config()
    }

    fn cfg(&self) -> IbConfig {
        self.fabric.config().clone()
    }

    /// MPI_Send/Recv of a host buffer.
    pub fn send_hh(&mut self, now: SimTime, src: usize, dst: usize, len: u64) -> GgTiming {
        let cfg = self.cfg();
        let (proto_lat, sender_hold) = if len <= cfg.eager_threshold {
            // Eager: fire and forget.
            (cfg.mpi_latency_hh, SimDuration::ZERO)
        } else {
            // Rendezvous: handshake before the data flows; the sender is
            // held until the transfer is underway.
            (cfg.mpi_latency_hh + cfg.rndv_handshake, cfg.rndv_handshake)
        };
        let s = self.fabric.send_raw(now + proto_lat, src, dst, len);
        GgTiming {
            sender_free: s.sender_free + sender_hold,
            complete: s.arrive,
        }
    }

    fn d2h(&mut self, rank: usize, now: SimTime, len: u64, blocking: bool) -> (SimTime, SimTime) {
        let cfg = self.cfg();
        let start = now.max(self.stages[rank].d2h_busy);
        let end = start + cfg.dma_rate.time_for(len);
        self.stages[rank].d2h_busy = end;
        let host_free = if blocking { end + cfg.sync_d2h } else { now };
        (host_free, end)
    }

    fn h2d(&mut self, rank: usize, now: SimTime, len: u64, blocking: bool) -> SimTime {
        let cfg = self.cfg();
        let start = now.max(self.stages[rank].h2d_busy);
        let end = start + cfg.dma_rate.time_for(len);
        self.stages[rank].h2d_busy = end;
        if blocking {
            end + cfg.sync_h2d
        } else {
            end
        }
    }

    /// MPI_Send/Recv between GPU buffers (the OSU G-G tests of Figs. 7/9).
    pub fn send_gg(&mut self, now: SimTime, src: usize, dst: usize, len: u64) -> GgTiming {
        let cfg = self.cfg();
        let t0 = now + cfg.gpu_path_overhead;
        if len <= cfg.gpu_pipeline_threshold {
            // Blocking staging: D2H, host send, H2D. This is the implicit
            // synchronization §II warns about.
            let (host_free, copy_done) = self.d2h(src, t0, len, true);
            let hh = self.send_hh(copy_done + cfg.sync_d2h, src, dst, len);
            let up = self.h2d(dst, hh.complete, len, true);
            GgTiming {
                sender_free: host_free.max(hh.sender_free),
                complete: up,
            }
        } else {
            // Chunked pipeline: async D2H copies feed sends; the receiver
            // copies each chunk up as it lands.
            let mut sender_free = t0;
            let mut complete = t0;
            let mut off = 0u64;
            let mut prev_send_free = t0;
            while off < len {
                let n = cfg.gpu_pipeline_chunk.min(len - off);
                let (_hf, copy_done) = self.d2h(src, t0, n, false);
                let ready = copy_done.max(prev_send_free);
                let hh = self.send_hh(ready, src, dst, n);
                prev_send_free = hh.sender_free;
                sender_free = hh.sender_free;
                complete = self.h2d(dst, hh.complete, n, false);
                off += n;
            }
            GgTiming {
                sender_free,
                complete: complete + cfg.sync_h2d,
            }
        }
    }

    /// Reset all occupancy (between benchmark repetitions).
    pub fn reset(&mut self) {
        self.fabric.reset();
        for s in &mut self.stages {
            s.d2h_busy = SimTime::ZERO;
            s.h2d_busy = SimTime::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apenet_sim::Bandwidth;

    fn mpi() -> CudaAwareMpi {
        CudaAwareMpi::new(4, IbConfig::cluster_ii())
    }

    #[test]
    fn gg_small_latency_is_paper_17_4us() {
        let mut m = mpi();
        let t = m.send_gg(SimTime::ZERO, 0, 1, 32);
        let us = t.complete.as_us_f64();
        assert!((16.5..18.5).contains(&us), "G-G small latency {us} us");
    }

    #[test]
    fn hh_small_latency_is_microseconds() {
        let mut m = mpi();
        let t = m.send_hh(SimTime::ZERO, 0, 1, 32);
        let us = t.complete.as_us_f64();
        assert!((1.5..3.0).contains(&us), "{us}");
    }

    #[test]
    fn gg_large_reaches_multi_gbs() {
        let mut m = mpi();
        let len = 4u64 << 20;
        let t = m.send_gg(SimTime::ZERO, 0, 1, len);
        let bw = Bandwidth::measured(len, t.complete.since(SimTime::ZERO));
        let mbs = bw.mb_per_sec_f64();
        assert!(mbs > 2300.0, "pipelined G-G large message: {mbs} MB/s");
    }

    #[test]
    fn gg_medium_hurts_versus_hh() {
        // The §II claim: staged G-G at medium size is far below H-H.
        let mut m = mpi();
        let len = 32u64 * 1024;
        let hh = m.send_hh(SimTime::ZERO, 0, 1, len).complete;
        m.reset();
        let gg = m.send_gg(SimTime::ZERO, 0, 1, len).complete;
        assert!(gg.since(SimTime::ZERO) > hh.since(SimTime::ZERO) * 2);
    }

    #[test]
    fn rendezvous_slower_than_eager_per_byte() {
        let mut m = mpi();
        let small = m.send_hh(SimTime::ZERO, 0, 1, 1024).complete;
        m.reset();
        let big = m.send_hh(SimTime::ZERO, 0, 1, 64 * 1024).complete;
        // The rendezvous handshake shows up as a latency step.
        let delta = big.since(SimTime::ZERO) - small.since(SimTime::ZERO);
        assert!(delta > IbConfig::cluster_ii().rndv_handshake);
    }

    #[test]
    fn pipeline_beats_blocking_at_512k() {
        let len = 512u64 * 1024;
        let mut m = mpi();
        let pipe = m.send_gg(SimTime::ZERO, 0, 1, len).complete;
        // Force the blocking path by raising the threshold.
        let mut cfg = IbConfig::cluster_ii();
        cfg.gpu_pipeline_threshold = u64::MAX;
        let mut blocking = CudaAwareMpi::new(4, cfg);
        let blk = blocking.send_gg(SimTime::ZERO, 0, 1, len).complete;
        assert!(pipe < blk, "pipelining helps large messages");
    }
}
