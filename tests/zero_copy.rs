//! The zero-copy guarantee, end to end: a clean (no fault injection)
//! two-node G-G transfer fragments and delivers its payload purely by
//! refcount bumps and range narrowing. The calling thread's copied-bytes
//! counter (bumped by every copy-on-write and gather fallback in the
//! payload fabric) must not move. The simulation runs on this thread,
//! and the counter is per-thread, so no concurrently running test can
//! move it.

use apenet::cluster::harness::{two_node_bandwidth, BufSide, TwoNodeParams};
use apenet::cluster::presets::cluster_i_default;
use apenet::sim::bytes;

#[test]
fn clean_gg_transfer_moves_payload_without_copies() {
    let before = bytes::copied_bytes();
    let r = two_node_bandwidth(
        cluster_i_default(),
        TwoNodeParams {
            src: BufSide::Gpu,
            dst: BufSide::Gpu,
            size: 256 * 1024,
            count: 4,
            staged: false,
        },
    );
    assert!(r.bandwidth.mb_per_sec_f64() > 0.0);
    assert_eq!(
        bytes::copied_bytes() - before,
        0,
        "clean TX fragmentation and delivery must not copy payload bytes"
    );
}
