//! Fault-free golden regression: with every injector disabled (the
//! default), the retransmission machinery must cost nothing — fig04,
//! fig06 and table1 regenerate byte-identical to the committed
//! `results/` files, pinned here as FNV-1a digests. A timing shift
//! anywhere in the TX/RX/link datapath shows up as a digest change.
//!
//! Every plane is also inert when attached: the fault-aware routing
//! plane (`route_around_faults`) over every point of fig04, fig06 and
//! table1, and the span capture and sim-time profiler on top of it.
//! Each runs through its explicit entry point and must measure exactly
//! what the plain call measures.

use apenet_bench::figs;
use apenet_bench::figs::fig04::fig04_curves;
use apenet_bench::{count_for, sizes_32b_4mb, sizes_4kb_4mb, sweep};
use apenet_cluster::harness::{
    flush_read_bandwidth, loopback_bandwidth, two_node_bandwidth, two_node_instrumented,
    two_node_profiled, BufSide, BwResult, TwoNodeParams,
};
use apenet_cluster::presets::{cluster_i_default, plx_node, plx_node_bar1};
use apenet_cluster::NodeConfig;
use apenet_core::config::GpuTxVersion;
use apenet_gpu::GpuArch;
use std::fmt::Debug;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `cfg` with the fault-aware routing plane armed.
fn routed(mut cfg: NodeConfig) -> NodeConfig {
    cfg.card.route_around_faults = true;
    cfg
}

#[test]
fn clean_links_reproduce_golden_outputs() {
    // Digests of the committed pre-reliability-layer results/ files.
    let golden = [
        ("fig04.txt", 0x3cc1_5b14_0e58_09ad_u64),
        ("fig06.txt", 0xfebb_d2ba_7908_eca3),
        ("table1.txt", 0xd49b_2204_1a76_0189),
    ];
    let tmp = std::env::temp_dir().join(format!("apenet-golden-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("results dir");
    std::env::set_var("APENET_RESULTS", &tmp);
    figs::fig04::run();
    figs::fig06::run();
    figs::table1::run();
    std::env::remove_var("APENET_RESULTS");
    for (name, want) in golden {
        let bytes = std::fs::read(tmp.join(name)).expect("generated output");
        assert!(!bytes.is_empty());
        assert_eq!(
            fnv1a(&bytes),
            want,
            "{name} drifted from the committed golden output"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Runs `measure` at every point on its config as given and on the same
/// config with fault-aware routing armed, and asserts the two results
/// match field for field: with no faults scheduled the plane is dead
/// code.
fn assert_routing_inert<P: Debug + Sync>(
    points: &[(NodeConfig, P)],
    measure: impl Fn(NodeConfig, &P) -> BwResult + Sync,
) {
    let drifted: Vec<String> = sweep::map(points, |(cfg, point)| {
        let plain = format!("{:?}", measure(cfg.clone(), point));
        let armed = format!("{:?}", measure(routed(cfg.clone()), point));
        (plain != armed).then(|| format!("{point:?}: {plain} != {armed}"))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(drifted.is_empty(), "routing plane moved: {drifted:#?}");
}

/// Every point of Fig. 4: the seven curves over 4 KB–4 MB.
#[test]
fn route_around_faults_is_inert_on_fig04() {
    let points: Vec<(NodeConfig, u64)> = fig04_curves()
        .into_iter()
        .flat_map(|(_, version, window)| {
            let cfg = plx_node(GpuArch::Fermi2050, version, window);
            sizes_4kb_4mb()
                .into_iter()
                .map(move |size| (cfg.clone(), size))
        })
        .collect();
    assert_routing_inert(&points, |cfg, &size| {
        flush_read_bandwidth(cfg, BufSide::Gpu, size, count_for(size))
    });
}

/// Every point of Fig. 6: the four buffer combinations over 32 B–4 MB.
#[test]
fn route_around_faults_is_inert_on_fig06() {
    let combos = [
        (BufSide::Host, BufSide::Host),
        (BufSide::Host, BufSide::Gpu),
        (BufSide::Gpu, BufSide::Host),
        (BufSide::Gpu, BufSide::Gpu),
    ];
    let points: Vec<(NodeConfig, TwoNodeParams)> = combos
        .into_iter()
        .flat_map(|(src, dst)| {
            sizes_32b_4mb().into_iter().map(move |size| {
                let p = TwoNodeParams {
                    src,
                    dst,
                    size,
                    count: count_for(size),
                    staged: false,
                };
                (cluster_i_default(), p)
            })
        })
        .collect();
    assert_routing_inert(&points, |cfg, &p| two_node_bandwidth(cfg, p));
}

/// One Table I row: a flushed read of one buffer side, or a loop-back
/// between two buffers of one side, of `count` 1 MB messages.
#[derive(Debug)]
enum Table1Row {
    Flush(BufSide, u32),
    Loopback(BufSide, u32),
}

/// The seven rows of Table I on their presets.
#[test]
fn route_around_faults_is_inert_on_table1() {
    use Table1Row::{Flush, Loopback};
    let rows = [
        (cluster_i_default(), Flush(BufSide::Host, 16)),
        (
            plx_node(GpuArch::Fermi2050, GpuTxVersion::V3, 128 * 1024),
            Flush(BufSide::Gpu, 16),
        ),
        (
            plx_node_bar1(GpuArch::Fermi2050, 128 * 1024),
            Flush(BufSide::Gpu, 8),
        ),
        (
            plx_node(GpuArch::KeplerK20, GpuTxVersion::V3, 128 * 1024),
            Flush(BufSide::Gpu, 16),
        ),
        (
            plx_node_bar1(GpuArch::KeplerK20, 128 * 1024),
            Flush(BufSide::Gpu, 8),
        ),
        (cluster_i_default(), Loopback(BufSide::Gpu, 16)),
        (cluster_i_default(), Loopback(BufSide::Host, 16)),
    ];
    let mb = 1u64 << 20;
    assert_routing_inert(&rows, |cfg, row| match *row {
        Flush(side, count) => flush_read_bandwidth(cfg, side, mb, count),
        Loopback(side, count) => loopback_bandwidth(cfg, side, side, mb, count),
    });
}

/// The span capture and the sim-time profiler, each on top of the
/// fault-aware routing plane, leave the Fig. 6 measurement unchanged,
/// peer-to-peer and staged alike.
#[test]
fn trace_and_profiler_are_inert_on_two_node_runs() {
    for staged in [false, true] {
        let p = TwoNodeParams {
            src: BufSide::Gpu,
            dst: BufSide::Gpu,
            size: 64 * 1024,
            count: 16,
            staged,
        };
        let plain = format!("{:?}", two_node_bandwidth(cluster_i_default(), p));
        let (traced, records) = two_node_instrumented(routed(cluster_i_default()), p);
        assert!(!records.is_empty(), "the capture recorded the run");
        assert_eq!(plain, format!("{traced:?}"), "traced, staged={staged}");
        let (profiled, profile) = two_node_profiled(routed(cluster_i_default()), p);
        assert!(profile.total_events() > 0, "the profiler saw the run");
        assert_eq!(plain, format!("{profiled:?}"), "profiled, staged={staged}");
    }
}
