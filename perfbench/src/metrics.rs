//! Metric names and units: the end-to-end metrics of an untraced run and
//! the per-layer metrics of a traced one. `BENCHMARK.json` lists the same
//! names; a unit test keeps the two in step.

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_bw_mbps", "MB/s"),
    ("sim_lat_us", "us"),
    ("sim_p99_us", "us"),
    ("sim_teps", "1/s"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("apps.bfs.rmat_s", "s"),
    ("apps.bfs.csr_s", "s"),
    ("apps.bfs.run_apenet_s", "s"),
    ("apps.bfs.run_ib_s", "s"),
    ("apps.bfs.traverse_self_s", "s"),
    ("apps.bfs.graph_edges", "count"),
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("core.card.dispatch_s", "s"),
    ("cluster.host.dispatch_s", "s"),
    ("sim.engine_self_s", "s"),
    ("cluster.flush_read_s", "s"),
    ("cluster.two_node_s", "s"),
    ("cluster.pingpong_s", "s"),
    ("cluster.chaos_s", "s"),
    ("cluster.incast_s", "s"),
    ("cluster.get_s", "s"),
    ("ib.osu_s", "s"),
    ("core.link.retransmits", "count"),
    ("core.link.timeouts", "count"),
    ("core.route.detours", "count"),
    ("core.ecn.marked", "count"),
    ("core.link.retransmits_per_msg", "ratio"),
    ("rdma.watchdog_reissues", "count"),
    ("rdma.pacer.throttled", "count"),
    ("rdma.delivered_per_issued", "ratio"),
    ("rdma.get.doorbell_batched_ratio", "ratio"),
    ("obs.trace_records", "count"),
    ("obs.fold_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` value in the `key` array of BENCHMARK.json.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layer);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} has unit {unit} in BENCHMARK.json"
            );
        }
        assert_eq!(names_in(&json, "workloads"), crate::workload::NAMES);
    }
}
