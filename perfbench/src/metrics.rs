//! Every metric the benchmark reports: its name and unit (as listed in
//! `BENCHMARK.json`) and, for the per-layer metrics, the end-to-end
//! metric and workload it should move. A later change attributes its
//! gain through this map: the layer it touched should move the named
//! end-to-end metric, and the others should read flat.
//!
//! "Unit" in the end-to-end metrics is one record on `stream16` and
//! one verified image (job) on the Fig 4 workloads.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn d(name: &'static str, unit: &'static str, moves: &'static str) -> Def {
    Def { name, unit, moves }
}

/// Measured with tracing off, in the workload's own process.
pub const END_TO_END: &[Def] = &[
    d("units_per_s", "1/s", "verified records (stream16) or images (fig4_*) per second of the timed window"),
    d("latency_p50_us", "us", "record: first try_send attempt to try_recv; job: the run_batch call"),
    d("latency_tail_us", "us", "p99 on stream16 and fig4_coord; p90 on fig4_render, which completes too few jobs for ten samples beyond p99"),
    d("cpu_us_per_unit", "us", "process user+sys CPU over the timed window per unit; spinning instead of parking shows here"),
    d("peak_rss_mib", "MiB", "VmHWM of the workload's process"),
    d("setup_s", "s", "median over repetitions of NetSpec construction, SchedNet::with_config (fuse + pre-flight) and the first start() that spawns the pool"),
];

/// Measured by the traced pass and the layer ladder.
pub const PER_LAYER: &[Def] = &[
    d("semantics.box_step_ns", "ns", "stream16 units_per_s and cpu_us_per_unit; flat on fig4_render"),
    d("fusion.chain_ns_per_rec", "ns", "stream16 units_per_s"),
    d("fusion.chain_self_ns_per_rec", "ns", "stream16 units_per_s (chain cost minus 16 box_step calls)"),
    d("fusion.fuse_us", "us", "setup_s"),
    d("analyze.preflight_us", "us", "setup_s"),
    d("sched.fused_ns_per_rec.d16", "ns", "stream16 units_per_s"),
    d("sched.fused_ns_per_rec.d4", "ns", "stream16 units_per_s"),
    d("sched.unfused_ns_per_rec.d16", "ns", "fig4_coord units_per_s"),
    d("sched.unfused_ns_per_rec.d4", "ns", "fig4_coord units_per_s"),
    d("sched.hop_ns.d16", "ns", "fig4_coord units_per_s and latency_p50_us"),
    d("sched.hop_ns.d4", "ns", "fig4_coord units_per_s and latency_p50_us"),
    d("sched.with_config_us", "us", "setup_s"),
    d("sched.pool_spawn_us", "us", "setup_s"),
    d("handle.try_send_ns", "ns", "stream16 units_per_s and latency_tail_us"),
    d("handle.try_recv_ns", "ns", "stream16 units_per_s and latency_tail_us"),
    d("handle.finish_us", "us", "stream16 latency_tail_us"),
    d("handle.try_send_full_ratio", "ratio", "stream16 units_per_s and latency_tail_us"),
    d("handle.drive_useful_ratio", "ratio", "stream16 units_per_s and cpu_us_per_unit"),
    d("handle.yields_per_krec", "count", "stream16 cpu_us_per_unit and latency_tail_us"),
    d("handle.ingress_wait_us.p50", "us", "stream16 latency_p50_us"),
    d("handle.ingress_wait_us.p99", "us", "stream16 latency_tail_us"),
    d("handle.in_network_us.p50", "us", "stream16 latency_p50_us"),
    d("handle.in_network_us.p99", "us", "stream16 latency_tail_us"),
    d("trace.star_unfoldings", "count", "fig4_coord units_per_s (per unit)"),
    d("trace.sync_stores", "count", "fig4_coord units_per_s (per unit)"),
    d("trace.sync_fires", "count", "fig4_coord units_per_s (per unit)"),
    d("trace.split_replicas", "count", "fig4_coord units_per_s (per unit)"),
    d("trace.dispatched", "count", "fig4_coord units_per_s (per unit)"),
    d("trace.box_records", "count", "fig4_coord units_per_s (per unit)"),
    d("trace.filter_records", "count", "fig4_coord units_per_s (per unit)"),
    d("trace.sync_stranded", "count", "per unit: the node tokens on a Fig 4 job (released tokens wait in token synchrocells; any other count fails the job), 0 on stream16"),
    d("pool.hit_ratio", "ratio", "stream16 units_per_s and peak_rss_mib"),
    d("pool.misses_per_kunit", "count", "stream16 units_per_s and peak_rss_mib"),
    d("pool.dropped_per_kunit", "count", "stream16 units_per_s and peak_rss_mib"),
    d("raytracer.render_full_ms", "ms", "fig4_render units_per_s; flat on stream16"),
    d("raytracer.section_ms.sum", "ms", "fig4_render units_per_s"),
    d("raytracer.section_ms.max", "ms", "fig4_render units_per_s and latency_p50_us (max against sum/sections is the imbalance)"),
    d("raytracer.prim_tests", "count", "fig4_render units_per_s"),
    d("raytracer.bvh_nodes", "count", "fig4_render units_per_s"),
    d("apps.splitter_us", "us", "fig4_coord latency_p50_us"),
    d("apps.merge_us", "us", "fig4_coord latency_p50_us (per chunk)"),
    d("fig4.kernel_share", "ratio", "rises on both Fig 4 workloads when coordination gets cheaper"),
    d("fig4.seq_over_snet", "ratio", "baseline only: sequential render over S-Net job time; a faster kernel lowers it"),
    d("tracing.traced_units_per_s", "1/s", "the workload's units_per_s with every layer call timed"),
    d("tracing.overhead_share", "ratio", "1 - traced/untraced units_per_s, both measured in this process"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The names listed under `key` in `BENCHMARK.json`, in order.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
            .collect()
    }

    #[test]
    fn the_registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = |defs: &[Def]| defs.iter().map(|d| d.name.to_owned()).collect::<Vec<_>>();
        assert_eq!(listed(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), names(PER_LAYER));
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(json.contains(&entry), "{entry}");
        }
    }
}
