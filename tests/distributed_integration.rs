//! Cross-crate integration: the distributed experiments of §V on the
//! simulated cluster — image exactness, Fig 6 orderings on a small
//! configuration, scheduling behaviour, and the balanced-scene
//! ablation.

use snet_apps::{run_mpi_raytrace, run_snet_cluster, NetVariant, Schedule, SnetConfig, Workload};
use snet_dist::{OverheadModel, StatsSnapshot};
use snet_raytracer::ScenePreset;
use snet_simnet::ClusterSpec;

/// Fast virtual CPUs keep wall-clock time low; topology matches §V.
fn testbed(nodes: usize) -> ClusterSpec {
    ClusterSpec {
        cpu_ops_per_sec: 200.0e6,
        ..ClusterSpec::paper_testbed(nodes)
    }
}

fn workload(preset: ScenePreset) -> Workload {
    Workload {
        preset,
        spheres: 90,
        seed: 2010,
        width: 160,
        height: 160,
    }
}

#[test]
fn all_five_fig6_series_produce_the_exact_image() {
    let wl = workload(ScenePreset::Clustered);
    let reference = wl.reference_image();
    let nodes = 4;
    let cluster = testbed(nodes);
    let overhead = OverheadModel::default();

    let configs = [
        SnetConfig::fig6_static(nodes),
        SnetConfig::fig6_static_2cpu(nodes),
        SnetConfig::fig6_dynamic(nodes),
    ];
    for cfg in &configs {
        let out = run_snet_cluster(&wl, cfg, cluster, overhead).expect("snet run");
        assert_eq!(out.image, reference, "{:?}", cfg.variant);
    }
    for ranks in [1usize, 2] {
        let out = run_mpi_raytrace(&wl, nodes, ranks, cluster).expect("mpi run");
        assert_eq!(out.image, reference, "mpi {ranks}/node");
    }
}

#[test]
fn overhead_orderings_hold_on_the_imbalanced_scene() {
    // The overhead story of §V at test scale: static S-Net pays a real
    // but bounded premium over hand-written MPI on the same partition.
    let wl = workload(ScenePreset::Clustered);
    let nodes = 4;
    let cluster = testbed(nodes);
    let overhead = OverheadModel::default();

    let stat = run_snet_cluster(&wl, &SnetConfig::fig6_static(nodes), cluster, overhead)
        .unwrap()
        .makespan_secs;
    let stat2 = run_snet_cluster(&wl, &SnetConfig::fig6_static_2cpu(nodes), cluster, overhead)
        .unwrap()
        .makespan_secs;
    let mpi1 = run_mpi_raytrace(&wl, nodes, 1, cluster)
        .unwrap()
        .makespan_secs;
    let mpi2 = run_mpi_raytrace(&wl, nodes, 2, cluster)
        .unwrap()
        .makespan_secs;

    assert!(
        stat > mpi1,
        "S-Net static ({stat:.3}) must pay overhead vs MPI ({mpi1:.3})"
    );
    assert!(
        stat < mpi1 * 1.25,
        "overhead must stay bounded: {stat:.3} vs {mpi1:.3}"
    );
    // Two processes per node beat one.
    assert!(mpi2 < mpi1, "mpi2 {mpi2:.3} vs mpi1 {mpi1:.3}");
    assert!(stat2 < stat, "2-CPU static {stat2:.3} vs {stat:.3}");
}

#[test]
fn dynamic_beats_static_variants_on_the_imbalanced_scene() {
    // The scheduling story of §V, isolated from the (image-size-scaled)
    // runtime overhead: at the paper's 3000x3000 the per-record costs
    // are negligible next to section render times, which a 160x160 test
    // image cannot reproduce — so this ordering is checked with the
    // zero-overhead model (the full-scale `fig6` binary checks it with
    // the calibrated model at real resolutions).
    let wl = workload(ScenePreset::Clustered);
    let nodes = 4;
    let cluster = testbed(nodes);
    let overhead = OverheadModel::zero();

    let stat = run_snet_cluster(&wl, &SnetConfig::fig6_static(nodes), cluster, overhead)
        .unwrap()
        .makespan_secs;
    let stat2 = run_snet_cluster(&wl, &SnetConfig::fig6_static_2cpu(nodes), cluster, overhead)
        .unwrap()
        .makespan_secs;
    let dynamic = run_snet_cluster(&wl, &SnetConfig::fig6_dynamic(nodes), cluster, overhead)
        .unwrap()
        .makespan_secs;
    let mpi2 = run_mpi_raytrace(&wl, nodes, 2, cluster)
        .unwrap()
        .makespan_secs;

    for (name, v) in [("static", stat), ("static2", stat2), ("mpi2", mpi2)] {
        assert!(dynamic < v, "dynamic {dynamic:.3} must beat {name} {v:.3}");
    }
}

#[test]
fn static_speedup_saturates_but_dynamic_keeps_scaling() {
    // Zero overhead for the same reason as above: this is a scheduling
    // property, and at test resolution the fixed glue costs would mask
    // it.
    let wl = workload(ScenePreset::Clustered);
    let overhead = OverheadModel::zero();
    let run_static = |nodes| {
        run_snet_cluster(
            &wl,
            &SnetConfig::fig6_static(nodes),
            testbed(nodes),
            overhead,
        )
        .unwrap()
        .makespan_secs
    };
    // Fixed task/token counts across node counts so the (constant-size)
    // scene-shipping cost does not grow with the grid — at test
    // resolution that transport would otherwise mask the scheduling
    // effect the paper measures at 3000x3000.
    let run_dyn = |nodes: usize| {
        run_snet_cluster(
            &wl,
            &SnetConfig {
                variant: NetVariant::Dynamic,
                nodes,
                tasks: 24,
                tokens: 2 * nodes as u32,
                schedule: Schedule::Block,
            },
            testbed(nodes),
            overhead,
        )
        .unwrap()
        .makespan_secs
    };
    // Static: 2 -> 8 nodes gives 4x the CPUs; the imbalanced scene must
    // keep the gain well under 4x ("limited scalability on clusters
    // with more than 2 processing nodes", §IV.A).
    let s2 = run_static(2);
    let s8 = run_static(8);
    assert!(s8 < s2, "more nodes must not hurt");
    assert!(
        s2 / s8 < 3.0,
        "static speedup 2->8 nodes should saturate: got {:.2}x",
        s2 / s8
    );
    // Where static has saturated, dynamic load balancing still wins
    // outright. (At 8 nodes and test resolution the dynamic runtime is
    // already floored by the master's NIC shipping one scene copy per
    // section — a real cost that only the paper's image sizes make
    // negligible — so we assert the endpoint, not monotone scaling;
    // the full-scale `fig6` binary covers the latter.)
    let d8 = run_dyn(8);
    assert!(
        d8 < s8,
        "dynamic on 8 nodes ({d8:.3}) must beat saturated static ({s8:.3})"
    );
}

#[test]
fn balanced_scene_ablation_static_is_competitive() {
    // On a balanced scene the dynamic machinery has little to win:
    // static S-Net lands within ~20% of dynamic.
    let wl = workload(ScenePreset::Balanced);
    let nodes = 4;
    let overhead = OverheadModel::default();
    let reference = wl.reference_image();
    let stat = run_snet_cluster(
        &wl,
        &SnetConfig::fig6_static_2cpu(nodes),
        testbed(nodes),
        overhead,
    )
    .unwrap();
    assert_eq!(stat.image, reference);
    let dynamic = run_snet_cluster(
        &wl,
        &SnetConfig::fig6_dynamic(nodes),
        testbed(nodes),
        overhead,
    )
    .unwrap();
    assert_eq!(dynamic.image, reference);
    assert!(
        stat.makespan_secs < dynamic.makespan_secs * 1.25,
        "balanced scene: static ({:.3}) should be competitive with dynamic ({:.3})",
        stat.makespan_secs,
        dynamic.makespan_secs
    );
}

#[test]
fn token_starvation_and_saturation_shapes() {
    // One row of Fig 5 in miniature: few tokens leave CPUs idle, all
    // tokens degenerate to static; the sweet spot is in between.
    let wl = workload(ScenePreset::Clustered);
    let nodes = 4;
    let tasks = 16u32;
    let overhead = OverheadModel::zero();
    let run = |tokens: u32| {
        run_snet_cluster(
            &wl,
            &SnetConfig {
                variant: NetVariant::Dynamic,
                nodes,
                tasks,
                tokens,
                schedule: Schedule::Block,
            },
            testbed(nodes),
            overhead,
        )
        .unwrap()
    };
    let starved = run(nodes as u32); // one per node: half the CPUs idle
    let sweet = run(2 * nodes as u32); // one per CPU
    assert!(
        sweet.makespan_secs < starved.makespan_secs,
        "2 tokens/node ({:.3}) must beat 1/node ({:.3})",
        sweet.makespan_secs,
        starved.makespan_secs
    );
    // Tokens beyond tasks change nothing at all.
    let a = run(tasks);
    let b = run(tasks * 4);
    assert_eq!(a.makespan_secs, b.makespan_secs);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn factoring_vs_block_sections_differ_but_images_agree() {
    let wl = workload(ScenePreset::Clustered);
    let reference = wl.reference_image();
    let overhead = OverheadModel::default();
    for schedule in [Schedule::Block, Schedule::paper_factoring()] {
        let out = run_snet_cluster(
            &wl,
            &SnetConfig {
                variant: NetVariant::Dynamic,
                nodes: 4,
                tasks: 12,
                tokens: 6,
                schedule,
            },
            testbed(4),
            overhead,
        )
        .unwrap();
        assert_eq!(out.image, reference, "{schedule:?}");
    }
}

#[test]
fn imbalance_shows_up_as_idle_cpus() {
    // The mechanism behind Fig 6's static saturation, made directly
    // observable: on the clustered scene, static scheduling leaves some
    // nodes mostly idle while one node does several times their work;
    // dynamic scheduling evens the busy times out.
    let wl = workload(ScenePreset::Clustered);
    let nodes = 4;
    let overhead = OverheadModel::zero();
    let stat = run_snet_cluster(
        &wl,
        &SnetConfig::fig6_static(nodes),
        testbed(nodes),
        overhead,
    )
    .unwrap();
    let dynamic = run_snet_cluster(
        &wl,
        &SnetConfig::fig6_dynamic(nodes),
        testbed(nodes),
        overhead,
    )
    .unwrap();

    let spread = |busy: &[f64]| {
        let max = busy.iter().cloned().fold(0.0f64, f64::max);
        let min = busy.iter().cloned().fold(f64::INFINITY, f64::min);
        max / min.max(1e-9)
    };
    let s = spread(&stat.cpu_busy_secs);
    let d = spread(&dynamic.cpu_busy_secs);
    assert!(
        s > 2.0,
        "static on the clustered scene must be badly imbalanced: spread {s:.2} ({:?})",
        stat.cpu_busy_secs
    );
    assert!(
        d < s,
        "dynamic must even out node busy times: {d:.2} vs {s:.2}"
    );
}

#[test]
fn solver_failures_surface_as_errors_not_hangs() {
    // Failure injection: a box that panics inside the simulated cluster
    // must abort the run with an attributable error.
    use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use snet_core::{NetSpec, Record, Value};
    let bad = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("fragile", &["x"], &[&["x"]]),
        |r: &Record| {
            let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            if x == 3 {
                Err(snet_core::SnetError::Engine("injected fault".into()))
            } else {
                Ok(BoxOutput::one(r.clone(), Work::ops(10)))
            }
        },
    ));
    let inputs: Vec<Record> = (0..6)
        .map(|i| Record::new().with_field("x", Value::Int(i)))
        .collect();
    let err = snet_dist::run_on_cluster(&bad, inputs, testbed(2), OverheadModel::zero())
        .expect_err("fault must abort the run");
    let msg = err.to_string();
    assert!(
        msg.contains("fragile") && msg.contains("injected fault"),
        "{msg}"
    );
}

#[test]
fn mpi_baseline_charges_no_snet_overhead() {
    // The baseline's whole point: its runtime contains no per-record
    // coordination costs, so doubling the S-Net overhead moves S-Net
    // but not MPI.
    let wl = workload(ScenePreset::Balanced);
    let nodes = 2;
    let heavy = OverheadModel { hop_ops: 60_000 };
    let light = run_snet_cluster(
        &wl,
        &SnetConfig::fig6_static(nodes),
        testbed(nodes),
        OverheadModel::default(),
    )
    .unwrap()
    .makespan_secs;
    let weighed = run_snet_cluster(&wl, &SnetConfig::fig6_static(nodes), testbed(nodes), heavy)
        .unwrap()
        .makespan_secs;
    assert!(
        weighed > light,
        "more overhead, more runtime: {weighed:.3} vs {light:.3}"
    );
    let mpi_a = run_mpi_raytrace(&wl, nodes, 1, testbed(nodes))
        .unwrap()
        .makespan_secs;
    let mpi_b = run_mpi_raytrace(&wl, nodes, 1, testbed(nodes))
        .unwrap()
        .makespan_secs;
    assert_eq!(
        mpi_a, mpi_b,
        "the baseline does not depend on the overhead model at all"
    );
}

#[test]
fn dynamic_net_hop_charges_are_pinned() {
    // Golden run of the Fig 4 dynamic net on a small scene: the exact
    // virtual makespan, runtime counters and event count. Any change to
    // how the cluster engine charges hops, dispatches, star unfoldings,
    // split replicas or synchrocells moves at least one of them.
    let wl = Workload {
        preset: ScenePreset::Clustered,
        spheres: 40,
        seed: 2010,
        width: 64,
        height: 64,
    };
    let nodes = 4;
    let out = run_snet_cluster(
        &wl,
        &SnetConfig::fig6_dynamic(nodes),
        testbed(nodes),
        OverheadModel::default(),
    )
    .unwrap();
    assert_eq!(out.image, wl.reference_image());
    assert_eq!(out.makespan_secs.to_bits(), 0x3fa1_9112_b767_b5c7);
    assert_eq!(out.events, 15_633);
    assert_eq!(out.processes, 500);
    assert_eq!(
        out.stats,
        StatsSnapshot {
            records_hopped: 4_977,
            glue_ops: 13_484_000,
            box_ops: 1_899_193,
            wire_bytes: 39_632,
            sync_stores: 63,
            sync_fires: 47,
            sync_stranded: 16,
            star_unfoldings: 63,
            split_replicas: 20,
            dispatched: 1_680,
            passthroughs: 0,
        }
    );
}
