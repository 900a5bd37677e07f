//! The layer ladder: each layer's public functions, called from
//! outside on the workload's seeded inputs and timed one call at a
//! time. Every timed call is also a span, so the trace file shows the
//! ladder next to the passes.

use crate::fig4::{Job, JobsResult, Params};
use crate::measure::{median, ratio};
use crate::spans::Tracer;
use crate::stream::{self, StreamResult, TraceCounts};
use crate::{Tally, Values};
use snet_apps::{merge_box, splitter_box, ChunkData, PicData};
use snet_core::semantics::{box_step, MismatchPolicy};
use snet_core::{fuse, ChainRunner, ChainStage, ChainTally, FailurePolicy, NetSpec, PoolStats};
use snet_core::{Record, SnetError};
use snet_raytracer::{render_full, render_section, Counters, Image};
use snet_runtime::{EngineConfig, SchedNet};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// Records per batch-rung repetition.
const BATCH_RECORDS: usize = 1024;
const BATCH_REPS: usize = 31;
/// Scenes of a Fig 4 job list the kernel rungs render.
const KERNEL_SCENES: usize = 2;

/// Times `f` once per repetition, each call a span named `name`, and
/// returns the median duration in ns.
fn timed<T>(tracer: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let t1 = Instant::now();
        tracer.call(name, t0, t1, None, rep as u64, true);
        samples.push((t1 - t0).as_nanos() as f64);
    }
    median(&samples)
}

fn tick_stages(depth: usize) -> Vec<ChainStage> {
    match fuse(&stream::tick_net(depth)) {
        NetSpec::FusedChain { stages } => stages,
        other => panic!("the tick pipeline fuses to one chain, got {other:?}"),
    }
}

type Batch = Result<Vec<Record>, SnetError>;

/// A rung of the record-path ladder: one call pushes a batch of `tick`
/// records through `depth` stages.
struct Rung<'a> {
    name: &'static str,
    depth: usize,
    call: Box<dyn FnMut(Vec<Record>) -> Batch + 'a>,
    samples: Vec<f64>,
}

/// `semantics`, `fusion` and the `sched` batch path on seeded `tick`
/// records. The rungs take turns, one batch each per repetition, so
/// every rung sees the same drift in host speed and their differences
/// (chain self time, per-hop cost) stay meaningful.
pub fn record_path(seed: u64, tracer: &mut Tracer, tally: &mut Tally, v: &mut Values) {
    let ins = stream::records(seed, BATCH_RECORDS);
    let n = ins.len() as f64;
    let depth = stream::DEPTH;
    let defs: Vec<_> = (0..depth).map(|_| stream::tick_box()).collect();
    let stages = tick_stages(depth);
    let batch = stream::engine_config().batch;
    let seq = AtomicU64::new(0);
    let mut runner = ChainRunner::new();
    let nets: Vec<(&'static str, usize, SchedNet)> = [
        ("sched.run_batch.fused.d16", 16, true),
        ("sched.run_batch.unfused.d16", 16, false),
        ("sched.run_batch.fused.d4", 4, true),
        ("sched.run_batch.unfused.d4", 4, false),
    ]
    .into_iter()
    .map(|(name, d, fuse)| {
        let cfg = EngineConfig {
            fuse,
            ..stream::engine_config()
        };
        (name, d, SchedNet::with_config(stream::tick_net(d), cfg))
    })
    .collect();

    let mut rungs = vec![
        Rung {
            name: "semantics.box_step",
            depth,
            call: Box::new(|recs: Vec<Record>| {
                recs.into_iter()
                    .map(|r| {
                        defs.iter().try_fold(r, |rec, def| {
                            let out = box_step(def, rec, MismatchPolicy::Forward)?;
                            out.records
                                .into_iter()
                                .next()
                                .ok_or_else(|| SnetError::Engine("tick emitted nothing".into()))
                        })
                    })
                    .collect()
            }),
            samples: Vec::new(),
        },
        Rung {
            name: "fusion.ChainRunner::step_batch",
            depth,
            call: Box::new(|recs: Vec<Record>| {
                let mut outs = Vec::with_capacity(recs.len());
                let mut tally = ChainTally::default();
                let mut recs = recs.into_iter();
                while recs.len() > 0 {
                    runner.step_batch(
                        &stages,
                        FailurePolicy::FailFast,
                        MismatchPolicy::Forward,
                        &seq,
                        recs.by_ref().take(batch),
                        &mut tally,
                        &mut outs,
                        &mut |_| Err(SnetError::Engine("tick never diverts".into())),
                    )?;
                }
                Ok(outs)
            }),
            samples: Vec::new(),
        },
    ];
    for (name, d, net) in &nets {
        rungs.push(Rung {
            name,
            depth: *d,
            call: Box::new(|recs| net.run_batch(recs)),
            samples: Vec::new(),
        });
    }

    // One untimed turn spawns the pools and warms the buffers.
    for rung in &mut rungs {
        let _ = (rung.call)(ins.clone());
    }
    for rep in 0..BATCH_REPS {
        for rung in &mut rungs {
            let batch_in = ins.clone();
            let t0 = Instant::now();
            let res = (rung.call)(batch_in);
            let t1 = Instant::now();
            tracer.call(rung.name, t0, t1, None, rep as u64, true);
            rung.samples.push((t1 - t0).as_nanos() as f64 / n);
            match res {
                Ok(outs) => tally.records(&ins, &outs, rung.depth as i64),
                Err(e) => {
                    eprintln!("ladder: {} failed: {e}", rung.name);
                    tally.add(ins.len() as u64, ins.len() as u64);
                }
            }
        }
    }
    let per_rec: Vec<f64> = rungs.iter().map(|r| median(&r.samples)).collect();
    let [step, chain, fused16, unfused16, fused4, unfused4] = per_rec[..] else {
        unreachable!("six rungs")
    };
    let box_step_ns = step / depth as f64;
    v.set("semantics.box_step_ns", box_step_ns);
    v.set("fusion.chain_ns_per_rec", chain);
    v.set(
        "fusion.chain_self_ns_per_rec",
        chain - depth as f64 * box_step_ns,
    );
    v.set("sched.fused_ns_per_rec.d16", fused16);
    v.set("sched.unfused_ns_per_rec.d16", unfused16);
    v.set("sched.hop_ns.d16", (unfused16 - fused16) / 15.0);
    v.set("sched.fused_ns_per_rec.d4", fused4);
    v.set("sched.unfused_ns_per_rec.d4", unfused4);
    v.set("sched.hop_ns.d4", (unfused4 - fused4) / 3.0);
}

/// `fusion::fuse` and the analyzer pre-flight on the workload's net.
pub fn build_path(spec: &NetSpec, cfg: &EngineConfig, tracer: &mut Tracer, v: &mut Values) {
    let reps = 21;
    v.set(
        "fusion.fuse_us",
        timed(tracer, "fusion.fuse", reps, || fuse(spec)) / 1e3,
    );
    let acfg = snet_analyze::AnalyzeConfig {
        nodes: cfg.nodes,
        ..snet_analyze::AnalyzeConfig::default()
    };
    let preflight = timed(tracer, "analyze.analyze_open", reps, || {
        snet_analyze::analyze_open(spec, &acfg)
    });
    v.set("analyze.preflight_us", preflight / 1e3);
}

/// The streaming handle's metrics from a traced `stream16` pass.
pub fn handle(r: &StreamResult, tracer: &Tracer, v: &mut Values) {
    let sent = tracer.aggregate("handle.try_send");
    v.set("handle.try_send_ns", sent.mean_ns());
    v.set(
        "handle.try_recv_ns",
        tracer.aggregate("handle.try_recv").mean_ns(),
    );
    v.set("handle.finish_us", median(&r.finish_us));
    v.set(
        "handle.try_send_full_ratio",
        ratio(r.try_send_full as f64, r.try_send_calls as f64),
    );
    v.set(
        "handle.drive_useful_ratio",
        ratio(r.drive_useful as f64, r.drive_calls as f64),
    );
    v.set(
        "handle.yields_per_krec",
        ratio(r.yields as f64 * 1e3, r.received as f64),
    );
    v.set(
        "handle.ingress_wait_us.p50",
        r.ingress_wait.quantile_ns(0.5) / 1e3,
    );
    v.set(
        "handle.ingress_wait_us.p99",
        r.ingress_wait.quantile_ns(0.99) / 1e3,
    );
    v.set(
        "handle.in_network_us.p50",
        r.in_network.quantile_ns(0.5) / 1e3,
    );
    v.set(
        "handle.in_network_us.p99",
        r.in_network.quantile_ns(0.99) / 1e3,
    );
}

/// Trace counts per unit (`trace_units` units fed the counters) and
/// buffer-pool deltas per thousand units (`pool_units` inside the
/// window) of the workload's own traced pass.
pub fn counts(
    t: &TraceCounts,
    trace_units: u64,
    pool: &PoolStats,
    pool_units: u64,
    v: &mut Values,
) {
    let per = |c: u64| ratio(c as f64, trace_units as f64);
    let u = pool_units as f64;
    v.set("trace.star_unfoldings", per(t.star_unfoldings));
    v.set("trace.sync_stores", per(t.sync_stores));
    v.set("trace.sync_fires", per(t.sync_fires));
    v.set("trace.split_replicas", per(t.split_replicas));
    v.set("trace.dispatched", per(t.dispatched));
    v.set("trace.box_records", per(t.box_records));
    v.set("trace.filter_records", per(t.filter_records));
    v.set("trace.sync_stranded", per(t.sync_stranded));
    v.set(
        "pool.hit_ratio",
        ratio(pool.hits as f64, (pool.hits + pool.misses) as f64),
    );
    v.set("pool.misses_per_kunit", ratio(pool.misses as f64 * 1e3, u));
    v.set(
        "pool.dropped_per_kunit",
        ratio(pool.dropped as f64 * 1e3, u),
    );
}

/// The ray tracer, the application boxes, and the kernel's share of
/// pool capacity, on the first scenes of `jobs`; job wall times come
/// from the traced pass `r` that ran them.
pub fn kernel(
    p: &Params,
    jobs: &[Job],
    r: &JobsResult,
    tracer: &mut Tracer,
    tally: &mut Tally,
    v: &mut Values,
) {
    let (w, h) = (p.width, p.height);
    let sections = p.snet.schedule.sections(h, p.snet.tasks);
    let scenes = KERNEL_SCENES.min(jobs.len());
    let (mut full_ms, mut sum_ms, mut max_ms) = (0.0, 0.0, 0.0f64);
    let (mut prims, mut nodes) = (0u64, 0u64);
    let (mut share, mut speedup, mut walls) = (0.0, 0.0, 0);
    let mut merge_ns = Vec::new();
    let mut splitter_ns = Vec::new();
    for (k, job) in jobs.iter().take(scenes).enumerate() {
        let (scene, bvh) = job.workload.scene();
        let mut c = Counters::default();
        let t0 = Instant::now();
        let image = render_full(&scene, w, h, &mut c);
        let t1 = Instant::now();
        tracer.call("raytracer.render_full", t0, t1, None, k as u64, true);
        tally.add(1, u64::from(image != job.reference));
        let full = (t1 - t0).as_secs_f64() * 1e3;
        full_ms += full;
        prims += c.prim_tests;
        nodes += c.bvh_nodes;

        let splitter = splitter_box();
        splitter_ns.push(timed(tracer, "apps.splitter", 21, || {
            box_step(&splitter, job.record.clone(), MismatchPolicy::Forward)
        }));

        let merge = merge_box();
        let mut acc = Image::new(w, h);
        let (mut sum, mut max) = (0.0, 0.0f64);
        for (i, &sect) in sections.iter().enumerate() {
            let t0 = Instant::now();
            let chunk = render_section(&scene, &bvh, w, h, sect, &mut Counters::default());
            let t1 = Instant::now();
            tracer.call("raytracer.render_section", t0, t1, None, i as u64, true);
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            sum += ms;
            max = max.max(ms);
            let rec = Record::new()
                .with_field(
                    "chunk",
                    snet_apps::data::field(ChunkData {
                        chunk,
                        img_height: h,
                    }),
                )
                .with_field("pic", snet_apps::data::field(PicData(acc.clone())));
            let t0 = Instant::now();
            let out = box_step(&merge, rec, MismatchPolicy::Forward);
            let t1 = Instant::now();
            tracer.call("apps.merge", t0, t1, None, i as u64, true);
            merge_ns.push((t1 - t0).as_nanos() as f64);
            if let Some(pic) = out
                .ok()
                .and_then(|o| o.records.into_iter().next())
                .and_then(|r| r.field("pic").cloned())
            {
                acc = snet_apps::data::expect::<PicData>(&pic, "pic").0.clone();
            }
        }
        tally.add(1, u64::from(acc != job.reference));
        sum_ms += sum;
        max_ms += max;
        let (count, total) = r.per_scene.get(k).copied().unwrap_or_default();
        if count > 0 {
            let wall_ms = total.as_secs_f64() * 1e3 / count as f64;
            share += sum / (crate::fig4::WORKERS as f64 * wall_ms);
            speedup += full / wall_ms;
            walls += 1;
        }
    }
    let s = scenes as f64;
    v.set("raytracer.render_full_ms", full_ms / s);
    v.set("raytracer.section_ms.sum", sum_ms / s);
    v.set("raytracer.section_ms.max", max_ms / s);
    v.set("raytracer.prim_tests", prims as f64 / s);
    v.set("raytracer.bvh_nodes", nodes as f64 / s);
    v.set("apps.splitter_us", median(&splitter_ns) / 1e3);
    v.set("apps.merge_us", median(&merge_ns) / 1e3);
    v.set("fig4.kernel_share", ratio(share, walls as f64));
    v.set("fig4.seq_over_snet", ratio(speedup, walls as f64));
}
