//! `fig4_coord` and `fig4_render`: back-to-back jobs of the paper's
//! Fig 4 dynamically scheduled ray-tracing net on one persistent
//! `SchedNet`, each image checked byte for byte against the sequential
//! Algorithm 1 render.

use crate::measure::{Histogram, Rng, Slices};
use crate::spans::Tracer;
use crate::stream::{pool_delta, TraceCounts};
use snet_apps::{
    input_record, raytracing_net, ImageSlot, NetVariant, Schedule, SnetConfig, Workload,
};
use snet_core::{pool, NetSpec, PoolStats, Record, SnetError};
use snet_raytracer::{Image, ScenePreset};
use snet_runtime::{EngineConfig, RunReport, SchedNet};
use std::time::{Duration, Instant};

pub const WORKERS: usize = 2;

/// One Fig 4 workload: image size, scene size, and the splitter's
/// sections and node tokens.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub width: u32,
    pub height: u32,
    pub spheres: usize,
    pub snet: SnetConfig,
    /// Distinct seeded scenes a run cycles through, so a run's cost
    /// does not hang on one scene's layout.
    pub scenes: usize,
}

/// Coordination-bound: 64 sections and 2 tokens, so nearly every
/// section waits in a synchrocell and loops through a fresh star
/// unfolding, on a scene that renders in a few milliseconds.
pub fn coord() -> Params {
    Params {
        width: 64,
        height: 64,
        spheres: 20,
        snet: SnetConfig {
            variant: NetVariant::Dynamic,
            nodes: 2,
            tasks: 64,
            tokens: 2,
            schedule: Schedule::Block,
        },
        scenes: 8,
    }
}

/// Kernel-bound: the paper's best dynamic settings for 2 nodes.
pub fn render() -> Params {
    Params {
        width: 256,
        height: 256,
        spheres: 180,
        snet: SnetConfig::fig6_dynamic(2),
        scenes: 8,
    }
}

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        ..EngineConfig::default()
    }
}

pub fn net(slot: &ImageSlot) -> NetSpec {
    raytracing_net(NetVariant::Dynamic, ImageSlot::clone(slot), None)
}

/// One seeded job: the input record, the image it must produce, and
/// the records it must leave stranded ([`expected_stranded`]).
pub struct Job {
    pub workload: Workload,
    pub record: Record,
    pub reference: Image,
    pub stranded: u64,
}

pub fn jobs(p: &Params, seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    (0..p.scenes)
        .map(|_| {
            let workload = Workload {
                preset: ScenePreset::Clustered,
                spheres: p.spheres,
                seed: rng.next_u64(),
                width: p.width,
                height: p.height,
            };
            Job {
                record: input_record(&workload, &p.snet),
                reference: workload.reference_image(),
                stranded: expected_stranded(p),
                workload,
            }
        })
        .collect()
}

/// Records a correct Fig 4 job leaves in synchrocells at the end: the
/// node tokens. Each token is released once its last section is solved
/// and then waits in a token synchrocell for a section that never
/// comes; a stranded section or chunk would raise the count.
pub fn expected_stranded(p: &Params) -> u64 {
    u64::from(p.snet.tokens.min(p.snet.tasks))
}

/// A job is correct when the run succeeded with no dead letters, only
/// the node tokens stranded, and an image equal to the reference.
pub fn verify(
    report: &Result<RunReport, SnetError>,
    image: Option<&Image>,
    reference: &Image,
    stranded: u64,
) -> bool {
    let Ok(report) = report else {
        return false;
    };
    report.dead_letters.is_empty()
        && report.trace.get(&report.trace.sync_stranded) == stranded
        && image == Some(reference)
}

#[derive(Default)]
pub struct JobsResult {
    pub attempted: u64,
    pub failed: u64,
    /// Verified jobs completed inside the timed window.
    pub completed: u64,
    /// Closed at whole cycles through `jobs`, so every slice renders
    /// the same scenes.
    pub slices: Slices,
    /// The `run_batch` call of each job.
    pub latency: Histogram,
    /// Per scene (indexed like `jobs`): verified jobs and their total
    /// `run_batch` time inside the window.
    pub per_scene: Vec<(u64, Duration)>,
    pub pool: PoolStats,
    pub trace: TraceCounts,
}

/// Runs jobs back to back: `warmup`, then a timed `window`. Every job,
/// warm-up included, is verified.
pub fn run<const TRACED: bool>(
    net: &SchedNet,
    slot: &ImageSlot,
    jobs: &[Job],
    warmup: Duration,
    window: Duration,
    between: &mut dyn FnMut(),
    tracer: &mut Tracer,
) -> JobsResult {
    let pass = TRACED.then(|| tracer.open("fig4_pass", None, 0));
    let mut r = JobsResult::default();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    let window_start = start + warmup;
    let end = window_start + window;
    let mut measuring = false;
    let mut pool0 = PoolStats::default();
    for n in 0.. {
        let now = Instant::now();
        if measuring {
            if n % jobs.len() == 0 {
                r.slices.mark(now, r.completed, between);
            }
        } else if now >= window_start && n % jobs.len() == 0 {
            measuring = true;
            r = JobsResult {
                per_scene: vec![(0, Duration::ZERO); jobs.len()],
                ..JobsResult::default()
            };
            pool0 = pool::stats();
        }
        if now >= end {
            break;
        }
        let job = &jobs[n % jobs.len()];
        let t0 = Instant::now();
        let report = net.run_batch_report(vec![job.record.clone()]);
        let t1 = Instant::now();
        if TRACED {
            tracer.call("sched.run_batch", t0, t1, pass, n as u64, true);
        }
        let image = slot.lock().take();
        attempted += 1;
        let ok = verify(&report, image.as_ref(), &job.reference, job.stranded);
        if !ok {
            failed += 1;
            if let Err(e) = &report {
                eprintln!("fig4: job {n} failed: {e}");
            }
        }
        if measuring && ok {
            if let Ok(rep) = &report {
                r.trace.add(&rep.trace);
            }
            {
                r.completed += 1;
                r.latency.record_duration(t1 - t0);
                let scene = &mut r.per_scene[n % jobs.len()];
                scene.0 += 1;
                scene.1 += t1 - t0;
            }
        }
    }
    r.pool = pool_delta(pool0, pool::stats());
    r.attempted = attempted;
    r.failed = failed;
    if let Some(p) = pass {
        tracer.close(p);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_apps::image_slot;

    fn tiny() -> Params {
        Params {
            width: 24,
            height: 24,
            spheres: 6,
            snet: SnetConfig {
                tasks: 8,
                ..coord().snet
            },
            scenes: 2,
        }
    }

    #[test]
    fn a_corrupted_image_counts_as_failed() {
        let p = tiny();
        let jobs = jobs(&p, 5);
        let slot = image_slot();
        let sched = SchedNet::with_config(net(&slot), engine_config());
        let report = sched.run_batch_report(vec![jobs[0].record.clone()]);
        let mut image = slot.lock().take().expect("genImg deposits the image");
        let (reference, stranded) = (&jobs[0].reference, expected_stranded(&p));
        assert!(verify(&report, Some(&image), reference, stranded));
        assert!(
            !verify(&report, Some(&image), reference, stranded + 1),
            "a stranded section"
        );
        assert!(!verify(&report, None, reference, stranded), "missing image");
        assert!(!verify(
            &report,
            Some(&jobs[1].reference),
            reference,
            stranded
        ));
        image.pixels[0][0] ^= 1;
        assert!(!verify(&report, Some(&image), reference, stranded));
        let errored = Err(SnetError::Engine("boom".into()));
        assert!(!verify(&errored, Some(reference), reference, stranded));
    }

    #[test]
    fn every_job_of_a_short_pass_verifies() {
        let p = tiny();
        let jobs = jobs(&p, 9);
        let slot = image_slot();
        let sched = SchedNet::with_config(net(&slot), engine_config());
        let r = run::<false>(
            &sched,
            &slot,
            &jobs,
            Duration::ZERO,
            Duration::from_millis(100),
            &mut || {},
            &mut Tracer::new(),
        );
        assert!(r.completed > 0);
        assert_eq!(r.failed, 0);
        assert_eq!(r.trace.sync_stranded, r.completed * expected_stranded(&p));
    }
}
