//! The repository benchmark: end-to-end and per-layer metrics of the
//! scheduled S-Net engine on three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream16|fig4_coord|fig4_render|all --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload prints a context line and then, as its last line, one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`) of
//! `BENCHMARK.json`. A human-readable table goes to stderr. `--workload
//! all` runs the untraced then the traced pass of every workload, each
//! in its own process, and writes them to `perfbench/out/`.

mod fig4;
mod ladder;
mod measure;
mod metrics;
mod spans;
mod stream;

use measure::{nproc, peak_rss_mib};
use metrics::{Def, END_TO_END, PER_LAYER};
use snet_core::{NetSpec, Record};
use snet_runtime::{EngineConfig, SchedNet};
use spans::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: snet-perfbench --workload stream16|fig4_coord|fig4_render|all \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups timed before a run's passes. An untraced pass times one more
/// after each slice, so `setup_s`, their median, samples the host's
/// speed across the whole run like the other end-to-end metrics.
const SETUP_REPS: usize = 11;

/// Metric values by name.
#[derive(Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_owned(), v);
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    Stream16,
    Fig4Coord,
    Fig4Render,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Stream16,
        Workload::Fig4Coord,
        Workload::Fig4Render,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Stream16 => "stream16",
            Workload::Fig4Coord => "fig4_coord",
            Workload::Fig4Render => "fig4_render",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The highest percentile with at least ten samples beyond it at
    /// this workload's rate and the default run length.
    fn tail_quantile(self) -> f64 {
        match self {
            Workload::Fig4Render => 0.90,
            _ => 0.99,
        }
    }

    fn config(self) -> EngineConfig {
        match self {
            Workload::Stream16 => stream::engine_config(),
            _ => fig4::engine_config(),
        }
    }

    fn params(self) -> fig4::Params {
        match self {
            Workload::Fig4Render => fig4::render(),
            _ => fig4::coord(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("1..=600"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let w = Workload::parse(&args.workload).expect("validated by parse_args");
    match run(w, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{}: {e}", w.name());
            ExitCode::from(1)
        }
    }
}

/// What a run verified: units attempted, units failed, and outputs
/// that matched no input.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    unexpected: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A ladder rung's outputs: `outs` must be `ins` advanced by
    /// `depth` ticks, in order.
    pub fn records(&mut self, ins: &[Record], outs: &[Record], depth: i64) {
        let x = |r: &Record| r.field("x").and_then(|v| v.as_int());
        let good = ins
            .iter()
            .zip(outs)
            .filter(|(i, o)| x(i).map(|v| v + depth) == x(o) && i.tag("seq") == o.tag("seq"))
            .count();
        self.add(ins.len() as u64, (ins.len() - good) as u64);
    }

    fn stream(&mut self, r: &stream::StreamResult) {
        self.add(r.attempted, r.failed);
        self.unexpected += r.unexpected;
    }

    fn jobs(&mut self, r: &fig4::JobsResult) {
        self.add(r.attempted, r.failed);
    }
}

/// Samples of the set-up a user of the engine pays before the first
/// record: spec construction, `with_config` (fusion and the analyzer
/// pre-flight) and the first `start()`, which spawns the pool.
#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    with_config_us: Vec<f64>,
    spawn_us: Vec<f64>,
    error: Option<String>,
}

impl SetupTimes {
    /// One timed set-up; returns the net, its pool running.
    fn sample(
        &mut self,
        build: &dyn Fn() -> NetSpec,
        cfg: EngineConfig,
    ) -> Result<SchedNet, String> {
        let t0 = Instant::now();
        let spec = build();
        let t1 = Instant::now();
        let net = SchedNet::with_config(spec, cfg);
        let t2 = Instant::now();
        let handle = net.start();
        let t3 = Instant::now();
        if !net.preflight_diagnostics().is_empty() {
            return Err(format!(
                "pre-flight rejected the net: {:?}",
                net.preflight_diagnostics()
            ));
        }
        handle
            .finish()
            .map_err(|e| format!("empty set-up run failed: {e}"))?;
        self.total_s.push((t3 - t0).as_secs_f64());
        self.with_config_us.push((t2 - t1).as_secs_f64() * 1e6);
        self.spawn_us.push((t3 - t2).as_secs_f64() * 1e6);
        Ok(net)
    }

    /// Samples a set-up and drops the net, keeping the first error.
    fn sample_between(&mut self, build: &dyn Fn() -> NetSpec, cfg: EngineConfig) {
        if let Err(e) = self.sample(build, cfg) {
            self.error.get_or_insert(e);
        }
    }
}

fn build_for(w: Workload, slot: &snet_apps::ImageSlot) -> NetSpec {
    match w {
        Workload::Stream16 => stream::tick_net(stream::DEPTH),
        _ => fig4::net(slot),
    }
}

/// A share of the run's `--seconds`: all of it for the untraced pass;
/// in a traced run, parts for the untraced baseline, the traced pass,
/// and the companion pass.
fn split(seconds: u64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds as f64 * share)
}

/// Warm-up before each timed window: spawns workers, fills the buffer
/// pools and grows mailboxes to their steady-state size.
fn warmup(seconds: u64) -> Duration {
    split(seconds, 0.1).min(Duration::from_secs(1))
}

/// One workload, one pass. Prints the context line, the table, and
/// the result line; returns whether every unit verified.
fn run(w: Workload, args: &Args) -> Result<bool, String> {
    let cfg = w.config();
    let generator_threads = 1;
    let oversubscribed = generator_threads + cfg.workers > nproc();
    if oversubscribed {
        eprintln!(
            "{}: warning: {generator_threads} generator thread + {} workers exceed nproc = {}",
            w.name(),
            cfg.workers,
            nproc()
        );
    }
    // Inputs first: scenes, BVHs and reference images are not set-up.
    let params = w.params();
    let jobs = match w {
        Workload::Stream16 => Vec::new(),
        _ => fig4::jobs(&params, args.seed),
    };
    let slot = snet_apps::image_slot();
    let build = || build_for(w, &slot);
    let mut setups = SetupTimes::default();
    let mut net = setups.sample(&build, cfg)?;
    for _ in 1..SETUP_REPS {
        // Dropping the previous net joins its pool, outside the timing.
        drop(net);
        net = setups.sample(&build, cfg)?;
    }

    let mut v = Values::default();
    let mut tally = Tally::default();
    let secs = args.seconds;
    let warm = warmup(secs);
    if !args.trace {
        let mut between = || setups.sample_between(&build, cfg);
        let (slices, latency) = match w {
            Workload::Stream16 => {
                let r = stream::run::<false>(
                    &net,
                    args.seed,
                    warm,
                    split(secs, 1.0),
                    &mut between,
                    &mut Tracer::new(),
                );
                tally.stream(&r);
                (r.slices, r.latency)
            }
            _ => {
                let r = fig4::run::<false>(
                    &net,
                    &slot,
                    &jobs,
                    warm,
                    split(secs, 1.0),
                    &mut between,
                    &mut Tracer::new(),
                );
                tally.jobs(&r);
                (r.slices, r.latency)
            }
        };
        if let Some(e) = setups.error.take() {
            return Err(e);
        }
        v.set("units_per_s", slices.units_per_s());
        v.set("latency_p50_us", latency.quantile_ns(0.5) / 1e3);
        v.set(
            "latency_tail_us",
            latency.quantile_ns(w.tail_quantile()) / 1e3,
        );
        v.set("cpu_us_per_unit", slices.cpu_us_per_unit());
        v.set("peak_rss_mib", peak_rss_mib());
        v.set("setup_s", measure::median(&setups.total_s));
        let sizes = [
            latency.count(),
            slices.count() as u64,
            setups.total_s.len() as u64,
        ];
        print_context(w, args, &cfg, oversubscribed, sizes);
    } else {
        let mut tracer = Tracer::new();
        v.set(
            "sched.with_config_us",
            measure::median(&setups.with_config_us),
        );
        v.set("sched.pool_spawn_us", measure::median(&setups.spawn_us));
        ladder::build_path(&build(), &cfg, &mut tracer, &mut v);
        ladder::record_path(args.seed, &mut tracer, &mut tally, &mut v);
        // The workload's own pass untraced, then traced; then a short
        // companion pass of the other kind for the layers it skips.
        let (base, traced) = (split(secs, 0.3), split(secs, 0.4));
        let companion = split(secs, 0.1);
        let (base, traced) = match w {
            Workload::Stream16 => {
                let b = stream::run::<false>(
                    &net,
                    args.seed,
                    warm,
                    base,
                    &mut || {},
                    &mut Tracer::new(),
                );
                let r = stream::run::<true>(&net, args.seed, warm, traced, &mut || {}, &mut tracer);
                tally.stream(&b);
                tally.stream(&r);
                ladder::handle(&r, &tracer, &mut v);
                ladder::counts(&r.trace, r.attempted, &r.pool, r.received, &mut v);
                let p = fig4::coord();
                let jobs = fig4::jobs(&p, args.seed);
                let slot = snet_apps::image_slot();
                let net = SchedNet::with_config(fig4::net(&slot), fig4::engine_config());
                let c =
                    fig4::run::<true>(&net, &slot, &jobs, warm, companion, &mut || {}, &mut tracer);
                tally.jobs(&c);
                ladder::kernel(&p, &jobs, &c, &mut tracer, &mut tally, &mut v);
                (b.slices, r.slices)
            }
            _ => {
                let b = fig4::run::<false>(
                    &net,
                    &slot,
                    &jobs,
                    warm,
                    base,
                    &mut || {},
                    &mut Tracer::new(),
                );
                let r =
                    fig4::run::<true>(&net, &slot, &jobs, warm, traced, &mut || {}, &mut tracer);
                tally.jobs(&b);
                tally.jobs(&r);
                ladder::counts(&r.trace, r.completed, &r.pool, r.completed, &mut v);
                ladder::kernel(&params, &jobs, &r, &mut tracer, &mut tally, &mut v);
                let net =
                    SchedNet::with_config(stream::tick_net(stream::DEPTH), stream::engine_config());
                let c =
                    stream::run::<true>(&net, args.seed, warm, companion, &mut || {}, &mut tracer);
                tally.stream(&c);
                ladder::handle(&c, &tracer, &mut v);
                (b.slices, r.slices)
            }
        };
        let traced = traced.units_per_s();
        v.set("tracing.traced_units_per_s", traced);
        v.set(
            "tracing.overhead_share",
            1.0 - measure::ratio(traced, base.units_per_s()),
        );
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!("{}: spans written to {}", w.name(), path.display()),
            Err(e) => eprintln!("{}: could not write {}: {e}", w.name(), path.display()),
        }
        print_context(
            w,
            args,
            &cfg,
            oversubscribed,
            [0, 0, setups.total_s.len() as u64],
        );
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let correct = tally.attempted > 0 && tally.failed == 0 && tally.unexpected == 0;
    if !correct {
        eprintln!(
            "{}: NOT CORRECT: {} of {} units failed, {} unexpected outputs",
            w.name(),
            tally.failed,
            tally.attempted,
            tally.unexpected
        );
    }
    print_table(w, defs, &v);
    println!("{}", result_line(correct, &tally, defs, &v)?);
    Ok(correct)
}

/// The sizing and inputs of the run, recorded with its results.
/// `sizes`: latency samples, slices, and set-ups timed.
fn print_context(
    w: Workload,
    args: &Args,
    cfg: &EngineConfig,
    oversubscribed: bool,
    sizes: [u64; 3],
) {
    let [samples, slices, setup_reps] = sizes;
    let p = w.params();
    let shape = match w {
        Workload::Stream16 => format!(
            "\"depth\": {}, \"sessions\": {}, \"loop\": \"closed, one generator thread\"",
            stream::DEPTH,
            stream::SESSIONS
        ),
        _ => format!(
            "\"image\": \"{}x{}\", \"spheres\": {}, \"scenes\": {}, \"sections\": {}, \"tokens\": {}, \
             \"nodes\": {}, \"sessions\": 1, \"loop\": \"closed, one client thread that parks in run_batch\"",
            p.width, p.height, p.spheres, p.scenes, p.snet.tasks, p.snet.tokens, p.snet.nodes
        ),
    };
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"workers\": {}, \"generator_threads\": 1, \"oversubscribed\": {oversubscribed}, \
         \"channel_capacity\": {}, \"batch\": {}, \"fuse\": {}, \"tail_percentile\": {}, \
         \"latency_samples\": {samples}, \"slices\": {slices}, \"setup_reps\": {setup_reps}, {shape}}}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        cfg.workers,
        cfg.channel_capacity,
        cfg.batch,
        cfg.fuse,
        w.tail_quantile() * 100.0,
    );
}

fn print_table(w: Workload, defs: &[Def], v: &Values) {
    for d in defs {
        let value = v.0.get(d.name).copied().unwrap_or(f64::NAN);
        eprintln!(
            "{:<12} {:<32} {:>16.4} {:<6} {}",
            w.name(),
            d.name,
            value,
            d.unit,
            d.moves
        );
    }
}

/// The last line of stdout: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its unit.
fn result_line(correct: bool, tally: &Tally, defs: &[Def], v: &Values) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let value =
            v.0.get(d.name)
                .copied()
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    ))
}

/// Runs the untraced then the traced pass of every workload, each in
/// its own process (so `peak_rss_mib` is the workload's own), and
/// writes all results with the layer map to `out/`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut runs = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let seed = args.seed.to_string();
            let seconds = args.seconds.to_string();
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed,
                    "--seconds",
                    &seconds,
                    "--trace",
                    trace,
                ])
                .stderr(std::process::Stdio::inherit())
                .output();
            let stdout = match out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("{} --trace {trace}: exited with {}", w.name(), o.status);
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("{} --trace {trace}: could not start: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            let lines: Vec<&str> = stdout.lines().collect();
            let (Some(result), Some(context)) = (lines.last(), lines.iter().rev().nth(1)) else {
                eprintln!("{} --trace {trace}: no result printed", w.name());
                ok = false;
                continue;
            };
            let context = context
                .strip_prefix("{\"context\": ")
                .and_then(|c| c.strip_suffix('}'));
            runs.push(format!(
                "    {{\"workload\": \"{}\", \"trace\": {trace}, \"context\": {}, \"result\": {result}}}",
                w.name(),
                context.unwrap_or("null")
            ));
        }
    }
    let mut json = String::new();
    let map: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"moves\": \"{}\"}}",
                d.name, d.unit, d.moves
            )
        })
        .collect();
    let _ = write!(
        json,
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"runs\": [\n{}\n  ],\n  \"metrics\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.seconds,
        nproc(),
        runs.join(",\n"),
        map.join(",\n")
    );
    let path = out_dir().join(format!("results-seed{}.json", args.seed));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    ok &= runs.iter().all(|r| r.contains("\"correct\": true"));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
