//! Lifecycle and backpressure regression tests for the scheduled
//! engine's persistent worker pool and streaming `start()` API.
//!
//! What is pinned down here, each a bug in the pre-streaming engine:
//!
//! * `run_batch` used to spawn and join a fresh worker pool on every
//!   call — consecutive batches must now reuse the same OS threads;
//! * the driver used to poll for quiescence on a 5 ms timeout loop —
//!   completion must be wake-driven, so short runs finish promptly;
//! * the entry mailbox used to accept the whole input unboundedly —
//!   streaming ingress must hold resident records at
//!   `EngineConfig::channel_capacity`;
//! * dropping a handle without `finish()` must neither deadlock nor
//!   leak pool threads;
//! * a root parallel or `[]` runs in its sender, yet ingress must stay
//!   bounded by `channel_capacity`;
//! * a sender's copy of an inline parallel used to copy every inline
//!   parallel after it — a pipeline of optional stages `(box | [])`
//!   must build and run in time and space linear in its length;
//! * routing tasks and the sink used to ignore backpressure — records
//!   resident in a streaming run must stay under a bound set by the
//!   configuration, not grow with the run's length.

use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::{NetSpec, Record, SnetError, Value};
use snet_runtime::{run_stream, EngineConfig, Interp, SchedNet, TrySendError};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn int_box(name: &str, f: fn(i64) -> i64) -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse(name, &["x"], &[&["x"]]),
        move |r| {
            let x = r
                .field("x")
                .and_then(|v| v.as_int())
                .ok_or_else(|| SnetError::Engine("expected int field x".into()))?;
            Ok(BoxOutput::one(
                Record::new().with_field("x", Value::Int(f(x))),
                Work::ops(1),
            ))
        },
    ))
}

fn recs(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new().with_field("x", Value::Int(i)))
        .collect()
}

fn xs(records: &[Record]) -> Vec<i64> {
    let mut v: Vec<i64> = records
        .iter()
        .filter_map(|r| r.field("x").and_then(|v| v.as_int()))
        .collect();
    v.sort_unstable();
    v
}

/// Two consecutive `run_batch` calls on one `SchedNet` must run their
/// box code on the same pool threads: the set of distinct worker
/// thread ids across both runs stays within the configured pool size,
/// and the spawn counter never moves past it.
#[test]
fn run_batch_reuses_pool_threads() {
    let ids: Arc<Mutex<HashSet<ThreadId>>> = Arc::new(Mutex::new(HashSet::new()));
    let ids2 = Arc::clone(&ids);
    let probe = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("probe", &["x"], &[&["x"]]),
        move |r| {
            ids2.lock().unwrap().insert(std::thread::current().id());
            Ok(BoxOutput::one(r.clone(), Work::ops(1)))
        },
    ));
    let workers = 2;
    let net = SchedNet::with_config(
        probe,
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    );
    for round in 0..2 {
        let outs = net.run_batch(recs(64)).unwrap();
        assert_eq!(outs.len(), 64, "round {round}");
    }
    let distinct = ids.lock().unwrap().len();
    assert!(
        distinct <= workers,
        "two runs touched {distinct} distinct worker threads — a fresh pool \
         per run would show up to {}",
        2 * workers
    );
    assert_eq!(
        net.workers_spawned(),
        workers,
        "the pool must be spawned exactly once across runs"
    );
}

/// Completion is wake-driven (the sink's finalization signals the
/// driver), so a trivial depth-1 run must not pay a polling-interval
/// tail. 50 runs at the old 5 ms poll interval alone would take 250 ms;
/// the bound below fails even the cheapest polling regression while
/// leaving two orders of magnitude of headroom over the measured
/// per-run cost on a loaded CI box.
#[test]
fn short_runs_complete_promptly_without_polling() {
    let net = SchedNet::new(int_box("inc", |x| x + 1));
    net.run_batch(recs(1)).unwrap(); // spawn + warm the pool
    let t0 = Instant::now();
    for _ in 0..50 {
        let outs = net.run_batch(recs(1)).unwrap();
        assert_eq!(outs.len(), 1);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "50 warm depth-1 batches took {elapsed:?} — completion is polling, not wake-driven"
    );
}

/// Deterministic ingress bound: with the single worker wedged inside a
/// box call, the entry mailbox fills to exactly `channel_capacity` and
/// the next `try_send` reports `Full` instead of buffering.
#[test]
fn try_send_reports_full_at_configured_capacity() {
    // Gate protocol: 0 = no record seen, 1 = first record inside the
    // box (worker wedged), 2 = released.
    let gate = Arc::new((Mutex::new(0u8), Condvar::new()));
    let gate2 = Arc::clone(&gate);
    let gated = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("gated", &["x"], &[&["x"]]),
        move |r| {
            let (lock, cv) = &*gate2;
            let mut st = lock.lock().unwrap();
            if *st == 0 {
                *st = 1;
                cv.notify_all();
            }
            while *st < 2 {
                st = cv.wait(st).unwrap();
            }
            drop(st);
            Ok(BoxOutput::one(r.clone(), Work::ops(1)))
        },
    ));
    let cap = 4;
    let net = SchedNet::with_config(
        gated,
        EngineConfig {
            workers: 1,
            channel_capacity: cap,
            ..EngineConfig::default()
        },
    );
    let h = net.start();
    h.send(Record::new().with_field("x", Value::Int(0)))
        .unwrap();
    {
        // Wait until the worker has claimed that record and is wedged
        // inside the box; from here on nothing drains the entry mailbox.
        let (lock, cv) = &*gate;
        let mut st = lock.lock().unwrap();
        while *st < 1 {
            st = cv.wait(st).unwrap();
        }
    }
    for i in 1..=cap as i64 {
        h.try_send(Record::new().with_field("x", Value::Int(i)))
            .unwrap_or_else(|_| panic!("record {i} fits under the capacity bound"));
    }
    assert_eq!(h.input_backlog(), cap, "entry mailbox filled to the bound");
    let overflow = Record::new().with_field("x", Value::Int(99));
    let back = match h.try_send(overflow) {
        Err(TrySendError::Full(rec)) => rec,
        other => panic!("expected Full at capacity, got {other:?}"),
    };
    // Release the worker; the blocking send path must now find space.
    {
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = 2;
        cv.notify_all();
    }
    h.send(back).unwrap();
    h.close_input();
    let mut outs = Vec::new();
    while let Some(r) = h.recv() {
        outs.push(r);
    }
    assert_eq!(xs(&outs), vec![0, 1, 2, 3, 4, 99]);
    h.finish().unwrap();
}

/// The issue's backpressure scenario: a producer pushes N ≫ capacity
/// records against a throttled consumer. Resident records in the entry
/// mailbox must never exceed the configured capacity while outputs
/// stream out, and every record must still arrive.
#[test]
fn slow_consumer_bounds_resident_records() {
    let cap = 8;
    let total = 400i64;
    let net = SchedNet::with_config(
        int_box("inc", |x| x + 1),
        EngineConfig {
            workers: 2,
            channel_capacity: cap,
            ..EngineConfig::default()
        },
    );
    let h = net.start();
    let max_backlog = AtomicUsize::new(0);
    let mut outs = Vec::new();
    std::thread::scope(|s| {
        let h = &h;
        s.spawn(move || {
            for rec in recs(total) {
                h.send(rec).expect("network stays up");
            }
            h.close_input();
        });
        while let Some(r) = h.recv() {
            outs.push(r);
            // Throttle the drain so ingress pressure actually builds.
            if outs.len() % 16 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            max_backlog.fetch_max(h.input_backlog(), Ordering::Relaxed);
        }
    });
    h.finish().unwrap();
    assert_eq!(outs.len(), total as usize);
    assert_eq!(xs(&outs), (1..=total).collect::<Vec<_>>());
    let observed = max_backlog.load(Ordering::Relaxed);
    assert!(
        observed <= cap,
        "entry mailbox reached {observed} resident records with capacity {cap}"
    );
}

/// A root that runs in its sender — a parallel dispatcher or an
/// identity filter `[]` — still streams through a bounded entry
/// mailbox: a producer pushing far more than `channel_capacity`
/// records against a throttled consumer never finds more than that
/// many resident at ingress, and the outputs match the interpreter.
#[test]
fn inline_roots_keep_ingress_bounded_and_match_interp() {
    let cap = 4;
    let y_box = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("y", &["y"], &[&["y"]]),
        |r| {
            let y = r.field("y").and_then(|v| v.as_int()).unwrap_or(0);
            Ok(BoxOutput::one(
                Record::new().with_field("y", Value::Int(-y)),
                Work::ops(1),
            ))
        },
    ));
    let records: Vec<Record> = (0..300)
        .map(|i| {
            let label = if i % 3 == 0 { "y" } else { "x" };
            Record::new().with_field(label, Value::Int(i))
        })
        .collect();
    for (name, spec) in [
        (
            "root parallel",
            NetSpec::parallel(vec![int_box("inc", |x| x + 1), y_box]),
        ),
        ("root []", NetSpec::identity()),
    ] {
        let expected = Interp::new(&spec).run_batch(records.clone()).unwrap();
        let net = SchedNet::with_config(
            spec,
            EngineConfig {
                workers: 2,
                channel_capacity: cap,
                ..EngineConfig::default()
            },
        );
        let h = net.start();
        let max_backlog = AtomicUsize::new(0);
        let mut outs = Vec::new();
        std::thread::scope(|s| {
            let (h, records) = (&h, records.clone());
            s.spawn(move || {
                for rec in records {
                    h.send(rec).expect("network stays up");
                }
                h.close_input();
            });
            while let Some(r) = h.recv() {
                outs.push(r);
                if outs.len() % 16 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                max_backlog.fetch_max(h.input_backlog(), Ordering::Relaxed);
            }
        });
        h.finish().unwrap();
        let multiset = |recs: &[Record]| {
            let mut v: Vec<String> = recs.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        assert_eq!(multiset(&outs), multiset(&expected.outputs), "{name}");
        let observed = max_backlog.load(Ordering::Relaxed);
        assert!(
            observed <= cap,
            "{name}: entry mailbox reached {observed} resident records with capacity {cap}"
        );
    }
}

/// `(inc | []) .. (inc | []) .. ..`, the S-Net idiom for a pipeline of
/// optional stages: 24 of them build and run promptly, streamed and in
/// batch, and match the interpreter. A sender's copy of an inline
/// dispatcher used to carry a copy of every dispatcher after it, so
/// the ports built at start doubled with every stage.
#[test]
fn a_long_pipeline_of_optional_stages_builds_and_runs_promptly() {
    let spec = NetSpec::pipeline(
        (0..24).map(|_| NetSpec::parallel(vec![int_box("inc", |x| x + 1), NetSpec::identity()])),
    );
    let records: Vec<Record> = (0..200)
        .map(|i| {
            let label = if i % 4 == 0 { "y" } else { "x" };
            Record::new().with_field(label, Value::Int(i))
        })
        .collect();
    let multiset = |recs: &[Record]| {
        let mut v: Vec<String> = recs.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    let expected = multiset(
        &Interp::new(&spec)
            .run_batch(records.clone())
            .unwrap()
            .outputs,
    );
    let net = SchedNet::with_config(
        spec,
        EngineConfig {
            workers: 2,
            channel_capacity: 4,
            ..EngineConfig::default()
        },
    );
    let t0 = Instant::now();
    assert_eq!(
        multiset(&run_stream(&net, records.clone()).unwrap()),
        expected
    );
    assert_eq!(multiset(&net.run_batch(records).unwrap()), expected);
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(10), "two runs took {took:?}");
}

/// Dropping a handle without `finish()` — with input still open and
/// outputs undelivered in a full output channel — must tear the run
/// down without deadlocking a pool worker, and the pool must stay
/// usable (and un-respawned) for later runs.
#[test]
fn dropping_handle_without_finish_is_safe() {
    let net = SchedNet::with_config(
        int_box("inc", |x| x + 1),
        EngineConfig {
            workers: 2,
            channel_capacity: 2, // tiny output channel: the sink WILL block on undrained outputs
            ..EngineConfig::default()
        },
    );
    {
        let h = net.start();
        for i in 0..20 {
            h.send(Record::new().with_field("x", Value::Int(i)))
                .unwrap();
        }
        // No recv, no close, no finish.
    }
    // The pool survives the abandoned run and serves fresh ones.
    for _ in 0..2 {
        let outs = net.run_batch(recs(50)).unwrap();
        assert_eq!(xs(&outs), (1..=50).collect::<Vec<_>>());
    }
    assert_eq!(
        net.workers_spawned(),
        2,
        "abandoned run must not respawn the pool"
    );
    // `net` drops here; a deadlocked worker would hang the join and
    // thus the test.
}

/// Streaming a long input through a deep pipeline with a tiny ingress
/// bound: maximal send-side blocking must still deliver every record
/// in per-stream order.
#[test]
fn tight_capacity_streaming_soak() {
    let stages: Vec<NetSpec> = (0..8).map(|_| int_box("inc", |x| x + 1)).collect();
    let net = SchedNet::with_config(
        NetSpec::pipeline(stages),
        EngineConfig {
            workers: 2,
            channel_capacity: 2,
            ..EngineConfig::default()
        },
    );
    for round in 0..2 {
        let outs = run_stream(&net, recs(300)).unwrap();
        assert_eq!(xs(&outs), (8..308).collect::<Vec<_>>(), "round {round}");
    }
}

/// A box taking `{x}` that spends `micros` of wall time per record,
/// so a fast producer outruns it.
fn slow_box(micros: u64) -> NetSpec {
    NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("slow", &["x"], &[&["x"]]),
        move |r| {
            std::thread::sleep(Duration::from_micros(micros));
            Ok(BoxOutput::one(r.clone(), Work::ops(1)))
        },
    ))
}

/// Routing components and the sink must respect backpressure too.
/// Each net runs for over a second behind a 200 µs box, fed by a
/// producer that `try_send`s as fast as ingress admits and, whenever
/// ingress is full, takes at most two outputs and pauses for a
/// millisecond. Records resident in the network (`sent − received`)
/// must stay under a bound set by the configuration: the ingress and
/// egress channels plus, for every task, a mailbox at the high-water
/// mark (`16 × channel_capacity`), as much again held as output (the
/// sink's undelivered records), an activation's claimed batch and a
/// batch of coalescing slop. A router that drains its
/// input without looking at its targets (a root parallel, the
/// parallel behind a box, a root split), or a sink that keeps pulling
/// input while the consumer takes a few records at a time, lets this
/// grow with the run's length instead.
#[test]
fn routing_and_sink_hold_resident_records_under_a_configured_bound() {
    let cap = 4;
    let batch = EngineConfig::default().batch;
    let high_water = 16 * cap;
    let per_task = 2 * high_water + 2 * batch;
    let other = NetSpec::Box(BoxDef::from_fn(
        BoxSig::parse("other", &["y"], &[&["y"]]),
        |r| Ok(BoxOutput::one(r.clone(), Work::ops(1))),
    ));
    // Each net with the tasks it runs, the sink included.
    let nets = [
        (
            "root parallel",
            NetSpec::parallel(vec![slow_box(200), other.clone()]),
            4,
        ),
        (
            "box .. parallel",
            NetSpec::serial(
                int_box("inc", |x| x + 1),
                NetSpec::parallel(vec![slow_box(200), other]),
            ),
            4,
        ),
        ("root split", NetSpec::split(slow_box(200), "k"), 4),
    ];
    for (name, spec, tasks) in nets {
        let bound = 2 * cap + tasks * per_task;
        let net = SchedNet::with_config(
            spec,
            EngineConfig {
                workers: 2,
                channel_capacity: cap,
                ..EngineConfig::default()
            },
        );
        let h = net.start();
        let (mut sent, mut received, mut peak) = (0usize, 0usize, 0usize);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(1200) {
            let rec = Record::new()
                .with_field("x", Value::Int(sent as i64))
                .with_tag("k", sent as i64 % 2);
            match h.try_send(rec) {
                Ok(()) => sent += 1,
                Err(TrySendError::Full(_)) => {
                    // A lagging consumer: a couple of records per pause.
                    received += (0..2).filter(|_| h.try_recv().is_some()).count();
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(TrySendError::Closed(e)) => panic!("{name}: {e}"),
            }
            peak = peak.max(sent - received);
            assert!(
                peak <= bound,
                "{name}: {peak} records resident after {:?}, over the bound of {bound} \
                 (channel_capacity {cap}, high-water {high_water}, batch {batch})",
                t0.elapsed()
            );
        }
        h.close_input();
        while h.recv().is_some() {
            received += 1;
        }
        h.finish().unwrap();
        assert_eq!(received, sent, "{name}: every record comes out");
        eprintln!("{name}: {sent} records, peak {peak} resident (bound {bound})");
    }
}
