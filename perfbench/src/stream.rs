//! `stream16`: a closed loop of tiny records through the depth-16
//! `tick` pipeline, which fuses to one chain task per session.
//!
//! One generator thread round-robins [`SESSIONS`] streaming sessions
//! (`SchedNet::start`) on one pool of [`WORKERS`] worker. It keeps each
//! session's ingress full with `try_send`, drains with `try_recv`, and
//! helps the pool with `drive()` when neither side moved. Every record
//! must come back once, in per-session FIFO order, with `x + 16`.

use crate::measure::{Histogram, Rng, Slices};
use crate::spans::Tracer;
use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
use snet_core::{pool, NetSpec, PoolStats, Record, Value};
use snet_runtime::{EngineConfig, SchedHandle, SchedNet, TrySendError};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

pub const DEPTH: usize = 16;
pub const SESSIONS: usize = 2;
pub const WORKERS: usize = 1;
/// Calls kept as spans: one in this many per session.
const SPAN_SAMPLE: u64 = 512;

/// `x -> x + 1`, carrying the `<seq>` tag through its signature so the
/// record stays an exact match for the box's input variant.
pub fn tick_box() -> BoxDef {
    BoxDef::from_fn(
        BoxSig::parse("tick", &["x", "<seq>"], &[&["x", "<seq>"]]),
        |r| {
            let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
            let seq = r.tag("seq").unwrap_or(-1);
            Ok(BoxOutput::one(
                Record::new()
                    .with_field("x", Value::Int(x + 1))
                    .with_tag("seq", seq),
                Work::ops(1),
            ))
        },
    )
}

pub fn tick_net(depth: usize) -> NetSpec {
    NetSpec::pipeline((0..depth).map(|_| NetSpec::Box(tick_box())))
}

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        ..EngineConfig::default()
    }
}

/// The `x` of record `seq` of a session: positive and far from
/// overflow, so `x + depth` is always exact.
pub fn value(rng: &mut Rng) -> i64 {
    (rng.next_u64() >> 24) as i64
}

pub fn record(x: i64, seq: i64) -> Record {
    Record::new()
        .with_field("x", Value::Int(x))
        .with_tag("seq", seq)
}

/// Seeded records for the batch rungs of the layer ladder.
pub fn records(seed: u64, n: usize) -> Vec<Record> {
    let mut rng = Rng::new(seed);
    (0..n as i64).map(|i| record(value(&mut rng), i)).collect()
}

pub struct InFlight {
    seq: i64,
    x: i64,
    first_attempt: Instant,
    accepted: Instant,
}

/// Per-session verification: outputs must match the accepted inputs
/// one for one, in order, each with `x + depth`.
pub struct Checker {
    depth: i64,
    inflight: VecDeque<InFlight>,
    /// Records accepted by `try_send` (or lost by it).
    pub attempted: u64,
    /// Accepted records that came back missing, wrong, out of order, or
    /// were lost to an error.
    pub failed: u64,
    /// Outputs that match no accepted record.
    pub unexpected: u64,
}

impl Checker {
    pub fn new(depth: usize) -> Checker {
        Checker {
            depth: depth as i64,
            inflight: VecDeque::new(),
            attempted: 0,
            failed: 0,
            unexpected: 0,
        }
    }

    pub fn accept(&mut self, seq: i64, x: i64, first_attempt: Instant, accepted: Instant) {
        self.attempted += 1;
        self.inflight.push_back(InFlight {
            seq,
            x,
            first_attempt,
            accepted,
        });
    }

    /// A record `try_send` refused for good: it counts as failed.
    pub fn lost(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Matches an output against the oldest accepted records. Earlier
    /// records it skips over were dropped (or reordered) and count as
    /// failed. Returns the matched record's timestamps when it is
    /// correct.
    pub fn receive(&mut self, rec: &Record) -> Option<(Instant, Instant)> {
        let seq = rec.tag("seq");
        let x = rec.field("x").and_then(|v| v.as_int());
        while let Some(front) = self.inflight.front() {
            match seq {
                Some(s) if s == front.seq => {
                    let front = self.inflight.pop_front().expect("front exists");
                    if x == Some(front.x + self.depth) {
                        return Some((front.first_attempt, front.accepted));
                    }
                    self.failed += 1;
                    return None;
                }
                Some(s) if s > front.seq => {
                    self.inflight.pop_front();
                    self.failed += 1;
                }
                _ => break,
            }
        }
        self.unexpected += 1;
        None
    }

    /// End of the session: whatever never came back is failed.
    pub fn finish(&mut self) {
        self.failed += self.inflight.len() as u64;
        self.inflight.clear();
    }
}

struct Session {
    handle: SchedHandle,
    checker: Checker,
    rng: Rng,
    next_seq: i64,
    /// A record `try_send` handed back as `Full`, with its first
    /// attempt time.
    pending: Option<(Record, i64, i64, Instant)>,
    dead: bool,
    calls: u64,
    span: Option<usize>,
}

impl Session {
    /// Counts a traced call; true for the calls kept as spans.
    fn sampled(&mut self) -> bool {
        self.calls += 1;
        self.calls.is_multiple_of(SPAN_SAMPLE)
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct StreamResult {
    pub attempted: u64,
    pub failed: u64,
    pub unexpected: u64,
    /// Verified records received inside the timed window.
    pub received: u64,
    pub slices: Slices,
    /// First `try_send` attempt to `try_recv`.
    pub latency: Histogram,
    /// First attempt to acceptance (traced only).
    pub ingress_wait: Histogram,
    /// Acceptance to receipt (traced only).
    pub in_network: Histogram,
    pub try_send_calls: u64,
    pub try_send_full: u64,
    pub drive_calls: u64,
    pub drive_useful: u64,
    pub yields: u64,
    pub finish_us: Vec<f64>,
    pub pool: PoolStats,
    pub trace: TraceCounts,
}

/// Sum of the sessions' trace counters.
#[derive(Default, Clone, Copy)]
pub struct TraceCounts {
    pub star_unfoldings: u64,
    pub sync_stores: u64,
    pub sync_fires: u64,
    pub sync_stranded: u64,
    pub split_replicas: u64,
    pub dispatched: u64,
    pub box_records: u64,
    pub filter_records: u64,
}

impl TraceCounts {
    pub fn add(&mut self, t: &snet_runtime::Trace) {
        let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        self.star_unfoldings += get(&t.star_unfoldings);
        self.sync_stores += get(&t.sync_stores);
        self.sync_fires += get(&t.sync_fires);
        self.sync_stranded += get(&t.sync_stranded);
        self.split_replicas += get(&t.split_replicas);
        self.dispatched += get(&t.dispatched);
        self.box_records += get(&t.box_records);
        self.filter_records += get(&t.filter_records);
    }
}

pub fn pool_delta(a: PoolStats, b: PoolStats) -> PoolStats {
    PoolStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        recycled: b.recycled - a.recycled,
        dropped: b.dropped - a.dropped,
    }
}

/// Runs the closed loop: `warmup`, then a timed `window`, then drains
/// and verifies every record still in flight. With `TRACED` every
/// public handle call is timed into `tracer`.
pub fn run<const TRACED: bool>(
    net: &SchedNet,
    seed: u64,
    warmup: Duration,
    window: Duration,
    between: &mut dyn FnMut(),
    tracer: &mut Tracer,
) -> StreamResult {
    let pass = TRACED.then(|| tracer.open("stream_pass", None, 0));
    let mut sessions: Vec<Session> = (0..SESSIONS)
        .map(|i| Session {
            handle: net.start(),
            checker: Checker::new(DEPTH),
            rng: Rng::new(seed.wrapping_add(i as u64)),
            next_seq: 0,
            pending: None,
            dead: false,
            calls: 0,
            span: TRACED.then(|| tracer.open("session", pass, i as u64)),
        })
        .collect();
    let mut r = StreamResult::default();
    let start = Instant::now();
    let window_start = start + warmup;
    let end = window_start + window;
    let mut measuring = false;
    let mut pool0 = PoolStats::default();
    loop {
        let now = Instant::now();
        if measuring {
            r.slices.mark(now, r.received, between);
        } else if now >= window_start {
            measuring = true;
            r = StreamResult::default();
            pool0 = pool::stats();
        }
        if now >= end {
            break;
        }
        for (sid, s) in sessions.iter_mut().enumerate() {
            if !s.dead {
                step::<TRACED>(s, sid as u64, measuring, &mut r, tracer);
            }
        }
    }
    r.pool = pool_delta(pool0, pool::stats());

    for (sid, mut s) in sessions.into_iter().enumerate() {
        // A record still waiting for ingress was never accepted.
        s.pending = None;
        s.handle.close_input();
        while let Some(rec) = s.handle.recv() {
            s.checker.receive(&rec);
        }
        let trace = s.handle.trace_arc();
        let t = Instant::now();
        let finished = s.handle.finish();
        let t_end = Instant::now();
        r.finish_us.push((t_end - t).as_secs_f64() * 1e6);
        if TRACED {
            tracer.call("handle.finish", t, t_end, s.span, sid as u64, true);
            if let Some(span) = s.span {
                tracer.close(span);
            }
        }
        if let Err(e) = finished {
            eprintln!("stream16: session {sid} failed: {e}");
            s.checker.failed += 1;
        }
        s.checker.finish();
        r.trace.add(&trace);
        r.attempted += s.checker.attempted;
        r.failed += s.checker.failed.min(s.checker.attempted);
        r.unexpected += s.checker.unexpected;
    }
    if let Some(p) = pass {
        tracer.close(p);
    }
    r
}

/// One turn of the generator on one session.
fn step<const TRACED: bool>(
    s: &mut Session,
    sid: u64,
    measuring: bool,
    r: &mut StreamResult,
    tracer: &mut Tracer,
) {
    let mut moved = false;
    loop {
        let (rec, seq, x, first) = match s.pending.take() {
            Some(p) => p,
            None => {
                let seq = s.next_seq;
                s.next_seq += 1;
                let x = value(&mut s.rng);
                (record(x, seq), seq, x, Instant::now())
            }
        };
        let t0 = if TRACED { Instant::now() } else { first };
        let sent = s.handle.try_send(rec);
        r.try_send_calls += 1;
        let accepted = if TRACED {
            let t1 = Instant::now();
            let keep = s.sampled();
            tracer.call("handle.try_send", t0, t1, s.span, sid, keep);
            t1
        } else {
            first
        };
        match sent {
            Ok(()) => {
                s.checker.accept(seq, x, first, accepted);
                moved = true;
            }
            Err(TrySendError::Full(rec)) => {
                r.try_send_full += 1;
                s.pending = Some((rec, seq, x, first));
                break;
            }
            Err(TrySendError::Closed(e)) => {
                eprintln!("stream16: session {sid} closed: {e}");
                s.checker.lost();
                s.dead = true;
                return;
            }
        }
    }
    loop {
        let t0 = if TRACED { Some(Instant::now()) } else { None };
        let got = s.handle.try_recv();
        let now = Instant::now();
        if let Some(t0) = t0 {
            let keep = s.sampled();
            tracer.call("handle.try_recv", t0, now, s.span, sid, keep);
        }
        let Some(rec) = got else { break };
        moved = true;
        if let Some((first, accepted)) = s.checker.receive(&rec) {
            if measuring {
                r.received += 1;
                r.latency.record_duration(now - first);
                if TRACED {
                    r.ingress_wait.record_duration(accepted - first);
                    r.in_network.record_duration(now - accepted);
                }
            }
        }
    }
    if !moved {
        let t0 = if TRACED { Some(Instant::now()) } else { None };
        let useful = s.handle.drive();
        if let Some(t0) = t0 {
            let keep = s.sampled();
            tracer.call("handle.drive", t0, Instant::now(), s.span, sid, keep);
        }
        r.drive_calls += 1;
        if useful {
            r.drive_useful += 1;
        } else {
            r.yields += 1;
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(x: i64, seq: i64) -> Record {
        record(x + DEPTH as i64, seq)
    }

    #[test]
    fn a_dropped_record_counts_as_failed() {
        let mut c = Checker::new(DEPTH);
        let t = Instant::now();
        for seq in 0..3 {
            c.accept(seq, 100 + seq, t, t);
        }
        assert!(c.receive(&out(100, 0)).is_some());
        // seq 1 never comes back.
        assert!(c.receive(&out(102, 2)).is_some());
        c.finish();
        assert_eq!((c.attempted, c.failed, c.unexpected), (3, 1, 0));
    }

    #[test]
    fn a_wrong_value_a_missing_tail_and_a_stray_output_are_caught() {
        let mut c = Checker::new(DEPTH);
        let t = Instant::now();
        for seq in 0..3 {
            c.accept(seq, 7, t, t);
        }
        assert!(c.receive(&record(7 + 15, 0)).is_none(), "one stage short");
        assert!(
            c.receive(&out(7, 0)).is_none(),
            "duplicate of a consumed record"
        );
        c.finish();
        assert_eq!((c.attempted, c.failed, c.unexpected), (3, 3, 1));
    }

    #[test]
    fn the_engine_returns_every_record_in_order() {
        let net = SchedNet::with_config(tick_net(DEPTH), engine_config());
        let mut tracer = Tracer::new();
        let r = run::<true>(
            &net,
            3,
            Duration::from_millis(20),
            Duration::from_millis(100),
            &mut || {},
            &mut tracer,
        );
        assert!(r.received > 0 && r.attempted >= r.received);
        assert_eq!((r.failed, r.unexpected), (0, 0));
        assert_eq!(r.trace.box_records, r.attempted * DEPTH as u64);
        assert!(tracer.aggregate("handle.try_send").calls >= r.attempted);
    }
}
