//! The scheduled engine: component tasks multiplexed over a fixed,
//! **persistent** work-stealing worker pool.
//!
//! The threaded engine ([`crate::engine::Net`]) renders the paper's
//! execution model literally: one OS thread per component instance.
//! That is faithful but does not scale — a 16-deep pipeline with
//! parallel branches and star unfoldings spawns hundreds of threads for
//! a 256-record batch, and most of them sit blocked on channel edges.
//! This module multiplexes the same component graph over a fixed pool
//! of workers instead:
//!
//! * every stateful or computing component instance — a chain of
//!   boxes and filters (a lone box or filter is a one-stage chain), a
//!   star tap, an index-split dispatcher, a synchrocell, and the run's
//!   sink — is a lightweight **task** with a mailbox;
//! * the stateless routing between them runs in the *sender*: a
//!   parallel dispatcher and an identity filter `[]` are ports, not
//!   tasks, so a record crosses them inside the activation that emits
//!   it, with no mailbox hop, wake or activation of their own. They
//!   always feed mailboxes: one that would feed another port run in
//!   the sender (`(a | []) .. (b | [])`) gets a zero-stage chain task
//!   in front of that port, so every sender's copy stays as small as
//!   the component it runs;
//! * a task becomes **runnable** when a record lands in its mailbox (or
//!   its last upstream sender closes), and is then queued on a
//!   work-stealing deque ([`crossbeam_deque`]);
//! * a worker runs a task by draining its mailbox up to a batch budget,
//!   applying the *same* small-step semantics
//!   ([`snet_core::semantics`]) as the threaded engine and the
//!   reference interpreter, then yields the task back to the scheduler;
//! * a task with any downstream mailbox over the high-water mark stops
//!   consuming input and re-queues itself — cooperative backpressure in
//!   place of bounded-channel blocking.
//!
//! The worker pool belongs to the [`SchedNet`], not to any single run:
//! it is spawned lazily on the first run and joined when the `SchedNet`
//! drops. Every run — a one-shot [`SchedNet::run_batch`] or a streaming
//! [`SchedNet::start`] — instantiates a fresh task graph whose tasks
//! carry their own per-run state (trace counters, error slot,
//! completion latch), so any number of runs can share the pool, even
//! concurrently, and repeated batches stop paying per-call thread
//! spawn/join.
//!
//! End-of-stream is sender refcounting: when the last upstream port of
//! a task closes, the task finalizes (counting stranded synchrocell
//! records) and closes its own outputs, so termination cascades exactly
//! like channel disconnection does in the threaded engine. The sink is
//! always the last task to finalize, so its finalization doubles as the
//! run's completion signal: it wakes the waiting driver (no completion
//! polling) and, in streaming mode, disconnects the output channel.
//! Because the per-record semantics are shared, the interpreter oracle
//! applies unchanged: for confluent networks the scheduled engine
//! produces the same output multiset.
//!
//! Streaming ingress is *bounded*: [`SchedHandle::send`] refuses to
//! grow the entry mailbox past [`EngineConfig::channel_capacity`] and
//! blocks (or, for [`SchedHandle::try_send`], reports `Full`) until the
//! entry task drains, giving the same real backpressure as the threaded
//! engine's bounded entry channel.

use crate::engine::{EngineConfig, DEAD_CAPACITY_FACTOR};
use crate::trace::Trace;
use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender};
use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;
use snet_core::fault::DeadLetter;
use snet_core::panic_cause;
use snet_core::pool;
use snet_core::{
    run_chain, ChainStage, ChainTally, Diagnostic, NetSpec, RType, Record, Replica, Router,
    SnetError, Wiring,
};
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
// Under `--cfg snet_check` the atomics and condvars of the mailbox
// hand-off path come from the snet-check model scheduler, which makes
// `RUSTFLAGS="--cfg snet_check" cargo check -p snet-runtime` prove the
// whole scheduler compiles against the façade (the protocol models in
// crates/check/tests mirror this file's notify/park/latch logic; see
// the "Concurrency correctness" section in lib.rs). The snet-check
// Condvar's timed waits have stuck-state semantics, matching how this
// file uses timeouts: pure lost-wakeup backstops, never deadlines.
#[cfg(snet_check)]
use snet_check::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
#[cfg(snet_check)]
use snet_check::sync::Condvar;
#[cfg(not(snet_check))]
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
#[cfg(not(snet_check))]
use std::sync::Condvar;
// The dead-letter sequence counter is handed to snet-core's fault API
// and is not part of the hand-off protocol, so it stays a std atomic
// in both builds.
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records processed per task activation before yielding back to the
/// scheduler (keeps long streams from starving sibling components).
/// When [`EngineConfig::batch`] exceeds this, the budget stretches so a
/// full hand-off batch is always processed in one activation.
const ACTIVATION_BUDGET: usize = 64;

/// Cap on the exponential backpressure backoff: a zero-progress task is
/// re-enqueued after `1µs << min(n, BACKOFF_MAX_SHIFT)`, i.e. at most
/// ~1ms — the same latency bound as a worker's park quantum.
const BACKOFF_MAX_SHIFT: u32 = 10;

/// Safety net on the driver's completion wait. Completion is
/// wake-driven (the sink's finalization signals the run's latch); the
/// timeout only bounds how long a lost wakeup could strand the driver.
const DONE_SAFETY_TIMEOUT: Duration = Duration::from_millis(500);

/// A compiled network executed on the work-stealing scheduler.
///
/// The worker pool is **persistent**: it spawns lazily on the first
/// run and lives until the `SchedNet` drops, so consecutive
/// [`SchedNet::run_batch`] calls (and any number of streaming
/// [`SchedNet::start`] runs) reuse the same OS threads. Every run
/// instantiates a fresh task graph; synchrocell and replication state
/// never leaks between runs.
///
/// Dropping the `SchedNet` stops the pool and joins its threads.
/// Outstanding [`SchedHandle`]s stay safe to use after that — sends
/// fail and `recv` drains whatever was already produced — but no new
/// records will be processed, so finish or drop handles first.
pub struct SchedNet {
    spec: NetSpec,
    /// What actually runs: `spec` with maximal SISO chains fused into
    /// single tasks (or a clone of `spec` when [`EngineConfig::fuse`]
    /// is off). Computed once at construction; every run instantiates
    /// its task graph from the plan.
    plan: NetSpec,
    config: EngineConfig,
    /// Whether any component can dead-letter under this configuration,
    /// precomputed so `start()` can skip the dead-letter buffer (and
    /// its allocation cost on the streaming hot path) when diversion
    /// is provably impossible.
    diverts: bool,
    /// Error-severity findings of the construction-time pre-flight
    /// analysis (empty when clean). A non-empty list fails every run
    /// with [`SnetError::Analysis`].
    preflight: Vec<Diagnostic>,
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    spawned: AtomicUsize,
}

impl SchedNet {
    /// Wraps a topology with default configuration.
    pub fn new(spec: NetSpec) -> SchedNet {
        SchedNet::with_config(spec, EngineConfig::default())
    }

    /// Wraps a topology with explicit configuration (worker count,
    /// mismatch policy, mailbox high-water mark, ingress capacity).
    pub fn with_config(spec: NetSpec, config: EngineConfig) -> SchedNet {
        let (plan, preflight) = crate::engine::plan(&spec, None, &config);
        SchedNet::from_plan(spec, plan, preflight, config)
    }

    fn from_plan(
        spec: NetSpec,
        plan: NetSpec,
        preflight: Vec<Diagnostic>,
        config: EngineConfig,
    ) -> SchedNet {
        let diverts = spec.diverts_under(config.policy);
        SchedNet {
            spec,
            plan,
            config,
            diverts,
            preflight,
            shared: Arc::new(Shared {
                injector: Injector::new(),
                deferred: Mutex::new(BinaryHeap::new()),
                deferred_count: AtomicUsize::new(0),
                sleep: Mutex::new(SleepState {}),
                cv: Condvar::new(),
                sleepers: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                config,
            }),
            workers: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        }
    }

    /// Wraps a topology with a declared (closed) entry type: the full
    /// shape-aware analysis rejects the net up front
    /// ([`SnetError::Analysis`]) on any error-severity finding, and its
    /// exact-match proofs annotate the execution plan so fused boxes
    /// skip their per-record type checks (see
    /// [`crate::Net::with_entry_type`]).
    pub fn with_entry_type(
        spec: NetSpec,
        entry: &RType,
        config: EngineConfig,
    ) -> Result<SchedNet, SnetError> {
        let (plan, errors) = crate::engine::plan(&spec, Some(entry), &config);
        if !errors.is_empty() {
            return Err(SnetError::Analysis(errors));
        }
        Ok(SchedNet::from_plan(spec, plan, Vec::new(), config))
    }

    /// The underlying topology.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// The pre-flight diagnostics this net was constructed with (empty
    /// when the analysis passed).
    pub fn preflight_diagnostics(&self) -> &[Diagnostic] {
        &self.preflight
    }

    /// Worker threads spawned by this net over its whole lifetime.
    /// Stays at [`EngineConfig::workers`] no matter how many runs the
    /// net executes — the observable guarantee that runs reuse the
    /// persistent pool instead of spawning per call.
    pub fn workers_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Spawns the worker pool if it is not already running.
    fn ensure_workers(&self) {
        let mut workers = self.workers.lock();
        if !workers.is_empty() {
            return;
        }
        let n = self.config.workers.max(1);
        let locals: Vec<Worker<Arc<Task>>> = (0..n).map(|_| Worker::new_fifo()).collect();
        let stealers: Arc<Vec<Stealer<Arc<Task>>>> =
            Arc::new(locals.iter().map(|w| w.stealer()).collect());
        for (i, local) in locals.into_iter().enumerate() {
            let sh = Arc::clone(&self.shared);
            let stealers = Arc::clone(&stealers);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("snet-sched-{i}"))
                    .spawn(move || worker_loop(i, local, &stealers, &sh))
                    .expect("spawn sched worker"),
            );
        }
        self.spawned.fetch_add(n, Ordering::Relaxed);
    }

    /// Instantiates the network on the shared pool and returns a handle
    /// for streaming records in and out.
    ///
    /// Ingress is bounded by [`EngineConfig::channel_capacity`]
    /// (blocking [`SchedHandle::send`], non-blocking
    /// [`SchedHandle::try_send`]); outputs stream out through a bounded
    /// channel as the sink produces them. Closing the input
    /// ([`SchedHandle::close_input`] / [`SchedHandle::finish`] / drop)
    /// triggers the usual sender-refcount end-of-stream cascade.
    pub fn start(&self) -> SchedHandle {
        self.ensure_workers();
        let cap = self.config.channel_capacity.max(1);
        // A network that provably cannot divert gets a 1-slot stub
        // channel instead of the real buffer, keeping the
        // fault-free streaming path free of the allocation.
        let dead_cap = if self.diverts {
            cap * DEAD_CAPACITY_FACTOR
        } else {
            1
        };
        let (dead_tx, dead_rx) = bounded(dead_cap);
        let run = Run::new(
            self.config.deadline.map(|d| Instant::now() + d),
            DeadDest::Stream(dead_tx),
        );
        let (out_tx, out_rx) = bounded(cap);
        let sink = Task::new(
            State::Sink {
                buf: pool::take_vec(),
                dest: SinkDest::Stream(out_tx),
            },
            &run,
        );
        if !self.preflight.is_empty() {
            // Pre-flight rejected the net: the run starts already
            // failed and `finish()` reports the analysis error.
            run.fail(SnetError::Analysis(self.preflight.clone()));
        }
        let entry = build_entry(&self.plan, &sink, &run);
        SchedHandle {
            input: Mutex::new(Some(entry)),
            output: out_rx,
            dead: dead_rx,
            run,
            sh: Arc::clone(&self.shared),
        }
    }

    /// Feeds a batch of records through the network and collects the
    /// complete output stream (arrival order).
    pub fn run_batch(&self, records: Vec<Record>) -> Result<Vec<Record>, SnetError> {
        let (outs, _trace) = self.run_batch_traced(records)?;
        Ok(outs)
    }

    /// Like [`SchedNet::run_batch`] but also returns the run's
    /// [`Trace`].
    ///
    /// The batch rides the same persistent pool as streaming runs: the
    /// whole input lands in the entry mailbox under one lock with one
    /// wake (the input is already materialized, so bounding ingress
    /// would buy nothing), the input closes, and the driver sleeps
    /// until the sink's finalization signals completion.
    pub fn run_batch_traced(
        &self,
        records: Vec<Record>,
    ) -> Result<(Vec<Record>, Arc<Trace>), SnetError> {
        let report = self.run_batch_report(records)?;
        Ok((report.outputs, report.trace))
    }

    /// Feeds a batch and returns the full [`crate::RunReport`]:
    /// outputs, diverted dead letters, and the run's trace. This is
    /// the driver to use with
    /// [`snet_core::fault::FailurePolicy::DeadLetter`], where dropped
    /// records are data, not errors.
    pub fn run_batch_report(&self, records: Vec<Record>) -> Result<crate::RunReport, SnetError> {
        if !self.preflight.is_empty() {
            return Err(SnetError::Analysis(self.preflight.clone()));
        }
        self.ensure_workers();
        let dead = Arc::new(Mutex::new(Vec::new()));
        let run = Run::new(
            self.config.deadline.map(|d| Instant::now() + d),
            DeadDest::Collect(Arc::clone(&dead)),
        );
        let outputs = Arc::new(Mutex::new(Vec::new()));
        let sink = Task::new(
            State::Sink {
                buf: pool::take_vec(),
                dest: SinkDest::Collect(Arc::clone(&outputs)),
            },
            &run,
        );
        let entry = build_entry(&self.plan, &sink, &run);
        let cx = Cx::new(&run, &self.shared, None);
        entry.send_now(records, cx);
        entry.close(cx);
        run.wait_done();
        if let Some(e) = run.error.lock().take() {
            return Err(e);
        }
        let outs = std::mem::take(&mut *outputs.lock());
        let dead_letters = std::mem::take(&mut *dead.lock());
        Ok(crate::RunReport {
            outputs: outs,
            dead_letters,
            trace: Arc::clone(&run.trace),
        })
    }
}

impl Drop for SchedNet {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Lock-then-notify: a worker that saw `shutdown == false` is
        // either still holding the sleep lock (we wait for it to start
        // waiting) or already parked — both observe the notify.
        drop(self.shared.sleep.lock());
        self.shared.cv.notify_all();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

struct SleepState {}

/// Pool-lifetime scheduler state, shared by all runs of one `SchedNet`.
struct Shared {
    injector: Injector<Arc<Task>>,
    /// Backpressure-deferred tasks (min-heap on deadline), shared so
    /// that *any* worker picks an expired deferral up — a deferring
    /// worker that then sinks into a long activation must not pin the
    /// deferred task. Survives across runs: a deferral parked at the
    /// end of one run is resumed by whichever worker probes next.
    /// Guarded by `deferred_count` so the lock is only touched under
    /// backpressure (cold path).
    deferred: Mutex<BinaryHeap<Deferred>>,
    /// Entries in `deferred`; lets the per-activation dispatch path skip
    /// the heap mutex entirely in the common no-backpressure case.
    deferred_count: AtomicUsize,
    sleep: Mutex<SleepState>,
    cv: Condvar,
    /// Workers currently parked on the condvar (lets producers skip the
    /// notify syscall on the hot path when everyone is busy).
    sleepers: AtomicUsize,
    /// Pool teardown flag, set once when the owning `SchedNet` drops.
    shutdown: AtomicBool,
    config: EngineConfig,
}

impl Shared {
    fn high_water(&self) -> usize {
        self.config.channel_capacity.max(1).saturating_mul(16)
    }
}

/// Per-run state: every task of one run's graph holds an `Arc` to its
/// run, which is how a pool worker — which knows nothing about runs —
/// finds the right trace, error slot, and completion latch for whatever
/// task it picked up. Independent runs can therefore share the pool.
struct Run {
    trace: Arc<Trace>,
    error: Mutex<Option<SnetError>>,
    aborted: AtomicBool,
    /// Absolute deadline for this run, fixed when the run is created
    /// from [`EngineConfig::deadline`]. Checked at the existing
    /// preemption points (activation start, the amortized
    /// backpressure-stride check, the driver's waits); `None` costs a
    /// single branch per check.
    deadline_at: Option<Instant>,
    /// Dead-letter sequence-number allocator for this run.
    seq: AtomicU64,
    /// Where records diverted under `FailurePolicy::DeadLetter` go.
    dead: DeadDest,
    /// Completion latch, set by the sink's finalization (the sink is
    /// always the last task of a run to finalize — its senders only
    /// reach zero after every upstream task has closed its ports).
    done: Mutex<bool>,
    done_cv: Condvar,
}

/// Where a run's dead letters are delivered; the fault-path analogue of
/// [`SinkDest`].
enum DeadDest {
    /// Batch mode: append to the driver's dead-letter vector.
    Collect(Arc<Mutex<Vec<DeadLetter>>>),
    /// Streaming mode: push into the handle's bounded dead-letter
    /// channel. A worker never blocks on it — overflow fails the run.
    Stream(Sender<DeadLetter>),
}

impl Run {
    fn new(deadline_at: Option<Instant>, dead: DeadDest) -> Arc<Run> {
        Arc::new(Run {
            trace: Arc::new(Trace::new()),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
            deadline_at,
            seq: AtomicU64::new(0),
            dead,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        })
    }

    fn fail(&self, e: SnetError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.aborted.store(true, Ordering::Release);
    }

    /// Preemption check: true once the run is aborted or past its
    /// deadline (recording `DeadlineExceeded` on first detection).
    /// Without a deadline this is one atomic load and one branch.
    fn should_stop(&self) -> bool {
        if self.aborted.load(Ordering::Acquire) {
            return true;
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                self.fail(SnetError::DeadlineExceeded);
                return true;
            }
        }
        false
    }

    /// Delivers a diverted record to the run's dead-letter destination.
    /// Never blocks; a full streaming channel (consumer not draining)
    /// is a fatal error so the bound is real.
    fn divert(&self, dl: Box<DeadLetter>) -> Result<(), SnetError> {
        use crossbeam_channel::TrySendError as ChanTrySend;
        Trace::add(&self.trace.dead_letters, 1);
        match &self.dead {
            DeadDest::Collect(v) => {
                v.lock().push(*dl);
                Ok(())
            }
            DeadDest::Stream(tx) => match tx.try_send(*dl) {
                Ok(()) => Ok(()),
                Err(ChanTrySend::Full(dl)) => Err(SnetError::Engine(format!(
                    "dead-letter channel overflow; last report: {}",
                    dl.report
                ))),
                // Receiver dropped: the consumer stopped listening;
                // letters are discarded but the run continues.
                Err(ChanTrySend::Disconnected(_)) => Ok(()),
            },
        }
    }

    fn signal_done(&self) {
        *self.done.lock() = true;
        self.done_cv.notify_all();
    }

    /// Blocks until the run's sink has finalized. Purely wake-driven;
    /// the timeout is a lost-wakeup safety net, not a poll interval.
    /// Each wakeup re-checks the deadline so an expired run is failed
    /// (and its tasks abort at their next activation) even while the
    /// driver sleeps here.
    fn wait_done(&self) {
        let mut done = self.done.lock();
        while !*done {
            let (guard, _) = self
                .done_cv
                .wait_timeout(done, DONE_SAFETY_TIMEOUT)
                .unwrap_or_else(|e| e.into_inner());
            done = guard;
            if !*done {
                let _ = self.should_stop();
            }
        }
    }
}

/// One component instance: mailbox + semantic state.
struct Task {
    /// The run this task belongs to (trace, error slot, completion).
    run: Arc<Run>,
    mailbox: Mutex<VecDeque<Record>>,
    /// Signalled (paired with the `mailbox` mutex) whenever the mailbox
    /// shrinks while `ingress_waiters` is non-zero; only the streaming
    /// entry path ever waits on it.
    ingress_cv: Condvar,
    ingress_waiters: AtomicUsize,
    /// Open upstream ports; 0 = end-of-stream once the mailbox drains.
    open_senders: AtomicUsize,
    /// True while queued or deferred (prevents double-queueing; cleared
    /// when a worker picks the task up).
    scheduled: AtomicBool,
    /// Consecutive zero-progress (backpressured) activations; drives
    /// the exponential re-enqueue backoff. Reset on any progress.
    backoff: AtomicU32,
    state: Mutex<State>,
}

enum State {
    /// A box, a filter, or a fused SISO chain of them (a lone box or
    /// filter is a one-stage chain): each activation pushes its claimed
    /// batch through every stage with zero mailbox hops. The task owns
    /// no scratch: the activation's pooled input buffer is the chain
    /// input, and the last stage writes straight into `out`'s coalescing
    /// buffer when `out` is a mailbox. A zero-stage chain is a mailbox
    /// in front of a port that runs in the sender (see
    /// [`into_mailbox`]).
    Chain { stages: Vec<ChainStage>, out: Port },
    /// A star tap, index-split dispatcher or synchrocell: the router
    /// decides, its targets and `out` are this task's output ports.
    Route { router: Router<Port>, out: Port },
    /// Terminal output collector; records coalesce in `buf` and move to
    /// `dest` once per batch/activation.
    Sink { buf: Vec<Record>, dest: SinkDest },
    /// Finalized: outputs closed, no further effects.
    Done,
}

/// Where a run's sink delivers its records.
enum SinkDest {
    /// Batch mode: append to the driver's output vector.
    Collect(Arc<Mutex<Vec<Record>>>),
    /// Streaming mode: push into the handle's bounded output channel.
    /// Dropping the sender (at sink finalization) is the consumer's
    /// end-of-stream.
    Stream(Sender<Record>),
}

impl SinkDest {
    /// Best-effort delivery of the sink's coalescing buffer. A worker
    /// must never block (or sleep) inside a sink activation — it holds
    /// the sink's state lock, so every other worker would churn on the
    /// re-queued-but-locked task while the consumer starves. Streamed
    /// records that do not fit in the output channel therefore stay at
    /// the front of `buf` and the sink *defers* through the scheduler's
    /// zero-progress backoff machinery until the consumer drains.
    fn flush(&self, buf: &mut Vec<Record>) {
        if buf.is_empty() {
            return;
        }
        match self {
            SinkDest::Collect(outs) => outs.lock().append(buf),
            SinkDest::Stream(tx) => {
                // One lock + at most one consumer wake for the whole
                // window; leftovers stay in `buf` for the deferred
                // retry. A disconnected consumer drops the rest.
                if tx.try_send_front(buf).is_err() {
                    buf.clear();
                }
            }
        }
    }

    /// Can the destination accept nothing further right now? Drives the
    /// sink's cooperative-backpressure yield.
    fn is_full(&self) -> bool {
        match self {
            SinkDest::Collect(_) => false,
            SinkDest::Stream(tx) => tx.is_full(),
        }
    }
}

impl Task {
    fn new(state: State, run: &Arc<Run>) -> Arc<Task> {
        Arc::new(Task {
            run: Arc::clone(run),
            mailbox: Mutex::new(pool::take_deque()),
            ingress_cv: Condvar::new(),
            ingress_waiters: AtomicUsize::new(0),
            open_senders: AtomicUsize::new(0),
            scheduled: AtomicBool::new(false),
            backoff: AtomicU32::new(0),
            state: Mutex::new(state),
        })
    }

    /// Discards buffered input (abort path), waking any ingress waiter
    /// blocked on the freed space.
    fn clear_mailbox(&self) {
        self.mailbox.lock().clear();
        if self.ingress_waiters.load(Ordering::Acquire) > 0 {
            self.ingress_cv.notify_all();
        }
    }
}

/// What a port needs from the activation sending through it: the run
/// (trace, fault sequence, dead letters), the pool, the worker deque
/// that woken tasks go to, and the hand-off batch size.
#[derive(Clone, Copy)]
struct Cx<'a> {
    run: &'a Arc<Run>,
    sh: &'a Shared,
    local: Option<&'a Worker<Arc<Task>>>,
    batch: usize,
}

impl<'a> Cx<'a> {
    fn new(run: &'a Arc<Run>, sh: &'a Shared, local: Option<&'a Worker<Arc<Task>>>) -> Cx<'a> {
        Cx {
            run,
            sh,
            local,
            batch: sh.config.batch.max(1),
        }
    }
}

/// An open upstream handle onto a task's mailbox. Creating one
/// increments the task's sender count; [`Mailbox::close`] decrements
/// it. Ports are closed explicitly (not on drop) so the close can
/// schedule the receiving task.
///
/// Sends coalesce in `buf` (owned by the producing task's activation —
/// the state lock serializes all access): records are pushed downstream
/// only when the buffer reaches [`EngineConfig::batch`] records or the
/// activation ends, so the consumer-side mailbox lock and wake are paid
/// once per batch, not once per record. The invariant between
/// activations is an *empty* buffer — every activation flushes all of
/// its output edges before yielding, so no record can be stranded in a
/// buffer while its producer waits.
struct Mailbox {
    task: Arc<Task>,
    buf: Vec<Record>,
}

impl Mailbox {
    fn new(task: &Arc<Task>) -> Mailbox {
        task.open_senders.fetch_add(1, Ordering::AcqRel);
        Mailbox {
            task: Arc::clone(task),
            buf: pool::take_vec(),
        }
    }

    /// Buffered send: coalesces until `batch` records are pending, then
    /// pushes the whole run with one lock acquisition and one wake.
    fn send(&mut self, rec: Record, cx: Cx<'_>) {
        self.buf.push(rec);
        if self.buf.len() >= cx.batch {
            self.flush(cx);
        }
    }

    /// Pushes any buffered records downstream: one mailbox lock, one
    /// consumer wake, however many records.
    fn flush(&mut self, cx: Cx<'_>) {
        if self.buf.is_empty() {
            return;
        }
        {
            let mut mb = self.task.mailbox.lock();
            mb.extend(self.buf.drain(..));
        }
        notify(&self.task, cx.sh, cx.local);
    }

    /// Unbuffered batch send (batch-driver feed path): extends the
    /// mailbox under one lock and wakes the consumer once.
    fn send_now(&self, recs: impl IntoIterator<Item = Record>, cx: Cx<'_>) {
        let any = {
            let mut mb = self.task.mailbox.lock();
            let before = mb.len();
            mb.extend(recs);
            mb.len() > before
        };
        if any {
            notify(&self.task, cx.sh, cx.local);
        }
    }

    fn backlog(&self) -> usize {
        self.task.mailbox.lock().len()
    }

    fn close(mut self, cx: Cx<'_>) {
        // Sends happen-before close: drain the coalescing buffer first.
        self.flush(cx);
        pool::give_vec(std::mem::take(&mut self.buf));
        if self.task.open_senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: the task must run once more to observe
            // end-of-stream and finalize.
            notify(&self.task, cx.sh, cx.local);
        }
    }
}

/// A sender's handle on a component's input. A task's input is its
/// [`Mailbox`]. A parallel dispatcher and an identity filter `[]` keep
/// no state between records, so they are no tasks: the sending task
/// runs them in its own activation, through its own copy of the port
/// ([`Port::another`]), and only the mailboxes behind them see a
/// hand-off. Their counts fold into the run's trace at every flush.
///
/// An inline component's output is always a mailbox (see
/// [`into_mailbox`]), so a port is no larger than the parallel it
/// runs, however many of them a pipeline puts in a row: copying a port
/// per sender never compounds.
enum Port {
    Mailbox(Mailbox),
    /// An identity filter: forwards every record to `out`, counting it
    /// as a filter record.
    Identity {
        out: Mailbox,
        records: u64,
    },
    /// A parallel dispatcher: routes into the router's branches, or
    /// passes an unmatched record on to `out`.
    Dispatch(Box<Dispatch>),
}

struct Dispatch {
    router: Router<Port>,
    out: Mailbox,
}

impl Port {
    fn task(task: &Arc<Task>) -> Port {
        Port::Mailbox(Mailbox::new(task))
    }

    /// A port for another sender onto the same input: another mailbox
    /// handle, or a copy of an inline component over copies of its
    /// downstream ports.
    fn another(&self) -> Port {
        match self {
            Port::Mailbox(m) => Port::task(&m.task),
            Port::Identity { out, .. } => Port::Identity {
                out: Mailbox::new(&out.task),
                records: 0,
            },
            Port::Dispatch(d) => Port::Dispatch(Box::new(Dispatch {
                router: d.router.fork(Port::another),
                out: Mailbox::new(&d.out.task),
            })),
        }
    }

    /// Sends one record. Inline components act on it here, so this
    /// fails where a parallel dispatcher rejects the record.
    fn send(&mut self, rec: Record, cx: Cx<'_>) -> Result<(), SnetError> {
        match self {
            Port::Mailbox(m) => m.send(rec, cx),
            Port::Identity { out, records } => {
                *records += 1;
                out.send(rec, cx);
            }
            Port::Dispatch(d) => {
                let Dispatch { router, out } = &mut **d;
                let (policy, mismatch) = (cx.sh.config.policy, cx.sh.config.mismatch);
                return router.route(rec, policy, mismatch, &cx.run.seq, &mut Fanout { out, cx });
            }
        }
        Ok(())
    }

    /// Pushes every buffered record downstream and folds the counts of
    /// inline components into the trace.
    fn flush(&mut self, cx: Cx<'_>) {
        match self {
            Port::Mailbox(m) => m.flush(cx),
            Port::Identity { out, records } => {
                cx.run.trace.count_chain(&ChainTally {
                    filter_records: std::mem::take(records),
                    ..ChainTally::default()
                });
                out.flush(cx);
            }
            Port::Dispatch(d) => {
                for t in d.router.targets_mut() {
                    t.flush(cx);
                }
                cx.run.trace.count_route(&d.router.take_tally());
                d.out.flush(cx);
            }
        }
    }

    /// Records waiting in the mailbox behind this port; an inline
    /// component reports its fullest downstream mailbox.
    fn backlog(&self) -> usize {
        match self {
            Port::Mailbox(m) => m.backlog(),
            Port::Identity { out, .. } => out.backlog(),
            Port::Dispatch(d) => d
                .router
                .targets()
                .iter()
                .map(Port::backlog)
                .fold(d.out.backlog(), usize::max),
        }
    }

    fn close(mut self, cx: Cx<'_>) {
        self.flush(cx);
        match self {
            Port::Mailbox(m) | Port::Identity { out: m, .. } => m.close(cx),
            Port::Dispatch(d) => {
                // The flush above folded the counts; a parallel strands
                // nothing.
                let Dispatch { router, out } = *d;
                router.finish().0.into_iter().for_each(|t| t.close(cx));
                out.close(cx);
            }
        }
    }
}

/// Queues a task if it is not already queued.
fn notify(task: &Arc<Task>, sh: &Shared, local: Option<&Worker<Arc<Task>>>) {
    if task
        .scheduled
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        match local {
            Some(w) => w.push(Arc::clone(task)),
            None => sh.injector.push(Arc::clone(task)),
        }
        // Skipping the syscall when every worker is busy is a large win
        // on the hot path. The push above is SeqCst-ordered against a
        // parking worker's sleeper registration (see `park`), so a
        // registered sleeper is always observed here.
        //
        // Lock-then-notify (as in `Drop for SchedNet`): a parking
        // worker holds the sleep lock from sleeper registration until
        // its condvar wait releases it, so acquiring it here squeezes
        // out the window where the push lands after the worker's
        // injector re-probe but the notify fires before the worker is
        // actually waiting — a lost wake that previously cost the 1ms
        // timed-wait backstop in latency. Found by the snet-check
        // mailbox model (`crates/check/tests/mailbox.rs`, which pins
        // `timeouts_fired() == 0`); only taken when a worker is
        // actually asleep, so the busy hot path is unchanged.
        if sh.sleepers.load(Ordering::SeqCst) > 0 {
            drop(sh.sleep.lock());
            sh.cv.notify_one();
        }
    }
}

/// A backpressure-deferred task: re-run no earlier than `due`.
/// Ordered as a min-heap on the deadline.
struct Deferred {
    due: Instant,
    task: Arc<Task>,
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        other.due.cmp(&self.due)
    }
}

fn worker_loop(
    index: usize,
    local: Worker<Arc<Task>>,
    stealers: &[Stealer<Arc<Task>>],
    sh: &Shared,
) {
    // The task we last failed to lock (its activation was still running
    // on another worker). Seeing it twice in a row means there is no
    // other work — park briefly instead of spinning on the mutex.
    let mut contended: Option<*const Task> = None;
    // The sibling we last stole from successfully; probed first on the
    // next steal (producers are bursty, so the victim that had work a
    // moment ago likely still does).
    let mut last_victim: Option<usize> = None;
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        let task = find_task(index, &local, stealers, &mut last_victim, sh);
        match task {
            Some(task) => {
                // A task can be re-queued while its previous activation
                // is still draining on another worker; blocking on the
                // state mutex would idle this worker behind up to a full
                // activation budget of box calls. Hand the entry back to
                // the global queue and look for other work instead.
                let guard = task.state.try_lock();
                match guard {
                    Some(state) => {
                        contended = None;
                        if let Some(due) = execute(&task, state, sh, Some(&local)) {
                            // Zero-progress backpressure yield: the task
                            // holds its `scheduled` flag and re-runs at
                            // the deadline. Count first (release): a
                            // probe that sees the count also sees the
                            // entry once it takes the heap lock.
                            sh.deferred_count.fetch_add(1, Ordering::Release);
                            sh.deferred.lock().push(Deferred {
                                due,
                                task: Arc::clone(&task),
                            });
                        }
                    }
                    None => {
                        let ptr = Arc::as_ptr(&task);
                        sh.injector.push(Arc::clone(&task));
                        if contended.replace(ptr) == Some(ptr) && park(sh, Duration::from_millis(1))
                        {
                            return;
                        }
                    }
                }
            }
            None => {
                contended = None;
                // Park until notified, but no longer than the earliest
                // deferred deadline (nor the 1ms re-probe quantum).
                let quantum = Duration::from_millis(1);
                let timeout = if sh.deferred_count.load(Ordering::Acquire) > 0 {
                    sh.deferred
                        .lock()
                        .peek()
                        .map(|d| d.due.saturating_duration_since(Instant::now()).min(quantum))
                        .unwrap_or(quantum)
                } else {
                    quantum
                };
                if park(sh, timeout) {
                    return;
                }
            }
        }
    }
}

/// Parks the worker until new work may exist; returns true on shutdown.
fn park(sh: &Shared, timeout: Duration) -> bool {
    let sleep = sh.sleep.lock();
    if sh.shutdown.load(Ordering::Acquire) {
        return true;
    }
    sh.sleepers.fetch_add(1, Ordering::SeqCst);
    // Closing the probe/park race: a producer that pushed after our
    // (empty) queue probe may have read `sleepers == 0` before the
    // increment above and skipped its notify. Re-probing the injector
    // *after* registering as a sleeper bounds that loss to the
    // injector-push window; the timed wait below backstops the
    // remaining (local-deque) cases. Deferrals are deliberately NOT
    // re-probed: they are deadline-driven, the caller's `timeout`
    // already expires at the earliest deadline, and bailing out on a
    // merely-pending (not yet due) deferral would turn every idle
    // worker into a busy-spinner for the whole backpressure window.
    if !sh.injector.is_empty() {
        sh.sleepers.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    let _ = sh
        .cv
        .wait_timeout(sleep, timeout)
        .unwrap_or_else(|e| e.into_inner());
    sh.sleepers.fetch_sub(1, Ordering::SeqCst);
    false
}

/// Runs one activation with panic containment. User box panics are
/// already converted to errors inside `run_chain`; a panic escaping the
/// activation itself (a semantics/scheduler bug) must still not kill a
/// persistent-pool thread — the pool never respawns workers, so an
/// unwinding activation would silently shrink the pool and strand the
/// run's completion latch forever. Instead the task's run is failed and
/// the task finalized, so the end-of-stream cascade (and the driver)
/// still complete, with the panic reported as the run's error.
fn execute(
    task: &Arc<Task>,
    state: parking_lot::MutexGuard<'_, State>,
    sh: &Shared,
    local: Option<&Worker<Arc<Task>>>,
) -> Option<Instant> {
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_task(task, state, sh, local)
    }));
    match unwound {
        Ok(defer) => defer,
        Err(payload) => {
            let cause = panic_cause(payload.as_ref());
            task.run.fail(SnetError::Engine(format!(
                "scheduler activation panicked: {cause}"
            )));
            task.clear_mailbox();
            // The state mutex recovers from the poisoned unwind (shim
            // semantics); finalizing closes the task's ports so the
            // cascade still reaches the sink.
            if let Some(mut st) = task.state.try_lock() {
                finalize(task, &mut st, sh, local);
            }
            None
        }
    }
}

/// Pops the earliest backpressure deferral if its deadline has passed.
/// The atomic count keeps the no-backpressure path off the heap mutex;
/// counting is Release/AcqRel-paired with the push sites so a probe
/// that sees the count also sees the entry under the lock.
fn pop_due_deferral(sh: &Shared) -> Option<Arc<Task>> {
    if sh.deferred_count.load(Ordering::Acquire) == 0 {
        return None;
    }
    let mut deferred = sh.deferred.lock();
    if let Some(d) = deferred.peek() {
        if d.due <= Instant::now() {
            let task = deferred.pop().expect("peeked entry").task;
            sh.deferred_count.fetch_sub(1, Ordering::AcqRel);
            return Some(task);
        }
    }
    None
}

/// Pops one ready task from the pool's *global* sources (expired
/// deferrals, then the injector) — the part of [`find_task`] available
/// to threads without a worker deque, i.e. a driver thread helping out
/// via [`SchedHandle::drive`].
fn pop_global(sh: &Shared) -> Option<Arc<Task>> {
    if let Some(task) = pop_due_deferral(sh) {
        return Some(task);
    }
    loop {
        match sh.injector.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Retry => std::hint::spin_loop(),
            Steal::Empty => return None,
        }
    }
}

fn find_task(
    index: usize,
    local: &Worker<Arc<Task>>,
    stealers: &[Stealer<Arc<Task>>],
    last_victim: &mut Option<usize>,
    sh: &Shared,
) -> Option<Arc<Task>> {
    // Expired backoff deferrals first: they are the oldest work and
    // their congestion has had the longest time to clear. The heap is
    // shared, so whichever worker probes first resumes the task.
    if let Some(task) = pop_due_deferral(sh) {
        return Some(task);
    }
    if let Some(t) = local.pop() {
        return Some(t);
    }
    // The injector and sibling deques can report transient `Retry`
    // (lost CAS or a mid-swap buffer); keep probing until every source
    // reports a definitive miss. Sibling steals take *half* the
    // victim's backlog into the local deque (steal-half): one raid
    // covers several future activations, so stolen tasks and their
    // record batches keep running on this worker's core instead of
    // ping-ponging back.
    loop {
        let mut retry = false;
        match sh.injector.steal() {
            Steal::Success(t) => return Some(t),
            Steal::Retry => retry = true,
            Steal::Empty => {}
        }
        // Affinity probe: the last productive victim first.
        if let Some(v) = *last_victim {
            match stealers[v].steal_batch_and_pop(local) {
                Steal::Success(t) => return Some(t),
                Steal::Retry => retry = true,
                Steal::Empty => *last_victim = None,
            }
        }
        // Ring scan from our own slot, so siblings spread their probes
        // over different victims.
        let n = stealers.len();
        for k in 1..n {
            let v = (index + k) % n;
            match stealers[v].steal_batch_and_pop(local) {
                Steal::Success(t) => {
                    *last_victim = Some(v);
                    return Some(t);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
        std::hint::spin_loop();
    }
}

/// Runs one activation of a task: drain its mailbox in hand-off
/// batches (bounded by the activation budget and downstream high-water
/// marks), flush every output edge once, then finalize if end-of-stream
/// has been reached. The caller holds the state lock (acquired with
/// `try_lock`, so workers never block behind a running activation).
///
/// Returns `Some(deadline)` for a zero-progress backpressure yield that
/// must be re-run no earlier than the deadline, `None` otherwise.
fn run_task(
    task: &Arc<Task>,
    mut state: parking_lot::MutexGuard<'_, State>,
    sh: &Shared,
    local: Option<&Worker<Arc<Task>>>,
) -> Option<Instant> {
    // From here on, producers may re-queue the task; the held state
    // lock serializes actual execution.
    task.scheduled.store(false, Ordering::Release);

    // Activation-start preemption point: abort flag and run deadline.
    if task.run.should_stop() {
        task.clear_mailbox();
        finalize(task, &mut state, sh, local);
        return None;
    }

    let cx = Cx::new(&task.run, sh, local);
    let batch = cx.batch;
    let budget = ACTIVATION_BUDGET.max(batch);
    // Probing the downstream mailbox for backpressure takes its lock;
    // amortize the check over at least a batch (and no fewer than 16
    // records, so `batch = 1` keeps the pre-batching cadence).
    let bp_stride = batch.max(16);
    let mut next_bp_check = 0usize;
    let mut processed = 0usize;
    // Records claimed from the mailbox for the current hand-off batch.
    // Pooled (with drop-reclaim, for the failure exits): one activation
    // per batch used to mean one short-lived Vec per batch — in steady
    // state that is the hottest allocation in the engine.
    let mut inbuf = pool::PooledVec::take();
    // The ping-pong partner of `inbuf` for multi-stage chains, drawn
    // from the pool on first use; one-stage chains never touch it.
    let mut scratch: Option<pool::PooledVec> = None;
    // A chain's output on its way into an inline port, drawn from the
    // pool on first use. A chain feeding a mailbox never touches it: it
    // writes straight into the port's coalescing buffer, which saves a
    // pooled buffer per activation and a send per record (staging
    // every chain's output slowed an unfused 16-box pipeline by 6-10%
    // on a 2-vCPU VM).
    let mut staged: Option<pool::PooledVec> = None;
    while processed < budget {
        if processed >= next_bp_check {
            // Mid-drain preemption point, amortized on the same stride
            // as the backpressure probe.
            if task.run.should_stop() {
                task.clear_mailbox();
                finalize(task, &mut state, sh, local);
                return None;
            }
            if output_backpressured(&state, sh, batch) {
                break;
            }
            next_bp_check = processed + bp_stride;
        }
        // Refill: claim up to a whole batch with one mailbox lock.
        {
            let mut mb = task.mailbox.lock();
            let take = batch.min(budget - processed).min(mb.len());
            if take == 0 {
                break;
            }
            inbuf.extend(mb.drain(..take));
        }
        // The mailbox just shrank: wake a streaming sender blocked on
        // the ingress bound, if any.
        if task.ingress_waiters.load(Ordering::Acquire) > 0 {
            task.ingress_cv.notify_all();
        }
        let n = inbuf.len();
        let run = &task.run;
        let res = match &mut *state {
            // Chains take the whole claimed batch in one stage-major
            // traversal (identical observable semantics, one panic guard
            // per batch instead of per record).
            State::Chain { stages, out } => {
                let mut no_scratch = Vec::new();
                let next = if stages.len() > 1 {
                    &mut **scratch.get_or_insert_with(pool::PooledVec::take)
                } else {
                    &mut no_scratch
                };
                let dst = match out {
                    Port::Mailbox(m) => &mut m.buf,
                    _ => &mut **staged.get_or_insert_with(pool::PooledVec::take),
                };
                let mut tally = ChainTally::default();
                let res = run_chain(
                    stages,
                    sh.config.policy,
                    sh.config.mismatch,
                    &run.seq,
                    &mut inbuf,
                    next,
                    &mut tally,
                    dst,
                    &mut |dl| run.divert(dl),
                );
                run.trace.count_chain(&tally);
                // Outputs of a failed batch still go on, as they would
                // from a mailbox's buffer when the task finalizes.
                let handed = match out {
                    Port::Mailbox(m) => {
                        if m.buf.len() >= batch {
                            m.flush(cx);
                        }
                        Ok(())
                    }
                    inline => staged.as_mut().map_or(Ok(()), |recs| {
                        recs.drain(..).try_for_each(|r| inline.send(r, cx))
                    }),
                };
                res.and(handed)
            }
            State::Route { router, out } => {
                let mut wire = Wire { out, cx };
                let (policy, mismatch) = (sh.config.policy, sh.config.mismatch);
                inbuf
                    .drain(..)
                    .try_for_each(|rec| router.route(rec, policy, mismatch, &run.seq, &mut wire))
            }
            State::Sink { buf, dest } => {
                for rec in inbuf.drain(..) {
                    buf.push(rec);
                    if buf.len() >= batch {
                        dest.flush(buf);
                    }
                }
                Ok(())
            }
            // Post-teardown stragglers are dropped.
            State::Done => {
                inbuf.clear();
                Ok(())
            }
        };
        if let Err(e) = res {
            run.fail(e);
            task.clear_mailbox();
            finalize(task, &mut state, sh, local);
            return None;
        }
        processed += n;
    }
    // A router's counts reach the trace once per activation (and at
    // finalization, for the abort paths).
    if let State::Route { router, .. } = &mut *state {
        task.run.trace.count_route(&router.take_tally());
    }

    // Forward this activation's entire output: every edge gets at most
    // one more mailbox push + wake, and the between-activations
    // invariant (empty coalescing buffers) is restored.
    flush_outputs(&mut state, cx);
    if processed > 0 {
        task.backoff.store(0, Ordering::Relaxed);
    }

    // Order matters: read the sender count BEFORE the final mailbox
    // probe. Each port's sends happen-before its close, so observing
    // zero senders first guarantees the mailbox probe sees every record
    // — probing the mailbox first could miss a record sent (and closed)
    // between the two reads.
    let senders = task.open_senders.load(Ordering::Acquire);
    let mailbox_empty = task.mailbox.lock().is_empty();
    // Sink delivery happens here, not in `flush_outputs`: deliver when
    // the inbound stream pauses (empty mailbox — latency now matters)
    // or a full hand-off batch has accumulated; holding smaller
    // dribbles while more input is already queued coalesces consumer
    // wakes without ever stranding a record (a non-empty mailbox
    // guarantees another activation). A streaming sink can still be
    // left with undelivered records when the output channel was full:
    // nothing in the graph re-schedules it when the consumer drains
    // (the channel has no back-edge into the scheduler), so it must
    // re-defer itself even with an empty mailbox.
    let undelivered = if let State::Sink { buf, dest } = &mut *state {
        if mailbox_empty || buf.len() >= batch {
            dest.flush(buf);
        }
        !buf.is_empty()
    } else {
        false
    };
    if mailbox_empty && !undelivered {
        if senders == 0 {
            finalize(task, &mut state, sh, local);
        }
        None
    } else {
        // Note the finalize-gate: a sink with undelivered output is
        // never finalized, even at end-of-stream — it re-defers until
        // the consumer makes room (or hangs up). Finalizing instead
        // would force a blocking drain inside an activation, which
        // deadlocks a single-threaded driver that is simultaneously
        // the pool helper (`drive`) and the consumer.
        drop(state);
        if processed == 0 {
            // Zero-progress (backpressured) yield. Requeueing straight
            // onto the global queue spins hot while the downstream
            // mailbox stays full; instead, re-enqueue with exponential
            // backoff. Claiming `scheduled` here keeps producers from
            // double-queueing the task; if a producer won the race, its
            // queue entry owns the re-run.
            if task
                .scheduled
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let shift = task
                    .backoff
                    .fetch_add(1, Ordering::Relaxed)
                    .min(BACKOFF_MAX_SHIFT);
                return Some(Instant::now() + Duration::from_micros(1u64 << shift));
            }
            None
        } else {
            // Budget yield with progress made: run again soon, from the
            // local deque.
            notify(task, sh, local);
            None
        }
    }
}

/// Flushes every coalescing output buffer reachable from `state`: one
/// downstream mailbox push + consumer wake per edge with pending
/// records, and the sink's buffered outputs into its destination.
fn flush_outputs(state: &mut State, cx: Cx<'_>) {
    match state {
        State::Chain { out, .. } => out.flush(cx),
        State::Route { router, out } => {
            for t in router.targets_mut() {
                t.flush(cx);
            }
            out.flush(cx);
        }
        // The sink is absent on purpose: its delivery cadence is decided
        // in `run_task`'s tail (full batches, or everything once its
        // mailbox pauses), not at every activation boundary — flushing
        // dribbles per activation would wake the consumer per couple of
        // records and let it preempt the worker mid-stream.
        State::Sink { .. } | State::Done => {}
    }
}

/// Cooperative backpressure: stop consuming while any mailbox the task
/// feeds is at the high-water mark — a chain's output, or a router's
/// output and every target it has built. A port that runs a parallel
/// dispatcher or `[]` in the sender reports its fullest downstream
/// mailbox, so a router or chain in front of one is held back by the
/// branches behind it. A streaming sink yields the same way while it
/// holds a high-water mark of undelivered records (at least a batch,
/// which `run_task`'s tail then retries delivering), or any with the
/// output channel full: its buffer must not grow while the consumer
/// lags, even when the consumer drains a few records at a time.
fn output_backpressured(state: &State, sh: &Shared, batch: usize) -> bool {
    let hw = sh.high_water();
    match state {
        State::Chain { out, .. } => out.backlog() >= hw,
        State::Route { router, out } => {
            out.backlog() >= hw || router.targets().iter().any(|t| t.backlog() >= hw)
        }
        State::Sink { buf, dest } => {
            buf.len() >= hw.max(batch) || !buf.is_empty() && dest.is_full()
        }
        State::Done => false,
    }
}

/// Observes end-of-stream: count stranded synchrocell records, close
/// every downstream port, and become inert. The sink's finalization is
/// the run's completion: it delivers the last buffered outputs, drops
/// the streaming sender (end-of-stream for the consumer) and wakes the
/// driver's completion latch.
fn finalize(task: &Arc<Task>, state: &mut State, sh: &Shared, local: Option<&Worker<Arc<Task>>>) {
    // Retire the mailbox's backing storage (it is empty on every orderly
    // end-of-stream; abort paths cleared it). Stragglers that land after
    // teardown go into the fresh empty deque and are dropped with it.
    pool::give_deque(std::mem::take(&mut *task.mailbox.lock()));
    if task.ingress_waiters.load(Ordering::Acquire) > 0 {
        task.ingress_cv.notify_all();
    }
    let old = std::mem::replace(state, State::Done);
    let cx = Cx::new(&task.run, sh, local);
    let close = |p: Port| p.close(cx);
    match old {
        State::Chain { out, .. } => close(out),
        State::Route { router, out } => {
            let (targets, tally) = router.finish();
            targets.into_iter().for_each(close);
            task.run.trace.count_route(&tally);
            close(out);
        }
        State::Sink { mut buf, dest } => {
            // By the finalize-gate in `run_task` the buffer is empty on
            // every orderly end-of-stream; a non-empty buffer here means
            // abort or a hung-up consumer, where dropping leftovers is
            // the contract.
            dest.flush(&mut buf);
            pool::give_vec(buf);
            // Streaming mode: dropping `dest` here disconnects the
            // output channel — the consumer's end-of-stream.
            drop(dest);
            task.run.signal_done();
        }
        State::Done => {}
    }
}

/// Instantiates `spec` feeding `sink` and returns the run's entry,
/// which is always a task's mailbox, so that
/// [`EngineConfig::channel_capacity`] bounds ingress.
fn build_entry(spec: &NetSpec, sink: &Arc<Task>, run: &Arc<Run>) -> Mailbox {
    into_mailbox(build(spec, Port::task(sink), run), run)
}

/// The mailbox behind `port`: a port that runs a component in the
/// sender gets a zero-stage chain task in front, which runs it instead.
fn into_mailbox(port: Port, run: &Arc<Run>) -> Mailbox {
    match port {
        Port::Mailbox(m) => m,
        inline => Mailbox::new(&Task::new(
            State::Chain {
                stages: Vec::new(),
                out: inline,
            },
            run,
        )),
    }
}

/// Recursively instantiates `spec` as a task subgraph of `run` feeding
/// `output`, returning the subtree's input port. A parallel and an
/// identity filter create no task: their port runs in the sender and
/// feeds `output`'s mailbox.
fn build(spec: &NetSpec, output: Port, run: &Arc<Run>) -> Port {
    let state = match spec {
        NetSpec::Box(def) => State::Chain {
            stages: vec![ChainStage::Box(def.clone())],
            out: output,
        },
        NetSpec::Filter(f) if f.is_identity() => {
            return Port::Identity {
                out: into_mailbox(output, run),
                records: 0,
            }
        }
        NetSpec::Filter(f) => State::Chain {
            stages: vec![ChainStage::Filter(f.clone())],
            out: output,
        },
        NetSpec::FusedChain { stages } => State::Chain {
            stages: stages.clone(),
            out: output,
        },
        NetSpec::Serial(a, b) => {
            let mid = build(b, output, run);
            return build(a, mid, run);
        }
        // The scheduled engine, like the threaded one, ignores
        // placement; `snet-dist` honours it on the simulated cluster.
        NetSpec::At { body, .. } | NetSpec::Named { body, .. } => return build(body, output, run),
        NetSpec::Parallel { .. } => {
            let out = into_mailbox(output, run);
            let router = Router::new(spec, |b| build(b, Port::task(&out.task), run))
                .expect("a routing combinator");
            return Port::Dispatch(Box::new(Dispatch { router, out }));
        }
        NetSpec::Star { .. } | NetSpec::Split { .. } | NetSpec::Sync(_) => State::Route {
            router: Router::new(spec, |_| unreachable!("only a parallel has branches"))
                .expect("a routing combinator"),
            out: output,
        },
    };
    Port::task(&Task::new(state, run))
}

/// A routing task's wiring: its output and target ports, with replicas
/// instantiated as fresh tasks of the same run.
struct Wire<'a> {
    out: &'a mut Port,
    cx: Cx<'a>,
}

impl Wiring for Wire<'_> {
    type Target = Port;

    fn emit(&mut self, rec: Record) -> Result<(), SnetError> {
        self.out.send(rec, self.cx)
    }

    fn send(&mut self, to: &mut Port, rec: Record) -> Result<(), SnetError> {
        to.send(rec, self.cx)
    }

    fn instantiate(&mut self, replica: Replica<'_, Port>) -> Port {
        match replica {
            // The body feeds the next tap, which shares our exit stream.
            Replica::Star { body, tap } => {
                let next_tap = Task::new(
                    State::Route {
                        router: tap,
                        out: self.out.another(),
                    },
                    self.cx.run,
                );
                build(body, Port::task(&next_tap), self.cx.run)
            }
            Replica::Split { body, .. } => build(body, self.out.another(), self.cx.run),
        }
    }

    fn divert(&mut self, dl: Box<DeadLetter>) -> Result<(), SnetError> {
        self.cx.run.divert(dl)
    }
}

/// An inline parallel dispatcher's wiring: its branches, and its output
/// mailbox for the records no branch matches.
struct Fanout<'a> {
    out: &'a mut Mailbox,
    cx: Cx<'a>,
}

impl Wiring for Fanout<'_> {
    type Target = Port;

    fn emit(&mut self, rec: Record) -> Result<(), SnetError> {
        self.out.send(rec, self.cx);
        Ok(())
    }

    fn send(&mut self, to: &mut Port, rec: Record) -> Result<(), SnetError> {
        to.send(rec, self.cx)
    }

    fn instantiate(&mut self, _: Replica<'_, Port>) -> Port {
        unreachable!("a parallel builds its branches up front")
    }

    fn divert(&mut self, dl: Box<DeadLetter>) -> Result<(), SnetError> {
        self.cx.run.divert(dl)
    }
}

/// Error returned by [`SchedHandle::try_send`].
#[derive(Debug)]
pub enum TrySendError {
    /// The entry mailbox is at [`EngineConfig::channel_capacity`]; the
    /// record is handed back untouched.
    Full(Record),
    /// The run can no longer accept input (input closed or the run
    /// failed); the cause is attached.
    Closed(SnetError),
}

impl fmt::Display for TrySendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "ingress full; record handed back"),
            TrySendError::Closed(e) => write!(f, "ingress closed: {e}"),
        }
    }
}

impl std::error::Error for TrySendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrySendError::Full(_) => None,
            TrySendError::Closed(e) => Some(e),
        }
    }
}

/// A running, streaming instance of a [`SchedNet`] on the shared
/// worker pool.
///
/// Mirrors the threaded engine's [`crate::engine::NetHandle`]: records
/// go in through [`SchedHandle::send`] (bounded — the call blocks once
/// [`EngineConfig::channel_capacity`] records are resident in the entry
/// mailbox), outputs stream out of [`SchedHandle::recv`] as the sink
/// produces them, and [`SchedHandle::finish`] (or dropping the handle)
/// closes the input and tears the run down via the usual end-of-stream
/// cascade. All methods take `&self`, so one thread can feed the
/// network while another drains it.
pub struct SchedHandle {
    input: Mutex<Option<Mailbox>>,
    output: Receiver<Record>,
    dead: Receiver<DeadLetter>,
    run: Arc<Run>,
    sh: Arc<Shared>,
}

impl SchedHandle {
    /// The entry task, if the input is still open. Cloned out of the
    /// `input` mutex so no caller ever blocks while holding it — a
    /// `send` stalled on ingress backpressure must not lock out
    /// `input_backlog`/`close_input` from other threads. A send racing
    /// `close_input` may consequently land after finalization, where it
    /// is dropped like any other post-teardown straggler.
    fn entry_task(&self) -> Option<Arc<Task>> {
        self.input.lock().as_ref().map(|p| Arc::clone(&p.task))
    }

    /// Blocks until the entry mailbox has room or the run aborts,
    /// handing the re-acquired mailbox guard back. The timed wait is a
    /// lost-wakeup safety net; the entry task signals `ingress_cv`
    /// whenever it drains the mailbox.
    fn wait_for_space<'a>(
        &self,
        task: &'a Task,
        mut mb: parking_lot::MutexGuard<'a, VecDeque<Record>>,
        cap: usize,
    ) -> Result<parking_lot::MutexGuard<'a, VecDeque<Record>>, SnetError> {
        loop {
            // `should_stop` also trips on deadline expiry, so a sender
            // blocked on a stalled network is released with
            // `DeadlineExceeded` rather than parked forever. No ports
            // are closed here (we hold the mailbox lock; closing flushes
            // other locks) — `finish`/`cancel` kick the cascade.
            if self.run.should_stop() {
                return Err(self.current_error("network failed while sending"));
            }
            if mb.len() < cap {
                return Ok(mb);
            }
            task.ingress_waiters.fetch_add(1, Ordering::AcqRel);
            let (guard, _) = task
                .ingress_cv
                .wait_timeout(mb, Duration::from_millis(100))
                .unwrap_or_else(|e| e.into_inner());
            task.ingress_waiters.fetch_sub(1, Ordering::AcqRel);
            mb = guard;
        }
    }

    /// Sends one record into the network, blocking while the entry
    /// mailbox is at capacity (real ingress backpressure: a slow
    /// network throttles its producer instead of buffering unboundedly).
    pub fn send(&self, rec: Record) -> Result<(), SnetError> {
        let Some(task) = self.entry_task() else {
            return Err(SnetError::Engine("input already closed".into()));
        };
        let cap = self.sh.config.channel_capacity.max(1);
        let mut mb = self.wait_for_space(&task, task.mailbox.lock(), cap)?;
        mb.push_back(rec);
        drop(mb);
        notify(&task, &self.sh, None);
        Ok(())
    }

    /// Sends a pre-materialized batch, still under the ingress bound:
    /// records land in the entry mailbox in capacity-sized windows —
    /// one mailbox lock and one wake per window instead of per record
    /// — and the call blocks for drain space between windows, so
    /// resident records never exceed [`EngineConfig::channel_capacity`].
    /// The streaming counterpart of the batch driver's one-shot feed.
    pub fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError> {
        let Some(task) = self.entry_task() else {
            return Err(SnetError::Engine("input already closed".into()));
        };
        let cap = self.sh.config.channel_capacity.max(1);
        let mut queue = records.into_iter();
        let mut next = queue.next();
        while next.is_some() {
            let mut mb = self.wait_for_space(&task, task.mailbox.lock(), cap)?;
            while next.is_some() && mb.len() < cap {
                mb.push_back(next.take().expect("loop guard"));
                next = queue.next();
            }
            drop(mb);
            notify(&task, &self.sh, None);
        }
        Ok(())
    }

    /// Non-blocking send: hands the record back as
    /// [`TrySendError::Full`] instead of blocking when the entry
    /// mailbox is at capacity.
    #[allow(clippy::result_large_err)] // Full carries the record back by design
    pub fn try_send(&self, rec: Record) -> Result<(), TrySendError> {
        let Some(task) = self.entry_task() else {
            return Err(TrySendError::Closed(SnetError::Engine(
                "input already closed".into(),
            )));
        };
        let task = &task;
        if self.run.aborted.load(Ordering::Acquire) {
            return Err(TrySendError::Closed(
                self.current_error("network failed while sending"),
            ));
        }
        let cap = self.sh.config.channel_capacity.max(1);
        {
            let mut mb = task.mailbox.lock();
            if mb.len() >= cap {
                return Err(TrySendError::Full(rec));
            }
            mb.push_back(rec);
        }
        notify(task, &self.sh, None);
        Ok(())
    }

    /// Records currently resident in the entry mailbox (0 once the
    /// input is closed). Never exceeds
    /// [`EngineConfig::channel_capacity`] when the handle's own senders
    /// are the only producers — the observable ingress bound.
    pub fn input_backlog(&self) -> usize {
        self.entry_task()
            .map(|t| t.mailbox.lock().len())
            .unwrap_or(0)
    }

    /// Closes the input stream (end-of-stream for the network).
    /// Idempotent.
    pub fn close_input(&self) {
        if let Some(entry) = self.input.lock().take() {
            entry.close(Cx::new(&self.run, &self.sh, None));
        }
    }

    /// Cancels the run cooperatively: records [`SnetError::Cancelled`],
    /// raises the abort flag every task checks at its activation
    /// preemption points, and closes the input so the end-of-stream
    /// cascade finalizes every task — including the sink, which keeps
    /// the completion latch and the worker pool healthy for subsequent
    /// runs. Outputs already queued remain retrievable via
    /// [`SchedHandle::recv`]; [`SchedHandle::finish`] returns the
    /// error. Idempotent; a no-op if the run already failed or
    /// finished.
    pub fn cancel(&self) {
        self.run.fail(SnetError::Cancelled);
        self.close_input();
    }

    /// Receives the next output record; `None` once the output stream
    /// has terminated (sink finalized, or the pool shut down). Checks
    /// the abort flag and run deadline while blocked, so a stalled
    /// network cannot park the consumer past
    /// [`EngineConfig::deadline`].
    pub fn recv(&self) -> Option<Record> {
        loop {
            match self.output.recv_timeout(Duration::from_millis(100)) {
                Ok(rec) => return Some(rec),
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    // A dropped pool (SchedNet gone) can no longer run
                    // the sink; don't block forever on it.
                    if self.sh.shutdown.load(Ordering::Acquire) {
                        return None;
                    }
                    if self.run.should_stop() {
                        // Aborted (cancel / failure / deadline): close
                        // the input so the cascade finalizes the sink,
                        // then keep draining what is already in flight
                        // until the channel disconnects.
                        self.close_input();
                    }
                }
            }
        }
    }

    /// Non-blocking receive: `None` when nothing is currently queued
    /// (including after termination — use [`SchedHandle::recv`] to
    /// distinguish end-of-stream).
    pub fn try_recv(&self) -> Option<Record> {
        self.output.try_recv().ok()
    }

    /// Runs at most one ready scheduler task on the *calling* thread
    /// (caller-runs work helping, à la Rayon): pops from the pool's
    /// global queues and executes the activation in place. Returns
    /// `true` if a task was executed. A streaming driver that would
    /// otherwise block — ingress full, nothing to drain — can call this
    /// to push the pipeline forward itself instead of paying a
    /// park/wake round trip against the worker pool; on a single-CPU
    /// host this is the difference between streaming and batch-mode
    /// throughput. Tasks of *any* run on this net's pool may be
    /// executed, exactly as a pool worker would.
    pub fn drive(&self) -> bool {
        let Some(task) = pop_global(&self.sh) else {
            return false;
        };
        let guard = task.state.try_lock();
        match guard {
            Some(state) => {
                if let Some(due) = execute(&task, state, &self.sh, None) {
                    self.sh.deferred_count.fetch_add(1, Ordering::Release);
                    self.sh.deferred.lock().push(Deferred {
                        due,
                        task: Arc::clone(&task),
                    });
                }
                true
            }
            None => {
                // Mid-activation on another thread: hand it back and let
                // the caller yield to the thread actually running it.
                self.sh.injector.push(Arc::clone(&task));
                false
            }
        }
    }

    /// The output stream receiver (for `select!`-style consumers).
    pub fn output(&self) -> &Receiver<Record> {
        &self.output
    }

    /// Non-blocking receive on the run's dead-letter stream. Only
    /// populated under
    /// [`snet_core::fault::FailurePolicy::DeadLetter`]; drain it while
    /// the run progresses — the stream is bounded and overflow fails
    /// the run.
    pub fn try_recv_dead_letter(&self) -> Option<DeadLetter> {
        self.dead.try_recv().ok()
    }

    /// The dead-letter receiver (for `select!`-style consumers).
    pub fn dead_letters(&self) -> &Receiver<DeadLetter> {
        &self.dead
    }

    /// Shared event counters of this run.
    pub fn trace(&self) -> &Trace {
        &self.run.trace
    }

    /// Clonable handle to the run's counters.
    pub fn trace_arc(&self) -> Arc<Trace> {
        Arc::clone(&self.run.trace)
    }

    /// Closes the input, drains any remaining output, waits for the
    /// run to finalize, and reports the first error raised during the
    /// run, if any.
    pub fn finish(self) -> Result<(), SnetError> {
        self.close_input();
        // Drain the output so the sink cannot block on a full channel.
        while self.recv().is_some() {}
        if !self.sh.shutdown.load(Ordering::Acquire) {
            self.run.wait_done();
        }
        match self.run.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn current_error(&self, fallback: &str) -> SnetError {
        self.run
            .error
            .lock()
            .clone()
            .unwrap_or_else(|| SnetError::Engine(fallback.into()))
    }
}

impl Drop for SchedHandle {
    /// Closing the input on drop lets the end-of-stream cascade tear
    /// the task graph down even when the user walks away without
    /// calling [`SchedHandle::finish`]; the receiver drop disconnects
    /// the output channel, so the sink discards (rather than blocks on)
    /// any undelivered records.
    fn drop(&mut self) {
        self.close_input();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use snet_core::semantics::MismatchPolicy;
    use snet_core::{BinOp, FilterSpec, Label, Pattern, SyncSpec, TagExpr, Value, Variant};

    fn int_box(name: &str, input: &str, output: &str, f: fn(i64) -> i64) -> NetSpec {
        let out_label = output.to_owned();
        NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse(name, &[input], &[&[output]]),
            move |r| {
                let x = r
                    .fields()
                    .next()
                    .and_then(|(_, v)| v.as_int())
                    .ok_or_else(|| SnetError::Engine("expected int field".into()))?;
                Ok(BoxOutput::one(
                    Record::new().with_field(out_label.as_str(), Value::Int(f(x))),
                    Work::ops(1),
                ))
            },
        ))
    }

    fn ints(records: &[Record], label: &str) -> Vec<i64> {
        let mut v: Vec<i64> = records
            .iter()
            .filter_map(|r| r.field(label).and_then(|x| x.as_int()))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn single_box_pipeline() {
        let net = SchedNet::new(int_box("double", "x", "x", |x| 2 * x));
        let outs = net
            .run_batch(
                (0..10)
                    .map(|i| Record::new().with_field("x", Value::Int(i)))
                    .collect(),
            )
            .unwrap();
        assert_eq!(ints(&outs, "x"), (0..10).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_composes() {
        let net = SchedNet::new(NetSpec::serial(
            int_box("inc", "x", "x", |x| x + 1),
            int_box("sq", "x", "x", |x| x * x),
        ));
        let outs = net
            .run_batch(vec![Record::new().with_field("x", Value::Int(3))])
            .unwrap();
        assert_eq!(ints(&outs, "x"), vec![16]);
    }

    #[test]
    fn parallel_routes_by_best_match() {
        let net = SchedNet::new(NetSpec::parallel(vec![
            int_box("fa", "a", "ra", |x| x + 100),
            int_box("fb", "b", "rb", |x| x + 200),
        ]));
        let outs = net
            .run_batch(vec![
                Record::new().with_field("a", Value::Int(1)),
                Record::new().with_field("b", Value::Int(2)),
                Record::new().with_field("a", Value::Int(3)),
            ])
            .unwrap();
        assert_eq!(ints(&outs, "ra").len(), 2);
        assert_eq!(ints(&outs, "rb"), vec![202]);
    }

    #[test]
    fn star_unrolls_until_exit() {
        let dec = NetSpec::Filter(FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
            vec![snet_core::filter::OutputTemplate::empty().set_tag(
                "n",
                TagExpr::bin(BinOp::Sub, TagExpr::tag("n"), TagExpr::Const(1)),
            )],
        ));
        let exit = Pattern::guarded(
            Variant::empty(),
            TagExpr::bin(BinOp::Eq, TagExpr::tag("n"), TagExpr::Const(0)),
        );
        let net = SchedNet::new(NetSpec::star(dec, exit));
        let (outs, trace) = net
            .run_batch_traced(vec![Record::new().with_tag("n", 5)])
            .unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].tag("n"), Some(0));
        assert_eq!(trace.star_unfoldings.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn split_creates_replica_per_tag_value() {
        let net = SchedNet::new(NetSpec::split(int_box("id", "x", "x", |x| x), "k"));
        let recs: Vec<Record> = (0..12)
            .map(|i| {
                Record::new()
                    .with_field("x", Value::Int(i))
                    .with_tag("k", i % 3)
            })
            .collect();
        let (outs, trace) = net.run_batch_traced(recs).unwrap();
        assert_eq!(outs.len(), 12);
        assert_eq!(trace.split_replicas.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn split_without_tag_is_an_error() {
        let net = SchedNet::new(NetSpec::split(int_box("id", "x", "x", |x| x), "k"));
        let err = net
            .run_batch(vec![Record::new().with_field("x", Value::Int(1))])
            .unwrap_err();
        assert_eq!(err, SnetError::MissingTag(Label::new("k")));
    }

    #[test]
    fn sync_joins_in_stream() {
        let cell = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let net = SchedNet::new(cell);
        let outs = net
            .run_batch(vec![
                Record::new().with_field("a", Value::Int(1)),
                Record::new().with_field("b", Value::Int(2)),
            ])
            .unwrap();
        assert_eq!(outs.len(), 1);
        assert!(outs[0].has_field("a") && outs[0].has_field("b"));
    }

    #[test]
    fn stranded_sync_records_are_counted() {
        let cell = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let net = SchedNet::new(cell);
        let (outs, trace) = net
            .run_batch_traced(vec![Record::new().with_field("a", Value::Int(1))])
            .unwrap();
        assert!(outs.is_empty());
        assert_eq!(trace.sync_stranded.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn box_error_propagates() {
        let bad = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("bad", &["x"], &[&["y"]]),
            |_| Err(SnetError::Engine("deliberate".into())),
        ));
        let net = SchedNet::new(bad);
        let err = net
            .run_batch(vec![Record::new().with_field("x", Value::Int(1))])
            .unwrap_err();
        assert!(matches!(err, SnetError::BoxFailure { .. }), "{err}");
    }

    #[test]
    fn panicking_box_is_reported_not_swallowed() {
        let bomb = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("bomb", &["x"], &[&["y"]]),
            |r| {
                let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
                if x == 2 {
                    panic!("boom at {x}");
                }
                Ok(BoxOutput::one(r.clone(), Work::ZERO))
            },
        ));
        let net = SchedNet::new(bomb);
        let err = net
            .run_batch(
                (0..5)
                    .map(|i| Record::new().with_field("x", Value::Int(i)))
                    .collect(),
            )
            .unwrap_err();
        match err {
            SnetError::BoxFailure { name, cause } => {
                assert_eq!(name, "bomb");
                assert!(cause.contains("boom at 2"), "{cause}");
            }
            other => panic!("expected box failure, got {other:?}"),
        }
    }

    #[test]
    fn strict_mismatch_policy_errors() {
        let net = SchedNet::with_config(
            int_box("f", "x", "y", |x| x),
            EngineConfig {
                mismatch: MismatchPolicy::Error,
                ..EngineConfig::default()
            },
        );
        let err = net
            .run_batch(vec![Record::new().with_field("other", Value::Int(1))])
            .unwrap_err();
        assert!(matches!(err, SnetError::TypeMismatch { .. }));
    }

    #[test]
    fn net_is_reusable_with_fresh_state() {
        let cell = NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let net = SchedNet::new(cell);
        for _ in 0..2 {
            let outs = net
                .run_batch(vec![
                    Record::new().with_field("a", Value::Int(1)),
                    Record::new().with_field("b", Value::Int(2)),
                ])
                .unwrap();
            assert_eq!(outs.len(), 1, "cell must fire in every fresh run");
        }
    }

    #[test]
    fn deep_pipeline_with_single_worker() {
        // workers = 1 exercises the no-stealing degenerate case.
        let stages: Vec<NetSpec> = (0..8)
            .map(|_| int_box("inc", "x", "x", |x| x + 1))
            .collect();
        let net = SchedNet::with_config(
            NetSpec::pipeline(stages),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let outs = net
            .run_batch(
                (0..200)
                    .map(|i| Record::new().with_field("x", Value::Int(i)))
                    .collect(),
            )
            .unwrap();
        assert_eq!(outs.len(), 200);
        assert_eq!(ints(&outs, "x"), (8..208).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_terminates() {
        let net = SchedNet::new(int_box("inc", "x", "x", |x| x + 1));
        assert!(net.run_batch(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn streaming_interface_overlaps() {
        let net = SchedNet::new(int_box("inc", "x", "x", |x| x + 1));
        let h = net.start();
        h.send(Record::new().with_field("x", Value::Int(1)))
            .unwrap();
        let first = h.recv().expect("one output while input still open");
        assert_eq!(first.field("x").unwrap().as_int(), Some(2));
        h.send(Record::new().with_field("x", Value::Int(5)))
            .unwrap();
        h.close_input();
        let second = h.recv().expect("second output");
        assert_eq!(second.field("x").unwrap().as_int(), Some(6));
        assert!(h.recv().is_none());
        h.finish().unwrap();
    }

    #[test]
    fn streaming_error_propagates_to_finish() {
        let bad = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("bad", &["x"], &[&["y"]]),
            |_| Err(SnetError::Engine("deliberate".into())),
        ));
        let net = SchedNet::new(bad);
        let h = net.start();
        let _ = h.send(Record::new().with_field("x", Value::Int(1)));
        let err = h.finish().unwrap_err();
        assert!(matches!(err, SnetError::BoxFailure { .. }), "{err}");
    }

    #[test]
    fn batch_and_streaming_runs_interleave_on_one_pool() {
        let net = SchedNet::new(int_box("inc", "x", "x", |x| x + 1));
        let h = net.start();
        h.send(Record::new().with_field("x", Value::Int(10)))
            .unwrap();
        // A whole batch run completes while the streaming run stays open.
        let outs = net
            .run_batch(vec![Record::new().with_field("x", Value::Int(100))])
            .unwrap();
        assert_eq!(ints(&outs, "x"), vec![101]);
        assert_eq!(h.recv().unwrap().field("x").unwrap().as_int(), Some(11));
        h.finish().unwrap();
    }

    /// `(b1 | []) .. (b2 | []) .. ..`: every stage's dispatcher feeds a
    /// mailbox (a zero-stage chain that runs the next stage), not a copy
    /// of the next stage's port, so
    /// the ports a pipeline of optional stages builds grow with its
    /// length, not with the product of its widths. Counted at the sink,
    /// which only the last stage's three senders (its box, its `[]` and
    /// its unmatched-record output) hold a handle on.
    #[test]
    fn optional_stages_in_a_row_feed_mailboxes_not_copies_of_ports() {
        for k in 1..=8 {
            let spec = NetSpec::pipeline((0..k).map(|i| {
                NetSpec::parallel(vec![
                    int_box(&format!("b{i}"), "x", "x", |x| x + 1),
                    NetSpec::identity(),
                ])
            }));
            let run = Run::new(None, DeadDest::Collect(Arc::default()));
            let sink = Task::new(
                State::Sink {
                    buf: Vec::new(),
                    dest: SinkDest::Collect(Arc::default()),
                },
                &run,
            );
            let _entry = build_entry(&spec, &sink, &run);
            assert_eq!(sink.open_senders.load(Ordering::Relaxed), 3, "{k} stages");
        }
    }
}
