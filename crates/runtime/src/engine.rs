//! The threaded engine: asynchronous components over bounded channels.
//!
//! Every primitive component instance (box, filter, synchrocell) and
//! every piece of combinator glue (parallel dispatcher, star tap, index
//! dispatcher) runs as its own thread, connected by bounded
//! [`crossbeam_channel`] channels. This is a direct rendering of the
//! paper's execution model (§III): components are "asynchronously
//! executed, stateless stream-processing components"; merging of
//! parallel branches is nondeterministic in arrival order; serial
//! replication unrolls lazily "into copies of its operand"; bounded
//! channels provide the throttling the coordination layer is responsible
//! for.
//!
//! End-of-stream is channel disconnection: a component terminates when
//! its input disconnects, and closes its output by dropping the sender.
//! Collectors (the merge side of `|` and `!`) finish when *all* clones
//! of the output sender have been dropped, which happens exactly when
//! every branch has terminated.

use crate::trace::Trace;
use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use snet_core::fault::{DeadLetter, FailurePolicy};
use snet_core::semantics::MismatchPolicy;
use snet_core::{
    run_chain, ChainStage, ChainTally, Diagnostic, NetSpec, RType, Record, Replica, Router,
    SnetError, Wiring,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long blocked handle operations sleep between checks of the
/// abort flag and deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Dead-letter channel capacity multiplier over `channel_capacity`,
/// for both engines' streaming runs: the stream is bounded (workers
/// never block on it — overflow is a fatal engine error instead of a
/// stall), sized so a consumer draining at output cadence never sees
/// overflow.
pub(crate) const DEAD_CAPACITY_FACTOR: usize = 16;

/// Engine tuning knobs (shared by the threaded and scheduled engines;
/// each engine reads the knobs that apply to it).
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Capacity of every inter-component channel. Bounded channels give
    /// backpressure ("throttling" in the paper's list of coordination
    /// concerns); 0 would mean rendezvous, which deadlocks multi-output
    /// filters feeding themselves through a star, so the minimum is 1.
    /// The scheduled engine derives its mailbox high-water mark from
    /// this value.
    pub channel_capacity: usize,
    /// What to do when a record reaches a component it cannot match.
    pub mismatch: MismatchPolicy,
    /// Worker threads in the scheduled engine's pool
    /// ([`crate::sched::SchedNet`]); the threaded engine ignores it
    /// (its thread count is the component count).
    pub workers: usize,
    /// Records coalesced per mailbox hand-off in the scheduled engine:
    /// a task's activation buffers up to this many records per output
    /// edge and pushes them downstream with a single lock acquisition
    /// and a single consumer wake; input mailboxes are drained at the
    /// same granularity. `1` restores record-at-a-time hand-off
    /// (bit-identical scheduling to the pre-batching engine). The
    /// threaded engine hands off per record regardless, though
    /// multi-record component outputs go through the channel's batched
    /// `send_iter`. Default 32, tuned on the serial-pipeline benchmark
    /// (see `BENCH_batched_handoff.json`).
    pub batch: usize,
    /// Engine-wide failure policy; individual boxes may override it
    /// via [`snet_core::boxdef::BoxDef::with_policy`]. Default
    /// [`FailurePolicy::FailFast`] (the historical behavior).
    pub policy: FailurePolicy,
    /// Wall-clock budget for a run, measured from [`Net::start`] /
    /// [`crate::SchedNet::start`]. On expiry the run aborts at the next
    /// preemption point and reports [`SnetError::DeadlineExceeded`];
    /// partial outputs already emitted remain retrievable. `None`
    /// (default) disables the check entirely.
    pub deadline: Option<Duration>,
    /// Fuse maximal static SISO chains of boxes/filters into single
    /// components ([`snet_core::fusion::fuse`]) before instantiating
    /// the network. Default `true`: fusion is observationally
    /// equivalent (same output multiset, traces, and fault
    /// attribution — see the `fusion_equivalence` property suite) and
    /// strictly cheaper on deep pipelines. Set `false` to run the
    /// topology exactly as written: one task/thread per box or filter,
    /// each a one-stage chain over the same
    /// [`snet_core::fusion::run_chain`] record path, e.g. to measure
    /// hand-off cost itself.
    pub fuse: bool,
    /// Number of compute nodes available to the placement combinators
    /// (`@ node`, `!@ tag`), used only by the construction-time
    /// analyzer's range check (`SNA006`). `None` (default) disables
    /// the check — the local engines ignore placement, so any node
    /// index runs fine here.
    pub nodes: Option<u32>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            channel_capacity: 64,
            mismatch: MismatchPolicy::Forward,
            workers: default_workers(),
            batch: 32,
            policy: FailurePolicy::FailFast,
            deadline: None,
            fuse: true,
            nodes: None,
        }
    }
}

/// Both engines' construction: the execution plan for `spec` (fused
/// unless [`EngineConfig::fuse`] is off) and the error-severity
/// findings of exactly one static analysis. With a declared `entry`
/// type that is the full shape-aware analysis, whose exact-match
/// proofs annotate the plan; without one it is the open pre-flight,
/// sound for any input stream.
pub(crate) fn plan(
    spec: &NetSpec,
    entry: Option<&RType>,
    config: &EngineConfig,
) -> (NetSpec, Vec<Diagnostic>) {
    let mut plan = if config.fuse {
        snet_core::fuse(spec)
    } else {
        spec.clone()
    };
    let cfg = snet_analyze::AnalyzeConfig {
        nodes: config.nodes,
        ..snet_analyze::AnalyzeConfig::default()
    };
    let analysis = match entry {
        Some(entry) => snet_analyze::analyze_and_annotate(&mut plan, entry, &cfg).0,
        None => snet_analyze::analyze_open(spec, &cfg),
    };
    let errors = analysis.errors().cloned().collect();
    (plan, errors)
}

/// Default scheduled-engine pool size: the `SNET_WORKERS` environment
/// variable when set to a positive integer (the CI constrained lane
/// uses `SNET_WORKERS=1` under `taskset -c 0`), else 4. Read once; a
/// later env change does not move the default mid-process.
fn default_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::env::var("SNET_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(4)
    })
}

/// A compiled network ready to execute records.
///
/// `Net` is reusable: every [`Net::start`] (or [`Net::run_batch`]) call
/// instantiates a fresh set of component threads. Synchrocell and
/// replication state never leaks between runs.
pub struct Net {
    spec: NetSpec,
    /// What actually runs: `spec` with SISO chains fused (or a clone of
    /// `spec` when [`EngineConfig::fuse`] is off).
    plan: NetSpec,
    config: EngineConfig,
    /// Error-severity findings of the construction-time pre-flight
    /// analysis (empty when clean). A non-empty list fails every run
    /// with [`SnetError::Analysis`].
    preflight: Vec<Diagnostic>,
}

impl Net {
    /// Wraps a topology with default configuration.
    pub fn new(spec: NetSpec) -> Net {
        Net::with_config(spec, EngineConfig::default())
    }

    /// Wraps a topology with explicit configuration.
    pub fn with_config(spec: NetSpec, config: EngineConfig) -> Net {
        let (plan, preflight) = plan(&spec, None, &config);
        Net {
            spec,
            plan,
            config,
            preflight,
        }
    }

    /// Wraps a topology with a declared (closed) entry type: every
    /// record fed to the net is promised to carry exactly the labels of
    /// one of `entry`'s variants. This unlocks the full shape-aware
    /// analysis — the net is rejected up front ([`SnetError::Analysis`])
    /// on any error-severity finding (unroutable records, splits missing
    /// their index tag, stranded synchrocells, unbound filter labels,
    /// placement out of range) — and the analyzer's exact-match proofs
    /// annotate the execution plan so fused boxes skip their per-record
    /// type checks ([`snet_core::boxdef::BoxDef::exact_input`]).
    pub fn with_entry_type(
        spec: NetSpec,
        entry: &RType,
        config: EngineConfig,
    ) -> Result<Net, SnetError> {
        let (plan, errors) = plan(&spec, Some(entry), &config);
        if !errors.is_empty() {
            return Err(SnetError::Analysis(errors));
        }
        Ok(Net {
            spec,
            plan,
            config,
            preflight: Vec::new(),
        })
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

    /// Instantiates the network and returns a handle for streaming
    /// records in and out.
    pub fn start(&self) -> NetHandle {
        let cap = self.config.channel_capacity.max(1);
        // No component can divert under this configuration => a 1-slot
        // stub channel suffices (mirrors the scheduled engine).
        let dead_cap = if self.spec.diverts_under(self.config.policy) {
            cap * DEAD_CAPACITY_FACTOR
        } else {
            1
        };
        let (dead_tx, dead_rx) = bounded(dead_cap);
        let shared = Arc::new(Shared {
            threads: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
            deadline_at: self.config.deadline.map(|d| Instant::now() + d),
            seq: AtomicU64::new(0),
            dead_tx,
            trace: Arc::new(Trace::new()),
            config: self.config,
        });
        let (in_tx, in_rx) = bounded(cap);
        let (out_tx, out_rx) = bounded(cap);
        if !self.preflight.is_empty() {
            // Pre-flight rejected the net: the run starts already
            // failed, components stop at their first preemption check,
            // and `finish()` reports the analysis error.
            shared.fail(SnetError::Analysis(self.preflight.clone()));
        }
        build(&self.plan, in_rx, out_tx, &shared);
        NetHandle {
            input: Mutex::new(Some(in_tx)),
            output: out_rx,
            dead: dead_rx,
            shared,
        }
    }

    /// Feeds a batch of records, closes the input, and collects the
    /// complete output stream.
    ///
    /// The batch is fed from a helper thread so that bounded channels
    /// cannot deadlock against the draining loop.
    pub fn run_batch(&self, records: Vec<Record>) -> Result<Vec<Record>, SnetError> {
        let (outs, _trace) = self.run_batch_traced(records)?;
        Ok(outs)
    }

    /// Like [`Net::run_batch`] but also returns the run's [`Trace`].
    pub fn run_batch_traced(
        &self,
        records: Vec<Record>,
    ) -> Result<(Vec<Record>, Arc<Trace>), SnetError> {
        let report = self.run_batch_report(records)?;
        Ok((report.outputs, report.trace))
    }

    /// Feeds a batch and returns the full [`crate::RunReport`]:
    /// outputs, diverted dead letters, and the run's trace. This is
    /// the driver to use with [`FailurePolicy::DeadLetter`], where
    /// dropped records are data, not errors.
    pub fn run_batch_report(&self, records: Vec<Record>) -> Result<crate::RunReport, SnetError> {
        if !self.preflight.is_empty() {
            return Err(SnetError::Analysis(self.preflight.clone()));
        }
        let handle = self.start();
        let feeder_tx = handle
            .input
            .lock()
            .take()
            .expect("fresh handle has an input");
        let feeder = std::thread::spawn(move || {
            // One batched send for the whole input: the feeder blocks in
            // `send_iter` whenever the entry channel fills. A send error
            // means the net tore down early (a component failed); the
            // error is recorded in `shared.error`.
            let _ = feeder_tx.send_iter(records);
        });
        let mut outputs = Vec::new();
        let mut dead_letters = Vec::new();
        // `recv` enforces the deadline while blocked; dead letters are
        // drained at the same cadence so the bounded dead stream never
        // overflows while the batch driver is in charge.
        loop {
            while let Some(dl) = handle.try_recv_dead_letter() {
                dead_letters.push(dl);
            }
            match handle.recv() {
                Some(rec) => outputs.push(rec),
                None => break,
            }
        }
        while let Some(dl) = handle.try_recv_dead_letter() {
            dead_letters.push(dl);
        }
        feeder.join().expect("feeder thread never panics");
        let trace = handle.trace_arc();
        handle.finish()?;
        Ok(crate::RunReport {
            outputs,
            dead_letters,
            trace,
        })
    }
}

/// A running network instance.
///
/// All methods take `&self` (the input side sits behind a mutex), so
/// one thread can feed the network while another drains it — the shape
/// the engine-generic [`crate::StreamHandle`] abstraction relies on.
pub struct NetHandle {
    input: Mutex<Option<Sender<Record>>>,
    output: Receiver<Record>,
    dead: Receiver<DeadLetter>,
    shared: Arc<Shared>,
}

impl NetHandle {
    /// A clone of the entry sender, if the input is still open. Cloned
    /// out of the `input` mutex so no caller ever blocks while holding
    /// it — a `send` stalled on channel backpressure must not lock out
    /// `try_send` (documented non-blocking) or `close_input`. The clone
    /// keeps the channel connected for the duration of an in-flight
    /// send that races `close_input`, which matches "close applies
    /// after already-submitted sends".
    fn entry_sender(&self) -> Option<Sender<Record>> {
        self.input.lock().clone()
    }

    /// Sends one record into the network, blocking while the bounded
    /// entry channel is full (ingress backpressure).
    pub fn send(&self, rec: Record) -> Result<(), SnetError> {
        match self.entry_sender() {
            Some(tx) => tx
                .send(rec)
                .map_err(|_| self.current_error("input channel disconnected")),
            None => Err(SnetError::Engine("input already closed".into())),
        }
    }

    /// Non-blocking send: hands the record back as
    /// [`crate::TrySendError::Full`] instead of blocking when the
    /// bounded entry channel is full.
    #[allow(clippy::result_large_err)] // Full carries the record back by design
    pub fn try_send(&self, rec: Record) -> Result<(), crate::TrySendError> {
        use crossbeam_channel::TrySendError as ChanTrySend;
        match self.entry_sender() {
            Some(tx) => match tx.try_send(rec) {
                Ok(()) => Ok(()),
                Err(ChanTrySend::Full(rec)) => Err(crate::TrySendError::Full(rec)),
                Err(ChanTrySend::Disconnected(_)) => Err(crate::TrySendError::Closed(
                    self.current_error("input channel disconnected"),
                )),
            },
            None => Err(crate::TrySendError::Closed(SnetError::Engine(
                "input already closed".into(),
            ))),
        }
    }

    /// Sends a pre-materialized batch through the bounded entry channel
    /// as one `send_iter`: one channel lock and one receiver wake per
    /// capacity window instead of per record, blocking for space like
    /// [`NetHandle::send`] (this is exactly the batch driver's feed
    /// path, exposed on the streaming handle).
    pub fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError> {
        match self.entry_sender() {
            Some(tx) => tx
                .send_iter(records)
                .map_err(|_| self.current_error("input channel disconnected")),
            None => Err(SnetError::Engine("input already closed".into())),
        }
    }

    /// Closes the input stream (end-of-stream for the network).
    /// Idempotent.
    pub fn close_input(&self) {
        *self.input.lock() = None;
    }

    /// Cancels the run cooperatively: records [`SnetError::Cancelled`],
    /// raises the abort flag every component polls per record, and
    /// closes the input so the teardown cascade reaches every thread.
    /// Outputs already queued remain retrievable via
    /// [`NetHandle::recv`]; [`NetHandle::finish`] returns the error.
    /// Idempotent; a no-op if the run already failed or finished.
    pub fn cancel(&self) {
        self.shared.fail(SnetError::Cancelled);
        self.close_input();
    }

    /// Receives the next output record; `None` once the output stream
    /// has terminated. Checks the deadline and abort flag while
    /// blocked, so a stalled network cannot park the consumer past
    /// `EngineConfig::deadline`.
    pub fn recv(&self) -> Option<Record> {
        loop {
            match self.output.recv_timeout(POLL_INTERVAL) {
                Ok(rec) => return Some(rec),
                Err(RecvTimeoutError::Disconnected) => return None,
                Err(RecvTimeoutError::Timeout) => {
                    if self.shared.should_stop() {
                        // Aborted (cancel / failure / deadline): close
                        // the input so the cascade tears the net down,
                        // then keep draining what is already in flight
                        // until the channel disconnects.
                        self.close_input();
                    }
                }
            }
        }
    }

    /// Non-blocking receive: `None` when nothing is currently queued
    /// (including after termination — use [`NetHandle::recv`] to
    /// distinguish end-of-stream).
    pub fn try_recv(&self) -> Option<Record> {
        self.output.try_recv().ok()
    }

    /// The output stream receiver (for `select!`-style consumers).
    pub fn output(&self) -> &Receiver<Record> {
        &self.output
    }

    /// Non-blocking receive on the run's dead-letter stream. Only
    /// populated under [`FailurePolicy::DeadLetter`]; drain it while
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
        &self.shared.trace
    }

    /// Clonable handle to the run's counters.
    pub fn trace_arc(&self) -> Arc<Trace> {
        Arc::clone(&self.shared.trace)
    }

    /// Waits for every component thread to terminate and reports the
    /// first error raised during the run, if any.
    pub fn finish(self) -> Result<(), SnetError> {
        self.close_input();
        // Drain the output so upstream senders cannot block forever;
        // `recv` keeps enforcing the deadline while blocked.
        while self.recv().is_some() {}
        loop {
            let handle = self.shared.threads.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        match self.shared.error.lock().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn current_error(&self, fallback: &str) -> SnetError {
        self.shared
            .error
            .lock()
            .clone()
            .unwrap_or_else(|| SnetError::Engine(fallback.into()))
    }
}

struct Shared {
    threads: Mutex<Vec<JoinHandle<()>>>,
    error: Mutex<Option<SnetError>>,
    /// Set by the first `fail` (including cancellation and deadline
    /// expiry); components poll it per record and stop cooperatively.
    aborted: AtomicBool,
    /// Absolute deadline, fixed at `start()`.
    deadline_at: Option<Instant>,
    /// Dead-letter sequence-number allocator for this run.
    seq: AtomicU64,
    /// Producer side of the bounded dead-letter stream.
    dead_tx: Sender<DeadLetter>,
    trace: Arc<Trace>,
    config: EngineConfig,
}

impl Shared {
    fn spawn<F: FnOnce() + Send + 'static>(self: &Arc<Self>, name: &str, f: F) {
        let handle = std::thread::Builder::new()
            .name(format!("snet-{name}"))
            .spawn(f)
            .expect("thread spawn");
        self.threads.lock().push(handle);
    }

    fn fail(&self, e: SnetError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.aborted.store(true, Ordering::Relaxed);
    }

    /// Per-record preemption check: true once the run is aborted or
    /// past its deadline (recording `DeadlineExceeded` on first
    /// detection). With no deadline configured this is one relaxed
    /// atomic load.
    fn should_stop(&self) -> bool {
        if self.aborted.load(Ordering::Relaxed) {
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

    /// Routes a diverted record to the dead-letter stream. Never
    /// blocks: the stream is bounded, and overflow (a consumer not
    /// draining) is a fatal engine error rather than a stall; the
    /// component that diverted stops on it.
    fn divert(&self, dl: Box<DeadLetter>) -> Result<(), SnetError> {
        use crossbeam_channel::TrySendError as ChanTrySend;
        Trace::add(&self.trace.dead_letters, 1);
        match self.dead_tx.try_send(*dl) {
            Ok(()) => Ok(()),
            Err(ChanTrySend::Full(dl)) => Err(SnetError::Engine(format!(
                "dead-letter channel overflow (capacity {}); last report: {}",
                self.config.channel_capacity.max(1) * DEAD_CAPACITY_FACTOR,
                dl.report
            ))),
            // Receiver dropped: the caller stopped listening; letters
            // are discarded but the run keeps its contract.
            Err(ChanTrySend::Disconnected(_)) => Ok(()),
        }
    }

    fn chan(&self) -> (Sender<Record>, Receiver<Record>) {
        bounded(self.config.channel_capacity.max(1))
    }
}

/// Recursively instantiates `spec` between `input` and `output`.
fn build(spec: &NetSpec, input: Receiver<Record>, output: Sender<Record>, sh: &Arc<Shared>) {
    match spec {
        NetSpec::Box(def) => spawn_chain(vec![ChainStage::Box(def.clone())], input, output, sh),
        NetSpec::Filter(f) => spawn_chain(vec![ChainStage::Filter(f.clone())], input, output, sh),
        NetSpec::FusedChain { stages } => spawn_chain(stages.clone(), input, output, sh),
        NetSpec::Serial(a, b) => {
            let (mid_tx, mid_rx) = sh.chan();
            build(a, input, mid_tx, sh);
            build(b, mid_rx, output, sh);
        }
        // One bounded channel per parallel branch; every branch writes
        // to a clone of `output`, so the merge is arrival-order — the
        // paper's nondeterministic merger. The threaded engine ignores
        // placement; `snet-dist` honours it on the simulated cluster.
        NetSpec::Parallel { .. }
        | NetSpec::Star { .. }
        | NetSpec::Split { .. }
        | NetSpec::Sync(_) => {
            let router = Router::new(spec, |branch| {
                let (tx, rx) = sh.chan();
                build(branch, rx, output.clone(), sh);
                tx
            })
            .expect("a routing combinator");
            spawn_router(router, input, output, sh);
        }
        NetSpec::At { body, .. } | NetSpec::Named { body, .. } => {
            build(body, input, output, sh);
        }
    }
}

/// One thread for a box, a filter, or a fused chain (a lone box or
/// filter is a one-stage chain): records traverse every stage in-thread
/// through [`run_chain`], with no channel between stages and fault
/// attribution per stage. The ping-pong and output buffers live as long
/// as the thread, so the per-record path reuses their capacity.
fn spawn_chain(
    stages: Vec<ChainStage>,
    input: Receiver<Record>,
    output: Sender<Record>,
    sh: &Arc<Shared>,
) {
    let sh2 = Arc::clone(sh);
    sh.spawn("chain", move || {
        let (mut cur, mut next, mut outs) = (Vec::new(), Vec::new(), Vec::new());
        for rec in input.iter() {
            if sh2.should_stop() {
                break;
            }
            cur.push(rec);
            let mut tally = ChainTally::default();
            let res = run_chain(
                &stages,
                sh2.config.policy,
                sh2.config.mismatch,
                &sh2.seq,
                &mut cur,
                &mut next,
                &mut tally,
                &mut outs,
                &mut |dl| sh2.divert(dl),
            );
            sh2.trace.count_chain(&tally);
            if let Err(e) = res {
                sh2.fail(e);
                break;
            }
            // One `send_iter` per output set: one lock window and one
            // receiver wake. An error means downstream tore down (the
            // cause is recorded elsewhere).
            if output.send_iter(outs.drain(..)).is_err() {
                break;
            }
        }
    });
}

/// One thread for a parallel dispatcher, star tap, index-split
/// dispatcher or synchrocell: the router decides, the thread hands off.
/// Dropping the router's targets and `output` at the end closes every
/// downstream stream.
fn spawn_router(
    mut router: Router<Sender<Record>>,
    input: Receiver<Record>,
    output: Sender<Record>,
    sh: &Arc<Shared>,
) {
    let sh2 = Arc::clone(sh);
    sh.spawn(router.component(), move || {
        let mut wire = Wire {
            out: &output,
            sh: &sh2,
        };
        let (policy, mismatch) = (sh2.config.policy, sh2.config.mismatch);
        for rec in input.iter() {
            if sh2.should_stop() {
                break;
            }
            let res = router.route(rec, policy, mismatch, &sh2.seq, &mut wire);
            sh2.trace.count_route(&router.take_tally());
            if let Err(e) = res {
                sh2.fail(e);
                break;
            }
        }
        sh2.trace.count_route(&router.finish().1);
    });
}

/// A router thread's wiring: bounded channels, with replicas spawned as
/// fresh threads of the same run.
struct Wire<'a> {
    out: &'a Sender<Record>,
    sh: &'a Arc<Shared>,
}

impl Wiring for Wire<'_> {
    type Target = Sender<Record>;

    fn emit(&mut self, rec: Record) -> Result<(), SnetError> {
        hand_off(self.out, rec)
    }

    fn send(&mut self, to: &mut Sender<Record>, rec: Record) -> Result<(), SnetError> {
        hand_off(to, rec)
    }

    fn instantiate(&mut self, replica: Replica<'_, Sender<Record>>) -> Sender<Record> {
        let (tx, rx) = self.sh.chan();
        match replica {
            // The body feeds the next tap, which shares our exit stream.
            Replica::Star { body, tap } => {
                let (next_tx, next_rx) = self.sh.chan();
                build(body, rx, next_tx, self.sh);
                spawn_router(tap, next_rx, self.out.clone(), self.sh);
            }
            Replica::Split { body, .. } => build(body, rx, self.out.clone(), self.sh),
        }
        tx
    }

    fn divert(&mut self, dl: Box<DeadLetter>) -> Result<(), SnetError> {
        self.sh.divert(dl)
    }
}

/// Sends one record downstream. A disconnected receiver means the
/// network is tearing down after an error recorded elsewhere (first
/// recorded error wins), so the failure only stops the sender.
fn hand_off(tx: &Sender<Record>, rec: Record) -> Result<(), SnetError> {
    tx.send(rec)
        .map_err(|_| SnetError::Engine("downstream closed".into()))
}

/// Convenience: total abstract work recorded by a trace.
pub fn traced_ops(trace: &Trace) -> u64 {
    trace.box_ops.load(Ordering::Relaxed)
}

/// Convenience: reads any trace counter.
pub fn counter(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use snet_core::{Pattern, Value, Variant};

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
        let net = Net::new(int_box("double", "x", "x", |x| 2 * x));
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
        let net = Net::new(NetSpec::serial(
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
        // Branch 0 expects {a}, branch 1 expects {b}.
        let net = Net::new(NetSpec::parallel(vec![
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
        // ( [ {<n>} -> {<n = n - 1>} ] ) * {<n> == 0}: decrement until zero.
        let dec = NetSpec::Filter(snet_core::FilterSpec::new(
            Pattern::from_variant(Variant::parse_labels(&[], &["n"])),
            vec![snet_core::filter::OutputTemplate::empty().set_tag(
                "n",
                snet_core::TagExpr::bin(
                    snet_core::BinOp::Sub,
                    snet_core::TagExpr::tag("n"),
                    snet_core::TagExpr::Const(1),
                ),
            )],
        ));
        let exit = Pattern::guarded(
            Variant::empty(),
            snet_core::TagExpr::bin(
                snet_core::BinOp::Eq,
                snet_core::TagExpr::tag("n"),
                snet_core::TagExpr::Const(0),
            ),
        );
        let net = Net::new(NetSpec::star(dec, exit));
        let (outs, trace) = net
            .run_batch_traced(vec![Record::new().with_tag("n", 5)])
            .unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].tag("n"), Some(0));
        assert_eq!(counter(&trace.star_unfoldings), 5);
    }

    #[test]
    fn split_creates_replica_per_tag_value() {
        let net = Net::new(NetSpec::split(int_box("id", "x", "x", |x| x), "k"));
        let recs: Vec<Record> = (0..12)
            .map(|i| {
                Record::new()
                    .with_field("x", Value::Int(i))
                    .with_tag("k", i % 3)
            })
            .collect();
        let (outs, trace) = net.run_batch_traced(recs).unwrap();
        assert_eq!(outs.len(), 12);
        assert_eq!(counter(&trace.split_replicas), 3);
    }

    #[test]
    fn split_without_tag_is_an_error() {
        let net = Net::new(NetSpec::split(int_box("id", "x", "x", |x| x), "k"));
        let err = net
            .run_batch(vec![Record::new().with_field("x", Value::Int(1))])
            .unwrap_err();
        assert_eq!(err, SnetError::MissingTag(snet_core::Label::new("k")));
    }

    #[test]
    fn sync_joins_in_stream() {
        let cell = NetSpec::Sync(snet_core::SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let net = Net::new(cell);
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
        let cell = NetSpec::Sync(snet_core::SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let net = Net::new(cell);
        let (outs, trace) = net
            .run_batch_traced(vec![Record::new().with_field("a", Value::Int(1))])
            .unwrap();
        assert!(outs.is_empty());
        assert_eq!(counter(&trace.sync_stranded), 1);
    }

    #[test]
    fn box_error_propagates() {
        let bad = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("bad", &["x"], &[&["y"]]),
            |_| Err(SnetError::Engine("deliberate".into())),
        ));
        let net = Net::new(bad);
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
        let net = Net::new(bomb);
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
        let net = Net::with_config(
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
    fn streaming_interface_overlaps() {
        let net = Net::new(int_box("inc", "x", "x", |x| x + 1));
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
    fn net_is_reusable_with_fresh_state() {
        // A synchrocell net must not remember fires across runs.
        let cell = NetSpec::Sync(snet_core::SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let net = Net::new(cell);
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
    fn deep_pipeline_respects_backpressure() {
        // Tiny channels + many records: exercises the bounded-channel
        // path without deadlocking.
        let stages: Vec<NetSpec> = (0..8)
            .map(|_| int_box("inc", "x", "x", |x| x + 1))
            .collect();
        let net = Net::with_config(
            NetSpec::pipeline(stages),
            EngineConfig {
                channel_capacity: 1,
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
}
