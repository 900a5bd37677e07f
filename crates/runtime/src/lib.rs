//! # snet-runtime — executing S-Net networks
//!
//! Three engines over the same [`snet_core::NetSpec`] topology and the
//! same shared small-step semantics ([`snet_core::semantics`]), so they
//! cannot drift apart on what a component does to a record. The two
//! concurrent engines present **one execution API**: batch
//! (`run_batch` / `run_batch_traced`) and streaming (`start()` → a
//! handle with `send` / `recv` / `close_input` / `finish`), unified by
//! the [`Engine`] and [`StreamHandle`] traits so tests, benchmarks and
//! applications can be parameterized over the engine.
//!
//! * [`engine::Net`] — the **threaded engine**: every component
//!   instance is an asynchronous OS thread connected by bounded
//!   channels, exactly the paper's model of "asynchronously executed,
//!   stateless stream-processing components" (§III). End-of-stream is
//!   channel disconnect; parallel merge is arrival-order
//!   (nondeterministic, as specified); serial replication unfolds
//!   lazily. [`Net::start`] returns a [`NetHandle`] whose ingress
//!   backpressure is the bounded entry channel itself. Use it as the
//!   *executable rendering of the paper's model* and when components
//!   block on real I/O — but note that its thread count grows with the
//!   unrolled component count, which stops scaling somewhere in the
//!   hundreds of components.
//!
//! * [`sched::SchedNet`] — the **scheduled engine**: the same component
//!   graph as lightweight tasks multiplexed over a **persistent**
//!   work-stealing worker pool ([`EngineConfig::workers`]; default 4).
//!   The pool spawns on the first run and lives until the `SchedNet`
//!   drops, so consecutive batches and any number of streaming runs
//!   reuse the same OS threads — no per-call spawn/join. Chains of
//!   boxes and filters, star taps, index splits, synchrocells and the
//!   sink are tasks: each runs when input is in its mailbox, drains
//!   up to a budget, and yields. Parallel dispatch and the identity
//!   filter `[]` keep no state, so they are no tasks: the sending task
//!   routes or forwards each record itself, in its own activation,
//!   straight into the mailboxes behind them. Where they would feed
//!   another port run in the sender, a zero-stage chain task runs that
//!   port instead, so each sender's copy is one component deep; a
//!   root that would run in the sender gets one as the run's entry
//!   task, so ingress stays one bounded mailbox. End-of-stream is
//!   sender refcounting, and a run's
//!   completion is wake-driven (the sink's finalization signals the
//!   driver — no polling). [`SchedNet::start`] returns a
//!   [`SchedHandle`] with *bounded ingress*: `send` blocks (and
//!   `try_send` reports `Full`) once
//!   [`EngineConfig::channel_capacity`] records are resident in the
//!   entry mailbox, and outputs stream out of a bounded channel as the
//!   sink produces them, so a slow consumer throttles the whole
//!   network instead of buffering unboundedly. This is the default
//!   choice for compute-bound workloads and the base layer for the
//!   scaling work tracked in ROADMAP.md.
//!
//! Both engines (and `snet-dist`) run boxes, filters and fused chains
//! through [`snet_core::fusion::run_chain`], and every parallel
//! dispatcher, star tap, index split and synchrocell through a
//! [`snet_core::Router`], which owns the routing decision and its
//! counters. An engine adds only its [`snet_core::Wiring`]: targets,
//! hand-off, replica instantiation and dead-letter sink. Only
//! [`Interp`], the oracle, walks the combinators on its own.
//!
//! ## Batched hand-off ([`EngineConfig::batch`])
//!
//! Record hand-off in the scheduled engine is **batch-granular**, not
//! record-granular. Every inter-task edge coalesces an activation's
//! output in a producer-side buffer and pushes it downstream as one
//! run: one mailbox lock acquisition and at most one consumer wake per
//! up-to-`batch` records, instead of one of each per record. Input is
//! drained at the same granularity (a task claims up to `batch`
//! records from its mailbox under one lock), the activation budget
//! counts *records* so long streams still yield to siblings, and every
//! activation flushes all of its output edges before yielding — no
//! record is ever stranded in a coalescing buffer while its producer
//! waits. Per-edge FIFO order is preserved exactly; only the lock/wake
//! cadence changes, so the small-step semantics (and the interpreter
//! oracle) are unaffected. `batch = 1` restores the pre-batching
//! record-at-a-time protocol bit for bit.
//!
//! The default (`batch = 32`) was tuned on the serial-pipeline
//! benchmark (`BENCH_batched_handoff.json`; see
//! `crates/bench/src/bin/bench_engines.rs --handoff-out`): on the
//! 16-deep pipeline it runs 1.37x the previous single-record
//! scheduler (1.26x the in-tree `batch = 1` point), and larger
//! batches plateau once the per-record lock cost is amortized away.
//! Under the hood the worker deques are a lock-free Chase–Lev
//! implementation (see the `crossbeam-deque` shim), so stealing no
//! longer serializes on a mutex either. Backpressure is cooperative:
//! a task with any downstream mailbox over the high-water mark — a
//! chain's output, a router's output or any of its built targets, the
//! branches behind a parallel dispatched in the sender — stops
//! consuming and re-enqueues itself with exponential backoff (1µs
//! doubling to ~1ms) rather than spinning on the global queue.
//!
//! ## Operator fusion ([`EngineConfig::fuse`])
//!
//! Before instantiating a network, both concurrent engines rewrite the
//! [`NetSpec`](snet_core::NetSpec) with
//! [`snet_core::fuse`]: every **maximal static SISO chain** — a serial
//! run of boxes and filters with a single input and a single output
//! and no intervening merge point — collapses into one
//! `NetSpec::FusedChain` component. A fused chain is one scheduler
//! task (one thread on the threaded engine): each activation runs its
//! records through *all* stages back-to-back in two ping-pong buffers,
//! so a depth-N pipeline costs zero mailbox hops, locks, or wakes
//! between its stages instead of N−1 of each. Boxes and filters that
//! stay unfused (singletons, or everything under `fuse: false`) run
//! the same way, as one-stage chains: both engines apply box and
//! filter semantics only through
//! [`snet_core::fusion::run_chain`]. Combinator boundaries
//! that can reorder, replicate, or synchronize records —
//! parallel/split dispatch and merge, star unfolding, synchrocells —
//! are never fused across: the branches and replicas on either side
//! stay separate chains (a parallel's dispatch runs in the sending
//! task on the scheduled engine, but hands each record to its branch's
//! own mailbox), so the observable record flow (and the interpreter
//! oracle) is unchanged.
//!
//! Fusion preserves **per-stage fault semantics**: each stage inside a
//! chain still runs under its own [`FailurePolicy`], a
//! `DeadLetter`-diverted record carries the *failing stage's* box name
//! in its [`FailureReport`], `Retry` re-attempts only the failing
//! stage (not the whole chain), and under `FailFast` a panic anywhere
//! in the chain is attributed to the exact stage that raised it. The
//! trace still counts per-stage `box_ops`/`filter_ops` via the chain
//! tally, so fused and unfused runs are indistinguishable to
//! observers. `EngineConfig { fuse: false, .. }` disables the rewrite
//! and runs the chain stage-per-task (a one-stage chain each) — the
//! equivalence property suite
//! (`fusion_equivalence.rs`) holds fused, unfused, and interpreter
//! runs to the same output multisets, dead-letter multisets, and
//! failure attributions. On the depth-16 pipeline benchmark, with both
//! nets on one worker so mailbox hops are the only difference, the
//! fused scheduled engine runs ≥1.2x the unfused one
//! (`BENCH_fusion.json`, gated in CI via `scripts/check_bench.py`).
//!
//! ## Failure semantics
//!
//! Every engine runs each component step under a [`FailurePolicy`] —
//! the engine-wide default is [`EngineConfig::policy`], overridable per
//! box with [`BoxDef::with_policy`](snet_core::BoxDef::with_policy):
//!
//! | Policy | Box error or panic | Glue error (filter, dispatch) |
//! |---|---|---|
//! | `FailFast` (default) | the first error poisons the run; `finish` / `run_batch` report it and in-flight records are dropped | same |
//! | `Retry { max_attempts, backoff }` | the box step is re-attempted on `BoxFailure` (panics are caught and count) with exponential backoff; exhaustion is fatal | never retried — glue errors are deterministic, so this degenerates to `FailFast` |
//! | `DeadLetter` | the offending record is diverted, with a [`FailureReport`], to the run's bounded dead-letter stream and the run continues | diverted too |
//!
//! Dead letters surface three ways: batch runs return them in
//! [`RunReport::dead_letters`] (via [`Engine::run_batch_report`]);
//! streaming runs poll [`StreamHandle::try_recv_dead_letter`]; and the
//! [`Trace`] counts them (`dead_letters`, `retries`). Under
//! `DeadLetter` the outputs plus the diverted records partition the
//! input-derived record set — nothing is silently dropped. **Ordering
//! caveat:** the stream is ordered by divert time, which on the
//! concurrent engines is a race between components; only
//! per-component subsequences (and [`FailureReport::seq`] within one
//! run) are deterministic. The streaming dead-letter channel is
//! bounded; a consumer that never drains it while diversions pile up
//! fails the run with an engine error rather than blocking workers.
//!
//! Runs end early two ways, both cooperative:
//! [`StreamHandle::cancel`] and [`EngineConfig::deadline`]. On either
//! path `finish()` reports [`SnetError::Cancelled`] /
//! [`SnetError::DeadlineExceeded`], outputs already produced stay
//! retrievable (`recv` keeps draining until the output stream
//! disconnects), and the scheduled engine's worker pool stays healthy
//! and reusable — a later run on the same `SchedNet` spawns no new
//! workers. Cancellation points are activation boundaries (plus the
//! batch stride inside long drains), so a box body is never
//! interrupted mid-call: a stalled box delays detection but cannot
//! corrupt state.
//!
//! The [`faultinject`] module provides the deterministic, content-keyed
//! chaos harness the robustness property tests drive these paths with.
//!
//! ## Static analysis
//!
//! Both concurrent engines run the `snet-analyze` abstract interpreter
//! over the topology exactly once, at construction, at one of two
//! levels of precision:
//!
//! * **Open pre-flight** (`Net::with_config` /
//!   `SchedNet::with_config`): the spec is analyzed with an *open*
//!   entry type — no assumption about the input stream — so only
//!   input-independent structural defects can fire. Today that is
//!   SNA006 (`@node` placement outside [`EngineConfig::nodes`]; leave
//!   `nodes` at `None` to skip the range check). A finding is reported
//!   as [`SnetError::Analysis`] from the first run (`run_batch*`, or
//!   `finish()` on a started stream) rather than panicking in the
//!   middle of one.
//! * **Entry-typed analysis** ([`Net::with_entry_type`] /
//!   [`SchedNet::with_entry_type`]): given the input stream's record
//!   type, construction runs the full shape analysis *instead of* the
//!   open pre-flight and *refuses to build* a network with an
//!   error-severity finding — unroutable
//!   records at a parallel (SNA001), synchrocells that can never fire
//!   (SNA003), splits not guaranteed their index tag (SNA004), filters
//!   reading labels the input cannot carry (SNA005). Diagnostics carry
//!   stable `SNA...` codes and component paths; the same codes are
//!   exposed by [`SnetError::diag_code`](snet_core::SnetError::diag_code)
//!   when the equivalent defect is hit *dynamically*, so a runtime
//!   routing failure and its static prediction read as one vocabulary.
//!
//! Acceptance is not just a veto — it is a proof the engines exploit.
//! When the analysis shows that every record reaching a box
//! exact-matches the box's input variant, the box is annotated
//! (`BoxDef::exact_input`) and the shared `box_step` skips its
//! per-record `accepts` check. The soundness contract — anything the
//! reference interpreter routes, the analyzer must not flag, and
//! annotated runs produce bit-identical output multisets — is pinned
//! by the property suite in `tests/analyze_soundness.rs` (256+ random
//! topologies per property) and gated in CI's `analyze` lane; the
//! no-regression guarantee of the fast path is gated through
//! `BENCH_analyze.json` / `bench_gates.toml`. The `snet-lint` binary
//! (crates/apps) runs the same analysis over the paper's application
//! networks.
//!
//! ## Concurrency correctness
//!
//! The scheduled engine's hot paths are lock-free or condvar-gated, and
//! "it passed the stress tests" is not an argument there. Four layers
//! back up the concurrent internals:
//!
//! 1. **Model checking** (`crates/check`, the `snet-check` crate): a
//!    loom-style deterministic scheduler explores thread interleavings
//!    exhaustively (sequentially consistent schedules, preemption-
//!    bounded DFS, deterministic replay of any failing schedule). The
//!    shims' concurrency façade and this crate's mailbox path compile
//!    against `snet_check::sync` under `RUSTFLAGS="--cfg snet_check"`,
//!    so the *real* Chase–Lev deque and channel implementations are
//!    model-checked, not simplified copies
//!    (`cargo test -p snet-check` runs the façade models in every
//!    build; the CI `model-check` lane adds the cfg'd suite). The
//!    checker has already earned its keep: it found a missed-wake
//!    window in `sched.rs::notify` — a producer's push + sleeper-gate
//!    check + notify could land entirely between a parking worker's
//!    injector re-probe and its condvar wait, burning the 1ms timed
//!    backstop. The fix (lock-then-notify) and the failing protocol are
//!    both pinned in `crates/check/tests/mailbox.rs`.
//! 2. **Weak-memory coverage**: the model runs SeqCst-only, so the CI
//!    `tsan` lane races the deque and the scheduler's streaming suite
//!    under ThreadSanitizer, and the `miri` lane runs the value/record
//!    and smallvec layers under Miri for UB beyond data races.
//! 3. **Unsafe audit**: the only crates allowed to contain `unsafe`
//!    are the two shims with lock-free/inline-buffer internals and the
//!    model checker. All of them `#![deny(unsafe_op_in_unsafe_fn)]`,
//!    every unsafe block carries a `SAFETY:` comment, and
//!    `scripts/check_unsafe.py` fails CI on any unsafe block without
//!    one — or any unsafe in a crate outside that allowlist. This
//!    crate is `#![forbid(unsafe_code)]`.
//! 4. **Interleaving stress**: the deque's `steal_race.rs` drives the
//!    2- and 3-thread last-element races and growth/steal overlap with
//!    barrier-released replays; the fault-injection harness churns the
//!    failure paths.
//!
//! * [`interp::Interp`] — the **deterministic reference interpreter**:
//!   single-threaded, FIFO scheduling, first-declared tie-breaks. It is
//!   the executable semantics used as an oracle in property tests (both
//!   concurrent engines must produce the same output *multiset* on
//!   confluent networks, batch or streamed). Use it for debugging and
//!   as ground truth — never for performance.
//!
//! ## Memory & scale
//!
//! Streaming memory is bounded by configuration, not by stream length,
//! and the steady-state hot path allocates **nothing per record**.
//!
//! **Pooling** (`snet_core::pool`): the scheduled engine's steady state
//! cycles a fixed set of buffer shapes — the `Vec<Record>` a task
//! drains its mailbox into each activation (which is also a chain
//! task's input), the ping-pong scratch a multi-stage chain's
//! activation borrows, the coalescing buffer of every producer port
//! (which a chain's last stage writes into), the sink's delivery
//! window, and the
//! `VecDeque<Record>` backing every mailbox. All of them are drawn from
//! and returned to per-thread freelists (with a bounded cross-thread
//! spill), so after warm-up an activation reuses warmed capacity
//! instead of touching the allocator. Recycling is best-effort and
//! capacity-capped: oversized buffers are dropped rather than pinned,
//! and a pool miss just allocates — correctness never depends on the
//! pool. What is *not* recycled: record payloads themselves (fields own
//! their values; short records live inline via smallvec and never hit
//! the heap), the bounded ingress/egress channels' internal queues
//! (amortized by the channel, retained for the run's lifetime), and
//! per-run setup (task graph, trace) — which is why the guarantee is
//! *steady-state* allocation freedom, proven by the counting-allocator
//! test `tests/alloc_steady.rs`: a depth-16 fused chain streams 50k
//! records on ~100 total allocations (0 per record), and the unfused
//! path is a flat constant too.
//!
//! **The RSS ceiling**: with `cap = channel_capacity` and `C` tasks
//! in the run's graph, records in flight are bounded by
//!
//! ```text
//! in_flight  <=  cap              (ingress channel)
//!             +  C * 16 * cap     (per-task mailbox high-water)
//!             +  16 * cap         (the sink's undelivered records)
//!             +  cap              (egress channel)
//! ```
//!
//! (plus, per task, an activation's claimed input and output and one
//! hand-off batch of slop per edge). The bound holds because *every*
//! task backs off: a chain, star tap, split or synchrocell stops
//! consuming while its output or any target it has built is at the
//! high-water mark (a parallel or `[]` run in the sender counts as
//! the mailboxes behind it), and a streaming sink stops while it holds
//! a high-water mark of undelivered records, or any with the output
//! channel full. Peak RSS above the binary-plus-pool baseline is
//! therefore `O(in_flight * record_size)` — a function of topology
//! and configuration only. `tests/memory_soak.rs` pins it: a million
//! records through a throttled depth-8 pipeline grow peak RSS by
//! ~2 MiB, and `tests/sched_streaming.rs` holds the records resident
//! behind a root parallel, a box feeding a parallel and a root split
//! under the same bound. At macro scale the same holds across many
//! concurrent sessions on one pool: the gated
//! `crates/bench/src/bin/macro_scale.rs` harness streams >= 1M records
//! over 8 sessions and reports sustained throughput, p50/p99
//! end-to-end latency (timestamp-on-ingress tag), and peak RSS into
//! `BENCH_macro_scale.json`, with cross-machine backstops enforced from
//! `bench_gates.toml` in CI (reduced-record smoke mode; the metrics are
//! rates and ceilings, so the record count does not change their
//! meaning).
//!
//! ## One API, two engines
//!
//! ```
//! use snet_core::{NetSpec, Record, Value, BoxOutput, Work};
//! use snet_core::boxdef::{BoxDef, BoxSig};
//! use snet_runtime::{Engine, Net, SchedNet, StreamHandle};
//!
//! let double = NetSpec::Box(BoxDef::from_fn(
//!     BoxSig::parse("double", &["x"], &[&["x"]]),
//!     |r| {
//!         let x = r.field("x").and_then(|v| v.as_int()).unwrap();
//!         Ok(BoxOutput::one(Record::new().with_field("x", Value::Int(2 * x)), Work::ZERO))
//!     },
//! ));
//!
//! // The same streaming code drives either engine:
//! fn stream_one<E: Engine>(engine: &E, x: i64) -> i64 {
//!     let h = engine.start();
//!     h.send(Record::new().with_field("x", Value::Int(x))).unwrap();
//!     let out = h.recv().expect("one output");
//!     h.finish().unwrap();
//!     out.field("x").unwrap().as_int().unwrap()
//! }
//! assert_eq!(stream_one(&Net::new(double.clone()), 21), 42);   // thread per component
//! assert_eq!(stream_one(&SchedNet::new(double), 21), 42);      // persistent worker pool
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod faultinject;
pub mod interp;
pub mod sched;
pub mod trace;

pub use engine::{EngineConfig, Net, NetHandle};
pub use faultinject::{chaos, chaos_with_stats, ChaosStats, FaultKind, FaultSpec};
pub use interp::{Interp, InterpResult};
pub use sched::{SchedHandle, SchedNet, TrySendError};
pub use trace::Trace;

pub use snet_core::fault::{DeadLetter, FailurePolicy, FailureReport};

use snet_core::{NetSpec, Record, SnetError};
use std::sync::Arc;

/// Everything a batch run produced: the surviving outputs, the records
/// diverted under [`FailurePolicy::DeadLetter`] (with their
/// [`FailureReport`]s), and the run's event counters.
///
/// Under `DeadLetter`, `outputs` plus the input-derived records behind
/// `dead_letters` partition the record set the fault-free run would
/// have produced — nothing is silently dropped. Under the other
/// policies `dead_letters` is always empty.
#[derive(Debug)]
pub struct RunReport {
    /// Output records in arrival order.
    pub outputs: Vec<Record>,
    /// Records diverted to the dead-letter stream, in divert order.
    pub dead_letters: Vec<DeadLetter>,
    /// The run's event counters.
    pub trace: Arc<Trace>,
}

/// A running network instance accepting an input stream and producing
/// an output stream, independent of which engine executes it.
///
/// Both halves take `&self`, so a producer thread can [`send`] while a
/// consumer thread [`recv`]s through a shared reference — the shape
/// [`run_stream`] uses. Ingress is bounded on both engines (the
/// threaded engine's entry channel, the scheduled engine's entry
/// mailbox cap), so `send` exerts real backpressure on the producer.
///
/// [`send`]: StreamHandle::send
/// [`recv`]: StreamHandle::recv
pub trait StreamHandle: Send + Sync {
    /// Sends one record into the network, blocking while the bounded
    /// ingress is full. Fails once the input is closed or the run has
    /// failed.
    fn send(&self, rec: Record) -> Result<(), SnetError>;

    /// Non-blocking send: hands the record back as
    /// [`TrySendError::Full`] instead of blocking when the bounded
    /// ingress is full.
    #[allow(clippy::result_large_err)] // Full carries the record back by design
    fn try_send(&self, rec: Record) -> Result<(), TrySendError>;

    /// Sends a pre-materialized batch, still against the bounded
    /// ingress: implementations deliver in capacity-sized windows (one
    /// lock/wake per window) and block for drain space between windows,
    /// so resident records stay within the configured bound. The
    /// default just loops [`StreamHandle::send`].
    fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError> {
        for rec in records {
            self.send(rec)?;
        }
        Ok(())
    }

    /// Closes the input stream (end-of-stream for the network).
    /// Idempotent.
    fn close_input(&self);

    /// Requests cooperative cancellation: the run fails with
    /// [`SnetError::Cancelled`] (reported by
    /// [`finish`](StreamHandle::finish)), components stop at their next
    /// cancellation point, and outputs already produced remain
    /// drainable via [`recv`](StreamHandle::recv). Idempotent; a no-op
    /// after the run completed.
    fn cancel(&self);

    /// Non-blocking receive on the run's dead-letter stream: the next
    /// record diverted under [`FailurePolicy::DeadLetter`], or `None`
    /// when nothing is queued. Streaming consumers should poll this
    /// alongside [`try_recv`](StreamHandle::try_recv) — the stream is
    /// bounded, and letting it fill while diversions continue fails
    /// the run.
    fn try_recv_dead_letter(&self) -> Option<DeadLetter>;

    /// Receives the next output record; `None` once the output stream
    /// has terminated.
    fn recv(&self) -> Option<Record>;

    /// Non-blocking receive: `None` when nothing is currently queued
    /// (including after termination — use [`StreamHandle::recv`] to
    /// distinguish end-of-stream).
    fn try_recv(&self) -> Option<Record>;

    /// Runs at most one unit of engine work on the calling thread, if
    /// the engine supports caller-runs helping (the scheduled engine
    /// does; the threaded engine has no task queue and returns `false`).
    /// Streaming drivers call this instead of blocking when the ingress
    /// is full and nothing is drainable.
    fn drive(&self) -> bool {
        false
    }

    /// Clonable handle to the run's event counters.
    fn trace_arc(&self) -> Arc<Trace>;

    /// Closes the input, drains remaining output, waits for the run to
    /// terminate, and reports the first error raised during the run.
    fn finish(self) -> Result<(), SnetError>
    where
        Self: Sized;
}

/// An S-Net execution engine: something that can run a [`NetSpec`]
/// either as a one-shot batch or as a stream via a [`StreamHandle`].
///
/// Implemented by the threaded engine ([`Net`]) and the scheduled
/// engine ([`SchedNet`]), letting tests, benchmarks and applications be
/// parameterized over the engine.
pub trait Engine {
    /// The engine's streaming handle type.
    type Handle: StreamHandle;

    /// Engine name for labels in tests and benchmark output.
    fn name(&self) -> &'static str;

    /// The underlying topology.
    fn spec(&self) -> &NetSpec;

    /// Instantiates the network and returns a streaming handle.
    fn start(&self) -> Self::Handle;

    /// Feeds a batch of records and collects the complete output
    /// stream (arrival order).
    fn run_batch(&self, records: Vec<Record>) -> Result<Vec<Record>, SnetError>;

    /// Like [`Engine::run_batch`] but also returns the run's [`Trace`].
    fn run_batch_traced(
        &self,
        records: Vec<Record>,
    ) -> Result<(Vec<Record>, Arc<Trace>), SnetError>;

    /// Full-fidelity batch run: outputs, dead letters, and trace in one
    /// [`RunReport`]. This is the entry point for
    /// [`FailurePolicy::DeadLetter`] batch runs — the plainer
    /// `run_batch*` forms discard the diverted records.
    fn run_batch_report(&self, records: Vec<Record>) -> Result<RunReport, SnetError>;
}

impl StreamHandle for NetHandle {
    fn send(&self, rec: Record) -> Result<(), SnetError> {
        NetHandle::send(self, rec)
    }
    #[allow(clippy::result_large_err)]
    fn try_send(&self, rec: Record) -> Result<(), TrySendError> {
        NetHandle::try_send(self, rec)
    }
    fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError> {
        NetHandle::send_all(self, records)
    }
    fn close_input(&self) {
        NetHandle::close_input(self)
    }
    fn cancel(&self) {
        NetHandle::cancel(self)
    }
    fn try_recv_dead_letter(&self) -> Option<DeadLetter> {
        NetHandle::try_recv_dead_letter(self)
    }
    fn recv(&self) -> Option<Record> {
        NetHandle::recv(self)
    }
    fn try_recv(&self) -> Option<Record> {
        NetHandle::try_recv(self)
    }
    fn trace_arc(&self) -> Arc<Trace> {
        NetHandle::trace_arc(self)
    }
    fn finish(self) -> Result<(), SnetError> {
        NetHandle::finish(self)
    }
}

impl StreamHandle for SchedHandle {
    fn send(&self, rec: Record) -> Result<(), SnetError> {
        SchedHandle::send(self, rec)
    }
    #[allow(clippy::result_large_err)]
    fn try_send(&self, rec: Record) -> Result<(), TrySendError> {
        SchedHandle::try_send(self, rec)
    }
    fn send_all(&self, records: Vec<Record>) -> Result<(), SnetError> {
        SchedHandle::send_all(self, records)
    }
    fn close_input(&self) {
        SchedHandle::close_input(self)
    }
    fn cancel(&self) {
        SchedHandle::cancel(self)
    }
    fn try_recv_dead_letter(&self) -> Option<DeadLetter> {
        SchedHandle::try_recv_dead_letter(self)
    }
    fn recv(&self) -> Option<Record> {
        SchedHandle::recv(self)
    }
    fn try_recv(&self) -> Option<Record> {
        SchedHandle::try_recv(self)
    }
    fn drive(&self) -> bool {
        SchedHandle::drive(self)
    }
    fn trace_arc(&self) -> Arc<Trace> {
        SchedHandle::trace_arc(self)
    }
    fn finish(self) -> Result<(), SnetError> {
        SchedHandle::finish(self)
    }
}

impl Engine for Net {
    type Handle = NetHandle;

    fn name(&self) -> &'static str {
        "threaded"
    }
    fn spec(&self) -> &NetSpec {
        Net::spec(self)
    }
    fn start(&self) -> NetHandle {
        Net::start(self)
    }
    fn run_batch(&self, records: Vec<Record>) -> Result<Vec<Record>, SnetError> {
        Net::run_batch(self, records)
    }
    fn run_batch_traced(
        &self,
        records: Vec<Record>,
    ) -> Result<(Vec<Record>, Arc<Trace>), SnetError> {
        Net::run_batch_traced(self, records)
    }
    fn run_batch_report(&self, records: Vec<Record>) -> Result<RunReport, SnetError> {
        Net::run_batch_report(self, records)
    }
}

impl Engine for SchedNet {
    type Handle = SchedHandle;

    fn name(&self) -> &'static str {
        "sched"
    }
    fn spec(&self) -> &NetSpec {
        SchedNet::spec(self)
    }
    fn start(&self) -> SchedHandle {
        SchedNet::start(self)
    }
    fn run_batch(&self, records: Vec<Record>) -> Result<Vec<Record>, SnetError> {
        SchedNet::run_batch(self, records)
    }
    fn run_batch_traced(
        &self,
        records: Vec<Record>,
    ) -> Result<(Vec<Record>, Arc<Trace>), SnetError> {
        SchedNet::run_batch_traced(self, records)
    }
    fn run_batch_report(&self, records: Vec<Record>) -> Result<RunReport, SnetError> {
        SchedNet::run_batch_report(self, records)
    }
}

/// Streams a batch of records through an engine: a feeder thread pushes
/// them against the handle's bounded ingress
/// ([`StreamHandle::send_all`], capacity-window granularity) while the
/// calling thread drains the output, then the run is finished and the
/// collected outputs returned.
///
/// This is the streaming analogue of [`Engine::run_batch`] — same
/// inputs, same output multiset on confluent nets, but bounded
/// residency instead of a materialized entry backlog — and is what the
/// equivalence property tests and the streaming benchmark drive.
pub fn run_stream<E: Engine>(engine: &E, records: Vec<Record>) -> Result<Vec<Record>, SnetError> {
    let handle = engine.start();
    let mut outs = Vec::new();
    std::thread::scope(|s| {
        let h = &handle;
        s.spawn(move || {
            // A send error means the run failed; finish() reports why.
            let _ = h.send_all(records);
            h.close_input();
        });
        while let Some(rec) = h.recv() {
            outs.push(rec);
        }
    });
    handle.finish()?;
    Ok(outs)
}

/// Single-threaded streaming driver: pushes records through the bounded
/// ingress and drains outputs on the calling thread, never parking
/// while input remains. A full ingress triggers an output drain; if
/// nothing is drainable either, the thread *yields* to the engine's
/// workers instead of doing a condvar round trip.
///
/// Residency stays bounded exactly like [`run_stream`] (`try_send`
/// refuses to exceed the ingress capacity), but no feeder or consumer
/// thread exists to ping-pong with the workers, and the workers never
/// pay an ingress wakeup — on a loaded or single-core host those
/// per-window context switches are what separates streaming from
/// batch-mode throughput. Prefer this when one thread both produces
/// and consumes the stream; prefer [`run_stream`] (or a hand-rolled
/// producer thread) when production and consumption are naturally
/// concurrent.
pub fn run_stream_interleaved<E: Engine>(
    engine: &E,
    records: Vec<Record>,
) -> Result<Vec<Record>, SnetError> {
    let handle = engine.start();
    let mut outs = Vec::new();
    'feed: for rec in records {
        let mut pending = rec;
        loop {
            match handle.try_send(pending) {
                Ok(()) => break,
                Err(TrySendError::Full(back)) => {
                    pending = back;
                    let mut drained = false;
                    while let Some(out) = handle.try_recv() {
                        outs.push(out);
                        drained = true;
                    }
                    if !drained && !handle.drive() {
                        // Ingress full, nothing to drain, no task to
                        // help with: the pipeline is mid-flight on the
                        // workers. Hand them the CPU.
                        std::thread::yield_now();
                    }
                }
                // The run failed; stop feeding and let finish() report.
                Err(TrySendError::Closed(_)) => break 'feed,
            }
        }
    }
    handle.close_input();
    // Tail drain, still helping: run leftover engine work in place and
    // only block on `recv` when there is truly nothing else to do.
    loop {
        if let Some(rec) = handle.try_recv() {
            outs.push(rec);
        } else if !handle.drive() {
            match handle.recv() {
                Some(rec) => outs.push(rec),
                None => break,
            }
        }
    }
    handle.finish()?;
    Ok(outs)
}
