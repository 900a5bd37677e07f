//! # snet-dist — Distributed S-Net on the simulated cluster
//!
//! Executes an [`snet_core::NetSpec`] on the deterministic
//! discrete-event cluster of `snet-simnet`, honouring the Distributed
//! S-Net placement combinators: `A @ n` pins a subtree to node `n`, and
//! `A !@ <tag>` places each index replica on the node named by its tag
//! value (modulo the cluster size), exactly the prototype's "numbers
//! correspond to MPI task identifiers" (§III).
//!
//! Every component instance runs as a simulated process on its node.
//! Box invocations execute the *real* box function (the ray tracer
//! actually renders) and charge the reported abstract work as virtual
//! CPU time on the hosting node; record hand-offs charge the
//! [`OverheadModel`]'s per-hop glue cost on the sending node's CPU and
//! the record's wire size on the network (NIC serialization + link
//! latency across nodes, memory-copy cost within a node). The result is
//! a virtual-time makespan comparable against the hand-written MPI
//! baseline running on the same simulated hardware — the measurement
//! the paper's §V figures are built from.
//!
//! The engine shares its record paths with the threaded and scheduled
//! engines: every box and filter process runs its component as a
//! one-stage [`snet_core::run_chain`] per record, and every parallel
//! dispatcher, star tap, index-split dispatcher and synchrocell process
//! routes through a [`snet_core::Router`], under `FailFast` and the
//! permissive mismatch policy. Both rest on the small-step semantics of
//! `snet_core::semantics` that the reference interpreter uses too, so a
//! network means the same thing on all four substrates; this crate only
//! adds *where* things run and *what they cost* — its
//! [`snet_core::Wiring`] charges every hand-off through the
//! [`OverheadModel`], and a fused chain expands back to one process per
//! stage.

use parking_lot::Mutex;
use snet_core::fault::{DeadLetter, FailurePolicy};
use snet_core::semantics::MismatchPolicy;
use snet_core::value::AnyData;
use snet_core::{
    run_chain, ChainStage, ChainTally, NetSpec, Record, Replica, RouteTally, Router, SnetError,
    Value, Wiring,
};
use snet_simnet::{Cluster, ClusterSpec, SimCtx, SimError, SimHandle, SimQueue, Simulation};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ------------------------------------------------------------ overhead

/// The S-Net runtime's per-record cost model.
///
/// The paper reports that S-Net's coordination overhead is visible on
/// one node and amortized from two nodes on (§V); this model makes that
/// overhead an explicit, tunable quantity instead of an accident of the
/// host machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverheadModel {
    /// Abstract CPU operations charged on the *sending* node for every
    /// record hop between components (stream hand-off, type match,
    /// dispatch bookkeeping). The unit is the same "op" the application
    /// work counters use, converted to seconds by
    /// [`ClusterSpec::cpu_ops_per_sec`].
    pub hop_ops: u64,
}

impl OverheadModel {
    /// No per-record runtime cost at all: isolates scheduling and
    /// transport effects (used by tests that check pure load-balancing
    /// properties).
    pub fn zero() -> OverheadModel {
        OverheadModel { hop_ops: 0 }
    }
}

impl Default for OverheadModel {
    /// Calibrated so that on the paper-shaped testbed the static S-Net
    /// net pays a real but bounded premium over the hand-written MPI
    /// baseline (§V: visible on 1 node, amortized from 2 on), while the
    /// dynamic net's merger chain does not drown its load-balancing win
    /// at the fig6 default resolution.
    fn default() -> OverheadModel {
        OverheadModel { hop_ops: 4_000 }
    }
}

// --------------------------------------------------------------- stats

/// Runtime counters of one cluster run (deterministic across repeated
/// runs of the same program).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Records handed between components (every edge traversal).
    pub records_hopped: u64,
    /// Abstract ops charged for runtime glue (hops, dispatch).
    pub glue_ops: u64,
    /// Abstract ops reported by box invocations.
    pub box_ops: u64,
    /// Bytes that crossed the simulated network (inter-node only).
    pub wire_bytes: u64,
    /// Synchrocell stores.
    pub sync_stores: u64,
    /// Synchrocell fires (merges emitted).
    pub sync_fires: u64,
    /// Records stranded in unfired synchrocells at end-of-stream.
    pub sync_stranded: u64,
    /// Star replica instantiations.
    pub star_unfoldings: u64,
    /// Index-split replica instantiations.
    pub split_replicas: u64,
    /// Records routed by dispatchers.
    pub dispatched: u64,
    /// Records forwarded past a non-matching component.
    pub passthroughs: u64,
}

impl StatsSnapshot {
    fn count_chain(&mut self, t: &ChainTally) {
        self.box_ops += t.box_ops;
        self.passthroughs += t.passthroughs;
    }

    fn count_route(&mut self, t: &RouteTally) {
        self.dispatched += t.dispatched;
        self.passthroughs += t.passthroughs;
        self.sync_stores += t.sync_stores;
        self.sync_fires += t.sync_fires;
        self.sync_stranded += t.sync_stranded;
        self.star_unfoldings += t.star_unfoldings;
        self.split_replicas += t.split_replicas;
    }
}

// -------------------------------------------------------------- result

/// Result of one simulated cluster run.
#[derive(Debug)]
pub struct RunResult {
    /// Virtual makespan (time of the last processed event).
    pub makespan: Duration,
    /// Records that left the network, in virtual-arrival order.
    pub outputs: Vec<Record>,
    /// Runtime counters.
    pub stats: StatsSnapshot,
    /// Discrete events processed.
    pub events: u64,
    /// Simulated processes instantiated.
    pub processes: usize,
    /// Per-node CPU busy time in seconds (idle time = load imbalance).
    pub cpu_busy_secs: Vec<f64>,
}

// -------------------------------------------------------------- engine

/// A shared-ownership sender onto a component's input stream.
///
/// Closes the underlying queue when the *last* sender closes — the
/// discrete-event equivalent of dropping the last `Sender` clone in the
/// threaded engine.
struct Tx {
    q: SimQueue<Record>,
    senders: Arc<AtomicUsize>,
    /// Node hosting the consumer (transfer costs are charged from the
    /// sender's node to this one).
    dst_node: usize,
}

impl Tx {
    fn new(q: SimQueue<Record>, dst_node: usize) -> Tx {
        Tx {
            q,
            senders: Arc::new(AtomicUsize::new(1)),
            dst_node,
        }
    }

    fn another(&self) -> Tx {
        self.senders.fetch_add(1, Ordering::AcqRel);
        Tx {
            q: self.q.clone(),
            senders: Arc::clone(&self.senders),
            dst_node: self.dst_node,
        }
    }

    fn close(self) {
        if self.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.q.close();
        }
    }
}

struct Env {
    handle: SimHandle,
    cluster: Cluster,
    overhead: OverheadModel,
    stats: Mutex<StatsSnapshot>,
    error: Arc<Mutex<Option<SnetError>>>,
    nodes: usize,
    /// Shared (`Arc`ed) payloads already resident on each node, keyed
    /// by pointer identity and *holding* the payload: keeping the `Arc`
    /// alive pins its address for the whole run, so a recycled
    /// allocation can never alias a cached key (which would silently
    /// undercharge transfers and break run determinism). A payload
    /// crosses the wire to a node at most once — the transport
    /// equivalent of the MPI baseline broadcasting the scene once per
    /// node instead of once per section. Intra-node hand-off of shared
    /// payloads is a pointer pass (the copy work the application *does*
    /// perform — chunk blits, image assembly — is charged by the boxes
    /// themselves as `Work`).
    resident: Vec<Mutex<HashMap<usize, Arc<dyn AnyData>>>>,
}

impl Env {
    fn queue(&self, name: &str) -> SimQueue<Record> {
        SimQueue::new(&self.handle, name)
    }

    /// Records a failure and aborts the hosting process; the simulation
    /// kernel tears the remaining processes down.
    fn fail(&self, e: SnetError) -> ! {
        let msg = e.to_string();
        {
            let mut slot = self.error.lock();
            if slot.is_none() {
                *slot = Some(e);
            }
        }
        panic!("snet-dist component aborted: {msg}");
    }

    /// The bytes this hop actually moves: per-label framing plus every
    /// payload not already resident on the destination node. Shared
    /// (`Arc`ed) payloads are recorded as resident once delivered — and
    /// on the sender's node too (it evidently holds them), so a payload
    /// returning to its origin is never billed.
    fn billable_bytes(&self, rec: &Record, from: usize, to: usize) -> usize {
        let mut bytes = 0usize;
        for (_, v) in rec.fields() {
            bytes += 8; // label id + discriminant framing
            if let Value::Data(d) = v {
                let key = Arc::as_ptr(d) as *const u8 as usize;
                self.resident[from]
                    .lock()
                    .entry(key)
                    .or_insert_with(|| Arc::clone(d));
                if from == to {
                    // Pointer hand-off within a node.
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) =
                    self.resident[to].lock().entry(key)
                {
                    e.insert(Arc::clone(d));
                    bytes += v.approx_bytes();
                }
                continue;
            }
            bytes += v.approx_bytes();
        }
        bytes + rec.tags().count() * 16
    }

    /// Hands one record from a component on `from` to the consumer of
    /// `tx`: glue CPU cost on the sender, wire/memcpy cost on the path,
    /// delivery after the link latency.
    fn send(&self, ctx: &SimCtx, from: usize, tx: &Tx, rec: Record) {
        self.send_inner(ctx, from, tx, rec, true);
    }

    /// Like [`Env::send`] but without the glue CPU charge — for
    /// components the S-Net runtime splices out of the stream graph
    /// (fired synchrocells, identity filters), which forward records
    /// without touching them. Transport costs still apply.
    fn forward(&self, ctx: &SimCtx, from: usize, tx: &Tx, rec: Record) {
        self.send_inner(ctx, from, tx, rec, false);
    }

    fn send_inner(&self, ctx: &SimCtx, from: usize, tx: &Tx, rec: Record, glue: bool) {
        self.stats.lock().records_hopped += 1;
        if glue && self.overhead.hop_ops > 0 {
            self.cluster.compute(ctx, from, self.overhead.hop_ops);
            self.stats.lock().glue_ops += self.overhead.hop_ops;
        }
        let bytes = self.billable_bytes(&rec, from, tx.dst_node);
        if from != tx.dst_node {
            self.stats.lock().wire_bytes += bytes as u64;
        }
        let delay = self.cluster.transfer(ctx, from, tx.dst_node, bytes);
        tx.q.send_delayed(rec, delay);
    }

    fn place(&self, node: u32) -> usize {
        node as usize % self.nodes
    }

    fn place_tag(&self, value: i64) -> usize {
        value.rem_euclid(self.nodes as i64) as usize
    }
}

/// The node whose CPU consumes a subtree's input stream (where its
/// first component lives). Parents use it to charge transfer costs for
/// the edge feeding the subtree.
fn home_node(spec: &NetSpec, current: usize, nodes: usize) -> usize {
    match spec {
        NetSpec::At { body, node } => home_node(body, *node as usize % nodes, nodes),
        NetSpec::Named { body, .. } => home_node(body, current, nodes),
        NetSpec::Serial(a, _) => home_node(a, current, nodes),
        _ => current,
    }
}

/// Runs `spec` on a simulated cluster, feeding `inputs` from node 0 and
/// reporting the virtual makespan, outputs, and runtime counters.
pub fn run_on_cluster(
    spec: &NetSpec,
    inputs: Vec<Record>,
    cluster_spec: ClusterSpec,
    overhead: OverheadModel,
) -> Result<RunResult, SnetError> {
    assert!(cluster_spec.nodes > 0, "cluster needs at least one node");
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.handle(), cluster_spec);
    let env = Arc::new(Env {
        handle: sim.handle().clone(),
        cluster: cluster.clone(),
        overhead,
        stats: Mutex::default(),
        error: Arc::new(Mutex::new(None)),
        nodes: cluster_spec.nodes,
        resident: (0..cluster_spec.nodes)
            .map(|_| Mutex::new(HashMap::new()))
            .collect(),
    });

    // Output collector on node 0 (the master assembles results).
    let out_q = env.queue("net-output");
    let outputs: Arc<Mutex<Vec<Record>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let out_q = out_q.clone();
        let outputs = Arc::clone(&outputs);
        sim.spawn("collector", move |ctx| {
            while let Some(rec) = out_q.recv(ctx) {
                outputs.lock().push(rec);
            }
        });
    }

    // The network between entry queue and collector.
    let entry_home = home_node(spec, 0, env.nodes);
    let entry_q = env.queue("net-input");
    build(spec, entry_q.clone(), Tx::new(out_q, 0), 0, &env);

    // Feeder: the master injects the input stream.
    {
        let env = Arc::clone(&env);
        let entry_tx = Tx::new(entry_q, entry_home);
        sim.spawn("feeder", move |ctx| {
            for rec in inputs {
                env.send(ctx, 0, &entry_tx, rec);
            }
            entry_tx.close();
        });
    }

    let report = match sim.run() {
        Ok(report) => report,
        Err(sim_err) => {
            // A component failure is recorded before the process aborts;
            // prefer the precise S-Net error over the kernel's report.
            if let Some(e) = env.error.lock().take() {
                return Err(e);
            }
            return Err(match sim_err {
                SimError::Deadlock { at, blocked } => SnetError::Engine(format!(
                    "cluster run deadlocked at {at}: {}",
                    blocked.join("; ")
                )),
                SimError::ProcessPanic { name, message } => {
                    SnetError::Engine(format!("cluster process `{name}` panicked: {message}"))
                }
            });
        }
    };
    if let Some(e) = env.error.lock().take() {
        return Err(e);
    }

    let outputs = std::mem::take(&mut *outputs.lock());
    let stats = *env.stats.lock();
    Ok(RunResult {
        makespan: Duration::from_nanos(report.end_time.as_nanos()),
        outputs,
        stats,
        events: report.events,
        processes: report.processes,
        cpu_busy_secs: cluster.cpu_busy().iter().map(|d| d.as_secs_f64()).collect(),
    })
}

/// Recursively instantiates `spec` between `input` and `output` as
/// simulated processes, with the subtree hosted on `node` unless a
/// placement combinator overrides it.
fn build(spec: &NetSpec, input: SimQueue<Record>, output: Tx, node: usize, env: &Arc<Env>) {
    match spec {
        NetSpec::FusedChain { stages } => {
            // Fusion is an execution-plan artifact of the shared-memory
            // engines; the simulated cluster models one process per
            // component, so a chain expands back to the serial
            // composition it denotes (same processes, same hop costs).
            let serial = NetSpec::pipeline(stages.iter().map(|s| match s {
                ChainStage::Box(def) => NetSpec::Box(def.clone()),
                ChainStage::Filter(f) => NetSpec::Filter(f.clone()),
            }));
            build(&serial, input, output, node, env);
        }
        NetSpec::Box(def) => spawn_stage(ChainStage::Box(def.clone()), input, output, node, env),
        NetSpec::Filter(f) => spawn_stage(ChainStage::Filter(f.clone()), input, output, node, env),
        NetSpec::Serial(a, b) => {
            let mid_home = home_node(b, node, env.nodes);
            let mid = env.queue("serial-mid");
            build(a, input, Tx::new(mid.clone(), mid_home), node, env);
            build(b, mid, output, node, env);
        }
        NetSpec::Parallel { .. }
        | NetSpec::Star { .. }
        | NetSpec::Split { .. }
        | NetSpec::Sync(_) => {
            let router = Router::new(spec, |branch| {
                let bq = env.queue("par-branch");
                let bhome = home_node(branch, node, env.nodes);
                build(branch, bq.clone(), output.another(), node, env);
                Tx::new(bq, bhome)
            })
            .expect("a routing combinator");
            spawn_router(router, input, output, node, env);
        }
        NetSpec::At { body, node: n } => {
            let placed = env.place(*n);
            build(body, input, output, placed, env);
        }
        NetSpec::Named { body, .. } => build(body, input, output, node, env),
    }
}

/// One process per box or filter, running it as a one-stage chain per
/// record; a matched box's reported work occupies this node's CPU. The
/// compiler splices identity filters (`[]`) out of the stream graph;
/// they forward records at zero glue cost.
fn spawn_stage(
    stage: ChainStage,
    input: SimQueue<Record>,
    output: Tx,
    node: usize,
    env: &Arc<Env>,
) {
    let name = match &stage {
        ChainStage::Box(def) => format!("box-{}@{node}", def.sig.name),
        ChainStage::Filter(_) => format!("filter@{node}"),
    };
    let transparent = matches!(&stage, ChainStage::Filter(f) if f.is_identity());
    let (stages, env2) = ([stage], Arc::clone(env));
    env.handle.spawn(&name, move |ctx| {
        let (mut cur, mut next, mut outs) = (Vec::new(), Vec::new(), Vec::new());
        let seq = AtomicU64::new(0);
        while let Some(rec) = input.recv(ctx) {
            if transparent {
                env2.forward(ctx, node, &output, rec);
                continue;
            }
            cur.push(rec);
            let mut t = ChainTally::default();
            if let Err(e) = run_chain(
                &stages,
                FailurePolicy::FailFast,
                MismatchPolicy::Forward,
                &seq,
                &mut cur,
                &mut next,
                &mut t,
                &mut outs,
                &mut |dl| Err(dl.report.cause),
            ) {
                env2.fail(e);
            }
            env2.stats.lock().count_chain(&t);
            env2.cluster.compute(ctx, node, t.box_ops);
            for r in outs.drain(..) {
                env2.send(ctx, node, &output, r);
            }
        }
        output.close();
    });
}

/// One process per parallel dispatcher, star tap, index-split
/// dispatcher or synchrocell: the router decides, the process hands
/// off at the cost model's prices.
fn spawn_router(
    mut router: Router<Tx>,
    input: SimQueue<Record>,
    output: Tx,
    node: usize,
    env: &Arc<Env>,
) {
    let env2 = Arc::clone(env);
    env.handle
        .spawn(&format!("{}@{node}", router.component()), move |ctx| {
            let seq = AtomicU64::new(0);
            let mut wire = Wire {
                ctx,
                out: &output,
                node,
                env: &env2,
            };
            let (policy, mismatch) = (FailurePolicy::FailFast, MismatchPolicy::Forward);
            while let Some(rec) = input.recv(ctx) {
                if let Err(e) = router.route(rec, policy, mismatch, &seq, &mut wire) {
                    env2.fail(e);
                }
            }
            let (targets, tally) = router.finish();
            targets.into_iter().for_each(Tx::close);
            env2.stats.lock().count_route(&tally);
            output.close();
        });
}

/// A router process's wiring: simulated queues, each hand-off charged
/// by [`Env::send`], replicas spawned as processes on their node.
struct Wire<'a> {
    ctx: &'a SimCtx,
    out: &'a Tx,
    node: usize,
    env: &'a Arc<Env>,
}

impl Wiring for Wire<'_> {
    type Target = Tx;

    fn emit(&mut self, rec: Record) -> Result<(), SnetError> {
        self.env.send(self.ctx, self.node, self.out, rec);
        Ok(())
    }

    /// A fired synchrocell is removed from the network by the runtime
    /// (it is the identity from then on), so its pass-throughs carry no
    /// glue cost.
    fn emit_through(&mut self, rec: Record) -> Result<(), SnetError> {
        self.env.forward(self.ctx, self.node, self.out, rec);
        Ok(())
    }

    fn send(&mut self, to: &mut Tx, rec: Record) -> Result<(), SnetError> {
        self.env.send(self.ctx, self.node, to, rec);
        Ok(())
    }

    fn instantiate(&mut self, replica: Replica<'_, Tx>) -> Tx {
        let (env, node) = (self.env, self.node);
        match replica {
            // The body feeds the next tap, which shares our exit stream.
            Replica::Star { body, tap } => {
                let body_home = home_node(body, node, env.nodes);
                let body_q = env.queue("star-body");
                let next_q = env.queue("star-next");
                build(
                    body,
                    body_q.clone(),
                    Tx::new(next_q.clone(), node),
                    node,
                    env,
                );
                spawn_router(tap, next_q, self.out.another(), node, env);
                Tx::new(body_q, body_home)
            }
            // `!@<tag>`: the tag value names the hosting node; plain `!`
            // keeps replicas local.
            Replica::Split {
                body,
                value,
                placed,
            } => {
                let replica_node = if placed { env.place_tag(value) } else { node };
                let rhome = home_node(body, replica_node, env.nodes);
                let rq = env.queue("split-replica");
                build(body, rq.clone(), self.out.another(), replica_node, env);
                Tx::new(rq, rhome)
            }
        }
    }

    /// There is no dead-letter stream here: every component runs under
    /// `FailFast`, so only a per-box `DeadLetter` override diverts, and
    /// that fails the run with its cause.
    fn divert(&mut self, dl: Box<DeadLetter>) -> Result<(), SnetError> {
        Err(dl.report.cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_core::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use snet_core::{Pattern, Value, Variant};

    fn spec(nodes: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            cpus_per_node: 2,
            cpu_ops_per_sec: 1e6,
            link_bandwidth: 1e6,
            link_latency: Duration::from_millis(1),
            mem_bandwidth: 100e6,
            quantum: Duration::from_millis(10),
        }
    }

    fn work_box(name: &str, ops: u64) -> NetSpec {
        NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse(name, &["x"], &[&["x"]]),
            move |r| Ok(BoxOutput::one(r.clone(), Work::ops(ops))),
        ))
    }

    fn xrecs(n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new().with_field("x", Value::Int(i)))
            .collect()
    }

    #[test]
    fn box_work_becomes_virtual_time() {
        // 4 records × 1e6 ops at 1e6 ops/s on a 2-CPU node → ≥ 2 s.
        let net = work_box("w", 1_000_000);
        let out = run_on_cluster(&net, xrecs(4), spec(1), OverheadModel::zero()).unwrap();
        assert_eq!(out.outputs.len(), 4);
        assert!(out.makespan.as_secs_f64() >= 2.0, "{:?}", out.makespan);
        assert_eq!(out.stats.box_ops, 4_000_000);
        assert_eq!(
            out.stats.wire_bytes, 0,
            "single node: nothing crosses the wire"
        );
    }

    #[test]
    fn placement_charges_the_named_node() {
        // `w @ 1`: all compute lands on node 1.
        let net = NetSpec::at(work_box("w", 500_000), 1);
        let out = run_on_cluster(&net, xrecs(2), spec(2), OverheadModel::zero()).unwrap();
        assert!(out.cpu_busy_secs[1] > 0.9, "{:?}", out.cpu_busy_secs);
        assert!(out.cpu_busy_secs[0] < 0.1, "{:?}", out.cpu_busy_secs);
        // Records crossed to node 1 and back.
        assert!(out.stats.wire_bytes > 0);
    }

    #[test]
    fn placed_split_spreads_load_by_tag() {
        let net = NetSpec::split_placed(work_box("w", 400_000), "node");
        let inputs: Vec<Record> = (0..8)
            .map(|i| {
                Record::new()
                    .with_field("x", Value::Int(i))
                    .with_tag("node", i % 4)
            })
            .collect();
        let out = run_on_cluster(&net, inputs, spec(4), OverheadModel::zero()).unwrap();
        assert_eq!(out.stats.split_replicas, 4);
        for (i, busy) in out.cpu_busy_secs.iter().enumerate() {
            assert!(*busy > 0.5, "node {i} idle: {:?}", out.cpu_busy_secs);
        }
    }

    #[test]
    fn overhead_model_slows_the_run_down() {
        let net = work_box("w", 10_000);
        let cheap = run_on_cluster(&net, xrecs(16), spec(2), OverheadModel::zero()).unwrap();
        let costly =
            run_on_cluster(&net, xrecs(16), spec(2), OverheadModel { hop_ops: 100_000 }).unwrap();
        assert!(costly.makespan > cheap.makespan);
        assert!(costly.stats.glue_ops > 0);
        assert_eq!(cheap.stats.glue_ops, 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let net = NetSpec::serial(
            NetSpec::split_placed(work_box("w", 123_456), "node"),
            work_box("post", 7_000),
        );
        let inputs: Vec<Record> = (0..10)
            .map(|i| {
                Record::new()
                    .with_field("x", Value::Int(i))
                    .with_tag("node", i % 3)
            })
            .collect();
        let a = run_on_cluster(&net, inputs.clone(), spec(3), OverheadModel::default()).unwrap();
        let b = run_on_cluster(&net, inputs, spec(3), OverheadModel::default()).unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn sync_and_star_statistics_are_counted() {
        // [| {a}, {b} |]: a+b merge, then a second {a} passes through.
        let cell = NetSpec::Sync(snet_core::SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]));
        let out = run_on_cluster(
            &cell,
            vec![
                Record::new().with_field("a", Value::Int(1)),
                Record::new().with_field("b", Value::Int(2)),
                Record::new().with_field("a", Value::Int(3)),
            ],
            spec(1),
            OverheadModel::zero(),
        )
        .unwrap();
        assert_eq!(out.stats.sync_fires, 1);
        assert_eq!(out.outputs.len(), 2); // merge + passed-through third
    }

    #[test]
    fn component_failures_surface_with_attribution() {
        let bad = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("fragile", &["x"], &[&["x"]]),
            |r| {
                if r.field("x").and_then(|v| v.as_int()) == Some(2) {
                    Err(SnetError::Engine("injected fault".into()))
                } else {
                    Ok(BoxOutput::one(r.clone(), Work::ops(1)))
                }
            },
        ));
        let err = run_on_cluster(&bad, xrecs(5), spec(2), OverheadModel::zero())
            .expect_err("fault must abort");
        let msg = err.to_string();
        assert!(
            msg.contains("fragile") && msg.contains("injected fault"),
            "{msg}"
        );
    }

    #[test]
    fn missing_split_tag_is_reported() {
        let net = NetSpec::split_placed(work_box("w", 1), "node");
        let err = run_on_cluster(&net, xrecs(1), spec(2), OverheadModel::zero())
            .expect_err("missing tag must abort");
        assert!(matches!(err, SnetError::MissingTag(_)), "{err}");
    }
}
