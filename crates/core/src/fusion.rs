//! Operator fusion: collapsing static SISO chains into single
//! components.
//!
//! The benches say inter-component hand-off dominates deep pipelines —
//! depth-16 costs ~7x depth-1 on the scheduled engine even with batched
//! mailboxes. But maximal runs of *stateless* SISO components (boxes
//! and filters composed with `..`) are known statically from the
//! [`NetSpec`], and nothing in the semantics requires a queue between
//! them: serial composition of stateless components is function
//! composition. The [`fuse`] pass rewrites every such run into one
//! [`NetSpec::FusedChain`] whose execution pushes each record through
//! the whole chain in place — zero mailbox hops — while mailboxes
//! remain exactly at the boundaries where they carry semantics:
//! synchrocells (stateful), parallel dispatch/merge, star taps, and
//! index splits. This is the compile-time grain-tuning the S-Net-vs-CnC
//! study (arXiv:1305.7167) credits for CnC's wins, applied at the
//! coordination layer where S+Net (arXiv:1306.2743) argues such
//! controls belong.
//!
//! Fusion only ever merges runs of two or more: a lone box or filter
//! stays a single spec node. The engines nonetheless *run* every box,
//! filter and fused chain the same way — a singleton is a one-stage
//! chain — so [`run_chain`] is the only code outside the reference
//! interpreter that applies box/filter semantics, fault policy and
//! trace tallies. That holds for the simulated-time `snet-dist` engine
//! too, which keeps one process per box or filter and runs each as a
//! one-stage chain per record. The combinators between chains route
//! through [`crate::route::Router`].
//!
//! **Fault semantics are preserved per stage.** [`run_chain`] resolves
//! the failure policy per original [`BoxDef`]
//! ([`BoxDef::effective_policy`]), mints dead letters that name the
//! original component (box name, or `"filter"`), retries only the
//! failing stage (with the record exactly as it arrived *at that
//! stage*), and charges the same trace counters — so a fused run is
//! indistinguishable from an unfused one in everything but speed, and
//! chaos wrappers (`snet_runtime::faultinject`) keep targeting
//! individual stages because they wrap the `BoxDef` itself.

use crate::boxdef::BoxDef;
use crate::fault::{self, DeadLetter, FailurePolicy, StepVerdict};
use crate::filter::FilterSpec;
use crate::pattern::Pattern;
use crate::record::Record;
use crate::semantics::{self, MismatchPolicy, StepOut};
use crate::topology::NetSpec;
use crate::SnetError;
use std::fmt;
use std::sync::atomic::AtomicU64;

/// One stage of a fused chain: the stateless SISO components.
///
/// Synchrocells are SISO too but stateful (they are their own fusion
/// boundary), and combinators are not primitive — so a chain stage is
/// exactly a box or a filter.
#[derive(Clone, Debug)]
pub enum ChainStage {
    /// A user box, with its per-box policy override intact.
    Box(BoxDef),
    /// A filter.
    Filter(FilterSpec),
}

impl ChainStage {
    /// The component name used for fault attribution — identical to
    /// what the unfused engines report.
    pub fn component_name(&self) -> &str {
        match self {
            ChainStage::Box(def) => &def.sig.name,
            ChainStage::Filter(_) => "filter",
        }
    }

    /// The stage's input pattern (what the head of a chain attracts).
    pub fn input_pattern(&self) -> Pattern {
        match self {
            ChainStage::Box(def) => Pattern::from_variant(def.sig.input_variant()),
            ChainStage::Filter(f) => f.pattern.clone(),
        }
    }
}

impl fmt::Display for ChainStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainStage::Box(def) => write!(f, "{}", def.sig.name),
            ChainStage::Filter(spec) => write!(f, "{spec}"),
        }
    }
}

/// Rewrites `spec` so every maximal static SISO run of boxes/filters
/// becomes one [`NetSpec::FusedChain`].
///
/// The pass is purely structural:
///
/// * serial spines are flattened, descriptive [`NetSpec::Named`]
///   wrappers are looked through (they carry no semantics), and
///   consecutive box/filter elements are grouped into maximal runs;
/// * runs of length ≥ 2 become a [`NetSpec::FusedChain`]; singletons
///   stay single [`NetSpec::Box`] / [`NetSpec::Filter`] nodes (the
///   engines run them as one-stage chains, so there is nothing to gain
///   from wrapping them);
/// * every other combinator ([`NetSpec::Sync`], [`NetSpec::Parallel`],
///   [`NetSpec::Star`], [`NetSpec::Split`], [`NetSpec::At`]) is a
///   fusion **boundary**: it stays in place (placement annotations
///   included) and its body/branches are fused recursively.
///
/// Fusing is idempotent, and the fused network is observationally
/// equivalent to the original on every engine: same output multiset,
/// same trace counters, same fault attribution (see the
/// `fusion_equivalence` property suite).
pub fn fuse(spec: &NetSpec) -> NetSpec {
    let mut elems = Vec::new();
    flatten(spec, &mut elems);
    let mut out: Vec<NetSpec> = Vec::new();
    let mut run: Vec<ChainStage> = Vec::new();
    for elem in elems {
        match elem {
            NetSpec::Box(def) => run.push(ChainStage::Box(def)),
            NetSpec::Filter(f) => run.push(ChainStage::Filter(f)),
            other => {
                flush_run(&mut run, &mut out);
                out.push(fuse_boundary(other));
            }
        }
    }
    flush_run(&mut run, &mut out);
    NetSpec::pipeline(out)
}

/// Flattens the serial spine of `spec` into `out`, looking through
/// `Named` wrappers. Leaves are pushed unfused; boundaries are fused
/// later (their *bodies* still need the recursive pass).
fn flatten(spec: &NetSpec, out: &mut Vec<NetSpec>) {
    match spec {
        NetSpec::Serial(a, b) => {
            flatten(a, out);
            flatten(b, out);
        }
        NetSpec::Named { body, .. } => flatten(body, out),
        other => out.push(other.clone()),
    }
}

/// Closes the current run: length ≥ 2 fuses, a singleton is restored
/// verbatim.
fn flush_run(run: &mut Vec<ChainStage>, out: &mut Vec<NetSpec>) {
    match run.len() {
        0 => {}
        1 => out.push(match run.pop().expect("len checked") {
            ChainStage::Box(def) => NetSpec::Box(def),
            ChainStage::Filter(f) => NetSpec::Filter(f),
        }),
        _ => out.push(NetSpec::FusedChain {
            stages: std::mem::take(run),
        }),
    }
}

/// Recursively fuses the bodies of a non-chainable element.
fn fuse_boundary(spec: NetSpec) -> NetSpec {
    match spec {
        NetSpec::Parallel { branches, det } => NetSpec::Parallel {
            branches: branches.iter().map(fuse).collect(),
            det,
        },
        NetSpec::Star { body, exit, det } => NetSpec::Star {
            body: Box::new(fuse(&body)),
            exit,
            det,
        },
        NetSpec::Split { body, tag, placed } => NetSpec::Split {
            body: Box::new(fuse(&body)),
            tag,
            placed,
        },
        NetSpec::At { body, node } => NetSpec::At {
            body: Box::new(fuse(&body)),
            node,
        },
        // Chains arriving pre-fused (idempotence), syncs, and anything
        // primitive pass through unchanged.
        other => other,
    }
}

/// Trace deltas accumulated while records traverse a chain; engines
/// fold them into their own counters after each [`run_chain`] call, so
/// fused and unfused runs report identical traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChainTally {
    /// Records fed through box stages (matched only).
    pub box_records: u64,
    /// Abstract work reported by box stages.
    pub box_ops: u64,
    /// Records fed through filter stages (matched only).
    pub filter_records: u64,
    /// Records passed through a stage untouched (mismatch under the
    /// permissive policy).
    pub passthroughs: u64,
    /// Extra box invocations performed by the retry policy.
    pub retries: u64,
}

/// Drives the records in `cur` through `stages` *stage-major*, appending
/// the chain's final outputs to `out` after whatever it already holds.
///
/// Every engine but the reference interpreter runs each box, filter
/// and fused chain through it (a lone box or filter is a one-stage
/// chain). Every queued record
/// advances through stage `k` before stage `k + 1` runs; each stage is
/// an order-preserving per-record map-concat, so this is observably
/// identical to pushing the records through one at a time.
///
/// `cur` and `next` are caller-owned ping-pong buffers, and `next` must
/// be empty on entry: records move from `cur` into `next` at every
/// stage but the last, which writes straight into `out`. On success
/// both are left empty, and a one-stage chain never touches `next` at
/// all. On error their contents are unspecified.
///
/// Stage semantics are *identical* to the unfused components: the
/// policy is resolved per stage (per-box override first, engine default
/// otherwise; filters follow the engine default), panics are contained
/// and attributed to the stage that raised them, retries re-run only
/// the failing stage on the record as it arrived there, and diverted
/// records go to `divert` carrying the stage's component name. A fatal
/// verdict aborts the chain (the run). Counter deltas land in `tally`.
///
/// `FailFast` stages — the default configuration — call the step
/// semantics directly under *one* panic guard per call instead of one
/// per stage and record: under `FailFast` any panic or error is fatal
/// to the run either way, so a single catch observing the currently
/// running stage reports exactly what a per-stage guard would. Lenient
/// stages go through [`fault::policy_step`], which owns the
/// clone/retry machinery.
#[allow(clippy::too_many_arguments)] // the per-engine step context
pub fn run_chain(
    stages: &[ChainStage],
    engine_policy: FailurePolicy,
    mismatch: MismatchPolicy,
    seq: &AtomicU64,
    cur: &mut Vec<Record>,
    next: &mut Vec<Record>,
    tally: &mut ChainTally,
    out: &mut Vec<Record>,
    divert: &mut dyn FnMut(Box<DeadLetter>) -> Result<(), SnetError>,
) -> Result<(), SnetError> {
    // Which stage is currently executing *outside* a per-stage guard;
    // the outer catch below uses it for fault attribution.
    let mut active: Option<&str> = None;
    let caught = {
        let active = &mut active;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let last = stages.len().saturating_sub(1);
            for (k, stage) in stages.iter().enumerate() {
                let dst = if k == last { &mut *out } else { &mut *next };
                for r in cur.drain(..) {
                    match stage {
                        ChainStage::Box(def)
                            if matches!(
                                def.effective_policy(engine_policy),
                                FailurePolicy::FailFast
                            ) =>
                        {
                            *active = Some(&def.sig.name);
                            let step = semantics::box_step(def, r, mismatch)?;
                            *active = None;
                            count_step(stage, &step, 1, tally);
                            dst.extend(step.records);
                        }
                        ChainStage::Filter(f)
                            if matches!(engine_policy, FailurePolicy::FailFast) =>
                        {
                            *active = Some("filter");
                            let step = semantics::filter_step(f, r, mismatch)?;
                            *active = None;
                            count_step(stage, &step, 1, tally);
                            dst.extend(step.records);
                        }
                        _ => lenient_step(
                            stage,
                            r,
                            engine_policy,
                            mismatch,
                            seq,
                            tally,
                            dst,
                            divert,
                        )?,
                    }
                }
                if k < last {
                    std::mem::swap(cur, next);
                }
            }
            // A zero-stage chain is the identity.
            out.append(cur);
            Ok(())
        }))
    };
    match caught {
        Ok(res) => res,
        Err(payload) => Err(SnetError::BoxFailure {
            name: active.unwrap_or("fused-chain").to_owned(),
            cause: format!("panicked: {}", crate::panic_cause(payload.as_ref())),
        }),
    }
}

/// Applies a stage whose policy is not `FailFast` to one record through
/// [`fault::policy_step`], appending its outputs to `dst`.
#[allow(clippy::too_many_arguments)]
fn lenient_step(
    stage: &ChainStage,
    rec: Record,
    engine_policy: FailurePolicy,
    mismatch: MismatchPolicy,
    seq: &AtomicU64,
    tally: &mut ChainTally,
    dst: &mut Vec<Record>,
    divert: &mut dyn FnMut(Box<DeadLetter>) -> Result<(), SnetError>,
) -> Result<(), SnetError> {
    let policy = match stage {
        ChainStage::Box(def) => def.effective_policy(engine_policy),
        // Filter errors are deterministic, so Retry degenerates to
        // FailFast inside `policy_step` (only `BoxFailure` retries).
        ChainStage::Filter(_) => engine_policy,
    };
    let verdict = fault::policy_step(policy, stage.component_name(), seq, rec, |r| match stage {
        ChainStage::Box(def) => semantics::box_step(def, r, mismatch),
        ChainStage::Filter(f) => semantics::filter_step(f, r, mismatch),
    });
    match verdict {
        StepVerdict::Out { step, attempts } => {
            count_step(stage, &step, attempts, tally);
            dst.extend(step.records);
            Ok(())
        }
        StepVerdict::Dead(dl) => divert(dl),
        StepVerdict::Fatal(e) => Err(e),
    }
}

/// Charges one completed stage step to `tally`.
fn count_step(stage: &ChainStage, step: &StepOut, attempts: u32, tally: &mut ChainTally) {
    match stage {
        ChainStage::Box(_) => {
            tally.retries += u64::from(attempts - 1);
            if step.matched {
                tally.box_records += 1;
                tally.box_ops += step.work.ops;
            } else {
                tally.passthroughs += 1;
            }
        }
        ChainStage::Filter(_) if step.matched => tally.filter_records += 1,
        ChainStage::Filter(_) => tally.passthroughs += 1,
    }
}

/// A pair of reusable ping-pong buffers over [`run_chain`], for drivers
/// that own no buffers of their own (benchmarks, tests).
///
/// [`new`] draws the buffers from [`crate::pool`] and `Drop` returns
/// them, so runner churn recycles warmed capacity instead of mallocing.
///
/// [`new`]: ChainRunner::new
#[derive(Debug, Default)]
pub struct ChainRunner {
    cur: Vec<Record>,
    next: Vec<Record>,
}

impl ChainRunner {
    /// Fresh runner; scratch buffers come from the buffer pool.
    pub fn new() -> ChainRunner {
        ChainRunner {
            cur: crate::pool::take_vec(),
            next: crate::pool::take_vec(),
        }
    }

    /// Drives a batch of records through `stages` with [`run_chain`],
    /// appending the chain's final outputs to `out`.
    #[allow(clippy::too_many_arguments)]
    pub fn step_batch(
        &mut self,
        stages: &[ChainStage],
        engine_policy: FailurePolicy,
        mismatch: MismatchPolicy,
        seq: &AtomicU64,
        recs: impl IntoIterator<Item = Record>,
        tally: &mut ChainTally,
        out: &mut Vec<Record>,
        divert: &mut dyn FnMut(Box<DeadLetter>) -> Result<(), SnetError>,
    ) -> Result<(), SnetError> {
        self.cur.clear();
        self.next.clear();
        self.cur.extend(recs);
        run_chain(
            stages,
            engine_policy,
            mismatch,
            seq,
            &mut self.cur,
            &mut self.next,
            tally,
            out,
            divert,
        )
    }
}

impl Drop for ChainRunner {
    fn drop(&mut self) {
        crate::pool::give_vec(std::mem::take(&mut self.cur));
        crate::pool::give_vec(std::mem::take(&mut self.next));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxdef::{BoxOutput, BoxSig, Work};
    use crate::rtype::Variant;
    use crate::sync::SyncSpec;
    use crate::value::Value;

    fn inc(name: &str) -> NetSpec {
        NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse(name, &["x"], &[&["x"]]),
            |r| {
                let x = r.field("x").and_then(|v| v.as_int()).unwrap_or(0);
                Ok(BoxOutput::one(
                    Record::new().with_field("x", Value::Int(x + 1)),
                    Work::ops(1),
                ))
            },
        ))
    }

    fn sync_ab() -> NetSpec {
        NetSpec::Sync(SyncSpec::new(vec![
            Pattern::from_variant(Variant::parse_labels(&["a"], &[])),
            Pattern::from_variant(Variant::parse_labels(&["b"], &[])),
        ]))
    }

    fn chain_len(spec: &NetSpec) -> Option<usize> {
        match spec {
            NetSpec::FusedChain { stages } => Some(stages.len()),
            _ => None,
        }
    }

    #[test]
    fn maximal_runs_fuse() {
        let fused = fuse(&NetSpec::pipeline([
            inc("a"),
            inc("b"),
            NetSpec::identity(),
            inc("c"),
        ]));
        assert_eq!(chain_len(&fused), Some(4), "{fused}");
    }

    #[test]
    fn sync_breaks_the_chain() {
        let fused = fuse(&NetSpec::pipeline([
            inc("a"),
            inc("b"),
            sync_ab(),
            inc("c"),
            inc("d"),
        ]));
        let NetSpec::Serial(head, tail) = &fused else {
            panic!("expected serial at the boundary: {fused}");
        };
        let NetSpec::Serial(chain, cell) = &**head else {
            panic!("expected (chain .. sync): {head}");
        };
        assert_eq!(chain_len(chain), Some(2));
        assert!(matches!(&**cell, NetSpec::Sync(_)));
        assert_eq!(chain_len(tail), Some(2));
    }

    #[test]
    fn singletons_stay_unfused() {
        let fused = fuse(&NetSpec::pipeline([inc("a"), sync_ab(), inc("b")]));
        let mut names = Vec::new();
        fused.box_names(&mut names);
        assert_eq!(names, vec!["a", "b"]);
        assert!(!format!("{fused:?}").contains("FusedChain"), "{fused:?}");
    }

    #[test]
    fn boundaries_fuse_their_bodies() {
        let star_body = NetSpec::serial(inc("s1"), inc("s2"));
        let spec = NetSpec::star(
            star_body,
            Pattern::from_variant(Variant::parse_labels(&["z"], &[])),
        );
        let NetSpec::Star { body, .. } = fuse(&spec) else {
            panic!("star survives fusion")
        };
        assert_eq!(chain_len(&body), Some(2));

        let split = NetSpec::split(NetSpec::serial(inc("p"), inc("q")), "k");
        let NetSpec::Split { body, .. } = fuse(&split) else {
            panic!("split survives fusion")
        };
        assert_eq!(chain_len(&body), Some(2));

        let par = NetSpec::parallel(vec![NetSpec::serial(inc("l1"), inc("l2")), inc("r")]);
        let NetSpec::Parallel { branches, .. } = fuse(&par) else {
            panic!("parallel survives fusion")
        };
        assert_eq!(chain_len(&branches[0]), Some(2));
        assert!(matches!(&branches[1], NetSpec::Box(_)));
    }

    #[test]
    fn named_wrappers_are_transparent() {
        let spec = NetSpec::serial(
            NetSpec::named("front", inc("a")),
            NetSpec::named("back", NetSpec::serial(inc("b"), inc("c"))),
        );
        assert_eq!(chain_len(&fuse(&spec)), Some(3));
    }

    #[test]
    fn fusion_is_idempotent() {
        let spec = NetSpec::pipeline([inc("a"), inc("b"), sync_ab(), inc("c"), inc("d")]);
        let once = fuse(&spec);
        let twice = fuse(&once);
        assert_eq!(format!("{once:?}"), format!("{twice:?}"));
    }

    #[test]
    fn fused_chain_preserves_serial_semantics() {
        let spec = NetSpec::pipeline([inc("a"), inc("b"), inc("c")]);
        let NetSpec::FusedChain { stages } = fuse(&spec) else {
            panic!("expected full fusion")
        };
        let seq = AtomicU64::new(0);
        let mut runner = ChainRunner::new();
        let mut tally = ChainTally::default();
        let mut out = Vec::new();
        runner
            .step_batch(
                &stages,
                FailurePolicy::FailFast,
                MismatchPolicy::Forward,
                &seq,
                [Record::new().with_field("x", Value::Int(39))],
                &mut tally,
                &mut out,
                &mut |_| panic!("no diversions expected"),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].field("x").unwrap().as_int(), Some(42));
        assert_eq!(tally.box_records, 3);
        assert_eq!(tally.box_ops, 3);
    }

    #[test]
    fn chain_divert_names_the_failing_stage() {
        let bad = NetSpec::Box(
            BoxDef::from_fn(BoxSig::parse("bad", &["x"], &[&["x"]]), |_| {
                Err(SnetError::Engine("deliberate".into()))
            })
            .with_policy(FailurePolicy::DeadLetter),
        );
        let NetSpec::FusedChain { stages } = fuse(&NetSpec::pipeline([inc("a"), bad, inc("c")]))
        else {
            panic!("expected full fusion")
        };
        let seq = AtomicU64::new(0);
        let mut runner = ChainRunner::new();
        let mut tally = ChainTally::default();
        let mut out = Vec::new();
        let mut dead = Vec::new();
        runner
            .step_batch(
                &stages,
                FailurePolicy::FailFast, // per-box override must win
                MismatchPolicy::Forward,
                &seq,
                [Record::new().with_field("x", Value::Int(0))],
                &mut tally,
                &mut out,
                &mut |dl| {
                    dead.push(*dl);
                    Ok(())
                },
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].report.component, "bad");
        // The diverted record is the record as it arrived AT the stage:
        // `a` already incremented it.
        assert_eq!(dead[0].record.field("x").unwrap().as_int(), Some(1));
        assert_eq!(tally.box_records, 1); // only `a` matched-and-ran
    }

    #[test]
    fn one_stage_chain_appends_to_out_in_order() {
        let NetSpec::Box(def) = inc("a") else {
            unreachable!("inc builds a box")
        };
        let stages = [ChainStage::Box(def)];
        let seq = AtomicU64::new(0);
        let mut cur: Vec<Record> = (10..13)
            .map(|x| Record::new().with_field("x", Value::Int(x)))
            .collect();
        let mut next = Vec::new();
        let mut out = vec![Record::new().with_field("x", Value::Int(0))];
        let mut tally = ChainTally::default();
        run_chain(
            &stages,
            FailurePolicy::FailFast,
            MismatchPolicy::Forward,
            &seq,
            &mut cur,
            &mut next,
            &mut tally,
            &mut out,
            &mut |_| panic!("no diversions expected"),
        )
        .unwrap();
        let xs: Vec<_> = out.iter().map(|r| r.field("x").unwrap().as_int()).collect();
        assert_eq!(xs, [Some(0), Some(11), Some(12), Some(13)]);
        assert!(cur.is_empty());
        assert_eq!(next.capacity(), 0, "a one-stage chain never touches next");
        assert_eq!(tally.box_records, 3);
    }

    #[test]
    fn chain_whose_middle_stage_emits_nothing_yields_nothing() {
        let sink = NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse("sink", &["x"], &[&["x"]]),
            |_| Ok(BoxOutput::none(Work::ops(1))),
        ));
        let NetSpec::FusedChain { stages } = fuse(&NetSpec::pipeline([inc("a"), sink, inc("c")]))
        else {
            panic!("expected full fusion")
        };
        let seq = AtomicU64::new(0);
        let mut cur: Vec<Record> = (0..4)
            .map(|x| Record::new().with_field("x", Value::Int(x)))
            .collect();
        let mut next = Vec::new();
        let mut out = Vec::new();
        let mut tally = ChainTally::default();
        run_chain(
            &stages,
            FailurePolicy::FailFast,
            MismatchPolicy::Forward,
            &seq,
            &mut cur,
            &mut next,
            &mut tally,
            &mut out,
            &mut |_| panic!("no diversions expected"),
        )
        .unwrap();
        assert!(out.is_empty());
        assert!(cur.is_empty());
        assert!(next.is_empty());
        // `a` and `sink` ran on every record; `c` never saw one.
        assert_eq!(tally.box_records, 8);
    }
}
