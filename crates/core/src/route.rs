//! Combinator routing: the per-record decision of parallel dispatch,
//! star taps, index splits and synchrocells.
//!
//! Boxes and filters compute ([`crate::run_chain`]); the combinators
//! only route. Outside the reference interpreter, every instance of a
//! routing combinator is one [`Router`], which owns the decision, its
//! fault policy and its counters ([`RouteTally`]). An engine supplies
//! only its [`Wiring`], so coordination cost lives in one auditable
//! place, as the S-Net vs CnC case study (arXiv:1305.7167) measures it.

use crate::error::SnetError;
use crate::fault::{self, DeadLetter, FailurePolicy};
use crate::label::Label;
use crate::pattern::Pattern;
use crate::record::Record;
use crate::semantics::{self, MismatchPolicy};
use crate::sync::{SyncOutcome, SyncSpec, SyncState};
use crate::topology::NetSpec;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Counter deltas of routed records, kept by each [`Router`]; engines
/// take and fold them into their own counters the way they fold a
/// [`crate::ChainTally`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RouteTally {
    /// Records handed to a parallel branch or a split replica.
    pub dispatched: u64,
    /// Records no parallel branch matched, forwarded unchanged.
    pub passthroughs: u64,
    /// Synchrocell stores.
    pub sync_stores: u64,
    /// Synchrocell fires (merges emitted).
    pub sync_fires: u64,
    /// Records left in an unfired synchrocell at end-of-stream.
    pub sync_stranded: u64,
    /// Star replicas instantiated.
    pub star_unfoldings: u64,
    /// Index-split replicas instantiated.
    pub split_replicas: u64,
}

/// A replica a [`Router`] asks its engine to instantiate; the engine
/// returns the replica's input.
pub enum Replica<'a, T> {
    /// A star tap's replica: `body` feeding `tap`, the next tap, which
    /// shares this tap's output stream.
    Star { body: &'a NetSpec, tap: Router<T> },
    /// The replica of tag value `value` at an index split: `body`
    /// feeding the split's output. `placed` marks `!@<tag>`.
    Split {
        body: &'a NetSpec,
        value: i64,
        placed: bool,
    },
}

/// An engine's side of routing. `Target` is its handle on a
/// component's input stream (mailbox port, channel sender, simulated
/// queue); a hand-off error stops the routing component.
pub trait Wiring {
    type Target;
    /// Emits `rec` on the router's own output stream.
    fn emit(&mut self, rec: Record) -> Result<(), SnetError>;
    /// Emits `rec` through a synchrocell that has fired and is the
    /// identity from then on (cost models may splice it out).
    fn emit_through(&mut self, rec: Record) -> Result<(), SnetError> {
        self.emit(rec)
    }
    /// Hands `rec` to a branch or replica.
    fn send(&mut self, to: &mut Self::Target, rec: Record) -> Result<(), SnetError>;
    fn instantiate(&mut self, replica: Replica<'_, Self::Target>) -> Self::Target;
    /// Takes a record diverted under [`FailurePolicy::DeadLetter`].
    fn divert(&mut self, dl: Box<DeadLetter>) -> Result<(), SnetError>;
}

/// One parallel dispatcher, star tap, index-split dispatcher or
/// synchrocell, with the targets it routes into: the branches in
/// declaration order, the star replica once unfolded, or the split
/// replicas in ascending tag order (so teardown is deterministic).
pub struct Router<T> {
    kind: Kind,
    targets: Vec<T>,
    tally: RouteTally,
}

/// Every tap of one star shares its body, and every fork of one
/// parallel its branch patterns.
enum Kind {
    Par(Arc<[Vec<Pattern>]>),
    Star(Arc<NetSpec>, Pattern),
    /// `values[i]` is the tag value of `targets[i]`.
    Split {
        body: Arc<NetSpec>,
        tag: Label,
        placed: bool,
        values: Vec<i64>,
    },
    Sync(SyncSpec, SyncState),
}

impl<T> Router<T> {
    /// The router of a parallel, star, split or synchrocell node, else
    /// `None`. A parallel's branches are built here, in order, through
    /// `branch`; replicas are built on first use.
    pub fn new(spec: &NetSpec, branch: impl FnMut(&NetSpec) -> T) -> Option<Router<T>> {
        Some(match spec {
            NetSpec::Parallel { branches, .. } => Router::of(
                Kind::Par(branches.iter().map(NetSpec::input_patterns).collect()),
                branches.iter().map(branch).collect(),
            ),
            NetSpec::Star { body, exit, .. } => Router::of(
                Kind::Star(Arc::new((**body).clone()), exit.clone()),
                Vec::new(),
            ),
            NetSpec::Split { body, tag, placed } => Router::of(
                Kind::Split {
                    body: Arc::new((**body).clone()),
                    tag: *tag,
                    placed: *placed,
                    values: Vec::new(),
                },
                Vec::new(),
            ),
            NetSpec::Sync(spec) => {
                Router::of(Kind::Sync(spec.clone(), spec.new_state()), Vec::new())
            }
            _ => return None,
        })
    }

    fn of(kind: Kind, targets: Vec<T>) -> Router<T> {
        Router {
            kind,
            targets,
            tally: RouteTally::default(),
        }
    }

    /// The component's name; a dispatcher's is its fault attribution.
    pub fn component(&self) -> &'static str {
        match self.kind {
            Kind::Par(_) => "par-dispatch",
            Kind::Star(..) => "star-tap",
            Kind::Split { .. } => "split-dispatch",
            Kind::Sync(..) => "sync",
        }
    }

    /// Another parallel dispatcher over the same branches, for another
    /// sender: it shares the branch patterns and routes into `fork` of
    /// each of this router's targets, with a tally of its own. A
    /// parallel holds no per-record state, so an engine may give every
    /// sender its copy and run dispatch in the sender.
    ///
    /// # Panics
    ///
    /// On a star tap, split or synchrocell, whose state is per instance.
    pub fn fork(&self, fork: impl FnMut(&T) -> T) -> Router<T> {
        let Kind::Par(patterns) = &self.kind else {
            panic!(
                "only a parallel dispatcher forks, not a {}",
                self.component()
            );
        };
        Router::of(
            Kind::Par(Arc::clone(patterns)),
            self.targets.iter().map(fork).collect(),
        )
    }

    /// The counts since the last take.
    pub fn take_tally(&mut self) -> RouteTally {
        std::mem::take(&mut self.tally)
    }

    /// The targets built so far, in teardown order.
    pub fn targets(&self) -> &[T] {
        &self.targets
    }

    /// The targets built so far, in teardown order.
    pub fn targets_mut(&mut self) -> &mut [T] {
        &mut self.targets
    }

    /// Routes one record. A parallel hands it to the first branch with
    /// the maximal match score; a star tap emits it if it matches the
    /// exit pattern, else hands it to its replica; a split hands it to
    /// the replica of its tag value; a synchrocell stores it, fires or
    /// passes it. A record no branch matches is emitted under
    /// [`MismatchPolicy::Forward`]; otherwise it, like a split record
    /// without the tag, is rejected through [`fault::reject`]: diverted
    /// under [`FailurePolicy::DeadLetter`], the run's error otherwise.
    pub fn route<W: Wiring<Target = T>>(
        &mut self,
        rec: Record,
        policy: FailurePolicy,
        mismatch: MismatchPolicy,
        seq: &AtomicU64,
        w: &mut W,
    ) -> Result<(), SnetError> {
        let (targets, tally) = (&mut self.targets, &mut self.tally);
        match &mut self.kind {
            Kind::Par(patterns) => match semantics::best_branch(patterns, &rec) {
                Some(i) => {
                    tally.dispatched += 1;
                    w.send(&mut targets[i], rec)
                }
                None if mismatch == MismatchPolicy::Forward => {
                    tally.passthroughs += 1;
                    w.emit(rec)
                }
                None => {
                    let cause = SnetError::TypeMismatch {
                        expected: "any parallel branch".into(),
                        got: format!("{rec:?}"),
                    };
                    w.divert(fault::reject(policy, "par-dispatch", seq, rec, cause)?)
                }
            },
            Kind::Star(body, exit) => {
                if exit.matches(&rec) {
                    return w.emit(rec);
                }
                if targets.is_empty() {
                    tally.star_unfoldings += 1;
                    let tap = Router::of(Kind::Star(Arc::clone(body), exit.clone()), Vec::new());
                    targets.push(w.instantiate(Replica::Star { body, tap }));
                }
                w.send(&mut targets[0], rec)
            }
            Kind::Split {
                body,
                tag,
                placed,
                values,
            } => {
                let Some(value) = rec.tag(*tag) else {
                    let cause = SnetError::MissingTag(*tag);
                    return w.divert(fault::reject(policy, "split-dispatch", seq, rec, cause)?);
                };
                let i = match values.binary_search(&value) {
                    Ok(i) => i,
                    Err(i) => {
                        tally.split_replicas += 1;
                        let placed = *placed;
                        targets.insert(
                            i,
                            w.instantiate(Replica::Split {
                                body,
                                value,
                                placed,
                            }),
                        );
                        values.insert(i, value);
                        i
                    }
                };
                tally.dispatched += 1;
                w.send(&mut targets[i], rec)
            }
            Kind::Sync(spec, state) => {
                let fired = state.is_fired();
                match state.push(spec, rec) {
                    SyncOutcome::Stored => {
                        tally.sync_stores += 1;
                        Ok(())
                    }
                    SyncOutcome::Fired(merged) => {
                        tally.sync_fires += 1;
                        w.emit(merged)
                    }
                    SyncOutcome::Passed(r) if fired => w.emit_through(r),
                    SyncOutcome::Passed(r) => w.emit(r),
                }
            }
        }
    }

    /// End-of-stream: the targets to close, and the last counts,
    /// including the records stranded in an unfired synchrocell.
    pub fn finish(mut self) -> (Vec<T>, RouteTally) {
        if let Kind::Sync(_, state) = &self.kind {
            self.tally.sync_stranded += state.pending().count() as u64;
        }
        (self.targets, self.tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxdef::{BoxDef, BoxOutput, BoxSig, Work};
    use crate::rtype::Variant;
    use crate::value::Value;

    /// Records every hand-off as `(target, record)`; target `None` is
    /// the router's output.
    #[derive(Default)]
    struct Log {
        sent: Vec<(Option<usize>, Record)>,
        through: usize,
        built: Vec<Option<i64>>,
        dead: Vec<DeadLetter>,
    }

    impl Wiring for Log {
        type Target = usize;

        fn emit(&mut self, rec: Record) -> Result<(), SnetError> {
            self.sent.push((None, rec));
            Ok(())
        }

        fn emit_through(&mut self, rec: Record) -> Result<(), SnetError> {
            self.through += 1;
            self.emit(rec)
        }

        fn send(&mut self, to: &mut usize, rec: Record) -> Result<(), SnetError> {
            self.sent.push((Some(*to), rec));
            Ok(())
        }

        fn instantiate(&mut self, replica: Replica<'_, usize>) -> usize {
            self.built.push(match replica {
                Replica::Star { .. } => None,
                Replica::Split { value, .. } => Some(value),
            });
            100 + self.built.len()
        }

        fn divert(&mut self, dl: Box<DeadLetter>) -> Result<(), SnetError> {
            self.dead.push(*dl);
            Ok(())
        }
    }

    fn boxed(name: &str, input: &str) -> NetSpec {
        NetSpec::Box(BoxDef::from_fn(
            BoxSig::parse(name, &[input], &[&[input]]),
            |r| Ok(BoxOutput::one(r.clone(), Work::ZERO)),
        ))
    }

    fn field(name: &str) -> Record {
        Record::new().with_field(name, Value::Unit)
    }

    fn pattern(fields: &[&str]) -> Pattern {
        Pattern::from_variant(Variant::parse_labels(fields, &[]))
    }

    /// A router for `spec` whose parallel branches are targets 0, 1, ….
    fn router(spec: &NetSpec) -> Router<usize> {
        let mut next = 0;
        Router::new(spec, |_| {
            next += 1;
            next - 1
        })
        .expect("a routing combinator")
    }

    /// Routes `recs` under FailFast/Forward, where nothing is rejected.
    fn route_all(router: &mut Router<usize>, recs: impl IntoIterator<Item = Record>) -> Log {
        let mut log = Log::default();
        let (policy, mismatch) = (FailurePolicy::FailFast, MismatchPolicy::Forward);
        for rec in recs {
            router
                .route(rec, policy, mismatch, &AtomicU64::new(0), &mut log)
                .unwrap();
        }
        log
    }

    fn destinations(log: &Log) -> Vec<Option<usize>> {
        log.sent.iter().map(|(to, _)| *to).collect()
    }

    #[test]
    fn parallel_picks_the_first_best_branch_and_forwards_the_rest() {
        let spec = NetSpec::parallel(vec![boxed("a", "a"), boxed("b", "b"), boxed("a2", "a")]);
        let mut router = router(&spec);
        let log = route_all(&mut router, [field("b"), field("a"), field("c")]);
        assert_eq!(destinations(&log), [Some(1), Some(0), None]);
        let tally = router.take_tally();
        assert_eq!((tally.dispatched, tally.passthroughs), (2, 1));
        assert_eq!(router.take_tally(), RouteTally::default());
        assert_eq!(router.finish().0, [0, 1, 2]);
    }

    #[test]
    fn a_forked_parallel_routes_alike_into_its_own_targets() {
        let spec = NetSpec::parallel(vec![boxed("a", "a"), boxed("b", "b")]);
        let mut original = router(&spec);
        let mut fork = original.fork(|t| t + 10);
        assert_eq!(fork.targets(), [10, 11]);
        let log = route_all(&mut fork, [field("b"), field("a"), field("c")]);
        assert_eq!(destinations(&log), [Some(11), Some(10), None]);
        assert_eq!(fork.take_tally().dispatched, 2);
        assert_eq!(original.take_tally(), RouteTally::default());
    }

    #[test]
    #[should_panic(expected = "only a parallel dispatcher forks")]
    fn only_a_parallel_forks() {
        router(&NetSpec::split(boxed("w", "x"), "k")).fork(|t| *t);
    }

    #[test]
    fn parallel_rejects_unroutable_records_under_the_strict_policy() {
        let spec = NetSpec::parallel(vec![boxed("a", "a"), boxed("b", "b")]);
        let mut router = router(&spec);
        let mut log = Log::default();
        let seq = AtomicU64::new(0);
        let strict = MismatchPolicy::Error;
        let err = router
            .route(field("c"), FailurePolicy::FailFast, strict, &seq, &mut log)
            .unwrap_err();
        assert!(matches!(err, SnetError::TypeMismatch { .. }), "{err:?}");
        router
            .route(
                field("c"),
                FailurePolicy::DeadLetter,
                strict,
                &seq,
                &mut log,
            )
            .unwrap();
        assert_eq!(log.dead.len(), 1);
        assert_eq!(log.dead[0].report.component, "par-dispatch");
        assert!(log.sent.is_empty());
        assert_eq!(router.take_tally(), RouteTally::default());
    }

    #[test]
    fn star_tap_unfolds_one_replica_lazily() {
        let mut router = router(&NetSpec::star(boxed("step", "x"), pattern(&["done"])));
        let log = route_all(&mut router, [field("done"), field("x"), field("x")]);
        assert_eq!(destinations(&log), [None, Some(101), Some(101)]);
        assert_eq!(log.built, [None]);
        let tally = router.take_tally();
        assert_eq!((tally.star_unfoldings, tally.dispatched), (1, 0));
    }

    #[test]
    fn split_keeps_replicas_in_tag_order() {
        let spec = NetSpec::split(boxed("w", "x"), "k");
        let mut router = router(&spec);
        let log = route_all(
            &mut router,
            [5, 1, 5, 3].map(|k| field("x").with_tag("k", k)),
        );
        assert_eq!(log.built, [Some(5), Some(1), Some(3)]);
        let (targets, tally) = router.finish();
        assert_eq!((tally.dispatched, tally.split_replicas), (4, 3));
        // Replicas were built as 101 (k=5), 102 (k=1), 103 (k=3).
        assert_eq!(targets, [102, 103, 101]);

        let err = self::router(&spec)
            .route(
                field("x"),
                FailurePolicy::FailFast,
                MismatchPolicy::Forward,
                &AtomicU64::new(0),
                &mut Log::default(),
            )
            .unwrap_err();
        assert_eq!(err, SnetError::MissingTag(Label::new("k")));
    }

    #[test]
    fn synchrocell_stores_fires_then_passes_through() {
        let spec = NetSpec::Sync(SyncSpec::new(vec![pattern(&["a"]), pattern(&["b"])]));
        let mut router = router(&spec);
        let log = route_all(
            &mut router,
            [field("a"), field("a"), field("b"), field("b")],
        );
        // Stored, passed (slot full), fired, passed through the fired cell.
        assert_eq!(log.sent.len(), 3);
        assert_eq!(log.through, 1);
        let (targets, tally) = router.finish();
        assert!(targets.is_empty());
        assert_eq!((tally.sync_stores, tally.sync_fires), (1, 1));
        assert_eq!(tally.sync_stranded, 0);

        let mut unfired = self::router(&spec);
        route_all(&mut unfired, [field("a")]);
        assert_eq!(unfired.finish().1.sync_stranded, 1);
    }

    #[test]
    fn only_routing_combinators_get_a_router() {
        assert!(Router::<usize>::new(&boxed("a", "a"), |_| 0).is_none());
        assert!(Router::<usize>::new(&NetSpec::identity(), |_| 0).is_none());
    }
}
