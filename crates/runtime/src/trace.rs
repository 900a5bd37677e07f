//! Lightweight runtime instrumentation.
//!
//! A [`Trace`] is shared by all component threads of a running net and
//! counts the events the tests and benchmarks care about: records
//! handled per component kind, box invocations and their abstract work,
//! synchrocell fires, star unfoldings, and records left stranded in
//! unfired synchrocells at end-of-stream (almost always a coordination
//! bug — the paper's merger net, for instance, must end with none).

use snet_core::{ChainTally, RouteTally};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared event counters; all methods are thread-safe and cheap.
#[derive(Debug, Default)]
pub struct Trace {
    /// Records fed through boxes (matched only).
    pub box_records: AtomicU64,
    /// Total abstract work reported by boxes.
    pub box_ops: AtomicU64,
    /// Records fed through filters (matched only).
    pub filter_records: AtomicU64,
    /// Records passed through any component untouched (type mismatch
    /// under the permissive policy).
    pub passthroughs: AtomicU64,
    /// Synchrocell stores.
    pub sync_stores: AtomicU64,
    /// Synchrocell fires (merges emitted).
    pub sync_fires: AtomicU64,
    /// Records stranded in unfired synchrocells at end-of-stream.
    pub sync_stranded: AtomicU64,
    /// Star replica instantiations.
    pub star_unfoldings: AtomicU64,
    /// Index-split replica instantiations.
    pub split_replicas: AtomicU64,
    /// Records handed to a parallel branch or an index-split replica.
    pub dispatched: AtomicU64,
    /// Records diverted to the dead-letter stream.
    pub dead_letters: AtomicU64,
    /// Extra box invocations performed by the retry policy (attempts
    /// beyond the first, successful or not).
    pub retries: AtomicU64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds a chain tally into the run counters — the one way box and
    /// filter work reaches a trace, so a fused run reports exactly the
    /// trace its unfused equivalent would. Zero deltas are skipped: the
    /// counters are run-global, so every add is a shared cache line,
    /// and a typical tally touches two.
    pub(crate) fn count_chain(&self, t: &ChainTally) {
        fold([
            (&self.box_records, t.box_records),
            (&self.box_ops, t.box_ops),
            (&self.filter_records, t.filter_records),
            (&self.passthroughs, t.passthroughs),
            (&self.retries, t.retries),
        ]);
    }

    /// Folds a routing tally into the run counters — the one way
    /// dispatch, star, split and synchrocell events reach a trace.
    /// Zero deltas are skipped, as in [`Trace::count_chain`].
    pub(crate) fn count_route(&self, t: &RouteTally) {
        fold([
            (&self.dispatched, t.dispatched),
            (&self.passthroughs, t.passthroughs),
            (&self.sync_stores, t.sync_stores),
            (&self.sync_fires, t.sync_fires),
            (&self.sync_stranded, t.sync_stranded),
            (&self.star_unfoldings, t.star_unfoldings),
            (&self.split_replicas, t.split_replicas),
        ]);
    }

    /// Reads a counter.
    pub fn get(&self, counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "boxes: {} records / {} ops; filters: {}; dispatched: {}; \
             sync: {} stores, {} fires, {} stranded; unfoldings: {} star, {} split; \
             passthroughs: {}; dead letters: {}; retries: {}",
            self.box_records.load(Ordering::Relaxed),
            self.box_ops.load(Ordering::Relaxed),
            self.filter_records.load(Ordering::Relaxed),
            self.dispatched.load(Ordering::Relaxed),
            self.sync_stores.load(Ordering::Relaxed),
            self.sync_fires.load(Ordering::Relaxed),
            self.sync_stranded.load(Ordering::Relaxed),
            self.star_unfoldings.load(Ordering::Relaxed),
            self.split_replicas.load(Ordering::Relaxed),
            self.passthroughs.load(Ordering::Relaxed),
            self.dead_letters.load(Ordering::Relaxed),
            self.retries.load(Ordering::Relaxed),
        )
    }
}

/// Adds each non-zero delta to its counter.
fn fold<const N: usize>(deltas: [(&AtomicU64, u64); N]) {
    for (counter, n) in deltas {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = Trace::new();
        for ops in [10, 5] {
            t.count_chain(&ChainTally {
                box_records: 1,
                box_ops: ops,
                ..ChainTally::default()
            });
        }
        Trace::add(&t.sync_fires, 1);
        assert_eq!(t.get(&t.box_records), 2);
        assert_eq!(t.get(&t.box_ops), 15);
        assert!(t.summary().contains("2 records"));
        assert!(t.summary().contains("1 fires"));
    }
}
