//! Heuristic-based yielding (Section 5.1 of the paper).
//!
//! Yielding early-terminates a query's intra-partition processing to avoid
//! redundant work: operations left unprocessed stay in the partition's buffer
//! and are resumed on a later visit, possibly after better operations arrive
//! from neighbouring partitions. Two heuristics are provided, mirroring the
//! paper:
//!
//! 1. **Edge count** — yield once the query has processed more than a
//!    threshold number of edges in the current partition visit. The
//!    work-efficiency proof (Appendix A) suggests `|E_P| / |Q|` as the
//!    threshold, exposed here as [`YieldPolicy::EdgeBudgetAuto`].
//! 2. **Value range** — yield once the currently processed operation's value
//!    (priority) exceeds the first processed value by more than Δ, the
//!    Δ-stepping-inspired heuristic.

use crate::operation::Priority;

/// When to early-terminate a query inside a partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum YieldPolicy {
    /// Never yield: drain the query's operations in the partition completely.
    None,
    /// Heuristic 1 with a fixed threshold: yield after processing more than
    /// `threshold` edges in the current partition visit.
    EdgeBudget {
        /// Maximum edges a query may process per partition visit.
        threshold: u64,
    },
    /// Heuristic 1 with the analytical threshold `factor · |E_P| / |Q|`
    /// (Appendix A); `factor = 1.0` is the proof's bound, the paper uses
    /// larger factors (up to 100×) for large query counts.
    EdgeBudgetAuto {
        /// Multiplier applied to `|E_P| / |Q|`.
        factor: f64,
    },
    /// Heuristic 2: yield once the current operation's priority exceeds the
    /// first processed operation's priority by more than `delta`.
    ValueRange {
        /// Maximum allowed priority gap (Δ of Δ-stepping).
        delta: Priority,
    },
}

impl Default for YieldPolicy {
    fn default() -> Self {
        YieldPolicy::EdgeBudgetAuto { factor: 2.0 }
    }
}

impl YieldPolicy {
    /// Human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            YieldPolicy::None => "no-yielding".to_string(),
            YieldPolicy::EdgeBudget { threshold } => format!("edge-budget({threshold})"),
            YieldPolicy::EdgeBudgetAuto { factor } => format!("edge-budget-auto({factor}x)"),
            YieldPolicy::ValueRange { delta } => format!("value-range(delta={delta})"),
        }
    }

    /// Resolve this policy into a concrete per-visit checker for a partition
    /// with `partition_edges` edges when `num_queries` queries are running.
    pub fn for_partition(&self, partition_edges: u64, num_queries: usize) -> YieldChecker {
        let resolved = match *self {
            YieldPolicy::EdgeBudgetAuto { factor } => {
                let mu = partition_edges as f64 / num_queries.max(1) as f64;
                YieldPolicy::EdgeBudget { threshold: (factor * mu).ceil().max(1.0) as u64 }
            }
            other => other,
        };
        YieldChecker { policy: resolved, first_priority: None, edges_this_visit: 0 }
    }
}

/// Per-(query, partition-visit) yielding state.
#[derive(Clone, Copy, Debug)]
pub struct YieldChecker {
    policy: YieldPolicy,
    first_priority: Option<Priority>,
    edges_this_visit: u64,
}

impl YieldChecker {
    /// Record that the query processed `edges` edges.
    pub fn record_edges(&mut self, edges: u64) {
        self.edges_this_visit += edges;
    }

    /// Total edges recorded in this visit.
    pub fn edges_this_visit(&self) -> u64 {
        self.edges_this_visit
    }

    /// Decide whether the query should yield *before* processing an operation
    /// with the given priority. The first operation of a visit is never
    /// yielded on (it establishes the α reference value of heuristic 2).
    pub fn should_yield(&mut self, next_priority: Priority) -> bool {
        match self.policy {
            YieldPolicy::None => false,
            YieldPolicy::EdgeBudget { threshold } => self.edges_this_visit > threshold,
            YieldPolicy::EdgeBudgetAuto { .. } => unreachable!("resolved in for_partition"),
            YieldPolicy::ValueRange { delta } => match self.first_priority {
                None => {
                    self.first_priority = Some(next_priority);
                    false
                }
                Some(alpha) => next_priority > alpha.saturating_add(delta),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_yielding_never_yields() {
        let mut c = YieldPolicy::None.for_partition(100, 4);
        c.record_edges(1_000_000);
        assert!(!c.should_yield(u64::MAX - 1));
    }

    #[test]
    fn edge_budget_yields_after_threshold() {
        let mut c = YieldPolicy::EdgeBudget { threshold: 10 }.for_partition(1000, 4);
        assert!(!c.should_yield(0));
        c.record_edges(10);
        assert!(!c.should_yield(0), "exactly at the threshold is still allowed");
        c.record_edges(1);
        assert!(c.should_yield(0));
        assert_eq!(c.edges_this_visit(), 11);
    }

    #[test]
    fn auto_budget_uses_partition_edges_over_queries() {
        // |E_P| = 100, |Q| = 10, factor 1.0 → threshold 10.
        let mut c = YieldPolicy::EdgeBudgetAuto { factor: 1.0 }.for_partition(100, 10);
        c.record_edges(10);
        assert!(!c.should_yield(0));
        c.record_edges(1);
        assert!(c.should_yield(0));
        // factor 2.0 → threshold 20.
        let mut c2 = YieldPolicy::EdgeBudgetAuto { factor: 2.0 }.for_partition(100, 10);
        c2.record_edges(15);
        assert!(!c2.should_yield(0));
    }

    #[test]
    fn value_range_yields_when_priority_drifts_past_delta() {
        let mut c = YieldPolicy::ValueRange { delta: 5 }.for_partition(100, 1);
        assert!(!c.should_yield(10)); // establishes alpha = 10
        assert!(!c.should_yield(15)); // within [10, 15]
        assert!(c.should_yield(16));
        assert!(!c.should_yield(12));
    }

    #[test]
    fn value_range_saturates_instead_of_overflowing() {
        let mut c = YieldPolicy::ValueRange { delta: u64::MAX }.for_partition(10, 1);
        assert!(!c.should_yield(5));
        assert!(!c.should_yield(u64::MAX - 1));
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(YieldPolicy::None.name(), "no-yielding");
        assert!(YieldPolicy::EdgeBudget { threshold: 7 }.name().contains('7'));
        assert!(YieldPolicy::EdgeBudgetAuto { factor: 1.5 }.name().contains("1.5"));
        assert!(YieldPolicy::ValueRange { delta: 3 }.name().contains("delta=3"));
    }
}
