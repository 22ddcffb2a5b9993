//! Memory-stall cost model.
//!
//! Figure 13 of the paper breaks the time spent in the memory units into
//! stalled and not-stalled portions. We approximate the same breakdown with a
//! two-level latency model: an LLC hit costs [`StallModel::hit_cycles`], an LLC
//! miss costs [`StallModel::miss_cycles`] (a DRAM access). Cycles beyond the
//! hit cost are counted as stalled.

use crate::cache::CacheStats;

/// Latency parameters of the stall model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallModel {
    /// Cycles for an access served by the LLC.
    pub hit_cycles: u64,
    /// Cycles for an access that misses to DRAM.
    pub miss_cycles: u64,
}

impl Default for StallModel {
    fn default() -> Self {
        // Typical figures for a Skylake-class server part: ~40 cycles LLC,
        // ~200 cycles DRAM.
        StallModel { hit_cycles: 40, miss_cycles: 200 }
    }
}

/// Result of applying a [`StallModel`] to a set of cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// Cycles spent in memory units that were unavoidable (hit latency for
    /// every access).
    pub busy_cycles: u64,
    /// Extra cycles attributable to LLC misses (the "stalled" portion).
    pub stalled_cycles: u64,
}

impl StallBreakdown {
    /// Total memory-unit cycles.
    pub fn total_cycles(&self) -> u64 {
        self.busy_cycles + self.stalled_cycles
    }

    /// Fraction of memory-unit time that was stalled, in `[0, 1]`.
    pub fn stalled_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.stalled_cycles as f64 / total as f64
        }
    }
}

impl StallModel {
    /// Apply the model to a set of cache counters.
    pub fn breakdown(&self, stats: &CacheStats) -> StallBreakdown {
        let busy = stats.accesses * self.hit_cycles;
        let stalled = stats.misses * self.miss_cycles.saturating_sub(self.hit_cycles);
        StallBreakdown { busy_cycles: busy, stalled_cycles: stalled }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(accesses: u64, misses: u64) -> CacheStats {
        CacheStats { accesses, hits: accesses - misses, misses, loads: accesses, stores: 0 }
    }

    #[test]
    fn no_misses_means_no_stalls() {
        let b = StallModel::default().breakdown(&stats(100, 0));
        assert_eq!(b.stalled_cycles, 0);
        assert_eq!(b.stalled_fraction(), 0.0);
        assert_eq!(b.busy_cycles, 100 * 40);
    }

    #[test]
    fn all_misses_is_mostly_stalled() {
        let b = StallModel::default().breakdown(&stats(100, 100));
        assert!(b.stalled_fraction() > 0.5, "{}", b.stalled_fraction());
        assert_eq!(b.total_cycles(), 100 * 40 + 100 * 160);
    }

    #[test]
    fn stall_fraction_monotone_in_miss_ratio() {
        let model = StallModel::default();
        let low = model.breakdown(&stats(1000, 100)).stalled_fraction();
        let high = model.breakdown(&stats(1000, 800)).stalled_fraction();
        assert!(high > low);
    }

    #[test]
    fn empty_stats_are_harmless() {
        let b = StallModel::default().breakdown(&CacheStats::default());
        assert_eq!(b.total_cycles(), 0);
        assert_eq!(b.stalled_fraction(), 0.0);
    }
}
