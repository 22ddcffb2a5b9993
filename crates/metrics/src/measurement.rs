//! Measurements bundling time, work, cache behaviour, and memory.

use std::time::Duration;

use crate::counters::WorkSnapshot;

/// Cache counters copied from `fg-cachesim` (duplicated here to avoid a
/// circular dependency; conversion helpers live in the engines).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheNumbers {
    /// Total simulated LLC accesses.
    pub accesses: u64,
    /// Simulated LLC loads (reads).
    pub loads: u64,
    /// Simulated LLC misses.
    pub misses: u64,
}

impl CacheNumbers {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Approximate memory consumption of an engine run, reproducing Table 3B.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Bytes of graph storage (CSR, including the transpose if built).
    pub graph_bytes: u64,
    /// Bytes of per-query result/state arrays.
    pub query_state_bytes: u64,
    /// Bytes of auxiliary structures (buffers, frontiers, schedulers).
    pub auxiliary_bytes: u64,
}

impl MemoryEstimate {
    /// Total estimated bytes.
    pub fn total_bytes(&self) -> u64 {
        self.graph_bytes + self.query_state_bytes + self.auxiliary_bytes
    }

    /// Total in GiB, convenient for Table 3B style reporting.
    pub fn total_gib(&self) -> f64 {
        self.total_bytes() as f64 / (1024.0 * 1024.0 * 1024.0)
    }
}

/// Partition-storage numbers of one run: how many partitions hold compressed
/// (delta/varint) adjacency payloads and what the stored bytes amount to,
/// relative to the raw CSR-equivalent encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StorageNumbers {
    /// Partitions stored as compressed delta/varint payloads.
    pub compressed_partitions: u64,
    /// Total partitions in the store.
    pub total_partitions: u64,
    /// Adjacency bytes of raw-stored partitions (CSR-equivalent form).
    pub payload_bytes_raw: u64,
    /// Encoded adjacency bytes of compressed partitions.
    pub payload_bytes_compressed: u64,
    /// Mean stored adjacency bytes per edge across all partitions.
    pub bytes_per_edge: f64,
}

impl StorageNumbers {
    /// Fraction of partitions stored compressed, in `[0, 1]`.
    pub fn compressed_fraction(&self) -> f64 {
        if self.total_partitions == 0 {
            0.0
        } else {
            self.compressed_partitions as f64 / self.total_partitions as f64
        }
    }
}

/// One engine run's results.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Measurement {
    /// Label, e.g. `"ForkGraph"` or `"Ligra (t=1)"`.
    pub label: String,
    /// Wall-clock execution time.
    pub wall_time: Duration,
    /// Work counters.
    pub work: WorkSnapshot,
    /// Simulated cache counters (if the run was instrumented).
    pub cache: Option<CacheNumbers>,
    /// Approximate memory consumption.
    pub memory: Option<MemoryEstimate>,
    /// Partition-storage numbers (engines with a partition store only).
    pub storage: Option<StorageNumbers>,
}

impl Measurement {
    /// Create a measurement with just a label and a wall time.
    pub fn new(label: impl Into<String>, wall_time: Duration) -> Self {
        Measurement { label: label.into(), wall_time, ..Default::default() }
    }

    /// Wall time in seconds as a float.
    pub fn seconds(&self) -> f64 {
        self.wall_time.as_secs_f64()
    }

    /// Speedup of this measurement over `baseline` (baseline time / this time).
    pub fn speedup_over(&self, baseline: &Measurement) -> f64 {
        if self.wall_time.as_nanos() == 0 {
            f64::INFINITY
        } else {
            baseline.wall_time.as_secs_f64() / self.wall_time.as_secs_f64()
        }
    }
}

/// Convenience timer that produces a [`Duration`].
#[derive(Debug)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Start timing.
    pub fn start() -> Self {
        Stopwatch { start: std::time::Instant::now() }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_numbers_miss_ratio() {
        let c = CacheNumbers { accesses: 10, loads: 8, misses: 4 };
        assert!((c.miss_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(CacheNumbers::default().miss_ratio(), 0.0);
    }

    #[test]
    fn memory_estimate_totals() {
        let m = MemoryEstimate {
            graph_bytes: 1 << 30,
            query_state_bytes: 1 << 29,
            auxiliary_bytes: 1 << 29,
        };
        assert_eq!(m.total_bytes(), 2 << 30);
        assert!((m.total_gib() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn storage_numbers_compressed_fraction() {
        let s = StorageNumbers {
            compressed_partitions: 3,
            total_partitions: 4,
            payload_bytes_raw: 1000,
            payload_bytes_compressed: 300,
            bytes_per_edge: 2.5,
        };
        assert!((s.compressed_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(StorageNumbers::default().compressed_fraction(), 0.0);
    }

    #[test]
    fn speedup_computation() {
        let slow = Measurement::new("slow", Duration::from_secs(10));
        let fast = Measurement::new("fast", Duration::from_secs(2));
        assert!((fast.speedup_over(&slow) - 5.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(sw.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn measurement_round_trips_by_value() {
        // Measurements are plain values: a clone compares equal.
        let m = Measurement::new("x", Duration::from_millis(5));
        let back = m.clone();
        assert_eq!(m, back);
    }
}
