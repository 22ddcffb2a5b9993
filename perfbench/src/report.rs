//! The metric catalogue and the result a workload run hands back.

use crate::check::Tally;

/// End-to-end metrics, emitted by every workload with `--trace 0`. The
/// names, units and order match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("vs_sequential", "ratio"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`. A layer a
/// workload does not exercise reads 0 (no work done there); README.md lists
/// which layers each workload exercises.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.edge_cut_frac", "ratio"),
    ("graph.bytes_per_edge", "B"),
    ("graph.max_partition_kib", "KiB"),
    ("engine.run_ms_p50", "ms"),
    ("engine.ns_per_edge", "ns"),
    ("engine.work_ratio", "ratio"),
    ("engine.buffered_per_processed", "ratio"),
    ("engine.dead_op_frac", "ratio"),
    ("engine.visits_per_batch", "count"),
    ("engine.yields_per_visit", "ratio"),
    ("engine.ops_per_visit_p50", "count"),
    ("engine.phase_init_frac", "ratio"),
    ("engine.phase_processing_frac", "ratio"),
    ("engine.phase_finalize_frac", "ratio"),
    ("pool.steals_per_batch", "count"),
    ("pool.idle_waits_per_batch", "count"),
    ("pool.dispatches", "count"),
    ("seq.queries_per_s", "1/s"),
    ("apps.aggregate_ms", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.batch_run_ms_p50", "ms"),
    ("service.batch_occupancy_mean", "count"),
    ("service.cache_hit_frac", "ratio"),
    ("service.shed_frac", "ratio"),
    ("service.fold_ms_p50", "ms"),
    ("service.rematerialized_frac", "ratio"),
    ("service.incremental_frac", "ratio"),
    ("server.cache_hit_rtt_ms_p50", "ms"),
    ("gen.late_ms_max", "ms"),
    ("serve.sustained_rps", "1/s"),
    ("serve.latency_ms_p95", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    pub tally: Tally,
    /// Workload descriptors (seed, sizes, partitioning, machine).
    pub descriptors: Vec<(&'static str, String)>,
    /// Metrics this run could not measure from outside the program, and why.
    pub unmeasured: Vec<(&'static str, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn describe(&mut self, key: &'static str, value: impl ToString) {
        self.descriptors.push((key, value.to_string()));
    }

    /// Record a metric that cannot be measured from outside the program: it
    /// reads 0 and the reason is printed with the results.
    pub fn unmeasured(&mut self, name: &'static str, why: &'static str) {
        self.set(name, 0.0);
        self.unmeasured.push((name, why));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue the benchmark prints is the one `BENCHMARK.json`
    /// declares, name for name and unit for unit.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(
            names - workloads,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics in BENCHMARK.json"
        );
    }
}
