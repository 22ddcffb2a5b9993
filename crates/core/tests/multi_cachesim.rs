//! Cache-simulator coverage for heterogeneous multi-kernel runs: the
//! Figure-10-style measurement this whole feature exists for. When two
//! kernel cohorts share one partition pass, a partition's adjacency lines
//! are fetched into the simulated LLC once per visit and then serve *both*
//! groups' operations — so the mixed run must miss strictly less than the
//! two solo sweeps combined.
//!
//! The geometry is chosen for the regime where that sharing is physical
//! rather than incidental:
//!
//! * **Adjacency-dominated**: the graph's edge lists dwarf the simulated
//!   LLC, so solo sweeps re-fetch adjacency every pass, while the few
//!   queries' states fit beside one partition's slice.
//! * **Aligned wave dynamics**: the two kernels (SSSP and a weighted k-hop
//!   table) both use *distance* priorities, so their frontiers move through
//!   partitions together and most visits genuinely serve both groups.
//!   (Kernels with disjoint priority scales — BFS levels vs SSSP distances —
//!   phase-separate under priority scheduling and share far less; see the
//!   mixed-run-fairness note in ROADMAP.md.)
//! * **Associativity headroom**: the simulator gives every logical array a
//!   region aligned to a common large stride, so element `i` of every
//!   region maps to the same cache set; the mixed run keeps twice the state
//!   regions live, and a low-associativity geometry would charge it
//!   conflict misses that real hardware's physical allocation wouldn't.
//!   16 ways keep the measurement about capacity and reuse.

use std::sync::Arc;

use fg_cachesim::CacheConfig;
use fg_graph::partition::{PartitionConfig, PartitionMethod, PartitionPlan};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, Dist, StorageConfig, VertexId};
use fg_metrics::CacheNumbers;
use forkgraph_core::kernels::SsspKernel;
use forkgraph_core::{erase, EngineConfig, ForkGraphEngine, SchedulingPolicy};

#[path = "common/khop.rs"]
mod khop;
use khop::KHopKernel;

fn setup() -> (PartitionedGraph, Vec<VertexId>) {
    let g = gen::rmat(11, 12, 53).with_random_weights(8, 53);
    let pg = PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, 8),
    );
    let n = pg.graph().num_vertices() as u32;
    let sources = (0..4u32).map(|i| (i * 193 + 5) % n).collect();
    (pg, sources)
}

/// ~256 KiB simulated LLC (the graph's adjacency is larger), deterministic
/// serial FIFO schedule.
fn traced_config() -> EngineConfig {
    EngineConfig::default()
        .with_threads(1)
        .with_scheduling(SchedulingPolicy::Fifo)
        .with_cache(CacheConfig { capacity_bytes: 256 * 1024, line_bytes: 64, associativity: 16 })
}

#[test]
fn mixed_run_shares_partition_lines_across_groups() {
    let (pg, sources) = setup();
    let engine = ForkGraphEngine::new(&pg, traced_config());
    let sssp = erase(SsspKernel);
    let khop = erase(KHopKernel { k: 8 });

    let solo_sssp: CacheNumbers =
        engine.run_dyn(&*sssp, &sources).measurement.cache.expect("tracer attached");
    let solo_khop: CacheNumbers =
        engine.run_dyn(&*khop, &sources).measurement.cache.expect("tracer attached");
    let mixed = engine.run_multi(&[(&*sssp, &sources[..]), (&*khop, &sources[..])]);
    let mixed_cache: CacheNumbers = mixed.measurement.cache.expect("tracer attached");

    // Sanity: the tracer saw real traffic in every configuration.
    assert!(solo_sssp.misses > 0 && solo_khop.misses > 0 && mixed_cache.misses > 0);
    assert!(mixed_cache.accesses > 0);

    // The win: the shared pass misses strictly less than the two solo
    // sweeps combined, because each partition visit's adjacency lines serve
    // both groups while resident. (Measured ~0.8x on this geometry; the
    // assertion leaves headroom for partitioner evolution.)
    let solo_total = solo_sssp.misses + solo_khop.misses;
    eprintln!(
        "[multi_cachesim] solo sssp {} + solo khop {} = {solo_total} misses; mixed {} ({:.2}x)",
        solo_sssp.misses,
        solo_khop.misses,
        mixed_cache.misses,
        mixed_cache.misses as f64 / solo_total as f64
    );
    assert!(
        mixed_cache.misses < solo_total,
        "mixed run should reuse partition lines across groups: {} misses vs {} + {} solo",
        mixed_cache.misses,
        solo_sssp.misses,
        solo_khop.misses
    );
    // And it cannot beat physics: the mixed run still does at least one
    // cohort's worth of cold traffic.
    assert!(mixed_cache.misses >= solo_sssp.misses.min(solo_khop.misses));
    assert!(mixed.work().partition_visits >= 1);
}

/// The study graph again, but stored twice from **one** partition plan —
/// raw CSR slices vs compressed delta/varint payloads. (A shared plan is
/// load-bearing: the Multilevel partitioner's tie-breaking is not
/// deterministic across separate builds, and a different membership would
/// change the traffic being compared.)
fn storage_pair() -> (PartitionedGraph, PartitionedGraph, Vec<VertexId>) {
    let g = gen::rmat(11, 12, 53).with_random_weights(8, 53);
    let base = PartitionConfig::with_partitions(PartitionMethod::Multilevel, 8);
    let arc = Arc::new(g);
    let plan = PartitionPlan::compute(&arc, &base);
    let raw = PartitionedGraph::from_plan(Arc::clone(&arc), plan.clone(), base);
    let compressed =
        PartitionedGraph::from_plan(arc, plan, base.with_storage(StorageConfig::Compressed));
    let n = raw.graph().num_vertices() as u32;
    let sources = (0..4u32).map(|i| (i * 193 + 5) % n).collect();
    (raw, compressed, sources)
}

/// ISSUE 10 acceptance: on the Figure-10-style mixed-run study graph,
/// compressed partition storage **strictly reduces** simulated LLC misses —
/// each visit streams the (much smaller) encoded byte range instead of the
/// raw CSR lines — while producing byte-identical results.
#[test]
fn compressed_storage_strictly_reduces_simulated_misses_on_the_mixed_run() {
    let (raw, compressed, sources) = storage_pair();
    let sssp = erase(SsspKernel);
    let khop = erase(KHopKernel { k: 8 });
    let run = |pg: &PartitionedGraph| {
        ForkGraphEngine::new(pg, traced_config())
            .run_multi(&[(&*sssp, &sources[..]), (&*khop, &sources[..])])
    };
    let raw_run = run(&raw);
    let comp_run = run(&compressed);
    let raw_cache: CacheNumbers = raw_run.measurement.cache.expect("tracer attached");
    let comp_cache: CacheNumbers = comp_run.measurement.cache.expect("tracer attached");

    assert!(raw_cache.misses > 0 && comp_cache.misses > 0);
    eprintln!(
        "[multi_cachesim] raw {} misses, compressed {} misses ({:.2}x)",
        raw_cache.misses,
        comp_cache.misses,
        comp_cache.misses as f64 / raw_cache.misses as f64
    );
    assert!(
        comp_cache.misses < raw_cache.misses,
        "compressed storage must reduce simulated misses: {} vs {} raw",
        comp_cache.misses,
        raw_cache.misses
    );

    // Same answers: decode-on-visit changed the traffic, not the results.
    for (group, (a_group, b_group)) in
        comp_run.per_group.iter().zip(raw_run.per_group.iter()).enumerate()
    {
        for (q, (a, b)) in a_group.iter().zip(b_group.iter()).enumerate() {
            assert_eq!(
                a.downcast_ref::<Vec<Dist>>().unwrap(),
                b.downcast_ref::<Vec<Dist>>().unwrap(),
                "group {group} query {q} diverged between storage modes"
            );
        }
    }

    // The storage numbers flow through the measurement.
    let storage = comp_run.measurement.storage.expect("partition store attached");
    assert_eq!(storage.compressed_partitions, 8);
    assert_eq!(storage.total_partitions, 8);
    assert!(storage.payload_bytes_compressed > 0);
    let raw_storage = raw_run.measurement.storage.expect("partition store attached");
    assert_eq!(raw_storage.compressed_partitions, 0);
    assert!(
        storage.bytes_per_edge < raw_storage.bytes_per_edge,
        "compressed bytes/edge {} should undercut raw {}",
        storage.bytes_per_edge,
        raw_storage.bytes_per_edge
    );
}

#[test]
fn mixed_run_reports_cache_numbers_under_the_parallel_executor_too() {
    let (pg, sources) = setup();
    let config = traced_config().with_threads(3);
    let engine = ForkGraphEngine::new(&pg, config);
    let sssp = erase(SsspKernel);
    let khop = erase(KHopKernel { k: 8 });
    let mixed = engine.run_multi(&[(&*sssp, &sources[..]), (&*khop, &sources[..])]);
    let cache = mixed.measurement.cache.expect("tracer attached");
    assert!(cache.accesses > 0 && cache.misses > 0);
    assert_eq!(mixed.per_group.len(), 2);
}
