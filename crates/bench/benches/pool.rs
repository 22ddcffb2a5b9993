//! Pool-vs-serial executor micro-benchmark.
//!
//! The persistent `WorkerPool` runs every multi-threaded batch. Its dispatch,
//! mailbox routing and termination protocol cost the most relative to the
//! work when batches are small (the fg-service hot path runs one engine run
//! per micro-batch). This bench measures identical SSSP runs through the
//! serial loop and a warm pool at batch sizes 1, 4, and 32, and asserts the
//! pool's results equal the serial engine's every iteration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fg_bench::smoke::{workload, Scale};
use fg_graph::VertexId;
use forkgraph_core::{EngineConfig, ForkGraphEngine};

const BATCH_SIZES: [usize; 3] = [1, 4, 32];
const WORKERS: usize = 4;

fn bench_pool_vs_serial(c: &mut Criterion) {
    let (pg, sources) = workload(Scale::FULL);
    println!(
        "pool-vs-serial workload: {} partitions, {WORKERS} workers, cores={}",
        pg.num_partitions(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let serial = ForkGraphEngine::new(&pg, EngineConfig::default());

    for batch in BATCH_SIZES {
        let batch_sources: Vec<VertexId> = sources.iter().copied().take(batch).collect();
        let oracle = serial.run_sssp(&batch_sources).per_query;

        let mut group = c.benchmark_group(format!("sssp_batch{batch}"));
        group.bench_function(BenchmarkId::new("serial", 1), |b| {
            b.iter(|| serial.run_sssp(&batch_sources))
        });

        // One engine for all iterations: the pool is created on the first
        // run and every subsequent run reuses the warm crew — the steady
        // state the bench is about.
        let pool_engine = ForkGraphEngine::new(&pg, EngineConfig::default().with_threads(WORKERS));
        pool_engine.run_sssp(&batch_sources); // warm-up: spawn the pool threads
        group.bench_function(BenchmarkId::new("pool", WORKERS), |b| {
            b.iter(|| {
                let result = pool_engine.run_sssp(&batch_sources);
                assert_eq!(result.per_query, oracle, "pool executor diverged");
            })
        });
        group.finish();

        let pool = pool_engine.worker_pool().expect("pool created by warm-up");
        let metrics = pool.metrics();
        println!(
            "batch {batch}: pool dispatches={} threads_spawned={} mailbox_reuse={:.2}",
            metrics.dispatches,
            metrics.threads_spawned,
            metrics.mailbox_reuse_rate()
        );
        assert_eq!(
            metrics.threads_spawned, WORKERS as u64,
            "steady-state bench iterations must not spawn threads"
        );
    }
}

criterion_group!(benches, bench_pool_vs_serial);
criterion_main!(benches);
