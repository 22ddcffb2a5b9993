//! The ForkGraph engine: Algorithm 2 of the paper.
//!
//! ```text
//! InitBuffers(P, Q)
//! while at least one buffer has operations:
//!     Pc <- ScheduleNextPart()          (inter-partition scheduling, §5.2)
//!     IntraPartProcess(Pc):             (intra-partition processing, §4)
//!         consolidate operations per query
//!         parallel_for_each query q:
//!             process q's operations sequentially in priority order,
//!             yielding early per the yield policy (§5.1)
//!         send operations to neighbour partitions in batches
//! ```

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;
use rayon::prelude::*;

use fg_cachesim::{CacheConfig, GraphAccessTracer};
use fg_graph::partition::PartitionId;
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, Dist, Edge, VertexId};
use fg_metrics::{
    CacheNumbers, Measurement, MemoryEstimate, Stopwatch, WorkCounters, WorkSnapshot,
};
use fg_seq::ppr::PprConfig;
use fg_seq::random_walk::RandomWalkConfig;
use fg_trace::{EventKind, Histogram, RunProfile, TraceSink};

use crate::buffer::{ConsolidationMethod, PartitionBuffer};
use crate::kernel::{FppKernel, IncrementalKernel, KernelDriver};
use crate::kernels::{BfsKernel, DfsKernel, PprKernel, RandomWalkKernel, SsspKernel};
use crate::operation::{HeapEntry, Operation, Priority};
use crate::pool::WorkerPool;
use crate::sched::{Scheduler, SchedulingPolicy};
use crate::yield_policy::YieldPolicy;

/// Cumulative optimisation levels used in the ablation study (Figure 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AblationLevel {
    /// "+buffer": buffered, partition-at-a-time execution only (FIFO
    /// scheduling, no per-query consolidation ordering, no yielding).
    BufferOnly,
    /// "+consolidation": adds query-centric consolidation with the priority
    /// functor ordering operations within a query.
    Consolidation,
    /// "+priority scheduling": adds priority-based inter-partition scheduling.
    PriorityScheduling,
    /// "+yielding": the full system.
    Full,
}

impl AblationLevel {
    /// All levels in cumulative order.
    pub fn all() -> [AblationLevel; 4] {
        [
            AblationLevel::BufferOnly,
            AblationLevel::Consolidation,
            AblationLevel::PriorityScheduling,
            AblationLevel::Full,
        ]
    }

    /// Label used in the Figure 11 report.
    pub fn label(&self) -> &'static str {
        match self {
            AblationLevel::BufferOnly => "+buffer",
            AblationLevel::Consolidation => "+consolidation",
            AblationLevel::PriorityScheduling => "+priority scheduling",
            AblationLevel::Full => "+yielding",
        }
    }
}

/// Configuration of a [`ForkGraphEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Inter-partition scheduling policy (§5.2).
    pub scheduling: SchedulingPolicy,
    /// Yielding policy (§5.1).
    pub yield_policy: YieldPolicy,
    /// Whether query-centric consolidation orders each query's operations by
    /// the priority functor (disabled only for the "+buffer" ablation).
    pub consolidate: bool,
    /// Number of buckets per partition buffer (K of Appendix B.1).
    pub num_buckets: usize,
    /// Consolidation method used when draining buffers.
    pub consolidation_method: ConsolidationMethod,
    /// Simulated LLC geometry; `None` disables cache simulation.
    pub cache: Option<CacheConfig>,
    /// Worker threads for the inter-partition parallel executor
    /// ([`crate::executor`]), which runs on a persistent
    /// [`crate::pool::WorkerPool`]. `1` (the default) keeps the paper's
    /// serial partition-at-a-time loop; values above one process disjoint
    /// partitions concurrently. `0` means "one worker per available CPU".
    pub num_threads: usize,
    /// Attach a [`RunProfile`] (per-phase wall time, visit/steal histograms)
    /// to each run result. Independent of event tracing — profiles are
    /// computed from counters the run keeps anyway, so they work with no
    /// [`TraceSink`] attached. Off by default: the histogram updates cost a
    /// few relaxed atomic ops per partition visit.
    pub profile: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scheduling: SchedulingPolicy::Priority,
            yield_policy: YieldPolicy::default(),
            consolidate: true,
            num_buckets: 64,
            consolidation_method: ConsolidationMethod::Sort,
            cache: None,
            num_threads: 1,
            profile: false,
        }
    }
}

impl EngineConfig {
    /// Configuration corresponding to one cumulative ablation level.
    pub fn for_ablation(level: AblationLevel) -> Self {
        let base = EngineConfig::default();
        match level {
            AblationLevel::BufferOnly => EngineConfig {
                scheduling: SchedulingPolicy::Fifo,
                yield_policy: YieldPolicy::None,
                consolidate: false,
                ..base
            },
            AblationLevel::Consolidation => EngineConfig {
                scheduling: SchedulingPolicy::Fifo,
                yield_policy: YieldPolicy::None,
                consolidate: true,
                ..base
            },
            AblationLevel::PriorityScheduling => EngineConfig {
                scheduling: SchedulingPolicy::Priority,
                yield_policy: YieldPolicy::None,
                consolidate: true,
                ..base
            },
            AblationLevel::Full => base,
        }
    }

    /// Enable cache simulation.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Override the scheduling policy.
    pub fn with_scheduling(mut self, scheduling: SchedulingPolicy) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Override the yielding policy.
    pub fn with_yield_policy(mut self, yield_policy: YieldPolicy) -> Self {
        self.yield_policy = yield_policy;
        self
    }

    /// Set the worker-thread count of the parallel executor (`1` = serial,
    /// `0` = one worker per available CPU).
    pub fn with_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Attach a [`RunProfile`] to each run result (see
    /// [`EngineConfig::profile`]).
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Worker threads this configuration resolves to on this machine.
    pub fn resolved_threads(&self) -> usize {
        if self.num_threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.num_threads
        }
    }
}

/// Result of running an FPP batch through ForkGraph.
#[derive(Clone, Debug)]
pub struct ForkGraphRunResult<S> {
    /// Final per-query states (the query results), in source order.
    pub per_query: Vec<S>,
    /// Timing, work, cache, and memory measurement of the batch.
    pub measurement: Measurement,
    /// Per-run profile (phase wall times, visit/steal histograms); present
    /// iff [`EngineConfig::profile`] was set.
    pub profile: Option<RunProfile>,
}

impl<S> ForkGraphRunResult<S> {
    /// Work counters of the run.
    pub fn work(&self) -> &WorkSnapshot {
        &self.measurement.work
    }

    /// Pair each query's final state with the source it was launched from.
    ///
    /// `sources` must be the slice that was passed to [`ForkGraphEngine::run`]
    /// for this result (`per_query` is in source order). This is the
    /// demultiplexing primitive used by `fg-service` to hand a consolidated
    /// batch's per-query results back to individual submitters.
    ///
    /// # Panics
    /// Panics if `sources.len() != self.per_query.len()`.
    pub fn per_source<'a>(
        &'a self,
        sources: &'a [VertexId],
    ) -> impl ExactSizeIterator<Item = (VertexId, &'a S)> + 'a {
        assert_eq!(
            sources.len(),
            self.per_query.len(),
            "per_source: {} sources for {} query results",
            sources.len(),
            self.per_query.len()
        );
        sources.iter().copied().zip(self.per_query.iter())
    }

    /// Consuming variant of [`Self::per_source`]: split the result into owned
    /// `(source, state)` pairs, dropping the shared measurement.
    ///
    /// # Panics
    /// Panics if `sources.len() != self.per_query.len()`.
    pub fn into_per_source(self, sources: &[VertexId]) -> Vec<(VertexId, S)> {
        assert_eq!(
            sources.len(),
            self.per_query.len(),
            "into_per_source: {} sources for {} query results",
            sources.len(),
            self.per_query.len()
        );
        sources.iter().copied().zip(self.per_query).collect()
    }
}

/// The single-kernel [`KernelDriver`]: wraps one `&K` and ignores the query
/// index. Every method is an inlined forward — a visit goes straight into
/// the monomorphized [`ForkGraphEngine::process_query_visit`] — so `run`
/// over a `SingleDriver` compiles to exactly the code the pre-driver
/// pipeline produced; the driver seam costs the hot path nothing.
pub(crate) struct SingleDriver<'k, K: FppKernel>(pub(crate) &'k K);

impl<K: FppKernel> KernelDriver for SingleDriver<'_, K> {
    type Value = K::Value;
    type State = K::State;

    #[inline]
    fn init_state(&self, graph: &CsrGraph, _query: u32) -> K::State {
        self.0.init_state(graph)
    }

    #[inline]
    fn source_op(&self, _query: u32, source: VertexId) -> (K::Value, Priority) {
        self.0.source_op(source)
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn process_visit(
        &self,
        engine: &ForkGraphEngine<'_>,
        graph: &CsrGraph,
        partition: PartitionId,
        query: u32,
        ops: Vec<Operation<K::Value>>,
        state: &mut K::State,
        partition_edges: u64,
        num_queries: usize,
        tracer: &GraphAccessTracer,
        counters: &WorkCounters,
    ) -> VisitOutcome<K::Value> {
        engine.process_query_visit(
            self.0,
            graph,
            partition,
            query,
            ops,
            state,
            partition_edges,
            num_queries,
            tracer,
            counters,
        )
    }
}

/// The delta-restart [`KernelDriver`]: resumes a converged run from its
/// previous per-query states, seeding each query with the operations its
/// edge delta triggers instead of a fresh source op. The visit path is the
/// same inlined forward to [`ForkGraphEngine::process_query_visit`] as
/// [`SingleDriver`] — only *initialisation* differs, so an incremental run
/// is byte-equivalent to a from-scratch run that happened to prune every
/// already-settled vertex.
struct IncrementalDriver<'k, K: IncrementalKernel> {
    kernel: &'k K,
    /// Previous converged states, taken (once each) by `init_state`.
    prev: Vec<Mutex<Option<K::State>>>,
    /// Per-query delta-frontier seeds: `(vertex, value, priority)`.
    seeds: Vec<Vec<(VertexId, K::Value, Priority)>>,
}

impl<K: IncrementalKernel> KernelDriver for IncrementalDriver<'_, K> {
    type Value = K::Value;
    type State = K::State;

    fn init_state(&self, _graph: &CsrGraph, query: u32) -> K::State {
        self.prev[query as usize]
            .lock()
            .take()
            .expect("incremental run initialises each query's state exactly once")
    }

    #[inline]
    fn source_op(&self, _query: u32, source: VertexId) -> (K::Value, Priority) {
        // Unused: `seed_ops` is overridden. Kept total for trait hygiene.
        self.kernel.source_op(source)
    }

    fn seed_ops(
        &self,
        query: u32,
        _source: VertexId,
        emit: &mut dyn FnMut(VertexId, K::Value, Priority),
    ) {
        for &(vertex, value, priority) in &self.seeds[query as usize] {
            emit(vertex, value, priority);
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn process_visit(
        &self,
        engine: &ForkGraphEngine<'_>,
        graph: &CsrGraph,
        partition: PartitionId,
        query: u32,
        ops: Vec<Operation<K::Value>>,
        state: &mut K::State,
        partition_edges: u64,
        num_queries: usize,
        tracer: &GraphAccessTracer,
        counters: &WorkCounters,
    ) -> VisitOutcome<K::Value> {
        engine.process_query_visit(
            self.kernel,
            graph,
            partition,
            query,
            ops,
            state,
            partition_edges,
            num_queries,
            tracer,
            counters,
        )
    }
}

/// Outcome of one query's processing during one partition visit, as
/// produced by the engine's internal `process_query_visit` loop: what did
/// complete locally and where it must go next. Public because the erased
/// multi-kernel visit hook ([`crate::dynkernel::DynKernel`]) returns it;
/// everything else about visits stays engine-internal.
pub struct VisitOutcome<V> {
    /// The query this visit processed.
    pub query: u32,
    /// Operations yielded or left unprocessed; they return to the partition's
    /// buffer.
    pub leftover: Vec<Operation<V>>,
    /// Operations targeting other partitions, sent in batches after the visit.
    pub remote: Vec<(PartitionId, Operation<V>)>,
}

/// The ForkGraph execution engine over an LLC-partitioned graph.
pub struct ForkGraphEngine<'g> {
    pg: &'g PartitionedGraph,
    config: EngineConfig,
    /// The persistent worker pool for parallel runs: pre-filled by
    /// [`Self::with_pool`] (a crew shared across engines, e.g. fg-service's),
    /// or lazily created — once — on the first parallel run.
    pool: OnceLock<Arc<WorkerPool>>,
    /// Structured-event sink; `None` (the default) costs one predictable
    /// branch per instrumentation site.
    trace: Option<Arc<TraceSink>>,
}

impl<'g> ForkGraphEngine<'g> {
    /// Create an engine over `pg` with the given configuration.
    pub fn new(pg: &'g PartitionedGraph, config: EngineConfig) -> Self {
        ForkGraphEngine { pg, config, pool: OnceLock::new(), trace: None }
    }

    /// Create an engine that runs parallel batches on an existing
    /// shared [`WorkerPool`] instead of lazily creating its own. This is how
    /// a serving layer amortises one thread crew across many short-lived
    /// engines (one per micro-batch) with varying worker counts.
    pub fn with_pool(
        pg: &'g PartitionedGraph,
        config: EngineConfig,
        pool: Arc<WorkerPool>,
    ) -> Self {
        let engine = ForkGraphEngine::new(pg, config);
        engine.pool.set(pool).expect("fresh OnceLock");
        engine
    }

    /// Create an engine over a pinned epoch snapshot. The borrow ties the
    /// engine's lifetime to the guard's, so the type system proves the run
    /// cannot outlive its pin — the MVCC contract ("a run reads exactly the
    /// epoch it pinned") with no runtime check on the hot path.
    pub fn for_snapshot(guard: &'g fg_graph::SnapshotGuard, config: EngineConfig) -> Self {
        ForkGraphEngine::new(guard.graph(), config)
    }

    /// [`Self::for_snapshot`] with a shared worker pool, the combination the
    /// serving layer's batcher uses for every dispatched run.
    pub fn for_snapshot_with_pool(
        guard: &'g fg_graph::SnapshotGuard,
        config: EngineConfig,
        pool: Arc<WorkerPool>,
    ) -> Self {
        ForkGraphEngine::with_pool(guard.graph(), config, pool)
    }

    /// Attach a structured-event [`TraceSink`]: every run through this
    /// engine emits schedule-level events (run/visit spans, claims, steals,
    /// drains, yields) onto the sink's per-thread rings. The sink is also
    /// attached to the engine's worker pool (current or lazily created
    /// later) so pool-side events — dispatches, storage recycling,
    /// park/unpark — land in the same stream.
    pub fn with_trace_sink(mut self, sink: Arc<TraceSink>) -> Self {
        if let Some(pool) = self.pool.get() {
            pool.attach_trace(Arc::clone(&sink));
        }
        self.trace = Some(sink);
        self
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// Emit one trace event — the `None` check *is* the disabled fast path.
    #[inline]
    pub(crate) fn emit_trace(&self, kind: EventKind, a: u32, b: u32, c: u32) {
        if let Some(trace) = &self.trace {
            trace.emit(kind, a, b, c);
        }
    }

    /// Whether a sink is attached *and currently recording*. Hot loops use
    /// this to skip computing event payloads (not just the emit itself) for
    /// detached or disabled sinks, keeping the disabled cost at one relaxed
    /// load per site.
    #[inline]
    pub(crate) fn trace_active(&self) -> bool {
        self.trace.as_ref().is_some_and(|trace| trace.is_enabled())
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The worker pool this engine dispatches parallel runs to, if one has
    /// been attached or lazily created yet.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.get()
    }

    /// The partitioned graph this engine runs over.
    pub fn partitioned_graph(&self) -> &PartitionedGraph {
        self.pg
    }

    /// Run a batch of queries of kernel `K`, one from each source vertex.
    ///
    /// With `config.num_threads > 1` (and more than one partition) the batch
    /// is executed by the inter-partition parallel executor
    /// ([`crate::executor`]); otherwise by the paper's serial
    /// partition-at-a-time loop of the internal `run_driver` pipeline.
    pub fn run<K: FppKernel>(
        &self,
        kernel: &K,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<K::State> {
        self.run_driver(&SingleDriver(kernel), sources)
    }

    /// The run pipeline shared by every entry point: [`Self::run`] drives a
    /// monomorphized [`SingleDriver`], [`Self::run_multi`] a heterogeneous
    /// [`crate::multi::MultiDriver`]. A run with more than one worker, more
    /// than one partition and at least one source goes to the persistent
    /// [`WorkerPool`]; every other run takes the serial loop.
    pub(crate) fn run_driver<D: KernelDriver>(
        &self,
        driver: &D,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<D::State> {
        let workers = self.config.resolved_threads();
        if workers > 1 && self.pg.num_partitions() > 1 && !sources.is_empty() {
            let pool = self.pool.get_or_init(|| {
                let pool = Arc::new(WorkerPool::new(crate::pool::crew_size(
                    workers,
                    self.pg.num_partitions(),
                )));
                if let Some(trace) = &self.trace {
                    pool.attach_trace(Arc::clone(trace));
                }
                pool
            });
            return crate::executor::run_parallel(self, driver, sources, workers, pool);
        }
        let graph = self.pg.graph();
        let num_partitions = self.pg.num_partitions();
        let num_queries = sources.len();
        let tracer = match self.config.cache {
            Some(config) => GraphAccessTracer::new(config),
            None => GraphAccessTracer::disabled(),
        };
        let counters = WorkCounters::new();
        let watch = Stopwatch::start();
        self.emit_trace(EventKind::RunBegin, num_queries as u32, 1, 1);
        let profiling = self.config.profile;
        let mut visit_ops = Histogram::default();

        let mut buffers: Vec<PartitionBuffer<D::Value>> =
            (0..num_partitions).map(|_| PartitionBuffer::new(self.config.num_buckets)).collect();
        let states: Vec<Mutex<D::State>> =
            (0..num_queries).map(|q| Mutex::new(driver.init_state(graph, q as u32))).collect();
        let mut scheduler = Scheduler::new(self.config.scheduling);

        // InitBuffers(P, Q): seed every query (at its source, or from the
        // driver's delta frontier).
        for (q, &source) in sources.iter().enumerate() {
            driver.seed_ops(q as u32, source, &mut |vertex, value, priority| {
                let p = self.pg.partition_of(vertex) as usize;
                if buffers[p].is_empty() {
                    scheduler.stamp(&mut buffers[p]);
                }
                buffers[p].push(Operation::new(q as u32, vertex, value, priority));
                counters.add_buffered(1);
            });
        }
        let init_done = watch.elapsed();

        // Main loop: schedule a partition, drain and process its buffer.
        while let Some(p) = scheduler.next(&buffers) {
            counters.add_partition_visit();
            let p_usize = p as usize;
            let partition_edges = self.pg.partition(p).num_edges() as u64;

            let groups: Vec<(u32, Vec<Operation<D::Value>>)> = if self.config.consolidate {
                buffers[p_usize].drain_consolidated(self.config.consolidation_method)
            } else {
                group_preserving_order(buffers[p_usize].drain_unconsolidated())
            };
            if profiling || self.trace_active() {
                let total_ops: u64 = groups.iter().map(|(_, ops)| ops.len() as u64).sum();
                if profiling {
                    visit_ops.record(total_ops);
                }
                self.emit_trace(
                    EventKind::PartitionVisitBegin,
                    p,
                    total_ops.min(u32::MAX as u64) as u32,
                    groups.len() as u32,
                );
            }

            // parallel_for_each query q in the partition's buffer.
            let outcomes: Vec<VisitOutcome<D::Value>> = if groups.len() > 1 {
                groups
                    .into_par_iter()
                    .map(|(q, ops)| {
                        let mut state = states[q as usize].lock();
                        driver.process_visit(
                            self,
                            graph,
                            p,
                            q,
                            ops,
                            &mut state,
                            partition_edges,
                            num_queries,
                            &tracer,
                            &counters,
                        )
                    })
                    .collect()
            } else {
                groups
                    .into_iter()
                    .map(|(q, ops)| {
                        let mut state = states[q as usize].lock();
                        driver.process_visit(
                            self,
                            graph,
                            p,
                            q,
                            ops,
                            &mut state,
                            partition_edges,
                            num_queries,
                            &tracer,
                            &counters,
                        )
                    })
                    .collect()
            };

            // Send operations to neighbour partitions in batches (Line 16) and
            // return yielded operations to this partition's buffer.
            for outcome in outcomes {
                debug_assert!((outcome.query as usize) < num_queries);
                for op in outcome.leftover {
                    if buffers[p_usize].is_empty() {
                        scheduler.stamp(&mut buffers[p_usize]);
                    }
                    buffers[p_usize].push(op);
                    counters.add_buffered(1);
                }
                for (target, op) in outcome.remote {
                    let t = target as usize;
                    if buffers[t].is_empty() {
                        scheduler.stamp(&mut buffers[t]);
                    }
                    buffers[t].push(op);
                    counters.add_buffered(1);
                }
            }
            self.emit_trace(EventKind::PartitionVisitEnd, p, 0, 0);
        }
        let main_done = watch.elapsed();

        counters.add_queries_completed(num_queries as u64);
        let per_query: Vec<D::State> = states.into_iter().map(|m| m.into_inner()).collect();
        let measurement = self.build_measurement(watch.elapsed(), &counters, &tracer, num_queries);
        self.emit_trace(EventKind::RunEnd, num_queries as u32, 1, 1);
        let profile = profiling.then(|| {
            let work = &measurement.work;
            RunProfile {
                phases: fg_trace::PhaseTimes {
                    init: init_done,
                    processing: main_done.saturating_sub(init_done),
                    finalize: measurement.wall_time.saturating_sub(main_done),
                },
                workers: 1,
                partition_visits: work.partition_visits,
                visit_ops,
                steals_per_worker: Histogram::default(),
                steals: work.steals,
                yields: work.yields,
            }
        });
        ForkGraphRunResult { per_query, measurement, profile }
    }

    /// Assemble the [`Measurement`] of one run; shared between the serial loop
    /// and the parallel executor.
    pub(crate) fn build_measurement(
        &self,
        wall_time: Duration,
        counters: &WorkCounters,
        tracer: &GraphAccessTracer,
        num_queries: usize,
    ) -> Measurement {
        let graph = self.pg.graph();
        let num_partitions = self.pg.num_partitions();
        let cache_stats = tracer.stats();
        Measurement {
            label: "ForkGraph".to_string(),
            wall_time,
            work: counters.snapshot(),
            cache: self.config.cache.map(|_| CacheNumbers {
                accesses: cache_stats.accesses,
                loads: cache_stats.loads,
                misses: cache_stats.misses,
            }),
            memory: Some(MemoryEstimate {
                graph_bytes: graph.total_size_bytes() as u64,
                query_state_bytes: (num_queries * graph.num_vertices() * 8) as u64,
                auxiliary_bytes: (num_partitions * self.config.num_buckets * 16) as u64,
            }),
            storage: Some(fg_metrics::StorageNumbers {
                compressed_partitions: self.pg.compressed_partitions() as u64,
                total_partitions: num_partitions as u64,
                payload_bytes_raw: self.pg.payload_bytes_raw() as u64,
                payload_bytes_compressed: self.pg.payload_bytes_compressed() as u64,
                bytes_per_edge: self.pg.bytes_per_edge(),
            }),
        }
    }

    /// Process one query's consolidated operations within one partition visit.
    /// The monomorphized intra-visit hot loop shared by the serial engine,
    /// the parallel executor, and (via the erased per-visit hook
    /// [`crate::dynkernel::DynKernel::process_visit_multi`]) heterogeneous
    /// multi-kernel runs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_query_visit<K: FppKernel>(
        &self,
        kernel: &K,
        graph: &CsrGraph,
        partition: PartitionId,
        query: u32,
        ops: impl IntoIterator<Item = Operation<K::Value>>,
        state: &mut K::State,
        partition_edges: u64,
        num_queries: usize,
        tracer: &GraphAccessTracer,
        counters: &WorkCounters,
    ) -> VisitOutcome<K::Value> {
        let mut remote: Vec<(PartitionId, Operation<K::Value>)> = Vec::new();
        let mut leftover: Vec<Operation<K::Value>> = Vec::new();
        let mut checker = self.config.yield_policy.for_partition(partition_edges, num_queries);
        let mut yielded = false;

        // Adjacency for this visit: raw partitions borrow the monolithic CSR,
        // compressed partitions stream-decode their varint payload per vertex.
        let view = self.pg.adjacency_view(partition);
        if view.is_compressed() {
            self.emit_trace(EventKind::PartitionDecode, query, partition, 0);
        }

        // With consolidation the query's operations are processed in priority
        // order (a per-query priority queue); without it, in arrival order.
        let mut heap: std::collections::BinaryHeap<HeapEntry<K::Value>> =
            std::collections::BinaryHeap::new();
        let mut fifo: std::collections::VecDeque<Operation<K::Value>> =
            std::collections::VecDeque::new();
        if self.config.consolidate {
            heap.extend(ops.into_iter().map(|op| HeapEntry { op }));
        } else {
            fifo.extend(ops);
        }

        loop {
            let op =
                if self.config.consolidate { heap.pop().map(|e| e.op) } else { fifo.pop_front() };
            let Some(op) = op else { break };

            if yielded {
                leftover.push(op);
                continue;
            }
            if checker.should_yield(op.priority) {
                yielded = true;
                counters.add_yield();
                self.emit_trace(EventKind::Yield, query, partition, 0);
                leftover.push(op);
                continue;
            }

            let vertex = op.vertex;
            let edges =
                kernel.process(&view, state, vertex, op.value, &mut |t, value, priority| {
                    let new_op = Operation::new(query, t, value, priority);
                    let target_partition = self.pg.partition_of(t);
                    if target_partition == partition {
                        if self.config.consolidate {
                            heap.push(HeapEntry { op: new_op });
                        } else {
                            fifo.push_back(new_op);
                        }
                    } else {
                        remote.push((target_partition, new_op));
                    }
                });
            counters.add_operations(1);
            counters.add_edges(edges);
            checker.record_edges(edges);

            if tracer.is_enabled() {
                if edges > 0 {
                    // Compressed visits stream far fewer payload bytes per
                    // vertex than the raw CSR slice, so they are charged the
                    // (smaller) encoded byte range instead of the CSR lines.
                    if let Some((start, end)) = view.decode_byte_range(vertex) {
                        tracer.compressed_scan(partition as u64, vertex as u64, start, end);
                    } else {
                        tracer.adjacency_scan(
                            graph.adjacency_offset(vertex),
                            graph.out_degree(vertex),
                        );
                    }
                    tracer.state_write(query as usize, vertex as u64);
                    let ids: Vec<u64> = view.out_neighbors(vertex).map(|v| v as u64).collect();
                    tracer.state_read_batch(query as usize, &ids);
                } else {
                    tracer.state_read(query as usize, vertex as u64);
                }
            }
            if edges == 0 {
                counters.add_pruned(1);
            }
        }

        VisitOutcome { query, leftover, remote }
    }

    /// Run a batch of queries of a *type-erased* kernel — the entry point
    /// used by `fg-service`'s batcher so that kernels registered at runtime
    /// (including ones defined entirely outside this workspace) flow through
    /// the identical execution path as the built-ins.
    ///
    /// This is [`Self::run`] behind one virtual call: the erasure wrapper
    /// invokes `run` with its concrete kernel, so executor dispatch (serial
    /// loop / persistent pool), scheduling, yielding, and the
    /// pool's `TypeId`-keyed storage recycling all behave exactly as a
    /// direct generic call would. Only the returned per-query states are
    /// boxed ([`crate::dynkernel::ErasedState`]).
    pub fn run_dyn(
        &self,
        kernel: &dyn crate::dynkernel::DynKernel,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<crate::dynkernel::ErasedState> {
        kernel.run_erased(self, sources)
    }

    /// Run a **heterogeneous** batch — several kernel *groups*, each with its
    /// own erased value and state types — through **one** partition pass, so
    /// every group amortises the same LLC-resident partition sweeps. This is
    /// the engine half of the paper's "share the pass across everything in
    /// flight" ideal: an SSSP cohort and a PPR cohort waiting on the same
    /// graph no longer pay one sweep each.
    ///
    /// Each `(kernel, sources)` pair contributes one query per source.
    /// Execution is the standard internal `run_driver` pipeline over the
    /// heterogeneous driver of [`crate::multi`]: mixed-kernel operations share partition
    /// buffers and mailboxes as inline erased payloads
    /// ([`crate::operation::MultiValue8`] / [`crate::operation::MultiValue16`],
    /// picked per run by the narrowest width every group fits),
    /// scheduling and yielding see the union of all groups, and each
    /// partition visit dispatches every operation to its group's kernel. All
    /// thread counts (serial loop / pool) work unchanged.
    ///
    /// A single-group call is semantically [`Self::run_dyn`] (byte-identical
    /// results — property-tested in `tests/multi_equivalence.rs`), just
    /// through the erased payload path; `run_dyn` remains the cheaper
    /// monomorphized special case for one-kernel batches.
    ///
    /// # Panics
    /// Panics if a group's kernel has an operation value too large for the
    /// inline payload ([`crate::operation::MultiValue16::fits_layout`]) or if
    /// more than `u16::MAX + 1` groups are passed.
    pub fn run_multi(
        &self,
        groups: &[(&dyn crate::dynkernel::DynKernel, &[VertexId])],
    ) -> crate::multi::MultiRunResult {
        crate::multi::run_multi(self, groups)
    }

    /// Resume converged queries after a **monotone** edge delta (insertions
    /// and weight decreases) instead of recomputing from scratch.
    ///
    /// `prev[q]` must be the converged state of a `kernel` run from
    /// `sources[q]` on the pre-delta graph, and this engine must hold the
    /// *post*-delta graph. Each query is re-seeded with one operation per
    /// delta edge that can still improve something
    /// ([`IncrementalKernel::delta_seed`]); the run then converges to the
    /// exact post-delta fixpoint, byte-identical to a from-scratch run,
    /// serially and on the pool.
    ///
    /// Deletions and weight increases violate the precondition — callers
    /// must detect them (e.g. via `fg_graph::mutation::AppliedDeltas::
    /// monotone`) and fall back to [`Self::run`].
    ///
    /// # Panics
    /// Panics if `prev.len() != sources.len()`.
    pub fn run_incremental<K: IncrementalKernel>(
        &self,
        kernel: &K,
        sources: &[VertexId],
        prev: Vec<K::State>,
        delta: &[Edge],
    ) -> ForkGraphRunResult<K::State> {
        assert_eq!(
            prev.len(),
            sources.len(),
            "run_incremental: {} previous states for {} sources",
            prev.len(),
            sources.len()
        );
        let mut total = 0usize;
        let seeds: Vec<Vec<(VertexId, K::Value, Priority)>> = prev
            .iter()
            .map(|state| {
                let mut per_query = Vec::new();
                for &(u, v, w) in delta {
                    if let Some((value, priority)) = kernel.delta_seed(state, u, v, w) {
                        per_query.push((v, value, priority));
                        total += 1;
                    }
                }
                per_query
            })
            .collect();
        if total == 0 {
            // No delta edge can improve any query: the previous states are
            // already the post-delta fixpoint. Short-circuit — beyond being
            // pointless, a parallel run that posts zero operations would
            // never observe quiescence.
            let counters = WorkCounters::new();
            let tracer = GraphAccessTracer::disabled();
            let measurement =
                self.build_measurement(Duration::ZERO, &counters, &tracer, sources.len());
            return ForkGraphRunResult { per_query: prev, measurement, profile: None };
        }
        let driver = IncrementalDriver {
            kernel,
            prev: prev.into_iter().map(|s| Mutex::new(Some(s))).collect(),
            seeds,
        };
        self.run_driver(&driver, sources)
    }

    // -- Convenience runners for the built-in kernels ------------------------

    /// Run SSSP queries from every source; returns per-query distance arrays.
    pub fn run_sssp(&self, sources: &[VertexId]) -> ForkGraphRunResult<Vec<Dist>> {
        self.run(&SsspKernel, sources)
    }

    /// Run BFS queries from every source; returns per-query level arrays.
    pub fn run_bfs(&self, sources: &[VertexId]) -> ForkGraphRunResult<Vec<u32>> {
        self.run(&BfsKernel, sources)
    }

    /// [`Self::run_incremental`] for the built-in SSSP kernel.
    pub fn run_sssp_incremental(
        &self,
        sources: &[VertexId],
        prev: Vec<Vec<Dist>>,
        delta: &[Edge],
    ) -> ForkGraphRunResult<Vec<Dist>> {
        self.run_incremental(&SsspKernel, sources, prev, delta)
    }

    /// [`Self::run_incremental`] for the built-in BFS kernel.
    pub fn run_bfs_incremental(
        &self,
        sources: &[VertexId],
        prev: Vec<Vec<u32>>,
        delta: &[Edge],
    ) -> ForkGraphRunResult<Vec<u32>> {
        self.run_incremental(&BfsKernel, sources, prev, delta)
    }

    /// Run PPR queries from every seed with the given parameters.
    pub fn run_ppr(
        &self,
        seeds: &[VertexId],
        config: &PprConfig,
    ) -> ForkGraphRunResult<crate::kernels::PprState> {
        self.run(&PprKernel::new(*config), seeds)
    }

    /// Run DFS-flavoured reachability queries from every source.
    pub fn run_dfs(
        &self,
        sources: &[VertexId],
    ) -> ForkGraphRunResult<crate::kernels::dfs::DfsState> {
        self.run(&DfsKernel, sources)
    }

    /// Run random-walk queries from every source.
    pub fn run_random_walks(
        &self,
        sources: &[VertexId],
        config: &RandomWalkConfig,
    ) -> ForkGraphRunResult<crate::kernels::RwState> {
        self.run(&RandomWalkKernel::new(*config), sources)
    }
}

/// Group operations by query while preserving their arrival order within each
/// query (used when consolidation ordering is disabled).
pub(crate) fn group_preserving_order<V: Copy>(
    ops: Vec<Operation<V>>,
) -> Vec<(u32, Vec<Operation<V>>)> {
    let mut groups: Vec<(u32, Vec<Operation<V>>)> = Vec::new();
    for op in ops {
        match groups.iter_mut().find(|(q, _)| *q == op.query) {
            Some((_, list)) => list.push(op),
            None => groups.push((op.query, vec![op])),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::partition::{PartitionConfig, PartitionMethod};
    use fg_graph::{datasets, gen};

    fn partitioned(graph: &CsrGraph, parts: usize) -> PartitionedGraph {
        PartitionedGraph::build(
            graph,
            PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
        )
    }

    #[test]
    fn sssp_matches_dijkstra_across_configs() {
        let g = gen::erdos_renyi(300, 2400, 11).with_random_weights(8, 11);
        let pg = partitioned(&g, 6);
        let sources: Vec<VertexId> = vec![0, 7, 33, 150];
        let oracle: Vec<Vec<Dist>> =
            sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(&g, s).dist).collect();
        for level in AblationLevel::all() {
            let engine = ForkGraphEngine::new(&pg, EngineConfig::for_ablation(level));
            let result = engine.run_sssp(&sources);
            assert_eq!(result.per_query, oracle, "{level:?}");
        }
        for policy in SchedulingPolicy::all() {
            let engine = ForkGraphEngine::new(&pg, EngineConfig::default().with_scheduling(policy));
            let result = engine.run_sssp(&sources);
            assert_eq!(result.per_query, oracle, "{policy:?}");
        }
    }

    #[test]
    fn sssp_with_value_range_yielding_is_exact() {
        let g = datasets::CA.generate_weighted(0.05);
        let pg = partitioned(&g, 8);
        let sources: Vec<VertexId> = vec![1, 50, 500];
        let oracle: Vec<Vec<Dist>> =
            sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(&g, s).dist).collect();
        let config =
            EngineConfig::default().with_yield_policy(YieldPolicy::ValueRange { delta: 8 });
        let result = ForkGraphEngine::new(&pg, config).run_sssp(&sources);
        assert_eq!(result.per_query, oracle);
        assert!(result.work().yields > 0, "value-range yielding should trigger on a road graph");
    }

    #[test]
    fn bfs_matches_sequential_bfs() {
        let g = gen::rmat(9, 6, 13);
        let pg = partitioned(&g, 5);
        let sources: Vec<VertexId> = vec![0, 9, 100];
        let oracle: Vec<Vec<u32>> =
            sources.iter().map(|&s| fg_seq::bfs::bfs(&g, s).level).collect();
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        assert_eq!(engine.run_bfs(&sources).per_query, oracle);
    }

    #[test]
    fn ppr_results_are_close_to_sequential_reference() {
        let g = gen::rmat(9, 6, 17);
        let pg = partitioned(&g, 6);
        let seeds: Vec<VertexId> = vec![3, 42];
        let config = PprConfig { epsilon: 1e-6, ..Default::default() };
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let result = engine.run_ppr(&seeds, &config);
        for (state, &seed) in result.per_query.iter().zip(seeds.iter()) {
            assert!((state.total_mass() - 1.0).abs() < 1e-9);
            let reference = fg_seq::ppr::ppr_push(&g, seed, &config).dense(g.num_vertices());
            let l1: f64 =
                state.estimate.iter().zip(reference.iter()).map(|(a, b)| (a - b).abs()).sum();
            assert!(l1 < 0.05, "seed {seed}: l1 {l1}");
        }
    }

    #[test]
    fn dfs_and_random_walk_kernels_run_end_to_end() {
        let g = gen::rmat(8, 5, 19);
        let pg = partitioned(&g, 4);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let dfs = engine.run_dfs(&[0, 5]);
        let reference = fg_seq::dfs::dfs(&g, 0);
        let reached = dfs.per_query[0].order.iter().filter(|&&o| o != u32::MAX).count();
        assert_eq!(reached, reference.num_reached());
        let rw_config =
            RandomWalkConfig { num_walks: 4, walk_length: 8, restart_prob: 0.0, seed: 3 };
        let rw = engine.run_random_walks(&[0, 5], &rw_config);
        assert_eq!(rw.per_query[0].total_visits(), 4 * 9);
    }

    #[test]
    fn work_is_within_a_constant_factor_of_sequential() {
        // Theorem A.3: ForkGraph's work per query stays within a constant
        // factor of Dijkstra's; the paper measures 5.2–16.7x. Use a generous
        // bound to keep the test robust across partitionings.
        let g = datasets::CA.generate_weighted(0.08);
        let pg = partitioned(&g, 10);
        let sources: Vec<VertexId> = (0..8).map(|i| (i * 97) % g.num_vertices() as u32).collect();
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let result = engine.run_sssp(&sources);
        let sequential_edges: u64 =
            sources.iter().map(|&s| fg_seq::dijkstra::dijkstra(&g, s).edges_processed).sum();
        let ratio = result.work().edges_processed as f64 / sequential_edges as f64;
        assert!(ratio < 30.0, "work ratio {ratio}");
    }

    #[test]
    fn yielding_reduces_work_on_road_graphs() {
        let g = datasets::CA.generate_weighted(0.05);
        let pg = partitioned(&g, 8);
        let sources: Vec<VertexId> = (0..6).map(|i| (i * 131) % g.num_vertices() as u32).collect();
        let no_yield =
            ForkGraphEngine::new(&pg, EngineConfig::default().with_yield_policy(YieldPolicy::None))
                .run_sssp(&sources);
        let with_yield = ForkGraphEngine::new(&pg, EngineConfig::default()).run_sssp(&sources);
        assert_eq!(no_yield.per_query, with_yield.per_query);
        assert!(
            with_yield.work().edges_processed <= no_yield.work().edges_processed,
            "yielding should not increase edge work: {} vs {}",
            with_yield.work().edges_processed,
            no_yield.work().edges_processed
        );
    }

    #[test]
    fn single_partition_degenerates_to_sequential_processing() {
        let g = gen::rmat(8, 5, 23).with_random_weights(6, 23);
        let pg = partitioned(&g, 1);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let sources = vec![0, 3];
        let result = engine.run_sssp(&sources);
        assert_eq!(result.per_query[0], fg_seq::dijkstra::dijkstra(&g, 0).dist);
        assert_eq!(result.work().partition_visits, 1, "one partition, one visit");
    }

    #[test]
    fn measurement_contains_cache_and_memory_when_enabled() {
        let g = gen::rmat(8, 5, 29).with_random_weights(6, 29);
        let pg = partitioned(&g, 4);
        let config = EngineConfig::default().with_cache(fg_cachesim::CacheConfig::tiny(64 * 1024));
        let result = ForkGraphEngine::new(&pg, config).run_sssp(&[0, 1, 2]);
        let cache = result.measurement.cache.unwrap();
        assert!(cache.accesses > 0 && cache.misses > 0);
        assert!(result.measurement.memory.unwrap().total_bytes() > 0);
        assert_eq!(result.measurement.label, "ForkGraph");
    }

    #[test]
    fn per_source_pairs_results_with_their_sources() {
        let g = gen::erdos_renyi(200, 1200, 31).with_random_weights(8, 31);
        let pg = partitioned(&g, 4);
        let sources: Vec<VertexId> = vec![5, 0, 77];
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let result = engine.run_sssp(&sources);

        let paired: Vec<(VertexId, &Vec<Dist>)> = result.per_source(&sources).collect();
        assert_eq!(paired.len(), sources.len());
        for (i, &(source, dist)) in paired.iter().enumerate() {
            assert_eq!(source, sources[i]);
            assert_eq!(dist, &fg_seq::dijkstra::dijkstra(&g, source).dist);
            assert_eq!(dist[source as usize], 0, "distance to self is zero");
        }

        let owned = result.into_per_source(&sources);
        assert_eq!(owned.len(), sources.len());
        for (i, (source, dist)) in owned.into_iter().enumerate() {
            assert_eq!(source, sources[i]);
            assert_eq!(dist, fg_seq::dijkstra::dijkstra(&g, source).dist);
        }
    }

    #[test]
    #[should_panic(expected = "per_source")]
    fn per_source_rejects_mismatched_source_slice() {
        let g = gen::rmat(7, 5, 37);
        let pg = partitioned(&g, 2);
        let result = ForkGraphEngine::new(&pg, EngineConfig::default()).run_bfs(&[0, 1]);
        let _ = result.per_source(&[0]).count();
    }

    #[test]
    fn engine_handle_is_reusable_across_runs() {
        // The service layer keeps one engine alive and drives many batches
        // through it; repeated runs must be independent and deterministic.
        let g = gen::erdos_renyi(150, 900, 41).with_random_weights(8, 41);
        let pg = partitioned(&g, 3);
        let engine = ForkGraphEngine::new(&pg, EngineConfig::default());
        let first = engine.run_sssp(&[3, 9]);
        let second = engine.run_sssp(&[9]);
        let third = engine.run_sssp(&[3, 9]);
        assert_eq!(first.per_query, third.per_query);
        assert_eq!(first.per_query[1], second.per_query[0]);
    }

    #[test]
    fn ablation_labels() {
        assert_eq!(AblationLevel::all().len(), 4);
        assert_eq!(AblationLevel::BufferOnly.label(), "+buffer");
        assert_eq!(AblationLevel::Full.label(), "+yielding");
    }
}
