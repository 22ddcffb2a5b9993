//! The batch workloads: one fork-processing batch through the serial engine
//! against the same queries run one by one with `fg-seq`, interleaved batch
//! by batch.

use std::time::{Duration, Instant};

use fg_apps::NetworkCommunityProfile;
use fg_graph::datasets;
use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, CsrGraph, VertexId};
use fg_metrics::WorkSnapshot;
use fg_trace::RunProfile;
use forkgraph_core::{EngineConfig, ForkGraphEngine};

use crate::check::{self, Tally};
use crate::report::Report;
use crate::util::{median, ms, quantile, ratio, Rng, Spans};

/// Timed repeats of each one-by-one batch.
const SEQ_REPEATS: usize = 3;

/// Queries per SSSP batch, and PPR seeds per NCP batch.
const SSSP_BATCH: usize = 32;
const NCP_SEEDS: usize = 256;

/// Generator seed of the social stand-in. The graphs are fixed inputs of
/// the workloads, like the dataset stand-ins' own seeds; `--seed` draws the
/// queries, schedules and mutations run on them.
const SOCIAL_GRAPH_SEED: u64 = 42;

#[derive(Clone, Copy, PartialEq)]
pub enum Workload {
    SsspSocial,
    SsspRoad,
    PprNcp,
}

/// The generated graph and how to partition it.
pub struct Inputs {
    pub graph: CsrGraph,
    pub partitions: PartitionConfig,
}

/// The `sssp-social` graph, which `serve-mixed` serves too: RMAT-13 with
/// weights in `[1, 9)`, 24 random partitions (the paper's choice for social
/// graphs).
pub fn social_inputs() -> Inputs {
    Inputs {
        graph: gen::rmat(13, 8, SOCIAL_GRAPH_SEED).with_random_weights(8, SOCIAL_GRAPH_SEED),
        partitions: PartitionConfig::with_partitions(PartitionMethod::Random, 24),
    }
}

impl Workload {
    fn inputs(self) -> Inputs {
        match self {
            Workload::SsspSocial => social_inputs(),
            // The Ca road stand-in, 16 multilevel partitions (the paper's
            // METIS choice for road networks).
            Workload::SsspRoad => Inputs {
                graph: datasets::CA.generate_weighted(1.0),
                partitions: PartitionConfig::with_partitions(PartitionMethod::Multilevel, 16),
            },
            Workload::PprNcp => Inputs {
                graph: datasets::LJ.generate_weighted(0.5),
                partitions: PartitionConfig::with_partitions(PartitionMethod::Random, 16),
            },
        }
    }

    fn queries_per_batch(self) -> usize {
        if self == Workload::PprNcp {
            NCP_SEEDS
        } else {
            SSSP_BATCH
        }
    }
}

/// The NCP application with a fixed seed count (ε = 1e-4, factor-100 yield).
fn ncp(sample_seed: u64) -> NetworkCommunityProfile {
    NetworkCommunityProfile {
        min_seeds: NCP_SEEDS,
        ..NetworkCommunityProfile::new(0.0, sample_seed)
    }
}

/// One batch's queries.
struct Batch {
    sources: Vec<VertexId>,
    /// NCP's sampling seed (the sources are `ncp(sample_seed).seeds(graph)`).
    sample_seed: u64,
}

/// Per-query answers, as the oracle check needs them.
enum Answers {
    Sssp(Vec<Vec<u64>>),
    /// Dense engine estimates.
    Ppr(Vec<Vec<f64>>),
    /// Sparse `fg-seq` estimates.
    PprSparse(Vec<Vec<(VertexId, f64)>>),
}

/// What one timed engine batch reports besides its answers.
struct EngineRun {
    time: Duration,
    aggregate: Duration,
    work: WorkSnapshot,
    profile: Option<RunProfile>,
}

/// The batch through the engine: `run_sssp`, or `run_ppr` followed by the
/// NCP `aggregate`.
fn run_engine(
    workload: Workload,
    engine: &ForkGraphEngine<'_>,
    batch: &Batch,
    spans: &Spans,
    name: &'static str,
) -> (EngineRun, Answers) {
    let span = spans.open(name, 0);
    let (measurement, profile, answers, aggregate) = if workload == Workload::PprNcp {
        let app = ncp(batch.sample_seed);
        let result = engine.run_ppr(&batch.sources, &app.ppr);
        let estimates: Vec<Vec<(VertexId, f64)>> =
            result.per_query.iter().map(|s| s.sparse_estimates()).collect();
        let graph = engine.partitioned_graph().graph();
        let (profile, aggregate) =
            spans.time("apps.aggregate", span.id, || app.aggregate(graph, &estimates));
        std::hint::black_box(profile);
        let answers = Answers::Ppr(result.per_query.iter().map(|s| s.estimate.clone()).collect());
        (result.measurement, result.profile, answers, aggregate)
    } else {
        let result = engine.run_sssp(&batch.sources);
        (result.measurement, result.profile, Answers::Sssp(result.per_query), Duration::ZERO)
    };
    let time = span.close();
    (EngineRun { time, aggregate, work: measurement.work, profile }, answers)
}

/// The same queries one by one: Dijkstra per source, or `ppr_push` per seed
/// followed by the same `aggregate`. A one-by-one batch is short next to an
/// engine batch, so it is timed `SEQ_REPEATS` times and the median kept.
/// Returns that time, the edges scanned and the oracle answers.
fn run_seq(
    workload: Workload,
    graph: &CsrGraph,
    batch: &Batch,
    spans: &Spans,
) -> (Duration, u64, Answers) {
    let mut times = Vec::with_capacity(SEQ_REPEATS);
    let mut out = None;
    for _ in 0..SEQ_REPEATS {
        let (result, time) = spans.time("seq.batch", 0, || {
            if workload == Workload::PprNcp {
                let app = ncp(batch.sample_seed);
                let results: Vec<_> =
                    batch.sources.iter().map(|&s| fg_seq::ppr_push(graph, s, &app.ppr)).collect();
                let estimates: Vec<Vec<(VertexId, f64)>> =
                    results.iter().map(|r| r.estimates.clone()).collect();
                std::hint::black_box(app.aggregate(graph, &estimates));
                (results.iter().map(|r| r.edges_processed).sum(), Answers::PprSparse(estimates))
            } else {
                let results: Vec<_> =
                    batch.sources.iter().map(|&s| fg_seq::dijkstra(graph, s)).collect();
                let edges = results.iter().map(|r| r.edges_processed).sum();
                (edges, Answers::Sssp(results.into_iter().map(|r| r.dist).collect()))
            }
        });
        times.push(time.as_secs_f64());
        out.get_or_insert(result);
    }
    let (edges, answers) = out.expect("at least one repeat");
    (Duration::from_secs_f64(median(&times)), edges, answers)
}

/// Check every engine answer of a batch against the one-by-one oracle.
fn check_batch(engine: &Answers, oracle: &Answers, tally: &mut Tally) {
    match (engine, oracle) {
        (Answers::Sssp(got), Answers::Sssp(want)) => {
            for (g, w) in got.iter().zip(want) {
                tally.record(check::exact("sssp", g, w));
            }
        }
        (Answers::Ppr(got), Answers::PprSparse(want)) => {
            for (g, w) in got.iter().zip(want) {
                tally.record(check::ppr("ppr", g, w));
            }
        }
        _ => unreachable!("engine and oracle batches come from the same workload"),
    }
}

/// Median of a log2-bucketed histogram (`(bucket floor, count)` pairs),
/// interpolated linearly inside its bucket.
fn histogram_median(buckets: &[(u64, u64)]) -> f64 {
    let half = buckets.iter().map(|&(_, n)| n).sum::<u64>() as f64 / 2.0;
    let mut seen = 0.0;
    for &(floor, n) in buckets {
        if n > 0 && seen + n as f64 >= half {
            return floor as f64 + floor.max(1) as f64 * (half - seen) / n as f64;
        }
        seen += n as f64;
    }
    0.0
}

pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> (Report, Spans) {
    let spans = Spans::new(trace);
    let mut report = Report::default();
    let inputs = workload.inputs();
    let graph = &inputs.graph;
    let config =
        if workload == Workload::PprNcp { ncp(0).engine_config() } else { EngineConfig::default() };

    let candidates: Vec<VertexId> =
        (0..graph.num_vertices() as VertexId).filter(|&v| graph.out_degree(v) > 0).collect();
    let mut rng = Rng::new(seed);
    let mut next_batch = || {
        let sample_seed = rng.next_u64();
        let sources = if workload == Workload::PprNcp {
            ncp(sample_seed).seeds(graph)
        } else {
            (0..SSSP_BATCH)
                .map(|_| candidates[rng.below(candidates.len() as u64) as usize])
                .collect()
        };
        Batch { sources, sample_seed }
    };

    // Set-up, from the generated graph in memory to a partitioned graph an
    // engine can run on, is repeated for every batch: `setup_s` is the
    // median build, and a partitioner that returns a different plan on
    // each call (Multilevel does; see README.md) is measured across its
    // plans rather than on one.
    let mut setup = Vec::new();
    let mut plans: Vec<(usize, usize, f64)> = Vec::new();
    let mut build = || {
        let (pg, time) =
            spans.time("graph.build", 0, || PartitionedGraph::build(graph, inputs.partitions));
        setup.push(time.as_secs_f64());
        plans.push((pg.plan().edge_cut(graph), pg.max_footprint_bytes(), pg.bytes_per_edge()));
        pg
    };

    // Warm-up pair, checked but not timed: caches fill, lazy set-up ends.
    let mut tally = Tally::default();
    let quiet = Spans::new(false);
    let warm = next_batch();
    let pg = build();
    let (_, answers) =
        run_engine(workload, &ForkGraphEngine::new(&pg, config), &warm, &quiet, "engine.run");
    check_batch(&answers, &run_seq(workload, graph, &warm, &quiet).2, &mut tally);
    drop(pg);

    // Timed, interleaved: the engine batch and the one-by-one batch on the
    // same sources, alternating which runs first. The traced run adds a
    // profiled engine batch to each round; its time against the plain
    // batch's is the tracing overhead.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let (mut seq_secs, mut seq_edges) = (Vec::new(), 0u64);
    let mut pair_ratios = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut round = 0usize;
    while round == 0 || Instant::now() < deadline {
        let batch = next_batch();
        let pg = build();
        let engine = ForkGraphEngine::new(&pg, config);
        let profiled = ForkGraphEngine::new(&pg, config.with_profile(true));
        let steps = if trace { 3 } else { 2 };
        let (mut e, mut p, mut s) = (None, None, None);
        for step in 0..steps {
            match (step + round) % steps {
                0 => e = Some(run_engine(workload, &engine, &batch, &spans, "engine.run")),
                1 => s = Some(run_seq(workload, graph, &batch, &spans)),
                _ => {
                    p = Some(run_engine(workload, &profiled, &batch, &spans, "engine.run_profiled"))
                }
            }
        }
        let ((e, e_answers), (s_time, s_edges, oracle)) =
            (e.expect("engine batch ran"), s.expect("seq batch ran"));
        check_batch(&e_answers, &oracle, &mut tally);
        pair_ratios.push(s_time.as_secs_f64() / e.time.as_secs_f64());
        seq_secs.push(s_time.as_secs_f64());
        seq_edges += s_edges;
        plain.push(e.time.as_secs_f64());
        if let Some((p, p_answers)) = p {
            check_batch(&p_answers, &oracle, &mut tally);
            traced.push(p);
        }
        round += 1;
    }
    let cuts: Vec<f64> = plans.iter().map(|p| p.0 as f64).collect();
    report.describe("seed", seed);
    report.describe("vertices", graph.num_vertices());
    report.describe("edges", graph.num_edges());
    report.describe("partitions", inputs.partitions.resolve_num_partitions(graph));
    report.describe("partition_method", inputs.partitions.method.name());
    report.describe(
        "edge_cut_min_median_max",
        format!("{}/{}/{}", quantile(&cuts, 0.0), median(&cuts), quantile(&cuts, 1.0)),
    );
    report.describe("max_partition_bytes_max", plans.iter().map(|p| p.1).max().unwrap_or(0));
    report.describe("queries_per_batch", workload.queries_per_batch());
    report.describe("timed_batches", round);
    let tail: Vec<String> = [0.9, 0.95, 0.99, 1.0]
        .iter()
        .map(|&q| format!("{:.1}", quantile(&plain, q) * 1e3))
        .collect();
    report.describe("batch_ms_p90_p95_p99_max", tail.join("/"));

    let per_batch = workload.queries_per_batch() as f64;
    let batch_qps: Vec<f64> = plain.iter().map(|t| per_batch / t).collect();
    let latency_ms: Vec<f64> = plain.iter().map(|t| t * 1e3).collect();
    report.set("setup_s", median(&setup));
    report.set("queries_per_s", median(&batch_qps));
    report.set("vs_sequential", median(&pair_ratios));
    // Every query of a batch is answered when the batch ends.
    report.set("latency_ms_p50", median(&latency_ms));
    report.tally = tally;

    if trace {
        report.set("graph.build_s", median(&setup));
        report.set("graph.edge_cut_frac", median(&cuts) / graph.num_edges() as f64);
        report.set("graph.bytes_per_edge", median(&plans.iter().map(|p| p.2).collect::<Vec<_>>()));
        report.set(
            "graph.max_partition_kib",
            median(&plans.iter().map(|p| p.1 as f64 / 1024.0).collect::<Vec<_>>()),
        );

        let runs = traced.len() as f64;
        let work = traced.iter().fold(WorkSnapshot::default(), |acc, r| acc.merge(&r.work));
        let engine_secs: f64 = traced.iter().map(|r| r.time.as_secs_f64()).sum();
        report.set("engine.run_ms_p50", median(&spans.durations_ms("engine.run_profiled")));
        report.set("engine.ns_per_edge", ratio(engine_secs * 1e9, work.edges_processed as f64));
        report.set("engine.work_ratio", ratio(work.edges_processed as f64, seq_edges as f64));
        report.set(
            "engine.buffered_per_processed",
            ratio(work.operations_buffered as f64, work.operations_processed as f64),
        );
        report.set(
            "engine.dead_op_frac",
            ratio(work.operations_pruned as f64, work.operations_processed as f64),
        );
        report.set("engine.visits_per_batch", ratio(work.partition_visits as f64, runs));
        report.set(
            "engine.yields_per_visit",
            ratio(work.yields as f64, work.partition_visits as f64),
        );

        let profiles: Vec<&RunProfile> = traced.iter().filter_map(|r| r.profile.as_ref()).collect();
        let buckets: Vec<(u64, u64)> = std::iter::once(0)
            .chain((0..16).map(|i| 1u64 << i))
            .map(|floor| (floor, profiles.iter().map(|p| p.visit_ops.bucket_count(floor)).sum()))
            .collect();
        report.set("engine.ops_per_visit_p50", histogram_median(&buckets));
        let total: f64 = profiles.iter().map(|p| p.phases.total().as_secs_f64()).sum();
        let phase = |pick: fn(&RunProfile) -> Duration| {
            ratio(profiles.iter().map(|p| pick(p).as_secs_f64()).sum(), total)
        };
        report.set("engine.phase_init_frac", phase(|p| p.phases.init));
        report.set("engine.phase_processing_frac", phase(|p| p.phases.processing));
        report.set("engine.phase_finalize_frac", phase(|p| p.phases.finalize));

        // The batch workloads drive the serial engine: there is no pool.
        report.set("pool.steals_per_batch", ratio(work.steals as f64, runs));
        report.set("pool.idle_waits_per_batch", ratio(work.idle_waits as f64, runs));
        report.set("pool.dispatches", 0.0);
        report.set("seq.queries_per_s", per_batch / median(&seq_secs));
        report.set(
            "apps.aggregate_ms",
            median(&traced.iter().map(|r| ms(r.aggregate)).collect::<Vec<_>>()),
        );
        for name in [
            "service.queue_wait_ms_p50",
            "service.queue_wait_ms_p99",
            "service.batch_run_ms_p50",
            "service.batch_occupancy_mean",
            "service.cache_hit_frac",
            "service.shed_frac",
            "service.fold_ms_p50",
            "service.rematerialized_frac",
            "service.incremental_frac",
            "server.cache_hit_rtt_ms_p50",
            "gen.late_ms_max",
            "serve.sustained_rps",
            "serve.latency_ms_p95",
        ] {
            report.set(name, 0.0);
        }
        let traced_secs: Vec<f64> = traced.iter().map(|r| r.time.as_secs_f64()).collect();
        report.set("trace.overhead_frac", median(&traced_secs) / median(&plain) - 1.0);
    }
    (report, spans)
}
