//! `serve-mixed`: open-loop SSSP/BFS traffic with insert-only mutations over
//! FGW1 loopback against a self-hosted `ForkGraphServer`.
//!
//! One connection carries the load. A sender thread writes each frame at its
//! scheduled time whatever the backlog (open loop); the calling thread reads
//! the answers and times each from its scheduled send time, so a stall is
//! charged to every request it delays. Every answer is checked once its
//! phase ends. How late the sender itself ran is reported as
//! `gen.late_ms_max`; a run whose sender fell further behind than the
//! latency limit is invalid.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{CsrGraph, Edge, VersionedGraph, VertexId, Weight, INF_DIST};
use fg_server::framing::{read_frame, write_frame, MAX_FRAME_LEN};
use fg_server::protocol::{decode_response, encode_mutate, encode_request};
use fg_server::{
    EdgeMutation, ForkGraphServer, MutateRequest, Request, Response, ServerConfig, WireClient,
    WirePayload, MAGIC,
};
use fg_service::{ForkGraphService, ServiceConfig};
use fg_trace::{EventKind, TraceSink};
use forkgraph_core::EngineConfig;

use crate::batch::social_inputs;
use crate::check::{self, Tally};
use crate::report::Report;
use crate::util::{median, ms, process_cpu_secs, quantile, ratio, thread_cpu_secs, Rng, Spans};

/// Set-ups per run (graph build + service + server start); `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 15;
/// Offered rate of the fixed-rate phase: a quarter to a third of the
/// sustained rate the ladder measures (70-90 req/s on a quiet machine). At
/// half of it a stall of the shared machine now and then tips the service
/// over its cliff (batches grow, runs slow down superlinearly, requests are
/// shed), which would fail the run.
const FIXED_RPS: f64 = 24.0;
/// Requests per ladder rung: each rung carries the same number, so a
/// faster rung is a shorter one.
const RUNG_REQUESTS: usize = 200;
/// Latency limit on a ladder rung's gated percentile, ~7x one query's
/// engine time.
const LATENCY_LIMIT_MS: f64 = 100.0;
/// The fixed geometric ladder of offered rates. The climb stops at the
/// first failing rung; the top rung bounds what the ladder can report.
const LADDER_BASE_RPS: f64 = 48.0;
const LADDER_STEP: f64 = 1.25;
const LADDER_RUNGS: usize = 8;
/// The percentile a ladder rung is gated on: the highest with ten of a
/// rung's requests beyond it.
const RUNG_PERCENTILE: f64 = 0.95;
/// The fixed-rate phase runs as back-to-back segments of this length on one
/// connection, each checked as soon as it ends. The one-by-one oracle calls
/// the checks make are then timed spread over the same stretch of the run
/// as the serving `vs_sequential` compares them with, so a machine that
/// speeds up or slows down mid-run moves both sides alike. The metrics pool
/// every segment's answers and timings.
const SEGMENT_SECS: f64 = 1.0;
/// Every this many frames, one is an insert-only `Mutate` frame (5%). The
/// positions are fixed, so every run carries the same number of writes;
/// what they insert is drawn from the seed.
const MUTATE_EVERY: usize = 20;
/// Exponent of the Zipf distribution query sources are drawn from.
const ZIPF_EXPONENT: f64 = 1.0;
/// How long a phase waits for its last answers before counting them as
/// timed out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests sent one at a time to a cached answer to time the wire floor.
const RTT_PROBES: usize = 50;
/// Traffic sent to a fresh server before a measured phase, so connection
/// threads, trace lanes and caches are set up before the clock starts. Its
/// answers are checked like any other.
const WARM_UP_SECS: f64 = 1.0;

#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    Sssp,
    Bfs,
}

#[derive(Clone, Copy)]
enum Op {
    Query(Kernel, VertexId),
    Mutate(usize),
}

/// One frame of the schedule: when it is due, relative to its phase start.
#[derive(Clone, Copy)]
struct Frame {
    at: Duration,
    op: Op,
}

/// The graphs every answer is checked against, and what the run mutates.
struct Load<'a> {
    initial: &'a CsrGraph,
    /// The initial graph plus every mutation the schedule could send.
    fin: &'a CsrGraph,
    mutations: &'a [(VertexId, VertexId, Weight)],
    spans: &'a Spans,
}

/// A query answer waiting for its check, with its latency from the
/// scheduled send. `None` when the payload had the wrong type.
struct Answer {
    kernel: Kernel,
    source: VertexId,
    values: Option<Vec<u16>>,
    latency_ms: f64,
}

/// Answers wait for their check as `u16`s, a quarter of an SSSP payload.
/// The map is monotone, and exact for the check: every finite distance or
/// level on the served graph is below `u16::MAX - 1` (`run` asserts that
/// `(|V| - 1) · 8` is), and unreachable maps to `u16::MAX`.
fn compact<T: Copy + Into<u64>>(values: &[T], unreachable: u64) -> Vec<u16> {
    let top = u16::MAX as u64 - 1;
    values
        .iter()
        .map(|&v| v.into())
        .map(|v| if v == unreachable { u16::MAX } else { v.min(top) as u16 })
        .collect()
}

fn answer_values(kernel: Kernel, payload: &WirePayload) -> Option<Vec<u16>> {
    match (kernel, payload) {
        (Kernel::Sssp, WirePayload::U64s(dist)) => Some(compact(dist, INF_DIST)),
        (Kernel::Bfs, WirePayload::U32s(level)) => Some(compact(level, u32::MAX as u64)),
        _ => None,
    }
}

#[derive(Default)]
struct PhaseOutcome {
    tally: Tally,
    /// Latency of every correctly answered query, from its scheduled send.
    latencies_ms: Vec<f64>,
    /// Scheduled start to last answer.
    elapsed: Duration,
    /// Last scheduled send to last answer: how long the backlog took to
    /// clear once the offered load stopped.
    drain: Duration,
    late_ms_max: f64,
    /// Frames sent (fewer than planned when a ladder rung was cut short).
    sent: usize,
    /// Mutations sent, in order.
    mutations_sent: Vec<usize>,
    /// The sender stopped early because the rung was over its limit.
    aborted: bool,
    /// The connection had to be torn down (drain timeout or I/O error).
    broken: bool,
    /// CPU time of this process (server, service, engine and load
    /// generator) from the phase start until its last answer, before the
    /// answers are checked.
    cpu_secs: f64,
    /// CPU time of each one-by-one `fg-seq` oracle call made to check the
    /// answers: Dijkstra calls, then BFS calls.
    seq_call_ms: [Vec<f64>; 2],
}

impl PhaseOutcome {
    /// Append a later phase on the same connection: answers, oracle timings
    /// and CPU time pooled, the worst lateness kept.
    fn absorb(&mut self, mut later: PhaseOutcome) {
        self.tally.merge(std::mem::take(&mut later.tally));
        self.latencies_ms.append(&mut later.latencies_ms);
        self.elapsed += later.elapsed;
        self.drain = self.drain.max(later.drain);
        self.late_ms_max = self.late_ms_max.max(later.late_ms_max);
        self.sent += later.sent;
        self.mutations_sent.append(&mut later.mutations_sent);
        self.aborted |= later.aborted;
        self.broken |= later.broken;
        self.cpu_secs += later.cpu_secs;
        for (calls, more) in self.seq_call_ms.iter_mut().zip(&mut later.seq_call_ms) {
            calls.append(more);
        }
    }

    /// CPU time a one-by-one server spends per request: the median `fg-seq`
    /// oracle call of each kernel, averaged as half the requests are SSSP
    /// and half BFS.
    fn seq_request_ms(&self) -> f64 {
        (median(&self.seq_call_ms[0]) + median(&self.seq_call_ms[1])) / 2.0
    }

    /// CPU time the process spent serving, per correct answer.
    fn served_cpu_ms(&self) -> f64 {
        ratio(self.cpu_secs * 1e3, self.latencies_ms.len() as f64)
    }

    fn goodput(&self) -> f64 {
        ratio(self.latencies_ms.len() as f64, self.elapsed.as_secs_f64())
    }

    fn rung_latency(&self) -> f64 {
        quantile(&self.latencies_ms, RUNG_PERCENTILE)
    }

    /// A rung passes when every answer is right, its gated percentile meets
    /// the limit, and the backlog cleared within the limit after the last
    /// send.
    fn passes_limit(&self) -> bool {
        let limit = LATENCY_LIMIT_MS / 1e3;
        !self.aborted
            && !self.broken
            && self.tally.failed == 0
            && self.rung_latency() <= LATENCY_LIMIT_MS
            && self.drain.as_secs_f64() <= limit
    }

    /// Check every answer against the oracle on the initial and the final
    /// graph, one `(kernel, source)` at a time so only one oracle pair is
    /// held in memory.
    fn check(&mut self, mut answers: Vec<Answer>, load: &Load<'_>) {
        answers.sort_by_key(|a| (a.kernel == Kernel::Bfs, a.source));
        for group in answers.chunk_by(|a, b| a.kernel == b.kernel && a.source == b.source) {
            let (kernel, s) = (group[0].kernel, group[0].source);
            let mut oracle = |graph: &CsrGraph| {
                let start = thread_cpu_secs();
                let values = match kernel {
                    Kernel::Sssp => compact(&fg_seq::dijkstra(graph, s).dist, INF_DIST),
                    Kernel::Bfs => compact(&fg_seq::bfs(graph, s).level, u32::MAX as u64),
                };
                self.seq_call_ms[kernel as usize].push((thread_cpu_secs() - start) * 1e3);
                values
            };
            let (low, high) = (oracle(load.fin), oracle(load.initial));
            let what = if kernel == Kernel::Sssp { "sssp" } else { "bfs" };
            for answer in group {
                let outcome = match &answer.values {
                    Some(got) => check::between(what, got, &low, &high),
                    None => Err("answer has the wrong payload type".into()),
                };
                if outcome.is_ok() {
                    self.latencies_ms.push(answer.latency_ms);
                }
                self.tally.record(outcome);
            }
        }
    }
}

/// A constant-rate schedule at `rate` for `secs` (requests are due at fixed
/// intervals, as a paced load generator sends them): 5% insert-only
/// mutations (numbered from `next_mutation`), the rest SSSP or BFS queries
/// whose sources are Zipf-ranked by `zipf` (a CDF) over `ranked`.
fn schedule(
    rng: &mut Rng,
    rate: f64,
    secs: f64,
    zipf: &[f64],
    ranked: &[VertexId],
    next_mutation: &mut usize,
) -> Vec<Frame> {
    let count = (rate * secs).round() as usize;
    (0..count)
        .map(|i| {
            let op = if i % MUTATE_EVERY == MUTATE_EVERY - 1 {
                *next_mutation += 1;
                Op::Mutate(*next_mutation - 1)
            } else {
                let u = rng.unit();
                let source = ranked[zipf.partition_point(|&c| c < u).min(ranked.len() - 1)];
                Op::Query(if rng.below(2) == 0 { Kernel::Sssp } else { Kernel::Bfs }, source)
            };
            Frame { at: Duration::from_secs_f64(i as f64 / rate), op }
        })
        .collect()
}

/// `count` distinct edges absent from `graph`, with weights in `[1, 9)`.
fn fresh_edges(graph: &CsrGraph, count: usize, rng: &mut Rng) -> Vec<(VertexId, VertexId, Weight)> {
    let n = graph.num_vertices() as u64;
    let mut seen = HashSet::new();
    let mut edges = Vec::with_capacity(count);
    while edges.len() < count {
        let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
        if u != v && !graph.out_neighbors(u).contains(&v) && seen.insert((u, v)) {
            edges.push((u, v, 1 + rng.below(8) as Weight));
        }
    }
    edges
}

fn with_edges(graph: &CsrGraph, extra: &[(VertexId, VertexId, Weight)]) -> CsrGraph {
    let mut edges: Vec<Edge> = graph.edges().chain(extra.iter().copied()).collect();
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    CsrGraph::from_sorted_edges(graph.num_vertices(), &edges, true)
}

/// Build the partitioned graph and start the service and the server on it.
fn start_server(
    graph: &CsrGraph,
    trace: Option<Arc<TraceSink>>,
    spans: &Spans,
) -> (ForkGraphServer, Arc<PartitionedGraph>, Duration) {
    let partitions = social_inputs().partitions;
    let start = Instant::now();
    let (pg, _) =
        spans.time("graph.build", 0, || Arc::new(PartitionedGraph::build(graph, partitions)));
    let engine = EngineConfig::default().with_threads(2);
    let (server, _) = spans.time("server.start", 0, || {
        let service = match trace {
            Some(sink) => ForkGraphService::start_traced(
                Arc::clone(&pg),
                engine,
                ServiceConfig::default(),
                sink,
            ),
            None => ForkGraphService::start(Arc::clone(&pg), engine, ServiceConfig::default()),
        };
        ForkGraphServer::start(service, ServerConfig::default()).expect("bind a loopback port")
    });
    (server, pg, start.elapsed())
}

/// Run one phase of the schedule over `stream`, then check its answers.
/// With `limit_abort`, the sender stops as soon as more of the phase's
/// frames have missed the latency limit than its gated percentile allows (a
/// ladder rung that has already failed; sending on would only deepen the
/// backlog).
fn drive(
    stream: &TcpStream,
    frames: &[Frame],
    next_corr: &mut u32,
    load: &Load<'_>,
    limit_abort: bool,
) -> PhaseOutcome {
    let n = frames.len();
    let corr_base = *next_corr;
    *next_corr += n as u32 + 1;
    let sentinel = corr_base + n as u32 + 1;
    let answered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let sent = AtomicUsize::new(0);
    let over_limit = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let receiver_done = AtomicBool::new(false);
    let limit = Duration::from_secs_f64(LATENCY_LIMIT_MS / 1e3);
    let budget = ((1.0 - RUNG_PERCENTILE) * n as f64) as usize;
    let phase_span = load.spans.id();
    let cpu_before = process_cpu_secs();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut out = PhaseOutcome::default();
    let mut answers = Vec::with_capacity(n);

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut writer = BufWriter::new(stream.try_clone().expect("clone the load connection"));
            let mut late_max = Duration::ZERO;
            let mut low = 0usize;
            for (i, frame) in frames.iter().enumerate() {
                let due = t0 + frame.at;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if limit_abort {
                    // Answers that missed the limit, plus requests still
                    // unanswered past it.
                    while low < i && answered[low].load(Ordering::Acquire) {
                        low += 1;
                    }
                    let now = Instant::now();
                    let stale = (low..i)
                        .take_while(|&j| t0 + frames[j].at + limit < now)
                        .filter(|&j| !answered[j].load(Ordering::Acquire))
                        .count();
                    if over_limit.load(Ordering::Acquire) + stale > budget {
                        abort.store(true, Ordering::Release);
                        break;
                    }
                }
                late_max = late_max.max(Instant::now().saturating_duration_since(due));
                let correlation = corr_base + i as u32 + 1;
                let body = match frame.op {
                    Op::Query(kernel, source) => encode_request(&Request::new(
                        correlation,
                        if kernel == Kernel::Sssp { "sssp" } else { "bfs" },
                        source,
                    )),
                    Op::Mutate(m) => {
                        let (u, v, w) = load.mutations[m];
                        let mutation = EdgeMutation::Insert { u, v, w };
                        encode_mutate(&MutateRequest { correlation, mutation })
                    }
                };
                if write_frame(&mut writer, &body).and_then(|()| writer.flush()).is_err() {
                    break;
                }
                sent.store(i + 1, Ordering::Release);
            }
            // The sentinel names a vertex the graph does not have: the
            // server answers it at once with a typed error, which wakes the
            // reader even when every real answer is already in.
            let _ = write_frame(
                &mut writer,
                &encode_request(&Request::new(sentinel, "sssp", u32::MAX)),
            )
            .and_then(|()| writer.flush());
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            while !receiver_done.load(Ordering::Acquire) {
                if Instant::now() > deadline {
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            ms(late_max)
        });

        let mut reader = BufReader::new(stream.try_clone().expect("clone the load connection"));
        let mut sentinel_seen = false;
        let mut last_answer = t0;
        loop {
            if sentinel_seen {
                let sent_now = sent.load(Ordering::Acquire);
                if answered[..sent_now].iter().all(|a| a.load(Ordering::Acquire)) {
                    break;
                }
            }
            let response = match read_frame(&mut reader, MAX_FRAME_LEN)
                .map_err(|e| e.to_string())
                .and_then(|body| decode_response(&body).map_err(|e| e.to_string()))
            {
                Ok(response) => response,
                Err(_) => {
                    out.broken = true;
                    break;
                }
            };
            let now = Instant::now();
            let correlation = response.correlation();
            if correlation == sentinel {
                sentinel_seen = true;
                continue;
            }
            let Some(i) =
                correlation.checked_sub(corr_base + 1).map(|i| i as usize).filter(|&i| i < n)
            else {
                out.tally.record(Err(format!("answer to unknown correlation {correlation}")));
                continue;
            };
            let due = t0 + frames[i].at;
            let latency = now.saturating_duration_since(due);
            if latency > limit {
                over_limit.fetch_add(1, Ordering::AcqRel);
            }
            match (response, frames[i].op) {
                (Response::Result { payload, .. }, Op::Query(kernel, source)) => {
                    load.spans.record(correlation as u64, phase_span, "wire.request", due, now);
                    let values = answer_values(kernel, &payload);
                    answers.push(Answer { kernel, source, values, latency_ms: ms(latency) });
                }
                (Response::Result { payload: WirePayload::Version(_), .. }, Op::Mutate(_)) => {
                    out.tally.record(Ok(()))
                }
                (Response::Result { .. }, Op::Mutate(_)) => {
                    out.tally.record(Err("mutation ack has the wrong payload".into()))
                }
                (Response::Error { code, message, .. }, _) => {
                    out.tally.record(Err(format!("error {code:?}: {message}")))
                }
                (Response::RetryAfter { .. }, _) => {
                    out.tally.record(Err("shed with retry-after".into()))
                }
            }
            answered[i].store(true, Ordering::Release);
            last_answer = now;
        }
        receiver_done.store(true, Ordering::Release);
        out.late_ms_max = sender.join().expect("sender thread");
        out.sent = sent.load(Ordering::Acquire);
        out.aborted = abort.load(Ordering::Acquire);
        out.elapsed = last_answer.saturating_duration_since(t0);
        let last_due = frames[..out.sent].last().map_or(t0, |f| t0 + f.at);
        out.drain = last_answer.saturating_duration_since(last_due);
        for flag in &answered[..out.sent] {
            if !flag.load(Ordering::Acquire) {
                out.tally.record(Err("no answer within the drain timeout".into()));
            }
        }
    });
    out.cpu_secs = process_cpu_secs() - cpu_before;
    load.spans.record(phase_span, 0, "phase", t0, t0 + out.elapsed);
    out.mutations_sent = frames[..out.sent]
        .iter()
        .filter_map(|f| match f.op {
            Op::Mutate(m) => Some(m),
            Op::Query(..) => None,
        })
        .collect();
    out.check(answers, load);
    out
}

fn connect(server: &ForkGraphServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect over loopback");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream.write_all(&MAGIC).expect("announce the binary dialect");
    stream
}

/// The offered rate at which the rung latency crosses the limit,
/// interpolated log-log between the highest passing rung and the first
/// failing one; the passing rung's rate when none failed.
fn crossing(pass: (f64, f64), fail: Option<(f64, f64)>) -> f64 {
    let Some(fail) = fail else { return pass.0 };
    let (lp, lf) = (pass.1.max(1e-3).ln(), fail.1.max(LATENCY_LIMIT_MS).ln());
    let theta =
        if lf > lp { ((LATENCY_LIMIT_MS.ln() - lp) / (lf - lp)).clamp(0.0, 1.0) } else { 0.0 };
    pass.0 * (fail.0 / pass.0).powf(theta)
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<(Report, Spans), String> {
    let spans = Spans::new(trace);
    let mut report = Report::default();
    let graph = social_inputs().graph;
    assert!(
        (graph.num_vertices() as u64 - 1) * 8 < u16::MAX as u64 - 1,
        "answers are checked as u16s: distances must stay below u16::MAX - 1"
    );
    report.describe("seed", seed);
    let mut rng = Rng::new(seed);

    // Query sources: a seeded ranking of the vertices with out-edges, drawn
    // Zipf-skewed so hot sources repeat and the result cache gets hits.
    let mut ranked: Vec<VertexId> =
        (0..graph.num_vertices() as VertexId).filter(|&v| graph.out_degree(v) > 0).collect();
    for i in (1..ranked.len()).rev() {
        ranked.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let weights: Vec<f64> = (1..=ranked.len()).map(|k| (k as f64).powf(-ZIPF_EXPONENT)).collect();
    let total: f64 = weights.iter().sum();
    let zipf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();

    // The whole schedule is planned up front, so the final graph the answers
    // are checked against holds every mutation the run could send. The
    // untraced run is one fixed-rate phase; the traced run splits it into an
    // untraced and a traced half and climbs the ladder in between.
    let secs = seconds as f64;
    let mut next_mutation = 0;
    let mut plan =
        |rate: f64, len: f64| schedule(&mut rng, rate, len, &zipf, &ranked, &mut next_mutation);
    let warm_up = plan(FIXED_RPS, WARM_UP_SECS);
    let fixed_secs = if trace { secs / 2.0 } else { secs };
    let segments = (fixed_secs / SEGMENT_SECS).round().max(1.0);
    let fixed_segments: Vec<Vec<Frame>> =
        (0..segments as usize).map(|_| plan(FIXED_RPS, fixed_secs / segments)).collect();
    let (ladder, traced_warm_up, traced_frames) = if trace {
        let rungs = (0..LADDER_RUNGS)
            .map(|k| LADDER_BASE_RPS * LADDER_STEP.powi(k as i32))
            .map(|rate| (rate, plan(rate, RUNG_REQUESTS as f64 / rate)))
            .collect();
        (rungs, plan(FIXED_RPS, WARM_UP_SECS), plan(FIXED_RPS, secs / 2.0))
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    let mutations = fresh_edges(&graph, next_mutation, &mut rng);
    let fin = with_edges(&graph, &mutations);
    let load = Load { initial: &graph, fin: &fin, mutations: &mutations, spans: &spans };

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut current: Option<(ForkGraphServer, Arc<PartitionedGraph>)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((old, _)) = current.take() {
            old.shutdown();
        }
        let (server, pg, time) = start_server(&graph, None, &spans);
        setup.push(time.as_secs_f64());
        current = Some((server, pg));
    }
    let (server, pg) = current.expect("at least one set-up");
    report.describe("vertices", graph.num_vertices());
    report.describe("edges", graph.num_edges());
    report.describe("partitions", pg.num_partitions());
    report.describe("partition_method", pg.config().method.name());
    report.describe("edge_cut", pg.plan().edge_cut(&graph));
    report.describe("max_partition_bytes", pg.max_footprint_bytes());
    report.describe("fixed_rps", FIXED_RPS);
    report.describe("mutations_planned", mutations.len());
    report.set("setup_s", median(&setup));

    let stream = connect(&server);
    let mut next_corr = 0u32;
    let mut tally = drive(&stream, &warm_up, &mut next_corr, &load, false).tally;
    let mut fixed = PhaseOutcome::default();
    for frames in &fixed_segments {
        fixed.absorb(drive(&stream, frames, &mut next_corr, &load, false));
    }
    let mut late_max = fixed.late_ms_max;
    let fixed_p50 = median(&fixed.latencies_ms);
    report.set("queries_per_s", fixed.goodput());
    report.set("latency_ms_p50", fixed_p50);
    report.set("vs_sequential", fixed.seq_request_ms() / fixed.served_cpu_ms());
    report.describe("seq_request_ms", fixed.seq_request_ms());
    report.describe("served_cpu_ms_per_answer", fixed.served_cpu_ms());
    report.describe("fixed_answers", fixed.latencies_ms.len());
    let tail: Vec<String> = [0.9, 0.95, 0.99, 0.999, 1.0]
        .iter()
        .map(|&q| format!("{:.2}", quantile(&fixed.latencies_ms, q)))
        .collect();
    report.describe("latency_ms_p90_p95_p99_p999_max", tail.join("/"));
    tally.merge(std::mem::take(&mut fixed.tally));

    if trace {
        let (sustained, rungs_passed, ladder_tally, ladder_late) =
            climb(&stream, &ladder, (FIXED_RPS, fixed.rung_latency()), &mut next_corr, &load);
        report.describe("ladder_rungs_passed", rungs_passed);
        report.set("serve.sustained_rps", sustained);
        report.set("serve.latency_ms_p95", quantile(&fixed.latencies_ms, 0.95));
        late_max = late_max.max(ladder_late);
        tally.merge(ladder_tally);
    }
    drop(stream);
    report.describe("service", server.metrics().to_string().replace('\n', "; "));
    server.shutdown();

    if trace {
        let mut traced = traced_phase(
            &graph,
            &traced_warm_up,
            &traced_frames,
            &mut next_corr,
            &load,
            &mut report,
        )?;
        late_max = late_max.max(traced.late_ms_max);
        for (calls, more) in fixed.seq_call_ms.iter_mut().zip(&mut traced.seq_call_ms) {
            calls.append(more);
        }
        report.set("graph.build_s", median(&setup));
        report.set(
            "graph.edge_cut_frac",
            ratio(pg.plan().edge_cut(&graph) as f64, graph.num_edges() as f64),
        );
        report.set("graph.bytes_per_edge", pg.bytes_per_edge());
        report.set("graph.max_partition_kib", pg.max_footprint_bytes() as f64 / 1024.0);
        report.set("seq.queries_per_s", 1e3 / fixed.seq_request_ms());
        report.set("apps.aggregate_ms", 0.0);
        report.set("gen.late_ms_max", late_max);
        report.set("trace.overhead_frac", traced.served_cpu_ms() / fixed.served_cpu_ms() - 1.0);
        tally.merge(traced.tally);
    }
    report.tally = tally;
    report.describe("gen_late_ms_max", late_max);
    if late_max > LATENCY_LIMIT_MS {
        return Err(format!(
            "the load generator ran {late_max:.1} ms behind schedule, beyond the {LATENCY_LIMIT_MS} ms latency limit"
        ));
    }
    Ok((report, spans))
}

/// Climb the ladder on `stream` until a rung fails. Returns the sustained
/// rate, the rungs passed, the rungs' tally and how late the sender ran.
/// `base` is the rate and rung latency of the fixed-rate phase, the point
/// below the ladder's first rung.
fn climb(
    stream: &TcpStream,
    ladder: &[(f64, Vec<Frame>)],
    base: (f64, f64),
    next_corr: &mut u32,
    load: &Load<'_>,
) -> (f64, usize, Tally, f64) {
    let mut tally = Tally::default();
    let mut late_max: f64 = 0.0;
    let mut pass = base;
    let mut fail = None;
    let mut passed = 0;
    for (rate, frames) in ladder {
        let mut rung = drive(stream, frames, next_corr, load, true);
        late_max = late_max.max(rung.late_ms_max);
        let ok = rung.passes_limit();
        let latency = rung.rung_latency();
        eprintln!(
            "rung {rate:.1} req/s: goodput {:.1}, p95 {latency:.1} ms, drain {:.1} ms, {} sent{}",
            rung.goodput(),
            ms(rung.drain),
            rung.sent,
            if ok { "" } else { " -> fails" }
        );
        tally.merge(std::mem::take(&mut rung.tally));
        if !ok {
            fail = Some((*rate, latency));
            break;
        }
        pass = (*rate, latency);
        passed += 1;
    }
    (crossing(pass, fail), passed, tally, late_max)
}

/// The traced half of a `--trace 1` run: the same fixed-rate traffic against
/// a traced server, then the per-layer metrics from its events and counters.
fn traced_phase(
    graph: &CsrGraph,
    warm_up: &[Frame],
    frames: &[Frame],
    next_corr: &mut u32,
    load: &Load<'_>,
    report: &mut Report,
) -> Result<PhaseOutcome, String> {
    let sink = TraceSink::new();
    let (server, pg, _) = start_server(graph, Some(Arc::clone(&sink)), load.spans);
    let stream = connect(&server);
    sink.set_enabled(false);
    let warm = drive(&stream, warm_up, next_corr, load, false);
    sink.set_enabled(true);
    let mut out = drive(&stream, frames, next_corr, load, false);
    out.tally.merge(warm.tally);
    drop(stream);

    // The wire floor: one request at a time for an answer the cache holds.
    let handle = server.handle();
    handle.flush_mutations();
    let mut client = WireClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let hits_before = handle.metrics().cache_hits;
    let source = frames
        .iter()
        .find_map(|f| match f.op {
            Op::Query(_, s) => Some(s),
            Op::Mutate(_) => None,
        })
        .unwrap_or(0);
    let mut rtt = Vec::with_capacity(RTT_PROBES);
    let mut probes = Vec::with_capacity(RTT_PROBES + 1);
    for i in 0..=RTT_PROBES {
        let correlation = *next_corr + i as u32 + 1;
        let start = Instant::now();
        let response = client
            .call(&Request::new(correlation, "sssp", source), |_| {})
            .map_err(|e| e.to_string())?;
        let elapsed = start.elapsed();
        // The first call fills the cache; the rest are hits.
        if i > 0 {
            rtt.push(ms(elapsed));
        }
        match response {
            Response::Result { payload, .. } => probes.push(Answer {
                kernel: Kernel::Sssp,
                source,
                values: answer_values(Kernel::Sssp, &payload),
                latency_ms: ms(elapsed),
            }),
            other => out.tally.record(Err(format!("cache probe failed: {other:?}"))),
        }
    }
    *next_corr += RTT_PROBES as u32 + 2;
    drop(client);
    let mut probed = PhaseOutcome::default();
    probed.check(probes, load);
    out.tally.merge(probed.tally);
    let hits = handle.metrics().cache_hits - hits_before;
    report.describe("rtt_probe_cache_hits", hits);
    report.set("server.cache_hit_rtt_ms_p50", median(&rtt));

    let snapshot = handle.metrics();
    server.shutdown();
    let stats = sink.stats();
    report.describe("trace_events", stats.retained);
    report.describe("trace_events_dropped", stats.dropped);

    let mut enqueued = HashMap::new();
    let mut batch_begin = HashMap::new();
    let mut run_begin = HashMap::new();
    let (mut queue_wait, mut batch_run, mut run_ms, mut visit_ops) =
        (vec![], vec![], vec![], vec![]);
    let (mut yields, mut steals, mut idle_waits, mut dispatches) = (0u64, 0u64, 0u64, 0u64);
    let mut folds = Vec::new();
    let since = |t: u64, e: u64| (e - t) as f64 / 1e6;
    for (lane, e) in sink.merged_events() {
        match e.kind {
            EventKind::Enqueue => {
                enqueued.insert(e.a, e.nanos);
            }
            EventKind::JoinBatch => {
                if let Some(t) = enqueued.remove(&e.a) {
                    queue_wait.push(since(t, e.nanos));
                }
            }
            EventKind::BatchBegin => {
                batch_begin.insert(e.a, e.nanos);
            }
            EventKind::BatchEnd => {
                if let Some(t) = batch_begin.remove(&e.a) {
                    batch_run.push(since(t, e.nanos));
                }
            }
            EventKind::RunBegin => {
                run_begin.insert(lane, e.nanos);
            }
            EventKind::RunEnd => {
                if let Some(t) = run_begin.remove(&lane) {
                    run_ms.push(since(t, e.nanos));
                }
            }
            EventKind::PartitionVisitBegin => visit_ops.push(e.b as f64),
            EventKind::Yield => yields += 1,
            EventKind::Steal => steals += 1,
            EventKind::Park if e.b == 1 => idle_waits += 1,
            EventKind::PoolDispatch => dispatches += 1,
            EventKind::DeltaFold => folds.push(e.a as usize),
            _ => {}
        }
    }
    let batches = snapshot.batches_dispatched as f64;
    report.set("service.queue_wait_ms_p50", median(&queue_wait));
    report.set("service.queue_wait_ms_p99", quantile(&queue_wait, 0.99));
    report.set("service.batch_run_ms_p50", median(&batch_run));
    report.set("service.batch_occupancy_mean", snapshot.mean_batch_occupancy());
    report.set("service.cache_hit_frac", snapshot.cache_hit_rate());
    report.set("service.shed_frac", ratio(snapshot.rejected as f64, snapshot.submitted as f64));
    report.set("service.rematerialized_frac", snapshot.dirty_rematerialize_frac());
    report.set("service.incremental_frac", ratio(snapshot.incremental_runs as f64, batches));
    report.set("service.fold_ms_p50", replay_folds(&pg, &folds, &out.mutations_sent, load));

    report.set("engine.run_ms_p50", median(&run_ms));
    report.set("engine.visits_per_batch", ratio(visit_ops.len() as f64, run_ms.len() as f64));
    report.set("engine.yields_per_visit", ratio(yields as f64, visit_ops.len() as f64));
    report.set("engine.ops_per_visit_p50", median(&visit_ops));
    const NO_WORK: &str = "the service does not export the WorkSnapshot of the runs it dispatches";
    const NO_PROFILE: &str = "the service does not export the RunProfile of the runs it dispatches";
    for name in [
        "engine.ns_per_edge",
        "engine.work_ratio",
        "engine.buffered_per_processed",
        "engine.dead_op_frac",
    ] {
        report.unmeasured(name, NO_WORK);
    }
    for name in
        ["engine.phase_init_frac", "engine.phase_processing_frac", "engine.phase_finalize_frac"]
    {
        report.unmeasured(name, NO_PROFILE);
    }
    report.set("pool.steals_per_batch", ratio(steals as f64, batches));
    report.set("pool.idle_waits_per_batch", ratio(idle_waits as f64, batches));
    report.set("pool.dispatches", dispatches as f64);
    Ok(out)
}

/// Fold time, timed outside the service: replay the traced phase's
/// mutations, grouped as its `DeltaFold` events say the batcher folded
/// them, through `VersionedGraph::prepare` + `publish` on the same graph.
fn replay_folds(
    pg: &Arc<PartitionedGraph>,
    folds: &[usize],
    sent: &[usize],
    load: &Load<'_>,
) -> f64 {
    let store = VersionedGraph::new(Arc::clone(pg));
    let mut pending = sent.iter();
    let mut fold_ms = Vec::with_capacity(folds.len());
    for &size in folds {
        for &m in pending.by_ref().take(size) {
            let (u, v, w) = load.mutations[m];
            store.insert_edge(u, v, w).expect("planned mutations are valid");
        }
        let (_, time) = load
            .spans
            .time("service.fold_replay", 0, || store.prepare().map(|fold| store.publish(fold)));
        fold_ms.push(ms(time));
    }
    median(&fold_ms)
}
