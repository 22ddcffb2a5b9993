//! Acceptance tests for heterogeneous multi-kernel runs
//! ([`ForkGraphEngine::run_multi`]): for random mixes of SSSP / BFS /
//! random-walk / custom k-hop groups — serially and on the pool, under every
//! Table 4A scheduling policy — one shared partition pass produces results
//! **byte-identical** to running each kernel's cohort through its own
//! [`ForkGraphEngine::run_dyn`] sweep. PPR participates under its documented
//! epsilon/mass approximation contract (its lazy forward-push is
//! non-confluent even between two serial solo schedules, so bitwise equality
//! is unattainable by any execution strategy — see
//! `tests/parallel_equivalence.rs`). The single-group `run_multi` path is
//! also byte-identical to `run_dyn`, which pins the erased
//! [`forkgraph_core::MultiValue8`]/[`forkgraph_core::MultiValue16`]
//! pipeline to the monomorphized one.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fg_graph::partition::{PartitionConfig, PartitionMethod};
use fg_graph::partitioned::PartitionedGraph;
use fg_graph::{gen, Dist, VertexId};
use fg_seq::ppr::PprConfig;
use fg_seq::random_walk::RandomWalkConfig;
use forkgraph_core::kernels::{
    BfsKernel, PprKernel, PprState, RandomWalkKernel, RwState, SsspKernel,
};
use forkgraph_core::{
    erase, DynKernel, EngineConfig, ErasedState, ForkGraphEngine, SchedulingPolicy,
};

#[path = "common/khop.rs"]
mod khop;
use khop::KHopKernel;

/// The confluent kernel pool mixes are drawn from (PPR is tested separately
/// under its approximation contract).
#[derive(Clone, Copy, Debug)]
enum TestKernel {
    Sssp,
    Bfs,
    Rw,
    KHop,
}

const ALL_KERNELS: [TestKernel; 4] =
    [TestKernel::Sssp, TestKernel::Bfs, TestKernel::Rw, TestKernel::KHop];

impl TestKernel {
    fn erased(&self) -> Arc<dyn DynKernel> {
        match self {
            TestKernel::Sssp => erase(SsspKernel),
            TestKernel::Bfs => erase(BfsKernel),
            TestKernel::Rw => erase(RandomWalkKernel::new(RandomWalkConfig {
                num_walks: 3,
                walk_length: 6,
                restart_prob: 0.0,
                seed: 11,
            })),
            TestKernel::KHop => erase(KHopKernel { k: 3 }),
        }
    }

    /// Byte-level equality of two erased states of this kernel.
    fn assert_states_eq(&self, mixed: &ErasedState, solo: &ErasedState, context: &str) {
        match self {
            TestKernel::Sssp | TestKernel::KHop => assert_eq!(
                mixed.downcast_ref::<Vec<Dist>>().unwrap(),
                solo.downcast_ref::<Vec<Dist>>().unwrap(),
                "{context}"
            ),
            TestKernel::Bfs => assert_eq!(
                mixed.downcast_ref::<Vec<u32>>().unwrap(),
                solo.downcast_ref::<Vec<u32>>().unwrap(),
                "{context}"
            ),
            TestKernel::Rw => assert_eq!(
                mixed.downcast_ref::<RwState>().unwrap(),
                solo.downcast_ref::<RwState>().unwrap(),
                "{context}"
            ),
        }
    }
}

fn partitioned(parts: usize, seed: u64) -> PartitionedGraph {
    let g = gen::rmat(9, 6, seed).with_random_weights(8, seed);
    PartitionedGraph::build(
        &g,
        PartitionConfig::with_partitions(PartitionMethod::Multilevel, parts),
    )
}

/// Worker counts swept: the serial loop and a three-worker pool.
const THREADS: [usize; 2] = [1, 3];

fn engine_config(threads: usize, policy: SchedulingPolicy) -> EngineConfig {
    EngineConfig::default().with_scheduling(policy).with_threads(threads)
}

/// Acceptance criterion: random heterogeneous mixes are byte-identical to
/// per-kernel `run_dyn` sweeps across serial/pool × all four policies.
///
/// The `run_dyn` oracle per group is computed **once** on a serial engine:
/// for these confluent kernels `run_dyn` itself is schedule- and
/// thread-count-independent (property-tested in `tests/parallel_equivalence.rs` and
/// `tests/pool_reuse.rs`), so one oracle stands for every configuration —
/// which keeps this sweep fast enough for a debug-mode test run. The
/// serial leg still cross-checks `run_dyn` per policy via the single-group
/// test below.
#[test]
fn random_mixes_match_solo_runs_across_thread_counts_and_policies() {
    let pg = partitioned(7, 131);
    let n = pg.graph().num_vertices() as u32;
    let mut rng = SmallRng::seed_from_u64(0xF0CACC1A);
    let oracle_engine = ForkGraphEngine::new(&pg, engine_config(1, SchedulingPolicy::Priority));

    for round in 0..3 {
        // 2–4 groups, duplicates allowed (two cohorts of the same kernel are
        // still distinct groups with distinct state tables).
        let num_groups = rng.gen_range(2..=4usize);
        let mix: Vec<(TestKernel, Arc<dyn DynKernel>, Vec<VertexId>)> = (0..num_groups)
            .map(|_| {
                let which = ALL_KERNELS[rng.gen_range(0..ALL_KERNELS.len())];
                let sources: Vec<VertexId> =
                    (0..rng.gen_range(1..=4usize)).map(|_| rng.gen_range(0..n)).collect();
                (which, which.erased(), sources)
            })
            .collect();
        let oracles: Vec<Vec<ErasedState>> =
            mix.iter().map(|(_, k, s)| oracle_engine.run_dyn(&**k, s).per_query).collect();

        for threads in THREADS {
            for policy in SchedulingPolicy::all() {
                let engine = ForkGraphEngine::new(&pg, engine_config(threads, policy));
                let groups: Vec<(&dyn DynKernel, &[VertexId])> =
                    mix.iter().map(|(_, k, s)| (&**k, &s[..])).collect();
                let mixed = engine.run_multi(&groups);
                assert_eq!(mixed.num_groups(), mix.len());
                for (g, (which, _, sources)) in mix.iter().enumerate() {
                    assert_eq!(mixed.per_group[g].len(), sources.len());
                    for (i, (mixed_state, solo_state)) in
                        mixed.per_group[g].iter().zip(&oracles[g]).enumerate()
                    {
                        which.assert_states_eq(
                            mixed_state,
                            solo_state,
                            &format!(
                                "round {round} group {g} ({which:?}) query {i} threads={threads} \
                                 {policy:?}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Acceptance criterion: single-group `run_multi` is byte-identical to
/// `run_dyn` — the erased payload pipeline is faithful to the
/// monomorphized path, not merely approximately equivalent.
#[test]
fn single_group_run_multi_is_byte_identical_to_run_dyn() {
    let pg = partitioned(6, 137);
    let sources: Vec<VertexId> = vec![0, 9, 42, 311];
    for which in ALL_KERNELS {
        let kernel = which.erased();
        // Full policy sweep on the cheap serial engine; the pool runs two
        // policies (policy coverage comes from the serial sweep and the
        // mixed sweep above).
        let configs = [
            (1, SchedulingPolicy::Priority),
            (1, SchedulingPolicy::Fifo),
            (1, SchedulingPolicy::MaxOperations),
            (1, SchedulingPolicy::Random { seed: 7 }),
            (3, SchedulingPolicy::Priority),
            (3, SchedulingPolicy::Fifo),
        ];
        for (threads, policy) in configs {
            {
                let engine = ForkGraphEngine::new(&pg, engine_config(threads, policy));
                let multi = engine.run_multi(&[(&*kernel, &sources[..])]);
                let solo = engine.run_dyn(&*kernel, &sources);
                for (i, (a, b)) in multi.per_group[0].iter().zip(&solo.per_query).enumerate() {
                    which.assert_states_eq(
                        a,
                        b,
                        &format!("{which:?} query {i} threads={threads} {policy:?}"),
                    );
                }
            }
        }
    }
}

/// PPR through a *serial* single-group `run_multi` is byte-identical to
/// serial `run_dyn` (same deterministic op sequence); mixed or parallel runs
/// hold its epsilon/mass approximation contract instead.
#[test]
fn ppr_single_group_serial_is_byte_identical() {
    let pg = partitioned(6, 139);
    let config = PprConfig { epsilon: 1e-4, ..Default::default() };
    let ppr = erase(PprKernel::new(config));
    let seeds: Vec<VertexId> = vec![3, 42, 200];
    let engine = ForkGraphEngine::new(&pg, engine_config(1, SchedulingPolicy::Priority));
    let multi = engine.run_multi(&[(&*ppr, &seeds[..])]);
    let solo = engine.run_dyn(&*ppr, &seeds);
    for (a, b) in multi.per_group[0].iter().zip(&solo.per_query) {
        let a = a.downcast_ref::<PprState>().unwrap();
        let b = b.downcast_ref::<PprState>().unwrap();
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.residual, b.residual);
    }
}

/// PPR mixed with other kernels (serially and on the pool) keeps
/// the approximation contract: unit total mass and bounded L1 distance to
/// the sequential forward-push reference.
#[test]
fn mixed_ppr_keeps_its_approximation_contract() {
    let pg = partitioned(6, 149);
    let g = pg.graph();
    let config = PprConfig { epsilon: 1e-4, ..Default::default() };
    let ppr = erase(PprKernel::new(config));
    let sssp = erase(SsspKernel);
    let seeds: Vec<VertexId> = vec![3, 42];
    let sssp_sources: Vec<VertexId> = vec![0, 17, 99];

    for threads in THREADS {
        let engine = ForkGraphEngine::new(&pg, engine_config(threads, SchedulingPolicy::Priority));
        let mixed = engine.run_multi(&[(&*ppr, &seeds[..]), (&*sssp, &sssp_sources[..])]);

        for (state, &seed) in mixed.per_group[0].iter().zip(seeds.iter()) {
            let state = state.downcast_ref::<PprState>().unwrap();
            assert!((state.total_mass() - 1.0).abs() < 1e-9, "threads={threads} seed {seed}");
            let reference = fg_seq::ppr::ppr_push(g, seed, &config).dense(g.num_vertices());
            let l1: f64 =
                state.estimate.iter().zip(reference.iter()).map(|(a, b)| (a - b).abs()).sum();
            assert!(l1 < 0.08, "threads={threads} seed {seed}: l1 {l1}");
        }
        // The monotone co-tenant is still exact.
        let solo = engine.run_dyn(&*sssp, &sssp_sources);
        for (a, b) in mixed.per_group[1].iter().zip(&solo.per_query) {
            assert_eq!(
                a.downcast_ref::<Vec<Dist>>().unwrap(),
                b.downcast_ref::<Vec<Dist>>().unwrap(),
                "threads={threads}"
            );
        }
    }
}
