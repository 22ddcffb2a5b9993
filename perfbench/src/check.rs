//! Answer checks. Every answer a workload receives goes through one of these
//! and into a [`Tally`]; a wrong answer is a failed operation, counted into
//! `failed` and `fail_frac` exactly like a typed error, a shed or a timeout.

use fg_graph::VertexId;

/// PPR answers must lie within this L1 distance of the sequential push
/// (`fg_seq::ppr::ppr_push`) vector — the contract `tests/equivalence.rs`
/// holds the engine to.
pub const PPR_L1_BOUND: f64 = 0.05;

/// Operations attempted and failed by one workload run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure's description, for the log.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one operation and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn fail_frac(&self) -> f64 {
        crate::util::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// SSSP/BFS: the answer must equal the `fg-seq` oracle element for element.
pub fn exact<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: &[T],
    want: &[T],
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values, oracle has {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(v) => Err(format!("{what}: vertex {v} is {:?}, oracle says {:?}", got[v], want[v])),
    }
}

/// PPR: L1 distance between the engine's dense estimate and the sequential
/// sparse estimate, computed without densifying the latter.
pub fn ppr_l1(estimate: &[f64], oracle: &[(VertexId, f64)]) -> f64 {
    let mut l1: f64 = estimate.iter().map(|p| p.abs()).sum();
    for &(v, p) in oracle {
        let e = estimate.get(v as usize).copied().unwrap_or(0.0);
        l1 += (e - p).abs() - e.abs();
    }
    l1
}

pub fn ppr(what: &str, estimate: &[f64], oracle: &[(VertexId, f64)]) -> Result<(), String> {
    let l1 = ppr_l1(estimate, oracle);
    if l1 < PPR_L1_BOUND {
        Ok(())
    } else {
        Err(format!("{what}: L1 distance {l1:.4} to the sequential PPR exceeds {PPR_L1_BOUND}"))
    }
}

/// Under insert-only mutations distances and levels can only shrink, so an
/// answer computed on any version of the graph lies element-wise between
/// the oracle on the final graph (`low`) and on the initial graph (`high`).
pub fn between<T: PartialOrd + std::fmt::Debug>(
    what: &str,
    got: &[T],
    low: &[T],
    high: &[T],
) -> Result<(), String> {
    if got.len() != low.len() || got.len() != high.len() {
        return Err(format!("{what}: {} values, oracle has {}", got.len(), low.len()));
    }
    for v in 0..got.len() {
        if got[v] < low[v] || got[v] > high[v] {
            return Err(format!(
                "{what}: vertex {v} is {:?}, outside [{:?}, {:?}] (final, initial graph)",
                got[v], low[v], high[v]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_graph::gen;
    use fg_graph::partition::{PartitionConfig, PartitionMethod};
    use fg_graph::partitioned::PartitionedGraph;
    use forkgraph_core::{EngineConfig, ForkGraphEngine};

    /// One corrupted answer in an otherwise correct batch is exactly one
    /// failure out of the batch, for every kind of check.
    #[test]
    fn one_corrupted_answer_is_counted_as_one_failure() {
        let graph = gen::rmat(8, 8, 3).with_random_weights(8, 3);
        let pg = PartitionedGraph::build(
            &graph,
            PartitionConfig::with_partitions(PartitionMethod::Random, 4),
        );
        let sources = [0, 5, 9, 17];
        let mut answers =
            ForkGraphEngine::new(&pg, EngineConfig::default()).run_sssp(&sources).per_query;
        let oracle: Vec<_> = sources.iter().map(|&s| fg_seq::dijkstra(&graph, s).dist).collect();

        let mut clean = Tally::default();
        for (got, want) in answers.iter().zip(&oracle) {
            clean.record(exact("sssp", got, want));
        }
        assert_eq!((clean.attempted, clean.failed), (4, 0));

        answers[2][7] = answers[2][7].wrapping_add(1);
        let mut tally = Tally::default();
        for (got, want) in answers.iter().zip(&oracle) {
            tally.record(exact("sssp", got, want));
        }
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert!(tally.first_failure.unwrap().contains("vertex 7"));
        assert_eq!(Tally { attempted: 4, failed: 1, first_failure: None }.fail_frac(), 0.25);

        // The served-answer bound: one element past either side fails.
        let low = oracle[1].clone();
        let v =
            low.iter().position(|&d| d > 0 && d != fg_graph::INF_DIST).expect("a reached vertex");
        let mut high = low.clone();
        high[v] += 2;
        assert!(between("sssp", &oracle[1], &low, &high).is_ok());
        for wrong in [low[v] - 1, high[v] + 1] {
            let mut bad = oracle[1].clone();
            bad[v] = wrong;
            assert!(between("sssp", &bad, &low, &high).is_err());
        }

        // PPR: a corrupted estimate leaves the ε contract.
        let config = fg_seq::ppr::PprConfig { epsilon: 1e-4, ..Default::default() };
        let seq = fg_seq::ppr::ppr_push(&graph, 5, &config);
        let mut dense = seq.dense(graph.num_vertices());
        assert!(ppr("ppr", &dense, &seq.estimates).is_ok());
        dense[seq.estimates[0].0 as usize] += 0.1;
        assert!(ppr("ppr", &dense, &seq.estimates).is_err());
    }
}
