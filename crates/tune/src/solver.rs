//! The search: coordinate descent with bound pruning, then seeded
//! random local refinement.
//!
//! The landscape (Fig. 8) is a single deep valley along nf with mild
//! interactions from the remaining knobs, which is exactly the regime
//! where coordinate descent converges in a couple of rounds. Two
//! mechanisms keep the evaluation count far below the cross product:
//!
//! * **branch-and-bound point pruning** — before a candidate is
//!   simulated, its analytic floor ([`BoundModel::point_bound`]) is
//!   compared against the incumbent; a floor at or above the incumbent
//!   proves the candidate cannot win, so it is skipped (counted in
//!   `pruned`). The floors are monotone along nf (stream ↓, create ↑),
//!   so whole axis tails collapse once the incumbent is good.
//! * **memoized batching** — each axis sweep is costed as one batch;
//!   canonicalization collapses masked-knob duplicates to memo hits.
//!
//! A short xorshift-seeded local search afterwards perturbs 1–2 knobs
//! at a time to catch interactions coordinate descent cannot see.

use crate::oracle::MachineOracle;
use crate::space::{Candidate, Knob, Space, ALL_KNOBS};
use rbio_profile::counters as telemetry;

/// Search effort limits.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Max coordinate-descent passes over all knobs.
    pub(crate) max_rounds: usize,
    /// Random perturbations after descent converges.
    pub(crate) local_steps: usize,
    /// Seed for the local-search RNG (deterministic search).
    pub(crate) seed: u64,
    /// Hard cap on oracle evaluations (`None` = unlimited).
    pub(crate) max_evals: Option<u64>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_rounds: 3,
            local_steps: 24,
            seed: 0x5EED,
            max_evals: None,
        }
    }
}

impl SearchConfig {
    /// The small CI budget: one descent round, a handful of
    /// refinements, and a tight eval cap.
    pub fn small() -> Self {
        SearchConfig {
            max_rounds: 2,
            local_steps: 8,
            seed: 0x5EED,
            max_evals: Some(60),
        }
    }
}

/// What a search found and what it cost to find it.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The winning configuration.
    pub best: Candidate,
    /// Its simulated cost, seconds.
    pub cost: f64,
    /// Unique simulations this search ran.
    pub evals: u64,
    /// Queries answered from the memo cache.
    pub memo_hits: u64,
    /// Candidates proven hopeless by the bound model (never simulated).
    pub pruned: u64,
    /// Human-readable move log.
    pub history: Vec<String>,
}

/// xorshift64* — tiny, seedable, good enough to scatter perturbations.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Run the solver over `space` against `oracle`.
///
/// The strategy axis is categorical and interacts strongly with nf
/// (rbIO wants the Fig. 8 valley, coIO's stream count is nf-blind), so
/// it is searched as an *outer restart loop* — one coordinate descent
/// per strategy over the remaining knobs — rather than as a descent
/// axis. All restarts share the memo cache and the global incumbent
/// for pruning; strategies whose seed costs more are descended later,
/// so a tight budget is spent where it pays.
pub fn search(
    oracle: &MachineOracle,
    space: &Space,
    cfg: &SearchConfig,
) -> Result<SearchOutcome, String> {
    space.validate()?;
    let bound = oracle.bound_model();
    let evals_before = oracle.evals();
    let hits_before = oracle.memo_hits();
    let mut pruned: u64 = 0;
    let mut history = Vec::new();

    let budget_left = |evals_now: u64| {
        cfg.max_evals
            .is_none_or(|cap| evals_now - evals_before < cap)
    };

    // Seed one start per strategy; cost them as one batch.
    let neutral = space.seed_candidate();
    let seeds: Vec<Candidate> = space
        .strategies
        .iter()
        .map(|&s| Candidate {
            strategy: s,
            ..neutral
        })
        .collect();
    let seed_costs = oracle.cost_batch(&seeds);
    let (mut cur, mut best_cost) = seeds
        .iter()
        .zip(&seed_costs)
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(c, &cost)| (*c, cost))
        .expect("non-empty strategy axis");
    for (c, cost) in seeds.iter().zip(&seed_costs) {
        history.push(format!("seed {:?}: cost {cost:.4}s", c.strategy));
    }

    // Most promising strategy first: a good early incumbent makes the
    // bound pruning bite during the later, weaker descents.
    let mut order: Vec<usize> = (0..seeds.len()).collect();
    order.sort_by(|&a, &b| seed_costs[a].total_cmp(&seed_costs[b]));

    'restarts: for &si in &order {
        let mut local = seeds[si];
        let mut local_cost = seed_costs[si];
        for round in 1..=cfg.max_rounds {
            let mut improved = false;
            for &k in ALL_KNOBS.iter() {
                if k == Knob::Strategy {
                    continue;
                }
                let n = space.axis_len(k);
                if n <= 1 {
                    continue;
                }
                if !budget_left(oracle.evals()) {
                    history.push(format!(
                        "{:?} round {round}: eval budget exhausted",
                        local.strategy
                    ));
                    break 'restarts;
                }
                // Sweep the axis, pruning values whose floor can't beat
                // the global incumbent.
                let mut batch = Vec::with_capacity(n);
                for i in 0..n {
                    let c = space.with_axis(&local, k, i);
                    if c == local {
                        continue;
                    }
                    if best_cost.is_finite() && bound.point_bound(&c) >= best_cost {
                        pruned += 1;
                        continue;
                    }
                    batch.push(c);
                }
                if batch.is_empty() {
                    continue;
                }
                let costs = oracle.cost_batch(&batch);
                for (c, cost) in batch.iter().zip(&costs) {
                    if *cost < local_cost {
                        history.push(format!(
                            "{:?} round {round}: {} -> {} ({:.4}s -> {:.4}s)",
                            local.strategy,
                            k.name(),
                            knob_value(c, k),
                            local_cost,
                            cost
                        ));
                        local = *c;
                        local_cost = *cost;
                        improved = true;
                    }
                }
            }
            if local_cost < best_cost {
                cur = local;
                best_cost = local_cost;
            }
            if !improved {
                break;
            }
        }
        if local_cost < best_cost {
            cur = local;
            best_cost = local_cost;
        }
    }

    // Seeded local refinement: random 1–2 knob perturbations, batched.
    let mut rng = Rng::new(cfg.seed);
    let movable: Vec<Knob> = ALL_KNOBS
        .iter()
        .copied()
        .filter(|&k| space.axis_len(k) > 1)
        .collect();
    let mut remaining = cfg.local_steps;
    while remaining > 0 && !movable.is_empty() && budget_left(oracle.evals()) {
        let chunk = remaining.min(8);
        remaining -= chunk;
        let mut batch = Vec::with_capacity(chunk);
        for _ in 0..chunk {
            let mut c = cur;
            for _ in 0..1 + rng.below(2) {
                let k = movable[rng.below(movable.len())];
                c = space.with_axis(&c, k, rng.below(space.axis_len(k)));
            }
            if c == cur {
                continue;
            }
            if best_cost.is_finite() && bound.point_bound(&c) >= best_cost {
                pruned += 1;
                continue;
            }
            batch.push(c);
        }
        if batch.is_empty() {
            continue;
        }
        let costs = oracle.cost_batch(&batch);
        for (c, cost) in batch.iter().zip(&costs) {
            if *cost < best_cost {
                history.push(format!("local: improved to {cost:.4}s"));
                cur = *c;
                best_cost = *cost;
            }
        }
    }

    telemetry::add_tune_pruned(pruned);
    Ok(SearchOutcome {
        best: cur,
        cost: best_cost,
        evals: oracle.evals() - evals_before,
        memo_hits: oracle.memo_hits() - hits_before,
        pruned,
        history,
    })
}

/// Exhaustively cost the whole cross product; the quality baseline the
/// solver is measured against. Returns the winner and its cost.
pub fn exhaustive(oracle: &MachineOracle, space: &Space) -> Result<SearchOutcome, String> {
    space.validate()?;
    let evals_before = oracle.evals();
    let hits_before = oracle.memo_hits();
    let all = space.enumerate();
    let costs = oracle.cost_batch(&all);
    let (i, cost) = costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .ok_or("empty space")?;
    Ok(SearchOutcome {
        best: all[i],
        cost: *cost,
        evals: oracle.evals() - evals_before,
        memo_hits: oracle.memo_hits() - hits_before,
        pruned: 0,
        history: vec![format!("exhaustive over {} points", all.len())],
    })
}

/// Render one knob of a candidate for history lines.
fn knob_value(c: &Candidate, k: Knob) -> String {
    match k {
        Knob::Strategy => format!("{:?}", c.strategy),
        Knob::Nf => c.nf.to_string(),
        Knob::PipelineDepth => c.pipeline_depth.to_string(),
        Knob::WriterBuffer => c.writer_buffer.to_string(),
        Knob::CbBuffer => c.cb_buffer.to_string(),
        Knob::CoalesceFields => c.coalesce_fields.to_string(),
        Knob::TierDrainBw => format!("{:?}", c.tier_drain_bw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Env;
    use crate::space::StrategyKind;

    /// A small space over nf and writer_buffer only (np=256 keeps each
    /// simulation cheap in debug builds).
    fn small_space() -> Space {
        let mut s = Space::intrepid(256);
        s.strategies = vec![StrategyKind::RbIo];
        s.pipeline_depth = vec![1];
        s.cb_buffer = vec![16 << 20];
        s.coalesce_fields = vec![false];
        s
    }

    #[test]
    fn search_matches_exhaustive_winner_quality() {
        let space = small_space();
        let o1 = MachineOracle::new(Env::intrepid(256)).unwrap();
        let found = search(&o1, &space, &SearchConfig::default()).unwrap();
        let o2 = MachineOracle::new(Env::intrepid(256)).unwrap();
        let full = exhaustive(&o2, &space).unwrap();
        assert_eq!(found.cost, full.cost, "history: {:?}", found.history);
        assert!(found.evals <= full.evals);
    }

    #[test]
    fn search_is_deterministic() {
        let space = small_space();
        let run = || {
            let o = MachineOracle::new(Env::intrepid(256)).unwrap();
            search(&o, &space, &SearchConfig::default()).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best, b.best);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn eval_budget_is_respected() {
        let space = small_space();
        let o = MachineOracle::new(Env::intrepid(256)).unwrap();
        let cfg = SearchConfig {
            max_evals: Some(3),
            ..SearchConfig::default()
        };
        let out = search(&o, &space, &cfg).unwrap();
        // The cap gates batches, so a batch may finish in flight; it is
        // bounded by cap + the largest axis.
        assert!(out.evals <= 3 + space.nf.len() as u64 + 8);
        assert!(out.cost.is_finite());
    }

    #[test]
    fn rejects_invalid_space() {
        let mut s = small_space();
        s.nf.clear();
        let o = MachineOracle::new(Env::intrepid(256)).unwrap();
        assert!(search(&o, &s, &SearchConfig::default()).is_err());
        assert!(exhaustive(&o, &s).is_err());
    }
}
