//! End-to-end tuner validation: the solver must rediscover the paper's
//! published optima unaided, move to *different* optima when the
//! machine model changes, and do it at a small fraction of the
//! exhaustive sweep's evaluation count.

use rbio_tune::{exhaustive, search, Env, MachineOracle, SearchConfig, Space, StrategyKind};

/// The full nf axis with every satellite knob frozen, so test cost is
/// dominated by the axis the scenario is about.
fn nf_only_space(np: u32) -> Space {
    let mut s = Space::intrepid(np);
    s.pipeline_depth = vec![2];
    s.writer_buffer = vec![16 << 20];
    s.cb_buffer = vec![16 << 20];
    s.coalesce_fields = vec![false];
    s
}

/// Fig. 8's headline result, found by the solver with no hint: on the
/// calibrated Intrepid model at 16Ki ranks, the best plan is rbIO with
/// nf = ng = 1024. The search starts at the corner (1PFPP seed,
/// nf = 64) and must travel the whole valley.
#[test]
fn rediscovers_fig08_nf1024_on_intrepid() {
    let oracle = MachineOracle::new(Env::intrepid(16384)).unwrap();
    let space = nf_only_space(16384);
    let out = search(&oracle, &space, &SearchConfig::default()).unwrap();
    assert_eq!(
        (out.best.strategy, out.best.nf),
        (StrategyKind::RbIo, 1024),
        "history: {:?}",
        out.history
    );
    // The Fig. 8 extremes are dramatically worse than the valley.
    assert!(out.cost < 3.0, "valley cost {:.3}s", out.cost);
}

/// Change the machine (add a node-local staging tier) and the optimum
/// moves: perceived time no longer pays the per-client stream cap, so
/// fewer, larger files win — nf = 256, not 1024. The durable objective
/// moves it again (nf = 128, fastest drain rate).
#[test]
fn tier_machine_shifts_optimum_away_from_1024() {
    let mut space = nf_only_space(16384).with_tier_drain(&[1_500_000_000, 3_000_000_000]);
    space.strategies = vec![StrategyKind::RbIo];

    let oracle = MachineOracle::new(Env::tier(16384)).unwrap();
    let out = search(&oracle, &space, &SearchConfig::default()).unwrap();
    assert_eq!(out.best.nf, 256, "history: {:?}", out.history);

    let oracle = MachineOracle::new(Env::tier_durable(16384)).unwrap();
    let out = search(&oracle, &space, &SearchConfig::default()).unwrap();
    assert_eq!(out.best.nf, 128, "history: {:?}", out.history);
    assert_eq!(out.best.tier_drain_bw, Some(3_000_000_000));
}

/// A pipeline-focused space: nf frozen at the valley, the flush
/// pipeline's depth live.
fn pipeline_space(np: u32) -> Space {
    let mut s = Space::intrepid(np);
    s.strategies = vec![StrategyKind::RbIo];
    s.nf = vec![256];
    // Small commit buffer → many pipeline jobs, so overlap (and the
    // per-job flush-call cost) is actually exercised.
    s.writer_buffer = vec![1 << 20];
    s.cb_buffer = vec![16 << 20];
    s.coalesce_fields = vec![false];
    s
}

/// Change the machine's flush-call cost and the optimum moves again:
/// with Intrepid's µs-scale calls, pipelining the writer flush pays; on
/// the syscall-heavy CIOD variant (2 ms per call) every pipelined job
/// costs more than the overlap buys, so the tuner turns the pipeline
/// OFF — and a forced pipeline costs more than the serial path.
#[test]
fn syscall_cost_flips_pipeline_choice() {
    let space = pipeline_space(4096);

    let oracle = MachineOracle::new(Env::intrepid(4096)).unwrap();
    let out = search(&oracle, &space, &SearchConfig::default()).unwrap();
    assert!(out.best.pipeline_depth >= 2, "history: {:?}", out.history);

    let oracle = MachineOracle::new(Env::ciod(4096)).unwrap();
    let out = search(&oracle, &space, &SearchConfig::default()).unwrap();
    assert_eq!(out.best.pipeline_depth, 1, "history: {:?}", out.history);

    let mut forced = space.clone();
    forced.pipeline_depth = vec![2, 4];
    let forced = search(&oracle, &forced, &SearchConfig::default()).unwrap();
    assert!(
        forced.cost > out.cost,
        "forced depth {} costs {:.4}s, serial {:.4}s",
        forced.best.pipeline_depth,
        forced.cost,
        out.cost
    );
}

/// The solver's efficiency claim: over a multi-knob space it reaches
/// the exhaustive winner's quality with ≥5× fewer oracle evaluations,
/// proven by the per-oracle eval counters.
#[test]
fn solver_evaluates_5x_fewer_configs_than_exhaustive() {
    let mut space = Space::intrepid(4096);
    space.writer_buffer = vec![1 << 20, 4 << 20, 16 << 20, 64 << 20];
    // 3 strategies × 7 nf × 3 depth × 4 writer × 2 cb × 2 coalesce =
    // 1008 cross-product points.
    assert!(space.size() >= 1000);

    let o_search = MachineOracle::new(Env::intrepid(4096)).unwrap();
    let found = search(&o_search, &space, &SearchConfig::default()).unwrap();

    let o_full = MachineOracle::new(Env::intrepid(4096)).unwrap();
    let full = exhaustive(&o_full, &space).unwrap();

    assert_eq!(
        found.cost, full.cost,
        "solver winner {:?} vs exhaustive {:?}",
        found.best, full.best
    );
    assert!(
        found.evals * 5 <= full.evals,
        "solver used {} evals, exhaustive {} (needs >=5x)",
        found.evals,
        full.evals
    );
    // And the bound model did real work: some candidates were proven
    // hopeless without simulating them.
    assert!(found.pruned > 0);
}

/// Canonicalization claims certain knobs are cost-invariant; verify
/// against the actual simulator with *fresh* oracles (no shared memo),
/// so equality is a property of the machine model, not the cache.
#[test]
fn masked_knobs_are_truly_cost_invariant() {
    // 1PFPP ignores nf.
    let base = {
        let mut c = Space::intrepid(256).seed_candidate();
        c.strategy = StrategyKind::OnePfpp;
        c
    };
    let cost_of = |c| MachineOracle::new(Env::intrepid(256)).unwrap().cost(&c);
    let mut nf_flip = base;
    nf_flip.nf = 256;
    assert_eq!(cost_of(base), cost_of(nf_flip));

    // With a staging tier, pipeline depth does not matter.
    let tier_cost_of = |c| MachineOracle::new(Env::tier(256)).unwrap().cost(&c);
    let mut t = base;
    t.strategy = StrategyKind::RbIo;
    t.nf = 64;
    t.tier_drain_bw = Some(1_500_000_000);
    let mut t_flip = t;
    t_flip.pipeline_depth = 4;
    assert_eq!(tier_cost_of(t), tier_cost_of(t_flip));
}
