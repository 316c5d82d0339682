// Streaming-vs-batch parity: the batch engine (sim/walk_engine) must return
// bit-identical results to the scalar levy_walk loop for every config, seed,
// budget edge, and epoch quantum. These tests are the determinism contract
// of DESIGN.md §"Batched walk engine".

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/hitting.h"
#include "src/core/levy_walk.h"
#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/rng_stream.h"
#include "src/sim/trial.h"
#include "src/sim/walk_engine.h"

namespace levy::sim {
namespace {

hit_result scalar_single(double alpha, point target, std::uint64_t budget, rng stream,
                         std::uint64_t cap) {
    levy_walk walk(alpha, stream, origin, cap);
    return hit_within(walk, target, budget);
}

void expect_single_parity(walk_engine& engine, double alpha, point target,
                          std::uint64_t budget, rng stream, std::uint64_t cap) {
    const hit_result scalar = scalar_single(alpha, target, budget, stream, cap);
    const hit_result batch = engine.run_single(alpha, target, budget, stream, cap);
    EXPECT_EQ(scalar, batch) << "alpha=" << alpha << " target=(" << target.x << ","
                             << target.y << ") budget=" << budget << " cap=" << cap
                             << " seed=" << stream.seed();
}

void expect_parallel_parity(walk_engine& engine, std::size_t k,
                            const exponent_strategy& strategy, point target,
                            std::uint64_t budget, rng stream, std::uint64_t cap) {
    const parallel_result scalar = parallel_hit(k, strategy, target, budget, stream, cap);
    const parallel_result batch = engine.run_parallel(k, strategy, target, budget, stream, cap);
    EXPECT_EQ(scalar.hit, batch.hit) << "k=" << k << " budget=" << budget;
    EXPECT_EQ(scalar.time, batch.time) << "k=" << k << " budget=" << budget;
    EXPECT_EQ(scalar.winner, batch.winner) << "k=" << k << " budget=" << budget;
    if (scalar.hit) {
        // Bit-exact replay of the winning exponent, not merely approximate.
        EXPECT_EQ(scalar.winner_alpha, batch.winner_alpha);
    } else {
        EXPECT_TRUE(std::isnan(batch.winner_alpha));
    }
}

TEST(WalkEngineSingle, ParityAcrossSeedsAlphasAndBudgets) {
    walk_engine engine;
    const std::uint64_t caps[] = {kNoCap, 3, 64, 1024};
    const double alphas[] = {1.2, 2.05, 2.5, 2.97, 3.5};
    for (const double alpha : alphas) {
        for (const std::uint64_t cap : caps) {
            for (std::uint64_t seed = 1; seed <= 40; ++seed) {
                expect_single_parity(engine, alpha, point{9, -4}, 700,
                                     rng::seeded(seed * 977 + 13), cap);
            }
        }
    }
}

TEST(WalkEngineSingle, BudgetEdges) {
    walk_engine engine;
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        const rng stream = rng::seeded(seed);
        // Budget 0: no phase is ever begun; only the t=0 check runs.
        expect_single_parity(engine, 2.5, point{5, 5}, 0, stream, kNoCap);
        // Budget 1: at most one step.
        expect_single_parity(engine, 2.5, point{1, 0}, 1, stream, kNoCap);
        // Target at the start: hitting time 0 regardless of budget.
        expect_single_parity(engine, 2.5, origin, 0, stream, kNoCap);
        expect_single_parity(engine, 2.5, origin, 100, stream, kNoCap);
    }
}

TEST(WalkEngineSingle, StayPutHeavyCapParity) {
    // cap = 1 makes half of all phases d = 0 (stay-put) and the rest d = 1;
    // cap = 2 adds two-step phases. Exercises the "one step, one phase"
    // stay-put accounting in both engines, per the Def. 3.4 semantics.
    walk_engine engine;
    for (const std::uint64_t cap : {1ULL, 2ULL, 3ULL}) {
        for (std::uint64_t seed = 1; seed <= 60; ++seed) {
            expect_single_parity(engine, 2.2, point{2, 1}, 200, rng::seeded(seed * 31 + 7),
                                 cap);
        }
    }
}

TEST(WalkEngineSingle, StayPutPhaseCountsOneStepAndOnePhase) {
    // Direct scalar check of the Def. 3.4 stay-put accounting the parity
    // tests above rely on: a d=0 phase advances steps by 1 and phases by 1.
    rng stream = rng::seeded(404);
    levy_walk walk(2.5, stream, origin, /*cap=*/1);
    std::uint64_t stay_puts = 0;
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t phases_before = walk.phases();
        const std::uint64_t steps_before = walk.steps();
        const point before = walk.position();
        const point after = walk.step();
        EXPECT_EQ(walk.steps(), steps_before + 1);
        if (walk.current_jump_length() == 0) {
            ++stay_puts;
            EXPECT_EQ(after, before);
            EXPECT_EQ(walk.phases(), phases_before + 1);
            EXPECT_FALSE(walk.in_phase());
        }
    }
    // With cap=1, d=0 happens with probability 1/2 per phase.
    EXPECT_GT(stay_puts, 100u);
}

TEST(WalkEngineParallel, ParityFixedStrategy) {
    walk_engine engine;
    for (const std::size_t k : {1, 2, 7, 32}) {
        for (std::uint64_t seed = 1; seed <= 30; ++seed) {
            expect_parallel_parity(engine, k, fixed_exponent(2.4), point{12, 3}, 900,
                                   rng::seeded(seed * 131), kNoCap);
        }
    }
}

TEST(WalkEngineParallel, ParityRandomizedAndRoundRobinStrategies) {
    // Strategies that draw from the walker stream shift every subsequent
    // draw; parity proves the engine consumes the stream identically.
    walk_engine engine;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        expect_parallel_parity(engine, 16, uniform_exponent(), point{10, -10}, 800,
                               rng::seeded(seed * 193 + 5), kNoCap);
        expect_parallel_parity(engine, 16, round_robin_exponent(), point{-8, 6}, 800,
                               rng::seeded(seed * 389 + 1), 128);
    }
}

TEST(WalkEngineParallel, ParityEdgeCases) {
    walk_engine engine;
    const rng stream = rng::seeded(99);
    // k = 0: vacuous miss with time = budget.
    expect_parallel_parity(engine, 0, fixed_exponent(2.5), point{3, 3}, 50, stream, kNoCap);
    // Budget 0.
    expect_parallel_parity(engine, 4, fixed_exponent(2.5), point{3, 3}, 0, stream, kNoCap);
    // Target at the origin: winner must be walker 0 at time 0.
    expect_parallel_parity(engine, 4, fixed_exponent(2.5), origin, 50, stream, kNoCap);
    // Tiny caps: stay-put-heavy fleets.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        expect_parallel_parity(engine, 8, fixed_exponent(2.1), point{2, 0}, 300,
                               rng::seeded(seed), 1);
        expect_parallel_parity(engine, 8, fixed_exponent(2.1), point{2, 0}, 300,
                               rng::seeded(seed), 2);
    }
}

TEST(WalkEngineParallel, ParityAtTheTieBoundary) {
    // Targets one to three steps out: many walkers hit at the winning time,
    // so the smaller-id tie-break picks the winner. The reach bound must
    // keep every walker that could still tie the best time; one that also
    // retired those walkers would lose the ties a smaller id should win.
    walk_engine engine;
    for (const std::int64_t ell : {1, 2, 3}) {
        for (const std::size_t k : {64, 256, 1024}) {
            for (std::uint64_t seed = 1; seed <= 40; ++seed) {
                expect_parallel_parity(engine, k, fixed_exponent(2.0), target_at(ell), 64,
                                       rng::seeded(seed * 1009 + k + ell), kNoCap);
            }
        }
    }
}

TEST(WalkerBlockSpawn, SpawnUnderAKnownHitStoresOnlySurvivors) {
    // Spawning is a walker's first visit. Under a best that already holds a
    // hit, a walker whose first phase carries it out of reach of that time
    // is never stored — and the block still drives to the lex-min that a
    // spawn with no hit known reaches, which is scalar parallel_hit's. The
    // upper half of the walkers finds the first hit; the lower half then
    // beats it. With seed 6 a smaller id ties its time 4 (= ℓ, so only
    // walkers stepping straight at the target are kept); with seed 7 a
    // walker beats its time 5 outright.
    const std::size_t k = 256;
    const exponent_strategy strategy = fixed_exponent(2.0);
    const point target = target_at(4);
    const std::uint64_t budget = 400;
    const engine_options opts{};
    for (const std::uint64_t seed : {6, 7}) {
        const rng stream = rng::seeded(seed);
        const parallel_result scalar = parallel_hit(k, strategy, target, budget, stream);
        ASSERT_TRUE(scalar.hit);
        ASSERT_LT(scalar.winner, k / 2) << "seed=" << seed;

        dist_cache dists;
        dists.reset(kNoCap);
        const auto drive = [&](walker_block& block, best_state& best) {
            while (block.live() > 0) block.epoch(opts, dists, target, budget, best);
        };
        walker_block upper;
        best_state known;
        upper.spawn_range(k / 2, k, strategy, stream, dists, opts, target, budget, known);
        drive(upper, known);
        ASSERT_TRUE(known.hit);

        // The lower half, spawned under that hit and under none.
        walker_block pruned;
        best_state with_hit = known;
        pruned.spawn_range(0, k / 2, strategy, stream, dists, opts, target, budget, with_hit);
        walker_block unpruned;
        best_state without_hit;
        unpruned.spawn_range(0, k / 2, strategy, stream, dists, opts, target, budget,
                             without_hit);
        EXPECT_LT(pruned.live(), k / 2) << "seed=" << seed;
        EXPECT_LT(pruned.live(), unpruned.live()) << "seed=" << seed;

        drive(pruned, with_hit);
        drive(unpruned, without_hit);
        without_hit.merge(known);
        EXPECT_EQ(with_hit.time, without_hit.time) << "seed=" << seed;
        EXPECT_EQ(with_hit.winner, without_hit.winner) << "seed=" << seed;
        EXPECT_EQ(with_hit.time, scalar.time) << "seed=" << seed;
        EXPECT_EQ(with_hit.winner, scalar.winner) << "seed=" << seed;
    }
}

TEST(WalkEngineParallel, ResultsInvariantUnderEpochQuantum) {
    // Retirement/compaction order varies wildly with the epoch quantum
    // (quantum 1 suspends every walker each step; large quanta run whole
    // phases); results must not.
    const point target{11, -2};
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        const rng stream = rng::seeded(seed * 7919);
        walk_engine whole;  // default: full phase per epoch
        const parallel_result base =
            whole.run_parallel(12, uniform_exponent(), target, 600, stream, kNoCap);
        for (const std::uint64_t quantum : {1ULL, 3ULL, 64ULL}) {
            walk_engine chunked(engine_options{.epoch_steps = quantum});
            const parallel_result r =
                chunked.run_parallel(12, uniform_exponent(), target, 600, stream, kNoCap);
            EXPECT_EQ(base.hit, r.hit) << "quantum=" << quantum;
            EXPECT_EQ(base.time, r.time) << "quantum=" << quantum;
            EXPECT_EQ(base.winner, r.winner) << "quantum=" << quantum;
        }
    }
}

TEST(WalkEngineSingle, ResultsInvariantUnderEpochQuantum) {
    for (std::uint64_t seed = 1; seed <= 15; ++seed) {
        const rng stream = rng::seeded(seed * 104729);
        walk_engine whole;
        const hit_result base = whole.run_single(2.3, point{7, 7}, 500, stream, 64);
        for (const std::uint64_t quantum : {1ULL, 3ULL, 64ULL}) {
            walk_engine chunked(engine_options{.epoch_steps = quantum});
            EXPECT_EQ(base, chunked.run_single(2.3, point{7, 7}, 500, stream, 64))
                << "quantum=" << quantum;
        }
    }
}

TEST(WalkEngineTrial, TrialDispatchAgreesBetweenEngines) {
    // The public trial API must give byte-identical outcomes for
    // --engine=scalar and --engine=batch, including watchdog censoring.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        single_walk_config s;
        s.alpha = 2.4;
        s.ell = 6;
        s.budget = 400;
        s.max_steps = 150;  // watchdog truncates: censoring must agree too
        s.engine = engine_kind::scalar;
        const hit_result rs = single_walk_trial(s, rng::seeded(seed));
        s.engine = engine_kind::batch;
        const hit_result rb = single_walk_trial(s, rng::seeded(seed));
        EXPECT_EQ(rs, rb);

        parallel_walk_config p;
        p.k = 6;
        p.strategy = uniform_exponent();
        p.ell = 8;
        p.budget = 500;
        p.max_steps = 200;
        p.engine = engine_kind::scalar;
        const parallel_result ps = parallel_walk_trial(p, rng::seeded(seed + 1000));
        p.engine = engine_kind::batch;
        const parallel_result pb = parallel_walk_trial(p, rng::seeded(seed + 1000));
        EXPECT_EQ(ps.hit, pb.hit);
        EXPECT_EQ(ps.time, pb.time);
        EXPECT_EQ(ps.winner, pb.winner);
        EXPECT_EQ(ps.censored, pb.censored);
    }
}

TEST(WalkEnginePool, LocalEngineIsReusableAcrossConfigs) {
    // The pooled thread-local engine must give the same answers as a fresh
    // instance even when runs alternate caps and alphas (cache churn).
    walk_engine& pooled = walk_engine::local();
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        for (const std::uint64_t cap : {kNoCap, std::uint64_t{16}, std::uint64_t{512}}) {
            walk_engine fresh;
            const rng stream = rng::seeded(seed * 37 + cap % 97);
            EXPECT_EQ(fresh.run_single(2.6, point{4, 4}, 300, stream, cap),
                      pooled.run_single(2.6, point{4, 4}, 300, stream, cap));
        }
    }
}

TEST(DistCache, IndicesKeepInsertionOrderAndHeadsNeedReuse) {
    dist_cache dists;
    dists.reset(kNoCap);
    // Thousands of distinct exponents, as a per-walker strategy spawns them:
    // indices are insertion order, lookups find them again, and an exponent
    // requested once keeps the head-less sampler.
    std::vector<double> alphas;
    rng g = rng::seeded(0xd157);
    for (int i = 0; i < 5000; ++i) alphas.push_back(g.uniform(2.0, 3.0));
    alphas.push_back(2.0);
    alphas.push_back(2.5);
    alphas.push_back(3.0);  // round exponents differ only in their top bits
    for (std::size_t i = 0; i < alphas.size(); ++i) {
        ASSERT_EQ(dists.index_for(alphas[i]), i);
    }
    ASSERT_EQ(dists.size(), alphas.size());
    for (std::size_t i = 0; i < alphas.size(); ++i) {
        EXPECT_EQ(dists.at(static_cast<std::uint32_t>(i)).alpha(), alphas[i]) << i;
        EXPECT_FALSE(dists.at(static_cast<std::uint32_t>(i)).has_head()) << i;
    }
    // A second spawn with the same exponent builds its head, and only its.
    EXPECT_EQ(dists.index_for(alphas[1234]), 1234u);
    EXPECT_TRUE(dists.at(1234).has_head());
    EXPECT_FALSE(dists.at(1233).has_head());
    EXPECT_FALSE(dists.at(1235).has_head());
    EXPECT_EQ(dists.size(), alphas.size());
    // Same cap, small enough: entries (and the head) survive a reset; an
    // overgrown cache is dropped and indices restart at 0.
    dists.reset(kNoCap);
    EXPECT_EQ(dists.index_for(alphas[0]), 0u);
    EXPECT_EQ(dists.size(), 1u);
}

TEST(DistCache, HeadFollowsReuseNotAliasPreparedCaps) {
    dist_cache dists;
    dists.reset(kNoCap);
    EXPECT_EQ(dists.index_for(2.5), 0u);
    EXPECT_FALSE(dists.at(0).has_head());
    EXPECT_EQ(dists.index_for(2.5), 0u);
    EXPECT_TRUE(dists.at(0).has_head());
    dists.reset(kNoCap);  // same cap, few entries: kept, head and all
    EXPECT_EQ(dists.index_for(2.5), 0u);
    EXPECT_TRUE(dists.at(0).has_head());
    // A cap the alias table serves never reaches the rejection loop.
    dists.reset(64);
    EXPECT_EQ(dists.size(), 0u);
    EXPECT_EQ(dists.index_for(2.5), 0u);
    EXPECT_EQ(dists.size(), 1u);  // the last hit was forgotten with its entry
    EXPECT_EQ(dists.index_for(2.5), 0u);
    EXPECT_FALSE(dists.at(0).has_head());
    // A cap above the alias threshold draws by rejection, so it gets one.
    dists.reset(jump_distribution::kAliasCapThreshold + 1);
    EXPECT_EQ(dists.index_for(2.5), 0u);
    EXPECT_EQ(dists.index_for(2.5), 0u);
    EXPECT_TRUE(dists.at(0).has_head());
}

TEST(WalkEngineParallel, ParityWithHeadBuiltByReuse) {
    // A pooled engine running many trials of one exponent builds the head
    // after its first request; every trial must still match the scalar walk,
    // which never builds one.
    walk_engine engine;
    for (const double alpha : {1.3, 2.0, 16.0 / 7.0, 2.8}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            expect_parallel_parity(engine, 12, fixed_exponent(alpha), point{9, -5}, 4000,
                                   rng::seeded(seed * 101), kNoCap);
            expect_parallel_parity(engine, 5, fixed_exponent(alpha), point{-6, 3}, 3000,
                                   rng::seeded(seed * 103), 8192);
        }
    }
}

}  // namespace
}  // namespace levy::sim
