// Out-of-core sharding contract (sim/shard_engine): the sharded engine must
// return bit-identical results to the in-memory batch engine for every shard
// count, memory budget, epoch quantum, and eviction schedule — and a corrupt
// or truncated spill file must cost exactly one shard a recompute, never its
// neighbors and never the result. These tests are the determinism and
// durability contract of DESIGN.md §"Out-of-core sharding".

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/rng_stream.h"
#include "src/rng/splitmix64.h"
#include "src/sim/checkpoint.h"
#include "src/sim/fault.h"
#include "src/sim/shard_engine.h"
#include "src/sim/trial.h"
#include "src/sim/walk_engine.h"

namespace levy::sim {
namespace {

namespace fs = std::filesystem;

/// Fresh spill directory per fixture; removed on teardown so runs never see
/// a previous test's shard files.
class ShardEngineTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() / "levy_shard_engine_test";
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override {
        clear_fault_plan();
        fs::remove_all(dir_);
    }

    [[nodiscard]] shard_options with_spill_dir(shard_options opts) const {
        opts.spill_dir = dir_.string();
        return opts;
    }

    fs::path dir_;
};

void expect_sharded_parity(sharded_walk_engine& engine, std::size_t k,
                           const exponent_strategy& strategy, point target,
                           std::uint64_t budget, rng stream, std::uint64_t cap,
                           const shard_options& opts) {
    walk_engine reference;
    const parallel_result base = reference.run_parallel(k, strategy, target, budget, stream, cap);
    const parallel_result sharded =
        engine.run_parallel(k, strategy, target, budget, stream, cap, opts);
    EXPECT_EQ(base.hit, sharded.hit)
        << "k=" << k << " shards=" << opts.shards << " budget=" << opts.memory_budget;
    EXPECT_EQ(base.time, sharded.time)
        << "k=" << k << " shards=" << opts.shards << " budget=" << opts.memory_budget;
    EXPECT_EQ(base.winner, sharded.winner)
        << "k=" << k << " shards=" << opts.shards << " budget=" << opts.memory_budget;
    if (base.hit) {
        // Bit-exact replay of the winning exponent, not merely approximate.
        EXPECT_EQ(base.winner_alpha, sharded.winner_alpha);
    } else {
        EXPECT_TRUE(std::isnan(sharded.winner_alpha));
    }
}

TEST_F(ShardEngineTest, ParityAcrossShardCounts) {
    sharded_walk_engine engine;
    for (const std::size_t shards : {1, 3, 16}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            shard_options opts = with_spill_dir({});
            opts.shards = shards;
            opts.sync_rounds = 0;  // parity, not durability: skip round syncs
            expect_sharded_parity(engine, 24, fixed_exponent(2.4), point{12, 3}, 900,
                                  rng::seeded(seed * 131), kNoCap, opts);
        }
    }
}

TEST_F(ShardEngineTest, ParityRandomizedAndRoundRobinStrategies) {
    // Strategies that draw from the walker stream shift every subsequent
    // draw; parity proves the sharded spawn consumes streams identically.
    sharded_walk_engine engine;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        shard_options opts = with_spill_dir({});
        opts.sync_rounds = 0;  // parity, not durability: skip round syncs
        opts.shards = 3;
        expect_sharded_parity(engine, 16, uniform_exponent(), point{10, -10}, 800,
                              rng::seeded(seed * 193 + 5), kNoCap, opts);
        opts.shards = 5;
        expect_sharded_parity(engine, 16, round_robin_exponent(), point{-8, 6}, 800,
                              rng::seeded(seed * 389 + 1), 128, opts);
    }
}

TEST_F(ShardEngineTest, ParityWithScalarAtTheTieBoundary) {
    // Targets one to three steps out: many walkers hit at the winning time,
    // so the smaller-id tie-break picks the winner, across shard borders
    // too. The reach bound must keep every walker that could still tie the
    // best time, which the scalar shrinking-budget loop decides directly.
    sharded_walk_engine engine;
    shard_options opts = with_spill_dir({});
    opts.shards = 4;
    opts.sync_rounds = 0;  // parity, not durability: skip round syncs
    for (const std::int64_t ell : {1, 2, 3}) {
        for (const std::size_t k : {64, 256, 1024}) {
            for (std::uint64_t seed = 1; seed <= 40; ++seed) {
                const rng stream = rng::seeded(seed * 1009 + k + ell);
                const parallel_result scalar =
                    parallel_hit(k, fixed_exponent(2.0), target_at(ell), 64, stream);
                const parallel_result sharded = engine.run_parallel(
                    k, fixed_exponent(2.0), target_at(ell), 64, stream, kNoCap, opts);
                EXPECT_EQ(scalar.hit, sharded.hit) << "ell=" << ell << " k=" << k;
                EXPECT_EQ(scalar.time, sharded.time) << "ell=" << ell << " k=" << k;
                EXPECT_EQ(scalar.winner, sharded.winner) << "ell=" << ell << " k=" << k;
                if (scalar.hit) {
                    EXPECT_EQ(scalar.winner_alpha, sharded.winner_alpha);
                }
            }
        }
    }
}

TEST_F(ShardEngineTest, ParityEdgeCases) {
    sharded_walk_engine engine;
    const rng stream = rng::seeded(99);
    shard_options opts = with_spill_dir({});
    opts.shards = 3;
    // k = 0: vacuous miss with time = budget.
    expect_sharded_parity(engine, 0, fixed_exponent(2.5), point{3, 3}, 50, stream, kNoCap,
                          opts);
    // Budget 0.
    expect_sharded_parity(engine, 4, fixed_exponent(2.5), point{3, 3}, 0, stream, kNoCap,
                          opts);
    // Target at the origin: winner must be walker 0 at time 0.
    expect_sharded_parity(engine, 4, fixed_exponent(2.5), origin, 50, stream, kNoCap, opts);
    // More shards than walkers: count clamps to one walker per shard.
    opts.shards = 64;
    expect_sharded_parity(engine, 5, fixed_exponent(2.2), point{4, 1}, 400, stream, kNoCap,
                          opts);
    // Stay-put-heavy fleets under tiny caps.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        opts.shards = 4;
        expect_sharded_parity(engine, 8, fixed_exponent(2.1), point{2, 0}, 300,
                              rng::seeded(seed), 1, opts);
    }
}

TEST_F(ShardEngineTest, ParityUnderMemoryBudgetAndEpochQuantum) {
    // A byte budget alone must derive a shard count; combined with a small
    // epoch quantum it forces every suspension + eviction + reload path.
    sharded_walk_engine engine;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const std::uint64_t quantum : {0ULL, 1ULL, 7ULL}) {
            shard_options opts = with_spill_dir({});
            opts.shards = 1;  // the budget, not the caller, sets the count
            opts.memory_budget = 4 * walker_block::kBytesPerWalker;
            opts.epoch_steps = quantum;
            expect_sharded_parity(engine, 12, uniform_exponent(), point{11, -2}, 600,
                                  rng::seeded(seed * 7919), kNoCap, opts);
        }
    }
}

TEST_F(ShardEngineTest, StatsAccountForSpillsAndLoads) {
    sharded_walk_engine engine;
    shard_options opts = with_spill_dir({});
    opts.shards = 4;
    opts.memory_budget = 2 * walker_block::kBytesPerWalker;  // at most 2 resident walkers
    // A target within reach that no walker of this seed hits: walkers keep
    // walking (the reach bound retires one only once the target is out of
    // reach), so shards outlive their first residency and come back.
    const parallel_result r = engine.run_parallel(8, fixed_exponent(2.5), point{32, 0}, 64,
                                                  rng::seeded(7), kNoCap, opts);
    EXPECT_FALSE(r.hit);
    const shard_run_stats& stats = engine.last_stats();
    EXPECT_GT(stats.rounds, 1u);
    EXPECT_GT(stats.spills, 0u);
    EXPECT_GT(stats.spilled_bytes, 0u);
    EXPECT_GT(stats.loads, 0u);  // evicted shards came back from disk
    EXPECT_EQ(stats.recomputed, 0u);
    EXPECT_EQ(stats.resumed, 0u);
    EXPECT_LE(stats.peak_resident_bytes, opts.memory_budget);
    EXPECT_LE(stats.peak_resident_walkers, 2u);
    EXPECT_GE(stats.peak_resident_walkers, 2u);
    // Clean completion removes the trial's spill files.
    EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(ShardEngineTest, TrialDispatchRoutesShardedConfigs) {
    // parallel_walk_trial must route a sharded config through the sharded
    // engine and still agree bit-for-bit with the default in-memory path,
    // including watchdog censoring.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        parallel_walk_config p;
        p.k = 6;
        p.strategy = uniform_exponent();
        p.ell = 8;
        p.budget = 500;
        p.max_steps = 200;  // watchdog truncates: censoring must agree too
        const parallel_result base = parallel_walk_trial(p, rng::seeded(seed + 2000));
        p.shards = 3;
        p.spill_dir = dir_.string();
        const parallel_result sharded = parallel_walk_trial(p, rng::seeded(seed + 2000));
        EXPECT_EQ(base.hit, sharded.hit);
        EXPECT_EQ(base.time, sharded.time);
        EXPECT_EQ(base.winner, sharded.winner);
        EXPECT_EQ(base.censored, sharded.censored);
    }
}

TEST_F(ShardEngineTest, PooledEngineIsReusableAcrossConfigs) {
    // The pooled thread-local engine must give the same answers as a fresh
    // instance even when runs alternate caps and shard counts (cache churn).
    // Under a memory budget that forces evictions and reloads it must also
    // keep the fresh engine's IO schedule: its shards borrow walker blocks
    // warm from earlier runs, and which block a shard gets must not move a
    // spill or a load.
    sharded_walk_engine& pooled = sharded_walk_engine::local();
    std::uint64_t loads = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (const std::uint64_t cap : {kNoCap, std::uint64_t{16}}) {
            for (const std::uint64_t memory_budget :
                 {std::uint64_t{0}, std::uint64_t{3 * walker_block::kBytesPerWalker}}) {
                sharded_walk_engine fresh;
                shard_options opts = with_spill_dir({});
                opts.shards = 1 + seed % 4;
                opts.memory_budget = memory_budget;
                const rng stream = rng::seeded(seed * 37 + cap % 97);
                const parallel_result a = fresh.run_parallel(9, fixed_exponent(2.6), point{4, 4},
                                                             300, stream, cap, opts);
                const parallel_result b = pooled.run_parallel(9, fixed_exponent(2.6),
                                                              point{4, 4}, 300, stream, cap, opts);
                EXPECT_EQ(a.hit, b.hit);
                EXPECT_EQ(a.time, b.time);
                EXPECT_EQ(a.winner, b.winner);
                // Field by field: rounds, spills, spilled bytes, loads,
                // recomputes, peak resident walkers, peak resident bytes.
                const auto schedule = [](const shard_run_stats& st) {
                    return std::array{st.rounds,     st.spills,     st.spilled_bytes,
                                      st.loads,      st.recomputed, st.peak_resident_walkers,
                                      st.peak_resident_bytes};
                };
                EXPECT_EQ(schedule(fresh.last_stats()), schedule(pooled.last_stats()))
                    << "seed=" << seed << " cap=" << cap << " budget=" << memory_budget;
                loads += pooled.last_stats().loads;
            }
        }
    }
    EXPECT_GT(loads, 0u);  // the budget really sent shards to disk and back
}

/// --- walker_block spill-format round trip --------------------------------

TEST(WalkerBlockSerialize, RoundTripIsBitExactMidPhase) {
    // Serialize a block suspended mid-phase (quantum 1 guarantees phase
    // residue), restore into a fresh block + cache, and re-serialize: the
    // bytes must match exactly, and both blocks must finish identically.
    dist_cache dists;
    dists.reset(kNoCap);
    walker_block block;
    const rng trial = rng::seeded(4242);
    for (std::size_t i = 0; i < 6; ++i) {
        rng stream = trial.substream(i);
        const double alpha = uniform_exponent()(i, stream);
        block.spawn(i, alpha, stream, dists);
    }
    const engine_options quantum1{.epoch_steps = 1};
    const point target{50, -3};
    best_state best;
    for (int e = 0; e < 5; ++e) block.epoch(quantum1, dists, target, 400, best);
    ASSERT_GT(block.live(), 0u);

    std::vector<char> bytes;
    block.serialize(dists, bytes);
    ASSERT_EQ(bytes.size(), block.live() * walker_block::kBytesPerWalker);

    dist_cache dists2;
    dists2.reset(kNoCap);
    walker_block restored;
    ASSERT_TRUE(restored.deserialize(bytes.data(), block.live(), dists2));
    EXPECT_EQ(restored.live(), block.live());
    std::vector<char> bytes2;
    restored.serialize(dists2, bytes2);
    EXPECT_EQ(bytes, bytes2);

    // Drive both to retirement from the restored point: identical lex-min.
    best_state best2 = best;
    while (block.live() > 0) block.epoch(quantum1, dists, target, 400, best);
    while (restored.live() > 0) restored.epoch(quantum1, dists2, target, 400, best2);
    EXPECT_EQ(best.hit, best2.hit);
    EXPECT_EQ(best.time, best2.time);
    EXPECT_EQ(best.winner, best2.winner);
}

/// --- spill record layout, pinned independently of walker_block ------------
///
/// One spill record, field by field, in file order. The encoder and decoder
/// below are this test's own bytewise little-endian codec, so a change to
/// walker_block's layout or word encoding shows as a byte diff here: files
/// written before and after a codec change must stay interchangeable.
struct walker_record {
    std::uint64_t id = 0;
    std::uint64_t alpha_bits = 0;
    rng::state main;
    std::int64_t x = 0, y = 0;
    std::uint64_t elapsed = 0, phase = 0;
    std::int64_t dx = 0, dy = 0;
    std::uint64_t j = 0;
};

void put_word(std::vector<char>& out, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

std::uint64_t get_word(const char* p) {
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b) v = (v << 8) | static_cast<unsigned char>(p[b]);
    return v;
}

void put_rng(std::vector<char>& out, const rng::state& st) {
    put_word(out, st.seed);
    for (const std::uint64_t w : st.engine) put_word(out, w);
}

std::vector<char> encode_records(const std::vector<walker_record>& records) {
    std::vector<char> out;
    for (const walker_record& r : records) {
        put_word(out, r.id);
        put_word(out, r.alpha_bits);
        put_rng(out, r.main);
        for (const std::int64_t v : {r.x, r.y}) put_word(out, static_cast<std::uint64_t>(v));
        for (const std::uint64_t v : {r.elapsed, r.phase}) put_word(out, v);
        for (const std::int64_t v : {r.dx, r.dy}) put_word(out, static_cast<std::uint64_t>(v));
        put_word(out, r.j);
    }
    return out;
}

walker_record decode_record(const char* p) {
    const auto word = [p](std::size_t field) { return get_word(p + 8 * field); };
    const auto sword = [&word](std::size_t field) {
        return static_cast<std::int64_t>(word(field));
    };
    walker_record r;
    r.id = word(0);
    r.alpha_bits = word(1);
    r.main.seed = word(2);
    for (std::size_t i = 0; i < 4; ++i) r.main.engine[i] = word(3 + i);
    r.x = sword(7);
    r.y = sword(8);
    r.elapsed = word(9);
    r.phase = word(10);
    r.dx = sword(11);
    r.dy = sword(12);
    r.j = word(13);
    return r;
}

TEST(WalkerBlockSerialize, RejectsStructurallyInvalidRecords) {
    // A mid-phase record, valid by construction: a (5, -3) phase, 3 steps
    // in.
    const rng stream = rng::seeded(11).substream(0);
    walker_record good;
    good.alpha_bits = std::bit_cast<std::uint64_t>(2.5);
    good.main = stream.save();
    good.x = 4;
    good.y = -1;
    good.elapsed = 9;
    good.phase = 2;
    good.dx = 5;
    good.dy = -3;
    good.j = 3;

    const auto restores = [](const walker_record& r) {
        const std::vector<char> bytes = encode_records({r});
        EXPECT_EQ(bytes.size(), walker_block::kBytesPerWalker);
        walker_block block;
        dist_cache dists;
        dists.reset(kNoCap);
        const bool ok = block.deserialize(bytes.data(), 1, dists);
        EXPECT_EQ(block.live(), ok ? 1u : 0u);  // a rejected record leaves none
        return ok;
    };
    const auto with = [&good](auto mutate) {
        walker_record r = good;
        mutate(r);
        return r;
    };
    EXPECT_TRUE(restores(good));
    // Each case breaks exactly one clause.
    EXPECT_FALSE(restores(with([](walker_record& r) { r.alpha_bits = 0; })))
        << "alpha bits 0: alpha must exceed 1";
    EXPECT_FALSE(restores(with([](walker_record& r) {
        r.alpha_bits = std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
    }))) << "alpha must be finite";
    EXPECT_FALSE(restores(with([](walker_record& r) { r.x = INT64_MIN + 1; })))
        << "|x| must stay below 2^62";
    EXPECT_FALSE(restores(with([](walker_record& r) { r.dx = INT64_MIN; })))
        << "|dx| must stay below 2^62";
    EXPECT_FALSE(restores(with([](walker_record& r) { r.dy = std::int64_t{1} << 62; })))
        << "|dy| must stay below 2^62";
    EXPECT_FALSE(restores(with([](walker_record& r) { r.phase = 0; })))
        << "a phase in progress has phase > 0";
    EXPECT_FALSE(restores(with([](walker_record& r) { r.j = 8; }))) << "j >= |dx| + |dy|";
    EXPECT_FALSE(restores(with([](walker_record& r) {
        r.dx = r.dy = 0;
        r.y = std::int64_t{1} << 62;
    }))) << "|y| must stay below 2^62 between phases too";

    // Between phases (dx = dy = 0) the residue is never read, so it is not
    // checked. Mid-phase, any step before the last is a valid place to
    // stop: the phase's tie coins are re-derived from the main stream's
    // seed and the phase count, so no coin state has to agree with j.
    EXPECT_TRUE(restores(with([](walker_record& r) {
        r.dx = r.dy = 0;
        r.phase = 0;
        r.j = 99;
    })));
    EXPECT_TRUE(restores(with([](walker_record& r) { r.j = 7; })));
}

TEST(WalkerBlockSerialize, SpillLayoutMatchesPerFieldEncoder) {
    const rng trial = rng::seeded(20211);
    const exponent_strategy strategy = uniform_exponent(1.5, 2.5);
    // Close and off-diagonal: some phases carry a candidate step through a
    // lopsided bounding box.
    const point target{4, -1};
    dist_cache dists;
    dists.reset(kNoCap);
    walker_block block;
    std::vector<walker_record> spawned;
    for (std::size_t i = 0; i < 64; ++i) {
        rng stream = trial.substream(i);
        const double alpha = strategy(i, stream);
        block.spawn(i, alpha, stream, dists);
        walker_record r;  // every field of a fresh walker is known up front
        r.id = i;
        r.alpha_bits = std::bit_cast<std::uint64_t>(alpha);
        r.main = stream.save();
        spawned.push_back(r);
    }
    std::vector<char> bytes;
    block.serialize(dists, bytes);
    ASSERT_EQ(bytes, encode_records(spawned));

    // Mid-phase: three quantum-1 epochs advance every live walker exactly
    // three steps and leave phase residue. Decode every record at this
    // test's offsets, check each field against what it must mean, then
    // require the per-field re-encoding to be the serialized bytes.
    constexpr std::uint64_t kEpochs = 3;
    best_state best;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
        block.epoch(engine_options{.epoch_steps = 1}, dists, target, 500, best);
    }
    ASSERT_GT(block.live(), 0u);
    bytes.clear();
    block.serialize(dists, bytes);
    ASSERT_EQ(bytes.size(), block.live() * walker_block::kBytesPerWalker);
    std::vector<walker_record> records;
    std::size_t mid_phase = 0;
    std::size_t candidates = 0;
    for (std::size_t w = 0; w < block.live(); ++w) {
        const walker_record r = decode_record(bytes.data() + w * walker_block::kBytesPerWalker);
        ASSERT_LT(r.id, spawned.size());
        EXPECT_EQ(r.alpha_bits, spawned[r.id].alpha_bits) << "walker " << r.id;
        EXPECT_EQ(r.main.seed, trial.substream(r.id).seed()) << "walker " << r.id;
        EXPECT_NE(r.main.engine, spawned[r.id].main.engine) << "walker " << r.id;
        EXPECT_EQ(r.elapsed, kEpochs) << "walker " << r.id;
        EXPECT_TRUE(r.phase >= 1 && r.phase <= kEpochs) << "walker " << r.id;
        if (r.dx != 0 || r.dy != 0) {
            ++mid_phase;
            const std::int64_t adx = std::abs(r.dx);
            const std::int64_t ady = std::abs(r.dy);
            const auto t = adx + ady;  // the phase length
            const auto j = static_cast<std::int64_t>(r.j);
            EXPECT_TRUE(j >= 1 && j < t) << "walker " << r.id;
            if (r.phase == 1) {
                EXPECT_EQ(r.j, kEpochs) << "walker " << r.id;
            }
            // The candidate step i*, derived from the target and the phase
            // start as the engine derives it. A walker suspended before it
            // stores nothing more than any other: its tie coins are drawn
            // from the phase start once a visit reaches i*.
            const std::int64_t tdx = r.dx < 0 ? r.x - target.x : target.x - r.x;
            const std::int64_t tdy = r.dy < 0 ? r.y - target.y : target.y - r.y;
            if (tdx >= 0 && tdx <= adx && tdy >= 0 && tdy <= ady && j < tdx + tdy) {
                ++candidates;
            }
        }
        records.push_back(r);
    }
    EXPECT_GT(mid_phase, 0u);
    EXPECT_GT(candidates, 0u);
    EXPECT_EQ(bytes, encode_records(records));
}

/// --- the version clause of the run identity -------------------------------
///
/// A spill file belongs to a run when its first eleven header words match:
/// magic, version, shard index and count, trial seed, k, cap, budget,
/// target, and the strategy fingerprint (a mix64 chain over the exponents
/// of the first 16 walkers). This test writes whole files itself, so one it
/// plants differs from the engine's own only where the test makes it.

std::uint64_t strategy_fingerprint(std::size_t k, const exponent_strategy& strategy,
                                   const rng& trial) {
    std::uint64_t fp = 0x5348415244ULL;
    for (std::size_t i = 0; i < std::min<std::size_t>(k, 16); ++i) {
        rng stream = trial.substream(i);
        fp = mix64(fp ^ std::bit_cast<std::uint64_t>(strategy(i, stream)), i + 1);
    }
    return fp;
}

TEST_F(ShardEngineTest, SpillOfAnotherVersionRecomputesItsShard) {
    const std::size_t k = 8;
    const exponent_strategy strategy = fixed_exponent(2.6);
    const point target{4, 4};
    const std::uint64_t budget = 300;
    const rng stream = rng::seeded(515);
    shard_options opts = with_spill_dir({});
    opts.shards = 2;  // shard 0 holds walkers 0..3
    opts.sync_rounds = 0;
    walk_engine reference;
    const parallel_result base =
        reference.run_parallel(k, strategy, target, budget, stream, kNoCap);
    ASSERT_TRUE(base.hit);

    // Shard 0's walkers as spawned, not yet advanced: the current layout,
    // and version 2's 20 words (a path stream after main, x-progress last;
    // version 2 spawned with substream(0) as the path placeholder).
    std::vector<walker_record> fresh;
    std::vector<char> v2_body;
    for (std::size_t i = 0; i < 4; ++i) {
        rng walker = stream.substream(i);
        walker_record r;
        r.id = i;
        r.alpha_bits = std::bit_cast<std::uint64_t>(strategy(i, walker));
        r.main = walker.save();
        fresh.push_back(r);
        put_word(v2_body, r.id);
        put_word(v2_body, r.alpha_bits);
        put_rng(v2_body, r.main);
        put_rng(v2_body, walker.substream(0).save());
        for (int field = 0; field < 7; ++field) put_word(v2_body, 0);  // x .. j
        put_word(v2_body, 0);                                           // px
    }
    ASSERT_EQ(v2_body.size(), 4 * 20 * 8u);

    const auto plant = [&](std::uint64_t version, std::uint64_t live,
                           const std::vector<char>& body, const best_state& local) {
        std::vector<char> file;
        for (const std::uint64_t word :
             {std::uint64_t{0x4c56595348415244ULL}, version, std::uint64_t{0},
              std::uint64_t{2}, stream.seed(), std::uint64_t{k}, kNoCap, budget,
              static_cast<std::uint64_t>(target.x), static_cast<std::uint64_t>(target.y),
              strategy_fingerprint(k, strategy, stream), live, std::uint64_t{0},
              std::uint64_t{local.hit}, local.time, std::uint64_t{local.winner}}) {
            put_word(file, word);
        }
        const auto put_crc = [&file](const char* data, std::size_t len) {
            const std::uint32_t crc = crc32(data, len);
            for (int b = 0; b < 4; ++b) file.push_back(static_cast<char>((crc >> (8 * b)) & 0xff));
        };
        put_crc(file.data(), 128);
        file.insert(file.end(), body.begin(), body.end());
        put_crc(file.data() + 132, body.size());
        char name[64];
        std::snprintf(name, sizeof(name), "shard-%016llx-0of2.lvyshard",
                      static_cast<unsigned long long>(stream.seed()));
        std::ofstream(dir_ / name, std::ios::binary).write(file.data(),
                                                           static_cast<std::streamsize>(file.size()));
    };
    sharded_walk_engine engine;
    const auto run = [&] {
        return engine.run_parallel(k, strategy, target, budget, stream, kNoCap, opts);
    };
    const auto expect_base = [&base](const parallel_result& r) {
        EXPECT_EQ(base.hit, r.hit);
        EXPECT_EQ(base.time, r.time);
        EXPECT_EQ(base.winner, r.winner);
        EXPECT_EQ(base.winner_alpha, r.winner_alpha);
    };
    // A best no walker scores: a finished shard's record that claims it
    // would make the run report it.
    const best_state bogus{.hit = true, .time = 1, .winner = 0};

    // Controls: in the current version both files are shard 0's own. The
    // spawned walkers resume and finish as the engine's would; the finished
    // record is trusted, bogus best and all.
    plant(3, 4, encode_records(fresh), {});
    expect_base(run());
    EXPECT_EQ(engine.last_stats().resumed, 1u);
    EXPECT_EQ(engine.last_stats().recomputed, 0u);
    plant(3, 0, {}, bogus);
    EXPECT_EQ(run().time, 1u);
    EXPECT_EQ(engine.last_stats().resumed, 1u);

    // The same files at version 2: shard 0 recomputes, and neither is read.
    // A finished record has no body, so only the version tells it apart.
    plant(2, 4, v2_body, {});
    expect_base(run());
    EXPECT_EQ(engine.last_stats().recomputed, 1u);
    EXPECT_EQ(engine.last_stats().resumed, 0u);
    plant(2, 0, {}, bogus);
    expect_base(run());
    EXPECT_EQ(engine.last_stats().recomputed, 1u);
    EXPECT_EQ(engine.last_stats().resumed, 0u);
}

/// --- spill-file corruption property tests --------------------------------
///
/// Configuration chosen so the fault ordinal and file size are exact:
/// k = 4 walkers in 4 single-walker shards under a 200-byte budget means
/// only one shard stays resident, so shard 0 is evicted (spill ordinal 1)
/// while shard 1 advances in round 1, and reloaded at the top of round 2.
/// A single-walker spill file is 132 (header) + 112 (record) + 4 (body crc)
/// = 248 bytes; the tests sweep every one of those byte offsets. No walker
/// of this seed reaches the target within the tiny budget, so every trial
/// is an all-miss (parity also covers the NaN winner_alpha path). Walker 0
/// steps to (−1, 0) and then stays put, so the target is still within reach
/// after round 1's two steps (3 steps away, 3 of a 5-step budget left): the
/// reach bound, strict at every phase boundary, keeps it, and the quantum-1
/// epochs carry shard 0 into round 2, where the corrupt file must be
/// detected.
struct corruption_config {
    std::size_t k = 4;
    point target{2, 0};
    std::uint64_t budget = 5;
    std::uint64_t cap = 8;
    rng stream = rng::seeded(60321);
};

constexpr std::size_t kOneWalkerSpillBytes = 132 + walker_block::kBytesPerWalker + 4;

shard_options corruption_options(const std::string& dir) {
    shard_options opts;
    opts.shards = 4;
    opts.memory_budget = 200;  // one resident walker (112 B) at a time
    opts.epoch_steps = 1;
    opts.spill_dir = dir;
    return opts;
}

TEST_F(ShardEngineTest, TornSpillByteAtEveryOffsetRecomputesOnlyThatShard) {
    const corruption_config cfg;
    walk_engine reference;
    const parallel_result base = reference.run_parallel(cfg.k, fixed_exponent(2.5), cfg.target,
                                                        cfg.budget, cfg.stream, cfg.cap);
    ASSERT_FALSE(base.hit);
    sharded_walk_engine engine;
    const shard_options opts = corruption_options(dir_.string());
    for (std::size_t offset = 0; offset < kOneWalkerSpillBytes; ++offset) {
        fault_plan plan;
        plan.torn_shard_spill = 1;  // shard 0's round-1 eviction
        plan.torn_shard_spill_offset = offset;
        install_fault_plan(plan);
        const parallel_result r = engine.run_parallel(cfg.k, fixed_exponent(2.5), cfg.target,
                                                      cfg.budget, cfg.stream, cfg.cap, opts);
        clear_fault_plan();
        ASSERT_EQ(base.hit, r.hit) << "offset=" << offset;
        ASSERT_EQ(base.time, r.time) << "offset=" << offset;
        ASSERT_EQ(base.winner, r.winner) << "offset=" << offset;
        ASSERT_TRUE(std::isnan(r.winner_alpha)) << "offset=" << offset;
        // Exactly the corrupted shard recomputes — never its neighbors.
        ASSERT_EQ(engine.last_stats().recomputed, 1u) << "offset=" << offset;
        ASSERT_EQ(engine.last_stats().resumed, 0u) << "offset=" << offset;
    }
}

TEST_F(ShardEngineTest, TruncatedSpillAtEveryLengthRecomputesOnlyThatShard) {
    const corruption_config cfg;
    walk_engine reference;
    const parallel_result base = reference.run_parallel(cfg.k, fixed_exponent(2.5), cfg.target,
                                                        cfg.budget, cfg.stream, cfg.cap);
    sharded_walk_engine engine;
    const shard_options opts = corruption_options(dir_.string());
    for (std::size_t length = 0; length < kOneWalkerSpillBytes; ++length) {
        fault_plan plan;
        plan.short_shard_spill = 1;  // shard 0's round-1 eviction
        plan.short_shard_spill_bytes = length;
        install_fault_plan(plan);
        const parallel_result r = engine.run_parallel(cfg.k, fixed_exponent(2.5), cfg.target,
                                                      cfg.budget, cfg.stream, cfg.cap, opts);
        clear_fault_plan();
        ASSERT_EQ(base.hit, r.hit) << "length=" << length;
        ASSERT_EQ(base.time, r.time) << "length=" << length;
        ASSERT_EQ(base.winner, r.winner) << "length=" << length;
        ASSERT_EQ(engine.last_stats().recomputed, 1u) << "length=" << length;
        ASSERT_EQ(engine.last_stats().resumed, 0u) << "length=" << length;
    }
}

TEST_F(ShardEngineTest, StaleSpillFromDifferentRunIsIgnoredWholesale) {
    // A shard file from a different run identity (here: different budget)
    // must be ignored and overwritten — recomputation is fine, wrong
    // results are not.
    const corruption_config cfg;
    sharded_walk_engine engine;
    const shard_options opts = corruption_options(dir_.string());
    const parallel_result first = engine.run_parallel(cfg.k, fixed_exponent(2.5), cfg.target,
                                                      cfg.budget, cfg.stream, cfg.cap, opts);
    // Plant garbage under the exact name the next run will probe
    // (shard-<hex16 seed>-<idx>of<count>; seed 60321 = 0xeba1).
    {
        std::ofstream out(dir_ / "shard-000000000000eba1-0of4.lvyshard", std::ios::binary);
        out << "not a shard file";
    }
    const parallel_result again = engine.run_parallel(cfg.k, fixed_exponent(2.5), cfg.target,
                                                      cfg.budget, cfg.stream, cfg.cap, opts);
    EXPECT_GT(engine.last_stats().loads, 0u);  // the other shards still reload
    EXPECT_EQ(first.hit, again.hit);
    EXPECT_EQ(first.time, again.time);
    EXPECT_EQ(first.winner, again.winner);
}

}  // namespace
}  // namespace levy::sim
