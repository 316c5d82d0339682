// Out-of-core sharding contract (sim/shard_engine): the sharded engine must
// return bit-identical results to the in-memory batch engine for every shard
// count, memory budget, epoch quantum, and eviction schedule — and a corrupt
// or truncated spill file must cost exactly one shard a recompute, never its
// neighbors and never the result. These tests are the determinism and
// durability contract of DESIGN.md §"Out-of-core sharding".

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/rng_stream.h"
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
    const parallel_result r = engine.run_parallel(8, fixed_exponent(2.5), point{200, 0}, 64,
                                                  rng::seeded(7), kNoCap, opts);
    EXPECT_FALSE(r.hit);
    const shard_run_stats& stats = engine.last_stats();
    EXPECT_GT(stats.rounds, 1u);
    EXPECT_GT(stats.spills, 0u);
    EXPECT_GT(stats.spilled_bytes, 0u);
    EXPECT_GT(stats.loads, 0u);  // evicted shards came back from disk
    EXPECT_EQ(stats.recomputed, 0u);
    EXPECT_EQ(stats.resumed, 0u);
    EXPECT_LE(stats.peak_resident_walkers, 8u);
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
    sharded_walk_engine& pooled = sharded_walk_engine::local();
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (const std::uint64_t cap : {kNoCap, std::uint64_t{16}}) {
            sharded_walk_engine fresh;
            shard_options opts = with_spill_dir({});
            opts.shards = 1 + seed % 4;
            const rng stream = rng::seeded(seed * 37 + cap % 97);
            const parallel_result a =
                fresh.run_parallel(9, fixed_exponent(2.6), point{4, 4}, 300, stream, cap, opts);
            const parallel_result b =
                pooled.run_parallel(9, fixed_exponent(2.6), point{4, 4}, 300, stream, cap, opts);
            EXPECT_EQ(a.hit, b.hit);
            EXPECT_EQ(a.time, b.time);
            EXPECT_EQ(a.winner, b.winner);
        }
    }
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

TEST(WalkerBlockSerialize, RejectsStructurallyInvalidRecords) {
    dist_cache dists;
    dists.reset(kNoCap);
    walker_block block;
    rng stream = rng::seeded(11).substream(0);
    const double alpha = fixed_exponent(2.5)(0, stream);
    block.spawn(0, alpha, stream, dists);
    best_state best;
    block.epoch(engine_options{.epoch_steps = 1}, dists, point{90, 0}, 100, best);
    ASSERT_EQ(block.live(), 1u);
    std::vector<char> good;
    block.serialize(dists, good);
    ASSERT_EQ(good.size(), walker_block::kBytesPerWalker);

    const auto rejects = [&](std::size_t offset, const char* what) {
        std::vector<char> bad = good;
        for (std::size_t b = 0; b < 8; ++b) bad[offset + b] = 0;  // field := 0
        walker_block scratch;
        dist_cache scratch_dists;
        scratch_dists.reset(kNoCap);
        EXPECT_FALSE(scratch.deserialize(bad.data(), 1, scratch_dists)) << what;
        EXPECT_EQ(scratch.live(), 0u) << what;
    };
    rejects(8, "alpha bits = 0 (alpha must exceed 1)");
    rejects(160, "sx = 0 (axis signs must be +/-1)");
    // A valid record still restores after the rejections above.
    walker_block scratch;
    EXPECT_TRUE(scratch.deserialize(good.data(), 1, dists));
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
    rng::state path;
    std::int64_t x = 0, y = 0;
    std::uint64_t elapsed = 0, phase = 0, total = 0, j = 0;
    std::int64_t adx = 0, ady = 0, sx = 0, sy = 0, px = 0, py = 0, destx = 0, desty = 0;
    std::uint64_t istar = 0;
    std::int64_t pxt = 0;
};

void put_word(std::vector<char>& out, std::uint64_t v) {
    for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
}

std::uint64_t get_word(const char* p) {
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b) v = (v << 8) | static_cast<unsigned char>(p[b]);
    return v;
}

std::vector<char> encode_records(const std::vector<walker_record>& records) {
    std::vector<char> out;
    const auto put_rng = [&out](const rng::state& st) {
        put_word(out, st.seed);
        for (const std::uint64_t w : st.engine) put_word(out, w);
    };
    for (const walker_record& r : records) {
        put_word(out, r.id);
        put_word(out, r.alpha_bits);
        put_rng(r.main);
        put_rng(r.path);
        for (const std::int64_t v : {r.x, r.y}) put_word(out, static_cast<std::uint64_t>(v));
        for (const std::uint64_t v : {r.elapsed, r.phase, r.total, r.j}) put_word(out, v);
        for (const std::int64_t v : {r.adx, r.ady, r.sx, r.sy, r.px, r.py, r.destx, r.desty}) {
            put_word(out, static_cast<std::uint64_t>(v));
        }
        put_word(out, r.istar);
        put_word(out, static_cast<std::uint64_t>(r.pxt));
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
    r.path.seed = word(7);
    for (std::size_t i = 0; i < 4; ++i) {
        r.main.engine[i] = word(3 + i);
        r.path.engine[i] = word(8 + i);
    }
    r.x = sword(12);
    r.y = sword(13);
    r.elapsed = word(14);
    r.phase = word(15);
    r.total = word(16);
    r.j = word(17);
    r.adx = sword(18);
    r.ady = sword(19);
    r.sx = sword(20);
    r.sy = sword(21);
    r.px = sword(22);
    r.py = sword(23);
    r.destx = sword(24);
    r.desty = sword(25);
    r.istar = word(26);
    r.pxt = sword(27);
    return r;
}

TEST(WalkerBlockSerialize, SpillLayoutMatchesPerFieldEncoder) {
    const rng trial = rng::seeded(20211);
    const exponent_strategy strategy = uniform_exponent(1.5, 2.5);
    // Close and off-diagonal: some phases carry a candidate step through a
    // lopsided bounding box, where x and y replay progress differ.
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
        r.path = stream.substream(0).save();
        r.sx = r.sy = 1;
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
        EXPECT_TRUE((r.sx == 1 || r.sx == -1) && (r.sy == 1 || r.sy == -1)) << "walker " << r.id;
        EXPECT_EQ(r.elapsed, kEpochs) << "walker " << r.id;
        EXPECT_TRUE(r.phase >= 1 && r.phase <= kEpochs) << "walker " << r.id;
        if (r.total != 0) {
            ++mid_phase;
            EXPECT_EQ(r.path.seed, rng::seeded(r.main.seed).substream(r.phase).seed());
            EXPECT_EQ(static_cast<std::uint64_t>(r.adx + r.ady), r.total);
            EXPECT_TRUE(r.j >= 1 && r.j < r.total) << "walker " << r.id;
            if (r.phase == 1) {
                EXPECT_EQ(r.j, kEpochs) << "walker " << r.id;
            }
            EXPECT_TRUE(r.px >= 0 && r.px <= r.adx && r.py >= 0 && r.py <= r.ady);
            EXPECT_EQ(r.destx, r.x + r.sx * r.adx);
            EXPECT_EQ(r.desty, r.y + r.sy * r.ady);
            if (r.istar != 0) {
                // A pending candidate replays every step: x and y progress
                // each stay within one step of the straight line.
                ++candidates;
                const auto t = static_cast<std::int64_t>(r.total);
                const auto j = static_cast<std::int64_t>(r.j);
                EXPECT_EQ(r.px + r.py, j);
                EXPECT_LT(std::abs(t * r.px - j * r.adx), t) << "walker " << r.id;
                EXPECT_LT(std::abs(t * r.py - j * r.ady), t) << "walker " << r.id;
                EXPECT_EQ(r.pxt, r.sx * (target.x - r.x));
                EXPECT_EQ(r.istar, static_cast<std::uint64_t>(r.pxt + r.sy * (target.y - r.y)));
            }
        }
        records.push_back(r);
    }
    EXPECT_GT(mid_phase, 0u);
    EXPECT_GT(candidates, 0u);
    EXPECT_EQ(bytes, encode_records(records));
}

/// --- spill-file corruption property tests --------------------------------
///
/// Configuration chosen so the fault ordinal and file size are exact:
/// k = 4 walkers in 4 single-walker shards under a 300-byte budget means
/// only one shard stays resident, so shard 0 is evicted (spill ordinal 1)
/// while shard 1 advances in round 1, and reloaded at the top of round 2.
/// A single-walker spill file is 132 (header) + 224 (record) + 4 (body crc)
/// = 360 bytes; the tests sweep every one of those byte offsets. The far
/// target with a tiny budget keeps every trial an all-miss (so parity also
/// covers the NaN winner_alpha path) and the quantum-1 epochs keep shard 0
/// alive into round 2, where the corrupt file must be detected.
struct corruption_config {
    std::size_t k = 4;
    point target{1000, 0};
    std::uint64_t budget = 2;
    std::uint64_t cap = 8;
    rng stream = rng::seeded(60321);
};

constexpr std::size_t kOneWalkerSpillBytes = 132 + walker_block::kBytesPerWalker + 4;

shard_options corruption_options(const std::string& dir) {
    shard_options opts;
    opts.shards = 4;
    opts.memory_budget = 300;  // one resident walker (224 B) at a time
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
    EXPECT_EQ(first.hit, again.hit);
    EXPECT_EQ(first.time, again.time);
    EXPECT_EQ(first.winner, again.winner);
}

}  // namespace
}  // namespace levy::sim
