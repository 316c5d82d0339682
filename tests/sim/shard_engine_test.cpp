// Out-of-core contract (sim/shard_engine.h): a trial run as a loop over
// walker-id blocks must return bit-identical results to the in-memory run
// for every block count, memory budget and epoch quantum — and a block
// journal that is corrupt, truncated or another run's must never change the
// result, only which blocks run again. These tests are the determinism and
// durability contract of DESIGN.md §11.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/rng_stream.h"
#include "src/sim/checkpoint.h"
#include "src/sim/shard_engine.h"
#include "src/sim/trial.h"
#include "src/sim/walk_engine.h"

namespace levy::sim {
namespace {

namespace fs = std::filesystem;

/// Fresh spill directory per fixture; removed on teardown so runs never see
/// a previous test's journals.
class ShardEngineTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() / "levy_shard_engine_test";
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

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
            opts.sync_rounds = 0;  // parity, not durability: no journal
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
        opts.sync_rounds = 0;  // parity, not durability: no journal
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
    // so the smaller-id tie-break picks the winner, across block borders
    // too. The reach bound must keep every walker that could still tie the
    // best time, which the scalar shrinking-budget loop decides directly.
    sharded_walk_engine engine;
    shard_options opts = with_spill_dir({});
    opts.shards = 4;
    opts.sync_rounds = 0;  // parity, not durability: no journal
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
    // More blocks than walkers: the count clamps to one walker per block.
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
    // A byte budget alone must derive a block count; combined with a small
    // epoch quantum it suspends phases midway inside every block.
    sharded_walk_engine engine;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const std::uint64_t quantum : {0ULL, 1ULL, 7ULL}) {
            shard_options opts = with_spill_dir({});
            opts.shards = 1;  // the budget, not the caller, sets the count
            opts.memory_budget = 4 * walker_block::kBytesPerWalker;
            opts.epoch_steps = quantum;
            expect_sharded_parity(engine, 12, uniform_exponent(), point{11, -2}, 600,
                                  rng::seeded(seed * 7919), kNoCap, opts);
            EXPECT_EQ(engine.last_stats().rounds, 3u);  // 12 walkers, 4 per block
            EXPECT_LE(engine.last_stats().peak_resident_bytes, opts.memory_budget);
        }
    }
}

TEST_F(ShardEngineTest, StatsAccountForBlocksAndJournalFlushes) {
    sharded_walk_engine engine;
    shard_options opts = with_spill_dir({});
    opts.shards = 4;
    opts.memory_budget = 2 * walker_block::kBytesPerWalker;  // at most 2 resident walkers
    // A target within reach that no walker of this seed hits: walkers keep
    // walking (the reach bound retires one only once the target is out of
    // reach), so every block stores walkers.
    const parallel_result r = engine.run_parallel(8, fixed_exponent(2.5), point{32, 0}, 64,
                                                  rng::seeded(7), kNoCap, opts);
    EXPECT_FALSE(r.hit);
    const shard_run_stats& stats = engine.last_stats();
    EXPECT_EQ(stats.rounds, 4u);  // 8 walkers, 2 per block
    // A flush after every block but the last: 92-byte header plus 36 bytes
    // (index, 24-byte best, CRC) per record, 1 + 2 + 3 records.
    EXPECT_EQ(stats.spills, 3u);
    EXPECT_EQ(stats.spilled_bytes, 3 * 92 + 6 * 36u);
    EXPECT_EQ(stats.loads, 0u);
    EXPECT_EQ(stats.recomputed, 0u);
    EXPECT_EQ(stats.resumed, 0u);
    EXPECT_LE(stats.peak_resident_bytes, opts.memory_budget);
    EXPECT_EQ(stats.peak_resident_walkers, 2u);
    EXPECT_EQ(stats.peak_resident_bytes, 2 * walker_block::kBytesPerWalker);
    // Clean completion removes the trial's journal.
    EXPECT_TRUE(fs::is_empty(dir_));

    // Two blocks per flush: one flush (after block 1); block 2's record is
    // never written, because the trial completes first.
    opts.sync_rounds = 2;
    (void)engine.run_parallel(8, fixed_exponent(2.5), point{32, 0}, 64, rng::seeded(7), kNoCap,
                              opts);
    EXPECT_EQ(engine.last_stats().spills, 1u);
    EXPECT_EQ(engine.last_stats().spilled_bytes, 92 + 2 * 36u);
    EXPECT_TRUE(fs::is_empty(dir_));

    // No spill directory, or one block: no journal, no IO.
    opts.spill_dir.clear();
    (void)engine.run_parallel(8, fixed_exponent(2.5), point{32, 0}, 64, rng::seeded(7), kNoCap,
                              opts);
    EXPECT_EQ(engine.last_stats().rounds, 4u);
    EXPECT_EQ(engine.last_stats().spills, 0u);
    (void)engine.run_parallel(8, fixed_exponent(2.5), point{32, 0}, 64, rng::seeded(7), kNoCap,
                              with_spill_dir({}));
    EXPECT_EQ(engine.last_stats().rounds, 1u);
    EXPECT_EQ(engine.last_stats().spills, 0u);
}

TEST_F(ShardEngineTest, TrialDispatchRoutesShardedConfigs) {
    // parallel_walk_trial must run a sharded config as blocks and still
    // agree bit-for-bit with the default in-memory path, including
    // watchdog censoring.
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
        EXPECT_EQ(walk_engine::local().last_stats().rounds, 3u);
        EXPECT_EQ(base.hit, sharded.hit);
        EXPECT_EQ(base.time, sharded.time);
        EXPECT_EQ(base.winner, sharded.winner);
        EXPECT_EQ(base.censored, sharded.censored);
    }
}

TEST_F(ShardEngineTest, ShardedTrialWithoutSpillDirLeavesTempDirEmpty) {
    // Without --spill-dir a trial writes nothing: no journal, and no
    // per-process directory under the temp dir either.
    const fs::path tmp = dir_ / "tmpdir";
    fs::create_directories(tmp);
    const char* old = std::getenv("TMPDIR");
    const std::string saved = old != nullptr ? old : "";
    ASSERT_EQ(::setenv("TMPDIR", tmp.c_str(), 1), 0);
    ASSERT_EQ(fs::temp_directory_path(), tmp);
    parallel_walk_config p;
    p.k = 12;
    p.ell = 6;
    p.budget = 400;
    p.shards = 4;
    p.memory_budget = 3 * walker_block::kBytesPerWalker;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        (void)parallel_walk_trial(p, rng::seeded(seed));
        EXPECT_EQ(walk_engine::local().last_stats().rounds, 4u);
    }
    if (old != nullptr) {
        ::setenv("TMPDIR", saved.c_str(), 1);
    } else {
        ::unsetenv("TMPDIR");
    }
    EXPECT_TRUE(fs::is_empty(tmp));
}

TEST_F(ShardEngineTest, PooledEngineIsReusableAcrossConfigs) {
    // The pooled thread-local engine must give the same answers as a fresh
    // instance even when runs alternate caps and block counts (cache
    // churn), and do the same work: its walker block comes warm from
    // earlier runs, and that must not move a block or a flush.
    sharded_walk_engine& pooled = sharded_walk_engine::local();
    std::uint64_t flushes = 0;
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
                const auto work = [](const shard_run_stats& st) {
                    return std::array{st.rounds,     st.spills,  st.spilled_bytes,
                                      st.loads,      st.recomputed, st.resumed,
                                      st.peak_resident_walkers, st.peak_resident_bytes};
                };
                EXPECT_EQ(work(fresh.last_stats()), work(pooled.last_stats()))
                    << "seed=" << seed << " cap=" << cap << " budget=" << memory_budget;
                flushes += pooled.last_stats().spills;
            }
        }
    }
    EXPECT_GT(flushes, 0u);  // the runs really kept journals
    EXPECT_TRUE(fs::is_empty(dir_));
}

/// --- the block journal ----------------------------------------------------
///
/// Tests plant journals through block_journal_for (the path and key the
/// engine uses) and trial_journal, with records in this test's own bytewise
/// little-endian encoding, so a change to the record layout shows here.

constexpr std::size_t kJournalHeaderBytes = 36 + 7 * 8;  // 7 identity words
constexpr std::size_t kJournalRecordBytes = 8 + 24 + 4;  // index | best | CRC

std::vector<char> encode_best(const best_state& best) {
    std::vector<char> out;
    for (const std::uint64_t word : {std::uint64_t{best.hit}, best.time,
                                     static_cast<std::uint64_t>(best.winner)}) {
        for (int b = 0; b < 8; ++b) out.push_back(static_cast<char>((word >> (8 * b)) & 0xff));
    }
    return out;
}

/// Write `records` (block → best) as the journal `file` describes.
void plant(const block_journal_file& file, const std::map<std::size_t, best_state>& records) {
    trial_journal journal(file.path, file.key, 1, std::numeric_limits<double>::infinity());
    for (const auto& [block, best] : records) journal.record(block, encode_best(best).data());
    journal.commit();
}

std::vector<char> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A four-block trial whose walkers hit, and each block's local best under
/// the full budget: what a run that finished that block records.
struct journal_config {
    std::size_t k = 8;
    exponent_strategy strategy = fixed_exponent(2.2);
    point target{3, 1};
    std::uint64_t budget = 200;
    std::uint64_t cap = kNoCap;
    rng stream = rng::seeded(60321);

    [[nodiscard]] shard_options options(const fs::path& dir) const {
        shard_options opts;
        opts.shards = 4;
        opts.spill_dir = dir.string();
        return opts;
    }

    [[nodiscard]] block_journal_file file(const fs::path& dir) const {
        return block_journal_for(k, strategy, target, budget, stream, cap, options(dir));
    }

    [[nodiscard]] best_state block_best(std::size_t b) const {
        dist_cache dists;
        dists.reset(cap);
        walker_block block;
        best_state best;
        block.spawn_range(2 * b, 2 * b + 2, strategy, stream, dists, {}, target, budget, best);
        while (block.live() > 0) block.epoch({}, dists, target, budget, best);
        return best;
    }

    [[nodiscard]] std::map<std::size_t, best_state> all_blocks() const {
        std::map<std::size_t, best_state> records;
        for (std::size_t b = 0; b < 4; ++b) records[b] = block_best(b);
        return records;
    }
};

void expect_same(const parallel_result& base, const parallel_result& r, const std::string& what) {
    ASSERT_EQ(base.hit, r.hit) << what;
    ASSERT_EQ(base.time, r.time) << what;
    ASSERT_EQ(base.winner, r.winner) << what;
    ASSERT_EQ(base.winner_alpha, r.winner_alpha) << what;
}

TEST_F(ShardEngineTest, PlantedJournalResumesWithoutRerunningItsBlocks) {
    const journal_config cfg;
    walk_engine reference;
    const parallel_result base = reference.run_parallel(cfg.k, cfg.strategy, cfg.target,
                                                        cfg.budget, cfg.stream, cfg.cap);
    ASSERT_TRUE(base.hit);
    const block_journal_file file = cfg.file(dir_);
    ASSERT_EQ(file.key.trials, 4u);
    sharded_walk_engine engine;
    const auto run = [&] {
        return engine.run_parallel(cfg.k, cfg.strategy, cfg.target, cfg.budget, cfg.stream,
                                   cfg.cap, cfg.options(dir_));
    };

    // Blocks 1 and 3 finished: they fold in, 0 and 2 run.
    const std::map<std::size_t, best_state> all = cfg.all_blocks();
    plant(file, {{1, all.at(1)}, {3, all.at(3)}});
    expect_same(base, run(), "blocks 1 and 3 planted");
    EXPECT_EQ(engine.last_stats().loads, 1u);
    EXPECT_EQ(engine.last_stats().resumed, 2u);
    EXPECT_EQ(engine.last_stats().recomputed, 2u);
    EXPECT_EQ(engine.last_stats().rounds, 2u);
    EXPECT_FALSE(fs::exists(file.path));  // completed: the journal is gone

    // Every block finished: nothing runs.
    plant(file, all);
    expect_same(base, run(), "all blocks planted");
    EXPECT_EQ(engine.last_stats().resumed, 4u);
    EXPECT_EQ(engine.last_stats().rounds, 0u);

    // A record with a valid CRC is trusted, bogus best and all: block 0
    // claims a time no walker scores, and the trial reports it.
    plant(file, {{0, best_state{.hit = true, .time = 1, .winner = 0}}});
    const parallel_result bogus = run();
    EXPECT_EQ(bogus.time, 1u);
    EXPECT_EQ(bogus.winner, 0u);
    EXPECT_EQ(engine.last_stats().resumed, 1u);
    EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(ShardEngineTest, ResumedBestBoundsTheBlocksAfterIt) {
    // Every block runs under the allowance min(budget, best so far). Block
    // 0's journaled best claims the least time there is, ℓ, so block 1's
    // first visits retire every walker that can no longer reach the target
    // by step ℓ: it stores far fewer walkers than the same block spawned
    // under the budget alone.
    const std::size_t k = 512;
    const exponent_strategy strategy = fixed_exponent(2.5);
    const point target{8, 0};
    const std::uint64_t budget = 4000;
    const rng stream = rng::seeded(977);
    shard_options opts = with_spill_dir({});
    opts.shards = 2;
    plant(block_journal_for(k, strategy, target, budget, stream, kNoCap, opts),
          {{0, best_state{.hit = true, .time = 8, .winner = 0}}});
    sharded_walk_engine engine;
    const parallel_result r = engine.run_parallel(k, strategy, target, budget, stream, kNoCap,
                                                  opts);
    EXPECT_EQ(r.time, 8u);
    EXPECT_EQ(r.winner, 0u);
    EXPECT_EQ(engine.last_stats().rounds, 1u);

    dist_cache dists;
    dists.reset(kNoCap);
    walker_block block;
    best_state none;
    block.spawn_range(k / 2, k, strategy, stream, dists, {}, target, budget, none);
    EXPECT_LT(2 * engine.last_stats().peak_resident_walkers, block.live())
        << "block 1 stored " << engine.last_stats().peak_resident_walkers << " walkers, "
        << block.live() << " under the budget alone";
}

TEST_F(ShardEngineTest, TornJournalByteAtEveryOffsetRerunsTheLostBlocks) {
    const journal_config cfg;
    walk_engine reference;
    const parallel_result base = reference.run_parallel(cfg.k, cfg.strategy, cfg.target,
                                                        cfg.budget, cfg.stream, cfg.cap);
    const block_journal_file file = cfg.file(dir_);
    plant(file, cfg.all_blocks());
    const std::vector<char> journal = read_bytes(file.path);
    ASSERT_EQ(journal.size(), kJournalHeaderBytes + 4 * kJournalRecordBytes);
    sharded_walk_engine engine;
    for (std::size_t offset = 0; offset < journal.size(); ++offset) {
        std::vector<char> torn = journal;
        torn[offset] ^= static_cast<char>(0x40);
        write_bytes(file.path, torn);
        const parallel_result r = engine.run_parallel(cfg.k, cfg.strategy, cfg.target,
                                                      cfg.budget, cfg.stream, cfg.cap,
                                                      cfg.options(dir_));
        expect_same(base, r, "offset " + std::to_string(offset));
        // The records before the torn one fold in; the torn one and every
        // one after it run again — exactly those blocks.
        const std::size_t kept = offset < kJournalHeaderBytes
                                     ? 0
                                     : (offset - kJournalHeaderBytes) / kJournalRecordBytes;
        ASSERT_EQ(engine.last_stats().resumed, kept) << "offset=" << offset;
        ASSERT_EQ(engine.last_stats().recomputed, 4 - kept) << "offset=" << offset;
        ASSERT_EQ(engine.last_stats().rounds, 4 - kept) << "offset=" << offset;
        ASSERT_FALSE(fs::exists(file.path)) << "offset=" << offset;
    }
}

TEST_F(ShardEngineTest, TruncatedJournalAtEveryLengthRerunsTheLostBlocks) {
    const journal_config cfg;
    walk_engine reference;
    const parallel_result base = reference.run_parallel(cfg.k, cfg.strategy, cfg.target,
                                                        cfg.budget, cfg.stream, cfg.cap);
    const block_journal_file file = cfg.file(dir_);
    plant(file, cfg.all_blocks());
    const std::vector<char> journal = read_bytes(file.path);
    sharded_walk_engine engine;
    for (std::size_t length = 0; length < journal.size(); ++length) {
        write_bytes(file.path, std::vector<char>(journal.begin(),
                                                 journal.begin() + static_cast<long>(length)));
        const parallel_result r = engine.run_parallel(cfg.k, cfg.strategy, cfg.target,
                                                      cfg.budget, cfg.stream, cfg.cap,
                                                      cfg.options(dir_));
        expect_same(base, r, "length " + std::to_string(length));
        const std::size_t kept = length < kJournalHeaderBytes
                                     ? 0
                                     : (length - kJournalHeaderBytes) / kJournalRecordBytes;
        ASSERT_EQ(engine.last_stats().loads, 1u) << "length=" << length;
        ASSERT_EQ(engine.last_stats().resumed, kept) << "length=" << length;
        ASSERT_EQ(engine.last_stats().recomputed, 4 - kept) << "length=" << length;
        ASSERT_EQ(engine.last_stats().rounds, 4 - kept) << "length=" << length;
    }
}

TEST_F(ShardEngineTest, JournalOfAnotherRunIsIgnoredWholesale) {
    // A journal at this trial's path whose identity differs in any one
    // field — seed, block count, record size, or a context word (format
    // version, k, cap, budget, target.x, target.y, strategy fingerprint) —
    // holds records a bogus best would win with. It must be ignored as a
    // whole: the trial runs every block and matches the in-memory run.
    const journal_config cfg;
    walk_engine reference;
    const parallel_result base = reference.run_parallel(cfg.k, cfg.strategy, cfg.target,
                                                        cfg.budget, cfg.stream, cfg.cap);
    ASSERT_TRUE(base.hit);
    const block_journal_file file = cfg.file(dir_);
    ASSERT_EQ(file.key.context.size(), 7u);
    std::vector<journal_key> others;
    for (std::size_t word = 0; word < file.key.context.size(); ++word) {
        others.push_back(file.key);
        others.back().context[word] ^= 1;
    }
    others.push_back(file.key);
    others.back().seed ^= 1;
    others.push_back(file.key);
    others.back().trials += 1;
    others.push_back(file.key);
    others.back().payload_size += 8;
    sharded_walk_engine engine;
    for (std::size_t i = 0; i < others.size(); ++i) {
        std::map<std::size_t, best_state> bogus;
        for (std::size_t b = 0; b < 4; ++b) bogus[b] = {.hit = true, .time = 1, .winner = b};
        if (others[i].payload_size == 24) {
            plant({file.path, others[i]}, bogus);
        } else {
            trial_journal journal(file.path, others[i], 1, 3600);
            const std::vector<char> payload(others[i].payload_size, '\x01');
            journal.record(0, payload.data());
            journal.commit();
        }
        const parallel_result r = engine.run_parallel(cfg.k, cfg.strategy, cfg.target,
                                                      cfg.budget, cfg.stream, cfg.cap,
                                                      cfg.options(dir_));
        expect_same(base, r, "identity variant " + std::to_string(i));
        EXPECT_EQ(engine.last_stats().loads, 0u) << i;
        EXPECT_EQ(engine.last_stats().resumed, 0u) << i;
        EXPECT_EQ(engine.last_stats().recomputed, 0u) << i;
        EXPECT_EQ(engine.last_stats().rounds, 4u) << i;
        EXPECT_TRUE(fs::is_empty(dir_)) << i;  // overwritten, then removed
    }
}

}  // namespace
}  // namespace levy::sim
