#include "src/sim/shard_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/obs/metrics.h"
#include "src/rng/splitmix64.h"
#include "src/sim/le_bytes.h"
#include "src/sim/walk_engine.h"

namespace levy::sim {
namespace {

/// The block journal's record layout version, part of its identity.
constexpr std::uint64_t kJournalVersion = 1;
constexpr std::uint32_t kRecordBytes = 3 * 8;  // hit | time | winner

/// Walkers one block may store under the memory budget (k when unlimited).
std::size_t budget_walkers(std::size_t k, const shard_options& opts) noexcept {
    if (opts.memory_budget == 0) return k;
    const std::uint64_t fit =
        std::max<std::uint64_t>(1, opts.memory_budget / walker_block::kBytesPerWalker);
    return static_cast<std::size_t>(std::min<std::uint64_t>(k, fit));
}

/// Block count: what the caller asked for, raised until one block's
/// records fit the memory budget, clamped to one walker per block.
std::size_t block_count(std::size_t k, const shard_options& opts) noexcept {
    const std::size_t fit = std::max<std::size_t>(1, budget_walkers(k, opts));
    const std::size_t need = (k + fit - 1) / fit;
    return std::min(std::max({std::size_t{1}, opts.shards, need}), k);
}

/// Strategies are opaque std::functions, so their identity is fingerprinted
/// behaviorally: a mix64 chain over the α draws of the first walkers.
std::uint64_t strategy_fingerprint(std::size_t k, const exponent_strategy& strategy,
                                   const rng& trial_stream) {
    std::uint64_t fp = 0x5348415244ULL;
    const std::size_t probe = std::min<std::size_t>(k, 16);
    for (std::size_t i = 0; i < probe; ++i) {
        rng stream = trial_stream.substream(i);
        const double alpha = strategy(i, stream);
        fp = mix64(fp ^ std::bit_cast<std::uint64_t>(alpha), i + 1);
    }
    return fp;
}

std::array<char, kRecordBytes> encode_record(const best_state& best) {
    std::array<char, kRecordBytes> bytes{};
    char* p = store_le(bytes.data(), std::uint64_t{best.hit});
    p = store_le(p, best.time);
    store_le(p, static_cast<std::uint64_t>(best.winner));
    return bytes;
}

best_state decode_record(const std::vector<char>& bytes) {
    const char* p = bytes.data();
    return {.hit = load_le<std::uint64_t>(p) != 0,
            .time = load_le<std::uint64_t>(p + 8),
            .winner = static_cast<std::size_t>(load_le<std::uint64_t>(p + 16))};
}

}  // namespace

block_journal_file block_journal_for(std::size_t k, const exponent_strategy& strategy,
                                     point target, std::uint64_t budget,
                                     const rng& trial_stream, std::uint64_t cap,
                                     const shard_options& opts) {
    const std::size_t count = block_count(k, opts);
    char name[64];
    std::snprintf(name, sizeof(name), "/blocks-%016llx-%zu.journal",
                  static_cast<unsigned long long>(trial_stream.seed()), count);
    return {.path = opts.spill_dir + name,
            .key = {.seed = trial_stream.seed(),
                    .trials = count,
                    .payload_size = kRecordBytes,
                    .context = {kJournalVersion, k, cap, budget,
                                static_cast<std::uint64_t>(target.x),
                                static_cast<std::uint64_t>(target.y),
                                strategy_fingerprint(k, strategy, trial_stream)}}};
}

parallel_result walk_engine::run_parallel(std::size_t k, const exponent_strategy& strategy,
                                          point target, std::uint64_t budget,
                                          const rng& trial_stream, std::uint64_t cap,
                                          const shard_options& opts) {
    stats_ = {};
    // No walkers: a miss. A target at the origin: walker 0 hits at t = 0.
    if (k == 0 || target == origin) {
        return parallel_outcome({.hit = k != 0, .winner = 0}, budget, strategy, trial_stream);
    }
    dists_.reset(cap);
    const std::size_t count = block_count(k, opts);
    // One buffer for every block under this budget, the largest block's
    // size or more: a block that outgrew it would reallocate, and the
    // allocator keeps a freed block-sized buffer resident.
    block_.reserve(budget_walkers(k, opts));
    const engine_options engine_opts{opts.epoch_steps};
    best_state best;

    // The resume state (shard_engine.h, "Journal"). Finished blocks fold in
    // first, so every block left runs under the best they hold.
    std::optional<trial_journal> journal;
    std::vector<bool> finished;
    if (count > 1 && !opts.spill_dir.empty() && opts.sync_rounds != 0) {
        block_journal_file file =
            block_journal_for(k, strategy, target, budget, trial_stream, cap, opts);
        std::error_code ec;
        std::filesystem::create_directories(opts.spill_dir, ec);
        if (ec) throw std::runtime_error("shard_engine: cannot create spill dir " + opts.spill_dir);
        journal.emplace(std::move(file.path), std::move(file.key), opts.sync_rounds,
                        std::numeric_limits<double>::infinity());
        const journal_contents found = journal->reload();
        finished.assign(count, false);
        for (const auto& [b, payload] : found.records) {
            best.merge(decode_record(payload));
            finished[b] = true;
        }
        if (found.matched || found.dropped_tail) {
            stats_.loads = 1;
            stats_.resumed = found.records.size();
        }
    }

    for (std::size_t b = 0; b < count; ++b) {
        const std::size_t lo = b * k / count;
        const std::size_t hi = (b + 1) * k / count;
        // The stop: blocks run in id order, so once the best is settled
        // before this block's first id it is settled for every block left.
        if (best.settled_before(lo, target)) break;
        if (!finished.empty() && finished[b]) continue;
        // The block runs on the trial's own best: its allowance and the
        // winner a tie must beat.
        block_.clear();
        block_.spawn_range(lo, hi, strategy, trial_stream, dists_, engine_opts, target, budget,
                           best);
        stats_.peak_resident_walkers =
            std::max<std::uint64_t>(stats_.peak_resident_walkers, block_.live());
        // Epochs only retire walkers, so the spawn's count is the block's peak.
        while (block_.live() > 0) block_.epoch(engine_opts, dists_, target, budget, best);
        ++stats_.rounds;
        // The last block's record would be removed unread, and so would one
        // that stops the trial: neither is flushed.
        if (journal && b + 1 < count && !best.settled_before(hi, target)) {
            journal->record(b, encode_record(best).data());
        }
    }

    if (stats_.loads != 0) {
        stats_.recomputed = stats_.rounds;
        obs::get_counter("shard.recomputed").add(stats_.recomputed);
    }
    stats_.peak_resident_bytes = stats_.peak_resident_walkers * walker_block::kBytesPerWalker;
    static const obs::counter blocks_run = obs::get_counter("shard.blocks");
    blocks_run.add(stats_.rounds);
    if (journal) {
        stats_.spills = journal->flushes();
        stats_.spilled_bytes = journal->flushed_bytes();
        obs::get_counter("shard.flushes").add(stats_.spills);
        // Clean completion: nothing is left to resume.
        journal->remove();
    }
    return parallel_outcome(best, budget, strategy, trial_stream);
}

}  // namespace levy::sim
