#include "src/sim/shard_engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "src/core/contracts.h"
#include "src/obs/metrics.h"
#include "src/rng/splitmix64.h"
#include "src/sim/checkpoint.h"
#include "src/sim/fault.h"
#include "src/sim/le_bytes.h"

namespace levy::sim {
namespace {

/// Spill file format (version 1, all integers little-endian):
///
///     header : magic u64 "LVYSHARD" | version | shard_index | shard_count
///            | trial_seed | k | cap | budget | target_x | target_y
///            | strategy_fp | live | rounds | best_hit | best_time
///            | best_winner                     (15 u64 fields after magic)
///            | crc32(previous 128 bytes) u32
///     body   : live × walker_block::kBytesPerWalker walker records
///            | crc32(body) u32
///
/// Everything before `live` is the run identity: a file whose identity does
/// not match the current run is ignored wholesale (then overwritten), so a
/// stale spill directory can cause recomputation but never wrong results.
constexpr std::uint64_t kMagic = 0x4c56595348415244ULL;  // "LVYSHARD" big-endian bytes
constexpr std::uint64_t kVersion = 1;
constexpr std::size_t kHeaderU64 = 16;  // magic + 15 fields
constexpr std::size_t kIdentityU64 = 11;  // magic .. strategy_fp
constexpr std::size_t kHeaderBytes = kHeaderU64 * 8 + 4;

/// Identity of one sharded run; every spill header embeds it.
struct run_identity {
    std::uint64_t trial_seed = 0;
    std::uint64_t k = 0;
    std::uint64_t cap = 0;
    std::uint64_t budget = 0;
    point target{};
    std::uint64_t strategy_fp = 0;
    std::size_t shard_count = 0;
};

/// Strategies are opaque std::functions, so their identity is fingerprinted
/// behaviorally: a mix64 chain over the α draws of the first walkers. Two
/// different strategies that agree on those draws and the same seed would
/// collide — but then their spilled walkers are bit-identical anyway for
/// the probed prefix, and every walker record still carries its own α.
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

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

/// Per-process default spill directory (results never depend on its
/// location; file names are keyed by trial seed, so concurrent worker
/// threads share it safely).
std::string default_spill_dir() {
#if defined(__unix__) || defined(__APPLE__)
    const std::string tag = "levy-spill-" + std::to_string(::getpid());
#else
    const std::string tag = "levy-spill";
#endif
    return (std::filesystem::temp_directory_path() / tag).string();
}

/// One walker-id block [lo, hi) and its advancement state.
struct shard {
    std::size_t index = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
    bool spawned = false;   ///< this process has materialized the shard before
    bool resident = false;  ///< block holds the shard's walkers right now
    bool dirty = false;     ///< resident state is newer than the spill file
    bool done = false;      ///< all walkers retired (local best is final)
    std::uint64_t rounds = 0;
    std::uint64_t last_touch = 0;  ///< eviction clock (LRU)
    best_state local;
    walker_block block;
};

std::string shard_path(const std::string& dir, const run_identity& id, std::size_t index) {
    return dir + "/shard-" + hex64(id.trial_seed) + "-" + std::to_string(index) + "of" +
           std::to_string(id.shard_count) + ".lvyshard";
}

/// The header's u64 fields for shard `s` of run `id`, in file order; the
/// first kIdentityU64 depend only on (id, s.index).
std::array<std::uint64_t, kHeaderU64> header_fields(const run_identity& id, const shard& s) {
    return {kMagic,
            kVersion,
            s.index,
            id.shard_count,
            id.trial_seed,
            id.k,
            id.cap,
            id.budget,
            static_cast<std::uint64_t>(id.target.x),
            static_cast<std::uint64_t>(id.target.y),
            id.strategy_fp,
            s.block.live(),
            s.rounds,
            s.local.hit ? 1U : 0U,
            s.local.time,
            static_cast<std::uint64_t>(s.local.winner)};
}

/// Encode shard `s` into `bytes`, sized once to the file length (a reused
/// buffer keeps its capacity across spills).
void encode_shard(const run_identity& id, const shard& s, const dist_cache& dists,
                  std::vector<char>& bytes) {
    const std::size_t body_bytes = s.block.live() * walker_block::kBytesPerWalker;
    bytes.reserve(kHeaderBytes + body_bytes + 4);
    bytes.resize(kHeaderBytes);
    char* p = bytes.data();
    for (const std::uint64_t field : header_fields(id, s)) p = store_le(p, field);
    store_le(p, crc32(bytes.data(), kHeaderU64 * 8));
    s.block.serialize(dists, bytes);
    bytes.resize(kHeaderBytes + body_bytes + 4);
    store_le(bytes.data() + kHeaderBytes + body_bytes,
             crc32(bytes.data() + kHeaderBytes, body_bytes));
}

/// Read + validate the spill file at `path` (through the reused `bytes`)
/// into `s`. False (s untouched beyond its block being cleared) on any
/// mismatch or corruption.
bool decode_shard(const std::string& path, const run_identity& id, shard& s,
                  dist_cache& dists, std::vector<char>& bytes) {
    if (!read_file(path, bytes) || bytes.size() < kHeaderBytes + 4) return false;
    const char* p = bytes.data();
    std::array<std::uint64_t, kHeaderU64> header{};
    for (std::size_t i = 0; i < kHeaderU64; ++i) header[i] = load_le<std::uint64_t>(p + 8 * i);
    if (crc32(p, kHeaderU64 * 8) != load_le<std::uint32_t>(p + kHeaderU64 * 8)) return false;
    const std::array<std::uint64_t, kHeaderU64> expected = header_fields(id, s);
    if (!std::equal(header.begin(), header.begin() + kIdentityU64, expected.begin())) {
        return false;
    }
    const std::uint64_t live = header[11];
    if (live > s.hi - s.lo) return false;
    const std::size_t body_bytes = static_cast<std::size_t>(live) * walker_block::kBytesPerWalker;
    if (bytes.size() != kHeaderBytes + body_bytes + 4) return false;
    const char* body = p + kHeaderBytes;
    if (crc32(body, body_bytes) != load_le<std::uint32_t>(body + body_bytes)) return false;
    if (!s.block.deserialize(body, static_cast<std::size_t>(live), dists)) return false;
    s.rounds = header[12];
    s.local.hit = header[13] != 0;
    s.local.time = header[14];
    s.local.winner = static_cast<std::size_t>(header[15]);
    return true;
}

}  // namespace

sharded_walk_engine& sharded_walk_engine::local() {
    thread_local sharded_walk_engine engine;
    return engine;
}

parallel_result sharded_walk_engine::run_parallel(std::size_t k,
                                                  const exponent_strategy& strategy,
                                                  point target, std::uint64_t budget,
                                                  const rng& trial_stream, std::uint64_t cap,
                                                  const shard_options& opts) {
    stats_ = {};
    parallel_result result;
    result.time = budget;
    if (k == 0) return result;
    if (target == origin) {
        // Every walker stands on the target at t = 0; walker 0 wins.
        result.hit = true;
        result.time = 0;
        result.winner = 0;
        rng walk_stream = trial_stream.substream(0);
        result.winner_alpha = strategy(0, walk_stream);
        return result;
    }

    dists_.reset(cap);

    // Shard count: what the caller asked for, raised until one fully
    // populated shard fits the memory budget (a shard must be resident in
    // full while it advances), clamped to one walker per shard.
    std::size_t count = std::max<std::size_t>(1, opts.shards);
    if (opts.memory_budget > 0) {
        const std::uint64_t max_walkers =
            std::max<std::uint64_t>(1, opts.memory_budget / walker_block::kBytesPerWalker);
        const std::uint64_t need =
            (static_cast<std::uint64_t>(k) + max_walkers - 1) / max_walkers;
        count = std::max(count, static_cast<std::size_t>(need));
    }
    count = std::min(count, k);

    run_identity id;
    id.trial_seed = trial_stream.seed();
    id.k = k;
    id.cap = cap;
    id.budget = budget;
    id.target = target;
    id.strategy_fp = strategy_fingerprint(k, strategy, trial_stream);
    id.shard_count = count;

    const std::string dir = opts.spill_dir.empty() ? default_spill_dir() : opts.spill_dir;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) throw std::runtime_error("shard_engine: cannot create spill dir " + dir);

    std::vector<shard> shards(count);
    for (std::size_t i = 0; i < count; ++i) {
        shards[i].index = i;
        shards[i].lo = i * k / count;
        shards[i].hi = (i + 1) * k / count;
    }

    // Quantum default: budget/8 steps per residency, not one phase (see
    // shard_options::epoch_steps) — bounds a trial's sync IO to ~8 rounds.
    const engine_options engine_opts{
        opts.epoch_steps != 0 ? opts.epoch_steps : std::max<std::uint64_t>(1, budget / 8)};
    best_state global;
    std::uint64_t touch_clock = 0;
    std::size_t spill_ordinal = 0;

    const auto resident_bytes = [&shards]() {
        std::uint64_t total = 0;
        for (const shard& s : shards) {
            if (s.resident) total += s.block.live() * walker_block::kBytesPerWalker;
        }
        return total;
    };

    const auto note_peak = [&] {
        std::uint64_t walkers = 0;
        for (const shard& s : shards) {
            if (s.resident) walkers += s.block.live();
        }
        stats_.peak_resident_walkers = std::max(stats_.peak_resident_walkers, walkers);
        stats_.peak_resident_bytes = std::max(stats_.peak_resident_bytes, resident_bytes());
    };

    const auto spill = [&](shard& s) {
        encode_shard(id, s, dists_, io_);
        // Fault drills corrupt or kill here — before the atomic write — so
        // the mutation lands under the rename exactly like a torn disk.
        (void)fault_on_shard_spill(++spill_ordinal, io_);
        atomic_write_file(shard_path(dir, id, s.index), io_);
        s.dirty = false;
        ++stats_.spills;
        stats_.spilled_bytes += io_.size();
        obs::get_counter("shard.spills").add();
        obs::get_counter("shard.spill_bytes").add(io_.size());
    };

    const auto evict = [&](shard& s) {
        if (s.dirty) spill(s);
        s.block.clear();
        s.resident = false;
    };

    /// Make `s` resident: restore its spill file, or (re)spawn from the
    /// trial stream — a pure function of (seed, walker id), so a recompute
    /// under the current allowance converges to the same local best.
    const auto touch = [&](shard& s) {
        if (s.resident) return;
        const std::string path = shard_path(dir, id, s.index);
        const bool file_exists = std::filesystem::exists(path, ec) && !ec;
        if (file_exists && decode_shard(path, id, s, dists_, io_)) {
            if (!s.spawned) ++stats_.resumed;  // a previous process left it
            s.spawned = true;
            s.resident = true;
            s.dirty = false;
            ++stats_.loads;
            obs::get_counter("shard.loads").add();
            return;
        }
        if (file_exists || s.spawned) {
            // A file that exists but fails validation — or state this
            // process spilled and can no longer read back — is dropped and
            // this shard alone replays from spawn.
            ++stats_.recomputed;
            obs::get_counter("shard.recomputed").add();
        }
        s.block.clear();
        for (std::size_t i = s.lo; i < s.hi; ++i) {
            rng stream = trial_stream.substream(i);
            const double alpha = strategy(i, stream);  // same draws as scalar
            s.block.spawn(i, alpha, stream, dists_);
        }
        s.local = best_state{};
        s.rounds = 0;
        s.spawned = true;
        s.resident = true;
        s.dirty = true;
    };

    const auto enforce_budget = [&](std::size_t keep_index) {
        if (opts.memory_budget == 0) return;
        while (resident_bytes() > opts.memory_budget) {
            shard* victim = nullptr;
            for (shard& s : shards) {
                if (!s.resident || s.index == keep_index) continue;
                if (victim == nullptr || s.last_touch < victim->last_touch) victim = &s;
            }
            if (victim == nullptr) break;  // only the active shard is left
            evict(*victim);
        }
    };

    for (bool all_done = false; !all_done;) {
        ++stats_.rounds;
        all_done = true;
        for (shard& s : shards) {
            if (s.done) continue;
            touch(s);
            s.last_touch = ++touch_clock;
            note_peak();
            const std::uint64_t allowance_cap =
                global.hit ? std::min(global.time, budget) : budget;
            ++s.rounds;
            // A residency advances a full quantum of *steps*, not one epoch:
            // epoch() takes one phase segment per walker, and Lévy phases
            // are mostly a step or two, so a spill per epoch would pay IO
            // per phase. Grouping epochs changes only the schedule — hits
            // register through the same order-independent lex-min merge.
            const std::uint64_t stride = engine_opts.epoch_steps;
            const std::uint64_t round_target =
                s.rounds > allowance_cap / stride ? allowance_cap
                                                 : std::min(allowance_cap, stride * s.rounds);
            do {
                s.block.epoch(engine_opts, dists_, target, allowance_cap, s.local);
            } while (s.block.live() != 0 && s.block.min_live_elapsed() < round_target);
            s.dirty = true;
            global.merge(s.local);
            if (s.block.live() == 0) {
                // Final durable record: live = 0 plus the shard's local
                // best, so a resume folds it in without recomputation.
                s.done = true;
                spill(s);
                s.block.clear();
                s.resident = false;
            } else {
                all_done = false;
            }
            enforce_budget(s.index);
        }
        if (!all_done && opts.sync_rounds != 0 && stats_.rounds % opts.sync_rounds == 0) {
            for (shard& s : shards) {
                if (s.resident && s.dirty) spill(s);
            }
        }
    }

    if (global.hit) {
        result.hit = true;
        result.time = global.time;
        result.winner = global.winner;
        // Same winner-exponent replay as parallel_hit: strategy draws are a
        // pure function of (trial_stream, walker index).
        rng walk_stream = trial_stream.substream(result.winner);
        result.winner_alpha = strategy(result.winner, walk_stream);
    }

    // Clean completion: the spill files are resume state, and this trial no
    // longer needs resuming. (A crash skips this, leaving them for resume.)
    for (const shard& s : shards) {
        std::filesystem::remove(shard_path(dir, id, s.index), ec);
    }
    return result;
}

}  // namespace levy::sim
