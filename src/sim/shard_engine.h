#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/jump_distribution.h"
#include "src/rng/rng_stream.h"
#include "src/sim/walk_engine.h"

namespace levy::sim {

/// Knobs for the out-of-core sharded engine (see class comment below).
struct shard_options {
    /// Walker-id blocks to partition the trial into (0 or 1 = one shard).
    /// When `memory_budget` demands finer blocks than requested, the count
    /// is raised so a single fully-populated shard fits the budget —
    /// results do not depend on the shard count, only residency does.
    std::size_t shards = 1;
    /// Resident walker-state budget in bytes (0 = unlimited). Before a shard
    /// becomes resident, idle shards spill to disk, least-recently-advanced
    /// first, until its walkers fit beside the rest.
    std::uint64_t memory_budget = 0;
    /// Steps each shard advances per residency (engine_options quantum).
    /// 0 picks the out-of-core default, budget/8: one *phase* per round —
    /// the in-memory engine's default — would pay a spill/load cycle per
    /// phase, so sharded rounds take bigger bites. Results are invariant
    /// under the quantum; only the IO schedule changes.
    std::uint64_t epoch_steps = 0;
    /// Directory for spill files. Empty = a per-process temp directory —
    /// spills and crash recovery still work within the process lifetime,
    /// but cross-run resume needs a caller-chosen stable directory.
    std::string spill_dir;
    /// Persist every dirty resident shard each N rounds (0 = only when
    /// evicted). 1 — the default — bounds a kill -9 to losing at most the
    /// shards whose current-round epoch had not yet flushed.
    std::size_t sync_rounds = 1;
};

/// What a sharded run did, for benches and drills (results never depend on
/// any of these — they are residency/IO accounting only).
struct shard_run_stats {
    std::uint64_t rounds = 0;            ///< epoch rounds over the shard set
    std::uint64_t spills = 0;            ///< shard files written
    std::uint64_t spilled_bytes = 0;     ///< total bytes written to spill files
    std::uint64_t loads = 0;             ///< shard files restored from disk
    std::uint64_t recomputed = 0;        ///< shards replayed from spawn (corrupt/missing)
    std::uint64_t resumed = 0;           ///< shards restored from a previous process
    std::uint64_t peak_resident_walkers = 0;
    std::uint64_t peak_resident_bytes = 0;
};

/// Out-of-core sharded Lévy-walk engine: the walk_engine determinism
/// contract at walker counts past RAM.
///
/// The trial's k walkers are partitioned into contiguous walker-id blocks
/// ("shards", GraphWalker-style intervals). Shards advance round-robin, one
/// walk_engine epoch per round, against a shared lex-min best; idle shards
/// spill to disk through the checkpoint layer's atomic-write + CRC path
/// whenever the next shard would not fit `memory_budget`. Because the lex-min
/// registration rule is order-independent and allowance pruning only
/// discards strictly-worse outcomes (a hit at exactly the current best time
/// is still detected and tie-broken by id), the result is bit-identical to
/// the in-memory batch engine — and to the scalar reference — at any shard
/// count, epoch quantum, thread count, or eviction schedule.
///
/// ## Memory
///
/// A shard holds walker memory only while it is resident: it borrows a
/// walker_block from the engine's pool when it becomes resident and hands
/// it back cleared, capacity kept, when it is evicted or finishes. The
/// engine's walker memory is therefore bounded by the most shards it ever
/// had resident at once, each block sized by the largest shard it held,
/// and a warm engine spawns and reloads into pages it already has.
/// `memory_budget` counts live walkers, not capacity, so the pool never
/// moves a spill or a load. The bound is held before a shard loads: it
/// brings its id-block size on first touch and its live count at eviction
/// after that, and residents are evicted until those bytes fit, so
/// `peak_resident_bytes` never exceeds a budget that holds one walker. (A
/// shard whose spill file fails to read back respawns in full and may
/// overshoot it.) Spawning is each walker's first visit, so a shard stores
/// only the walkers that survive it: the id-block size is an upper bound.
///
/// ## Durability
///
/// Spill files double as the resume state. Each carries the full run
/// identity (trial seed, k, cap, budget, target, a strategy fingerprint,
/// and the format version), the shard's serialized walkers (112 bytes
/// each, layout in walk_engine.cpp), its local best, and CRCs over header
/// and body, written via atomic_write_file (tmp + fsync + rename +
/// parent-dir fsync). A kill -9 mid-epoch therefore loses at most the
/// shards not yet flushed this round: on re-run with the same parameters,
/// shards with a valid file resume from it, everything else replays
/// deterministically from spawn. A corrupt or truncated file fails its
/// CRC, is dropped, and only that shard recomputes — never its neighbors.
/// Clean completion removes the trial's spill files.
class sharded_walk_engine {
public:
    /// One parallel trial; bit-exact with walk_engine::run_parallel (and
    /// the scalar parallel_hit) on the same arguments.
    [[nodiscard]] parallel_result run_parallel(std::size_t k, const exponent_strategy& strategy,
                                               point target, std::uint64_t budget,
                                               const rng& trial_stream, std::uint64_t cap,
                                               const shard_options& opts);

    /// Residency/IO accounting for the most recent run_parallel call.
    [[nodiscard]] const shard_run_stats& last_stats() const noexcept { return stats_; }

    /// The thread's pooled engine (same pooling contract as
    /// walk_engine::local: one instance per worker thread, reused across
    /// trials, never shared).
    [[nodiscard]] static sharded_walk_engine& local();

private:
    dist_cache dists_;
    shard_run_stats stats_{};
    /// The one spill/reload byte buffer: every encode and decode of every
    /// trial on this engine reuses its capacity (one shard file's worth).
    std::vector<char> io_;
    /// Cleared walker blocks, capacity kept, that resident shards borrow
    /// (see "Memory" above).
    std::vector<walker_block> spare_blocks_;
};

}  // namespace levy::sim
