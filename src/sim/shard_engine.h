#pragma once

#include <cstdint>
#include <string>

#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/rng_stream.h"
#include "src/sim/checkpoint.h"

namespace levy::sim {

/// Out-of-core runs: a parallel trial as a loop over walker-id blocks.
///
/// walk_engine::run_parallel(…, shard_options) cuts a trial's k walkers
/// into `count` contiguous id blocks, block b holding ids
/// [b·k/count, (b+1)·k/count), and runs them in id order. Each block is
/// spawned (every walker's first visit) and driven by epochs until none of
/// its walkers is left, under the allowance min(budget, best so far), and
/// its local best merges into the trial's. Only one block is ever resident,
/// so the memory bound holds by construction. The lex-min merge is
/// order-independent and the reach bound is strict, so the result is
/// bit-identical to one block of all k walkers — the in-memory run, which
/// is this loop with count = 1 — at any block count, quantum, or thread
/// count. A walker needs nothing but its own record to step, and is a pure
/// function of (trial seed, id), so nothing is ever spilled: a block that
/// is lost is simply run again. FlashMob bounds its memory the same way (a
/// bounded set of walkers per epoch, each epoch run until its walkers
/// terminate).
///
/// ## Journal
///
/// With a `spill_dir` and more than one block, a trial keeps its resume
/// state there: one record per finished block, its local best, in a
/// trial_journal (sim/checkpoint.h) named
/// `blocks-<trial seed hex16>-<count>.journal`:
///
///     key     : seed = trial seed, trials = count, payload_size = 24,
///               context = format version | k | cap | budget | target.x
///               | target.y | strategy fingerprint
///     payload : hit u64 (0 or 1) | time u64 | winner u64
///
/// so header and records carry CRCs, a bad tail is dropped, and every
/// flush is an atomic_write_file. A journal of another run identity is
/// ignored as a whole and never misread; the strategy fingerprint is a
/// mix64 chain over the exponents of the first 16 walkers (strategies are
/// opaque functions). Resuming folds every valid record into the best
/// before any block runs, and skips those blocks; a dropped record reruns
/// its block. The journal is flushed every `sync_rounds` finished blocks
/// but never after the last one, and is removed when the trial completes,
/// so at the default of 1 a kill -9 loses at most the block in progress.
struct shard_options {
    /// Walker-id blocks to cut the trial into (0 or 1 = one block). Raised
    /// until one block's records fit `memory_budget`, then clamped to k.
    /// Results do not depend on it; only residency does.
    std::size_t shards = 1;
    /// Resident walker-record budget in bytes (0 = unlimited): a block of
    /// n walkers stores at most n records of walker_block::kBytesPerWalker.
    std::uint64_t memory_budget = 0;
    /// Steps a walker advances per epoch inside a block (0 = whole phases,
    /// as in memory). Results are invariant under it.
    std::uint64_t epoch_steps = 0;
    /// Directory for the block journal. Empty = no journal: nothing is
    /// written, and a killed trial starts over.
    std::string spill_dir = {};
    /// Finished blocks per journal flush (0 = no journal). At 1 a kill -9
    /// loses at most the block in progress.
    std::size_t sync_rounds = 1;
};

/// What an out-of-core trial did (results never depend on any of it). The
/// field names stay for their callers; the meanings are the block loop's.
struct shard_run_stats {
    std::uint64_t rounds = 0;         ///< blocks run (spawned and driven to the end)
    std::uint64_t spills = 0;         ///< journal flushes
    std::uint64_t spilled_bytes = 0;  ///< bytes those flushes wrote
    std::uint64_t loads = 0;          ///< 1 when the trial found its own journal, else 0
    /// Blocks a trial that found its journal still had to run: their record
    /// was never flushed, or was dropped as corrupt. With `resumed` it sums
    /// to the block count whenever `loads` is 1.
    std::uint64_t recomputed = 0;
    std::uint64_t resumed = 0;  ///< blocks folded in from the journal, not rerun
    std::uint64_t peak_resident_walkers = 0;  ///< the largest block's stored walkers
    /// peak_resident_walkers × kBytesPerWalker; within any `memory_budget`
    /// that holds one walker.
    std::uint64_t peak_resident_bytes = 0;
};

/// The journal a trial with these arguments keeps under `opts.spill_dir`:
/// its path and its identity key (see "Journal" above). The engine opens
/// its journal through this; tests plant and damage journals with it.
struct block_journal_file {
    std::string path;
    journal_key key;
};
[[nodiscard]] block_journal_file block_journal_for(std::size_t k,
                                                   const exponent_strategy& strategy,
                                                   point target, std::uint64_t budget,
                                                   const rng& trial_stream, std::uint64_t cap,
                                                   const shard_options& opts);

}  // namespace levy::sim
