#pragma once

#include <cstdint>
#include <vector>

#include "src/core/hitting.h"
#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/jump_distribution.h"
#include "src/rng/rng_stream.h"

namespace levy::sim {

struct engine_options {
    /// Maximum lattice steps a walker advances inside one epoch before it
    /// suspends mid-phase (0 = always run the phase to completion). Results
    /// are invariant under this knob — it exists so tests can force every
    /// suspension/compaction path — but small quanta cost extra epochs, so
    /// production runs keep the default.
    std::uint64_t epoch_steps = 0;
};

/// Lex-min (hitting time, walker id) accumulator shared by the in-memory
/// batch engine and the out-of-core sharded engine. The registration rule
/// is order-independent — better time wins, equal time goes to the smaller
/// walker index — so epoch interleaving, shard ordering, and partial-state
/// recovery cannot change the final minimum.
struct best_state {
    bool hit = false;
    std::uint64_t time = 0;
    std::size_t winner = parallel_result::kNoWinner;

    /// Fold `other`'s record in, keeping the lex-min (time, winner).
    void merge(const best_state& other) noexcept {
        if (!other.hit) return;
        if (!hit || other.time < time || (other.time == time && other.winner < winner)) {
            hit = true;
            time = other.time;
            winner = other.winner;
        }
    }
};

/// Per-run jump-distribution cache keyed by (α bit pattern) for the run's
/// cap; a plain vector with linear scan — strategies use few distinct
/// exponents per trial, and ordered scans keep results layout-independent.
/// Shared by every walker block of a run (sharded or not); rebuilds are
/// deterministic, so pooling and eviction never affect results.
class dist_cache {
public:
    /// Prepare for a run with this cap: entries for another cap — or an
    /// overgrown cache — are useless, so they are dropped and walkers
    /// rebuild on demand.
    void reset(std::uint64_t cap);

    /// Find-or-create the entry for `alpha`; the returned index stays valid
    /// until the next reset() (the cache only grows within a run).
    [[nodiscard]] std::uint32_t index_for(double alpha);
    [[nodiscard]] std::uint32_t index_for_bits(std::uint64_t alpha_bits);

    /// The α bit pattern of entry `ix` — the stable key a spilled walker
    /// stores so restore can re-resolve its index.
    [[nodiscard]] std::uint64_t alpha_bits(std::uint32_t ix) const noexcept {
        return entries_[ix].alpha_bits;
    }

    [[nodiscard]] const jump_distribution& at(std::uint32_t ix) const noexcept {
        return entries_[ix].dist;
    }

    [[nodiscard]] std::uint64_t cap() const noexcept { return cap_; }

private:
    struct entry {
        std::uint64_t alpha_bits;
        jump_distribution dist;
    };
    std::uint64_t cap_ = kNoCap;
    std::vector<entry> entries_;
};

/// Dense structure-of-arrays block of in-flight walkers — the unit of
/// advancement shared by the in-memory batch engine (one block per trial)
/// and the out-of-core sharded engine (one block per resident shard).
///
/// Holds each walker's position, elapsed budget, per-walker main/path RNG
/// streams, and the residue of the phase in progress (axis deltas, Bresenham
/// progress, remaining steps). Walkers that hit or exhaust their allowance
/// retire by swap-with-last compaction, so the live prefix stays dense.
///
/// A block serializes its live walkers to a flat little-endian byte layout
/// (`kBytesPerWalker` per walker) and restores them bit-exactly, including
/// mid-phase RNG positions — the spill format of sim/shard_engine.
class walker_block {
public:
    void clear();
    [[nodiscard]] std::size_t live() const noexcept { return ids_.size(); }

    /// Least elapsed step count over the live walkers (max u64 when none) —
    /// the sharded engine's measure of how far a residency has advanced.
    [[nodiscard]] std::uint64_t min_live_elapsed() const noexcept;

    /// Add walker `id` with exponent `alpha`, its stream positioned after
    /// the strategy's exponent draw (exactly where the scalar walk starts).
    void spawn(std::size_t id, double alpha, rng stream, dist_cache& dists);

    /// One epoch: every live walker advances one phase (or `opts.epoch_steps`
    /// chunk), bounded by the lex-min of `allowance_cap` and `best`'s own
    /// record. Hits register into `best`; retired walkers compact away.
    /// `allowance_cap` is a pruning bound only (pass the trial budget, or a
    /// better time already found elsewhere) — it can never change which
    /// lex-min the union of all blocks' bests converges to.
    void epoch(const engine_options& opts, const dist_cache& dists, point target,
               std::uint64_t allowance_cap, best_state& best);

    /// Serialized bytes per walker (see the .cpp layout table).
    static constexpr std::size_t kBytesPerWalker = 28 * 8;

    /// Append the live walkers' serialized records to `out`.
    void serialize(const dist_cache& dists, std::vector<char>& out) const;

    /// Replace this block's contents with `count` walkers parsed from
    /// `bytes` (`count * kBytesPerWalker` bytes). Returns false — leaving
    /// the block cleared — when a record is structurally invalid; callers
    /// treat that like a corrupt shard and recompute.
    [[nodiscard]] bool deserialize(const char* bytes, std::size_t count, dist_cache& dists);

private:
    /// Advance walker slot w by one phase (or quantum chunk); may register
    /// a hit in `best`. Returns true when the walker must retire.
    bool advance_one(std::size_t w, const engine_options& opts, const dist_cache& dists,
                     std::uint64_t allowance, point target, best_state& best);
    /// One Bresenham replay step for slot w, tie coins from path_[w].
    void replay_step(std::size_t w);
    void swap_slots(std::size_t a, std::size_t b) noexcept;
    /// Resize every column to `live_count` slots (new slots hold filler).
    void resize(std::size_t live_count);

    // SoA walker state; index = live slot. Retired slots are swapped past
    // the live prefix and truncated at epoch end, so every vector stays
    // dense over [0, live()).
    std::vector<std::size_t> ids_;       // original walker index (lex-min key)
    std::vector<rng> main_;              // phase-level stream
    std::vector<rng> path_;              // current phase's tie-coin substream
    std::vector<std::uint32_t> dist_ix_; // index into the run's dist_cache
    std::vector<std::int64_t> x_, y_;    // position at current phase start
    std::vector<std::uint64_t> elapsed_; // steps consumed so far
    std::vector<std::uint64_t> phase_;   // phases begun (1-based substream key)
    // Residue of the phase in progress (total == 0 between phases):
    std::vector<std::uint64_t> total_;   // phase length d
    std::vector<std::uint64_t> j_;       // steps taken within the phase
    std::vector<std::int64_t> adx_, ady_;  // |Δx|, |Δy| of the phase
    std::vector<std::int64_t> sx_, sy_;    // axis signs (±1)
    std::vector<std::int64_t> px_, py_;    // Bresenham replay progress
    std::vector<std::int64_t> destx_, desty_;
    std::vector<std::uint64_t> istar_;   // candidate hit step (0 = none)
    std::vector<std::int64_t> pxt_;      // x-progress the target requires at i*
};

/// Batched structure-of-arrays Lévy-walk engine.
///
/// Holds all in-flight walkers of one trial in one walker_block and
/// advances every live walker one phase per epoch until retirement.
///
/// ## Determinism contract
///
/// Results are bit-exact with the scalar path (`levy_walk` driven by
/// `hit_within` / `parallel_min_hit`) for any epoch quantum, walker count,
/// or host thread count:
///
///  - every walker draws phase-level randomness (jump length, ring
///    destination) from exactly the stream the scalar walk would use —
///    `trial_stream.substream(i)` positioned after the strategy's exponent
///    draw — and path tie coins from the same per-phase substream
///    (`stream.substream(phase_number)`) the scalar walk uses;
///  - the parallel winner is the lexicographic minimum of (hitting time,
///    walker index) over walkers whose time fits the budget, which is
///    provably what the scalar shrinking-budget loop returns; the engine
///    maintains that minimum with an order-independent registration rule
///    (see best_state), so epoch interleaving cannot change the outcome.
///
/// ## Why it is fast
///
/// A direct path is monotone in both axes, and its node at step i is at L1
/// distance exactly i from the phase start. Hence the target can be visited
/// during a phase only if it lies in the bounding box of (start,
/// destination), and then only at the single step i* = ‖target − start‖₁.
/// Phases whose box misses the target are skipped whole in O(1) — no
/// stepping, no tie coins (the per-phase path substream makes the skip
/// RNG-exact); candidate phases replay tie coins only up to i*. Combined
/// with the O(1) alias-table jump sampler for capped runs (see
/// `jump_distribution`'s capped constructor) this removes the per-step
/// costs that dominate the scalar loop on long-jump (small α) workloads.
///
/// For walker counts past RAM, see sim/shard_engine: the out-of-core
/// sharded mode partitions the same walker state into spillable blocks and
/// returns bit-identical results.
class walk_engine {
public:
    walk_engine() = default;
    explicit walk_engine(engine_options opts) noexcept : opts_(opts) {}

    /// One single-walk trial: bit-exact with
    /// `hit_within(levy_walk(alpha, stream, origin, cap), target, budget)`.
    /// `censored` is left false — the caller owns watchdog semantics.
    [[nodiscard]] hit_result run_single(double alpha, point target, std::uint64_t budget,
                                        const rng& stream, std::uint64_t cap = kNoCap);

    /// One parallel trial: bit-exact with `parallel_hit` on the same
    /// arguments (same winner, time, and replayed winner_alpha).
    [[nodiscard]] parallel_result run_parallel(std::size_t k, const exponent_strategy& strategy,
                                               point target, std::uint64_t budget,
                                               const rng& trial_stream, std::uint64_t cap = kNoCap);

    [[nodiscard]] const engine_options& options() const noexcept { return opts_; }

    /// The thread's pooled engine: reuses the SoA buffers and the per-(α,
    /// cap) jump-distribution cache across trials. Each worker thread owns
    /// its instance, so trials never share mutable state across threads.
    [[nodiscard]] static walk_engine& local();

private:
    /// Run all spawned walkers to retirement; returns the lex-min best.
    [[nodiscard]] best_state drive(point target, std::uint64_t budget);

    engine_options opts_{};
    dist_cache dists_;
    walker_block block_;
};

}  // namespace levy::sim
