#pragma once

#include <cstdint>
#include <vector>

#include "src/core/hitting.h"
#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/jump_distribution.h"
#include "src/rng/rng_stream.h"
#include "src/sim/shard_engine.h"

namespace levy::sim {

struct engine_options {
    /// Maximum lattice steps a walker advances inside one epoch before it
    /// suspends mid-phase (0 = always run the phase to completion). Results
    /// are invariant under this knob — it exists so tests can force every
    /// suspension/compaction path — but small quanta cost extra epochs, so
    /// production runs keep the default.
    std::uint64_t epoch_steps = 0;
};

/// Lex-min (hitting time, walker id) accumulator: a block's best, and a
/// trial's merged over its blocks. The registration rule is
/// order-independent — better time wins, equal time goes to the smaller
/// walker index — so epoch interleaving, block order, and resumed block
/// records cannot change the final minimum.
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

/// A parallel trial's result from its lex-min best: the hit time, or the
/// exhausted budget, and the winner's exponent replayed as parallel_hit
/// does (strategy draws are a pure function of trial stream and walker id).
[[nodiscard]] parallel_result parallel_outcome(const best_state& best, std::uint64_t budget,
                                               const exponent_strategy& strategy,
                                               const rng& trial_stream);

/// Per-run jump-distribution cache keyed by (α bit pattern) for the run's
/// cap. Entries keep insertion-order indices, found through a hash of the
/// α bits with the last hit checked first: fixed strategies hit one entry
/// per spawn, while a fresh α per walker (uniform_exponent) adds one entry
/// per walker and must not make spawning quadratic. Shared by every walker
/// block of a run; rebuilds are deterministic, so pooling never affects
/// results.
class dist_cache {
public:
    /// Prepare for a run with this cap: entries for another cap — or an
    /// overgrown cache — are useless, so they are dropped and walkers
    /// rebuild on demand.
    void reset(std::uint64_t cap);

    /// A spawning walker's find-or-create for `alpha`. The second request
    /// for an exponent builds its distribution's pow-free head
    /// (jump_distribution::build_head): the exponent is shared, so its
    /// draws will be many. A per-walker exponent is requested once and
    /// keeps the head-less sampler and its small footprint. The returned
    /// index stays valid until the next reset() (the cache only grows
    /// within a run).
    [[nodiscard]] std::uint32_t index_for(double alpha);

    [[nodiscard]] const jump_distribution& at(std::uint32_t ix) const noexcept {
        return entries_[ix].dist;
    }

    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] std::uint64_t cap() const noexcept { return cap_; }

private:
    struct entry {
        std::uint64_t alpha_bits;
        jump_distribution dist;
    };
    /// Index of the entry for `alpha_bits`, or kEmpty. The last hit's key
    /// is compared first, small enough to inline: a fixed strategy hits it
    /// on every spawn.
    [[nodiscard]] std::uint32_t find(std::uint64_t alpha_bits) noexcept;
    /// find's hashed lookup, past the last hit.
    [[nodiscard]] std::uint32_t probe(std::uint64_t alpha_bits) noexcept;
    /// Append an entry for `alpha_bits` and index it.
    std::uint32_t add(std::uint64_t alpha_bits);
    /// Put entry `ix` in the first free slot of its probe sequence.
    void place(std::uint32_t ix) noexcept;

    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
    std::uint64_t cap_ = kNoCap;
    std::vector<entry> entries_;
    std::vector<std::uint32_t> slots_;  // open addressing, linear probing
    // The last hit: entry last_ has key last_bits_. last_ is kEmpty while
    // there are no entries, so the memo then answers "absent".
    std::uint64_t last_bits_ = 0;
    std::uint32_t last_ = kEmpty;
};

/// Dense block of in-flight walkers, one record per walker — the unit of
/// advancement: walk_engine runs a trial's walker-id blocks through one
/// walker_block, one block at a time (one block per trial in memory).
///
/// A record holds only what determines a walker: id, main RNG stream,
/// exponent, position, elapsed steps, phase count, and the residue of the
/// phase in progress (displacement, steps taken). Phase length,
/// destination, candidate hit step and the phase's tie coins are derived
/// where they are read. A walker that hits, exhausts its allowance, or can
/// no longer reach the target within it retires: the last live record
/// overwrites it.
class walker_block {
public:
    void clear() noexcept { walkers_.clear(); }
    [[nodiscard]] std::size_t live() const noexcept { return walkers_.size(); }
    /// Room for `walkers` records, kept across clear().
    void reserve(std::size_t walkers) { walkers_.reserve(walkers); }

    /// Add walker `id` with exponent `alpha`, its stream positioned after
    /// the strategy's exponent draw (exactly where the scalar walk starts),
    /// not yet advanced.
    void spawn(std::size_t id, double alpha, rng stream, dist_cache& dists);

    /// Spawn walkers lo..hi-1 of a trial: walker i draws its exponent from
    /// `trial_stream.substream(i)`, the same draws as scalar. Spawning is a
    /// walker's first visit: each new walker advances once, as in epoch(),
    /// and is stored only if it survives. Room for hi − lo is reserved
    /// first: a record vector grown by doubling holds its old and new
    /// buffers at once.
    void spawn_range(std::size_t lo, std::size_t hi, const exponent_strategy& strategy,
                     const rng& trial_stream, dist_cache& dists, const engine_options& opts,
                     point target, std::uint64_t allowance_cap, best_state& best);

    /// One epoch: every live walker advances one phase (or `opts.epoch_steps`
    /// chunk), bounded by the lex-min of `allowance_cap` and `best`'s own
    /// record. Hits register into `best`; retired walkers compact away.
    /// `allowance_cap` is a pruning bound only (pass the trial budget, or a
    /// better time already found elsewhere) — it can never change which
    /// lex-min the union of all blocks' bests converges to.
    void epoch(const engine_options& opts, const dist_cache& dists, point target,
               std::uint64_t allowance_cap, best_state& best);

    /// Bytes of one stored walker record — what shard_options::memory_budget
    /// counts.
    static constexpr std::size_t kBytesPerWalker = 112;

private:
    /// One in-flight walker.
    struct walker {
        std::size_t id = 0;         // original walker index (lex-min key)
        rng main;                   // phase-level stream
        std::uint32_t dist_ix = 0;  // index into the run's dist_cache
        std::int64_t x = 0, y = 0;  // position at current phase start
        std::uint64_t elapsed = 0;  // steps consumed so far
        std::uint64_t phase = 0;    // phases begun (1-based substream key)
        // Residue of the phase in progress (dx == dy == 0 between phases):
        std::int64_t dx = 0, dy = 0;  // displacement to the phase destination
        std::uint64_t j = 0;          // steps taken within the phase
    };
    static_assert(sizeof(walker) == kBytesPerWalker);

    /// One visit to `w`: advance it by one phase (or quantum chunk) within
    /// its allowance, the lex-min of `allowance_cap` and `best`'s time; may
    /// register a hit in `best`. Returns true when the walker must retire.
    static bool advance_one(walker& w, const engine_options& opts, const dist_cache& dists,
                            point target, std::uint64_t allowance_cap, best_state& best);

    std::vector<walker> walkers_;  // the live walkers, densely packed
};

/// Batched Lévy-walk engine.
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
///    (see best_state), so epoch interleaving cannot change the outcome;
///  - a walker retired by the reach bound (below) could only have hit
///    after its allowance, so retiring it drops no hit the lex-min keeps.
///
/// ## Why it is fast
///
/// A direct path is monotone in both axes, and its node at step i is at L1
/// distance exactly i from the phase start. Hence the target can be visited
/// during a phase only if it lies in the bounding box of (start,
/// destination), and then only at the single step i* = ‖target − start‖₁.
/// Phases whose box misses the target are skipped whole in O(1) — no
/// stepping, no tie coins (the per-phase path substream makes the skip
/// RNG-exact). A candidate phase replays its tie coins once, from the phase
/// start up to i*, on the visit whose steps reach i*: the coins are a pure
/// function of (walker seed, phase), so a record stores no coin state and
/// a candidate suspended before i* costs nothing. Combined with the O(1)
/// alias-table jump sampler for capped runs (see `jump_distribution`'s
/// capped constructor) this removes the per-step costs that dominate the
/// scalar loop on long-jump (small α) workloads.
///
/// A walk also moves at most one lattice edge per step, so a walker that
/// has used e steps and stands D = ‖target − x‖₁ away cannot hit before
/// step e + D. At each phase start, before any draw, and again when a
/// phase completes within the allowance, a walker retires when e + D
/// exceeds its allowance (the budget, or the best time registered so far):
/// the *reach bound*. It is exact because such a walker could only
/// register a time the lex-min discards, the allowance only shrinks, and
/// its streams are its own. It is strict because a walker that can still
/// tie the best time may win on the smaller id. It sits at phase
/// boundaries because there the stored position is the walker's node;
/// mid-phase, a skipped phase keeps no node to measure from. The check at
/// phase end drops a walker's record in the visit that carried it out of
/// reach, and spawning is a walker's first visit, so a walker whose first
/// phase leaves it out of reach is never stored at all.
/// Once a hit is known the bound retires almost every walker not heading
/// straight for the target.
///
/// ## One driver
///
/// A parallel trial is a loop over walker-id blocks (sim/shard_engine.h):
/// each block is spawned and driven to the end under the allowance
/// min(budget, best so far), and only one is resident. In memory the trial
/// is one block of all k walkers; under shard_options the block count comes
/// from `shards` and `memory_budget`, and a spill directory keeps a journal
/// of finished blocks to resume from. Results are the same either way.
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
    /// arguments (same winner, time, and replayed winner_alpha). In memory:
    /// one block, at this engine's epoch quantum.
    [[nodiscard]] parallel_result run_parallel(std::size_t k, const exponent_strategy& strategy,
                                               point target, std::uint64_t budget,
                                               const rng& trial_stream, std::uint64_t cap = kNoCap);

    /// The same trial out of core: as many blocks as `opts` asks for, at its
    /// quantum, with its journal (sim/shard_engine.h). Same result.
    [[nodiscard]] parallel_result run_parallel(std::size_t k, const exponent_strategy& strategy,
                                               point target, std::uint64_t budget,
                                               const rng& trial_stream, std::uint64_t cap,
                                               const shard_options& opts);

    /// What the most recent run_parallel call did.
    [[nodiscard]] const shard_run_stats& last_stats() const noexcept { return stats_; }

    [[nodiscard]] const engine_options& options() const noexcept { return opts_; }

    /// The thread's pooled engine: reuses the walker block and the per-(α,
    /// cap) jump-distribution cache across trials and blocks. Each worker
    /// thread owns its instance, so trials never share mutable state.
    [[nodiscard]] static walk_engine& local();

private:
    engine_options opts_{};
    dist_cache dists_;
    walker_block block_;
    shard_run_stats stats_{};
};

/// The out-of-core engine is this engine (the name stays for its callers).
using sharded_walk_engine = walk_engine;

}  // namespace levy::sim
