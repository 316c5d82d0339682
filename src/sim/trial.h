#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/hitting.h"
#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/grid/point.h"
#include "src/rng/jump_distribution.h"
#include "src/sim/monte_carlo.h"
#include "src/stats/proportion.h"
#include "src/stats/summary.h"

namespace levy::sim {

/// Canonical target at distance ℓ: u* = (ℓ, 0). The lattice is symmetric
/// under the dihedral group, so any fixed direction is representative;
/// tests/integration/symmetry_test.cpp spot-checks that rotations agree.
[[nodiscard]] constexpr point target_at(std::int64_t ell) noexcept { return {ell, 0}; }

/// Which simulation engine runs walk trials. Both produce bit-identical
/// results for the same config and stream (guarded by
/// tests/sim/walk_engine_test.cpp); `batch` is the default because it skips
/// non-candidate phases in O(1) (see sim/walk_engine.h), `scalar` remains
/// the step-by-step reference implementation.
enum class engine_kind : std::uint8_t {
    scalar,  ///< levy_walk stepped through hit_within / parallel_min_hit
    batch,   ///< batched epoch engine (sim/walk_engine)
};

/// --- Single-walk experiments (Theorems 1.1–1.3) -------------------------

struct single_walk_config {
    double alpha = 2.5;
    std::int64_t ell = 64;        ///< target distance ‖u*‖₁
    std::uint64_t budget = 0;     ///< step budget t
    std::uint64_t cap = kNoCap;   ///< optional jump-length cap
    /// Watchdog: hard per-trial step cap (0 = run the full budget). A trial
    /// truncated below `budget` that did not hit returns `censored = true`
    /// — heavy-tailed trials get cut off loudly instead of hanging a sweep
    /// or silently biasing means. Deterministic (steps, not wall clock), so
    /// checkpoint/resume stays bit-identical.
    std::uint64_t max_steps = 0;
    /// Engine choice (results are engine-independent; see engine_kind).
    engine_kind engine = engine_kind::batch;
};

/// One trial: a fresh Lévy walk from the origin vs u* = (ℓ, 0).
[[nodiscard]] hit_result single_walk_trial(const single_walk_config& cfg, rng stream);

/// Monte-Carlo estimate of P(τ_α(u*) ≤ budget).
[[nodiscard]] stats::proportion single_hit_probability(const single_walk_config& cfg,
                                                       const mc_options& opts);

/// Same for a Lévy *flight* (time measured in jumps) — Lemma 4.5 territory.
[[nodiscard]] hit_result single_flight_trial(const single_walk_config& cfg, rng stream);
[[nodiscard]] stats::proportion flight_hit_probability(const single_walk_config& cfg,
                                                       const mc_options& opts);

/// --- Parallel experiments (Theorems 1.5, 1.6) ---------------------------

struct parallel_walk_config {
    std::size_t k = 16;
    exponent_strategy strategy = fixed_exponent(2.5);
    std::int64_t ell = 64;
    std::uint64_t budget = 0;
    std::uint64_t cap = kNoCap;
    /// Watchdog step cap, as in single_walk_config (0 = full budget).
    std::uint64_t max_steps = 0;
    /// Engine choice (results are engine-independent; see engine_kind).
    engine_kind engine = engine_kind::batch;
    /// Out-of-core sharding (batch engine only; see sim/shard_engine.h):
    /// shards > 1 or memory_budget > 0 routes each trial through the
    /// sharded engine — bit-identical results, bounded resident memory.
    std::size_t shards = 0;
    std::uint64_t memory_budget = 0;  ///< resident bytes cap (0 = unlimited)
    std::string spill_dir;            ///< shard spill/resume dir ("" = temp)
    /// Durable-spill cadence in rounds (shard_options::sync_rounds): 0 spills
    /// only on eviction — faster, but a crash loses the whole trial.
    std::size_t sync_rounds = 1;
    /// Steps per shard residency (shard_options::epoch_steps; 0 = the
    /// engine's budget/8 default). Results are invariant under it.
    std::uint64_t epoch_steps = 0;
};

/// One trial of τ^k against u* = (ℓ, 0).
[[nodiscard]] parallel_result parallel_walk_trial(const parallel_walk_config& cfg, rng stream);

/// Monte-Carlo estimate of P(τ^k ≤ budget).
[[nodiscard]] stats::proportion parallel_hit_probability(const parallel_walk_config& cfg,
                                                         const mc_options& opts);

/// Hitting-time sample (misses recorded as the budget) plus the hit count;
/// the benches report medians/means of this censored sample.
struct hitting_time_sample {
    std::vector<double> times;       ///< per-trial τ^k, censored at budget
    std::uint64_t hits = 0;
    /// Trials the watchdog truncated below the intended budget without a
    /// hit (their `times` entry is the truncated step count). Benches
    /// report this as a censored-fraction column.
    std::uint64_t censored = 0;
    [[nodiscard]] double hit_fraction() const noexcept {
        return times.empty() ? 0.0
                             : static_cast<double>(hits) / static_cast<double>(times.size());
    }
    [[nodiscard]] double censored_fraction() const noexcept {
        return times.empty() ? 0.0
                             : static_cast<double>(censored) / static_cast<double>(times.size());
    }
};

[[nodiscard]] hitting_time_sample parallel_hitting_times(const parallel_walk_config& cfg,
                                                         const mc_options& opts);

}  // namespace levy::sim
