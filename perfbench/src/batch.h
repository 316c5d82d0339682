#pragma once

// Helpers shared by the two batch workloads (sweep_uncapped, swarm_sharded):
// running one Monte-Carlo phase with per-trial timing, re-running a trial
// through walker_block from outside the engine, and the rng/grid
// micro-timers.

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/core/parallel_search.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/shard_engine.h"
#include "src/sim/trial.h"

namespace perfbench {

/// One Monte-Carlo phase: a trial config and the driver options it runs
/// under (seed, trial count, threads, optional checkpoint journal).
struct phase_plan {
    levy::sim::parallel_walk_config cfg;
    levy::sim::mc_options mc;
};

struct phase_run {
    std::vector<levy::parallel_result> results;
    std::vector<double> trial_ms;                     ///< wall time per trial
    std::vector<levy::sim::shard_run_stats> shard;    ///< sharded configs only
    double wall_s = 0.0;
};

/// Run a phase through sim::monte_carlo_collect + sim::parallel_walk_trial
/// (what sim::parallel_hitting_times does, keeping every trial's full
/// result). Each trial sits in an obs span, a no-op unless tracing.
[[nodiscard]] phase_run run_phase(const phase_plan& plan);

/// The trial stream monte_carlo_collect hands trial `i` of `mc`.
[[nodiscard]] levy::rng trial_stream(const levy::sim::mc_options& mc, std::size_t i);

/// Work counted while re-running a trial through walker_block.
struct mirror_stats {
    double spawn_ms = 0.0;
    double epoch_ms = 0.0;
    std::uint64_t epochs = 0;
    std::uint64_t walker_epochs = 0;  ///< live walkers summed over epochs
    std::uint64_t trials = 0;
};

/// Re-run one parallel trial through walker_block::spawn/epoch and a
/// dist_cache — the in-memory engine's loop, driven from outside — adding
/// its timings and counts to `stats`.
[[nodiscard]] levy::parallel_result mirror_trial(const levy::sim::parallel_walk_config& cfg,
                                                 const levy::rng& stream, mirror_stats& stats);

/// Bit-for-bit equality of (hit, time, winner, winner_alpha).
[[nodiscard]] bool same_result(const levy::parallel_result& a, const levy::parallel_result& b);
[[nodiscard]] std::string describe(const levy::parallel_result& r);

/// Costs of the samplers every walker phase goes through, timed on the
/// workload's own (α, cap) pairs.
struct micro_costs {
    double jump_ns = 0.0;       ///< jump_distribution::sample_capped
    double substream_ns = 0.0;  ///< rng::substream (+ its first draw)
    double ring_ns = 0.0;       ///< sample_ring
    double path_step_ns = 0.0;  ///< direct_path_stepper::advance
};
[[nodiscard]] micro_costs time_rng_grid(const std::vector<double>& alphas, std::uint64_t cap,
                                        std::uint64_t seed);

/// Registry counter value (0 when never registered).
[[nodiscard]] std::uint64_t registry_counter(const std::string& name);

/// Mean of the registry log2 histogram `name` in milliseconds, taking each
/// bucket [2^b, 2^(b+1)) ns at 1.5·2^b (an estimate).
[[nodiscard]] double registry_histogram_mean_ms(const std::string& name);

/// The per-trial latency metrics shared by both batch workloads, from each
/// batch's trial latencies: the kQuietPercent percentile over batches of
/// the batch's median (latency_p50_ms) and of its nearest-rank p90
/// (latency_tail_ms).
void put_trial_latency(outcome& out, const std::vector<std::vector<double>>& batch_trial_ms);

}  // namespace perfbench
