// swarm_sharded — E24's top point: k = 2^20 walkers, ℓ = 64, α*(k, ℓ),
// cap = 64 (alias-table jumps), the out-of-core sharded engine under a
// resident budget of k/8 walkers, sync_rounds = 1, spilling to a fresh
// on-disk directory. A batch is one trial per worker thread; the run
// repeats batches on fresh seeds until its time is up.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "batch.h"
#include "src/core/strategy.h"
#include "src/obs/trace.h"
#include "src/sim/checkpoint.h"
#include "src/sim/walk_engine.h"

namespace perfbench {

using namespace levy;

namespace {

struct swarm_shape {
    std::size_t k = std::size_t{1} << 20;
    std::int64_t ell = 64;
};

sim::parallel_walk_config swarm_config(const swarm_shape& shape, const std::string& spill_dir) {
    sim::parallel_walk_config cfg;
    cfg.k = shape.k;
    cfg.strategy = fixed_exponent(
        optimal_alpha(static_cast<double>(shape.k), static_cast<double>(shape.ell)));
    cfg.ell = shape.ell;
    cfg.budget = static_cast<std::uint64_t>(
        32.0 * (static_cast<double>(shape.ell) * static_cast<double>(shape.ell) /
                    static_cast<double>(shape.k) +
                static_cast<double>(shape.ell)));
    cfg.cap = 64;
    cfg.memory_budget = shape.k / 8 * sim::walker_block::kBytesPerWalker;
    cfg.spill_dir = spill_dir;
    cfg.sync_rounds = 1;
    // E24's residency quantum, budget/64, so reloads actually happen.
    cfg.epoch_steps = std::max<std::uint64_t>(1, cfg.budget / 64);
    return cfg;
}

phase_plan batch_plan(const swarm_shape& shape, const std::string& spill_dir, std::uint64_t seed,
                      std::size_t batch, unsigned threads) {
    phase_plan p;
    p.cfg = swarm_config(shape, spill_dir);
    p.mc.trials = sim::resolve_threads(threads);
    p.mc.threads = threads;
    p.mc.chunk = 1;
    p.mc.seed = derive_seed(seed, batch);
    return p;
}

bool dir_empty(const std::string& dir) {
    std::error_code ec;
    return std::filesystem::is_empty(dir, ec) || ec;
}

}  // namespace

outcome run_swarm_sharded(const run_args& args) {
    outcome out;
    const swarm_shape shape;
    const unsigned threads = sim::resolve_threads(args.threads);
    const std::string spill = args.work_dir + "/spill";

    // --- Setup: pool, spill directory, and one small sharded trial per
    // worker (distribution caches, spill path). Once per process, so cold.
    const double setup0 = now_s();
    std::filesystem::create_directories(spill);
    (void)run_phase(batch_plan(swarm_shape{std::size_t{1} << 14, shape.ell}, spill,
                               derive_seed(args.seed, 0x5e7), 0, threads));
    put(out.end_to_end, "setup_s", now_s() - setup0);
    if (args.setup_only) return out;

    // --- Timed batches (first half untraced when tracing) ---------------------
    sim::reset_metrics();
    const std::uint64_t recomputed0 = registry_counter("shard.recomputed");
    std::vector<phase_plan> plans;
    std::vector<phase_run> runs;
    std::vector<double> rates;
    std::vector<double> untraced_rates;
    const double start = now_s();
    for (std::size_t b = 0;; ++b) {
        if (args.trace && !obs::collecting_spans() && now_s() - start >= args.seconds / 2) {
            untraced_rates = rates;
            rates.clear();
            obs::start_span_collection();
        }
        plans.push_back(batch_plan(shape, spill, args.seed, b, threads));
        {
            obs::span span("swarm.batch");
            runs.push_back(run_phase(plans.back()));
        }
        rates.push_back(static_cast<double>(plans.back().mc.trials) / runs.back().wall_s);
        const bool enough = args.trace ? obs::collecting_spans() : runs.size() >= 2;
        if (now_s() - start >= args.seconds && enough) break;
    }
    const sim::run_metrics pool = sim::metrics_snapshot();
    std::vector<std::vector<double>> batch_ms;
    std::vector<double> trial_ms;
    for (const phase_run& r : runs) {
        batch_ms.push_back(r.trial_ms);
        trial_ms.insert(trial_ms.end(), r.trial_ms.begin(), r.trial_ms.end());
    }
    put(out.end_to_end, "peak_rss_mib", peak_rss_mib());
    put(out.end_to_end, "throughput_per_s", percentile(rates, 100.0 - kQuietPercent));
    put_trial_latency(out, batch_ms);
    char line[160];
    std::snprintf(line, sizeof line, "%zu batches of %zu trials, upper decile of per-batch trials/s",
                  runs.size(), plans.front().mc.trials);
    out.note(line);

    // --- Correctness ----------------------------------------------------------
    for (const phase_plan& p : plans) out.attempted += p.mc.trials;
    const std::uint64_t recomputed = registry_counter("shard.recomputed") - recomputed0;
    if (recomputed != 0) out.fail(std::to_string(recomputed) + " shards recomputed");
    if (!dir_empty(spill)) out.fail("spill files left behind in " + spill);
    // One trial of batch 0, chosen by the seed, re-run in memory.
    const std::size_t pick = static_cast<std::size_t>(args.seed % plans.front().mc.trials);
    const phase_plan& checked = plans.front();
    const rng stream = trial_stream(checked.mc, pick);
    const parallel_result& sharded = runs.front().results[pick];
    const double t0 = now_s();
    const parallel_result in_memory = sim::walk_engine::local().run_parallel(
        checked.cfg.k, checked.cfg.strategy, sim::target_at(checked.cfg.ell), checked.cfg.budget,
        stream, checked.cfg.cap);
    const double in_memory_ms = (now_s() - t0) * 1e3;
    if (!same_result(sharded, in_memory)) {
        out.fail("trial " + std::to_string(pick) + ": sharded " + describe(sharded) +
                 " != in-memory " + describe(in_memory));
    }
    out.note("trial " + std::to_string(pick) + " of batch 0 re-run in memory");

    if (!args.trace) return out;

    // --- Per-layer metrics (traced run) ----------------------------------------
    mirror_stats mirror;
    if (!same_result(mirror_trial(checked.cfg, stream, mirror), sharded)) {
        out.fail("walker_block mirror differs from the sharded run");
    }
    // The same trial alone on this thread, sharded, to price the IO.
    sim::shard_options sopts;
    sopts.memory_budget = checked.cfg.memory_budget;
    sopts.spill_dir = spill + "/alone";
    sopts.sync_rounds = checked.cfg.sync_rounds;
    sopts.epoch_steps = checked.cfg.epoch_steps;
    const double t1 = now_s();
    const parallel_result alone = sim::sharded_walk_engine::local().run_parallel(
        checked.cfg.k, checked.cfg.strategy, sim::target_at(checked.cfg.ell), checked.cfg.budget,
        stream, checked.cfg.cap, sopts);
    const double sharded_ms = (now_s() - t1) * 1e3;
    if (!same_result(alone, sharded)) out.fail("sharded re-run differs from the batch run");

    // One shard-sized atomic write (header-less body of k/shards walkers).
    const std::uint64_t shard_walkers = checked.cfg.memory_budget / sim::walker_block::kBytesPerWalker;
    const std::vector<char> body(shard_walkers * sim::walker_block::kBytesPerWalker, '\x5a');
    std::vector<double> writes;
    for (int rep = 0; rep < 3; ++rep) {
        obs::span span("sim.atomic_write_file");
        const double w0 = now_s();
        sim::atomic_write_file(spill + "/write-probe.bin", body);
        writes.push_back((now_s() - w0) * 1e3);
    }
    std::filesystem::remove(spill + "/write-probe.bin");

    const micro_costs micro = time_rng_grid(
        {optimal_alpha(static_cast<double>(shape.k), static_cast<double>(shape.ell))},
        checked.cfg.cap, derive_seed(args.seed, 0x317));

    sim::shard_run_stats batch0{};
    for (const sim::shard_run_stats& s : runs.front().shard) {
        batch0.rounds += s.rounds;
        batch0.spills += s.spills;
        batch0.loads += s.loads;
        batch0.spilled_bytes += s.spilled_bytes;
        batch0.recomputed += s.recomputed;
        batch0.peak_resident_bytes = std::max(batch0.peak_resident_bytes, s.peak_resident_bytes);
    }

    auto& pl = out.per_layer;
    put(pl, "rng.jump_ns", micro.jump_ns);
    put(pl, "rng.substream_ns", micro.substream_ns);
    put(pl, "grid.ring_ns", micro.ring_ns);
    put(pl, "grid.path_step_ns", micro.path_step_ns);
    put(pl, "walk_engine.spawn_ms", mirror.spawn_ms);
    put(pl, "walk_engine.epoch_ms", mirror.epoch_ms);
    put(pl, "walk_engine.epochs", static_cast<double>(mirror.epochs));
    put(pl, "walk_engine.walker_epochs", static_cast<double>(mirror.walker_epochs));
    put(pl, "walk_engine.ns_per_phase", mirror.epoch_ms * 1e6 / static_cast<double>(mirror.walker_epochs));
    put(pl, "rng.jump_share",
        static_cast<double>(mirror.walker_epochs) * micro.jump_ns / (mirror.epoch_ms * 1e6));
    put(pl, "shard.rounds", static_cast<double>(batch0.rounds));
    put(pl, "shard.spills", static_cast<double>(batch0.spills));
    put(pl, "shard.loads", static_cast<double>(batch0.loads));
    put(pl, "shard.spill_mib", static_cast<double>(batch0.spilled_bytes) / (1024.0 * 1024.0));
    put(pl, "shard.recomputed", static_cast<double>(recomputed));
    put(pl, "shard.peak_resident_mib", static_cast<double>(batch0.peak_resident_bytes) / (1024.0 * 1024.0));
    put(pl, "shard.overhead_ms", sharded_ms - in_memory_ms);
    put(pl, "shard.write_ms", median(writes));
    put(pl, "pool.utilization", pool.utilization());
    put(pl, "pool.trial_ms_p50", median(trial_ms));
    put(pl, "pool.trial_ms_max", percentile(trial_ms, 100.0));
    put(pl, "obs.trace_overhead", median(untraced_rates) / median(rates) - 1.0);
    out.note("shard.* counts: batch 0 (" + std::to_string(plans.front().mc.trials) +
             " trials); walk_engine.*: one mirrored trial; rng.jump_share is an estimate");
    return out;
}

work_counts swarm_smoke_counts(const run_args& args, std::uint64_t& failed) {
    const swarm_shape shape{std::size_t{1} << 14, 64};
    phase_plan p = batch_plan(shape, args.work_dir + "/smoke-spill", args.seed, 0, 4);
    p.mc.threads = args.threads;  // the same four trials at any thread count
    const phase_run run = run_phase(p);
    work_counts counts;
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const sim::shard_run_stats& s = run.shard[i];
        counts["shard.spills"] += s.spills;
        counts["shard.loads"] += s.loads;
        counts["shard.spill_bytes"] += s.spilled_bytes;
        counts["shard.recomputed"] += s.recomputed;
        counts["results.hit_time_sum"] += run.results[i].time;
        mirror_stats mirror;
        failed += same_result(mirror_trial(p.cfg, trial_stream(p.mc, i), mirror), run.results[i]) ? 0 : 1;
    }
    return counts;
}

}  // namespace perfbench
