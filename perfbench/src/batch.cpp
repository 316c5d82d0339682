#include "batch.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/grid/direct_path.h"
#include "src/grid/ring.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rng/jump_distribution.h"
#include "src/sim/walk_engine.h"

namespace perfbench {

using namespace levy;

phase_run run_phase(const phase_plan& plan) {
    phase_run out;
    out.trial_ms.assign(plan.mc.trials, 0.0);
    const bool sharded = plan.cfg.shards > 1 || plan.cfg.memory_budget > 0;
    if (sharded) out.shard.assign(plan.mc.trials, {});
    const double t0 = now_s();
    out.results = sim::monte_carlo_collect(plan.mc, [&](std::size_t i, rng& g) {
        obs::span span("sim.parallel_walk_trial");
        const double start = now_s();
        const parallel_result r = sim::parallel_walk_trial(plan.cfg, g);
        out.trial_ms[i] = (now_s() - start) * 1e3;
        // Each worker owns its pooled engine, so its last_stats() is this trial's.
        if (sharded) out.shard[i] = sim::sharded_walk_engine::local().last_stats();
        return r;
    });
    out.wall_s = now_s() - t0;
    return out;
}

rng trial_stream(const sim::mc_options& mc, std::size_t i) {
    return rng::seeded(mc.seed).substream(i);
}

parallel_result mirror_trial(const sim::parallel_walk_config& cfg, const rng& stream,
                             mirror_stats& stats) {
    const point target = sim::target_at(cfg.ell);
    sim::dist_cache dists;
    dists.reset(cfg.cap);
    sim::walker_block block;
    const double t0 = now_s();
    {
        obs::span span("walk_engine.spawn");
        for (std::size_t i = 0; i < cfg.k; ++i) {
            rng walker = stream.substream(i);
            const double alpha = cfg.strategy(i, walker);
            block.spawn(i, alpha, walker, dists);
        }
    }
    const double t1 = now_s();
    sim::best_state best;
    {
        obs::span span("walk_engine.epoch");
        const sim::engine_options opts{};
        while (block.live() > 0) {
            stats.walker_epochs += block.live();
            ++stats.epochs;
            block.epoch(opts, dists, target, cfg.budget, best);
        }
    }
    stats.spawn_ms += (t1 - t0) * 1e3;
    stats.epoch_ms += (now_s() - t1) * 1e3;
    ++stats.trials;

    parallel_result r;
    r.time = cfg.budget;
    if (best.hit) {
        r.hit = true;
        r.time = best.time;
        r.winner = best.winner;
        rng walker = stream.substream(r.winner);
        r.winner_alpha = cfg.strategy(r.winner, walker);
    }
    return r;
}

bool same_result(const parallel_result& a, const parallel_result& b) {
    std::uint64_t abits = 0;
    std::uint64_t bbits = 0;
    std::memcpy(&abits, &a.winner_alpha, sizeof abits);
    std::memcpy(&bbits, &b.winner_alpha, sizeof bbits);
    return a.hit == b.hit && a.time == b.time && a.winner == b.winner && abits == bbits;
}

std::string describe(const parallel_result& r) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "(hit=%d time=%llu winner=%lld alpha=%.17g)", r.hit ? 1 : 0,
                  static_cast<unsigned long long>(r.time),
                  r.winner == parallel_result::kNoWinner ? -1LL : static_cast<long long>(r.winner),
                  r.winner_alpha);
    return buf;
}

micro_costs time_rng_grid(const std::vector<double>& alphas, std::uint64_t cap,
                          std::uint64_t seed) {
    constexpr std::size_t kDraws = 200'000;
    constexpr std::size_t kLengths = 20'000;
    constexpr std::int64_t kMaxPathLength = 4096;
    micro_costs out;
    rng g = rng::seeded(seed);
    std::uint64_t sink = 0;

    // Jump lengths, as a walker draws them at the start of every phase.
    std::vector<std::int64_t> lengths;  // d >= 1, for the ring and path timers
    double jump_s = 0.0;
    for (std::size_t a = 0; a < alphas.size(); ++a) {
        const jump_distribution dist(alphas[a], cap);
        obs::span span("rng.sample_capped");
        const double t0 = now_s();
        for (std::size_t n = 0; n < kDraws; ++n) sink += dist.sample_capped(g, cap);
        jump_s += now_s() - t0;
        while (lengths.size() < kLengths * (a + 1)) {
            const std::uint64_t d = dist.sample_capped(g, cap);
            if (d >= 1 && d < (std::uint64_t{1} << 40)) lengths.push_back(static_cast<std::int64_t>(d));
        }
    }
    out.jump_ns = jump_s * 1e9 / static_cast<double>(kDraws * alphas.size());

    {
        obs::span span("rng.substream");
        const double t0 = now_s();
        for (std::size_t i = 0; i < kDraws; ++i) {
            rng child = g.substream(i);
            sink += child();
        }
        out.substream_ns = (now_s() - t0) * 1e9 / static_cast<double>(kDraws);
    }

    std::vector<point> dests;
    {
        obs::span span("grid.sample_ring");
        const double t0 = now_s();
        for (const std::int64_t d : lengths) {
            const point p = sample_ring(origin, d, g);
            if (d <= kMaxPathLength) dests.push_back(p);
        }
        out.ring_ns = (now_s() - t0) * 1e9 / static_cast<double>(lengths.size());
    }

    {
        obs::span span("grid.direct_path_stepper");
        std::uint64_t steps = 0;
        const double t0 = now_s();
        for (const point& dest : dests) {
            direct_path_stepper path(origin, dest);
            while (!path.done()) {
                sink += static_cast<std::uint64_t>(path.advance(g).x);
                ++steps;
            }
        }
        out.path_step_ns = steps == 0 ? 0.0 : (now_s() - t0) * 1e9 / static_cast<double>(steps);
    }

    // Keep the sampled values observable so no loop is optimised away.
    static std::atomic<std::uint64_t> keep;
    keep.store(sink, std::memory_order_relaxed);
    return out;
}

std::uint64_t registry_counter(const std::string& name) {
    const auto view = obs::snapshot_metrics();
    const auto it = view.counters.find(name);
    return it == view.counters.end() ? 0 : it->second;
}

double registry_histogram_mean_ms(const std::string& name) {
    const auto view = obs::snapshot_metrics();
    const auto it = view.histograms.find(name);
    if (it == view.histograms.end() || it->second.total() == 0) return 0.0;
    const auto& buckets = it->second.buckets;  // [zeros, 2^0.., 2^63..]
    double sum_ns = 0.0;
    for (std::size_t b = 1; b < buckets.size(); ++b) {
        sum_ns += static_cast<double>(buckets[b]) * 1.5 * std::ldexp(1.0, static_cast<int>(b - 1));
    }
    return sum_ns / static_cast<double>(it->second.total()) / 1e6;
}

void put_trial_latency(outcome& out, const std::vector<std::vector<double>>& batch_trial_ms) {
    std::vector<double> p50;
    std::vector<double> p90;
    for (const std::vector<double>& ms : batch_trial_ms) {
        p50.push_back(median(ms));
        p90.push_back(percentile(ms, 90.0));
    }
    put(out.end_to_end, "latency_p50_ms", percentile(p50, kQuietPercent));
    put(out.end_to_end, "latency_tail_ms", percentile(p90, kQuietPercent));
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "trial latency: lower decile over %zu batches of %zu trials of each batch's p50 / p90",
                  batch_trial_ms.size(), batch_trial_ms.front().size());
    out.note(buf);
}

}  // namespace perfbench
