// E24 — out-of-core scale: a billion walkers on a laptop.
//
// Theorem 1.5's regime of interest is huge k — the paper's point is that a
// swarm of parallel Lévy walkers finds the target in O((ℓ²/k) polylog + ℓ)
// steps, so the interesting sweeps push k far past what fits in RAM as
// in-memory walker state (112 bytes/walker ⇒ k = 10⁹ is ~104 GiB). This bench
// drives the sharded engine (sim/shard_engine) through the same E7-style
// speedup sweep while the resident set stays bounded by --memory-budget,
// and reports the spill/reload traffic alongside the hitting times. The
// results are bit-identical to the in-memory engine at any shard count —
// what this table adds is the IO cost of being out-of-core.
//
// Defaults keep CI-sized runs honest (k up to 2²⁰ under a deliberately
// small budget so eviction actually happens); k grows with --scale⁴, so
// --scale=5.7 reaches k ≈ 10⁹ for the full laptop-scale demonstration.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/strategy.h"
#include "src/core/theory.h"
#include "src/obs/metrics.h"
#include "src/sim/trial.h"
#include "src/sim/walk_engine.h"
#include "src/stats/streaming.h"
#include "src/stats/summary.h"

namespace {

using namespace levy;

std::uint64_t counter_value(const std::map<std::string, std::uint64_t>& counters,
                            const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

void run(const sim::run_options& opts) {
    bench::banner("E24", "Out-of-core sharding: Thm 1.5(a) speedup past RAM",
                  "tau^k = O((ell^2/k) polylog + ell) holds unchanged when walker state "
                  "is sharded to disk; sharding costs IO, never correctness");

    const std::int64_t ell = bench::scaled(64, opts.scale);
    // k sweeps with the fourth power of --scale: doubling the scale is 16×
    // the swarm. scale 1 tops out at 2²⁰ (CI-sized); ~5.7 reaches 10⁹.
    const double kscale = opts.scale * opts.scale * opts.scale * opts.scale;
    std::vector<std::size_t> ks;
    for (const std::size_t base : {std::size_t{1} << 12, std::size_t{1} << 16,
                                   std::size_t{1} << 20}) {
        ks.push_back(static_cast<std::size_t>(bench::scaled(
            static_cast<std::int64_t>(base), kscale)));
    }

    // Sharding defaults: exercise the out-of-core path even when the caller
    // passes no flags — a resident budget of 1/8 of the largest sweep point
    // forces real eviction. Explicit --shards/--memory-budget win.
    sim::run_options sharded = opts;
    if (sharded.shards <= 1 && sharded.memory_budget == 0) {
        sharded.memory_budget =
            ks.back() / 8 * sim::walker_block::kBytesPerWalker;
    }

    // From scale 1 up every point has k >= ell^2, where Thm 1.5(a)'s bound is
    // its +ell term and ell^2/k alone rounds to 0, so the median is read
    // against the universal lower bound ell^2/k + ell, as in E7 and E8.
    stats::text_table table({"k", "alpha*", "hit rate", "cens", "median tau^k",
                             "LB ell^2/k+ell", "p50/LB", "spills", "loads", "recomp",
                             "spill MiB"});
    for (const std::size_t k : ks) {
        const double alpha = optimal_alpha(static_cast<double>(k), static_cast<double>(ell));
        sim::parallel_walk_config cfg;
        cfg.k = k;
        cfg.strategy = fixed_exponent(alpha);
        cfg.ell = ell;
        // Same budget as E7, 32×(ℓ²/k) + 32ℓ. Every trial hits within it at
        // the default scale, but not at every point: at --scale=0.25 (ℓ = 16)
        // the k = 16 row hits in about half of its trials.
        cfg.budget = static_cast<std::uint64_t>(
            32.0 * (static_cast<double>(ell) * static_cast<double>(ell) /
                        static_cast<double>(k) +
                    static_cast<double>(ell)));
        cfg.max_steps = opts.max_trial_steps;
        cfg.cap = opts.cap;
        cfg.engine = opts.engine;
        sharded.apply_sharding(cfg);
        // A residency quantum of budget/64 steps rather than the engine's
        // budget/8. It sets only the IO schedule (results are invariant);
        // since the reach bound retires walkers at the first hit, loads
        // are rare at any quantum (0/0/5 at the default scale).
        if (cfg.epoch_steps == 0) cfg.epoch_steps = std::max<std::uint64_t>(1, cfg.budget / 64);

        const auto before = obs::snapshot_metrics().counters;
        const auto mc = opts.mc(/*default_trials=*/8, /*salt=*/k);
        const auto sample = sim::parallel_hitting_times(cfg, mc);
        const auto after = obs::snapshot_metrics().counters;

        const double med = stats::median(sample.times);
        // A miss is recorded as the budget, so the median is a hitting time
        // only when more than half the trials hit; otherwise it is a lower
        // bound on the median hitting time, and printed as one.
        const std::string at_least = 2 * sample.hits > sample.times.size() ? "" : ">=";
        const double bound =
            theory::universal_lower_bound(static_cast<double>(k), static_cast<double>(ell));
        const double spill_mib =
            static_cast<double>(counter_value(after, "shard.spill_bytes") -
                                counter_value(before, "shard.spill_bytes")) /
            (1024.0 * 1024.0);
        table.add_row(
            {stats::fmt(k), stats::fmt(alpha, 2), stats::fmt(sample.hit_fraction(), 2),
             stats::fmt(sample.censored_fraction(), 2), at_least + stats::fmt(med, 0),
             stats::fmt(bound, 0), at_least + stats::fmt(med / bound, 2),
             stats::fmt(counter_value(after, "shard.spills") -
                        counter_value(before, "shard.spills")),
             stats::fmt(counter_value(after, "shard.loads") -
                        counter_value(before, "shard.loads")),
             stats::fmt(counter_value(after, "shard.recomputed") -
                        counter_value(before, "shard.recomputed")),
             stats::fmt(spill_mib, 1)});
    }
    table.print(std::cout);
    std::cout << "\nReading: the hitting-time columns reproduce E7's speedup law while the\n"
                 "resident set stays under --memory-budget (default: 1/8 of the largest\n"
                 "sweep point); p50/LB near 1 puts the swarm within a constant of the\n"
                 "universal lower bound; a median marked >= is only a lower bound, as\n"
                 "no more than half of that row's trials hit within the budget.\n"
                 "spills/loads are the IO price of being out-of-core, and recomp > 0\n"
                 "would mean corrupt/stale shard files were dropped and replayed\n"
                 "(results are bit-identical to the in-memory engine either way). k\n"
                 "grows with --scale^4: --scale=5.7 is the k ~ 10^9 run.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E24", argc, argv, run); }
