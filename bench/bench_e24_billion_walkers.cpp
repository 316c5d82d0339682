// E24 — out-of-core scale: a billion walkers on a laptop.
//
// The paper's point is that a swarm of parallel Lévy walkers finds the
// target in O((ℓ²/k) polylog + ℓ) steps, so the interesting sweeps push k
// far past what fits in RAM as in-memory walker state (112 bytes/walker ⇒
// k = 10⁹ is ~104 GiB). This bench runs an E7-style speedup sweep out of
// core: each trial is a loop over walker-id blocks, one resident at a time,
// so the resident set stays under --memory-budget (sim/shard_engine.h). It
// reports the blocks run and the journal flushes beside the hitting times.
// The results are bit-identical to the in-memory run at any block count.
//
// Every row has k ≥ ℓ, where α* = 3 − log k / log ℓ ≤ 2 clamps to 2: these
// are Thm 1.5(c)'s ballistic end, not Thm 1.5(a)'s interior (α* ∈ (2, 3)
// only for 1 < k < ℓ). There the median trial hits at or near ℓ = ‖u*‖₁,
// the least time possible, and once a trial's best is ℓ no later block can
// improve it, so the trial stops: `blocks` counts the blocks run.
//
// The default budget is 1/8 of the largest sweep point, capped at 16 MiB:
// up to --scale=1.03 the top point is cut into 8 blocks, and past it the
// block count grows with k. k grows with --scale⁴, so --scale=5.7 reaches
// k ≈ 10⁹ for the full laptop-scale demonstration.

#include <algorithm>
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
    bench::banner("E24", "Out-of-core blocks: Thm 1.5(c)'s ballistic end past RAM",
                  "at k >= ell, alpha* clamps to 2 (Thm 1.5(c)), where tau^k = O(ell) "
                  "once k passes ell polylog ell; that holds unchanged when the walkers "
                  "run as blocks, one resident at a time; blocks cost time, never "
                  "correctness");

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

    // Out-of-core defaults: exercise the block loop even when the caller
    // passes no flags — a resident budget of 1/8 of the largest sweep point,
    // at most 16 MiB, cuts it into blocks. Explicit --shards/--memory-budget
    // win.
    sim::run_options sharded = opts;
    if (sharded.shards <= 1 && sharded.memory_budget == 0) {
        sharded.memory_budget = std::min<std::uint64_t>(
            ks.back() / 8 * sim::walker_block::kBytesPerWalker, std::uint64_t{16} << 20);
    }

    // From scale 1 up every point has k >= ell^2, where the bound is its +ell
    // term and ell^2/k alone rounds to 0, so the median is read against the
    // universal lower bound ell^2/k + ell, as in E7 and E8.
    stats::text_table table({"k", "alpha*", "hit rate", "cens", "median tau^k",
                             "LB ell^2/k+ell", "p50/LB", "blocks", "flushes"});
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
        const auto delta = [&](const std::string& name) {
            return counter_value(after, name) - counter_value(before, name);
        };
        table.add_row(
            {stats::fmt(k), stats::fmt(alpha, 2), stats::fmt(sample.hit_fraction(), 2),
             stats::fmt(sample.censored_fraction(), 2), at_least + stats::fmt(med, 0),
             stats::fmt(bound, 0), at_least + stats::fmt(med / bound, 2),
             stats::fmt(delta("shard.blocks")), stats::fmt(delta("shard.flushes"))});
    }
    table.print(std::cout);
    std::cout << "\nReading: every row has k >= ell, where alpha* = 3 - log k/log ell\n"
                 "clamps to 2: Thm 1.5(c)'s ballistic end, not 1.5(a)'s interior. The\n"
                 "resident set stays under --memory-budget (default: 1/8 of the largest\n"
                 "sweep point, at most 16 MiB); p50/LB near 1 puts the swarm within a\n"
                 "constant of the universal lower bound; a median marked >= is only a\n"
                 "lower bound, as no more than half of that row's trials hit within the\n"
                 "budget. blocks counts the walker-id blocks the row's trials ran, one\n"
                 "resident at a time; fewer run once a trial's best is ell, since no\n"
                 "walk hits sooner and a tie goes to the smaller id. flushes counts\n"
                 "block-journal writes, made only with --spill-dir (results are\n"
                 "bit-identical to the in-memory run either way). k grows with\n"
                 "--scale^4: --scale=5.7 is the k ~ 10^9 run.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E24", argc, argv, run); }
