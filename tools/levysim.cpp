// levysim — command-line driver for the library.
//
// Subcommands:
//   levysim walk     --alpha=A --steps=N [--seed=X]          trajectory CSV to stdout
//   levysim hit      --alpha=A --ell=L --budget=B [--trials=N] [--seed=X]
//   levysim parallel --k=K --ell=L --budget=B [--alpha=A | --random] [--trials=N]
//   levysim sweep    --k=K --ell=L [--trials=N]              alpha sweep table
//   levysim occupancy --alpha=A --steps=T [--radius=R]       exact DP heatmap
//
// Everything is reproducible per --seed; see README for the library API.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/analysis/occupancy.h"
#include "src/core/levy_walk.h"
#include "src/core/parallel_search.h"
#include "src/core/strategy.h"
#include "src/sim/experiment.h"
#include "src/sim/monte_carlo.h"
#include "src/sim/trial.h"
#include "src/stats/summary.h"
#include "src/stats/table.h"
#include "tools/arg_map.h"

namespace {

using namespace levy;
using tools::arg_map;

int cmd_walk(int argc, char** argv) {
    const arg_map args(argc, argv, 2, {"alpha", "steps", "seed"});
    const double alpha = args.get("alpha", 2.5);
    const auto steps = args.get<std::uint64_t>("steps", 1000);
    const auto seed = args.get<std::uint64_t>("seed", sim::kDefaultSeed);
    levy_walk w(alpha, rng::seeded(seed));
    std::cout << "step,x,y,phase\n0,0,0,0\n";
    for (std::uint64_t t = 1; t <= steps; ++t) {
        const point p = w.step();
        std::cout << t << ',' << p.x << ',' << p.y << ',' << w.phases() << '\n';
    }
    return 0;
}

int cmd_hit(int argc, char** argv) {
    const arg_map args(argc, argv, 2, {"alpha", "ell", "budget", "trials", "seed"});
    sim::single_walk_config cfg;
    cfg.alpha = args.get("alpha", 2.5);
    cfg.ell = args.get<std::int64_t>("ell", 64);
    cfg.budget = args.get<std::uint64_t>("budget", 100000);
    const auto trials = args.get<std::size_t>("trials", 1000);
    const auto seed = args.get<std::uint64_t>("seed", sim::kDefaultSeed);
    const auto p = sim::single_hit_probability(cfg, {.trials = trials, .threads = 0, .seed = seed});
    std::cout << "P(tau_" << cfg.alpha << " <= " << cfg.budget << ") for ell=" << cfg.ell
              << ": " << p.estimate() << "  (95% CI [" << p.lo << ", " << p.hi << "], "
              << p.successes << "/" << p.trials << " trials)\n";
    return 0;
}

int cmd_parallel(int argc, char** argv) {
    const arg_map args(argc, argv, 2, {"k", "ell", "budget", "alpha", "random", "trials", "seed"});
    sim::parallel_walk_config cfg;
    cfg.k = args.get<std::size_t>("k", 32);
    cfg.ell = args.get<std::int64_t>("ell", 64);
    cfg.budget = args.get<std::uint64_t>("budget", 100000);
    cfg.strategy = args.has("random")
                       ? uniform_exponent()
                       : fixed_exponent(args.get("alpha", optimal_alpha(
                                                              static_cast<double>(cfg.k),
                                                              static_cast<double>(cfg.ell))));
    const auto trials = args.get<std::size_t>("trials", 200);
    const auto seed = args.get<std::uint64_t>("seed", sim::kDefaultSeed);
    const auto sample =
        sim::parallel_hitting_times(cfg, {.trials = trials, .threads = 0, .seed = seed});
    std::cout << "k=" << cfg.k << " ell=" << cfg.ell << " budget=" << cfg.budget
              << (args.has("random") ? " strategy=U(2,3)" : " strategy=fixed") << "\n"
              << "hit rate: " << sample.hit_fraction()
              << ", median tau^k: " << stats::median(sample.times)
              << ", mean: " << stats::summarize(sample.times).mean() << "\n";
    return 0;
}

int cmd_sweep(int argc, char** argv) {
    const arg_map args(argc, argv, 2, {"k", "ell", "trials", "seed"});
    const auto k = args.get<std::size_t>("k", 32);
    const auto ell = args.get<std::int64_t>("ell", 128);
    const auto trials = args.get<std::size_t>("trials", 60);
    const auto seed = args.get<std::uint64_t>("seed", sim::kDefaultSeed);
    const double alpha_star = optimal_alpha(static_cast<double>(k), static_cast<double>(ell));
    stats::text_table table({"alpha", "hit rate", "median tau^k"});
    for (double alpha = 2.05; alpha < 3.0; alpha += 0.1) {
        sim::parallel_walk_config cfg;
        cfg.k = k;
        cfg.ell = ell;
        cfg.budget = static_cast<std::uint64_t>(ell) * static_cast<std::uint64_t>(ell);
        cfg.strategy = fixed_exponent(alpha);
        const auto sample = sim::parallel_hitting_times(
            cfg, {.trials = trials, .threads = 0,
                  .seed = mix64(seed, static_cast<std::uint64_t>(alpha * 1000))});
        table.add_row({stats::fmt(alpha, 2), stats::fmt(sample.hit_fraction(), 2),
                       stats::fmt(stats::median(sample.times), 0)});
    }
    table.print(std::cout);
    std::cout << "alpha*(k, ell) = " << stats::fmt(alpha_star, 3) << "\n";
    return 0;
}

int cmd_occupancy(int argc, char** argv) {
    const arg_map args(argc, argv, 2, {"alpha", "steps", "radius"});
    const double alpha = args.get("alpha", 2.5);
    const auto steps = args.get<std::uint64_t>("steps", 4);
    const auto radius = args.get<std::int64_t>("radius", 10);
    analysis::flight_occupancy occ(alpha, radius);
    occ.advance(steps);
    // Log-scale ASCII heatmap: darker = more probable.
    static constexpr char kShades[] = " .:-=+*#%@";
    for (std::int64_t y = radius; y >= -radius; --y) {
        for (std::int64_t x = -radius; x <= radius; ++x) {
            const double p = occ.probability({x, y});
            int shade = 0;
            if (p > 0.0) {
                shade = static_cast<int>(10.0 + std::log10(p));  // 1e-10..1 -> 0..9
                shade = std::clamp(shade, 1, 9);
            }
            std::cout << kShades[shade];
        }
        std::cout << '\n';
    }
    std::cout << "exact P(L_" << steps << " = 0) = " << occ.probability(origin)
              << ", escaped mass " << occ.escaped() << " (log10 shading, '@' ~ 1)\n";
    return 0;
}

void usage() {
    std::cout <<
        "levysim <command> [--flag=value ...]\n"
        "  walk       --alpha --steps --seed            trajectory CSV\n"
        "  hit        --alpha --ell --budget --trials   single-walk hit probability\n"
        "  parallel   --k --ell --budget [--random|--alpha] --trials\n"
        "  sweep      --k --ell --trials                exponent sweep table\n"
        "  occupancy  --alpha --steps --radius          exact DP heatmap\n";
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) {
            usage();
            return 2;
        }
        const std::string_view cmd = argv[1];
        int rc = 2;
        if (cmd == "walk") {
            rc = cmd_walk(argc, argv);
        } else if (cmd == "hit") {
            rc = cmd_hit(argc, argv);
        } else if (cmd == "parallel") {
            rc = cmd_parallel(argc, argv);
        } else if (cmd == "sweep") {
            rc = cmd_sweep(argc, argv);
        } else if (cmd == "occupancy") {
            rc = cmd_occupancy(argc, argv);
        } else {
            usage();
        }
        // Throughput goes to stderr so the CSV-emitting commands stay clean.
        const auto metrics = sim::metrics_snapshot();
        if (rc == 0 && metrics.trials > 0) {
            std::cerr << sim::format_throughput(metrics) << '\n';
        }
        return rc;
    } catch (const std::exception& e) {
        std::cerr << "levysim: " << e.what() << '\n';
        return 1;
    }
}
