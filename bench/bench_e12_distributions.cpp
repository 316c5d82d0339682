// E12 — the distributional facts the analysis is built on:
//   (a) Eq. (4):    P(d >= i) = Θ(1/i^{α−1})               (jump tail)
//   (b) Lemma 3.2:  direct-path intermediate marginals sit in the
//                   [(i/d)⌊d/i⌋/4i, (i/d)⌈d/i⌉/4i] band
//   (c) Cor. 3.6:   P(visit u* during one jump-phase) = Θ(1/d^α)
// Each sub-experiment prints measured vs predicted exponents/bands.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/levy_walk.h"
#include "src/grid/direct_path.h"
#include "src/grid/ring.h"
#include "src/rng/jump_distribution.h"
#include "src/sim/monte_carlo.h"
#include "src/stats/regression.h"

namespace {

using namespace levy;

void jump_tail(const sim::run_options& opts) {
    std::cout << "--- (a) Eq. 4: jump tail exponent ---\n";
    stats::text_table table({"alpha", "samples", "tail exponent (fit)", "paper -(alpha-1)",
                             "r2"});
    for (const double alpha : {1.5, 2.0, 2.5, 3.5}) {
        const jump_distribution jd(alpha);
        rng g = rng::seeded(opts.seed + static_cast<std::uint64_t>(alpha * 100));
        const std::size_t n = opts.trials != 0 ? opts.trials : 1000000;
        std::vector<std::uint64_t> thresholds = {4, 8, 16, 32, 64, 128};
        std::vector<std::uint64_t> counts(thresholds.size(), 0);
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t d = jd.sample(g);
            for (std::size_t j = 0; j < thresholds.size(); ++j) counts[j] += (d >= thresholds[j]);
        }
        std::vector<double> xs, ys;
        for (std::size_t j = 0; j < thresholds.size(); ++j) {
            xs.push_back(static_cast<double>(thresholds[j]));
            ys.push_back(static_cast<double>(counts[j]) / static_cast<double>(n));
        }
        const auto fit = stats::loglog_fit(xs, ys);
        table.add_row({stats::fmt(alpha, 2), stats::fmt(n), stats::fmt(fit.slope, 3),
                       stats::fmt(-(alpha - 1.0), 3), stats::fmt(fit.r_squared, 4)});
    }
    table.print(std::cout);
}

void path_band(const sim::run_options& opts) {
    std::cout << "\n--- (b) Lemma 3.2: direct-path marginal band (d = 12) ---\n";
    const std::int64_t d = 12;
    const std::size_t n = opts.trials != 0 ? opts.trials : 300000;
    stats::text_table table({"i", "min freq", "max freq", "band lo", "band hi", "inside?"});
    for (const std::int64_t i : {3L, 5L, 6L, 8L, 9L}) {
        rng g = rng::seeded(opts.seed + static_cast<std::uint64_t>(i));
        std::vector<std::uint64_t> counts(ring_size(i), 0);
        for (std::size_t trial = 0; trial < n; ++trial) {
            const point v = sample_ring(origin, d, g);
            direct_path_stepper s(origin, v);
            point ui = origin;
            // g is dedicated to this path sample: there is no main stream to
            // protect from the stepper's data-dependent tie coins.
            for (std::int64_t step = 0; step < i; ++step) ui = s.advance(g);
            ++counts[ring_index(origin, ui)];
        }
        const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
        const double fmin = static_cast<double>(*mn) / static_cast<double>(n);
        const double fmax = static_cast<double>(*mx) / static_cast<double>(n);
        const double id = static_cast<double>(i) / static_cast<double>(d);
        const double lo = id * std::floor(1.0 / id) / (4.0 * static_cast<double>(i));
        const double hi = id * std::ceil(1.0 / id) / (4.0 * static_cast<double>(i));
        const double slack = 4.0 * std::sqrt(hi / static_cast<double>(n));
        const bool inside = fmin >= lo - slack && fmax <= hi + slack;
        table.add_row({stats::fmt(i), stats::fmt(fmin, 5), stats::fmt(fmax, 5),
                       stats::fmt(lo, 5), stats::fmt(hi, 5), inside ? "yes" : "NO"});
    }
    table.print(std::cout);
}

void phase_visit(const sim::run_options& opts) {
    std::cout << "\n--- (c) Cor 3.6: per-phase visit probability Theta(1/d^alpha) ---\n";
    const double alpha = 2.5;
    stats::text_table table({"d", "trials", "P(visit in phase 1)", "fit exponent", "paper"});
    std::vector<double> xs, ys;
    for (const std::int64_t d : {2L, 4L, 8L, 16L}) {
        const std::size_t n = (opts.trials != 0 ? opts.trials : 1000000) *
                              static_cast<std::size_t>(d >= 8 ? 4 : 1);
        const auto mc = sim::mc_options{.trials = n, .threads = opts.threads,
                                        .seed = opts.seed + static_cast<std::uint64_t>(d)};
        const point target{d, 0};
        const auto hits = sim::monte_carlo_collect(mc, [&](std::size_t, rng& g) {
            levy_walk w(alpha, g);
            w.step();  // begins phase 1
            if (w.position() == target) return 1;
            while (w.in_phase()) {
                if (w.step() == target) return 1;
            }
            return 0;
        });
        std::uint64_t count = 0;
        for (int h : hits) count += h;
        const double p = static_cast<double>(count) / static_cast<double>(n);
        xs.push_back(static_cast<double>(d));
        ys.push_back(p);
        table.add_row({stats::fmt(d), stats::fmt(n), stats::fmt_sci(p), "", ""});
    }
    const auto fit = stats::loglog_fit(xs, ys);
    table.add_row({"fit", "-", "-", stats::fmt(fit.slope, 3),
                   stats::fmt(-alpha, 2) + " (=-alpha)"});
    table.print(std::cout);
}

void run(const sim::run_options& opts) {
    bench::banner("E12", "distributional ingredients: Eq. 4, Lemma 3.2, Cor 3.6",
                  "tail exponent alpha-1; path marginals in the lemma band; per-phase "
                  "visit probability 1/d^alpha");
    {
        LEVY_SPAN("jump_tail");
        jump_tail(opts);
    }
    {
        LEVY_SPAN("path_band");
        path_band(opts);
    }
    {
        LEVY_SPAN("phase_visit");
        phase_visit(opts);
    }
    std::cout << "\nReading: all three measured exponents/bands should match the paper's\n"
                 "predictions to within sampling noise.\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E12", argc, argv, run); }
