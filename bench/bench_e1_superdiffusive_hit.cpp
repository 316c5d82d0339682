// E1 — Theorem 1.1(a) / 4.1(a): super-diffusive single-walk hitting.
//
// For α ∈ (2,3) and a target at distance ℓ, a single Lévy walk given
// t = Θ(ℓ^{α−1}) steps hits with probability Ω(1 / (ℓ^{3−α} log² ℓ)).
// We measure P(τ_α ≤ c·ℓ^{α−1}) over a grid of ℓ for several α and compare
// the log-log slope in ℓ against the predicted exponent −(3−α)
// (the polylog factor flattens the fit slightly below the clean power law).

#include <cmath>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/stats/regression.h"
#include "src/core/theory.h"
#include "src/sim/trial.h"

namespace {

using namespace levy;

void run(const sim::run_options& opts) {
    bench::banner("E1", "Thm 1.1(a): super-diffusive hitting probability",
                  "P(tau_alpha <= c*ell^(alpha-1)) = Omega(1/(ell^(3-alpha) log^2 ell))");

    const std::vector<double> alphas = {2.25, 2.5, 2.75};
    std::vector<std::int64_t> ells;
    for (std::int64_t e = 16; e <= 256; e *= 2) ells.push_back(bench::scaled(e, opts.scale));
    constexpr double kBudgetFactor = 4.0;

    stats::text_table table({"alpha", "ell", "budget", "trials", "P(hit) ± ci",
                             "paper shape", "meas/shape"});

    for (const double alpha : alphas) {
        std::vector<double> xs, ys;
        for (const std::int64_t ell : ells) {
            const auto budget = static_cast<std::uint64_t>(
                kBudgetFactor * theory::t_ell(alpha, static_cast<double>(ell)));
            const sim::single_walk_config cfg{.alpha = alpha, .ell = ell, .budget = budget,
                                              .cap = opts.cap,
                                              .max_steps = opts.max_trial_steps,
                                              .engine = opts.engine};
            const auto mc = opts.mc(/*default_trials=*/2000,
                                    /*salt=*/static_cast<std::uint64_t>(ell) * 1000 +
                                        static_cast<std::uint64_t>(alpha * 100));
            const auto p = sim::single_hit_probability(cfg, mc);
            const double shape =
                theory::superdiffusive_hit_prob(alpha, static_cast<double>(ell));
            table.add_row({stats::fmt(alpha, 2), stats::fmt(ell), stats::fmt(budget),
                           stats::fmt(mc.trials),
                           stats::fmt_pm(p.estimate(), (p.hi - p.lo) / 2, 4),
                           stats::fmt_sci(shape), stats::fmt(p.estimate() / shape, 2)});
            xs.push_back(static_cast<double>(ell));
            ys.push_back(p.estimate());
        }
        const auto fit = stats::loglog_fit(xs, ys);
        // ± is the 95% CI of the fitted slope (residual standard error), so
        // levyreport can tell exponent drift from sampling noise.
        table.add_row({stats::fmt(alpha, 2), "slope", "-", "-",
                       stats::fmt_pm(fit.slope, 1.96 * fit.slope_std_error, 3) + " (fit)",
                       stats::fmt(-(3.0 - alpha), 3) + " (paper)",
                       "r2=" + stats::fmt(fit.r_squared, 3)});
        table.add_separator();
    }
    table.print(std::cout);
    std::cout << "\nReading: per alpha, the fitted slope of P(hit) vs ell should track\n"
                 "-(3-alpha) (within the log^2 ell correction the theorem carries).\n";
}

}  // namespace

int main(int argc, char** argv) { return levy::bench::run_main("E1", argc, argv, run); }
