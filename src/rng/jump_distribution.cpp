#include "src/rng/jump_distribution.h"

#include <cmath>
#include <stdexcept>

#include "src/rng/zeta.h"

namespace levy {

jump_distribution::jump_distribution(double alpha) : zipf_(alpha) {
    // zipf_sampler already validated alpha > 1.
    c_ = 1.0 / (2.0 * riemann_zeta(alpha));
}

jump_distribution::jump_distribution(double alpha, std::uint64_t cap)
    : jump_distribution(alpha) {
    // cap == 1 keeps the dedicated shortcut in zipf_sampler::sample_capped
    // (returns 1 without drawing); an alias table there would add a wasted
    // bounded-integer draw per phase.
    if (cap != kNoCap && cap >= 2 && cap <= kAliasCapThreshold) {
        alias_.emplace(alpha, cap);
    }
}

double jump_distribution::pmf(std::uint64_t i) const {
    if (i == 0) return 0.5;
    return c_ * std::pow(static_cast<double>(i), -alpha());
}

double jump_distribution::tail(std::uint64_t i) const {
    if (i == 0) return 1.0;
    return c_ * zeta_tail(i, alpha());
}

double jump_distribution::mean() const {
    if (alpha() <= 2.0) return std::numeric_limits<double>::infinity();
    // Σ_{i≥1} i · c/i^α = c · ζ(α-1).
    return c_ * riemann_zeta(alpha() - 1.0);
}

double jump_distribution::mean_capped(std::uint64_t cap) const {
    if (cap == kNoCap) return mean();
    if (cap == 0) return 0.0;
    // E[d · 1{d ≤ cap}] / P(d ≤ cap), with
    //   E[d · 1{d ≤ cap}] = c · H(cap, α-1)   and   P(d ≤ cap) = 1 - tail(cap+1).
    const double truncated_first_moment = c_ * harmonic(cap, alpha() - 1.0);
    const double mass = 1.0 - tail(cap + 1);
    return truncated_first_moment / mass;
}

double jump_distribution::variance() const {
    if (alpha() <= 3.0) return std::numeric_limits<double>::infinity();
    const double m = mean();
    const double second = c_ * riemann_zeta(alpha() - 2.0);
    return second - m * m;
}

}  // namespace levy
