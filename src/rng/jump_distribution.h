#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "src/rng/rng_stream.h"
#include "src/rng/zipf.h"

namespace levy {

/// No jump-length cap (the default for uncapped processes).
inline constexpr std::uint64_t kNoCap = std::numeric_limits<std::uint64_t>::max();

/// The paper's jump-length law (Eq. 3):
///
///     P(d = 0) = 1/2,        P(d = i) = c_α / i^α   for i ≥ 1,
///
/// with normalizer c_α = 1 / (2 ζ(α)). Conditioned on d ≥ 1 this is exactly
/// Zipf(α), so sampling mixes a fair coin with the exact Devroye sampler.
///
/// Also exposes the closed-form quantities the analysis uses:
/// the tail P(d ≥ i) = Θ(1/i^{α-1}) (Eq. 4), the mean (finite iff α > 2),
/// and capped sampling P(· | d ≤ cap) as needed by the capped Lévy flight
/// of Lemma 4.5.
class jump_distribution {
public:
    /// α must exceed 1 (Remark 3.5 allows any α ≥ 1 + ε); throws otherwise.
    explicit jump_distribution(double alpha);

    /// As above, but *prepared* for drawing conditioned on d ≤ cap: for
    /// 2 ≤ cap ≤ kAliasCapThreshold an O(cap) Walker alias table is built
    /// once and `sample_capped(g, cap)` then draws in O(1) instead of
    /// running Devroye rejection + inverse-CDF fallback. The selection is a
    /// pure function of (α, cap), so any two distributions constructed with
    /// the same pair consume identical randomness — the scalar walk and the
    /// batched engine rely on this for bit-exact parity.
    jump_distribution(double alpha, std::uint64_t cap);

    /// Caps up to this build the alias fast path (above it, table setup
    /// would dominate short walks; the rejection sampler stays O(1) memory).
    static constexpr std::uint64_t kAliasCapThreshold = 4096;

    /// Draw a jump length.
    [[nodiscard]] std::uint64_t sample(rng& g) const {
        return g.coin() ? 0 : zipf_(g);
    }

    /// Draw conditioned on d ≤ cap. Uses the alias table iff this
    /// distribution was prepared for exactly this cap (see the capped
    /// constructor); the RNG draw pattern differs between the two paths, so
    /// replayers must construct their distribution the same way.
    [[nodiscard]] std::uint64_t sample_capped(rng& g, std::uint64_t cap) const {
        if (cap == kNoCap) return sample(g);
        if (g.coin()) return 0;
        if (alias_ && alias_->cap() == cap) return (*alias_)(g);
        return zipf_.sample_capped(g, cap);
    }

    /// Build the Zipf sampler's pow-free head (zipf_sampler::build_head)
    /// for a distribution that will draw many times. Draws are unchanged
    /// value for value; a no-op when alias-prepared, since its capped
    /// draws never reach the rejection loop.
    void build_head() {
        if (!alias_) zipf_.build_head();
    }

    [[nodiscard]] bool has_head() const noexcept { return zipf_.has_head(); }

    /// True when `sample_capped(g, cap)` would take the alias fast path.
    [[nodiscard]] bool uses_alias(std::uint64_t cap) const noexcept {
        return alias_.has_value() && alias_->cap() == cap;
    }

    /// P(d = i).
    [[nodiscard]] double pmf(std::uint64_t i) const;

    /// Tail P(d ≥ i). Equals 1 for i = 0.
    [[nodiscard]] double tail(std::uint64_t i) const;

    /// E[d]; +infinity when α ≤ 2.
    [[nodiscard]] double mean() const;

    /// E[d | d ≤ cap], the conditional mean the capped processes see.
    [[nodiscard]] double mean_capped(std::uint64_t cap) const;

    /// Var(d); +infinity when α ≤ 3.
    [[nodiscard]] double variance() const;

    /// The normalizer c_α = 1/(2 ζ(α)).
    [[nodiscard]] double normalizer() const noexcept { return c_; }

    [[nodiscard]] double alpha() const noexcept { return zipf_.alpha(); }

private:
    double c_;
    zipf_sampler zipf_;
    std::optional<zipf_alias_sampler> alias_;  // engaged by the capped ctor
};

}  // namespace levy
