#pragma once

#include <cstdint>
#include <limits>

#include "src/rng/splitmix64.h"
#include "src/rng/xoshiro256pp.h"

namespace levy {

/// A random stream: an xoshiro256++ engine plus the convenience draws the
/// library needs (uniform reals, unbiased bounded integers, coins).
///
/// Streams are cheap values (32 bytes of state); processes own their stream
/// so that every simulated agent is an independent, reproducible source of
/// randomness. Derive hierarchies of independent streams with `substream`:
///
///     rng master = rng::seeded(42);
///     rng trial  = master.substream(trial_index);
///     rng walk   = trial.substream(walk_index);
///
/// Substream derivation is a pure function of (seed path), never of how many
/// numbers were drawn, so parallel schedules cannot perturb results.
class rng {
public:
    using result_type = std::uint64_t;

    /// Stream keyed by a single 64-bit seed.
    [[nodiscard]] static rng seeded(std::uint64_t seed) noexcept { return rng(seed); }

    /// An independent stream derived from this stream's *seed* and `index`.
    /// Does not consume randomness from, nor depend on the position of,
    /// this stream.
    [[nodiscard]] rng substream(std::uint64_t index) const noexcept {
        return rng(mix64(seed_, index));
    }

    std::uint64_t operator()() noexcept { return engine_(); }

    /// Uniform double in [0, 1) with 53 random bits.
    double uniform() noexcept {
        return static_cast<double>(uniform_bits()) * 0x1.0p-53;
    }

    /// The 53 random bits behind uniform(): from the same stream state,
    /// uniform() == uniform_bits() · 2⁻⁵³, so a caller can test the uniform
    /// in integers and still convert it when it must.
    std::uint64_t uniform_bits() noexcept { return engine_() >> 11; }

    /// Uniform double in (0, 1]; never returns 0 (safe for log/pow(-x)).
    double uniform_positive() noexcept {
        return static_cast<double>((engine_() >> 11) + 1) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Unbiased uniform integer in [0, n) via Lemire's method. n must be > 0.
    /// The one multiply is inline; the rare retry (low word below n) is not.
    std::uint64_t below(std::uint64_t n) noexcept {
        const __uint128_t m = static_cast<__uint128_t>(engine_()) * n;
        const auto lo = static_cast<std::uint64_t>(m);
        const auto hi = static_cast<std::uint64_t>(m >> 64);
        return lo < n ? below_retry(n, lo, hi) : hi;
    }

    /// Unbiased uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
        return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo) + 1));
    }

    /// Fair coin.
    bool coin() noexcept { return (engine_() >> 63) != 0; }

    /// Bernoulli(p).
    bool bernoulli(double p) noexcept { return uniform() < p; }

    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    static constexpr std::uint64_t min() noexcept { return 0; }
    static constexpr std::uint64_t max() noexcept { return ~0ULL; }

private:
    explicit rng(std::uint64_t seed) noexcept : seed_(seed), engine_(seed) {}

    /// below()'s continuation from a first product (lo, hi) with lo < n:
    /// Lemire's rejection of the biased low words.
    std::uint64_t below_retry(std::uint64_t n, std::uint64_t lo, std::uint64_t hi) noexcept;

    std::uint64_t seed_;
    xoshiro256pp engine_;
};

}  // namespace levy
