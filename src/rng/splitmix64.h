#pragma once

#include <cstdint>

namespace levy {

/// SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).
///
/// A tiny, fast, statistically solid 64-bit generator whose primary role in
/// this library is *seeding*: it expands a single 64-bit master seed into the
/// 256-bit state of `xoshiro256pp`, and it derives independent per-trial /
/// per-walk streams so that Monte-Carlo results are reproducible regardless
/// of thread scheduling (see `rng_stream.h`).
class splitmix64 {
public:
    using result_type = std::uint64_t;

    constexpr explicit splitmix64(std::uint64_t seed) noexcept : state_(seed) {}

    /// Advance the state and return the next 64-bit output.
    constexpr std::uint64_t operator()() noexcept {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static constexpr std::uint64_t min() noexcept { return 0; }
    static constexpr std::uint64_t max() noexcept { return ~0ULL; }

private:
    std::uint64_t state_;
};

/// One-shot stateless mix: the SplitMix64 output function applied to `x`.
/// Used to combine seeds and indices into statistically independent values.
/// Inline, as every substream derivation (one per walker spawn) runs it.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    splitmix64 g(x);
    return g();
}

/// Combine two 64-bit values into one well-mixed value. Not commutative.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
    // Two rounds: diffuse `a` into a full-width key first, then combine with
    // `b` and mix again. For a fixed `a` this is a bijection in `b`, and the
    // first mix destroys any low-bit structure that could align across keys.
    return mix64(mix64(a) ^ b);
}

}  // namespace levy
