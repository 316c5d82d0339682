#pragma once

#include <array>
#include <cstdint>

#include "src/rng/splitmix64.h"

namespace levy {

/// xoshiro256++ 1.0 (Blackman & Vigna 2019).
///
/// The library's workhorse generator: 256 bits of state, period 2^256 - 1,
/// excellent statistical quality, and a `jump()` function that advances the
/// sequence by 2^128 steps for cheap non-overlapping substreams.
/// Satisfies std::uniform_random_bit_generator.
class xoshiro256pp {
public:
    using result_type = std::uint64_t;

    /// Seed the 256-bit state by expanding `seed` with SplitMix64, as the
    /// authors recommend. The all-zero state is unreachable this way.
    /// Inline: every walker spawn seeds a fresh substream.
    explicit xoshiro256pp(std::uint64_t seed = 0x9b97f4a7c15f39ccULL) noexcept {
        splitmix64 sm(seed);
        for (auto& word : s_) word = sm();
    }

    /// Construct from a full 256-bit state (must not be all zero).
    explicit xoshiro256pp(const std::array<std::uint64_t, 4>& state) noexcept : s_(state) {}

    std::uint64_t operator()() noexcept {
        const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /// Advance by 2^128 outputs; 2^128 such substreams never overlap.
    void jump() noexcept;

    [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept { return s_; }

    static constexpr std::uint64_t min() noexcept { return 0; }
    static constexpr std::uint64_t max() noexcept { return ~0ULL; }

    friend bool operator==(const xoshiro256pp& a, const xoshiro256pp& b) noexcept {
        return a.s_ == b.s_;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> s_;
};

}  // namespace levy
