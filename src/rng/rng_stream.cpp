#include "src/rng/rng_stream.h"

namespace levy {

std::uint64_t rng::below_retry(std::uint64_t n, std::uint64_t lo, std::uint64_t hi) noexcept {
    // Lemire's nearly-divisionless unbiased bounded generation: a product
    // whose low word falls below 2^64 mod n is redrawn.
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
        const __uint128_t m = static_cast<__uint128_t>(engine_()) * n;
        lo = static_cast<std::uint64_t>(m);
        hi = static_cast<std::uint64_t>(m >> 64);
    }
    return hi;
}

}  // namespace levy
