#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace levy::sim {

/// The one little-endian codec pair behind every on-disk format in the tree
/// (trial journal, block journal, result cache). Fields are fixed-width 4- or
/// 8-byte words — integers, or doubles by bit pattern — so a file written on
/// one host loads bit-exactly on any other. On little-endian hosts both
/// directions are a single unaligned word move.

/// Store `v` at `dst` as sizeof(T) little-endian bytes; returns the byte
/// after it, so sequential fields chain: `p = store_le(p, a); p = store_le(p, b);`.
template <class T>
char* store_le(char* dst, T v) noexcept {
    static_assert(std::is_arithmetic_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
    using word = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    word w = std::bit_cast<word>(v);
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(dst, &w, sizeof w);
    } else {
        for (std::size_t b = 0; b < sizeof w; ++b, w >>= 8) dst[b] = static_cast<char>(w & 0xff);
    }
    return dst + sizeof w;
}

/// Load a sizeof(T)-byte little-endian value from `src`.
template <class T>
[[nodiscard]] T load_le(const char* src) noexcept {
    static_assert(std::is_arithmetic_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
    using word = std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
    word w = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&w, src, sizeof w);
    } else {
        for (std::size_t b = sizeof w; b-- > 0;) w = (w << 8) | static_cast<unsigned char>(src[b]);
    }
    return std::bit_cast<T>(w);
}

}  // namespace levy::sim
