#pragma once

#include <cstdint>

#include "src/grid/point.h"
#include "src/rng/rng_stream.h"

namespace levy {

/// The ring R_d(u) = { v : ‖u − v‖₁ = d } (paper Fig. 1, left).
///
/// For d ≥ 1 the ring has exactly 4d nodes; the functions below give a
/// canonical bijection index ↔ node, which makes uniform sampling — the way
/// every jump destination is chosen in Defs. 3.3/3.4 — a single bounded
/// integer draw.
///
/// Indexing convention: index j ∈ [0, 4d) splits as side = j / d,
/// offset = j mod d, walking the diamond counterclockwise from (d, 0):
///   side 0: (d − o,  o)       side 1: (−o,  d − o)
///   side 2: (o − d, −o)       side 3: ( o,  o − d)

/// |R_d| — 1 for d = 0, else 4d. (Computed in unsigned space: d can be as
/// large as a ballistic jump length, where 4d would overflow int64.)
[[nodiscard]] constexpr std::uint64_t ring_size(std::int64_t d) noexcept {
    return d == 0 ? 1 : 4 * static_cast<std::uint64_t>(d);
}

/// The j-th node of R_d(0) for d ≥ 1 and j < 4d, unchecked and
/// branch-free: the one index → node mapping (ring_node validates, then
/// calls it). side = j / d and o = j mod d come from three comparisons
/// instead of a divide: j < 4d, so the quotient is 0..3 (and 4d, hence 3d,
/// does not wrap, or ring_size itself would). Each side is side 0's node
/// (d − o, o) turned by a quarter turn (x, y) → (−y, x) per side: an odd
/// side swaps the two magnitudes, sides 1 and 2 negate x, sides 2 and 3
/// negate y.
[[nodiscard]] constexpr point ring_offset(std::int64_t d, std::uint64_t j) noexcept {
    const auto ud = static_cast<std::uint64_t>(d);
    const std::uint64_t side = std::uint64_t{j >= ud} + (j >= 2 * ud) + (j >= 3 * ud);
    const auto o = static_cast<std::int64_t>(j - side * ud);
    const std::int64_t a = d - o;
    // Masks of all ones or none: swap, and negate as (v ^ n) − n.
    const std::int64_t swap = -static_cast<std::int64_t>(side & 1);
    const std::int64_t nx = -static_cast<std::int64_t>(((side + 1) >> 1) & 1);
    const std::int64_t ny = -static_cast<std::int64_t>(side >> 1);
    const std::int64_t t = (a ^ o) & swap;
    return {((a ^ t) ^ nx) - nx, ((o ^ t) ^ ny) - ny};
}

/// The j-th node of R_d(center); requires 0 ≤ j < ring_size(d), d ≥ 0.
[[nodiscard]] point ring_node(point center, std::int64_t d, std::uint64_t j);

/// Inverse of ring_node: the index of `v` on R_d(center) where
/// d = ‖v − center‖₁. Requires v ≠ center.
[[nodiscard]] std::uint64_t ring_index(point center, point v);

/// A uniform node of R_d(center), d ≥ 0: one bounded integer draw (none
/// for d = 0).
[[nodiscard]] inline point sample_ring(point center, std::int64_t d, rng& g) {
    if (d == 0) return center;
    return center + ring_offset(d, g.below(ring_size(d)));
}

/// Apply `fn(point)` to every node of R_d(center) in index order.
template <class Fn>
void for_each_ring_node(point center, std::int64_t d, Fn&& fn) {
    const std::uint64_t n = ring_size(d);
    for (std::uint64_t j = 0; j < n; ++j) fn(ring_node(center, d, j));
}

}  // namespace levy
