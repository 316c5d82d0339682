#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "src/grid/ring.h"
#include "src/rng/rng_stream.h"

namespace levy {
namespace {

TEST(Ring, SizeFormula) {
    EXPECT_EQ(ring_size(0), 1u);
    EXPECT_EQ(ring_size(1), 4u);
    EXPECT_EQ(ring_size(7), 28u);
    EXPECT_EQ(ring_size(1000), 4000u);
}

TEST(Ring, NodeZeroIsEastCorner) {
    EXPECT_EQ(ring_node({0, 0}, 5, 0), (point{5, 0}));
    EXPECT_EQ(ring_node({2, 3}, 5, 0), (point{7, 3}));
}

TEST(Ring, CornersAtSideBoundaries) {
    const std::int64_t d = 6;
    EXPECT_EQ(ring_node(origin, d, 0), (point{d, 0}));
    EXPECT_EQ(ring_node(origin, d, static_cast<std::uint64_t>(d)), (point{0, d}));
    EXPECT_EQ(ring_node(origin, d, static_cast<std::uint64_t>(2 * d)), (point{-d, 0}));
    EXPECT_EQ(ring_node(origin, d, static_cast<std::uint64_t>(3 * d)), (point{0, -d}));
}

TEST(Ring, DegenerateRingZero) {
    EXPECT_EQ(ring_node({4, -4}, 0, 0), (point{4, -4}));
    EXPECT_THROW((void)ring_node({4, -4}, 0, 1), std::out_of_range);
}

TEST(Ring, RejectsBadArguments) {
    EXPECT_THROW((void)ring_node(origin, -1, 0), std::invalid_argument);
    EXPECT_THROW((void)ring_node(origin, 3, 12), std::out_of_range);
    EXPECT_THROW((void)ring_index(origin, origin), std::invalid_argument);
}

class RingEnumeration : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RingEnumeration, NodesAreDistinctAndAtCorrectDistance) {
    const std::int64_t d = GetParam();
    const point center{13, -8};
    std::set<std::pair<std::int64_t, std::int64_t>> seen;
    for_each_ring_node(center, d, [&](point p) {
        EXPECT_EQ(l1_distance(center, p), d);
        seen.insert({p.x, p.y});
    });
    EXPECT_EQ(seen.size(), ring_size(d));
}

TEST_P(RingEnumeration, IndexNodeRoundTrip) {
    const std::int64_t d = GetParam();
    const point center{-5, 9};
    for (std::uint64_t j = 0; j < ring_size(d); ++j) {
        const point p = ring_node(center, d, j);
        if (d > 0) {
            EXPECT_EQ(ring_index(center, p), j) << "d=" << d << " j=" << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Radii, RingEnumeration,
                         ::testing::Values<std::int64_t>(1, 2, 3, 5, 8, 17, 50));

TEST(Ring, ConsecutiveIndicesAreDiagonalNeighbors) {
    // The diamond parameterization walks the ring contiguously: consecutive
    // indices differ by one diagonal move, i.e. L1 distance exactly 2,
    // including the wrap-around from the last index back to the first.
    const std::int64_t d = 9;
    for (std::uint64_t j = 0; j < ring_size(d); ++j) {
        const point a = ring_node(origin, d, j);
        const point b = ring_node(origin, d, (j + 1) % ring_size(d));
        EXPECT_EQ(l1_distance(a, b), 2) << "j=" << j;
    }
}

TEST(Ring, SamplingIsUniform) {
    const std::int64_t d = 5;
    rng g = rng::seeded(0x5a5a);
    const int n = 200000;
    std::vector<int> counts(ring_size(d), 0);
    for (int i = 0; i < n; ++i) ++counts[ring_index(origin, sample_ring(origin, d, g))];
    const double expected = static_cast<double>(n) / static_cast<double>(ring_size(d));
    for (std::uint64_t j = 0; j < ring_size(d); ++j) {
        // 5-sigma band around the uniform expectation.
        const double sigma = std::sqrt(expected * (1.0 - 1.0 / static_cast<double>(ring_size(d))));
        EXPECT_NEAR(static_cast<double>(counts[j]), expected, 5.0 * sigma) << "j=" << j;
    }
}

TEST(Ring, SamplingRingZeroReturnsCenter) {
    rng g = rng::seeded(1);
    EXPECT_EQ(sample_ring({3, 3}, 0, g), (point{3, 3}));
}

/// ring_node as it was written with a 64-bit divide: the reference for the
/// comparison-based side/offset split.
point ring_node_by_divide(point center, std::int64_t d, std::uint64_t j) {
    if (d == 0) return center;
    const auto o = static_cast<std::int64_t>(j % static_cast<std::uint64_t>(d));
    point rel;
    switch (j / static_cast<std::uint64_t>(d)) {
        case 0: rel = {d - o, o}; break;
        case 1: rel = {-o, d - o}; break;
        case 2: rel = {o - d, -o}; break;
        default: rel = {o, o - d}; break;
    }
    return center + rel;
}

TEST(Ring, NodeMatchesDivideReferenceOnEverySmallRing) {
    const point center{-17, 29};
    for (std::int64_t d = 0; d <= 300; ++d) {
        for (std::uint64_t j = 0; j < ring_size(d); ++j) {
            ASSERT_EQ(ring_node(center, d, j), ring_node_by_divide(center, d, j))
                << "d=" << d << " j=" << j;
        }
    }
}

TEST(Ring, NodeMatchesDivideReferenceUpToTwoToThe48) {
    // Jump lengths are clamped at 2^48, so rings that large are drawn.
    rng g = rng::seeded(0x41e6);
    for (int i = 0; i < 200000; ++i) {
        const auto d = static_cast<std::int64_t>(1 + g.below(std::uint64_t{1} << 48));
        const std::uint64_t size = ring_size(d);
        // Alternate uniform indices with ones at and next to a side
        // boundary j = d, 2d, 3d, where the comparisons flip.
        const std::uint64_t boundary = (1 + g.below(3)) * static_cast<std::uint64_t>(d);
        const std::uint64_t j =
            i % 2 == 0 ? g.below(size) : std::min(size - 1, boundary - 1 + g.below(3));
        ASSERT_EQ(ring_node(origin, d, j), ring_node_by_divide(origin, d, j))
            << "d=" << d << " j=" << j;
    }
}

}  // namespace
}  // namespace levy
