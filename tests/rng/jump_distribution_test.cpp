#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "src/rng/jump_distribution.h"
#include "src/rng/rng_stream.h"
#include "src/rng/zeta.h"
#include "src/stats/goodness_of_fit.h"

namespace levy {
namespace {

TEST(JumpDistribution, RejectsAlphaAtOrBelowOne) {
    EXPECT_THROW(jump_distribution(1.0), std::invalid_argument);
}

TEST(JumpDistribution, AtomAtZeroIsHalf) {
    const jump_distribution d(2.5);
    EXPECT_DOUBLE_EQ(d.pmf(0), 0.5);
}

TEST(JumpDistribution, PmfMatchesEquationThree) {
    // P(d = i) = c_α / i^α with c_α = 1/(2ζ(α)).
    const double alpha = 2.2;
    const jump_distribution d(alpha);
    const double c = 1.0 / (2.0 * riemann_zeta(alpha));
    EXPECT_NEAR(d.normalizer(), c, 1e-12);
    for (std::uint64_t i = 1; i <= 10; ++i) {
        EXPECT_NEAR(d.pmf(i), c * std::pow(static_cast<double>(i), -alpha), 1e-12);
    }
}

TEST(JumpDistribution, PmfSumsToOne) {
    const jump_distribution d(2.5);
    double sum = d.pmf(0);
    for (std::uint64_t i = 1; i < 2000; ++i) sum += d.pmf(i);
    sum += d.tail(2000);
    EXPECT_NEAR(sum, 1.0, 1e-10);
}

TEST(JumpDistribution, TailIdentities) {
    const jump_distribution d(2.5);
    EXPECT_DOUBLE_EQ(d.tail(0), 1.0);
    EXPECT_NEAR(d.tail(1), 0.5, 1e-12);  // all the non-atom mass
    // tail(i) - tail(i+1) = pmf(i).
    for (std::uint64_t i = 1; i <= 20; ++i) {
        EXPECT_NEAR(d.tail(i) - d.tail(i + 1), d.pmf(i), 1e-12) << "i=" << i;
    }
}

TEST(JumpDistribution, TailHasEquationFourShape) {
    // Eq. 4: P(d ≥ i) = Θ(1/i^{α-1}); the ratio tail(i)·i^{α-1} stabilizes.
    const double alpha = 2.5;
    const jump_distribution d(alpha);
    const double r1 = d.tail(100) * std::pow(100.0, alpha - 1.0);
    const double r2 = d.tail(10000) * std::pow(10000.0, alpha - 1.0);
    EXPECT_NEAR(r1 / r2, 1.0, 0.05);
}

class JumpSampling : public ::testing::TestWithParam<double> {};

TEST_P(JumpSampling, EmpiricalLawMatchesPmf) {
    const double alpha = GetParam();
    const jump_distribution d(alpha);
    rng g = rng::seeded(0x1234);
    const int n = 300000;
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < n; ++i) ++counts[d.sample(g)];
    for (const std::uint64_t k : {0ULL, 1ULL, 2ULL, 3ULL}) {
        const double expected = d.pmf(k);
        const double observed = static_cast<double>(counts[k]) / n;
        const double sigma = std::sqrt(expected * (1.0 - expected) / n);
        EXPECT_NEAR(observed, expected, 5.0 * sigma + 1e-9) << "alpha=" << alpha << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Exponents, JumpSampling, ::testing::Values(1.5, 2.0, 2.5, 3.0, 4.0));

TEST(JumpDistribution, CappedSamplingRespectsCap) {
    const jump_distribution d(1.6);
    rng g = rng::seeded(9);
    for (int i = 0; i < 20000; ++i) ASSERT_LE(d.sample_capped(g, 30), 30u);
}

TEST(JumpDistribution, NoCapSentinelSamplesFreely) {
    const jump_distribution d(2.5);
    rng g = rng::seeded(10);
    bool saw_large = false;
    for (int i = 0; i < 200000 && !saw_large; ++i) saw_large = d.sample_capped(g, kNoCap) > 100;
    EXPECT_TRUE(saw_large);  // uncapped α=2.5 exceeds 100 with prob ~1e-3/draw
}

TEST(JumpDistribution, MeanFiniteExactlyAboveTwo) {
    EXPECT_TRUE(std::isinf(jump_distribution(1.5).mean()));
    EXPECT_TRUE(std::isinf(jump_distribution(2.0).mean()));
    const double alpha = 3.0;
    const jump_distribution d(alpha);
    EXPECT_NEAR(d.mean(), riemann_zeta(2.0) / (2.0 * riemann_zeta(3.0)), 1e-10);
}

TEST(JumpDistribution, EmpiricalMeanMatchesForFiniteMean) {
    const jump_distribution d(3.5);
    rng g = rng::seeded(11);
    const int n = 400000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample(g));
    EXPECT_NEAR(sum / n, d.mean(), 0.01);
}

TEST(JumpDistribution, VarianceFiniteExactlyAboveThree) {
    EXPECT_TRUE(std::isinf(jump_distribution(2.5).variance()));
    EXPECT_TRUE(std::isinf(jump_distribution(3.0).variance()));
    EXPECT_GT(jump_distribution(4.0).variance(), 0.0);
    EXPECT_FALSE(std::isinf(jump_distribution(4.0).variance()));
}

TEST(JumpDistribution, CappedMeanBelowUncappedMean) {
    const jump_distribution d(2.5);
    // Capping removes the heavy tail, so the conditional mean is smaller.
    EXPECT_LT(d.mean_capped(100), d.mean());
    EXPECT_GT(d.mean_capped(100), 0.0);
    // And grows with the cap.
    EXPECT_LT(d.mean_capped(10), d.mean_capped(1000));
}

TEST(JumpDistribution, CappedMeanMatchesEmpirical) {
    const double alpha = 1.8;  // unbounded mean; capped mean is finite
    const jump_distribution d(alpha);
    rng g = rng::seeded(12);
    const std::uint64_t cap = 200;
    const int n = 400000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(d.sample_capped(g, cap));
    EXPECT_NEAR(sum / n, d.mean_capped(cap), d.mean_capped(cap) * 0.03);
}

/// Pearson chi-square of `draws` uncapped jump lengths against Eq. 3
/// itself: a cell per d = 0, 1, …, M, pooled rightward until each expects
/// at least 5 counts (the usual validity rule), closed by the tail cell
/// P(d > M) = c_α·ζtail(M + 1, α). M = 100 lies past the head's reach
/// (zipf_sampler::kHeadSize), so the seam between head-settled and
/// pow-settled lengths sits inside the tested range.
stats::chi_square_result chi_square_against_eq3(const jump_distribution& d, std::uint64_t seed,
                                                std::uint64_t draws) {
    constexpr std::uint64_t M = 100;
    static_assert(M > zipf_sampler::kHeadSize);
    std::vector<std::uint64_t> counts(M + 2, 0);  // d = 0..M, then d > M
    rng g = rng::seeded(seed);
    for (std::uint64_t i = 0; i < draws; ++i) ++counts[std::min(d.sample(g), M + 1)];
    std::vector<std::uint64_t> observed;
    std::vector<double> probs;
    std::uint64_t cell_count = 0;
    double cell_prob = 0.0;
    for (std::uint64_t k = 0; k <= M; ++k) {
        cell_count += counts[k];
        cell_prob += d.pmf(k);
        if (cell_prob * static_cast<double>(draws) >= 5.0) {
            observed.push_back(cell_count);
            probs.push_back(cell_prob);
            cell_count = 0;
            cell_prob = 0.0;
        }
    }
    observed.push_back(cell_count + counts[M + 1]);
    probs.push_back(cell_prob + d.normalizer() * zeta_tail(M + 1, d.alpha()));
    return stats::chi_square_test(observed, probs, draws);
}

TEST(JumpDistribution, UncappedSamplerFollowsEquationThreeExactly) {
    // The parity suites cannot catch a sampler bug, because every engine
    // draws through this sampler; this anchors it to the law. Each case is
    // a fixed seed; the false-alarm budget is p < 1e-6 per case (14 cases).
    constexpr std::uint64_t kDraws = 2'000'000;
    const double alphas[] = {2.0, 16.0 / 7.0, 18.0 / 7.0, 20.0 / 7.0, 1.1, 1.5, 3.5};
    for (const double alpha : alphas) {
        for (const bool with_head : {false, true}) {
            jump_distribution d(alpha);
            if (with_head) d.build_head();
            ASSERT_EQ(d.has_head(), with_head);
            const std::uint64_t seed = 0xe93 + static_cast<std::uint64_t>(alpha * 1000.0) +
                                       (with_head ? 0x10000u : 0u);
            const stats::chi_square_result r = chi_square_against_eq3(d, seed, kDraws);
            EXPECT_GT(r.p_value, 1e-6) << "alpha=" << alpha << " head=" << with_head
                                       << " chi2=" << r.statistic
                                       << " df=" << r.degrees_of_freedom;
            EXPECT_GE(r.degrees_of_freedom, 20u) << "alpha=" << alpha;
        }
    }
}

}  // namespace
}  // namespace levy
