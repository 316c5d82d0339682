#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "src/rng/rng_stream.h"
#include "src/rng/zeta.h"
#include "src/rng/zipf.h"

namespace levy {
namespace {

TEST(ZipfSampler, RejectsAlphaAtOrBelowOne) {
    EXPECT_THROW(zipf_sampler(1.0), std::invalid_argument);
    EXPECT_THROW(zipf_sampler(0.5), std::invalid_argument);
}

TEST(ZipfSampler, ProducesPositiveValues) {
    zipf_sampler z(2.0);
    rng g = rng::seeded(1);
    for (int i = 0; i < 10000; ++i) ASSERT_GE(z(g), 1u);
}

/// Devroye sampler vs the exact pmf, for small values where the pmf mass is
/// large enough to estimate tightly.
class ZipfPmf : public ::testing::TestWithParam<double> {};

TEST_P(ZipfPmf, EmpiricalPmfMatchesExactLaw) {
    const double alpha = GetParam();
    zipf_sampler z(alpha);
    rng g = rng::seeded(0xabcd);
    const int n = 400000;
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < n; ++i) ++counts[z(g)];
    const double inv_zeta = 1.0 / riemann_zeta(alpha);
    for (std::uint64_t k = 1; k <= 5; ++k) {
        const double expected = std::pow(static_cast<double>(k), -alpha) * inv_zeta;
        const double observed = static_cast<double>(counts[k]) / n;
        // 5-sigma binomial band.
        const double sigma = std::sqrt(expected * (1.0 - expected) / n);
        EXPECT_NEAR(observed, expected, 5.0 * sigma + 1e-9)
            << "alpha=" << alpha << " k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfPmf, ::testing::Values(1.5, 2.0, 2.5, 3.0, 3.5));

TEST(ZipfSampler, TailExponentMatchesAlpha) {
    // P(X >= i) ≈ i^{1-α}/( (α-1) ζ(α) ): check the ratio at two decades.
    const double alpha = 2.5;
    zipf_sampler z(alpha);
    rng g = rng::seeded(0xbeef);
    const int n = 1000000;
    int ge10 = 0, ge100 = 0;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t x = z(g);
        ge10 += (x >= 10);
        ge100 += (x >= 100);
    }
    const double ratio = static_cast<double>(ge10) / static_cast<double>(ge100);
    // Exact ratio ζtail(10)/ζtail(100) ≈ 10^{α-1} = 31.6; allow sampling noise.
    const double exact = zeta_tail(10, alpha) / zeta_tail(100, alpha);
    EXPECT_NEAR(ratio / exact, 1.0, 0.15);
}

TEST(ZipfSampler, CappedNeverExceedsCap) {
    zipf_sampler z(1.5);
    rng g = rng::seeded(3);
    for (int i = 0; i < 20000; ++i) ASSERT_LE(z.sample_capped(g, 50), 50u);
}

TEST(ZipfSampler, CapOneIsDegenerate) {
    zipf_sampler z(2.5);
    rng g = rng::seeded(4);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(z.sample_capped(g, 1), 1u);
}

TEST(ZipfSampler, CappedSmallCapNearOneTerminates) {
    // The pathological corner for pure rejection: P(X <= cap) is tiny when
    // α is near 1 and the cap small, so the unbounded loop used to spin for
    // thousands of draws per sample. The bounded-rejection + inverse-CDF
    // fallback must return promptly and still follow the truncated law.
    const double alpha = 1.05;
    const std::uint64_t cap = 3;
    zipf_sampler rejection(alpha);
    zipf_table_sampler table(alpha, cap);
    rng g = rng::seeded(8);
    const int n = 20000;
    std::vector<int> counts(cap + 1, 0);
    for (int i = 0; i < n; ++i) {
        const std::uint64_t x = rejection.sample_capped(g, cap);
        ASSERT_GE(x, 1u);
        ASSERT_LE(x, cap);
        ++counts[x];
    }
    for (std::uint64_t k = 1; k <= cap; ++k) {
        const double expected = table.pmf(k);
        const double observed = static_cast<double>(counts[k]) / n;
        const double sigma = std::sqrt(expected * (1.0 - expected) / n);
        EXPECT_NEAR(observed, expected, 6.0 * sigma + 1e-3) << "k=" << k;
    }
}

TEST(ZipfSampler, CappedMatchesTableSampler) {
    // The rejection-capped law must coincide with the exact truncated law.
    const double alpha = 2.0;
    const std::uint64_t cap = 20;
    zipf_sampler rejection(alpha);
    zipf_table_sampler table(alpha, cap);
    rng g1 = rng::seeded(5), g2 = rng::seeded(6);
    const int n = 300000;
    std::vector<int> c1(cap + 1, 0), c2(cap + 1, 0);
    for (int i = 0; i < n; ++i) {
        ++c1[rejection.sample_capped(g1, cap)];
        ++c2[table(g2)];
    }
    for (std::uint64_t k = 1; k <= cap; ++k) {
        const double p1 = static_cast<double>(c1[k]) / n;
        const double p2 = static_cast<double>(c2[k]) / n;
        const double sigma = std::sqrt(table.pmf(k) / n);
        EXPECT_NEAR(p1, p2, 6.0 * sigma + 1e-4) << "k=" << k;
    }
}

TEST(ZipfTableSampler, QuantileClampsToSupport) {
    // The inverse CDF must clamp to [1, cap] for every finite u. u >= 1 (or
    // any u at or above cdf.back()) lands upper_bound at end(); the old code
    // dereferenced it into an index one past the table.
    zipf_table_sampler t(2.0, 7);
    EXPECT_EQ(t.quantile(0.0), 1u);
    EXPECT_EQ(t.quantile(1.0), 7u);
    EXPECT_EQ(t.quantile(std::nextafter(1.0, 2.0)), 7u);
    EXPECT_EQ(t.quantile(2.0), 7u);
    rng g = rng::seeded(11);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t x = t(g);
        ASSERT_GE(x, 1u);
        ASSERT_LE(x, 7u);
    }
}

TEST(ZipfTableSampler, TailPmfKeepsRelativePrecision) {
    // pmf() must be the direct formula k^{-α}/H(cap, α). The old differencing
    // of adjacent normalized-CDF entries had absolute error ~ulp(1), which at
    // a 2^20 tail (true mass ~1e-8) is ~1e-8 *relative* error; the direct
    // form stays within a couple of ulps. Note Σ pmf telescopes to exactly 1
    // for the differencing code, so a sum test alone cannot catch this.
    const double alpha = 1.2;
    const std::uint64_t cap = 1u << 20;
    zipf_table_sampler t(alpha, cap);
    for (const std::uint64_t k :
         {cap, cap - 1, cap / 2, std::uint64_t{100000}, std::uint64_t{4096}}) {
        const double expected = std::pow(static_cast<double>(k), -alpha) / t.partition();
        EXPECT_NEAR(t.pmf(k) / expected, 1.0, 1e-12) << "k=" << k;
    }
}

TEST(ZipfTableSampler, PmfSumsToOne) {
    zipf_table_sampler t(2.5, 100);
    double sum = 0.0;
    for (std::uint64_t k = 1; k <= 100; ++k) sum += t.pmf(k);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfTableSampler, PmfZeroOutsideSupport) {
    zipf_table_sampler t(2.5, 10);
    EXPECT_DOUBLE_EQ(t.pmf(0), 0.0);
    EXPECT_DOUBLE_EQ(t.pmf(11), 0.0);
}

TEST(ZipfTableSampler, RejectsBadArguments) {
    EXPECT_THROW(zipf_table_sampler(2.0, 0), std::invalid_argument);
    EXPECT_THROW(zipf_table_sampler(0.0, 10), std::invalid_argument);
}

TEST(ZipfSampler, CappedDrawCountContractIsPinned) {
    // The batched walk engine replays walker streams, so sample_capped's
    // draw count is a frozen contract: up to kMaxRejections full rejection
    // draws, then exactly one uniform for the inverse-CDF fallback (the
    // harmonic bisection consumes no randomness). α near 1 with a tiny cap
    // exercises both branches across seeds.
    const double alpha = 1.01;
    const std::uint64_t cap = 2;
    zipf_sampler z(alpha);
    int fallbacks = 0, accepts = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        rng g = rng::seeded(seed * 2654435761ULL);
        rng replay = g;
        const std::uint64_t x = z.sample_capped(g, cap);
        ASSERT_GE(x, 1u);
        ASSERT_LE(x, cap);
        // Manual replay per the documented contract.
        std::uint64_t manual = 0;
        for (int attempt = 0; attempt < zipf_sampler::kMaxRejections; ++attempt) {
            const std::uint64_t y = z(replay);
            if (y <= cap) {
                manual = y;
                ++accepts;
                break;
            }
        }
        if (manual == 0) {
            // One uniform drives the fallback; with cap = 2 the inverse CDF
            // is simply "1 iff u <= 1^{-α} = 1".
            const double u = replay.uniform() * harmonic(cap, alpha);
            manual = (1.0 >= u) ? 1 : 2;
            ++fallbacks;
        }
        EXPECT_EQ(x, manual) << "seed=" << seed;
        // The next raw draw must agree: this pins the *count* of draws
        // consumed, not merely the returned value.
        EXPECT_EQ(g(), replay()) << "seed=" << seed;
    }
    EXPECT_GT(accepts, 0);
    EXPECT_GT(fallbacks, 0);
}

TEST(ZipfAliasSampler, PmfBitIdenticalToTableSampler) {
    // The alias sampler accumulates the partition in the same index order as
    // the table sampler, so pmf and partition agree bit-for-bit — no
    // statistical slack needed; the table stays authoritative.
    for (const double alpha : {1.1, 1.5, 2.5, 3.0}) {
        for (const std::uint64_t cap :
             {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{10}, std::uint64_t{50},
              std::uint64_t{1000}}) {
            zipf_table_sampler table(alpha, cap);
            zipf_alias_sampler alias(alpha, cap);
            ASSERT_EQ(alias.cap(), cap);
            EXPECT_EQ(alias.partition(), table.partition())
                << "alpha=" << alpha << " cap=" << cap;
            for (std::uint64_t k = 0; k <= cap + 1; ++k) {
                EXPECT_EQ(alias.pmf(k), table.pmf(k))
                    << "alpha=" << alpha << " cap=" << cap << " k=" << k;
            }
        }
    }
}

TEST(ZipfAliasSampler, ChiSquareAgreesWithTruncatedLaw) {
    // Goodness of fit of alias draws against the exact truncated law over
    // the (α, cap) grid the walk engine actually selects the alias for.
    // Tail bins with expected count < 5 are merged rightward as usual.
    for (const double alpha : {1.1, 1.5, 2.5, 3.0}) {
        for (const std::uint64_t cap :
             {std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{10}, std::uint64_t{50},
              std::uint64_t{1000}}) {
            zipf_table_sampler table(alpha, cap);
            zipf_alias_sampler alias(alpha, cap);
            rng g = rng::seeded(0xa11a5 + static_cast<std::uint64_t>(alpha * 100) + cap);
            const int n = 120000;
            std::vector<int> counts(cap + 1, 0);
            for (int i = 0; i < n; ++i) {
                const std::uint64_t x = alias(g);
                ASSERT_GE(x, 1u);
                ASSERT_LE(x, cap);
                ++counts[x];
            }
            double chi2 = 0.0;
            int bins = 0;
            double exp_bin = 0.0, obs_bin = 0.0;
            for (std::uint64_t k = 1; k <= cap; ++k) {
                exp_bin += static_cast<double>(n) * table.pmf(k);
                obs_bin += static_cast<double>(counts[k]);
                if (exp_bin >= 5.0 || k == cap) {
                    chi2 += (obs_bin - exp_bin) * (obs_bin - exp_bin) / exp_bin;
                    ++bins;
                    exp_bin = obs_bin = 0.0;
                }
            }
            const double df = std::max(1.0, static_cast<double>(bins - 1));
            // ~5-sigma band for a chi-square with df degrees of freedom.
            EXPECT_LT(chi2, df + 6.0 * std::sqrt(2.0 * df) + 3.0)
                << "alpha=" << alpha << " cap=" << cap << " bins=" << bins;
        }
    }
}

TEST(ZipfSampler, MeanMatchesZetaRatio) {
    // E[X] = ζ(α-1)/ζ(α) for α > 2.
    const double alpha = 3.5;
    zipf_sampler z(alpha);
    rng g = rng::seeded(7);
    const int n = 500000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(z(g));
    const double expected = riemann_zeta(alpha - 1.0) / riemann_zeta(alpha);
    EXPECT_NEAR(sum / n, expected, 0.02);
}

// --- The pow-free head ------------------------------------------------------

/// zipf_sampler's Devroye loop as it stood before the head existed, kept
/// verbatim: the reference every head-enabled or head-less draw must match
/// value for value and uniform for uniform.
class devroye_reference {
public:
    explicit devroye_reference(double alpha)
        : alpha_(alpha), inv_alpha_minus_1_(1.0 / (alpha - 1.0)) {
        const double b = std::exp2(alpha - 1.0);
        b_minus_1_ = b - 1.0;
        inv_b_ = 1.0 / b;
    }

    std::uint64_t operator()(rng& g) const {
        constexpr double kMaxX = 281474976710656.0;  // 2^48
        for (;;) {
            const double u = g.uniform_positive();
            const double v = g.uniform();
            const double xr = std::floor(std::pow(u, -inv_alpha_minus_1_));
            const double x = std::min(xr, kMaxX);
            if (accepts(v, x)) return static_cast<std::uint64_t>(x);
        }
    }

    /// The loop's acceptance test for an attempt (v, x).
    bool accepts(double v, double x) const {
        const double t = std::pow(1.0 + 1.0 / x, alpha_ - 1.0);
        return v * x * (t - 1.0) / b_minus_1_ <= t * inv_b_;
    }

private:
    double alpha_;
    double inv_alpha_minus_1_;
    double b_minus_1_;
    double inv_b_;
};

/// Draw `n` values from the reference, a head-less sampler, and a sampler
/// with its head, each from its own copy of `seed`'s stream; returns the
/// number of mismatches (value or final stream position).
std::uint64_t head_mismatches(double alpha, std::uint64_t seed, std::uint64_t n) {
    const devroye_reference ref(alpha);
    const zipf_sampler plain(alpha);
    zipf_sampler headed(alpha);
    headed.build_head();
    rng g_ref = rng::seeded(seed), g_plain = rng::seeded(seed), g_head = rng::seeded(seed);
    std::uint64_t bad = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t want = ref(g_ref);
        bad += static_cast<std::uint64_t>(plain(g_plain) != want);
        bad += static_cast<std::uint64_t>(headed(g_head) != want);
    }
    const std::uint64_t next = g_ref();
    bad += static_cast<std::uint64_t>(g_plain() != next);
    bad += static_cast<std::uint64_t>(g_head() != next);
    return bad;
}

TEST(ZipfHead, BuiltOnlyOnRequestAndInRange) {
    zipf_sampler z(2.5);
    EXPECT_FALSE(z.has_head());
    EXPECT_EQ(z.head_lookup(0.9), 0u);  // no head: nothing is settled
    z.build_head();
    EXPECT_TRUE(z.has_head());
    const zipf_sampler copy = z;  // copies share the immutable head
    EXPECT_TRUE(copy.has_head());
    zipf_sampler huge(zipf_sampler::kHeadMaxAlpha * 2.0);
    huge.build_head();
    EXPECT_FALSE(huge.has_head());
}

TEST(ZipfHead, DrawsMatchReferenceLoopExactly) {
    // 10^7 draws per exponent, from α barely above 1 (the head settles only
    // a third of attempts) to α = 9 (nearly all mass at x = 1), including
    // the E7 sweep's exponents 16/7, 18/7 and 20/7. One thread per exponent.
    const std::vector<double> alphas = {1.05,       1.1,        1.5, 2.0, 16.0 / 7.0,
                                        18.0 / 7.0, 20.0 / 7.0, 3.0, 3.5, 9.0};
    constexpr std::uint64_t kDraws = 10'000'000;
    std::vector<std::uint64_t> bad(alphas.size(), 0);
    std::vector<std::thread> workers;
    for (std::size_t a = 0; a < alphas.size(); ++a) {
        workers.emplace_back([&, a] { bad[a] = head_mismatches(alphas[a], 0x4ead + a, kDraws); });
    }
    for (std::thread& w : workers) w.join();
    for (std::size_t a = 0; a < alphas.size(); ++a) {
        EXPECT_EQ(bad[a], 0u) << "alpha=" << alphas[a];
    }
}

TEST(ZipfHead, FreshExponentPerDrawMatchesReferenceLoop) {
    // A fresh α per draw, as per-walker strategies use: the head-less
    // sampler over 10^7 exponents, and a head built for every 10th of them
    // (a head costs ~65 pow calls to build).
    constexpr std::uint64_t kDraws = 10'000'000;
    constexpr unsigned kThreads = 4;
    std::vector<std::uint64_t> bad(kThreads, 0);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w] {
            rng pick = rng::seeded(0xf4e5 + w);
            rng g_ref = rng::seeded(0x5eed + w);
            rng g = g_ref;
            for (std::uint64_t i = w; i < kDraws; i += kThreads) {
                const double alpha = pick.uniform(1.05, 9.0);
                zipf_sampler z(alpha);
                if (i % 10 == 0) z.build_head();
                bad[w] += static_cast<std::uint64_t>(z(g) != devroye_reference(alpha)(g_ref));
            }
            bad[w] += static_cast<std::uint64_t>(g() != g_ref());
        });
    }
    for (std::thread& w : workers) w.join();
    for (unsigned w = 0; w < kThreads; ++w) EXPECT_EQ(bad[w], 0u) << "thread " << w;
}

TEST(ZipfHead, LookupIsExactAroundEveryThresholdAndGuardEdge) {
    // For each threshold T_n = n^{1-α}, n ≤ H + 1, probe u a few ulps either
    // side of T_n and of both guard edges T_n·(1 ∓ δ). Whenever the head
    // settles u, it must give the loop's floor(pow(u, -1/(α-1))). Between
    // two guard bands it must settle (the head is actually used); on a
    // threshold itself it must defer to pow.
    constexpr std::uint64_t H = zipf_sampler::kHeadSize;
    constexpr double delta = zipf_sampler::kHeadGuard;
    for (const double alpha : {1.05, 1.1, 1.5, 2.0, 16.0 / 7.0, 18.0 / 7.0, 20.0 / 7.0, 3.0,
                               3.5, 9.0, 100.0}) {
        zipf_sampler z(alpha);
        z.build_head();
        const double inv_alpha_minus_1 = 1.0 / (alpha - 1.0);
        const auto loop_x = [&](double u) { return std::floor(std::pow(u, -inv_alpha_minus_1)); };
        std::uint64_t settled = 0;
        for (std::uint64_t n = 1; n <= H + 1; ++n) {
            const double t = std::pow(static_cast<double>(n), 1.0 - alpha);
            for (const double anchor : {t, t * (1.0 - delta), t * (1.0 + delta)}) {
                double u = anchor;
                for (int k = 0; k < 4; ++k) u = std::nextafter(u, 0.0);
                for (int k = -4; k <= 4; ++k, u = std::nextafter(u, 2.0)) {
                    if (!(u > 0.0 && u <= 1.0)) continue;
                    const std::uint64_t x = z.head_lookup(u);
                    if (x == 0) continue;
                    ++settled;
                    ASSERT_LE(x, H);
                    ASSERT_EQ(static_cast<double>(x), loop_x(u))
                        << "alpha=" << alpha << " n=" << n << " u=" << u;
                }
            }
            EXPECT_EQ(z.head_lookup(t), 0u) << "alpha=" << alpha << " n=" << n;
            if (n <= H) {
                // Just outside both guard bands, between T_{n+1} and T_n.
                const double below = std::nextafter(t * (1.0 - delta), 0.0);
                const double next = std::pow(static_cast<double>(n + 1), 1.0 - alpha);
                const double above = std::nextafter(next * (1.0 + delta), 2.0);
                for (const double u : {below, above}) {
                    EXPECT_EQ(z.head_lookup(u), n) << "alpha=" << alpha << " n=" << n;
                    EXPECT_EQ(static_cast<double>(n), loop_x(u)) << "alpha=" << alpha;
                }
            }
        }
        EXPECT_GT(settled, 0u) << "alpha=" << alpha;
        // u = 1 sits in T_1's band; u below T_{H+1}'s band is beyond the head.
        EXPECT_EQ(z.head_lookup(1.0), 0u);
        const double past = std::pow(static_cast<double>(H + 1), 1.0 - alpha) * (1.0 - 2 * delta);
        EXPECT_EQ(z.head_lookup(past), 0u) << "alpha=" << alpha;
    }
}

/// Exponents for the head's exactness tests: the head's whole range, from
/// 1 + 10⁻⁶ (every threshold within 5·10⁻⁶ of 1, so no bucket is settled)
/// to 1001 (T_n underflows to 0 from n = 3), with the E7 sweep's ends 2
/// and 20/7.
const std::vector<double> kHeadRangeAlphas = {
    zipf_sampler::kHeadMinAlpha, 1.05, 1.5, 2.0, 16.0 / 7.0, 20.0 / 7.0, 3.0, 3.5, 9.0, 100.0,
    500.0, zipf_sampler::kHeadMaxAlpha};

TEST(ZipfHead, GuideAgreesWithSearchInEveryBucket) {
    // A nonzero guide entry claims its whole bucket lies inside one guarded
    // interval. The search settles an interval, so it must give the entry
    // at the bucket's first and last representable u. A zero entry claims
    // the opposite: the search must not settle both ends to one x.
    constexpr std::size_t B = zipf_sampler::kGuideBuckets;
    for (const double alpha : kHeadRangeAlphas) {
        zipf_sampler z(alpha);
        EXPECT_EQ(z.head_guide(0), 0u);  // no head yet
        z.build_head();
        ASSERT_TRUE(z.has_head()) << "alpha=" << alpha;
        std::uint64_t guided = 0;
        for (std::size_t j = 0; j < B; ++j) {
            const double first = j == 0 ? std::numeric_limits<double>::denorm_min()
                                        : static_cast<double>(j) / B;
            const double last = std::nextafter(static_cast<double>(j + 1) / B, 0.0);
            const std::uint64_t x = z.head_guide(j);
            const std::uint64_t at_first = z.head_lookup(first);
            const std::uint64_t at_last = z.head_lookup(last);
            if (x != 0) {
                ++guided;
                ASSERT_LE(x, zipf_sampler::kHeadSize);
                ASSERT_EQ(at_first, x) << "alpha=" << alpha << " bucket=" << j;
                ASSERT_EQ(at_last, x) << "alpha=" << alpha << " bucket=" << j;
            } else {
                EXPECT_FALSE(at_first != 0 && at_first == at_last)
                    << "alpha=" << alpha << " bucket=" << j << " could be guided to " << at_first;
            }
        }
        EXPECT_EQ(z.head_guide(B), 0u) << "alpha=" << alpha;  // u = 1 is in T_1's band
        if (alpha == 2.0 || alpha == 20.0 / 7.0) {
            // T_2 = 1/2 and 2^{-13/7} ≈ 0.28: most of (0, 1] is guided.
            EXPECT_GT(guided, B * 9 / 10) << "alpha=" << alpha;
        }
    }
}

TEST(ZipfHead, AcceptanceCountIsExactAtEveryLength) {
    // The accepted v = k·2⁻⁵³ for a settled x must be exactly k <
    // head_vcount(x), judged by the loop's own test: the count's last k is
    // accepted and the next is not, and random k fall on the right side.
    constexpr std::uint64_t kAll = std::uint64_t{1} << 53;
    const auto v_of = [](std::uint64_t k) { return static_cast<double>(k) * 0x1.0p-53; };
    rng pick = rng::seeded(0xacc);
    for (const double alpha : kHeadRangeAlphas) {
        const devroye_reference ref(alpha);
        zipf_sampler z(alpha);
        EXPECT_EQ(z.head_vcount(1), 0u);  // no head yet
        z.build_head();
        for (std::uint64_t x = 1; x <= zipf_sampler::kHeadSize; ++x) {
            const std::uint64_t count = z.head_vcount(x);
            const auto xd = static_cast<double>(x);
            ASSERT_LE(count, kAll);
            if (count > 0) {
                ASSERT_TRUE(ref.accepts(v_of(count - 1), xd))
                    << "alpha=" << alpha << " x=" << x << " count=" << count;
            }
            if (count < kAll) {
                ASSERT_FALSE(ref.accepts(v_of(count), xd))
                    << "alpha=" << alpha << " x=" << x << " count=" << count;
            }
            for (int probe = 0; probe < 200; ++probe) {
                const std::uint64_t k = pick.uniform_bits();
                ASSERT_EQ(ref.accepts(v_of(k), xd), k < count)
                    << "alpha=" << alpha << " x=" << x << " k=" << k;
            }
        }
    }
}

}  // namespace
}  // namespace levy
