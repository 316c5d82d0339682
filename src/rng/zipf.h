#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/rng/rng_stream.h"

namespace levy {

/// Exact sampler for the Zipf (discrete Pareto) law
///     P(X = k) = k^{-α} / ζ(α),   k = 1, 2, 3, …,  α > 1,
/// using Devroye's rejection method (Non-Uniform Random Variate Generation,
/// 1986, ch. X.6): an inversion from the continuous Pareto envelope followed
/// by a rejection test. Expected number of iterations is < 3 for all α > 1,
/// and each draw is exact — no truncation or discretization bias.
///
/// This is the engine behind the paper's jump-length distribution (Eq. 3);
/// see `jump_distribution` for the full law including the atom at 0.
class zipf_sampler {
public:
    /// α must be > 1; throws std::invalid_argument otherwise.
    explicit zipf_sampler(double alpha);

    /// Draw one Zipf(α) variate. With or without a head (see build_head),
    /// the same stream state yields the same value and leaves the stream
    /// at the same position. The first attempt's common outcome, a guide
    /// byte whose acceptance count takes v, is settled inline; every other
    /// outcome continues out of line from the same u and v bits.
    [[nodiscard]] std::uint64_t operator()(rng& g) const {
        const double u = g.uniform_positive();
        const std::uint64_t vbits = g.uniform_bits();  // V = vbits·2⁻⁵³, as g.uniform()
        if (const head* h = head_.get()) {
            const std::uint64_t x = h->guide[static_cast<std::size_t>(u * kGuideBuckets)];
            if (x != 0 && vbits < h->vcount[x]) return x;
        }
        return draw_from(g, u, vbits);
    }

    /// Build the *head*: tables that settle the common attempts of the
    /// rejection loop without pow, search or division. Costs ~130 pow
    /// calls and 2.5 KiB once, so callers build it only for exponents that
    /// draw many times (sim::dist_cache does so when an exponent is
    /// requested twice). Idempotent; a no-op for α outside [kHeadMinAlpha,
    /// kHeadMaxAlpha], where the guard-band error budget (DESIGN.md) is not
    /// proven.
    void build_head();

    [[nodiscard]] bool has_head() const noexcept { return head_ != nullptr; }

    /// The head's inversion by search: floor(pow(u, -1/(α-1))) for a
    /// uniform u in (0, 1], when u lies strictly between two guarded
    /// thresholds and the value is at most kHeadSize; otherwise (or without
    /// a head) 0, and the loop evaluates pow as before.
    [[nodiscard]] std::uint64_t head_lookup(double u) const noexcept;

    /// The head's guide over u: entry j is x when the whole bucket
    /// [j/B, (j+1)/B), B = kGuideBuckets, lies strictly inside x's guarded
    /// interval, so head_lookup gives x for every u in it; otherwise (or
    /// without a head) 0, and a draw in the bucket falls through to the
    /// search. Entry B, u = 1's, is always 0.
    [[nodiscard]] std::uint64_t head_guide(std::size_t bucket) const noexcept;

    /// The head's acceptance count for 1 ≤ x ≤ kHeadSize: the loop's test
    /// accepts x with v = k·2⁻⁵³ exactly when k < head_vcount(x). 0 without
    /// a head.
    [[nodiscard]] std::uint64_t head_vcount(std::uint64_t x) const noexcept;

    /// Largest jump length the head settles (H).
    static constexpr std::uint64_t kHeadSize = 63;
    /// Buckets of the guide over u (a power of two, so u·B is exact).
    static constexpr std::size_t kGuideBuckets = 1024;
    /// Relative half-width δ of the guard band around each threshold.
    static constexpr double kHeadGuard = 1e-9;
    /// Exponent range the head is built for.
    static constexpr double kHeadMinAlpha = 1.0 + 1e-6;
    static constexpr double kHeadMaxAlpha = 1001.0;

    /// Draw conditioned on X <= cap (cap >= 1). Rejection against the
    /// unconditioned sampler while it is cheap, with an exact inverse-CDF
    /// fallback over [1, cap] after a bounded number of rejections, so
    /// small caps with α near 1 cannot make the draw spin unboundedly.
    ///
    /// RNG-draw contract (the batched walk engine replays these streams, so
    /// it is pinned by tests/rng/zipf_test.cpp): exactly `kMaxRejections`
    /// full rejection draws via operator(), then exactly one uniform for
    /// the inverse-CDF fallback. The fallback's harmonic-number bisection
    /// consumes no randomness at all.
    [[nodiscard]] std::uint64_t sample_capped(rng& g, std::uint64_t cap) const;

    /// Rejection attempts before sample_capped switches to the exact
    /// inverse-CDF fallback (part of the draw-count contract above).
    static constexpr int kMaxRejections = 64;

    [[nodiscard]] double alpha() const noexcept { return alpha_; }

private:
    /// Thresholds T_n = n^{1-α} for n = 1..H+1: u ≤ T_n iff the envelope
    /// inversion gives x ≥ n. Entry i holds T_{i+1}.
    struct head {
        std::array<double, kHeadSize + 1> lo;  // T_{i+1}·(1 − δ)
        std::array<double, kHeadSize + 1> hi;  // T_{i+1}·(1 + δ)
        std::array<std::uint64_t, kHeadSize + 1> vcount;    // see head_vcount; [0] unused
        std::array<std::uint8_t, kGuideBuckets + 1> guide;  // see head_guide
    };

    /// The rejection loop from an attempt whose uniforms (u, vbits) are
    /// already drawn: operator()'s every outcome but the inline one.
    [[nodiscard]] std::uint64_t draw_from(rng& g, double u, std::uint64_t vbits) const;

    double alpha_;
    double inv_alpha_minus_1_;  // 1/(α-1)
    double b_minus_1_;          // 2^{α-1} - 1
    double inv_b_;              // 2^{1-α}
    std::shared_ptr<const head> head_;  // immutable; copies share it
};

/// Reference sampler for Zipf(α) truncated to {1, …, cap}: exact inverse-CDF
/// over a precomputed table. O(cap) memory, O(log cap) per draw. Used for
/// small caps and as the ground truth the rejection and alias samplers are
/// tested against.
class zipf_table_sampler {
public:
    zipf_table_sampler(double alpha, std::uint64_t cap);

    [[nodiscard]] std::uint64_t operator()(rng& g) const { return quantile(g.uniform()); }

    /// Inverse CDF: the smallest k with P(X <= k) >= u, clamped to [1, cap]
    /// for every finite u — in particular quantile(u) == cap for any
    /// u >= 1, so float round-off in the table can never index past it.
    [[nodiscard]] std::uint64_t quantile(double u) const;

    /// P(X = k) under the truncated law; 0 outside {1, …, cap}. Computed as
    /// k^{-α} / H(cap, α) directly (never by differencing adjacent CDF
    /// entries, which loses up to ~cap·ε of relative precision in the
    /// tail), so Σ_k pmf(k) reproduces the normalized partition sum exactly
    /// up to one rounding of the final division.
    [[nodiscard]] double pmf(std::uint64_t k) const;

    [[nodiscard]] std::uint64_t cap() const noexcept { return cdf_.size(); }
    [[nodiscard]] double alpha() const noexcept { return alpha_; }

    /// The partition sum H(cap, α) = Σ_{k=1..cap} k^{-α} as accumulated at
    /// construction (term order k = 1, 2, …), i.e. exactly 1 / inv_norm.
    [[nodiscard]] double partition() const noexcept { return partition_; }

private:
    double alpha_;
    double partition_;  // H(cap, α), accumulated in index order
    double inv_norm_;   // 1 / partition_
    std::vector<double> cdf_;  // cdf_[k-1] = P(X <= k), cdf_.back() == 1
};

/// Walker alias-table sampler for Zipf(α) truncated to {1, …, cap}: O(cap)
/// setup, O(1) per draw (one bounded integer + one uniform), no rejection
/// loop. This is the batched walk engine's sampler of choice for the capped
/// regime, where millions of draws share one (α, cap); `jump_distribution`
/// selects it automatically for caps up to its alias threshold.
///
/// The pmf is computed exactly as zipf_table_sampler computes it (same
/// accumulation order, same normalizer), so the two agree bit-for-bit —
/// the table sampler stays authoritative and the equivalence is testable
/// without statistical slack.
class zipf_alias_sampler {
public:
    zipf_alias_sampler(double alpha, std::uint64_t cap);

    [[nodiscard]] std::uint64_t operator()(rng& g) const {
        const std::uint64_t j = g.below(prob_.size());
        return g.uniform() < prob_[j] ? j + 1 : alias_[j] + 1;
    }

    /// P(X = k); bit-identical to zipf_table_sampler::pmf for the same
    /// (α, cap). 0 outside {1, …, cap}.
    [[nodiscard]] double pmf(std::uint64_t k) const;

    [[nodiscard]] std::uint64_t cap() const noexcept { return prob_.size(); }
    [[nodiscard]] double alpha() const noexcept { return alpha_; }
    [[nodiscard]] double partition() const noexcept { return partition_; }

private:
    double alpha_;
    double partition_;  // H(cap, α), accumulated in index order
    double inv_norm_;   // 1 / partition_
    std::vector<double> prob_;          // acceptance threshold per column
    std::vector<std::uint32_t> alias_;  // donor index per column
};

}  // namespace levy
