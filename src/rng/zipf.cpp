#include "src/rng/zipf.h"

#include <algorithm>
#include <cmath>

#include "src/core/contracts.h"
#include "src/rng/zeta.h"

namespace levy {

zipf_sampler::zipf_sampler(double alpha) : alpha_(alpha) {
    LEVY_PRECONDITION(alpha > 1.0, "zipf_sampler: alpha must be > 1");
    inv_alpha_minus_1_ = 1.0 / (alpha - 1.0);
    const double b = std::exp2(alpha - 1.0);
    b_minus_1_ = b - 1.0;
    inv_b_ = 1.0 / b;
}

namespace {
// Jump lengths are clamped at 2^48: far beyond any step budget the harness
// uses (a walk needs 2^48 steps to traverse such a phase), yet small enough
// that even ~2^14 consecutive clamped ballistic *flight* jumps cannot
// overflow 64-bit lattice coordinates. The clamped mass is < 2^{-48(α-1)},
// i.e. < 2^{-4.8} only in the most extreme α = 1.1 and astronomically small
// for α ≥ 1.5.
constexpr double kMaxX = 281474976710656.0;  // 2^48

/// Devroye's acceptance test, V·X·(T−1)/(b−1) ≤ T/b: one expression, so the
/// loop and the head's acceptance counts round it alike.
bool accepts(double v, double x, double t, double b_minus_1, double inv_b) noexcept {
    return v * x * (t - 1.0) / b_minus_1 <= t * inv_b;
}

/// How many k in [0, 2⁵³) accepts() takes with v = k·2⁻⁵³ for this x and
/// its loop-computed T. Each rounded operation of the test is monotone
/// non-decreasing in v (x, T − 1 and b − 1 are positive), so the accepted k
/// form a prefix [0, count). The real crossing v* = (T/b)(b − 1)/(x(T − 1))
/// lands within a few k of the count; the test itself, evaluated on both
/// sides, moves the estimate onto it.
std::uint64_t acceptance_count(double x, double t, double b_minus_1, double inv_b) noexcept {
    constexpr std::uint64_t kAll = std::uint64_t{1} << 53;
    const auto take = [&](std::uint64_t k) {
        return accepts(static_cast<double>(k) * 0x1.0p-53, x, t, b_minus_1, inv_b);
    };
    const double estimate = t * inv_b * b_minus_1 / (x * (t - 1.0)) * 0x1.0p53;
    std::uint64_t k = estimate < static_cast<double>(kAll)
                          ? static_cast<std::uint64_t>(std::max(estimate, 0.0))
                          : kAll;
    while (k < kAll && take(k)) ++k;
    while (k > 0 && !take(k - 1)) --k;
    return k;
}
}  // namespace

void zipf_sampler::build_head() {
    if (head_ || !(alpha_ >= kHeadMinAlpha && alpha_ <= kHeadMaxAlpha)) return;
    auto h = std::make_shared<head>();  // value-initialized: every guide entry 0
    for (std::uint64_t i = 0; i <= kHeadSize; ++i) {
        const double threshold = std::pow(static_cast<double>(i + 1), 1.0 - alpha_);
        h->lo[i] = threshold * (1.0 - kHeadGuard);
        h->hi[i] = threshold * (1.0 + kHeadGuard);
    }
    constexpr auto kBuckets = static_cast<double>(kGuideBuckets);
    for (std::uint64_t x = 1; x <= kHeadSize; ++x) {
        // The loop's own T, so the count describes the very test it runs.
        const double xd = static_cast<double>(x);
        const double t = std::pow(1.0 + 1.0 / xd, alpha_ - 1.0);
        h->vcount[x] = acceptance_count(xd, t, b_minus_1_, inv_b_);
        // x settles the open interval (hi[x], lo[x − 1]); bucket j lies
        // inside it iff hi[x] < j/B and (j+1)/B ≤ lo[x − 1]. Scaling by
        // B = 2^10 is exact, so these are the j in [first, last].
        const double first = std::floor(h->hi[x] * kBuckets) + 1.0;
        const double last = std::floor(h->lo[x - 1] * kBuckets) - 1.0;
        if (first <= last) {
            std::fill(h->guide.begin() + static_cast<std::ptrdiff_t>(first),
                      h->guide.begin() + static_cast<std::ptrdiff_t>(last) + 1,
                      static_cast<std::uint8_t>(x));
        }
    }
    head_ = std::move(h);
}

std::uint64_t zipf_sampler::head_lookup(double u) const noexcept {
    if (!head_) return 0;
    const head& h = *head_;
    // c = #{i : u < lo[i]}, by a branch-free binary search (lo decreases).
    // Then u < T_c·(1 − δ) gives x ≥ c, and u > T_{c+1}·(1 + δ) gives
    // x < c + 1. c = 0 always fails the second test, since hi[0] > 1 ≥ u.
    std::uint64_t c = 0;
    for (std::uint64_t step = (kHeadSize + 1) / 2; step != 0; step /= 2) {
        c += step * static_cast<std::uint64_t>(u < h.lo[c + step - 1]);
    }
    return u > h.hi[c] ? c : 0;
}

std::uint64_t zipf_sampler::head_guide(std::size_t bucket) const noexcept {
    return head_ && bucket <= kGuideBuckets ? head_->guide[bucket] : 0;
}

std::uint64_t zipf_sampler::head_vcount(std::uint64_t x) const noexcept {
    return head_ && x >= 1 && x <= kHeadSize ? head_->vcount[x] : 0;
}

std::uint64_t zipf_sampler::draw_from(rng& g, double u, std::uint64_t vbits) const {
    for (;; u = g.uniform_positive(), vbits = g.uniform_bits()) {
        if (head_) {
            // A settled attempt: the guide's byte, or the search, and the
            // test as one integer compare (head_vcount).
            std::uint64_t x = head_->guide[static_cast<std::size_t>(u * kGuideBuckets)];
            if (x == 0) x = head_lookup(u);
            if (x != 0) {
                if (vbits < head_->vcount[x]) return x;
                continue;
            }
        }
        const double v = static_cast<double>(vbits) * 0x1.0p-53;
        const double x = std::min(std::floor(std::pow(u, -inv_alpha_minus_1_)), kMaxX);
        const double t = std::pow(1.0 + 1.0 / x, alpha_ - 1.0);  // T = (1 + 1/X)^{α-1}
        if (accepts(v, x, t, b_minus_1_, inv_b_)) return static_cast<std::uint64_t>(x);
    }
}

std::uint64_t zipf_sampler::sample_capped(rng& g, std::uint64_t cap) const {
    LEVY_PRECONDITION(cap != 0, "zipf_sampler: cap must be >= 1");
    if (cap == 1) return 1;
    // Rejection is cheap when P(X <= cap) is large, but that probability is
    // ~ 1 - cap^{1-α}, which for small caps with α near 1 can be tiny — the
    // unbounded loop would spin for thousands of draws. Bound the rejection
    // attempts and fall back to exact inverse-CDF sampling over [1, cap].
    for (int attempt = 0; attempt < kMaxRejections; ++attempt) {
        const std::uint64_t x = (*this)(g);
        if (x <= cap) return x;
    }
    // Inverse CDF of the truncated law: the smallest m in [1, cap] with
    // H(m, α) >= u · H(cap, α), where H is the generalized harmonic number
    // (partial zeta sum). Bisect with the O(1) Euler–Maclaurin evaluation
    // only until the bracket is narrow, then finish with one incremental
    // power-sum sweep — probing H(mid, α) at every level cost O(mid) per
    // probe in the direct-summation regime, i.e. O(cap log cap) per draw.
    const double total = harmonic(cap, alpha_);
    const double u = g.uniform() * total;
    constexpr std::uint64_t kSweepWidth = 512;
    std::uint64_t lo = 1, hi = cap;
    while (hi - lo > kSweepWidth) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (harmonic(mid, alpha_) >= u) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // One harmonic evaluation anchors the sweep; each further term is a
    // single pow. The sweep's accumulation can differ from H(m, α) by an
    // ulp, which only ever shifts the returned value by at most one — still
    // a valid inverse-CDF draw, and the same one on every replay.
    double acc = lo == 1 ? 0.0 : harmonic(lo - 1, alpha_);
    for (std::uint64_t m = lo; m < hi; ++m) {
        acc += std::pow(static_cast<double>(m), -alpha_);
        if (acc >= u) return m;
    }
    LEVY_ASSERT(hi >= 1 && hi <= cap, "zipf_sampler: inverse-CDF fallback out of range");
    return hi;
}

zipf_table_sampler::zipf_table_sampler(double alpha, std::uint64_t cap) : alpha_(alpha) {
    LEVY_PRECONDITION(alpha > 0.0, "zipf_table_sampler: alpha must be > 0");
    LEVY_PRECONDITION(cap >= 1 && cap <= (1ULL << 28), "zipf_table_sampler: cap must be in [1, 2^28]");
    cdf_.resize(cap);
    double acc = 0.0;
    for (std::uint64_t k = 1; k <= cap; ++k) {
        acc += std::pow(static_cast<double>(k), -alpha);
        cdf_[k - 1] = acc;
    }
    partition_ = acc;
    inv_norm_ = 1.0 / acc;
    for (auto& c : cdf_) c /= acc;
    cdf_.back() = 1.0;  // guard against round-off
}

std::uint64_t zipf_table_sampler::quantile(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    // u >= cdf_.back() (possible for u >= 1, or if round-off ever left the
    // backstop below an achievable uniform) must clamp to cap, not index
    // one past the table.
    if (it == cdf_.end()) return cdf_.size();
    return static_cast<std::uint64_t>(it - cdf_.begin()) + 1;
}

double zipf_table_sampler::pmf(std::uint64_t k) const {
    if (k < 1 || k > cdf_.size()) return 0.0;
    // Direct evaluation. Differencing adjacent CDF entries loses absolute
    // precision ~ulp(1) per entry, which in the tail (where true masses are
    // ~k^{-α}·inv_norm) is a large *relative* error.
    return std::pow(static_cast<double>(k), -alpha_) * inv_norm_;
}

zipf_alias_sampler::zipf_alias_sampler(double alpha, std::uint64_t cap) : alpha_(alpha) {
    LEVY_PRECONDITION(alpha > 0.0, "zipf_alias_sampler: alpha must be > 0");
    LEVY_PRECONDITION(cap >= 1 && cap <= (1ULL << 28), "zipf_alias_sampler: cap must be in [1, 2^28]");
    // Accumulate the partition in the same index order as zipf_table_sampler
    // so partition_/inv_norm_ (and hence pmf) agree with it bit-for-bit.
    const std::size_t n = static_cast<std::size_t>(cap);
    std::vector<double> scaled(n);
    double acc = 0.0;
    for (std::uint64_t k = 1; k <= cap; ++k) {
        const double w = std::pow(static_cast<double>(k), -alpha);
        scaled[k - 1] = w;
        acc += w;
    }
    partition_ = acc;
    inv_norm_ = 1.0 / acc;
    // Vose's stable alias construction: scale masses to mean 1, pair each
    // deficit column with a surplus donor. Deterministic (stack order is a
    // pure function of the weights), so tables rebuild identically.
    const double scale = inv_norm_ * static_cast<double>(n);
    for (auto& s : scaled) s *= scale;
    prob_.assign(n, 1.0);
    alias_.resize(n);
    for (std::size_t j = 0; j < n; ++j) alias_[j] = static_cast<std::uint32_t>(j);
    std::vector<std::uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
        (scaled[j] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(j));
    }
    while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        small.pop_back();
        const std::uint32_t l = large.back();
        large.pop_back();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    // Leftovers on either stack are within round-off of exactly 1; their
    // prob_ entries stay 1.0 (alias never taken), which is the standard
    // numerically robust finish.
}

double zipf_alias_sampler::pmf(std::uint64_t k) const {
    if (k < 1 || k > prob_.size()) return 0.0;
    return std::pow(static_cast<double>(k), -alpha_) * inv_norm_;
}

}  // namespace levy
