#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace levy::serve {

/// --- Quantized LRU result cache with crash-safe persistence ---------------
///
/// Keyed on a quantized (α, ℓ, k, budget): α snaps to a uniform grid,
/// budget to a geometric (log₂) grid, ℓ and k stay exact — repeated traffic
/// within one cell is O(lookup), and a miss can often be answered by
/// bilinear interpolation over the (α, budget) grid cell that surrounds the
/// query (the two axes the hitting probability varies smoothly along;
/// distinct (ℓ, k) are never mixed).
///
/// Persistence uses the journals' framed layout (sim::frame_format: a
/// CRC-checked header and a CRC per fixed-size record), written via
/// sim::atomic_write_file. Loading validates every record independently —
/// a bit-flipped or torn record drops *itself*, never its neighbors, so a
/// kill -9 between flushes costs at most the unflushed inserts and can
/// never poison surviving answers.
///
/// Thread safety: all public members lock; the cache is shared between
/// server workers.

/// Quantized key. `alpha_q` = round(32 α); `budget_q` =
/// round(8 log2(budget)) (budget ≥ 1): α in steps of 1/32, budget in
/// eighths of an octave.
struct cache_key {
    std::int32_t alpha_q = 0;
    std::int64_t ell = 0;
    std::uint64_t k = 0;
    std::int32_t budget_q = 0;

    friend bool operator<(const cache_key& a, const cache_key& b) noexcept {
        if (a.ell != b.ell) return a.ell < b.ell;
        if (a.k != b.k) return a.k < b.k;
        if (a.alpha_q != b.alpha_q) return a.alpha_q < b.alpha_q;
        return a.budget_q < b.budget_q;
    }
    friend bool operator==(const cache_key& a, const cache_key& b) noexcept {
        return a.ell == b.ell && a.k == b.k && a.alpha_q == b.alpha_q &&
               a.budget_q == b.budget_q;
    }
};

/// A cached exact answer: P(τ^k ≤ budget) estimated from `trials` trials.
struct cache_value {
    double probability = 0.0;
    double ci_low = 0.0;
    double ci_high = 1.0;
    std::uint64_t trials = 0;
};

struct cache_options {
    std::size_t capacity = 4096;  ///< max entries (≥ 1); LRU eviction
};

class result_cache {
public:
    explicit result_cache(const cache_options& opts);

    /// Snap raw query coordinates onto the grid.
    [[nodiscard]] cache_key quantize(double alpha, std::int64_t ell, std::uint64_t k,
                                     std::uint64_t budget) const noexcept;
    /// Grid-cell centers, for interpolation weights.
    [[nodiscard]] double alpha_of(std::int32_t alpha_q) const noexcept;
    [[nodiscard]] double log2_budget_of(std::int32_t budget_q) const noexcept;

    /// Exact-cell lookup; refreshes LRU order on hit.
    [[nodiscard]] std::optional<cache_value> find(const cache_key& key);

    /// Bilinear interpolation over the (α, log₂ budget) cell around the
    /// query, for the same exact (ℓ, k). Uses the 4 surrounding grid points
    /// when all are cached, degrades to linear (2 points spanning one axis,
    /// at either coordinate of the other — nearest side first) or to the
    /// nearest single cached corner. Returns nullopt when no surrounding
    /// point is cached. The result is always clamped to [0, 1].
    struct interpolation {
        double probability = 0.0;
        int grid_points = 0;  ///< 4 = bilinear, 2 = linear, 1 = exact cell
    };
    [[nodiscard]] std::optional<interpolation> interpolate(double alpha, std::int64_t ell,
                                                           std::uint64_t k,
                                                           std::uint64_t budget);

    /// Insert or refresh; evicts the least-recently-used entry past
    /// capacity. Probability and interval are clamped to [0, 1] on the way
    /// in, so no later read can leave the unit interval.
    void insert(const cache_key& key, const cache_value& value);

    [[nodiscard]] std::size_t size() const;

    /// --- Persistence ------------------------------------------------------

    /// Serialize every entry (MRU first, so a truncated tail loses the
    /// coldest entries) and write crash-safely to `path`. Calls the
    /// sim::fault_on_checkpoint_flush hook with this cache's flush ordinal,
    /// counted from 0 — the levyserve crash drill _Exits there, *between*
    /// flushes reaching disk. Throws std::runtime_error on I/O failure.
    void save(const std::string& path);

    /// Load `path`, replacing the current contents with every record whose
    /// CRC validates (bad records are skipped one by one; a missing file or
    /// foreign/corrupt header loads nothing). Returns entries kept.
    std::size_t load(const std::string& path);

    /// Inserts since the last save (the server's flush-cadence trigger).
    [[nodiscard]] std::size_t dirty_inserts() const;

private:
    using lru_list = std::list<std::pair<cache_key, cache_value>>;

    void touch_locked(std::map<cache_key, lru_list::iterator>::iterator it);
    [[nodiscard]] const cache_value* peek_locked(const cache_key& key);

    cache_options opts_;
    mutable std::mutex m_;
    lru_list lru_;  ///< front = most recently used
    std::map<cache_key, lru_list::iterator> index_;
    std::size_t dirty_ = 0;
    std::size_t flush_ordinal_ = 0;
};

}  // namespace levy::serve
