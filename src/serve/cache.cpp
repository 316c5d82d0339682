#include "src/serve/cache.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/core/contracts.h"
#include "src/sim/checkpoint.h"
#include "src/sim/fault.h"
#include "src/sim/le_bytes.h"

namespace levy::serve {
namespace {

/// Grid pitches: α in steps of 1/32, budget in eighths of an octave.
constexpr double kAlphaStep = 1.0 / 32;
constexpr int kBudgetStepsPerOctave = 8;

/// On disk the cache is a framed file (sim::frame_format) with no identity
/// words; a record's payload is
///   alpha_q i32 | budget_q i32 | ell i64 | k u64
///   | probability f64 | ci_low f64 | ci_high f64 | trials u64
const sim::frame_format kFormat{
    .magic = 0x4843'4143'5259'564cULL,  // "LVYRCACH" LE
    .version = 2,
    .payload_bytes = 56,
};

double clamp01(double v) noexcept { return std::clamp(v, 0.0, 1.0); }

}  // namespace

result_cache::result_cache(const cache_options& opts) : opts_(opts) {
    LEVY_PRECONDITION(opts_.capacity >= 1, "result_cache: capacity must be >= 1");
}

cache_key result_cache::quantize(double alpha, std::int64_t ell, std::uint64_t k,
                                 std::uint64_t budget) const noexcept {
    cache_key key;
    key.alpha_q = static_cast<std::int32_t>(std::lround(alpha / kAlphaStep));
    key.ell = ell;
    key.k = k;
    const double log_budget = std::log2(static_cast<double>(std::max<std::uint64_t>(budget, 1)));
    key.budget_q = static_cast<std::int32_t>(
        std::lround(log_budget * kBudgetStepsPerOctave));
    return key;
}

double result_cache::alpha_of(std::int32_t alpha_q) const noexcept {
    return static_cast<double>(alpha_q) * kAlphaStep;
}

double result_cache::log2_budget_of(std::int32_t budget_q) const noexcept {
    return static_cast<double>(budget_q) / kBudgetStepsPerOctave;
}

void result_cache::touch_locked(std::map<cache_key, lru_list::iterator>::iterator it) {
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second = lru_.begin();
}

const cache_value* result_cache::peek_locked(const cache_key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    return &it->second->second;
}

std::optional<cache_value> result_cache::find(const cache_key& key) {
    std::lock_guard lk(m_);
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    touch_locked(it);
    return it->second->second;
}

std::optional<result_cache::interpolation> result_cache::interpolate(double alpha,
                                                                     std::int64_t ell,
                                                                     std::uint64_t k,
                                                                     std::uint64_t budget) {
    std::lock_guard lk(m_);
    const double a = alpha / kAlphaStep;
    const double b = std::log2(static_cast<double>(std::max<std::uint64_t>(budget, 1))) *
                     kBudgetStepsPerOctave;
    const auto a0 = static_cast<std::int32_t>(std::floor(a));
    const auto b0 = static_cast<std::int32_t>(std::floor(b));
    const std::int32_t a1 = a0 + 1;
    const std::int32_t b1 = b0 + 1;
    // Weights toward the upper grid point on each axis, clamped so a query
    // that sits exactly on a grid line never extrapolates.
    const double wa = clamp01(a - static_cast<double>(a0));
    const double wb = clamp01(b - static_cast<double>(b0));
    const auto at = [&](std::int32_t aq, std::int32_t bq) -> const cache_value* {
        return peek_locked(cache_key{aq, ell, k, bq});
    };
    const cache_value* c00 = at(a0, b0);
    const cache_value* c01 = at(a0, b1);
    const cache_value* c10 = at(a1, b0);
    const cache_value* c11 = at(a1, b1);
    interpolation out;
    if (c00 != nullptr && c01 != nullptr && c10 != nullptr && c11 != nullptr) {
        out.probability = (1.0 - wa) * ((1.0 - wb) * c00->probability + wb * c01->probability) +
                          wa * ((1.0 - wb) * c10->probability + wb * c11->probability);
        out.grid_points = 4;
    } else {
        // Degrade to a full grid line: linear along one axis when both of
        // its end points exist at *either* coordinate of the other axis —
        // nearest side first. Trying both sides matters: the query's own
        // rounded cell is one of the four corners, and when the server
        // reaches this path that cell is known empty (the exact-cell lookup
        // already missed), so the far row/column is frequently the only
        // populated one. Last resort: any single populated corner, nearest
        // first.
        const std::int32_t aq = wa < 0.5 ? a0 : a1;
        const std::int32_t bq = wb < 0.5 ? b0 : b1;
        const std::int32_t a_far = aq == a0 ? a1 : a0;
        const std::int32_t b_far = bq == b0 ? b1 : b0;
        out.grid_points = 0;
        for (const std::int32_t row : {bq, b_far}) {
            const cache_value* lo = at(a0, row);
            const cache_value* hi = at(a1, row);
            if (lo != nullptr && hi != nullptr) {
                out.probability = (1.0 - wa) * lo->probability + wa * hi->probability;
                out.grid_points = 2;
                break;
            }
        }
        if (out.grid_points == 0) {
            for (const std::int32_t col : {aq, a_far}) {
                const cache_value* lo = at(col, b0);
                const cache_value* hi = at(col, b1);
                if (lo != nullptr && hi != nullptr) {
                    out.probability = (1.0 - wb) * lo->probability + wb * hi->probability;
                    out.grid_points = 2;
                    break;
                }
            }
        }
        if (out.grid_points == 0) {
            for (const auto& [ca, cb] : {std::pair{aq, bq}, {aq, b_far},
                                         {a_far, bq}, {a_far, b_far}}) {
                if (const cache_value* nearest = at(ca, cb); nearest != nullptr) {
                    out.probability = nearest->probability;
                    out.grid_points = 1;
                    break;
                }
            }
        }
        if (out.grid_points == 0) return std::nullopt;
    }
    out.probability = clamp01(out.probability);
    return out;
}

void result_cache::insert(const cache_key& key, const cache_value& value) {
    std::lock_guard lk(m_);
    cache_value clamped = value;
    clamped.probability = clamp01(clamped.probability);
    clamped.ci_low = clamp01(clamped.ci_low);
    clamped.ci_high = clamp01(clamped.ci_high);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = clamped;
        touch_locked(it);
    } else {
        lru_.emplace_front(key, clamped);
        index_.emplace(key, lru_.begin());
        while (lru_.size() > opts_.capacity) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
        }
    }
    ++dirty_;
}

std::size_t result_cache::size() const {
    std::lock_guard lk(m_);
    return lru_.size();
}

std::size_t result_cache::dirty_inserts() const {
    std::lock_guard lk(m_);
    return dirty_;
}

void result_cache::save(const std::string& path) {
    std::vector<char> bytes;
    std::size_t ordinal = 0;
    {
        std::lock_guard lk(m_);
        auto next = lru_.begin();  // MRU first
        bytes = sim::write_frames(kFormat, lru_.size(), [&](char* p) {
            const auto& [key, value] = *next++;
            p = sim::store_le(p, key.alpha_q);
            p = sim::store_le(p, key.budget_q);
            p = sim::store_le(p, key.ell);
            p = sim::store_le(p, key.k);
            p = sim::store_le(p, value.probability);
            p = sim::store_le(p, value.ci_low);
            p = sim::store_le(p, value.ci_high);
            sim::store_le(p, value.trials);
        });
        dirty_ = 0;
        ordinal = flush_ordinal_++;
    }
    // The crash drill's hook point: a planned _Exit here dies with the new
    // bytes assembled but not yet renamed into place — exactly "between
    // flushes". The previous on-disk cache must survive intact. A planned
    // short or torn write lands as planned; the next flush writes whole.
    (void)sim::fault_on_checkpoint_flush(ordinal, bytes);
    sim::atomic_write_file(path, bytes);
}

std::size_t result_cache::load(const std::string& path) {
    std::vector<char> bytes;
    if (!sim::read_file(path, bytes)) bytes.clear();
    const sim::frame_scan scan = sim::read_frames(bytes, kFormat);
    std::lock_guard lk(m_);
    lru_.clear();
    index_.clear();
    dirty_ = 0;
    std::size_t kept = 0;
    for (const auto& [payload, intact] : scan.records) {
        if (!intact) continue;  // a bad record drops itself, never its neighbors
        const char* rec = payload.data();
        cache_key key;
        key.alpha_q = sim::load_le<std::int32_t>(rec);
        key.budget_q = sim::load_le<std::int32_t>(rec + 4);
        key.ell = sim::load_le<std::int64_t>(rec + 8);
        key.k = sim::load_le<std::uint64_t>(rec + 16);
        cache_value value;
        value.probability = clamp01(sim::load_le<double>(rec + 24));
        value.ci_low = clamp01(sim::load_le<double>(rec + 32));
        value.ci_high = clamp01(sim::load_le<double>(rec + 40));
        value.trials = sim::load_le<std::uint64_t>(rec + 48);
        if (index_.contains(key)) continue;  // records are MRU-first: keep the hotter one
        if (lru_.size() >= opts_.capacity) break;
        lru_.emplace_back(key, value);  // preserve MRU-first order
        index_.emplace(key, std::prev(lru_.end()));
        ++kept;
    }
    return kept;
}

}  // namespace levy::serve
