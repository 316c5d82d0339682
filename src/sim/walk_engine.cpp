#include "src/sim/walk_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "src/core/contracts.h"
#include "src/grid/ring.h"
#include "src/sim/le_bytes.h"

namespace levy::sim {
namespace {
// Same 128-bit exact comparison the scalar stepper uses (grid/direct_path).
__extension__ typedef __int128 int128;

/// Beyond this many cached (α, cap) jump distributions, drop the cache
/// between runs: continuous strategies (uniform_exponent) produce a fresh α
/// per walker and would otherwise grow it without bound.
constexpr std::size_t kDistCacheLimit = 1024;

char* store_rng(char* p, const rng& g) noexcept {
    const rng::state st = g.save();
    p = store_le(p, st.seed);
    for (const std::uint64_t w : st.engine) p = store_le(p, w);
    return p;
}

rng load_rng(const char* p) noexcept {
    rng::state st;
    st.seed = load_le<std::uint64_t>(p);
    for (std::size_t i = 0; i < st.engine.size(); ++i) {
        st.engine[i] = load_le<std::uint64_t>(p + 8 + 8 * i);
    }
    return rng::restore(st);
}

}  // namespace

// ---------------------------------------------------------------------------
// dist_cache

void dist_cache::reset(std::uint64_t cap) {
    if (!entries_.empty() && (cap_ != cap || entries_.size() > kDistCacheLimit)) {
        entries_.clear();
    }
    cap_ = cap;
}

std::uint32_t dist_cache::index_for(double alpha) {
    return index_for_bits(std::bit_cast<std::uint64_t>(alpha));
}

std::uint32_t dist_cache::index_for_bits(std::uint64_t alpha_bits) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].alpha_bits == alpha_bits) return static_cast<std::uint32_t>(i);
    }
    entries_.push_back({alpha_bits, jump_distribution(std::bit_cast<double>(alpha_bits), cap_)});
    return static_cast<std::uint32_t>(entries_.size() - 1);
}

// ---------------------------------------------------------------------------
// walker_block

void walker_block::clear() {
    ids_.clear();
    main_.clear();
    path_.clear();
    dist_ix_.clear();
    x_.clear();
    y_.clear();
    elapsed_.clear();
    phase_.clear();
    total_.clear();
    j_.clear();
    adx_.clear();
    ady_.clear();
    sx_.clear();
    sy_.clear();
    px_.clear();
    py_.clear();
    destx_.clear();
    desty_.clear();
    istar_.clear();
    pxt_.clear();
}

std::uint64_t walker_block::min_live_elapsed() const noexcept {
    std::uint64_t least = ~std::uint64_t{0};
    for (std::size_t w = 0; w < ids_.size(); ++w) least = std::min(least, elapsed_[w]);
    return least;
}

void walker_block::spawn(std::size_t id, double alpha, rng stream, dist_cache& dists) {
    ids_.push_back(id);
    main_.push_back(stream);
    // Placeholder until the first d >= 1 phase derives the real substream.
    path_.push_back(stream.substream(0));
    dist_ix_.push_back(dists.index_for(alpha));
    x_.push_back(origin.x);
    y_.push_back(origin.y);
    elapsed_.push_back(0);
    phase_.push_back(0);
    total_.push_back(0);
    j_.push_back(0);
    adx_.push_back(0);
    ady_.push_back(0);
    sx_.push_back(1);
    sy_.push_back(1);
    px_.push_back(0);
    py_.push_back(0);
    destx_.push_back(0);
    desty_.push_back(0);
    istar_.push_back(0);
    pxt_.push_back(0);
}

void walker_block::swap_slots(std::size_t a, std::size_t b) noexcept {
    if (a == b) return;
    std::swap(ids_[a], ids_[b]);
    std::swap(main_[a], main_[b]);
    std::swap(path_[a], path_[b]);
    std::swap(dist_ix_[a], dist_ix_[b]);
    std::swap(x_[a], x_[b]);
    std::swap(y_[a], y_[b]);
    std::swap(elapsed_[a], elapsed_[b]);
    std::swap(phase_[a], phase_[b]);
    std::swap(total_[a], total_[b]);
    std::swap(j_[a], j_[b]);
    std::swap(adx_[a], adx_[b]);
    std::swap(ady_[a], ady_[b]);
    std::swap(sx_[a], sx_[b]);
    std::swap(sy_[a], sy_[b]);
    std::swap(px_[a], px_[b]);
    std::swap(py_[a], py_[b]);
    std::swap(destx_[a], destx_[b]);
    std::swap(desty_[a], desty_[b]);
    std::swap(istar_[a], istar_[b]);
    std::swap(pxt_[a], pxt_[b]);
}

void walker_block::resize(std::size_t live_count) {
    ids_.resize(live_count);
    main_.resize(live_count, rng::seeded(0));
    path_.resize(live_count, rng::seeded(0));
    dist_ix_.resize(live_count);
    x_.resize(live_count);
    y_.resize(live_count);
    elapsed_.resize(live_count);
    phase_.resize(live_count);
    total_.resize(live_count);
    j_.resize(live_count);
    adx_.resize(live_count);
    ady_.resize(live_count);
    sx_.resize(live_count);
    sy_.resize(live_count);
    px_.resize(live_count);
    py_.resize(live_count);
    destx_.resize(live_count);
    desty_.resize(live_count);
    istar_.resize(live_count);
    pxt_.resize(live_count);
}

void walker_block::replay_step(std::size_t w) {
    bool step_x;
    if (px_[w] == adx_[w]) {
        step_x = false;
    } else if (py_[w] == ady_[w]) {
        step_x = true;
    } else {
        const int128 i1 = static_cast<int128>(px_[w] + py_[w]) + 1;
        const int128 ex = static_cast<int128>(total_[w]) * px_[w] - i1 * adx_[w];
        const int128 ey = static_cast<int128>(total_[w]) * py_[w] - i1 * ady_[w];
        if (ex < ey) {
            step_x = true;
        } else if (ey < ex) {
            step_x = false;
        } else {
            step_x = path_[w].coin();
        }
    }
    if (step_x) {
        ++px_[w];
    } else {
        ++py_[w];
    }
    ++j_[w];
}

bool walker_block::advance_one(std::size_t w, const engine_options& opts,
                               const dist_cache& dists, std::uint64_t allowance, point target,
                               best_state& best) {
    if (total_[w] == 0) {
        // Begin a phase: same stream, same draw order as the scalar walk.
        ++phase_[w];
        // levylint:allow(conditional-main-draw): the phase-start guard is
        // pure in the walker's own draw history (total_ hits 0 exactly when
        // the scalar walk starts a phase), so the draw count replays
        // bit-exactly — pinned by walk_engine_test scalar/batch parity.
        const std::uint64_t d = dists.at(dist_ix_[w]).sample_capped(main_[w], dists.cap());
        if (d == 0) {
            // Stay-put phase: exactly one step, position unchanged. The
            // position is never the target here (a walker retires the step
            // it first touches the target), so no hit check is needed.
            ++elapsed_[w];
            return elapsed_[w] >= allowance;
        }
        const point from{x_[w], y_[w]};
        // levylint:allow(conditional-main-draw): scalar parity — levy_walk
        // also skips the ring draw on stay-put phases (d == 0), so the
        // branch is replayed identically from the same stream state.
        const point dest = sample_ring(from, static_cast<std::int64_t>(d), main_[w]);
        const point delta = dest - from;
        adx_[w] = abs64(delta.x);
        ady_[w] = abs64(delta.y);
        sx_[w] = delta.x < 0 ? -1 : 1;
        sy_[w] = delta.y < 0 ? -1 : 1;
        total_[w] = d;
        j_[w] = 0;
        px_[w] = 0;
        py_[w] = 0;
        destx_[w] = dest.x;
        desty_[w] = dest.y;
        // The path is monotone along both axes, and its node after step i
        // is at L1 distance exactly i from `from`; the target can be
        // visited only if it sits in the bounding box, and then only at
        // step i* = ‖target − from‖₁ with x-progress exactly tdx.
        const std::int64_t tdx = sx_[w] * (target.x - from.x);
        const std::int64_t tdy = sy_[w] * (target.y - from.y);
        if (tdx >= 0 && tdx <= adx_[w] && tdy >= 0 && tdy <= ady_[w] && tdx + tdy > 0) {
            istar_[w] = static_cast<std::uint64_t>(tdx + tdy);
            pxt_[w] = tdx;
        } else {
            istar_[w] = 0;
        }
        path_[w] = main_[w].substream(phase_[w]);
    }
    // Advance within the phase by at most the allowance (and the epoch
    // quantum, when set). Steps past the candidate i* can neither hit nor
    // influence any later draw — tie coins live on the throwaway per-phase
    // substream — so they are skipped arithmetically.
    const std::uint64_t j0 = j_[w];
    std::uint64_t take = std::min(total_[w] - j0, allowance - elapsed_[w]);
    if (opts.epoch_steps != 0) take = std::min(take, opts.epoch_steps);
    const std::uint64_t jend = j0 + take;
    if (istar_[w] != 0 && j0 < istar_[w]) {
        const std::uint64_t replay_to = std::min(jend, istar_[w]);
        while (j_[w] < replay_to) replay_step(w);
        if (j_[w] == istar_[w]) {
            if (px_[w] == pxt_[w]) {
                const std::uint64_t t = elapsed_[w] + (istar_[w] - j0);
                // Order-independent lex-min registration: better time, or
                // equal time from a smaller walker index.
                if (!best.hit || t < best.time || (t == best.time && ids_[w] < best.winner)) {
                    best.hit = true;
                    best.time = t;
                    best.winner = ids_[w];
                }
                return true;  // first visit to the target: the walker is done
            }
            istar_[w] = 0;  // passed the only candidate step without hitting
        }
    }
    j_[w] = jend;
    elapsed_[w] += take;
    if (j_[w] == total_[w]) {
        x_[w] = destx_[w];
        y_[w] = desty_[w];
        total_[w] = 0;
    }
    return elapsed_[w] >= allowance;
}

void walker_block::epoch(const engine_options& opts, const dist_cache& dists, point target,
                         std::uint64_t allowance_cap, best_state& best) {
    std::size_t live_count = ids_.size();
    // The sweep re-reads `best` per walker, so an early hit immediately
    // shrinks everyone else's allowance; correctness never depends on that
    // — only the amount of pruned work does.
    for (std::size_t w = 0; w < live_count;) {
        const std::uint64_t allowance =
            best.hit ? std::min(best.time, allowance_cap) : allowance_cap;
        const bool retire =
            elapsed_[w] >= allowance || advance_one(w, opts, dists, allowance, target, best);
        if (retire) {
            swap_slots(w, live_count - 1);
            --live_count;
        } else {
            ++w;
        }
    }
    resize(live_count);
}

// Spill record layout: kBytesPerWalker = 28 little-endian 8-byte words.
//
//     offset  field            offset  field        offset  field
//          0  id                  112  elapsed         176  px
//          8  alpha bits          120  phase           184  py
//         16  main rng (5 words)  128  total           192  destx
//         56  path rng (5 words)  136  j               200  desty
//         96  x                   144  adx             208  istar
//        104  y                   152  ady             216  pxt
//                                 160  sx
//                                 168  sy
//
// An rng is its seed word then its four engine words (rng::state order).

void walker_block::serialize(const dist_cache& dists, std::vector<char>& out) const {
    const std::size_t base = out.size();
    out.resize(base + ids_.size() * kBytesPerWalker);
    char* p = out.data() + base;
    for (std::size_t w = 0; w < ids_.size(); ++w) {
        p = store_le(p, static_cast<std::uint64_t>(ids_[w]));
        p = store_le(p, dists.alpha_bits(dist_ix_[w]));
        p = store_rng(p, main_[w]);
        p = store_rng(p, path_[w]);
        p = store_le(p, x_[w]);
        p = store_le(p, y_[w]);
        p = store_le(p, elapsed_[w]);
        p = store_le(p, phase_[w]);
        p = store_le(p, total_[w]);
        p = store_le(p, j_[w]);
        p = store_le(p, adx_[w]);
        p = store_le(p, ady_[w]);
        p = store_le(p, sx_[w]);
        p = store_le(p, sy_[w]);
        p = store_le(p, px_[w]);
        p = store_le(p, py_[w]);
        p = store_le(p, destx_[w]);
        p = store_le(p, desty_[w]);
        p = store_le(p, istar_[w]);
        p = store_le(p, pxt_[w]);
    }
}

bool walker_block::deserialize(const char* bytes, std::size_t count, dist_cache& dists) {
    resize(count);  // every slot below is overwritten or the block cleared
    for (std::size_t w = 0; w < count; ++w) {
        const char* p = bytes + w * kBytesPerWalker;
        const auto alpha_bits = load_le<std::uint64_t>(p + 8);
        const double alpha = std::bit_cast<double>(alpha_bits);
        const auto phase = load_le<std::uint64_t>(p + 120);
        const auto total = load_le<std::uint64_t>(p + 128);
        const auto j = load_le<std::uint64_t>(p + 136);
        const auto adx = load_le<std::int64_t>(p + 144);
        const auto ady = load_le<std::int64_t>(p + 152);
        const auto sx = load_le<std::int64_t>(p + 160);
        const auto sy = load_le<std::int64_t>(p + 168);
        const auto px = load_le<std::int64_t>(p + 176);
        const auto py = load_le<std::int64_t>(p + 184);
        const auto istar = load_le<std::uint64_t>(p + 208);
        // Structural sanity before the values can reach samplers or the
        // replay arithmetic; CRC catches random corruption first, so this
        // is defense-in-depth against a validly-checksummed-but-bogus file.
        const bool alpha_ok = std::isfinite(alpha) && alpha > 1.0;
        const bool sign_ok = (sx == 1 || sx == -1) && (sy == 1 || sy == -1);
        bool phase_ok = true;
        if (total != 0) {
            phase_ok = j < total && adx >= 0 && ady >= 0 &&
                       static_cast<std::uint64_t>(adx) + static_cast<std::uint64_t>(ady) ==
                           total &&
                       px >= 0 && py >= 0 && px <= adx && py <= ady &&
                       istar <= total && phase > 0;
        }
        if (!alpha_ok || !sign_ok || !phase_ok) {
            clear();
            return false;
        }
        ids_[w] = static_cast<std::size_t>(load_le<std::uint64_t>(p));
        main_[w] = load_rng(p + 16);
        path_[w] = load_rng(p + 56);
        dist_ix_[w] = dists.index_for_bits(alpha_bits);
        x_[w] = load_le<std::int64_t>(p + 96);
        y_[w] = load_le<std::int64_t>(p + 104);
        elapsed_[w] = load_le<std::uint64_t>(p + 112);
        phase_[w] = phase;
        total_[w] = total;
        j_[w] = j;
        adx_[w] = adx;
        ady_[w] = ady;
        sx_[w] = sx;
        sy_[w] = sy;
        px_[w] = px;
        py_[w] = py;
        destx_[w] = load_le<std::int64_t>(p + 192);
        desty_[w] = load_le<std::int64_t>(p + 200);
        istar_[w] = istar;
        pxt_[w] = load_le<std::int64_t>(p + 216);
    }
    return true;
}

// ---------------------------------------------------------------------------
// walk_engine

walk_engine& walk_engine::local() {
    thread_local walk_engine engine;
    return engine;
}

best_state walk_engine::drive(point target, std::uint64_t budget) {
    best_state best;
    while (block_.live() > 0) {
        // One epoch: every live walker advances one phase (or quantum
        // chunk), pruned by the best hit registered so far.
        block_.epoch(opts_, dists_, target, budget, best);
    }
    return best;
}

hit_result walk_engine::run_single(double alpha, point target, std::uint64_t budget,
                                   const rng& stream, std::uint64_t cap) {
    if (target == origin) return {true, 0};
    dists_.reset(cap);
    block_.clear();
    block_.spawn(0, alpha, stream, dists_);
    const best_state best = drive(target, budget);
    return {best.hit, best.hit ? best.time : budget};
}

parallel_result walk_engine::run_parallel(std::size_t k, const exponent_strategy& strategy,
                                          point target, std::uint64_t budget,
                                          const rng& trial_stream, std::uint64_t cap) {
    parallel_result result;
    result.time = budget;
    if (k == 0) return result;
    if (target == origin) {
        // Every walker stands on the target at t = 0; walker 0 wins.
        result.hit = true;
        result.time = 0;
        result.winner = 0;
    } else {
        dists_.reset(cap);
        block_.clear();
        for (std::size_t i = 0; i < k; ++i) {
            rng stream = trial_stream.substream(i);
            const double alpha = strategy(i, stream);  // consumes the same draws as scalar
            block_.spawn(i, alpha, stream, dists_);
        }
        const best_state best = drive(target, budget);
        if (best.hit) {
            result.hit = true;
            result.time = best.time;
            result.winner = best.winner;
        }
    }
    if (result.hit) {
        // Same winner-exponent replay as parallel_hit: strategy draws are a
        // pure function of (trial_stream, walker index).
        rng walk_stream = trial_stream.substream(result.winner);
        result.winner_alpha = strategy(result.winner, walk_stream);
    }
    return result;
}

}  // namespace levy::sim
