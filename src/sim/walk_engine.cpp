#include "src/sim/walk_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/core/contracts.h"
#include "src/grid/ring.h"

namespace levy::sim {
namespace {
// Same 128-bit exact comparison the scalar stepper uses (grid/direct_path).
__extension__ typedef __int128 int128;

/// Beyond this many cached (α, cap) jump distributions, drop the cache
/// between runs: continuous strategies (uniform_exponent) produce a fresh α
/// per walker and would otherwise grow it without bound.
constexpr std::size_t kDistCacheLimit = 1024;

/// Slot hash for dist_cache. Round exponents (2, 2.5, 3) differ only in
/// their top bits, so fold those down before the Fibonacci multiply spreads
/// every input bit into the product's upper half, which is what is kept.
std::size_t slot_hash(std::uint64_t alpha_bits) noexcept {
    const std::uint64_t folded = alpha_bits ^ (alpha_bits >> 32);
    return static_cast<std::size_t>((folded * 0x9E3779B97F4A7C15ULL) >> 32);
}

/// |a − b| for any two 64-bit coordinates, exact in unsigned arithmetic.
std::uint64_t gap(std::int64_t a, std::int64_t b) noexcept {
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub = static_cast<std::uint64_t>(b);
    return a < b ? ub - ua : ua - ub;
}

/// Reach bound (see walk_engine): true when node (x, y), `elapsed` <
/// `allowance` steps in, is farther from `target` in L1 than the steps
/// left. Strict, so a walker that can still tie the best time walks on.
/// |Δx| + |Δy| is never formed, so nothing can wrap.
bool out_of_reach(std::int64_t x, std::int64_t y, std::uint64_t elapsed,
                  std::uint64_t allowance, point target) noexcept {
    const std::uint64_t left = allowance - elapsed;
    const std::uint64_t gx = gap(target.x, x);
    return gx > left || gap(target.y, y) > left - gx;
}

/// The x-progress after `to` steps of phase `phase` of the walker whose
/// main stream is `main`: a direct path with |Δx| = adx and |Δy| = ady,
/// replayed from the phase start with its tie coins from the phase's
/// substream, as the scalar walk draws them. The y-progress is the step
/// count minus it.
std::int64_t replay_x(const rng& main, std::uint64_t phase, std::int64_t adx, std::int64_t ady,
                      std::uint64_t to) {
    rng path = main.substream(phase);
    const auto total = static_cast<int128>(adx + ady);
    std::int64_t px = 0;
    for (std::uint64_t j = 0; j < to; ++j) {
        const auto py = static_cast<std::int64_t>(j) - px;
        bool step_x = px != adx;  // an axis whose budget is spent takes no step
        if (step_x && py != ady) {
            // The direct path's rule (grid/direct_path): step toward the
            // straight line, with a tie coin when both nodes are as close.
            const int128 i1 = static_cast<int128>(j) + 1;
            const int128 ex = total * px - i1 * adx;
            const int128 ey = total * py - i1 * ady;
            step_x = ex < ey || (ex == ey && path.coin());
        }
        if (step_x) ++px;
    }
    return px;
}

}  // namespace

// ---------------------------------------------------------------------------
// dist_cache

void dist_cache::reset(std::uint64_t cap) {
    if (!entries_.empty() && (cap_ != cap || entries_.size() > kDistCacheLimit)) {
        entries_.clear();
        slots_.clear();
        last_ = kEmpty;
    }
    cap_ = cap;
}

std::uint32_t dist_cache::index_for(double alpha) {
    const auto bits = std::bit_cast<std::uint64_t>(alpha);
    const std::uint32_t ix = find(bits);
    if (ix == kEmpty) return add(bits);
    entries_[ix].dist.build_head();  // no-op once built
    return ix;
}

std::uint32_t dist_cache::find(std::uint64_t alpha_bits) noexcept {
    if (alpha_bits == last_bits_) return last_;
    return probe(alpha_bits);
}

std::uint32_t dist_cache::probe(std::uint64_t alpha_bits) noexcept {
    if (slots_.empty()) return kEmpty;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = slot_hash(alpha_bits) & mask;; s = (s + 1) & mask) {
        const std::uint32_t ix = slots_[s];
        if (ix == kEmpty) return kEmpty;
        if (entries_[ix].alpha_bits == alpha_bits) {
            last_bits_ = alpha_bits;
            return last_ = ix;
        }
    }
}

std::uint32_t dist_cache::add(std::uint64_t alpha_bits) {
    entries_.push_back({alpha_bits, jump_distribution(std::bit_cast<double>(alpha_bits), cap_)});
    const auto ix = static_cast<std::uint32_t>(entries_.size() - 1);
    // Keep the load factor at most 3/4: probes stay short, and a per-walker
    // strategy's k entries cost at most 8k/3 bytes of slots.
    if (4 * entries_.size() > 3 * slots_.size()) {
        slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), kEmpty);
        for (std::uint32_t i = 0; i <= ix; ++i) place(i);
    } else {
        place(ix);
    }
    last_bits_ = alpha_bits;
    return last_ = ix;
}

void dist_cache::place(std::uint32_t ix) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = slot_hash(entries_[ix].alpha_bits) & mask;
    while (slots_[s] != kEmpty) s = (s + 1) & mask;
    slots_[s] = ix;
}

// ---------------------------------------------------------------------------
// walker_block

void walker_block::spawn(std::size_t id, double alpha, rng stream, dist_cache& dists) {
    walkers_.push_back({.id = id,
                        .main = stream,
                        .dist_ix = dists.index_for(alpha),
                        .x = origin.x,
                        .y = origin.y});
}

void walker_block::spawn_range(std::size_t lo, std::size_t hi, const exponent_strategy& strategy,
                               const rng& trial_stream, dist_cache& dists,
                               const engine_options& opts, point target,
                               std::uint64_t allowance_cap, best_state& best) {
    walkers_.reserve(walkers_.size() + (hi - lo));
    for (std::size_t i = lo; i < hi; ++i) {
        rng stream = trial_stream.substream(i);
        const double alpha = strategy(i, stream);  // consumes the same draws as scalar
        spawn(i, alpha, stream, dists);
        // The first visit: a walker retired by it is never stored (its slot
        // goes to the next spawn).
        if (advance_one(walkers_.back(), opts, dists, target, allowance_cap, best)) {
            walkers_.pop_back();
        }
    }
}

bool walker_block::advance_one(walker& w, const engine_options& opts, const dist_cache& dists,
                               point target, std::uint64_t allowance_cap, best_state& best) {
    const std::uint64_t allowance = best.hit ? std::min(best.time, allowance_cap) : allowance_cap;
    if (w.elapsed >= allowance) return true;
    if (w.dx == 0 && w.dy == 0) {
        // Reach bound (see walk_engine), before any draw: elapsed <
        // allowance here.
        if (out_of_reach(w.x, w.y, w.elapsed, allowance, target)) return true;
        // Begin a phase: same stream, same draw order as the scalar walk.
        ++w.phase;
        // levylint:allow(conditional-main-draw): the phase-start guard is
        // pure in the walker's own draw history (dx, dy are 0 exactly when
        // the scalar walk starts a phase), so the draw count replays
        // bit-exactly — pinned by walk_engine_test scalar/batch parity.
        const std::uint64_t d = dists.at(w.dist_ix).sample_capped(w.main, dists.cap());
        if (d == 0) {
            // Stay-put phase: exactly one step, position unchanged. The
            // position is never the target here (a walker retires the step
            // it first touches the target), so no hit check is needed; the
            // phase ends here, so the reach bound runs again.
            ++w.elapsed;
            return w.elapsed >= allowance || out_of_reach(w.x, w.y, w.elapsed, allowance, target);
        }
        const point from{w.x, w.y};
        // levylint:allow(conditional-main-draw): scalar parity — levy_walk
        // also skips the ring draw on stay-put phases (d == 0), so the
        // branch is replayed identically from the same stream state.
        const point delta = sample_ring(from, static_cast<std::int64_t>(d), w.main) - from;
        w.dx = delta.x;
        w.dy = delta.y;
        w.j = 0;
    }
    const std::int64_t adx = abs64(w.dx);
    const std::int64_t ady = abs64(w.dy);
    const auto total = static_cast<std::uint64_t>(adx + ady);
    // Advance within the phase by at most the allowance (and the epoch
    // quantum, when set). Steps other than the candidate i* can neither hit
    // nor influence any later draw — tie coins live on the throwaway
    // per-phase substream — so they are skipped arithmetically.
    const std::uint64_t j0 = w.j;
    std::uint64_t take = std::min(total - j0, allowance - w.elapsed);
    if (opts.epoch_steps != 0) take = std::min(take, opts.epoch_steps);
    const std::uint64_t jend = j0 + take;
    // The path is monotone along both axes, and its node after step i is at
    // L1 distance exactly i from the phase start; the target can be visited
    // only if it sits in the bounding box, and then only at step
    // i* = ‖target − start‖₁ with x-progress exactly tdx. Only the visit
    // whose steps (j0, jend] reach i* replays the coins, from the phase
    // start: they are a pure function of (seed, phase), so an earlier visit
    // leaves nothing to resume.
    const std::int64_t tdx = w.dx < 0 ? w.x - target.x : target.x - w.x;
    const std::int64_t tdy = w.dy < 0 ? w.y - target.y : target.y - w.y;
    if (tdx >= 0 && tdx <= adx && tdy >= 0 && tdy <= ady) {
        const auto istar = static_cast<std::uint64_t>(tdx + tdy);
        if (j0 < istar && istar <= jend &&
            replay_x(w.main, w.phase, adx, ady, istar) == tdx) {
            const std::uint64_t t = w.elapsed + (istar - j0);
            // Order-independent lex-min registration: better time, or
            // equal time from a smaller walker index.
            if (!best.hit || t < best.time || (t == best.time && w.id < best.winner)) {
                best.hit = true;
                best.time = t;
                best.winner = w.id;
            }
            return true;  // first visit to the target: the walker is done
        }
    }
    w.j = jend;
    w.elapsed += take;
    if (w.elapsed >= allowance) return true;
    if (w.j == total) {
        // Phase end: the reach bound again, now from the destination. The
        // allowance only shrinks, so a walker it retires here would retire
        // at its next phase start anyway; retiring now saves storing it.
        w.x += w.dx;
        w.y += w.dy;
        w.dx = 0;
        w.dy = 0;
        return out_of_reach(w.x, w.y, w.elapsed, allowance, target);
    }
    return false;
}

void walker_block::epoch(const engine_options& opts, const dist_cache& dists, point target,
                         std::uint64_t allowance_cap, best_state& best) {
    // The sweep re-reads `best` per walker, so an early hit immediately
    // shrinks everyone else's allowance; correctness never depends on that
    // — only the amount of pruned work does.
    for (std::size_t i = 0; i < walkers_.size();) {
        walker& w = walkers_[i];
        if (advance_one(w, opts, dists, target, allowance_cap, best)) {
            // Retire: the last live record takes this slot, to be visited next.
            w = walkers_.back();
            walkers_.pop_back();
        } else {
            ++i;
        }
    }
}

// ---------------------------------------------------------------------------
// walk_engine

parallel_result parallel_outcome(const best_state& best, std::uint64_t budget,
                                 const exponent_strategy& strategy, const rng& trial_stream) {
    parallel_result result;
    result.time = budget;
    if (best.hit) {
        result.hit = true;
        result.time = best.time;
        result.winner = best.winner;
        rng walk_stream = trial_stream.substream(result.winner);
        result.winner_alpha = strategy(result.winner, walk_stream);
    }
    return result;
}

walk_engine& walk_engine::local() {
    thread_local walk_engine engine;
    return engine;
}

hit_result walk_engine::run_single(double alpha, point target, std::uint64_t budget,
                                   const rng& stream, std::uint64_t cap) {
    if (target == origin) return {true, 0};
    dists_.reset(cap);
    block_.clear();
    block_.spawn(0, alpha, stream, dists_);
    best_state best;
    while (block_.live() > 0) block_.epoch(opts_, dists_, target, budget, best);
    return {best.hit, best.hit ? best.time : budget};
}

parallel_result walk_engine::run_parallel(std::size_t k, const exponent_strategy& strategy,
                                          point target, std::uint64_t budget,
                                          const rng& trial_stream, std::uint64_t cap) {
    // The block loop (sim/shard_engine.cpp) with one block and no journal.
    return run_parallel(k, strategy, target, budget, trial_stream, cap,
                        shard_options{.epoch_steps = opts_.epoch_steps});
}

}  // namespace levy::sim
