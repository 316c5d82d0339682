#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/grid/point.h"
#include "src/rng/rng_stream.h"

namespace levy {
namespace detail {
// 128-bit comparisons keep the Bresenham decision exact for jump lengths up
// to 2^62 (see direct_path_stepper). GCC/Clang extension, hence the marker.
__extension__ typedef __int128 int128;
}  // namespace detail

/// Incremental generator of a uniformly random *direct path* (Def. 3.1,
/// paper Fig. 2): a shortest lattice path u = u₀, u₁, …, u_d = v such that
/// each u_i is the node of R_i(u) closest (in L2) to the point w_i of the
/// real segment uv at L1-parameter i, ties broken uniformly at random.
///
/// Implementation: a Bresenham-style stepper. After i steps the current node
/// p has taken (px, py) unit moves along the two axes (px + py = i); the two
/// forward neighbors are the only candidates of R_{i+1}(u) adjacent to p,
/// and comparing their squared L2 distances to w_{i+1} reduces to the exact
/// integer comparison
///
///     d·px − (i+1)·|Δx|   vs   d·py − (i+1)·|Δy|
///
/// (the squares cancel; see DESIGN.md). The greedy per-step argmin coincides
/// with Def. 3.1's per-ring argmin because the error of the chosen node
/// relative to the segment stays in (−1, 1] — the classic Bresenham
/// invariant — so the global closest node of R_{i+1} is always one of the
/// two forward neighbors. Exact ties consume one random bit, which yields
/// the uniform distribution over all direct paths that Lemma 3.2 assumes
/// (verified statistically in tests/grid/direct_path_distribution_test.cpp).
///
/// The comparison uses 128-bit integers: jump lengths in the ballistic
/// regime can reach ~2^62, and d·px can then exceed 64 bits, but never 127.
class direct_path_stepper {
public:
    /// Prepare a path from `from` to `to` (equal endpoints give an empty,
    /// already-done path).
    direct_path_stepper(point from, point to) noexcept
        : from_(from),
          adx_(abs64(to.x - from.x)),
          ady_(abs64(to.y - from.y)),
          sx_(to.x < from.x ? -1 : 1),
          sy_(to.y < from.y ? -1 : 1),
          total_(adx_ + ady_) {}

    /// True once the destination has been reached.
    [[nodiscard]] bool done() const noexcept { return px_ + py_ == total_; }

    /// Take one lattice step toward the destination and return the new node.
    /// Precondition: !done(). Inline: the walk engine's candidate replay
    /// and the scalar walk run it once per step.
    point advance(rng& g) {
        assert(!done());
        bool step_x;
        if (px_ == adx_) {
            step_x = false;  // x budget exhausted
        } else if (py_ == ady_) {
            step_x = true;  // y budget exhausted
        } else {
            // Candidate after an x-step is closer to w_{i+1} than after a
            // y-step iff d·px − (i+1)·|Δx| < d·py − (i+1)·|Δy| (see above).
            using detail::int128;
            const int128 i1 = taken() + 1;
            const int128 ex = static_cast<int128>(total_) * px_ - i1 * adx_;
            const int128 ey = static_cast<int128>(total_) * py_ - i1 * ady_;
            if (ex < ey) {
                step_x = true;
            } else if (ey < ex) {
                step_x = false;
            } else {
                // The tie coin is the documented consumer of the per-phase
                // path substream: callers pass stream.substream(phase), never
                // the main stream, so its data-dependent draw count cannot
                // skew main-stream replay.
                step_x = g.coin();  // exact tie: both nodes equidistant from w_{i+1}
            }
        }
        if (step_x) {
            ++px_;
        } else {
            ++py_;
        }
        return position();
    }

    /// Current node u_i.
    [[nodiscard]] point position() const noexcept {
        return {from_.x + sx_ * px_, from_.y + sy_ * py_};
    }

    /// Total path length d = ‖to − from‖₁.
    [[nodiscard]] std::int64_t length() const noexcept { return total_; }

    /// Steps taken so far (the ring index i of the current node).
    [[nodiscard]] std::int64_t taken() const noexcept { return px_ + py_; }

    [[nodiscard]] point destination() const noexcept {
        return {from_.x + sx_ * adx_, from_.y + sy_ * ady_};
    }

private:
    point from_;
    std::int64_t adx_, ady_;  // |Δx|, |Δy|
    std::int64_t sx_, sy_;    // signs of Δx, Δy (±1; 1 when the delta is 0)
    std::int64_t total_;      // adx_ + ady_
    std::int64_t px_ = 0, py_ = 0;  // unit moves taken along each axis
};

/// Materialize a whole direct path (d+1 nodes, endpoints included).
[[nodiscard]] std::vector<point> sample_direct_path(point from, point to, rng& g);

}  // namespace levy
