#include "src/grid/direct_path.h"

#include <cassert>

namespace levy {
namespace {
// 128-bit comparisons keep the Bresenham decision exact for jump lengths up
// to 2^62 (see class comment). GCC/Clang extension, hence the marker.
__extension__ typedef __int128 int128;
}  // namespace

direct_path_stepper::direct_path_stepper(point from, point to) noexcept : from_(from) {
    const point delta = to - from;
    adx_ = abs64(delta.x);
    ady_ = abs64(delta.y);
    sx_ = delta.x < 0 ? -1 : 1;
    sy_ = delta.y < 0 ? -1 : 1;
    total_ = adx_ + ady_;
}

point direct_path_stepper::advance(rng& g) {
    assert(!done());
    bool step_x;
    if (px_ == adx_) {
        step_x = false;  // x budget exhausted
    } else if (py_ == ady_) {
        step_x = true;  // y budget exhausted
    } else {
        // Candidate after an x-step is closer to w_{i+1} than after a y-step
        // iff d·px − (i+1)·|Δx| < d·py − (i+1)·|Δy| (see class comment).
        const int128 i1 = taken() + 1;
        const int128 ex = static_cast<int128>(total_) * px_ - i1 * adx_;
        const int128 ey = static_cast<int128>(total_) * py_ - i1 * ady_;
        if (ex < ey) {
            step_x = true;
        } else if (ey < ex) {
            step_x = false;
        } else {
            // The tie coin is the documented consumer of the per-phase path
            // substream: callers pass stream.substream(phase), never the
            // main stream, so its data-dependent draw count cannot skew
            // main-stream replay.
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

std::vector<point> sample_direct_path(point from, point to, rng& g) {
    direct_path_stepper stepper(from, to);
    std::vector<point> path;
    path.reserve(static_cast<std::size_t>(stepper.length()) + 1);
    path.push_back(from);
    // An analysis helper that materialises one whole path: the caller hands
    // it a stream dedicated to this path (tests and E12 pass a throwaway),
    // so there is no main stream whose draw count could drift.
    while (!stepper.done()) path.push_back(stepper.advance(g));
    return path;
}

}  // namespace levy
