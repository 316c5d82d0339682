#include "src/baselines/ballistic_walk.h"

#include <cmath>
#include <numbers>

#include "src/core/jump_process.h"

namespace levy::baselines {

static_assert(jump_process<ballistic_walk>);

namespace {
// Each armed segment heads this far; long enough that re-arming is rare but
// short enough that the waypoint arithmetic stays exact in doubles.
constexpr double kSegmentReach = 1e12;
}  // namespace

ballistic_walk::ballistic_walk(rng stream, point start) : stream_(stream), pos_(start) {
    theta_ = stream_.uniform(0.0, 2.0 * std::numbers::pi);
    arm_segment();
}

void ballistic_walk::arm_segment() {
    const point waypoint{pos_.x + static_cast<std::int64_t>(std::llround(kSegmentReach * std::cos(theta_))),
                         pos_.y + static_cast<std::int64_t>(std::llround(kSegmentReach * std::sin(theta_)))};
    path_.emplace(pos_, waypoint);
}

point ballistic_walk::step() {
    if (path_->done()) arm_segment();
    // Scalar-only baseline (E9) with no batch twin to replay against; its
    // private stream_ feeds nothing but this walk, so per-phase substreams
    // would buy nothing.
    pos_ = path_->advance(stream_);
    ++steps_;
    return pos_;
}

}  // namespace levy::baselines
