#include "src/baselines/fk_ants.h"

#include <cmath>
#include <stdexcept>

#include "src/core/jump_process.h"
#include "src/grid/ball.h"

namespace levy::baselines {

static_assert(jump_process<fk_ants_searcher>);

fk_ants_searcher::fk_ants_searcher(std::size_t k, rng stream, point start, double spiral_factor,
                                   std::int64_t initial_radius)
    : k_(k), spiral_factor_(spiral_factor), stream_(stream), home_(start), pos_(start) {
    if (k == 0) throw std::invalid_argument("fk_ants_searcher: k must be >= 1");
    if (!(spiral_factor > 0.0)) {
        throw std::invalid_argument("fk_ants_searcher: spiral_factor must be positive");
    }
    if (initial_radius < 2) {
        throw std::invalid_argument("fk_ants_searcher: initial_radius must be >= 2");
    }
    radius_ = initial_radius / 2;  // begin_epoch doubles it
    begin_epoch();
}

void fk_ants_searcher::begin_epoch() {
    radius_ *= 2;
    const point v = sample_ball(home_, radius_, stream_);
    phase_ = phase::outbound;
    path_.emplace(pos_, v);
    // Each of the k agents spirals long enough that together they tile B_r:
    // c·r²/k steps, but at least 4r so a lone agent still makes progress.
    const double share = spiral_factor_ * static_cast<double>(radius_) *
                         static_cast<double>(radius_) / static_cast<double>(k_);
    spiral_remaining_ = static_cast<std::uint64_t>(
        std::max(share, 4.0 * static_cast<double>(radius_)));
}

point fk_ants_searcher::step() {
    ++steps_;
    switch (phase_) {
        case phase::outbound:
            if (!path_->done()) {
                // Scalar-only FK-ants baseline (E9): stream_ is private to
                // this searcher and never replayed by a batch twin.
                pos_ = path_->advance(stream_);
                if (path_->done()) {
                    phase_ = phase::spiral;
                    spiral_.emplace(pos_);
                }
                return pos_;
            }
            // Zero-length outbound path (v == current node): fall through to
            // spiralling immediately; this step performs the first spiral move.
            phase_ = phase::spiral;
            spiral_.emplace(pos_);
            [[fallthrough]];
        case phase::spiral:
            if (spiral_remaining_ > 0) {
                --spiral_remaining_;
                pos_ = spiral_->step();
                if (spiral_remaining_ == 0) {
                    phase_ = phase::inbound;
                    path_.emplace(pos_, home_);
                }
                return pos_;
            }
            phase_ = phase::inbound;
            path_.emplace(pos_, home_);
            [[fallthrough]];
        case phase::inbound:
            if (!path_->done()) {
                // As outbound: scalar-only baseline, private stream.
                pos_ = path_->advance(stream_);
            }
            if (path_->done()) begin_epoch();
            return pos_;
    }
    return pos_;  // unreachable
}

}  // namespace levy::baselines
