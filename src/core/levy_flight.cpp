#include "src/core/levy_flight.h"

#include "src/grid/ring.h"

namespace levy {

levy_flight::levy_flight(double alpha, rng stream, point start, std::uint64_t cap)
    : jumps_(alpha, cap), stream_(stream), pos_(start), cap_(cap) {}

point levy_flight::step() {
    const std::uint64_t d = jumps_.sample_capped(stream_, cap_);
    last_jump_ = d;
    if (d != 0) {
        // The stay-put skip is pure in the flight's own draw history (d was
        // just drawn from stream_), so the draw count replays exactly;
        // reordering would change every pinned golden trajectory.
        pos_ = sample_ring(pos_, static_cast<std::int64_t>(d), stream_);
    }
    ++steps_;
    return pos_;
}

}  // namespace levy
