#include "src/grid/direct_path.h"

namespace levy {

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
