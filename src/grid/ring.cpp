#include "src/grid/ring.h"

#include <stdexcept>

namespace levy {

point ring_node(point center, std::int64_t d, std::uint64_t j) {
    if (d < 0) throw std::invalid_argument("ring_node: d must be >= 0");
    if (d == 0) {
        if (j != 0) throw std::out_of_range("ring_node: R_0 has a single node");
        return center;
    }
    if (j >= ring_size(d)) throw std::out_of_range("ring_node: index out of range");
    return center + ring_offset(d, j);
}

std::uint64_t ring_index(point center, point v) {
    const point rel = v - center;
    const std::int64_t d = l1_norm(rel);
    if (d == 0) throw std::invalid_argument("ring_index: v equals center");
    // Determine the side from the signs, mirroring ring_node's convention.
    // Corners belong to the side that starts at them: (d,0) side 0, (0,d)
    // side 1, (-d,0) side 2, (0,-d) side 3.
    if (rel.x > 0 && rel.y >= 0) return static_cast<std::uint64_t>(rel.y);           // side 0
    if (rel.x <= 0 && rel.y > 0) return static_cast<std::uint64_t>(d - rel.x);       // side 1, o=-x
    if (rel.x < 0 && rel.y <= 0) return static_cast<std::uint64_t>(2 * d - rel.y);   // side 2, o=-y
    return static_cast<std::uint64_t>(3 * d + rel.x);                                // side 3, o=x
}

}  // namespace levy
