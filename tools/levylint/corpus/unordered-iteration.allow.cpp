// Same iterations, each justified as an order-insensitive fold.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

std::unordered_map<int, std::uint64_t> make_census();

std::uint64_t commutative_folds() {
    std::unordered_map<int, std::uint64_t> census;
    std::unordered_set<int> visited;
    std::uint64_t total = 0;
    // levylint:allow(unordered-iteration) integer sum, order-insensitive
    for (const auto& kv : census) {
        total += kv.second;
    }
    for (int v : visited) {  // levylint:allow(unordered-iteration) integer sum
        total += static_cast<std::uint64_t>(v);
    }
    // levylint:allow(unordered-iteration) counting loop, order-insensitive
    for (auto it = census.begin(); it != census.end(); ++it) {
        ++total;
    }
    for (const auto& kv : make_census()) {  // levylint:allow(unordered-iteration) integer sum
        total += kv.second;
    }
    return total;
}

std::uint64_t sum_census(const std::unordered_map<int, std::uint64_t>& tally) {
    std::uint64_t total = 0;
    for (const auto& kv : tally) {  // levylint:allow(unordered-iteration) integer sum
        total += kv.second;
    }
    return total;
}

// A name is tracked only within the function that declares it unordered:
// `out` below is a vector, sorted in place, and needs no allowance.
std::vector<int> sorted_ids() {
    std::vector<int> out = {3, 1, 2};
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t tally_ids() {
    std::unordered_map<int, std::uint64_t> out;
    std::uint64_t total = 0;
    for (const auto& kv : out) {  // levylint:allow(unordered-iteration) integer sum
        total += kv.second;
    }
    return total;
}
