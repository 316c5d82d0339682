// Seeded violations: iteration order of unordered containers leaking out.
#include <cstdint>
#include <iostream>
#include <unordered_map>
#include <unordered_set>

std::unordered_map<int, std::uint64_t> make_census();

void leak_order() {
    std::unordered_map<int, std::uint64_t> census;
    std::unordered_set<int> visited;
    for (const auto& kv : census) {  // order feeds output
        std::cout << kv.first << "," << kv.second << "\n";
    }
    for (int v : visited) {  // order feeds output
        std::cout << v << "\n";
    }
    for (auto it = census.begin(); it != census.end(); ++it) {
        std::cout << it->first << "\n";
    }
    for (const auto& kv : make_census()) {  // unordered-returning call
        std::cout << kv.first << "\n";
    }
}

void print_census(const std::unordered_map<int, std::uint64_t>& tally) {
    for (const auto& kv : tally) {  // a by-reference parameter: same leak
        std::cout << kv.first << "\n";
    }
}
