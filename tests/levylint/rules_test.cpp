// Unit tests for levylint's per-file rules (tools/levylint/rules.h), run
// on one source string indexed and linked as a single-TU project.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tools/levylint/rules.h"

namespace {

using namespace levylint;

std::vector<finding> findings_in(const std::string& src) {
    const lexed_file lf = lex(src);
    std::vector<tu_index> tus;
    tus.push_back(build_index("tools/report.cpp", lf));
    return analyze(link(std::move(tus)), 0, lf);
}

TEST(LevylintRules, UnorderedIterationTracksReferenceAndPointerParameters) {
    const std::vector<finding> found = findings_in(R"src(
        #include <iostream>
        #include <unordered_map>
        #include <unordered_set>
        void report(const std::unordered_map<int, int>& current,
                    const std::unordered_set<int>* seen) {
            for (const auto& kv : current) std::cout << kv.first << "\n";
            for (int v : *seen) std::cout << v << "\n";
        }
    )src");
    ASSERT_EQ(found.size(), 2u);
    EXPECT_EQ(found[0].rule, "unordered-iteration");
    EXPECT_EQ(found[0].line, 7);
    EXPECT_EQ(found[1].rule, "unordered-iteration");
    EXPECT_EQ(found[1].line, 8);
}

TEST(LevylintRules, UnorderedIterationScopesNamesToTheirFunction) {
    // `out` is an unordered map in one function and a vector in the next:
    // only the walk over the map is flagged.
    const std::vector<finding> found = findings_in(R"src(
        #include <algorithm>
        #include <iostream>
        #include <unordered_map>
        #include <vector>
        void summarize() {
            std::unordered_map<int, int> out;
            for (auto it = out.begin(); it != out.end(); ++it) std::cout << it->first;
        }
        std::vector<int> load() {
            std::vector<int> out;
            std::sort(out.begin(), out.end());
            return out;
        }
    )src");
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(found[0].rule, "unordered-iteration");
    EXPECT_EQ(found[0].line, 8);
}

}  // namespace
