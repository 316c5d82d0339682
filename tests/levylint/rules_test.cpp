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

}  // namespace
