// SARIF 2.1.0 emission tests (tools/levylint/sarif.h): a byte-exact golden
// file (the writer is deterministic by construction — insertion-ordered
// objects, fixed key order) plus structural assertions on every field the
// SARIF 2.1.0 schema requires of a static-analysis log that
// github/codeql-action/upload-sarif will ingest.
//
// Regenerate the golden after an intentional format change with
//   LEVYLINT_REGOLD=1 ctest -R levy_levylint_tests

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/json.h"
#include "tools/levylint/sarif.h"

namespace {

using levy::obs::json;
using namespace levylint;

std::vector<finding> sample_findings() {
    return {
        {"bench/bench_e11_origin_visits.cpp", 33, "shared-mutation-in-parallel",
         "write to by-reference capture `calls` from a parallel task is a data race"},
        {"bench/bench_e11_origin_visits.cpp", 36, "shared-mutation-in-parallel",
         "container growth on by-reference capture `seen` from a parallel task is a data race"},
        {"bench/bench_e1.cpp", 5, "float-equality",
         "escapes survive the round trip: quote \" backslash \\ newline \n tab \t"},
    };
}

std::string golden_path() { return std::string(LEVYLINT_TEST_DATA_DIR) + "/golden.sarif"; }

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(LevylintSarif, MatchesGoldenByteForByte) {
    const std::string got = to_sarif(sample_findings());
    if (std::getenv("LEVYLINT_REGOLD") != nullptr) {
        std::ofstream out(golden_path(), std::ios::binary);
        out << got;
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
        return;
    }
    const std::string want = read_file(golden_path());
    ASSERT_FALSE(want.empty()) << "missing golden file " << golden_path();
    EXPECT_EQ(got, want);
}

TEST(LevylintSarif, CarriesEverySchemaRequiredField) {
    const std::vector<finding> findings = sample_findings();
    const json doc = json::parse(to_sarif(findings));

    EXPECT_EQ(doc.at("$schema").as_string(), "https://json.schemastore.org/sarif-2.1.0.json");
    EXPECT_EQ(doc.at("version").as_string(), "2.1.0");

    const json& runs = doc.at("runs");
    ASSERT_TRUE(runs.is_array());
    ASSERT_EQ(runs.size(), 1u);
    const json& run = runs.at(0);

    const json& driver = run.at("tool").at("driver");
    EXPECT_EQ(driver.at("name").as_string(), "levylint");
    EXPECT_FALSE(driver.at("version").as_string().empty());
    const json& descs = driver.at("rules");
    ASSERT_TRUE(descs.is_array());
    ASSERT_EQ(descs.size(), rules().size());
    for (std::size_t i = 0; i < descs.size(); ++i) {
        EXPECT_EQ(descs.at(i).at("id").as_string(), rules()[i].id);
        EXPECT_FALSE(descs.at(i).at("shortDescription").at("text").as_string().empty());
        EXPECT_FALSE(descs.at(i).at("fullDescription").at("text").as_string().empty());
    }

    const json& results = run.at("results");
    ASSERT_TRUE(results.is_array());
    ASSERT_EQ(results.size(), findings.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const json& r = results.at(i);
        EXPECT_EQ(r.at("ruleId").as_string(), findings[i].rule);
        // ruleIndex must point at the matching reportingDescriptor.
        const auto idx = static_cast<std::size_t>(r.at("ruleIndex").as_number());
        ASSERT_LT(idx, descs.size());
        EXPECT_EQ(descs.at(idx).at("id").as_string(), findings[i].rule);
        EXPECT_EQ(r.at("level").as_string(), "error");
        EXPECT_EQ(r.at("message").at("text").as_string(), findings[i].message);

        const json& locs = r.at("locations");
        ASSERT_EQ(locs.size(), 1u);
        const json& phys = locs.at(0).at("physicalLocation");
        EXPECT_EQ(phys.at("artifactLocation").at("uri").as_string(), findings[i].path);
        EXPECT_EQ(static_cast<int>(phys.at("region").at("startLine").as_number()),
                  findings[i].line);
        EXPECT_TRUE(r.at("partialFingerprints").contains("levylint/v1"));
    }

    // Fingerprints must distinguish repeated (path, rule) findings.
    EXPECT_NE(results.at(0).at("partialFingerprints").at("levylint/v1").as_string(),
              results.at(1).at("partialFingerprints").at("levylint/v1").as_string());
}

TEST(LevylintSarif, EmptyFindingsIsStillAValidLog) {
    const json doc = json::parse(to_sarif({}));
    const json& run = doc.at("runs").at(0);
    EXPECT_TRUE(run.at("results").is_array());
    EXPECT_EQ(run.at("results").size(), 0u);
    EXPECT_EQ(run.at("tool").at("driver").at("rules").size(), rules().size());
}

}  // namespace
