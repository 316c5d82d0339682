// levylint — the repo's determinism linter.
//
// A from-scratch lint pass (no third-party dependencies; reuses the repo's
// own obs/json) enforcing the invariants that keep Monte-Carlo results a
// pure function of (seed, trial index). Analysis is
// two-pass: pass 1 lexes and semantically indexes every TU (index.h), the
// linker joins the indexes into a project-wide call graph (callgraph.h),
// and pass 2 runs the rules per file against that model. See rules.cpp for
// the rule set and `levylint --explain <rule>` for the rationale behind
// each one.
//
// Usage:
//   levylint [--root DIR] [paths...]     lint files/dirs (default roots:
//                                        src include bench tools examples)
//   levylint --format=sarif              emit SARIF 2.1.0 instead of text
//   levylint --output FILE               write the report to FILE
//   levylint --list-rules                one-line summary per rule
//   levylint --explain RULE              full rationale + how to fix
//   levylint --self-test DIR             run the seeded-violation corpus
//
// Exit status: 0 clean, 1 findings (or failed self-test), 2 usage/IO error.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/levylint/callgraph.h"
#include "tools/levylint/index.h"
#include "tools/levylint/lexer.h"
#include "tools/levylint/rules.h"
#include "tools/levylint/sarif.h"

namespace fs = std::filesystem;
using namespace levylint;

namespace {

bool lintable(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

/// Corpus fixtures and build trees hold deliberate violations / generated
/// code; never lint them in a tree scan.
bool skip_dir(const fs::path& p) {
    const std::string name = p.filename().string();
    return name == "corpus" || name.rfind("build", 0) == 0 || (!name.empty() && name[0] == '.');
}

std::vector<fs::path> discover(const fs::path& root, const std::vector<std::string>& args) {
    std::vector<fs::path> files;
    auto add_tree = [&](const fs::path& top) {
        if (!fs::exists(top)) return;
        if (fs::is_regular_file(top)) {
            if (lintable(top)) files.push_back(top);
            return;
        }
        fs::recursive_directory_iterator it(top), end;
        for (; it != end; ++it) {
            if (it->is_directory() && skip_dir(it->path())) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && lintable(it->path())) files.push_back(it->path());
        }
    };
    if (args.empty()) {
        for (const char* d : {"src", "include", "bench", "tools", "examples"}) {
            add_tree(root / d);
        }
    } else {
        for (const std::string& a : args) add_tree(root / a);
    }
    // Deterministic work order regardless of directory-entry order:
    // path-sorted, duplicates (overlapping path args) removed.
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

bool read_file(const fs::path& p, std::string& out) {
    std::ifstream in(p, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

std::string rel_to(const fs::path& root, const fs::path& p) {
    std::error_code ec;
    const fs::path rel = fs::relative(p, root, ec);
    return (ec ? p : rel).generic_string();
}

void print_findings(std::ostream& out, const std::vector<finding>& fs_) {
    for (const finding& f : fs_) {
        out << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
    }
}

// --- tree scan -------------------------------------------------------------

struct scan_options {
    std::string format = "text";  // "text" | "sarif"
    std::string output;           // empty = stdout
};

int lint_tree(const fs::path& root, const std::vector<std::string>& paths,
              const scan_options& opt) {
    const std::vector<fs::path> files = discover(root, paths);
    if (files.empty()) {
        std::cerr << "levylint: no lintable files under the given paths\n";
        return 2;
    }
    // Pass 1: lex + index every TU.
    std::vector<lexed_file> lexed(files.size());
    std::vector<tu_index> indexed(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::string src;
        if (!read_file(files[i], src)) {
            std::cerr << "levylint: cannot read " << files[i] << "\n";
            return 2;
        }
        lexed[i] = lex(src);
        indexed[i] = build_index(rel_to(root, files[i]), lexed[i]);
    }

    // Link into the project model (one pass over all indexes).
    const project_model model = link(std::move(indexed));

    // Pass 2: rules per file, findings in file order.
    std::vector<finding> all;
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::vector<finding> found = analyze(model, static_cast<int>(i), lexed[i]);
        all.insert(all.end(), std::make_move_iterator(found.begin()),
                   std::make_move_iterator(found.end()));
    }

    // Report.
    std::ofstream file_out;
    if (!opt.output.empty()) {
        file_out.open(opt.output, std::ios::binary);
        if (!file_out) {
            std::cerr << "levylint: cannot open output file " << opt.output << "\n";
            return 2;
        }
    }
    std::ostream& out = opt.output.empty() ? std::cout : file_out;

    if (opt.format == "sarif") {
        out << to_sarif(all);
    } else {
        print_findings(out, all);
        if (!all.empty()) {
            std::map<std::string, int> per_rule;
            for (const finding& f : all) ++per_rule[f.rule];
            out << "\nlevylint: " << all.size() << " finding(s) in " << files.size()
                << " file(s):";
            for (const auto& [rule, n] : per_rule) out << " " << rule << "=" << n;
            out << "\nrun `levylint --explain <rule>` for the rationale and how to fix.\n";
        } else {
            out << "levylint: clean (" << files.size() << " files, " << rules().size()
                << " rules)\n";
        }
    }
    out.flush();
    if (!out) {
        std::cerr << "levylint: write failed" << (opt.output.empty() ? "" : ": " + opt.output)
                  << "\n";
        return 2;
    }
    return all.empty() ? 0 : 1;
}

// --- self-test -------------------------------------------------------------

/// Analyze one self-contained fixture file: index it, link it as a
/// single-TU project, run the rules.
struct fixture_result {
    std::vector<finding> fired;
    std::vector<finding> unsuppressed;
};

fixture_result analyze_fixture(const std::string& rel, const std::string& src) {
    const lexed_file lf = lex(src);
    std::vector<tu_index> tus;
    tus.push_back(build_index(rel, lf));
    const project_model model = link(std::move(tus));
    return {analyze(model, 0, lf), analyze(model, 0, lf, /*ignore_suppressions=*/true)};
}

/// The corpus directory holds, per rule, `<rule>.violation.{cpp,h}` (must
/// produce >= 1 finding of exactly that rule) and `<rule>.allow.{cpp,h}`
/// (same seeded violations, each carrying a levylint:allow — must produce 0
/// findings, but >= 1 when suppressions are ignored, proving the fixture
/// genuinely violates and the suppression genuinely covers it).
///
/// A `lexer/` subdirectory holds regression fixtures for the lexer itself:
/// `*.violation.*` must fire >= 1 finding of any rule (proving the lexer
/// still *sees* the seeded violation — these guard against token-stream
/// swallowing bugs like the `0xa'b` digit-separator mislex), `*.clean.*`
/// must produce none (guarding against false hits inside raw strings).
int self_test(const fs::path& corpus) {
    if (!fs::is_directory(corpus)) {
        std::cerr << "levylint: corpus directory not found: " << corpus << "\n";
        return 2;
    }
    int failures = 0;
    auto fail = [&](const std::string& what) {
        std::cout << "FAIL  " << what << "\n";
        ++failures;
    };

    auto find_fixture = [&](const std::string& rule, const char* flavor) -> fs::path {
        for (const char* ext : {".cpp", ".h", ".cc", ".hpp"}) {
            const fs::path p = corpus / (rule + "." + flavor + ext);
            if (fs::exists(p)) return p;
        }
        return {};
    };

    for (const rule_info& r : rules()) {
        const fs::path violation = find_fixture(r.id, "violation");
        const fs::path allowed = find_fixture(r.id, "allow");
        if (violation.empty()) {
            fail(r.id + ": missing violation fixture");
            continue;
        }
        if (allowed.empty()) {
            fail(r.id + ": missing allow fixture");
            continue;
        }
        for (const fs::path& p : {violation, allowed}) {
            std::string src;
            if (!read_file(p, src)) {
                fail(r.id + ": cannot read " + p.string());
                continue;
            }
            const fixture_result res =
                analyze_fixture("corpus/" + p.filename().string(), src);
            const auto count_rule = [&](const std::vector<finding>& fs_) {
                return std::count_if(fs_.begin(), fs_.end(),
                                     [&](const finding& f) { return f.rule == r.id; });
            };
            const bool is_allow_fixture = p == allowed;
            if (!is_allow_fixture) {
                if (count_rule(res.fired) == 0) {
                    fail(r.id + ": violation fixture produced no " + r.id + " finding");
                } else if (static_cast<std::size_t>(count_rule(res.fired)) != res.fired.size()) {
                    fail(r.id + ": violation fixture trips other rules too — keep fixtures "
                                "single-rule");
                    print_findings(std::cout, res.fired);
                } else {
                    std::cout << "ok    " << r.id << ": violation fires ("
                              << count_rule(res.fired) << " finding(s))\n";
                }
            } else {
                if (!res.fired.empty()) {
                    fail(r.id + ": allow fixture still produced findings");
                    print_findings(std::cout, res.fired);
                } else if (count_rule(res.unsuppressed) == 0) {
                    fail(r.id + ": allow fixture does not actually violate " + r.id +
                         " (suppression proves nothing)");
                } else {
                    std::cout << "ok    " << r.id << ": suppression covers "
                              << count_rule(res.unsuppressed) << " seeded finding(s)\n";
                }
            }
        }
    }

    // Lexer regression fixtures.
    const fs::path lexer_dir = corpus / "lexer";
    if (fs::is_directory(lexer_dir)) {
        std::vector<fs::path> lexer_fixtures;
        for (const auto& e : fs::directory_iterator(lexer_dir)) {
            if (e.is_regular_file() && lintable(e.path())) lexer_fixtures.push_back(e.path());
        }
        std::sort(lexer_fixtures.begin(), lexer_fixtures.end());
        for (const fs::path& p : lexer_fixtures) {
            const std::string name = p.filename().string();
            std::string src;
            if (!read_file(p, src)) {
                fail("lexer/" + name + ": cannot read");
                continue;
            }
            const fixture_result res = analyze_fixture("corpus/lexer/" + name, src);
            const bool expect_clean = name.find(".clean.") != std::string::npos;
            if (expect_clean) {
                if (res.fired.empty()) {
                    std::cout << "ok    lexer/" << name << ": clean as expected\n";
                } else {
                    fail("lexer/" + name + ": expected clean, got findings");
                    print_findings(std::cout, res.fired);
                }
            } else {
                if (!res.fired.empty()) {
                    std::cout << "ok    lexer/" << name << ": seeded violation visible ("
                              << res.fired.size() << " finding(s))\n";
                } else {
                    fail("lexer/" + name +
                         ": seeded violation invisible — the lexer swallowed it");
                }
            }
        }
    } else {
        fail("lexer regression fixtures missing (corpus lexer/ subdirectory)");
    }

    if (failures != 0) {
        std::cout << "levylint --self-test: " << failures << " failure(s)\n";
        return 1;
    }
    std::cout << "levylint --self-test: all " << rules().size() << " rules verified\n";
    return 0;
}

void list_rules() {
    for (const rule_info& r : rules()) {
        std::cout << r.id << "\n    " << r.summary << "\n";
    }
}

int explain(const std::string& id) {
    for (const rule_info& r : rules()) {
        if (r.id != id) continue;
        std::cout << r.id << " — " << r.summary << "\n\n" << r.explanation;
        std::cout << "\nSuppress a justified line with  // levylint:allow(" << r.id << ")\n";
        return 0;
    }
    std::cerr << "levylint: unknown rule '" << id << "' (try --list-rules)\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    fs::path root = fs::current_path();
    std::vector<std::string> paths;
    scan_options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::cerr << "levylint: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            root = next();
        } else if (arg == "--list-rules") {
            list_rules();
            return 0;
        } else if (arg == "--explain") {
            return explain(next());
        } else if (arg == "--self-test") {
            return self_test(next());
        } else if (arg.rfind("--format=", 0) == 0) {
            opt.format = arg.substr(9);
            if (opt.format != "text" && opt.format != "sarif") {
                std::cerr << "levylint: unknown format '" << opt.format
                          << "' (text or sarif)\n";
                return 2;
            }
        } else if (arg == "--format") {
            opt.format = next();
            if (opt.format != "text" && opt.format != "sarif") {
                std::cerr << "levylint: unknown format '" << opt.format
                          << "' (text or sarif)\n";
                return 2;
            }
        } else if (arg == "--output") {
            opt.output = next();
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: levylint [--root DIR] [--format text|sarif] [--output FILE] [paths...]\n"
                   "       levylint --list-rules | --explain RULE | --self-test DIR\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "levylint: unknown option " << arg << "\n";
            return 2;
        } else {
            paths.push_back(arg);
        }
    }
    return lint_tree(root, paths, opt);
}
