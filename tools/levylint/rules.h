#pragma once

#include <string>
#include <vector>

#include "tools/levylint/callgraph.h"
#include "tools/levylint/lexer.h"

// levylint's rule registry and per-file analysis.
//
// Every rule enforces a *repo-specific* invariant that generic tooling
// (clang-tidy, compiler warnings) cannot express — they all exist to
// protect one guarantee: Monte-Carlo results are a pure function of
// (seed, trial index), bit-identical for any thread count, chunk size,
// standard-library implementation, or incidental memory layout.
//
// Analysis is two-pass: pass 1 lexes and indexes every TU (index.h), the
// linker joins them into a project_model (callgraph.h), and pass 2 runs the
// rules per file against that model — so the call-graph rules see cross-TU
// facts: which lambdas run on the pool, which callees return an unordered
// container.
//
// Findings on a line are suppressed by `// levylint:allow(<rule>[, ...])`
// on the same line, or on an immediately preceding comment-only line.

namespace levylint {

struct finding {
    std::string path;
    int line = 0;
    std::string rule;
    std::string message;
};

struct rule_info {
    std::string id;
    std::string summary;      ///< one line, shown by --list-rules
    std::string explanation;  ///< full rationale + fix guidance, shown by --explain
};

/// The registry, in reporting order.
[[nodiscard]] const std::vector<rule_info>& rules();
[[nodiscard]] bool known_rule(const std::string& id);

/// All findings for one file, sorted by line. `tu` indexes the file inside
/// `model` (its tu_index::path is the repo-root-relative path the
/// path-scoped exemptions key off: src/rng/ may seed, src/sim/thread_pool.*
/// may touch std::thread).
/// `ignore_suppressions` reports findings even on allow-annotated lines;
/// the self-test uses it to prove the suppressed fixtures really violate.
[[nodiscard]] std::vector<finding> analyze(const project_model& model, int tu,
                                           const lexed_file& lf,
                                           bool ignore_suppressions = false);

}  // namespace levylint
