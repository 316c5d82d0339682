#include "tools/levylint/rules.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace levylint {
namespace {

// ---------------------------------------------------------------------------
// Registry

const std::vector<rule_info>& registry() {
    static const std::vector<rule_info> r = {
        {"nondeterministic-seed",
         "nondeterministic seeding (std::random_device, time(NULL), rand/srand) outside src/rng/",
         "Every trial's randomness must derive purely from (seed, trial index) so that\n"
         "Monte-Carlo results replay bit-identically for any thread count and chunk\n"
         "size. std::random_device, time(NULL)/time(nullptr)/time(0), and the C\n"
         "rand()/srand() pair all pull entropy from outside that derivation and\n"
         "silently break reproducibility.\n"
         "\n"
         "Fix: take an explicit seed (benches expose --seed) and derive streams with\n"
         "rng::seeded(seed).substream(index). Only src/rng/ — the substrate that\n"
         "*implements* seeding — is exempt.\n"},
        {"raw-thread",
         "raw std::thread/std::async/OpenMP outside src/sim/thread_pool.*",
         "All parallelism must route through sim::parallel_for, whose chunked dynamic\n"
         "queue guarantees results independent of the schedule. Raw std::thread,\n"
         "std::jthread, std::async, or OpenMP pragmas introduce their own work\n"
         "partitioning, which is exactly how per-thread-count result drift starts\n"
         "(and it bypasses the pool's exception capture and metrics).\n"
         "\n"
         "Fix: express the work as fn(i) for i in [0, n) and call\n"
         "sim::parallel_for(n, threads, fn). Querying\n"
         "std::thread::hardware_concurrency() is allowed — it spawns nothing.\n"},
        {"unordered-iteration",
         "iterating an unordered container (iteration order feeds results/output)",
         "std::unordered_map/set iteration order depends on the hash implementation,\n"
         "the insertion history, and the bucket count — none of which are part of the\n"
         "(seed, trial index) contract. Iterating one to build output, accumulate\n"
         "floating-point sums, or fill a vector makes CSVs differ across standard\n"
         "libraries and even across runs. Functions returning unordered containers\n"
         "are resolved through the project call graph, so iterating the result of a\n"
         "cross-TU call is caught without name-matching guesswork.\n"
         "\n"
         "Fix: copy keys (or key/value pairs) into a vector and sort it before\n"
         "iterating, or use std::map when the container is iterated at all. Unordered\n"
         "lookups (find/contains/operator[]) are fine and are not flagged. A\n"
         "provably order-insensitive fold (e.g. integer counter sums) may be\n"
         "suppressed with levylint:allow(unordered-iteration).\n"},
        {"float-equality",
         "float/double ==/!= comparison without an explicit tolerance",
         "Exact floating-point equality is almost always a latent bug: two\n"
         "mathematically equal expressions need not be bit-equal once optimization,\n"
         "FMA contraction, or summation order differ. In this repo such comparisons\n"
         "also threaten paper-vs-measured validation, which relies on stable\n"
         "statistics.\n"
         "\n"
         "Fix: compare with an explicit tolerance (std::abs(a - b) <= eps) or\n"
         "restructure to integer arithmetic (the grid substrate is exact for a\n"
         "reason). Intentional exact comparisons — sentinel values, comparisons\n"
         "against a value stored untouched — carry\n"
         "levylint:allow(float-equality) with a short justification.\n"},
        {"include-hygiene",
         "quoted includes must be repo-root-relative, unique, and free of '..'",
         "Every quoted include in this repo is written relative to the repository\n"
         "root (#include \"src/grid/point.h\"), so any file can be moved or read in\n"
         "isolation and include paths never depend on the including file's location.\n"
         "'..' segments and directory-relative paths break that, and duplicate\n"
         "includes are dead weight that hides real dependencies.\n"
         "\n"
         "Fix: spell the path from the repo root (src/..., bench/..., tools/...,\n"
         "include/..., examples/..., tests/...); delete duplicate includes.\n"},
        {"header-guard",
         "headers must open with #pragma once",
         "Repo convention: every header's first directive is #pragma once —\n"
         "before any other directive or declaration. Classic #ifndef guards are\n"
         "rejected too (one convention, zero guard-name collisions).\n"
         "\n"
         "Fix: put #pragma once on the first non-comment line of the header.\n"},
        {"unchecked-write",
         "std::ofstream written but its stream state is never checked",
         "An std::ofstream swallows I/O errors silently: a full disk, a yanked\n"
         "mount, or a permissions change just sets failbit and every subsequent\n"
         "`<<` becomes a no-op. A results file produced that way is truncated or\n"
         "empty with exit status 0 — the worst failure mode for a long sweep,\n"
         "and exactly what the crash-safe writer in src/sim/ exists to prevent.\n"
         "\n"
         "Fix: check the stream at least once after writing (`if (!out) ...`,\n"
         "out.good()/fail()/bad()), or route through sim::atomic_write_file,\n"
         "which fsyncs, verifies, and renames atomically. A genuinely\n"
         "loss-tolerant scratch file may carry levylint:allow(unchecked-write)\n"
         "on its declaration line.\n"},
        {"throwing-call-in-noexcept",
         "throw or container growth (resize/push_back/...) inside an explicitly-noexcept body",
         "An exception escaping a noexcept function does not propagate — it\n"
         "calls std::terminate, killing the whole sweep with no checkpoint\n"
         "flush and no partial results. `throw` is the obvious way to do that;\n"
         "the sneaky way is a container-growth call (resize, push_back,\n"
         "emplace_back, insert, reserve, assign) that can raise bad_alloc.\n"
         "stats::log2_histogram::add shipped exactly this bug: declared\n"
         "noexcept, grew its bucket vector on demand.\n"
         "\n"
         "Fix: drop the noexcept, pre-reserve so the hot path provably cannot\n"
         "allocate, or handle the exception locally (growth inside a try block\n"
         "is not flagged). A call proven non-allocating may carry\n"
         "levylint:allow(throwing-call-in-noexcept) with a justification.\n"},
        {"shared-mutation-in-parallel",
         "non-atomic write to a by-reference capture inside a parallel task lambda",
         "Lambdas handed to sim::parallel_for / thread_pool::run execute\n"
         "concurrently; a plain write (=, +=, ++, push_back...) to a\n"
         "by-reference capture from inside one is a data race — undefined\n"
         "behavior first, schedule-dependent results second. TSan catches the\n"
         "races a given seed and schedule happen to exercise; this rule flags\n"
         "them statically through the call graph, including lambdas that reach\n"
         "the pool indirectly (monte_carlo_collect forwards its trial_fn into\n"
         "the pool's task). Writes to per-task slots (out[i] indexed by the\n"
         "task parameter), to std::atomic variables, and in mutex-guarded\n"
         "bodies (lock_guard/scoped_lock/unique_lock) are exempt.\n"
         "\n"
         "Fix: give each task its own slot indexed by the task parameter and\n"
         "reduce after the parallel region, or use std::atomic for counters.\n"
         "A provably single-writer access carries\n"
         "levylint:allow(shared-mutation-in-parallel) with the reason.\n"},
        {"nonassociative-parallel-reduction",
         "floating-point accumulation inside a parallel task (order follows the schedule)",
         "Floating-point addition is not associative: a shared double\n"
         "accumulated from parallel tasks (sum += x, or\n"
         "atomic<double>::fetch_add) takes on a value that depends on the\n"
         "completion order of the tasks — different thread counts, chunk\n"
         "sizes, or runs give different low bits, which the repo's\n"
         "bit-identical contract forbids. A mutex or atomic makes the race\n"
         "defined but cannot fix the ordering, so this fires even on\n"
         "race-free code.\n"
         "\n"
         "Fix: write each task's contribution into its own slot (out[i] =\n"
         "...), then reduce sequentially in index order after the parallel\n"
         "region — same cost, deterministic bits. An integer accumulation is\n"
         "exact and therefore never flagged. A tolerance-insensitive\n"
         "diagnostic sum carries\n"
         "levylint:allow(nonassociative-parallel-reduction) with the reason.\n"},
    };
    return r;
}

// ---------------------------------------------------------------------------
// Small token-stream helpers

using tokens_t = std::vector<token>;

bool is_ident(const token& t, const char* text) {
    return t.kind == tok::identifier && t.text == text;
}

bool is_punct(const token& t, const char* text) {
    return t.kind == tok::punct && t.text == text;
}

const token* at(const tokens_t& ts, std::size_t i) { return i < ts.size() ? &ts[i] : nullptr; }

bool starts_with(const std::string& s, const std::string& prefix) {
    return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Split a directive into whitespace-separated words, '#' stripped (handles
/// both "#pragma" and "# pragma").
std::vector<std::string> directive_words(const directive& d) {
    std::string body = d.text;
    const std::size_t hash = body.find('#');
    if (hash != std::string::npos) body = body.substr(hash + 1);
    std::vector<std::string> words;
    std::istringstream in(body);
    std::string w;
    while (in >> w) words.push_back(w);
    return words;
}

/// For `#include` directives: the include target, with <> or "" retained as
/// the first character ('<' or '"'); empty for non-include directives.
std::string include_target(const directive& d) {
    const auto words = directive_words(d);
    if (words.empty() || words[0] != "include") return {};
    std::string rest;
    for (std::size_t i = 1; i < words.size(); ++i) rest += words[i];
    if (rest.empty()) return {};
    if (rest[0] == '"') {
        const std::size_t close = rest.find('"', 1);
        return close == std::string::npos ? rest : rest.substr(0, close + 1);
    }
    if (rest[0] == '<') {
        const std::size_t close = rest.find('>', 1);
        return close == std::string::npos ? rest : rest.substr(0, close + 1);
    }
    return {};
}

/// Index just past a balanced <...> starting at `open` (which must point at
/// "<"); ">>" closes two levels. Returns `open` when no balanced close is
/// found within `limit` tokens (template-vs-comparison ambiguity: bail out).
std::size_t match_angles(const tokens_t& ts, std::size_t open, std::size_t limit = 128) {
    int depth = 0;
    for (std::size_t i = open; i < ts.size() && i < open + limit; ++i) {
        const token& t = ts[i];
        if (t.kind != tok::punct) continue;
        if (t.text == "<") ++depth;
        if (t.text == ">") {
            if (--depth == 0) return i + 1;
        }
        if (t.text == ">>") {
            depth -= 2;
            if (depth <= 0) return i + 1;
        }
        if (t.text == ";" || t.text == "{") break;  // not a template argument list
    }
    return open;
}

const char* kUnorderedNames[] = {"unordered_map", "unordered_set", "unordered_multimap",
                                 "unordered_multiset"};

bool is_unordered_name(const token& t) {
    if (t.kind != tok::identifier) return false;
    return std::any_of(std::begin(kUnorderedNames), std::end(kUnorderedNames),
                       [&](const char* n) { return t.text == n; });
}

// ---------------------------------------------------------------------------
// Suppressions

/// line -> set of rule ids allowed on that line.
using suppression_map = std::map<int, std::set<std::string>>;

void parse_allow_list(const std::string& text, std::set<std::string>& out) {
    const std::string marker = "levylint:allow(";
    std::size_t from = 0;
    while (true) {
        const std::size_t pos = text.find(marker, from);
        if (pos == std::string::npos) return;
        const std::size_t close = text.find(')', pos + marker.size());
        if (close == std::string::npos) return;
        std::string inside = text.substr(pos + marker.size(), close - pos - marker.size());
        std::replace(inside.begin(), inside.end(), ',', ' ');
        std::istringstream in(inside);
        std::string id;
        while (in >> id) out.insert(id);
        from = close + 1;
    }
}

suppression_map build_suppressions(const lexed_file& lf) {
    // Sorted list of lines that carry code (tokens or directives): an
    // own-line comment's allowance applies to the next such line.
    std::vector<int> code_lines;
    for (const token& t : lf.tokens) code_lines.push_back(t.line);
    for (const directive& d : lf.directives) code_lines.push_back(d.line);
    std::sort(code_lines.begin(), code_lines.end());

    suppression_map out;
    for (const comment& c : lf.comments) {
        std::set<std::string> allowed;
        parse_allow_list(c.text, allowed);
        if (allowed.empty()) continue;
        int target = c.line;
        if (c.own_line) {
            const auto it = std::upper_bound(code_lines.begin(), code_lines.end(), c.end_line);
            if (it == code_lines.end()) continue;
            target = *it;
        }
        out[target].insert(allowed.begin(), allowed.end());
    }
    return out;
}

// ---------------------------------------------------------------------------
// Per-rule checks

class analysis {
public:
    analysis(const project_model& model, int tu, const lexed_file& lf)
        : model_(model),
          tu_(tu),
          path_(model.tus[tu].path),
          lf_(lf),
          ts_(lf.tokens),
          unordered_calls_(model.unordered_call_names[tu]) {}

    std::vector<finding> run() {
        check_nondeterministic_seed();
        check_raw_thread();
        collect_local_types();
        collect_atomics();
        check_unordered_iteration();
        check_float_equality();
        check_include_hygiene();
        check_header_guard();
        check_unchecked_write();
        check_throwing_call_in_noexcept();
        check_parallel_capture_rules();
        std::stable_sort(findings_.begin(), findings_.end(),
                         [](const finding& a, const finding& b) { return a.line < b.line; });
        return std::move(findings_);
    }

private:
    void flag(int line, const char* rule, std::string message) {
        findings_.push_back({path_, line, rule, std::move(message)});
    }

    const tu_index& my() const { return model_.tus[tu_]; }

    // --- nondeterministic-seed ---------------------------------------------

    void check_nondeterministic_seed() {
        if (starts_with(path_, "src/rng/")) return;  // the seeding substrate itself
        for (std::size_t i = 0; i < ts_.size(); ++i) {
            const token& t = ts_[i];
            if (t.kind != tok::identifier) continue;
            const token* prev = i > 0 ? &ts_[i - 1] : nullptr;
            const bool member = prev != nullptr && (prev->text == "." || prev->text == "->");
            if (member) continue;
            // foo::rand() is someone else's rand; std::rand() and plain
            // rand() are the libc one.
            const bool foreign_qualified =
                prev != nullptr && is_punct(*prev, "::") && i >= 2 && !is_ident(ts_[i - 2], "std");
            if (foreign_qualified) continue;

            if (t.text == "random_device") {
                flag(t.line, "nondeterministic-seed",
                     "std::random_device draws entropy outside the (seed, trial) derivation; "
                     "take an explicit seed and use rng::seeded(seed).substream(i)");
            } else if ((t.text == "srand" || t.text == "rand") && at(ts_, i + 1) != nullptr &&
                       is_punct(ts_[i + 1], "(")) {
                flag(t.line, "nondeterministic-seed",
                     t.text + "() is unseeded global-state randomness; route all draws "
                              "through levy::rng streams");
            } else if (t.text == "time" && at(ts_, i + 3) != nullptr && is_punct(ts_[i + 1], "(") &&
                       is_punct(ts_[i + 3], ")") &&
                       (is_ident(ts_[i + 2], "NULL") || is_ident(ts_[i + 2], "nullptr") ||
                        (ts_[i + 2].kind == tok::number && ts_[i + 2].text == "0"))) {
                flag(t.line, "nondeterministic-seed",
                     "time(NULL)-style wall-clock seeding makes runs unreproducible; "
                     "take an explicit seed instead");
            }
        }
    }

    // --- raw-thread --------------------------------------------------------

    void check_raw_thread() {
        if (path_ == "src/sim/thread_pool.h" || path_ == "src/sim/thread_pool.cpp") return;
        for (std::size_t i = 0; i + 2 < ts_.size(); ++i) {
            if (!is_ident(ts_[i], "std") || !is_punct(ts_[i + 1], "::")) continue;
            const token& name = ts_[i + 2];
            if (name.kind != tok::identifier) continue;
            if (name.text == "thread") {
                // std::thread::hardware_concurrency() spawns nothing.
                if (at(ts_, i + 4) != nullptr && is_punct(ts_[i + 3], "::") &&
                    is_ident(ts_[i + 4], "hardware_concurrency")) {
                    continue;
                }
                flag(name.line, "raw-thread",
                     "raw std::thread bypasses the deterministic worker pool; use "
                     "sim::parallel_for (src/sim/thread_pool.*)");
            } else if (name.text == "jthread" || name.text == "async") {
                flag(name.line, "raw-thread",
                     "std::" + name.text + " bypasses the deterministic worker pool; use "
                                           "sim::parallel_for (src/sim/thread_pool.*)");
            }
        }
        for (const directive& d : lf_.directives) {
            const auto words = directive_words(d);
            if (words.size() >= 2 && words[0] == "pragma" && words[1] == "omp") {
                flag(d.line, "raw-thread",
                     "OpenMP pragmas schedule work outside the deterministic pool; use "
                     "sim::parallel_for");
            }
            if (include_target(d) == "<omp.h>") {
                flag(d.line, "raw-thread", "OpenMP is off-limits; use sim::parallel_for");
            }
        }
    }

    // --- local type tracking (shared by unordered-iteration / float-equality)

    void collect_local_types() {
        for (std::size_t i = 0; i < ts_.size(); ++i) {
            if (is_unordered_name(ts_[i]) && at(ts_, i + 1) != nullptr &&
                is_punct(ts_[i + 1], "<")) {
                std::size_t past = match_angles(ts_, i + 1);
                if (past == i + 1) continue;
                // `const std::unordered_map<K, V>& name`: the declarator
                // follows the reference or pointer, as for floats below.
                while (at(ts_, past) != nullptr &&
                       (is_punct(ts_[past], "&") || is_punct(ts_[past], "*") ||
                        is_punct(ts_[past], "&&") || is_ident(ts_[past], "const"))) {
                    ++past;
                }
                const token* name = at(ts_, past);
                if (name != nullptr && name->kind == tok::identifier) {
                    const token* after = at(ts_, past + 1);
                    if (after != nullptr && is_punct(*after, "(")) {
                        continue;  // function returning unordered: resolved via call graph
                    }
                    track_unordered(name->text, past);
                }
            }
            if (is_ident(ts_[i], "double") || is_ident(ts_[i], "float")) {
                // Template arguments (static_cast<double>, span<const double>)
                // are naturally skipped: the next token is '>' not a name.
                std::size_t j = i + 1;
                while (at(ts_, j) != nullptr &&
                       (is_punct(ts_[j], "&") || is_punct(ts_[j], "*") || is_punct(ts_[j], "&&") ||
                        is_ident(ts_[j], "const"))) {
                    ++j;
                }
                const token* name = at(ts_, j);
                const token* after = at(ts_, j + 1);
                if (name != nullptr && name->kind == tok::identifier && after != nullptr &&
                    !is_punct(*after, "(")) {
                    float_vars_.insert(name->text);
                }
            }
            // auto var = some_unordered_returning_call(...) — the callee set
            // comes from the linked call graph (this TU's resolved calls).
            if (ts_[i].kind == tok::identifier && unordered_calls_.count(ts_[i].text) != 0 &&
                at(ts_, i + 1) != nullptr && is_punct(ts_[i + 1], "(")) {
                // Walk back over the qualification chain to find `name =`.
                std::size_t j = i;
                while (j >= 2 && is_punct(ts_[j - 1], "::") && ts_[j - 2].kind == tok::identifier) {
                    j -= 2;
                }
                if (j >= 2 && is_punct(ts_[j - 1], "=") && ts_[j - 2].kind == tok::identifier) {
                    track_unordered(ts_[j - 2].text, j - 2);
                }
            }
        }
    }

    /// Record `name`, declared unordered at token `at`, for lookups within
    /// its scope: the body of the function it is declared in, from the
    /// declaration on when it is one of that function's parameters, or the
    /// whole file (a global or a class member). So a name reused for an
    /// ordered container in another function is not mistaken for it.
    void track_unordered(const std::string& name, std::size_t at) {
        std::pair<std::size_t, std::size_t> scope{0, ts_.size()};
        std::pair<std::size_t, std::size_t> next{ts_.size(), ts_.size()};  // first body after it
        for (const func_info& f : my().funcs) {
            if (!f.is_definition) continue;
            if (f.body_begin <= at && at < f.body_end && f.body_begin >= scope.first) {
                scope = {f.body_begin, f.body_end};  // innermost enclosing body
            } else if (at < f.body_begin && f.body_begin < next.first) {
                next = {f.body_begin, f.body_end};
            }
        }
        // Outside every body, a parameter of the next one: no ';' between.
        if (scope.first == 0 && next.first < ts_.size() &&
            std::none_of(ts_.begin() + static_cast<std::ptrdiff_t>(at),
                         ts_.begin() + static_cast<std::ptrdiff_t>(next.first),
                         [](const token& t) { return is_punct(t, ";"); })) {
            scope = {at, next.second};
        }
        unordered_vars_[name].push_back(scope);
    }

    /// True when the identifier at token `i` names an unordered container
    /// declared in a scope that holds `i`.
    bool names_unordered(std::size_t i) const {
        const auto it = unordered_vars_.find(ts_[i].text);
        if (it == unordered_vars_.end()) return false;
        return std::any_of(it->second.begin(), it->second.end(),
                           [i](const auto& scope) { return scope.first <= i && i < scope.second; });
    }

    /// Names declared std::atomic<...>, and the float subset
    /// (atomic<double>/atomic<float>): exempt from shared-mutation, still
    /// subject to nonassociative-parallel-reduction.
    void collect_atomics() {
        for (std::size_t i = 0; i + 1 < ts_.size(); ++i) {
            if (!is_ident(ts_[i], "atomic") || !is_punct(ts_[i + 1], "<")) continue;
            const std::size_t past = match_angles(ts_, i + 1);
            if (past == i + 1) continue;
            const token* name = at(ts_, past);
            if (name == nullptr || name->kind != tok::identifier) continue;
            atomic_vars_.insert(name->text);
            for (std::size_t k = i + 2; k + 1 < past; ++k) {
                if (is_ident(ts_[k], "double") || is_ident(ts_[k], "float")) {
                    atomic_float_vars_.insert(name->text);
                    break;
                }
            }
        }
    }

    // --- unordered-iteration -----------------------------------------------

    bool expr_touches_unordered(std::size_t begin, std::size_t end) const {
        for (std::size_t i = begin; i < end && i < ts_.size(); ++i) {
            const token& t = ts_[i];
            if (t.kind != tok::identifier) continue;
            if (names_unordered(i) || unordered_calls_.count(t.text) != 0 ||
                is_unordered_name(t)) {
                return true;
            }
        }
        return false;
    }

    void check_unordered_iteration() {
        for (std::size_t i = 0; i + 1 < ts_.size(); ++i) {
            // Range-for over an unordered container.
            if (is_ident(ts_[i], "for") && is_punct(ts_[i + 1], "(")) {
                int depth = 0;
                std::size_t colon = 0, close = 0;
                for (std::size_t j = i + 1; j < ts_.size() && j < i + 200; ++j) {
                    if (is_punct(ts_[j], "(")) ++depth;
                    if (is_punct(ts_[j], ")")) {
                        if (--depth == 0) {
                            close = j;
                            break;
                        }
                    }
                    if (depth == 1 && is_punct(ts_[j], ":") && colon == 0) colon = j;
                    if (is_punct(ts_[j], ";")) break;  // classic for loop
                }
                if (colon != 0 && close != 0 && expr_touches_unordered(colon + 1, close)) {
                    flag(ts_[i].line, "unordered-iteration",
                         "range-for over an unordered container: iteration order is not part "
                         "of the (seed, trial) contract; sort into a vector (or use std::map) "
                         "before results or output depend on it");
                }
            }
            // Explicit iterator walk: container.begin() / cbegin() / rbegin().
            if (ts_[i].kind == tok::identifier && names_unordered(i) &&
                is_punct(ts_[i + 1], ".") && at(ts_, i + 2) != nullptr) {
                const std::string& m = ts_[i + 2].text;
                if ((m == "begin" || m == "cbegin" || m == "rbegin") && at(ts_, i + 3) != nullptr &&
                    is_punct(ts_[i + 3], "(")) {
                    flag(ts_[i].line, "unordered-iteration",
                         "iterator walk over an unordered container: iteration order is "
                         "nondeterministic; sort keys into a vector first");
                }
            }
        }
    }

    // --- float-equality ----------------------------------------------------

    struct operand_evidence {
        bool float_literal = false;
        bool int_literal = false;
        bool tracked_var = false;
    };

    operand_evidence scan_operand(std::size_t begin, std::size_t end) const {
        operand_evidence ev;
        for (std::size_t i = begin; i < end && i < ts_.size(); ++i) {
            const token& t = ts_[i];
            if (t.kind == tok::number) (t.is_float ? ev.float_literal : ev.int_literal) = true;
            if (t.kind == tok::identifier && float_vars_.count(t.text) != 0) ev.tracked_var = true;
        }
        return ev;
    }

    void check_float_equality() {
        for (std::size_t i = 1; i + 1 < ts_.size(); ++i) {
            if (!is_punct(ts_[i], "==") && !is_punct(ts_[i], "!=")) continue;
            if (is_ident(ts_[i - 1], "operator")) continue;  // operator== definition
            // Left operand: a single token, or a balanced (...) group.
            std::size_t lbegin = i - 1, lend = i;
            if (is_punct(ts_[i - 1], ")")) {
                int depth = 0;
                for (std::size_t j = i - 1; j + 1 > 0 && j + 60 > i; --j) {
                    if (is_punct(ts_[j], ")")) ++depth;
                    if (is_punct(ts_[j], "(")) {
                        if (--depth == 0) {
                            lbegin = j;
                            break;
                        }
                    }
                    if (j == 0) break;
                }
            }
            // Right operand: skip unary sign; then a token, call, or group.
            std::size_t rbegin = i + 1;
            if (is_punct(ts_[rbegin], "-") || is_punct(ts_[rbegin], "+")) ++rbegin;
            std::size_t rend = rbegin + 1;
            const token* r0 = at(ts_, rbegin);
            const token* r1 = at(ts_, rbegin + 1);
            if (r0 != nullptr && is_punct(*r0, "(")) {
                int depth = 0;
                for (std::size_t j = rbegin; j < ts_.size() && j < rbegin + 60; ++j) {
                    if (is_punct(ts_[j], "(")) ++depth;
                    if (is_punct(ts_[j], ")") && --depth == 0) {
                        rend = j + 1;
                        break;
                    }
                }
            } else if (r0 != nullptr && r0->kind == tok::identifier && r1 != nullptr &&
                       is_punct(*r1, "(")) {
                rend = rbegin + 2;  // call: judge by the callee name only
            }
            const operand_evidence l = scan_operand(lbegin, lend);
            const operand_evidence r = scan_operand(rbegin, rend);
            // Float-literal evidence always fires. Tracked-variable evidence
            // alone does not fire against an integer literal: name tracking
            // is file-scoped, so `n == 0` in a function where some *other*
            // function has a double named n would be a false positive — and
            // genuine float-zero checks are written `== 0.0`.
            const bool int_literal = l.int_literal || r.int_literal;
            const bool fires = l.float_literal || r.float_literal ||
                               ((l.tracked_var || r.tracked_var) && !int_literal);
            if (fires) {
                flag(ts_[i].line, "float-equality",
                     "floating-point " + ts_[i].text +
                         " without a tolerance; compare std::abs(a - b) <= eps, or "
                         "levylint:allow(float-equality) for an intentional exact check");
            }
        }
    }

    // --- include-hygiene ---------------------------------------------------

    void check_include_hygiene() {
        static const char* kRoots[] = {"src/", "bench/", "tools/", "include/", "examples/",
                                       "tests/"};
        std::set<std::string> seen;
        for (const directive& d : lf_.directives) {
            const std::string target = include_target(d);
            if (target.empty()) continue;
            if (!seen.insert(target).second) {
                flag(d.line, "include-hygiene", "duplicate include of " + target);
            }
            if (target[0] != '"') continue;  // system/angle includes: not ours to police
            const std::string path = target.substr(1, target.size() - 2);
            if (path.find("..") != std::string::npos) {
                flag(d.line, "include-hygiene",
                     "'..' in include path defeats root-relative includes: \"" + path + "\"");
                continue;
            }
            const bool rooted = std::any_of(std::begin(kRoots), std::end(kRoots),
                                            [&](const char* r) { return starts_with(path, r); });
            if (!rooted) {
                flag(d.line, "include-hygiene",
                     "quoted include must be repo-root-relative (src/..., bench/..., ...): \"" +
                         path + "\"");
            }
        }
    }

    // --- header-guard ------------------------------------------------------

    void check_header_guard() {
        if (!ends_with(path_, ".h") && !ends_with(path_, ".hpp")) return;
        int first_code_line = 1;
        if (!lf_.directives.empty() && !ts_.empty()) {
            first_code_line = std::min(lf_.directives[0].line, ts_[0].line);
        } else if (!lf_.directives.empty()) {
            first_code_line = lf_.directives[0].line;
        } else if (!ts_.empty()) {
            first_code_line = ts_[0].line;
        }
        bool seen_pragma_once = false;
        for (std::size_t i = 0; i < lf_.directives.size(); ++i) {
            const auto words = directive_words(lf_.directives[i]);
            const bool is_once = words.size() >= 2 && words[0] == "pragma" && words[1] == "once";
            if (!is_once) continue;
            if (seen_pragma_once) {
                flag(lf_.directives[i].line, "header-guard", "duplicate #pragma once");
                continue;
            }
            seen_pragma_once = true;
            if (i != 0) {
                flag(lf_.directives[i].line, "header-guard",
                     "#pragma once must be the header's first directive");
            } else if (!ts_.empty() && ts_[0].line < lf_.directives[i].line) {
                flag(lf_.directives[i].line, "header-guard",
                     "#pragma once must precede all declarations");
            }
        }
        if (!seen_pragma_once) {
            flag(first_code_line, "header-guard",
                 "header is missing #pragma once (repo convention; #ifndef guards are "
                 "not used here)");
        }
    }

    // --- unchecked-write ---------------------------------------------------

    void check_unchecked_write() {
        // Direct std::ofstream objects only: a reference/parameter is owned —
        // and checked — by someone else.
        std::map<std::string, int> decl_line;
        for (std::size_t i = 0; i + 2 < ts_.size(); ++i) {
            if (!is_ident(ts_[i], "ofstream")) continue;
            const token& name = ts_[i + 1];
            const token& after = ts_[i + 2];
            if (name.kind != tok::identifier) continue;
            if (is_punct(after, "(") || is_punct(after, "{") || is_punct(after, ";") ||
                is_punct(after, "=")) {
                decl_line.emplace(name.text, name.line);
            }
        }
        if (decl_line.empty()) return;

        static const char* kStateMembers[] = {"good",    "fail",    "bad",       "eof",
                                              "is_open", "rdstate", "exceptions"};
        std::set<std::string> written, checked;
        for (std::size_t i = 0; i < ts_.size(); ++i) {
            const token& t = ts_[i];
            if (t.kind != tok::identifier || decl_line.count(t.text) == 0) continue;
            const token* prev = i > 0 ? &ts_[i - 1] : nullptr;
            if (prev != nullptr &&
                (is_punct(*prev, ".") || is_punct(*prev, "->") || is_punct(*prev, "::"))) {
                continue;  // member/qualified access to something else's `out`
            }
            const token* next = at(ts_, i + 1);
            const token* next2 = at(ts_, i + 2);
            const token* next3 = at(ts_, i + 3);
            if (next != nullptr && is_punct(*next, "<<")) {
                written.insert(t.text);
                continue;
            }
            if (next != nullptr && is_punct(*next, ".") && next2 != nullptr &&
                (next2->text == "write" || next2->text == "put") && next3 != nullptr &&
                is_punct(*next3, "(")) {
                written.insert(t.text);
                continue;
            }
            // Anything that observes stream state counts as a check: !out,
            // out.good()/fail()/..., out in a boolean context, or the stream
            // handed to another function (which can check it).
            if (prev != nullptr && is_punct(*prev, "!")) {
                checked.insert(t.text);
                continue;
            }
            if (next != nullptr && is_punct(*next, ".") && next2 != nullptr &&
                std::any_of(std::begin(kStateMembers), std::end(kStateMembers),
                            [&](const char* m) { return next2->text == m; })) {
                checked.insert(t.text);
                continue;
            }
            if (next != nullptr &&
                (is_punct(*next, "&&") || is_punct(*next, "||") || is_punct(*next, "?"))) {
                checked.insert(t.text);
                continue;
            }
            if (prev != nullptr && is_punct(*prev, "(") && i >= 2 &&
                (is_ident(ts_[i - 2], "if") || is_ident(ts_[i - 2], "while")) &&
                next != nullptr && is_punct(*next, ")")) {
                checked.insert(t.text);
                continue;
            }
            if (prev != nullptr && (is_punct(*prev, "(") || is_punct(*prev, ",")) &&
                next != nullptr && (is_punct(*next, ")") || is_punct(*next, ","))) {
                checked.insert(t.text);
            }
        }
        for (const auto& [name, line] : decl_line) {
            if (written.count(name) != 0 && checked.count(name) == 0) {
                flag(line, "unchecked-write",
                     "std::ofstream `" + name +
                         "` is written but its stream state is never checked — a full disk "
                         "truncates the file silently; test !" +
                         name + " (or .good()/.fail()) after writing, or use "
                                "sim::atomic_write_file");
            }
        }
    }

    // --- throwing-call-in-noexcept -----------------------------------------

    /// Scan a noexcept function body starting at its opening '{'. Flags
    /// `throw` and container-growth member calls unless they sit inside a
    /// try block (the exception is then handled locally). A throw inside a
    /// *catch* block still fires: it escapes the handler.
    void scan_noexcept_body(std::size_t open) {
        static const char* kGrowthCalls[] = {"resize", "push_back", "emplace_back",
                                             "insert", "reserve",   "assign"};
        int depth = 0;
        std::vector<int> try_depths;  // body depth of each enclosing try block
        for (std::size_t j = open; j < ts_.size(); ++j) {
            const token& t = ts_[j];
            if (is_punct(t, "{")) {
                ++depth;
                continue;
            }
            if (is_punct(t, "}")) {
                --depth;
                if (!try_depths.empty() && depth < try_depths.back()) try_depths.pop_back();
                if (depth == 0) return;  // end of the noexcept body
                continue;
            }
            if (is_ident(t, "try") && at(ts_, j + 1) != nullptr && is_punct(ts_[j + 1], "{")) {
                try_depths.push_back(depth + 1);
                continue;
            }
            if (!try_depths.empty()) continue;  // handled locally
            if (is_ident(t, "throw")) {
                flag(t.line, "throwing-call-in-noexcept",
                     "throw inside a noexcept function calls std::terminate instead of "
                     "propagating; drop the noexcept or handle the exception locally");
                continue;
            }
            if ((is_punct(t, ".") || is_punct(t, "->")) && at(ts_, j + 2) != nullptr &&
                ts_[j + 1].kind == tok::identifier && is_punct(ts_[j + 2], "(")) {
                const std::string& m = ts_[j + 1].text;
                const bool grows =
                    std::any_of(std::begin(kGrowthCalls), std::end(kGrowthCalls),
                                [&](const char* g) { return m == g; });
                if (grows) {
                    flag(ts_[j + 1].line, "throwing-call-in-noexcept",
                         "." + m + "() can allocate and throw bad_alloc, which a noexcept "
                                   "function turns into std::terminate; drop the noexcept or "
                                   "pre-reserve so the call provably cannot allocate");
                }
            }
        }
    }

    void check_throwing_call_in_noexcept() {
        for (std::size_t i = 0; i < ts_.size(); ++i) {
            if (!is_ident(ts_[i], "noexcept")) continue;
            // `noexcept(expr)`: only noexcept(true) is an unconditional
            // promise. Conditional forms and noexcept(false) — and the
            // noexcept *operator* in expressions — promise nothing here.
            std::size_t after = i + 1;
            if (at(ts_, after) != nullptr && is_punct(ts_[after], "(")) {
                if (at(ts_, after + 2) == nullptr || !is_ident(ts_[after + 1], "true") ||
                    !is_punct(ts_[after + 2], ")")) {
                    continue;
                }
                after += 3;
            }
            // The specifier's body: a '{' before any ';' (pure declaration),
            // '=' (= default / deleted), or ':' (ctor init lists hold
            // brace-init tokens this token scan would misread — skip them).
            std::size_t open = 0;
            for (std::size_t j = after; j < ts_.size() && j < after + 32; ++j) {
                if (is_punct(ts_[j], "{")) {
                    open = j;
                    break;
                }
                if (is_punct(ts_[j], ";") || is_punct(ts_[j], "=") || is_punct(ts_[j], ":")) {
                    break;
                }
            }
            if (open != 0) scan_noexcept_body(open);
        }
    }

    // =======================================================================
    // Parallel-capture rules (shared-mutation-in-parallel,
    // nonassociative-parallel-reduction) — per task lambda, against the
    // linked model's parallel-region marking.

    void check_parallel_capture_rules() {
        if (path_ == "src/sim/thread_pool.h" || path_ == "src/sim/thread_pool.cpp") return;
        for (std::size_t l = 0; l < my().lambdas.size(); ++l) {
            if (!model_.lambda_is_task[tu_][l]) continue;
            analyze_task_lambda(my().lambdas[l]);
        }
    }

    bool captured_by_ref(const lambda_info& lm, const std::string& name,
                         std::size_t first_use) const {
        for (const std::string& r : lm.ref_captures) {
            if (r == name) return true;
        }
        if (!lm.capture_ref_default) return false;
        for (const std::string& p : lm.params) {
            if (p == name) return false;
        }
        for (const std::string& v : lm.val_captures) {
            if (v == name) return false;
        }
        // Declared inside the body? First occurrence preceded by a type-ish
        // token (identifier, '&', '*', '>').
        if (first_use > lm.body_begin + 1) {
            const token& before = ts_[first_use - 1];
            if (before.kind == tok::identifier || is_punct(before, "&") ||
                is_punct(before, "*") || is_punct(before, ">")) {
                return false;
            }
        }
        return true;
    }

    std::size_t first_occurrence(const lambda_info& lm, const std::string& name) const {
        for (std::size_t k = lm.body_begin + 1; k + 1 < lm.body_end; ++k) {
            if (is_ident(ts_[k], name.c_str())) return k;
        }
        return lm.body_begin;
    }

    bool subscript_uses_param(const lambda_info& lm, std::size_t open,
                              std::size_t close) const {
        for (std::size_t k = open + 1; k < close; ++k) {
            if (ts_[k].kind != tok::identifier) continue;
            for (const std::string& p : lm.params) {
                if (ts_[k].text == p) return true;
            }
        }
        return false;
    }

    void analyze_task_lambda(const lambda_info& lm) {
        if (!lm.capture_ref_default && lm.ref_captures.empty()) return;
        static const char* kGrowthCalls[] = {"push_back", "emplace_back", "insert", "erase",
                                             "clear",     "resize",       "pop_back"};
        static const char* kAtomicOps[] = {"store", "exchange", "fetch_add", "fetch_sub",
                                           "fetch_and", "fetch_or", "fetch_xor",
                                           "compare_exchange_weak", "compare_exchange_strong"};
        static const char* kAssignOps[] = {"=",  "+=", "-=", "*=",  "/=", "%=",
                                           "&=", "|=", "^=", "<<=", ">>="};
        // A lock taken anywhere before the write makes the write itself
        // defined (shared-mutation); it cannot fix float ordering.
        std::size_t lock_pos = lm.body_end;
        for (std::size_t k = lm.body_begin + 1; k + 1 < lm.body_end; ++k) {
            if (is_ident(ts_[k], "lock_guard") || is_ident(ts_[k], "scoped_lock") ||
                is_ident(ts_[k], "unique_lock")) {
                lock_pos = k;
                break;
            }
        }
        for (std::size_t k = lm.body_begin + 1; k + 1 < lm.body_end; ++k) {
            const token& t = ts_[k];
            if (t.kind != tok::identifier) continue;
            if (k > 0 && (is_punct(ts_[k - 1], ".") || is_punct(ts_[k - 1], "->") ||
                          is_punct(ts_[k - 1], "::"))) {
                continue;  // member of some receiver handled at its head
            }
            const std::string& name = t.text;
            std::size_t j = k + 1;
            bool indexed_by_param = false;
            if (j < lm.body_end && is_punct(ts_[j], "[")) {
                const std::size_t g = match_group(ts_, j);
                if (g == j) continue;
                indexed_by_param = subscript_uses_param(lm, j, g - 1);
                j = g;
            }
            // One member hop: obj.field = x writes obj; obj.push_back(...)
            // grows obj; obj.fetch_add(...) is atomic.
            bool growth = false;
            bool atomic_op = false;
            bool float_fetch_add = false;
            if (j + 1 < lm.body_end &&
                (is_punct(ts_[j], ".") || is_punct(ts_[j], "->")) &&
                ts_[j + 1].kind == tok::identifier) {
                const std::string& m = ts_[j + 1].text;
                const bool is_call =
                    j + 2 < lm.body_end && is_punct(ts_[j + 2], "(");
                if (is_call && std::any_of(std::begin(kGrowthCalls), std::end(kGrowthCalls),
                                           [&](const char* g) { return m == g; })) {
                    growth = true;
                } else if (is_call &&
                           std::any_of(std::begin(kAtomicOps), std::end(kAtomicOps),
                                       [&](const char* o) { return m == o; })) {
                    atomic_op = true;
                    float_fetch_add = (m == "fetch_add" || m == "fetch_sub") &&
                                      atomic_float_vars_.count(name) != 0;
                } else {
                    j += 2;  // plain field access: check for assignment after it
                }
            }
            bool assign = false;
            std::string op_text;
            if (!growth && !atomic_op && j < lm.body_end && ts_[j].kind == tok::punct) {
                for (const char* op : kAssignOps) {
                    if (ts_[j].text == op) {
                        assign = true;
                        op_text = op;
                        break;
                    }
                }
                if (!assign && (ts_[j].text == "++" || ts_[j].text == "--")) {
                    assign = true;
                    op_text = ts_[j].text;
                }
            }
            if (!assign && !growth && !atomic_op && k > lm.body_begin + 1 &&
                (is_punct(ts_[k - 1], "++") || is_punct(ts_[k - 1], "--"))) {
                assign = true;
                op_text = ts_[k - 1].text;
            }
            if (!assign && !growth && !float_fetch_add) continue;
            if (!captured_by_ref(lm, name, first_occurrence(lm, name))) continue;

            const bool float_acc =
                (float_fetch_add ||
                 ((op_text == "+=" || op_text == "-=") && float_vars_.count(name) != 0)) &&
                !indexed_by_param;
            if (float_acc) {
                flag(t.line, "nonassociative-parallel-reduction",
                     "floating-point accumulation into `" + name +
                         "` from a parallel task: the sum's value depends on task "
                         "completion order, so results change with thread count; write "
                         "per-task slots indexed by the task parameter and reduce in "
                         "index order afterwards");
                continue;
            }
            if (atomic_op || atomic_vars_.count(name) != 0) continue;
            if (indexed_by_param && !growth) continue;  // per-task slot
            if (lock_pos < k) continue;                 // mutex-guarded
            flag(t.line, "shared-mutation-in-parallel",
                 std::string(growth ? "container growth on" : "write to") + " by-reference "
                     "capture `" + name +
                     "` from a parallel task is a data race: tasks run concurrently on "
                     "the pool; use a per-task slot indexed by the task parameter, or "
                     "std::atomic for counters");
        }
    }

    const project_model& model_;
    const int tu_;
    const std::string& path_;
    const lexed_file& lf_;
    const tokens_t& ts_;
    const std::set<std::string>& unordered_calls_;
    /// Unordered container names, each with the token ranges it is
    /// declared in (see track_unordered).
    std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>> unordered_vars_;
    std::set<std::string> float_vars_;
    std::set<std::string> atomic_vars_;
    std::set<std::string> atomic_float_vars_;
    std::vector<finding> findings_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Public interface

const std::vector<rule_info>& rules() { return registry(); }

bool known_rule(const std::string& id) {
    return std::any_of(registry().begin(), registry().end(),
                       [&](const rule_info& r) { return r.id == id; });
}

std::vector<finding> analyze(const project_model& model, int tu, const lexed_file& lf,
                             bool ignore_suppressions) {
    std::vector<finding> all = analysis(model, tu, lf).run();
    if (ignore_suppressions) return all;
    const suppression_map allowed = build_suppressions(lf);
    std::vector<finding> kept;
    kept.reserve(all.size());
    for (finding& f : all) {
        const auto it = allowed.find(f.line);
        if (it != allowed.end() && it->second.count(f.rule) != 0) continue;
        kept.push_back(std::move(f));
    }
    return kept;
}

}  // namespace levylint
