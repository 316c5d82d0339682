#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tools/levylint/lexer.h"

// Pass 1 of the two-pass analyzer: a lightweight semantic index over the
// token stream of one translation unit. It recovers just enough structure
// for the call-graph rules — function declarations/definitions with
// parameter names, call sites with argument ranges, lambdas with capture
// lists — without becoming a C++ front end. Heuristics are deliberately
// bounded: a construct the indexer cannot classify is simply absent from
// the index, which at worst makes a rule miss (the right failure mode for a
// linter).
//
// The per-TU indexes are linked into a cross-TU call graph by callgraph.h.

namespace levylint {

/// A function declaration or definition.
struct func_info {
    std::string name;   ///< unqualified name
    std::string qname;  ///< scope-qualified, e.g. "levy::sim::walk_engine::spawn"
    std::vector<std::string> ret;  ///< return-type tokens (empty for ctors/dtors)
    /// Parameter names in order; an unnamed parameter yields the last
    /// identifier of its type.
    std::vector<std::string> params;
    int line = 1;
    /// Token range of the body `{...}` (begin = index of '{', end = one past
    /// the matching '}'); begin == end == 0 for a pure declaration.
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
    bool is_definition = false;
    bool returns_unordered = false;  ///< return type is an unordered container
};

/// A lambda expression, attributed to its enclosing function.
struct lambda_info {
    std::size_t intro = 0;  ///< token index of the '['
    std::size_t body_begin = 0;
    std::size_t body_end = 0;
    int line = 1;
    bool capture_ref_default = false;  ///< [&...]
    bool capture_val_default = false;  ///< [=...]
    std::vector<std::string> ref_captures;  ///< explicit &name captures
    std::vector<std::string> val_captures;  ///< explicit by-value captures
    std::vector<std::string> params;        ///< parameter names (may be empty)
    /// Non-empty when the lambda was bound to a local: `auto NAME = [...]`.
    std::string bound_name;
    int enclosing_func = -1;  ///< index into tu_index::funcs, -1 at file scope
};

/// A call expression: free call, qualified call, or member call.
struct call_info {
    std::string callee;              ///< last identifier before the '('
    std::vector<std::string> quals;  ///< leading a::b qualifiers, outermost first
    bool is_member = false;          ///< preceded by '.' or '->'
    /// Top-level comma-separated argument token ranges [first, last).
    std::vector<std::pair<std::size_t, std::size_t>> args;
    /// Per argument: the identifier when the argument is a single bare
    /// name, else "".
    std::vector<std::string> arg_names;
    int enclosing_func = -1;    ///< index into tu_index::funcs
    int enclosing_lambda = -1;  ///< index into tu_index::lambdas when inside one
};

/// The semantic index of one translation unit.
struct tu_index {
    std::string path;  ///< repo-root-relative path with '/' separators
    std::vector<func_info> funcs;
    std::vector<lambda_info> lambdas;
    std::vector<call_info> calls;
};

/// Build the index for one lexed file. Never fails.
[[nodiscard]] tu_index build_index(const std::string& rel_path, const lexed_file& lf);

/// Index just past the punct that matches the opener at `open` ('(' -> ')',
/// '{' -> '}', '[' -> ']'); returns `open` when unmatched.
[[nodiscard]] std::size_t match_group(const std::vector<token>& ts, std::size_t open);

}  // namespace levylint
