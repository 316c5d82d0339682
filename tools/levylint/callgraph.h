#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/levylint/index.h"

// Pass 2, step one: link the per-TU semantic indexes into a project-wide
// model — resolve call sites to candidate definitions across TUs, attribute
// lambdas to the parallel regions that will execute them, and name the
// callees that return unordered containers.
//
// Resolution is name-based with qualifier-suffix disambiguation: a call
// `sim::parallel_for(...)` matches any indexed function whose qualified name
// ends in `sim::parallel_for`. Calls that match nothing (std::, macros,
// function pointers) stay unresolved, and rules treat unresolved as unknown
// rather than guessing.

namespace levylint {

/// (tu, func) coordinates of one indexed function.
struct func_ref {
    int tu = -1;
    int fn = -1;
};

struct project_model {
    std::vector<tu_index> tus;

    /// Unqualified name -> every indexed function with that name.
    std::map<std::string, std::vector<func_ref>> funcs_by_name;

    /// call_targets[tu][call] — candidate definitions for each call site
    /// (empty = unresolved).
    std::vector<std::vector<std::vector<func_ref>>> call_targets;

    /// lambda_is_task[tu][lambda] — true when the lambda body runs inside a
    /// parallel region: passed (directly or via its bound name) to
    /// sim::parallel_for / thread_pool::run, or passed into a function
    /// parameter that is itself invoked inside such a lambda (the
    /// monte_carlo_collect(trial_fn) pattern), computed to a fixpoint.
    std::vector<std::vector<bool>> lambda_is_task;

    /// Per TU: callee names used in that TU which resolve — unanimously
    /// across every candidate — to a function returning an unordered
    /// container. Feeds the unordered-iteration rule (replaces the old
    /// project-wide name-matching heuristic).
    std::vector<std::set<std::string>> unordered_call_names;

    [[nodiscard]] int tu_of(const std::string& path) const;
    [[nodiscard]] const func_info& func(func_ref r) const { return tus[r.tu].funcs[r.fn]; }
};

/// Link the indexes. `tus` is consumed; order defines tu ids.
[[nodiscard]] project_model link(std::vector<tu_index> tus);

}  // namespace levylint
