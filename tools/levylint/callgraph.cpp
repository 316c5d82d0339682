#include "tools/levylint/callgraph.h"

#include <algorithm>

namespace levylint {
namespace {

/// Does `qname` end with the written qualification + name, on a `::`
/// boundary? ("levy::sim::parallel_for" matches quals {sim}, name
/// parallel_for; it does not match quals {im}.)
bool qual_suffix_match(const std::string& qname, const std::vector<std::string>& quals,
                       const std::string& name) {
    std::string suffix;
    for (const std::string& q : quals) {
        suffix += q;
        suffix += "::";
    }
    suffix += name;
    if (qname == suffix) return true;
    if (qname.size() <= suffix.size() + 2) return false;
    return qname.compare(qname.size() - suffix.size(), suffix.size(), suffix) == 0 &&
           qname.compare(qname.size() - suffix.size() - 2, 2, "::") == 0;
}

class linker {
public:
    explicit linker(std::vector<tu_index> tus) { m_.tus = std::move(tus); }

    project_model run() {
        index_functions();
        resolve_calls();
        mark_task_lambdas();
        collect_unordered_names();
        return std::move(m_);
    }

private:
    void index_functions() {
        for (std::size_t t = 0; t < m_.tus.size(); ++t) {
            const tu_index& tu = m_.tus[t];
            for (std::size_t f = 0; f < tu.funcs.size(); ++f) {
                m_.funcs_by_name[tu.funcs[f].name].push_back(
                    {static_cast<int>(t), static_cast<int>(f)});
            }
        }
    }

    void resolve_calls() {
        m_.call_targets.resize(m_.tus.size());
        for (std::size_t t = 0; t < m_.tus.size(); ++t) {
            const tu_index& tu = m_.tus[t];
            m_.call_targets[t].resize(tu.calls.size());
            for (std::size_t c = 0; c < tu.calls.size(); ++c) {
                const call_info& call = tu.calls[c];
                const auto it = m_.funcs_by_name.find(call.callee);
                if (it == m_.funcs_by_name.end()) continue;
                // `std::foo(...)` is the standard library's foo, never ours.
                if (!call.quals.empty() && call.quals.front() == "std") continue;
                std::vector<func_ref>& out = m_.call_targets[t][c];
                for (const func_ref& r : it->second) {
                    if (call.quals.empty() ||
                        qual_suffix_match(m_.func(r).qname, call.quals, call.callee)) {
                        out.push_back(r);
                    }
                }
            }
        }
    }

    /// Is some lambda of `tu` introduced inside [begin, end)? Returns its
    /// index or -1.
    int lambda_in_range(int tu, std::size_t begin, std::size_t end) const {
        const auto& lambdas = m_.tus[tu].lambdas;
        for (std::size_t l = 0; l < lambdas.size(); ++l) {
            if (lambdas[l].intro >= begin && lambdas[l].intro < end) {
                return static_cast<int>(l);
            }
        }
        return -1;
    }

    /// The lambda a bare-identifier argument refers to via its bound name
    /// (`auto run_one = [...]; parallel_for(n, t, run_one, chunk)`), scoped
    /// to the same enclosing function. Returns -1 when there is none.
    int lambda_by_bound_name(int tu, const std::string& name, int enclosing_func) const {
        const auto& lambdas = m_.tus[tu].lambdas;
        for (std::size_t l = 0; l < lambdas.size(); ++l) {
            if (!lambdas[l].bound_name.empty() && lambdas[l].bound_name == name &&
                lambdas[l].enclosing_func == enclosing_func) {
                return static_cast<int>(l);
            }
        }
        return -1;
    }

    void mark_task_lambdas() {
        m_.lambda_is_task.resize(m_.tus.size());
        for (std::size_t t = 0; t < m_.tus.size(); ++t) {
            m_.lambda_is_task[t].assign(m_.tus[t].lambdas.size(), false);
        }
        // parallel_invoked[tu][fn][param]: the parameter is called inside a
        // task lambda of that function (so lambdas passed as that argument
        // run in parallel too).
        std::vector<std::vector<std::vector<bool>>> parallel_invoked(m_.tus.size());
        for (std::size_t t = 0; t < m_.tus.size(); ++t) {
            parallel_invoked[t].resize(m_.tus[t].funcs.size());
            for (std::size_t f = 0; f < m_.tus[t].funcs.size(); ++f) {
                parallel_invoked[t][f].assign(m_.tus[t].funcs[f].params.size(), false);
            }
        }

        bool changed = true;
        int rounds = 0;
        while (changed && ++rounds <= 8) {
            changed = false;
            for (std::size_t t = 0; t < m_.tus.size(); ++t) {
                const tu_index& tu = m_.tus[t];
                for (std::size_t c = 0; c < tu.calls.size(); ++c) {
                    const call_info& call = tu.calls[c];
                    // Which argument positions hand work to a parallel
                    // region at this call site?
                    std::vector<std::size_t> task_args;
                    const bool direct = call.callee == "parallel_for" ||
                                        (call.is_member && call.callee == "run");
                    if (direct) {
                        for (std::size_t a = 0; a < call.args.size(); ++a) task_args.push_back(a);
                    } else {
                        for (const func_ref& r : m_.call_targets[t][c]) {
                            const auto& inv = parallel_invoked[r.tu][r.fn];
                            for (std::size_t a = 0;
                                 a < call.args.size() && a < inv.size(); ++a) {
                                if (inv[a]) task_args.push_back(a);
                            }
                        }
                    }
                    for (const std::size_t a : task_args) {
                        const auto [ab, ae] = call.args[a];
                        const int inline_l = lambda_in_range(static_cast<int>(t), ab, ae);
                        if (inline_l >= 0 && !m_.lambda_is_task[t][inline_l]) {
                            m_.lambda_is_task[t][inline_l] = true;
                            changed = true;
                        }
                        const std::string& name = call.arg_names[a];
                        if (!name.empty()) {
                            const int bound_l = lambda_by_bound_name(
                                static_cast<int>(t), name, call.enclosing_func);
                            if (bound_l >= 0 && !m_.lambda_is_task[t][bound_l]) {
                                m_.lambda_is_task[t][bound_l] = true;
                                changed = true;
                            }
                            // A parameter forwarded into a parallel position
                            // is parallel-invoked in the enclosing function.
                            if (mark_param_invoked(static_cast<int>(t), call.enclosing_func,
                                                   name, parallel_invoked)) {
                                changed = true;
                            }
                        }
                    }
                    // A parameter *called* inside a task lambda is
                    // parallel-invoked.
                    if (call.enclosing_lambda >= 0 && call.enclosing_func >= 0 &&
                        m_.lambda_is_task[t][call.enclosing_lambda] && call.quals.empty() &&
                        !call.is_member) {
                        if (mark_param_invoked(static_cast<int>(t), call.enclosing_func,
                                               call.callee, parallel_invoked)) {
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    bool mark_param_invoked(int t, int fn, const std::string& name,
                            std::vector<std::vector<std::vector<bool>>>& parallel_invoked) {
        if (fn < 0) return false;
        const func_info& f = m_.tus[t].funcs[fn];
        for (std::size_t p = 0; p < f.params.size(); ++p) {
            if (f.params[p] == name && !parallel_invoked[t][fn][p]) {
                parallel_invoked[t][fn][p] = true;
                return true;
            }
        }
        return false;
    }

    void collect_unordered_names() {
        m_.unordered_call_names.resize(m_.tus.size());
        for (std::size_t t = 0; t < m_.tus.size(); ++t) {
            const tu_index& tu = m_.tus[t];
            for (std::size_t c = 0; c < tu.calls.size(); ++c) {
                const auto& cands = m_.call_targets[t][c];
                if (cands.empty()) continue;
                const bool all_unordered =
                    std::all_of(cands.begin(), cands.end(),
                                [&](const func_ref& r) { return m_.func(r).returns_unordered; });
                if (all_unordered) m_.unordered_call_names[t].insert(tu.calls[c].callee);
            }
        }
    }

    project_model m_;
};

}  // namespace

int project_model::tu_of(const std::string& path) const {
    for (std::size_t t = 0; t < tus.size(); ++t) {
        if (tus[t].path == path) return static_cast<int>(t);
    }
    return -1;
}

project_model link(std::vector<tu_index> tus) { return linker(std::move(tus)).run(); }

}  // namespace levylint
