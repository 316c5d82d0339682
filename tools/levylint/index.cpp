#include "tools/levylint/index.h"

#include <algorithm>
#include <cstddef>

namespace levylint {
namespace {

using tokens_t = std::vector<token>;

bool is_ident(const token& t, const char* text) {
    return t.kind == tok::identifier && t.text == text;
}

bool is_punct(const token& t, const char* text) {
    return t.kind == tok::punct && t.text == text;
}

/// Identifiers that can precede a '(' without being a function name or call.
bool is_control_keyword(const std::string& s) {
    static const char* kWords[] = {
        "if",     "else",    "for",      "while",   "do",       "switch",        "return",
        "sizeof", "alignof", "decltype", "new",     "delete",   "throw",         "catch",
        "case",   "default", "noexcept", "alignas", "requires", "static_assert", "co_await",
        "co_yield",
    };
    return std::any_of(std::begin(kWords), std::end(kWords),
                       [&](const char* w) { return s == w; });
}

/// Specifiers that may lead a declaration before the return type proper.
bool is_decl_specifier(const std::string& s) {
    static const char* kWords[] = {"static",   "inline", "constexpr", "consteval", "constinit",
                                   "virtual",  "explicit", "friend",  "extern",    "typename",
                                   "mutable",  "thread_local"};
    return std::any_of(std::begin(kWords), std::end(kWords),
                       [&](const char* w) { return s == w; });
}

bool is_builtin_type(const std::string& s) {
    static const char* kWords[] = {"void", "bool",  "char",  "int",      "double", "float",
                                   "long", "short", "signed", "unsigned", "auto",   "wchar_t"};
    return std::any_of(std::begin(kWords), std::end(kWords),
                       [&](const char* w) { return s == w; });
}

char closer_for(char open) {
    switch (open) {
        case '(': return ')';
        case '{': return '}';
        case '[': return ']';
        default: return '\0';
    }
}

/// Index just past a balanced <...> starting at `open`; `open` when the scan
/// bails (comparison operator, statement boundary, runaway). A (...) group
/// inside is skipped whole, so `vector<decltype(f(std::size_t{}))>` closes.
std::size_t skip_angles(const tokens_t& ts, std::size_t open, std::size_t limit = 160) {
    int depth = 0;
    for (std::size_t i = open; i < ts.size() && i < open + limit; ++i) {
        const token& t = ts[i];
        if (t.kind != tok::punct) continue;
        if (t.text == "(") {
            const std::size_t past = match_group(ts, i);
            if (past == i) break;
            i = past - 1;
            continue;
        }
        if (t.text == "<") ++depth;
        if (t.text == ">" && --depth == 0) return i + 1;
        if (t.text == ">>") {
            depth -= 2;
            if (depth <= 0) return i + 1;
        }
        if (t.text == ";" || t.text == "{") break;
    }
    return open;
}

const char* kUnorderedNames[] = {"unordered_map", "unordered_set", "unordered_multimap",
                                 "unordered_multiset"};

// ---------------------------------------------------------------------------

class indexer {
public:
    indexer(const std::string& rel_path, const lexed_file& lf) : ts_(lf.tokens) {
        out_.path = rel_path;
    }

    tu_index run() {
        scan_decl_scope(0, ts_.size());
        for (std::size_t f = 0; f < out_.funcs.size(); ++f) {
            const func_info& fn = out_.funcs[f];
            if (fn.is_definition) {
                scan_body(static_cast<int>(f), -1, fn.body_begin + 1, fn.body_end - 1);
            }
        }
        return std::move(out_);
    }

private:
    // --- declaration scope (file / namespace / class bodies) ---------------

    void scan_decl_scope(std::size_t begin, std::size_t end) {
        std::size_t i = begin;
        while (i < end) {
            const token& t = ts_[i];
            if (is_ident(t, "template") && i + 1 < end && is_punct(ts_[i + 1], "<")) {
                const std::size_t past = skip_angles(ts_, i + 1);
                i = past == i + 1 ? i + 2 : past;
                continue;
            }
            if (is_ident(t, "namespace")) {
                i = enter_namespace(i, end);
                continue;
            }
            if (is_ident(t, "struct") || is_ident(t, "class") || is_ident(t, "union")) {
                i = enter_class(i, end);
                continue;
            }
            if (is_ident(t, "enum")) {
                i = skip_to_statement_end(i, end);
                continue;
            }
            if (is_ident(t, "using") || is_ident(t, "typedef")) {
                i = skip_past(i, end, ";");
                continue;
            }
            if (t.kind == tok::identifier && !is_control_keyword(t.text) &&
                !is_decl_specifier(t.text)) {
                const std::size_t past = try_function(i, end);
                if (past != i) {
                    i = past;
                    continue;
                }
            }
            if (is_punct(t, "{")) {
                const std::size_t past = match_group(ts_, i);
                i = past == i ? i + 1 : past;  // initializer braces: opaque
                continue;
            }
            if (is_punct(t, "}")) return;  // enclosing scope closes
            ++i;
        }
    }

    std::size_t enter_namespace(std::size_t i, std::size_t end) {
        std::size_t j = i + 1;
        std::vector<std::string> parts;
        while (j < end && ts_[j].kind == tok::identifier) {
            parts.push_back(ts_[j].text);
            ++j;
            if (j < end && is_punct(ts_[j], "::")) ++j;
            else break;
        }
        if (j >= end || !is_punct(ts_[j], "{")) return skip_to_statement_end(i, end);
        const std::size_t past = match_group(ts_, j);
        if (past == j) return j + 1;
        for (const std::string& p : parts) scope_.push_back(p);
        scan_decl_scope(j + 1, past - 1);
        scope_.resize(scope_.size() - parts.size());
        return past;
    }

    std::size_t enter_class(std::size_t i, std::size_t end) {
        // struct NAME [final] [: bases] { ... } — or a forward declaration /
        // elaborated type (struct NAME x;), which has no body to enter.
        std::size_t j = i + 1;
        std::string name;
        while (j < end && (ts_[j].kind == tok::identifier || is_punct(ts_[j], "::"))) {
            if (ts_[j].kind == tok::identifier && !is_ident(ts_[j], "final") &&
                !is_ident(ts_[j], "alignas")) {
                name = ts_[j].text;
            }
            ++j;
        }
        std::size_t open = 0;
        for (std::size_t k = j; k < end; ++k) {
            if (is_punct(ts_[k], "{")) {
                open = k;
                break;
            }
            if (is_punct(ts_[k], ";")) return k + 1;  // forward declaration
        }
        if (open == 0) return j;
        const std::size_t past = match_group(ts_, open);
        if (past == open) return open + 1;
        scope_.push_back(name);
        scan_decl_scope(open + 1, past - 1);
        scope_.pop_back();
        return past;
    }

    std::size_t skip_past(std::size_t i, std::size_t end, const char* punct) {
        for (std::size_t j = i; j < end; ++j) {
            if (is_punct(ts_[j], punct)) return j + 1;
        }
        return end;
    }

    /// Advance past one declaration-scope statement: to just past the ';',
    /// or past a '{...}' group once one opens (enum/namespace alias bodies).
    std::size_t skip_to_statement_end(std::size_t i, std::size_t end) {
        for (std::size_t j = i; j < end; ++j) {
            if (is_punct(ts_[j], ";")) return j + 1;
            if (is_punct(ts_[j], "{")) return match_group(ts_, j);
        }
        return end;
    }

    // --- function declarations / definitions -------------------------------

    /// Try to parse a function declaration or definition whose declarator
    /// starts somewhere at/after `i` (the first non-specifier identifier of
    /// the statement). Returns the index just past the declaration (past ';'
    /// or past the body '}'), or `i` when this is not a function.
    std::size_t try_function(std::size_t i, std::size_t end) {
        // Walk forward to the '(' that opens a parameter list: NAME '(' where
        // NAME is the last identifier of a possibly qualified chain. Give up
        // at statement boundaries or anything declarator-unlike.
        std::size_t j = i;
        std::size_t name_tok = 0;
        bool saw_operator = false;
        while (j < end) {
            const token& t = ts_[j];
            if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}") || is_punct(t, "=") ||
                is_punct(t, ":")) {
                return i;  // variable declaration / access specifier / other
            }
            if (is_ident(t, "operator")) {
                saw_operator = true;
                ++j;
                continue;
            }
            if (is_punct(t, "<")) {
                const std::size_t past = skip_angles(ts_, j);
                if (past == j) return i;  // comparison: an expression, not a decl
                j = past;
                continue;
            }
            if (is_punct(t, "(")) {
                if (saw_operator) {
                    // operator()(params): the first '(' is part of the name.
                    if (j + 1 < end && is_punct(ts_[j + 1], ")") && j + 2 < end &&
                        is_punct(ts_[j + 2], "(")) {
                        name_tok = j;  // best-effort anchor; name recorded below
                        j += 2;
                    }
                    break;
                }
                if (j == i || ts_[j - 1].kind != tok::identifier) return i;
                name_tok = j - 1;
                break;
            }
            ++j;
        }
        if (j >= end || !is_punct(ts_[j], "(")) return i;
        const std::size_t lparen = j;
        const std::size_t rparen_past = match_group(ts_, lparen);
        if (rparen_past == lparen) return i;

        func_info fn;
        if (saw_operator) {
            fn.name = "operator";
        } else {
            fn.name = ts_[name_tok].text;
            if (is_control_keyword(fn.name) || is_builtin_type(fn.name)) return i;
        }
        fn.line = ts_[lparen].line;

        // Scope-qualified name: enclosing scopes + any A::B:: chain written
        // at the declarator (out-of-class definitions).
        std::vector<std::string> quals = scope_;
        if (!saw_operator) {
            std::size_t q = name_tok;
            std::vector<std::string> local;
            while (q >= 2 && is_punct(ts_[q - 1], "::") && ts_[q - 2].kind == tok::identifier) {
                local.push_back(ts_[q - 2].text);
                q -= 2;
            }
            std::reverse(local.begin(), local.end());
            quals.insert(quals.end(), local.begin(), local.end());
            // Return type: the statement tokens before the qualified name.
            fn.ret.reserve(q > i ? q - i : 0);
            for (std::size_t k = i; k < q; ++k) fn.ret.push_back(ts_[k].text);
        }
        std::string qn;
        for (const std::string& s : quals) {
            qn += s;
            qn += "::";
        }
        qn += fn.name;
        fn.qname = std::move(qn);
        fn.returns_unordered = range_has_unordered_text(fn.ret);

        parse_params(lparen + 1, rparen_past - 1, fn.params);

        // After the parameter list: cv/ref/noexcept/trailing-return/ctor-init
        // until the body '{', a pure-declaration ';', or '=' (default/delete,
        // or — before any of those — a variable initializer, meaning this was
        // `type name(args)` direct-init, not a function).
        std::size_t k = rparen_past;
        bool trailing_ret = false;
        std::vector<std::string> trail;
        while (k < end) {
            const token& t = ts_[k];
            if (is_punct(t, ";")) {
                if (trailing_ret) {
                    fn.ret = trail;
                    fn.returns_unordered = range_has_unordered_text(fn.ret);
                }
                finish_decl(fn);
                return k + 1;
            }
            if (is_punct(t, "{")) {
                if (trailing_ret) {
                    fn.ret = trail;
                    fn.returns_unordered = range_has_unordered_text(fn.ret);
                }
                const std::size_t past = match_group(ts_, k);
                if (past == k) return i;
                fn.is_definition = true;
                fn.body_begin = k;
                fn.body_end = past;
                finish_decl(fn);
                return past;
            }
            if (is_punct(t, "=")) {
                // = default / = delete / = 0 declarations end at ';'.
                if (k + 1 < end && (is_ident(ts_[k + 1], "default") ||
                                    is_ident(ts_[k + 1], "delete") ||
                                    (ts_[k + 1].kind == tok::number && ts_[k + 1].text == "0"))) {
                    finish_decl(fn);
                    return skip_past(k, end, ";");
                }
                return i;  // direct-init variable, not a function
            }
            if (is_punct(t, ":")) {
                // Constructor init list: member(...)/member{...} groups, then
                // the body.
                std::size_t m = k + 1;
                while (m < end) {
                    while (m < end && (ts_[m].kind == tok::identifier || is_punct(ts_[m], "::") ||
                                       is_punct(ts_[m], "<") || is_punct(ts_[m], ">") ||
                                       is_punct(ts_[m], ","))) {
                        ++m;
                    }
                    if (m < end && is_punct(ts_[m], "(")) {
                        const std::size_t past = match_group(ts_, m);
                        if (past == m) return i;
                        m = past;
                        continue;
                    }
                    if (m < end && is_punct(ts_[m], "{")) {
                        // Brace-init of a member — or the ctor body. In an
                        // init list a '{' can only follow a member name
                        // (`name{...}`, incl. `base<T>{...}`); a '{' after a
                        // closed init group ')' / '}' is the ctor body.
                        // Deciding by the *following* token instead is wrong:
                        // an empty body `{}` followed by the next function's
                        // return type looks like `identifier` and would make
                        // the scanner swallow every later definition.
                        const bool member_init =
                            m > 0 && (ts_[m - 1].kind == tok::identifier ||
                                      is_punct(ts_[m - 1], ">"));
                        const std::size_t past = match_group(ts_, m);
                        if (past == m) return i;
                        if (member_init) {
                            m = past;
                            continue;
                        }
                        fn.is_definition = true;
                        fn.body_begin = m;
                        fn.body_end = past;
                        finish_decl(fn);
                        return past;
                    }
                    break;
                }
                return i;
            }
            if (is_punct(t, "->")) {
                trailing_ret = true;
                ++k;
                continue;
            }
            if (trailing_ret) {
                // A balanced (...) or <...> group is one piece of the return
                // type: the '{' of `decltype(f(std::size_t{}))` is not the
                // body.
                std::size_t past = k + 1;
                if (is_punct(t, "(")) past = match_group(ts_, k);
                if (is_punct(t, "<")) past = skip_angles(ts_, k);
                if (past == k) return i;
                for (; k < past; ++k) trail.push_back(ts_[k].text);
                continue;
            }
            if (t.kind == tok::identifier || is_punct(t, "&") || is_punct(t, "&&")) {
                ++k;  // const / noexcept / override / final / ref-qualifier
                continue;
            }
            if (is_punct(t, "(")) {  // noexcept(...)
                const std::size_t past = match_group(ts_, k);
                if (past == k) return i;
                k = past;
                continue;
            }
            if (is_punct(t, "[")) {  // attribute
                const std::size_t past = match_group(ts_, k);
                if (past == k) return i;
                k = past;
                continue;
            }
            return i;
        }
        return i;
    }

    void finish_decl(func_info& fn) { out_.funcs.push_back(std::move(fn)); }

    bool range_has_unordered_text(const std::vector<std::string>& toks) const {
        for (const std::string& s : toks) {
            for (const char* n : kUnorderedNames) {
                if (s == n) return true;
            }
        }
        return false;
    }

    /// Parameter names: per parameter, the last identifier before any
    /// default argument.
    void parse_params(std::size_t begin, std::size_t end, std::vector<std::string>& out) {
        if (begin >= end) return;
        std::size_t start = begin;
        auto emit = [&](std::size_t from, std::size_t to) {
            if (from >= to) return;
            if (to == from + 1 && is_ident(ts_[from], "void")) return;
            std::string name;
            for (std::size_t k = from; k < to && !is_punct(ts_[k], "="); ++k) {
                if (ts_[k].kind == tok::identifier) name = ts_[k].text;
            }
            out.push_back(std::move(name));
        };
        for (std::size_t k = begin; k < end; ++k) {
            const token& t = ts_[k];
            if (is_punct(t, "(") || is_punct(t, "{") || is_punct(t, "[")) {
                const std::size_t past = match_group(ts_, k);
                if (past != k) {
                    k = past - 1;
                    continue;
                }
            }
            if (is_punct(t, "<")) {
                const std::size_t past = skip_angles(ts_, k);
                if (past != k) {
                    k = past - 1;
                    continue;
                }
            }
            if (is_punct(t, ",")) {
                emit(start, k);
                start = k + 1;
            }
        }
        emit(start, end);
    }

    // --- function bodies: calls and lambdas ---------------------------------

    void scan_body(int func_idx, int lambda_idx, std::size_t begin, std::size_t end) {
        std::size_t i = begin;
        while (i < end) {
            const token& t = ts_[i];
            if (is_punct(t, "[") && lambda_starts_here(i)) {
                const std::size_t past = record_lambda(func_idx, i, end);
                if (past != i) {
                    i = past;
                    continue;
                }
            }
            if (t.kind == tok::identifier && i + 1 < end && is_punct(ts_[i + 1], "(") &&
                !is_control_keyword(t.text) && !looks_like_decl(i)) {
                record_call(func_idx, lambda_idx, i);
            }
            ++i;
        }
    }

    /// A '[' opens a lambda when it sits in expression position (not a
    /// subscript) and its matched ']' is followed by a parameter list or
    /// body.
    bool lambda_starts_here(std::size_t i) const {
        if (i > 0) {
            const token& p = ts_[i - 1];
            if (p.kind == tok::identifier && !is_ident(p, "return") && !is_ident(p, "case")) {
                return false;  // subscript on a name
            }
            if (is_punct(p, "]") || is_punct(p, ")")) return false;  // chained subscript
            if (is_punct(p, "[")) return false;                      // attribute [[...]]
        }
        const std::size_t past = match_group(ts_, i);
        if (past == i || past >= ts_.size()) return false;
        if (is_punct(ts_[past], "(") || is_punct(ts_[past], "{")) return true;
        return false;
    }

    std::size_t record_lambda(int func_idx, std::size_t intro, std::size_t end) {
        const std::size_t intro_past = match_group(ts_, intro);
        if (intro_past == intro) return intro;
        lambda_info lm;
        lm.intro = intro;
        lm.line = ts_[intro].line;
        lm.enclosing_func = func_idx;
        parse_captures(intro + 1, intro_past - 1, lm);
        if (intro >= 2 && is_punct(ts_[intro - 1], "=") && ts_[intro - 2].kind == tok::identifier) {
            lm.bound_name = ts_[intro - 2].text;
        }
        std::size_t j = intro_past;
        if (j < end && is_punct(ts_[j], "(")) {
            const std::size_t params_past = match_group(ts_, j);
            if (params_past == j) return intro;
            parse_params(j + 1, params_past - 1, lm.params);
            j = params_past;
        }
        // mutable / noexcept / attributes / trailing return, then the body.
        std::size_t guard = 0;
        while (j < end && !is_punct(ts_[j], "{")) {
            if (is_punct(ts_[j], ";") || is_punct(ts_[j], ")") || is_punct(ts_[j], ",")) {
                return intro;  // not a lambda after all
            }
            if (++guard > 24) return intro;
            ++j;
        }
        if (j >= end) return intro;
        const std::size_t body_past = match_group(ts_, j);
        if (body_past == j) return intro;
        lm.body_begin = j;
        lm.body_end = body_past;
        const int lidx = static_cast<int>(out_.lambdas.size());
        out_.lambdas.push_back(std::move(lm));
        scan_body(func_idx, lidx, j + 1, body_past - 1);
        return body_past;
    }

    void parse_captures(std::size_t begin, std::size_t end, lambda_info& lm) {
        std::size_t start = begin;
        auto piece = [&](std::size_t from, std::size_t to) {
            if (from >= to) return;
            if (is_punct(ts_[from], "&")) {
                if (from + 1 == to) {
                    lm.capture_ref_default = true;
                } else if (ts_[from + 1].kind == tok::identifier) {
                    lm.ref_captures.push_back(ts_[from + 1].text);
                }
                return;
            }
            if (is_punct(ts_[from], "=") && from + 1 == to) {
                lm.capture_val_default = true;
                return;
            }
            if (ts_[from].kind == tok::identifier) lm.val_captures.push_back(ts_[from].text);
        };
        for (std::size_t k = begin; k < end; ++k) {
            if (is_punct(ts_[k], "(") || is_punct(ts_[k], "{") || is_punct(ts_[k], "[")) {
                const std::size_t past = match_group(ts_, k);
                if (past != k) k = past - 1;
                continue;
            }
            if (is_punct(ts_[k], ",")) {
                piece(start, k);
                start = k + 1;
            }
        }
        piece(start, end);
    }

    /// `IDENT (` where the previous token is an identifier or a closing
    /// angle is a direct-init declaration (`rng g(seed)`,
    /// `std::vector<int> v(n)`), not a call.
    bool looks_like_decl(std::size_t i) const {
        if (i == 0) return false;
        const token& p = ts_[i - 1];
        if (is_punct(p, ">") || is_punct(p, ">>")) return true;
        if (p.kind != tok::identifier) return false;
        if (is_ident(p, "return") || is_ident(p, "co_return") || is_ident(p, "case") ||
            is_ident(p, "co_yield") || is_ident(p, "throw") || is_ident(p, "else") ||
            is_ident(p, "do")) {
            return false;
        }
        return true;
    }

    void record_call(int func_idx, int lambda_idx, std::size_t name_tok) {
        call_info c;
        c.callee = ts_[name_tok].text;
        c.enclosing_func = func_idx;
        c.enclosing_lambda = lambda_idx;
        std::size_t q = name_tok;
        while (q >= 2 && is_punct(ts_[q - 1], "::") && ts_[q - 2].kind == tok::identifier) {
            c.quals.push_back(ts_[q - 2].text);
            q -= 2;
        }
        std::reverse(c.quals.begin(), c.quals.end());
        if (q > 0 && (is_punct(ts_[q - 1], ".") || is_punct(ts_[q - 1], "->"))) {
            c.is_member = true;
        }
        const std::size_t lparen = name_tok + 1;
        const std::size_t past = match_group(ts_, lparen);
        if (past == lparen) return;
        const std::size_t rparen = past - 1;
        // Top-level comma split of the argument list.
        std::size_t start = lparen + 1;
        for (std::size_t k = lparen + 1; k < rparen; ++k) {
            if (is_punct(ts_[k], "(") || is_punct(ts_[k], "{") || is_punct(ts_[k], "[")) {
                const std::size_t g = match_group(ts_, k);
                if (g != k) {
                    k = g - 1;
                    continue;
                }
            }
            if (is_punct(ts_[k], "<")) {
                const std::size_t g = skip_angles(ts_, k, 64);
                if (g != k && g <= rparen) {
                    k = g - 1;
                    continue;
                }
            }
            if (is_punct(ts_[k], ",")) {
                c.args.emplace_back(start, k);
                start = k + 1;
            }
        }
        if (start < rparen) c.args.emplace_back(start, rparen);
        for (const auto& [ab, ae] : c.args) {
            const bool bare = ae == ab + 1 && ts_[ab].kind == tok::identifier;
            c.arg_names.push_back(bare ? ts_[ab].text : std::string{});
        }
        out_.calls.push_back(std::move(c));
    }

    const tokens_t& ts_;
    tu_index out_;
    std::vector<std::string> scope_;
};

}  // namespace

std::size_t match_group(const std::vector<token>& ts, std::size_t open) {
    if (open >= ts.size() || ts[open].kind != tok::punct || ts[open].text.size() != 1) {
        return open;
    }
    const char oc = ts[open].text[0];
    const char cc = closer_for(oc);
    if (cc == '\0') return open;
    int depth = 0;
    for (std::size_t i = open; i < ts.size(); ++i) {
        const token& t = ts[i];
        if (t.kind != tok::punct || t.text.size() != 1) continue;
        if (t.text[0] == oc) ++depth;
        if (t.text[0] == cc && --depth == 0) return i + 1;
    }
    return open;
}

tu_index build_index(const std::string& rel_path, const lexed_file& lf) {
    return indexer(rel_path, lf).run();
}

}  // namespace levylint
