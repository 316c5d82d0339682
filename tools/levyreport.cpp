// levyreport — cross-run summary and schema check for the structured bench
// results (BENCH_<id>.json, schema "levy-bench" v1) written by the
// experiment binaries under --json/--json-dir.
//
//   levyreport DIR              summary table: one line per experiment with
//                               trials/sec, utilization, censored count, and
//                               the worst paper-vs-fit drift in its rows
//   levyreport DIR BASELINE     adds trials/sec and drift deltas vs the same
//                               experiments loaded from BASELINE
//   levyreport DIR... -- BASELINE...
//                               the same over repeated runs, one directory
//                               per run: each side's trials/s is the median
//                               of its runs, so one slow run cannot move it
//   levyreport --check DIR      validate every document against schema v1;
//                               exit 1 (listing the problems) on any failure
//   --fail-on-regression=PCT    with a baseline: exit 1 when any experiment's
//                               trials/s fell by PCT percent or more below
//                               its baseline (the CI bench-smoke gate); a
//                               run directory with no documents is an error
//
// Paper drift is noise-aware: when a measured/fit cell carries a "± h" 95%
// interval (the benches' CI columns), only the part of |measured - paper|
// beyond h counts as drift — a value inside its own interval reports 0.
//
// Exit codes: 0 clean, 1 validation failure / regression / bad usage,
// 2 I/O error.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/report.h"
#include "src/stats/table.h"

namespace {

namespace fs = std::filesystem;
using levy::obs::json;

struct loaded_doc {
    std::string file;
    json doc;
};

std::vector<loaded_doc> load_dir(const std::string& dir) {
    std::vector<loaded_doc> out;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (!entry.is_regular_file() || name.rfind("BENCH_", 0) != 0 ||
            entry.path().extension() != ".json") {
            continue;
        }
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        if (!in.good() && !in.eof()) {
            throw std::runtime_error("cannot read " + entry.path().string());
        }
        out.push_back({name, json::parse(ss.str())});
    }
    std::sort(out.begin(), out.end(),
              [](const loaded_doc& a, const loaded_doc& b) { return a.file < b.file; });
    return out;
}

/// Leading numeric value of a table cell ("-0.515", "2.50 (=-alpha)",
/// "0.1234 ± 0.01"); nullopt when the cell has no leading number.
std::optional<double> leading_number(const std::string& cell) {
    try {
        std::size_t used = 0;
        const double v = std::stod(cell, &used);
        return used > 0 ? std::optional<double>(v) : std::nullopt;
    } catch (...) {
        return std::nullopt;
    }
}

/// Half-width of a "value ± half" cell (stats::fmt_pm writes the UTF-8 ±);
/// nullopt when the cell carries no interval.
std::optional<double> pm_half_width(const std::string& cell) {
    const std::size_t pm = cell.find("\xc2\xb1");  // "±"
    if (pm == std::string::npos) return std::nullopt;
    return leading_number(cell.substr(pm + 2));
}

bool contains_ci(const std::string& haystack, const std::string& needle) {
    const auto it = std::search(haystack.begin(), haystack.end(), needle.begin(), needle.end(),
                                [](char a, char b) {
                                    return std::tolower(static_cast<unsigned char>(a)) ==
                                           std::tolower(static_cast<unsigned char>(b));
                                });
    return it != haystack.end();
}

/// Worst |measured - paper| over the document's rows, pairing each "paper"
/// column with the row's measured/fit column. The benches label their
/// prediction columns with "paper" and the regression outputs with "fit" /
/// "measured"/"slope", so this needs no per-experiment schema knowledge.
/// A measured cell with a "± h" interval only contributes the part of the
/// gap beyond h: sampling noise inside the estimator's own 95% CI is not
/// drift.
std::optional<double> paper_drift(const json& doc) {
    std::optional<double> worst;
    for (const json& row : doc.at("rows").elements()) {
        const json& values = row.at("values");
        std::optional<double> paper;
        std::optional<double> measured;
        double half_width = 0.0;
        for (const auto& [column, cell] : values.members()) {
            if (!cell.is_string()) continue;
            const auto v = leading_number(cell.as_string());
            if (!v) continue;
            if (contains_ci(column, "paper")) {
                paper = v;
            } else if (contains_ci(column, "fit") || contains_ci(column, "measured") ||
                       contains_ci(column, "slope")) {
                measured = v;
                half_width = pm_half_width(cell.as_string()).value_or(0.0);
            }
        }
        if (paper && measured) {
            const double drift =
                std::max(0.0, std::fabs(*measured - *paper) - half_width);
            if (!worst || drift > *worst) worst = drift;
        }
    }
    return worst;
}

std::string fmt_opt(const std::optional<double>& v, int precision) {
    return v ? levy::stats::fmt(*v, precision) : "-";
}

int check(const std::vector<loaded_doc>& docs) {
    int failures = 0;
    for (const auto& [file, doc] : docs) {
        const std::vector<std::string> errors = levy::obs::validate_bench_json(doc);
        if (errors.empty()) {
            std::cout << file << ": ok\n";
        } else {
            ++failures;
            std::cout << file << ": INVALID\n";
            for (const std::string& e : errors) std::cout << "  - " << e << '\n';
        }
    }
    std::cout << docs.size() << " document(s), " << failures << " invalid\n";
    return failures == 0 ? 0 : 1;
}

struct summary {
    bool interrupted = false;
    double trials = 0.0;
    double trials_per_sec = 0.0;
    std::optional<double> utilization;
    double censored = 0.0;
    std::optional<double> drift;
};

summary summarize(const json& doc) {
    const json& m = doc.at("metrics");
    summary s;
    const json* interrupted = doc.find("interrupted");
    s.interrupted = interrupted != nullptr && interrupted->is_bool() && interrupted->as_bool();
    s.trials = m.at("trials").as_number();
    s.trials_per_sec = m.at("trials_per_sec").as_number();
    if (m.at("utilization").is_number()) s.utilization = m.at("utilization").as_number();
    s.censored = m.at("censored").as_number();
    s.drift = paper_drift(doc);
    return s;
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// One side's experiments, by id, over its runs (one directory each): the
/// first run's summary, with trials/s the median over the runs that have
/// the experiment.
std::map<std::string, summary> summarize_runs(const std::vector<std::vector<loaded_doc>>& runs) {
    std::map<std::string, summary> out;
    std::map<std::string, std::vector<double>> rates;
    for (const auto& run : runs) {
        for (const auto& [file, doc] : run) {
            const summary s = summarize(doc);
            const std::string id = doc.at("experiment").as_string();
            out.emplace(id, s);
            rates[id].push_back(s.trials_per_sec);
        }
    }
    for (auto& [id, s] : out) s.trials_per_sec = median(rates[id]);
    return out;
}

int report(const std::map<std::string, summary>& current,
           const std::map<std::string, summary>& baseline,
           std::optional<double> fail_on_regression_pct) {
    std::vector<std::string> header = {"experiment", "trials", "trials/s", "util", "censored",
                                       "paper drift"};
    const bool compare = !baseline.empty();
    if (compare) {
        header.push_back("delta trials/s");
        header.push_back("delta drift");
    }
    levy::stats::text_table table(std::move(header));
    std::vector<std::string> regressions;
    for (const auto& [experiment, s] : current) {
        // An interrupted run is reported, never compared.
        const std::string id = s.interrupted ? experiment + " (interrupted)" : experiment;
        std::vector<std::string> row = {
            id,
            levy::stats::fmt(s.trials, 0),
            levy::stats::fmt(s.trials_per_sec, 0),
            s.utilization ? levy::stats::fmt(*s.utilization * 100.0, 0) + "%" : "n/a",
            levy::stats::fmt(s.censored, 0),
            fmt_opt(s.drift, 4),
        };
        if (compare) {
            const auto base = baseline.find(id);
            if (base == baseline.end()) {
                row.push_back("new");
                row.push_back("new");
            } else {
                const double base_rate = base->second.trials_per_sec;
                const double delta_pct =
                    base_rate > 0.0 ? (s.trials_per_sec / base_rate - 1.0) * 100.0 : 0.0;
                row.push_back(base_rate > 0.0 ? levy::stats::fmt(delta_pct, 1) + "%" : "-");
                row.push_back(s.drift && base->second.drift
                                  ? levy::stats::fmt(*s.drift - *base->second.drift, 4)
                                  : "-");
                if (fail_on_regression_pct && -delta_pct >= *fail_on_regression_pct) {
                    regressions.push_back(id + ": " + levy::stats::fmt(-delta_pct, 1) +
                                          "% slower than baseline (tolerance " +
                                          levy::stats::fmt(*fail_on_regression_pct, 1) +
                                          "%)");
                }
            }
        }
        table.add_row(std::move(row));
    }
    table.print(std::cout);
    for (const std::string& r : regressions) {
        std::cerr << "levyreport: throughput regression — " << r << '\n';
    }
    return regressions.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    bool check_mode = false;
    std::optional<double> fail_on_regression_pct;
    std::vector<std::string> dirs;
    std::vector<std::string> baseline_dirs;
    bool after_separator = false;
    constexpr const char* kUsage =
        "usage: levyreport [--check] [--fail-on-regression=PCT] DIR [BASELINE_DIR]\n"
        "       levyreport [--fail-on-regression=PCT] DIR... -- BASELINE_DIR...\n";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--") {
            if (after_separator) {
                std::cerr << "levyreport: -- given twice\n";
                return 1;
            }
            after_separator = true;
        } else if (arg == "--check") {
            check_mode = true;
        } else if (arg.rfind("--fail-on-regression=", 0) == 0) {
            const auto pct = leading_number(arg.substr(std::string("--fail-on-regression=").size()));
            if (!pct || *pct < 0.0) {
                std::cerr << "levyreport: --fail-on-regression needs a percentage >= 0\n";
                return 1;
            }
            fail_on_regression_pct = pct;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << kUsage;
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "levyreport: unknown flag " << arg << '\n';
            return 1;
        } else {
            (after_separator ? baseline_dirs : dirs).push_back(arg);
        }
    }
    // Without "--", a second directory is the baseline.
    if (!after_separator && dirs.size() == 2) {
        baseline_dirs.push_back(dirs.back());
        dirs.pop_back();
    }
    const bool valid = !dirs.empty() &&
                       (after_separator ? !baseline_dirs.empty() : dirs.size() == 1) &&
                       !(check_mode && !baseline_dirs.empty());
    if (!valid) {
        std::cerr << kUsage;
        return 1;
    }
    if (fail_on_regression_pct && baseline_dirs.empty()) {
        std::cerr << "levyreport: --fail-on-regression requires a BASELINE_DIR\n" << kUsage;
        return 1;
    }
    try {
        const auto load_runs = [&](const std::vector<std::string>& side) {
            std::vector<std::vector<loaded_doc>> runs;
            for (const std::string& dir : side) {
                runs.push_back(load_dir(dir));
                // A run that left no documents cannot be compared: the gate
                // must not pass on the other runs alone.
                if (runs.back().empty() && fail_on_regression_pct) {
                    throw std::runtime_error("no BENCH_*.json in " + dir);
                }
            }
            return runs;
        };
        const std::vector<std::vector<loaded_doc>> runs = load_runs(dirs);
        if (runs.front().empty()) {
            std::cerr << "levyreport: no BENCH_*.json in " << dirs.front() << '\n';
            return check_mode ? 1 : 0;
        }
        if (check_mode) return check(runs.front());
        return report(summarize_runs(runs), summarize_runs(load_runs(baseline_dirs)),
                      fail_on_regression_pct);
    } catch (const std::exception& e) {
        std::cerr << "levyreport: " << e.what() << '\n';
        return 2;
    }
}
