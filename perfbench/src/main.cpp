// perfbench entry point. Usage (normally through perfbench/run.py, which
// builds this binary first):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --workload NAME --seed N --setup-only
//   perfbench --smoke [--seed N]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} (with --setup-only: {"setup_s": seconds}); the
// human-readable report goes to stderr. The exit code is 0 only when every
// correctness check passed.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench.h"
#include "src/obs/trace.h"
#include "src/sim/monte_carlo.h"

namespace {

using namespace perfbench;
using namespace levy;

const std::vector<std::string> kWorkloads = {"sweep_uncapped", "swarm_sharded", "serve_mixed"};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
                 "       perfbench --workload NAME --seed N --setup-only\n"
                 "       perfbench --smoke [--seed N]\n";
    std::exit(2);
}

std::string json_number(double v) {
    if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;  // JSON has no infinities
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

outcome run_workload(const run_args& args) {
    if (args.workload == "sweep_uncapped") return run_sweep_uncapped(args);
    if (args.workload == "swarm_sharded") return run_swarm_sharded(args);
    return run_serve_mixed(args);
}

int print_result(const run_args& args, outcome& out) {
    const auto& defs = args.trace ? per_layer_defs() : end_to_end_defs();
    auto& metrics = args.trace ? out.per_layer : out.end_to_end;
    std::cerr << "perfbench " << args.workload << " seed=" << args.seed
              << (args.trace ? " (traced)" : "") << "\n";
    std::string json = "{";
    for (const metric_def& d : defs) {
        // A traced run reports every layer; layers a workload does not use read 0.
        if (!metrics.count(d.name)) {
            if (!args.trace) throw std::logic_error(std::string("missing metric ") + d.name);
            put(metrics, d.name, 0.0);
        }
        const metric& m = metrics.at(d.name);
        char line[160];
        std::snprintf(line, sizeof line, "  %-28s %16.6g %s\n", d.name, m.value, m.unit.c_str());
        std::cerr << line;
        if (json.size() > 1) json += ", ";
        json += "\"" + std::string(d.name) + "\": {\"value\": " + json_number(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}";
    const double failed_frac =
        out.attempted == 0 ? 0.0 : static_cast<double>(out.failed) / static_cast<double>(out.attempted);
    std::cerr << "  failed_frac " << failed_frac << " (" << out.failed << " of " << out.attempted
              << ")\n";
    for (const std::string& n : out.notes) std::cerr << "  " << n << "\n";
    const bool correct = out.failed == 0 && out.attempted > 0;
    std::cout << "machine " << machine_json(args.work_dir) << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
              << out.attempted << ", \"failed\": " << out.failed << ", \"metrics\": " << json
              << "}" << std::endl;
    return correct ? 0 : 1;
}

int run_smoke(run_args args) {
    const unsigned all = sim::resolve_threads(0);
    const std::vector<std::pair<std::string, std::function<work_counts(const run_args&, std::uint64_t&)>>>
        parts = {{"sweep", sweep_smoke_counts}, {"swarm", swarm_smoke_counts}, {"serve", serve_smoke_counts}};
    int mismatches = 0;
    std::uint64_t failed = 0;
    for (const auto& [name, fn] : parts) {
        // Serving uses 1 vs 2 workers; the batch workloads 1 vs all threads.
        const unsigned many = name == "serve" ? 2 : all;
        std::vector<std::pair<unsigned, work_counts>> runs;
        for (const unsigned t : {1U, many, many}) {
            args.threads = t;
            runs.emplace_back(t, fn(args, failed));
        }
        for (const auto& [counter, value] : runs.front().second) {
            std::cout << name << "  " << counter << ":";
            for (const auto& [t, counts] : runs) {
                const auto it = counts.find(counter);
                const bool same = it != counts.end() && it->second == value;
                mismatches += same ? 0 : 1;
                std::cout << "  " << (it == counts.end() ? 0 : it->second) << "@" << t
                          << (same ? "" : " MISMATCH");
            }
            std::cout << "\n";
        }
    }
    std::cout << "smoke: " << mismatches << " count mismatches, " << failed
              << " failed correctness checks\n";
    return mismatches == 0 && failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    run_args args;
    bool smoke = false;
    std::string trace = "0";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            smoke = true;
            continue;
        }
        if (flag == "--setup-only") {
            args.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0') usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(args.seconds > 0)) usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            trace = value;
            if (trace != "0" && trace != "1") usage("bad --trace " + value);
        } else {
            usage("unknown flag " + flag);
        }
    }
    args.trace = trace == "1";
    if (!smoke && std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) == kWorkloads.end()) {
        usage("unknown workload '" + args.workload + "'");
    }

    // A fresh scratch directory per run inside the working directory.
    const std::filesystem::path work =
        std::filesystem::absolute(".bench_work") / ("run-" + std::to_string(::getpid()));
    std::filesystem::remove_all(work);
    std::filesystem::create_directories(work);
    args.work_dir = work.string();

    int rc = 1;
    try {
        if (smoke) {
            rc = run_smoke(args);
        } else if (args.setup_only) {
            const outcome out = run_workload(args);
            for (const std::string& n : out.notes) std::cerr << "perfbench: " << n << "\n";
            std::cout << "{\"setup_s\": " << json_number(out.end_to_end.at("setup_s").value) << "}"
                      << std::endl;
            rc = out.failed == 0 ? 0 : 1;
        } else {
            outcome out = run_workload(args);
            if (args.trace) {
                obs::stop_span_collection();
                const std::filesystem::path dir = std::filesystem::absolute(".bench_out");
                std::filesystem::create_directories(dir);
                const std::string path = (dir / ("trace-" + args.workload + "-" +
                                                 std::to_string(args.seed) + ".json")).string();
                obs::write_chrome_trace(path);
                out.note("spans written to " + path);
            }
            rc = print_result(args, out);
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        rc = 1;
    }
    std::filesystem::remove_all(work);
    return rc;
}
