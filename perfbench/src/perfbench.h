#pragma once

// perfbench — the repository's performance benchmark.
//
// One binary, three workloads (see GLOSSARY.md for what each one measures
// and why). Every workload is driven from outside the library: it builds
// its inputs from the workload seed, calls the public entry points of each
// layer, times them with std::chrono::steady_clock, checks the outputs,
// and reports end-to-end metrics (untraced runs) or per-layer metrics
// (traced runs) as one JSON line on stdout.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct run_args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Stop after the workload's set-up and report only `setup_s`. Each
    /// process sets up once, so every set-up it times is cold (pool spawn,
    /// thread-local engines, distribution caches); run.py repeats it in
    /// fresh processes and reports the median.
    bool setup_only = false;
    /// Worker threads for the batch workloads (0 = hardware concurrency);
    /// smoke mode varies it.
    unsigned threads = 0;
    /// Fresh per-run scratch directory (spill files, journals, cache file).
    std::string work_dir;
};

struct metric {
    double value = 0.0;
    std::string unit;
};

/// What one run produced. `end_to_end` is filled on untraced runs and
/// `per_layer` on traced runs; `attempted`/`failed` count the operations
/// whose outputs were checked (or that could fail) in either mode.
struct outcome {
    std::map<std::string, metric> end_to_end;
    std::map<std::string, metric> per_layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /// Human-readable lines for the stderr report (sample counts, the tail
    /// percentile used, estimate labels).
    std::vector<std::string> notes;

    void fail(const std::string& why);
    void note(const std::string& line) { notes.push_back(line); }
};

/// The metric names each mode reports, with their units; BENCHMARK.json
/// lists exactly these (run.py checks the printed keys against it).
struct metric_def {
    const char* name;
    const char* unit;
};
[[nodiscard]] const std::vector<metric_def>& end_to_end_defs();
[[nodiscard]] const std::vector<metric_def>& per_layer_defs();

/// Set `name` in `m` with the unit from the matching definition table.
void put(std::map<std::string, metric>& m, const std::string& name, double value);

// --- Measurement helpers --------------------------------------------------

[[nodiscard]] double now_s();  ///< steady_clock seconds

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// Figures measured per batch (or per serving window) are reported at this
/// percentile of their values over the run, taken from the good end (the
/// 10th for times, the 90th for rates): the quietest tenth of the run. On a
/// shared virtual machine the host steals CPU time in spells that slow
/// whole batches; a steady code cost moves every batch.
constexpr double kQuietPercent = 10.0;

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// One JSON object describing the machine and the work directory's
/// filesystem (recorded with every result).
[[nodiscard]] std::string machine_json(const std::string& work_dir);

/// Deterministic 64-bit child seed of (seed, a, b).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

// --- Workloads ------------------------------------------------------------

[[nodiscard]] outcome run_sweep_uncapped(const run_args& args);
[[nodiscard]] outcome run_swarm_sharded(const run_args& args);
[[nodiscard]] outcome run_serve_mixed(const run_args& args);

/// Work counters of one reduced-size run, for smoke mode: each must repeat
/// exactly across runs and across thread (server worker) counts.
/// `args.threads` is the thread or worker count; `failed` accumulates
/// failed correctness checks.
using work_counts = std::map<std::string, std::uint64_t>;
[[nodiscard]] work_counts sweep_smoke_counts(const run_args& args, std::uint64_t& failed);
[[nodiscard]] work_counts swarm_smoke_counts(const run_args& args, std::uint64_t& failed);
[[nodiscard]] work_counts serve_smoke_counts(const run_args& args, std::uint64_t& failed);

}  // namespace perfbench
