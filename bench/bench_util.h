#pragma once

// Shared scaffolding for the experiment binaries (E1-E14). Each binary
// validates one statement of the paper: it prints the claim, sweeps the
// statement's parameters, and emits a paper-vs-measured table plus one
// throughput line (trials/s and worker utilization on the persistent pool).
// All binaries accept --trials/--scale/--threads/--chunk/--seed plus the
// observability flags --json/--json-dir/--trace (see sim::run_options), and
// run with fast defaults suitable for `for b in build/bench/*; do $b; done`.
// --json records every printed table row.

#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/hitting.h"
#include "src/core/parallel_search.h"
#include "src/obs/exporter.h"
#include "src/obs/progress.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/rng/rng_stream.h"
#include "src/sim/experiment.h"
#include "src/sim/monte_carlo.h"
#include "src/stats/table.h"

namespace levy::bench {

/// Print the experiment banner: id, the validated statement, and the claim.
inline void banner(const std::string& id, const std::string& statement,
                   const std::string& claim) {
    std::cout << "=== " << id << " — " << statement << " ===\n";
    std::cout << "Paper claim: " << claim << "\n\n";
}

/// Wrap a bench main: parse options, run, convert exceptions to exit codes.
/// `id` is the experiment tag ("E12"); it names the structured JSON sink
/// (BENCH_<id>.json under --json-dir) and the "experiment" field of its
/// schema. With --json/--json-dir the bench's printed tables and metrics
/// are additionally captured and written crash-safely; with --trace the
/// LEVY_SPAN phases land as a Chrome trace file. With --progress a sampler
/// thread heartbeats completed/ETA to stderr; with --metrics-port the run
/// is scrapeable at /metrics, /healthz and /progress while live. All
/// telemetry notices go to stderr so stdout stays bit-identical with and
/// without these flags (the resume-determinism CI job diffs stdout).
/// SIGTERM cancels cooperatively whenever any of these sinks is active:
/// completed trials are flushed to the journal, the partial JSON document
/// (marked "interrupted": true) and the trace land through the crash-safe
/// writer, the progress reporter prints a final line, and the process exits
/// 130; rerunning with the same flags resumes and produces bit-identical
/// output.
inline int run_main(const std::string& id, int argc, char** argv,
                    const std::function<void(const sim::run_options&)>& body) {
    sim::run_options opts;
    try {
        opts = sim::parse_run_options(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << argv[0] << ": " << e.what() << '\n';
        return 1;
    }
    const std::string json_path = sim::default_json_path(opts, id);
    const bool observing = !json_path.empty() || !opts.trace_path.empty();
    const bool telemetry = opts.progress_seconds > 0.0 || opts.metrics_port >= 0;
    // Emit whatever telemetry/partial results exist; shared by the success
    // and the cancellation path so a SIGTERM'd run flushes the same sinks.
    const auto flush_observability = [&](bool interrupted) {
        obs::stop_progress();  // final stderr line, even when cancelled
        obs::stop_metrics_exporter();
        const auto metrics = sim::metrics_snapshot();
        if (!interrupted && metrics.trials > 0) {
            std::cout << sim::format_throughput(metrics) << '\n';
        }
        if (!observing) return;
        obs::stop_span_collection();
        if (!json_path.empty()) {
            obs::write_report(json_path, metrics, interrupted);
            obs::end_report();
            std::cerr << id << ": wrote " << json_path
                      << (interrupted ? " (interrupted)" : "") << '\n';
        }
        if (!opts.trace_path.empty()) {
            obs::write_chrome_trace(opts.trace_path);
            std::cerr << id << ": wrote " << opts.trace_path << '\n';
        }
    };
    try {
        // Any active sink wants the cooperative-cancellation flush on
        // SIGTERM; without one the signal keeps its default disposition.
        if (!opts.checkpoint_dir.empty() || observing || telemetry) sim::cancel_on_sigterm();
        if (observing) {
            obs::start_span_collection();
            if (!json_path.empty()) obs::begin_report(id, sim::describe_options(opts));
        }
        if (opts.metrics_port >= 0) {
            const unsigned short port = obs::start_metrics_exporter(
                static_cast<unsigned short>(opts.metrics_port));
            std::cerr << id << ": serving metrics on http://127.0.0.1:" << port
                      << "/metrics\n";
        }
        if (opts.progress_seconds > 0.0) {
            obs::start_progress({opts.progress_seconds, id});
        }
        body(opts);
        flush_observability(/*interrupted=*/false);
        return 0;
    } catch (const sim::run_cancelled&) {
        try {
            flush_observability(/*interrupted=*/true);
        } catch (const std::exception& e) {
            std::cerr << argv[0] << ": while flushing after cancellation: " << e.what()
                      << '\n';
        }
        std::cerr << argv[0]
                  << ": cancelled; completed trials are journaled — rerun with the same "
                     "--checkpoint to resume\n";
        return 130;
    } catch (const std::exception& e) {
        obs::stop_progress();
        obs::stop_metrics_exporter();
        std::cerr << argv[0] << ": " << e.what() << '\n';
        return 1;
    }
}

/// Scale an integer dimension by --scale (at least 1; throws past int64).
using sim::scaled;

/// Generic parallel hitting time over k arbitrary jump processes, for the
/// baseline comparisons (E9) where the searchers are not Lévy walks.
/// `make(i, stream)` builds the i-th searcher from its private stream.
/// Thin wrapper over the shared shrinking-budget loop in
/// `levy::parallel_min_hit`, so the early-exit logic lives in one place.
template <class Factory>
hit_result parallel_hit_generic(std::size_t k, point target, std::uint64_t budget,
                                const rng& trial_stream, Factory&& make) {
    const parallel_result r =
        parallel_min_hit(k, target, budget, trial_stream, std::forward<Factory>(make));
    return {r.hit, r.time};
}

}  // namespace levy::bench
