#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/monte_carlo.h"
#include "src/sim/trial.h"

namespace levy::sim {

/// Command-line options shared by every bench/example binary:
///   --trials=N              Monte-Carlo trials per table row (scaled by each bench)
///   --scale=S               multiplies problem sizes (ℓ grids, budgets); S=1 default
///   --threads=T             worker threads (0 = hardware concurrency)
///   --chunk=C               work-queue chunk size (0 = auto)
///   --seed=X                master seed
///   --checkpoint=DIR        journal completed trials into DIR; a rerun with
///                           the same flags resumes and reproduces the output
///                           bit-identically (SIGTERM also checkpoints and
///                           exits cleanly when this is set)
///   --checkpoint-interval=K flush the journal every K completed trials (>= 1)
///   --max-steps-per-trial=M watchdog: hard per-trial step cap; truncated
///                           trials are reported as censored, never silently
///                           folded into the statistics (0 = no cap)
///   --json=PATH             write the structured result document
///                           (schema "levy-bench" v1: options, table rows,
///                           metrics, per-phase spans) to PATH, crash-safe
///   --json-dir=DIR          like --json, but named BENCH_<id>.json in DIR
///                           ("--json=-" disables an inherited --json-dir)
///   --trace=PATH            write collected LEVY_SPAN phases as a Chrome
///                           trace-event file (chrome://tracing / Perfetto)
///   --progress[=SECS]       print a throttled progress/ETA line to stderr
///                           every SECS seconds (default 2); stdout stays
///                           byte-identical with and without the flag
///   --metrics-port=P        serve /metrics (Prometheus), /healthz and
///                           /progress on 0.0.0.0:P while the run is live
///                           (P=0 picks an ephemeral port, printed to stderr)
///   --engine=E              walk-trial engine, "batch" (default) or
///                           "scalar"; results are bit-identical, only
///                           throughput differs (see sim/walk_engine.h)
///   --deadline-ms=D         per-request deadline handed to serving/driver
///                           layers (levyserve, E23); must be > 0 when given
///                           (0 = keep the server's default)
///   --queue-capacity=Q      admission-queue capacity for serving layers;
///                           must be > 0 when given (0 = server default)
///   --cap=C                 truncate jump lengths at C (0 = uncapped, the
///                           default) — the truncated-Zipf regime of the
///                           intermittent variants; capped runs with C at or
///                           below the alias threshold are where the batch
///                           engine's shared distribution cache pays most
///                           (the scalar path rebuilds an O(C) table per
///                           walker per trial)
///   --shards=S              out-of-core mode (batch engine only): run each
///                           parallel trial as S walker-id blocks, one
///                           resident at a time, each driven to the end
///                           before the next; results stay bit-identical to
///                           the in-memory run (S <= 1 and no
///                           --memory-budget = one block, in memory)
///   --memory-budget=B       resident walker-record cap in bytes (suffixes
///                           K/M/G/T = binary multiples); raises the block
///                           count until one block fits; 0 = unlimited
///   --spill-dir=DIR         where out-of-core trials keep their block
///                           journal, flushed after every finished block, to
///                           resume a killed run from (default: none —
///                           nothing is written)
///   --epoch-steps=N         steps a walker advances per epoch inside a
///                           block (default 0 = whole phases); results are
///                           invariant under it
/// Unknown arguments, malformed/empty values, and duplicated flags all
/// throw, so typos fail loudly.
struct run_options {
    std::size_t trials = 0;  ///< 0 = keep the binary's default
    double scale = 1.0;
    unsigned threads = 0;
    std::size_t chunk = 0;  ///< 0 = auto
    std::uint64_t seed = kDefaultSeed;
    std::string checkpoint_dir;            ///< empty = no checkpointing
    std::size_t checkpoint_interval = 256; ///< journal flush cadence (trials)
    std::uint64_t max_trial_steps = 0;     ///< watchdog step cap (0 = off)
    std::string json_path;                 ///< --json ("-" = explicitly off)
    std::string json_dir;                  ///< --json-dir (empty = off)
    std::string trace_path;                ///< --trace (empty = off)
    double progress_seconds = 0.0;         ///< --progress interval (0 = off)
    int metrics_port = -1;                 ///< --metrics-port (-1 = off, 0 = ephemeral)
    engine_kind engine = engine_kind::batch;  ///< --engine
    std::uint64_t cap = kNoCap;               ///< --cap (kNoCap = uncapped)
    std::uint64_t deadline_ms = 0;            ///< --deadline-ms (0 = unset)
    std::size_t queue_capacity = 0;           ///< --queue-capacity (0 = unset)
    std::size_t shards = 0;                   ///< --shards (<= 1 = in-memory)
    std::uint64_t memory_budget = 0;          ///< --memory-budget bytes (0 = unlimited)
    std::string spill_dir;                    ///< --spill-dir (empty = no journal)
    std::uint64_t epoch_steps = 0;            ///< --epoch-steps (0 = whole phases)

    /// Copy the out-of-core knobs into a parallel-trial config (helper so
    /// every bench wires them the same way).
    void apply_sharding(parallel_walk_config& cfg) const {
        cfg.shards = shards;
        cfg.memory_budget = memory_budget;
        cfg.spill_dir = spill_dir;
        cfg.epoch_steps = epoch_steps;
    }

    /// mc_options with this run's trials (or `default_trials` when the user
    /// didn't override) and a per-use salt so distinct experiment phases in
    /// one binary don't share streams. With --checkpoint set, each phase
    /// journals to its own file inside the directory, keyed by the salted
    /// seed and trial count — so give every phase a distinct salt (the
    /// benches already do, to keep streams independent).
    [[nodiscard]] mc_options mc(std::size_t default_trials, std::uint64_t salt = 0) const;
};

[[nodiscard]] run_options parse_run_options(int argc, char** argv);

/// A bench dimension `base` scaled by --scale, truncated and at least 1.
/// Throws std::invalid_argument when base · scale falls outside
/// std::int64_t (or is NaN).
[[nodiscard]] std::int64_t scaled(std::int64_t base, double scale);

/// Where the structured JSON for experiment `id` should land, resolving
/// --json against --json-dir: an explicit --json wins ("-" disables);
/// otherwise --json-dir gives DIR/BENCH_<id>.json; empty means no JSON.
[[nodiscard]] std::string default_json_path(const run_options& opts, const std::string& id);

/// The options as (flag, value) pairs the user could re-type — the
/// "options" object of the structured result document.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> describe_options(
    const run_options& opts);

/// Route SIGTERM into cooperative cancellation (request_cancel): the driver
/// stops at the next trial boundary, flushes the checkpoint journal, and
/// run_main exits with status 130. Installed by run_main when --checkpoint
/// is in effect; without a checkpoint SIGTERM keeps its default (fatal)
/// disposition, matching prior behavior.
void cancel_on_sigterm() noexcept;

/// One-line throughput report for the process's accumulated Monte-Carlo
/// work, e.g. "throughput: 12800 trials in 1.92 s (6657 trials/s, 4 workers,
/// 93% utilization)". Censored trials, if any, are appended so watchdog
/// truncation is always visible. Empty when no trials ran.
[[nodiscard]] std::string format_throughput(const run_metrics& m);

}  // namespace levy::sim
