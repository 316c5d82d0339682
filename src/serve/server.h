#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "src/serve/admission.h"
#include "src/serve/cache.h"
#include "src/serve/http.h"
#include "src/sim/monte_carlo.h"

namespace levy::serve {

/// --- levyserve: hitting-time search as a service --------------------------
///
/// A long-running daemon answering the paper's two operational questions
/// for many concurrent clients:
///
///   GET /query?alpha=A&ell=L[&k=K][&budget=T][&trials=N][&seed=S]
///             [&cap=C][&deadline_ms=D]
///       Monte-Carlo estimate of P(τ^k ≤ budget) for k parallel Lévy walks
///       with exponent A against a target at distance L (Thm 1.5 regime).
///   GET /plan?k=K&ell=L
///       The optimal common exponent α*(k, ℓ) and budget brackets
///       (Cor. 4.2 / Thm 1.5; theory::plan_parallel_search).
///   GET /healthz, /metrics, /stats
///       Liveness, Prometheus exposition, and serving counters.
///
/// Robustness ladder (DESIGN.md §10) — every request passes three gates:
///
///   1. ADMISSION: the acceptor hands connections to a bounded queue with
///      an explicit capacity and byte budget (serve/admission.h). Overload
///      sheds with `503 + Retry-After` at accept time; memory stays
///      bounded no matter the offered load.
///   2. DEADLINE: sockets carry recv/send timeouts plus a *total*
///      request-head deadline (serve/http.h), so a slow or silent client
///      costs a worker a bounded slice, never the process. The query
///      deadline itself is deterministic: `deadline_ms` converts to a step
///      allowance (deadline_ms * steps_per_ms) enforced through the
///      engine's --max-steps-per-trial watchdog — never through wall-clock
///      inside the simulation, so answers stay a pure function of the
///      query and replay byte-identically across restarts.
///   3. DEGRADATION: when the full Monte-Carlo batch does not fit the step
///      allowance, the answer downgrades explicitly — exact-cell hit in
///      the crash-safe result cache, then bilinear interpolation between
///      cached grid points, then a watchdog-truncated partial run — and
///      says so in a `"quality": "exact|interpolated|degraded"` field with
///      `"censored": true` on truncated runs. Degraded beats hung.
///
/// Determinism contract: a /query response body is a pure function of the
/// query parameters, the server's (seed, steps_per_ms, trials, cache
/// grid) configuration, and — for degraded answers only — the cache
/// contents. No wall-clock value ever enters a response body, which is
/// what the kill-and-restart selftest byte-compares.

struct serve_options {
    unsigned short port = 0;  ///< 0 = ephemeral
    /// Query worker threads (>= 1). Each runs its queries inline
    /// (single-threaded Monte-Carlo), so queries are the unit of
    /// parallelism and per-query results never depend on worker count.
    unsigned workers = 2;
    std::size_t queue_capacity = 64;
    std::size_t max_inflight_bytes = 0;  ///< 0 = derive (admission.h)
    int retry_after_seconds = 1;

    std::uint64_t default_deadline_ms = 200;
    std::uint64_t max_deadline_ms = 60'000;
    /// Deterministic deadline currency: one millisecond of deadline buys
    /// this many simulation steps. Calibrate per deployment (E23 measures
    /// actual steps/ms); determinism only needs it fixed per server run.
    std::uint64_t steps_per_ms = 20'000;

    std::size_t default_trials = 200;
    std::size_t max_trials = 100'000;
    std::uint64_t seed = sim::kDefaultSeed;

    std::string cache_path;  ///< empty = in-memory cache only
    /// Persist the cache after this many inserts (and at shutdown).
    std::size_t cache_flush_every = 16;
    cache_options cache;

    http_limits limits;
};

#if LEVY_SERVE_HAVE_POSIX_SOCKETS

class server {
public:
    explicit server(const serve_options& opts);
    ~server();

    server(const server&) = delete;
    server& operator=(const server&) = delete;

    /// Bind, load the cache (when configured), spawn acceptor + workers.
    /// Returns the bound port. Throws std::runtime_error / std::logic_error.
    unsigned short start();

    /// Stop accepting, drain workers, close queued connections with 503,
    /// flush the cache. Idempotent, safe when never started.
    void stop() noexcept;

    [[nodiscard]] bool running() const noexcept;
    [[nodiscard]] unsigned short port() const noexcept { return port_; }

    /// Answer one parsed request exactly as a worker would — the unit
    /// tests' socket-free entry point. `sequence` is the admission ordinal
    /// (feeds the fault hooks).
    [[nodiscard]] http_response handle(const http_request& req, std::uint64_t sequence);

    /// Persist the result cache now (no-op without a cache_path).
    void flush_cache();

    struct stats_snapshot {
        admission_queue::counters admission;
        std::uint64_t queries = 0;
        std::uint64_t plans = 0;
        std::uint64_t exact = 0;
        std::uint64_t interpolated = 0;
        std::uint64_t degraded = 0;
        std::uint64_t cache_hits = 0;
        std::uint64_t bad_requests = 0;
        std::uint64_t worker_faults = 0;
        std::uint64_t head_failures = 0;  ///< timeout/too_large/malformed/closed
        std::size_t cache_entries = 0;
    };
    [[nodiscard]] stats_snapshot stats() const;

    [[nodiscard]] const serve_options& options() const noexcept { return opts_; }
    [[nodiscard]] result_cache& cache() noexcept { return cache_; }

private:
    void acceptor_loop();
    void worker_loop();
    void process(const admission_ticket& ticket);
    void maybe_flush_cache();

    [[nodiscard]] http_response handle_query(const http_request& req,
                                             std::uint64_t sequence);
    [[nodiscard]] http_response handle_plan(const http_request& req);
    [[nodiscard]] http_response handle_stats();

    serve_options opts_;
    admission_queue queue_;
    result_cache cache_;

    struct impl;
    std::unique_ptr<impl> impl_;  ///< freed even when the constructor throws
    unsigned short port_ = 0;
};

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS

}  // namespace levy::serve
