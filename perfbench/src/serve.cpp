// serve_mixed — an in-process levyserve (2 workers, a cache file) driven by
// one open-loop generator thread at a fixed 800 requests per second. The
// traffic mixes two query kinds over a cache grid warmed during setup:
//   fit   — the full Monte-Carlo batch fits the deadline: the server runs
//           the engine and inserts the answer into the cache (writes);
//   tight — deadline_ms=1: answered from the cache by an exact-cell hit or
//           by interpolation between grid points (reads).
// Fit queries replay grid points, so every insert stores the value already
// cached and every response body stays a pure function of the query —
// which is what lets each 200 body be compared byte for byte with the body
// server::handle() produced for the same query during setup.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "client.h"
#include "perfbench.h"
#include "src/obs/trace.h"
#include "src/rng/rng_stream.h"
#include "src/serve/server.h"

namespace perfbench {

using namespace levy;

namespace {

constexpr double kRate = 800.0;  // requests per second
// The query shape of E23, the repository's serving benchmark:
// /query?alpha=2.5&ell=64&k=2&budget=2000&trials=8.
constexpr std::int64_t kEll = 64;
constexpr std::uint64_t kK = 2;
constexpr std::uint64_t kTrials = 8;
// Grid around E23's (α, budget): every other α cell (pitch 1/32) over
// [2.25, 2.75] × the four budget cells (8 per octave) 2^10.75 .. 2^11.125,
// which hold budget 2000. A query rounding to an even α cell is an exact
// hit, one rounding to an odd cell interpolates between its neighbours.
constexpr int kAlphaQLo = 72;
constexpr int kAlphaQHi = 88;
constexpr int kBudgetQLo = 86;
constexpr int kBudgetQHi = 89;
constexpr std::size_t kTightPool = 256;
// Unverified: the repository records no serving traffic mix. One write in
// four keeps the engine busy on the 2 workers about a quarter of the time
// at kRate, far from shedding, while reads stay most of the requests.
constexpr double kFitShare = 0.25;
/// Fit queries per latency window (p90 then has 10 samples beyond it).
constexpr double kWindowFits = 100.0;
/// Every this-many-th request of a traced run is a /healthz probe.
constexpr std::size_t kProbeEvery = 20;
constexpr double kTimeoutS = 10.0;

struct query {
    std::string path;
    double alpha = 0.0;
    std::uint64_t budget = 0;
    bool fit = false;
};

std::string fmt_alpha(double alpha) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4f", alpha);
    return buf;
}

query make_query(double alpha, std::uint64_t budget, bool fit) {
    query q;
    const std::string a = fmt_alpha(alpha);
    q.alpha = std::strtod(a.c_str(), nullptr);  // exactly what the server parses
    q.budget = budget;
    q.fit = fit;
    q.path = "/query?alpha=" + a + "&ell=" + std::to_string(kEll) + "&k=" + std::to_string(kK) +
             "&budget=" + std::to_string(budget) + "&trials=" + std::to_string(kTrials) +
             (fit ? "" : "&deadline_ms=1");
    return q;
}

std::uint64_t budget_at(double budget_q) {
    return static_cast<std::uint64_t>(std::llround(std::exp2(budget_q / 8.0)));
}

std::vector<query> fit_pool() {
    std::vector<query> out;
    for (int aq = kAlphaQLo; aq <= kAlphaQHi; aq += 2) {
        for (int bq = kBudgetQLo; bq <= kBudgetQHi; ++bq) {
            out.push_back(make_query(aq / 32.0, budget_at(bq), true));
        }
    }
    return out;
}

std::vector<query> tight_pool(std::uint64_t seed) {
    rng g = rng::seeded(seed);
    std::vector<query> out;
    for (std::size_t i = 0; i < kTightPool; ++i) {
        const double alpha = kAlphaQLo / 32.0 + g.uniform() * (kAlphaQHi - kAlphaQLo) / 32.0;
        const double bq = kBudgetQLo + g.uniform() * (kBudgetQHi - kBudgetQLo);
        out.push_back(make_query(alpha, budget_at(bq), false));
    }
    return out;
}

serve::serve_options server_options(const std::string& cache_path, unsigned workers) {
    serve::serve_options opts;
    opts.workers = workers;
    // A queue deep enough to ride out a second-long stall of both workers at
    // kRate: a shed would lose its 503 to a reset (see GLOSSARY.md), and a
    // shared disk can stall a cache flush that long.
    opts.queue_capacity = 1024;
    // Persist every 1024 inserts (about every 5 s) rather than every 16, so
    // fsync latency, which varies with whatever else uses the disk, stays
    // out of most fit answers; cache.flush_ms prices a flush directly.
    opts.cache_flush_every = 1024;
    // E23's deadline currency: 1 ms buys 2000 steps and the default deadline
    // is 50 ms, so a fit query's batch (8 trials × budget ≤ 2234) fits it and
    // a tight one's never fits 1 ms.
    opts.steps_per_ms = 2000;
    opts.default_deadline_ms = 50;
    // The server keeps its default Monte-Carlo seed: the workload seed picks
    // the traffic, not the server's configuration.
    opts.cache_path = cache_path;
    return opts;
}

serve::http_request request_for(const std::string& path) {
    serve::http_request req;
    if (!serve::parse_request_line("GET " + path + " HTTP/1.1", req)) {
        throw std::logic_error("perfbench: unparsable request " + path);
    }
    return req;
}

/// A started server with its cache grid warmed, plus the body every query
/// must come back with.
struct warmed_server {
    std::unique_ptr<serve::server> srv;
    unsigned short port = 0;
    std::map<std::string, std::string> expected;
    std::vector<double> fit_ms;
    std::vector<double> cached_ms;
};

warmed_server start_warmed(const serve::serve_options& opts, const std::vector<query>& fits,
                           const std::vector<query>& tights) {
    warmed_server w;
    w.srv = std::make_unique<serve::server>(opts);
    w.port = w.srv->start();
    for (const auto* pool : {&fits, &tights}) {  // grid first: tight answers read it
        for (const query& q : *pool) {
            obs::span span(q.fit ? "server.handle.fit" : "server.handle.cached");
            const double t0 = now_s();
            const serve::http_response resp = w.srv->handle(request_for(q.path), 0);
            (q.fit ? w.fit_ms : w.cached_ms).push_back((now_s() - t0) * 1e3);
            if (resp.status != 200) {
                throw std::runtime_error("setup: " + q.path + " answered " + std::to_string(resp.status));
            }
            w.expected[q.path] = resp.body;
        }
    }
    int status = 0;
    if (serve::http_get(w.port, "/healthz", 5.0, &status) != std::optional<std::string>("ok\n")) {
        throw std::runtime_error("setup: /healthz did not answer");
    }
    w.expected["/healthz"] = "ok\n";
    return w;
}

/// The request sequence: each request independently a fit query (share
/// kFitShare) or a tight one, drawn from the pools by the seed.
std::vector<std::string> traffic(std::uint64_t seed, std::size_t n, bool probes,
                                 const std::vector<query>& fits,
                                 const std::vector<query>& tights) {
    rng g = rng::seeded(seed);
    std::vector<std::string> paths;
    paths.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (probes && i % kProbeEvery == kProbeEvery - 1) {
            paths.emplace_back("/healthz");
        } else if (g.uniform() < kFitShare) {
            paths.push_back(fits[g.below(fits.size())].path);
        } else {
            paths.push_back(tights[g.below(tights.size())].path);
        }
    }
    return paths;
}

/// Fit queries carry no deadline_ms (the server's default deadline fits them).
bool is_fit(const std::string& path) {
    return path.rfind("/query?", 0) == 0 && path.find("deadline_ms") == std::string::npos;
}

/// Count failures: anything but a 200 carrying the expected body.
std::uint64_t check_responses(const std::vector<std::string>& paths,
                              const std::vector<request_outcome>& got,
                              const std::map<std::string, std::string>& expected, outcome* out) {
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < paths.size(); ++i) {
        if (got[i].status == 200 && got[i].body == expected.at(paths[i])) continue;
        ++failed;
        if (out != nullptr) {
            out->fail(paths[i] + ": " +
                      (got[i].status == 0 ? std::string("transport error")
                                          : "status " + std::to_string(got[i].status) +
                                                (got[i].status == 200 ? " with a different body" : "")));
        }
    }
    return failed;
}

}  // namespace

outcome run_serve_mixed(const run_args& args) {
    outcome out;
    const std::vector<query> fits = fit_pool();
    const std::vector<query> tights = tight_pool(derive_seed(args.seed, 0x71));

    // --- Setup: start the server and warm its cache (once per process, so
    // the engine and distribution caches are cold).
    const double setup0 = now_s();
    warmed_server w = start_warmed(server_options(args.work_dir + "/cache.bin", 2), fits, tights);
    put(out.end_to_end, "setup_s", now_s() - setup0);
    if (args.setup_only) {
        w.srv->stop();
        return out;
    }

    // --- The open loop --------------------------------------------------------
    const std::size_t n = static_cast<std::size_t>(std::ceil(kRate * args.seconds));
    const std::vector<std::string> paths = traffic(derive_seed(args.seed, 0x7a), n, args.trace, fits, tights);
    const serve::server::stats_snapshot before = w.srv->stats();
    std::vector<request_outcome> got;
    if (args.trace) {
        // First half untraced, second half traced (for obs.trace_overhead).
        const std::vector<std::string> first(paths.begin(), paths.begin() + static_cast<long>(n / 2));
        const std::vector<std::string> second(paths.begin() + static_cast<long>(n / 2), paths.end());
        got = run_open_loop(w.port, first, kRate, kTimeoutS);
        obs::start_span_collection();
        obs::span span("serve.open_loop");
        const std::vector<request_outcome> rest = run_open_loop(w.port, second, kRate, kTimeoutS);
        got.insert(got.end(), rest.begin(), rest.end());
    } else {
        got = run_open_loop(w.port, paths, kRate, kTimeoutS);
    }
    const serve::server::stats_snapshot after = w.srv->stats();
    put(out.end_to_end, "peak_rss_mib", peak_rss_mib());

    // Latency from each request's due time; failures miss any limit. The
    // gated figures are over fit queries, the ones that run the engine: a
    // cached answer takes ~0.2 ms, nearly all of it thread wake-ups. They are
    // taken per window of about kWindowFits fit queries, and the lower
    // decile over windows is reported: on a shared virtual machine, spells
    // in which the host takes the CPU slow whole windows (the fit p90 of a
    // window doubles or triples while the host steals CPU time, for
    // minutes), and the quietest tenth of the run still shows what the code
    // costs. A steady code cost moves every window; host contention does
    // not. Neither does any stall that comes and goes, the server's own
    // included: the few windows holding a cache flush (one per 1024 fit
    // queries) are always discarded, so flush cost shows only in the
    // traced run's cache.flush_ms.
    const std::size_t half = n / 2;
    const double window_s = kWindowFits / (kRate * kFitShare);
    std::vector<double> latency;
    std::vector<double> fit_latency;
    std::map<std::size_t, std::vector<double>> windows;  // window index -> fit latencies
    std::vector<double> halves[2];
    std::vector<double> lag;
    std::vector<double> rtt;
    std::size_t ok = 0;
    double last_done = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const request_outcome& r = got[i];
        // In a traced run the second half restarted its clock at zero.
        const std::size_t slot = args.trace && i >= half ? i - half : i;
        const double due = static_cast<double>(slot) / kRate;
        const bool answered = r.status == 200;
        last_done = std::max(last_done, r.done_s);
        lag.push_back((r.send_s - due) * 1e3);
        if (paths[i] == "/healthz") {
            if (answered) rtt.push_back((r.done_s - r.send_s) * 1e3);
            continue;
        }
        ok += answered ? 1 : 0;
        const double ms = answered ? (r.done_s - due) * 1e3 : std::numeric_limits<double>::infinity();
        latency.push_back(ms);
        if (!is_fit(paths[i])) continue;
        fit_latency.push_back(ms);
        windows[static_cast<std::size_t>(static_cast<double>(i) / kRate / window_s)].push_back(ms);
        halves[args.trace && i >= half ? 1 : 0].push_back(ms);
    }
    std::vector<double> window_p50;
    std::vector<double> window_p90;
    for (const auto& [index, ms] : windows) {
        window_p50.push_back(median(ms));
        window_p90.push_back(percentile(ms, 90.0));
    }
    put(out.end_to_end, "throughput_per_s", static_cast<double>(ok) / last_done);
    put(out.end_to_end, "latency_p50_ms", percentile(window_p50, kQuietPercent));
    put(out.end_to_end, "latency_tail_ms", percentile(window_p90, kQuietPercent));
    char line[240];
    std::snprintf(line, sizeof line,
                  "%zu queries at %.0f/s (open loop), %zu fit in %zu windows; all queries p50 %.3f ms, "
                  "p99 %.3f ms, max %.3f ms; generator lag p99 %.3f ms",
                  latency.size(), kRate, fit_latency.size(), windows.size(), median(latency),
                  percentile(latency, 99.0), percentile(latency, 100.0), percentile(lag, 99.0));
    out.note(line);

    // --- Correctness ----------------------------------------------------------
    out.attempted = n;
    (void)check_responses(paths, got, w.expected, &out);
    if (after.worker_faults != before.worker_faults || after.bad_requests != before.bad_requests) {
        out.fail("server counted worker faults or bad requests");
    }

    if (args.trace) {
        // --- Per-layer metrics (traced run) --------------------------------------
        serve::result_cache& cache = w.srv->cache();
        std::vector<double> find_us;
        std::vector<double> interp_us;
        std::vector<double> insert_us;
        obs::span reads("cache.find+interpolate");
        for (const query& t : tights) {
            const double t0 = now_s();
            (void)cache.find(cache.quantize(t.alpha, kEll, kK, t.budget));
            const double t1 = now_s();
            (void)cache.interpolate(t.alpha, kEll, kK, t.budget);
            const double t2 = now_s();
            find_us.push_back((t1 - t0) * 1e6);
            interp_us.push_back((t2 - t1) * 1e6);
        }
        obs::span writes("cache.insert");
        for (const query& f : fits) {
            const serve::cache_key key = cache.quantize(f.alpha, kEll, kK, f.budget);
            const std::optional<serve::cache_value> v = cache.find(key);
            if (!v) {
                out.fail("grid point " + f.path + " missing from the cache");
                continue;
            }
            const double t0 = now_s();
            cache.insert(key, *v);  // same value: the cache content is unchanged
            insert_us.push_back((now_s() - t0) * 1e6);
        }
        std::vector<double> flush_ms;
        for (int rep = 0; rep < 5; ++rep) {
            obs::span span("server.flush_cache");
            const double t0 = now_s();
            w.srv->flush_cache();
            flush_ms.push_back((now_s() - t0) * 1e3);
        }

        const auto fit_count = static_cast<std::size_t>(std::count_if(paths.begin(), paths.end(), is_fit));
        const double handle_fit = median(w.fit_ms);
        const double handle_cached = median(w.cached_ms);
        const double queries = static_cast<double>(latency.size());
        const double mean_handle = (static_cast<double>(fit_count) * handle_fit +
                                    (queries - static_cast<double>(fit_count)) * handle_cached) /
                                   queries;
        double mean_latency_from_send = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (paths[i] != "/healthz" && got[i].status == 200) {
                mean_latency_from_send += (got[i].done_s - got[i].send_s) * 1e3;
            }
        }
        mean_latency_from_send /= static_cast<double>(ok);

        auto& pl = out.per_layer;
        put(pl, "http.rtt_ms", median(rtt));
        put(pl, "admission.admitted", static_cast<double>(after.admission.admitted - before.admission.admitted));
        put(pl, "admission.shed",
            static_cast<double>(after.admission.shed_total() - before.admission.shed_total()));
        put(pl, "admission.wait_ms", mean_latency_from_send - mean_handle - median(rtt));
        put(pl, "server.handle_ms.fit", handle_fit);
        put(pl, "server.handle_ms.cached", handle_cached);
        put(pl, "server.exact", static_cast<double>(after.exact - before.exact));
        put(pl, "server.interpolated", static_cast<double>(after.interpolated - before.interpolated));
        put(pl, "server.degraded", static_cast<double>(after.degraded - before.degraded));
        put(pl, "cache.find_us", median(find_us));
        put(pl, "cache.interpolate_us", median(interp_us));
        put(pl, "cache.insert_us", median(insert_us));
        put(pl, "cache.flush_ms", median(flush_ms));
        put(pl, "cache.hit_ratio",
            static_cast<double>(after.cache_hits - before.cache_hits) /
                (queries - static_cast<double>(fit_count)));
        put(pl, "gen.lag_ms", percentile(lag, 99.0));
        put(pl, "obs.trace_overhead", median(halves[1]) / median(halves[0]) - 1.0);
        out.note("admission.wait_ms is an estimate: mean latency from send - mean handle time - rtt");
    }
    w.srv->stop();
    return out;
}

work_counts serve_smoke_counts(const run_args& args, std::uint64_t& failed) {
    const unsigned workers = args.threads;
    const std::vector<query> fits = fit_pool();
    const std::vector<query> tights = tight_pool(derive_seed(args.seed, 0x71));
    warmed_server w = start_warmed(
        server_options(args.work_dir + "/smoke-cache-" + std::to_string(workers) + ".bin", workers),
        fits, tights);
    const std::vector<std::string> paths = traffic(derive_seed(args.seed, 0x7a), 200, false, fits, tights);
    const serve::server::stats_snapshot before = w.srv->stats();
    const std::vector<request_outcome> got = run_open_loop(w.port, paths, 200.0, kTimeoutS);
    const serve::server::stats_snapshot after = w.srv->stats();
    w.srv->stop();
    failed += check_responses(paths, got, w.expected, nullptr);
    return {{"server.exact", after.exact - before.exact},
            {"server.interpolated", after.interpolated - before.interpolated},
            {"server.degraded", after.degraded - before.degraded}};
}

}  // namespace perfbench
