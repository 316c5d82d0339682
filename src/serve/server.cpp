#include "src/serve/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <mutex>
#include <stdexcept>
#include <string>
// levylint:allow(raw-thread) acceptor + worker threads: service I/O framing
// only — every query runs its Monte-Carlo inline with threads=1, so the
// sim::thread_pool RNG discipline is never bypassed.
#include <thread>
#include <utility>
#include <vector>

#include "src/core/contracts.h"
#include "src/core/strategy.h"
#include "src/core/theory.h"
#include "src/obs/exporter.h"
#include "src/obs/json.h"
#include "src/sim/fault.h"
#include "src/sim/trial.h"
#include "src/stats/proportion.h"

#if LEVY_SERVE_HAVE_POSIX_SOCKETS

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace levy::serve {
namespace {

/// u64 seeds exceed double precision, so JSON carries them as hex strings
/// (same convention as sim::describe_options).
std::string hex_u64(std::uint64_t v) {
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
    return std::string(buf);
}

/// Query-parameter parsing: strict full-string numeric parses; any failure
/// is a 400, never a silent default.
bool parse_u64_param(const std::string& text, std::uint64_t& out) {
    if (text.empty() || text[0] == '-') return false;
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool parse_i64_param(const std::string& text, std::int64_t& out) {
    if (text.empty()) return false;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') return false;
    out = static_cast<std::int64_t>(v);
    return true;
}

bool parse_double_param(const std::string& text, double& out) {
    if (text.empty()) return false;
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' || !std::isfinite(v)) return false;
    out = v;
    return true;
}

http_response json_response(int status, const obs::json& doc) {
    http_response resp;
    resp.status = status;
    resp.content_type = "application/json";
    resp.body = doc.dump() + "\n";
    return resp;
}

http_response error_response(int status, const std::string& message) {
    obs::json doc = obs::json::object();
    doc.set("error", message);
    return json_response(status, doc);
}

}  // namespace

struct server::impl {
    std::atomic<bool> running{false};
    int listen_fd = -1;
    std::thread acceptor;               // levylint:allow(raw-thread) see file header note
    std::vector<std::thread> workers;   // levylint:allow(raw-thread) see file header note

    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> plans{0};
    std::atomic<std::uint64_t> exact{0};
    std::atomic<std::uint64_t> interpolated{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> bad_requests{0};
    std::atomic<std::uint64_t> worker_faults{0};
    std::atomic<std::uint64_t> head_failures{0};

    /// Serializes result_cache::save calls: atomic_write_file stages at a
    /// fixed temp path, so two concurrent flushes of the same file would
    /// race each other's rename.
    std::mutex flush_m;
};

server::server(const serve_options& opts)
    : opts_(opts),
      queue_(admission_options{opts.queue_capacity == 0 ? 1 : opts.queue_capacity,
                               64 * 1024, opts.max_inflight_bytes,
                               opts.retry_after_seconds}),
      cache_(opts.cache),
      impl_(std::make_unique<impl>()) {
    LEVY_PRECONDITION(opts.workers >= 1, "serve: workers must be >= 1");
    LEVY_PRECONDITION(opts.queue_capacity >= 1, "serve: queue_capacity must be >= 1");
    LEVY_PRECONDITION(opts.default_deadline_ms >= 1, "serve: default_deadline_ms must be >= 1");
    LEVY_PRECONDITION(opts.steps_per_ms >= 1, "serve: steps_per_ms must be >= 1");
    LEVY_PRECONDITION(opts.default_trials >= 1, "serve: default_trials must be >= 1");
    LEVY_PRECONDITION(opts.cache_flush_every >= 1, "serve: cache_flush_every must be >= 1");
}

server::~server() { stop(); }

unsigned short server::start() {
    if (impl_->running.load()) throw std::logic_error("serve: server already running");
    if (!opts_.cache_path.empty()) {
        // A directory would load as missing, then fail every flush.
        std::error_code ec;
        const auto status = std::filesystem::status(opts_.cache_path, ec);
        if (std::filesystem::exists(status) && !std::filesystem::is_regular_file(status)) {
            throw std::runtime_error("serve: cache path is not a regular file: " +
                                     opts_.cache_path);
        }
        cache_.load(opts_.cache_path);  // missing/corrupt file loads nothing
    }
    auto [fd, port] = listen_on(opts_.port);
    impl_->listen_fd = fd;
    port_ = port;
    impl_->running.store(true);
    // levylint:allow(raw-thread) service framing threads; see file header note
    impl_->acceptor = std::thread([this] { acceptor_loop(); });
    impl_->workers.reserve(opts_.workers);
    for (unsigned i = 0; i < opts_.workers; ++i) {
        // levylint:allow(raw-thread) service framing threads; see file header note
        impl_->workers.emplace_back([this] { worker_loop(); });
    }
    return port_;
}

void server::stop() noexcept {
    if (!impl_->running.exchange(false)) return;
    queue_.shutdown();
    if (impl_->listen_fd >= 0) ::shutdown(impl_->listen_fd, SHUT_RDWR);  // wakes the acceptor
    if (impl_->acceptor.joinable()) impl_->acceptor.join();
    if (impl_->listen_fd >= 0) {
        ::close(impl_->listen_fd);  // only once the acceptor is done with it
        impl_->listen_fd = -1;
    }
    for (auto& w : impl_->workers) {
        if (w.joinable()) w.join();
    }
    impl_->workers.clear();
    // Queued-but-never-popped connections get an honest shutdown 503.
    for (int fd : queue_.drain()) {
        http_response resp = error_response(503, "server shutting down");
        resp.retry_after_seconds = opts_.retry_after_seconds;
        (void)send_all(fd, render_response(resp));
        ::close(fd);
    }
    try {
        flush_cache();
    } catch (const std::exception&) {
        // Shutdown flush is best-effort; the periodic flushes already
        // persisted everything but the most recent inserts.
    }
}

bool server::running() const noexcept { return impl_->running.load(); }

void server::flush_cache() {
    if (opts_.cache_path.empty()) return;
    const std::lock_guard<std::mutex> lock(impl_->flush_m);
    cache_.save(opts_.cache_path);
}

void server::maybe_flush_cache() {
    if (opts_.cache_path.empty()) return;
    if (cache_.dirty_inserts() >= opts_.cache_flush_every) flush_cache();
}

server::stats_snapshot server::stats() const {
    stats_snapshot s;
    s.admission = queue_.stats();
    s.queries = impl_->queries.load();
    s.plans = impl_->plans.load();
    s.exact = impl_->exact.load();
    s.interpolated = impl_->interpolated.load();
    s.degraded = impl_->degraded.load();
    s.cache_hits = impl_->cache_hits.load();
    s.bad_requests = impl_->bad_requests.load();
    s.worker_faults = impl_->worker_faults.load();
    s.head_failures = impl_->head_failures.load();
    s.cache_entries = cache_.size();
    return s;
}

void server::acceptor_loop() {
    using clock = std::chrono::steady_clock;
    // Shed connections whose 503 is sent and whose write side is shut. Each
    // is drained — the request read and discarded — until the client hangs
    // up, `max_head_bytes` arrive, or one I/O timeout passes, and only then
    // closed: closing with request bytes unread makes the kernel answer
    // them with RST, which destroys the 503 before the client reads it.
    // Drains are polled beside the listener, so a silent client holds one
    // slot, never the acceptor.
    struct drain {
        int fd;
        clock::time_point deadline;
        std::size_t bytes;
    };
    constexpr std::size_t kMaxDrains = 256;
    const auto drain_time = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double>(opts_.limits.io_timeout_seconds));
    std::vector<drain> drains;
    std::vector<pollfd> fds;
    char sink[1024];
    while (impl_->running.load()) {
        fds.assign(1, pollfd{impl_->listen_fd, POLLIN, 0});
        int timeout_ms = 200;
        const clock::time_point now = clock::now();
        for (const drain& d : drains) {
            fds.push_back(pollfd{d.fd, POLLIN, 0});
            const auto left = std::chrono::ceil<std::chrono::milliseconds>(d.deadline - now);
            timeout_ms = static_cast<int>(std::clamp<std::int64_t>(left.count(), 0, timeout_ms));
        }
        const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
        if (!impl_->running.load()) break;
        // Backwards, so swap-removal only moves already-visited drains.
        for (std::size_t i = drains.size(); i-- > 0;) {
            drain& d = drains[i];
            bool done = clock::now() >= d.deadline;
            if (!done && fds[i + 1].revents != 0) {
                const ssize_t n = ::recv(d.fd, sink, sizeof sink, MSG_DONTWAIT);
                if (n > 0) d.bytes += static_cast<std::size_t>(n);
                done = n == 0 ||
                       (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) ||
                       d.bytes > opts_.limits.max_head_bytes;
            }
            if (done) {
                ::close(d.fd);
                d = drains.back();
                drains.pop_back();
            }
        }
        if (rc <= 0 || (fds[0].revents & POLLIN) == 0) continue;
        const int fd = ::accept(impl_->listen_fd, nullptr, nullptr);
        if (fd < 0) continue;
        apply_socket_timeouts(fd, opts_.limits);
        const admit_result admitted = queue_.try_admit(fd);
        if (admitted == admit_result::admitted) continue;  // a worker owns it now
        // Shed at the front door: explicit, fast, bounded.
        http_response resp = error_response(
            503, std::string("overloaded: ") + admit_result_name(admitted));
        resp.retry_after_seconds = opts_.retry_after_seconds;
        (void)send_all(fd, render_response(resp));
        if (drains.size() < kMaxDrains && ::shutdown(fd, SHUT_WR) == 0) {
            drains.push_back({fd, clock::now() + drain_time, 0});
        } else {
            ::close(fd);  // every drain slot taken: the 503 is best effort
        }
    }
    for (const drain& d : drains) ::close(d.fd);
}

void server::worker_loop() {
    while (true) {
        const std::optional<admission_ticket> ticket = queue_.pop();
        if (!ticket.has_value()) return;  // shutdown
        process(*ticket);
        queue_.release();
    }
}

void server::process(const admission_ticket& ticket) {
    http_request req;
    const head_status hs = read_request_head(ticket.fd, opts_.limits, req);
    if (hs != head_status::ok) {
        impl_->head_failures.fetch_add(1);
        if (hs != head_status::closed) {
            const int status = hs == head_status::timeout     ? 408
                               : hs == head_status::too_large ? 431
                                                              : 400;
            (void)send_all(ticket.fd,
                           render_response(error_response(
                               status, std::string("bad request head: ") +
                                           head_status_name(hs))));
        }
        ::close(ticket.fd);
        return;
    }
    const http_response resp = handle(req, ticket.sequence);
    (void)send_all(ticket.fd, render_response(resp));
    ::close(ticket.fd);
}

http_response server::handle(const http_request& req, std::uint64_t sequence) {
    try {
        if (req.method != "GET") return error_response(400, "only GET is supported");
        if (req.path == "/healthz") {
            http_response resp;
            resp.body = "ok\n";
            return resp;
        }
        if (req.path == "/metrics") {
            http_response resp;
            resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
            resp.body = obs::prometheus_text();
            return resp;
        }
        if (req.path == "/stats") return handle_stats();
        if (req.path == "/plan") return handle_plan(req);
        if (req.path == "/query") return handle_query(req, sequence);
        return error_response(404, "no such endpoint: " + req.path);
    } catch (const sim::run_cancelled&) {
        http_response resp = error_response(503, "server shutting down");
        resp.retry_after_seconds = opts_.retry_after_seconds;
        return resp;
    } catch (const std::exception& e) {
        // A crashing handler (including an injected worker fault) answers
        // 500 and leaves the server serving — the levyfault drill's claim.
        impl_->worker_faults.fetch_add(1);
        return error_response(500, std::string("internal error: ") + e.what());
    }
}

http_response server::handle_query(const http_request& req, std::uint64_t sequence) {
    sim::fault_before_query(static_cast<std::size_t>(sequence));
    impl_->queries.fetch_add(1);

    // --- Parse + validate (any failure is a 400 naming the parameter) ----
    const auto bad = [this](const std::string& message) {
        impl_->bad_requests.fetch_add(1);
        return error_response(400, message);
    };

    double alpha = 0.0;
    std::int64_t ell = 0;
    const std::string* p = req.param("alpha");
    if (p == nullptr || !parse_double_param(*p, alpha)) {
        return bad("query needs alpha=<float>");
    }
    p = req.param("ell");
    if (p == nullptr || !parse_i64_param(*p, ell)) return bad("query needs ell=<int>");
    if (!(alpha > 1.0)) return bad("alpha must be > 1");
    if (ell < 2) return bad("ell must be >= 2");

    std::uint64_t k = 1;
    if ((p = req.param("k")) != nullptr && !parse_u64_param(*p, k)) {
        return bad("k must be a non-negative integer");
    }
    if (k < 1) return bad("k must be >= 1");

    // Budget defaults to the paper's Thm 1.5 prescription for (k, ℓ).
    std::uint64_t budget = static_cast<std::uint64_t>(
        theory::optimal_parallel_budget(static_cast<double>(k), static_cast<double>(ell)));
    if ((p = req.param("budget")) != nullptr && !parse_u64_param(*p, budget)) {
        return bad("budget must be a non-negative integer");
    }
    if (budget < 1) return bad("budget must be >= 1");

    std::uint64_t trials = opts_.default_trials;
    if ((p = req.param("trials")) != nullptr && !parse_u64_param(*p, trials)) {
        return bad("trials must be a non-negative integer");
    }
    if (trials < 1) return bad("trials must be >= 1");
    if (trials > opts_.max_trials) return bad("trials exceeds the server's max_trials");

    std::uint64_t seed = opts_.seed;
    if ((p = req.param("seed")) != nullptr && !parse_u64_param(*p, seed)) {
        return bad("seed must be a non-negative integer");
    }

    std::uint64_t cap = kNoCap;
    if ((p = req.param("cap")) != nullptr && !parse_u64_param(*p, cap)) {
        return bad("cap must be a non-negative integer");
    }
    if (cap == 0) return bad("cap must be >= 1");

    std::uint64_t deadline_ms = opts_.default_deadline_ms;
    if ((p = req.param("deadline_ms")) != nullptr && !parse_u64_param(*p, deadline_ms)) {
        return bad("deadline_ms must be a non-negative integer");
    }
    if (deadline_ms < 1) return bad("deadline_ms must be >= 1");
    if (deadline_ms > opts_.max_deadline_ms) deadline_ms = opts_.max_deadline_ms;

    // The deterministic deadline currency: a wall-clock allowance converts
    // once into a total step allowance; everything after this line is a
    // pure function of numbers, never of the clock.
    const std::uint64_t deadline_steps = deadline_ms * opts_.steps_per_ms;

    obs::json query = obs::json::object();
    query.set("alpha", alpha);
    query.set("ell", ell);
    query.set("k", k);
    query.set("budget", budget);
    query.set("trials", trials);
    query.set("seed", hex_u64(seed));
    query.set("deadline_ms", deadline_ms);
    query.set("deadline_steps", deadline_steps);

    obs::json doc = obs::json::object();
    doc.set("query", std::move(query));

    sim::parallel_walk_config cfg;
    cfg.k = static_cast<std::size_t>(k);
    cfg.strategy = fixed_exponent(alpha);
    cfg.ell = ell;
    cfg.budget = budget;
    cfg.cap = cap;

    sim::mc_options mc;
    mc.trials = static_cast<std::size_t>(trials);
    mc.threads = 1;  // queries are the unit of parallelism (inline MC)
    mc.seed = seed;

    // Worst-case cost model: every trial runs its full budget. Compare by
    // division so trials * budget can never overflow.
    const bool fits = trials <= deadline_steps / budget;

    if (fits) {
        // --- Rung 1: the full Monte-Carlo batch fits the allowance -------
        const sim::hitting_time_sample sample = sim::parallel_hitting_times(cfg, mc);
        const stats::proportion prop = stats::wilson_interval(sample.hits, trials);
        doc.set("probability", prop.estimate());
        doc.set("ci_low", prop.lo);
        doc.set("ci_high", prop.hi);
        doc.set("trials_run", trials);
        doc.set("quality", "exact");
        doc.set("cached", false);
        doc.set("censored", false);
        cache_.insert(cache_.quantize(alpha, ell, k, budget),
                      cache_value{prop.estimate(), prop.lo, prop.hi, trials});
        impl_->exact.fetch_add(1);
        maybe_flush_cache();
        return json_response(200, doc);
    }

    // --- Rung 2: exact grid-cell hit in the result cache -----------------
    const cache_key key = cache_.quantize(alpha, ell, k, budget);
    if (const std::optional<cache_value> hit = cache_.find(key); hit.has_value()) {
        doc.set("probability", hit->probability);
        doc.set("ci_low", hit->ci_low);
        doc.set("ci_high", hit->ci_high);
        doc.set("trials_run", hit->trials);
        doc.set("quality", "exact");
        doc.set("cached", true);
        doc.set("censored", false);
        impl_->exact.fetch_add(1);
        impl_->cache_hits.fetch_add(1);
        return json_response(200, doc);
    }

    // --- Rung 3: bilinear interpolation over cached grid points ----------
    if (const std::optional<result_cache::interpolation> interp =
            cache_.interpolate(alpha, ell, k, budget);
        interp.has_value()) {
        doc.set("probability", interp->probability);
        doc.set("trials_run", 0);
        doc.set("quality", "interpolated");
        doc.set("cached", true);
        doc.set("censored", false);
        doc.set("grid_points", interp->grid_points);
        impl_->interpolated.fetch_add(1);
        impl_->cache_hits.fetch_add(1);
        return json_response(200, doc);
    }

    // --- Rung 4: degraded partial run under the step watchdog ------------
    // Spread the allowance over as many trials as it can carry (≥ 1 step
    // each); the engine's max_steps watchdog censors trials at the cap.
    const std::uint64_t trials_run = std::min<std::uint64_t>(trials, deadline_steps);
    const std::uint64_t max_steps =
        std::min<std::uint64_t>(budget, std::max<std::uint64_t>(deadline_steps / trials_run, 1));
    cfg.max_steps = max_steps;
    mc.trials = static_cast<std::size_t>(trials_run);
    const sim::hitting_time_sample sample = sim::parallel_hitting_times(cfg, mc);
    const stats::proportion prop = stats::wilson_interval(sample.hits, trials_run);
    doc.set("probability", prop.estimate());
    doc.set("ci_low", prop.lo);
    doc.set("ci_high", prop.hi);
    doc.set("trials_run", trials_run);
    doc.set("quality", "degraded");
    doc.set("cached", false);
    doc.set("censored", sample.censored > 0);
    doc.set("censored_trials", sample.censored);
    doc.set("max_steps", max_steps);
    impl_->degraded.fetch_add(1);
    return json_response(200, doc);
}

http_response server::handle_plan(const http_request& req) {
    impl_->plans.fetch_add(1);
    const auto bad = [this](const std::string& message) {
        impl_->bad_requests.fetch_add(1);
        return error_response(400, message);
    };
    double k = 0.0;
    double ell = 0.0;
    const std::string* p = req.param("k");
    if (p == nullptr || !parse_double_param(*p, k)) return bad("plan needs k=<float>");
    p = req.param("ell");
    if (p == nullptr || !parse_double_param(*p, ell)) return bad("plan needs ell=<float>");
    if (k < 1.0) return bad("k must be >= 1");
    if (ell < 2.0) return bad("ell must be >= 2");

    const theory::parallel_plan plan = theory::plan_parallel_search(k, ell);
    obs::json doc = obs::json::object();
    doc.set("k", k);
    doc.set("ell", ell);
    doc.set("alpha_star", plan.alpha_star);
    doc.set("alpha_star_adjusted", plan.alpha_star_adjusted);
    doc.set("budget", plan.budget);
    doc.set("lower_bound", plan.lower_bound);
    return json_response(200, doc);
}

http_response server::handle_stats() {
    const stats_snapshot s = stats();
    obs::json admission = obs::json::object();
    admission.set("admitted", s.admission.admitted);
    admission.set("shed_queue_full", s.admission.shed_queue_full);
    admission.set("shed_bytes", s.admission.shed_bytes);
    admission.set("shed_shutdown", s.admission.shed_shutdown);
    admission.set("queue_depth", queue_.depth());
    admission.set("reserved_bytes", queue_.reserved_bytes());

    obs::json doc = obs::json::object();
    doc.set("admission", std::move(admission));
    doc.set("queries", s.queries);
    doc.set("plans", s.plans);
    doc.set("exact", s.exact);
    doc.set("interpolated", s.interpolated);
    doc.set("degraded", s.degraded);
    doc.set("cache_hits", s.cache_hits);
    doc.set("bad_requests", s.bad_requests);
    doc.set("worker_faults", s.worker_faults);
    doc.set("head_failures", s.head_failures);
    doc.set("cache_entries", s.cache_entries);
    return json_response(200, doc);
}

}  // namespace levy::serve

#endif  // LEVY_SERVE_HAVE_POSIX_SOCKETS
